/**
 * @file
 * Cross-path differential test: every simulation path that computes
 * the classify-path counters for the same machine must agree on them.
 *
 *  - classifyRun's MCT verdicts vs runShardedClassify at K = 1 and
 *    K = 3, over seeded random legal geometries (size, associativity,
 *    line size, stored-tag width, MCT depth) x the 16 workloads;
 *  - the timing MemorySystem (baselineConfig) vs sharded classify at
 *    the paper's 16KB direct-mapped 64B geometry;
 *  - SharedCacheStudy over a one-thread InterleavedTrace (misses and
 *    conflicts), and PageRemapSim with an epoch so long it never
 *    recolors (misses; it reports no conflict count), vs sharded
 *    classify at the same geometry.
 *
 * A divergence here means one path classifies, fills or records
 * evictions differently from the others.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/random.hh"
#include "mct/classify_run.hh"
#include "mt/interleave.hh"
#include "mt/shared_cache.hh"
#include "remap/remap_sim.hh"
#include "sim/experiment.hh"
#include "sim/sharded.hh"
#include "trace/vector_trace.hh"
#include "workloads/registry.hh"

namespace ccm
{
namespace
{

constexpr std::size_t kRefs = 20000;
constexpr std::uint64_t kSeed = 7;
constexpr int kGeometriesPerWorkload = 4;

VectorTrace
captureWorkload(const std::string &name)
{
    auto wl = makeWorkload(name, kRefs, kSeed);
    EXPECT_TRUE(wl) << name;
    return VectorTrace::capture(*wl);
}

/** A random legal classify geometry. */
ShardedClassifyConfig
drawGeometry(Pcg32 &rng)
{
    ShardedClassifyConfig cfg;
    cfg.cacheBytes = std::size_t{1024} << rng.below(6); // 1..32 KB
    cfg.assoc = 1u << rng.below(3);                     // 1, 2, 4
    cfg.lineBytes = 32u << rng.below(2);                // 32, 64
    cfg.mctTagBits = rng.below(2) == 0 ? 0 : 1 + rng.below(12);
    cfg.mctDepth = 1 + rng.below(3);                    // 1..3
    return cfg;
}

std::string
describe(const std::string &wl, const ShardedClassifyConfig &cfg)
{
    return wl + " " + std::to_string(cfg.cacheBytes / 1024) + "KB/" +
           std::to_string(cfg.assoc) + "way/" +
           std::to_string(cfg.lineBytes) + "B tag" +
           std::to_string(cfg.mctTagBits) + " depth" +
           std::to_string(cfg.mctDepth);
}

TEST(Differential, OracleClassifyMatchesShardedAcrossGeometries)
{
    Pcg32 rng(2024, 13);
    int checks = 0;
    for (const std::string &name : workloadNames()) {
        VectorTrace trace = captureWorkload(name);
        for (int g = 0; g < kGeometriesPerWorkload; ++g) {
            ShardedClassifyConfig cfg = drawGeometry(rng);
            const std::string what = describe(name, cfg);

            ClassifyConfig ccfg;
            ccfg.cacheBytes = cfg.cacheBytes;
            ccfg.assoc = cfg.assoc;
            ccfg.lineBytes = cfg.lineBytes;
            ccfg.mctTagBits = cfg.mctTagBits;
            ccfg.mctDepth = cfg.mctDepth;
            ClassifyResult oracle = classifyRun(trace, ccfg);
            const AccuracyScorer &sc = oracle.scorer;
            // Rows of the confusion matrix by MCT verdict.
            const Count mct_conf =
                sc.conflictAsConflict() + sc.capacityAsConflict();
            const Count mct_cap =
                sc.conflictAsCapacity() + sc.capacityAsCapacity();

            for (unsigned k : {1u, 3u}) {
                cfg.shards = k;
                ShardedClassifyResult sh = runShardedClassify(
                    trace.records().data(), trace.records().size(), cfg);
                EXPECT_EQ(sh.mem.accesses, oracle.references)
                    << what << " K=" << k;
                EXPECT_EQ(sh.mem.l1Misses, oracle.misses)
                    << what << " K=" << k;
                EXPECT_EQ(sh.mem.conflictMisses, mct_conf)
                    << what << " K=" << k;
                EXPECT_EQ(sh.mem.capacityMisses, mct_cap)
                    << what << " K=" << k;
                ++checks;
            }
        }
    }
    EXPECT_EQ(checks, 16 * kGeometriesPerWorkload * 2);
}

/** Sharded classify at the paper's 16KB direct-mapped 64B L1. */
ShardedClassifyResult
paperGeometryClassify(const VectorTrace &trace)
{
    ShardedClassifyConfig cfg;
    cfg.shards = 3;
    return runShardedClassify(trace.records().data(),
                              trace.records().size(), cfg);
}

TEST(Differential, TimingMemsysMatchesShardedClassify)
{
    for (const std::string &name : workloadNames()) {
        VectorTrace trace = captureWorkload(name);
        const ShardedClassifyResult sh = paperGeometryClassify(trace);
        RunOutput r = runTiming(trace, baselineConfig());
        EXPECT_EQ(r.mem.accesses, sh.mem.accesses) << name;
        EXPECT_EQ(r.mem.l1Misses, sh.mem.l1Misses) << name;
        EXPECT_EQ(r.mem.conflictMisses, sh.mem.conflictMisses) << name;
        EXPECT_EQ(r.mem.capacityMisses, sh.mem.capacityMisses) << name;
    }
}

TEST(Differential, SharedCacheOneThreadMatchesShardedClassify)
{
    for (const std::string &name : workloadNames()) {
        VectorTrace trace = captureWorkload(name);
        const ShardedClassifyResult sh = paperGeometryClassify(trace);
        InterleavedTrace one({&trace});
        SharedCacheResult r = SharedCacheStudy().run(one);
        ASSERT_EQ(r.perThread.size(), 1u);
        EXPECT_EQ(r.references, sh.mem.accesses) << name;
        EXPECT_EQ(r.misses, sh.mem.l1Misses) << name;
        EXPECT_EQ(r.perThread[0].conflictMisses, sh.mem.conflictMisses)
            << name;
        EXPECT_EQ(r.crossThreadConflicts, 0u) << name;
    }
}

TEST(Differential, NeverRemappingRemapSimMatchesShardedClassify)
{
    for (const std::string &name : workloadNames()) {
        VectorTrace trace = captureWorkload(name);
        const ShardedClassifyResult sh = paperGeometryClassify(trace);
        RemapConfig rcfg;
        rcfg.epochRefs = ~Count{0}; // never poll, so never recolor
        RemapResult r = PageRemapSim(rcfg).run(trace);
        EXPECT_EQ(r.remaps, 0u) << name;
        EXPECT_EQ(r.references, sh.mem.accesses) << name;
        EXPECT_EQ(r.misses, sh.mem.l1Misses) << name;
    }
}

} // namespace
} // namespace ccm

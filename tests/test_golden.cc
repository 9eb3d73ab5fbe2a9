/**
 * @file
 * Golden-value regression tests: exact measured values for a few
 * (workload, configuration) pairs.  The simulator is fully
 * deterministic, so any change to these numbers means simulated
 * behaviour changed — deliberate changes must update the constants
 * (and re-examine EXPERIMENTS.md).
 */

#include <gtest/gtest.h>

#include "mct/classify_run.hh"
#include "sim/experiment.hh"
#include "trace/vector_trace.hh"
#include "workloads/registry.hh"

namespace ccm
{
namespace
{

constexpr std::size_t refs = 50'000;
constexpr std::uint64_t seed = 42;

VectorTrace
capture(const char *name)
{
    auto wl = makeWorkload(name, refs, seed);
    return VectorTrace::capture(*wl);
}

TEST(Golden, WorkloadStreamsAreFrozen)
{
    // First few tomcatv addresses are part of the repo's contract.
    auto wl = makeWorkload("tomcatv", 16, seed);
    wl->reset();
    MemRecord r;
    std::vector<Addr> mem_addrs;
    while (wl->nextBatch(&r, 1) == 1) {
        if (r.isMem())
            mem_addrs.push_back(r.addr);
    }
    ASSERT_EQ(mem_addrs.size(), 16u);
    EXPECT_EQ(mem_addrs[0], 0x40000008u);            // A[1]
    EXPECT_EQ(mem_addrs[1], 0x40040008u);            // B[1]
    EXPECT_EQ(mem_addrs[2], 0x40000008u);            // A[1] again
}

TEST(Golden, ClassificationCounts)
{
    VectorTrace t = capture("tomcatv");
    ClassifyConfig cfg;
    ClassifyResult res = classifyRun(t, cfg);
    EXPECT_EQ(res.references, refs);
    EXPECT_EQ(res.misses, 19405u);
    EXPECT_EQ(res.scorer.oracleConflicts(), 15763u);
    EXPECT_EQ(res.scorer.compulsoryMisses(), 2560u);
}

TEST(Golden, BaselineTimingCycles)
{
    VectorTrace t = capture("compress");
    RunOutput r = runTiming(t, baselineConfig());
    EXPECT_EQ(r.sim.cycles, 224571u);
    EXPECT_EQ(r.mem.l1Misses, 9821u);
    EXPECT_EQ(r.mem.l2Misses, 5212u);
    EXPECT_EQ(r.mem.conflictMisses, 2076u);
}

TEST(Golden, VictimCacheCounters)
{
    VectorTrace t = capture("vortex");
    RunOutput r = runTiming(t, victimConfig(false, false));
    EXPECT_EQ(r.mem.swaps, r.mem.bufHitVictim);
    EXPECT_EQ(r.mem.bufHitVictim, 4247u);
    EXPECT_EQ(r.mem.victimFills, 11251u);
}

TEST(Golden, AmbCounters)
{
    VectorTrace t = capture("tomcatv");
    RunOutput r = runTiming(t, ambConfig(true, true, false));
    EXPECT_EQ(r.mem.bufHitVictim, 15539u);
    EXPECT_EQ(r.mem.prefIssued, 3130u);
    EXPECT_EQ(r.mem.swaps, 0u);
}

} // namespace
} // namespace ccm

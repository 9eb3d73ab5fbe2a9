/**
 * @file
 * Tests for the out-of-order core timing model: width limits, window
 * blocking, load/store unit limits, dependent-load serialization, and
 * a differential check of Core::run against a frozen reference loop
 * over random core shapes, every timing machine and trace delivery
 * batch sizes.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/random.hh"
#include "cpu/core.hh"
#include "sim/experiment.hh"
#include "trace/vector_trace.hh"
#include "workloads/registry.hh"

namespace ccm
{
namespace
{

MemSysConfig
fastMem()
{
    MemSysConfig cfg;
    cfg.l1Bytes = 1024;
    cfg.l2Bytes = 64 * 1024;
    return cfg;
}

TEST(Core, EmptyTraceFinishesImmediately)
{
    VectorTrace t;
    MemorySystem mem(fastMem());
    Core core(CoreConfig{});
    SimResult r = core.run(t, mem);
    EXPECT_EQ(r.instructions, 0u);
}

TEST(Core, IpcBoundedByWidth)
{
    VectorTrace t;
    t.pushNonMem(10000);
    MemorySystem mem(fastMem());
    CoreConfig cfg;
    Core core(cfg);
    SimResult r = core.run(t, mem);
    EXPECT_EQ(r.instructions, 10000u);
    EXPECT_LE(r.ipc, double(cfg.fetchWidth));
    // Pure ALU code should sustain nearly full width.
    EXPECT_GT(r.ipc, 0.9 * cfg.fetchWidth);
}

TEST(Core, NarrowerCoreIsSlower)
{
    VectorTrace t;
    t.pushNonMem(10000);
    CoreConfig wide, narrow;
    narrow.fetchWidth = narrow.retireWidth = 2;
    MemorySystem m1(fastMem()), m2(fastMem());
    SimResult rw = Core(wide).run(t, m1);
    SimResult rn = Core(narrow).run(t, m2);
    EXPECT_GT(rn.cycles, rw.cycles);
    EXPECT_LE(rn.ipc, 2.05);
}

TEST(Core, MemRefsCounted)
{
    VectorTrace t;
    t.pushLoad(0x40);
    t.pushStore(0x80);
    t.pushNonMem(3);
    MemorySystem mem(fastMem());
    SimResult r = Core(CoreConfig{}).run(t, mem);
    EXPECT_EQ(r.memRefs, 2u);
    EXPECT_EQ(r.instructions, 5u);
    EXPECT_EQ(mem.stats().accesses, 2u);
}

TEST(Core, MissLatencyShowsUpInCycles)
{
    // A single cold load costs ~memLatency; a hot one doesn't.
    VectorTrace cold;
    cold.pushLoad(0x40);
    MemorySystem m1(fastMem());
    SimResult rc = Core(CoreConfig{}).run(cold, m1);
    EXPECT_GT(rc.cycles, 100u);

    VectorTrace hot;
    hot.pushLoad(0x40);
    hot.pushLoad(0x40);
    MemorySystem m2(fastMem());
    SimResult rh = Core(CoreConfig{}).run(hot, m2);
    // Second load hits; total stays ~one miss.
    EXPECT_LT(rh.cycles, rc.cycles + 10);
}

TEST(Core, IndependentMissesOverlap)
{
    // 8 cold loads to distinct lines: the window and MSHRs overlap
    // them, so total time is far less than 8 serial misses.
    VectorTrace t;
    for (int i = 0; i < 8; ++i)
        t.pushLoad(0x1000 + i * 0x40);
    MemorySystem mem(fastMem());
    SimResult r = Core(CoreConfig{}).run(t, mem);
    EXPECT_LT(r.cycles, 4 * 100u);
}

TEST(Core, DependentLoadsSerialize)
{
    // The same 8 cold loads, but each depends on the previous one:
    // no overlap is possible.
    VectorTrace t;
    for (int i = 0; i < 8; ++i) {
        MemRecord rec;
        rec.pc = i * 4;
        rec.addr = 0x1000 + i * 0x40;
        rec.type = RecordType::Load;
        rec.dependsOnPrevLoad = i > 0;
        t.push(rec);
    }
    MemorySystem mem(fastMem());
    SimResult r = Core(CoreConfig{}).run(t, mem);
    EXPECT_GT(r.cycles, 7 * 100u);
}

TEST(Core, StoresDontBlockRetirement)
{
    // Cold stores retire via the store buffer: total time is far
    // less than the serialized miss latency.
    VectorTrace t;
    for (int i = 0; i < 32; ++i)
        t.pushStore(0x1000 + i * 0x40);
    MemorySystem mem(fastMem());
    SimResult r = Core(CoreConfig{}).run(t, mem);
    EXPECT_LT(r.cycles, 32 * 50u);
}

TEST(Core, LsuLimitThrottlesMemOps)
{
    // All-memory traces can't exceed loadStoreUnits IPC even when
    // everything hits.
    VectorTrace t;
    for (int i = 0; i < 4000; ++i)
        t.pushLoad(0x40);   // same line: hits after first
    CoreConfig cfg;
    MemorySystem mem(fastMem());
    SimResult r = Core(cfg).run(t, mem);
    EXPECT_LE(r.ipc, double(cfg.loadStoreUnits) + 0.05);
}

TEST(Core, RobLimitsMissOverlap)
{
    // With a 4-entry window, at most ~4 misses overlap.
    VectorTrace t;
    for (int i = 0; i < 16; ++i)
        t.pushLoad(0x1000 + i * 0x40);
    CoreConfig tiny;
    tiny.robSize = 4;
    MemorySystem m1(fastMem());
    SimResult small = Core(tiny).run(t, m1);

    CoreConfig big;
    MemorySystem m2(fastMem());
    SimResult large = Core(big).run(t, m2);
    EXPECT_GT(small.cycles, large.cycles);
}

TEST(Core, DeterministicAcrossRuns)
{
    auto wl = makeWorkload("compress", 5000, 9);
    VectorTrace t = VectorTrace::capture(*wl);
    MemorySystem m1(fastMem()), m2(fastMem());
    SimResult a = Core(CoreConfig{}).run(t, m1);
    SimResult b = Core(CoreConfig{}).run(t, m2);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(m1.stats().l1Misses, m2.stats().l1Misses);
}

TEST(Core, PipelineFillAddsStartupCycles)
{
    VectorTrace t;
    t.pushNonMem(1);
    CoreConfig cfg;
    MemorySystem mem(fastMem());
    SimResult r = Core(cfg).run(t, mem);
    EXPECT_GE(r.cycles, cfg.pipelineFill);
}

// ---- Differential: Core::run vs a frozen reference loop ------------

/**
 * The core loop as first written: one record at a time, `%` wrap on
 * the window, config read in place.  Any rewrite of Core::run must
 * reproduce it exactly.
 */
SimResult
referenceRun(const CoreConfig &cfg, const VectorTrace &trace,
             MemorySystem &mem)
{
    const std::vector<MemRecord> &recs = trace.records();
    std::size_t next_rec = 0;
    Pcg32 wp_rng(0xbadb07);
    Addr last_mem_addr = 0;
    std::vector<Cycle> rob(cfg.robSize, 0);
    std::size_t head = 0;
    std::size_t count = 0;
    Cycle now = cfg.pipelineFill;
    Count instrs = 0;
    Count mem_refs = 0;
    Cycle last_load_complete = 0;

    MemRecord rec;
    bool have = next_rec < recs.size();
    if (have)
        rec = recs[next_rec++];
    while (have || count > 0) {
        unsigned retired = 0;
        while (count > 0 && retired < cfg.retireWidth &&
               rob[head] <= now) {
            head = (head + 1) % cfg.robSize;
            --count;
            ++retired;
        }
        unsigned dispatched = 0;
        unsigned lsu_used = 0;
        while (have && dispatched < cfg.fetchWidth &&
               count < cfg.robSize) {
            Cycle complete;
            if (rec.isMem()) {
                if (lsu_used >= cfg.loadStoreUnits)
                    break;
                ++lsu_used;
                Cycle issue = now;
                if (rec.dependsOnPrevLoad)
                    issue = std::max(issue, last_load_complete);
                AccessResult r = mem.access(rec.pcAddr(), rec.dataAddr(),
                                            rec.isStore(), issue);
                ++mem_refs;
                last_mem_addr = rec.addr;
                if (rec.isStore()) {
                    complete = now + 1;
                } else {
                    complete = r.ready;
                    last_load_complete = r.ready;
                }
            } else {
                complete = now + 1;
                if (cfg.wrongPathRate != 0 &&
                    wp_rng.below(cfg.wrongPathRate) == 0) {
                    for (unsigned w = 0; w < cfg.wrongPathBurst; ++w) {
                        Addr wild = last_mem_addr +
                                    (Addr(wp_rng.below(256)) - 128) * 64;
                        mem.access(ByteAddr{rec.pc ^ 0x4},
                                   ByteAddr{wild}, false, now);
                    }
                }
            }
            rob[(head + count) % cfg.robSize] = complete;
            ++count;
            ++instrs;
            ++dispatched;
            have = next_rec < recs.size();
            if (have)
                rec = recs[next_rec++];
        }
        bool blocked = count > 0 && rob[head] > now &&
                       (count == cfg.robSize || !have);
        if (blocked)
            now = rob[head];
        else
            ++now;
    }

    SimResult res;
    res.cycles = now;
    res.instructions = instrs;
    res.memRefs = mem_refs;
    res.ipc = res.cycles == 0
                  ? 0.0
                  : static_cast<double>(instrs) /
                        static_cast<double>(res.cycles);
    return res;
}

/**
 * A VectorTrace whose nextBatch() hands out at most @p cap records at
 * a time, or a random 1-3 when @p cap is 0.
 */
class ShortBatchTrace : public TraceSource
{
  public:
    ShortBatchTrace(const VectorTrace &t, std::size_t cap)
        : inner(t), cap_(cap)
    {}

    std::size_t
    nextBatch(MemRecord *out, std::size_t n) override
    {
        const std::size_t most = cap_ != 0 ? cap_ : 1 + rng.below(3);
        return inner.nextBatch(out, std::min(n, most));
    }

    void
    reset() override
    {
        inner.reset();
        rng = Pcg32(3);
    }

    std::string name() const override { return "short-batch"; }

  private:
    VectorTrace inner;
    std::size_t cap_;
    Pcg32 rng{3};
};

/** A random core shape; the first draws walk every ROB size. */
CoreConfig
drawCore(Pcg32 &rng, unsigned index)
{
    static const unsigned kRobSizes[] = {1, 7, 48, 64, 96};
    CoreConfig c;
    c.robSize = kRobSizes[index < 5 ? index : rng.below(5)];
    c.fetchWidth = 1 + rng.below(8);
    c.retireWidth = 1 + rng.below(8);
    c.loadStoreUnits = 1 + rng.below(4);
    c.wrongPathRate = rng.below(2) ? 50 : 0;
    return c;
}

void
expectSameRun(const SimResult &a, const MemStats &ma,
              const SimResult &b, const MemStats &mb,
              const std::string &where)
{
    EXPECT_EQ(a.cycles, b.cycles) << where;
    EXPECT_EQ(a.instructions, b.instructions) << where;
    EXPECT_EQ(a.memRefs, b.memRefs) << where;
    EXPECT_EQ(a.ipc, b.ipc) << where;
    MemStats::forEachField([&](const char *name, Count MemStats::*f) {
        EXPECT_EQ(ma.*f, mb.*f) << where << " mem." << name;
    });
}

void
expectSameHistograms(const SetHistograms &a, const SetHistograms &b,
                     const std::string &where)
{
    EXPECT_EQ(a.sets, b.sets) << where;
    EXPECT_EQ(a.l1Misses, b.l1Misses) << where << " l1 misses";
    EXPECT_EQ(a.l1Evictions, b.l1Evictions) << where << " l1 evictions";
    EXPECT_EQ(a.mctLookups, b.mctLookups) << where << " mct lookups";
    EXPECT_EQ(a.mctConflicts, b.mctConflicts)
        << where << " mct conflicts";
}

TEST(CoreDifferential, MatchesReferenceLoop)
{
    const std::vector<std::string> workloads = {
        "compress", "gcc", "go", "tomcatv", "swim", "su2cor"};
    const std::vector<std::pair<const char *, SystemConfig>> machines = {
        {"baseline", baselineConfig()},
        {"victim", victimConfig(true, true)},
        {"prefetch", prefetchConfig(true)},
        {"exclude", excludeConfig(ExcludeAlgo::Capacity)},
        {"pseudo", pseudoConfig(true)},
        {"amb", ambConfig(true, true, true)}};

    Pcg32 rng(2024);
    int runs = 0;
    for (unsigned k = 0; k < 8; ++k) {
        const CoreConfig core = drawCore(rng, k);
        for (const auto &wl : workloads) {
            auto src = makeWorkload(wl, 3000, 11 + k);
            ASSERT_TRUE(src) << wl;
            VectorTrace trace = VectorTrace::capture(*src);
            for (const auto &[mname, sys] : machines) {
                const std::string where =
                    wl + "/" + mname + " rob=" +
                    std::to_string(core.robSize) +
                    " fetch=" + std::to_string(core.fetchWidth) +
                    " retire=" + std::to_string(core.retireWidth) +
                    " lsu=" + std::to_string(core.loadStoreUnits) +
                    " wp=" + std::to_string(core.wrongPathRate);
                MemorySystem ref_mem(sys.mem);
                SimResult ref = referenceRun(core, trace, ref_mem);
                const SetHistograms ref_heat = ref_mem.setHistograms();

                auto check = [&](TraceSource &delivery,
                                 const std::string &how) {
                    MemorySystem mem(sys.mem);
                    SimResult got = Core(core).run(delivery, mem);
                    expectSameRun(got, mem.stats(), ref, ref_mem.stats(),
                                  where + how);
                    expectSameHistograms(mem.setHistograms(), ref_heat,
                                         where + how);
                    ++runs;
                };
                // Full batches, batches capped at 1 and 7 records, and
                // random 1-3 record batches.
                check(trace, " full batches");
                for (std::size_t cap : {1, 7}) {
                    ShortBatchTrace capped(trace, cap);
                    check(capped, " batch cap=" + std::to_string(cap));
                }
                ShortBatchTrace shorty(trace, 0);
                check(shorty, " short batches");
            }
        }
    }
    EXPECT_EQ(runs, 8 * 6 * 6 * 4);
}

} // namespace
} // namespace ccm

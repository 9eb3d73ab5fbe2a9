/**
 * @file
 * Tests for the synthetic workload suite: determinism, replay,
 * length, record sanity, registry behaviour, and the structural
 * properties each generator promises (colliding bases, dependent
 * loads, hot regions).
 */

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "workloads/fp_workloads.hh"
#include "workloads/int_workloads.hh"
#include "workloads/registry.hh"

namespace ccm
{
namespace
{

constexpr std::size_t testRefs = 20000;

std::vector<MemRecord>
drain(TraceSource &src)
{
    src.reset();
    std::vector<MemRecord> out;
    MemRecord r;
    while (src.nextBatch(&r, 1) == 1)
        out.push_back(r);
    return out;
}

// ---- registry ------------------------------------------------------

TEST(Registry, HasSixteenWorkloads)
{
    EXPECT_EQ(workloadSuite().size(), 16u);
    EXPECT_EQ(workloadNames().size(), 16u);
}

TEST(Registry, EightFpEightInt)
{
    int fp = 0;
    for (const auto &s : workloadSuite())
        fp += s.floatingPoint ? 1 : 0;
    EXPECT_EQ(fp, 8);
}

TEST(Registry, MakeByNameWorks)
{
    auto wl = makeWorkload("tomcatv", 100, 1);
    ASSERT_NE(wl, nullptr);
    EXPECT_EQ(wl->name(), "tomcatv");
}

TEST(Registry, UnknownNameReturnsNull)
{
    EXPECT_EQ(makeWorkload("doom", 100, 1), nullptr);
}

TEST(Registry, NamesAreUnique)
{
    std::set<std::string> names;
    for (const auto &s : workloadSuite())
        EXPECT_TRUE(names.insert(s.name).second)
            << "duplicate " << s.name;
}

// ---- per-workload parameterized properties -------------------------

class WorkloadProperty : public ::testing::TestWithParam<std::string>
{
  protected:
    std::unique_ptr<TraceSource>
    make(std::uint64_t seed = 42) const
    {
        return makeWorkload(GetParam(), testRefs, seed);
    }
};

TEST_P(WorkloadProperty, EmitsRequestedMemRefs)
{
    auto wl = make();
    auto recs = drain(*wl);
    std::size_t mem = 0;
    for (const auto &r : recs)
        mem += r.isMem() ? 1 : 0;
    EXPECT_EQ(mem, testRefs);
}

TEST_P(WorkloadProperty, DeterministicForSameSeed)
{
    auto a = make(7), b = make(7);
    auto ra = drain(*a), rb = drain(*b);
    ASSERT_EQ(ra.size(), rb.size());
    for (std::size_t i = 0; i < ra.size(); ++i) {
        EXPECT_EQ(ra[i].addr, rb[i].addr) << "at record " << i;
        EXPECT_EQ(ra[i].pc, rb[i].pc);
        EXPECT_EQ(ra[i].type, rb[i].type);
    }
}

TEST_P(WorkloadProperty, ResetReplaysIdentically)
{
    auto wl = make();
    auto first = drain(*wl);
    auto second = drain(*wl);
    ASSERT_EQ(first.size(), second.size());
    for (std::size_t i = 0; i < first.size(); ++i)
        ASSERT_EQ(first[i].addr, second[i].addr) << "record " << i;
}

TEST_P(WorkloadProperty, MemRecordsHaveAddresses)
{
    auto wl = make();
    MemRecord r;
    wl->reset();
    while (wl->nextBatch(&r, 1) == 1) {
        if (r.isMem()) {
            EXPECT_GE(r.addr, 0x40000000u);  // inside a region
            EXPECT_NE(r.pc, 0u);
        }
    }
}

TEST_P(WorkloadProperty, MixesLoadsAndNonMem)
{
    auto wl = make();
    std::size_t loads = 0, nonmem = 0;
    MemRecord r;
    wl->reset();
    while (wl->nextBatch(&r, 1) == 1) {
        if (r.isLoad())
            ++loads;
        else if (!r.isMem())
            ++nonmem;
    }
    EXPECT_GT(loads, 0u);
    EXPECT_GT(nonmem, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Suite, WorkloadProperty,
    ::testing::ValuesIn(workloadNames()),
    [](const auto &info) { return info.param; });

// ---- structural expectations ---------------------------------------

TEST(Tomcatv, PingArraysCollideMod16And64K)
{
    TomcatvLike wl(5000, 1);
    wl.reset();
    MemRecord r;
    // Collect ping-phase addresses (relaxation pcs are < 0x1200).
    std::vector<Addr> a0, a1;
    while (wl.nextBatch(&r, 1) == 1) {
        if (!r.isMem())
            continue;
        if (r.pc == 0x1000)
            a0.push_back(r.addr);
        if (r.pc == 0x1004)
            a1.push_back(r.addr);
    }
    ASSERT_FALSE(a0.empty());
    ASSERT_FALSE(a1.empty());
    // Matching indices map to the same set in 16KB and 64KB caches.
    std::size_t n = std::min(a0.size(), a1.size());
    for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ((a0[i] / 64) % 256, (a1[i] / 64) % 256);
        EXPECT_EQ((a0[i] / 64) % 1024, (a1[i] / 64) % 1024);
    }
}

TEST(Swim, StreamsAreUnitStrideAndSkewed)
{
    SwimLike wl(4000, 1);
    wl.reset();
    MemRecord r;
    Addr prev0 = 0;
    bool first = true;
    while (wl.nextBatch(&r, 1) == 1) {
        if (!r.isMem())
            continue;
        if (r.pc == 0x2000) {   // array 0 loads
            if (!first) {
                EXPECT_EQ(r.addr - prev0, 8u);
            }
            prev0 = r.addr;
            first = false;
        }
    }
    EXPECT_FALSE(first);
}

TEST(Li, ChaseLoadsDependOnPreviousLoad)
{
    LiLike wl(3000, 1);
    wl.reset();
    MemRecord r;
    std::size_t dependent = 0, total = 0;
    while (wl.nextBatch(&r, 1) == 1) {
        if (!r.isMem())
            continue;
        ++total;
        dependent += r.dependsOnPrevLoad ? 1 : 0;
    }
    EXPECT_GT(dependent, total / 10);  // the cons-cell chase
    EXPECT_LT(dependent, total);       // env/sweep refs are not
}

TEST(Gcc, HasDependentChainAndStores)
{
    GccLike wl(5000, 1);
    wl.reset();
    MemRecord r;
    bool saw_dep = false, saw_store = false;
    while (wl.nextBatch(&r, 1) == 1) {
        saw_dep |= r.dependsOnPrevLoad;
        saw_store |= r.isStore();
    }
    EXPECT_TRUE(saw_dep);
    EXPECT_TRUE(saw_store);
}

TEST(Vortex, MetaAndLogCollide)
{
    VortexLike wl(5000, 1);
    wl.reset();
    MemRecord r;
    Addr meta = invalidAddr;
    while (wl.nextBatch(&r, 1) == 1) {
        if (!r.isMem())
            continue;
        if (r.pc == 0xc000)
            meta = r.addr;
        if (r.pc == 0xc004 && meta != invalidAddr) {
            // log append directly after an index lookup: same set.
            EXPECT_EQ((r.addr / 64) % 256, (meta / 64) % 256);
        }
    }
}

TEST(Wave5, GatherStaysInGrid)
{
    Wave5Like wl(5000, 1, 1024 * 1024);
    wl.reset();
    MemRecord r;
    while (wl.nextBatch(&r, 1) == 1) {
        if (r.isMem() && r.pc == 0x6004) {
            // Gathers land within the configured 1MB grid.
            Addr grid_lo = 0x40000000ULL + 6 * 0x04000000ULL;
            EXPECT_GE(r.addr, grid_lo);
            EXPECT_LT(r.addr, grid_lo + 2 * 1024 * 1024);
        }
    }
}

TEST(Workloads, DifferentSeedsDifferForRandomized)
{
    // Randomized generators must vary with the seed.
    for (const char *name : {"wave5", "go", "gcc", "compress",
                             "perl", "vortex"}) {
        auto a = makeWorkload(name, 2000, 1);
        auto b = makeWorkload(name, 2000, 2);
        auto ra = drain(*a), rb = drain(*b);
        std::size_t diff = 0, n = std::min(ra.size(), rb.size());
        for (std::size_t i = 0; i < n; ++i)
            diff += ra[i].addr != rb[i].addr ? 1 : 0;
        EXPECT_GT(diff, 0u) << name;
    }
}

TEST(WorkloadsDeath, ZeroRefsIsFatal)
{
    EXPECT_DEATH(SwimLike(0, 1), "mem_refs");
}

TEST(Registry, ValidateWorkloadRequest)
{
    EXPECT_TRUE(validateWorkloadRequest("gcc", 100).isOk());
    EXPECT_EQ(validateWorkloadRequest("nonesuch", 100).code(),
              ErrorCode::NotFound);
    EXPECT_EQ(validateWorkloadRequest("gcc", 0).code(),
              ErrorCode::BadConfig);
}

TEST(Registry, MakeWorkloadCheckedReturnsStatusNotDeath)
{
    auto ok = makeWorkloadChecked("gcc", 100, 1);
    ASSERT_TRUE(ok.ok());
    ASSERT_TRUE(ok.value() != nullptr);
    EXPECT_EQ(ok.value()->name(), "gcc");

    auto unknown = makeWorkloadChecked("nonesuch", 100, 1);
    ASSERT_FALSE(unknown.ok());
    EXPECT_EQ(unknown.status().code(), ErrorCode::NotFound);

    auto zero = makeWorkloadChecked("gcc", 0, 1);
    ASSERT_FALSE(zero.ok());
    EXPECT_EQ(zero.status().code(), ErrorCode::BadConfig);
}

} // namespace
} // namespace ccm

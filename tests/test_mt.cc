/**
 * @file
 * Unit tests for trace interleaving and the shared-cache conflict
 * study (§5.6 multithreading application).
 */

#include <gtest/gtest.h>

#include "mt/interleave.hh"
#include "mt/shared_cache.hh"
#include "trace/vector_trace.hh"

namespace ccm
{
namespace
{

VectorTrace
loadsAt(Addr base, int n, Addr stride = 64)
{
    VectorTrace t({}, {});
    for (int i = 0; i < n; ++i)
        t.pushLoad(base + Addr(i) * stride);
    return t;
}

TEST(Interleave, RoundRobinGranularity)
{
    VectorTrace a = loadsAt(0x1000, 4);
    VectorTrace b = loadsAt(0x2000, 4);
    std::vector<TraceSource *> kids = {&a, &b};
    InterleavedTrace t(kids, 2);
    t.reset();

    unsigned tid = 0;
    std::vector<unsigned> producers;
    std::vector<Addr> addrs;
    while (const MemRecord *r = t.next(tid)) {
        producers.push_back(tid);
        addrs.push_back(r->addr);
    }
    ASSERT_EQ(producers.size(), 8u);
    std::vector<unsigned> expect = {0, 0, 1, 1, 0, 0, 1, 1};
    EXPECT_EQ(producers, expect);
    EXPECT_EQ(addrs[0], 0x1000u);
    EXPECT_EQ(addrs[2], 0x2000u);
}

TEST(Interleave, UnevenLengthsDrainFully)
{
    VectorTrace a = loadsAt(0x1000, 10);
    VectorTrace b = loadsAt(0x2000, 2);
    std::vector<TraceSource *> kids = {&a, &b};
    InterleavedTrace t(kids, 3);
    t.reset();
    unsigned tid = 0;
    std::vector<unsigned> producers;
    while (t.next(tid))
        producers.push_back(tid);
    // Once the short thread drains mid-turn, the long one takes every
    // remaining turn.
    std::vector<unsigned> expect = {0, 0, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0};
    EXPECT_EQ(producers, expect);
}

TEST(Interleave, ResetReplays)
{
    VectorTrace a = loadsAt(0x1000, 3);
    std::vector<TraceSource *> kids = {&a};
    InterleavedTrace t(kids, 1);
    t.reset();
    unsigned tid = 0;
    std::size_t n1 = 0;
    while (t.next(tid))
        ++n1;
    t.reset();
    std::size_t n2 = 0;
    while (t.next(tid))
        ++n2;
    EXPECT_EQ(n1, n2);
}

TEST(Interleave, NameJoinsChildren)
{
    VectorTrace a = loadsAt(0, 1);
    a.setName("foo");
    VectorTrace b = loadsAt(0, 1);
    b.setName("bar");
    std::vector<TraceSource *> kids = {&a, &b};
    InterleavedTrace t(kids, 1);
    EXPECT_EQ(t.name(), "foo+bar");
    EXPECT_EQ(t.threads(), 2u);
}

TEST(InterleaveDeath, BadParams)
{
    std::vector<TraceSource *> none;
    EXPECT_DEATH(InterleavedTrace(none, 1), "at least one");
    VectorTrace a = loadsAt(0, 1);
    std::vector<TraceSource *> one = {&a};
    EXPECT_DEATH(InterleavedTrace(one, 0), "granularity");
}

// ---- shared-cache study ---------------------------------------------

TEST(SharedCache, DisjointThreadsHaveNoCrossConflicts)
{
    // Threads touching disjoint sets never interfere.
    VectorTrace a({}, {});
    VectorTrace b({}, {});
    for (int i = 0; i < 500; ++i) {
        a.pushLoad(0x00000 + (i % 4) * 64);    // sets 0-3
        b.pushLoad(0x10000 + (i % 4) * 64 + 0x400);  // sets 16-19
    }
    std::vector<TraceSource *> kids = {&a, &b};
    InterleavedTrace t(kids, 4);
    SharedCacheStudy study(16 * 1024, 1, 64);
    SharedCacheResult res = study.run(t);
    EXPECT_EQ(res.crossThreadConflicts, 0u);
    EXPECT_EQ(res.perThread.size(), 2u);
    EXPECT_EQ(res.perThread[0].references, 500u);
}

TEST(SharedCache, AliasedThreadsInterfere)
{
    // Both threads hammer the same set with different tags: heavy
    // cross-thread conflict misses.
    VectorTrace a({}, {});
    VectorTrace b({}, {});
    for (int i = 0; i < 500; ++i) {
        a.pushLoad(0x00040);            // set 1, tag X
        b.pushLoad(0x00040 + 16 * 1024);  // set 1, tag Y
    }
    std::vector<TraceSource *> kids = {&a, &b};
    InterleavedTrace t(kids, 1);      // fine-grain interleave
    SharedCacheStudy study(16 * 1024, 1, 64);
    SharedCacheResult res = study.run(t);
    EXPECT_GT(res.crossThreadConflicts, 400u);
    EXPECT_GT(res.coScheduleBadness(), 0.4);
    EXPECT_GT(res.perThread[0].crossThreadConflicts, 100u);
    EXPECT_GT(res.perThread[1].crossThreadConflicts, 100u);
}

TEST(SharedCache, SelfConflictIsNotCrossThread)
{
    // One thread ping-pongs privately: conflicts yes, cross no.
    VectorTrace a({}, {});
    for (int i = 0; i < 300; ++i) {
        a.pushLoad(0x00040);
        a.pushLoad(0x00040 + 16 * 1024);
    }
    std::vector<TraceSource *> kids = {&a};
    InterleavedTrace t(kids, 4);
    SharedCacheStudy study(16 * 1024, 1, 64);
    SharedCacheResult res = study.run(t);
    EXPECT_GT(res.perThread[0].conflictMisses, 400u);
    EXPECT_EQ(res.crossThreadConflicts, 0u);
}

TEST(SharedCache, TwoWaySharedCacheAbsorbsPairConflict)
{
    VectorTrace a({}, {});
    VectorTrace b({}, {});
    for (int i = 0; i < 300; ++i) {
        a.pushLoad(0x00040);
        b.pushLoad(0x00040 + 16 * 1024);
    }
    std::vector<TraceSource *> kids = {&a, &b};
    InterleavedTrace t(kids, 1);
    SharedCacheStudy study(16 * 1024, 2, 64);
    SharedCacheResult res = study.run(t);
    // 2-way set holds both threads' lines: almost no misses.
    EXPECT_LT(res.missRate(), 0.02);
}

TEST(SharedCache, PerThreadTalliesSumToTotals)
{
    VectorTrace a = loadsAt(0x0000, 400, 96);
    VectorTrace b = loadsAt(0x40000, 300, 160);
    std::vector<TraceSource *> kids = {&a, &b};
    InterleavedTrace t(kids, 4);
    SharedCacheStudy study;
    SharedCacheResult res = study.run(t);
    Count refs = 0, misses = 0, cross = 0;
    for (const auto &ts : res.perThread) {
        refs += ts.references;
        misses += ts.misses;
        cross += ts.crossThreadConflicts;
    }
    EXPECT_EQ(refs, res.references);
    EXPECT_EQ(misses, res.misses);
    EXPECT_EQ(cross, res.crossThreadConflicts);
}

} // namespace
} // namespace ccm

/**
 * @file
 * Unit tests for the synthetic instruction-fetch streams used by the
 * I-cache extension bench.
 */

#include <gtest/gtest.h>

#include "mct/classify_run.hh"
#include "workloads/code_stream.hh"

namespace ccm
{
namespace
{

TEST(CodeStream, EmitsSequentialPcs)
{
    CodeStreamWorkload w("t", {{0x1000, 4}}, {0}, 10);
    w.reset();
    MemRecord r;
    std::vector<Addr> pcs;
    while (w.nextBatch(&r, 1) == 1) {
        EXPECT_EQ(r.pc, r.addr);   // I-fetch: address == pc
        EXPECT_TRUE(r.isLoad());
        pcs.push_back(r.pc);
    }
    ASSERT_EQ(pcs.size(), 10u);
    // 4-instruction function wraps: 0x1000..0x100C, 0x1000...
    EXPECT_EQ(pcs[0], 0x1000u);
    EXPECT_EQ(pcs[3], 0x100Cu);
    EXPECT_EQ(pcs[4], 0x1000u);
}

TEST(CodeStream, CallSequenceAlternates)
{
    CodeStreamWorkload w("t", {{0x1000, 2}, {0x8000, 2}}, {0, 1}, 8);
    w.reset();
    MemRecord r;
    std::vector<Addr> pcs;
    while (w.nextBatch(&r, 1) == 1)
        pcs.push_back(r.pc);
    std::vector<Addr> expect = {0x1000, 0x1004, 0x8000, 0x8004,
                                0x1000, 0x1004, 0x8000, 0x8004};
    EXPECT_EQ(pcs, expect);
}

TEST(CodeStream, ResetReplays)
{
    CodeStreamWorkload w = CodeStreamWorkload::mixed(1000);
    w.reset();
    MemRecord r;
    std::vector<Addr> a, b;
    while (w.nextBatch(&r, 1) == 1)
        a.push_back(r.addr);
    w.reset();
    while (w.nextBatch(&r, 1) == 1)
        b.push_back(r.addr);
    EXPECT_EQ(a, b);
}

TEST(CodeStream, HotLoopFitsInCache)
{
    CodeStreamWorkload w = CodeStreamWorkload::hotLoop(100000);
    ClassifyConfig cfg;
    ClassifyResult res = classifyRun(w, cfg);
    EXPECT_LT(res.missRate, 0.001);
}

TEST(CodeStream, CollidingCallsAreConflicts)
{
    CodeStreamWorkload w = CodeStreamWorkload::collidingCalls(100000);
    ClassifyConfig cfg;
    ClassifyResult res = classifyRun(w, cfg);
    EXPECT_GT(res.missRate, 0.05);
    EXPECT_GT(res.scorer.conflictFraction(), 0.95);
    EXPECT_GT(res.scorer.conflictAccuracy(), 99.0);
}

TEST(CodeStream, HugeCodeIsCapacity)
{
    CodeStreamWorkload w = CodeStreamWorkload::hugeCode(100000);
    ClassifyConfig cfg;
    ClassifyResult res = classifyRun(w, cfg);
    EXPECT_GT(res.missRate, 0.05);
    EXPECT_LT(res.scorer.conflictFraction(), 0.01);
}

TEST(CodeStreamDeath, Validation)
{
    EXPECT_DEATH(CodeStreamWorkload("x", {}, {0}, 10), "functions");
    EXPECT_DEATH(CodeStreamWorkload("x", {{0, 1}}, {5}, 10),
                 "references function");
}

} // namespace
} // namespace ccm

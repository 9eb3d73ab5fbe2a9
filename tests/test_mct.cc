/**
 * @file
 * Unit tests for the Miss Classification Table — the paper's core
 * mechanism — at depth 1 and deeper (the shadow directory), and the
 * four conflict filters of §3.
 */

#include <gtest/gtest.h>

#include "mct/classifying_cache.hh"
#include "mct/mct.hh"

namespace ccm
{
namespace
{

TEST(Mct, ColdTableClassifiesCapacity)
{
    MissClassificationTable mct(4);
    EXPECT_EQ(mct.classify(SetIndex{0}, Tag{0x123}), MissClass::Capacity);
    EXPECT_FALSE(mct.isConflictMiss(SetIndex{2}, Tag{0x7}));
}

TEST(Mct, MatchingEvictedTagIsConflict)
{
    MissClassificationTable mct(4);
    mct.recordEviction(SetIndex{1}, Tag{0xAB});
    EXPECT_EQ(mct.classify(SetIndex{1}, Tag{0xAB}), MissClass::Conflict);
    EXPECT_EQ(mct.classify(SetIndex{1}, Tag{0xAC}), MissClass::Capacity);
    // Other sets unaffected.
    EXPECT_EQ(mct.classify(SetIndex{0}, Tag{0xAB}), MissClass::Capacity);
}

TEST(Mct, OnlyMostRecentEvictionRemembered)
{
    MissClassificationTable mct(2);
    mct.recordEviction(SetIndex{0}, Tag{0x1});
    mct.recordEviction(SetIndex{0}, Tag{0x2});
    EXPECT_EQ(mct.classify(SetIndex{0}, Tag{0x1}), MissClass::Capacity);
    EXPECT_EQ(mct.classify(SetIndex{0}, Tag{0x2}), MissClass::Conflict);
}

TEST(Mct, PaperScenario)
{
    // "Cache line B is accessed, resulting in a cache miss, and
    //  evicts line A from the cache.  The next miss to the same cache
    //  set is an access to line A.  The second miss is a conflict
    //  miss."
    MissClassificationTable mct(256);
    const std::size_t set = 17;
    const Addr tag_a = 100, tag_b = 200;
    // B misses, evicting A:
    EXPECT_EQ(mct.classify(SetIndex{set}, Tag{tag_b}), MissClass::Capacity);
    mct.recordEviction(SetIndex{set}, Tag{tag_a});
    // A misses next: conflict.
    EXPECT_EQ(mct.classify(SetIndex{set}, Tag{tag_a}), MissClass::Conflict);
}

TEST(Mct, ClearForgetsEverything)
{
    MissClassificationTable mct(4);
    mct.recordEviction(SetIndex{0}, Tag{1});
    mct.recordEviction(SetIndex{1}, Tag{2});
    mct.clear();
    EXPECT_EQ(mct.classify(SetIndex{0}, Tag{1}), MissClass::Capacity);
    EXPECT_EQ(mct.classify(SetIndex{1}, Tag{2}), MissClass::Capacity);
}

TEST(Mct, PartialTagsMatchOnLowBits)
{
    MissClassificationTable mct(4, 8);
    mct.recordEviction(SetIndex{0}, Tag{0xABCD});
    // Same low 8 bits -> (false) conflict match.
    EXPECT_EQ(mct.classify(SetIndex{0}, Tag{0xFFCD}), MissClass::Conflict);
    // Different low bits -> capacity.
    EXPECT_EQ(mct.classify(SetIndex{0}, Tag{0xABCE}), MissClass::Capacity);
}

TEST(Mct, FullTagHasNoFalseMatches)
{
    MissClassificationTable mct(4, 0);
    mct.recordEviction(SetIndex{0}, Tag{0xABCD});
    EXPECT_EQ(mct.classify(SetIndex{0}, Tag{0xFFCD}), MissClass::Capacity);
    EXPECT_EQ(mct.classify(SetIndex{0}, Tag{0xABCD}), MissClass::Conflict);
}

TEST(Mct, SingleBitTagMatchesHalfTheTags)
{
    MissClassificationTable mct(1, 1);
    mct.recordEviction(SetIndex{0}, Tag{0x0});
    EXPECT_EQ(mct.classify(SetIndex{0}, Tag{0x2}), MissClass::Conflict);  // even
    EXPECT_EQ(mct.classify(SetIndex{0}, Tag{0x3}), MissClass::Capacity);  // odd
}

TEST(Mct, StorageBitsAccounting)
{
    // 10 bits + valid, 256 sets -> paper's "1.25KB of storage for a
    // direct-mapped 64KB cache" is (10+...) per entry; we count the
    // valid bit explicitly.
    MissClassificationTable mct(256, 10);
    EXPECT_EQ(mct.storageBits(), 256u * 11u);
    MissClassificationTable full(256, 0);
    EXPECT_EQ(full.storageBits(), 256u * 65u);
}

TEST(Mct, TagBitsAccessor)
{
    EXPECT_EQ(MissClassificationTable(4, 12).tagBits(), 12u);
    EXPECT_EQ(MissClassificationTable(4).tagBits(), 0u);
}

TEST(Mct, ValidateRejectsWithoutDying)
{
    EXPECT_TRUE(MissClassificationTable::validate(4, 12).isOk());
    EXPECT_TRUE(MissClassificationTable::validate(4, 0).isOk());
    EXPECT_EQ(MissClassificationTable::validate(0, 0).code(),
              ErrorCode::BadConfig);
    EXPECT_EQ(MissClassificationTable::validate(4, 65).code(),
              ErrorCode::BadConfig);
}

TEST(MctDeath, ZeroSetsRejected)
{
    EXPECT_DEATH(MissClassificationTable(0), "at least one");
}

TEST(MctDeath, OversizedTagRejected)
{
    EXPECT_DEATH(MissClassificationTable(4, 65), "out of range");
}

// ---- depth > 1: the shadow directory (§2/§3) ----------------------

TEST(Shadow, DepthOneMatchesMctSemantics)
{
    MissClassificationTable sd(4, 0, 1);
    EXPECT_EQ(sd.classify(SetIndex{0}, Tag{0x1}), MissClass::Capacity);
    sd.recordEviction(SetIndex{0}, Tag{0x1});
    EXPECT_EQ(sd.classify(SetIndex{0}, Tag{0x1}), MissClass::Conflict);
    sd.recordEviction(SetIndex{0}, Tag{0x2});
    EXPECT_EQ(sd.classify(SetIndex{0}, Tag{0x1}), MissClass::Capacity);
    EXPECT_EQ(sd.classify(SetIndex{0}, Tag{0x2}), MissClass::Conflict);
}

TEST(Shadow, DeeperDirectoryRemembersMore)
{
    MissClassificationTable sd(4, 0, 3);
    sd.recordEviction(SetIndex{0}, Tag{0x1});
    sd.recordEviction(SetIndex{0}, Tag{0x2});
    sd.recordEviction(SetIndex{0}, Tag{0x3});
    EXPECT_TRUE(sd.isConflictMiss(SetIndex{0}, Tag{0x1}));
    EXPECT_TRUE(sd.isConflictMiss(SetIndex{0}, Tag{0x2}));
    EXPECT_TRUE(sd.isConflictMiss(SetIndex{0}, Tag{0x3}));
    EXPECT_FALSE(sd.isConflictMiss(SetIndex{0}, Tag{0x4}));
    // A fourth eviction pushes the oldest out.
    sd.recordEviction(SetIndex{0}, Tag{0x4});
    EXPECT_FALSE(sd.isConflictMiss(SetIndex{0}, Tag{0x1}));
    EXPECT_TRUE(sd.isConflictMiss(SetIndex{0}, Tag{0x4}));
}

TEST(Shadow, MatchDepthReportsPosition)
{
    MissClassificationTable sd(2, 0, 4);
    sd.recordEviction(SetIndex{1}, Tag{0xA});
    sd.recordEviction(SetIndex{1}, Tag{0xB});
    sd.recordEviction(SetIndex{1}, Tag{0xC});
    EXPECT_EQ(sd.matchDepth(SetIndex{1}, Tag{0xC}), 1u);   // most recent
    EXPECT_EQ(sd.matchDepth(SetIndex{1}, Tag{0xB}), 2u);
    EXPECT_EQ(sd.matchDepth(SetIndex{1}, Tag{0xA}), 3u);
    EXPECT_EQ(sd.matchDepth(SetIndex{1}, Tag{0xD}), 0u);
    EXPECT_EQ(sd.matchDepth(SetIndex{0}, Tag{0xA}), 0u);   // other set
}

TEST(Shadow, ReEvictionMovesToFront)
{
    MissClassificationTable sd(1, 0, 3);
    sd.recordEviction(SetIndex{0}, Tag{0x1});
    sd.recordEviction(SetIndex{0}, Tag{0x2});
    sd.recordEviction(SetIndex{0}, Tag{0x1});   // 0x1 re-evicted: front, no dup
    EXPECT_EQ(sd.matchDepth(SetIndex{0}, Tag{0x1}), 1u);
    EXPECT_EQ(sd.matchDepth(SetIndex{0}, Tag{0x2}), 2u);
    // Room still for a third distinct tag.
    sd.recordEviction(SetIndex{0}, Tag{0x3});
    EXPECT_TRUE(sd.isConflictMiss(SetIndex{0}, Tag{0x2}));
}

TEST(Shadow, PartialTagsMask)
{
    MissClassificationTable sd(1, 4, 2);
    sd.recordEviction(SetIndex{0}, Tag{0xAB});
    EXPECT_TRUE(sd.isConflictMiss(SetIndex{0}, Tag{0xFB}));   // low nibble matches
    EXPECT_FALSE(sd.isConflictMiss(SetIndex{0}, Tag{0xAC}));
}

TEST(Shadow, StorageBits)
{
    EXPECT_EQ(MissClassificationTable(256, 10, 2).storageBits(),
              256u * 2u * 11u);
    EXPECT_EQ(MissClassificationTable(4, 0, 1).storageBits(), 4u * 65u);
}

TEST(Shadow, ClearForgets)
{
    MissClassificationTable sd(2, 0, 2);
    sd.recordEviction(SetIndex{0}, Tag{0x1});
    sd.clear();
    EXPECT_FALSE(sd.isConflictMiss(SetIndex{0}, Tag{0x1}));
}

TEST(Shadow, ValidateRejectsWithoutDying)
{
    EXPECT_TRUE(MissClassificationTable::validate(4, 12, 2).isOk());
    EXPECT_EQ(MissClassificationTable::validate(0, 0, 1).code(),
              ErrorCode::BadConfig);
    EXPECT_EQ(MissClassificationTable::validate(4, 0, 0).code(),
              ErrorCode::BadConfig);
    EXPECT_EQ(MissClassificationTable::validate(4, 70, 1).code(),
              ErrorCode::BadConfig);
}

TEST(ShadowDeath, BadParams)
{
    EXPECT_DEATH(MissClassificationTable(0, 0, 1), "at least one");
    EXPECT_DEATH(MissClassificationTable(4, 0, 0), "depth");
    EXPECT_DEATH(MissClassificationTable(4, 70, 1), "out of range");
}

/** Depth sweep: a cyclic pattern of k+1 tags in one set is fully
 *  identified at depth k+... precisely, depth >= k. */
class ShadowCycle : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(ShadowCycle, CycleOfDepthPlusOneTagsNeedsDepth)
{
    unsigned k = GetParam();   // cycle length
    // Simulate a DM set receiving a round-robin of k distinct tags:
    // each miss on tag t evicts the previous resident.
    auto run = [&](unsigned depth) {
        MissClassificationTable sd(1, 0, depth);
        unsigned caught = 0, total = 0;
        Addr resident = 0;     // tag currently "in the cache"
        bool has_resident = false;
        for (int i = 0; i < 100; ++i) {
            Addr tag = 1 + (i % k);
            if (has_resident && resident == tag)
                continue;      // would be a hit
            ++total;
            if (i >= int(k) && sd.isConflictMiss(SetIndex{0}, Tag{tag}))
                ++caught;
            if (has_resident)
                sd.recordEviction(SetIndex{0}, Tag{resident});
            resident = tag;
            has_resident = true;
        }
        return std::pair<unsigned, unsigned>(caught, total);
    };

    // Depth k-1 catches the whole cycle; depth k-2 catches none of
    // it (each tag was evicted exactly k-1 evictions ago).
    auto [caught_hi, total_hi] = run(k - 1);
    EXPECT_GT(caught_hi, 80u);
    (void)total_hi;
    if (k >= 3) {
        auto [caught_lo, total_lo] = run(k - 2);
        (void)total_lo;
        EXPECT_EQ(caught_lo, 0u);
    }
}

INSTANTIATE_TEST_SUITE_P(CycleLengths, ShadowCycle,
                         ::testing::Values(2, 3, 4, 6, 8));

// ---- ClassifyConfig: the geometry of a cache + MCT pair -----------

TEST(ClassifyConfig, ValidateAcceptsThePaperGeometry)
{
    EXPECT_TRUE(ClassifyConfig{}.validate().isOk());
    ClassifyConfig deep{32 * 1024, 4, 32, 12, 3};
    EXPECT_TRUE(deep.validate().isOk());
}

TEST(ClassifyConfig, ValidateRejectsEachBadField)
{
    ClassifyConfig depth0;
    depth0.mctDepth = 0;
    EXPECT_EQ(depth0.validate().code(), ErrorCode::BadConfig);

    ClassifyConfig wide_tag;
    wide_tag.mctTagBits = 65;
    EXPECT_EQ(wide_tag.validate().code(), ErrorCode::BadConfig);

    ClassifyConfig odd_assoc; // 16KB / (3 * 64B) is not whole
    odd_assoc.assoc = 3;
    EXPECT_EQ(odd_assoc.validate().code(), ErrorCode::BadConfig);
}

// ---- conflict filters (§3) ----------------------------------------

TEST(Filters, InUsesEvictedBitOnly)
{
    using F = ConflictFilter;
    EXPECT_TRUE(filterSaysConflict(F::In, false, true));
    EXPECT_FALSE(filterSaysConflict(F::In, true, false));
}

TEST(Filters, OutUsesNewMissOnly)
{
    using F = ConflictFilter;
    EXPECT_TRUE(filterSaysConflict(F::Out, true, false));
    EXPECT_FALSE(filterSaysConflict(F::Out, false, true));
}

TEST(Filters, AndRequiresBoth)
{
    using F = ConflictFilter;
    EXPECT_TRUE(filterSaysConflict(F::And, true, true));
    EXPECT_FALSE(filterSaysConflict(F::And, true, false));
    EXPECT_FALSE(filterSaysConflict(F::And, false, true));
    EXPECT_FALSE(filterSaysConflict(F::And, false, false));
}

TEST(Filters, OrAcceptsEither)
{
    using F = ConflictFilter;
    EXPECT_TRUE(filterSaysConflict(F::Or, true, false));
    EXPECT_TRUE(filterSaysConflict(F::Or, false, true));
    EXPECT_TRUE(filterSaysConflict(F::Or, true, true));
    EXPECT_FALSE(filterSaysConflict(F::Or, false, false));
}

TEST(Filters, OrIsMostLiberalAndMostConservative)
{
    // For every input combination: And => Out/In => Or (implication
    // chain the policies rely on).
    using F = ConflictFilter;
    for (bool n : {false, true}) {
        for (bool e : {false, true}) {
            if (filterSaysConflict(F::And, n, e)) {
                EXPECT_TRUE(filterSaysConflict(F::Out, n, e));
                EXPECT_TRUE(filterSaysConflict(F::In, n, e));
            }
            if (filterSaysConflict(F::Out, n, e) ||
                filterSaysConflict(F::In, n, e)) {
                EXPECT_TRUE(filterSaysConflict(F::Or, n, e));
            }
        }
    }
}

TEST(Filters, Names)
{
    EXPECT_EQ(toString(ConflictFilter::In), "in-conflict");
    EXPECT_EQ(toString(ConflictFilter::Out), "out-conflict");
    EXPECT_EQ(toString(ConflictFilter::And), "and-conflict");
    EXPECT_EQ(toString(ConflictFilter::Or), "or-conflict");
}

TEST(MissClassNames, ToString)
{
    EXPECT_EQ(toString(MissClass::Conflict), "conflict");
    EXPECT_EQ(toString(MissClass::Capacity), "capacity");
    EXPECT_EQ(toString(MissClass::Compulsory), "compulsory");
    EXPECT_TRUE(isConflict(MissClass::Conflict));
    EXPECT_FALSE(isConflict(MissClass::Compulsory));
}


/**
 * Golden partial-tag truncation results.
 *
 * The sequence and expected classifications below were produced by
 * the pre-strong-types implementation; they pin down the stored-tag
 * masking rule (low @c tagBits bits, full tag when 0) so that any
 * refactor of the Tag domain that changes truncation behavior fails
 * loudly here rather than silently skewing Figure 2.
 */
TEST(Mct, PartialTagTruncationGolden)
{
    struct Step
    {
        Addr evict;     // tag recorded as evicted (before the probe)
        Addr probe;     // tag of the next miss in the same set
    };
    // Tags chosen to collide in the low 4 and 8 bits in known ways.
    const Step steps[] = {
        {0x00000'0AB, 0xFFFF0'0AB},  // equal low 16 bits
        {0x12345'678, 0x00005'678},  // equal low 16 bits
        {0x00000'00F, 0x00000'01F},  // differ at bit 4
        {0xABCDE'F01, 0xABCDE'F01},  // identical full tags
        {0x00000'100, 0x00000'200},  // equal low 8 bits (both zero)
    };
    struct Expect
    {
        unsigned bits;
        bool conflict[5];
    };
    const Expect golden[] = {
        {0,  {false, false, false, true, false}},
        {4,  {true, true, true, true, true}},
        {8,  {true, true, false, true, true}},
        {12, {true, true, false, true, false}},
        {16, {true, true, false, true, false}},
    };
    for (const Expect &e : golden) {
        for (std::size_t i = 0; i < std::size(steps); ++i) {
            MissClassificationTable mct(1, e.bits);
            mct.recordEviction(SetIndex{0}, Tag{steps[i].evict});
            EXPECT_EQ(mct.isConflictMiss(SetIndex{0},
                                         Tag{steps[i].probe}),
                      e.conflict[i])
                << "tagBits=" << e.bits << " step=" << i;
        }
    }
}

/** Tag-width sweep: with w bits the false-match rate over random
 *  tags is ~2^-w. */
class MctTagWidth : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(MctTagWidth, FalseMatchRateShrinksWithWidth)
{
    unsigned bits = GetParam();
    MissClassificationTable mct(1, bits);
    mct.recordEviction(SetIndex{0}, Tag{0x12345678});

    // Count matches over tags differing from the stored one.
    unsigned matches = 0;
    const unsigned trials = 4096;
    for (unsigned i = 1; i <= trials; ++i) {
        Addr t = 0x12345678 ^ (i * 2654435761u);
        if (mct.classify(SetIndex{0}, Tag{t}) == MissClass::Conflict)
            ++matches;
    }
    double rate = double(matches) / trials;
    double expected =
        (bits == 0 || bits >= 12) ? 0.0 : 1.0 / double(1u << bits);
    EXPECT_NEAR(rate, expected, expected * 0.5 + 0.01);
}

INSTANTIATE_TEST_SUITE_P(Widths, MctTagWidth,
                         ::testing::Values(1, 2, 4, 8, 12, 16, 0));

} // namespace
} // namespace ccm

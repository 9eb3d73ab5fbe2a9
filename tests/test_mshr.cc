/**
 * @file
 * Unit tests for the MSHR file and the occupancy resource pools.
 */

#include <gtest/gtest.h>

#include "hierarchy/mshr.hh"
#include "hierarchy/resource.hh"

namespace ccm
{
namespace
{

// ---- MshrFile -------------------------------------------------------

TEST(Mshr, AllocateAndMerge)
{
    MshrFile m(4);
    m.allocate(LineAddr{0x40}, 100);
    auto ready = m.inFlight(LineAddr{0x40});
    ASSERT_TRUE(ready.has_value());
    EXPECT_EQ(*ready, 100u);
    EXPECT_FALSE(m.inFlight(LineAddr{0x80}).has_value());
    EXPECT_EQ(m.occupancy(), 1u);
}

TEST(Mshr, ExpireRetiresCompleted)
{
    MshrFile m(4);
    m.allocate(LineAddr{0x40}, 100);
    m.allocate(LineAddr{0x80}, 200);
    m.expire(99);
    EXPECT_EQ(m.occupancy(), 2u);
    m.expire(100);
    EXPECT_EQ(m.occupancy(), 1u);
    EXPECT_FALSE(m.inFlight(LineAddr{0x40}).has_value());
    m.expire(500);
    EXPECT_EQ(m.occupancy(), 0u);
}

TEST(Mshr, FullAndEarliest)
{
    MshrFile m(2);
    EXPECT_FALSE(m.full());
    EXPECT_EQ(m.earliestReady(), 0u);
    m.allocate(LineAddr{0x40}, 150);
    m.allocate(LineAddr{0x80}, 120);
    EXPECT_TRUE(m.full());
    EXPECT_EQ(m.earliestReady(), 120u);
}

TEST(Mshr, OutOfOrderAllocationsExpireExactlyAtReady)
{
    // Allocation order differs from completion order; each entry
    // must leave exactly when now reaches its own ready cycle.
    MshrFile m(8);
    const Cycle readies[] = {300, 100, 250, 120, 400, 180};
    for (unsigned i = 0; i < 6; ++i)
        m.allocate(LineAddr{0x40 * (i + 1)}, readies[i]);

    const Cycle sorted[] = {100, 120, 180, 250, 300, 400};
    for (unsigned k = 0; k < 6; ++k) {
        EXPECT_EQ(m.earliestReady(), sorted[k]);
        m.expire(sorted[k] - 1);
        EXPECT_EQ(m.occupancy(), 6u - k) << "at " << sorted[k] - 1;
        m.expire(sorted[k]);
        EXPECT_EQ(m.occupancy(), 5u - k) << "at " << sorted[k];
    }
    EXPECT_EQ(m.earliestReady(), 0u);
}

TEST(Mshr, ExpireBeforeEarliestRemovesNothing)
{
    MshrFile m(4);
    m.allocate(LineAddr{0x40}, 500);
    m.allocate(LineAddr{0x80}, 200);
    for (Cycle now : {0u, 1u, 150u, 199u}) {
        m.expire(now);
        EXPECT_EQ(m.occupancy(), 2u) << "at " << now;
    }
    // A later allocation with an earlier ready lowers the bound.
    m.allocate(LineAddr{0xc0}, 90);
    EXPECT_EQ(m.earliestReady(), 90u);
    m.expire(89);
    EXPECT_EQ(m.occupancy(), 3u);
    m.expire(90);
    EXPECT_EQ(m.occupancy(), 2u);
    EXPECT_FALSE(m.inFlight(LineAddr{0xc0}).has_value());

    // After clear the file behaves as new.
    m.clear();
    EXPECT_EQ(m.earliestReady(), 0u);
    m.allocate(LineAddr{0x40}, 50);
    m.expire(49);
    EXPECT_EQ(m.occupancy(), 1u);
    m.expire(50);
    EXPECT_EQ(m.occupancy(), 0u);
}

TEST(Mshr, PaperCapacity)
{
    MshrFile m(16);
    for (unsigned i = 0; i < 16; ++i)
        m.allocate(LineAddr{i * 64}, 100 + i);
    EXPECT_TRUE(m.full());
    m.expire(100);
    EXPECT_FALSE(m.full());
    EXPECT_EQ(m.occupancy(), 15u);
}

TEST(Mshr, ClearEmpties)
{
    MshrFile m(4);
    m.allocate(LineAddr{0x40}, 10);
    m.clear();
    EXPECT_EQ(m.occupancy(), 0u);
}

TEST(Mshr, ValidateRejectsWithoutDying)
{
    EXPECT_TRUE(MshrFile::validate(16).isOk());
    EXPECT_EQ(MshrFile::validate(0).code(), ErrorCode::BadConfig);
}

TEST(MshrDeath, ZeroEntriesRejected)
{
    EXPECT_DEATH(MshrFile{0}, "at least one");
}

TEST(MshrDeath, AllocateWhileFullPanics)
{
    MshrFile m(1);
    m.allocate(LineAddr{0x40}, 10);
    EXPECT_DEATH(m.allocate(LineAddr{0x80}, 20), "full");
}

// ---- ResourcePool ---------------------------------------------------

TEST(Resource, FreeUnitStartsImmediately)
{
    ResourcePool p(2);
    EXPECT_EQ(p.acquire(10, 3), 10u);
}

TEST(Resource, PicksEarliestFreeUnit)
{
    ResourcePool p(2);
    p.acquire(0, 10);   // unit busy until 10
    p.acquire(0, 4);    // second unit until 4
    // Third request at t=0 waits for the unit freeing at 4.
    EXPECT_EQ(p.acquire(0, 1), 4u);
}

TEST(Resource, SerializesOnSingleUnit)
{
    ResourcePool p(1);
    EXPECT_EQ(p.acquire(0, 5), 0u);
    EXPECT_EQ(p.acquire(0, 5), 5u);
    EXPECT_EQ(p.acquire(3, 5), 10u);
    EXPECT_EQ(p.acquire(100, 5), 100u);
}

TEST(Resource, AcquireUnitTargetsSpecificUnit)
{
    ResourcePool p(4);
    EXPECT_EQ(p.acquireUnit(2, 0, 10), 0u);
    EXPECT_EQ(p.acquireUnit(2, 0, 1), 10u);   // same bank: waits
    EXPECT_EQ(p.acquireUnit(3, 0, 1), 0u);    // other bank: free
}

TEST(Resource, ResetFrees)
{
    ResourcePool p(1);
    p.acquire(0, 100);
    p.reset();
    EXPECT_EQ(p.acquire(0, 1), 0u);
}

TEST(Resource, UnitsAccessor)
{
    EXPECT_EQ(ResourcePool(8).units(), 8u);
}

} // namespace
} // namespace ccm

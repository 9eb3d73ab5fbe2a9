/**
 * @file
 * Quickstart: the Miss Classification Table in thirty lines.
 *
 * Builds a 16 KB direct-mapped cache plus an MCT, replays the paper's
 * §3 scenario (line B evicts line A; the next miss on A is a conflict
 * miss), and prints each classification.
 *
 *   $ ./quickstart
 */

#include <iostream>

#include "mct/classifying_cache.hh"

int
main()
{
    using namespace ccm;

    // 16 KB direct-mapped, 64 B lines, full-tag one-deep MCT.
    ClassifyingCache l1(ClassifyConfig{16 * 1024, 1, 64});
    const CacheGeometry &geom = l1.geometry();

    // Two addresses exactly one cache-size apart: same set, different
    // tags — the canonical conflict pair.
    const ByteAddr line_a{0x100040};
    const ByteAddr line_b = line_a.advancedBy(16 * 1024);

    // One step: access; on a miss, classify with the MCT, fill with
    // the conflict bit, and record the evicted tag — the MCT is only
    // ever written with evicted tags, exactly as the hardware would.
    auto access = [&](const char *label, ByteAddr addr) {
        StepOutcome out = l1.access(addr, false);
        if (out.hit)
            std::cout << label << ": hit\n";
        else
            std::cout << label << ": miss, classified "
                      << toString(out.cls) << "\n";
    };

    access("A (cold)     ", line_a);  // capacity (compulsory)
    access("B (evicts A) ", line_b);  // capacity
    access("A (again)    ", line_a);  // conflict!  MCT remembers A
    access("B (again)    ", line_b);  // conflict
    access("A (again)    ", line_a);  // conflict

    const MissClassificationTable &mct = l1.mct();
    std::cout << "\nMCT storage for this cache: "
              << mct.storageBits() / 8 << " bytes ("
              << geom.numSets() << " sets x "
              << (mct.tagBits() == 0 ? 64 : mct.tagBits())
              << "+1 bits)\n";
    return 0;
}

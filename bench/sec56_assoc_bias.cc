/**
 * @file
 * §5.6 "Highly associative caches" — MCT-biased replacement.
 *
 * For 2/4/8-way caches, compare plain LRU against replacement biased
 * against capacity-miss lines ("a bias against capacity misses will
 * ensure that accesses that stride through memory ... move out of
 * the cache set quickly once they are no longer being used"), the
 * application Stone and Pomerene suggested for the shadow directory.
 * Functional study: miss rates over the workload suite.
 */

#include <iostream>

#include "assoc/biased_cache.hh"
#include "common/table.hh"
#include "trace/batch_reader.hh"
#include "workloads/registry.hh"

namespace
{

constexpr std::size_t memRefs = 500'000;
constexpr std::uint64_t seed = 42;

double
runMissRate(ccm::TraceSource &trace, unsigned assoc, bool bias,
            ccm::Count *overrides = nullptr)
{
    using namespace ccm;
    CacheGeometry g(16 * 1024, assoc, 64);
    BiasedAssocCache cache(g, bias);
    trace.reset();
    BatchReader reader(trace);
    while (const MemRecord *r = reader.next()) {
        if (r->isMem())
            cache.access(r->dataAddr(), r->isStore());
    }
    if (overrides)
        *overrides = cache.biasOverrides();
    return 100.0 * cache.missRate();
}

} // namespace

int
main()
{
    using namespace ccm;

    std::cout << "Section 5.6: MCT-biased replacement in associative "
              << "caches (miss %, 16KB cache)\n\n";

    TextTable table({"workload", "2w LRU", "2w bias", "4w LRU",
                     "4w bias", "8w LRU", "8w bias"});

    const unsigned assocs[] = {2, 4, 8};
    double sum[6] = {};
    std::size_t n = 0;

    for (const auto &spec : workloadSuite()) {
        auto wl = spec.make(memRefs, seed);
        auto row = table.addRow(spec.name);
        std::size_t col = 1;
        for (unsigned a : assocs) {
            double lru = runMissRate(*wl, a, false);
            double bias = runMissRate(*wl, a, true);
            table.setNum(row, col, lru, 2);
            table.setNum(row, col + 1, bias, 2);
            sum[col - 1] += lru;
            sum[col] += bias;
            col += 2;
        }
        ++n;
    }

    auto avg = table.addRow("AVG");
    for (std::size_t i = 0; i < 6; ++i)
        table.setNum(avg, i + 1, sum[i] / n, 2);
    table.print(std::cout);

    std::cout << "\nthe paper's suggestion targets workloads that "
              << "still conflict at 4+ ways; where (like most of this "
              << "suite) conflicts are pairwise, the bias should be "
              << "close to neutral\n";
    return 0;
}

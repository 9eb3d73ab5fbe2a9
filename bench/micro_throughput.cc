/**
 * @file
 * google-benchmark microbenchmarks for the individual structures on
 * the simulator's hot path: MCT classification, cache access, FaLru,
 * assist buffer, memory-system access, and one end-to-end timing run.
 * End-to-end and per-layer rates live in perfbench/ (docs/PERFORMANCE.md).
 * Every flag is handed to google-benchmark.
 */

#include <benchmark/benchmark.h>

#include "assist/buffer.hh"
#include "cache/cache.hh"
#include "cache/fa_lru.hh"
#include "common/random.hh"
#include "mct/mct.hh"
#include "sim/experiment.hh"
#include "trace/vector_trace.hh"
#include "workloads/registry.hh"

namespace
{

using namespace ccm;

void
BM_MctClassify(benchmark::State &state)
{
    MissClassificationTable mct(256,
                                static_cast<unsigned>(state.range(0)));
    for (std::size_t s = 0; s < 256; ++s)
        mct.recordEviction(SetIndex{s}, Tag{s * 31});
    Pcg32 rng(1);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            mct.classify(SetIndex{rng.next() & 255},
                         Tag{rng.next()}));
    }
}
BENCHMARK(BM_MctClassify)->Arg(0)->Arg(8);

void
BM_CacheAccess(benchmark::State &state)
{
    CacheGeometry g(16 * 1024, static_cast<unsigned>(state.range(0)),
                    64);
    Cache cache(g);
    Pcg32 rng(1);
    for (auto _ : state) {
        Addr a = (rng.next() & 0xFFFFF) << 3;
        if (!cache.access(ByteAddr{a}, false))
            cache.fill(ByteAddr{a}, false, false);
    }
}
BENCHMARK(BM_CacheAccess)->Arg(1)->Arg(2)->Arg(8);

void
BM_FaLruTouch(benchmark::State &state)
{
    FaLru fa(static_cast<std::size_t>(state.range(0)));
    Pcg32 rng(1);
    for (auto _ : state) {
        LineAddr a{rng.next() & 0x3FF};
        if (!fa.touch(a))
            fa.insert(a);
    }
}
BENCHMARK(BM_FaLruTouch)->Arg(8)->Arg(256);

void
BM_FaLruTouchOrInsert(benchmark::State &state)
{
    // The combined single-probe access the oracle uses.
    FaLru fa(static_cast<std::size_t>(state.range(0)));
    Pcg32 rng(1);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            fa.touchOrInsert(LineAddr{rng.next() & 0x3FF}));
    }
}
BENCHMARK(BM_FaLruTouchOrInsert)->Arg(8)->Arg(256);

void
BM_AssistBufferProbe(benchmark::State &state)
{
    AssistBuffer buf(static_cast<unsigned>(state.range(0)));
    for (unsigned i = 0; i < buf.entries(); ++i)
        buf.insert(LineAddr{i * 64}, BufSource::Victim, false,
                   false, 0);
    Pcg32 rng(1);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            buf.find(LineAddr{(rng.next() & 31) * 64}));
    }
}
BENCHMARK(BM_AssistBufferProbe)->Arg(8)->Arg(16);

void
BM_MemSysAccess(benchmark::State &state)
{
    SystemConfig cfg = ambConfig(true, true, true);
    MemorySystem mem(cfg.mem);
    Pcg32 rng(1);
    Cycle now = 0;
    for (auto _ : state) {
        Addr a = (rng.next() & 0x7FFFF) << 3;
        benchmark::DoNotOptimize(
            mem.access(ByteAddr{0}, ByteAddr{a}, false, now));
        now += 2;
    }
}
BENCHMARK(BM_MemSysAccess);

void
BM_EndToEndSim(benchmark::State &state)
{
    auto wl = makeWorkload("compress", 50'000, 42);
    VectorTrace trace = VectorTrace::capture(*wl);
    SystemConfig cfg = baselineConfig();
    for (auto _ : state) {
        RunOutput r = runTiming(trace, cfg);
        benchmark::DoNotOptimize(r.sim.cycles);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(trace.size()));
}
BENCHMARK(BM_EndToEndSim)->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();

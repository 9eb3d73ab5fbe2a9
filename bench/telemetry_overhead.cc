/**
 * @file
 * Telemetry overhead gate: proves the observability layer keeps its
 * "strictly observational, < 2% on the classify hot path" promise
 * (docs/OBSERVABILITY.md).
 *
 * The serve layer's only steady-state classify cost is
 * QueueSource::nextBatch's telemetry: a relaxed counter add per batch
 * plus a sampled gap-timing (two steady-clock reads one batch in
 * kClassifySampleEvery, src/serve/stream.cc).  This bench replays the
 * same captured traces through runTiming() twice — once raw, once
 * through a decorator doing exactly that per-batch telemetry — with
 * interleaved repetitions so clock drift and frequency scaling hit
 * both sides equally, and compares per-workload minima.
 *
 * Exit status: 0 when the median overhead across the suite is under
 * the 2% budget, 1 when it is not (CI fails the PR), so the gate is
 * enforced rather than aspirational.
 */

#include <algorithm>
#include <chrono>
#include <iostream>
#include <vector>

#include "bench_common.hh"
#include "obs/metrics.hh"
#include "sim/experiment.hh"

namespace
{

using namespace ccm;
using namespace ccm::bench;

constexpr double overheadBudgetPct = 2.0;
constexpr int repetitions = 9;
constexpr std::size_t overheadRefs = 200'000;

/**
 * The per-batch instrument work QueueSource does in the daemon:
 * count the records through a counter and gap-time one batch handoff
 * in kSampleEvery into a histogram.  Forwarding decorator, zero
 * per-record work — mirroring src/serve/stream.cc exactly (same
 * sampling rate) is the point.
 */
class InstrumentedSource : public TraceSource
{
  public:
    explicit InstrumentedSource(TraceSource &inner)
        : inner_(inner),
          classifyUs_(obs::MetricsRegistry::global().histogram(
              "bench_classify_us", "per-batch classify gap")),
          classified_(obs::MetricsRegistry::global().counter(
              "bench_classified_total", "records classified"))
    {
    }

    /** QueueSource::kClassifySampleEvery, mirrored. */
    static constexpr unsigned kSampleEvery = 8;

    std::size_t
    nextBatch(MemRecord *out, std::size_t n) override
    {
        if (lastHandoffUs_ != 0) {
            classifyUs_.observe(
                static_cast<std::uint64_t>(nowUs() - lastHandoffUs_));
            lastHandoffUs_ = 0;
        }
        const std::size_t got = inner_.nextBatch(out, n);
        classified_.inc(got);
        if (got > 0 && ++tick_ % kSampleEvery == 0)
            lastHandoffUs_ = nowUs();
        return got;
    }

    void
    reset() override
    {
        tick_ = 0;
        lastHandoffUs_ = 0;
        inner_.reset();
    }

    std::string name() const override { return inner_.name(); }

  private:
    static std::int64_t
    nowUs()
    {
        return std::chrono::duration_cast<std::chrono::microseconds>(
                   std::chrono::steady_clock::now()
                       .time_since_epoch())
            .count();
    }

    TraceSource &inner_;
    obs::Histogram &classifyUs_;
    obs::Counter &classified_;
    unsigned tick_ = 0;
    std::int64_t lastHandoffUs_ = 0;
};

double
timedRun(TraceSource &src)
{
    src.reset();
    const auto start = std::chrono::steady_clock::now();
    (void)runTiming(src, baselineConfig());
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
}

/**
 * Noise-robust per-side estimate: the fastest repetition.  The
 * telemetry cost is a constant add per batch, so it survives in the
 * minimum, while scheduler and frequency noise (which only ever slow
 * a run down) do not.
 */
double
best(const std::vector<double> &v)
{
    return *std::min_element(v.begin(), v.end());
}

} // namespace

int
main(int argc, char **argv)
{
    (void)parseJobs(argc, argv);

    TextTable table(
        {"workload", "base_ms", "instr_ms", "overhead_%"});
    std::vector<double> overheads;

    for (const std::string &wl : timingSuite()) {
        VectorTrace trace = captureWorkload(wl, overheadRefs);
        InstrumentedSource instrumented(trace);

        (void)timedRun(trace); // warm caches and the branch state

        std::vector<double> base, instr;
        for (int rep = 0; rep < repetitions; ++rep) {
            // Interleave A/B so machine noise is shared, not biased.
            base.push_back(timedRun(trace));
            instr.push_back(timedRun(instrumented));
        }
        const double b = best(base), in = best(instr);
        const double pct = (in - b) / b * 100.0;
        overheads.push_back(pct);

        auto row = table.addRow(wl);
        table.setNum(row, 1, b * 1e3, 2);
        table.setNum(row, 2, in * 1e3, 2);
        table.setNum(row, 3, pct, 2);
    }

    const double suite = median(overheads);
    auto row = table.addRow("suite-median");
    table.setNum(row, 3, suite, 2);

    table.print(std::cout);
    emitBenchJson("telemetry", table,
                  "per-batch telemetry overhead on the classify hot "
                  "path; budget " +
                      std::to_string(overheadBudgetPct) + "%");

    std::cout << "\nsuite-median overhead " << suite << "% (budget "
              << overheadBudgetPct << "%)\n";
    if (suite >= overheadBudgetPct) {
        std::cout << "FAIL: telemetry overhead exceeds the budget\n";
        return 1;
    }
    std::cout << "PASS\n";
    return 0;
}

/**
 * @file
 * ccm-perfbench: one workload per invocation, end-to-end metrics with
 * tracing off (--trace 0) or per-layer metrics from a traced run
 * (--trace 1).  The last line of standard output is the result:
 *
 *   {"correct": ..., "attempted": N, "failed": F, "metrics": {...}}
 *
 * Every time reported is host time; simulated quantities (cycles,
 * accesses, misses) are exact counts.  The modelled caches start empty
 * in every job, as in the paper's runs.  The repository holds no
 * measurements of real hardware, so the model is unvalidated and no
 * accuracy error figure is given.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <thread>

#include "bench.hh"
#include "common/log.hh"

#ifndef CCM_BENCH_BUILD_TYPE
#define CCM_BENCH_BUILD_TYPE "unknown"
#endif
#ifndef CCM_BENCH_COMPILER
#define CCM_BENCH_COMPILER "unknown"
#endif

namespace perfbench
{
namespace
{

/** Set-ups per untraced run; setup_s is their median. */
constexpr int kSetups = 5;

void
usage()
{
    std::cerr << "usage: ccm-perfbench --workload NAME [--seed N] "
                 "[--seconds S] [--trace 0|1] [--tiny] [--work-dir DIR] "
                 "[--digests FILE] [--record-digests FILE] "
                 "[--revision REV]\n"
                 "workloads: classify-files timing-sweep\n";
}

struct RunReport
{
    MetricSet metrics;
    Tally tally;
    /** "name": value members for the provenance line. */
    std::string provenance;
    /** Sample counts of every timing, printed before the result. */
    std::vector<std::string> samples;
    SpanSummary spans;
};

// ---- closed loop ------------------------------------------------------

/** Job timings of one closed loop. */
struct LoopResult
{
    std::vector<double> jobMs;
    /** Trace records of the untraced jobs, over the loop's host time. */
    double mrecPerS = 0.0;
    double untracedS = 0.0;
    double tracedS = 0.0;
};

/**
 * Run jobs round-robin until @p seconds have passed (and at least one
 * full pass is done).  With @p traced, each job runs twice in a row,
 * untraced and traced under a "job" span, so tracing overhead is
 * measured on paired jobs; the pair's order flips every pass, so
 * neither copy always finds the other's warm caches.
 */
LoopResult
closedLoop(BatchWorkload &w, double seconds,
           obs::SpanTracer *traced, WorkCounts &work, DigestBook &book,
           Tally &tally)
{
    obs::SpanTracer off;
    std::vector<std::string> first(w.jobCount());
    LoopResult res;
    auto runOne = [&](std::size_t i, obs::SpanTracer &tracer) {
        ++tally.attempted;
        const auto t = Clock::now();
        Expected<std::string> d = [&] {
            obs::ScopedSpan span(tracer, "job", "bench");
            return w.runJob(i, tracer, work);
        }();
        const double s = secondsSince(t);
        if (!d.ok()) {
            tally.fail(w.jobName(i) + ": " + d.status().toString());
            return s;
        }
        if (first[i].empty()) {
            first[i] = d.value();
            book.check(w.jobName(i), d.value(), tally);
        } else if (first[i] != d.value()) {
            tally.fail(w.jobName(i) + ": digest " + d.value() +
                       " differs from its first run " + first[i]);
        }
        return s;
    };
    double records = 0.0;
    const auto start = Clock::now();
    for (std::size_t k = 0;; ++k) {
        if (k >= w.jobCount() && secondsSince(start) >= seconds)
            break;
        const std::size_t i = k % w.jobCount();
        const bool tracedFirst = traced && (k / w.jobCount()) % 2 == 1;
        if (tracedFirst)
            res.tracedS += runOne(i, *traced);
        const double s = runOne(i, off);
        res.jobMs.push_back(s * 1e3);
        records += double(w.jobRecords(i));
        if (traced) {
            res.untracedS += s;
            if (!tracedFirst)
                res.tracedS += runOne(i, *traced);
        }
    }
    res.mrecPerS = records / secondsSince(start) / 1e6;
    return res;
}

Status
runBatch(const Options &opts, RunReport &rep)
{
    DigestBook book(opts, opts.workload);
    if (!opts.digests.empty()) {
        Status s = book.load(opts.digests);
        if (!s.isOk())
            return s;
    }
    std::unique_ptr<BatchWorkload> w;
    WorkCounts work;
    if (!opts.trace) {
        obs::SpanTracer off;
        std::vector<double> setups;
        for (int r = 0; r < kSetups; ++r) {
            w.reset(); // one input set in memory at a time
            w = makeBatchWorkload(opts.workload, opts);
            const auto t = Clock::now();
            Status s = w->setup(off);
            if (!s.isOk())
                return s;
            setups.push_back(secondsSince(t));
        }
        LoopResult loop = closedLoop(*w, opts.seconds, nullptr,
                                     work, book, rep.tally);
        w->crossCheck(rep.tally);
        rep.metrics.set("setup_s", percentile(setups, 0.5), "s");
        rep.metrics.set("mrec_per_s", loop.mrecPerS, "Mrec/s");
        rep.metrics.set("job_p50_ms", percentile(loop.jobMs, 0.5), "ms");
        rep.metrics.set("job_p90_ms", percentile(loop.jobMs, 0.9), "ms");
        rep.metrics.set("peak_rss_mb", peakRssMb(), "MB");
        rep.samples.push_back("setup_s " + std::to_string(setups.size()));
        rep.samples.push_back("job_ms " +
                              std::to_string(loop.jobMs.size()));
    } else {
        obs::SpanTracer on;
        Status s = on.enableToFile(opts.workDir + "/spans.json");
        if (!s.isOk())
            return s;
        w = makeBatchWorkload(opts.workload, opts);
        s = w->setup(on);
        if (!s.isOk())
            return s;
        // Half the run on paired jobs, then the layer probes.
        LoopResult loop = closedLoop(*w, opts.seconds * 0.5, &on,
                                     work, book, rep.tally);
        w->crossCheck(rep.tally);
        w->passCounts(work);
        const ServeSessionResult serve =
            runLayerProbes(w->probeRecords(), opts, on, work, rep.tally);
        s = on.flush();
        if (!s.isOk())
            return s;
        auto spans = summarizeSpans(on);
        if (!spans.ok())
            return spans.status();
        rep.spans = spans.value();
        layerMetrics(rep.spans, work, serve, rep.metrics);
        rep.metrics.set("bench.tracing_overhead",
                        loop.untracedS > 0.0
                            ? loop.tracedS / loop.untracedS - 1.0
                            : 0.0,
                        "ratio");
        rep.samples.push_back("paired_jobs " +
                              std::to_string(loop.jobMs.size()));
        rep.samples.push_back("serve_probe_streams " +
                              std::to_string(serve.latencyMs.size()));
    }
    if (!opts.recordDigests.empty()) {
        Status s = book.record(opts.recordDigests);
        if (!s.isOk())
            return s;
    }
    rep.provenance = "\"jobs\": " + std::to_string(w->jobCount()) +
                     (w->provenance().empty() ? "" : ", ") +
                     w->provenance();
    if (opts.trace)
        rep.provenance +=
            ", \"serve_probe_streams\": " + std::to_string(kServeStreams) +
            ", \"serve_probe_offered_streams_per_s\": " +
            std::to_string(int(kServeStreamsPerSecond));
    return Status::ok();
}

// ---- output -----------------------------------------------------------

std::string
number(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
    return buf;
}

void
printReport(const Options &opts, const RunReport &rep)
{
    std::cout << "{\"provenance\": {\"workload\": \"" << opts.workload
              << "\", \"seed\": " << opts.seed << ", \"seconds\": "
              << number(opts.seconds) << ", \"trace\": " << opts.trace
              << ", \"size\": \"" << opts.sizeLabel()
              << "\", \"nproc\": " << opts.nproc
              << ", \"job_shards\": 1, \"probe_shards\": " << opts.shards
              << ", \"compiler\": \""
              << CCM_BENCH_COMPILER << "\", \"build_type\": \""
              << CCM_BENCH_BUILD_TYPE << "\", \"revision\": \""
              << opts.revision << "\", " << rep.provenance << "}}\n";
    std::cout << "note: host time throughout; the cache model is "
                 "unvalidated (no hardware reference in the repo), so "
                 "no accuracy error is given\n";
    for (const std::string &s : rep.samples)
        std::cout << "samples " << s << "\n";
    for (const auto &[name, st] : rep.spans) {
        char line[160];
        std::snprintf(line, sizeof line,
                      "span %-32s n=%-6zu total_s=%.4f self_s=%.4f\n",
                      name.c_str(), st.count, st.totalSeconds,
                      st.selfSeconds);
        std::cout << line;
    }
    std::cout << "{\"correct\": "
              << (rep.tally.failed == 0 ? "true" : "false")
              << ", \"attempted\": " << rep.tally.attempted
              << ", \"failed\": " << rep.tally.failed
              << ", \"metrics\": {";
    bool firstMetric = true;
    for (const auto &[name, vu] : rep.metrics.entries()) {
        std::cout << (firstMetric ? "" : ", ") << "\"" << name
                  << "\": {\"value\": " << number(vu.first)
                  << ", \"unit\": \"" << vu.second << "\"}";
        firstMetric = false;
    }
    std::cout << "}}" << std::endl;
}

} // namespace
} // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;
    Options opts;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto val = [&]() -> std::string {
            if (i + 1 >= argc) {
                usage();
                std::exit(2);
            }
            return argv[++i];
        };
        if (a == "--workload")
            opts.workload = val();
        else if (a == "--seed")
            opts.seed = std::strtoull(val().c_str(), nullptr, 10);
        else if (a == "--seconds")
            opts.seconds = std::strtod(val().c_str(), nullptr);
        else if (a == "--trace")
            opts.trace = val() == "1";
        else if (a == "--tiny")
            opts.tiny = true;
        else if (a == "--work-dir")
            opts.workDir = val();
        else if (a == "--digests")
            opts.digests = val();
        else if (a == "--record-digests")
            opts.recordDigests = val();
        else if (a == "--revision")
            opts.revision = val();
        else {
            usage();
            return 2;
        }
    }
    if (!makeBatchWorkload(opts.workload, opts)) {
        usage();
        return 2;
    }
    if (!(opts.seconds > 0.0)) {
        std::cerr << "perfbench: --seconds must be positive\n";
        return 2;
    }
    ccm::setLogThreshold(ccm::LogLevel::Warn);
    opts.nproc = std::max(1u, std::thread::hardware_concurrency());
    opts.shards = std::max(1u, opts.nproc / 2);
    std::error_code ec;
    std::filesystem::create_directories(opts.workDir, ec);
    if (ec) {
        std::cerr << "perfbench: cannot create " << opts.workDir << ": "
                  << ec.message() << "\n";
        return 1;
    }

    RunReport rep;
    Status s = runBatch(opts, rep);
    if (s.isOk()) // the probe daemon's stream spans, in traced runs
        s = ccm::obs::SpanTracer::global().flush();
    if (!s.isOk()) {
        std::cerr << "perfbench: " << s.toString() << "\n";
        return 1;
    }
    printReport(opts, rep);
    return 0;
}

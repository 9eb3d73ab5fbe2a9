/**
 * @file
 * Shared pieces of the layer-resolved benchmark: options, metric
 * output, operation accounting, stored stat digests, span summaries
 * and the per-layer probes every traced run ends with.
 *
 * The benchmark drives the simulator only through its public entry
 * points and times them from outside; nothing here is linked into the
 * simulator itself.
 */

#ifndef CCM_PERFBENCH_BENCH_HH
#define CCM_PERFBENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/status.hh"
#include "obs/span.hh"
#include "trace/record.hh"

namespace perfbench
{

using ccm::Expected;
using ccm::Status;
namespace obs = ccm::obs;
using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point t)
{
    return std::chrono::duration<double>(Clock::now() - t).count();
}

/**
 * Input sizes of every workload.  Full sizes keep each job in the tens
 * of milliseconds, so timer and scheduling noise stay small against
 * it; tiny sizes exist for the self-test.
 */
struct Sizes
{
    /** classify-files: memory references per generated file. */
    std::size_t filesRefs;
    /** timing-sweep: memory references per timing-suite trace. */
    std::size_t timingRefs;
    /** Probe serve session: trace records per stream. */
    std::size_t streamRecords;
    /** Records the per-layer probes run on. */
    std::size_t probeRecords;
};

Sizes fullSizes();
Sizes tinySizes();

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    bool tiny = false;
    /** Work directory (trace files, sockets, span dumps). */
    std::string workDir = ".bench_work";
    /** Stored digest file checked against; empty = none. */
    std::string digests;
    /** Write this run's first-pass digests here; empty = don't. */
    std::string recordDigests;
    /** Source revision recorded in the provenance line. */
    std::string revision = "unknown";

    /** Shards the K-vs-1 probe compares: nproc/2, at least 1. */
    unsigned shards = 1;
    /** Hardware threads seen by the process. */
    unsigned nproc = 1;

    Sizes sizes() const { return tiny ? tinySizes() : fullSizes(); }
    std::string sizeLabel() const { return tiny ? "tiny" : "full"; }
};

/** Insertion-ordered named metrics with units. */
class MetricSet
{
  public:
    /** Append @p name (each name is set once per run). */
    void set(const std::string &name, double value,
             const std::string &unit);
    const std::vector<std::pair<std::string,
                                std::pair<double, std::string>>> &
    entries() const
    {
        return items_;
    }

  private:
    std::vector<std::pair<std::string, std::pair<double, std::string>>>
        items_;
};

/** Attempted / failed operations of one run. */
struct Tally
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    /** Count one failed operation and say why on stderr. */
    void fail(const std::string &why);
};

/**
 * Stat digests kept with the benchmark: per (workload, size, seed) a
 * map job -> digest of its simulated output.  A key present in the
 * loaded file makes every job of that run checkable; a job missing
 * from a present key is a failure, so a partial file cannot pass.
 */
class DigestBook
{
  public:
    DigestBook(const Options &opts, const std::string &workload);

    /** Load the stored file (missing file = nothing to check). */
    Status load(const std::string &path);

    /**
     * Check @p digest of @p job against the stored value (if this
     * run's key is stored) and remember it for record().
     */
    void check(const std::string &job, const std::string &digest,
               Tally &tally);

    /** Merge this run's digests into @p path. */
    Status record(const std::string &path) const;

  private:
    std::string key_;
    bool haveStored_ = false;
    std::map<std::string, std::string> stored_;
    std::map<std::string, std::string> seen_;
};

/** FNV-1a 64-bit digest of @p text, as 16 hex digits. */
std::string digestOf(const std::string &text);

/**
 * Per-name totals of recorded spans.  Self time is a span's duration
 * minus the part its direct children (same thread, nested in time)
 * cover.
 */
struct SpanStats
{
    std::size_t count = 0;
    double totalSeconds = 0.0;
    double selfSeconds = 0.0;
    std::vector<double> durationsMs;
};

using SpanSummary = std::map<std::string, SpanStats>;

/** Parse @p tracer's buffered spans into per-name statistics. */
Expected<SpanSummary> summarizeSpans(const obs::SpanTracer &tracer);

/** Work attributed to span names (records, cycles, ...). */
using WorkCounts = std::map<std::string, double>;

/** Median / nearest-rank percentile (0 for an empty sample). */
double percentile(std::vector<double> v, double p);

/** Peak resident set of this process in MB. */
double peakRssMb();

/**
 * What one serve session measured (see serve.cc).  Latency runs from
 * each stream's due time to its retirement as published by the
 * daemon; it never includes drain.
 */
struct ServeSessionResult
{
    std::vector<double> latencyMs;
    /** Latency minus the batch service time of the payload. */
    std::vector<double> waitMs;
    /** How late the generator started each stream. */
    std::vector<double> lateMs;
    std::uint64_t recordsSent = 0;
    std::uint64_t recordsAccepted = 0;
    std::uint64_t refused = 0;
    /** requestDrain .. every thread joined, after the last retirement. */
    double drainMs = 0.0;
    /** Batch runTiming of the payload (the serve reference). */
    double serviceMs = 0.0;
};

/**
 * A closed-loop workload: a fixed list of jobs, each a call chain into
 * the simulator whose simulated output is digested and checked.
 */
class BatchWorkload
{
  public:
    virtual ~BatchWorkload() = default;

    /** Generate the inputs from opts.seed ("workloads.gen" spans). */
    virtual Status setup(obs::SpanTracer &tracer) = 0;

    virtual std::size_t jobCount() const = 0;
    virtual std::string jobName(std::size_t i) const = 0;
    /** Trace records job @p i simulates. */
    virtual std::size_t jobRecords(std::size_t i) const = 0;

    /**
     * Run job @p i with layer spans on @p tracer (a disabled tracer
     * records nothing); @return the digest of its simulated output.
     * Work per layer span goes to @p work when @p tracer is enabled.
     */
    virtual Expected<std::string>
    runJob(std::size_t i, obs::SpanTracer &tracer, WorkCounts &work) = 0;

    /**
     * Second-path checks between the first results of different jobs
     * (packed vs delta); each mismatch is a failure.
     */
    virtual void crossCheck(Tally &tally) { (void)tally; }

    /** Exact simulated counts of one pass, when the jobs have them. */
    virtual void passCounts(WorkCounts &work) const { (void)work; }

    /** Records the per-layer probes run on (part of the input). */
    virtual const std::vector<ccm::MemRecord> &probeRecords() const = 0;

    /** Extra provenance ("key": value JSON members, comma-joined). */
    virtual std::string provenance() const { return ""; }
};

/** The batch workload named @p name, or nullptr. */
std::unique_ptr<BatchWorkload> makeBatchWorkload(const std::string &name,
                                                 const Options &opts);

/**
 * The probe's serve session: enough streams that ten lie beyond p90, at
 * an offered rate that keeps the daemon about half loaded.  One
 * 150K-record stream takes about 12 ms from due time to retirement on
 * an idle daemon (4-vCPU x86 VM, GCC 12, Release build).
 */
constexpr std::size_t kServeStreams = 100;
constexpr double kServeStreamsPerSecond = 40.0;

/**
 * The probe's open-loop serve session: an in-process daemon receives
 * streams, each carrying @p payload, on an arrival schedule seeded from
 * opts.seed; wait for every retirement, drain the daemon, and check
 * each stream's report against batch runTiming of the payload.
 */
ServeSessionResult runServeProbe(const std::vector<ccm::MemRecord> &payload,
                                 const Options &opts,
                                 obs::SpanTracer &tracer, Tally &tally);

/**
 * Run the per-layer probes on @p records (a slice of the workload's
 * own input): encode + decode-only passes per encoding, sharded
 * classify at K=1 beside K, oracle classify, MRC, timing with access
 * capture and a MemorySystem replay, FrameParser::feed over the wire
 * bytes, RecordQueue hand-off, and an open-loop serve session, whose
 * result is returned.  Spans are named "probe.<layer>"; @p work gets
 * the matching record counts.  Output mismatches count as failures in
 * @p tally.
 */
ServeSessionResult runLayerProbes(const std::vector<ccm::MemRecord> &records,
                                  const Options &opts,
                                  obs::SpanTracer &tracer, WorkCounts &work,
                                  Tally &tally);

/**
 * Derive every per-layer metric from the spans and work counts.
 * A workload's own job spans ("trace.decode.packed", "sim.timing",
 * ...) win over the probe spans of the same layer.
 */
void layerMetrics(const SpanSummary &spans, const WorkCounts &work,
                  const ServeSessionResult &serve, MetricSet &out);

} // namespace perfbench

#endif // CCM_PERFBENCH_BENCH_HH

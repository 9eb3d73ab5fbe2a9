/**
 * @file
 * One live trace stream inside the ccm-serve daemon: a bounded
 * record queue fed by a connection reader, a simulation thread
 * running the exact batch pipeline (Core::run over a MemorySystem via
 * tryRunTiming), and a mutex-guarded stats snapshot the control
 * socket can read while the stream is in flight.
 *
 * Fault isolation is the design rule: everything that can go wrong
 * with one stream — corrupt frames, a producer vanishing mid-stream,
 * a bad geometry, an idle-TTL reap — lands in this object as a
 * Status and a Failed state.  Nothing here may take the daemon down.
 *
 * Determinism guarantee: a stream whose producer delivers trace T and
 * a clean end frame, with no records shed, finishes with sim/mem/heat
 * stats byte-identical to `runTiming(T, config)` — the simulation
 * thread runs that exact code over the queue.  Tests and the CI smoke
 * step hold the daemon to this.
 *
 * Locking contract (machine-checked, src/common/sync.hh): the
 * LockRank::ServeStream mutex guards the state machine (state,
 * failure Status, frame counters, final RunOutput); live mid-run
 * counters go through an obs::LiveStatsCell (LockRank::ObsLive); the
 * queue has its own LockRank::ServeQueue lock.  A caller of the
 * public interface never holds any of them (CCM_EXCLUDES), so the
 * daemon lock (rank 10) may be held across any call here.
 */

#ifndef CCM_SERVE_STREAM_HH
#define CCM_SERVE_STREAM_HH

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>

#include "common/sync.hh"
#include "obs/interval.hh"
#include "obs/json.hh"
#include "obs/live.hh"
#include "obs/metrics.hh"
#include "serve/frame.hh"
#include "serve/queue.hh"
#include "sim/experiment.hh"

namespace ccm::serve
{

/** Per-stream resource and observability knobs. */
struct StreamLimits
{
    /** Queue capacity in records (the per-stream memory bound). */
    std::size_t queueRecords = 8192;

    OverflowPolicy policy = OverflowPolicy::Block;

    /** Rolling-window sample length in refs; 0 disables the window. */
    Count windowEvery = 0;

    /** Samples retained in the rolling window. */
    std::size_t windowSamples = 32;

    /** Refs between live stats-snapshot refreshes. */
    Count snapshotEvery = 32768;

    /** Frame defects tolerated before the stream is declared failed. */
    Count defectBudget = 0;
};

/** Where a stream is in its life. */
enum class StreamState
{
    Admitted, ///< registered, simulation not yet started
    Running,  ///< simulation thread consuming the queue
    Done,     ///< clean end-of-stream, final stats available
    Failed,   ///< carries the Status explaining why
};

/** Stable lower-case name of @p s ("running", "done", ...). */
const char *toString(StreamState s);

/**
 * TraceSource adapter over the stream queue (blocking pulls).
 *
 * Also the serve layer's classify-latency probe: the wall time from
 * one nextBatch() return to the next call is the time the simulation
 * thread spent classifying that batch (queue wait inside pop() is
 * excluded), observed into ccm_serve_batch_classify_us.  The probe is
 * sampled — one in kClassifySampleEvery batches is gap-timed, so the
 * steady-state cost is one relaxed add per batch plus two clock reads
 * per sample window; the per-record classify path itself is untouched
 * (bench/telemetry_overhead holds the total to < 2%).
 */
class QueueSource : public TraceSource
{
  public:
    /** 1-in-N batch sampling rate of the classify-latency probe. */
    static constexpr unsigned kClassifySampleEvery = 8;

    QueueSource(RecordQueue &queue, std::string label);

    std::size_t nextBatch(MemRecord *out, std::size_t n) override;

    /** Streams are not replayable; reset is the start-of-run no-op. */
    void reset() override {}

    std::string name() const override { return label_; }

  private:
    RecordQueue &q;
    std::string label_;

    obs::Histogram &classifyUs_;
    obs::Counter &classified_;
    /** Batch counter driving the 1-in-N sampling. */
    unsigned tick_ = 0;
    /** Handoff time of the sampled batch (0 = none armed). */
    std::int64_t lastHandoffUs_ = 0;
};

/** One stream: queue + simulation thread + live stats snapshot. */
class StreamPipeline
{
  public:
    StreamPipeline(std::uint64_t id, std::string name,
                   const SystemConfig &system,
                   const StreamLimits &limits,
                   std::uint64_t generation);

    /** Joins the simulation thread (after aborting input). */
    ~StreamPipeline();

    StreamPipeline(const StreamPipeline &) = delete;
    StreamPipeline &operator=(const StreamPipeline &) = delete;

    std::uint64_t id() const { return id_; }
    const std::string &name() const { return name_; }
    RecordQueue &queue() { return q; }
    const StreamLimits &streamLimits() const { return limits; }

    /** Spawn the simulation thread (Admitted -> Running). */
    void start() CCM_EXCLUDES(mu);

    /** Wait for the simulation thread to finish. */
    void join();

    /** True once the simulation thread has produced the final state. */
    bool finished() const CCM_EXCLUDES(mu);

    StreamState state() const CCM_EXCLUDES(mu);

    /** Failure reason; Ok unless state() == Failed. */
    Status status() const CCM_EXCLUDES(mu);

    /**
     * Record the first failure (disconnect, defect budget, reap).
     * Ignored once the stream already reached a final state; call
     * before closing/aborting the queue so the simulation thread's
     * final state sees it.
     */
    void failWith(const Status &why) CCM_EXCLUDES(mu);

    /** Reader-side: publish the connection's frame counters. */
    void setFrameStats(const FrameStats &fs) CCM_EXCLUDES(mu);

    /** Touch the activity clock (reader bytes / simulation pops). */
    void noteActivity();

    /** Milliseconds since the last activity touch. */
    std::int64_t idleMillis() const;

    /**
     * The stream's entry in the kind:"serve" stats document —
     * live counters while Running, full sim/mem/heatmap sections once
     * Done, the error string once Failed (docs/SERVING.md).
     */
    obs::JsonValue reportJson() const CCM_EXCLUDES(mu);

    /** Final output; valid only once state() == Done (tests). */
    const RunOutput &output() const CCM_EXCLUDES(mu);

    /**
     * SpanTracer::nowMicros() at admission — the daemon records one
     * span per stream, from here to retirement.
     */
    std::uint64_t spanBeginMicros() const { return spanBeginUs_; }

  private:
    void runBody() CCM_EXCLUDES(mu);

    /** Sim-thread side: push a mid-run snapshot into the live cell. */
    void refreshSnapshot(const MemStats &st);

    const std::uint64_t id_;
    const std::string name_;
    const SystemConfig system;
    const StreamLimits limits;
    const std::uint64_t generation;
    const std::uint64_t spanBeginUs_;

    RecordQueue q;
    std::thread simThread;

    /** Sim-thread-private observability (never touched elsewhere). */
    std::unique_ptr<obs::IntervalSampler> sampler;
    Count refsSinceSnap = 0;

    std::atomic<std::int64_t> lastActivityMs{0};

    /** Mid-run counters, published at the snapshot cadence. */
    obs::LiveStatsCell live;

    mutable Mutex mu{LockRank::ServeStream, "serve-stream"};
    StreamState state_ CCM_GUARDED_BY(mu) = StreamState::Admitted;
    Status failStatus CCM_GUARDED_BY(mu);
    FrameStats frames CCM_GUARDED_BY(mu);
    bool finished_ CCM_GUARDED_BY(mu) = false;
    /** Valid once Done. */
    RunOutput out CCM_GUARDED_BY(mu);
};

} // namespace ccm::serve

#endif // CCM_SERVE_STREAM_HH

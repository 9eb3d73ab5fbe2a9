/**
 * @file
 * Per-layer measurement: span summaries (with self time), the layer
 * isolation probes every traced run ends with, and the derivation of
 * every per-layer metric.
 */

#include <filesystem>
#include <thread>

#include "bench.hh"
#include "mct/classify_run.hh"
#include "obs/json.hh"
#include "obs/sink.hh"
#include "sample/mrc.hh"
#include "serve/daemon.hh"
#include "serve/frame.hh"
#include "serve/queue.hh"
#include "sim/experiment.hh"
#include "sim/sharded.hh"
#include "trace/file_trace.hh"
#include "trace/mmap_trace.hh"
#include "trace/vector_trace.hh"

namespace perfbench
{

using namespace ccm;

Expected<SpanSummary>
summarizeSpans(const obs::SpanTracer &tracer)
{
    auto doc = obs::JsonValue::parse(tracer.traceJson());
    if (!doc.ok())
        return doc.status();
    struct Span
    {
        std::string name;
        std::uint64_t ts, dur;
    };
    std::map<std::int64_t, std::vector<Span>> byThread;
    for (const obs::JsonValue &e :
         doc.value().at("traceEvents").elements())
        byThread[e.at("tid").asI64()].push_back(
            {e.at("name").asString(), e.at("ts").asU64(),
             e.at("dur").asU64()});

    SpanSummary out;
    for (auto &[tid, spans] : byThread) {
        (void)tid;
        // Parents start no later and last longer than their children.
        std::sort(spans.begin(), spans.end(),
                  [](const Span &a, const Span &b) {
                      return a.ts != b.ts ? a.ts < b.ts : a.dur > b.dur;
                  });
        std::vector<double> childCover(spans.size(), 0.0);
        std::vector<std::size_t> open;
        for (std::size_t i = 0; i < spans.size(); ++i) {
            while (!open.empty() &&
                   spans[open.back()].ts + spans[open.back()].dur <=
                       spans[i].ts)
                open.pop_back();
            if (!open.empty())
                childCover[open.back()] += double(spans[i].dur);
            open.push_back(i);
        }
        for (std::size_t i = 0; i < spans.size(); ++i) {
            SpanStats &st = out[spans[i].name];
            ++st.count;
            st.totalSeconds += double(spans[i].dur) / 1e6;
            st.selfSeconds +=
                std::max(0.0, double(spans[i].dur) - childCover[i]) / 1e6;
            st.durationsMs.push_back(double(spans[i].dur) / 1e3);
        }
    }
    return out;
}

namespace
{

/** Run @p fn under a span named @p name. */
template <typename Fn>
void
timed(obs::SpanTracer &tracer, const std::string &name, Fn &&fn)
{
    obs::ScopedSpan span(tracer, name, "probe");
    fn();
}

constexpr int kRepeats = 3;

void
probeTrace(const std::vector<MemRecord> &records, const Options &opts,
           obs::SpanTracer &tracer, WorkCounts &work, Tally &tally)
{
    const std::string dir = opts.workDir + "/probe";
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    for (TraceEncoding enc :
         {TraceEncoding::Packed, TraceEncoding::Delta}) {
        const std::string path = dir + "/slice." + toString(enc);
        ++tally.attempted;
        Status ws = Status::ok();
        timed(tracer, "probe.trace.encode", [&] {
            auto w = TraceFileWriter::create(path, enc);
            if (!w.ok()) {
                ws = w.status();
                return;
            }
            for (const MemRecord &r : records)
                if (ws.isOk())
                    ws = w.value()->writeChecked(r);
            if (ws.isOk())
                ws = w.value()->close();
        });
        if (!ws.isOk()) {
            tally.fail("probe encode " + path + ": " + ws.toString());
            continue;
        }
        const std::string decode =
            std::string("probe.trace.decode.") + toString(enc);
        for (int r = 0; r < kRepeats; ++r) {
            std::unique_ptr<TraceSource> src;
            timed(tracer, "probe.trace.open", [&] {
                auto opened = openTraceMappedOrFile(path);
                if (opened.ok())
                    src = std::move(opened.value());
                else
                    ws = opened.status();
            });
            if (!src)
                break;
            // Decode-only pass: into one reused batch buffer.
            std::size_t got = 0;
            timed(tracer, decode, [&] {
                MemRecord buf[1024];
                std::size_t n;
                while ((n = src->nextBatch(buf, 1024)) > 0)
                    got += n;
            });
            work[decode] += double(got);
            if (r == 0) {
                VectorTrace back = VectorTrace::capture(*src);
                bool same = back.size() == records.size();
                for (std::size_t i = 0; same && i < records.size(); ++i)
                    same = back.at(i).pc == records[i].pc &&
                           back.at(i).addr == records[i].addr &&
                           back.at(i).type == records[i].type &&
                           back.at(i).dependsOnPrevLoad ==
                               records[i].dependsOnPrevLoad;
                if (!same)
                    ws = Status::corruptTrace(path,
                                              " does not decode to the "
                                              "records written");
            }
        }
        if (!ws.isOk())
            tally.fail("probe decode: " + ws.toString());
        std::filesystem::remove(path, ec);
    }
}

void
probeClassify(const std::vector<MemRecord> &records, const Options &opts,
              obs::SpanTracer &tracer, WorkCounts &work, Tally &tally)
{
    ShardedClassifyConfig one; // the paper's 16KB direct-mapped
    ShardedClassifyConfig many;
    many.shards = opts.shards;
    ++tally.attempted;
    bool same = true;
    ShardedClassifyResult a, b;
    for (int r = 0; r < kRepeats; ++r) {
        timed(tracer, "probe.sim.sharded", [&] {
            a = runShardedClassify(records.data(), records.size(), one);
        });
        timed(tracer, "probe.sim.sharded_kn", [&] {
            b = runShardedClassify(records.data(), records.size(), many);
        });
        same = same && obs::memStatsToJson(a.mem).toString() ==
                           obs::memStatsToJson(b.mem).toString();
        work["probe.sim.sharded"] += double(records.size());
        work["probe.sim.sharded_kn"] += double(records.size());
    }
    if (!same)
        tally.fail("probe: sharded classify at K=" +
                   std::to_string(opts.shards) + " differs from K=1");

    ClassifyConfig ccfg; // same geometry as the sharded runs
    RecordSpanTrace src("probe", records);
    ClassifyResult oracle;
    timed(tracer, "probe.mct.oracle",
          [&] { oracle = classifyRun(src, ccfg); });
    work["probe.mct.oracle"] += double(records.size());
    // Second path: the sharded conflict/capacity split equals the
    // oracle run's MCT verdicts at the same geometry.
    const AccuracyScorer &sc = oracle.scorer;
    const Count conflicts =
        sc.conflictAsConflict() + sc.capacityAsConflict();
    const Count capacities =
        sc.conflictAsCapacity() + sc.capacityAsCapacity();
    ++tally.attempted;
    if (a.mem.conflictMisses != conflicts ||
        a.mem.capacityMisses != capacities)
        tally.fail("probe: sharded conflict/capacity " +
                   std::to_string(a.mem.conflictMisses) + "/" +
                   std::to_string(a.mem.capacityMisses) +
                   " != oracle run's MCT verdicts " +
                   std::to_string(conflicts) + "/" +
                   std::to_string(capacities));

    sample::MrcConfig mcfg;
    mcfg.rate = 0.01;
    timed(tracer, "probe.sample.mrc", [&] {
        (void)sample::buildMrc(records.data(), records.size(), mcfg);
    });
}

/**
 * Timing on the baseline config, then a MemorySystem-only replay of
 * the access stream that run made.  The core issues memory records in
 * program order (no wrong-path loads in the baseline), so the k-th
 * access is the k-th memory record; the access hook supplies each
 * access's outcome.  Issue cycles are not visible through the hook,
 * so the replay spreads the accesses evenly over the run's simulated
 * cycles; hits and misses of the direct-mapped L1 do not depend on
 * timing, and the replay must reproduce them exactly.
 */
void
probeTiming(const std::vector<MemRecord> &records,
            obs::SpanTracer &tracer, WorkCounts &work, Tally &tally)
{
    const SystemConfig cfg = baselineConfig();
    RecordSpanTrace src("probe", records);
    RunOutput plain;
    timed(tracer, "probe.sim.timing",
          [&] { plain = runTiming(src, cfg); });
    work["probe.sim.timing"] += double(records.size());
    work["probe.sim.timing.cycles"] += double(plain.sim.cycles);
    work["probe.cycles"] += double(plain.sim.cycles);
    work["probe.accesses"] += double(plain.mem.accesses);
    work["probe.l1_misses"] += double(plain.mem.l1Misses);

    std::vector<bool> hits;
    hits.reserve(plain.mem.accesses);
    RunOutput captured = runTiming(src, cfg, [&](MemorySystem &mem) {
        mem.setAccessHook([&](const AccessResult &r, const MemStats &) {
            hits.push_back(r.l1Hit);
        });
    });
    ++tally.attempted;
    if (captured.mem.l1Misses != plain.mem.l1Misses ||
        hits.size() != plain.mem.accesses) {
        tally.fail("probe: access capture changed the timing run");
        return;
    }

    std::vector<const MemRecord *> mem_records;
    mem_records.reserve(hits.size());
    for (const MemRecord &r : records)
        if (r.isMem())
            mem_records.push_back(&r);
    if (mem_records.size() != hits.size()) {
        tally.fail("probe: access stream is not the memory records");
        return;
    }
    MemorySystem replay(cfg.mem);
    std::size_t mismatches = 0;
    const double per_access =
        double(plain.sim.cycles) / double(std::max<std::size_t>(1, hits.size()));
    timed(tracer, "probe.hierarchy.replay", [&] {
        for (std::size_t k = 0; k < mem_records.size(); ++k) {
            const MemRecord &r = *mem_records[k];
            AccessResult a =
                replay.access(r.pcAddr(), r.dataAddr(), r.isStore(),
                              static_cast<Cycle>(double(k) * per_access));
            mismatches += a.l1Hit != hits[k];
        }
    });
    // Per trace record of the slice, as sim.timing counts, so the two
    // rates compare.
    work["probe.hierarchy.replay"] += double(records.size());
    if (mismatches != 0)
        tally.fail("probe: MemorySystem replay disagrees on " +
                   std::to_string(mismatches) + " L1 outcomes");
}

void
probeServeLayers(const std::vector<MemRecord> &records,
                 obs::SpanTracer &tracer, WorkCounts &work, Tally &tally)
{
    std::vector<std::uint8_t> wire;
    serve::appendHelloFrame(wire, "probe");
    serve::appendRecordsFrames(wire, records.data(), records.size());
    serve::appendEndFrame(wire);

    struct CountingSink final : serve::FrameSink
    {
        std::size_t records = 0;
        void onHello(std::uint32_t, const std::string &) override {}
        void
        onRecords(const MemRecord *, std::size_t n) override
        {
            records += n;
        }
        void onEnd() override {}
    };
    ++tally.attempted;
    bool ok = true;
    for (int r = 0; r < kRepeats; ++r) {
        CountingSink sink;
        serve::FrameParser parser;
        timed(tracer, "probe.serve.frame_parse", [&] {
            // Socket-read-sized chunks, as the daemon's reader sees them.
            constexpr std::size_t chunk = 64 * 1024;
            for (std::size_t at = 0; at < wire.size(); at += chunk)
                parser.feed(wire.data() + at,
                            std::min(chunk, wire.size() - at), sink);
            parser.finish(sink);
        });
        ok = ok && sink.records == records.size() &&
             parser.stats().clean() && parser.sawEnd();
        work["probe.serve.frame_parse"] += double(records.size());

        serve::RecordQueue q(8192, serve::OverflowPolicy::Block);
        std::size_t popped = 0;
        timed(tracer, "probe.serve.queue", [&] {
            std::thread producer([&] {
                for (std::size_t at = 0; at < records.size();
                     at += serve::kMaxRecordsPerFrame)
                    q.push(records.data() + at,
                           std::min(serve::kMaxRecordsPerFrame,
                                    records.size() - at));
                q.closeInput();
            });
            MemRecord buf[serve::kMaxRecordsPerFrame];
            std::size_t n;
            while ((n = q.pop(buf, serve::kMaxRecordsPerFrame)) != 0)
                popped += n;
            producer.join();
        });
        ok = ok && popped == records.size();
        work["probe.serve.queue"] += double(records.size());
    }
    if (!ok)
        tally.fail("probe: frame parser or record queue lost records");
}

} // namespace

ServeSessionResult
runLayerProbes(const std::vector<MemRecord> &records, const Options &opts,
               obs::SpanTracer &tracer, WorkCounts &work, Tally &tally)
{
    probeTrace(records, opts, tracer, work, tally);
    probeClassify(records, opts, tracer, work, tally);
    probeTiming(records, tracer, work, tally);
    probeServeLayers(records, tracer, work, tally);
    // Each serve stream carries the start of the probe records.
    const std::size_t n =
        std::min(records.size(), opts.sizes().streamRecords);
    return runServeProbe({records.begin(),
                          records.begin() + static_cast<std::ptrdiff_t>(n)},
                         opts, tracer, tally);
}

namespace
{

/** The workload's own span when it has one, else the probe's. */
const SpanStats *
pick(const SpanSummary &spans, const std::string &layer,
     std::string *chosen = nullptr)
{
    for (const std::string &n : {layer, "probe." + layer}) {
        auto it = spans.find(n);
        if (it != spans.end() && it->second.count > 0) {
            if (chosen)
                *chosen = n;
            return &it->second;
        }
    }
    return nullptr;
}

double
total(const SpanSummary &spans, const std::string &name)
{
    auto it = spans.find(name);
    return it == spans.end() ? 0.0 : it->second.totalSeconds;
}

double
workOf(const WorkCounts &work, const std::string &name)
{
    auto it = work.find(name);
    return it == work.end() ? 0.0 : it->second;
}

/** Million records per second through @p layer. */
double
rate(const SpanSummary &spans, const WorkCounts &work,
     const std::string &layer)
{
    std::string n;
    const SpanStats *s = pick(spans, layer, &n);
    if (!s || s->totalSeconds <= 0.0)
        return 0.0;
    return workOf(work, n) / s->totalSeconds / 1e6;
}

double
medianMs(const SpanSummary &spans, const std::string &layer)
{
    const SpanStats *s = pick(spans, layer);
    return s ? percentile(s->durationsMs, 0.5) : 0.0;
}

} // namespace

void
layerMetrics(const SpanSummary &spans, const WorkCounts &work,
             const ServeSessionResult &serve, MetricSet &out)
{
    out.set("trace.open_ms", medianMs(spans, "trace.open"), "ms");
    out.set("trace.decode_packed_mrec_s",
            rate(spans, work, "trace.decode.packed"), "Mrec/s");
    out.set("trace.decode_delta_mrec_s",
            rate(spans, work, "trace.decode.delta"), "Mrec/s");
    const double jobs = total(spans, "job");
    out.set("trace.job_share",
            jobs > 0.0 ? (total(spans, "trace.open") +
                          total(spans, "trace.decode.packed") +
                          total(spans, "trace.decode.delta")) /
                             jobs
                       : 0.0,
            "ratio");

    out.set("sim.sharded_mrec_s", rate(spans, work, "sim.sharded"),
            "Mrec/s");
    const double kn = total(spans, "probe.sim.sharded_kn");
    out.set("sim.sharded_speedup",
            kn > 0.0 ? total(spans, "probe.sim.sharded") / kn : 0.0,
            "ratio");
    out.set("mct.oracle_mrec_s", rate(spans, work, "mct.oracle"),
            "Mrec/s");
    out.set("sample.mrc_ms", medianMs(spans, "sample.mrc"), "ms");

    out.set("sim.timing_mrec_s", rate(spans, work, "sim.timing"),
            "Mrec/s");
    out.set("hierarchy.memsys_mrec_s",
            rate(spans, work, "hierarchy.replay"), "Mrec/s");
    const double probe_timing = total(spans, "probe.sim.timing");
    out.set("cpu.core_share",
            probe_timing > 0.0
                ? 1.0 - total(spans, "probe.hierarchy.replay") /
                            probe_timing
                : 0.0,
            "ratio");
    std::string timing_span;
    const SpanStats *ts = pick(spans, "sim.timing", &timing_span);
    const double cycles = workOf(work, timing_span + ".cycles");
    out.set("cpu.host_ns_per_sim_cycle",
            ts && cycles > 0.0 ? ts->totalSeconds * 1e9 / cycles : 0.0,
            "ns/cycle");
    // Exact counts: a full pass of the workload's jobs when it runs
    // the timing model, else the probe's timing run.
    const bool pass = work.count("pass.cycles") != 0;
    const std::string from = pass ? "pass." : "probe.";
    out.set("cpu.cycles", workOf(work, from + "cycles"), "count");
    out.set("hierarchy.accesses", workOf(work, from + "accesses"),
            "count");
    out.set("hierarchy.l1_misses", workOf(work, from + "l1_misses"),
            "count");

    out.set("serve.frame_parse_mrec_s",
            rate(spans, work, "serve.frame_parse"), "Mrec/s");
    out.set("serve.queue_mrec_s", rate(spans, work, "serve.queue"),
            "Mrec/s");
    out.set("serve.service_ms", serve.serviceMs, "ms");
    out.set("serve.wait_ms", percentile(serve.waitMs, 0.5), "ms");
    out.set("serve.accept_ratio",
            serve.recordsSent > 0
                ? double(serve.recordsAccepted) / double(serve.recordsSent)
                : 0.0,
            "ratio");
    out.set("serve.refused", double(serve.refused), "count");
    out.set("serve.gen_late_p90_ms", percentile(serve.lateMs, 0.9), "ms");
    out.set("serve.drain_ms", serve.drainMs, "ms");

    out.set("workloads.gen_s", total(spans, "workloads.gen"), "s");
    const SpanStats *enc = pick(spans, "trace.encode");
    out.set("trace.encode_s", enc ? enc->totalSeconds : 0.0, "s");
}

} // namespace perfbench

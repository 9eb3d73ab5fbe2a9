/**
 * @file
 * The open-loop serve session the traced runs probe the serve layers
 * with: a single-process generator sends streams to an in-process
 * ServeDaemon on a seeded arrival schedule and times each stream from
 * its due time to its retirement.
 *
 * Retirement is read from the daemon's public interface: it records
 * one "stream:<name>" span on the global SpanTracer when a stream
 * retires, so the benchmark enables that tracer and reads the span
 * ends back.  The clock therefore stops at the last retirement, never
 * at drainAndStop(), whose poll tick is reported on its own as drain
 * time.
 */

#include <algorithm>
#include <atomic>
#include <random>
#include <thread>

#include "bench.hh"
#include "obs/json.hh"
#include "obs/sink.hh"
#include "serve/client.hh"
#include "serve/daemon.hh"
#include "serve/frame.hh"
#include "sim/experiment.hh"
#include "trace/vector_trace.hh"

namespace perfbench
{

using namespace ccm;

namespace
{

const std::string kTag = "probe";

/** Start an in-process daemon on <workDir>/probe.sock. */
Expected<std::unique_ptr<serve::ServeDaemon>>
startDaemon(const Options &opts)
{
    obs::SpanTracer &global = obs::SpanTracer::global();
    if (!global.enabled()) {
        Status s = global.enableToFile(opts.workDir + "/daemon_spans.json");
        if (!s.isOk())
            return s;
    }
    serve::ServeOptions so;
    // Relative to the working directory: unix socket paths are short.
    so.socketPath = opts.workDir + "/" + kTag + ".sock";
    so.maxStreams = kServeStreams + 8;
    so.finishedReports = kServeStreams + 8;
    auto daemon = std::make_unique<serve::ServeDaemon>(so);
    Status s = daemon->start();
    if (!s.isOk())
        return s;
    return daemon;
}

/** Retirement time (global-tracer micros) per "stream:<name>" span. */
std::map<std::string, std::uint64_t>
retirements(const std::string &prefix)
{
    std::map<std::string, std::uint64_t> out;
    auto doc = obs::JsonValue::parse(obs::SpanTracer::global().traceJson());
    if (!doc.ok())
        return out;
    for (const obs::JsonValue &e : doc.value().at("traceEvents").elements()) {
        const std::string &name = e.at("name").asString();
        if (name.rfind(prefix, 0) == 0)
            out[name.substr(prefix.size())] =
                e.at("ts").asU64() + e.at("dur").asU64();
    }
    return out;
}

} // namespace

ServeSessionResult
runServeProbe(const std::vector<MemRecord> &payload, const Options &opts,
              obs::SpanTracer &tracer, Tally &tally)
{
    ServeSessionResult res;
    auto started = startDaemon(opts);
    if (!started.ok()) {
        ++tally.attempted;
        tally.fail("probe daemon: " + started.status().toString());
        return res;
    }
    serve::ServeDaemon &daemon = *started.value();
    obs::SpanTracer &global = obs::SpanTracer::global();
    const std::size_t n = kServeStreams;

    // Open-loop schedule: n arrivals uniform over the span (a Poisson
    // process conditioned on its count), so the offered rate is exact
    // for every seed.
    std::mt19937_64 rng(opts.seed * 0x9E3779B97F4A7C15ull + 7);
    std::uniform_real_distribution<double> at(
        0.0, double(kServeStreams) / kServeStreamsPerSecond);
    std::vector<double> offsets(n);
    for (double &o : offsets)
        o = at(rng);
    std::sort(offsets.begin(), offsets.end());

    // The generator sends pre-encoded frames, so its own framing work
    // stays out of the latency it measures.
    std::vector<std::uint8_t> wire;
    serve::appendRecordsFrames(wire, payload.data(), payload.size());
    serve::appendEndFrame(wire);

    auto streamName = [&](std::size_t i) {
        return kTag + "-" + std::to_string(i);
    };
    const std::size_t spans_before = global.size();
    const std::uint64_t t0 = global.nowMicros() + 20'000;
    std::vector<std::uint64_t> due(n);
    for (std::size_t i = 0; i < n; ++i)
        due[i] = t0 + static_cast<std::uint64_t>(offsets[i] * 1e6);

    std::vector<double> late(n, 0.0);
    std::vector<std::string> sendError(n);
    std::atomic<std::size_t> next{0};
    auto sender = [&] {
        for (;;) {
            const std::size_t i = next.fetch_add(1);
            if (i >= n)
                return;
            const std::uint64_t now = global.nowMicros();
            if (now < due[i])
                std::this_thread::sleep_for(
                    std::chrono::microseconds(due[i] - now));
            late[i] = double(global.nowMicros() - due[i]) / 1e3;
            auto client = [&] {
                obs::ScopedSpan span(tracer, "serve.connect", "serve");
                return serve::ServeClient::connect(
                    daemon.options().socketPath, streamName(i));
            }();
            if (!client.ok()) {
                sendError[i] = client.status().toString();
                continue;
            }
            obs::ScopedSpan span(tracer, "serve.send", "serve");
            Status s =
                client.value().sendRawBytes(wire.data(), wire.size());
            if (!s.isOk())
                sendError[i] = s.toString();
        }
    };
    {
        std::vector<std::thread> senders;
        // At most nproc/2 concurrent connections.
        for (unsigned k = 0; k < std::max(1u, opts.nproc / 2); ++k)
            senders.emplace_back(sender);
        for (std::thread &t : senders)
            t.join();
    }

    std::size_t sent = 0;
    for (std::size_t i = 0; i < n; ++i) {
        if (sendError[i].empty()) {
            ++sent;
            res.recordsSent += payload.size();
        }
    }
    // Every sent stream retires with one daemon span; give stragglers
    // a bounded wait, then count what is missing as failed.
    const auto wait_start = Clock::now();
    while (global.size() - spans_before < sent &&
           secondsSince(wait_start) < 60.0)
        std::this_thread::sleep_for(std::chrono::microseconds(200));
    const auto retired = retirements("stream:" + kTag + "-");

    {
        const auto t = Clock::now();
        daemon.drainAndStop();
        res.drainMs = secondsSince(t) * 1e3;
    }

    // Check every retired stream's report against batch runTiming of
    // the payload (after the window): byte-identical JSON.
    const obs::JsonValue doc = daemon.statsDocument();
    res.recordsAccepted = doc.at("daemon").at("records_total").asU64();
    res.refused = doc.at("daemon").at("streams_refused").asU64();
    std::map<std::string, const obs::JsonValue *> reports;
    for (const obs::JsonValue &r : doc.at("streams").elements())
        reports[r.at("name").asString()] = &r;

    RecordSpanTrace src("payload", payload);
    const auto t = Clock::now();
    const RunOutput ref = runTiming(src, daemon.options().runtime.system);
    res.serviceMs = secondsSince(t) * 1e3;
    const std::string ref_sim = obs::simResultToJson(ref.sim).toString();
    const std::string ref_mem = obs::memStatsToJson(ref.mem).toString();
    const std::string ref_heat =
        obs::setHistogramsToJson(ref.heat).toString();

    for (std::size_t i = 0; i < n; ++i) {
        ++tally.attempted;
        const std::string name = streamName(i);
        if (!sendError[i].empty()) {
            tally.fail("stream " + name + ": " + sendError[i]);
            continue;
        }
        auto ret = retired.find(std::to_string(i));
        auto rep = reports.find(name);
        if (ret == retired.end() || rep == reports.end()) {
            tally.fail("stream " + name + " never retired");
            continue;
        }
        const obs::JsonValue &r = *rep->second;
        if (r.at("state").asString() != "done") {
            tally.fail("stream " + name + " " +
                       r.at("state").asString() + ": " +
                       r.at("error").asString());
            continue;
        }
        if (r.at("sim").toString() != ref_sim ||
            r.at("mem").toString() != ref_mem ||
            r.at("heatmap").toString() != ref_heat) {
            tally.fail("stream " + name +
                       ": report differs from batch runTiming");
            continue;
        }
        const double latency = double(ret->second - due[i]) / 1e3;
        res.latencyMs.push_back(latency);
        res.waitMs.push_back(latency - res.serviceMs);
        res.lateMs.push_back(late[i]);
    }
    return res;
}

} // namespace perfbench

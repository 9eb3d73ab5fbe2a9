/**
 * @file
 * The two closed-loop workloads.  Each one is chosen so that one
 * layer the roadmap plans to optimise does most of its work:
 *
 *  - classify-files: trace decode (packed and delta) from page-cache
 *    files, then sharded classify and a sampled MRC — the per-file
 *    work of `ccm-sim --classify --sample-rate`;
 *  - timing-sweep: runTiming (cpu/ + hierarchy/) over the §5 timing
 *    suite × the §5 configurations, traces held in memory.
 */

#include <cstdio>
#include <filesystem>

#include "bench.hh"
#include "obs/sink.hh"
#include "sample/mrc.hh"
#include "sim/experiment.hh"
#include "sim/sharded.hh"
#include "trace/file_trace.hh"
#include "trace/mmap_trace.hh"
#include "trace/vector_trace.hh"
#include "workloads/registry.hh"

namespace perfbench
{

namespace
{

using namespace ccm;

/** Generate workload @p name under a "workloads.gen" span. */
Expected<std::vector<MemRecord>>
generateRecords(const std::string &name, std::size_t refs,
                std::uint64_t seed, obs::SpanTracer &tracer)
{
    obs::ScopedSpan span(tracer, "workloads.gen", "setup");
    auto src = makeWorkloadChecked(name, refs, seed);
    if (!src.ok())
        return src.status();
    VectorTrace captured = VectorTrace::capture(*src.value());
    return captured.records();
}

/** The §5 timing suite (twelve codes). */
const std::vector<std::string> &
timingSuite()
{
    // The paper keeps the codes with "at least a somewhat interesting
    // mix of conflict and capacity behavior".
    static const std::vector<std::string> names = {
        "tomcatv", "swim", "mgrid", "applu", "turb3d", "wave5",
        "go", "gcc", "compress", "li", "perl", "vortex",
    };
    return names;
}

std::vector<MemRecord>
slice(const std::vector<MemRecord> &recs, std::size_t n)
{
    return {recs.begin(),
            recs.begin() + static_cast<std::ptrdiff_t>(
                               std::min(n, recs.size()))};
}

std::string
classifyDigest(const ShardedClassifyResult &res)
{
    return digestOf(obs::memStatsToJson(res.mem).toString() +
                    obs::setHistogramsToJson(res.heat).toString());
}

std::string
mrcDigest(const sample::MrcResult &mrc)
{
    std::string s;
    char buf[96];
    for (const sample::MrcPoint &p : mrc.points) {
        std::snprintf(buf, sizeof buf, "%zu:%llu:%.17g;",
                      p.capacityBytes,
                      static_cast<unsigned long long>(p.sampledMisses),
                      p.missRatio);
        s += buf;
    }
    return digestOf(s);
}

// ---- classify-files ---------------------------------------------------

/**
 * One job per on-disk trace file; every workload is written in both
 * encodings, so the packed and delta files of one workload must give
 * identical results.
 */
class ClassifyFiles final : public BatchWorkload
{
  public:
    explicit ClassifyFiles(const Options &o) : opts(o) {}

    ~ClassifyFiles() override
    {
        std::error_code ec;
        std::filesystem::remove_all(dir(), ec);
    }

    Status
    setup(obs::SpanTracer &tracer) override
    {
        std::error_code ec;
        std::filesystem::create_directories(dir(), ec);
        if (ec)
            return Status::ioError("cannot create ", dir(), ": ",
                                   ec.message());
        files.clear();
        for (const std::string &name : names()) {
            auto recs = generateRecords(name, opts.sizes().filesRefs,
                                 opts.seed, tracer);
            if (!recs.ok())
                return recs.status();
            if (probe.empty())
                probe = slice(recs.value(), opts.sizes().probeRecords);
            for (TraceEncoding enc :
                 {TraceEncoding::Packed, TraceEncoding::Delta}) {
                obs::ScopedSpan span(tracer, "trace.encode", "setup");
                const std::string path =
                    dir() + "/" + name + "." + toString(enc);
                auto w = TraceFileWriter::create(path, enc);
                if (!w.ok())
                    return w.status();
                for (const MemRecord &r : recs.value()) {
                    Status s = w.value()->writeChecked(r);
                    if (!s.isOk())
                        return s;
                }
                Status s = w.value()->close();
                if (!s.isOk())
                    return s;
                files.push_back({name, enc, path, recs.value().size()});
            }
        }
        firstDigest.assign(files.size(), "");
        return Status::ok();
    }

    std::size_t jobCount() const override { return files.size(); }

    std::string
    jobName(std::size_t i) const override
    {
        return files[i].workload + "." + toString(files[i].enc);
    }

    std::size_t
    jobRecords(std::size_t i) const override
    {
        return files[i].records;
    }

    Expected<std::string>
    runJob(std::size_t i, obs::SpanTracer &tracer,
           WorkCounts &work) override
    {
        const File &f = files[i];
        const std::string decode_span =
            std::string("trace.decode.") + toString(f.enc);
        std::unique_ptr<TraceSource> src;
        {
            obs::ScopedSpan span(tracer, "trace.open", "trace");
            auto opened = openTraceMappedOrFile(f.path);
            if (!opened.ok())
                return opened.status();
            src = std::move(opened.value());
        }
        VectorTrace recs;
        {
            obs::ScopedSpan span(tracer, decode_span, "trace");
            recs = VectorTrace::capture(*src);
        }
        if (recs.size() != f.records)
            return Status::corruptTrace(jobName(i), ": decoded ",
                                        recs.size(), " records, wrote ",
                                        f.records);
        ShardedClassifyConfig cfg; // the paper's 16KB direct-mapped
        ShardedClassifyResult res;
        {
            obs::ScopedSpan span(tracer, "sim.sharded", "sim");
            res = runShardedClassify(recs.records().data(), recs.size(),
                                     cfg);
        }
        sample::MrcConfig mcfg;
        mcfg.rate = 0.01;
        auto mrc = [&] {
            obs::ScopedSpan span(tracer, "sample.mrc", "sample");
            return sample::buildMrc(recs.records().data(), recs.size(),
                                    mcfg);
        }();
        if (!mrc.ok())
            return mrc.status();
        if (tracer.enabled()) {
            work[decode_span] += double(f.records);
            work["sim.sharded"] += double(f.records);
        }
        std::string d = digestOf(classifyDigest(res) +
                                 mrcDigest(mrc.value()));
        if (firstDigest[i].empty())
            firstDigest[i] = d;
        return d;
    }

    void
    crossCheck(Tally &tally) override
    {
        for (std::size_t i = 0; i + 1 < files.size(); i += 2) {
            if (firstDigest[i] != firstDigest[i + 1])
                tally.fail(jobName(i) + " and " + jobName(i + 1) +
                           " disagree (" + firstDigest[i] + " vs " +
                           firstDigest[i + 1] + ")");
        }
    }

    const std::vector<MemRecord> &
    probeRecords() const override
    {
        return probe;
    }

    std::string
    provenance() const override
    {
        return "\"files\": " + std::to_string(files.size()) +
               ", \"encodings\": [\"packed\", \"delta\"]";
    }

  private:
    struct File
    {
        std::string workload;
        TraceEncoding enc;
        std::string path;
        std::size_t records;
    };

    static const std::vector<std::string> &
    names()
    {
        // Integer and floating-point codes with different footprints
        // and delta-compressibility.
        static const std::vector<std::string> n = {
            "gcc", "compress", "li", "vortex",
            "tomcatv", "swim", "hydro2d", "wave5"};
        return n;
    }

    std::string dir() const { return opts.workDir + "/files"; }

    const Options &opts;
    std::vector<File> files;
    std::vector<std::string> firstDigest;
    std::vector<MemRecord> probe;
};

// ---- timing-sweep -----------------------------------------------------

/** The §5 configurations: baseline and one per MCT use. */
const std::vector<std::pair<std::string, SystemConfig>> &
timingConfigs()
{
    static const std::vector<std::pair<std::string, SystemConfig>> c = {
        {"baseline", baselineConfig()},
        {"victim-filter", victimConfig(true, true)},
        {"prefetch-filter", prefetchConfig(true)},
        {"exclusion", excludeConfig(ExcludeAlgo::Capacity)},
        {"amb", ambConfig(true, true, true)},
    };
    return c;
}

class TimingSweep final : public BatchWorkload
{
  public:
    explicit TimingSweep(const Options &o) : opts(o) {}

    Status
    setup(obs::SpanTracer &tracer) override
    {
        traces.clear();
        for (const std::string &name : timingSuite()) {
            auto recs = generateRecords(name, opts.sizes().timingRefs,
                                 opts.seed, tracer);
            if (!recs.ok())
                return recs.status();
            traces.push_back(std::move(recs.value()));
        }
        probe = slice(traces.front(), opts.sizes().probeRecords);
        first.assign(jobCount(), RunCounts{});
        return Status::ok();
    }

    std::size_t
    jobCount() const override
    {
        return traces.size() * timingConfigs().size();
    }

    std::string
    jobName(std::size_t i) const override
    {
        return timingSuite()[i / timingConfigs().size()] + "." +
               timingConfigs()[i % timingConfigs().size()].first;
    }

    std::size_t
    jobRecords(std::size_t i) const override
    {
        return traces[i / timingConfigs().size()].size();
    }

    Expected<std::string>
    runJob(std::size_t i, obs::SpanTracer &tracer,
           WorkCounts &work) override
    {
        const std::vector<MemRecord> &recs =
            traces[i / timingConfigs().size()];
        const SystemConfig &cfg =
            timingConfigs()[i % timingConfigs().size()].second;
        RecordSpanTrace src(jobName(i), recs);
        auto out = [&] {
            obs::ScopedSpan span(tracer, "sim.timing", "sim");
            return tryRunTiming(src, cfg);
        }();
        if (!out.ok())
            return out.status();
        const RunOutput &r = out.value();
        // Second path: the core's and the memory system's own counts
        // of the same run must agree.
        if (r.mem.accesses != r.sim.memRefs ||
            r.mem.l1Hits + r.mem.l1Misses != r.mem.accesses ||
            r.mem.conflictMisses + r.mem.capacityMisses !=
                r.mem.l1Misses ||
            r.sim.instructions != recs.size())
            return Status::internal(jobName(i),
                                    ": inconsistent counters");
        if (tracer.enabled()) {
            work["sim.timing"] += double(recs.size());
            work["sim.timing.cycles"] += double(r.sim.cycles);
        }
        if (first[i].digest.empty())
            first[i] = {digestOf(obs::simResultToJson(r.sim).toString() +
                                 obs::memStatsToJson(r.mem).toString() +
                                 obs::setHistogramsToJson(r.heat)
                                     .toString()),
                        r.sim.cycles, r.mem.accesses, r.mem.l1Misses};
        return first[i].digest;
    }

    void
    passCounts(WorkCounts &work) const override
    {
        for (const RunCounts &c : first) {
            work["pass.cycles"] += double(c.cycles);
            work["pass.accesses"] += double(c.accesses);
            work["pass.l1_misses"] += double(c.l1Misses);
        }
    }

    const std::vector<MemRecord> &
    probeRecords() const override
    {
        return probe;
    }

    std::string
    provenance() const override
    {
        return "\"traces\": " + std::to_string(traces.size()) +
               ", \"configs\": " +
               std::to_string(timingConfigs().size());
    }

  private:
    struct RunCounts
    {
        std::string digest;
        Count cycles = 0;
        Count accesses = 0;
        Count l1Misses = 0;
    };

    const Options &opts;
    std::vector<std::vector<MemRecord>> traces;
    std::vector<RunCounts> first;
    std::vector<MemRecord> probe;
};

} // namespace

std::unique_ptr<BatchWorkload>
makeBatchWorkload(const std::string &name, const Options &opts)
{
    if (name == "classify-files")
        return std::make_unique<ClassifyFiles>(opts);
    if (name == "timing-sweep")
        return std::make_unique<TimingSweep>(opts);
    return nullptr;
}

} // namespace perfbench

#include "serve/config.hh"

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>

namespace ccm::serve
{

namespace
{

/** Strict unsigned parse: the whole token must be digits. */
Expected<std::uint64_t>
parseU64(const std::string &key, const std::string &value)
{
    if (value.empty())
        return Status::badConfig("key '", key, "' needs a number");
    for (char c : value) {
        if (!std::isdigit(static_cast<unsigned char>(c)))
            return Status::badConfig("key '", key, "': '", value,
                                     "' is not a number");
    }
    errno = 0;
    const std::uint64_t v = std::strtoull(value.c_str(), nullptr, 10);
    if (errno == ERANGE)
        return Status::badConfig("key '", key, "': ", value,
                                 " is out of range");
    return v;
}

/** Store @p v * @p scale in @p field, unless it does not fit. */
template <class T>
Status
store(const std::string &key, std::uint64_t v, T &field,
      std::uint64_t scale = 1)
{
    if (v > std::numeric_limits<T>::max() / scale)
        return Status::badConfig("key '", key, "': ", v,
                                 " is out of range");
    field = static_cast<T>(v * scale);
    return Status::ok();
}

} // namespace

Expected<SystemConfig>
buildArchConfig(const std::string &arch)
{
    if (arch == "baseline")
        return baselineConfig();
    if (arch == "victim")
        return victimConfig(false, false);
    if (arch == "prefetch")
        return prefetchConfig(false);
    if (arch == "exclude")
        return excludeConfig(ExcludeAlgo::Capacity);
    if (arch == "pseudo")
        return pseudoConfig(true);
    if (arch == "pseudo-lru")
        return pseudoConfig(false);
    if (arch == "twoway")
        return twoWayConfig();
    if (arch == "amb")
        return ambConfig(true, true, true);
    return Status::badConfig("unknown arch '", arch, "'");
}

Expected<ServeRuntimeConfig>
parseServeConfig(std::string_view text)
{
    ServeRuntimeConfig cfg;

    // Geometry keys are applied after the arch is known, in file
    // order, so "arch" may appear anywhere without being overridden
    // by defaults.
    std::vector<std::pair<std::string, std::string>> pairs;

    std::size_t line_no = 0;
    std::size_t start = 0;
    while (start <= text.size()) {
        std::size_t end = text.find('\n', start);
        if (end == std::string_view::npos)
            end = text.size();
        std::string line(text.substr(start, end - start));
        start = end + 1;
        ++line_no;

        const std::size_t hash = line.find('#');
        if (hash != std::string::npos)
            line.erase(hash);
        std::istringstream ss(line);
        std::string key, value, extra;
        if (!(ss >> key))
            continue; // blank / comment-only line
        if (!(ss >> value) || (ss >> extra))
            return Status::badConfig("config line ", line_no,
                                     ": expected 'key value', got '",
                                     line, "'");
        pairs.emplace_back(std::move(key), std::move(value));
    }

    for (const auto &[key, value] : pairs) {
        if (key == "arch") {
            auto sys = buildArchConfig(value);
            if (!sys.ok())
                return sys.status();
            cfg.arch = value;
            cfg.system = sys.take();
            continue;
        }
        if (key == "policy") {
            auto p = parseOverflowPolicy(value);
            if (!p.ok())
                return p.status();
            cfg.limits.policy = p.value();
            continue;
        }
        auto n = parseU64(key, value);
        if (!n.ok())
            return n.status();
        const std::uint64_t v = n.value();
        MemSysConfig &mem = cfg.system.mem;
        Status s;
        if (key == "l1-kb") {
            s = store(key, v, mem.l1Bytes, 1024);
        } else if (key == "l1-assoc") {
            s = store(key, v, mem.l1Assoc);
        } else if (key == "l2-kb") {
            s = store(key, v, mem.l2Bytes, 1024);
        } else if (key == "buf-entries") {
            s = store(key, v, mem.bufEntries);
        } else if (key == "mct-bits") {
            s = store(key, v, mem.mctTagBits);
        } else if (key == "queue-records") {
            s = store(key, v, cfg.limits.queueRecords);
        } else if (key == "window-every") {
            s = store(key, v, cfg.limits.windowEvery);
        } else if (key == "window-samples") {
            s = store(key, v, cfg.limits.windowSamples);
        } else if (key == "snapshot-every") {
            s = store(key, v, cfg.limits.snapshotEvery);
        } else if (key == "defect-budget") {
            s = store(key, v, cfg.limits.defectBudget);
        } else {
            return Status::badConfig("unknown config key '", key, "'");
        }
        if (!s.isOk())
            return s;
    }
    // Reject any machine MemorySystem would fatal on at stream start
    // (zero associativity, non-power-of-two sizes, ...).  Catching
    // this at parse time means a broken file never becomes the
    // running configuration: reload() keeps the previous good one.
    Status geom = cfg.system.mem.validate();
    if (!geom.isOk())
        return geom.withContext("invalid geometry");
    return cfg;
}

Expected<ServeRuntimeConfig>
loadServeConfig(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return Status::ioError("cannot open config file ", path);
    std::ostringstream ss;
    ss << in.rdbuf();
    auto cfg = parseServeConfig(ss.str());
    if (!cfg.ok())
        return cfg.status().withContext("config file " + path);
    return cfg;
}

} // namespace ccm::serve

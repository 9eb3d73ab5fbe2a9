#include "serve/config.hh"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "common/parse_num.hh"

namespace ccm::serve
{

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

    // "arch" replaces the whole machine, so it is applied before every
    // other key (the other keys then apply in file order): an arch line
    // may appear anywhere without resetting a geometry key above it.
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

    std::stable_partition(pairs.begin(), pairs.end(),
                          [](const auto &p) { return p.first == "arch"; });
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
            s = storeChecked(key, v, mem.l1Bytes, 1024);
        } else if (key == "l1-assoc") {
            s = storeChecked(key, v, mem.l1Assoc);
        } else if (key == "l2-kb") {
            s = storeChecked(key, v, mem.l2Bytes, 1024);
        } else if (key == "buf-entries") {
            s = storeChecked(key, v, mem.bufEntries);
        } else if (key == "mct-bits") {
            s = storeChecked(key, v, mem.mctTagBits);
        } else if (key == "queue-records") {
            s = storeChecked(key, v, cfg.limits.queueRecords);
        } else if (key == "window-every") {
            s = storeChecked(key, v, cfg.limits.windowEvery);
        } else if (key == "window-samples") {
            s = storeChecked(key, v, cfg.limits.windowSamples);
        } else if (key == "snapshot-every") {
            s = storeChecked(key, v, cfg.limits.snapshotEvery);
        } else if (key == "defect-budget") {
            s = storeChecked(key, v, cfg.limits.defectBudget);
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

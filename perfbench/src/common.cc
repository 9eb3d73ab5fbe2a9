/**
 * @file
 * Small shared pieces: input sizes, metric output, operation
 * accounting, stat digests and process statistics.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>

#include "bench.hh"
#include "obs/json.hh"

namespace perfbench
{

Sizes
fullSizes()
{
    return {
        .filesRefs = 250'000,
        .timingRefs = 150'000,
        .streamRecords = 150'000,
        .probeRecords = 1'000'000,
    };
}

Sizes
tinySizes()
{
    return {
        .filesRefs = 4'000,
        .timingRefs = 3'000,
        .streamRecords = 4'000,
        .probeRecords = 8'000,
    };
}

void
MetricSet::set(const std::string &name, double value,
               const std::string &unit)
{
    items_.push_back({name, {value, unit}});
}

void
Tally::fail(const std::string &why)
{
    ++failed;
    std::cerr << "perfbench: FAILED: " << why << "\n";
}

std::string
digestOf(const std::string &text)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (unsigned char c : text) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

DigestBook::DigestBook(const Options &opts, const std::string &workload)
    : key_(workload + "/" + opts.sizeLabel() + "/seed" +
           std::to_string(opts.seed))
{
}

namespace
{

Expected<obs::JsonValue>
readJsonFile(const std::string &path, bool &exists)
{
    std::ifstream in(path);
    exists = static_cast<bool>(in);
    if (!exists)
        return obs::JsonValue::object();
    std::stringstream ss;
    ss << in.rdbuf();
    return obs::JsonValue::parse(ss.str());
}

} // namespace

Status
DigestBook::load(const std::string &path)
{
    bool exists = false;
    auto doc = readJsonFile(path, exists);
    if (!doc.ok())
        return doc.status().withContext("digest file " + path);
    const obs::JsonValue *entry = doc.value().get(key_);
    haveStored_ = entry != nullptr;
    if (haveStored_)
        for (const auto &[job, d] : entry->members())
            stored_[job] = d.asString();
    return Status::ok();
}

void
DigestBook::check(const std::string &job, const std::string &digest,
                  Tally &tally)
{
    if (seen_.emplace(job, digest).second && haveStored_) {
        auto it = stored_.find(job);
        if (it == stored_.end())
            tally.fail(key_ + " " + job + ": no stored digest");
        else if (it->second != digest)
            tally.fail(key_ + " " + job + ": digest " + digest +
                       " != stored " + it->second);
    }
}

Status
DigestBook::record(const std::string &path) const
{
    bool exists = false;
    auto doc = readJsonFile(path, exists);
    if (!doc.ok())
        return doc.status().withContext("digest file " + path);
    obs::JsonValue entry = obs::JsonValue::object();
    for (const auto &[job, d] : seen_)
        entry.set(job, obs::JsonValue::str(d));
    doc.value().set(key_, std::move(entry));
    std::ofstream out(path);
    doc.value().write(out);
    out << "\n";
    if (!out)
        return Status::ioError("cannot write ", path);
    return Status::ok();
}

double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    // Nearest rank: the smallest value with at least p of the sample
    // at or below it.
    const double rank = std::ceil(p * double(v.size()));
    const std::size_t idx =
        rank < 1.0 ? 0 : std::min(v.size() - 1, std::size_t(rank) - 1);
    return v[idx];
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0; // ru_maxrss is in KB
}

} // namespace perfbench

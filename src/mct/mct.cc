#include "mct/mct.hh"

#include <algorithm>

#include "cache/geometry.hh"
#include "common/bitutil.hh"
#include "common/logging.hh"
#include "mct/classifying_cache.hh"

namespace ccm
{

Status
MissClassificationTable::validate(std::size_t num_sets,
                                  unsigned tag_bits, unsigned depth)
{
    if (num_sets == 0)
        return Status::badConfig("MCT needs at least one set");
    if (depth == 0)
        return Status::badConfig("MCT depth must be >= 1");
    if (tag_bits > 64) {
        return Status::badConfig("MCT tag bits out of range: ",
                                 tag_bits);
    }
    return Status::ok();
}

MissClassificationTable::MissClassificationTable(std::size_t num_sets,
                                                 unsigned tag_bits,
                                                 unsigned depth)
    : tagBits_(tag_bits), depth_(depth),
      tagMask(tag_bits == 0 ? ~Addr{0} : lowMask(tag_bits)),
      entries(num_sets * depth), setLookups_(num_sets, 0),
      setConflicts_(num_sets, 0)
{
    fatalIfError(validate(num_sets, tag_bits, depth));
}

Status
ClassifyConfig::validate() const
{
    Status geom = CacheGeometry::validate(cacheBytes, assoc, lineBytes);
    if (!geom.isOk())
        return geom;
    return MissClassificationTable::validate(
        cacheBytes / (std::size_t{assoc} * lineBytes), mctTagBits,
        mctDepth);
}

void
MissClassificationTable::clear()
{
    for (auto &e : entries)
        e = Entry{};
    std::fill(setLookups_.begin(), setLookups_.end(), 0);
    std::fill(setConflicts_.begin(), setConflicts_.end(), 0);
}

} // namespace ccm

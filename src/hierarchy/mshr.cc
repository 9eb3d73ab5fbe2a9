#include "hierarchy/mshr.hh"

#include <algorithm>

#include "common/logging.hh"

namespace ccm
{

Status
MshrFile::validate(unsigned entries)
{
    if (entries == 0)
        return Status::badConfig("MSHR file needs at least one entry");
    return Status::ok();
}

MshrFile::MshrFile(unsigned entries) : cap(entries)
{
    fatalIfError(validate(entries));
    active.reserve(entries);
}

void
MshrFile::retireDue(Cycle now)
{
    std::erase_if(active,
                  [now](const Entry &e) { return e.ready <= now; });
    minReady = noneReady;
    for (const auto &e : active)
        minReady = std::min(minReady, e.ready);
}

std::optional<Cycle>
MshrFile::inFlight(LineAddr line_addr) const
{
    for (const auto &e : active) {
        if (e.lineAddr == line_addr)
            return e.ready;
    }
    return std::nullopt;
}

void
MshrFile::allocate(LineAddr line_addr, Cycle ready)
{
    if (full())
        ccm_panic("MSHR allocate while full");
    active.push_back({line_addr, ready});
    minReady = std::min(minReady, ready);
}

} // namespace ccm

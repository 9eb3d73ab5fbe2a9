/**
 * @file
 * Miss status holding registers: the non-blocking cache's bookkeeping
 * of in-flight line fetches.  "The caches are non-blocking with up to
 * 16 misses in-flight at once.  When the miss limit is exceeded,
 * further misses stall the pipeline, but prefetches are discarded."
 *
 * Misses to a line already in flight merge into the existing entry.
 */

#ifndef CCM_HIERARCHY_MSHR_HH
#define CCM_HIERARCHY_MSHR_HH

#include <limits>
#include <optional>
#include <vector>

#include "common/addr_types.hh"
#include "common/status.hh"
#include "common/types.hh"

namespace ccm
{

/** The in-flight miss file. */
class MshrFile
{
  public:
    explicit MshrFile(unsigned entries);

    /** Check the parameters the constructor would reject. */
    static Status validate(unsigned entries);

    /**
     * Retire every entry whose fetch completed by @p now.  Returns at
     * once while @p now is below the earliest in-flight completion.
     */
    void
    expire(Cycle now)
    {
        if (now >= minReady)
            retireDue(now);
    }

    /** @return the completion cycle of an in-flight fetch of
     *          @p line_addr, if one exists (a merge opportunity). */
    std::optional<Cycle> inFlight(LineAddr line_addr) const;

    /** @return true when no entry is free (call expire() first). */
    bool full() const { return active.size() >= cap; }

    /** Earliest completion among active entries (0 if none). */
    Cycle earliestReady() const { return active.empty() ? 0 : minReady; }

    /** Track a new in-flight fetch completing at @p ready. */
    void allocate(LineAddr line_addr, Cycle ready);

    std::size_t occupancy() const { return active.size(); }
    unsigned capacity() const { return cap; }

    void
    clear()
    {
        active.clear();
        minReady = noneReady;
    }

  private:
    struct Entry
    {
        LineAddr lineAddr;
        Cycle ready;
    };

    static constexpr Cycle noneReady = std::numeric_limits<Cycle>::max();

    /** Drop the entries due by @p now and recompute minReady. */
    void retireDue(Cycle now);

    unsigned cap;
    std::vector<Entry> active;
    /** Earliest ready among active entries; noneReady when empty. */
    Cycle minReady = noneReady;
};

} // namespace ccm

#endif // CCM_HIERARCHY_MSHR_HH

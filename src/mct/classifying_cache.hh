/**
 * @file
 * The paper's classify step, written once: access the cache; on a
 * miss, classify it with the MCT, fill with the conflict bit, and
 * record the evicted tag in the MCT.
 *
 * Every functional simulation path (classifyRun, the sharded and
 * interval replay engines, page remapping, the shared-cache study)
 * runs its references through ClassifyingCache::access(); the timing
 * memory system, whose misses detour through assist buffers first,
 * uses the fill-and-record half alone.  Counting is delegated to a sink, a
 * template parameter with three calls:
 *
 *   void reference(bool is_store);   // every access
 *   void hit();
 *   void miss(bool conflict);        // after the MCT verdict
 *
 * NoCount compiles to nothing; MemStatsSink (hierarchy/memstats.hh)
 * tallies the classify-path MemStats counters.
 */

#ifndef CCM_MCT_CLASSIFYING_CACHE_HH
#define CCM_MCT_CLASSIFYING_CACHE_HH

#include <cstddef>

#include "cache/cache.hh"
#include "cache/geometry.hh"
#include "common/status.hh"
#include "mct/mct.hh"

namespace ccm
{

/** Geometry of one cache + MCT pair. */
struct ClassifyConfig
{
    std::size_t cacheBytes = 16 * 1024;
    unsigned assoc = 1;
    unsigned lineBytes = 64;
    /** Stored-tag width; 0 = full tag. */
    unsigned mctTagBits = 0;
    /**
     * Evicted tags remembered per set.  1 = the paper's MCT; more
     * implements the Stone/Pomerene shadow directory (§2/§3), which
     * also identifies higher-order conflict misses.
     */
    unsigned mctDepth = 1;

    /** Everything the ClassifyingCache constructor would reject. */
    Status validate() const;
};

/** A sink that counts nothing. */
struct NoCount
{
    void reference(bool) {}
    void hit() {}
    void miss(bool) {}
};

/** What one access did. */
struct StepOutcome
{
    bool hit = false;
    /** MCT verdict of the miss (Capacity on a hit). */
    MissClass cls = MissClass::Capacity;
    /** The fill displaced a valid line, whose tag the MCT now holds. */
    bool evicted = false;

    bool conflict() const { return isConflict(cls); }
};

/** A cache and its MCT, driven one access at a time. */
class ClassifyingCache
{
  public:
    /** Fatal on an invalid @p cfg; check cfg.validate() first. */
    explicit ClassifyingCache(const ClassifyConfig &cfg)
        : cache_(CacheGeometry(cfg.cacheBytes, cfg.assoc, cfg.lineBytes)),
          mct_(geometry().numSets(), cfg.mctTagBits, cfg.mctDepth)
    {
    }

    /** Access @p addr; a miss is classified, filled and recorded. */
    template <class Sink = NoCount>
    StepOutcome
    access(ByteAddr addr, bool is_store, Sink &&sink = {})
    {
        sink.reference(is_store);
        StepOutcome out;
        if (cache_.access(addr, is_store)) {
            sink.hit();
            out.hit = true;
            return out;
        }
        out.cls =
            mct_.classify(geometry().setOf(addr), geometry().tagOf(addr));
        sink.miss(out.conflict());
        out.evicted = fill(addr, out.conflict(), is_store).valid;
        return out;
    }

    /**
     * Install @p addr with conflict bit @p conflict and record the
     * evicted line's tag, if any, in the MCT.
     */
    FillResult
    fill(ByteAddr addr, bool conflict, bool is_store)
    {
        FillResult ev = cache_.fill(addr, conflict, is_store);
        if (ev.valid)
            mct_.recordEviction(geometry().setOf(addr),
                                geometry().tagOf(ev.lineAddr));
        return ev;
    }

    const CacheGeometry &geometry() const { return cache_.geometry(); }
    Cache &cache() { return cache_; }
    const Cache &cache() const { return cache_; }
    MissClassificationTable &mct() { return mct_; }
    const MissClassificationTable &mct() const { return mct_; }

  private:
    Cache cache_;
    MissClassificationTable mct_;
};

} // namespace ccm

#endif // CCM_MCT_CLASSIFYING_CACHE_HH

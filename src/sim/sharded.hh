/**
 * @file
 * Set-sharded classification: the raw-speed path for the cache + MCT
 * classify pipeline (no timing model, no oracle).
 *
 * A set-indexed cache never moves a line between sets, and the MCT is
 * likewise per-set state, so the classify pipeline factors exactly
 * along the set index: shard k simulates only the references whose
 * set satisfies set % K == k, against a private ClassifyingCache
 * (cache + MCT), and no other shard can observe or perturb it.  Every
 * shard scans and decodes the full record stream so that all shards
 * agree on the global reference count that drives interval-window
 * boundaries.  That scan is not cheap: K shards do K times the
 * front-end work, which is why throughput does not scale with K.
 *
 * Merge contract (mirrors the suite runner's delivery contract,
 * docs/PERFORMANCE.md "Sharded classification"):
 *  1. every merged quantity is a commutative, associative sum —
 *     counter-wise for MemStats, element-wise for heat histograms,
 *     window-index-wise for interval deltas — so merge order cannot
 *     change the result;
 *  2. workers merge under one LockRank::ShardMerge mutex, taken only
 *     inside pool tasks (below ThreadPool's own leaf lock ordering
 *     concerns: the pool lock is released while tasks run);
 *  3. the output for any K is bit-identical to shards == 1, which
 *     runs the very same worker body inline — enforced by tests and
 *     the ci.sh sharded-determinism gate.
 *
 * What sharding deliberately drops: the oracle (a global fully
 * associative LRU whose verdicts depend on the interleaved stream)
 * and the timing model (MSHR/bus contention couple sets).  Both stay
 * sequential-only; --shards composes with the suite-level --jobs
 * knob, not with --run timing mode.
 */

#ifndef CCM_SIM_SHARDED_HH
#define CCM_SIM_SHARDED_HH

#include <cstddef>
#include <vector>

#include "common/status.hh"
#include "common/types.hh"
#include "hierarchy/memstats.hh"
#include "mct/classifying_cache.hh"
#include "obs/interval.hh"
#include "trace/record.hh"
#include "trace/source.hh"

namespace ccm
{

/**
 * Parameters of one sharded classification run: the cache + MCT
 * geometry, plus how to shard and sample it.
 */
struct ShardedClassifyConfig : ClassifyConfig
{
    /**
     * Shard count K.  0 and 1 both mean "run the worker inline on the
     * calling thread"; K > number of sets is allowed (the surplus
     * shards own no sets and contribute zero to every sum).
     */
    unsigned shards = 1;

    /**
     * Interval-sample window in memory references; 0 = no interval
     * series.  Boundaries are *global* reference indices, so the
     * merged series is window-aligned with a sequential run.
     */
    Count interval = 0;
};

/** Everything one sharded classification run produces. */
struct ShardedClassifyResult
{
    /**
     * Classify-path counters on the MemStats schema (accesses, loads,
     * stores, l1Hits, l1Misses, conflictMisses, capacityMisses; the
     * timing-only counters stay zero).
     */
    MemStats mem;

    /** Per-set activity, summed across shards (disjoint by design). */
    SetHistograms heat;

    /** Interval series (empty when cfg.interval == 0). */
    std::vector<obs::IntervalSample> intervals;

    /** Window length the series was sampled at (cfg.interval). */
    Count interval = 0;

    unsigned shards = 1; ///< shard count actually used
};

/**
 * Classify @p count records (all shards read the same span) on
 * cfg.shards workers.  The span must stay valid for the duration.
 * Fatal, on the calling thread and before any worker starts, when
 * cfg.validate() fails.
 */
ShardedClassifyResult runShardedClassify(
    const MemRecord *records, std::size_t count,
    const ShardedClassifyConfig &cfg);

/**
 * Convenience: capture @p trace (reset first) into memory, then run
 * the span overload.  Callers that already hold decoded records
 * (TraceFileReader::records(), VectorTrace::records()) should use
 * the span overload directly and skip the capture copy.
 */
ShardedClassifyResult runShardedClassify(
    TraceSource &trace, const ShardedClassifyConfig &cfg);

} // namespace ccm

#endif // CCM_SIM_SHARDED_HH

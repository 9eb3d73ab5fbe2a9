/**
 * @file
 * Functional (timing-free) classification experiment: run a trace
 * through a cache + MCT + oracle and score the MCT's accuracy.  This
 * is exactly the measurement behind Figures 1 and 2.
 */

#ifndef CCM_MCT_CLASSIFY_RUN_HH
#define CCM_MCT_CLASSIFY_RUN_HH

#include "mct/accuracy.hh"
#include "mct/classifying_cache.hh"
#include "trace/source.hh"

namespace ccm
{

/** Outcome of a classification run. */
struct ClassifyResult
{
    AccuracyScorer scorer;
    Count references = 0;    ///< memory references simulated
    Count misses = 0;
    double missRate = 0.0;
};

/**
 * Replay @p trace (reset first) against the configured cache,
 * classifying every miss with both the MCT and the oracle.
 */
ClassifyResult classifyRun(TraceSource &trace, const ClassifyConfig &cfg);

} // namespace ccm

#endif // CCM_MCT_CLASSIFY_RUN_HH

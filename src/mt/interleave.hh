/**
 * @file
 * Round-robin interleaving of several traces — the instruction
 * streams of threads sharing a cache on a multithreaded processor
 * (paper §5.6, "Multithreaded architectures").
 */

#ifndef CCM_MT_INTERLEAVE_HH
#define CCM_MT_INTERLEAVE_HH

#include <string>
#include <vector>

#include "trace/batch_reader.hh"
#include "trace/source.hh"

namespace ccm
{

/**
 * Interleaves N child traces, @c granularity records at a time,
 * until every child is exhausted.  Each record comes with the id of
 * the thread that produced it, so consumers can attribute misses.
 */
class InterleavedTrace
{
  public:
    /**
     * @param sources child traces (ownership stays with the caller)
     * @param granularity consecutive records taken per thread turn
     */
    InterleavedTrace(std::vector<TraceSource *> sources,
                     unsigned granularity = 4);

    /**
     * The next record of the interleaved stream, or nullptr once every
     * child is exhausted; @p thread receives the producing child's
     * index.  The pointer stays valid until the following next().
     */
    const MemRecord *next(unsigned &thread);

    /** Rewind every child and restart the round-robin at thread 0. */
    void reset();

    /** The children's names joined with '+'. */
    std::string name() const;

    unsigned threads() const { return unsigned(children.size()); }

  private:
    void advanceTurn();

    std::vector<TraceSource *> children;
    /** One batch-buffered reader per child, rebuilt by reset(). */
    std::vector<BatchReader> readers;
    std::vector<bool> exhausted;
    unsigned gran;
    unsigned current = 0;
    unsigned taken = 0;
};

} // namespace ccm

#endif // CCM_MT_INTERLEAVE_HH

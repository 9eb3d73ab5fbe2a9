/**
 * @file
 * Buffered, batch-pulling front end over a TraceSource.
 *
 * The simulation drivers (core timing loop, SMT core, the shared-cache
 * interleaver) want one record at a time, but a virtual call per
 * record would make the indirect call and its branch the hottest
 * instruction in the repo.  BatchReader pulls maxTraceBatch records
 * per nextBatch() into a local buffer and hands out pointers into it
 * through a non-virtual inline next(), so the virtual dispatch
 * amortizes across the batch and no record is copied a second time.
 */

#ifndef CCM_BATCH_READER_HH
#define CCM_BATCH_READER_HH

#include <array>
#include <cstddef>

#include "trace/source.hh"

namespace ccm
{

/** Records pulled per nextBatch() by every in-repo consumer. */
inline constexpr std::size_t maxTraceBatch = 256;

/** Batch-buffered reader; does not reset() the source. */
class BatchReader
{
  public:
    explicit BatchReader(TraceSource &src) : src_(src) {}

    /**
     * The next record in stream order, or nullptr at end of trace.
     * The pointer is into the current batch and stays valid until the
     * following next().
     */
    const MemRecord *
    next()
    {
        if (pos == count && !refill())
            return nullptr;
        return &buf[pos++];
    }

  private:
    bool
    refill()
    {
        // A short batch is not end-of-trace (see the nextBatch
        // contract); only an empty one is, so a short refill simply
        // leads to another refill on a later next().
        count = src_.nextBatch(buf.data(), maxTraceBatch);
        pos = 0;
        return count > 0;
    }

    TraceSource &src_;
    std::size_t pos = 0;
    std::size_t count = 0;
    std::array<MemRecord, maxTraceBatch> buf;
};

} // namespace ccm

#endif // CCM_BATCH_READER_HH

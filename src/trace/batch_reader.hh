/**
 * @file
 * Buffered, batch-pulling front end over a TraceSource.
 *
 * The simulation drivers (core timing loop, SMT core, classification
 * runs, the page-remap replay) consume tens of millions of records
 * per run; pulling them one virtual next() at a time makes the
 * indirect call and its branch the hottest instruction in the repo.
 * BatchReader pulls fixed-size batches through nextBatch() into a
 * local buffer and hands out pointers into it through a non-virtual
 * inline next(), so the virtual dispatch amortizes across ~256
 * records, no record is copied a second time, and the record
 * sequence stays exactly the one TraceSource::next() would produce.
 *
 * The batch size is a process-wide knob (default 256, env override
 * CCM_TRACE_BATCH, setTraceBatchSize() for benches/tests); 1 degrades
 * to the historical record-at-a-time behaviour, which tools/ci.sh
 * uses to prove the batched path is byte-identical.
 */

#ifndef CCM_TRACE_BATCH_READER_HH
#define CCM_TRACE_BATCH_READER_HH

#include <array>
#include <cstddef>

#include "trace/source.hh"

namespace ccm
{

/** Hard upper bound on any delivery batch (buffer size). */
inline constexpr std::size_t maxTraceBatch = 256;

/**
 * Process-wide delivery batch size in [1, maxTraceBatch].  First use
 * reads $CCM_TRACE_BATCH (clamped); 1 disables read-ahead.
 */
std::size_t traceBatchSize();

/** Override the batch size (clamped to [1, maxTraceBatch]). */
void setTraceBatchSize(std::size_t n);

/** Batch-buffered reader; does not reset() the source. */
class BatchReader
{
  public:
    explicit BatchReader(TraceSource &src,
                         std::size_t batch = traceBatchSize())
        : src_(src),
          batch_(batch == 0          ? 1
                 : batch > maxTraceBatch ? maxTraceBatch
                                         : batch)
    {
    }

    /**
     * The next record in TraceSource::next() order, or nullptr at end
     * of trace.  The pointer is into the current batch and stays
     * valid until the following next().
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
        count = src_.nextBatch(buf.data(), batch_);
        pos = 0;
        return count > 0;
    }

    TraceSource &src_;
    std::size_t batch_;
    std::size_t pos = 0;
    std::size_t count = 0;
    std::array<MemRecord, maxTraceBatch> buf;
};

} // namespace ccm

#endif // CCM_TRACE_BATCH_READER_HH

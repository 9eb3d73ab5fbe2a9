/**
 * @file
 * Abstract producer of MemRecords.  Workload generators, file readers
 * and in-memory traces all implement this interface; the core and the
 * functional experiment drivers consume it, usually through a
 * BatchReader (trace/batch_reader.hh).
 */

#ifndef CCM_TRACE_SOURCE_HH
#define CCM_TRACE_SOURCE_HH

#include <cstddef>
#include <string>

#include "trace/record.hh"

namespace ccm
{

/** A replayable, finite stream of dynamic instructions. */
class TraceSource
{
  public:
    virtual ~TraceSource() = default;

    /**
     * Produce up to @p n records (any @p n >= 1) into @p out, in
     * stream order; successive calls continue where the last one
     * stopped.  A return value of 0 means the trace is exhausted; a
     * short (nonzero) batch carries no end-of-trace meaning by
     * itself, callers must pull again.
     *
     * @return number of records produced (0 iff exhausted)
     */
    virtual std::size_t nextBatch(MemRecord *out, std::size_t n) = 0;

    /** Rewind to the beginning so the trace can be replayed. */
    virtual void reset() = 0;

    /** Human-readable name (used as a row label in result tables). */
    virtual std::string name() const = 0;
};

} // namespace ccm

#endif // CCM_TRACE_SOURCE_HH

/**
 * @file
 * Zero-copy trace ingestion: MappedTraceReader serves records
 * straight out of an mmap'd trace file.
 *
 * TraceFileReader slurps the whole file into a std::vector before the
 * first record is delivered — one full copy plus allocator traffic
 * that the classify fast path never needed.  The mapped reader
 * instead validates the file once at open() (header, encoding, every
 * record boundary) and then decodes each batch directly from the
 * mapping: the kernel pages bytes in on demand and nothing is staged
 * in between.  Decoding stays little-endian-safe because it goes
 * through the same wire.hh / delta.hh codecs as the copying reader,
 * so both lanes are byte-equivalent on any host.
 *
 * The mapped lane is strict by design: nextBatch() cannot return a
 * Status, so every defect must be caught while open() can still say
 * no.  Tolerant options (corruption budget, truncated-tail tolerance)
 * therefore report Unsupported here — openTraceMappedOrFile() is the
 * convenience wrapper that tries the mapping first and silently falls
 * back to TraceFileReader when the mapped lane says no (tolerant
 * options requested, or the map itself failed).
 */

#ifndef CCM_TRACE_MMAP_TRACE_HH
#define CCM_TRACE_MMAP_TRACE_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "common/status.hh"
#include "trace/delta.hh"
#include "trace/file_trace.hh"
#include "trace/source.hh"

namespace ccm
{

/**
 * TraceSource decoding records in place from an mmap'd file.
 *
 * open() maps the file read-only and validates it end to end —
 * magic, version, and every record boundary (plausibility bytes for
 * the packed encoding, a full decode pass for delta) — returning a
 * Status instead of crashing on truncated or corrupt input.  After a
 * successful open, nextBatch() is infallible.
 */
class MappedTraceReader : public TraceSource
{
  public:
    /**
     * Map and validate @p path.  @p opts must be fully strict
     * (corruptionBudget == 0, no tail tolerance): the mapped lane has
     * no way to report mid-stream defects after open, so tolerant
     * loads get ErrorCode::Unsupported and belong on TraceFileReader.
     */
    static Expected<std::unique_ptr<MappedTraceReader>>
    open(const std::string &path, const TraceReadOptions &opts = {});

    ~MappedTraceReader() override;

    MappedTraceReader(const MappedTraceReader &) = delete;
    MappedTraceReader &operator=(const MappedTraceReader &) = delete;

    std::size_t nextBatch(MemRecord *out, std::size_t n) override;
    void reset() override;
    std::string name() const override { return label; }

    /** Total records in the mapping (known from validation). */
    std::size_t size() const { return count_; }

    TraceEncoding encoding() const { return stats_.encoding; }

    /** Diagnostics from the validating open(). */
    const TraceReadStats &readStats() const { return stats_; }

  private:
    MappedTraceReader() = default;

    /** Validate the whole body; fills count_. */
    Status validateBody(const std::string &path);

    void *map_ = nullptr;        ///< whole-file mapping (munmap target)
    std::size_t mapBytes_ = 0;   ///< mapping length
    const std::uint8_t *body_ = nullptr; ///< first byte after header
    std::size_t bodyBytes_ = 0;

    std::size_t count_ = 0;   ///< validated record count
    std::size_t nextIdx_ = 0; ///< packed lane cursor (record index)
    std::size_t offset_ = 0;  ///< delta lane cursor (byte offset)
    delta::Codec codec_;      ///< delta lane predictor state

    std::string label;
    TraceReadStats stats_;
};

/**
 * Open @p path for replay, preferring the zero-copy mapped lane.
 *
 * Tries MappedTraceReader first; when the mapping is not an option —
 * tolerant @p opts or the map call failing —
 * falls back to TraceFileReader::open with the same options.  Only
 * genuine trace defects propagate as errors; the fallback itself is
 * silent (@p usedMmap, when non-null, reports which lane won).
 */
Expected<std::unique_ptr<TraceSource>>
openTraceMappedOrFile(const std::string &path,
                      const TraceReadOptions &opts = {},
                      bool *usedMmap = nullptr);

} // namespace ccm

#endif // CCM_TRACE_MMAP_TRACE_HH

/**
 * @file
 * Binary trace file I/O.
 *
 * Two on-disk encodings share the 16-byte header shape
 * (8-byte magic, u32 version, u32 reserved):
 *
 *  - "CCMTRACE": packed little-endian records,
 *      u64 pc | u64 addr | u8 type | u8 flags | 6 bytes padding
 *    24 bytes per record.  Simple enough to write from any tracer
 *    (e.g. a Pin/DynamoRIO tool or a converted ChampSim trace).
 *  - "CCMTRACD": delta-compressed records (control byte + zigzag
 *    LEB128 varints of pc/addr deltas; trace/delta.hh), a fraction of
 *    the packed size for real traces.
 *
 * Readers sniff the magic, so every consumer takes either encoding
 * transparently.  The full layouts and their error-recovery semantics
 * are documented in docs/TRACE_FORMAT.md.
 *
 * Reading comes in two flavours: the strict constructor (any defect
 * is fatal — unchanged legacy behaviour) and TraceFileReader::open,
 * which returns a Status instead of dying and can optionally tolerate
 * bounded corruption: garbage bytes are resynced past (up to a
 * configurable budget) and a truncated tail is demoted to a warning.
 * Resync only exists for the packed encoding — a delta stream decodes
 * relative to all earlier bytes, so mid-stream damage is fatal there
 * regardless of budget.
 */

#ifndef CCM_TRACE_FILE_TRACE_HH
#define CCM_TRACE_FILE_TRACE_HH

#include <cstdint>
#include <cstdio>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "common/status.hh"
#include "trace/delta.hh"
#include "trace/source.hh"

namespace ccm
{

/** Which on-disk record encoding a trace file uses. */
enum class TraceEncoding
{
    Packed, ///< "CCMTRACE": fixed 24-byte records, resyncable
    Delta,  ///< "CCMTRACD": varint pc/addr deltas, not resyncable
};

/** Stable lower-case name ("packed" / "delta"). */
const char *toString(TraceEncoding e);

/** Write records to a binary trace file. */
class TraceFileWriter
{
  public:
    /** Open @p path for writing; fatal on failure. */
    explicit TraceFileWriter(const std::string &path,
                             TraceEncoding encoding =
                                 TraceEncoding::Packed);
    ~TraceFileWriter();

    TraceFileWriter(const TraceFileWriter &) = delete;
    TraceFileWriter &operator=(const TraceFileWriter &) = delete;

    /** Open @p path for writing; error status instead of dying. */
    static Expected<std::unique_ptr<TraceFileWriter>>
    create(const std::string &path,
           TraceEncoding encoding = TraceEncoding::Packed);

    /** Append one record; fatal on a short write. */
    void write(const MemRecord &r);

    /** Append one record; error status on a short write. */
    Status writeChecked(const MemRecord &r);

    /** Drain @p src (reset first) into the file; @return record count. */
    std::size_t writeAll(TraceSource &src);

    /**
     * Flush and close, reporting flush/close failures (a full disk
     * often only surfaces here).  Safe to call repeatedly; the
     * destructor calls it and warns on error.
     */
    Status close();

    TraceEncoding encoding() const { return encoding_; }

  private:
    struct Unchecked
    {
    };
    TraceFileWriter(Unchecked, const std::string &path,
                    TraceEncoding encoding);

    Status openFile();

    std::FILE *fp = nullptr;
    std::string path_;
    TraceEncoding encoding_ = TraceEncoding::Packed;
    /** Delta predictor state (unused for packed writes). */
    delta::Codec codec_;
};

/** What, if anything, is wrong with a trace file. */
enum class TraceDefect
{
    None = 0,
    IoError,         ///< cannot open/read the file
    ZeroLength,      ///< file is completely empty
    TruncatedHeader, ///< shorter than the 16-byte header
    BadMagic,        ///< leading bytes are not "CCMTRACE"
    BadVersion,      ///< recognized header, unsupported version
    PartialTail,     ///< trailing bytes form no complete record
    MidFileGarbage,  ///< implausible record bytes inside the body
    BadControlByte,  ///< delta record with an invalid control byte
    BadVarint,       ///< delta record with an overlong varint
};

/** Stable lower-case name of @p d (e.g. "bad-magic"). */
const char *traceDefectName(TraceDefect d);

/** Knobs for tolerant trace loading (defaults are fully strict). */
struct TraceReadOptions
{
    /**
     * Maximum number of resync events (runs of garbage bytes skipped
     * to the next plausible record boundary).  0 = any garbage is an
     * error.
     */
    std::size_t corruptionBudget = 0;

    /** Treat a trailing partial record as end-of-trace + warning. */
    bool tolerateTruncatedTail = false;

    /** Suppress the warnings normally emitted for tolerated defects. */
    bool quiet = false;
};

/** Diagnostics from one load, MemStats-style dumpable. */
struct TraceReadStats
{
    Count recordsRead = 0;
    Count resyncEvents = 0;   ///< garbage runs skipped (packed only)
    Count bytesSkipped = 0;   ///< total garbage bytes passed over
    bool truncatedTail = false;

    /** Which encoding the header announced (meaningful when read). */
    TraceEncoding encoding = TraceEncoding::Packed;

    /** First defect seen, including ones that were tolerated. */
    TraceDefect firstDefect = TraceDefect::None;

    bool clean() const
    {
        return firstDefect == TraceDefect::None;
    }

    /** Write "trace.<stat> <value>" lines (gem5-style stats dump). */
    void dump(std::ostream &os, const char *prefix = "trace") const;
};

/** Length of the header every trace file starts with. */
inline constexpr std::size_t traceHeaderBytes = 16;

/**
 * Check the traceHeaderBytes-long header at @p header, the one magic
 * and version check both readers share: the magic selects
 * @p stats.encoding, an unknown magic is BadMagic (corrupt-trace) and
 * any version but the supported one is BadVersion (unsupported).
 */
Status checkTraceHeader(const std::uint8_t *header,
                        const std::string &path, TraceReadStats &stats);

/**
 * Load @p path into @p out according to @p opts.
 *
 * On error @p out is left empty; @p stats is always filled in (its
 * firstDefect identifies what went wrong or what was tolerated).
 */
Status loadTraceFile(const std::string &path,
                     const TraceReadOptions &opts,
                     std::vector<MemRecord> &out,
                     TraceReadStats &stats);

/**
 * Classify @p path without failing: loads with unlimited corruption
 * budget and tail tolerance and reports the first defect found
 * (TraceDefect::None for a clean file).  @p stats, when non-null,
 * receives the full load diagnostics.
 */
TraceDefect probeTraceFile(const std::string &path,
                           TraceReadStats *stats = nullptr);

/**
 * Replay a binary trace file.  The whole file is validated and loaded
 * up front (traces here are small); the legacy constructor is fatal
 * on malformed input, open() reports a Status instead.
 */
class TraceFileReader : public TraceSource
{
  public:
    /** Strict load; fatal on any defect. */
    explicit TraceFileReader(const std::string &path);

    /** Load according to @p opts; error status instead of dying. */
    static Expected<std::unique_ptr<TraceFileReader>>
    open(const std::string &path, const TraceReadOptions &opts = {});

    std::size_t nextBatch(MemRecord *out, std::size_t n) override;
    void reset() override { pos = 0; }
    std::string name() const override { return label; }

    std::size_t size() const { return records_.size(); }

    /** The decoded record sequence (shard views, conversions). */
    const std::vector<MemRecord> &records() const { return records_; }

    /** Diagnostics from the load (skips, resyncs, truncation). */
    const TraceReadStats &readStats() const { return stats_; }

  private:
    TraceFileReader() = default;

    std::vector<MemRecord> records_;
    std::size_t pos = 0;
    std::string label;
    TraceReadStats stats_;
};

} // namespace ccm

#endif // CCM_TRACE_FILE_TRACE_HH

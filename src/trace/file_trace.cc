#include "trace/file_trace.hh"

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "common/logging.hh"
#include "trace/batch_reader.hh"
#include "trace/delta.hh"
#include "trace/wire.hh"

namespace ccm
{

namespace
{

// The per-record codec (packRecord/unpackRecord/plausibleRecord,
// recordBytes) lives in trace/wire.hh, shared with the serve-stream
// frame protocol.
using wire::packRecord;
using wire::plausibleRecord;
using wire::recordBytes;
using wire::unpackRecord;

// The header's magic and version; the delta magic lives with its
// codec (trace/delta.hh).  Both encodings share the version number.
constexpr char packedMagic[8] = {'C', 'C', 'M', 'T', 'R', 'A', 'C', 'E'};
constexpr std::uint32_t traceVersion = 1;
constexpr std::size_t headerBytes = traceHeaderBytes;

std::string
errnoSuffix()
{
    return std::string(" (") + errnoString(errno) + ")";
}

} // namespace

// ---- Writer -------------------------------------------------------

const char *
toString(TraceEncoding e)
{
    return e == TraceEncoding::Delta ? "delta" : "packed";
}

TraceFileWriter::TraceFileWriter(const std::string &path,
                                 TraceEncoding encoding)
    : path_(path), encoding_(encoding)
{
    fatalIfError(openFile());
}

TraceFileWriter::TraceFileWriter(Unchecked, const std::string &path,
                                 TraceEncoding encoding)
    : path_(path), encoding_(encoding)
{
}

Expected<std::unique_ptr<TraceFileWriter>>
TraceFileWriter::create(const std::string &path, TraceEncoding encoding)
{
    std::unique_ptr<TraceFileWriter> w(
        new TraceFileWriter(Unchecked{}, path, encoding));
    Status s = w->openFile();
    if (!s.isOk())
        return s;
    return w;
}

Status
TraceFileWriter::openFile()
{
    fp = std::fopen(path_.c_str(), "wb");
    if (!fp) {
        return Status::ioError(
            "cannot open trace file for writing: ", path_,
            errnoSuffix());
    }
    std::fwrite(encoding_ == TraceEncoding::Delta ? delta::magic
                                                  : packedMagic,
                1, 8, fp);
    std::uint8_t verbuf[8] = {}; // version LE, then 4 reserved bytes
    wire::storeLe32(traceVersion, verbuf);
    if (std::fwrite(verbuf, 1, 8, fp) != 8) {
        Status s = Status::ioError(
            "short write of trace header to ", path_, errnoSuffix());
        std::fclose(fp);
        fp = nullptr;
        return s;
    }
    return Status::ok();
}

TraceFileWriter::~TraceFileWriter()
{
    Status s = close();
    if (!s.isOk())
        ccm_warn(s.message());
}

void
TraceFileWriter::write(const MemRecord &r)
{
    if (!fp)
        ccm_panic("write to closed trace file ", path_);
    fatalIfError(writeChecked(r));
}

Status
TraceFileWriter::writeChecked(const MemRecord &r)
{
    if (!fp) {
        return Status::ioError("write to closed trace file ", path_);
    }
    // Scratch big enough for either encoding's worst case.
    constexpr std::size_t bufBytes =
        delta::maxRecordBytes > recordBytes ? delta::maxRecordBytes
                                            : recordBytes;
    std::uint8_t buf[bufBytes];
    std::size_t n;
    if (encoding_ == TraceEncoding::Delta) {
        n = delta::encodeRecord(codec_, r, buf);
    } else {
        packRecord(r, buf);
        n = recordBytes;
    }
    if (std::fwrite(buf, 1, n, fp) != n) {
        return Status::ioError("short write to trace file ", path_,
                               errnoSuffix());
    }
    return Status::ok();
}

std::size_t
TraceFileWriter::writeAll(TraceSource &src)
{
    src.reset();
    MemRecord chunk[maxTraceBatch];
    std::size_t got;
    std::size_t n = 0;
    while ((got = src.nextBatch(chunk, maxTraceBatch)) > 0) {
        for (std::size_t i = 0; i < got; ++i)
            write(chunk[i]);
        n += got;
    }
    return n;
}

Status
TraceFileWriter::close()
{
    if (!fp)
        return Status::ok();
    Status s = Status::ok();
    if (std::fflush(fp) != 0) {
        s = Status::ioError("flush failed for trace file ", path_,
                            errnoSuffix());
    }
    if (std::fclose(fp) != 0 && s.isOk()) {
        s = Status::ioError("close failed for trace file ", path_,
                            errnoSuffix());
    }
    fp = nullptr;
    return s;
}

// ---- Reader -------------------------------------------------------

const char *
traceDefectName(TraceDefect d)
{
    switch (d) {
      case TraceDefect::None:
        return "none";
      case TraceDefect::IoError:
        return "io-error";
      case TraceDefect::ZeroLength:
        return "zero-length";
      case TraceDefect::TruncatedHeader:
        return "truncated-header";
      case TraceDefect::BadMagic:
        return "bad-magic";
      case TraceDefect::BadVersion:
        return "bad-version";
      case TraceDefect::PartialTail:
        return "partial-tail";
      case TraceDefect::MidFileGarbage:
        return "mid-file-garbage";
      case TraceDefect::BadControlByte:
        return "bad-control-byte";
      case TraceDefect::BadVarint:
        return "bad-varint";
    }
    return "unknown";
}

void
TraceReadStats::dump(std::ostream &os, const char *prefix) const
{
    auto line = [&](const char *name, Count v) {
        os << prefix << "." << name << " " << v << "\n";
    };
    line("records_read", recordsRead);
    line("resync_events", resyncEvents);
    line("bytes_skipped", bytesSkipped);
    line("truncated_tail", truncatedTail ? 1 : 0);
    os << prefix << ".first_defect " << traceDefectName(firstDefect)
       << "\n";
}

namespace
{

/** Record the first (most significant) defect seen during a load. */
void
noteDefect(TraceReadStats &stats, TraceDefect d)
{
    if (stats.firstDefect == TraceDefect::None)
        stats.firstDefect = d;
}

/**
 * Decode a delta-encoded body.  No resync exists here (every record
 * depends on the ones before it), so the corruption budget does not
 * apply: a bad control byte or varint is an error even when a budget
 * is set, and only a clean truncation at end-of-body can be tolerated.
 */
Status
decodeDeltaBody(const std::string &path,
                const std::vector<std::uint8_t> &body,
                const TraceReadOptions &opts,
                std::vector<MemRecord> &out, TraceReadStats &stats)
{
    delta::Codec codec;
    const std::uint8_t *p = body.data();
    const std::uint8_t *end = body.data() + body.size();
    while (p < end) {
        MemRecord r;
        std::size_t used = 0;
        switch (delta::decodeRecord(codec, p, end, r, used)) {
          case delta::DecodeStatus::Ok:
            out.push_back(r);
            ++stats.recordsRead;
            p += used;
            continue;
          case delta::DecodeStatus::NeedMore:
            noteDefect(stats, TraceDefect::PartialTail);
            if (!opts.tolerateTruncatedTail) {
                out.clear();
                return Status::corruptTrace(
                    "trailing partial record in delta trace ", path);
            }
            stats.truncatedTail = true;
            stats.bytesSkipped += static_cast<Count>(end - p);
            if (!opts.quiet) {
                ccm_warn("trace ", path, ": truncated delta tail (",
                         end - p, " bytes); treating as end of trace");
            }
            return Status::ok();
          case delta::DecodeStatus::BadControlByte:
            noteDefect(stats, TraceDefect::BadControlByte);
            out.clear();
            return Status::corruptTrace(
                "bad control byte in delta trace ", path, " at byte ",
                headerBytes + static_cast<std::size_t>(p - body.data()),
                " (delta streams cannot be resynced)");
          case delta::DecodeStatus::BadVarint:
            noteDefect(stats, TraceDefect::BadVarint);
            out.clear();
            return Status::corruptTrace(
                "overlong varint in delta trace ", path, " at byte ",
                headerBytes + static_cast<std::size_t>(p - body.data()),
                " (delta streams cannot be resynced)");
        }
    }
    return Status::ok();
}

} // namespace

Status
checkTraceHeader(const std::uint8_t *header, const std::string &path,
                 TraceReadStats &stats)
{
    if (std::memcmp(header, delta::magic, 8) == 0) {
        stats.encoding = TraceEncoding::Delta;
    } else if (std::memcmp(header, packedMagic, 8) == 0) {
        stats.encoding = TraceEncoding::Packed;
    } else {
        noteDefect(stats, TraceDefect::BadMagic);
        return Status::corruptTrace("bad trace magic in ", path);
    }
    const std::uint32_t ver = wire::loadLe32(header + 8);
    if (ver != traceVersion) {
        noteDefect(stats, TraceDefect::BadVersion);
        return Status::unsupported("unsupported trace version ", ver,
                                   " in ", path);
    }
    return Status::ok();
}

Status
loadTraceFile(const std::string &path, const TraceReadOptions &opts,
              std::vector<MemRecord> &out, TraceReadStats &stats)
{
    out.clear();
    stats = TraceReadStats{};

    std::FILE *fp = std::fopen(path.c_str(), "rb");
    if (!fp) {
        noteDefect(stats, TraceDefect::IoError);
        return Status::ioError("cannot open trace file: ", path,
                               errnoSuffix());
    }

    std::uint8_t header[headerBytes];
    std::size_t got = std::fread(header, 1, headerBytes, fp);
    if (got < headerBytes) {
        // A read error (e.g. the path is a directory, EISDIR) also
        // surfaces as a short read; don't mistake it for truncation.
        bool bad = std::ferror(fp) != 0;
        std::fclose(fp);
        if (bad) {
            noteDefect(stats, TraceDefect::IoError);
            return Status::ioError("cannot read trace file: ", path,
                                   errnoSuffix());
        }
        if (got == 0) {
            // Distinguish the completely empty file: it usually means
            // a producer crashed before writing anything.
            noteDefect(stats, TraceDefect::ZeroLength);
            return Status::corruptTrace("empty trace file: ", path);
        }
        noteDefect(stats, TraceDefect::TruncatedHeader);
        return Status::corruptTrace("truncated trace header: ", path);
    }
    if (Status s = checkTraceHeader(header, path, stats); !s.isOk()) {
        std::fclose(fp);
        return s;
    }

    // Slurp the record area so resync can scan byte-by-byte.
    std::vector<std::uint8_t> body;
    {
        std::uint8_t chunk[4096];
        std::size_t n;
        while ((n = std::fread(chunk, 1, sizeof chunk, fp)) > 0)
            body.insert(body.end(), chunk, chunk + n);
        bool bad = std::ferror(fp) != 0;
        std::fclose(fp);
        if (bad) {
            noteDefect(stats, TraceDefect::IoError);
            return Status::ioError("read failed for trace file ",
                                   path, errnoSuffix());
        }
    }

    if (stats.encoding == TraceEncoding::Delta)
        return decodeDeltaBody(path, body, opts, out, stats);

    std::size_t off = 0;
    while (off + recordBytes <= body.size()) {
        if (plausibleRecord(body.data() + off)) {
            out.push_back(unpackRecord(body.data() + off));
            ++stats.recordsRead;
            off += recordBytes;
            continue;
        }

        // Garbage: resync to the next plausible record boundary.
        noteDefect(stats, TraceDefect::MidFileGarbage);
        if (stats.resyncEvents >= opts.corruptionBudget) {
            out.clear();
            return Status::corruptTrace(
                "mid-file garbage in trace ", path, " at byte ",
                headerBytes + off,
                opts.corruptionBudget == 0
                    ? ""
                    : " (corruption budget exhausted)");
        }
        ++stats.resyncEvents;
        std::size_t start = off;
        ++off;
        while (off + recordBytes <= body.size() &&
               !plausibleRecord(body.data() + off)) {
            ++off;
        }
        stats.bytesSkipped += off - start;
        if (!opts.quiet) {
            ccm_warn("trace ", path, ": skipped ", off - start,
                     " garbage bytes at byte ", headerBytes + start);
        }
    }

    if (off < body.size()) {
        // Trailing bytes too short to form a record.
        noteDefect(stats, TraceDefect::PartialTail);
        if (!opts.tolerateTruncatedTail) {
            out.clear();
            return Status::corruptTrace(
                "trailing partial record in trace ", path);
        }
        stats.truncatedTail = true;
        stats.bytesSkipped += body.size() - off;
        if (!opts.quiet) {
            ccm_warn("trace ", path, ": truncated tail (",
                     body.size() - off,
                     " bytes); treating as end of trace");
        }
    }

    return Status::ok();
}

TraceDefect
probeTraceFile(const std::string &path, TraceReadStats *stats)
{
    TraceReadOptions opts;
    opts.corruptionBudget = ~std::size_t{0};
    opts.tolerateTruncatedTail = true;
    opts.quiet = true;

    std::vector<MemRecord> records;
    TraceReadStats local;
    loadTraceFile(path, opts, records, local);
    if (stats)
        *stats = local;
    return local.firstDefect;
}

TraceFileReader::TraceFileReader(const std::string &path) : label(path)
{
    fatalIfError(loadTraceFile(path, TraceReadOptions{}, records_,
                               stats_));
}

Expected<std::unique_ptr<TraceFileReader>>
TraceFileReader::open(const std::string &path,
                      const TraceReadOptions &opts)
{
    std::unique_ptr<TraceFileReader> rd(new TraceFileReader());
    rd->label = path;
    Status s = loadTraceFile(path, opts, rd->records_, rd->stats_);
    if (!s.isOk())
        return s;
    return rd;
}

std::size_t
TraceFileReader::nextBatch(MemRecord *out, std::size_t n)
{
    // Decode (and any resync past corruption) happened at load time,
    // so batch delivery is a bulk copy of already-validated records —
    // the defect semantics of docs/TRACE_FORMAT.md are unaffected by
    // where batch boundaries fall.
    const std::size_t got = std::min(n, records_.size() - pos);
    std::copy_n(records_.begin() +
                    static_cast<std::ptrdiff_t>(pos),
                got, out);
    pos += got;
    return got;
}

} // namespace ccm

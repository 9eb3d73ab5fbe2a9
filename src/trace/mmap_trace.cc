#include "trace/mmap_trace.hh"

#include <cerrno>

#include "common/logging.hh"
#include "obs/metrics.hh"
#include "trace/wire.hh"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

namespace ccm
{

namespace
{

constexpr std::size_t headerBytes = traceHeaderBytes;

/** Bytes handed to simulation via the zero-copy lane, process-wide. */
obs::Counter &
ingestBytesCounter()
{
    static obs::Counter &c = obs::MetricsRegistry::global().counter(
        "ccm_ingest_bytes_total",
        "Trace bytes mapped for zero-copy ingestion");
    return c;
}

} // namespace

MappedTraceReader::~MappedTraceReader()
{
    if (map_)
        ::munmap(map_, mapBytes_);
}

Status
MappedTraceReader::validateBody(const std::string &path)
{
    if (stats_.encoding == TraceEncoding::Packed) {
        if (bodyBytes_ % wire::recordBytes != 0) {
            return Status::corruptTrace(
                "trailing partial record in mapped trace ", path, " (",
                bodyBytes_ % wire::recordBytes, " bytes)");
        }
        const std::size_t n = bodyBytes_ / wire::recordBytes;
        for (std::size_t i = 0; i < n; ++i) {
            if (!wire::plausibleRecord(body_ + i * wire::recordBytes)) {
                return Status::corruptTrace(
                    "implausible record bytes at offset ",
                    headerBytes + i * wire::recordBytes,
                    " in mapped trace ", path);
            }
        }
        count_ = n;
        stats_.recordsRead = n;
        return Status::ok();
    }

    // Delta: the only way to prove every byte decodes is to decode it.
    // One sequential pass touches each page exactly once, and after it
    // nextBatch() can decode in place without a failure path.
    delta::Codec codec;
    const std::uint8_t *p = body_;
    const std::uint8_t *end = body_ + bodyBytes_;
    std::size_t n = 0;
    while (p < end) {
        MemRecord r;
        std::size_t used = 0;
        switch (delta::decodeRecord(codec, p, end, r, used)) {
          case delta::DecodeStatus::Ok:
            p += used;
            ++n;
            continue;
          case delta::DecodeStatus::NeedMore:
            return Status::corruptTrace(
                "trailing partial record in mapped delta trace ", path);
          case delta::DecodeStatus::BadControlByte:
            return Status::corruptTrace(
                "bad control byte at offset ",
                headerBytes + static_cast<std::size_t>(p - body_),
                " in mapped delta trace ", path);
          case delta::DecodeStatus::BadVarint:
            return Status::corruptTrace(
                "overlong varint at offset ",
                headerBytes + static_cast<std::size_t>(p - body_),
                " in mapped delta trace ", path);
        }
    }
    count_ = n;
    stats_.recordsRead = n;
    return Status::ok();
}

Expected<std::unique_ptr<MappedTraceReader>>
MappedTraceReader::open(const std::string &path,
                        const TraceReadOptions &opts)
{
    if (opts.corruptionBudget != 0 || opts.tolerateTruncatedTail) {
        return Status::unsupported(
            "mapped trace reader is strict: tolerant load options "
            "require TraceFileReader (", path, ")");
    }
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) {
        return Status::ioError("cannot open trace file: ", path, " (",
                               errnoString(errno), ")");
    }
    struct stat st = {};
    if (::fstat(fd, &st) != 0) {
        Status s = Status::ioError("cannot stat trace file: ", path,
                                   " (", errnoString(errno), ")");
        ::close(fd);
        return s;
    }
    const auto fileBytes = static_cast<std::size_t>(st.st_size);
    if (fileBytes == 0) {
        ::close(fd);
        return Status::corruptTrace("trace file is empty: ", path);
    }
    if (fileBytes < headerBytes) {
        ::close(fd);
        return Status::corruptTrace("truncated trace header in ", path,
                                    " (", fileBytes, " bytes)");
    }

    void *map = ::mmap(nullptr, fileBytes, PROT_READ, MAP_PRIVATE, fd,
                       0);
    // The mapping holds its own reference; the descriptor is done
    // either way.
    ::close(fd);
    if (map == MAP_FAILED) {
        return Status::ioError("mmap failed for trace file: ", path,
                               " (", errnoString(errno), ")");
    }

    std::unique_ptr<MappedTraceReader> rd(new MappedTraceReader());
    rd->map_ = map;
    rd->mapBytes_ = fileBytes;
    rd->label = path;

    const auto *base = static_cast<const std::uint8_t *>(map);
    if (Status s = checkTraceHeader(base, path, rd->stats_); !s.isOk())
        return s;
    rd->body_ = base + headerBytes;
    rd->bodyBytes_ = fileBytes - headerBytes;

    Status s = rd->validateBody(path);
    if (!s.isOk())
        return s;

    ingestBytesCounter().inc(fileBytes);
    return rd;
}

void
MappedTraceReader::reset()
{
    nextIdx_ = 0;
    offset_ = 0;
    codec_.reset();
}

std::size_t
MappedTraceReader::nextBatch(MemRecord *out, std::size_t n)
{
    if (stats_.encoding == TraceEncoding::Packed) {
        const std::size_t got = std::min(n, count_ - nextIdx_);
        const std::uint8_t *p = body_ + nextIdx_ * wire::recordBytes;
        for (std::size_t i = 0; i < got; ++i) {
            out[i] = wire::unpackRecord(p);
            p += wire::recordBytes;
        }
        nextIdx_ += got;
        return got;
    }

    const std::uint8_t *end = body_ + bodyBytes_;
    std::size_t got = 0;
    while (got < n && offset_ < bodyBytes_) {
        std::size_t used = 0;
        // The validating open() decoded this exact byte sequence, so
        // anything but Ok here is memory corruption, not input.
        if (delta::decodeRecord(codec_, body_ + offset_, end, out[got],
                                used) != delta::DecodeStatus::Ok) {
            ccm_panic("validated delta trace failed to re-decode: ",
                      label);
        }
        offset_ += used;
        ++got;
    }
    return got;
}

Expected<std::unique_ptr<TraceSource>>
openTraceMappedOrFile(const std::string &path,
                      const TraceReadOptions &opts, bool *usedMmap)
{
    auto mapped = MappedTraceReader::open(path, opts);
    if (mapped.ok()) {
        if (usedMmap)
            *usedMmap = true;
        return std::unique_ptr<TraceSource>(mapped.take().release());
    }
    // Unsupported means "this lane can't apply" (tolerant options):
    // fall back silently.  Real defects (corrupt-trace,
    // io-error) would hit the file reader too — let it produce the
    // canonical message so both lanes report identically.
    if (usedMmap)
        *usedMmap = false;
    auto file = TraceFileReader::open(path, opts);
    if (!file.ok())
        return file.status();
    return std::unique_ptr<TraceSource>(file.take().release());
}

} // namespace ccm

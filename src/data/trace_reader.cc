#include "data/trace_reader.h"

#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>

#include "core/fault.h"
#include "core/telemetry.h"

namespace sas {

namespace {

/// Initial read block; a longer line doubles the buffer.
constexpr std::size_t kBlockBytes = std::size_t{64} << 10;

/// Splits `line` on `delim` into at most `max_fields` trimmed views stored
/// in `fields`; returns the field count. Surrounding spaces/tabs and a
/// trailing '\r' (CRLF input) are trimmed.
std::size_t SplitFields(std::string_view line, char delim,
                        std::string_view* fields, std::size_t max_fields) {
  std::size_t count = 0;
  std::size_t begin = 0;
  while (count < max_fields) {
    std::size_t end = line.find(delim, begin);
    if (end == std::string_view::npos) end = line.size();
    std::size_t lo = begin, hi = end;
    while (lo < hi && (line[lo] == ' ' || line[lo] == '\t')) ++lo;
    while (hi > lo && (line[hi - 1] == ' ' || line[hi - 1] == '\t' ||
                       line[hi - 1] == '\r')) {
      --hi;
    }
    fields[count++] = line.substr(lo, hi - lo);
    if (end == line.size()) return count;
    begin = end + 1;
  }
  return count;
}

/// Numeric parse only — "inf"/"nan" are accepted here (strtod parses
/// them); the caller classifies non-finite values separately so the stats
/// can tell wire corruption from poisoned-but-well-formed rows. A field
/// from_chars does not take whole (a leading '+', hex, "1e400", junk)
/// goes through strtod on a NUL-terminated copy, which decides it.
bool ParseDouble(std::string_view s, double* out) {
  if (s.empty()) return false;
  const char* last = s.data() + s.size();
  double v = 0.0;
  const auto [ptr, ec] = std::from_chars(s.data(), last, v);
  if (ec != std::errc() || ptr != last) {
    const std::string copy(s);
    char* end = nullptr;
    v = std::strtod(copy.c_str(), &end);
    if (end != copy.c_str() + copy.size()) return false;
  }
  *out = v;
  return true;
}

/// Non-negative decimal integer; a value above UINT64_MAX is malformed
/// rather than clamped. Fallback as in ParseDouble, through strtoull.
bool ParseCoord(std::string_view s, Coord* out) {
  if (s.empty() || s[0] == '-') return false;
  const char* last = s.data() + s.size();
  Coord v = 0;
  const auto [ptr, ec] = std::from_chars(s.data(), last, v);
  if (ec != std::errc() || ptr != last) {
    const std::string copy(s);
    char* end = nullptr;
    errno = 0;
    v = std::strtoull(copy.c_str(), &end, 10);
    if (end != copy.c_str() + copy.size() || errno == ERANGE) return false;
  }
  *out = v;
  return true;
}

}  // namespace

TraceReader::TraceReader(std::istream& in, Options opt)
    : in_(in), opt_(opt), buf_(kBlockBytes) {
  if (opt_.batch_size == 0) opt_.batch_size = 1;
}

TraceReader::RowStatus TraceReader::ParseLine(std::string_view line,
                                              TimedItem* out) const {
  std::string_view fields[5];
  const std::size_t n = SplitFields(line, opt_.delimiter, fields, 5);
  if (n < 3) return RowStatus::kMalformed;
  double ts = 0.0, weight = 0.0;
  Coord key = 0;
  if (!ParseDouble(fields[0], &ts) || !ParseCoord(fields[1], &key) ||
      key > std::numeric_limits<KeyId>::max() ||
      !ParseDouble(fields[2], &weight)) {
    return RowStatus::kMalformed;
  }
  if (!std::isfinite(ts) || !std::isfinite(weight)) {
    return RowStatus::kNonFinite;
  }
  out->ts = ts;
  out->item.id = static_cast<KeyId>(key);
  out->item.weight = weight;
  out->item.pt = {key, 0};
  if (n >= 4 && !ParseCoord(fields[3], &out->item.pt.x)) {
    return RowStatus::kMalformed;
  }
  if (n >= 5 && !ParseCoord(fields[4], &out->item.pt.y)) {
    return RowStatus::kMalformed;
  }
  return RowStatus::kOk;
}

void TraceReader::Refill() {
  const std::size_t tail = end_ - pos_;
  if (tail == buf_.size()) {
    buf_.resize(2 * buf_.size());  // one line fills the buffer
  } else if (pos_ > 0) {
    std::memmove(buf_.data(), buf_.data() + pos_, tail);
  }
  pos_ = 0;
  end_ = tail;
  in_.read(buf_.data() + end_,
           static_cast<std::streamsize>(buf_.size() - end_));
  end_ += static_cast<std::size_t>(in_.gcount());
  // A short read sets failbit: the stream is exhausted.
  if (!in_) eof_ = true;
}

bool TraceReader::NextLine(std::string_view* line) {
  for (;;) {
    const char* base = buf_.data();
    const void* nl = std::memchr(base + pos_, '\n', end_ - pos_);
    if (nl != nullptr) {
      const std::size_t at =
          static_cast<std::size_t>(static_cast<const char*>(nl) - base);
      *line = std::string_view(base + pos_, at - pos_);
      pos_ = at + 1;
      return true;
    }
    if (eof_) {
      if (pos_ == end_) return false;
      *line = std::string_view(base + pos_, end_ - pos_);
      pos_ = end_;
      return true;
    }
    Refill();
  }
}

bool TraceReader::NextBatch(std::vector<TimedItem>* out) {
  static telemetry::Histogram* const parse_ns =
      telemetry::GetHistogram("sas.data.parse_ns");
  telemetry::Span span("data.parse", parse_ns);
  out->clear();
  FaultInjector& faults =
      opt_.faults != nullptr ? *opt_.faults : FaultInjector::Global();
  // Telemetry mirrors of TraceStats, bumped once per batch (not per row)
  // from the stats deltas below, so an armed process pays no per-row cost.
  const TraceStats before = stats_;
  std::string_view line;
  TimedItem record;
  while (out->size() < opt_.batch_size && NextLine(&line)) {
    // Skip blanks and comments cheaply (before any field parsing).
    std::size_t first = 0;
    while (first < line.size() &&
           (line[first] == ' ' || line[first] == '\t' ||
            line[first] == '\r')) {
      ++first;
    }
    if (first == line.size() || line[first] == '#') continue;

    const RowStatus status = ParseLine(line, &record);
    if (status == RowStatus::kOk) {
      first_data_line_ = false;
      // The trace.row fault site corrupts this (otherwise good) row: it is
      // dropped and counted as malformed, like a row mangled on the wire.
      if (faults.armed() && faults.Poll(fault_sites::kTraceRow)) {
        ++stats_.malformed;
        continue;
      }
      ++stats_.parsed;
      out->push_back(record);
    } else if (first_data_line_) {
      // A non-parsing first data line is a header; skip it silently.
      first_data_line_ = false;
    } else if (status == RowStatus::kNonFinite) {
      ++stats_.nonfinite;
    } else {
      ++stats_.malformed;
    }
  }
  if (telemetry::Enabled()) {
    static telemetry::Counter* const rows =
        telemetry::GetCounter("sas.trace.rows");
    static telemetry::Counter* const malformed =
        telemetry::GetCounter("sas.trace.malformed");
    static telemetry::Counter* const nonfinite =
        telemetry::GetCounter("sas.trace.nonfinite");
    rows->Inc(stats_.parsed - before.parsed);
    malformed->Inc(stats_.malformed - before.malformed);
    nonfinite->Inc(stats_.nonfinite - before.nonfinite);
  }
  return !out->empty();
}

}  // namespace sas

#include "data/trace_reader.h"

#include <cerrno>
#include <cfloat>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <limits>
#include <string>

#include "core/fault.h"
#include "core/telemetry.h"

namespace sas {

namespace {

/// Initial read block; a longer line doubles the buffer.
constexpr std::size_t kBlockBytes = std::size_t{64} << 10;

// The plain path's one division must round once, to double.
static_assert(FLT_EVAL_METHOD == 0, "double arithmetic must not be widened");

/// 19 decimal digits always fit a uint64_t.
constexpr std::ptrdiff_t kMaxDigits = 19;
/// 10^0 .. 10^18, each exact in a double: the scales a plain decimal of
/// at most kMaxDigits digits, one of them before the '.', can have.
constexpr double kPow10[kMaxDigits] = {
    1e0,  1e1,  1e2,  1e3,  1e4,  1e5,  1e6,  1e7,  1e8,  1e9,
    1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18};
/// Significands up to 2^53 convert to a double exactly.
constexpr std::uint64_t kMaxExactSig = std::uint64_t{1} << 53;

/// Reads the digit run at `*p` (stopping at `end`) into `*v`, advancing
/// `*p` past it, and returns its length. A run longer than kMaxDigits
/// wraps `*v`; callers reject it by length.
std::ptrdiff_t ScanDigits(const char** p, const char* end, std::uint64_t* v) {
  const char* const begin = *p;
  const char* q = begin;
  std::uint64_t acc = *v;
  while (q != end && static_cast<unsigned char>(*q - '0') < 10) {
    acc = acc * 10 + static_cast<unsigned char>(*q - '0');
    ++q;
  }
  *p = q;
  *v = acc;
  return q - begin;
}

/// `digits` of at most kMaxDigits, as a key or coordinate.
bool ScanPlainInt(const char** p, const char* end, std::uint64_t* out) {
  std::uint64_t v = 0;
  const std::ptrdiff_t n = ScanDigits(p, end, &v);
  if (n == 0 || n > kMaxDigits) return false;
  *out = v;
  return true;
}

/// A `digits[.digits]` field as its significand and scale.
struct PlainDecimal {
  std::uint64_t sig = 0;
  std::size_t scale = 0;
};

/// `digits[.digits]` with at most kMaxDigits digits in all and a
/// significand a double holds exactly.
bool ScanPlainDecimal(const char** p, const char* end, PlainDecimal* out) {
  std::uint64_t sig = 0;
  std::ptrdiff_t digits = ScanDigits(p, end, &sig);
  if (digits == 0) return false;
  std::ptrdiff_t scale = 0;
  if (*p != end && **p == '.') {
    ++*p;
    scale = ScanDigits(p, end, &sig);
    if (scale == 0) return false;
    digits += scale;
  }
  if (digits > kMaxDigits || sig > kMaxExactSig) return false;
  *out = {sig, static_cast<std::size_t>(scale)};
  return true;
}

/// Clinger's fast path: one correctly rounded division of two exact
/// doubles, so the bits are strtod's.
double ToDouble(PlainDecimal d) {
  return static_cast<double>(d.sig) / kPow10[d.scale];
}

/// One walk over a plain row, splitting and converting as it goes:
///
///   digits[.digits] D digits D digits[.digits] [D digits [D digits [D ...]]]
///
/// for delimiter D, after stripping one trailing '\r'. Fills `*out` and
/// returns true only where the general path would return the same record;
/// false sends the line to the general path. A delimiter that can sit
/// inside a number ('0'-'9', '.') or that the '\r' strip would eat never
/// takes this path.
bool ParsePlainRow(std::string_view line, char delim, TimedItem* out) {
  if (static_cast<unsigned char>(delim - '0') < 10 || delim == '.' ||
      delim == '\r') {
    return false;
  }
  const char* p = line.data();
  const char* end = p + line.size();
  if (p != end && end[-1] == '\r') --end;
  PlainDecimal ts, weight;
  std::uint64_t key = 0;
  if (!ScanPlainDecimal(&p, end, &ts) || p == end || *p++ != delim ||
      !ScanPlainInt(&p, end, &key) ||
      key > std::numeric_limits<KeyId>::max() || p == end ||
      *p++ != delim || !ScanPlainDecimal(&p, end, &weight)) {
    return false;
  }
  Point2D pt{key, 0};
  if (p != end) {
    if (*p++ != delim || !ScanPlainInt(&p, end, &pt.x)) return false;
    if (p != end) {
      if (*p++ != delim || !ScanPlainInt(&p, end, &pt.y)) return false;
      if (p != end && *p != delim) return false;
    }
  }
  out->ts = ToDouble(ts);
  out->item.id = static_cast<KeyId>(key);
  out->item.weight = ToDouble(weight);
  out->item.pt = pt;
  return true;
}

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
/// rather than clamped. Fallback as in ParseDouble, through strtoull —
/// which skips leading whitespace (e.g. '\v', '\f') and then accepts a
/// '-' by wrapping the value, so a '-' after that whitespace is rejected
/// first.
bool ParseCoord(std::string_view s, Coord* out) {
  if (s.empty()) return false;
  const char* last = s.data() + s.size();
  Coord v = 0;
  const auto [ptr, ec] = std::from_chars(s.data(), last, v);
  if (ec != std::errc() || ptr != last) {
    const std::string copy(s);
    const std::size_t first = copy.find_first_not_of(" \t\n\v\f\r");
    if (first != std::string::npos && copy[first] == '-') return false;
    char* end = nullptr;
    errno = 0;
    v = std::strtoull(copy.c_str(), &end, 10);
    if (end != copy.c_str() + copy.size() || errno == ERANGE) return false;
  }
  *out = v;
  return true;
}

/// True when the first field of `line` parses as a number: a first data
/// line that does is data, never a header.
bool NumericTimestamp(std::string_view line, char delim) {
  std::string_view ts;
  SplitFields(line, delim, &ts, 1);
  double v = 0.0;
  return ParseDouble(ts, &v);
}

}  // namespace

TraceReader::TraceReader(std::istream& in, Options opt)
    : in_(in), opt_(opt), buf_(kBlockBytes) {
  if (opt_.batch_size == 0) opt_.batch_size = 1;
}

TraceReader::RowStatus TraceReader::ParseLine(std::string_view line,
                                              TimedItem* out) const {
  if (ParsePlainRow(line, opt_.delimiter, out)) return RowStatus::kOk;
  // Every other spelling: split, trim and convert field by field.
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
    if (first_data_line_) {
      first_data_line_ = false;
      // A first data line that does not parse and whose timestamp is not a
      // number is a header; skip it silently.
      if (status != RowStatus::kOk &&
          !NumericTimestamp(line, opt_.delimiter)) {
        continue;
      }
    }
    if (status == RowStatus::kOk) {
      // The trace.row fault site corrupts this (otherwise good) row: it is
      // dropped and counted as malformed, like a row mangled on the wire.
      if (faults.armed() && faults.Poll(fault_sites::kTraceRow)) {
        ++stats_.malformed;
        continue;
      }
      ++stats_.parsed;
      out->push_back(record);
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

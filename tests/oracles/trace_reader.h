// GetlineTraceReader: a line-at-a-time CSV trace reader — std::getline per
// row, one std::string per field, strtod/strtoull through c_str() — with
// TraceReader's options, row classes and header rule. A test oracle: the
// differential test in tests/data/trace_reader_test.cc checks that the
// block-buffered TraceReader emits the same batches, records and
// TraceStats on every row whose fields are in range.
//
// It keeps two behaviours TraceReader dropped on purpose, which the
// differential test therefore excludes: a key above UINT32_MAX is
// truncated into KeyId, and a coordinate above UINT64_MAX is clamped to
// ULLONG_MAX. TraceReader counts both as malformed.

#ifndef SAS_TESTS_ORACLES_TRACE_READER_H_
#define SAS_TESTS_ORACLES_TRACE_READER_H_

#include <cmath>
#include <cstddef>
#include <cstdlib>
#include <istream>
#include <string>
#include <vector>

#include "core/fault.h"
#include "data/trace_reader.h"

namespace sas {
namespace oracle {

/// Splits `line` on `delim` into at most `max_fields` trimmed copies stored
/// in `fields`; returns the field count. Surrounding spaces/tabs and a
/// trailing '\r' (CRLF input) are trimmed.
inline std::size_t SplitFields(const std::string& line, char delim,
                               std::string* fields, std::size_t max_fields) {
  std::size_t count = 0;
  std::size_t begin = 0;
  while (count < max_fields) {
    std::size_t end = line.find(delim, begin);
    if (end == std::string::npos) end = line.size();
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

inline bool ParseDouble(const std::string& s, double* out) {
  if (s.empty()) return false;
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (end != s.c_str() + s.size()) return false;
  *out = v;
  return true;
}

inline bool ParseCoord(const std::string& s, Coord* out) {
  if (s.empty() || s[0] == '-') return false;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
  if (end != s.c_str() + s.size()) return false;
  *out = static_cast<Coord>(v);
  return true;
}

class GetlineTraceReader {
 public:
  GetlineTraceReader(std::istream& in, TraceReader::Options opt)
      : in_(in), opt_(opt) {
    if (opt_.batch_size == 0) opt_.batch_size = 1;
  }

  bool NextBatch(std::vector<TimedItem>* out) {
    out->clear();
    FaultInjector& faults =
        opt_.faults != nullptr ? *opt_.faults : FaultInjector::Global();
    std::string line;
    TimedItem record;
    while (out->size() < opt_.batch_size && std::getline(in_, line)) {
      std::size_t first = 0;
      while (first < line.size() &&
             (line[first] == ' ' || line[first] == '\t' ||
              line[first] == '\r')) {
        ++first;
      }
      if (first == line.size() || line[first] == '#') continue;

      const Status status = ParseLine(line, &record);
      if (first_data_line_) {
        first_data_line_ = false;
        std::string ts;
        double v = 0.0;
        SplitFields(line, opt_.delimiter, &ts, 1);
        if (status != Status::kOk && !ParseDouble(ts, &v)) continue;
      }
      if (status == Status::kOk) {
        if (faults.armed() && faults.Poll(fault_sites::kTraceRow)) {
          ++stats_.malformed;
          continue;
        }
        ++stats_.parsed;
        out->push_back(record);
      } else if (status == Status::kNonFinite) {
        ++stats_.nonfinite;
      } else {
        ++stats_.malformed;
      }
    }
    return !out->empty();
  }

  const TraceStats& stats() const { return stats_; }

 private:
  enum class Status { kOk, kMalformed, kNonFinite };

  Status ParseLine(const std::string& line, TimedItem* out) const {
    std::string fields[5];
    const std::size_t n = SplitFields(line, opt_.delimiter, fields, 5);
    if (n < 3) return Status::kMalformed;
    double ts = 0.0, weight = 0.0;
    Coord key = 0;
    if (!ParseDouble(fields[0], &ts) || !ParseCoord(fields[1], &key) ||
        !ParseDouble(fields[2], &weight)) {
      return Status::kMalformed;
    }
    if (!std::isfinite(ts) || !std::isfinite(weight)) {
      return Status::kNonFinite;
    }
    out->ts = ts;
    out->item.id = static_cast<KeyId>(key);
    out->item.weight = weight;
    out->item.pt = {key, 0};
    if (n >= 4 && !ParseCoord(fields[3], &out->item.pt.x)) {
      return Status::kMalformed;
    }
    if (n >= 5 && !ParseCoord(fields[4], &out->item.pt.y)) {
      return Status::kMalformed;
    }
    return Status::kOk;
  }

  std::istream& in_;
  TraceReader::Options opt_;
  TraceStats stats_;
  bool first_data_line_ = true;
};

}  // namespace oracle
}  // namespace sas

#endif  // SAS_TESTS_ORACLES_TRACE_READER_H_

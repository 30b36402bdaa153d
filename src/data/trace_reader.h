// Minimal CSV trace reader for timestamped weighted-key streams, the ingest
// side of the time-windowed backend (window/windowed.h):
//
//   timestamp,key,weight[,x[,y]]
//
// One record per line. `timestamp` is a decimal time in the caller's units,
// `key` the integer key id (at most UINT32_MAX), `weight` the item weight;
// the optional `x`/`y` columns place the key in the 2-D domain (default:
// x = key, y = 0; at most UINT64_MAX). Blank lines and lines starting with
// '#' are skipped; a first data line that does not parse is a header, and
// is skipped, only when its first field is not a number (`1.0,5,inf` as a
// first line is counted, not skipped); malformed lines are counted and
// skipped rather than aborting a long ingest.
//
// Accepted field syntax: after trimming surrounding spaces/tabs (and a
// trailing '\r', for CRLF input), a timestamp or weight is what `strtod`
// accepts as a whole field, and a key or coordinate is what `strtoull`
// (base 10) accepts as a whole field, minus any field whose first
// non-whitespace character is '-' (strtoull would wrap it). Fields beyond
// the fifth are ignored.
//
// Parsing is exact on two paths. A plain row,
//
//   digits[.digits] D digits D digits[.digits] [D digits [D digits]]
//
// for delimiter D (not a digit, '.' or '\r'), after one trailing '\r' is
// stripped and with anything after a fifth field ignored, is split and
// converted in one walk over its bytes: integers of at most 19 digits
// accumulate in a uint64_t, and a decimal of at most 19 digits whose
// significand is at most 2^53 is one correctly rounded division
// (significand / 10^scale, scale at most 18) of two exact doubles, which
// is the value strtod returns. Every other line (signs, padding,
// exponents, hex, inf/nan, longer numbers, keys above UINT32_MAX, headers)
// runs the general path: split and trim the fields, then convert each
// with `std::from_chars`, falling back to strtod/strtoull for what it does
// not take whole. Both paths give a row the same record and class bit for
// bit.
//
// The reader reads its stream in 64 KiB blocks and splits lines in place,
// so it reads ahead of the rows it has emitted: the stream belongs to the
// reader until it is destroyed.
//
// The reader emits batches sized for Summarizer::AddBatch hand-off, so a
// driver loop is:
//
//   TraceReader reader(file);
//   std::vector<TimedItem> batch;
//   while (reader.NextBatch(&batch)) {
//     for (const TimedItem& r : batch) win->AddTimed(r.ts, r.item);
//   }

#ifndef SAS_DATA_TRACE_READER_H_
#define SAS_DATA_TRACE_READER_H_

#include <cstddef>
#include <istream>
#include <string_view>
#include <vector>

#include "core/types.h"

namespace sas {

class FaultInjector;

/// One parsed trace record: arrival time plus the weighted key.
struct TimedItem {
  double ts = 0.0;
  WeightedKey item;
};

/// Per-class ingest counters: every data line lands in exactly one bucket
/// (comments, blanks, and the detected header line land in none). A
/// monitor that prints parsed/malformed/nonfinite sees every drop a long
/// ingest made — nothing is skipped silently.
struct TraceStats {
  /// Lines parsed into a TimedItem and emitted.
  std::size_t parsed = 0;
  /// Lines dropped because they do not parse: too few fields, non-numeric
  /// timestamp/key/weight, a key above UINT32_MAX, bad or out-of-range
  /// coordinate columns (also counts rows corrupted by the `trace.row`
  /// fault site).
  std::size_t malformed = 0;
  /// Lines dropped because they parse numerically but carry a non-finite
  /// timestamp or weight (an "inf"/"nan" spelling, or a decimal beyond the
  /// double range such as "1e400").
  std::size_t nonfinite = 0;
};

class TraceReader {
 public:
  struct Options {
    /// Records per NextBatch call (matches the sharded wrapper's hand-off
    /// batch size by default).
    std::size_t batch_size = 4096;
    char delimiter = ',';
    /// Fault injector driving the `trace.row` site (borrowed; must outlive
    /// the reader). Null falls back to FaultInjector::Global(). A firing
    /// `fail` rule corrupts that row — it is dropped and counted as
    /// malformed — rather than throwing, mimicking wire corruption.
    FaultInjector* faults = nullptr;
  };

  /// The stream must outlive the reader, which reads ahead of the rows it
  /// has emitted (see the file comment).
  explicit TraceReader(std::istream& in) : TraceReader(in, Options()) {}
  TraceReader(std::istream& in, Options opt);

  /// Fills `*out` (cleared first) with up to batch_size records. Returns
  /// true when at least one record was read; false at end of input.
  bool NextBatch(std::vector<TimedItem>* out);

  /// Per-class ingest counters so far.
  const TraceStats& stats() const { return stats_; }

  /// Records successfully parsed so far (== stats().parsed).
  std::size_t records_read() const { return stats_.parsed; }
  /// Data lines dropped so far, all classes (comments, blanks, and the
  /// header do not count); == stats().malformed + stats().nonfinite.
  std::size_t lines_skipped() const {
    return stats_.malformed + stats_.nonfinite;
  }

 private:
  /// How ParseLine classified one data line.
  enum class RowStatus { kOk, kMalformed, kNonFinite };

  RowStatus ParseLine(std::string_view line, TimedItem* out) const;

  /// Points `*line` at the next line in the buffer, without its '\n'
  /// (valid until the next call); false at end of input. A final line with
  /// no '\n' is still a line.
  bool NextLine(std::string_view* line);

  /// Moves the unconsumed tail to the front of the buffer (doubling the
  /// buffer when the tail fills it) and reads the stream into the rest.
  void Refill();

  std::istream& in_;
  Options opt_;
  TraceStats stats_;
  bool first_data_line_ = true;
  std::vector<char> buf_;
  std::size_t pos_ = 0;  // first unconsumed byte of buf_
  std::size_t end_ = 0;  // one past the last byte read into buf_
  bool eof_ = false;     // the stream has no more bytes
};

}  // namespace sas

#endif  // SAS_DATA_TRACE_READER_H_

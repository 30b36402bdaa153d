#include "data/trace_reader.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <sstream>
#include <streambuf>
#include <string>
#include <vector>

#include "core/fault.h"
#include "core/random.h"
#include "core/telemetry.h"
#include "oracles/trace_reader.h"
#include "oracles/trace_rows.h"

namespace sas {
namespace {

TEST(TraceReader, ParsesMinimalThreeColumnLines) {
  std::istringstream in("0.5,7,12.25\n1.75,9,3\n");
  TraceReader reader(in);
  std::vector<TimedItem> batch;
  ASSERT_TRUE(reader.NextBatch(&batch));
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_DOUBLE_EQ(batch[0].ts, 0.5);
  EXPECT_EQ(batch[0].item.id, 7u);
  EXPECT_DOUBLE_EQ(batch[0].item.weight, 12.25);
  // Without x/y columns the key doubles as the x coordinate.
  EXPECT_EQ(batch[0].item.pt.x, 7u);
  EXPECT_EQ(batch[0].item.pt.y, 0u);
  EXPECT_DOUBLE_EQ(batch[1].ts, 1.75);
  EXPECT_FALSE(reader.NextBatch(&batch));
  EXPECT_EQ(reader.records_read(), 2u);
  EXPECT_EQ(reader.lines_skipped(), 0u);
}

TEST(TraceReader, ParsesOptionalCoordinateColumns) {
  std::istringstream in("1,42,2.5,1000\n2,43,3.5,2000,3000\n");
  TraceReader reader(in);
  std::vector<TimedItem> batch;
  ASSERT_TRUE(reader.NextBatch(&batch));
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch[0].item.pt.x, 1000u);
  EXPECT_EQ(batch[0].item.pt.y, 0u);
  EXPECT_EQ(batch[1].item.pt.x, 2000u);
  EXPECT_EQ(batch[1].item.pt.y, 3000u);
}

TEST(TraceReader, BatchSizeBoundsEachCall) {
  std::string csv;
  for (int i = 0; i < 10; ++i) csv += std::to_string(i) + ",1,1\n";
  std::istringstream in(csv);
  TraceReader::Options opt;
  opt.batch_size = 4;
  TraceReader reader(in, opt);
  std::vector<TimedItem> batch;
  std::vector<std::size_t> sizes;
  while (reader.NextBatch(&batch)) sizes.push_back(batch.size());
  ASSERT_EQ(sizes.size(), 3u);
  EXPECT_EQ(sizes[0], 4u);
  EXPECT_EQ(sizes[1], 4u);
  EXPECT_EQ(sizes[2], 2u);
  EXPECT_EQ(reader.records_read(), 10u);
}

TEST(TraceReader, SkipsHeaderCommentsBlanksAndMalformedLines) {
  const std::string csv =
      "timestamp,key,weight\n"       // header: skipped silently
      "# collector v2 export\n"      // comment
      "\n"                           // blank
      "   \t\n"                      // whitespace-only
      "1.0,1,2.0\n"                  // good
      "not,a,record\n"               // malformed: counted
      "2.0,-3,1.0\n"                 // negative key: malformed
      "3.0,2\n"                      // too few fields: malformed
      "4.0,3,inf\n"                  // non-finite weight: malformed
      "5.0,4,4.0\r\n";               // CRLF line endings parse
  std::istringstream in(csv);
  TraceReader reader(in);
  std::vector<TimedItem> batch;
  std::vector<TimedItem> all;
  while (reader.NextBatch(&batch)) {
    all.insert(all.end(), batch.begin(), batch.end());
  }
  ASSERT_EQ(all.size(), 2u);
  EXPECT_DOUBLE_EQ(all[0].ts, 1.0);
  EXPECT_DOUBLE_EQ(all[1].ts, 5.0);
  EXPECT_DOUBLE_EQ(all[1].item.weight, 4.0);
  EXPECT_EQ(reader.records_read(), 2u);
  EXPECT_EQ(reader.lines_skipped(), 4u);
}

TEST(TraceReader, EmptyStream) {
  std::istringstream in("");
  TraceReader reader(in);
  std::vector<TimedItem> batch{{1.0, {0, 1.0, {0, 0}}}};
  EXPECT_FALSE(reader.NextBatch(&batch));
  EXPECT_TRUE(batch.empty());  // cleared even at EOF
  EXPECT_EQ(reader.records_read(), 0u);
}

TEST(TraceReader, StatsClassifyEveryMalformedRowClass) {
  // One row per malformed/non-finite class, bracketed by good rows (the
  // leading good row claims the silent header-skip slot, so every bad row
  // below is counted). lines_skipped() stays the sum of both counters.
  const std::string csv =
      "1.0,1,2.0\n"        // good
      "2.0,2\n"            // too few fields: malformed
      "x,3,1.0\n"          // unparseable timestamp: malformed
      "3.0,-4,1.0\n"       // negative key: malformed
      "4.0,5,1.0,zz\n"     // unparseable x coordinate: malformed
      "5.0,6,inf\n"        // infinite weight: non-finite
      "6.0,7,nan\n"        // NaN weight: non-finite
      "inf,8,1.0\n"        // infinite timestamp: non-finite
      "7.0,9,3.0\n";       // good
  std::istringstream in(csv);
  TraceReader reader(in);
  std::vector<TimedItem> batch;
  std::vector<TimedItem> all;
  while (reader.NextBatch(&batch)) {
    all.insert(all.end(), batch.begin(), batch.end());
  }
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(reader.stats().parsed, 2u);
  EXPECT_EQ(reader.stats().malformed, 4u);
  EXPECT_EQ(reader.stats().nonfinite, 3u);
  EXPECT_EQ(reader.records_read(), 2u);
  EXPECT_EQ(reader.lines_skipped(), 7u);
}

TEST(TraceReader, MinusAfterLeadingWhitespaceInCoordinateIsMalformed) {
  // strtoull skips '\v'/'\f' and would wrap "-5" to 2^64-5; the reader
  // rejects the sign instead. Whitespace before a digit still parses.
  const std::string csv = std::string("1.0,1,2.0,\v5,\f7\n") +  // good
                          "2.0,2,1.0,\v-5,3\n" +   // x: malformed
                          "3.0,3,1.0,4,\v-5\n" +   // y: malformed
                          "4.0,4,1.0,\f-1,3\n" +   // x: malformed
                          "5.0,5,1.0,4,\f-1\n" +   // y: malformed
                          "6.0,6,1.0,\v 5,6\n";    // good
  std::istringstream in(csv);
  TraceReader reader(in);
  std::vector<TimedItem> batch;
  std::vector<TimedItem> all;
  while (reader.NextBatch(&batch)) {
    all.insert(all.end(), batch.begin(), batch.end());
  }
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[0].item.pt.x, 5u);
  EXPECT_EQ(all[0].item.pt.y, 7u);
  EXPECT_EQ(all[1].item.pt.x, 5u);
  EXPECT_EQ(reader.stats().parsed, 2u);
  EXPECT_EQ(reader.stats().malformed, 4u);
}

TEST(TraceReader, HeaderLineIsNotCountedAgainstStats) {
  std::istringstream in("ts,key,weight\n1.0,1,2.0\n");
  TraceReader reader(in);
  std::vector<TimedItem> batch;
  ASSERT_TRUE(reader.NextBatch(&batch));
  EXPECT_EQ(reader.stats().parsed, 1u);
  EXPECT_EQ(reader.stats().malformed, 0u);
  EXPECT_EQ(reader.stats().nonfinite, 0u);
}

TEST(TraceReader, NumericFirstLineIsCountedNotSkippedAsHeader) {
  // Only a first line whose timestamp is not a number is a header; a bad
  // first row with a numeric timestamp lands in a stats bucket.
  struct Case {
    const char* first;
    std::size_t malformed, nonfinite;
  };
  for (const Case& c : {Case{"1.0,5,inf", 0, 1}, Case{"1.0,5,2.0,-3", 1, 0},
                        Case{"1.0,2", 1, 0}, Case{"ts,key,weight", 0, 0}}) {
    SCOPED_TRACE(c.first);
    std::istringstream in(std::string(c.first) + "\n2.0,1,3.0\n");
    TraceReader reader(in);
    std::vector<TimedItem> batch;
    ASSERT_TRUE(reader.NextBatch(&batch));
    EXPECT_EQ(reader.stats().parsed, 1u);
    EXPECT_EQ(reader.stats().malformed, c.malformed);
    EXPECT_EQ(reader.stats().nonfinite, c.nonfinite);
  }
}

TEST(TraceReader, TraceRowFaultCorruptsGoodRowsDeterministically) {
  // The trace.row fault site drops otherwise-good rows as if mangled on
  // the wire: schedule fail@2/2 corrupts every even good row. Bad rows
  // never reach the site (only parsed rows count as hits).
  std::string csv;
  for (int i = 0; i < 6; ++i) {
    csv += std::to_string(i) + ",1,1.0\n";
    csv += "bad,row\n";
  }
  FaultInjector faults;
  faults.Configure("trace.row=fail@2/2");
  TraceReader::Options opt;
  opt.faults = &faults;
  std::istringstream in(csv);
  TraceReader reader(in, opt);
  std::vector<TimedItem> batch;
  std::vector<TimedItem> all;
  while (reader.NextBatch(&batch)) {
    all.insert(all.end(), batch.begin(), batch.end());
  }
  // Good rows 2, 4, 6 corrupted; 1, 3, 5 survive. The leading good row
  // claimed the header-skip slot, so all six "bad,row" lines count as
  // malformed, plus the three corrupted rows.
  ASSERT_EQ(all.size(), 3u);
  EXPECT_DOUBLE_EQ(all[0].ts, 0.0);
  EXPECT_DOUBLE_EQ(all[1].ts, 2.0);
  EXPECT_DOUBLE_EQ(all[2].ts, 4.0);
  EXPECT_EQ(reader.stats().parsed, 3u);
  EXPECT_EQ(reader.stats().malformed, 9u);
  EXPECT_EQ(faults.HitCount("trace.row"), 6u);
}

TEST(TraceReader, SpacePaddingAndCustomDelimiter) {
  std::istringstream in(" 1.5 ;\t8 ; 2.5 \n");
  TraceReader::Options opt;
  opt.delimiter = ';';
  TraceReader reader(in, opt);
  std::vector<TimedItem> batch;
  ASSERT_TRUE(reader.NextBatch(&batch));
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_DOUBLE_EQ(batch[0].ts, 1.5);
  EXPECT_EQ(batch[0].item.id, 8u);
  EXPECT_DOUBLE_EQ(batch[0].item.weight, 2.5);
}


std::vector<TimedItem> ReadAll(TraceReader* reader) {
  std::vector<TimedItem> batch;
  std::vector<TimedItem> all;
  while (reader->NextBatch(&batch)) {
    all.insert(all.end(), batch.begin(), batch.end());
  }
  return all;
}

TEST(TraceReader, KeyAboveUint32MaxIsMalformed) {
  // 4294967295 is the largest KeyId; one more used to wrap into key 0 (and
  // 4294967301 into key 5) while pt.x kept the full value.
  std::istringstream in(
      "1.0,1,2.0\n"
      "2.0,4294967295,1.0\n"
      "3.0,4294967296,1.0\n"
      "4.0,4294967301,1.0\n"
      "5.0,99999999999999999999999,1.0\n");
  TraceReader reader(in);
  const std::vector<TimedItem> all = ReadAll(&reader);
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[1].item.id, 4294967295u);
  EXPECT_EQ(all[1].item.pt.x, 4294967295u);
  EXPECT_EQ(reader.stats().parsed, 2u);
  EXPECT_EQ(reader.stats().malformed, 3u);
  EXPECT_EQ(reader.stats().nonfinite, 0u);
}

TEST(TraceReader, CoordinateAboveUint64MaxIsMalformed) {
  // strtoull clamps an overflowing coordinate to ULLONG_MAX; the reader
  // rejects it instead of emitting the clamped point.
  std::istringstream in(
      "1.0,1,2.0\n"
      "2.0,2,1.0,18446744073709551615,18446744073709551615\n"
      "3.0,3,1.0,18446744073709551616\n"
      "4.0,4,1.0,5,18446744073709551616\n"
      "5.0,5,1.0,+18446744073709551616\n");
  TraceReader reader(in);
  const std::vector<TimedItem> all = ReadAll(&reader);
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[1].item.pt.x, std::numeric_limits<Coord>::max());
  EXPECT_EQ(all[1].item.pt.y, std::numeric_limits<Coord>::max());
  EXPECT_EQ(reader.stats().parsed, 2u);
  EXPECT_EQ(reader.stats().malformed, 3u);
}

TEST(TraceReader, LinesLongerThanTheReadBlockParse) {
  // A field padded past any read block, a long ignored sixth field, and a
  // final row with no '\n': all three are rows, as with getline.
  const std::string pad(300000, ' ');
  const std::string csv = "1.0,1," + pad + "2.0" + pad + "\n" +
                          "2.0,2,3.0,4,5," + std::string(200000, 'z') +
                          "\n" + "3.0,3,4.0";
  std::istringstream in(csv);
  TraceReader reader(in);
  const std::vector<TimedItem> all = ReadAll(&reader);
  ASSERT_EQ(all.size(), 3u);
  EXPECT_DOUBLE_EQ(all[0].item.weight, 2.0);
  EXPECT_EQ(all[1].item.pt.y, 5u);
  EXPECT_DOUBLE_EQ(all[2].item.weight, 4.0);
  EXPECT_EQ(reader.lines_skipped(), 0u);
}

// --- Differential test against the getline reader -------------------------

/// Read-only streambuf handing out 1-17 bytes per underflow, so rows and
/// block refills straddle its chunk edges.
class ChunkedBuf : public std::streambuf {
 public:
  ChunkedBuf(const std::string& text, std::uint64_t seed)
      : text_(text), rng_(seed) {}

 protected:
  int_type underflow() override {
    if (gptr() < egptr()) return traits_type::to_int_type(*gptr());
    if (next_ == text_.size()) return traits_type::eof();
    const std::size_t n = std::min<std::size_t>(1 + rng_.NextBounded(17),
                                                text_.size() - next_);
    char* p = const_cast<char*>(text_.data()) + next_;
    setg(p, p, p + n);
    next_ += n;
    return traits_type::to_int_type(*p);
  }

 private:
  const std::string& text_;
  Rng rng_;
  std::size_t next_ = 0;
};

struct Drained {
  std::vector<std::size_t> batch_sizes;
  std::vector<TimedItem> records;
  TraceStats stats;
};

template <class Reader>
Drained Drain(Reader* reader) {
  Drained d;
  std::vector<TimedItem> batch;
  bool more = true;
  while (more) {
    more = reader->NextBatch(&batch);
    d.batch_sizes.push_back(batch.size());
    d.records.insert(d.records.end(), batch.begin(), batch.end());
  }
  d.stats = reader->stats();
  return d;
}

void ExpectSameOutput(const Drained& got, const Drained& want,
                      const std::string& context) {
  SCOPED_TRACE(context);
  EXPECT_EQ(got.stats.parsed, want.stats.parsed);
  EXPECT_EQ(got.stats.malformed, want.stats.malformed);
  EXPECT_EQ(got.stats.nonfinite, want.stats.nonfinite);
  EXPECT_EQ(got.batch_sizes, want.batch_sizes);
  ASSERT_EQ(got.records.size(), want.records.size());
  for (std::size_t i = 0; i < got.records.size(); ++i) {
    const TimedItem& a = got.records[i];
    const TimedItem& b = want.records[i];
    ASSERT_EQ(std::bit_cast<std::uint64_t>(a.ts),
              std::bit_cast<std::uint64_t>(b.ts)) << "record " << i;
    ASSERT_EQ(a.item.id, b.item.id) << "record " << i;
    ASSERT_EQ(std::bit_cast<std::uint64_t>(a.item.weight),
              std::bit_cast<std::uint64_t>(b.item.weight)) << "record " << i;
    ASSERT_EQ(a.item.pt.x, b.item.pt.x) << "record " << i;
    ASSERT_EQ(a.item.pt.y, b.item.pt.y) << "record " << i;
  }
}

/// True for a data line in one of the three classes TraceReader rejects
/// on purpose while the getline reader accepted them: a key above
/// UINT32_MAX (truncated into KeyId), an x/y coordinate above UINT64_MAX
/// (clamped by strtoull), or a key/x/y field whose '-' follows leading
/// whitespace, such as "\v-5" (strtoull skips the whitespace and then
/// wraps the negative value to 2^64-5). These are the only rows the
/// differential test drops.
bool IntentionallyRejectedRow(const std::string& line, char delimiter = ',') {
  std::size_t first = line.find_first_not_of(" \t\r");
  if (first == std::string::npos || line[first] == '#') return false;
  std::string fields[5];
  const std::size_t n = oracle::SplitFields(line, delimiter, fields, 5);
  Coord key = 0;
  if (n >= 2 && oracle::ParseCoord(fields[1], &key) &&
      key > std::numeric_limits<KeyId>::max()) {
    return true;
  }
  for (std::size_t c = 1; c < n; ++c) {
    if (c == 2) continue;  // the weight is a double
    const std::size_t sign = fields[c].find_first_not_of(" \t\n\v\f\r");
    Coord wrapped = 0;
    if (sign != std::string::npos && sign > 0 && fields[c][sign] == '-' &&
        oracle::ParseCoord(fields[c], &wrapped)) {
      return true;
    }
  }
  for (std::size_t c = 3; c < n; ++c) {
    if (fields[c].empty() || fields[c][0] == '-') continue;
    char* end = nullptr;
    errno = 0;
    std::strtoull(fields[c].c_str(), &end, 10);
    if (end == fields[c].c_str() + fields[c].size() && errno == ERANGE) {
      return true;
    }
  }
  return false;
}

/// Runs both readers over `text` with every batch size, with and without a
/// trace.row schedule, over a string stream and a 1-17-byte streambuf.
void ExpectMatchesOracle(const std::string& text, std::uint64_t seed,
                         char delimiter = ',') {
  for (const std::size_t batch_size : {std::size_t{1}, std::size_t{3},
                                       std::size_t{4096}}) {
    for (const bool faulty : {false, true}) {
      for (const bool chunked : {false, true}) {
        const std::string context =
            "seed " + std::to_string(seed) + " batch_size " +
            std::to_string(batch_size) + (faulty ? " trace.row" : "") +
            (chunked ? " chunked" : "");
        FaultInjector oracle_faults, reader_faults;
        if (faulty) {
          oracle_faults.Configure("trace.row=fail@2/3");
          reader_faults.Configure("trace.row=fail@2/3");
        }
        TraceReader::Options opt;
        opt.batch_size = batch_size;
        opt.delimiter = delimiter;
        opt.faults = &oracle_faults;
        std::istringstream oracle_in(text);
        oracle::GetlineTraceReader oracle_reader(oracle_in, opt);
        const Drained want = Drain(&oracle_reader);

        opt.faults = &reader_faults;
        ChunkedBuf chunks(text, seed);
        std::istringstream plain_in(text);
        std::istream chunked_in(&chunks);
        TraceReader reader(chunked ? chunked_in : plain_in, opt);
        ExpectSameOutput(Drain(&reader), want, context);
        EXPECT_EQ(reader_faults.HitCount("trace.row"),
                  oracle_faults.HitCount("trace.row"));
      }
    }
  }
}

TEST(TraceReaderDifferential, MatchesGetlineReaderOnMutatedRows) {
  std::size_t excluded = 0, checked = 0;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    TraceRowMutator mutator(seed);
    Rng rng(seed + 1000);
    // A comment of random length moves the block edges across the rows.
    std::string text = "#" + std::string(rng.NextBounded(512), 'p') + "\n";
    for (int i = 0; i < 3000; ++i) {
      const std::string row = mutator.NextRow();
      if (IntentionallyRejectedRow(row)) {
        ++excluded;
        continue;
      }
      text += row + "\n";
      ++checked;
    }
    if (rng.NextBounded(2) == 0) text.pop_back();  // no final '\n'
    ExpectMatchesOracle(text, seed);
  }
  // The mutator reaches the excluded classes, and they stay a sliver.
  EXPECT_GT(excluded, 0u);
  EXPECT_GT(checked, 50 * excluded);
}

TEST(TraceReaderDifferential, RowsStraddlingTheReadBlockEdge) {
  // A comment pads the first good row onto every offset around the 64 KiB
  // block edge (and the row after it around the next one).
  constexpr std::size_t kBlock = std::size_t{64} << 10;
  for (std::size_t shift = 0; shift < 48; ++shift) {
    const std::size_t pad = kBlock - 24 + shift;
    std::string text = "#" + std::string(pad - 2, 'p') + "\n";
    text += "12.5,3,7.25,100,200\r\n";
    text += std::string(kBlock - 40, ' ') + "1.0,4,2.0\n";
    text += "13.5,5,0x1p3";
    ExpectMatchesOracle(text, shift);
  }
}

TEST(TraceReaderDifferential, PlainPathEdgeRows) {
  // Rows on both sides of each limit of the reader's one-pass plain-row
  // scan: what the scan takes must match the getline reader bit for bit,
  // and what it refuses must still parse as the getline reader parses it.
  const std::vector<std::string> rows = {
      // 19- and 20-digit integers.
      "1.5,7,2.5,1234567890123456789,9999999999999999999",
      "1.5,7,2.5,12345678901234567890,18446744073709551615",
      "1.5,7,2.5,00000000000000000001,0000000000000000000012",
      "1234567890123456789,7,1234567890123456789.5",
      "12345678901234567890,7,1.0",
      // A key of UINT32_MAX (UINT32_MAX + 1 is checked below).
      "2.0,4294967295,1.0",
      "2.0,0004294967295,1.0,4294967296",
      // Significands of 2^53 and 2^53 + 1.
      "9007199254740992,1,9007199254740993",
      "900719925474099.2,1,900719925474099.3",
      "9.007199254740992,1,9.007199254740993",
      "0.9007199254740992,1,90071992547409.93",
      // Scales of 22 and 23.
      "0.0000000000000000000001,1,0.00000000000000000000001",
      "0.0000000000000000000012,1,0.00000000000000000000012",
      "1.0000000000000000000001,1,000000000000000000000.5",
      // Spellings left to the general path.
      "5.,1,.5",
      "-0.0,1,+1",
      "+1,+1,-0.0",
      "007,007,0.000",
      "0.000,1,007.50,007,+7",
      "1.0, 2,3.0",
      "1e3,2,0x10",
      // CRLF, a sixth field, trailing delimiters.
      "3.25,2,4.5\r",
      "3.25,2,4.5,6,7\r",
      "3.25,2,4.5,6,7,junk",
      "3.25,2,4.5,6,7,",
      "3.25,2,4.5,6,",
      "3.25,2,4.5,",
      "3.25,2,4.5\r\r",
      "3.25,2,4.5,6,7x",
  };
  std::string text;
  for (const std::string& row : rows) {
    EXPECT_FALSE(IntentionallyRejectedRow(row)) << row;
    text += row + "\n";
  }
  ExpectMatchesOracle(text, 1);
  // Other delimiters: a tab, ones that can sit inside a number, and '\r'.
  // These split some rows into keys above UINT32_MAX, which are left out.
  for (const char delimiter : {'\t', '.', '5', '\r'}) {
    std::string swapped;
    for (std::string row : rows) {
      std::replace(row.begin(), row.end(), ',', delimiter);
      if (!IntentionallyRejectedRow(row, delimiter)) swapped += row + "\n";
    }
    ExpectMatchesOracle(swapped, 2, delimiter);
  }
  // A final plain row with no '\n' ends on each offset around the 64 KiB
  // read block's edge.
  constexpr std::size_t kBlock = std::size_t{64} << 10;
  const std::string last = "7.5,3,1.25,8,9";
  for (std::size_t shift = 0; shift < 8; ++shift) {
    const std::size_t pad = kBlock - 4 + shift - last.size();
    ExpectMatchesOracle("#" + std::string(pad - 2, 'p') + "\n" + last, shift);
  }
  // The one row class the getline reader truncates: a key of
  // UINT32_MAX + 1 is malformed.
  std::istringstream in("2.0,4294967296,1.0\n2.0,4294967295,1.0\n");
  TraceReader reader(in);
  const std::vector<TimedItem> all = ReadAll(&reader);
  ASSERT_EQ(all.size(), 1u);
  EXPECT_EQ(all[0].item.id, std::numeric_limits<KeyId>::max());
  EXPECT_EQ(reader.stats().malformed, 1u);
}

// --- Telemetry --------------------------------------------------------------

class ScopedTelemetry {
 public:
  explicit ScopedTelemetry(bool on) : was_(telemetry::Enabled()) {
    telemetry::SetEnabled(on);
  }
  ~ScopedTelemetry() { telemetry::SetEnabled(was_); }

 private:
  bool was_;
};

TEST(TraceReaderTelemetry, ParseSpanRecordsOncePerNextBatch) {
  telemetry::Histogram* const parse_ns =
      telemetry::GetHistogram("sas.data.parse_ns");
  std::string csv = "ts,key,weight\n";
  for (int i = 0; i < 10; ++i) csv += std::to_string(i) + ",1,1.5\n";
  TraceReader::Options opt;
  opt.batch_size = 4;
  // 10 rows in batches of 4: three calls return rows, a fourth sees EOF.
  auto read = [&](bool armed) {
    ScopedTelemetry scope(armed);
    std::istringstream in(csv);
    TraceReader reader(in, opt);
    const std::uint64_t before = parse_ns->count();
    std::vector<TimedItem> batch;
    std::vector<TimedItem> all;
    std::uint64_t calls = 0;
    bool more = true;
    while (more) {
      more = reader.NextBatch(&batch);
      ++calls;
      EXPECT_EQ(parse_ns->count(), before + (armed ? calls : 0));
      all.insert(all.end(), batch.begin(), batch.end());
    }
    EXPECT_EQ(calls, 4u);
    return all;
  };
  const std::vector<TimedItem> quiet = read(false);
  const std::vector<TimedItem> traced = read(true);
  ASSERT_EQ(quiet.size(), 10u);
  ASSERT_EQ(traced.size(), quiet.size());
  for (std::size_t i = 0; i < quiet.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(traced[i].ts),
              std::bit_cast<std::uint64_t>(quiet[i].ts));
    EXPECT_EQ(traced[i].item.id, quiet[i].item.id);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(traced[i].item.weight),
              std::bit_cast<std::uint64_t>(quiet[i].item.weight));
  }
}

}  // namespace
}  // namespace sas

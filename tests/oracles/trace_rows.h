// TraceRowMutator: a seeded generator of CSV trace lines for
// data/trace_reader. It starts from well-formed `timestamp,key,weight,x,y`
// rows and mutates them toward every syntax class a reader must classify
// the way strtod/strtoull do: signs, hex floats, inf/nan spellings,
// out-of-range and subnormal decimals, embedded and exotic whitespace
// (\v \f \r \0), empty and extra fields, integer range edges, long
// mantissas, lines longer than a read block, blank/comment/header lines.
// Every draw comes from one core Rng, so a seed replays a trace exactly;
// differential tests and fuzzers share it.

#ifndef SAS_TESTS_ORACLES_TRACE_ROWS_H_
#define SAS_TESTS_ORACLES_TRACE_ROWS_H_

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <iterator>
#include <string>
#include <vector>

#include "core/random.h"

namespace sas {

class TraceRowMutator {
 public:
  explicit TraceRowMutator(std::uint64_t seed) : rng_(seed) {}

  /// One trace line, without its '\n'.
  std::string NextRow() {
    switch (rng_.NextBounded(40)) {
      case 0: return "";
      case 1: return Pick({"  ", "\t", " \t \r", "\r"});
      case 2: return "# comment " + std::to_string(rng_.Next());
      case 3: return Pick({"timestamp,key,weight", "ts,key,weight,x,y"});
      default: break;
    }
    // Mostly 3-5 columns; sometimes too few, sometimes 6+ (ignored).
    static constexpr std::size_t kCols[] = {1, 2, 3, 3, 3, 4, 4, 5, 5,
                                            5, 5, 5, 5, 6, 7, 9};
    const std::size_t cols = kCols[rng_.NextBounded(std::size(kCols))];
    std::vector<std::string> fields;
    for (std::size_t c = 0; c < cols; ++c) fields.push_back(BaseField(c));
    // Zero to three field mutations; about a third of rows stay clean.
    const std::uint64_t mutations = rng_.NextBounded(4);
    for (std::uint64_t m = 0; m < mutations; ++m) {
      Mutate(&fields[rng_.NextBounded(fields.size())]);
    }
    std::string line;
    for (std::size_t c = 0; c < fields.size(); ++c) {
      if (c > 0) line += ',';
      line += fields[c];
    }
    if (rng_.NextBounded(8) == 0) line += '\r';  // CRLF input
    // A line longer than a 64 KiB block, now and then.
    if (rng_.NextBounded(1000) == 0) {
      line += ',' + std::string(65536 + rng_.NextBounded(100000), 'z');
    }
    return line;
  }

 private:
  std::string Pick(std::initializer_list<const char*> options) {
    const auto* it = options.begin() + rng_.NextBounded(options.size());
    return *it;
  }

  std::string Digits(std::size_t n) {
    std::string s;
    for (std::size_t i = 0; i < n; ++i) {
      s += static_cast<char>('0' + rng_.NextBounded(10));
    }
    return s;
  }

  /// A clean value for column `col`: decimal timestamp and weight, integer
  /// key and coordinates; later columns look like either.
  std::string BaseField(std::size_t col) {
    switch (col) {
      case 1: return std::to_string(rng_.NextBounded(1 << 20));
      case 3:
      case 4: return std::to_string(rng_.Next() >> rng_.NextBounded(64));
      default: break;
    }
    std::string s = std::to_string(rng_.NextBounded(100000));
    if (rng_.NextBounded(4) != 0) s += "." + Digits(1 + rng_.NextBounded(9));
    if (rng_.NextBounded(8) == 0) {
      s += Pick({"e", "E", "e-", "e+"}) + std::to_string(rng_.NextBounded(30));
    }
    if (rng_.NextBounded(10) == 0) s = "-" + s;
    return s;
  }

  void Mutate(std::string* f) {
    switch (rng_.NextBounded(12)) {
      case 0:
        *f = "+" + *f;
        break;
      case 1:
        *f = Pick({"0x1.8p3", "0X1P-2", "-0x.8p1", "0x10", "0xAbC.dp+2",
                   "0x1p-1074", "0x1p1024", "0x"});
        break;
      case 2:
        *f = Pick({"inf", "-inf", "INF", "Infinity", "-Infinity", "infinit",
                   "nan", "NaN", "-nan", "nan(123)", "nan(abc_1)", "nan(",
                   "nan()", "infx"});
        break;
      case 3:
        *f = Pick({"1e400", "-1e400", "1e-400", "-1e-400",
                   "4.9406564584124654e-324", "2.4703282292062327e-324",
                   "2.4703282292062328e-324", "2.2250738585072011e-308",
                   "1e-310", "1.7976931348623157e308",
                   "1.7976931348623158e308", "1.7976931348623159e308",
                   "-0", "-0.0", "0e999999"});
        break;
      case 4:
        if (!f->empty()) f->insert(rng_.NextBounded(f->size() + 1), " ");
        break;
      case 5: {
        static constexpr char kOdd[] = {'\v', '\f', '\r', '\0'};
        f->insert(rng_.NextBounded(f->size() + 1), 1,
                  kOdd[rng_.NextBounded(std::size(kOdd))]);
        break;
      }
      case 6:
        f->clear();
        break;
      case 7:
        *f = Pick({"abc", "1.2.3", "--1", "1e", ".", "-", "e5", ".5", "5.",
                   "0012", "1_000", "1e+", "1,5", "0b101", "1f", "5 5"});
        break;
      case 8:
        *f = Pick({"4294967295", "4294967296", "4294967301",
                   "18446744073709551615", "18446744073709551616",
                   "99999999999999999999999", "-5", "\v-5", "+0",
                   "00000000000000000000042"});
        break;
      case 9: {
        // A mantissa longer than 19 significant digits.
        std::string m = Digits(20 + rng_.NextBounded(30));
        m.insert(rng_.NextBounded(m.size() + 1), ".");
        *f = m;
        break;
      }
      case 10:
        *f = Pick({" ", "\t", "  \t"}) + *f + Pick({"", " ", "\t "});
        break;
      default: {
        // Leading zeros; rarely past a 64 KiB block, a long line that
        // may still parse.
        const std::size_t zeros = rng_.NextBounded(100) == 0
                                      ? 65536 + rng_.NextBounded(4096)
                                      : 1 + rng_.NextBounded(20);
        *f = std::string(zeros, '0') + *f;
        break;
      }
    }
  }

  Rng rng_;
};

}  // namespace sas

#endif  // SAS_TESTS_ORACLES_TRACE_ROWS_H_

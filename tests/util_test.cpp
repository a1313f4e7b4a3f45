// Tests for the util module: units, RNG determinism and distribution
// sanity, table rendering, CLI parsing, and statistics accumulators.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "util/assert.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

namespace hpccsim {
namespace {

// --------------------------------------------------------------- Units --

TEST(Units, BinaryPrefixes) {
  EXPECT_EQ(KiB, 1024u);
  EXPECT_EQ(MiB, 1024u * 1024u);
  EXPECT_EQ(GiB, 1024u * 1024u * 1024u);
}

TEST(Units, RateConstructors) {
  EXPECT_DOUBLE_EQ(mbps(45.0).bits_per_sec(), 45e6);      // a T3 line
  EXPECT_DOUBLE_EQ(kbps(56.0).bits_per_sec(), 56e3);      // regional link
  EXPECT_DOUBLE_EQ(mb_per_s(10.0).bytes_per_sec(), 10e6); // mesh channel
  EXPECT_DOUBLE_EQ(mbps(800.0).bytes_per_sec(), 1e8);     // HIPPI/SONET
}

TEST(Units, FlopRates) {
  EXPECT_DOUBLE_EQ(gflops(32.0).flops_per_sec(), 32e9);  // Delta peak
  EXPECT_DOUBLE_EQ(mflops(60.0).gflops(), 0.06);         // i860 peak
}

TEST(Units, Formatting) {
  EXPECT_EQ(format_bytes(512), "512 B");
  EXPECT_EQ(format_bytes(2 * MiB), "2 MiB");
  EXPECT_EQ(format_rate(mbps(45)), "45 Mbit/s");
  EXPECT_EQ(format_flops(gflops(13.0)), "13 GFLOPS");
}

// ----------------------------------------------------------------- Rng --

TEST(Rng, DeterministicForSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a.next() == b.next());
  EXPECT_EQ(same, 0);
}

TEST(Rng, UniformInRange) {
  Rng r(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = r.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformMeanNearHalf) {
  Rng r(11);
  double sum = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += r.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, BelowIsUnbiasedAcrossSmallRange) {
  Rng r(13);
  std::array<int, 7> counts{};
  const int n = 70000;
  for (int i = 0; i < n; ++i) ++counts[r.below(7)];
  for (int c : counts) EXPECT_NEAR(c, n / 7, n / 7 * 0.1);
}

TEST(Rng, BelowRejectsZero) {
  Rng r(1);
  EXPECT_THROW(r.below(0), ContractError);
}

TEST(Rng, RangeInclusiveBounds) {
  Rng r(17);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(r.range(-2, 2));
  EXPECT_EQ(seen, (std::set<std::int64_t>{-2, -1, 0, 1, 2}));
}

TEST(Rng, NormalMomentsSane) {
  Rng r(19);
  RunningStat s;
  for (int i = 0; i < 100000; ++i) s.add(r.normal());
  EXPECT_NEAR(s.mean(), 0.0, 0.02);
  EXPECT_NEAR(s.stddev(), 1.0, 0.02);
}

TEST(Rng, ExponentialMeanMatchesRate) {
  Rng r(23);
  RunningStat s;
  for (int i = 0; i < 100000; ++i) s.add(r.exponential(4.0));
  EXPECT_NEAR(s.mean(), 0.25, 0.01);
}

TEST(Rng, ShufflePreservesElements) {
  Rng r(29);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  r.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng a(31);
  Rng b = a.split();
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a.next() == b.next());
  EXPECT_LE(same, 1);
}

// --------------------------------------------------------------- Table --

TEST(Table, AsciiAlignsColumns) {
  Table t({"agency", "FY92"});
  t.add_row({"DARPA", "232.2"});
  t.add_row({"NSF", "200.9"});
  const std::string out = t.ascii();
  EXPECT_NE(out.find("agency"), std::string::npos);
  EXPECT_NE(out.find("DARPA   232.2"), std::string::npos);
  EXPECT_NE(out.find("NSF     200.9"), std::string::npos);
}

TEST(Table, RejectsWrongArity) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), ContractError);
}

TEST(Table, CsvEscapesSpecialCells) {
  Table t({"name", "note"});
  t.add_row({"x,y", "he said \"hi\""});
  EXPECT_EQ(t.csv(), "name,note\n\"x,y\",\"he said \"\"hi\"\"\"\n");
}

TEST(Table, MarkdownHasAlignmentRow) {
  Table t({"k", "v"});
  t.add_row({"a", "1"});
  const std::string md = t.markdown();
  EXPECT_NE(md.find("| k | v |"), std::string::npos);
  EXPECT_NE(md.find("-:"), std::string::npos);  // right-aligned value col
}

TEST(Table, NumericHelpers) {
  EXPECT_EQ(Table::num(654.75, 1), "654.8");
  EXPECT_EQ(Table::integer(528), "528");
  EXPECT_EQ(Table::percent(0.226, 1), "+22.6%");
  EXPECT_EQ(Table::percent(-0.05, 0), "-5%");
}

// ----------------------------------------------------------------- Cli --

TEST(Cli, ParsesOptionsAndFlags) {
  ArgParser p("prog", "test");
  p.add_option("n", "size", "1000");
  p.add_flag("verbose", "chatty");
  const char* argv[] = {"prog", "--n", "2500", "--verbose"};
  p.parse(4, argv);
  EXPECT_EQ(p.integer("n"), 2500);
  EXPECT_TRUE(p.flag("verbose"));
}

TEST(Cli, EqualsSyntaxAndDefaults) {
  ArgParser p("prog", "test");
  p.add_option("rate", "x", "1.5");
  const char* argv[] = {"prog", "--rate=2.25"};
  p.parse(2, argv);
  EXPECT_DOUBLE_EQ(p.real("rate"), 2.25);

  ArgParser q("prog", "test");
  q.add_option("rate", "x", "1.5");
  const char* argv2[] = {"prog"};
  q.parse(1, argv2);
  EXPECT_DOUBLE_EQ(q.real("rate"), 1.5);
}

TEST(Cli, IntListParsing) {
  ArgParser p("prog", "test");
  p.add_option("sizes", "sweep", "1000,5000,25000");
  const char* argv[] = {"prog"};
  p.parse(1, argv);
  EXPECT_EQ(p.int_list("sizes"),
            (std::vector<std::int64_t>{1000, 5000, 25000}));
}

TEST(Cli, RejectsUnknownOption) {
  ArgParser p("prog", "test");
  const char* argv[] = {"prog", "--nope", "1"};
  EXPECT_THROW(p.parse(3, argv), std::invalid_argument);
}

TEST(Cli, RejectsMissingValue) {
  ArgParser p("prog", "test");
  p.add_option("n", "size", "1");
  const char* argv[] = {"prog", "--n"};
  EXPECT_THROW(p.parse(2, argv), std::invalid_argument);
}

// What reading `--opt=<value>` through `read` throws ("" if nothing).
// The message must name the option and the value: std::stoll alone
// throws an anonymous "stoll", and accepts "1000x" as 1000.
template <class Read>
std::string numeric_error(const std::string& value, Read read) {
  ArgParser p("prog", "test");
  p.add_option("opt", "x", "0");
  const std::string arg = "--opt=" + value;
  const char* argv[] = {"prog", arg.c_str()};
  p.parse(2, argv);
  try {
    read(p);
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

const auto read_integer = [](const ArgParser& p) { p.integer("opt"); };
const auto read_real = [](const ArgParser& p) { p.real("opt"); };
const auto read_list = [](const ArgParser& p) { p.int_list("opt"); };

TEST(Cli, RejectsMalformedNumbersNamingTheOption) {
  EXPECT_EQ(numeric_error("abc", read_integer),
            "option --opt: 'abc' is not an integer");
  EXPECT_EQ(numeric_error("1000x", read_integer),
            "option --opt: '1000x' is not an integer");
  EXPECT_EQ(numeric_error("", read_integer),
            "option --opt: '' is not an integer");
  EXPECT_EQ(numeric_error("99999999999999999999", read_integer),
            "option --opt: '99999999999999999999' is not an integer");
  EXPECT_EQ(numeric_error("2.5s", read_real),
            "option --opt: '2.5s' is not a number");
  EXPECT_EQ(numeric_error("fast", read_real),
            "option --opt: 'fast' is not a number");
  EXPECT_EQ(numeric_error("1000,2k,4000", read_list),
            "option --opt: '2k' is not an integer");
}

TEST(Cli, WellFormedNumbersStillParse) {
  EXPECT_EQ(numeric_error("-5", read_integer), "");
  EXPECT_EQ(numeric_error("1e-3", read_real), "");
  EXPECT_EQ(numeric_error("1,,2,", read_list), "");
}

// --------------------------------------------------------------- Stats --

TEST(RunningStat, BasicMoments) {
  RunningStat s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), 2.138, 1e-3);
  EXPECT_EQ(s.min(), 2.0);
  EXPECT_EQ(s.max(), 9.0);
  EXPECT_EQ(s.count(), 8u);
}

TEST(RunningStat, MergeMatchesSequential) {
  Rng r(37);
  RunningStat whole, a, b;
  for (int i = 0; i < 1000; ++i) {
    const double x = r.normal();
    whole.add(x);
    (i % 2 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_NEAR(a.mean(), whole.mean(), 1e-12);
  EXPECT_NEAR(a.variance(), whole.variance(), 1e-9);
  EXPECT_EQ(a.count(), whole.count());
}

TEST(RunningStat, MergeWithEmpty) {
  RunningStat a, empty;
  a.add(3.0);
  a.merge(empty);
  EXPECT_EQ(a.count(), 1u);
  empty.merge(a);
  EXPECT_EQ(empty.count(), 1u);
  EXPECT_EQ(empty.mean(), 3.0);
}

TEST(LogHistogram, QuantilesBracketData) {
  LogHistogram h;
  for (int i = 1; i <= 1000; ++i) h.add(static_cast<double>(i));
  EXPECT_GT(h.p50(), 256.0);   // true median 500
  EXPECT_LT(h.p50(), 1024.0);
  EXPECT_GT(h.p99(), 512.0);
  EXPECT_LE(h.quantile(0.0), 2.0);
}

// ---------------------------------------------------- rng substreams --

TEST(Rng, NamedSubstreamIsPureFunctionOfItsKey) {
  Rng a = named_substream(42, "fault.node", 3);
  Rng b = named_substream(42, "fault.node", 3);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, NamedSubstreamIndependentOfOtherStreamsDraws) {
  // Drawing heavily from one stream must not perturb another: the
  // derivation depends only on (seed, name, index).
  Rng noisy = named_substream(42, "fault.node", 0);
  for (int i = 0; i < 1000; ++i) noisy.next();
  Rng fresh = named_substream(42, "fault.node", 1);
  Rng control = named_substream(42, "fault.node", 1);
  EXPECT_EQ(fresh.next(), control.next());
}

TEST(Rng, NamedSubstreamsDifferByNameAndIndex) {
  const std::uint64_t by_name = named_substream(7, "alpha", 0).next();
  EXPECT_NE(by_name, named_substream(7, "beta", 0).next());
  EXPECT_NE(by_name, named_substream(7, "alpha", 1).next());
  EXPECT_NE(by_name, named_substream(8, "alpha", 0).next());
}

TEST(Rng, WeibullMeanMatchesScaleTimesGamma) {
  // mean = scale * Gamma(1 + 1/shape); for shape 0.7 that is
  // scale * 1.2658.
  Rng rng(11);
  const double shape = 0.7, scale = 100.0;
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.weibull(shape, scale);
  const double expected = scale * std::tgamma(1.0 + 1.0 / shape);
  EXPECT_NEAR(sum / n, expected, expected * 0.05);
}

TEST(LogHistogram, RejectsNegative) {
  LogHistogram h;
  EXPECT_THROW(h.add(-1.0), ContractError);
}

}  // namespace
}  // namespace hpccsim

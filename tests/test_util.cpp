#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <vector>

#include "util/flags.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/table.h"

namespace gf::util {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += a.next() == b.next();
  EXPECT_LT(same, 3);
}

TEST(Rng, BoundedStaysInRange) {
  Rng r(7);
  for (int i = 0; i < 10000; ++i) EXPECT_LT(r.bounded(17), 17u);
}

TEST(Rng, BoundedOneAlwaysZero) {
  Rng r(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(r.bounded(1), 0u);
}

TEST(Rng, RangeInclusive) {
  Rng r(3);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const auto v = r.range(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);  // all values hit
}

TEST(Rng, UniformInUnitInterval) {
  Rng r(9);
  for (int i = 0; i < 10000; ++i) {
    const double u = r.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, ChanceExtremes) {
  Rng r(1);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(r.chance(0.0));
    EXPECT_TRUE(r.chance(1.0));
  }
}

TEST(Rng, ChanceApproximatesProbability) {
  Rng r(11);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += r.chance(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, WeightedRespectsWeights) {
  Rng r(5);
  std::vector<double> w = {1.0, 0.0, 3.0};
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 40000; ++i) ++counts[r.weighted(w)];
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / counts[0], 3.0, 0.2);
}

TEST(Zipf, FirstRankMostPopular) {
  Zipf z(100, 1.0);
  Rng r(13);
  std::map<std::size_t, int> counts;
  for (int i = 0; i < 50000; ++i) ++counts[z.sample(r)];
  EXPECT_GT(counts[0], counts[1]);
  EXPECT_GT(counts[1], counts[10]);
}

TEST(Zipf, AllSamplesInRange) {
  Zipf z(10, 0.8);
  Rng r(17);
  for (int i = 0; i < 10000; ++i) EXPECT_LT(z.sample(r), 10u);
}

TEST(Stats, AccumulatorBasics) {
  Accumulator a;
  for (double x : {1.0, 2.0, 3.0, 4.0}) a.add(x);
  EXPECT_EQ(a.count(), 4u);
  EXPECT_DOUBLE_EQ(a.mean(), 2.5);
  EXPECT_DOUBLE_EQ(a.min(), 1.0);
  EXPECT_DOUBLE_EQ(a.max(), 4.0);
  EXPECT_DOUBLE_EQ(a.sum(), 10.0);
  EXPECT_NEAR(a.stdev(), 1.2909944, 1e-6);
}

TEST(Stats, EmptyAccumulatorIsZero) {
  Accumulator a;
  EXPECT_EQ(a.count(), 0u);
  EXPECT_EQ(a.mean(), 0.0);
  EXPECT_EQ(a.stdev(), 0.0);
}

TEST(Stats, MeanStdev) {
  std::vector<double> xs = {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  EXPECT_DOUBLE_EQ(mean(xs), 5.0);
  EXPECT_NEAR(stdev(xs), 2.13809, 1e-4);
}

TEST(Stats, Percentile) {
  std::vector<double> xs = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  EXPECT_DOUBLE_EQ(percentile(xs, 0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 100), 10.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 50), 5.5);
}

TEST(Stats, Ci95ShrinksWithN) {
  std::vector<double> small = {1, 2, 3, 4};
  std::vector<double> large;
  for (int i = 0; i < 16; ++i) large.insert(large.end(), {1, 2, 3, 4});
  EXPECT_GT(ci95_halfwidth(small), ci95_halfwidth(large));
}

TEST(Table, RendersAlignedColumns) {
  Table t({"name", "value"});
  t.row().cell("alpha").cell(1.5);
  t.row().cell("b").cell(22.25);
  const std::string s = t.to_string();
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("22.25"), std::string::npos);
  EXPECT_NE(s.find("|---"), std::string::npos);
}

TEST(Table, FmtPrecision) {
  EXPECT_EQ(fmt(3.14159, 2), "3.14");
  EXPECT_EQ(fmt(2.0, 0), "2");
}

TEST(Table, BarClamped) {
  EXPECT_EQ(bar(10.0, 10.0, 4), "####");
  EXPECT_EQ(bar(0.0, 10.0, 4), "    ");
  EXPECT_EQ(bar(20.0, 10.0, 4), "####");  // clamped
}

// A small table over local state: a switch, a numeric value, a path, a
// repeatable value and a required one.
struct FlagsFixture {
  bool verbose = false;
  int jobs = 0;
  std::string out;
  std::vector<std::uint64_t> seeds;
  std::string name;
  std::vector<Flag> rows(bool name_required = false) {
    return {{"verbose", [this] { verbose = true; }},
            {"jobs", "J",
             [this](const std::string& v) { return parse_int(v, 1, jobs); }},
            {"out", "FILE",
             [this](const std::string& v) {
               out = v;
               return std::string();
             }},
            {"seed", "S",
             [this](const std::string& v) {
               std::uint64_t s = 0;
               auto why = parse_int(v, 0, s);
               if (why.empty()) seeds.push_back(s);
               return why;
             }},
            {"name", "NAME",
             [this](const std::string& v) {
               name = v;
               return std::string();
             },
             name_required}};
  }
  std::string parse(const std::vector<std::string>& args,
                    std::vector<std::string>* positional = nullptr,
                    bool name_required = false) {
    return parse_flags(args, rows(name_required), positional);
  }
};

TEST(FlagsTest, SwitchAndValues) {
  FlagsFixture f;
  ASSERT_EQ(f.parse({"--jobs", "4", "--verbose", "--out", "a.txt"}), "");
  EXPECT_TRUE(f.verbose);
  EXPECT_EQ(f.jobs, 4);
  EXPECT_EQ(f.out, "a.txt");
  // A value that does not start with "--" is a value, even a negative one.
  EXPECT_EQ(f.parse({"--out", "-"}), "");
  EXPECT_EQ(f.out, "-");
}

TEST(FlagsTest, BadValueNamesFlagReasonAndValue) {
  FlagsFixture f;
  EXPECT_EQ(f.parse({"--jobs", "0"}),
            "--jobs: expects an integer >= 1, got '0'");
  EXPECT_EQ(f.parse({"--jobs", "-3"}),
            "--jobs: expects an integer >= 1, got '-3'");
  EXPECT_EQ(f.parse({"--seed", "0xzz"}),
            "--seed: expects an integer >= 0, got '0xzz'");
}

TEST(FlagsTest, MissingValue) {
  FlagsFixture f;
  EXPECT_EQ(f.parse({"--out"}), "--out: missing value");
  // A value that starts with "--" reads as a missing value, not as a path.
  EXPECT_EQ(f.parse({"--out", "--verbose"}), "--out: missing value");
  EXPECT_FALSE(f.verbose);
  EXPECT_EQ(f.out, "");
}

TEST(FlagsTest, UnknownFlagAndStrayArgument) {
  FlagsFixture f;
  EXPECT_EQ(f.parse({"--job", "4"}), "unknown flag --job");
  EXPECT_EQ(f.parse({"--verbose=1"}), "unknown flag --verbose=1");
  EXPECT_EQ(f.parse({"jobs"}), "unexpected argument 'jobs'");
  EXPECT_EQ(f.parse({"-v"}), "unexpected argument '-v'");
}

TEST(FlagsTest, PositionalArgumentsOnlyWhenAsked) {
  FlagsFixture f;
  std::vector<std::string> files;
  ASSERT_EQ(f.parse({"a.json", "--jobs", "2", "b.json"}, &files), "");
  EXPECT_EQ(files, (std::vector<std::string>{"a.json", "b.json"}));
  EXPECT_EQ(f.jobs, 2);
  EXPECT_EQ(f.parse({"a.json"}), "unexpected argument 'a.json'");
}

TEST(FlagsTest, RepeatedFlagCallsItsSetterEachTime) {
  FlagsFixture f;
  ASSERT_EQ(f.parse({"--seed", "7", "--seed", "0x10", "--out", "a", "--out",
                     "b"}),
            "");
  EXPECT_EQ(f.seeds, (std::vector<std::uint64_t>{7, 16}));
  EXPECT_EQ(f.out, "b");  // the last value wins for a plain assignment
}

TEST(FlagsTest, RequiredFlag) {
  FlagsFixture f;
  EXPECT_EQ(f.parse({}, nullptr, true), "--name: required");
  EXPECT_EQ(f.parse({"--name", "apex"}, nullptr, true), "");
  EXPECT_EQ(f.name, "apex");
}

TEST(FlagsTest, IntegersTakeDecimalOrHex) {
  std::uint64_t v = 0;
  EXPECT_EQ(parse_int("18446744073709551615", 0, v), "");
  EXPECT_EQ(v, 18446744073709551615ull);
  EXPECT_EQ(parse_int("0xE99FF867DBF682C9", 0, v), "");
  EXPECT_EQ(v, 0xe99ff867dbf682c9ull);
  for (const char* bad :
       {"", "0x", "-1", "1x", "0x1g", "-0x1", "18446744073709551616"}) {
    EXPECT_NE(parse_int(bad, 0, v), "") << bad;
  }
  int i = 0;
  EXPECT_EQ(parse_int("-5", -5, i), "");
  EXPECT_EQ(i, -5);
  EXPECT_NE(parse_int("-6", -5, i), "");
  EXPECT_NE(parse_int("0x-1", -5, i), "");
}

TEST(FlagsTest, UsageIsGeneratedAndWrapped) {
  FlagsFixture f;
  EXPECT_EQ(flags_usage(f.rows(true), "  "),
            "[--verbose] [--jobs J] [--out FILE] [--seed S] --name NAME");
  EXPECT_EQ(flags_usage(f.rows(), "  ", 24),
            "[--verbose] [--jobs J]\n  [--out FILE] [--seed S]\n"
            "  [--name NAME]");
}

}  // namespace
}  // namespace gf::util

#include "util/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "util/histogram.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

#include <fstream>
#include <sstream>

namespace ftl::util {
namespace {

TEST(Accumulator, EmptyIsZero) {
  Accumulator acc;
  EXPECT_EQ(acc.count(), 0u);
  EXPECT_DOUBLE_EQ(acc.mean(), 0.0);
  EXPECT_DOUBLE_EQ(acc.variance(), 0.0);
  EXPECT_DOUBLE_EQ(acc.sem(), 0.0);
}

TEST(Accumulator, SingleValue) {
  Accumulator acc;
  acc.add(3.5);
  EXPECT_EQ(acc.count(), 1u);
  EXPECT_DOUBLE_EQ(acc.mean(), 3.5);
  EXPECT_DOUBLE_EQ(acc.variance(), 0.0);
  EXPECT_DOUBLE_EQ(acc.min(), 3.5);
  EXPECT_DOUBLE_EQ(acc.max(), 3.5);
}

TEST(Accumulator, KnownMeanAndVariance) {
  Accumulator acc;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) acc.add(x);
  EXPECT_DOUBLE_EQ(acc.mean(), 5.0);
  // Sample variance with n-1 = 7: sum of squared deviations is 32.
  EXPECT_NEAR(acc.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(acc.min(), 2.0);
  EXPECT_DOUBLE_EQ(acc.max(), 9.0);
  EXPECT_NEAR(acc.sum(), 40.0, 1e-9);
}

TEST(Accumulator, NumericallyStableForLargeOffset) {
  Accumulator acc;
  const double offset = 1e9;
  for (int i = 0; i < 1000; ++i) acc.add(offset + (i % 2 == 0 ? 1.0 : -1.0));
  EXPECT_NEAR(acc.mean(), offset, 1e-3);
  EXPECT_NEAR(acc.variance(), 1.001, 0.01);
}

TEST(Accumulator, MergeMatchesSequential) {
  Rng rng(5);
  Accumulator whole;
  Accumulator a;
  Accumulator b;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.normal() * 3.0 + 1.0;
    whole.add(x);
    (i < 400 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), whole.count());
  EXPECT_NEAR(a.mean(), whole.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), whole.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), whole.min());
  EXPECT_DOUBLE_EQ(a.max(), whole.max());
}

TEST(Accumulator, MergeWithEmpty) {
  Accumulator a;
  a.add(1.0);
  a.add(2.0);
  Accumulator empty;
  a.merge(empty);
  EXPECT_EQ(a.count(), 2u);
  Accumulator target;
  target.merge(a);
  EXPECT_EQ(target.count(), 2u);
  EXPECT_DOUBLE_EQ(target.mean(), 1.5);
}

TEST(Accumulator, Ci95ShrinksWithSamples) {
  Rng rng(6);
  Accumulator small;
  Accumulator large;
  for (int i = 0; i < 100; ++i) small.add(rng.normal());
  for (int i = 0; i < 10000; ++i) large.add(rng.normal());
  EXPECT_GT(small.ci95_halfwidth(), large.ci95_halfwidth());
}

TEST(Percentile, InterpolatesLinearly) {
  std::vector<double> xs{10.0, 20.0, 30.0, 40.0};
  EXPECT_DOUBLE_EQ(percentile(xs, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 1.0), 40.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 0.5), 25.0);
  EXPECT_NEAR(percentile(xs, 1.0 / 3.0), 20.0, 1e-9);
}

TEST(Percentile, UnsortedInput) {
  std::vector<double> xs{5.0, 1.0, 3.0};
  EXPECT_DOUBLE_EQ(percentile(xs, 0.5), 3.0);
}

TEST(Percentile, SingleElement) {
  EXPECT_DOUBLE_EQ(percentile({7.0}, 0.25), 7.0);
}

TEST(Percentile, OfCountsMatchesExpandedSampleExactly) {
  Rng rng(5);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<std::uint64_t> counts(1 + rng.uniform_int(std::uint64_t{12}));
    std::vector<double> xs;
    for (std::size_t v = 0; v < counts.size(); ++v) {
      // Zero counts included: empty values must be skipped, not emitted.
      counts[v] = rng.bernoulli(0.3) ? 0 : rng.uniform_int(std::uint64_t{9});
      xs.insert(xs.end(), counts[v], static_cast<double>(v));
    }
    if (xs.empty()) continue;
    for (double q : {0.0, 0.05, 0.5, 0.95, 1.0, rng.uniform()}) {
      EXPECT_EQ(percentile_of_counts(counts, q), percentile(xs, q))
          << "trial " << trial << " q " << q;
    }
  }
}

TEST(MeanOf, Basic) {
  EXPECT_DOUBLE_EQ(mean_of({1.0, 2.0, 3.0}), 2.0);
  EXPECT_DOUBLE_EQ(mean_of({}), 0.0);
}

TEST(Wilson, ZeroTrials) { EXPECT_DOUBLE_EQ(wilson_halfwidth(0, 0), 0.0); }

TEST(Wilson, ShrinksWithTrials) {
  EXPECT_GT(wilson_halfwidth(50, 100), wilson_halfwidth(5000, 10000));
}

TEST(Wilson, WidestAtHalf) {
  EXPECT_GT(wilson_halfwidth(500, 1000), wilson_halfwidth(10, 1000));
}

TEST(Histogram, CountsAndClamping) {
  Histogram h(0.0, 10.0, 10);
  h.add(0.5);   // bin 0
  h.add(9.99);  // bin 9
  h.add(-1.0);  // underflow -> bin 0
  h.add(25.0);  // overflow -> bin 9
  EXPECT_EQ(h.total(), 4u);
  EXPECT_EQ(h.underflow(), 1u);
  EXPECT_EQ(h.overflow(), 1u);
  EXPECT_EQ(h.counts()[0], 2u);
  EXPECT_EQ(h.counts()[9], 2u);
}

TEST(Histogram, BinEdges) {
  Histogram h(0.0, 10.0, 5);
  EXPECT_DOUBLE_EQ(h.bin_lo(0), 0.0);
  EXPECT_DOUBLE_EQ(h.bin_hi(0), 2.0);
  EXPECT_DOUBLE_EQ(h.bin_lo(4), 8.0);
}

TEST(Histogram, QuantileApproximation) {
  Histogram h(0.0, 100.0, 100);
  Rng rng(9);
  for (int i = 0; i < 100000; ++i) h.add(rng.uniform(0.0, 100.0));
  EXPECT_NEAR(h.quantile(0.5), 50.0, 2.0);
  EXPECT_NEAR(h.quantile(0.95), 95.0, 2.0);
}

TEST(Histogram, AsciiRendering) {
  Histogram h(0.0, 2.0, 2);
  h.add(0.5);
  h.add(1.5);
  h.add(1.6);
  const std::string art = h.ascii(10);
  EXPECT_NE(art.find('#'), std::string::npos);
  EXPECT_NE(art.find('\n'), std::string::npos);
}

TEST(Table, AlignedPrintAndCsv) {
  Table t({"name", "value"});
  t.add_row({std::string("alpha"), 1.5});
  t.add_row({std::string("b"), 22.125});
  EXPECT_EQ(t.num_rows(), 2u);
  std::ostringstream os;
  t.print(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("22.125"), std::string::npos);
  // Header separator line present.
  EXPECT_NE(s.find("|--"), std::string::npos);
}

TEST(Table, PrecisionControl) {
  Table t({"v"});
  t.set_precision(2);
  t.add_row({3.14159});
  std::ostringstream os;
  t.print(os);
  EXPECT_NE(os.str().find("3.14"), std::string::npos);
  EXPECT_EQ(os.str().find("3.142"), std::string::npos);
}

TEST(Table, CsvRoundTrip) {
  Table t({"a", "b"});
  t.add_row({std::string("x"), 1.5});
  t.add_row({std::string("y"), 2.25});
  const std::string path = ::testing::TempDir() + "/ftl_table_test.csv";
  t.write_csv(path);
  std::ifstream f(path);
  std::string line;
  std::getline(f, line);
  EXPECT_EQ(line, "a,b");
  std::getline(f, line);
  EXPECT_EQ(line, "x,1.5000");
  std::getline(f, line);
  EXPECT_EQ(line, "y,2.2500");
}

TEST(Table, IntegerCells) {
  Table t({"n"});
  t.add_row({static_cast<long long>(42)});
  std::ostringstream os;
  t.print(os);
  EXPECT_NE(os.str().find("42"), std::string::npos);
}

}  // namespace
}  // namespace ftl::util

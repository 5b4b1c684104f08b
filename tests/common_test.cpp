// Unit tests for the common support module: Status/StatusOr, units/clock
// domains, RNG determinism and distribution sanity, stats, bitops.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "common/bitops.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/status.hpp"
#include "common/strfmt.hpp"
#include "common/units.hpp"

namespace twochains {
namespace {

// ---------------------------------------------------------------- Status

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = NotFound("symbol 'foo'");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.message(), "symbol 'foo'");
  EXPECT_EQ(s.ToString(), "NOT_FOUND: symbol 'foo'");
}

TEST(StatusTest, AllFactoriesProduceDistinctCodes) {
  EXPECT_EQ(InvalidArgument("").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(AlreadyExists("").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(OutOfRange("").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(PermissionDenied("").code(), StatusCode::kPermissionDenied);
  EXPECT_EQ(FailedPrecondition("").code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(ResourceExhausted("").code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(DataLoss("").code(), StatusCode::kDataLoss);
  EXPECT_EQ(Unimplemented("").code(), StatusCode::kUnimplemented);
  EXPECT_EQ(Internal("").code(), StatusCode::kInternal);
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> v = 42;
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 42);
  EXPECT_TRUE(v.status().ok());
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> v = NotFound("nope");
  ASSERT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kNotFound);
}

TEST(StatusOrTest, OkStatusBecomesInternalError) {
  StatusOr<int> v = Status::Ok();
  ASSERT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kInternal);
}

StatusOr<int> HelperReturningError() { return DataLoss("boom"); }
Status UsesAssignOrReturn(int& out) {
  TC_ASSIGN_OR_RETURN(out, HelperReturningError());
  return Status::Ok();
}

TEST(StatusOrTest, AssignOrReturnPropagates) {
  int out = 0;
  Status s = UsesAssignOrReturn(out);
  EXPECT_EQ(s.code(), StatusCode::kDataLoss);
}

// ---------------------------------------------------------------- units

TEST(UnitsTest, PicoConversions) {
  EXPECT_EQ(Nanoseconds(1.0), 1000u);
  EXPECT_EQ(Microseconds(1.0), 1'000'000u);
  EXPECT_DOUBLE_EQ(ToMicroseconds(2'500'000), 2.5);
}

TEST(ClockDomainTest, CoreClockPeriodIsExact) {
  // 2.6 GHz -> 1 cycle = 5000/13 ps ~ 384.6 ps; 13 cycles = exactly 5 ns.
  EXPECT_EQ(kCoreClock.ToPicos(13), 5000u);
  EXPECT_EQ(kCoreClock.ToPicos(26), 10000u);
}

TEST(ClockDomainTest, InterconnectClock) {
  EXPECT_EQ(kInterconnectClock.ToPicos(1), 625u);
  EXPECT_EQ(kInterconnectClock.ToPicos(16), 10000u);
}

TEST(ClockDomainTest, RoundTripCyclesToPicosToCycles) {
  for (Cycles c : {1ull, 7ull, 100ull, 12345ull, 1000000ull}) {
    const PicoTime t = kCoreClock.ToPicos(c);
    const Cycles back = kCoreClock.ToCycles(t);
    // ToCycles rounds up, ToPicos rounds to nearest: allow 1 cycle slack.
    EXPECT_GE(back + 1, c);
    EXPECT_LE(back, c + 1);
  }
}

TEST(ClockDomainTest, GHzReport) {
  EXPECT_NEAR(kCoreClock.GHz(), 2.6, 1e-9);
  EXPECT_NEAR(kInterconnectClock.GHz(), 1.6, 1e-9);
}

// ---------------------------------------------------------------- bitops

TEST(BitopsTest, PowerOfTwo) {
  EXPECT_TRUE(IsPowerOfTwo(1));
  EXPECT_TRUE(IsPowerOfTwo(64));
  EXPECT_FALSE(IsPowerOfTwo(0));
  EXPECT_FALSE(IsPowerOfTwo(65));
}

TEST(BitopsTest, AlignUpDown) {
  EXPECT_EQ(AlignUp(0, 64), 0u);
  EXPECT_EQ(AlignUp(1, 64), 64u);
  EXPECT_EQ(AlignUp(64, 64), 64u);
  EXPECT_EQ(AlignUp(65, 64), 128u);
  EXPECT_EQ(AlignDown(127, 64), 64u);
  EXPECT_EQ(AlignDown(128, 64), 128u);
}

TEST(BitopsTest, CeilDiv) {
  EXPECT_EQ(CeilDiv(0, 64), 0u);
  EXPECT_EQ(CeilDiv(1, 64), 1u);
  EXPECT_EQ(CeilDiv(64, 64), 1u);
  EXPECT_EQ(CeilDiv(65, 64), 2u);
}

// ---------------------------------------------------------------- rng

TEST(RngTest, DeterministicForSameSeed) {
  Xoshiro256 a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Xoshiro256 a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.Next() == b.Next());
  EXPECT_LT(same, 2);
}

TEST(RngTest, NextBelowStaysInBound) {
  Xoshiro256 rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBelow(17), 17u);
  }
  EXPECT_EQ(rng.NextBelow(0), 0u);
  EXPECT_EQ(rng.NextBelow(1), 0u);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Xoshiro256 rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, ExponentialMeanApproximatesParameter) {
  Xoshiro256 rng(11);
  const int draws = 100000;
  double sum = 0.0;
  for (int i = 0; i < draws; ++i) sum += rng.NextExponential(50.0);
  EXPECT_NEAR(sum / draws, 50.0, 1.5);
}

TEST(RngTest, ParetoIsHeavyTailedAboveScale) {
  Xoshiro256 rng(13);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_GE(rng.NextPareto(2.0, 1.5), 2.0);
  }
}

TEST(RngTest, ZipfRanksStayInBoundAndDegenerateCases) {
  Xoshiro256 rng(25);
  EXPECT_EQ(rng.NextZipf(0, 1.0), 0u);
  EXPECT_EQ(rng.NextZipf(1, 1.0), 0u);
  for (int i = 0; i < 5000; ++i) {
    EXPECT_LT(rng.NextZipf(100, 1.0), 100u);
  }
}

TEST(RngTest, ZipfIsDeterministicForSameSeed) {
  Xoshiro256 a(27), b(27);
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(a.NextZipf(1000, 0.99), b.NextZipf(1000, 0.99));
  }
}

TEST(RngTest, ZipfSkewConcentratesOnLowRanks) {
  // theta = 1 over 1000 ranks: P(0) = 1/H(1000) ~ 13.4%, and the top-10
  // ranks together take ~39%. Uniform would give 0.1% / 1%.
  Xoshiro256 rng(29);
  const int draws = 50000;
  int rank0 = 0, top10 = 0;
  for (int i = 0; i < draws; ++i) {
    const std::uint64_t k = rng.NextZipf(1000, 1.0);
    rank0 += (k == 0);
    top10 += (k < 10);
  }
  EXPECT_GT(rank0, draws / 10);       // >10% on the hottest key
  EXPECT_GT(top10, draws / 3);        // >33% on the top-10
  EXPECT_LT(rank0, draws / 5);        // but not degenerate
}

TEST(RngTest, ZipfThetaZeroIsUniform) {
  Xoshiro256 rng(31);
  std::vector<int> buckets(16, 0);
  const int draws = 1 << 16;
  for (int i = 0; i < draws; ++i) buckets[rng.NextZipf(16, 0.0)]++;
  for (int b : buckets) {
    EXPECT_NEAR(b, draws / 16, draws / 16 / 10);
  }
}

TEST(RngTest, ZipfMatchesExactPmfAtModerateN) {
  // Differential check against the exact normalized pmf for n = 8,
  // theta = 1.2: every bucket within 10% relative error over 200k draws.
  const double theta = 1.2;
  const int n = 8;
  double z = 0;
  for (int k = 1; k <= n; ++k) z += std::pow(k, -theta);
  Xoshiro256 rng(33);
  std::vector<int> buckets(n, 0);
  const int draws = 200000;
  for (int i = 0; i < draws; ++i) buckets[rng.NextZipf(n, theta)]++;
  for (int k = 0; k < n; ++k) {
    const double expect = draws * std::pow(k + 1, -theta) / z;
    EXPECT_NEAR(buckets[k], expect, expect * 0.10) << "rank " << k;
  }
}

TEST(RngTest, UniformityChiSquaredSmoke) {
  // 16 buckets over 64k draws: each bucket should be within 5% of expected.
  Xoshiro256 rng(17);
  std::vector<int> buckets(16, 0);
  const int draws = 1 << 16;
  for (int i = 0; i < draws; ++i) buckets[rng.NextBelow(16)]++;
  for (int b : buckets) {
    EXPECT_NEAR(b, draws / 16, draws / 16 / 10);
  }
}

// ---------------------------------------------------------------- stats

TEST(LatencySampleTest, ExactPercentiles) {
  LatencySample s;
  for (PicoTime t = 1; t <= 1000; ++t) s.Add(t);
  EXPECT_EQ(s.Median(), 500u);
  EXPECT_EQ(s.Tail(), 999u);  // 99.9th of 1..1000 by nearest rank
  EXPECT_EQ(s.Min(), 1u);
  EXPECT_EQ(s.Max(), 1000u);
}

TEST(LatencySampleTest, TailSpreadMatchesPaperEquation) {
  // spread = (tail - median) / median  (Eq. 1 in the paper)
  // 998 samples at 100 and 2 at 350: nearest-rank 99.9th of 1000 samples is
  // rank 999, which lands on the first 350.
  LatencySample s;
  for (int i = 0; i < 998; ++i) s.Add(100);
  s.Add(350);
  s.Add(350);
  EXPECT_EQ(s.Median(), 100u);
  EXPECT_EQ(s.Tail(), 350u);
  EXPECT_NEAR(s.TailSpread(), 2.5, 1e-9);
}

TEST(LatencySampleTest, AddAfterQueryResorts) {
  LatencySample s;
  s.Add(10);
  EXPECT_EQ(s.Median(), 10u);
  s.Add(2);
  s.Add(30);
  EXPECT_EQ(s.Median(), 10u);
  EXPECT_EQ(s.Max(), 30u);
}

TEST(ThroughputHelpersTest, BandwidthAndRate) {
  // 1000 bytes in 1 us = 1e9 B/s = 1000 MB/s.
  EXPECT_NEAR(MegabytesPerSecond(1000, Microseconds(1.0)), 1000.0, 1e-6);
  EXPECT_NEAR(MessagesPerSecond(5, Microseconds(1.0)), 5e6, 1e-3);
  EXPECT_EQ(MegabytesPerSecond(1000, 0), 0.0);
}

TEST(StrFormatTest, FormatsLikePrintf) {
  EXPECT_EQ(StrFormat("x=%d s=%s", 42, "hi"), "x=42 s=hi");
  EXPECT_EQ(StrFormat("%05.1f", 2.25), "002.2");
}

}  // namespace
}  // namespace twochains

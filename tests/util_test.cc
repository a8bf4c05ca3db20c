// Unit tests for src/util: Status/StatusOr, encodings, CRC32C, histogram,
// running stats, RNGs, human formatting and ParseValue.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstring>
#include <map>
#include <string>
#include <utility>

#include "util/crc32.h"
#include "util/encoding.h"
#include "util/histogram.h"
#include "util/human.h"
#include "util/parse.h"
#include "util/random.h"
#include "util/stats.h"
#include "util/status.h"

namespace ptsb {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("missing key");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsNotFound());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.ToString(), "NotFound: missing key");
}

TEST(StatusTest, AllConstructorsMapToPredicates) {
  EXPECT_TRUE(Status::Corruption().IsCorruption());
  EXPECT_TRUE(Status::InvalidArgument().IsInvalidArgument());
  EXPECT_TRUE(Status::IoError().IsIoError());
  EXPECT_TRUE(Status::NoSpace().IsNoSpace());
  EXPECT_TRUE(Status::NotSupported().IsNotSupported());
  EXPECT_TRUE(Status::FailedPrecondition().IsFailedPrecondition());
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> v(42);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 42);
  EXPECT_TRUE(v.status().ok());
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> v(Status::IoError("disk gone"));
  ASSERT_FALSE(v.ok());
  EXPECT_TRUE(v.status().IsIoError());
}

TEST(StatusOrTest, MoveOnlyValue) {
  StatusOr<std::unique_ptr<int>> v(std::make_unique<int>(7));
  ASSERT_TRUE(v.ok());
  std::unique_ptr<int> out = std::move(v).value();
  EXPECT_EQ(*out, 7);
}

Status Helper(bool fail) {
  if (fail) return Status::NoSpace("full");
  return Status::OK();
}

Status UseReturnIfError(bool fail) {
  PTSB_RETURN_IF_ERROR(Helper(fail));
  return Status::OK();
}

TEST(StatusMacrosTest, ReturnIfError) {
  EXPECT_TRUE(UseReturnIfError(false).ok());
  EXPECT_TRUE(UseReturnIfError(true).IsNoSpace());
}

TEST(EncodingTest, FixedRoundTrip) {
  std::string buf;
  PutFixed32(&buf, 0xdeadbeef);
  PutFixed64(&buf, 0x0123456789abcdefULL);
  std::string_view in = buf;
  uint32_t v32;
  uint64_t v64;
  ASSERT_TRUE(GetFixed32(&in, &v32));
  ASSERT_TRUE(GetFixed64(&in, &v64));
  EXPECT_EQ(v32, 0xdeadbeef);
  EXPECT_EQ(v64, 0x0123456789abcdefULL);
  EXPECT_TRUE(in.empty());
}

TEST(EncodingTest, VarintRoundTripBoundaryValues) {
  const uint64_t values[] = {0,          1,     127,
                             128,        300,   16383,
                             16384,      (1ull << 32) - 1,
                             1ull << 32, UINT64_MAX};
  std::string buf;
  for (uint64_t v : values) PutVarint64(&buf, v);
  std::string_view in = buf;
  for (uint64_t v : values) {
    uint64_t got;
    ASSERT_TRUE(GetVarint64(&in, &got));
    EXPECT_EQ(got, v);
  }
  EXPECT_TRUE(in.empty());
}

TEST(EncodingTest, Varint32RejectsOverflow) {
  std::string buf;
  PutVarint64(&buf, 1ull << 33);
  std::string_view in = buf;
  uint32_t v;
  EXPECT_FALSE(GetVarint32(&in, &v));
}

TEST(EncodingTest, VarintRejectsTruncation) {
  std::string buf;
  PutVarint64(&buf, UINT64_MAX);
  for (size_t cut = 0; cut < buf.size(); cut++) {
    std::string_view in(buf.data(), cut);
    uint64_t v;
    EXPECT_FALSE(GetVarint64(&in, &v)) << "cut=" << cut;
  }
}

TEST(EncodingTest, VarintLengthMatchesEncoding) {
  for (const uint64_t v :
       {uint64_t{0}, uint64_t{127}, uint64_t{128}, uint64_t{1} << 62,
        UINT64_MAX}) {
    std::string buf;
    PutVarint64(&buf, v);
    EXPECT_EQ(VarintLength(v), static_cast<int>(buf.size()));
  }
}

TEST(EncodingTest, LengthPrefixedRoundTrip) {
  std::string buf;
  PutLengthPrefixed(&buf, "hello");
  PutLengthPrefixed(&buf, "");
  PutLengthPrefixed(&buf, std::string(1000, 'x'));
  std::string_view in = buf;
  std::string_view a, b, c;
  ASSERT_TRUE(GetLengthPrefixed(&in, &a));
  ASSERT_TRUE(GetLengthPrefixed(&in, &b));
  ASSERT_TRUE(GetLengthPrefixed(&in, &c));
  EXPECT_EQ(a, "hello");
  EXPECT_EQ(b, "");
  EXPECT_EQ(c, std::string(1000, 'x'));
}

TEST(Crc32Test, KnownVector) {
  // CRC-32C("123456789") = 0xE3069283 (iSCSI polynomial test vector).
  EXPECT_EQ(Crc32c("123456789"), 0xE3069283u);
}

TEST(Crc32Test, EmptyIsZero) { EXPECT_EQ(Crc32c(""), 0u); }

TEST(Crc32Test, IncrementalMatchesOneShot) {
  const std::string data = "the quick brown fox jumps over the lazy dog";
  uint32_t crc = 0;
  crc = Crc32c(crc, data.data(), 10);
  // Incremental extension semantics: feed the rest.
  // Note: our API extends by continuing from the previous crc.
  crc = Crc32c(crc, data.data() + 10, data.size() - 10);
  EXPECT_EQ(crc, Crc32c(data));
}

// Crc32c picks its implementation on first use; this runs before main,
// from this file's static initialisers, so it must already see the tables.
const uint32_t kCrcAtStaticInit = Crc32c("123456789");

TEST(Crc32Test, UsableFromStaticInitializer) {
  EXPECT_EQ(kCrcAtStaticInit, 0xE3069283u);
}

// Crc32c (the hardware path on a CPU that has one) against the portable
// slice-by-8 loop: every length 0..4096 at all 8 start alignments, chained
// calls split at several points, and RFC 3720 B.4's vectors on both.
TEST(Crc32Test, HardwareMatchesPortable) {
  constexpr size_t kMaxLen = 4096;
  alignas(8) std::array<uint8_t, kMaxLen + 8> buf;
  Rng rnd(301);
  for (auto& b : buf) b = static_cast<uint8_t>(rnd.Next());
  for (size_t align = 0; align < 8; align++) {
    const uint8_t* p = buf.data() + align;
    for (size_t n = 0; n <= kMaxLen; n++) {
      ASSERT_EQ(Crc32c(0, p, n), detail::Crc32cPortable(0, p, n))
          << "len " << n << " align " << align;
    }
    for (const size_t split : {1u, 3u, 7u, 8u, 9u, 15u, 64u, 1000u, 4095u}) {
      const uint32_t head = Crc32c(0, p, split);
      EXPECT_EQ(Crc32c(head, p + split, kMaxLen - split),
                detail::Crc32cPortable(0, p, kMaxLen))
          << "split " << split << " align " << align;
    }
  }

  std::array<uint8_t, 32> zeros{}, ones, up, down;
  ones.fill(0xff);
  for (uint8_t i = 0; i < 32; i++) {
    up[i] = i;
    down[i] = static_cast<uint8_t>(31 - i);
  }
  const std::pair<const std::array<uint8_t, 32>*, uint32_t> vectors[] = {
      {&zeros, 0x8A9136AAu},
      {&ones, 0x62A8AB43u},
      {&up, 0x46DD794Eu},
      {&down, 0x113FDB5Cu}};
  for (const auto& [bytes, want] : vectors) {
    for (size_t align = 0; align < 8; align++) {
      std::memcpy(buf.data() + align, bytes->data(), 32);
      EXPECT_EQ(Crc32c(0, buf.data() + align, 32), want) << "align " << align;
      EXPECT_EQ(detail::Crc32cPortable(0, buf.data() + align, 32), want)
          << "align " << align;
    }
  }
}

TEST(Crc32Test, MaskRoundTrip) {
  const uint32_t crc = Crc32c("some block");
  EXPECT_NE(MaskCrc(crc), crc);
  EXPECT_EQ(UnmaskCrc(MaskCrc(crc)), crc);
}

TEST(HistogramTest, BasicStats) {
  Histogram h;
  for (uint64_t i = 1; i <= 100; i++) h.Record(i);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_EQ(h.min(), 1u);
  EXPECT_EQ(h.max(), 100u);
  EXPECT_DOUBLE_EQ(h.Mean(), 50.5);
  EXPECT_NEAR(h.Median(), 50, 15);
  EXPECT_NEAR(h.Percentile(99), 99, 30);
}

TEST(HistogramTest, EmptyIsSafe) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.Mean(), 0);
  EXPECT_EQ(h.Percentile(99), 0);
}

TEST(HistogramTest, MergeCombines) {
  Histogram a, b;
  a.Record(10);
  b.Record(1000);
  a.Merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_EQ(a.min(), 10u);
  EXPECT_EQ(a.max(), 1000u);
}

TEST(HistogramTest, LargeValuesDoNotOverflowBuckets) {
  Histogram h;
  h.Record(UINT64_MAX);
  h.Record(0);
  EXPECT_EQ(h.count(), 2u);
  EXPECT_EQ(h.max(), UINT64_MAX);
}

TEST(RunningStatsTest, MeanAndVariance) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.Add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.Variance(), 4.571428, 1e-5);  // sample variance
  EXPECT_EQ(s.min(), 2.0);
  EXPECT_EQ(s.max(), 9.0);
}

TEST(RunningStatsTest, MergeMatchesSequential) {
  RunningStats a, b, all;
  Rng rng(1);
  for (int i = 0; i < 1000; i++) {
    const double x = rng.NextDouble() * 100;
    (i < 500 ? a : b).Add(x);
    all.Add(x);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.Variance(), all.Variance(), 1e-6);
}

TEST(RngTest, DeterministicForSeed) {
  Rng a(123), b(123), c(124);
  bool all_same = true;
  bool any_diff_c = false;
  for (int i = 0; i < 100; i++) {
    const uint64_t va = a.Next();
    all_same &= (va == b.Next());
    any_diff_c |= (va != c.Next());
  }
  EXPECT_TRUE(all_same);
  EXPECT_TRUE(any_diff_c);
}

TEST(RngTest, UniformInRangeAndRoughlyBalanced) {
  Rng rng(7);
  std::map<uint64_t, int> counts;
  const int kDraws = 100000;
  for (int i = 0; i < kDraws; i++) counts[rng.Uniform(10)]++;
  ASSERT_EQ(counts.size(), 10u);
  for (const auto& [v, c] : counts) {
    EXPECT_LT(v, 10u);
    EXPECT_NEAR(c, kDraws / 10, kDraws / 50);
  }
}

TEST(RngTest, BernoulliProbability) {
  Rng rng(9);
  int heads = 0;
  for (int i = 0; i < 100000; i++) heads += rng.Bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(heads, 30000, 1500);
}

TEST(RngTest, FillBytesCoversBuffer) {
  Rng rng(11);
  uint8_t buf[37];
  memset(buf, 0, sizeof(buf));
  rng.FillBytes(buf, sizeof(buf));
  int nonzero = 0;
  for (uint8_t b : buf) nonzero += (b != 0);
  EXPECT_GT(nonzero, 20);  // overwhelmingly likely
}

TEST(ZipfianTest, SkewsTowardSmallKeys) {
  ZipfianGenerator z(1000000, 0.99, 3);
  uint64_t small = 0;
  const int kDraws = 100000;
  for (int i = 0; i < kDraws; i++) {
    if (z.Next() < 10000) small++;  // hottest 1% of the key space
  }
  // Zipf(0.99) sends far more than 1% of accesses to the hottest 1%.
  EXPECT_GT(small, kDraws / 4);
}

TEST(ZipfianTest, StaysInRange) {
  ZipfianGenerator z(100, 0.8, 5);
  for (int i = 0; i < 10000; i++) EXPECT_LT(z.Next(), 100u);
}

TEST(HumanTest, Bytes) {
  EXPECT_EQ(HumanBytes(512), "512 B");
  EXPECT_EQ(HumanBytes(1536), "1.5 KiB");
  EXPECT_EQ(HumanBytes(4ull << 30), "4.0 GiB");
}

TEST(HumanTest, CountAndDuration) {
  EXPECT_EQ(HumanCount(999), "999");
  EXPECT_EQ(HumanCount(1234567), "1.23 M");
  EXPECT_EQ(HumanDuration(3661), "01:01:01");
}

TEST(HumanTest, StrPrintfLongString) {
  const std::string long_part(1000, 'y');
  const std::string s = StrPrintf("x=%s", long_part.c_str());
  EXPECT_EQ(s.size(), 1002u);
}

TEST(ParseValueTest, AcceptsOnlyTheWholeStringInRange) {
  uint64_t u = 7;
  EXPECT_TRUE(ParseValue("123", &u));
  EXPECT_EQ(u, 123u);
  for (const char* bad :
       {"-1", "12x", " 1", "+1", "", "99999999999999999999"}) {
    EXPECT_FALSE(ParseValue(bad, &u)) << bad;
    EXPECT_EQ(u, 123u) << bad;  // untouched on failure
  }
  int i = 0;
  EXPECT_TRUE(ParseValue("-7", &i));
  EXPECT_EQ(i, -7);
  EXPECT_FALSE(ParseValue("4294967296", &i));  // would narrow
  double d = 0;
  EXPECT_TRUE(ParseValue("0.25", &d));
  EXPECT_EQ(d, 0.25);
  EXPECT_FALSE(ParseValue("abc", &d));
  EXPECT_FALSE(ParseValue("1.5.", &d));
  bool b = false;
  EXPECT_TRUE(ParseValue("true", &b));
  EXPECT_TRUE(b);
  EXPECT_TRUE(ParseValue("0", &b));
  EXPECT_FALSE(b);
  EXPECT_FALSE(ParseValue("yes", &b));
}

}  // namespace
}  // namespace ptsb

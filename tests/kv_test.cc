// Tests for the kv layer: key/value codecs, the WriteBatch container, the
// KvStoreStats field table and workload generation.
#include <gtest/gtest.h>

#include <map>

#include "kv/kv.h"
#include "kv/kvstore.h"
#include "kv/workload.h"
#include "kv/write_batch.h"

namespace ptsb::kv {
namespace {

TEST(WriteBatchTest, AccumulatesEntriesInOrder) {
  WriteBatch batch;
  EXPECT_TRUE(batch.empty());
  batch.Put("a", "1");
  batch.Delete("bb");
  batch.Put("ccc", "22");
  EXPECT_EQ(batch.Count(), 3u);
  ASSERT_EQ(batch.entries().size(), 3u);
  EXPECT_EQ(batch.entries()[0].kind, WriteBatch::EntryKind::kPut);
  EXPECT_EQ(batch.entries()[0].key, "a");
  EXPECT_EQ(batch.entries()[0].value, "1");
  EXPECT_EQ(batch.entries()[1].kind, WriteBatch::EntryKind::kDelete);
  EXPECT_EQ(batch.entries()[1].key, "bb");
  EXPECT_EQ(batch.entries()[2].key, "ccc");
}

TEST(WriteBatchTest, ByteSizeCountsKeysAndValues) {
  WriteBatch batch;
  batch.Put("abc", "xy");   // 5 bytes
  batch.Delete("defg");     // 4 bytes (no value)
  EXPECT_EQ(batch.ByteSize(), 9u);
  batch.Clear();
  EXPECT_TRUE(batch.empty());
  EXPECT_EQ(batch.Count(), 0u);
  EXPECT_EQ(batch.ByteSize(), 0u);
}

TEST(KvStoreStatsTest, FieldTableDrivesSumEqualityAndFold) {
  KvStoreStats a;
  int fields = 0;
  a.ForEachField([&fields](const char*, auto) { fields++; });
  EXPECT_EQ(fields, 36);

  a.user_puts = 3;           // kOwn
  a.snapshots_open = 1;      // kOwn (a gauge)
  a.wal_bytes_written = 10;  // kFold
  a.time_wal_ns = 7;         // kFold
  KvStoreStats sum = a;
  sum += a;  // sums every field, gauges included
  EXPECT_EQ(sum.user_puts, 6u);
  EXPECT_EQ(sum.snapshots_open, 2u);
  EXPECT_EQ(sum.wal_bytes_written, 20u);
  EXPECT_EQ(sum.time_wal_ns, 14);
  EXPECT_FALSE(sum == a);

  KvStoreStats folded = a;
  folded.FoldInner(a);  // only the kFold fields add
  EXPECT_EQ(folded.user_puts, 3u);
  EXPECT_EQ(folded.snapshots_open, 1u);
  EXPECT_EQ(folded.wal_bytes_written, 20u);
  EXPECT_EQ(folded.time_wal_ns, 14);
}

TEST(KeyTest, FixedWidthAndOrdered) {
  const std::string a = MakeKey(5);
  const std::string b = MakeKey(50);
  const std::string c = MakeKey(500000);
  EXPECT_EQ(a.size(), kDefaultKeyBytes);
  EXPECT_EQ(b.size(), kDefaultKeyBytes);
  EXPECT_LT(a, b);
  EXPECT_LT(b, c);
}

TEST(KeyTest, ParseRoundTrip) {
  for (uint64_t id : {0ull, 1ull, 123456ull, 49'999'999ull}) {
    uint64_t out;
    ASSERT_TRUE(ParseKey(MakeKey(id), &out));
    EXPECT_EQ(out, id);
  }
  uint64_t out;
  EXPECT_FALSE(ParseKey("xxx", &out));
  EXPECT_FALSE(ParseKey("u12a4567890123456", &out));
}

TEST(KeyTest, CustomWidth) {
  const std::string k = MakeKey(7, 24);
  EXPECT_EQ(k.size(), 24u);
  uint64_t out;
  ASSERT_TRUE(ParseKey(k, &out));
  EXPECT_EQ(out, 7u);
}

TEST(ValueTest, RoundTripAndVerify) {
  const std::string v = MakeValue(12345, 4000);
  EXPECT_EQ(v.size(), 4000u);
  EXPECT_TRUE(VerifyValue(v));
  EXPECT_EQ(ValueSeed(v), 12345u);
}

TEST(ValueTest, CorruptionDetected) {
  std::string v = MakeValue(9, 128);
  v[64] ^= 0x01;
  EXPECT_FALSE(VerifyValue(v));
}

TEST(ValueTest, DifferentSeedsDiffer) {
  EXPECT_NE(MakeValue(1, 128), MakeValue(2, 128));
}

TEST(ValueTest, MinimumSize) {
  const std::string v = MakeValue(3, 16);
  EXPECT_EQ(v.size(), 16u);
  EXPECT_TRUE(VerifyValue(v));
}

TEST(WorkloadTest, WriteOnlyProducesOnlyPuts) {
  WorkloadSpec spec;
  spec.num_keys = 1000;
  spec.write_fraction = 1.0;
  WorkloadGenerator gen(spec);
  for (int i = 0; i < 1000; i++) {
    EXPECT_EQ(gen.Next().type, Op::Type::kPut);
  }
}

TEST(WorkloadTest, MixedRatioApproximatelyHolds) {
  WorkloadSpec spec;
  spec.num_keys = 1000;
  spec.write_fraction = 0.5;
  WorkloadGenerator gen(spec);
  int puts = 0;
  const int kOps = 20000;
  for (int i = 0; i < kOps; i++) {
    puts += gen.Next().type == Op::Type::kPut ? 1 : 0;
  }
  EXPECT_NEAR(puts, kOps / 2, kOps / 20);
}

TEST(WorkloadTest, KeysInRangeAndCoverSpace) {
  WorkloadSpec spec;
  spec.num_keys = 100;
  WorkloadGenerator gen(spec);
  std::map<uint64_t, int> seen;
  for (int i = 0; i < 10000; i++) {
    const Op op = gen.Next();
    ASSERT_LT(op.key_id, 100u);
    seen[op.key_id]++;
  }
  EXPECT_EQ(seen.size(), 100u);  // uniform across the whole key space
}

TEST(WorkloadTest, ValueSeedsUniquePerOp) {
  WorkloadSpec spec;
  spec.num_keys = 10;
  WorkloadGenerator gen(spec);
  std::map<uint64_t, int> seeds;
  for (int i = 0; i < 1000; i++) seeds[gen.Next().value_seed]++;
  EXPECT_EQ(seeds.size(), 1000u);
}

TEST(WorkloadTest, DeterministicForSeed) {
  WorkloadSpec spec;
  spec.num_keys = 1000;
  spec.seed = 42;
  WorkloadGenerator a(spec), b(spec);
  for (int i = 0; i < 100; i++) {
    const Op oa = a.Next();
    const Op ob = b.Next();
    EXPECT_EQ(oa.key_id, ob.key_id);
    EXPECT_EQ(oa.value_seed, ob.value_seed);
  }
}

TEST(WorkloadTest, ZipfianConcentrates) {
  WorkloadSpec spec;
  spec.num_keys = 100000;
  spec.distribution = Distribution::kZipfian;
  WorkloadGenerator gen(spec);
  uint64_t hot = 0;
  const int kOps = 20000;
  for (int i = 0; i < kOps; i++) {
    if (gen.Next().key_id < 1000) hot++;  // hottest 1%
  }
  EXPECT_GT(hot, static_cast<uint64_t>(kOps) / 5);
}

TEST(WorkloadTest, DeleteFractionCarvesDeletesOutOfWrites) {
  WorkloadSpec spec;
  spec.num_keys = 1000;
  spec.write_fraction = 0.8;
  spec.delete_fraction = 0.25;
  WorkloadGenerator gen(spec);
  int puts = 0, deletes = 0, gets = 0;
  const int kOps = 20000;
  for (int i = 0; i < kOps; i++) {
    switch (gen.Next().type) {
      case Op::Type::kPut: puts++; break;
      case Op::Type::kDelete: deletes++; break;
      case Op::Type::kGet: gets++; break;
      default: FAIL() << "unexpected op type";
    }
  }
  // writes ~80%, of which ~25% deletes.
  EXPECT_NEAR(puts + deletes, kOps * 0.8, kOps * 0.05);
  EXPECT_NEAR(deletes, kOps * 0.8 * 0.25, kOps * 0.05);
  EXPECT_NEAR(gets, kOps * 0.2, kOps * 0.05);
}

TEST(WorkloadTest, BatchSizeTurnsPutsIntoBatchPuts) {
  WorkloadSpec spec;
  spec.num_keys = 1000;
  spec.batch_size = 16;
  WorkloadGenerator gen(spec);
  for (int i = 0; i < 100; i++) {
    EXPECT_EQ(gen.Next().type, Op::Type::kBatchPut);
  }
}

TEST(WorkloadTest, ScanFractionCarvesScansOutOfReads) {
  WorkloadSpec spec;
  spec.num_keys = 1000;
  spec.write_fraction = 0.0;
  spec.scan_fraction = 0.5;
  WorkloadGenerator gen(spec);
  int scans = 0, gets = 0;
  const int kOps = 10000;
  for (int i = 0; i < kOps; i++) {
    const Op op = gen.Next();
    if (op.type == Op::Type::kScan) {
      scans++;
    } else {
      ASSERT_EQ(op.type, Op::Type::kGet);
      gets++;
    }
  }
  EXPECT_NEAR(scans, kOps / 2, kOps / 20);
  EXPECT_NEAR(gets, kOps / 2, kOps / 20);
}

TEST(WorkloadTest, BatchFillDrawsAreDeterministic) {
  WorkloadSpec spec;
  spec.num_keys = 1000;
  spec.batch_size = 8;
  spec.seed = 99;
  WorkloadGenerator a(spec), b(spec);
  for (int i = 0; i < 50; i++) {
    const Op oa = a.Next();
    const Op ob = b.Next();
    EXPECT_EQ(oa.key_id, ob.key_id);
    for (size_t j = 1; j < spec.batch_size; j++) {
      EXPECT_EQ(a.NextKeyId(), b.NextKeyId());
      EXPECT_EQ(a.NextValueSeed(), b.NextValueSeed());
    }
  }
}

TEST(WorkloadTest, DatasetBytesMatchesPaperMath) {
  WorkloadSpec spec;  // 50M x (16 + 4000)
  EXPECT_NEAR(static_cast<double>(spec.DatasetBytes()), 200.8e9, 1e9);
}

}  // namespace
}  // namespace ptsb::kv

// Tests for LSM building blocks: memtable skiplist, bloom filter, SST
// builder/reader/iterator, WAL framing and replay, version set/manifest.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <functional>
#include <set>
#include <string>
#include <vector>

#include "block/memory_device.h"
#include "fs/file.h"
#include "fs/filesystem.h"
#include "kv/log.h"
#include "kv/write_batch.h"
#include "lsm/bloom.h"
#include "lsm/compaction.h"
#include "lsm/memtable.h"
#include "lsm/sst.h"
#include "lsm/version.h"
#include "lsm/wal.h"
#include "util/logging.h"
#include "util/random.h"

namespace ptsb::lsm {
namespace {

TEST(MemtableTest, AddAndGet) {
  Memtable mt;
  mt.Add("b", 1, EntryType::kPut, "vb");
  mt.Add("a", 2, EntryType::kPut, "va");
  auto r = mt.Get("a");
  ASSERT_TRUE(r.found);
  EXPECT_EQ(r.value, "va");
  EXPECT_FALSE(mt.Get("c").found);
  EXPECT_EQ(mt.entries(), 2u);
}

TEST(MemtableTest, UpdateKeepsEveryVersion) {
  // Multi-version: an update inserts a new version instead of replacing
  // in place, so a snapshot bound can still reach the old one.
  Memtable mt;
  mt.Add("k", 1, EntryType::kPut, "v1");
  mt.Add("k", 2, EntryType::kPut, "v2");
  auto r = mt.Get("k");
  ASSERT_TRUE(r.found);
  EXPECT_EQ(r.value, "v2");
  EXPECT_EQ(r.seq, 2u);
  EXPECT_EQ(mt.entries(), 2u);
}

TEST(MemtableTest, SequenceBoundedGet) {
  Memtable mt;
  mt.Add("k", 1, EntryType::kPut, "v1");
  mt.Add("k", 3, EntryType::kDelete, "");
  mt.Add("k", 5, EntryType::kPut, "v5");
  // Unbounded: newest version.
  EXPECT_EQ(mt.Get("k").value, "v5");
  // At the tombstone.
  auto r3 = mt.Get("k", 3);
  ASSERT_TRUE(r3.found);
  EXPECT_TRUE(r3.deleted);
  // Before the tombstone.
  auto r2 = mt.Get("k", 2);
  ASSERT_TRUE(r2.found);
  EXPECT_EQ(r2.value, "v1");
  EXPECT_EQ(r2.seq, 1u);
  // Before the key existed.
  EXPECT_FALSE(mt.Get("k", 0).found);
}

TEST(MemtableTest, TombstoneVisible) {
  Memtable mt;
  mt.Add("k", 1, EntryType::kPut, "v");
  mt.Add("k", 2, EntryType::kDelete, "");
  auto r = mt.Get("k");
  ASSERT_TRUE(r.found);
  EXPECT_TRUE(r.deleted);
}

TEST(MemtableTest, IterationIsInternalOrder) {
  // Every version is iterated, in internal order: user key ascending,
  // sequence descending within one key.
  Memtable mt;
  Rng rng(1);
  std::set<std::string> keys;
  const int kN = 1000;
  for (int i = 0; i < kN; i++) {
    const std::string k = "k" + std::to_string(rng.Uniform(10000));
    keys.insert(k);
    mt.Add(k, i + 1, EntryType::kPut, "v");
  }
  Memtable::Iterator it(&mt);
  std::set<std::string> seen;
  int count = 0;
  std::string prev_key;
  SequenceNumber prev_seq = 0;
  for (it.SeekToFirst(); it.Valid(); it.Next()) {
    if (count > 0) {
      if (it.key() == prev_key) {
        EXPECT_LT(it.seq(), prev_seq);  // older versions follow newer
      } else {
        EXPECT_GT(it.key(), prev_key);
      }
    }
    prev_key = it.key();
    prev_seq = it.seq();
    seen.insert(prev_key);
    count++;
  }
  EXPECT_EQ(count, kN);    // nothing collapsed
  EXPECT_EQ(seen, keys);   // exactly the user keys written
}

TEST(MemtableTest, SeekFindsLowerBound) {
  Memtable mt;
  mt.Add("b", 1, EntryType::kPut, "");
  mt.Add("d", 2, EntryType::kPut, "");
  Memtable::Iterator it(&mt);
  it.Seek("c");
  ASSERT_TRUE(it.Valid());
  EXPECT_EQ(it.key(), "d");
  it.Seek("e");
  EXPECT_FALSE(it.Valid());
}

TEST(MemtableTest, BytesTracked) {
  Memtable mt;
  EXPECT_EQ(mt.ApproximateBytes(), 0u);
  mt.Add("key", 1, EntryType::kPut, std::string(100, 'v'));
  const uint64_t b1 = mt.ApproximateBytes();
  EXPECT_GE(b1, 103u);
  // Updating inserts a new version: accounted bytes grow (the old version
  // stays reachable for snapshot-bounded reads until the next flush).
  mt.Add("key", 2, EntryType::kPut, "v");
  EXPECT_GT(mt.ApproximateBytes(), b1);
}

TEST(BloomTest, NoFalseNegatives) {
  BloomFilterBuilder builder(10);
  std::vector<std::string> keys;
  for (int i = 0; i < 2000; i++) keys.push_back("key" + std::to_string(i));
  for (const auto& k : keys) builder.AddKey(k);
  BloomFilter filter(builder.Finish());
  for (const auto& k : keys) EXPECT_TRUE(filter.MayContain(k));
}

TEST(BloomTest, LowFalsePositiveRate) {
  BloomFilterBuilder builder(10);
  for (int i = 0; i < 10000; i++) builder.AddKey("in" + std::to_string(i));
  BloomFilter filter(builder.Finish());
  int fp = 0;
  const int kProbes = 10000;
  for (int i = 0; i < kProbes; i++) {
    if (filter.MayContain("out" + std::to_string(i))) fp++;
  }
  // 10 bits/key gives ~1% FP; allow generous margin.
  EXPECT_LT(fp, kProbes / 20);
}

TEST(BloomTest, DisabledMatchesEverything) {
  BloomFilterBuilder builder(0);
  builder.AddKey("a");
  BloomFilter filter(builder.Finish());
  EXPECT_TRUE(filter.MayContain("anything"));
  EXPECT_TRUE(filter.empty());
}

class SstTest : public ::testing::Test {
 protected:
  SstTest() : dev_(4096, 4096), fs_(&dev_, {}) {}
  block::MemoryBlockDevice dev_;
  fs::SimpleFs fs_;
};

TEST_F(SstTest, BuildAndGet) {
  fs::File* file = *fs_.Create("t.sst");
  SstBuilder builder(file, 4096, 10);
  for (int i = 0; i < 1000; i++) {
    char key[16];
    snprintf(key, sizeof(key), "k%06d", i);
    ASSERT_TRUE(builder.Add(key, 1000 + i, EntryType::kPut,
                            "value" + std::to_string(i)).ok());
  }
  ASSERT_TRUE(builder.Finish().ok());
  EXPECT_EQ(builder.num_entries(), 1000u);
  EXPECT_EQ(builder.smallest(), "k000000");
  EXPECT_EQ(builder.largest(), "k000999");

  auto reader = SstReader::Open(file);
  ASSERT_TRUE(reader.ok());
  for (int i : {0, 1, 499, 998, 999}) {
    char key[16];
    snprintf(key, sizeof(key), "k%06d", i);
    auto r = (*reader)->Get(key);
    ASSERT_TRUE(r.ok());
    ASSERT_TRUE(r->found) << key;
    EXPECT_EQ(r->value, "value" + std::to_string(i));
    EXPECT_EQ(r->seq, 1000u + i);
  }
  auto miss = (*reader)->Get("k9999999");
  ASSERT_TRUE(miss.ok());
  EXPECT_FALSE(miss->found);
}

TEST_F(SstTest, NewestVersionWinsWithinTable) {
  fs::File* file = *fs_.Create("t.sst");
  SstBuilder builder(file, 4096, 10);
  // Internal order: same key, descending seq.
  ASSERT_TRUE(builder.Add("k", 5, EntryType::kPut, "new").ok());
  ASSERT_TRUE(builder.Add("k", 3, EntryType::kPut, "old").ok());
  ASSERT_TRUE(builder.Finish().ok());
  auto reader = SstReader::Open(file);
  ASSERT_TRUE(reader.ok());
  auto r = (*reader)->Get("k");
  ASSERT_TRUE(r.ok() && r->found);
  EXPECT_EQ(r->value, "new");
  EXPECT_EQ(r->seq, 5u);
}

TEST_F(SstTest, TombstonesSurfaceAsDeleteType) {
  fs::File* file = *fs_.Create("t.sst");
  SstBuilder builder(file, 4096, 10);
  ASSERT_TRUE(builder.Add("k", 7, EntryType::kDelete, "").ok());
  ASSERT_TRUE(builder.Finish().ok());
  auto reader = SstReader::Open(file);
  auto r = (*reader)->Get("k");
  ASSERT_TRUE(r.ok() && r->found);
  EXPECT_EQ(r->type, EntryType::kDelete);
}

TEST_F(SstTest, IteratorWalksEverythingInOrder) {
  fs::File* file = *fs_.Create("t.sst");
  SstBuilder builder(file, 1024, 10);  // small blocks: many of them
  const int kN = 500;
  for (int i = 0; i < kN; i++) {
    char key[16];
    snprintf(key, sizeof(key), "k%06d", i);
    ASSERT_TRUE(
        builder.Add(key, i + 1, EntryType::kPut, std::string(50, 'x')).ok());
  }
  ASSERT_TRUE(builder.Finish().ok());
  auto reader = SstReader::Open(file);
  ASSERT_TRUE(reader.ok());
  SstReader::Iterator it(reader->get());
  ASSERT_TRUE(it.SeekToFirst().ok());
  int count = 0;
  std::string prev;
  while (it.Valid()) {
    if (count > 0) {
      EXPECT_GT(it.key(), prev);
    }
    prev = it.key();
    count++;
    ASSERT_TRUE(it.Next().ok());
  }
  EXPECT_EQ(count, kN);
}

TEST_F(SstTest, IteratorSeek) {
  fs::File* file = *fs_.Create("t.sst");
  SstBuilder builder(file, 1024, 10);
  for (int i = 0; i < 100; i += 2) {  // even keys only
    char key[16];
    snprintf(key, sizeof(key), "k%06d", i);
    ASSERT_TRUE(builder.Add(key, i + 1, EntryType::kPut, "v").ok());
  }
  ASSERT_TRUE(builder.Finish().ok());
  auto reader = SstReader::Open(file);
  SstReader::Iterator it(reader->get());
  ASSERT_TRUE(it.Seek("k000051").ok());  // odd: lands on 52
  ASSERT_TRUE(it.Valid());
  EXPECT_EQ(it.key(), "k000052");
  ASSERT_TRUE(it.Seek("k000099").ok());
  EXPECT_FALSE(it.Valid());
}

TEST_F(SstTest, CorruptBlockDetected) {
  fs::File* file = *fs_.Create("t.sst");
  SstBuilder builder(file, 4096, 10);
  for (int i = 0; i < 100; i++) {
    char key[16];
    snprintf(key, sizeof(key), "k%06d", i);
    ASSERT_TRUE(
        builder.Add(key, i + 1, EntryType::kPut, std::string(200, 'x')).ok());
  }
  ASSERT_TRUE(builder.Finish().ok());
  // Flip a byte inside the first data block (offset 100 is data).
  std::string page(4096, '\0');
  ASSERT_TRUE(file->ReadAt(0, 4096, page.data()).ok());
  page[100] ^= 0xff;
  ASSERT_TRUE(file->WriteAt(0, page).ok());
  auto reader = SstReader::Open(file);
  ASSERT_TRUE(reader.ok());  // footer/index are intact
  auto r = (*reader)->Get("k000000");
  EXPECT_TRUE(r.status().IsCorruption());
}

TEST_F(SstTest, OpenRejectsGarbage) {
  fs::File* file = *fs_.Create("junk");
  ASSERT_TRUE(file->Append(std::string(8192, 'j')).ok());
  ASSERT_TRUE(file->Sync().ok());
  EXPECT_TRUE(SstReader::Open(file).status().IsCorruption());
  fs::File* tiny = *fs_.Create("tiny");
  ASSERT_TRUE(tiny->Append("x").ok());
  EXPECT_TRUE(SstReader::Open(tiny).status().IsCorruption());
}

class WalTest : public ::testing::Test {
 protected:
  WalTest() : dev_(4096, 2048), fs_(&dev_, {}) {}

  // Appends a one-entry WAL record.
  static Status AddOne(kv::LogWriter* writer, kv::WriteBatch::EntryKind kind,
                       const std::string& key, SequenceNumber seq,
                       const std::string& value) {
    kv::WriteBatch batch;
    batch.SetSingle(kind, key, value);
    return writer->Add(EncodeWalBatch(batch, seq)).status();
  }

  struct Replayed {
    std::string key;
    SequenceNumber seq;
    EntryType type;
    std::string value;
  };

  // Replays `file` as a WAL, appending every entry to *got.
  static Status Replay(fs::File* file, std::vector<Replayed>* got) {
    std::vector<WalEntry> entries;
    return kv::ReplayLog(
        file, [&](uint64_t, std::string_view payload) -> Status {
          PTSB_RETURN_IF_ERROR(DecodeWalBatch(payload, &entries));
          for (const WalEntry& e : entries) {
            got->push_back({std::string(e.key), e.seq, e.type,
                            std::string(e.value)});
          }
          return Status::OK();
        });
  }

  static int CountReplayed(fs::File* file) {
    std::vector<Replayed> got;
    EXPECT_TRUE(Replay(file, &got).ok());
    return static_cast<int>(got.size());
  }

  block::MemoryBlockDevice dev_;
  fs::SimpleFs fs_;
};

TEST_F(WalTest, WriteAndReplay) {
  fs::File* file = *fs_.Create("wal");
  kv::LogWriter writer(file, 0, 64 << 10);
  ASSERT_TRUE(AddOne(&writer, kv::WriteBatch::EntryKind::kPut, "a", 1, "va")
                  .ok());
  ASSERT_TRUE(AddOne(&writer, kv::WriteBatch::EntryKind::kDelete, "b", 2, "")
                  .ok());
  ASSERT_TRUE(writer.Sync().ok());

  std::vector<Replayed> got;
  ASSERT_TRUE(Replay(file, &got).ok());
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].key, "a");
  EXPECT_EQ(got[0].seq, 1u);
  EXPECT_EQ(got[0].value, "va");
  EXPECT_EQ(got[1].type, EntryType::kDelete);
}

TEST_F(WalTest, ReplayStopsAtTornTail) {
  fs::File* file = *fs_.Create("wal");
  // Small writer buffer so records reach the filesystem promptly; the
  // filesystem's own page buffering still leaves a torn tail on crash.
  kv::LogWriter writer(file, 0, /*buffer_bytes=*/1);
  for (int i = 0; i < 10; i++) {
    ASSERT_TRUE(AddOne(&writer, kv::WriteBatch::EntryKind::kPut,
                       "k" + std::to_string(i), i + 1, std::string(3000, 'v'))
                    .ok());
  }
  // No sync: simulate a crash that loses the buffered tail.
  fs_.SimulateCrash();
  const int replayed = CountReplayed(file);
  EXPECT_LT(replayed, 10);  // the torn record and later ones are dropped
  EXPECT_GE(replayed, 1);   // durable full pages replay fine
}

TEST_F(WalTest, BufferedRecordsLostWithoutFlush) {
  fs::File* file = *fs_.Create("wal");
  kv::LogWriter writer(file, 0, /*buffer_bytes=*/64 << 10);
  ASSERT_TRUE(AddOne(&writer, kv::WriteBatch::EntryKind::kPut, "k", 1,
                     "small").ok());
  // Entirely buffered: nothing on the filesystem yet (RocksDB's unsynced
  // WAL semantics).
  EXPECT_EQ(CountReplayed(file), 0);
  // Sync makes it durable.
  ASSERT_TRUE(writer.Sync().ok());
  EXPECT_EQ(CountReplayed(file), 1);
}

// A bad record followed by an intact one is corruption in the middle of
// the log, not a torn tail: replay delivers the records before it and
// returns Corruption. A bad LAST record is a torn tail and replays OK.
// Both payload codecs (the WAL's and kv's batch codec) frame the same way.
TEST_F(WalTest, CorruptRecordStopsReplay) {
  using Encode = std::function<std::string(const kv::WriteBatch&, int)>;
  using Decode = std::function<Status(std::string_view, size_t*)>;
  struct Codec {
    std::string name;
    Encode encode;
    Decode decode;  // counts the payload's entries
  };
  const std::vector<Codec> codecs = {
      {"wal",
       [](const kv::WriteBatch& b, int i) { return EncodeWalBatch(b, i + 1); },
       [](std::string_view payload, size_t* n) -> Status {
         std::vector<WalEntry> entries;
         PTSB_RETURN_IF_ERROR(DecodeWalBatch(payload, &entries));
         *n = entries.size();
         return Status::OK();
       }},
      {"batch",
       [](const kv::WriteBatch& b, int) {
         return kv::EncodeBatch(b, nullptr);
       },
       [](std::string_view payload, size_t* n) -> Status {
         std::vector<kv::DecodedEntry> entries;
         PTSB_RETURN_IF_ERROR(kv::DecodeBatch(payload, &entries));
         *n = entries.size();
         return Status::OK();
       }},
  };
  for (const Codec& codec : codecs) {
    // Byte 260 falls in the third record's payload; byte 500 in the last.
    for (const size_t flip : {size_t{260}, size_t{500}}) {
      SCOPED_TRACE(codec.name + " flip@" + std::to_string(flip));
      const std::string name = "wal-" + codec.name + std::to_string(flip);
      fs::File* file = *fs_.Create(name);
      kv::LogWriter writer(file, 0, 64 << 10);
      std::vector<uint64_t> record_end;
      for (int i = 0; i < 5; i++) {
        kv::WriteBatch batch;
        batch.Put("key" + std::to_string(i), std::string(100, 'v'));
        ASSERT_TRUE(writer.Add(codec.encode(batch, i)).ok());
        record_end.push_back(writer.bytes_written());
      }
      ASSERT_TRUE(writer.Sync().ok());
      ASSERT_LT(record_end[1], 260u);
      ASSERT_GT(record_end[2], 260u);
      ASSERT_GT(500u, record_end[3]);
      ASSERT_LT(500u, record_end[4]);
      std::string page(4096, '\0');
      ASSERT_TRUE(file->ReadAt(0, 4096, page.data()).ok());
      page[flip] ^= 0x01;
      ASSERT_TRUE(file->Extend(4096).ok());
      ASSERT_TRUE(file->WriteAt(0, page).ok());
      size_t replayed = 0;
      const Status s = kv::ReplayLog(
          file, [&](uint64_t, std::string_view payload) -> Status {
            size_t n = 0;
            PTSB_RETURN_IF_ERROR(codec.decode(payload, &n));
            replayed += n;
            return Status::OK();
          });
      if (flip == 260) {
        EXPECT_TRUE(s.IsCorruption()) << s.ToString();
        EXPECT_EQ(replayed, 2u);  // records 1-2 delivered
      } else {
        EXPECT_TRUE(s.ok()) << s.ToString();
        EXPECT_EQ(replayed, 4u);  // the torn last record is dropped
      }
    }
  }
}

class VersionTest : public ::testing::Test {
 protected:
  VersionTest() : dev_(4096, 4096), fs_(&dev_, {}) {}

  static FileMeta MakeFile(uint64_t number, const std::string& lo,
                           const std::string& hi) {
    FileMeta f;
    f.number = number;
    f.file_bytes = 1000;
    f.num_entries = 10;
    f.smallest = lo;
    f.largest = hi;
    return f;
  }

  block::MemoryBlockDevice dev_;
  fs::SimpleFs fs_;
};

TEST_F(VersionTest, EditEncodeDecodeRoundTrip) {
  VersionEdit edit;
  edit.next_file_number = 42;
  edit.last_sequence = 1234567;
  edit.log_number = 7;
  edit.added.emplace_back(2, MakeFile(10, "aaa", "zzz"));
  edit.removed.emplace_back(1, 9);
  auto decoded = VersionEdit::Decode(edit.Encode());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded->next_file_number, 42u);
  EXPECT_EQ(*decoded->last_sequence, 1234567u);
  EXPECT_EQ(*decoded->log_number, 7u);
  ASSERT_EQ(decoded->added.size(), 1u);
  EXPECT_EQ(decoded->added[0].first, 2);
  EXPECT_EQ(decoded->added[0].second.smallest, "aaa");
  ASSERT_EQ(decoded->removed.size(), 1u);
  EXPECT_EQ(decoded->removed[0].second, 9u);
}

TEST_F(VersionTest, DecodeRejectsGarbage) {
  EXPECT_FALSE(VersionEdit::Decode("\xff\xff\xff garbage").ok());
}

TEST_F(VersionTest, RecoverFreshThenPersist) {
  {
    VersionSet vs(&fs_, "db", 7);
    ASSERT_TRUE(vs.Recover().ok());
    VersionEdit edit;
    edit.added.emplace_back(1, MakeFile(5, "a", "m"));
    edit.added.emplace_back(1, MakeFile(6, "n", "z"));
    edit.last_sequence = 99;
    ASSERT_TRUE(vs.LogAndApply(edit).ok());
    ASSERT_TRUE(vs.CheckInvariants().ok());
  }
  {
    // A second VersionSet recovers the same state from disk.
    VersionSet vs(&fs_, "db", 7);
    ASSERT_TRUE(vs.Recover().ok());
    EXPECT_EQ(vs.LevelFiles(1).size(), 2u);
    EXPECT_EQ(vs.last_sequence(), 99u);
    EXPECT_GE(vs.NewFileNumber(), 7u);  // never reuses persisted numbers
    ASSERT_TRUE(vs.CheckInvariants().ok());
  }
}

TEST_F(VersionTest, L0OrderedNewestFirst) {
  VersionSet vs(&fs_, "db", 7);
  ASSERT_TRUE(vs.Recover().ok());
  VersionEdit edit;
  edit.added.emplace_back(0, MakeFile(3, "a", "z"));
  edit.added.emplace_back(0, MakeFile(8, "a", "z"));
  edit.added.emplace_back(0, MakeFile(5, "a", "z"));
  ASSERT_TRUE(vs.LogAndApply(edit).ok());
  const auto& l0 = vs.LevelFiles(0);
  ASSERT_EQ(l0.size(), 3u);
  EXPECT_EQ(l0[0].number, 8u);
  EXPECT_EQ(l0[1].number, 5u);
  EXPECT_EQ(l0[2].number, 3u);
}

TEST_F(VersionTest, OverlappingQuery) {
  VersionSet vs(&fs_, "db", 7);
  ASSERT_TRUE(vs.Recover().ok());
  VersionEdit edit;
  edit.added.emplace_back(2, MakeFile(1, "a", "f"));
  edit.added.emplace_back(2, MakeFile(2, "g", "m"));
  edit.added.emplace_back(2, MakeFile(3, "n", "z"));
  ASSERT_TRUE(vs.LogAndApply(edit).ok());
  EXPECT_EQ(vs.Overlapping(2, "h", "p").size(), 2u);
  EXPECT_EQ(vs.Overlapping(2, "aa", "b").size(), 1u);
  EXPECT_EQ(vs.Overlapping(2, "zz", "zzz").size(), 0u);
}

// Overlapping binary-searches a sorted, disjoint level; it must return
// exactly what a scan of the whole level returns, in the same order.
TEST_F(VersionTest, OverlappingMatchesBruteForceOnRandomLevels) {
  auto key = [](uint64_t i) {
    char buf[16];
    std::snprintf(buf, sizeof(buf), "k%06llu",
                  static_cast<unsigned long long>(i));
    return std::string(buf);
  };
  Rng rng(28);
  for (int trial = 0; trial < 40; trial++) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    block::MemoryBlockDevice dev(4096, 4096);
    fs::SimpleFs fs(&dev, {});
    VersionSet vs(&fs, "db", 7);
    ASSERT_TRUE(vs.Recover().ok());
    const int level = 1 + static_cast<int>(rng.Uniform(6));
    const uint64_t n = trial == 0 ? 0 : trial == 1 ? 1 : rng.Uniform(301);
    // Gap 1 leaves two files adjacent, width 0 makes a one-key file.
    VersionEdit edit;
    uint64_t next = 1 + rng.Uniform(3);
    for (uint64_t i = 0; i < n; i++) {
      const uint64_t lo = next;
      const uint64_t hi = lo + rng.Uniform(5);
      edit.added.emplace_back(level, MakeFile(vs.NewFileNumber(), key(lo),
                                              key(hi)));
      next = hi + 1 + rng.Uniform(4);
    }
    ASSERT_TRUE(vs.LogAndApply(edit).ok());
    ASSERT_TRUE(vs.CheckInvariants().ok());
    const std::vector<FileMeta>& files = vs.LevelFiles(level);
    ASSERT_EQ(files.size(), n);

    auto check = [&](const std::string& lo, const std::string& hi) {
      std::vector<uint64_t> want, got;
      for (const FileMeta& f : files) {
        if (f.largest < lo || f.smallest > hi) continue;
        want.push_back(f.number);
      }
      for (const FileMeta& f : vs.Overlapping(level, lo, hi)) {
        got.push_back(f.number);
      }
      EXPECT_EQ(got, want) << "[" << lo << ", " << hi << "]";
    };
    // Before every file, after every file, and spanning the whole level.
    check("a", "b");
    check("a", key(0));
    check("z", "zz");
    check(key(next + 1), "z");
    check("a", "z");
    for (const FileMeta& f : files) {
      // Points and range ends equal to a file's bounds.
      check(f.smallest, f.smallest);
      check(f.largest, f.largest);
      check("a", f.smallest);
      check(f.largest, "z");
      // Inverted: the file still spans it, its neighbours do not.
      check(f.largest, f.smallest);
    }
    // The keys between files (every gap key) and random ranges.
    for (size_t i = 1; i < files.size(); i++) {
      for (std::string k = files[i - 1].largest; k < files[i].smallest;) {
        k = key(std::stoull(k.substr(1)) + 1);
        check(k, k);
        check(k, files[i].smallest);
      }
    }
    for (int q = 0; q < 200; q++) {
      const std::string a = key(rng.Uniform(next + 2));
      const std::string b = key(rng.Uniform(next + 2));
      check(a, b);
      check(std::min(a, b), std::max(a, b));
    }
  }
}

TEST_F(VersionTest, RemoveFiles) {
  VersionSet vs(&fs_, "db", 7);
  ASSERT_TRUE(vs.Recover().ok());
  VersionEdit add;
  add.added.emplace_back(1, MakeFile(1, "a", "c"));
  add.added.emplace_back(1, MakeFile(2, "d", "f"));
  ASSERT_TRUE(vs.LogAndApply(add).ok());
  VersionEdit rm;
  rm.removed.emplace_back(1, 1);
  ASSERT_TRUE(vs.LogAndApply(rm).ok());
  ASSERT_EQ(vs.LevelFiles(1).size(), 1u);
  EXPECT_EQ(vs.LevelFiles(1)[0].number, 2u);
}

TEST_F(VersionTest, ManifestRotationKeepsState) {
  VersionSet vs(&fs_, "db", 7);
  ASSERT_TRUE(vs.Recover().ok());
  // More edits than one manifest holds (kEditsPerManifest = 512).
  for (int i = 0; i < 600; i++) {
    VersionEdit edit;
    edit.added.emplace_back(
        1, MakeFile(vs.NewFileNumber(), "k" + std::to_string(i * 2),
                    "k" + std::to_string(i * 2 + 1)));
    ASSERT_TRUE(vs.LogAndApply(edit).ok());
  }
  VersionSet fresh(&fs_, "db", 7);
  ASSERT_TRUE(fresh.Recover().ok());
  EXPECT_EQ(fresh.LevelFiles(1).size(), 600u);
}

TEST(LevelMathTest, TargetsGrowByRatio) {
  LsmOptions o;
  o.l1_target_bytes = 100;
  o.level_size_ratio = 10;
  EXPECT_EQ(LevelTargetBytes(o, 1), 100u);
  EXPECT_EQ(LevelTargetBytes(o, 2), 1000u);
  EXPECT_EQ(LevelTargetBytes(o, 4), 100000u);
}

}  // namespace
}  // namespace ptsb::lsm

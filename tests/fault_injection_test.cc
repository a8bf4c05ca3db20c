// Fault-injection battery: crash at EVERY Nth device write.
//
// A counting fs::FaultPolicy first measures how many device writes W a
// deterministic mixed workload (batched puts, deletes, range deletes, snapshot
// scans mid-stream) issues, then replays the workload W times, failing every
// write from the Nth on (a dying drive stays dead), crashing the filesystem at
// the first surfaced error and reopening. Recovery must be prefix-consistent
// at every single crash point: every engine logs a batch as one record (lsm
// WAL, btree journal, alog segment, each sync-per-record), so it must recover
// to the state after K fully-acknowledged batches, or K+1 if the faulted
// batch's record reached the device before the fault surfaced elsewhere in the
// same Write. Nothing in between: a torn record is dropped whole.
//
// Then, at every crash point, the recovered store must keep what it
// acknowledges later: a synced batch survives a second crash, and after
// a Flush another one survives a third. No engine may append to a log it
// has just replayed (the WAL, the MANIFEST, the journal, a segment): a
// torn tail buried mid-log would drop every later record at the next
// replay.
#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "block/memory_device.h"
#include "fs/filesystem.h"
#include "kv/kv.h"
#include "kv/kvstore.h"
#include "kv/log.h"
#include "kv/registry.h"
#include "kv/write_batch.h"
#include "sim/clock.h"
#include "ssd/ssd_device.h"
#include "util/encoding.h"
#include "util/random.h"
#include "util/status.h"

namespace ptsb {
namespace {

// Counts device writes; from `fail_at` (1-based) on, every write fails
// (sticky — the injected drive does not come back until cleared).
class CountingFaultPolicy : public fs::FaultPolicy {
 public:
  Status BeforeDeviceWrite(const std::string&) override {
    count_++;
    if (fail_at_ > 0 && count_ >= fail_at_) {
      return Status::IoError("injected device-write fault");
    }
    return Status::OK();
  }
  void Arm(uint64_t fail_at) {
    count_ = 0;
    fail_at_ = fail_at;
  }
  uint64_t count() const { return count_; }

 private:
  uint64_t count_ = 0;
  uint64_t fail_at_ = 0;  // 0 = count only
};

struct EngineConfig {
  std::string label;
  std::string engine;
  std::map<std::string, std::string> params;
};

// Tiny structural sizes so flush/compaction/checkpoint/GC run inside the
// short workload, plus sync-per-record durability: a batch whose Write
// returned OK is on the device and MUST survive the crash.
std::vector<EngineConfig> Configs() {
  std::vector<EngineConfig> configs;
  configs.push_back({"lsm",
                     "lsm",
                     {{"memtable_bytes", std::to_string(8 << 10)},
                      {"l1_target_bytes", std::to_string(32 << 10)},
                      {"sst_target_bytes", std::to_string(16 << 10)},
                      {"block_bytes", "1024"},
                      {"wal_sync_every_bytes", "1"}}});
  configs.push_back({"btree",
                     "btree",
                     {{"leaf_max_bytes", std::to_string(2 << 10)},
                      {"internal_max_bytes", "512"},
                      {"cache_bytes", std::to_string(16 << 10)},
                      {"checkpoint_every_bytes", std::to_string(32 << 10)},
                      {"journal_enabled", "1"},
                      {"journal_sync_every_bytes", "1"}}});
  configs.push_back({"alog",
                     "alog",
                     {{"segment_bytes", std::to_string(8 << 10)},
                      {"gc_trigger", "0.4"},
                      {"sync_every_bytes", "1"}}});
  return configs;
}

// The deterministic workload: ~24 batches of puts/deletes with a range
// delete every few batches, ~15 KB of values. Built once; the same
// sequence drives the count pass, every crash pass, and the reference
// models. The values are large enough that every engine's log crosses
// filesystem pages, so some crash points tear a record mid-log.
std::vector<kv::WriteBatch> BuildWorkload() {
  std::vector<kv::WriteBatch> batches;
  Rng rng(0xfa0170);
  for (int b = 0; b < 24; b++) {
    kv::WriteBatch batch;
    const size_t n = 2 + rng.Uniform(6);
    for (size_t j = 0; j < n; j++) {
      const uint64_t id = rng.Uniform(60);
      if (rng.Bernoulli(0.8)) {
        batch.Put(kv::MakeKey(id), kv::MakeValue(id + b * 911, 128));
      } else {
        batch.Delete(kv::MakeKey(id));
      }
    }
    if (b % 5 == 4) {
      const uint64_t lo = rng.Uniform(50);
      batch.DeleteRange(kv::MakeKey(lo), kv::MakeKey(lo + 8));
    }
    batches.push_back(std::move(batch));
  }
  return batches;
}

using Model = std::map<std::string, std::string>;

void ApplyToModel(Model* model, const kv::WriteBatch& batch) {
  for (const kv::WriteBatch::Entry& e : batch.entries()) {
    switch (e.kind) {
      case kv::WriteBatch::EntryKind::kPut:
        (*model)[e.key] = e.value;
        break;
      case kv::WriteBatch::EntryKind::kDelete:
        model->erase(e.key);
        break;
      case kv::WriteBatch::EntryKind::kDeleteRange: {
        auto it = model->lower_bound(e.key);
        while (it != model->end() && it->first < e.value) {
          it = model->erase(it);
        }
        break;
      }
    }
  }
}

// Model state after each prefix: prefix_models[k] = state after k batches.
std::vector<Model> PrefixModels(const std::vector<kv::WriteBatch>& batches) {
  std::vector<Model> models;
  models.emplace_back();
  for (const kv::WriteBatch& batch : batches) {
    Model next = models.back();
    ApplyToModel(&next, batch);
    models.push_back(std::move(next));
  }
  return models;
}

struct Harness {
  block::MemoryBlockDevice dev{4096, 1 << 14};
  fs::SimpleFs fs{&dev, {}};
  std::unique_ptr<kv::KVStore> store;
};

std::unique_ptr<Harness> OpenStore(const EngineConfig& config,
                                   Harness* reuse = nullptr) {
  std::unique_ptr<Harness> h;
  if (reuse == nullptr) h = std::make_unique<Harness>();
  Harness* target = reuse ? reuse : h.get();
  kv::EngineOptions options;
  options.engine = config.engine;
  options.fs = &target->fs;
  options.params = config.params;
  auto opened = kv::OpenStore(options);
  EXPECT_TRUE(opened.ok()) << config.label << ": "
                           << opened.status().ToString();
  target->store = *std::move(opened);
  return h;
}

// Runs the workload until the first Write error; returns the number of
// fully-acknowledged batches. A snapshot scan runs mid-stream so the
// snapshot read path is live while the device degrades.
size_t RunWorkload(kv::KVStore* store,
                   const std::vector<kv::WriteBatch>& batches) {
  size_t ok_batches = 0;
  std::shared_ptr<const kv::Snapshot> snap;
  for (size_t b = 0; b < batches.size(); b++) {
    if (!store->Write(batches[b]).ok()) break;
    ok_batches++;
    if (b == batches.size() / 2) {
      // Mid-workload snapshot scan: must not disturb recovery state.
      auto got = store->GetSnapshot();
      if (got.ok()) {
        snap = *std::move(got);
        kv::ReadOptions opts;
        opts.snapshot = snap.get();
        auto it = store->NewIterator(opts);
        for (it->SeekToFirst(); it->Valid(); it->Next()) {
        }
      }
    }
  }
  snap.reset();
  return ok_batches;
}

// The store's whole contents, by a full scan.
Model ReadAll(const std::string& label, uint64_t fail_at,
              kv::KVStore* store) {
  Model got;
  auto it = store->NewIterator();
  for (it->SeekToFirst(); it->Valid(); it->Next()) {
    got[std::string(it->key())] = std::string(it->value());
  }
  EXPECT_TRUE(it->status().ok())
      << label << " N=" << fail_at << ": " << it->status().ToString();
  return got;
}

// The recovered state IS one of the two candidate prefixes.
void ExpectWholeBatchConsistent(const std::string& label, uint64_t fail_at,
                                kv::KVStore* store, const Model& at_k,
                                const Model& at_k1) {
  const Model got = ReadAll(label, fail_at, store);
  std::string diff;
  for (const auto& [key, value] : at_k) {
    auto it2 = got.find(key);
    if (it2 == got.end()) {
      diff += " missing:" + key;
    } else if (it2->second != value) {
      diff += " differs:" + key;
    }
  }
  for (const auto& [key, value] : got) {
    if (at_k.count(key) == 0) diff += " phantom:" + key;
  }
  EXPECT_TRUE(got == at_k || got == at_k1)
      << label << " crash at device write " << fail_at
      << ": recovered state matches neither prefix K (" << at_k.size()
      << " keys) nor K+1 (" << at_k1.size() << " keys); got " << got.size()
      << " keys; vs K:" << diff;
}

// After a recovery, synced and acknowledged writes must survive further
// crashes: one batch, a crash; then a Flush (an LSM flush rotates the WAL
// and logs a manifest edit, a B+Tree flush checkpoints and rotates the
// journal), another batch, another crash. This catches a recovery that
// appends to a log it just replayed: the first crash's torn tail would
// end up mid-log, and the next replay would stop there and drop every
// later record.
void ExpectLaterWritesSurviveCrashes(const EngineConfig& config,
                                     uint64_t fail_at, Harness* h) {
  Model model = ReadAll(config.label, fail_at, h->store.get());
  const auto commit_crash_and_check = [&](const kv::WriteBatch& batch,
                                          const char* phase) {
    const Status written = h->store->Write(batch);
    ASSERT_TRUE(written.ok()) << config.label << " N=" << fail_at << " "
                              << phase << ": " << written.ToString();
    ApplyToModel(&model, batch);
    h->fs.SimulateCrash();
    h->store.release();  // NOLINT: intentional leak of a crashed store
    OpenStore(config, h);
    ASSERT_NE(h->store, nullptr) << config.label << " N=" << fail_at;
    const Model got = ReadAll(config.label, fail_at, h->store.get());
    EXPECT_TRUE(got == model)
        << config.label << " crash at device write " << fail_at << ", "
        << phase << ": an acknowledged synced write was lost (" << got.size()
        << " keys, expected " << model.size() << ")";
  };
  kv::WriteBatch first;
  for (uint64_t id = 0; id < 4; id++) {
    first.Put(kv::MakeKey(id), kv::MakeValue(id + 7777, 48));
  }
  first.Delete(kv::MakeKey(20));
  commit_crash_and_check(first, "batch then crash");
  if (::testing::Test::HasFatalFailure()) return;

  const Status flushed = h->store->Flush();
  ASSERT_TRUE(flushed.ok()) << config.label << " N=" << fail_at << ": "
                            << flushed.ToString();
  kv::WriteBatch second;
  for (uint64_t id = 30; id < 34; id++) {
    second.Put(kv::MakeKey(id), kv::MakeValue(id + 8888, 48));
  }
  second.DeleteRange(kv::MakeKey(40), kv::MakeKey(44));
  commit_crash_and_check(second, "flush, batch, then crash");
}

// Crashes `config` at every device write of `batches`, then checks the
// recovered state and that later synced writes survive further crashes.
void RunCrashBattery(const EngineConfig& config,
                     const std::vector<kv::WriteBatch>& batches) {
  const std::vector<Model> prefixes = PrefixModels(batches);
  // Pass 0: count the device writes the full workload issues.
  CountingFaultPolicy policy;
  uint64_t total_writes = 0;
  {
    auto h = OpenStore(config);
    ASSERT_NE(h->store, nullptr) << config.label;
    h->fs.SetFaultPolicy(&policy);
    policy.Arm(0);
    ASSERT_EQ(RunWorkload(h->store.get(), batches), batches.size())
        << config.label << ": workload must succeed without faults";
    h->fs.SetFaultPolicy(nullptr);
    total_writes = policy.count();
    ASSERT_TRUE(h->store->Close().ok()) << config.label;
  }
  ASSERT_GT(total_writes, batches.size())
      << config.label << ": sync-per-record must write per batch";

  // Crash at every Nth device write.
  for (uint64_t n = 1; n <= total_writes; n++) {
    auto h = OpenStore(config);
    ASSERT_NE(h->store, nullptr) << config.label;
    h->fs.SetFaultPolicy(&policy);
    policy.Arm(n);
    const size_t k = RunWorkload(h->store.get(), batches);
    // Crash: drop unsynced state, leak the store so destructors cannot
    // write post-crash, clear the injection for recovery.
    h->fs.SimulateCrash();
    h->store.release();  // NOLINT: intentional leak of a crashed store
    h->fs.SetFaultPolicy(nullptr);
    OpenStore(config, h.get());
    ASSERT_NE(h->store, nullptr) << config.label << " N=" << n;
    ExpectWholeBatchConsistent(config.label, n, h->store.get(), prefixes[k],
                               prefixes[std::min(k + 1, batches.size())]);
    if (::testing::Test::HasFatalFailure()) return;
    ExpectLaterWritesSurviveCrashes(config, n, h.get());
    if (::testing::Test::HasFatalFailure()) return;
    const Status closed = h->store->Close();
    ASSERT_TRUE(closed.ok())
        << config.label << " N=" << n << ": " << closed.ToString();
  }
}

TEST(FaultInjectionBattery, EveryCrashPointRecoversAPrefix) {
  const std::vector<kv::WriteBatch> batches = BuildWorkload();
  for (const EngineConfig& config : Configs()) {
    RunCrashBattery(config, batches);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

// The lsm battery with 60 range deletes up front. Every flush's manifest
// edit carries the full tombstone list, so edits are a few KiB, span
// filesystem pages, and a crash can tear one mid-record: recovery must
// then continue in a fresh manifest, or the next flush's edit lands
// behind the torn record and is lost at the next replay (and with it the
// flushed SST, swept as unreferenced).
TEST(FaultInjectionBattery, LargeManifestEditsSurviveATornManifestTail) {
  EngineConfig config = Configs()[0];  // lsm
  ASSERT_EQ(config.engine, "lsm");
  config.label = "lsm+range-deletes";
  std::vector<kv::WriteBatch> batches;
  for (uint64_t b = 0; b < 6; b++) {
    kv::WriteBatch batch;
    for (uint64_t j = 0; j < 10; j++) {
      const uint64_t lo = 1000 + 2 * (b * 10 + j);  // beyond the put keys
      batch.DeleteRange(kv::MakeKey(lo), kv::MakeKey(lo + 1));
    }
    batches.push_back(std::move(batch));
  }
  for (kv::WriteBatch& batch : BuildWorkload()) {
    batches.push_back(std::move(batch));
  }
  RunCrashBattery(config, batches);
}

// The payload offsets of the framed records in a log image
// (fixed32 crc | varint32 len | payload).
std::vector<uint64_t> PayloadOffsets(std::string_view log) {
  std::vector<uint64_t> offsets;
  std::string_view in = log;
  uint32_t crc, len;
  while (GetFixed32(&in, &crc) && GetVarint32(&in, &len) && in.size() >= len) {
    offsets.push_back(log.size() - in.size());
    in.remove_prefix(len);
  }
  return offsets;
}

std::string ReadWholeFile(fs::SimpleFs* fs, const std::string& name) {
  auto file = fs->Open(name);
  if (!file.ok()) return "";
  std::string data((*file)->size(), '\0');
  auto got = (*file)->ReadAt(0, data.size(), data.data());
  data.resize(got.ok() ? *got : 0);
  return data;
}

// Replaces `name` with a synced file holding `contents`.
Status RewriteFile(fs::SimpleFs* fs, const std::string& name,
                   std::string_view contents) {
  PTSB_RETURN_IF_ERROR(fs->Delete(name));
  PTSB_ASSIGN_OR_RETURN(fs::File * file, fs->Create(name));
  PTSB_RETURN_IF_ERROR(file->Append(contents));
  return file->Sync();
}

// A damaged record with an intact record after it is not a torn tail:
// Open must fail with Corruption, on every attempt, and leave the log as
// it was. A failed open that checkpointed, flushed or rotated its partly
// replayed state would drop every record after the damage; repairing the
// byte must bring all of them back.
TEST(FaultInjectionBattery, MidLogDamageFailsEveryOpenAndKeepsTheLog) {
  const auto newest = [](std::string dir, std::string ext) {
    return [=](fs::SimpleFs* fs) {
      const auto files = kv::ListNumberedFiles(*fs, dir, ext);
      return files.empty() ? std::string() : files.back().second;
    };
  };
  struct Case {
    std::string label;  // an EngineConfig label
    std::string log;    // which of its logs gets damaged
    bool flush_after_each_batch;
    std::function<std::string(fs::SimpleFs*)> log_name;
  };
  const std::vector<Case> cases = {
      {"lsm", "WAL", false, newest("lsm", ".log")},
      {"lsm", "MANIFEST", true,
       [](fs::SimpleFs* fs) { return ReadWholeFile(fs, "lsm/CURRENT"); }},
      {"btree", "journal", false,
       [](fs::SimpleFs*) { return std::string("btree/tree.db.journal"); }},
      {"alog", "segment", false, newest("alog", ".seg")},
  };
  const std::vector<EngineConfig> configs = Configs();
  for (const Case& c : cases) {
    const std::string label = c.label + " " + c.log;
    const EngineConfig* config = nullptr;
    for (const EngineConfig& e : configs) {
      if (e.label == c.label) config = &e;
    }
    ASSERT_NE(config, nullptr) << label;
    auto h = OpenStore(*config);
    ASSERT_NE(h->store, nullptr) << label;
    Model model;
    for (uint64_t b = 0; b < 5; b++) {
      kv::WriteBatch batch;
      batch.Put(kv::MakeKey(b), kv::MakeValue(b, 32));
      batch.Put(kv::MakeKey(b + 10), kv::MakeValue(b + 10, 32));
      ASSERT_TRUE(h->store->Write(batch).ok()) << label;
      ApplyToModel(&model, batch);
      if (c.flush_after_each_batch) {
        ASSERT_TRUE(h->store->Flush().ok()) << label;
      }
    }
    h->fs.SimulateCrash();
    h->store.release();  // NOLINT: intentional leak of a crashed store

    const std::string name = c.log_name(&h->fs);
    ASSERT_FALSE(name.empty()) << label;
    std::string log = ReadWholeFile(&h->fs, name);
    const std::vector<uint64_t> offsets = PayloadOffsets(log);
    ASSERT_GE(offsets.size(), 3u) << label << ": " << name;
    const std::string original = log;
    log[offsets[1]] ^= 0x5a;  // the second record's first payload byte
    ASSERT_TRUE(RewriteFile(&h->fs, name, log).ok()) << label;

    kv::EngineOptions options;
    options.engine = config->engine;
    options.fs = &h->fs;
    options.params = config->params;
    for (int attempt = 1; attempt <= 2; attempt++) {
      auto opened = kv::OpenStore(options);
      EXPECT_TRUE(opened.status().IsCorruption())
          << label << " open #" << attempt << ": "
          << opened.status().ToString();
      EXPECT_TRUE(ReadWholeFile(&h->fs, name) == log)
          << label << " open #" << attempt << " changed the damaged log";
    }

    ASSERT_TRUE(RewriteFile(&h->fs, name, original).ok()) << label;
    OpenStore(*config, h.get());
    ASSERT_NE(h->store, nullptr) << label;
    EXPECT_TRUE(ReadAll(label, 0, h->store.get()) == model)
        << label << ": the repaired log lost acknowledged writes";
    ASSERT_TRUE(h->store->Close().ok()) << label;
  }
}

// The same battery on the simulated SSD with background_io=1 on lsm:
// compaction runs on a background lane booked AHEAD of the foreground
// clock. A crash at any device write must still recover a clean prefix:
// moving work in virtual time must never corrupt what reached the device
// before the fault.
struct TimedHarness {
  static ssd::SsdConfig Config() {
    ssd::SsdConfig c;
    c.geometry.pages_per_block = 64;
    c.geometry.logical_bytes = 8ull << 20;
    c.geometry.hardware_op_frac = 0.25;
    c.timing.cache_bytes = 0;  // commits synchronous with the backend
    return c;
  }
  sim::SimClock clock;
  ssd::SsdDevice ssd{Config(), &clock};
  fs::SimpleFs fs{&ssd, {}};
  std::unique_ptr<kv::KVStore> store;
};

void OpenTimedStore(const EngineConfig& config, TimedHarness* h) {
  kv::EngineOptions options;
  options.engine = config.engine;
  options.fs = &h->fs;
  options.clock = &h->clock;
  options.params = config.params;
  auto opened = kv::OpenStore(options);
  EXPECT_TRUE(opened.ok()) << config.label << ": "
                           << opened.status().ToString();
  h->store = *std::move(opened);
}

TEST(FaultInjectionBattery, CrashUnderBackgroundIoRecoversAPrefix) {
  const std::vector<kv::WriteBatch> batches = BuildWorkload();
  const std::vector<Model> prefixes = PrefixModels(batches);
  EngineConfig config = Configs()[0];  // lsm
  ASSERT_EQ(config.engine, "lsm");
  config.label = "lsm+background_io";
  // Structural sizes small enough that the ~15 KB workload flushes and
  // compacts repeatedly — otherwise no background-class I/O exists.
  config.params["memtable_bytes"] = "1024";
  config.params["l1_target_bytes"] = "4096";
  config.params["sst_target_bytes"] = "2048";
  config.params["background_io"] = "1";

  // Count pass; also prove the battery really runs on background lanes:
  // compaction must have issued background I/O on the device.
  CountingFaultPolicy policy;
  uint64_t total_writes = 0;
  {
    auto h = std::make_unique<TimedHarness>();
    OpenTimedStore(config, h.get());
    ASSERT_NE(h->store, nullptr);
    h->fs.SetFaultPolicy(&policy);
    policy.Arm(0);
    ASSERT_EQ(RunWorkload(h->store.get(), batches), batches.size());
    h->fs.SetFaultPolicy(nullptr);
    total_writes = policy.count();
    const auto stats = h->ssd.channel_stats()[0];
    const auto bg = static_cast<size_t>(sim::IoClass::kBackground);
    EXPECT_GT(stats.class_bytes[bg], 0u)
        << "background_io=1 must issue background-class device I/O";
    ASSERT_TRUE(h->store->Close().ok());
  }
  ASSERT_GT(total_writes, batches.size());

  for (uint64_t n = 1; n <= total_writes; n++) {
    auto h = std::make_unique<TimedHarness>();
    OpenTimedStore(config, h.get());
    ASSERT_NE(h->store, nullptr);
    h->fs.SetFaultPolicy(&policy);
    policy.Arm(n);
    const size_t k = RunWorkload(h->store.get(), batches);
    h->fs.SimulateCrash();
    h->store.release();  // NOLINT: intentional leak of a crashed store
    h->fs.SetFaultPolicy(nullptr);
    OpenTimedStore(config, h.get());
    ASSERT_NE(h->store, nullptr) << " N=" << n;
    ExpectWholeBatchConsistent(config.label, n, h->store.get(), prefixes[k],
                               prefixes[std::min(k + 1, batches.size())]);
    ASSERT_TRUE(h->store->Close().ok()) << config.label << " N=" << n;
    if (::testing::Test::HasFatalFailure()) return;
  }
}

size_t CountSstFiles(const fs::SimpleFs& fs) {
  size_t n = 0;
  for (const std::string& name : fs.List("")) {
    if (name.size() > 4 && name.compare(name.size() - 4, 4, ".sst") == 0) n++;
  }
  return n;
}

// The same battery with partitioned subcompactions live: every picked
// compaction is split into 4 key subranges running in their own
// background lanes, so a crash can land after some subranges wrote
// their output SSTs but before the single atomic install. Recovery must
// still be a clean prefix, and the open-time orphan sweep must reclaim
// the partial subrange outputs the manifest never referenced.
TEST(FaultInjectionBattery, CrashMidSubcompactionSweepsPartialOutputs) {
  const std::vector<kv::WriteBatch> batches = BuildWorkload();
  const std::vector<Model> prefixes = PrefixModels(batches);
  EngineConfig config = Configs()[0];  // lsm
  ASSERT_EQ(config.engine, "lsm");
  config.label = "lsm+subcompaction";
  // Small enough that the ~15 KB workload compacts repeatedly, with every
  // pick partitioned four ways across background lanes.
  config.params["memtable_bytes"] = "1024";
  config.params["l1_target_bytes"] = "4096";
  config.params["sst_target_bytes"] = "2048";
  config.params["background_io"] = "1";
  config.params["compaction_parallelism"] = "4";

  // Count pass; prove compactions actually ran (otherwise no
  // subcompaction ever starts and the battery tests nothing).
  CountingFaultPolicy policy;
  uint64_t total_writes = 0;
  {
    auto h = std::make_unique<TimedHarness>();
    OpenTimedStore(config, h.get());
    ASSERT_NE(h->store, nullptr);
    h->fs.SetFaultPolicy(&policy);
    policy.Arm(0);
    ASSERT_EQ(RunWorkload(h->store.get(), batches), batches.size());
    h->fs.SetFaultPolicy(nullptr);
    total_writes = policy.count();
    EXPECT_GT(h->store->GetStats().compaction_bytes_written, 0u)
        << "workload must compact for the battery to be meaningful";
    ASSERT_TRUE(h->store->Close().ok());
  }
  ASSERT_GT(total_writes, batches.size());

  size_t swept_files = 0;
  for (uint64_t n = 1; n <= total_writes; n++) {
    auto h = std::make_unique<TimedHarness>();
    OpenTimedStore(config, h.get());
    ASSERT_NE(h->store, nullptr);
    h->fs.SetFaultPolicy(&policy);
    policy.Arm(n);
    const size_t k = RunWorkload(h->store.get(), batches);
    h->fs.SimulateCrash();
    h->store.release();  // NOLINT: intentional leak of a crashed store
    h->fs.SetFaultPolicy(nullptr);
    const size_t ssts_at_crash = CountSstFiles(h->fs);
    OpenTimedStore(config, h.get());
    ASSERT_NE(h->store, nullptr) << " N=" << n;
    // Files present at the crash but gone after recovery were reclaimed
    // by the open-time sweep (never-installed subrange outputs).
    const size_t ssts_after = CountSstFiles(h->fs);
    if (ssts_at_crash > ssts_after) swept_files += ssts_at_crash - ssts_after;
    ExpectWholeBatchConsistent(config.label, n, h->store.get(), prefixes[k],
                               prefixes[std::min(k + 1, batches.size())]);
    ASSERT_TRUE(h->store->Close().ok()) << config.label << " N=" << n;
    if (::testing::Test::HasFatalFailure()) return;
  }
  // Across the battery some crash point must land after a subrange
  // output was created but before the atomic install.
  EXPECT_GT(swept_files, 0u)
      << "no crash point left a partial subcompaction output to sweep";
}

}  // namespace
}  // namespace ptsb

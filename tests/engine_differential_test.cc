// Differential testing: every engine implements kv::KVStore and is opened
// through kv::OpenStore, so identical operation streams — single puts,
// batched writes, deletes, point reads and iterator scans — must produce
// identical visible state through flushes, compactions, evictions,
// checkpoints, segment GC and reopen. The traces run across ALL of
// kv::EngineNames() and compare them pairwise, so an engine added to the
// table inherits the full battery. Also checks cross-stack accounting
// invariants (user <= host <= NAND bytes), group-commit log accounting
// (WAL/journal bytes grow sub-linearly with batch size; concurrent
// writers merge into fewer records than puts), snapshot pin accounting,
// write-path semantics (empty batches, duplicate keys in one batch, crash
// replay of batch records), OpenStore and its param decoding, error
// propagation from injected device faults, background-I/O separation
// (foreground time falls while scheduled device work is conserved), and
// the per-engine concurrency and iterator-invalidation contracts.
#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "alog/alog_store.h"
#include "block/iostat.h"
#include "block/memory_device.h"
#include "btree/btree_store.h"
#include "core/experiment.h"
#include "fs/filesystem.h"
#include "kv/kv.h"
#include "kv/registry.h"
#include "kv/write_batch.h"
#include "lsm/lsm_store.h"
#include "sim/clock.h"
#include "ssd/ssd_device.h"
#include "test_support.h"
#include "util/parse.h"
#include "util/random.h"

namespace ptsb {
namespace {

std::map<std::string, std::string> TinyLsmParams() {
  return {{"memtable_bytes", std::to_string(16 << 10)},
          {"l1_target_bytes", std::to_string(64 << 10)},
          {"sst_target_bytes", std::to_string(32 << 10)},
          {"block_bytes", "1024"}};
}

std::map<std::string, std::string> TinyBTreeParams() {
  return {{"leaf_max_bytes", std::to_string(2 << 10)},
          {"internal_max_bytes", "512"},
          {"cache_bytes", std::to_string(16 << 10)},
          {"checkpoint_every_bytes", std::to_string(64 << 10)},
          {"file_grow_bytes", std::to_string(64 << 10)}};
}

std::map<std::string, std::string> TinyAlogParams() {
  return {{"segment_bytes", std::to_string(16 << 10)},
          {"gc_trigger", "0.4"}};
}

// Tiny structural sizes per engine so every mechanism (flush, compaction,
// eviction, checkpoint, segment GC) fires within a few thousand ops.
// Unknown (future) engines run on their defaults.
std::map<std::string, std::string> TinyParams(const std::string& engine) {
  if (engine == "lsm") return TinyLsmParams();
  if (engine == "btree") return TinyBTreeParams();
  if (engine == "alog") return TinyAlogParams();
  return {};
}

// One entry of the pairwise battery: a kv::OpenStore engine name plus the
// params to open it with.
struct EngineConfig {
  std::string label;   // unique name for failure messages
  std::string engine;  // kv::OpenStore name
  std::map<std::string, std::string> params;
  // Open with the harness's sim::SimClock. A store has background lanes
  // only with a clock and background_io=1.
  bool timed = false;
};

std::vector<EngineConfig> AllEngineConfigs() {
  std::vector<EngineConfig> configs;
  for (const std::string& name : kv::EngineNames()) {
    configs.push_back({name, name, TinyParams(name)});
  }
  // Every engine again on four background lanes: lsm splits each picked
  // compaction four ways, btree fans its paced checkpoint writes out and
  // alog its GC value reads. Each runs as its own battery entry, so the
  // four-lane path is held to the identical visible state as the
  // one-lane one (and every other engine) through the whole pairwise
  // trace set.
  for (const auto& [label, engine] :
       std::vector<std::pair<std::string, std::string>>{
           {"lsm-subcompact", "lsm"},
           {"btree-k4", "btree"},
           {"alog-k4", "alog"}}) {
    std::map<std::string, std::string> params = TinyParams(engine);
    params["background_io"] = "1";
    params["compaction_parallelism"] = "4";
    configs.push_back({label, engine, std::move(params), /*timed=*/true});
  }
  return configs;
}

// Overrides that make every write durable the moment Write returns, so a
// SimulateCrash + reopen must recover it (journal on + sync per record).
std::map<std::string, std::string> DurableParams(const EngineConfig& config) {
  const std::string& base = config.engine;
  if (base == "lsm") return {{"wal_sync_every_bytes", "1"}};
  if (base == "btree") {
    return {{"journal_enabled", "1"}, {"journal_sync_every_bytes", "1"}};
  }
  if (base == "alog") return {{"sync_every_bytes", "1"}};
  return {};
}

// The B+Tree journal is the analog of the WAL/segment log: turn it on so
// reopen recovers un-checkpointed batches like the other engines do.
std::map<std::string, std::string> JournalParams(const EngineConfig& config) {
  if (config.engine == "btree") return {{"journal_enabled", "1"}};
  return {};
}

struct EngineHarness {
  sim::SimClock clock;
  block::MemoryBlockDevice dev{4096, 1 << 15};
  fs::SimpleFs fs{&dev, {}};
  std::unique_ptr<kv::KVStore> store;
};

// Opens `config` (plus `extra_params`) on the harness's filesystem.
StatusOr<std::unique_ptr<kv::KVStore>> OpenOn(
    EngineHarness* h, const EngineConfig& config,
    const std::map<std::string, std::string>& extra_params) {
  kv::EngineOptions options;
  options.engine = config.engine;
  options.fs = &h->fs;
  if (config.timed) options.clock = &h->clock;
  options.params = config.params;
  for (const auto& [k, v] : extra_params) options.params[k] = v;
  return kv::OpenStore(options);
}

std::unique_ptr<EngineHarness> MakeEngine(
    const EngineConfig& config,
    std::map<std::string, std::string> extra_params = {}) {
  auto h = std::make_unique<EngineHarness>();
  auto opened = OpenOn(h.get(), config, extra_params);
  EXPECT_TRUE(opened.ok()) << config.label << ": "
                           << opened.status().ToString();
  h->store = *std::move(opened);
  return h;
}

// Re-opens an engine on an existing harness (reopen/recovery tests).
void Reopen(EngineHarness* h, const EngineConfig& config,
            std::map<std::string, std::string> extra_params = {}) {
  auto opened = OpenOn(h, config, extra_params);
  ASSERT_TRUE(opened.ok()) << config.label << ": "
                           << opened.status().ToString();
  h->store = *std::move(opened);
}

TEST(RegistryTest, BuiltinEnginesRegisteredAndUnknownRejected) {
  EXPECT_EQ(kv::EngineNames(),
            (std::vector<std::string>{"alog", "btree", "lsm"}));

  block::MemoryBlockDevice dev(4096, 1 << 14);
  fs::SimpleFs fs(&dev, {});
  kv::EngineOptions options;
  options.engine = "no-such-engine";
  options.fs = &fs;
  auto opened = kv::OpenStore(options);
  ASSERT_FALSE(opened.ok());
  EXPECT_TRUE(opened.status().IsInvalidArgument());
  // The error names what IS available.
  EXPECT_NE(opened.status().message().find("lsm"), std::string::npos);
  EXPECT_NE(opened.status().message().find("alog"), std::string::npos);

  options.engine = "lsm";
  options.fs = nullptr;
  EXPECT_FALSE(kv::OpenStore(options).ok());
}

TEST(RegistryTest, ParamsConfigureTheEngine) {
  // A param the factory parses must change engine behavior: with the WAL
  // disabled, no wal bytes are ever accounted.
  auto h = MakeEngine({"lsm", "lsm", TinyLsmParams()}, {{"wal_enabled", "0"}});
  ASSERT_TRUE(h->store->Put("k", "v").ok());
  EXPECT_EQ(h->store->GetStats().wal_bytes_written, 0u);
  ASSERT_TRUE(h->store->Close().ok());
}

// Opens `engine` with `params` on a fresh memory device; the store (or the
// error) is returned with the harness that must outlive it.
struct OpenResult {
  std::unique_ptr<EngineHarness> harness;
  StatusOr<std::unique_ptr<kv::KVStore>> store;
};
OpenResult TryOpen(const std::string& engine,
                   std::map<std::string, std::string> params) {
  auto harness = std::make_unique<EngineHarness>();
  kv::EngineOptions options;
  options.engine = engine;
  options.fs = &harness->fs;
  options.params = std::move(params);
  auto store = kv::OpenStore(options);
  return {std::move(harness), std::move(store)};
}

// Opens lsm with `params` and returns the options it decoded.
lsm::LsmOptions OpenedLsmOptions(std::map<std::string, std::string> params) {
  OpenResult r = TryOpen("lsm", std::move(params));
  EXPECT_TRUE(r.store.ok()) << r.store.status().ToString();
  if (!r.store.ok()) return {};
  return static_cast<const lsm::LsmStore&>(**r.store).options();
}

// A malformed value is InvalidArgument naming the key, never the default.
TEST(RegistryTest, MalformedParamValuesAreInvalidArgument) {
  const std::vector<std::pair<std::string, std::string>> bad = {
      // An unsigned field: a sign must not wrap to 2^64-1, and junk or
      // overflow must not clamp.
      {"memtable_bytes", "-1"},
      {"memtable_bytes", "12x"},
      {"memtable_bytes", "99999999999999999999999"},
      {"memtable_bytes", "64k"},
      {"memtable_bytes", ""},
      // An int64 field overflowing.
      {"cpu_put_ns", "99999999999999999999999"},
      // int fields: a value that parses as int64 but narrows.
      {"l0_compaction_trigger", "4294967296"},
      {"l0_compaction_trigger", "-2147483649"},
      // A double and a bool with junk.
      {"level_size_ratio", "12x"},
      {"wal_enabled", "yes"},
  };
  for (const auto& [key, value] : bad) {
    OpenResult r = TryOpen("lsm", {{key, value}});
    ASSERT_FALSE(r.store.ok()) << key << "=" << value;
    EXPECT_TRUE(r.store.status().IsInvalidArgument());
    EXPECT_NE(r.store.status().message().find(key), std::string::npos)
        << r.store.status().ToString();
  }
  // Valid values still parse to what they say.
  const lsm::LsmOptions o = OpenedLsmOptions({{"memtable_bytes", "123"},
                                              {"l0_compaction_trigger", "-7"},
                                              {"cpu_put_ns", "4294967296"},
                                              {"level_size_ratio", "0.25"},
                                              {"wal_enabled", "false"}});
  EXPECT_EQ(o.memtable_bytes, 123u);
  EXPECT_EQ(o.l0_compaction_trigger, -7);
  EXPECT_EQ(o.cpu_put_ns, 4294967296);
  EXPECT_DOUBLE_EQ(o.level_size_ratio, 0.25);
  EXPECT_FALSE(o.wal_enabled);
}

// A key an engine does not have is InvalidArgument naming the key and the
// engine, whether it is a typo or another engine's param.
TEST(RegistryTest, UnknownParamIsInvalidArgumentForEveryEngine) {
  for (const std::string& engine : kv::EngineNames()) {
    for (const std::string key :
         {"memtable_byte", "max_write_group_bytes", "no_such_param"}) {
      OpenResult r = TryOpen(engine, {{key, "1"}});
      ASSERT_FALSE(r.store.ok()) << engine << " " << key;
      EXPECT_TRUE(r.store.status().IsInvalidArgument());
      const std::string message = r.store.status().message();
      EXPECT_NE(message.find(key), std::string::npos) << message;
      EXPECT_NE(message.find(engine), std::string::npos) << message;
    }
  }
  EXPECT_FALSE(TryOpen("btree", {{"segment_bytes", "65536"}}).store.ok());
  EXPECT_FALSE(TryOpen("alog", {{"cache_bytes", "65536"}}).store.ok());
}

// encode -> OpenStore -> re-encode of the options the store opened with
// gives back the same map, for the default and the scaled options.
template <typename Store, typename Options>
void ExpectParamsRoundTrip(const std::string& engine, const Options& o) {
  const std::map<std::string, std::string> encoded =
      EncodeEngineParams(o);
  OpenResult r = TryOpen(engine, encoded);
  ASSERT_TRUE(r.store.ok()) << engine << ": " << r.store.status().ToString();
  EXPECT_EQ(EncodeEngineParams(static_cast<const Store&>(**r.store).options()),
            encoded)
      << engine;
}

TEST(RegistryTest, EncodeOpenReencodeRoundTrips) {
  core::ExperimentConfig config;
  config.scale = 4000;
  ExpectParamsRoundTrip<lsm::LsmStore>("lsm", lsm::LsmOptions{});
  ExpectParamsRoundTrip<lsm::LsmStore>("lsm", core::ScaledLsmOptions(config));
  ExpectParamsRoundTrip<btree::BTreeStore>("btree", btree::BTreeOptions{});
  ExpectParamsRoundTrip<btree::BTreeStore>("btree",
                                           core::ScaledBTreeOptions(config));
  ExpectParamsRoundTrip<alog::AlogStore>("alog", alog::AlogOptions{});
  alog::AlogOptions scaled_alog;
  const auto scaled = alog::ScaledEngineParams(config.scale);
  ASSERT_TRUE(ParseValue(scaled.at("segment_bytes"),
                         &scaled_alog.segment_bytes));
  ExpectParamsRoundTrip<alog::AlogStore>("alog", scaled_alog);
  EXPECT_EQ(alog::EncodeEngineParams(scaled_alog), scaled);
}

// One deterministic op stream applied to every engine; all
// pairs must agree at every probe.
class DifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DifferentialTest, EnginesAgreeOnEverything) {
  const std::vector<EngineConfig> configs = AllEngineConfigs();
  ASSERT_GE(configs.size(), 6u);  // each engine on one lane and on four
  std::vector<std::unique_ptr<EngineHarness>> engines;
  for (const EngineConfig& c : configs) engines.push_back(MakeEngine(c));

  Rng rng(GetParam());
  for (int i = 0; i < 3000; i++) {
    const std::string key = "k" + std::to_string(rng.Uniform(600));
    const int pick = static_cast<int>(rng.Uniform(10));
    if (pick < 7) {
      std::string value(rng.UniformRange(1, 800), '\0');
      rng.FillBytes(value.data(), value.size());
      for (auto& h : engines) {
        ASSERT_TRUE(h->store->Put(key, value).ok());
      }
    } else if (pick < 9) {
      for (auto& h : engines) {
        ASSERT_TRUE(h->store->Delete(key).ok());
      }
    } else {
      std::string a;
      const Status sa = engines[0]->store->Get(key, &a);
      for (size_t e = 1; e < engines.size(); e++) {
        std::string b;
        const Status sb = engines[e]->store->Get(key, &b);
        ASSERT_EQ(sa.ok(), sb.ok())
            << configs[0].label << " vs " << configs[e].label << ": " << key
            << " at op " << i;
        if (sa.ok()) {
          ASSERT_EQ(a, b) << configs[0].label << " vs " << configs[e].label;
        }
      }
    }
  }
  // Full-range scans must agree exactly, pairwise.
  std::vector<std::pair<std::string, std::string>> first;
  ASSERT_TRUE(
      testing::CollectRange(engines[0]->store.get(), "", 100000, &first)
          .ok());
  for (size_t e = 1; e < engines.size(); e++) {
    std::vector<std::pair<std::string, std::string>> other;
    ASSERT_TRUE(
        testing::CollectRange(engines[e]->store.get(), "", 100000, &other)
            .ok());
    ASSERT_EQ(first.size(), other.size())
        << configs[0].label << " vs " << configs[e].label;
    for (size_t i = 0; i < first.size(); i++) {
      EXPECT_EQ(first[i].first, other[i].first) << configs[e].label;
      EXPECT_EQ(first[i].second, other[i].second) << configs[e].label;
    }
  }
  for (auto& h : engines) {
    ASSERT_TRUE(h->store->Close().ok());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialTest,
                         ::testing::Values(1u, 2u, 3u, 4u));

// The batched-API trace: randomized WriteBatch / Delete / iterator ops
// through kv::OpenStore, cross-checked across every engine and
// against a reference model, with streamed iterator comparison at
// checkpoints.
class BatchedDifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BatchedDifferentialTest, BatchedTraceProducesIdenticalState) {
  const std::vector<EngineConfig> configs = AllEngineConfigs();
  std::vector<std::unique_ptr<EngineHarness>> engines;
  for (const EngineConfig& c : configs) {
    engines.push_back(MakeEngine(c, JournalParams(c)));
  }
  testing::ReferenceModel model;
  Rng rng(GetParam() ^ 0xbadc0ffe);

  for (int round = 0; round < 120; round++) {
    const int pick = static_cast<int>(rng.Uniform(10));
    if (pick < 6) {
      // A mixed batch of puts and deletes, applied as one Write. Keys can
      // repeat within a batch: last entry must win everywhere.
      kv::WriteBatch batch;
      const size_t n = 1 + rng.Uniform(32);
      for (size_t j = 0; j < n; j++) {
        const std::string key = "k" + std::to_string(rng.Uniform(400));
        if (rng.Bernoulli(0.85)) {
          std::string value(rng.UniformRange(1, 400), '\0');
          rng.FillBytes(value.data(), value.size());
          batch.Put(key, value);
          model.Put(key, value);
        } else {
          batch.Delete(key);
          model.Delete(key);
        }
      }
      for (auto& h : engines) {
        ASSERT_TRUE(h->store->Write(batch).ok());
      }
    } else if (pick < 8) {
      const std::string key = "k" + std::to_string(rng.Uniform(400));
      const auto expected = model.Get(key);
      for (size_t e = 0; e < engines.size(); e++) {
        std::string got;
        const Status s = engines[e]->store->Get(key, &got);
        ASSERT_EQ(s.ok(), expected.has_value())
            << configs[e].label << ": " << key << " at round " << round;
        if (expected.has_value()) {
          ASSERT_EQ(got, *expected) << configs[e].label;
        }
      }
    } else {
      // Streaming comparison from a random start key: every engine's
      // iterator must yield the same bounded run, matching the model.
      const std::string start = "k" + std::to_string(rng.Uniform(400));
      std::vector<std::unique_ptr<kv::KVStore::Iterator>> iters;
      for (auto& h : engines) {
        iters.push_back(h->store->NewIterator());
        iters.back()->Seek(start);
      }
      auto im = model.map().lower_bound(start);
      for (int step = 0; step < 25; step++) {
        const bool model_valid = im != model.map().end();
        for (size_t e = 0; e < engines.size(); e++) {
          ASSERT_EQ(iters[e]->Valid(), model_valid)
              << configs[e].label << " round " << round << " step " << step;
        }
        if (!model_valid) break;
        for (size_t e = 0; e < engines.size(); e++) {
          EXPECT_EQ(iters[e]->key(), im->first) << configs[e].label;
          EXPECT_EQ(iters[e]->value(), im->second) << configs[e].label;
          iters[e]->Next();
        }
        ++im;
      }
      for (size_t e = 0; e < engines.size(); e++) {
        ASSERT_TRUE(iters[e]->status().ok())
            << configs[e].label << ": " << iters[e]->status().ToString();
      }
    }
  }

  // Final full sweep via iterators (not the Scan shim).
  {
    std::vector<std::unique_ptr<kv::KVStore::Iterator>> iters;
    for (auto& h : engines) {
      iters.push_back(h->store->NewIterator());
      iters.back()->SeekToFirst();
    }
    size_t n = 0;
    for (auto im = model.map().begin(); im != model.map().end(); ++im, n++) {
      for (size_t e = 0; e < engines.size(); e++) {
        ASSERT_TRUE(iters[e]->Valid()) << configs[e].label << " ended early at " << n;
        EXPECT_EQ(iters[e]->key(), im->first) << configs[e].label;
        EXPECT_EQ(iters[e]->value(), im->second) << configs[e].label;
        iters[e]->Next();
      }
    }
    for (size_t e = 0; e < engines.size(); e++) {
      EXPECT_FALSE(iters[e]->Valid()) << configs[e].label << " has phantom keys";
      ASSERT_TRUE(iters[e]->status().ok());
    }
    EXPECT_EQ(n, model.size());
  }

  // Stats invariants under the batched API: every entry was counted, and
  // batches were counted as submitted (Write calls), not per entry.
  for (size_t e = 0; e < engines.size(); e++) {
    const auto stats = engines[e]->store->GetStats();
    EXPECT_GT(stats.user_batches, 0u) << configs[e].label;
    EXPECT_GE(stats.user_puts + stats.user_deletes, stats.user_batches)
        << configs[e].label;
  }

  // Every engine reopens to the same state (journal/WAL/segment replay of
  // batched records plus checkpointed state).
  for (size_t e = 0; e < engines.size(); e++) {
    ASSERT_TRUE(engines[e]->store->Close().ok()) << configs[e].label;
    Reopen(engines[e].get(), configs[e]);
    testing::VerifyAll(engines[e]->store.get(), model);
    ASSERT_TRUE(engines[e]->store->Close().ok()) << configs[e].label;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BatchedDifferentialTest,
                         ::testing::Values(11u, 12u, 13u));

// ---- DeleteRange differential battery ---------------------------------
//
// Interleaved DeleteRange / Put / Delete / snapshot trace, cross-checked
// against the reference model in every engine config. Range deletes ride
// inside mixed WriteBatches (the codec, write-group merge and replay
// paths all see them between puts), snapshots taken mid-trace must keep
// serving their frozen state through later range deletes, and the final
// state must survive reopen.
class DeleteRangeDifferentialTest : public ::testing::TestWithParam<uint64_t> {
};

TEST_P(DeleteRangeDifferentialTest, RangeDeletesMatchModelEverywhere) {
  const std::vector<EngineConfig> configs = AllEngineConfigs();
  std::vector<std::unique_ptr<EngineHarness>> engines;
  for (const EngineConfig& c : configs) {
    engines.push_back(MakeEngine(c, JournalParams(c)));
  }
  testing::ReferenceModel model;
  Rng rng(GetParam() ^ 0xde1e7e);

  // One frozen (snapshot, model copy) pair per engine, taken mid-trace.
  std::vector<std::shared_ptr<const kv::Snapshot>> snaps(engines.size());
  std::map<std::string, std::string> frozen;

  for (int round = 0; round < 100; round++) {
    const int pick = static_cast<int>(rng.Uniform(10));
    if (pick < 5) {
      // Mixed batch: puts, deletes AND range deletes in one Write.
      kv::WriteBatch batch;
      const size_t n = 1 + rng.Uniform(16);
      for (size_t j = 0; j < n; j++) {
        const std::string key = "k" + std::to_string(rng.Uniform(400));
        if (rng.Bernoulli(0.8)) {
          std::string value(rng.UniformRange(1, 300), '\0');
          rng.FillBytes(value.data(), value.size());
          batch.Put(key, value);
          model.Put(key, value);
        } else {
          batch.Delete(key);
          model.Delete(key);
        }
      }
      if (rng.Bernoulli(0.5)) {
        // Lexicographic bounds ("k10" < "k5"): any begin < end pair is a
        // valid range; the model erases with identical string compares.
        const std::string a = "k" + std::to_string(rng.Uniform(400));
        const std::string b = "k" + std::to_string(rng.Uniform(400));
        const std::string& begin = a < b ? a : b;
        const std::string& end = a < b ? b : a;
        batch.DeleteRange(begin, end);
        model.DeleteRange(begin, end);
      }
      for (auto& h : engines) {
        ASSERT_TRUE(h->store->Write(batch).ok()) << "round " << round;
      }
    } else if (pick < 7) {
      // A bare range delete as its own batch (its own log record).
      const std::string a = "k" + std::to_string(rng.Uniform(400));
      const std::string b = "k" + std::to_string(rng.Uniform(400));
      const std::string& begin = a < b ? a : b;
      const std::string& end = a < b ? b : a;
      kv::WriteBatch batch;
      batch.DeleteRange(begin, end);
      model.DeleteRange(begin, end);
      for (auto& h : engines) {
        ASSERT_TRUE(h->store->Write(batch).ok()) << "round " << round;
      }
    } else if (pick < 9) {
      const std::string key = "k" + std::to_string(rng.Uniform(400));
      const auto expected = model.Get(key);
      for (size_t e = 0; e < engines.size(); e++) {
        std::string got;
        const Status s = engines[e]->store->Get(key, &got);
        ASSERT_EQ(s.ok(), expected.has_value())
            << configs[e].label << ": " << key << " at round " << round;
        if (expected.has_value()) {
          ASSERT_EQ(got, *expected);
        }
      }
    } else if (round == 50 || !snaps[0]) {
      // Freeze the state once, roughly mid-trace: later range deletes
      // must not leak into these snapshots.
      frozen = model.map();
      for (size_t e = 0; e < engines.size(); e++) {
        auto got = engines[e]->store->GetSnapshot();
        ASSERT_TRUE(got.ok()) << configs[e].label;
        snaps[e] = *std::move(got);
      }
    }
  }

  // Live state: full sweep against the model, per engine.
  for (size_t e = 0; e < engines.size(); e++) {
    auto it = engines[e]->store->NewIterator();
    it->SeekToFirst();
    for (auto im = model.map().begin(); im != model.map().end(); ++im) {
      ASSERT_TRUE(it->Valid()) << configs[e].label << " lost " << im->first;
      EXPECT_EQ(it->key(), im->first) << configs[e].label;
      EXPECT_EQ(it->value(), im->second) << configs[e].label;
      it->Next();
    }
    EXPECT_FALSE(it->Valid()) << configs[e].label << " has phantom keys";
    ASSERT_TRUE(it->status().ok()) << configs[e].label;
  }

  // Snapshots still serve the frozen state despite every DeleteRange
  // (and flush/compaction/GC) that ran since.
  for (size_t e = 0; e < engines.size(); e++) {
    ASSERT_TRUE(snaps[e] != nullptr) << configs[e].label;
    kv::ReadOptions opts;
    opts.snapshot = snaps[e].get();
    auto it = engines[e]->store->NewIterator(opts);
    it->SeekToFirst();
    for (auto im = frozen.begin(); im != frozen.end(); ++im) {
      ASSERT_TRUE(it->Valid())
          << configs[e].label << " snapshot lost " << im->first;
      EXPECT_EQ(it->key(), im->first) << configs[e].label;
      EXPECT_EQ(it->value(), im->second) << configs[e].label;
      it->Next();
    }
    EXPECT_FALSE(it->Valid())
        << configs[e].label << " snapshot leaked later state";
    ASSERT_TRUE(it->status().ok()) << configs[e].label;
    it.reset();
    snaps[e].reset();
  }

  // Range deletes survive reopen (checkpointed or replayed from the log).
  for (size_t e = 0; e < engines.size(); e++) {
    ASSERT_TRUE(engines[e]->store->Close().ok()) << configs[e].label;
    Reopen(engines[e].get(), configs[e], JournalParams(configs[e]));
    testing::VerifyAll(engines[e]->store.get(), model);
    auto it = engines[e]->store->NewIterator();
    size_t n = 0;
    for (it->SeekToFirst(); it->Valid(); it->Next()) n++;
    EXPECT_EQ(n, model.size())
        << configs[e].label << " resurrected range-deleted keys on reopen";
    ASSERT_TRUE(engines[e]->store->Close().ok()) << configs[e].label;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DeleteRangeDifferentialTest,
                         ::testing::Values(21u, 22u, 23u));

// DeleteRange edge cases: empty and inverted ranges normalize to no-ops
// at batch build time (uniformly, so every engine and codec agrees by
// construction), and a full-keyspace range empties every engine.
TEST(DeleteRangeEdgeCaseTest, EmptyAndInvertedRangesAreBuildTimeNoOps) {
  kv::WriteBatch batch;
  batch.DeleteRange("b", "b");  // empty
  EXPECT_EQ(batch.Count(), 0u);
  batch.DeleteRange("z", "a");  // inverted
  EXPECT_EQ(batch.Count(), 0u);
  EXPECT_TRUE(batch.empty());

  // Writing the normalized batch is the empty-batch no-op everywhere.
  for (const EngineConfig& config : AllEngineConfigs()) {
    auto h = MakeEngine(config, DurableParams(config));
    ASSERT_TRUE(h->store->Put("b", "survivor").ok()) << config.label;
    const auto before = h->store->GetStats();
    ASSERT_TRUE(h->store->Write(batch).ok()) << config.label;
    const auto after = h->store->GetStats();
    EXPECT_EQ(after.user_batches, before.user_batches) << config.label;
    EXPECT_EQ(after.wal_bytes_written, before.wal_bytes_written)
        << config.label;
    std::string v;
    ASSERT_TRUE(h->store->Get("b", &v).ok())
        << config.label << " empty/inverted range deleted a key";
    EXPECT_EQ(v, "survivor") << config.label;
    ASSERT_TRUE(h->store->Close().ok()) << config.label;
  }
}

TEST(DeleteRangeEdgeCaseTest, FullKeyspaceRangeEmptiesEveryEngine) {
  for (const EngineConfig& config : AllEngineConfigs()) {
    const std::string& label = config.label;
    auto h = MakeEngine(config, DurableParams(config));
    Rng rng(0xf0ll);
    for (int i = 0; i < 300; i++) {
      ASSERT_TRUE(h->store
                      ->Put("k" + std::to_string(rng.Uniform(120)),
                            "v" + std::to_string(i))
                      .ok())
          << label;
    }
    ASSERT_TRUE(h->store->Flush().ok()) << label;
    // [ "", 0xff ) covers every key the trace can produce.
    kv::WriteBatch batch;
    batch.DeleteRange("", "\xff");
    ASSERT_TRUE(h->store->Write(batch).ok()) << label;
    auto it = h->store->NewIterator();
    it->SeekToFirst();
    EXPECT_FALSE(it->Valid()) << label << " survived a full-keyspace delete";
    ASSERT_TRUE(it->status().ok()) << label;
    it.reset();
    std::string v;
    EXPECT_TRUE(h->store->Get("k1", &v).IsNotFound()) << label;
    // Emptiness survives a crash + reopen (the range record replays).
    h->fs.SimulateCrash();
    h->store.release();  // NOLINT: intentional leak of a "crashed" instance
    Reopen(h.get(), config, DurableParams(config));
    auto it2 = h->store->NewIterator();
    it2->SeekToFirst();
    EXPECT_FALSE(it2->Valid()) << label << " resurrected keys on reopen";
    ASSERT_TRUE(it2->status().ok()) << label;
    it2.reset();
    // New writes land normally after the wipe.
    ASSERT_TRUE(h->store->Put("fresh", "value").ok()) << label;
    ASSERT_TRUE(h->store->Get("fresh", &v).ok()) << label;
    EXPECT_EQ(v, "value") << label;
    ASSERT_TRUE(h->store->Close().ok()) << label;
  }
}

// SettleBackgroundWork battery: for every engine config,
// settling must (a) leave the visible contents identical to an unsettled
// store's iterator view of the same logical history, and (b) be
// idempotent — a second settle moves no bytes and changes nothing.
TEST(SettleBackgroundWorkTest, SettlingIsIdempotentAndContentPreserving) {
  for (const EngineConfig& config : AllEngineConfigs()) {
    const std::string& engine = config.label;
    auto settled = MakeEngine(config);
    auto unsettled = MakeEngine(config);
    Rng rng(0x5e771e);
    kv::WriteBatch batch;
    for (int round = 0; round < 150; round++) {
      batch.Clear();
      const size_t n = 1 + rng.Uniform(16);
      for (size_t j = 0; j < n; j++) {
        const std::string key = "k" + std::to_string(rng.Uniform(250));
        if (rng.Bernoulli(0.85)) {
          batch.Put(key, "v" + std::to_string(round * 100 + j));
        } else {
          batch.Delete(key);
        }
      }
      ASSERT_TRUE(settled->store->Write(batch).ok()) << engine;
      ASSERT_TRUE(unsettled->store->Write(batch).ok()) << engine;
    }
    ASSERT_TRUE(settled->store->SettleBackgroundWork().ok()) << engine;

    // (a) Same iterator view as the unsettled twin.
    auto is = settled->store->NewIterator();
    auto iu = unsettled->store->NewIterator();
    is->SeekToFirst();
    iu->SeekToFirst();
    while (iu->Valid()) {
      ASSERT_TRUE(is->Valid()) << engine << " lost keys on settle";
      EXPECT_EQ(is->key(), iu->key()) << engine;
      EXPECT_EQ(is->value(), iu->value()) << engine;
      is->Next();
      iu->Next();
    }
    EXPECT_FALSE(is->Valid()) << engine << " grew keys on settle";
    ASSERT_TRUE(is->status().ok()) << engine;
    ASSERT_TRUE(iu->status().ok()) << engine;

    // (b) Idempotence: a second settle moves no bytes anywhere.
    const auto stats1 = settled->store->GetStats();
    const uint64_t disk1 = settled->store->DiskBytesUsed();
    ASSERT_TRUE(settled->store->SettleBackgroundWork().ok()) << engine;
    const auto stats2 = settled->store->GetStats();
    EXPECT_EQ(stats2.compaction_bytes_written, stats1.compaction_bytes_written)
        << engine;
    EXPECT_EQ(stats2.gc_bytes_written, stats1.gc_bytes_written) << engine;
    EXPECT_EQ(stats2.checkpoint_bytes_written,
              stats1.checkpoint_bytes_written)
        << engine;
    EXPECT_EQ(stats2.flush_bytes_written, stats1.flush_bytes_written)
        << engine;
    EXPECT_EQ(settled->store->DiskBytesUsed(), disk1) << engine;

    // The twice-settled store still matches the untouched one.
    auto is2 = settled->store->NewIterator();
    auto iu2 = unsettled->store->NewIterator();
    is2->SeekToFirst();
    iu2->SeekToFirst();
    while (iu2->Valid()) {
      ASSERT_TRUE(is2->Valid()) << engine;
      EXPECT_EQ(is2->key(), iu2->key()) << engine;
      EXPECT_EQ(is2->value(), iu2->value()) << engine;
      is2->Next();
      iu2->Next();
    }
    EXPECT_FALSE(is2->Valid()) << engine;
    ASSERT_TRUE(settled->store->Close().ok()) << engine;
    ASSERT_TRUE(unsettled->store->Close().ok()) << engine;
  }
}

// An empty WriteBatch is a no-op in every engine: no log record reaches
// the filesystem and no stats move (a zero-entry WAL/journal record would
// also poison the wal_bytes/user_bytes accounting benches divide by).
TEST(WriteSemanticsTest, EmptyBatchIsANoOpInEveryEngine) {
  for (const EngineConfig& config : AllEngineConfigs()) {
    const std::string& engine = config.label;
    // Journal on for btree so an empty journal record would be visible.
    auto h = MakeEngine(config, DurableParams(config));
    ASSERT_TRUE(h->store->Put("seed-key", "seed-value").ok());
    const auto before = h->store->GetStats();
    const uint64_t disk_before = h->store->DiskBytesUsed();
    kv::WriteBatch empty;
    ASSERT_TRUE(h->store->Write(empty).ok()) << engine;
    const auto after = h->store->GetStats();
    EXPECT_EQ(after.user_batches, before.user_batches) << engine;
    EXPECT_EQ(after.user_puts, before.user_puts) << engine;
    EXPECT_EQ(after.user_deletes, before.user_deletes) << engine;
    EXPECT_EQ(after.user_bytes_written, before.user_bytes_written) << engine;
    EXPECT_EQ(after.wal_bytes_written, before.wal_bytes_written) << engine;
    EXPECT_EQ(h->store->DiskBytesUsed(), disk_before) << engine;
    ASSERT_TRUE(h->store->Close().ok());
  }
}

// Duplicate keys inside one WriteBatch are last-entry-wins in every
// engine, exactly as if the operations had been submitted individually.
TEST(WriteSemanticsTest, DuplicateKeysInOneBatchAreLastEntryWins) {
  for (const EngineConfig& config : AllEngineConfigs()) {
    const std::string& engine = config.label;
    auto h = MakeEngine(config);
    kv::WriteBatch batch;
    batch.Put("a", "first");
    batch.Put("a", "second");
    batch.Put("b", "kept");
    batch.Delete("b");
    batch.Delete("c");
    batch.Put("c", "resurrected");
    ASSERT_TRUE(h->store->Write(batch).ok()) << engine;
    std::string v;
    ASSERT_TRUE(h->store->Get("a", &v).ok()) << engine;
    EXPECT_EQ(v, "second") << engine;
    EXPECT_TRUE(h->store->Get("b", &v).IsNotFound()) << engine;
    ASSERT_TRUE(h->store->Get("c", &v).ok()) << engine;
    EXPECT_EQ(v, "resurrected") << engine;
    // The iterator agrees with point reads (no shadowed duplicate leaks).
    auto it = h->store->NewIterator();
    it->SeekToFirst();
    ASSERT_TRUE(it->Valid());
    EXPECT_EQ(it->key(), "a");
    EXPECT_EQ(it->value(), "second") << engine;
    it->Next();
    ASSERT_TRUE(it->Valid());
    EXPECT_EQ(it->key(), "c") << engine;
    it->Next();
    EXPECT_FALSE(it->Valid()) << engine;
    ASSERT_TRUE(h->store->Close().ok());
  }
}

// ... and last-entry-wins survives crash replay of the batch's log record:
// the batch is re-applied from the WAL/journal/segment in entry order.
TEST(WriteSemanticsTest, DuplicateKeysInBatchSurviveCrashReplay) {
  for (const EngineConfig& config : AllEngineConfigs()) {
    const std::string& engine = config.label;
    auto h = MakeEngine(config, DurableParams(config));
    kv::WriteBatch batch;
    batch.Put("a", "first");
    batch.Put("a", "second");
    batch.Put("b", "kept");
    batch.Delete("b");
    ASSERT_TRUE(h->store->Write(batch).ok()) << engine;
    // Crash without Close: recovery must replay the record, in order.
    h->fs.SimulateCrash();
    h->store.release();  // NOLINT: intentional leak of a "crashed" instance
    Reopen(h.get(), config, DurableParams(config));
    std::string v;
    ASSERT_TRUE(h->store->Get("a", &v).ok())
        << engine << " lost the batch on crash";
    EXPECT_EQ(v, "second") << engine << " replayed the wrong duplicate";
    EXPECT_TRUE(h->store->Get("b", &v).IsNotFound())
        << engine << " resurrected a deleted key on replay";
    ASSERT_TRUE(h->store->Close().ok());
  }
}

// Group commit: the same logical write stream costs fewer log bytes at
// larger batch sizes (record framing amortizes), and strictly fewer than
// one-at-a-time submission. Holds for every engine with a log: LSM WAL,
// B+Tree journal, alog segment records.
TEST(GroupCommitTest, WalBytesGrowSubLinearlyWithBatchSize) {
  for (const EngineConfig& config : AllEngineConfigs()) {
    const std::string& engine = config.label;
    uint64_t prev_wal_bytes = 0;
    bool first = true;
    for (const size_t batch_size : {1u, 8u, 64u}) {
      auto h = MakeEngine(config, JournalParams(config));
      kv::WriteBatch batch;
      for (uint64_t i = 0; i < 1024; i++) {
        batch.Put(kv::MakeKey(i), kv::MakeValue(i, 64));
        if (batch.Count() >= batch_size) {
          ASSERT_TRUE(h->store->Write(batch).ok());
          batch.Clear();
        }
      }
      if (!batch.empty()) {
        ASSERT_TRUE(h->store->Write(batch).ok());
      }
      const auto stats = h->store->GetStats();
      EXPECT_EQ(stats.user_puts, 1024u);
      EXPECT_GT(stats.wal_bytes_written, stats.user_bytes_written)
          << engine << " must log payload plus framing";
      // Single-caller record accounting: with one writer every Write is
      // its own commit group and its own log record.
      EXPECT_EQ(stats.write_group_batches, stats.user_batches) << engine;
      EXPECT_EQ(stats.wal_records, stats.user_batches) << engine;
      EXPECT_EQ(stats.write_groups, stats.user_batches) << engine;
      if (!first) {
        EXPECT_LT(stats.wal_bytes_written, prev_wal_bytes)
            << engine << " batch=" << batch_size
            << ": group commit must amortize log framing";
      }
      prev_wal_bytes = stats.wal_bytes_written;
      first = false;
      ASSERT_TRUE(h->store->Close().ok());
    }
  }
}

// Cross-thread group commit: 4 writers of one-entry batches line up in
// the write group, and a leader persists the waiting batches under one
// log record, so they write strictly fewer records than puts. Merging
// needs the threads to collide; a run that never merged is retried, up
// to 5 runs, before the check fails.
TEST(GroupCommitTest, ConcurrentWritersMergeIntoFewerRecords) {
  constexpr size_t kWriters = 4;
  constexpr uint64_t kPuts = 960;
  constexpr uint64_t kPerWriter = kPuts / kWriters;
  constexpr int kRuns = 5;
  for (const EngineConfig& config : AllEngineConfigs()) {
    uint64_t records = kPuts;
    std::string per_run;  // each run's record count, for the message
    for (int run = 0; run < kRuns && records >= kPuts; run++) {
      auto h = MakeEngine(config, JournalParams(config));
      // Start barrier: the group sees every writer from the first put.
      std::atomic<bool> go{false};
      std::atomic<bool> failed{false};
      std::vector<std::thread> writers;
      for (size_t t = 0; t < kWriters; t++) {
        writers.emplace_back([&, t] {
          while (!go.load(std::memory_order_acquire)) {
          }
          for (uint64_t key = t * kPerWriter; key < (t + 1) * kPerWriter;
               key++) {
            if (!h->store->Put(kv::MakeKey(key), kv::MakeValue(key, 512))
                     .ok()) {
              failed.store(true);
              return;
            }
          }
        });
      }
      go.store(true, std::memory_order_release);
      for (std::thread& w : writers) w.join();
      ASSERT_FALSE(failed.load()) << config.label;
      const auto stats = h->store->GetStats();
      EXPECT_EQ(stats.write_group_batches, kPuts) << config.label;
      records = stats.wal_records;
      per_run += " " + std::to_string(records);
      ASSERT_TRUE(h->store->Close().ok()) << config.label;
    }
    EXPECT_LT(records, kPuts) << config.label << ": no write group merged "
                              << "two batches; records per run:" << per_run;
  }
}

// Snapshot pins: a snapshot held across churn keeps what compaction,
// checkpointing or segment GC would reclaim (SSTs, pages, segments), the
// stats account for those bytes, and they keep the snapshot readable.
// Releasing the snapshot returns both gauges to exactly 0.
TEST(SnapshotPinTest, PinnedBytesAreAccountedThenReleased) {
  constexpr uint64_t kKeys = 1024;
  for (const EngineConfig& config : AllEngineConfigs()) {
    auto h = MakeEngine(config);
    kv::KVStore* store = h->store.get();
    const auto write_all = [&](uint64_t stamp) {
      for (uint64_t id = 0; id < kKeys; id++) {
        ASSERT_TRUE(
            store->Put(kv::MakeKey(id), kv::MakeValue(id + stamp, 128)).ok());
      }
      ASSERT_TRUE(store->Flush().ok());
      ASSERT_TRUE(store->SettleBackgroundWork().ok());
    };
    write_all(0);
    auto got = store->GetSnapshot();
    ASSERT_TRUE(got.ok()) << config.label;
    std::shared_ptr<const kv::Snapshot> snap = *std::move(got);
    const uint32_t golden = testing::ContentsChecksum(store, snap.get());
    for (uint64_t round = 1; round <= 3; round++) write_all(round * 104729);

    const kv::KvStoreStats pinned = store->GetStats();
    EXPECT_EQ(pinned.snapshots_open, 1u) << config.label;
    EXPECT_GT(pinned.snapshot_pinned_bytes, 0u) << config.label;
    EXPECT_EQ(testing::ContentsChecksum(store, snap.get()), golden)
        << config.label;

    snap.reset();
    ASSERT_TRUE(store->SettleBackgroundWork().ok());
    const kv::KvStoreStats released = store->GetStats();
    EXPECT_EQ(released.snapshots_open, 0u) << config.label;
    EXPECT_EQ(released.snapshot_pinned_bytes, 0u) << config.label;
    ASSERT_TRUE(store->Close().ok()) << config.label;
  }
}

// ---- Timed stacks ------------------------------------------------------
//
// An engine on a simulated 4-channel SSD with a virtual clock and
// background_io on, so maintenance runs on background submission lanes.

struct TimedHarness {
  testing::TimedStack stack{4, 64ull << 20};
  std::unique_ptr<kv::KVStore> store;
};

std::unique_ptr<TimedHarness> MakeTimedEngine(const EngineConfig& config) {
  auto h = std::make_unique<TimedHarness>();
  std::map<std::string, std::string> params = config.params;
  params["background_io"] = "1";
  h->store = h->stack.Open(config.engine, std::move(params));
  return h;
}

// ---- Background I/O separation ----------------------------------------

struct BgOutcome {
  int64_t foreground_ns = 0;       // clock at end of the write loop
  int64_t scheduled_busy_ns = 0;   // byte-driven backend work, all channels
  int64_t background_busy_ns = 0;  // busy time accounted to kBackground
  uint32_t checksum = 0;           // final contents
};

// Runs a maintenance-heavy write workload on `engine` with background_io
// on or off. The logical work (and therefore the device command stream)
// is identical in both modes; only the timeline attribution differs.
BgOutcome RunBackgroundWorkload(const std::string& engine,
                                std::map<std::string, std::string> params,
                                bool background_io) {
  BgOutcome out;
  testing::TimedStack stack(2, 64ull << 20);
  params["background_io"] = background_io ? "1" : "0";
  auto store = stack.Open(engine, std::move(params));

  kv::WriteBatch batch;
  for (uint64_t i = 0; i < 3000; i++) {
    batch.Clear();
    batch.Put(kv::MakeKey(i % 400), kv::MakeValue(i, 512));
    EXPECT_TRUE(store->Write(batch).ok());
  }
  out.foreground_ns = stack.clock.NowNanos();

  EXPECT_TRUE(store->SettleBackgroundWork().ok());
  EXPECT_TRUE(store->Flush().ok());
  out.checksum = testing::ContentsChecksum(store.get());
  EXPECT_TRUE(store->Close().ok());
  out.scheduled_busy_ns = stack.ScheduledNanos();
  for (const auto& ch : stack.ssd.channel_stats()) {
    out.background_busy_ns +=
        ch.class_busy_ns[static_cast<int>(sim::IoClass::kBackground)];
  }
  return out;
}

// Maintenance-heavy params per engine: every run must actually trigger
// compaction / checkpoints / GC, or the separation would have nothing to
// separate and the strict inequalities below would be vacuous.
class BackgroundIoTest : public ::testing::TestWithParam<const char*> {};

TEST_P(BackgroundIoTest, SeparationLowersForegroundTimeConservingWork) {
  const std::string engine = GetParam();
  std::map<std::string, std::string> params;
  if (engine == "lsm") {
    params = {{"memtable_bytes", std::to_string(32 << 10)},
              {"l1_target_bytes", std::to_string(128 << 10)},
              {"sst_target_bytes", std::to_string(64 << 10)}};
  } else if (engine == "btree") {
    params = {{"cache_bytes", std::to_string(64 << 10)},
              {"checkpoint_every_bytes", std::to_string(64 << 10)}};
  } else {
    params = {{"segment_bytes", std::to_string(64 << 10)},
              {"gc_trigger", "0.3"}};
  }
  const BgOutcome base = RunBackgroundWorkload(engine, params, false);
  const BgOutcome sep = RunBackgroundWorkload(engine, params, true);

  // The baseline attributes nothing to the background class; separation
  // must actually have moved work there.
  EXPECT_EQ(base.background_busy_ns, 0) << engine;
  EXPECT_GT(sep.background_busy_ns, 0) << engine;
  // Foreground commits stop absorbing maintenance device time...
  EXPECT_LT(sep.foreground_ns, base.foreground_ns) << engine;
  // ...but the device did exactly the same byte-driven work,
  EXPECT_EQ(sep.scheduled_busy_ns, base.scheduled_busy_ns) << engine;
  // ...and contents cannot depend on timeline attribution.
  EXPECT_EQ(sep.checksum, base.checksum) << engine;

  // Determinism: the separated run replays to the nanosecond.
  const BgOutcome again = RunBackgroundWorkload(engine, params, true);
  EXPECT_EQ(again.foreground_ns, sep.foreground_ns) << engine;
  EXPECT_EQ(again.checksum, sep.checksum) << engine;
}

INSTANTIATE_TEST_SUITE_P(Engines, BackgroundIoTest,
                         ::testing::Values("lsm", "btree", "alog"));

// ---- Concurrent multi-writer differential test ------------------------
//
// N writer threads commit OVERLAPPING key ranges concurrently through
// each engine's cross-thread write group (leaders merge waiting
// followers' batches into one log record). Every value is a pure
// function of its key, so any interleaving must converge to the same
// final state — the one a serial golden run produces. The tiny params
// make flush/compaction/eviction/checkpoint/segment GC all fire under
// the concurrent load, and the battery covers every engine
// config. This test is in the ctest "stress"
// label: the TSan CI matrix entry runs it to hunt data races across the
// write group, the filesystem lock split and the device-internal locks.
TEST(ConcurrentWriteTest, MultiWriterMatchesSerialGoldenRun) {
  constexpr size_t kThreads = 4;
  constexpr uint64_t kKeys = 160;
  constexpr int kRounds = 3;
  constexpr uint64_t kSlice = kKeys / 2;  // each key hits 2 threads
  const auto value_for = [](uint64_t key) {
    return kv::MakeValue(key * 1315423911ull + 7, 120);
  };
  // Thread t's ops: kRounds passes over a half-keyspace slice starting
  // at t * kKeys / kThreads (wrapping), so every key is written by two
  // threads and rewritten every round.
  const auto thread_keys = [&](size_t t) {
    std::vector<uint64_t> keys;
    for (uint64_t i = 0; i < kSlice; i++) {
      keys.push_back((t * (kKeys / kThreads) + i) % kKeys);
    }
    return keys;
  };
  for (const EngineConfig& config : AllEngineConfigs()) {
    const std::string& label = config.label;

    // Serial golden run: the same per-thread op streams, one thread.
    auto golden = MakeEngine(config);
    for (int round = 0; round < kRounds; round++) {
      for (size_t t = 0; t < kThreads; t++) {
        for (const uint64_t key : thread_keys(t)) {
          ASSERT_TRUE(
              golden->store->Put(kv::MakeKey(key), value_for(key)).ok())
              << label;
        }
      }
    }

    auto concurrent = MakeEngine(config);
    std::atomic<bool> failed{false};
    std::vector<std::thread> writers;
    for (size_t t = 0; t < kThreads; t++) {
      writers.emplace_back([&, t] {
        for (int round = 0; round < kRounds; round++) {
          for (const uint64_t key : thread_keys(t)) {
            if (!concurrent->store->Put(kv::MakeKey(key), value_for(key))
                     .ok()) {
              failed.store(true);
              return;
            }
          }
        }
      });
    }
    for (std::thread& w : writers) w.join();
    ASSERT_FALSE(failed.load()) << label;

    // Same totals through the group: every user batch landed in exactly
    // one group, and merging can only reduce the record count.
    const auto gs = golden->store->GetStats();
    const auto cs = concurrent->store->GetStats();
    EXPECT_EQ(cs.user_puts, gs.user_puts) << label;
    EXPECT_EQ(cs.write_group_batches, cs.user_batches) << label;
    EXPECT_LE(cs.write_groups, cs.user_batches) << label;
    EXPECT_LE(cs.wal_records, gs.wal_records) << label;

    // Identical final visible state, entry by entry.
    auto ig = golden->store->NewIterator();
    auto ic = concurrent->store->NewIterator();
    ig->SeekToFirst();
    ic->SeekToFirst();
    size_t seen = 0;
    while (ig->Valid()) {
      ASSERT_TRUE(ic->Valid()) << label;
      EXPECT_EQ(ig->key(), ic->key()) << label;
      EXPECT_EQ(ig->value(), ic->value()) << label;
      ig->Next();
      ic->Next();
      seen++;
    }
    EXPECT_FALSE(ic->Valid()) << label;
    EXPECT_EQ(seen, kKeys) << label;
    ASSERT_TRUE(golden->store->Close().ok()) << label;
    ASSERT_TRUE(concurrent->store->Close().ok()) << label;
  }
}

TEST(DifferentialTest, EnginesAgreeAfterReopen) {
  const std::vector<EngineConfig> configs = AllEngineConfigs();
  std::vector<std::unique_ptr<EngineHarness>> engines;
  for (const EngineConfig& c : configs) engines.push_back(MakeEngine(c));
  testing::ReferenceModel model;
  Rng rng(42);
  for (int i = 0; i < 1500; i++) {
    const std::string key = "k" + std::to_string(rng.Uniform(300));
    std::string value(200, '\0');
    rng.FillBytes(value.data(), value.size());
    for (auto& h : engines) {
      ASSERT_TRUE(h->store->Put(key, value).ok());
    }
    model.Put(key, value);
  }
  for (size_t e = 0; e < engines.size(); e++) {
    ASSERT_TRUE(engines[e]->store->Close().ok()) << configs[e].label;
    Reopen(engines[e].get(), configs[e]);
    testing::VerifyAll(engines[e]->store.get(), model);
    ASSERT_TRUE(engines[e]->store->Close().ok()) << configs[e].label;
  }
}

// Full-stack accounting invariant: user bytes <= host bytes <= NAND bytes
// (write amplification can never be < 1 at either layer).
TEST(StackInvariantTest, WriteAmplificationLayersNest) {
  sim::SimClock clock;
  ssd::SsdConfig cfg;
  cfg.geometry.logical_bytes = 64 << 20;
  cfg.geometry.hardware_op_frac = 0.15;
  ssd::SsdDevice dev(cfg, &clock);
  block::IoStatCollector io(&dev);
  fs::SimpleFs fs(&io, {});
  kv::EngineOptions options;
  options.engine = "lsm";
  options.fs = &fs;
  options.clock = &clock;
  options.params = TinyLsmParams();
  auto store = *kv::OpenStore(options);
  Rng rng(7);
  for (int i = 0; i < 4000; i++) {
    ASSERT_TRUE(store
                    ->Put("key" + std::to_string(rng.Uniform(500)),
                          std::string(600, 'v'))
                    .ok());
  }
  ASSERT_TRUE(store->Flush().ok());
  const auto engine = store->GetStats();
  const auto host = io.counters();
  const auto smart = dev.smart();
  EXPECT_LE(engine.user_bytes_written, host.write_bytes);
  EXPECT_LE(host.write_bytes, smart.nand_bytes_written);
  EXPECT_EQ(host.write_bytes, smart.host_bytes_written);
  ASSERT_TRUE(store->Close().ok());
}

TEST(FaultInjectionTest, LsmSurfacesDeviceWriteErrors) {
  EngineHarness h;
  kv::EngineOptions options;
  options.engine = "lsm";
  options.fs = &h.fs;
  options.params = TinyLsmParams();
  options.params["wal_buffer_bytes"] = "1";  // write-through: faults hit now
  auto store = *kv::OpenStore(options);
  std::string value(8000, 'v');  // spans pages: reaches the device now
  ASSERT_TRUE(store->Put("a", value).ok());
  h.dev.FailNextWrites(1);
  Status s = store->Put("b", value);
  EXPECT_TRUE(s.IsIoError()) << s.ToString();
}

TEST(FaultInjectionTest, BTreeSurfacesCheckpointErrors) {
  auto h = MakeEngine({"btree", "btree", TinyBTreeParams()});
  ASSERT_TRUE(h->store->Put("a", std::string(500, 'v')).ok());
  h->dev.FailNextWrites(1);
  Status s = h->store->Flush();  // checkpoint must write pages
  EXPECT_TRUE(s.IsIoError()) << s.ToString();
}

TEST(FaultInjectionTest, AlogSurfacesDeviceWriteErrors) {
  auto h = MakeEngine({"alog", "alog", TinyAlogParams()});
  std::string value(8000, 'v');  // spans pages: reaches the device now
  ASSERT_TRUE(h->store->Put("a", value).ok());
  h->dev.FailNextWrites(1);
  Status s = h->store->Put("b", value);
  EXPECT_TRUE(s.IsIoError()) << s.ToString();
}

// Background lanes are a scheduling choice, not a semantics change: the
// same batched trace on a timed multi-channel stack with background_io
// on must leave each engine on one lane and on four (lsm subcompactions,
// btree checkpoint writes, alog GC reads) with byte-identical visible
// contents and identical user-facing counters. Only the virtual-time
// numbers (and, for lsm, SST file seams) may differ.
class ParallelismDifferentialTest
    : public ::testing::TestWithParam<const char*> {};

// The engine's background-maintenance byte counter: it must be non-zero,
// or the four-lane side had no background work to split.
uint64_t MaintenanceBytes(const std::string& engine,
                          const kv::KvStoreStats& s) {
  if (engine == "lsm") return s.compaction_bytes_written;
  if (engine == "btree") return s.checkpoint_bytes_written;
  return s.gc_bytes_written;
}

TEST_P(ParallelismDifferentialTest, ParallelismNeverChangesVisibleState) {
  const std::string engine = GetParam();
  EngineConfig k1{engine + "-k1", engine, TinyParams(engine)};
  EngineConfig k4{engine + "-k4", engine, TinyParams(engine)};
  k4.params["compaction_parallelism"] = "4";

  auto h1 = MakeTimedEngine(k1);
  auto h4 = MakeTimedEngine(k4);

  Rng rng(0x5bc0de);
  kv::WriteBatch batch;
  for (int round = 0; round < 120; round++) {
    batch.Clear();
    const size_t n = 1 + rng.Uniform(24);
    for (size_t j = 0; j < n; j++) {
      const std::string key = "k" + std::to_string(rng.Uniform(400));
      if (rng.Bernoulli(0.85)) {
        std::string value(rng.UniformRange(1, 400), '\0');
        rng.FillBytes(value.data(), value.size());
        batch.Put(key, value);
      } else {
        batch.Delete(key);
      }
    }
    ASSERT_TRUE(h1->store->Write(batch).ok());
    ASSERT_TRUE(h4->store->Write(batch).ok());
    if (round % 10 == 9) {
      const std::string probe = "k" + std::to_string(rng.Uniform(400));
      std::string a, b;
      const Status sa = h1->store->Get(probe, &a);
      const Status sb = h4->store->Get(probe, &b);
      ASSERT_EQ(sa.ok(), sb.ok()) << probe << " at round " << round;
      if (sa.ok()) {
        ASSERT_EQ(a, b) << probe;
      }
    }
  }
  ASSERT_TRUE(h1->store->SettleBackgroundWork().ok());
  ASSERT_TRUE(h4->store->SettleBackgroundWork().ok());

  // K=4 must actually have split work: with this trace and these tiny
  // sizes, background maintenance ran (the K=1 side proves it), so a
  // vacuously sequential K=4 is a wiring bug.
  EXPECT_GT(MaintenanceBytes(engine, h1->store->GetStats()), 0u);

  // Identical user-facing counters.
  const auto s1 = h1->store->GetStats();
  const auto s4 = h4->store->GetStats();
  EXPECT_EQ(s1.user_puts, s4.user_puts);
  EXPECT_EQ(s1.user_gets, s4.user_gets);
  EXPECT_EQ(s1.user_deletes, s4.user_deletes);
  EXPECT_EQ(s1.user_batches, s4.user_batches);
  EXPECT_EQ(s1.user_bytes_written, s4.user_bytes_written);
  EXPECT_EQ(s1.user_bytes_read, s4.user_bytes_read);
  EXPECT_EQ(s1.wal_records, s4.wal_records);
  EXPECT_EQ(s1.wal_bytes_written, s4.wal_bytes_written);
  EXPECT_EQ(s1.flush_bytes_written, s4.flush_bytes_written);
  // Both sides ran maintenance; lsm byte totals differ (installing a
  // partitioned compaction at a different op index shifts every later
  // pick; SubcompactionChannelTest.DrainSpeedsUpWithLanesTimesChannels
  // pins down exact conservation for a fixed pick).
  EXPECT_GT(MaintenanceBytes(engine, s4), 0u);

  // Byte-identical visible contents.
  auto i1 = h1->store->NewIterator();
  auto i4 = h4->store->NewIterator();
  i1->SeekToFirst();
  i4->SeekToFirst();
  size_t keys = 0;
  while (i1->Valid()) {
    ASSERT_TRUE(i4->Valid()) << "K=4 lost keys after " << keys;
    EXPECT_EQ(i1->key(), i4->key());
    EXPECT_EQ(i1->value(), i4->value()) << i1->key();
    i1->Next();
    i4->Next();
    keys++;
  }
  EXPECT_FALSE(i4->Valid()) << "K=4 has phantom keys";
  ASSERT_TRUE(i1->status().ok());
  ASSERT_TRUE(i4->status().ok());
  ASSERT_TRUE(h1->store->Close().ok());
  ASSERT_TRUE(h4->store->Close().ok());
}

INSTANTIATE_TEST_SUITE_P(Engines, ParallelismDifferentialTest,
                         ::testing::Values("lsm", "btree", "alog"));

TEST(FaultInjectionTest, EnginesFailCleanlyWhenDeviceFull) {
  // A device far too small for the workload: every engine must surface
  // NoSpace without aborting. 4 MiB with small append chunks, so every
  // config can open and then run out mid-workload rather than at Open.
  for (const EngineConfig& config : AllEngineConfigs()) {
    sim::SimClock clock;
    block::MemoryBlockDevice dev(4096, 1024);  // 4 MiB
    fs::FsOptions fs_options;
    fs_options.append_alloc_pages = 8;
    fs::SimpleFs fs(&dev, fs_options);
    kv::EngineOptions options;
    options.engine = config.engine;
    options.fs = &fs;
    if (config.timed) options.clock = &clock;
    options.params = config.params;
    auto opened = kv::OpenStore(options);
    ASSERT_TRUE(opened.ok()) << config.label << ": "
                             << opened.status().ToString();
    auto store = *std::move(opened);
    Status s = Status::OK();
    std::string value(900, 'v');
    for (int i = 0; i < 8000 && s.ok(); i++) {
      s = store->Put("k" + std::to_string(i), value);
    }
    EXPECT_TRUE(s.IsNoSpace())
        << "engine=" << config.label << " got: " << s.ToString();
  }
}

// ---- Per-engine concurrency and iterator contracts ---------------------

// Opens `engine` with its default params on an untimed memory device.
std::unique_ptr<EngineHarness> MakeDefaultEngine(const std::string& engine) {
  return MakeEngine(EngineConfig{engine, engine, {}});
}

class ConcurrentWritersTest : public ::testing::TestWithParam<const char*> {};

// num_threads > 1 on every engine: the workers' batches meet in the
// engine's write group instead of corrupting it. A short run must
// complete cleanly and perform work.
TEST_P(ConcurrentWritersTest, DriverRunsThreadsOnEveryEngine) {
  core::ExperimentConfig config;
  config.engine = GetParam();
  config.num_threads = 4;
  config.scale = 8000;
  config.duration_minutes = 1;
  auto result = core::RunExperiment(config);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(result->update_ops, 0u);
  // The group-commit accounting must be consistent: every user batch
  // landed in some group, and no more records than groups were written.
  EXPECT_GT(result->engine_stats.write_groups, 0u);
  EXPECT_GE(result->engine_stats.write_group_batches,
            result->engine_stats.write_groups);
}

INSTANTIATE_TEST_SUITE_P(Engines, ConcurrentWritersTest,
                         ::testing::Values("lsm", "btree", "alog"));

// The debug-build epoch check: using an iterator after a write must fail
// fast instead of silently reading stale state. Compiled out with NDEBUG
// (Release and RelWithDebInfo), active in the Debug sanitizer jobs.
#ifndef NDEBUG
using IteratorEpochDeathTest = ::testing::TestWithParam<const char*>;

TEST_P(IteratorEpochDeathTest, UseAfterWriteDiesInDebug) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  auto h = MakeDefaultEngine(GetParam());
  kv::KVStore* store = h->store.get();
  ASSERT_TRUE(store->Put("a", "1").ok());
  ASSERT_TRUE(store->Put("b", "2").ok());
  auto it = store->NewIterator();
  it->SeekToFirst();
  ASSERT_TRUE(it->Valid());
  ASSERT_TRUE(store->Put("c", "3").ok());  // invalidates `it`
  EXPECT_DEATH(it->Next(), "used after a write");
}

INSTANTIATE_TEST_SUITE_P(Engines, IteratorEpochDeathTest,
                         ::testing::Values("lsm", "btree", "alog"));
#endif  // NDEBUG

// The snapshot counterpart of the epoch check: an iterator opened over a
// snapshot reads the pinned state, not the live structures, so writes —
// including range deletes that erase the very keys under the cursor —
// must NOT invalidate it. (The live NewIterator() still dies, above.)
using SnapshotIteratorSurvivalTest = ::testing::TestWithParam<const char*>;

TEST_P(SnapshotIteratorSurvivalTest, SnapshotIteratorSurvivesWrites) {
  auto h = MakeDefaultEngine(GetParam());
  kv::KVStore* store = h->store.get();
  ASSERT_TRUE(store->Put("a", "1").ok());
  ASSERT_TRUE(store->Put("b", "2").ok());
  ASSERT_TRUE(store->Put("c", "3").ok());

  auto got = store->GetSnapshot();
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  std::shared_ptr<const kv::Snapshot> snap = *std::move(got);
  kv::ReadOptions opts;
  opts.snapshot = snap.get();
  auto it = store->NewIterator(opts);
  it->SeekToFirst();
  ASSERT_TRUE(it->Valid());
  EXPECT_EQ(it->key(), "a");
  EXPECT_EQ(it->value(), "1");

  // Mutate hard mid-iteration: overwrite, range-delete the whole
  // keyspace, and flush so the live structures really move.
  ASSERT_TRUE(store->Put("a", "changed").ok());
  kv::WriteBatch wipe;
  wipe.DeleteRange("", "\xff");
  ASSERT_TRUE(store->Write(wipe).ok());
  ASSERT_TRUE(store->Flush().ok());

  it->Next();
  ASSERT_TRUE(it->Valid()) << "snapshot iterator died under a write";
  EXPECT_EQ(it->key(), "b");
  EXPECT_EQ(it->value(), "2");
  it->Next();
  ASSERT_TRUE(it->Valid());
  EXPECT_EQ(it->key(), "c");
  it->Next();
  EXPECT_FALSE(it->Valid());
  ASSERT_TRUE(it->status().ok()) << it->status().ToString();
  it.reset();
  snap.reset();

  // Meanwhile the live view took every write.
  auto live = store->NewIterator();
  live->SeekToFirst();
  EXPECT_FALSE(live->Valid()) << "wipe did not reach the live state";
  ASSERT_TRUE(live->status().ok());
  ASSERT_TRUE(store->Close().ok());
}

INSTANTIATE_TEST_SUITE_P(Engines, SnapshotIteratorSurvivalTest,
                         ::testing::Values("lsm", "btree", "alog"));

}  // namespace
}  // namespace ptsb

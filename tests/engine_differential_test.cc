// Differential testing: every registered engine implements kv::KVStore and
// is opened through kv::OpenStore, so identical operation streams — single
// puts, batched writes, deletes, point reads and iterator scans — must
// produce identical visible state through flushes, compactions, evictions,
// checkpoints, segment GC and reopen. The traces run across ALL registered
// engine names and compare them pairwise, so a new engine (e.g. "alog")
// inherits the full battery just by registering. Also checks cross-stack
// accounting invariants (user <= host <= NAND bytes), group-commit log
// accounting (WAL/journal bytes grow sub-linearly with batch size),
// write-path semantics (empty batches, duplicate keys in one batch, crash
// replay of batch records), registry behavior, and error propagation from
// injected device faults.
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

#include "block/iostat.h"
#include "block/memory_device.h"
#include "fs/filesystem.h"
#include "kv/kv.h"
#include "kv/registry.h"
#include "kv/write_batch.h"
#include "sim/clock.h"
#include "ssd/ssd_device.h"
#include "test_support.h"
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

// One entry of the pairwise battery: a registry engine name plus the
// params to open it with. The battery runs every registered engine AND
// the sharded front end over each inner engine, so the router's
// batch-splitting, merge iterator and per-shard recovery are held to the
// same visible-state contract as the engines themselves.
struct EngineConfig {
  std::string label;   // unique name for failure messages
  std::string engine;  // registry name
  std::map<std::string, std::string> params;
};

std::vector<EngineConfig> AllEngineConfigs() {
  kv::RegisterBuiltinEngines();
  std::vector<EngineConfig> configs;
  for (const std::string& name : kv::EngineRegistry::Global().Names()) {
    if (name == "sharded" || name == "cached") {
      continue;  // wrappers are covered per inner engine below
    }
    configs.push_back({name, name, TinyParams(name)});
  }
  for (const std::string inner : {"lsm", "btree", "alog"}) {
    std::map<std::string, std::string> params = TinyParams(inner);
    params["shards"] = "3";
    params["inner_engine"] = inner;
    configs.push_back({"sharded/" + inner, "sharded", std::move(params)});
  }
  // One queue_depth > 1 config. In the untimed harnesses (no SimClock)
  // it degenerates to the synchronous dispatch — the async path requires
  // a clock — so here it covers param parsing/passthrough only; the
  // timed AsyncWriteEquivalenceTest below runs this same config WITH a
  // clock, where Write really routes through WriteAsyncDispatch.
  {
    std::map<std::string, std::string> params = TinyParams("alog");
    params["shards"] = "3";
    params["inner_engine"] = "alog";
    params["queue_depth"] = "4";
    params["read_queue_depth"] = "4";
    configs.push_back({"sharded-async/alog", "sharded", std::move(params)});
  }
  // The partitioned-subcompaction path: the same lsm engine with every
  // picked compaction split four ways across background lanes. Running
  // it as its own battery entry holds K=4 to the identical visible
  // state as K=1 (and every other engine) through the whole pairwise
  // trace set.
  {
    std::map<std::string, std::string> params = TinyLsmParams();
    params["compaction_parallelism"] = "4";
    configs.push_back({"lsm-subcompact", "lsm", std::move(params)});
  }
  // The cached wrapper over every bare engine: write buffer + read cache
  // in front, so the buffer merge iterator, tombstone shadowing and
  // flush-then-read paths are pairwise-checked against the engines they
  // wrap. Both cache policies get coverage across the inner engines.
  for (const std::string inner : {"lsm", "btree", "alog"}) {
    std::map<std::string, std::string> params = TinyParams(inner);
    params["inner_engine"] = inner;
    params["write_buffer_bytes"] = std::to_string(16 << 10);
    params["read_cache_bytes"] = std::to_string(32 << 10);
    params["read_cache_policy"] = inner == "lsm" ? "lru" : "2q";
    configs.push_back({"cached/" + inner, "cached", std::move(params)});
  }
  return configs;
}

// The engine that actually persists data for a config (the inner engine
// for sharded configs) — durability and journal knobs belong to it and
// pass through the router untouched.
std::string BaseEngine(const EngineConfig& config) {
  if (config.engine == "sharded" || config.engine == "cached") {
    return config.params.at("inner_engine");
  }
  return config.engine;
}

// Overrides that make every write durable the moment Write returns, so a
// SimulateCrash + reopen must recover it (journal on + sync per record).
std::map<std::string, std::string> DurableParams(const EngineConfig& config) {
  // The cached wrapper's own durability log is what guards buffered (and
  // even already-flushed-but-inner-unsynced) writes; syncing it per
  // record makes every Write durable regardless of the inner engine's
  // own cadence.
  if (config.engine == "cached") return {{"log_sync_every_bytes", "1"}};
  const std::string base = BaseEngine(config);
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
  if (BaseEngine(config) == "btree") return {{"journal_enabled", "1"}};
  return {};
}

struct EngineHarness {
  block::MemoryBlockDevice dev{4096, 1 << 15};
  fs::SimpleFs fs{&dev, {}};
  std::unique_ptr<kv::KVStore> store;
};

std::unique_ptr<EngineHarness> MakeEngine(
    const EngineConfig& config,
    std::map<std::string, std::string> extra_params = {}) {
  auto h = std::make_unique<EngineHarness>();
  kv::EngineOptions options;
  options.engine = config.engine;
  options.fs = &h->fs;
  options.params = config.params;
  for (auto& [k, v] : extra_params) options.params[k] = v;
  auto opened = kv::OpenStore(options);
  EXPECT_TRUE(opened.ok()) << config.label << ": "
                           << opened.status().ToString();
  h->store = *std::move(opened);
  return h;
}

// Re-opens an engine on an existing harness (reopen/recovery tests).
void Reopen(EngineHarness* h, const EngineConfig& config,
            std::map<std::string, std::string> extra_params = {}) {
  kv::EngineOptions options;
  options.engine = config.engine;
  options.fs = &h->fs;
  options.params = config.params;
  for (auto& [k, v] : extra_params) options.params[k] = v;
  auto opened = kv::OpenStore(options);
  ASSERT_TRUE(opened.ok()) << config.label << ": "
                           << opened.status().ToString();
  h->store = *std::move(opened);
}

TEST(RegistryTest, BuiltinEnginesRegisteredAndUnknownRejected) {
  kv::RegisterBuiltinEngines();
  EXPECT_TRUE(kv::EngineRegistry::Global().Contains("lsm"));
  EXPECT_TRUE(kv::EngineRegistry::Global().Contains("btree"));
  EXPECT_TRUE(kv::EngineRegistry::Global().Contains("alog"));
  EXPECT_TRUE(kv::EngineRegistry::Global().Contains("sharded"));

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

TEST(RegistryTest, ParamAccessorsRejectMalformedValues) {
  kv::EngineOptions o;
  o.params = {{"neg", "-1"},          {"ok", "123"},
              {"junk", "12x"},        {"big", "4294967296"},
              {"toolow", "-2147483649"}, {"negint", "-7"},
              {"frac", "0.25"},
              {"huge", "99999999999999999999999"}};
  // strtoull would happily wrap "-1" to 2^64-1; the accessor must warn and
  // keep the default instead of running with a garbage configuration.
  EXPECT_EQ(kv::ParamUint64(o, "neg", 7), 7u);
  EXPECT_EQ(kv::ParamUint64(o, "ok", 7), 123u);
  EXPECT_EQ(kv::ParamUint64(o, "junk", 7), 7u);
  EXPECT_EQ(kv::ParamUint64(o, "missing", 7), 7u);
  // strtoull clamps overflow to 2^64-1 with ERANGE; that too must fall
  // back to the default rather than run with a garbage value.
  EXPECT_EQ(kv::ParamUint64(o, "huge", 7), 7u);
  EXPECT_EQ(kv::ParamInt64(o, "huge", 5), 5);
  // Values that parse as int64 but truncate when narrowed to int fall
  // back to the default rather than wrapping.
  EXPECT_EQ(kv::ParamInt(o, "big", 5), 5);
  EXPECT_EQ(kv::ParamInt(o, "toolow", 5), 5);
  EXPECT_EQ(kv::ParamInt(o, "negint", 5), -7);
  EXPECT_EQ(kv::ParamInt64(o, "big", 5), 4294967296);
  EXPECT_EQ(kv::ParamInt64(o, "negint", 5), -7);
  EXPECT_DOUBLE_EQ(kv::ParamDouble(o, "frac", 1.0), 0.25);
  EXPECT_DOUBLE_EQ(kv::ParamDouble(o, "junk", 1.0), 1.0);
  EXPECT_TRUE(kv::ParamBool(o, "junk", true));
}

// One deterministic op stream applied to every registered engine; all
// pairs must agree at every probe.
class DifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DifferentialTest, EnginesAgreeOnEverything) {
  const std::vector<EngineConfig> configs = AllEngineConfigs();
  ASSERT_GE(configs.size(), 6u);
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
// through kv::OpenStore, cross-checked across every registered engine and
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

// MultiGet is Get, batched: for every registered engine config, the
// statuses and values must match per-key Gets exactly — present keys,
// missing keys and deleted keys alike — and the result order must follow
// the input order (including duplicates). The untimed harness exercises
// the sequential fallback; the timed fan-out path is covered by
// MultiGetFanOutMatchesGetsWhenTimed below and async_io_test.
TEST(MultiGetTest, MatchesPerKeyGetsInEveryEngine) {
  for (const EngineConfig& config : AllEngineConfigs()) {
    const std::string& engine = config.label;
    auto h = MakeEngine(config);
    Rng rng(0x5eed ^ std::hash<std::string>{}(engine));
    for (int i = 0; i < 600; i++) {
      const std::string key = "k" + std::to_string(rng.Uniform(150));
      if (rng.Bernoulli(0.8)) {
        ASSERT_TRUE(h->store->Put(key, "v" + std::to_string(i)).ok());
      } else {
        ASSERT_TRUE(h->store->Delete(key).ok());
      }
    }
    std::vector<std::string> keys;
    for (int i = 0; i < 80; i++) {
      keys.push_back("k" + std::to_string(rng.Uniform(200)));  // some miss
    }
    keys.push_back(keys.front());  // duplicate key in one batch
    std::vector<std::string_view> views(keys.begin(), keys.end());
    std::vector<std::string> values;
    const std::vector<Status> statuses = h->store->MultiGet(views, &values);
    ASSERT_EQ(statuses.size(), keys.size()) << engine;
    ASSERT_EQ(values.size(), keys.size()) << engine;
    const uint64_t gets_before = h->store->GetStats().user_gets;
    for (size_t i = 0; i < keys.size(); i++) {
      std::string expect;
      const Status s = h->store->Get(keys[i], &expect);
      ASSERT_EQ(statuses[i].ok(), s.ok()) << engine << ": " << keys[i];
      ASSERT_EQ(statuses[i].IsNotFound(), s.IsNotFound()) << engine;
      if (s.ok()) {
        EXPECT_EQ(values[i], expect) << engine << ": " << keys[i];
      }
    }
    // MultiGet counted one user_get per key, like the per-key loop did.
    EXPECT_EQ(gets_before, h->store->GetStats().user_gets - keys.size())
        << engine;
    ASSERT_TRUE(h->store->Close().ok());
  }
}

// SettleBackgroundWork battery: for every registered engine config,
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
      // its own commit group and its own log record (wrappers excluded —
      // sharded splits a batch into per-shard records, cached logs into
      // its own durability log before the inner engine sees anything).
      EXPECT_EQ(stats.write_group_batches, stats.user_batches) << engine;
      if (config.engine != "sharded" && config.engine != "cached") {
        EXPECT_EQ(stats.wal_records, stats.user_batches) << engine;
        EXPECT_EQ(stats.write_groups, stats.user_batches) << engine;
      }
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

// ---- Sync Write vs WriteAsync + Wait equivalence ----------------------
//
// On a timed stack (SsdDevice + virtual clock), WriteAsync immediately
// awaited must be indistinguishable from sync Write for every registered
// engine config: same stats (byte counters AND the virtual-time
// breakdown), same final clock, same on-disk state. A lane seeded at the
// global now and joined right away replays the synchronous timeline
// exactly — this is what keeps the async path a pure overlap mechanism
// rather than a second semantics.

struct TimedHarness {
  sim::SimClock clock;
  std::unique_ptr<ssd::SsdDevice> ssd;
  std::unique_ptr<fs::SimpleFs> fs;
  std::unique_ptr<kv::KVStore> store;
};

std::unique_ptr<TimedHarness> MakeTimedEngine(const EngineConfig& config) {
  auto h = std::make_unique<TimedHarness>();
  ssd::SsdConfig cfg;
  cfg.geometry.logical_bytes = 64ull << 20;
  cfg.channels = 4;
  h->ssd = std::make_unique<ssd::SsdDevice>(cfg, &h->clock);
  h->fs = std::make_unique<fs::SimpleFs>(h->ssd.get(), fs::FsOptions{});
  kv::EngineOptions options;
  options.engine = config.engine;
  options.fs = h->fs.get();
  options.clock = &h->clock;
  options.params = config.params;
  auto opened = kv::OpenStore(options);
  EXPECT_TRUE(opened.ok()) << config.label << ": "
                           << opened.status().ToString();
  h->store = *std::move(opened);
  return h;
}

// Compares every KvStoreStats field, by name, via the stats field table.
void ExpectStatsEqual(const std::string& label, const kv::KvStoreStats& a,
                      const kv::KvStoreStats& b) {
  using Fields = std::vector<std::pair<std::string, int64_t>>;
  const auto fields = [](const kv::KvStoreStats& s) {
    Fields out;
    s.ForEachField([&out](const char* name, auto value) {
      out.emplace_back(name, static_cast<int64_t>(value));
    });
    return out;
  };
  const Fields fa = fields(a);
  const Fields fb = fields(b);
  for (size_t i = 0; i < fa.size(); i++) EXPECT_EQ(fa[i], fb[i]) << label;
}

// The timed fan-out path returns byte-identical results to sequential
// Gets for every engine config (read_queue_depth forced > 1, clock
// attached, multi-channel device).
TEST(MultiGetTest, FanOutMatchesGetsWhenTimed) {
  for (EngineConfig config : AllEngineConfigs()) {
    const std::string engine = config.label;
    // Force the fan-out path regardless of the config's own params.
    config.params["read_queue_depth"] = "4";
    auto h = MakeTimedEngine(config);
    Rng rng(0xfa11ed);
    for (int i = 0; i < 500; i++) {
      ASSERT_TRUE(h->store
                      ->Put("k" + std::to_string(rng.Uniform(120)),
                            std::string(300, static_cast<char>('a' + i % 26)))
                      .ok());
    }
    ASSERT_TRUE(h->store->Flush().ok());
    std::vector<std::string> keys;
    for (int i = 0; i < 60; i++) {
      keys.push_back("k" + std::to_string(rng.Uniform(140)));  // some miss
    }
    std::vector<std::string_view> views(keys.begin(), keys.end());
    std::vector<std::string> values;
    const std::vector<Status> statuses = h->store->MultiGet(views, &values);
    for (size_t i = 0; i < keys.size(); i++) {
      std::string expect;
      const Status s = h->store->Get(keys[i], &expect);
      ASSERT_EQ(statuses[i].ok(), s.ok()) << engine << ": " << keys[i];
      if (s.ok()) {
        EXPECT_EQ(values[i], expect) << engine;
      }
    }
    ASSERT_TRUE(h->store->Close().ok()) << engine;
  }
}

TEST(AsyncWriteEquivalenceTest, WriteAsyncPlusWaitMatchesSyncWrite) {
  uint64_t bloom_probes = 0;
  for (const EngineConfig& config : AllEngineConfigs()) {
    const std::string& label = config.label;
    auto sync_h = MakeTimedEngine(config);
    auto async_h = MakeTimedEngine(config);

    // A deterministic batched trace, generated once and applied to both.
    std::vector<kv::WriteBatch> trace;
    Rng rng(0xa51dc0de);
    for (int round = 0; round < 40; round++) {
      kv::WriteBatch batch;
      const size_t n = 1 + rng.Uniform(24);
      for (size_t j = 0; j < n; j++) {
        const std::string key = "k" + std::to_string(rng.Uniform(200));
        if (rng.Bernoulli(0.85)) {
          std::string value(rng.UniformRange(1, 300), '\0');
          rng.FillBytes(value.data(), value.size());
          batch.Put(key, value);
        } else {
          batch.Delete(key);
        }
      }
      trace.push_back(std::move(batch));
    }

    for (const kv::WriteBatch& batch : trace) {
      ASSERT_TRUE(sync_h->store->Write(batch).ok()) << label;
      kv::WriteHandle handle = async_h->store->WriteAsync(batch);
      ASSERT_TRUE(handle.Wait().ok()) << label;
    }
    // The same flush, point reads and snapshot on both sides, so the bloom
    // (LSM probes of flushed tables) and snapshot counters are compared
    // on real values, not 0 == 0.
    for (TimedHarness* h : {sync_h.get(), async_h.get()}) {
      ASSERT_TRUE(h->store->Flush().ok()) << label;
      std::string value;
      for (int i = 0; i < 16; i++) {
        // Even i: a trace key (a hit unless deleted); odd i: never written.
        const std::string key =
            "k" + std::to_string(i % 2 == 0 ? i * 12 : 1000 + i);
        const Status s = h->store->Get(key, &value);
        ASSERT_TRUE(s.ok() || s.IsNotFound()) << label << ": " << key;
      }
      const auto snap = h->store->GetSnapshot();
      ASSERT_TRUE(snap.ok()) << label << ": " << snap.status().ToString();
    }

    EXPECT_EQ(sync_h->clock.NowNanos(), async_h->clock.NowNanos())
        << label << ": submit-then-wait must replay the sync timeline";
    const kv::KvStoreStats sync_stats = sync_h->store->GetStats();
    ExpectStatsEqual(label, sync_stats, async_h->store->GetStats());
    EXPECT_GT(sync_stats.snapshots_created, 0u) << label;
    EXPECT_EQ(sync_stats.snapshots_open, 0u) << label;
    bloom_probes +=
        sync_stats.bloom_negatives + sync_stats.bloom_false_positives;
    EXPECT_EQ(sync_h->store->DiskBytesUsed(), async_h->store->DiskBytesUsed())
        << label;

    // Identical visible state.
    auto is = sync_h->store->NewIterator();
    auto ia = async_h->store->NewIterator();
    is->SeekToFirst();
    ia->SeekToFirst();
    while (is->Valid()) {
      ASSERT_TRUE(ia->Valid()) << label;
      EXPECT_EQ(is->key(), ia->key()) << label;
      EXPECT_EQ(is->value(), ia->value()) << label;
      is->Next();
      ia->Next();
    }
    EXPECT_FALSE(ia->Valid()) << label;
    ASSERT_TRUE(sync_h->store->Close().ok()) << label;
    ASSERT_TRUE(async_h->store->Close().ok()) << label;
  }
  // The LSM configs' reads must have consulted blooms somewhere, or the
  // bloom fields above were compared vacuously.
  EXPECT_GT(bloom_probes, 0u);
}

// ---- QoS scheduling differential battery ------------------------------
//
// The inter-class scheduler (ssd::SsdConfig::background_slice_ns /
// class_weights / background_rate_mbps) may reorder and delay commands
// in VIRTUAL TIME only. For every registered engine config running with
// background_io on, the same batched trace against a QoS-off device and
// an aggressively-throttled QoS device must end in byte-identical
// visible contents and identical user-facing counters; only the
// virtual-clock numbers may move. The battery also checks the QoS runs
// actually engaged the scheduler (background-class traffic, preemptions
// and admission throttling all fired somewhere), so a regression that
// silently stops classifying background I/O cannot pass by vacuity.

std::unique_ptr<TimedHarness> MakeQosTimedEngine(
    const EngineConfig& config, const ssd::SsdConfig& ssd_cfg) {
  auto h = std::make_unique<TimedHarness>();
  h->ssd = std::make_unique<ssd::SsdDevice>(ssd_cfg, &h->clock);
  h->fs = std::make_unique<fs::SimpleFs>(h->ssd.get(), fs::FsOptions{});
  kv::EngineOptions options;
  options.engine = config.engine;
  options.fs = h->fs.get();
  options.clock = &h->clock;
  options.params = config.params;
  options.params["background_io"] = "1";
  auto opened = kv::OpenStore(options);
  EXPECT_TRUE(opened.ok()) << config.label << ": "
                           << opened.status().ToString();
  h->store = *std::move(opened);
  return h;
}

TEST(QosDifferentialTest, ThrottledSchedulingNeverChangesVisibleState) {
  ssd::SsdConfig off_cfg;
  off_cfg.geometry.logical_bytes = 64ull << 20;
  off_cfg.channels = 4;
  // Aggressive QoS on the twin: tight preemption slices, a weighted
  // interleave AND a low background admission rate, so all three
  // scheduler mechanisms perturb the timeline at once.
  ssd::SsdConfig qos_cfg = off_cfg;
  qos_cfg.background_slice_ns = 50'000;
  qos_cfg.class_weights = {4, 4, 1};
  qos_cfg.background_rate_mbps = 20;

  uint64_t total_preemptions = 0;
  int64_t total_throttled_ns = 0;
  for (const EngineConfig& config : AllEngineConfigs()) {
    const std::string& label = config.label;
    auto off = MakeQosTimedEngine(config, off_cfg);
    auto qos = MakeQosTimedEngine(config, qos_cfg);

    // One deterministic trace, applied to both stores in lockstep with
    // interleaved point-read probes while background work is being
    // preempted and throttled on one side only.
    Rng rng(0x905dc0de);
    kv::WriteBatch batch;
    for (int round = 0; round < 90; round++) {
      batch.Clear();
      const size_t n = 1 + rng.Uniform(24);
      for (size_t j = 0; j < n; j++) {
        const std::string key = "k" + std::to_string(rng.Uniform(300));
        if (rng.Bernoulli(0.85)) {
          std::string value(rng.UniformRange(1, 400), '\0');
          rng.FillBytes(value.data(), value.size());
          batch.Put(key, value);
        } else {
          batch.Delete(key);
        }
      }
      ASSERT_TRUE(off->store->Write(batch).ok()) << label;
      ASSERT_TRUE(qos->store->Write(batch).ok()) << label;
      if (round % 10 == 9) {
        for (int i = 0; i < 8; i++) {
          const std::string key = "k" + std::to_string(rng.Uniform(320));
          std::string a, b;
          const Status sa = off->store->Get(key, &a);
          const Status sb = qos->store->Get(key, &b);
          ASSERT_EQ(sa.ok(), sb.ok()) << label << ": " << key;
          if (sa.ok()) {
            ASSERT_EQ(a, b) << label << ": " << key;
          }
        }
      }
    }

    // Identical user-facing counters: scheduling may move virtual time,
    // never the logical operation accounting.
    const auto so = off->store->GetStats();
    const auto sq = qos->store->GetStats();
    EXPECT_EQ(so.user_puts, sq.user_puts) << label;
    EXPECT_EQ(so.user_gets, sq.user_gets) << label;
    EXPECT_EQ(so.user_deletes, sq.user_deletes) << label;
    EXPECT_EQ(so.user_scans, sq.user_scans) << label;
    EXPECT_EQ(so.user_batches, sq.user_batches) << label;
    EXPECT_EQ(so.user_bytes_written, sq.user_bytes_written) << label;
    EXPECT_EQ(so.user_bytes_read, sq.user_bytes_read) << label;

    // Byte-identical visible contents, entry by entry.
    auto it_off = off->store->NewIterator();
    auto it_qos = qos->store->NewIterator();
    it_off->SeekToFirst();
    it_qos->SeekToFirst();
    while (it_off->Valid()) {
      ASSERT_TRUE(it_qos->Valid()) << label << " lost keys under QoS";
      EXPECT_EQ(it_off->key(), it_qos->key()) << label;
      EXPECT_EQ(it_off->value(), it_qos->value()) << label;
      it_off->Next();
      it_qos->Next();
    }
    EXPECT_FALSE(it_qos->Valid()) << label << " grew keys under QoS";
    ASSERT_TRUE(it_off->status().ok()) << label;
    ASSERT_TRUE(it_qos->status().ok()) << label;

    // The QoS device saw background-class traffic: every engine runs its
    // maintenance on the background lane under background_io, so a trace
    // this size that never touches the lane means classification broke.
    // Exception: async-dispatch configs (queue_depth) run maintenance
    // inside the enclosing write lane — RunBackgroundWork cannot fork a
    // nested lane and legitimately falls back to the caller's class.
    ssd::SsdDevice::ChannelStats device;
    for (const auto& c : qos->ssd->channel_stats()) device += c;
    total_preemptions += device.preemptions;
    total_throttled_ns += device.bg_throttled_ns;
    if (config.params.count("queue_depth") == 0) {
      EXPECT_GT(
          device.class_bytes[static_cast<size_t>(sim::IoClass::kBackground)],
          0u)
          << label << ": trace never reached the background lane";
    }
    ASSERT_TRUE(off->store->Close().ok()) << label;
    ASSERT_TRUE(qos->store->Close().ok()) << label;
  }
  // Across the battery both perturbation mechanisms must have fired —
  // otherwise the byte-identical check above proved nothing.
  EXPECT_GT(total_preemptions, 0u);
  EXPECT_GT(total_throttled_ns, 0);
}

// ---- Concurrent multi-writer differential test ------------------------
//
// N writer threads commit OVERLAPPING key ranges concurrently through
// each engine's cross-thread write group (leaders merge waiting
// followers' batches into one log record). Every value is a pure
// function of its key, so any interleaving must converge to the same
// final state — the one a serial golden run produces. The tiny params
// make flush/compaction/eviction/checkpoint/segment GC all fire under
// the concurrent load, and the battery covers every registered engine
// config including the wrappers. This test is in the ctest "stress"
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
    ASSERT_TRUE(concurrent->store->SupportsConcurrentWriters()) << label;
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

// Partitioned subcompactions are a scheduling choice, not a semantics
// change: the same batched trace on a timed multi-channel stack with
// background_io on must leave lsm K=1 and K=4 with byte-identical
// visible contents and identical user-facing counters. Only the
// virtual-time numbers (and SST file seams) may differ.
TEST(SubcompactionDifferentialTest, ParallelismNeverChangesVisibleState) {
  EngineConfig k1{"lsm-k1", "lsm", TinyLsmParams()};
  EngineConfig k4{"lsm-k4", "lsm", TinyLsmParams()};
  k4.params["compaction_parallelism"] = "4";

  auto h1 = MakeQosTimedEngine(k1, [] {
    ssd::SsdConfig cfg;
    cfg.geometry.logical_bytes = 64ull << 20;
    cfg.channels = 4;
    return cfg;
  }());
  auto h4 = MakeQosTimedEngine(k4, [] {
    ssd::SsdConfig cfg;
    cfg.geometry.logical_bytes = 64ull << 20;
    cfg.channels = 4;
    return cfg;
  }());

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
  // sizes, compactions ran (the K=1 side proves it), so a vacuously
  // sequential K=4 is a wiring bug.
  EXPECT_GT(h1->store->GetStats().compaction_bytes_written, 0u);

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
  // Both sides compacted; byte totals differ (installing a partitioned
  // compaction at a different op index shifts every later pick, and the
  // micro_compact bench pins down exact conservation for a fixed pick).
  EXPECT_GT(s4.compaction_bytes_read, 0u);

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

TEST(FaultInjectionTest, EnginesFailCleanlyWhenDeviceFull) {
  // A device far too small for the workload: every engine must surface
  // NoSpace without aborting. 4 MiB with small append chunks, so even
  // the sharded configs (3 shards x several files each) can open and
  // then run out mid-workload rather than at Open.
  for (const EngineConfig& config : AllEngineConfigs()) {
    block::MemoryBlockDevice dev(4096, 1024);  // 4 MiB
    fs::FsOptions fs_options;
    fs_options.append_alloc_pages = 8;
    fs::SimpleFs fs(&dev, fs_options);
    kv::EngineOptions options;
    options.engine = config.engine;
    options.fs = &fs;
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

}  // namespace
}  // namespace ptsb

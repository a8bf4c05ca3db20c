// Shared test helpers: a reference model (std::map oracle), a contents
// checksum, and the timed stack (simulated SSD + virtual clock) engine
// tests open stores on.
#ifndef PTSB_TESTS_TEST_SUPPORT_H_
#define PTSB_TESTS_TEST_SUPPORT_H_

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "fs/filesystem.h"
#include "kv/kvstore.h"
#include "kv/registry.h"
#include "sim/clock.h"
#include "ssd/ssd_device.h"
#include "util/crc32.h"
#include "util/random.h"
#include "util/status.h"

namespace ptsb::testing {

// Collects up to `count` pairs with key >= start via NewIterator() (what
// the deprecated KVStore::Scan shim used to do; tests that want a
// materialized range use this, production code streams the iterator).
inline Status CollectRange(
    kv::KVStore* store, std::string_view start, size_t count,
    std::vector<std::pair<std::string, std::string>>* out) {
  out->clear();
  std::unique_ptr<kv::KVStore::Iterator> it = store->NewIterator();
  for (it->Seek(start); it->Valid() && out->size() < count; it->Next()) {
    out->emplace_back(std::string(it->key()), std::string(it->value()));
  }
  return it->status();
}

// CRC32C over every visible entry in key order, read through `snap` when
// one is given. The entry count is folded in, so "same bytes, fewer rows"
// cannot collide.
inline uint32_t ContentsChecksum(kv::KVStore* store,
                                 const kv::Snapshot* snap = nullptr) {
  kv::ReadOptions opts;
  opts.snapshot = snap;
  std::unique_ptr<kv::KVStore::Iterator> it = store->NewIterator(opts);
  uint32_t sum = 0;
  uint64_t n = 0;
  for (it->SeekToFirst(); it->Valid(); it->Next(), n++) {
    sum = Crc32c(sum, it->key().data(), it->key().size());
    sum = Crc32c(sum, it->value().data(), it->value().size());
  }
  EXPECT_TRUE(it->status().ok()) << it->status().ToString();
  return Crc32c(sum, reinterpret_cast<const char*>(&n), sizeof(n));
}

// A simulated SSD with `channels` channels under a virtual clock, and a
// filesystem on it. The SSD has no write cache, so program time shows in
// every command's latency. A store opened with background_io=1 runs its
// maintenance on background lanes, lane i on channel
// (kv::kBackgroundQueue + i) % channels.
struct TimedStack {
  TimedStack(int channels, uint64_t logical_bytes)
      : ssd(Config(channels, logical_bytes), &clock), fs(&ssd, {}) {}

  std::unique_ptr<kv::KVStore> Open(
      const std::string& engine, std::map<std::string, std::string> params) {
    kv::EngineOptions options;
    options.engine = engine;
    options.fs = &fs;
    options.clock = &clock;
    options.params = std::move(params);
    auto opened = kv::OpenStore(options);
    EXPECT_TRUE(opened.ok()) << engine << ": " << opened.status().ToString();
    return opened.ok() ? *std::move(opened) : nullptr;
  }

  // Backend work ever scheduled, summed over channels: a pure function of
  // the command byte stream, whatever the lanes and channels.
  int64_t ScheduledNanos() const {
    int64_t sum = 0;
    for (const auto& ch : ssd.channel_stats()) sum += ch.scheduled_ns;
    return sum;
  }

  sim::SimClock clock;
  ssd::SsdDevice ssd;
  fs::SimpleFs fs;

 private:
  static ssd::SsdConfig Config(int channels, uint64_t logical_bytes) {
    ssd::SsdConfig cfg;
    cfg.geometry.logical_bytes = logical_bytes;
    cfg.channels = channels;
    cfg.timing.cache_bytes = 0;
    return cfg;
  }
};

// Oracle for property tests: mirrors every mutation applied to an engine.
class ReferenceModel {
 public:
  void Put(const std::string& key, const std::string& value) {
    map_[key] = value;
  }
  void Delete(const std::string& key) { map_.erase(key); }
  // Erases [begin, end); mirrors WriteBatch::DeleteRange's build-time
  // normalization of begin >= end to a no-op.
  void DeleteRange(const std::string& begin, const std::string& end) {
    if (begin >= end) return;
    map_.erase(map_.lower_bound(begin), map_.lower_bound(end));
  }
  std::optional<std::string> Get(const std::string& key) const {
    auto it = map_.find(key);
    if (it == map_.end()) return std::nullopt;
    return it->second;
  }
  size_t size() const { return map_.size(); }
  const std::map<std::string, std::string>& map() const { return map_; }

 private:
  std::map<std::string, std::string> map_;
};

// Applies `ops` random operations to both the engine and the model;
// periodically cross-checks random keys. put_bias in [0,1], delete the rest.
inline void RunRandomOps(kv::KVStore* store, ReferenceModel* model,
                         Rng* rng, int ops, uint64_t key_space,
                         size_t value_bytes, double put_bias = 0.8) {
  for (int i = 0; i < ops; i++) {
    const std::string key = "k" + std::to_string(rng->Uniform(key_space));
    if (rng->Bernoulli(put_bias)) {
      std::string value(value_bytes, '\0');
      rng->FillBytes(value.data(), value.size());
      ASSERT_TRUE(store->Put(key, value).ok()) << "put " << key;
      model->Put(key, value);
    } else {
      const Status s = store->Delete(key);
      ASSERT_TRUE(s.ok()) << "delete " << key << ": " << s.ToString();
      model->Delete(key);
    }
    if (i % 97 == 0) {
      const std::string probe = "k" + std::to_string(rng->Uniform(key_space));
      std::string got;
      const Status s = store->Get(probe, &got);
      const auto expected = model->Get(probe);
      if (expected.has_value()) {
        ASSERT_TRUE(s.ok()) << "missing " << probe << " at op " << i;
        ASSERT_EQ(got, *expected) << "wrong value for " << probe;
      } else {
        ASSERT_TRUE(s.IsNotFound()) << "phantom " << probe << " at op " << i;
      }
    }
  }
}

// Verifies every key in the model against the engine.
inline void VerifyAll(kv::KVStore* store, const ReferenceModel& model) {
  for (const auto& [key, expected] : model.map()) {
    std::string got;
    const Status s = store->Get(key, &got);
    ASSERT_TRUE(s.ok()) << "missing " << key << ": " << s.ToString();
    ASSERT_EQ(got, expected) << "wrong value for " << key;
  }
}

}  // namespace ptsb::testing

#endif  // PTSB_TESTS_TEST_SUPPORT_H_

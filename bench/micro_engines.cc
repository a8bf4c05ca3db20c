// google-benchmark microbenchmarks of the three engines' operation costs
// on a plain in-memory block device (no SSD timing): the software-side
// cost the paper's CPU-overhead discussion refers to.
//
// All engines are instantiated exclusively through kv::OpenStore, and the
// BM_*Write benchmarks sweep the batch size: the wal_bytes_per_op counter
// shows group commit amortizing the per-record log overhead (one crc +
// length frame per batch instead of per op). The alog write benchmarks
// also report gc_bytes_per_op — the log engine's entire application-level
// write amplification beyond the appends themselves.
#include <benchmark/benchmark.h>

#include <map>
#include <memory>
#include <string>

#include "block/memory_device.h"
#include "fs/filesystem.h"
#include "kv/kv.h"
#include "kv/registry.h"
#include "kv/write_batch.h"
#include "util/logging.h"
#include "util/random.h"

namespace ptsb {
namespace {

struct EngineFixture {
  block::MemoryBlockDevice dev{4096, 1 << 16};
  fs::SimpleFs fs{&dev, {}};
  std::unique_ptr<kv::KVStore> store;

  explicit EngineFixture(const std::string& engine,
                         std::map<std::string, std::string> params = {}) {
    kv::EngineOptions options;
    options.engine = engine;
    options.fs = &fs;
    options.params = std::move(params);
    store = *kv::OpenStore(options);
  }
};

std::map<std::string, std::string> LsmBenchParams() {
  return {{"memtable_bytes", std::to_string(4 << 20)},
          {"l1_target_bytes", std::to_string(16 << 20)},
          {"sst_target_bytes", std::to_string(4 << 20)}};
}

std::map<std::string, std::string> BTreeBenchParams(bool journal) {
  return {{"cache_bytes", std::to_string(8 << 20)},
          {"checkpoint_every_bytes", std::to_string(64 << 20)},
          {"journal_enabled", journal ? "1" : "0"}};
}

std::map<std::string, std::string> AlogBenchParams() {
  return {{"segment_bytes", std::to_string(4 << 20)},
          {"gc_trigger", "0.5"}};
}

// Batched writes, state.range(0) = entries per batch (1 = single-op puts).
// Reported counter wal_bytes_per_op makes the group-commit amortization
// visible: per-op log bytes drop as the batch grows.
void RunWriteBatchBench(benchmark::State& state, const std::string& engine,
                        std::map<std::string, std::string> params) {
  EngineFixture f(engine, std::move(params));
  const size_t batch_size = static_cast<size_t>(state.range(0));
  const std::string value = kv::MakeValue(1, 128);
  Rng rng(1);
  uint64_t ops = 0;
  kv::WriteBatch batch;
  for (auto _ : state) {
    batch.Clear();
    for (size_t j = 0; j < batch_size; j++) {
      batch.Put(kv::MakeKey(rng.Uniform(100000)), value);
    }
    PTSB_CHECK_OK(f.store->Write(batch));
    ops += batch_size;
  }
  const auto stats = f.store->GetStats();
  state.SetItemsProcessed(static_cast<int64_t>(ops));
  state.counters["wal_bytes_per_op"] =
      ops > 0 ? static_cast<double>(stats.wal_bytes_written) /
                    static_cast<double>(ops)
              : 0;
  state.counters["gc_bytes_per_op"] =
      ops > 0 ? static_cast<double>(stats.gc_bytes_written) /
                    static_cast<double>(ops)
              : 0;
}

void BM_LsmWrite(benchmark::State& state) {
  RunWriteBatchBench(state, "lsm", LsmBenchParams());
}
BENCHMARK(BM_LsmWrite)->Arg(1)->Arg(8)->Arg(64);

void BM_BTreeWrite(benchmark::State& state) {
  // Journal on: the B+Tree analog of WAL group commit.
  RunWriteBatchBench(state, "btree", BTreeBenchParams(/*journal=*/true));
}
BENCHMARK(BM_BTreeWrite)->Arg(1)->Arg(8)->Arg(64);

void BM_AlogWrite(benchmark::State& state) {
  // The segment log is both data and WAL: one framed record per batch.
  RunWriteBatchBench(state, "alog", AlogBenchParams());
}
BENCHMARK(BM_AlogWrite)->Arg(1)->Arg(8)->Arg(64);

void BM_LsmPut(benchmark::State& state) {
  EngineFixture f("lsm", LsmBenchParams());
  const std::string value = kv::MakeValue(1, state.range(0));
  Rng rng(1);
  uint64_t i = 0;
  for (auto _ : state) {
    PTSB_CHECK_OK(f.store->Put(kv::MakeKey(rng.Uniform(100000)), value));
    i++;
  }
  state.SetBytesProcessed(static_cast<int64_t>(i) * state.range(0));
}
BENCHMARK(BM_LsmPut)->Arg(128)->Arg(4000);

void BM_LsmGet(benchmark::State& state) {
  EngineFixture f("lsm", LsmBenchParams());
  const std::string value = kv::MakeValue(1, 512);
  for (uint64_t k = 0; k < 5000; k++) {
    PTSB_CHECK_OK(f.store->Put(kv::MakeKey(k), value));
  }
  PTSB_CHECK_OK(f.store->Flush());
  Rng rng(2);
  std::string out;
  for (auto _ : state) {
    PTSB_CHECK_OK(f.store->Get(kv::MakeKey(rng.Uniform(5000)), &out));
  }
}
BENCHMARK(BM_LsmGet);

void BM_BTreePut(benchmark::State& state) {
  EngineFixture f("btree", BTreeBenchParams(/*journal=*/false));
  const std::string value = kv::MakeValue(1, state.range(0));
  Rng rng(3);
  uint64_t i = 0;
  for (auto _ : state) {
    PTSB_CHECK_OK(f.store->Put(kv::MakeKey(rng.Uniform(100000)), value));
    i++;
  }
  state.SetBytesProcessed(static_cast<int64_t>(i) * state.range(0));
}
BENCHMARK(BM_BTreePut)->Arg(128)->Arg(4000);

void BM_BTreeGet(benchmark::State& state) {
  EngineFixture f("btree", BTreeBenchParams(/*journal=*/false));
  const std::string value = kv::MakeValue(1, 512);
  for (uint64_t k = 0; k < 5000; k++) {
    PTSB_CHECK_OK(f.store->Put(kv::MakeKey(k), value));
  }
  Rng rng(4);
  std::string out;
  for (auto _ : state) {
    PTSB_CHECK_OK(f.store->Get(kv::MakeKey(rng.Uniform(5000)), &out));
  }
}
BENCHMARK(BM_BTreeGet);

// Streaming 100-entry scans through the iterator API.
void RunScanBench(benchmark::State& state, const std::string& engine,
                  std::map<std::string, std::string> params) {
  EngineFixture f(engine, std::move(params));
  const std::string value = kv::MakeValue(1, 256);
  for (uint64_t k = 0; k < 20000; k++) {
    PTSB_CHECK_OK(f.store->Put(kv::MakeKey(k), value));
  }
  PTSB_CHECK_OK(f.store->Flush());
  Rng rng(5);
  for (auto _ : state) {
    auto it = f.store->NewIterator();
    size_t n = 0;
    for (it->Seek(kv::MakeKey(rng.Uniform(19000))); it->Valid() && n < 100;
         it->Next()) {
      benchmark::DoNotOptimize(it->value().data());
      n++;
    }
    PTSB_CHECK_OK(it->status());
  }
}

void BM_LsmScan100(benchmark::State& state) {
  RunScanBench(state, "lsm", LsmBenchParams());
}
BENCHMARK(BM_LsmScan100);

void BM_BTreeScan100(benchmark::State& state) {
  RunScanBench(state, "btree", BTreeBenchParams(/*journal=*/false));
}
BENCHMARK(BM_BTreeScan100);

void BM_AlogPut(benchmark::State& state) {
  EngineFixture f("alog", AlogBenchParams());
  const std::string value = kv::MakeValue(1, state.range(0));
  Rng rng(6);
  uint64_t i = 0;
  for (auto _ : state) {
    PTSB_CHECK_OK(f.store->Put(kv::MakeKey(rng.Uniform(100000)), value));
    i++;
  }
  state.SetBytesProcessed(static_cast<int64_t>(i) * state.range(0));
}
BENCHMARK(BM_AlogPut)->Arg(128)->Arg(4000);

void BM_AlogGet(benchmark::State& state) {
  EngineFixture f("alog", AlogBenchParams());
  const std::string value = kv::MakeValue(1, 512);
  for (uint64_t k = 0; k < 5000; k++) {
    PTSB_CHECK_OK(f.store->Put(kv::MakeKey(k), value));
  }
  PTSB_CHECK_OK(f.store->Flush());
  Rng rng(7);
  std::string out;
  for (auto _ : state) {
    PTSB_CHECK_OK(f.store->Get(kv::MakeKey(rng.Uniform(5000)), &out));
  }
}
BENCHMARK(BM_AlogGet);

void BM_AlogScan100(benchmark::State& state) {
  RunScanBench(state, "alog", AlogBenchParams());
}
BENCHMARK(BM_AlogScan100);

}  // namespace
}  // namespace ptsb

BENCHMARK_MAIN();

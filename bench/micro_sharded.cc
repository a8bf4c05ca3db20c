// micro_sharded: aggregate put throughput of the sharded front end as a
// function of shards x threads x inner engine — the scaling sweep behind
// the concurrency item on the ROADMAP. Unlike the figure benches this
// measures WALL-CLOCK throughput: virtual time models one serialized
// device, so the win from sharding is the overlap of per-shard CPU work
// (key comparison, checksums, memtable/index updates) outside the
// filesystem's serialization point, and only a wall clock can see it.
//
//   ./build/micro_sharded                     # default sweep
//   ./build/micro_sharded --entries=100000 --value-bytes=1024
//
// Each worker thread writes batches into its own id range (disjoint
// streams, like the experiment driver's ForThread split); a config's
// throughput is total entries / wall seconds across all workers. The
// shards=1 rows are the serialized baseline: every thread queues on one
// engine mutex, so threads do not help. With shards=4 the per-shard locks
// let the workers' commits overlap, and throughput should climb from 1 to
// 4 threads — the aha moment the paper's single-threaded harness cannot
// show. (The scaling self-check needs >= 2 CPUs: on a single-CPU host
// wall-clock parallelism is physically impossible and the sweep only
// measures the router's overhead, so the check reports SKIPPED.)
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "block/memory_device.h"
#include "flags.h"
#include "fs/filesystem.h"
#include "kv/kv.h"
#include "kv/registry.h"
#include "kv/write_batch.h"
#include "util/logging.h"

using namespace ptsb;

namespace {

struct Flags {
  uint64_t entries = 60'000;  // per configuration, split across threads
  size_t value_bytes = 512;
  size_t batch = 16;
};

// One configuration of the sweep; returns aggregate Kops/s (wall clock).
double RunConfig(const Flags& flags, const std::string& inner, int shards,
                 int threads) {
  block::MemoryBlockDevice dev(4096, 1 << 16);  // 256 MiB, no timing model
  fs::SimpleFs fs(&dev, {});
  kv::EngineOptions options;
  options.engine = "sharded";
  options.fs = &fs;
  options.params["shards"] = std::to_string(shards);
  options.params["inner_engine"] = inner;
  auto opened = kv::OpenStore(options);
  PTSB_CHECK_OK(opened.status());
  auto store = *std::move(opened);

  const uint64_t per_thread = flags.entries / static_cast<uint64_t>(threads);
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; t++) {
    workers.emplace_back([&, t] {
      // Disjoint id ranges per worker: no cross-thread key conflicts, so
      // the measurement isolates commit-path scaling.
      const uint64_t base = static_cast<uint64_t>(t) * per_thread;
      kv::WriteBatch batch;
      for (uint64_t i = 0; i < per_thread; i++) {
        batch.Put(kv::MakeKey(base + i),
                  kv::MakeValue(base + i, flags.value_bytes));
        if (batch.Count() >= flags.batch || i + 1 == per_thread) {
          PTSB_CHECK_OK(store->Write(batch));
          batch.Clear();
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  const auto stats = store->GetStats();
  PTSB_CHECK_EQ(stats.user_puts, per_thread * static_cast<uint64_t>(threads));
  PTSB_CHECK_OK(store->Close());
  return static_cast<double>(stats.user_puts) / secs / 1000.0;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  bench::FlagParser parser;
  parser.Value("--entries", &flags.entries, "total puts per config");
  parser.Value("--value-bytes", &flags.value_bytes, "value size in bytes");
  parser.Value("--batch", &flags.batch, "entries per WriteBatch");
  parser.Parse(argc, argv);

  const unsigned cpus = std::thread::hardware_concurrency();
  std::printf("micro_sharded: aggregate put throughput (WALL-clock Kops/s), "
              "%llu entries x %zu B values, batch=%zu, %u CPUs\n\n",
              static_cast<unsigned long long>(flags.entries),
              flags.value_bytes, flags.batch, cpus);
  std::printf("%-7s %-7s | %9s %9s %9s | %s\n", "inner", "shards",
              "1 thread", "2 threads", "4 threads", "4T/1T speedup");

  bool scaling_ok = true;
  for (const char* inner : {"alog", "lsm", "btree"}) {
    for (const int shards : {1, 4}) {
      double kops[3] = {0, 0, 0};
      const int thread_counts[3] = {1, 2, 4};
      for (int i = 0; i < 3; i++) {
        kops[i] = RunConfig(flags, inner, shards, thread_counts[i]);
      }
      std::printf("%-7s %-7d | %9.1f %9.1f %9.1f | %.2fx\n", inner, shards,
                  kops[0], kops[1], kops[2], kops[2] / kops[0]);
      if (shards == 4 && kops[2] <= kops[0]) scaling_ok = false;
    }
    std::printf("\n");
  }
  if (cpus < 2) {
    std::printf("SKIPPED scaling check: single-CPU host, wall-clock "
                "parallelism is not measurable here (the table above still "
                "shows the router overhead)\n");
    return 0;
  }
  std::printf("%s: 4-shard aggregate throughput %s from 1 to 4 threads\n",
              scaling_ok ? "OK" : "FAIL",
              scaling_ok ? "increases" : "did NOT increase");
  return scaling_ok ? 0 : 1;
}

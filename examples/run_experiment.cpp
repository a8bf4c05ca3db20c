// Generic experiment runner: the full paper pipeline as a CLI. Pick an
// engine, a device profile, an initial state, a dataset size, a workload
// mix — get the paper's metrics, windows and steady-state verdict.
//
//   ./build/run_experiment --engine=btree --state=preconditioned --dataset-frac=0.6 --profile=ssd2 --minutes=120 --scale=400
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "core/experiment.h"
#include "core/report.h"
#include "kv/registry.h"
#include "util/human.h"
#include "util/logging.h"

using namespace ptsb;

namespace {

[[noreturn]] void Usage() {
  kv::RegisterBuiltinEngines();
  std::string engines;
  for (const std::string& name : kv::EngineRegistry::Global().Names()) {
    if (!engines.empty()) engines += ", ";
    engines += name;
  }
  std::printf(
      "flags:\n"
      "  --engine=NAME               a registered engine (default lsm;\n"
      "                              registered: %s)\n",
      engines.c_str());
  std::printf(
      "  --engine-param=KEY=VALUE    engine option override (repeatable)\n"
      "  --profile=ssd1|ssd2|ssd3    (default ssd1)\n"
      "  --state=trimmed|preconditioned\n"
      "  --dataset-frac=F            dataset as fraction of device (0.5)\n"
      "  --partition-frac=F          filesystem partition fraction (1.0)\n"
      "  --value-bytes=N             value size (4000)\n"
      "  --write-frac=F              write fraction of ops (1.0)\n"
      "  --delete-frac=F             deletes among write ops (0.0)\n"
      "  --scan-frac=F               scans among read ops (0.0)\n"
      "  --batch-size=N              puts per write batch (1)\n"
      "  --threads=N                 update-phase worker threads (1; pair\n"
      "                              with --engine=sharded)\n"
      "  --channels=N                SSD flash channels (1; >1 lets async\n"
      "                              submissions overlap in virtual time)\n"
      "  --queue-depth=N             async sub-batch commits in flight for\n"
      "                              --engine=sharded (1 = synchronous)\n"
      "  --pipeline-writes=0|1       issue update-phase writes through\n"
      "                              WriteAsync completion callbacks (0)\n"
      "  --pipeline-depth=N          in-flight pipelined commits per\n"
      "                              worker (4; needs --pipeline-writes)\n"
      "  --read-queue-depth=N        in-flight MultiGet point lookups per\n"
      "                              engine (1 = sequential gets)\n"
      "  --read-batch-size=N         gets grouped into one MultiGet (1)\n"
      "  --scan-while-writing=0|1    run scan ops over snapshots\n"
      "                              (GetSnapshot + ReadOptions), so they\n"
      "                              compose with --threads > 1 (0)\n"
      "  --scan-readahead=N          iterator readahead per scan: prefetch\n"
      "                              N leaves/blocks/values across read\n"
      "                              lanes (1 = none; implies snapshots)\n"
      "  --background-io=0|1         run compaction/checkpoint/GC on a\n"
      "                              background queue off the commit path\n"
      "  --compaction-parallelism=K  split LSM compactions (and alog GC\n"
      "                              reads / btree checkpoint writes) into\n"
      "                              K subranges on K background lanes\n"
      "                              (1; needs --background-io=1)\n"
      "  --bg-slice-us=N             QoS: preempt background backend work\n"
      "                              every N us, so a foreground command\n"
      "                              waits at most one quantum (0 = off)\n"
      "  --bg-rate-mbps=R            QoS: token-bucket admission limit on\n"
      "                              background write bytes (0 = off)\n"
      "  --class-weights=A:B:C       QoS: fgread:fgwrite:bg service\n"
      "                              weights at preemption points\n"
      "                              (empty = strict fg priority)\n"
      "  --cache-bytes=N             read-cache capacity for\n"
      "                              --engine=cached (0 = engine default)\n"
      "  --cache-policy=lru|2q       read-cache policy for --engine=cached\n"
      "  --write-buffer-bytes=N      write-buffer capacity for\n"
      "                              --engine=cached (0 = engine default)\n"
      "  --zipf=THETA                zipfian updates (default: uniform)\n"
      "  --minutes=M                 paper-equivalent duration (210)\n"
      "  --window=M                  averaging window minutes (10)\n"
      "  --scale=N                   size divisor vs the paper (200)\n"
      "  --seed=N\n");
  std::exit(2);
}

double ArgF(const char* arg, const char* name) {
  return std::strtod(arg + std::strlen(name), nullptr);
}

}  // namespace

int main(int argc, char** argv) {
  core::ExperimentConfig config;
  config.scale = 200;
  config.name = "run_experiment";
  for (int i = 1; i < argc; i++) {
    const std::string a = argv[i];
    if (a.starts_with("--engine=")) {
      config.engine = a.substr(9);
      if (config.engine.empty()) Usage();
    } else if (a.starts_with("--engine-param=")) {
      const std::string kv_pair = a.substr(15);
      const size_t eq = kv_pair.find('=');
      if (eq == std::string::npos || eq == 0) Usage();
      config.engine_params[kv_pair.substr(0, eq)] = kv_pair.substr(eq + 1);
    } else if (a.starts_with("--profile=")) {
      config.profile = ssd::ProfileFromName(a.substr(10));
    } else if (a.starts_with("--state=")) {
      config.initial_state = a.substr(8) == "preconditioned"
                                 ? ssd::InitialState::kPreconditioned
                                 : ssd::InitialState::kTrimmed;
    } else if (a.starts_with("--dataset-frac=")) {
      config.dataset_frac = ArgF(argv[i], "--dataset-frac=");
    } else if (a.starts_with("--partition-frac=")) {
      config.partition_frac = ArgF(argv[i], "--partition-frac=");
    } else if (a.starts_with("--value-bytes=")) {
      config.value_bytes = static_cast<size_t>(ArgF(argv[i], "--value-bytes="));
    } else if (a.starts_with("--write-frac=")) {
      config.write_fraction = ArgF(argv[i], "--write-frac=");
    } else if (a.starts_with("--delete-frac=")) {
      config.delete_fraction = ArgF(argv[i], "--delete-frac=");
    } else if (a.starts_with("--scan-frac=")) {
      config.scan_fraction = ArgF(argv[i], "--scan-frac=");
    } else if (a.starts_with("--batch-size=")) {
      config.batch_size =
          static_cast<size_t>(ArgF(argv[i], "--batch-size="));
    } else if (a.starts_with("--threads=")) {
      config.num_threads = static_cast<size_t>(ArgF(argv[i], "--threads="));
      if (config.num_threads < 1) Usage();
    } else if (a.starts_with("--channels=")) {
      config.channels = static_cast<int>(ArgF(argv[i], "--channels="));
      if (config.channels < 1) Usage();
    } else if (a.starts_with("--queue-depth=")) {
      config.queue_depth =
          static_cast<int>(ArgF(argv[i], "--queue-depth="));
      if (config.queue_depth < 1) Usage();
    } else if (a.starts_with("--queue_depth=")) {  // accepted alias
      config.queue_depth =
          static_cast<int>(ArgF(argv[i], "--queue_depth="));
      if (config.queue_depth < 1) Usage();
    } else if (a.starts_with("--pipeline-writes=")) {
      config.pipeline_writes = ArgF(argv[i], "--pipeline-writes=") != 0;
    } else if (a.starts_with("--pipeline_writes=")) {  // accepted alias
      config.pipeline_writes = ArgF(argv[i], "--pipeline_writes=") != 0;
    } else if (a.starts_with("--pipeline-depth=")) {
      config.pipeline_depth =
          static_cast<int>(ArgF(argv[i], "--pipeline-depth="));
      if (config.pipeline_depth < 1) Usage();
    } else if (a.starts_with("--pipeline_depth=")) {  // accepted alias
      config.pipeline_depth =
          static_cast<int>(ArgF(argv[i], "--pipeline_depth="));
      if (config.pipeline_depth < 1) Usage();
    } else if (a.starts_with("--read-queue-depth=")) {
      config.read_queue_depth =
          static_cast<int>(ArgF(argv[i], "--read-queue-depth="));
      if (config.read_queue_depth < 1) Usage();
    } else if (a.starts_with("--read-batch-size=")) {
      config.read_batch_size =
          static_cast<size_t>(ArgF(argv[i], "--read-batch-size="));
      if (config.read_batch_size < 1) Usage();
    } else if (a.starts_with("--scan-while-writing=")) {
      config.scan_while_writing =
          ArgF(argv[i], "--scan-while-writing=") != 0;
    } else if (a.starts_with("--scan-readahead=")) {
      config.scan_readahead =
          static_cast<int>(ArgF(argv[i], "--scan-readahead="));
      if (config.scan_readahead < 1) Usage();
    } else if (a.starts_with("--background-io=")) {
      config.background_io = ArgF(argv[i], "--background-io=") != 0;
    } else if (a.starts_with("--compaction-parallelism=")) {
      config.compaction_parallelism =
          static_cast<int>(ArgF(argv[i], "--compaction-parallelism="));
      if (config.compaction_parallelism < 1) Usage();
    } else if (a.starts_with("--bg-slice-us=")) {
      config.background_slice_us =
          static_cast<int64_t>(ArgF(argv[i], "--bg-slice-us="));
      if (config.background_slice_us < 0) Usage();
    } else if (a.starts_with("--bg-rate-mbps=")) {
      config.background_rate_mbps = ArgF(argv[i], "--bg-rate-mbps=");
      if (config.background_rate_mbps < 0) Usage();
    } else if (a.starts_with("--class-weights=")) {
      config.class_weights = a.substr(std::strlen("--class-weights="));
      if (config.class_weights.empty()) Usage();
    } else if (a.starts_with("--cache-bytes=")) {
      config.cache_bytes =
          static_cast<uint64_t>(ArgF(argv[i], "--cache-bytes="));
    } else if (a.starts_with("--cache-policy=")) {
      config.cache_policy = a.substr(15);
      if (config.cache_policy.empty()) Usage();
    } else if (a.starts_with("--write-buffer-bytes=")) {
      config.write_buffer_bytes =
          static_cast<uint64_t>(ArgF(argv[i], "--write-buffer-bytes="));
    } else if (a.starts_with("--zipf=")) {
      config.distribution = kv::Distribution::kZipfian;
      config.zipf_theta = ArgF(argv[i], "--zipf=");
    } else if (a.starts_with("--minutes=")) {
      config.duration_minutes = ArgF(argv[i], "--minutes=");
    } else if (a.starts_with("--window=")) {
      config.window_minutes = ArgF(argv[i], "--window=");
    } else if (a.starts_with("--scale=")) {
      config.scale = std::strtoull(argv[i] + 8, nullptr, 10);
    } else if (a.starts_with("--seed=")) {
      config.seed = std::strtoull(argv[i] + 7, nullptr, 10);
    } else {
      Usage();
    }
  }

  // The driver (core::RunExperiment) scales the built-in engines' option
  // defaults itself — including the inner engine behind "sharded" — and
  // applies --engine-param overrides on top.
  std::printf("engine=%s profile=%s state=%s dataset=%.2f of device "
              "(%llu keys), partition=%.2f, scale=1/%llu, threads=%zu, "
              "channels=%d, queue-depth=%d\n\n",
              config.engine.c_str(),
              ssd::ProfileName(config.profile).c_str(),
              ssd::InitialStateName(config.initial_state),
              config.dataset_frac,
              static_cast<unsigned long long>(config.NumKeys()),
              config.partition_frac,
              static_cast<unsigned long long>(config.scale),
              config.num_threads, config.channels, config.queue_depth);

  auto result = core::RunExperiment(config, [](const std::string& line) {
    std::printf("%s\n", line.c_str());
  });
  PTSB_CHECK_OK(result.status());

  if (result->ran_out_of_space) {
    std::printf("\nRAN OUT OF SPACE (peak utilization %.1f%%) — the "
                "paper's Fig. 6 scenario.\n",
                result->peak_disk_utilization * 100);
    return 0;
  }
  std::printf("\n%s\n",
              result->series.ToTable("windows (paper-equivalent minutes)")
                  .c_str());
  std::printf(
      "steady state: %.2f Kops/s  WA-A=%.2f  WA-D=%.2f  e2e-WA=%.2f\n"
      "space amp=%.2f  peak util=%.1f%%  tput CV=%.3f  steady=%s\n"
      "lba untouched=%.1f%%  load took %.1f paper-min\n"
      "op latency (virtual): p50=%.1f us  p99=%.1f us  max=%.1f us\n",
      result->steady.kv_kops, result->steady.wa_a_cum,
      result->steady.wa_d_cum, result->EndToEndWa(), result->final_space_amp,
      result->peak_disk_utilization * 100, result->throughput_cv,
      result->reached_steady_state ? "yes" : "NO (pitfall 1: run longer!)",
      result->lba_fraction_untouched * 100, result->load_minutes,
      result->op_p50_us, result->op_p99_us, result->op_max_us);
  const kv::KvStoreStats& es = result->engine_stats;
  if (es.cache_hits + es.cache_misses + es.buffer_coalesced_bytes > 0) {
    const uint64_t probes = es.cache_hits + es.cache_misses;
    std::printf("cache layer: hits=%llu misses=%llu (%.1f%% hit)  "
                "coalesced=%s  flush batches=%llu\n",
                static_cast<unsigned long long>(es.cache_hits),
                static_cast<unsigned long long>(es.cache_misses),
                probes > 0 ? 100.0 * static_cast<double>(es.cache_hits) /
                                 static_cast<double>(probes)
                           : 0.0,
                HumanBytes(es.buffer_coalesced_bytes).c_str(),
                static_cast<unsigned long long>(es.flush_batches));
  }
  if (es.bloom_negatives + es.bloom_false_positives > 0) {
    // Probes the filters rejected (saved a data-block read) vs admitted
    // in vain (table lacked the key: a wasted block read).
    std::printf("bloom filters: negatives=%llu false positives=%llu "
                "(%.2f%% fp among rejections+fps)\n",
                static_cast<unsigned long long>(es.bloom_negatives),
                static_cast<unsigned long long>(es.bloom_false_positives),
                100.0 * static_cast<double>(es.bloom_false_positives) /
                    static_cast<double>(es.bloom_negatives +
                                        es.bloom_false_positives));
  }
  if (!result->channel_utilization.empty()) {
    std::printf("channel utilization:");
    for (size_t c = 0; c < result->channel_utilization.size(); c++) {
      std::printf(" ch%zu=%.1f%%", c,
                  result->channel_utilization[c] * 100);
    }
    std::printf("\n");
  }
  if (!result->channel_class_utilization.empty()) {
    std::printf("per-class channel busy (");
    for (int k = 0; k < sim::kNumIoClasses; k++) {
      std::printf("%s%s", k > 0 ? "/" : "",
                  sim::IoClassName(static_cast<sim::IoClass>(k)));
    }
    std::printf("):");
    for (size_t c = 0; c < result->channel_class_utilization.size(); c++) {
      const auto& u = result->channel_class_utilization[c];
      std::printf(" ch%zu=", c);
      for (size_t k = 0; k < u.size(); k++) {
        std::printf("%s%.1f", k > 0 ? "/" : "", u[k] * 100);
      }
      std::printf("%%");
    }
    const auto& busy = result->device.class_busy_ns;
    const int64_t fg =
        busy[static_cast<size_t>(sim::IoClass::kForegroundRead)] +
        busy[static_cast<size_t>(sim::IoClass::kForegroundWrite)];
    const int64_t bg = busy[static_cast<size_t>(sim::IoClass::kBackground)];
    std::printf("\ndevice busy split: foreground=%.3fs background=%.3fs "
                "(simulated)\n",
                static_cast<double>(fg) / 1e9,
                static_cast<double>(bg) / 1e9);
  }
  if (config.background_slice_us > 0 || config.background_rate_mbps > 0) {
    std::printf("qos: preemptions=%llu bg_throttled=%.3fs wait(",
                static_cast<unsigned long long>(result->device.preemptions),
                static_cast<double>(result->device.bg_throttled_ns) / 1e9);
    for (int k = 0; k < sim::kNumIoClasses; k++) {
      std::printf("%s%s=%.3fs", k > 0 ? " " : "",
                  sim::IoClassName(static_cast<sim::IoClass>(k)),
                  static_cast<double>(
                      result->device.class_wait_ns[static_cast<size_t>(k)]) /
                      1e9);
    }
    std::printf(")\n");
  }
  const std::string csv_path =
      core::WriteResultsFile("run_experiment.csv", result->series.ToCsv());
  if (!csv_path.empty()) std::printf("series written to %s\n", csv_path.c_str());
  return 0;
}

// Generic experiment runner: the full paper pipeline as a CLI. Pick an
// engine, a device profile, an initial state, a dataset size, a workload
// mix — get the paper's metrics, windows and steady-state verdict.
//
//   ./build/run_experiment --engine=btree --state=preconditioned --dataset-frac=0.6 --profile=ssd2 --minutes=120 --scale=400
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>

#include "core/experiment.h"
#include "core/report.h"
#include "kv/registry.h"
#include "util/logging.h"
#include "util/parse.h"

using namespace ptsb;

namespace {

// Prints `error` (if any) to stderr and the usage to stdout, then exits 2.
[[noreturn]] void Usage(const std::string& error = "") {
  if (!error.empty()) std::fprintf(stderr, "%s\n", error.c_str());
  std::string engines;
  for (const std::string& name : kv::EngineNames()) {
    if (!engines.empty()) engines += ", ";
    engines += name;
  }
  std::printf(
      "flags:\n"
      "  --engine=NAME               one of %s (default lsm)\n",
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
      "  --threads=N                 update-phase worker threads (1)\n"
      "  --channels=N                SSD flash channels (1; >1 lets\n"
      "                              background lanes overlap in virtual\n"
      "                              time)\n"
      "  --scan-while-writing=0|1    run scan ops over snapshots\n"
      "                              (GetSnapshot + ReadOptions), so they\n"
      "                              compose with --threads > 1 (0)\n"
      "  --background-io=0|1         run compaction/checkpoint/GC on a\n"
      "                              background queue off the commit path\n"
      "  --compaction-parallelism=K  split LSM compactions (and alog GC\n"
      "                              reads / btree checkpoint writes) into\n"
      "                              K subranges on K background lanes\n"
      "                              (1; needs --background-io=1)\n"
      "  --zipf=THETA                zipfian updates (default: uniform)\n"
      "  --minutes=M                 paper-equivalent duration (210)\n"
      "  --window=M                  averaging window minutes (10)\n"
      "  --scale=N                   size divisor vs the paper (200)\n"
      "  --seed=N\n");
  std::exit(2);
}

// The value of flag `a` (the text after its '=') as a T; exits 2 unless
// it parses in full, is finite and is at least `min`.
template <typename T>
T Arg(const std::string& a, T min = std::numeric_limits<T>::lowest()) {
  T v{};
  if (!ParseValue(std::string_view(a).substr(a.find('=') + 1), &v) ||
      !std::isfinite(static_cast<double>(v)) || v < min) {
    Usage("bad value: " + a);
  }
  return v;
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
      if (config.engine.empty()) Usage("empty engine name");
    } else if (a.starts_with("--engine-param=")) {
      const std::string kv_pair = a.substr(15);
      const size_t eq = kv_pair.find('=');
      if (eq == std::string::npos || eq == 0) Usage("bad engine param: " + a);
      config.engine_params[kv_pair.substr(0, eq)] = kv_pair.substr(eq + 1);
    } else if (a.starts_with("--profile=")) {
      const auto profile = ssd::ProfileFromName(a.substr(10));
      if (!profile) Usage("unknown profile: " + a);
      config.profile = *profile;
    } else if (a.starts_with("--state=")) {
      const std::string state = a.substr(8);
      if (state != "trimmed" && state != "preconditioned") {
        Usage("unknown state: " + a);
      }
      config.initial_state = state == "preconditioned"
                                 ? ssd::InitialState::kPreconditioned
                                 : ssd::InitialState::kTrimmed;
    } else if (a.starts_with("--dataset-frac=")) {
      config.dataset_frac = Arg<double>(a);
    } else if (a.starts_with("--partition-frac=")) {
      config.partition_frac = Arg<double>(a);
    } else if (a.starts_with("--value-bytes=")) {
      config.value_bytes = Arg<size_t>(a);
    } else if (a.starts_with("--write-frac=")) {
      config.write_fraction = Arg<double>(a);
    } else if (a.starts_with("--delete-frac=")) {
      config.delete_fraction = Arg<double>(a);
    } else if (a.starts_with("--scan-frac=")) {
      config.scan_fraction = Arg<double>(a);
    } else if (a.starts_with("--batch-size=")) {
      config.batch_size = Arg<size_t>(a);
    } else if (a.starts_with("--threads=")) {
      config.num_threads = Arg<size_t>(a, 1);
    } else if (a.starts_with("--channels=")) {
      config.channels = Arg<int>(a, 1);
    } else if (a.starts_with("--scan-while-writing=")) {
      config.scan_while_writing = Arg<bool>(a);
    } else if (a.starts_with("--background-io=")) {
      config.background_io = Arg<bool>(a);
    } else if (a.starts_with("--compaction-parallelism=")) {
      config.compaction_parallelism = Arg<int>(a, 1);
    } else if (a.starts_with("--zipf=")) {
      config.distribution = kv::Distribution::kZipfian;
      config.zipf_theta = Arg<double>(a);
    } else if (a.starts_with("--minutes=")) {
      config.duration_minutes = Arg<double>(a);
    } else if (a.starts_with("--window=")) {
      config.window_minutes = Arg<double>(a);
    } else if (a.starts_with("--scale=")) {
      config.scale = Arg<uint64_t>(a, 1);
    } else if (a.starts_with("--seed=")) {
      config.seed = Arg<uint64_t>(a);
    } else {
      Usage("unknown flag: " + a);
    }
  }

  // The driver (core::RunExperiment) scales the built-in engines' option
  // defaults itself and applies --engine-param overrides on top.
  std::printf("engine=%s profile=%s state=%s dataset=%.2f of device "
              "(%llu keys), partition=%.2f, scale=1/%llu, threads=%zu, "
              "channels=%d\n\n",
              config.engine.c_str(),
              ssd::ProfileName(config.profile).c_str(),
              ssd::InitialStateName(config.initial_state),
              config.dataset_frac,
              static_cast<unsigned long long>(config.NumKeys()),
              config.partition_frac,
              static_cast<unsigned long long>(config.scale),
              config.num_threads, config.channels);

  auto result = core::RunExperiment(config, [](const std::string& line) {
    std::printf("%s\n", line.c_str());
  });
  if (result.status().IsInvalidArgument()) {
    // A configuration the stack cannot build (an unknown engine or engine
    // param, a malformed param value, a fraction or value size out of
    // range, a scale the profile's flash geometry cannot back): a usage
    // error, like a bad flag.
    std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
    return 2;
  }
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
  const std::string csv_path =
      core::WriteResultsFile("run_experiment.csv", result->series.ToCsv());
  if (!csv_path.empty()) std::printf("series written to %s\n", csv_path.c_str());
  return 0;
}

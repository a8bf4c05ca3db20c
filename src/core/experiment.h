// Experiment driver: assembles the full stack the paper's testbed has
// (SSD -> iostat -> blktrace -> partition -> filesystem -> engine), applies
// the drive's initial state, runs the load phase and the timed update
// phase, and samples the paper's metrics every window.
//
// All sizes are specified at *paper scale* (400 GB drive, 200 GB dataset,
// 10 MiB caches, ...) and divided by `scale`. Because every structural
// size shrinks by the same factor, the time axis compresses by it too; all
// reported times are mapped back to paper-equivalent minutes.
#ifndef PTSB_CORE_EXPERIMENT_H_
#define PTSB_CORE_EXPERIMENT_H_

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "block/iostat.h"
#include "block/partition.h"
#include "block/trace.h"
#include "btree/options.h"
#include "core/metrics.h"
#include "fs/filesystem.h"
#include "kv/kvstore.h"
#include "kv/workload.h"
#include "lsm/options.h"
#include "sim/clock.h"
#include "sim/io_class.h"
#include "ssd/precondition.h"
#include "ssd/profiles.h"
#include "ssd/ssd_device.h"
#include "util/status.h"

namespace ptsb::core {

struct ExperimentConfig {
  std::string name = "experiment";
  uint64_t scale = 100;  // divide all paper-scale sizes by this

  // Device.
  ssd::ProfileKind profile = ssd::ProfileKind::kSsd1Enterprise;
  ssd::InitialState initial_state = ssd::InitialState::kTrimmed;
  uint64_t device_bytes = ssd::kPaperDeviceBytes;  // paper scale

  // Partition: fraction of the device the filesystem gets; the rest stays
  // trimmed as software over-provisioning (paper Section 4.6).
  double partition_frac = 1.0;

  // Dataset: fraction of the (whole) device capacity (paper default 0.5).
  double dataset_frac = 0.5;
  size_t key_bytes = 16;
  size_t value_bytes = 4000;

  // Update phase. batch_size > 1 groups puts into one KVStore::Write
  // (group commit); delete_fraction carves deletes out of the write ops;
  // scan_fraction carves scan_count-entry range scans out of the reads.
  double write_fraction = 1.0;
  double delete_fraction = 0.0;
  double scan_fraction = 0.0;
  size_t batch_size = 1;
  size_t scan_count = 100;
  // Concurrent workers for the update phase. Each worker replays its own
  // deterministic op stream (WorkloadSpec::ForThread) against the one
  // store; every built-in engine accepts concurrent writers. With > 1
  // the per-window series degrades to a single aggregate window
  // (sampling windows mid-run would race with the workers), and scan ops
  // are downgraded to gets unless scan_while_writing runs them over
  // snapshots: a live iterator concurrent with writes would read
  // invalidated state.
  size_t num_threads = 1;
  // Device-internal parallelism (Roh et al., PAPERS.md): number of
  // independent flash channels in the simulated SSD. A submission queue
  // q serializes on channel q % channels only; foreground commands use
  // queue 0 and background lanes queues 1.., so 1 reproduces the
  // single-server device exactly.
  int channels = 1;
  // Run every scan op over a snapshot (KVStore::GetSnapshot +
  // ReadOptions::snapshot): the cursor freezes a commit sequence and
  // survives concurrent writers, so scan_fraction > 0 composes with
  // num_threads > 1 instead of being downgraded to point reads.
  bool scan_while_writing = false;
  // Run engine maintenance (LSM compaction, B+Tree checkpoints, alog GC)
  // on a dedicated background submission lane/queue (the engines'
  // background_io param): user commits no longer absorb background
  // device time, which surfaces as background-channel utilization and as
  // tail latency at the points where the user genuinely waits (write
  // stalls, Flush, SettleBackgroundWork).
  bool background_io = false;
  // Background lanes (every engine's compaction_parallelism param): > 1
  // splits a picked LSM compaction into that many disjoint key subranges
  // (and fans alog GC value reads / B+Tree checkpoint block writes out
  // the same way), each on its own background submission lane, so
  // background I/O overlaps across SSD channels. Without background_io
  // the engine has one lane whatever the value.
  int compaction_parallelism = 1;
  kv::Distribution distribution = kv::Distribution::kUniform;
  double zipf_theta = 0.99;  // used when distribution is zipfian
  double duration_minutes = 210;  // paper-equivalent minutes
  double window_minutes = 10;

  // Engine selection: a kv::OpenStore name plus param overrides. The
  // driver first fills the engine's scaled defaults (ScaledLsmOptions /
  // ScaledBTreeOptions below, alog's ScaledEngineParams), then applies
  // engine_params on top; an unknown or malformed param fails the run
  // with InvalidArgument.
  std::string engine = "lsm";
  std::map<std::string, std::string> engine_params;

  bool collect_lba_trace = true;
  uint64_t seed = 42;

  // Derived values (after scaling).
  uint64_t ScaledDeviceBytes() const { return device_bytes / scale; }
  uint64_t DatasetBytes() const {
    return static_cast<uint64_t>(dataset_frac *
                                 static_cast<double>(ScaledDeviceBytes()));
  }
  uint64_t NumKeys() const {
    return DatasetBytes() / (key_bytes + value_bytes);
  }
};

struct ExperimentResult {
  ExperimentConfig config;
  MetricsSeries series;

  // Steady-state summary (tail-window averages).
  WindowSample steady;
  double throughput_cv = 0;

  double load_minutes = 0;            // paper-equivalent
  double peak_disk_utilization = 0;
  double final_space_amp = 0;
  // The paper reports the *maximum* utilization RocksDB reaches, since its
  // footprint fluctuates with compaction churn (Section 4.5).
  double peak_space_amp = 0;
  bool ran_out_of_space = false;
  bool reached_steady_state = false;

  // LBA-trace analysis (paper Fig. 4).
  double lba_fraction_untouched = 0;
  std::vector<block::LbaTraceCollector::CdfPoint> lba_cdf;

  kv::KvStoreStats engine_stats;
  ssd::SmartCounters smart;
  uint64_t update_ops = 0;

  // Per-channel utilization over the whole run: fraction of the final
  // virtual time each flash channel spent busy with backend work
  // (programs and GC). One entry per configured channel; a
  // single-channel run reports one number.
  std::vector<double> channel_utilization;

  // Per-channel, per-I/O-class busy fraction over the whole run, indexed
  // [channel][sim::IoClass]: how much of each channel went to foreground
  // reads, foreground writes, and background maintenance (includes read
  // occupancy, so it is finer-grained than channel_utilization).
  std::vector<std::array<double, sim::kNumIoClasses>>
      channel_class_utilization;
  // The per-channel device counters summed across channels: the
  // per-class busy split (foreground vs background device time).
  ssd::SsdDevice::ChannelStats device;

  // Operation-latency percentiles over the whole update phase
  // (microseconds of virtual time, per logical entry): background
  // interference shows up here as p99 long before it dents throughput.
  double op_p50_us = 0;
  double op_p99_us = 0;
  double op_max_us = 0;

  // End-to-end write amplification = WA-A x WA-D (paper Section 4.2).
  double EndToEndWa() const { return steady.wa_a_cum * steady.wa_d_cum; }
};

// Builds the stack, runs load + update, returns the sampled result.
// `progress` (optional) is invoked with a short status line per window.
// A fraction outside its range (partition_frac and dataset_frac in
// (0,1], the write, delete and scan fractions in [0,1]) or a value_bytes
// below 16 is InvalidArgument before anything is built.
StatusOr<ExperimentResult> RunExperiment(
    const ExperimentConfig& config,
    const std::function<void(const std::string&)>& progress = nullptr);

// Scaled engine option defaults (exposed for tests and examples). The
// clock is attached by the engine factory via kv::EngineOptions, not here.
lsm::LsmOptions ScaledLsmOptions(const ExperimentConfig& config);
btree::BTreeOptions ScaledBTreeOptions(const ExperimentConfig& config);
fs::FsOptions ScaledFsOptions(const ExperimentConfig& config);

}  // namespace ptsb::core

#endif  // PTSB_CORE_EXPERIMENT_H_

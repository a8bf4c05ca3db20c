#include "core/experiment.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <mutex>
#include <thread>
#include <vector>

#include "alog/alog_store.h"
#include "btree/btree_store.h"
#include "core/steady_state.h"
#include "kv/registry.h"
#include "kv/write_batch.h"
#include "lsm/lsm_store.h"
#include "util/histogram.h"
#include "util/human.h"
#include "util/logging.h"

namespace ptsb::core {

lsm::LsmOptions ScaledLsmOptions(const ExperimentConfig& config) {
  lsm::LsmOptions o;
  const uint64_t s = config.scale;
  o.memtable_bytes = std::max<uint64_t>((64ull << 20) / s, 64 << 10);
  o.l1_target_bytes = std::max<uint64_t>((256ull << 20) / s, 256 << 10);
  o.sst_target_bytes = std::max<uint64_t>((64ull << 20) / s, 64 << 10);
  o.block_bytes = 4096;          // unscaled: device page granularity
  return o;
}

btree::BTreeOptions ScaledBTreeOptions(const ExperimentConfig& config) {
  btree::BTreeOptions o;
  const uint64_t s = config.scale;
  o.leaf_max_bytes = 32 << 10;   // unscaled page sizes
  o.internal_max_bytes = 4 << 10;
  o.cache_bytes = std::max<uint64_t>((10ull << 20) / s, 4 * o.leaf_max_bytes);
  o.checkpoint_every_bytes = std::max<uint64_t>((256ull << 20) / s, 1 << 20);
  o.file_grow_bytes = std::max<uint64_t>((64ull << 20) / s, 1 << 20);
  return o;
}

fs::FsOptions ScaledFsOptions(const ExperimentConfig& /*config*/) {
  fs::FsOptions o;  // nodiscard, as the paper's ext4
  // Extent sizes are device-side properties (ext4 block groups, command
  // sizes) and deliberately do NOT scale: large writes must stay large so
  // per-command latency amortizes as it does on real hardware.
  o.max_extent_pages = (8ull << 20) / 4096;
  o.append_alloc_pages = (1ull << 20) / 4096;
  o.metadata_pages = 64;
  return o;
}

namespace {

struct Stack {
  sim::SimClock clock;
  std::unique_ptr<ssd::SsdDevice> ssd;
  std::unique_ptr<block::IoStatCollector> iostat;
  std::unique_ptr<block::LbaTraceCollector> trace;
  std::unique_ptr<block::PartitionView> partition;
  std::unique_ptr<fs::SimpleFs> fs;
  std::unique_ptr<kv::KVStore> store;
};

Status BuildStack(const ExperimentConfig& config, Stack* stack) {
  auto ssd_config = ssd::MakeProfile(config.profile, config.device_bytes,
                                     config.scale);
  ssd_config.channels = std::max(1, config.channels);
  // The profile's geometry shrinks with the scale; report a scale it
  // cannot support instead of tripping the FTL's CHECK.
  if (const Status s = ssd::ValidateGeometry(ssd_config.geometry); !s.ok()) {
    return Status::InvalidArgument(
        "profile " + ssd::ProfileName(config.profile) + " at scale " +
        std::to_string(config.scale) + ": " + s.message());
  }
  stack->ssd = std::make_unique<ssd::SsdDevice>(ssd_config, &stack->clock);
  stack->iostat = std::make_unique<block::IoStatCollector>(stack->ssd.get());
  block::BlockDevice* top = stack->iostat.get();
  if (config.collect_lba_trace) {
    stack->trace = std::make_unique<block::LbaTraceCollector>(top);
    top = stack->trace.get();
  }
  const auto part_lbas = static_cast<uint64_t>(
      config.partition_frac * static_cast<double>(top->num_lbas()));
  PTSB_CHECK_GT(part_lbas, 0u);
  stack->partition =
      std::make_unique<block::PartitionView>(top, 0, part_lbas);

  // Initial drive state: whole-device trim, then (optionally) precondition
  // the PTS partition (paper Sections 3.4 and 4.6).
  PTSB_RETURN_IF_ERROR(ssd::TrimAll(stack->ssd.get()));
  if (config.initial_state == ssd::InitialState::kPreconditioned) {
    PTSB_RETURN_IF_ERROR(
        ssd::Precondition(stack->partition.get(), 2.0, config.seed));
  }

  stack->fs = std::make_unique<fs::SimpleFs>(stack->partition.get(),
                                             ScaledFsOptions(config));

  // Scaled defaults for the engine, then the caller's overrides, then
  // kv::OpenStore by name.
  kv::EngineOptions engine_options;
  engine_options.engine = config.engine;
  engine_options.fs = stack->fs.get();
  engine_options.clock = &stack->clock;
  if (config.engine == "lsm") {
    engine_options.params = lsm::EncodeEngineParams(ScaledLsmOptions(config));
  } else if (config.engine == "btree") {
    engine_options.params =
        btree::EncodeEngineParams(ScaledBTreeOptions(config));
  } else if (config.engine == "alog") {
    engine_options.params = alog::ScaledEngineParams(config.scale);
  }
  // Every engine understands the background I/O toggle and the
  // background lane count; explicit engine_params entries win below.
  engine_options.params["background_io"] = config.background_io ? "1" : "0";
  engine_options.params["compaction_parallelism"] =
      std::to_string(std::max(1, config.compaction_parallelism));
  for (const auto& [key, value] : config.engine_params) {
    engine_options.params[key] = value;
  }
  PTSB_ASSIGN_OR_RETURN(stack->store, kv::OpenStore(engine_options));
  return Status::OK();
}

// Applies one generated op to the store. `ops_done` counts logical
// entries (a batch counts its size). NotFound on point reads is success;
// NoSpace is returned for the caller to treat as data (paper Fig. 6).
Status ExecuteOp(kv::KVStore* store, kv::WorkloadGenerator* gen,
                 const kv::WorkloadSpec& spec, const kv::Op& op,
                 kv::WriteBatch* batch, std::string* read_value,
                 uint64_t* ops_done) {
  *ops_done = 1;
  switch (op.type) {
    case kv::Op::Type::kPut:
      batch->SetSingle(kv::WriteBatch::EntryKind::kPut,
                       gen->KeyFor(op.key_id),
                       kv::MakeValue(op.value_seed, spec.value_bytes));
      return store->Write(*batch);
    case kv::Op::Type::kBatchPut:
      batch->Clear();
      batch->Put(gen->KeyFor(op.key_id),
                 kv::MakeValue(op.value_seed, spec.value_bytes));
      for (size_t j = 1; j < spec.batch_size; j++) {
        batch->Put(gen->KeyFor(gen->NextKeyId()),
                   kv::MakeValue(gen->NextValueSeed(), spec.value_bytes));
      }
      *ops_done = batch->Count();
      return store->Write(*batch);
    case kv::Op::Type::kDelete:
      batch->SetSingle(kv::WriteBatch::EntryKind::kDelete,
                       gen->KeyFor(op.key_id), "");
      return store->Write(*batch);
    case kv::Op::Type::kGet: {
      const Status s = store->Get(gen->KeyFor(op.key_id), read_value);
      return s.IsNotFound() ? Status::OK() : s;
    }
    case kv::Op::Type::kScan: {
      // Snapshot scans (scan_snapshot) freeze a sequence first, so the
      // cursor tolerates concurrent writers.
      std::shared_ptr<const kv::Snapshot> snap;
      kv::ReadOptions opts;
      if (spec.scan_snapshot) {
        auto got = store->GetSnapshot();
        if (!got.ok()) return got.status();
        snap = *std::move(got);
        opts.snapshot = snap.get();
      }
      std::unique_ptr<kv::KVStore::Iterator> it = store->NewIterator(opts);
      size_t seen = 0;
      for (it->Seek(gen->KeyFor(op.key_id));
           it->Valid() && seen < spec.scan_count; it->Next()) {
        seen++;
      }
      return it->status();
    }
  }
  return Status::OK();
}

// Baselines the window math subtracts from the current counters. The
// "cum" members anchor cumulative metrics at the update-phase start; the
// "window" members anchor per-window rates, and equal the cum members for
// the multi-threaded single-aggregate-window case.
struct WindowBaselines {
  block::IoCounters io_cum;
  ssd::SmartCounters smart_cum;
  kv::KvStoreStats engine_cum;
  block::IoCounters io_window;
  ssd::SmartCounters smart_window;
  uint64_t ops_window = 0;
  uint64_t stalls_window = 0;
};

// Samples the stack's counters into one WindowSample — the ONLY place the
// paper's window metrics (rates, WA-A/WA-D, utilization, latency
// percentiles) are computed, shared by the per-window loop and the
// multi-threaded aggregate window.
WindowSample SampleWindow(const ExperimentConfig& config, Stack* stack,
                          double t0_min, double now_min, double window_sec,
                          double time_scale, uint64_t dataset_bytes,
                          uint64_t update_ops, const WindowBaselines& base,
                          const Histogram& latency) {
  const auto io = stack->iostat->counters();
  const auto smart = stack->ssd->smart();
  const auto engine = stack->store->GetStats();
  const auto fs_stats = stack->fs->GetStats();

  WindowSample w;
  w.t_minutes = (now_min - t0_min) * time_scale;
  w.kv_kops = static_cast<double>(update_ops - base.ops_window) /
              window_sec / 1000.0;
  w.dev_write_mbps =
      static_cast<double>(io.write_bytes - base.io_window.write_bytes) /
      window_sec / 1e6;
  w.dev_read_mbps =
      static_cast<double>(io.read_bytes - base.io_window.read_bytes) /
      window_sec / 1e6;
  const uint64_t user_bytes =
      engine.user_bytes_written - base.engine_cum.user_bytes_written;
  const uint64_t host_bytes = io.write_bytes - base.io_cum.write_bytes;
  const uint64_t nand_bytes =
      smart.nand_bytes_written - base.smart_cum.nand_bytes_written;
  const uint64_t host_cum =
      smart.host_bytes_written - base.smart_cum.host_bytes_written;
  w.wa_a_cum = user_bytes > 0 ? static_cast<double>(host_bytes) /
                                    static_cast<double>(user_bytes)
                              : 0;
  w.wa_d_cum = host_cum > 0 ? static_cast<double>(nand_bytes) /
                                  static_cast<double>(host_cum)
                            : 1.0;
  const uint64_t host_w =
      smart.host_bytes_written - base.smart_window.host_bytes_written;
  const uint64_t nand_w =
      smart.nand_bytes_written - base.smart_window.nand_bytes_written;
  w.wa_d_window = host_w > 0 ? static_cast<double>(nand_w) /
                                   static_cast<double>(host_w)
                             : 1.0;
  w.disk_utilization = fs_stats.Utilization() * config.partition_frac;
  w.space_amp = static_cast<double>(stack->store->DiskBytesUsed()) /
                static_cast<double>(dataset_bytes);
  w.stalls = engine.stall_count - base.stalls_window;
  w.cache_backlog_mb =
      static_cast<double>(stack->ssd->GetCacheState().occupancy_bytes) /
      1e6;
  w.op_p50_us = latency.Percentile(50) / 1000.0;
  w.op_p99_us = latency.Percentile(99) / 1000.0;
  w.op_max_us = static_cast<double>(latency.max()) / 1000.0;
  return w;
}

// Records a finished window into the result series and peaks.
void PushWindow(const WindowSample& w, ExperimentResult* result) {
  result->series.windows.push_back(w);
  result->peak_disk_utilization =
      std::max(result->peak_disk_utilization, w.disk_utilization);
  result->peak_space_amp = std::max(result->peak_space_amp, w.space_amp);
}

// Multi-threaded update phase: num_threads workers replay disjoint
// deterministic op streams (WorkloadSpec::ForThread) against the one
// store until the shared virtual clock passes the duration. Per-op
// latencies go to thread-local histograms merged into `latency` after
// the join; a "latency" here is the op's span of the shared virtual
// timeline, into which each command's submission lane joins by max —
// concurrent workers' I/O overlaps in virtual time (up to per-channel
// serialization), like independent NVMe queues. On error the first
// status is returned; on NoSpace the phase ends and
// result->ran_out_of_space is set (data, not error — paper Fig. 6).
Status RunUpdatePhaseConcurrent(const ExperimentConfig& config,
                                const kv::WorkloadSpec& base_spec,
                                Stack* stack, double t0_min,
                                double duration_sim_min,
                                ExperimentResult* result,
                                Histogram* latency) {
  kv::WorkloadSpec spec = base_spec;
  if (spec.scan_fraction > 0 && !spec.scan_snapshot) {
    // A LIVE iterator concurrent with writers would walk invalidated
    // state, which the engines' debug epoch checks rightly abort on.
    // Snapshot scans (--scan-while-writing) freeze a sequence per scan
    // and are safe; without them, run the scan share as point reads
    // instead of silently racing.
    std::fprintf(stderr,
                 "ptsb: [%s] scan ops are downgraded to gets at "
                 "num_threads=%zu (pass --scan-while-writing to run them "
                 "over snapshots)\n",
                 config.name.c_str(), config.num_threads);
    spec.scan_fraction = 0;
  }

  std::atomic<bool> stop{false};
  std::atomic<bool> out_of_space{false};
  std::atomic<uint64_t> total_ops{0};
  std::mutex error_mu;
  Status first_error;  // guarded by error_mu
  std::vector<Histogram> local_latency(config.num_threads);

  auto worker = [&](size_t tid) {
    kv::WorkloadGenerator gen(spec.ForThread(tid));
    kv::WriteBatch batch;
    std::string read_value;
    while (!stop.load(std::memory_order_relaxed) &&
           stack->clock.NowMinutes() - t0_min < duration_sim_min) {
      const int64_t op_start_ns = stack->clock.NowNanos();
      const kv::Op op = gen.Next();
      uint64_t ops_done = 1;
      const Status s = ExecuteOp(stack->store.get(), &gen, spec, op,
                                 &batch, &read_value, &ops_done);
      if (s.IsNoSpace()) {
        out_of_space.store(true, std::memory_order_relaxed);
        stop.store(true, std::memory_order_relaxed);
        break;
      }
      if (!s.ok()) {
        {
          std::lock_guard<std::mutex> lock(error_mu);
          if (first_error.ok()) first_error = s;
        }
        stop.store(true, std::memory_order_relaxed);
        break;
      }
      total_ops.fetch_add(ops_done, std::memory_order_relaxed);
      local_latency[tid].Record(
          static_cast<uint64_t>(stack->clock.NowNanos() - op_start_ns) /
          std::max<uint64_t>(1, ops_done));
    }
  };
  std::vector<std::thread> threads;
  threads.reserve(config.num_threads);
  for (size_t t = 0; t < config.num_threads; t++) {
    threads.emplace_back(worker, t);
  }
  for (std::thread& t : threads) t.join();

  if (!first_error.ok()) return first_error;
  if (out_of_space.load()) result->ran_out_of_space = true;
  result->update_ops += total_ops.load();
  for (const Histogram& h : local_latency) latency->Merge(h);
  return Status::OK();
}

// A workload value outside the range the stack can run is a usage
// error, reported before anything is built.
Status ValidateConfig(const ExperimentConfig& config) {
  const auto check = [](const char* name, double v, bool open_at_zero) {
    const bool ok = (open_at_zero ? v > 0 : v >= 0) && v <= 1;
    return ok ? Status::OK()
              : Status::InvalidArgument(
                    std::string(name) + " " + std::to_string(v) +
                    (open_at_zero ? " outside (0,1]" : " outside [0,1]"));
  };
  PTSB_RETURN_IF_ERROR(check("partition_frac", config.partition_frac, true));
  PTSB_RETURN_IF_ERROR(check("dataset_frac", config.dataset_frac, true));
  PTSB_RETURN_IF_ERROR(check("write_fraction", config.write_fraction, false));
  PTSB_RETURN_IF_ERROR(
      check("delete_fraction", config.delete_fraction, false));
  PTSB_RETURN_IF_ERROR(check("scan_fraction", config.scan_fraction, false));
  if (config.value_bytes < 16) {
    return Status::InvalidArgument("value_bytes " +
                                   std::to_string(config.value_bytes) +
                                   " below 16");
  }
  // A non-positive duration runs no update phase; a zero window closes
  // one after every op.
  const auto positive = [](const char* name, double v) {
    return v > 0 ? Status::OK()
                 : Status::InvalidArgument(std::string(name) + " " +
                                           std::to_string(v) + " not above 0");
  };
  PTSB_RETURN_IF_ERROR(positive("duration_minutes", config.duration_minutes));
  PTSB_RETURN_IF_ERROR(positive("window_minutes", config.window_minutes));
  // At theta 1 the zipfian generator's alpha = 1/(1-theta) is infinite
  // and nearly every draw lands on one key.
  if (config.distribution == kv::Distribution::kZipfian &&
      !(config.zipf_theta >= 0 && config.zipf_theta < 1)) {
    return Status::InvalidArgument("zipf_theta " +
                                   std::to_string(config.zipf_theta) +
                                   " outside [0,1)");
  }
  return Status::OK();
}

}  // namespace

StatusOr<ExperimentResult> RunExperiment(
    const ExperimentConfig& config,
    const std::function<void(const std::string&)>& progress) {
  ExperimentResult result;
  result.config = config;

  PTSB_RETURN_IF_ERROR(ValidateConfig(config));
  Stack stack;
  PTSB_RETURN_IF_ERROR(BuildStack(config, &stack));
  const double time_scale = static_cast<double>(config.scale);
  const uint64_t dataset_bytes = config.DatasetBytes();

  // ---- Load phase: sequential ingest (paper Section 3.2).
  kv::WorkloadSpec spec;
  spec.num_keys = config.NumKeys();
  spec.key_bytes = config.key_bytes;
  spec.value_bytes = config.value_bytes;
  spec.write_fraction = config.write_fraction;
  spec.delete_fraction = config.delete_fraction;
  spec.scan_fraction = config.scan_fraction;
  spec.batch_size = std::max<size_t>(1, config.batch_size);
  spec.scan_count = config.scan_count;
  spec.scan_snapshot = config.scan_while_writing;
  spec.num_threads = std::max<size_t>(1, config.num_threads);
  spec.distribution = config.distribution;
  spec.zipf_theta = config.zipf_theta;
  spec.seed = config.seed;

  const double load_start_min = stack.clock.NowMinutes();
  {
    kv::WorkloadGenerator gen(spec);
    Status s;
    for (uint64_t id = 0; id < spec.num_keys && s.ok(); id++) {
      s = stack.store->Put(gen.KeyFor(id), gen.ValueFor(SplitMix64(id ^ 777)));
    }
    if (s.ok()) s = stack.store->Flush();
    // Let compaction debt from the bulk load settle, so the measurement
    // phase starts from a quiesced tree (the paper's plots exclude the
    // loading phase).
    if (s.ok()) s = stack.store->SettleBackgroundWork();
    // Running out of space anywhere in the load is data, not an error.
    result.ran_out_of_space = s.IsNoSpace();
    if (!result.ran_out_of_space) PTSB_RETURN_IF_ERROR(s);
  }
  result.load_minutes =
      (stack.clock.NowMinutes() - load_start_min) * time_scale;
  if (result.ran_out_of_space) {
    // Fig. 6: RocksDB cannot hold the two largest datasets at all.
    result.peak_disk_utilization = stack.fs->GetStats().Utilization();
    return result;
  }

  // ---- Update phase.
  const double t0_min = stack.clock.NowMinutes();
  const double window_sim_min = config.window_minutes / time_scale;
  const double duration_sim_min = config.duration_minutes / time_scale;

  // Baselines: WA metrics measure the update phase, as the paper's plots
  // do (load-phase performance is excluded from the figures).
  const auto io0 = stack.iostat->counters();
  const auto smart0 = stack.ssd->smart();
  const auto engine0 = stack.store->GetStats();

  // Whole-phase latency distribution (virtual nanoseconds per logical
  // entry) for the run-level p50/p99 report; the per-window histograms
  // reset each window, this one never does.
  Histogram run_latency;

  if (config.num_threads > 1) {
    // Concurrent update phase: the whole phase becomes ONE aggregate
    // window (sampling mid-run would race with the workers), computed
    // from the same baselines the per-window math uses.
    Histogram latency;
    PTSB_RETURN_IF_ERROR(RunUpdatePhaseConcurrent(
        config, spec, &stack, t0_min, duration_sim_min, &result, &latency));
    run_latency.Merge(latency);
    const double now_min = stack.clock.NowMinutes();
    const double window_sec = (now_min - t0_min) * 60.0;
    if (window_sec > 0 && result.update_ops > 0) {
      // One window covering the whole phase: the windowed baselines ARE
      // the phase baselines (cumulative == windowed).
      WindowBaselines base{io0, smart0, engine0, io0, smart0, 0,
                           engine0.stall_count};
      const WindowSample w =
          SampleWindow(config, &stack, t0_min, now_min, window_sec,
                       time_scale, dataset_bytes, result.update_ops, base,
                       latency);
      PushWindow(w, &result);
      if (progress != nullptr) {
        progress(StrPrintf(
            "[%s] %zu threads  t=%5.0fmin  %6.2f Kops/s (aggregate)  "
            "devW=%6.1f MB/s  WA-A=%5.2f  WA-D=%4.2f  util=%4.1f%%",
            config.name.c_str(), config.num_threads, w.t_minutes,
            w.kv_kops, w.dev_write_mbps, w.wa_a_cum, w.wa_d_cum,
            w.disk_utilization * 100));
      }
    }
  } else {
    kv::WorkloadGenerator gen(spec);
    double window_start = t0_min;
    auto io_window_start = io0;
    auto smart_window_start = smart0;
    uint64_t ops_window_start = 0;
    uint64_t stalls_window_start = 0;

    Histogram op_latency;  // per-window, in virtual nanoseconds
    std::string read_value;
    kv::WriteBatch batch;
    while (stack.clock.NowMinutes() - t0_min < duration_sim_min &&
           !result.ran_out_of_space) {
      const int64_t op_start_ns = stack.clock.NowNanos();
      const kv::Op op = gen.Next();
      uint64_t ops_done = 1;
      const Status s = ExecuteOp(stack.store.get(), &gen, spec, op, &batch,
                                 &read_value, &ops_done);
      if (s.IsNoSpace()) {
        result.ran_out_of_space = true;
        break;
      }
      PTSB_RETURN_IF_ERROR(s);
      result.update_ops += ops_done;
      // Per-entry latency: a batch is one submission covering ops_done
      // entries, so divide its elapsed time to keep the histogram in the
      // same per-op units as kv_kops.
      const uint64_t per_entry_ns =
          static_cast<uint64_t>(stack.clock.NowNanos() - op_start_ns) /
          std::max<uint64_t>(1, ops_done);
      op_latency.Record(per_entry_ns);
      run_latency.Record(per_entry_ns);

      // Window boundary?
      const double now_min = stack.clock.NowMinutes();
      if (now_min - window_start >= window_sim_min) {
        const double window_sec = (now_min - window_start) * 60.0;
        WindowBaselines base{io0,
                             smart0,
                             engine0,
                             io_window_start,
                             smart_window_start,
                             ops_window_start,
                             stalls_window_start};
        const WindowSample w =
            SampleWindow(config, &stack, t0_min, now_min, window_sec,
                         time_scale, dataset_bytes, result.update_ops, base,
                         op_latency);
        op_latency.Reset();
        PushWindow(w, &result);

        if (progress != nullptr) {
          progress(StrPrintf(
              "[%s] t=%5.0fmin  %6.2f Kops/s  devW=%6.1f MB/s  WA-A=%5.2f  "
              "WA-D=%4.2f  util=%4.1f%%",
              config.name.c_str(), w.t_minutes, w.kv_kops, w.dev_write_mbps,
              w.wa_a_cum, w.wa_d_cum, w.disk_utilization * 100));
        }

        window_start = now_min;
        io_window_start = stack.iostat->counters();
        smart_window_start = stack.ssd->smart();
        ops_window_start = result.update_ops;
        stalls_window_start = stack.store->GetStats().stall_count;
      }
    }
  }

  result.steady = result.series.SteadyState();
  result.throughput_cv = result.series.ThroughputCv();
  result.final_space_amp =
      static_cast<double>(stack.store->DiskBytesUsed()) /
      static_cast<double>(dataset_bytes);
  result.engine_stats = stack.store->GetStats();
  result.smart = stack.ssd->smart();
  const int64_t total_ns = stack.clock.NowNanos();
  for (const auto& ch : stack.ssd->channel_stats()) {
    result.channel_utilization.push_back(
        total_ns > 0 ? static_cast<double>(ch.busy_ns) /
                           static_cast<double>(total_ns)
                     : 0.0);
    std::array<double, sim::kNumIoClasses> by_class{};
    for (int c = 0; c < sim::kNumIoClasses; c++) {
      by_class[static_cast<size_t>(c)] =
          total_ns > 0 ? static_cast<double>(ch.class_busy_ns[c]) /
                             static_cast<double>(total_ns)
                       : 0.0;
    }
    result.channel_class_utilization.push_back(by_class);
    result.device += ch;
  }
  result.op_p50_us = run_latency.Percentile(50) / 1000.0;
  result.op_p99_us = run_latency.Percentile(99) / 1000.0;
  result.op_max_us = static_cast<double>(run_latency.max()) / 1000.0;
  if (stack.trace != nullptr) {
    result.lba_fraction_untouched = stack.trace->FractionUntouched();
    result.lba_cdf = stack.trace->WriteCdf(101);
  }

  // Steady-state detection over the recorded windows (paper Section 4.1).
  SteadyStateDetector detector;
  for (const WindowSample& w : result.series.windows) {
    detector.AddWindow(w.kv_kops, w.wa_a_cum, w.wa_d_cum,
                       result.smart.host_bytes_written,
                       config.ScaledDeviceBytes());
  }
  result.reached_steady_state = detector.IsSteady();

  const Status close_status = stack.store->Close();
  if (close_status.IsNoSpace()) {
    // A store that filled the device may be unable to flush on shutdown;
    // that is data, not an error (paper Fig. 6).
    result.ran_out_of_space = true;
  } else {
    PTSB_RETURN_IF_ERROR(close_status);
  }
  return result;
}

}  // namespace ptsb::core

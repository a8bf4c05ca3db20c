#include "core/experiment.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <deque>
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
  o.bloom_bits_per_key = 10;
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

fs::FsOptions ScaledFsOptions(const ExperimentConfig& config) {
  fs::FsOptions o;
  o.nodiscard = config.fs_nodiscard;
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

// Parses the --class-weights spec "fgread:fgwrite:bg" (three
// non-negative integers) into the SsdConfig weight array.
Status ParseClassWeights(const std::string& spec,
                         std::array<int, sim::kNumIoClasses>* out) {
  int parsed[sim::kNumIoClasses] = {0, 0, 0};
  char trailing = 0;
  if (std::sscanf(spec.c_str(), "%d:%d:%d%c", &parsed[0], &parsed[1],
                  &parsed[2], &trailing) != 3 ||
      parsed[0] < 0 || parsed[1] < 0 || parsed[2] < 0) {
    return Status::InvalidArgument("class_weights must be \"fgr:fgw:bg\" (got " +
                                   spec + ")");
  }
  for (int c = 0; c < sim::kNumIoClasses; c++) {
    (*out)[static_cast<size_t>(c)] = parsed[c];
  }
  return Status::OK();
}

Status BuildStack(const ExperimentConfig& config, Stack* stack) {
  auto ssd_config = ssd::MakeProfile(config.profile, config.device_bytes,
                                     config.scale);
  ssd_config.channels = std::max(1, config.channels);
  ssd_config.background_slice_ns = config.background_slice_us * 1000;
  ssd_config.background_rate_mbps = config.background_rate_mbps;
  if (!config.class_weights.empty()) {
    PTSB_RETURN_IF_ERROR(
        ParseClassWeights(config.class_weights, &ssd_config.class_weights));
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

  // Registry-driven engine construction: scaled defaults for the built-in
  // engines, then the caller's overrides, then kv::OpenStore by name.
  // "sharded" scales whatever inner engine its params select (the shards
  // are full instances of that engine, so they take the same defaults).
  kv::EngineOptions engine_options;
  engine_options.engine = config.engine;
  engine_options.fs = stack->fs.get();
  engine_options.clock = &stack->clock;
  std::string defaults_engine = config.engine;
  if (config.engine == "sharded" || config.engine == "cached") {
    const auto it = config.engine_params.find("inner_engine");
    defaults_engine = it != config.engine_params.end() ? it->second : "lsm";
  }
  if (defaults_engine == "lsm") {
    engine_options.params = lsm::EncodeEngineParams(ScaledLsmOptions(config));
  } else if (defaults_engine == "btree") {
    engine_options.params =
        btree::EncodeEngineParams(ScaledBTreeOptions(config));
  } else if (defaults_engine == "alog") {
    engine_options.params = alog::ScaledEngineParams(config.scale);
  }
  if (config.engine == "sharded") {
    // The driver-level queue_depth knob is the sharded engine's param of
    // the same name; an explicit engine_params entry wins below.
    engine_options.params["queue_depth"] =
        std::to_string(std::max(1, config.queue_depth));
  }
  if (config.engine == "cached") {
    // Driver-level host-buffering knobs map onto the cached engine's
    // params of the same meaning; 0 / empty keeps the engine defaults
    // and explicit engine_params entries win below.
    if (config.write_buffer_bytes > 0) {
      engine_options.params["write_buffer_bytes"] =
          std::to_string(config.write_buffer_bytes);
    }
    if (config.cache_bytes > 0) {
      engine_options.params["read_cache_bytes"] =
          std::to_string(config.cache_bytes);
    }
    if (!config.cache_policy.empty()) {
      engine_options.params["read_cache_policy"] = config.cache_policy;
    }
  }
  // Every engine understands the read fan-out depth and the background
  // I/O toggle (sharded passes background_io through to its inner
  // engines); explicit engine_params entries win below.
  engine_options.params["read_queue_depth"] =
      std::to_string(std::max(1, config.read_queue_depth));
  engine_options.params["background_io"] = config.background_io ? "1" : "0";
  engine_options.params["compaction_parallelism"] =
      std::to_string(std::max(1, config.compaction_parallelism));
  for (const auto& [key, value] : config.engine_params) {
    engine_options.params[key] = value;
  }
  PTSB_ASSIGN_OR_RETURN(stack->store, kv::OpenStore(engine_options));
  if (config.num_threads > 1 &&
      !stack->store->SupportsConcurrentWriters()) {
    // Fanning workers out over a single-threaded engine corrupts it;
    // refuse up front instead of crashing mid-run. The built-in engines
    // all pass (their Write goes through a cross-thread kv::WriteGroup);
    // this guards out-of-tree registry engines that keep the base-class
    // default.
    return Status::InvalidArgument(
        "num_threads=" + std::to_string(config.num_threads) +
        " requires an engine with concurrent-writer support; \"" +
        config.engine +
        "\" is single-threaded (use engine \"sharded\" with inner_engine=" +
        config.engine + ")");
  }
  return Status::OK();
}

// Reusable scratch for the MultiGet read path (read_batch_size > 1),
// hoisted out of the per-op loop like the WriteBatch is.
struct ReadBatchScratch {
  std::vector<std::string> keys;
  std::vector<std::string_view> views;
  std::vector<std::string> values;
};

// Applies one generated op to the store. `ops_done` counts logical
// entries (a batch counts its size). NotFound on point reads is success;
// NoSpace is returned for the caller to treat as data (paper Fig. 6).
Status ExecuteOp(kv::KVStore* store, kv::WorkloadGenerator* gen,
                 const kv::WorkloadSpec& spec, const kv::Op& op,
                 kv::WriteBatch* batch, std::string* read_value,
                 ReadBatchScratch* reads, uint64_t* ops_done) {
  *ops_done = 1;
  switch (op.type) {
    case kv::Op::Type::kPut:
      return store->Put(gen->KeyFor(op.key_id),
                        kv::MakeValue(op.value_seed, spec.value_bytes));
    case kv::Op::Type::kBatchPut: {
      batch->Clear();
      batch->Put(gen->KeyFor(op.key_id),
                 kv::MakeValue(op.value_seed, spec.value_bytes));
      for (size_t j = 1; j < spec.batch_size; j++) {
        batch->Put(gen->KeyFor(gen->NextKeyId()),
                   kv::MakeValue(gen->NextValueSeed(), spec.value_bytes));
      }
      *ops_done = batch->Count();
      return store->Write(*batch);
    }
    case kv::Op::Type::kDelete:
      return store->Delete(gen->KeyFor(op.key_id));
    case kv::Op::Type::kGet: {
      if (spec.read_batch_size > 1) {
        // Read-side batching: one MultiGet submission covering
        // read_batch_size lookups; the engine fans them out at its
        // read_queue_depth. NotFound per key is data, like for Get.
        reads->keys.clear();
        reads->keys.push_back(gen->KeyFor(op.key_id));
        for (size_t j = 1; j < spec.read_batch_size; j++) {
          reads->keys.push_back(gen->KeyFor(gen->NextKeyId()));
        }
        reads->views.assign(reads->keys.begin(), reads->keys.end());
        const std::vector<Status> statuses =
            store->MultiGet(reads->views, &reads->values);
        *ops_done = statuses.size();
        for (const Status& s : statuses) {
          if (!s.ok() && !s.IsNotFound()) return s;
        }
        return Status::OK();
      }
      const Status s = store->Get(gen->KeyFor(op.key_id), read_value);
      return s.IsNotFound() ? Status::OK() : s;
    }
    case kv::Op::Type::kScan: {
      // Snapshot scans (scan_snapshot, or any readahead request — the
      // engines honor readahead only on the snapshot path) freeze a
      // sequence first, so the cursor tolerates concurrent writers and
      // can prefetch through read submission lanes.
      std::shared_ptr<const kv::Snapshot> snap;
      std::unique_ptr<kv::KVStore::Iterator> it;
      if (spec.scan_snapshot || spec.scan_readahead > 1) {
        auto got = store->GetSnapshot();
        if (!got.ok()) return got.status();
        snap = *std::move(got);
        kv::ReadOptions opts;
        opts.snapshot = snap.get();
        opts.readahead = spec.scan_readahead;
        it = store->NewIterator(opts);
      } else {
        it = store->NewIterator();
      }
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


// True for ops the pipelined writer mode (pipeline_writes) can issue
// through WriteAsync; reads and scans stay synchronous.
bool IsWriteOp(const kv::Op& op) {
  return op.type == kv::Op::Type::kPut ||
         op.type == kv::Op::Type::kBatchPut ||
         op.type == kv::Op::Type::kDelete;
}

// Fills `batch` with the entries ExecuteOp would apply for the write op
// `op` (same key and value streams) and sets *ops_done to the logical
// entry count.
void FillWriteBatch(kv::WorkloadGenerator* gen, const kv::WorkloadSpec& spec,
                    const kv::Op& op, kv::WriteBatch* batch,
                    uint64_t* ops_done) {
  *ops_done = 1;
  switch (op.type) {
    case kv::Op::Type::kPut:
      batch->SetSingle(kv::WriteBatch::EntryKind::kPut,
                       gen->KeyFor(op.key_id),
                       kv::MakeValue(op.value_seed, spec.value_bytes));
      break;
    case kv::Op::Type::kBatchPut:
      batch->Clear();
      batch->Put(gen->KeyFor(op.key_id),
                 kv::MakeValue(op.value_seed, spec.value_bytes));
      for (size_t j = 1; j < spec.batch_size; j++) {
        batch->Put(gen->KeyFor(gen->NextKeyId()),
                   kv::MakeValue(gen->NextValueSeed(), spec.value_bytes));
      }
      *ops_done = batch->Count();
      break;
    case kv::Op::Type::kDelete:
      batch->SetSingle(kv::WriteBatch::EntryKind::kDelete,
                       gen->KeyFor(op.key_id), "");
      break;
    default:
      break;
  }
}

// Bounded window of in-flight asynchronous commits for the pipelined
// writer mode (ExperimentConfig::pipeline_writes). Submit() issues the
// batch through WriteAsync and registers an OnComplete callback that
// performs the op/latency/error accounting; once `depth` commits are in
// flight the oldest handle is retired — its Wait() joins the commit's
// virtual completion time into the shared clock, which fires the
// callback. kv::AsyncCommit applies the commit inside its lane at
// submission, so the batch is reusable (and the completion time known)
// the moment Submit returns; only the clock join is deferred, which is
// what lets consecutive commits' device time overlap in virtual time.
class WritePipeline {
 public:
  // Either histogram may be null; per-entry latencies are recorded into
  // both (the per-window one resets each window, the run one never does).
  WritePipeline(kv::KVStore* store, size_t depth, Histogram* latency,
                Histogram* run_latency)
      : store_(store), depth_(std::max<size_t>(1, depth)),
        latency_(latency), run_latency_(run_latency) {}
  ~WritePipeline() { Drain(); }

  // Issues one commit covering `ops` logical entries. `submit_ns` is the
  // virtual time the op was generated at: per-entry latency spans submit
  // to the commit's own completion, not its retirement from the window.
  void Submit(const kv::WriteBatch& batch, uint64_t ops, int64_t submit_ns) {
    kv::WriteHandle h = store_->WriteAsync(batch);
    const int64_t complete_ns =
        h.complete_ns() > 0 ? h.complete_ns() : submit_ns;
    const uint64_t per_entry_ns =
        static_cast<uint64_t>(std::max<int64_t>(0, complete_ns - submit_ns)) /
        std::max<uint64_t>(1, ops);
    h.OnComplete([this, ops, per_entry_ns](const Status& s) {
      if (s.IsNoSpace()) {
        out_of_space_ = true;
        return;
      }
      if (!s.ok()) {
        if (error_.ok()) error_ = s;
        return;
      }
      ops_done_ += ops;
      if (latency_ != nullptr) latency_->Record(per_entry_ns);
      if (run_latency_ != nullptr) run_latency_->Record(per_entry_ns);
    });
    in_flight_.push_back(std::move(h));
    while (in_flight_.size() > depth_) Retire();
  }

  // Retires every in-flight commit (window boundaries and loop end), so
  // the ops/latency/error accounting is settled before it is read.
  void Drain() {
    while (!in_flight_.empty()) Retire();
  }

  // Logical entries completed since the last call; Drain() first.
  uint64_t TakeOpsDone() {
    const uint64_t n = ops_done_;
    ops_done_ = 0;
    return n;
  }

  bool out_of_space() const { return out_of_space_; }
  const Status& error() const { return error_; }

 private:
  void Retire() {
    in_flight_.front().Wait();  // joins the clock + fires the callback
    in_flight_.pop_front();
  }

  kv::KVStore* store_;
  size_t depth_;
  Histogram* latency_;
  Histogram* run_latency_;
  std::deque<kv::WriteHandle> in_flight_;
  uint64_t ops_done_ = 0;  // completed but not yet taken
  bool out_of_space_ = false;
  Status error_;  // first non-NoSpace commit failure
};

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
// status is returned; on
// NoSpace the phase ends and result->ran_out_of_space is set (data, not
// error — paper Fig. 6).
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
    ReadBatchScratch reads;
    // Pipelined writer mode: each worker keeps its own bounded window of
    // in-flight WriteAsync commits (completion accounting runs in the
    // OnComplete callbacks, so the ops land in total_ops at drain time —
    // before the aggregate window is computed after the join).
    WritePipeline pipeline(
        stack->store.get(),
        static_cast<size_t>(std::max(1, config.pipeline_depth)),
        &local_latency[tid], nullptr);
    while (!stop.load(std::memory_order_relaxed) &&
           stack->clock.NowMinutes() - t0_min < duration_sim_min) {
      const int64_t op_start_ns = stack->clock.NowNanos();
      const kv::Op op = gen.Next();
      uint64_t ops_done = 1;
      if (config.pipeline_writes && IsWriteOp(op)) {
        FillWriteBatch(&gen, spec, op, &batch, &ops_done);
        pipeline.Submit(batch, ops_done, op_start_ns);
        if (pipeline.out_of_space() || !pipeline.error().ok()) break;
        continue;  // accounting happens when the commit retires
      }
      const Status s = ExecuteOp(stack->store.get(), &gen, spec, op,
                                 &batch, &read_value, &reads, &ops_done);
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
    pipeline.Drain();
    total_ops.fetch_add(pipeline.TakeOpsDone(), std::memory_order_relaxed);
    if (pipeline.out_of_space()) {
      out_of_space.store(true, std::memory_order_relaxed);
      stop.store(true, std::memory_order_relaxed);
    }
    if (!pipeline.error().ok()) {
      {
        std::lock_guard<std::mutex> lock(error_mu);
        if (first_error.ok()) first_error = pipeline.error();
      }
      stop.store(true, std::memory_order_relaxed);
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

}  // namespace

StatusOr<ExperimentResult> RunExperiment(
    const ExperimentConfig& config,
    const std::function<void(const std::string&)>& progress) {
  ExperimentResult result;
  result.config = config;

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
  spec.read_batch_size = std::max<size_t>(1, config.read_batch_size);
  spec.scan_count = config.scan_count;
  spec.scan_snapshot = config.scan_while_writing;
  spec.scan_readahead = std::max(1, config.scan_readahead);
  spec.num_threads = std::max<size_t>(1, config.num_threads);
  spec.distribution = config.distribution;
  spec.zipf_theta = config.zipf_theta;
  spec.seed = config.seed;

  const double load_start_min = stack.clock.NowMinutes();
  {
    kv::WorkloadGenerator gen(spec);
    for (uint64_t id = 0; id < spec.num_keys; id++) {
      const Status s = stack.store->Put(gen.KeyFor(id),
                                        gen.ValueFor(SplitMix64(id ^ 777)));
      if (s.IsNoSpace()) {
        result.ran_out_of_space = true;
        break;
      }
      PTSB_RETURN_IF_ERROR(s);
    }
    if (!result.ran_out_of_space) {
      PTSB_RETURN_IF_ERROR(stack.store->Flush());
      // Let compaction debt from the bulk load settle, so the measurement
      // phase starts from a quiesced tree (the paper's plots exclude the
      // loading phase).
      PTSB_RETURN_IF_ERROR(stack.store->SettleBackgroundWork());
    }
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
    ReadBatchScratch reads;
    // Pipelined writer mode: write ops go through a bounded window of
    // WriteAsync commits instead of blocking one at a time. Mutations
    // are applied at submit, so the reads and scans interleaved below
    // still see every prior write without draining first; the window is
    // drained at each sampling boundary so update_ops and the latency
    // histograms are settled before SampleWindow reads them.
    WritePipeline pipeline(
        stack.store.get(),
        static_cast<size_t>(std::max(1, config.pipeline_depth)),
        &op_latency, &run_latency);
    while (stack.clock.NowMinutes() - t0_min < duration_sim_min &&
           !result.ran_out_of_space) {
      const int64_t op_start_ns = stack.clock.NowNanos();
      const kv::Op op = gen.Next();
      uint64_t ops_done = 1;
      if (config.pipeline_writes && IsWriteOp(op)) {
        FillWriteBatch(&gen, spec, op, &batch, &ops_done);
        pipeline.Submit(batch, ops_done, op_start_ns);
        if (pipeline.out_of_space()) {
          result.ran_out_of_space = true;
          break;
        }
        PTSB_RETURN_IF_ERROR(pipeline.error());
      } else {
        const Status s = ExecuteOp(stack.store.get(), &gen, spec, op,
                                   &batch, &read_value, &reads, &ops_done);
        if (s.IsNoSpace()) {
          result.ran_out_of_space = true;
          break;
        }
        PTSB_RETURN_IF_ERROR(s);
        result.update_ops += ops_done;
        // Per-entry latency: a batch is one submission covering ops_done
        // entries, so divide its elapsed time to keep the histogram in
        // the same per-op units as kv_kops.
        const uint64_t per_entry_ns =
            static_cast<uint64_t>(stack.clock.NowNanos() - op_start_ns) /
            std::max<uint64_t>(1, ops_done);
        op_latency.Record(per_entry_ns);
        run_latency.Record(per_entry_ns);
      }

      // Window boundary?
      const double now_min = stack.clock.NowMinutes();
      if (now_min - window_start >= window_sim_min) {
        pipeline.Drain();
        result.update_ops += pipeline.TakeOpsDone();
        if (pipeline.out_of_space()) {
          result.ran_out_of_space = true;
          break;
        }
        PTSB_RETURN_IF_ERROR(pipeline.error());
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
    // Retire the commits still in flight when the duration ran out.
    pipeline.Drain();
    result.update_ops += pipeline.TakeOpsDone();
    if (pipeline.out_of_space()) result.ran_out_of_space = true;
    PTSB_RETURN_IF_ERROR(pipeline.error());
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

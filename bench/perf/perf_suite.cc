// perf_suite: the repository's fixed performance benchmark. One process
// runs ONE workload through the full stack (ssd/ftl -> block -> fs ->
// engine) from a single thread and reports end-to-end metrics on two
// clocks:
//  - virtual time: what the modelled SSD + tree delivers. Deterministic
//    per (workload, seed, seconds); a simulator-only change must leave
//    every virtual metric bit-identical, which virt_digest checks.
//  - host time: what the simulator costs, which decides the --scale a
//    reproduction can afford.
// With --trace the run also splits update-phase host time by layer, by
// timing calls into each layer's public interface from outside (see
// TimedDevice). End-to-end numbers come from untraced runs.
//
//   perf_suite --workload=NAME [--seed=42] [--seconds=10] [--trace]
//              [--out=FILE]
//
// Every metric is printed by name and unit. The last stdout line is one
// JSON object {"correct", "attempted", "failed", "metrics"} holding the
// end-to-end metrics, or the per-layer metrics with --trace. --out writes
// every metric plus the run's checks and digests. Exit status is 1 when
// any correctness check fails, 2 on bad usage or a failed set-up.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "alog/alog_store.h"
#include "block/iostat.h"
#include "block/partition.h"
#include "block/trace.h"
#include "btree/btree_store.h"
#include "core/experiment.h"
#include "fs/filesystem.h"
#include "kv/kv.h"
#include "kv/registry.h"
#include "kv/workload.h"
#include "lsm/lsm_store.h"
#include "sim/clock.h"
#include "ssd/precondition.h"
#include "ssd/profiles.h"
#include "ssd/ssd_device.h"
#include "util/crc32.h"
#include "util/random.h"

namespace ptsb::perf {
namespace {

int64_t HostNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int64_t ProcessCpuNanos() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

// ---- Workloads --------------------------------------------------------
//
// Fixed: they define the benchmark and are not knobs. Sizes follow
// core's conventions (paper sizes divided by `scale`, core::Scaled*Options
// engine defaults, SSD1 trimmed, dataset = 50% of the drive). README.md
// records why each one was chosen and what it exercises.
struct Workload {
  const char* name;
  const char* engine;
  uint64_t scale;
  int channels;
  bool background_io;
  int compaction_parallelism;
  uint64_t btree_cache_bytes;  // 0 = core's scaled default
  double write_fraction;       // the rest are gets
  kv::Distribution distribution;
  double open_rate_ops;  // arrivals per virtual second; 0 = closed loop
  // Update-phase length in paper-minutes per second of --seconds.
  double paper_minutes_per_second;
};

constexpr Workload kWorkloads[] = {
    {"lsm-overwrite", "lsm", 1600, 1, false, 1, 0, 0.9,
     kv::Distribution::kUniform, 0, 28},
    {"lsm-mixed-open", "lsm", 1600, 4, true, 4, 0, 0.5,
     kv::Distribution::kUniform, 1150, 28},
    {"btree-zipf-mixed", "btree", 800, 1, false, 1, 16ull << 20, 0.5,
     kv::Distribution::kZipfian, 0, 63},
    {"alog-gc", "alog", 1600, 1, false, 1, 0, 0.9,
     kv::Distribution::kUniform, 0, 50},
};

constexpr uint64_t kLoadSeedSalt = 777;  // core's load-phase value seeds
// Each run repeats set-up and update phase on kReps fresh stacks, each
// update phase with its own op stream; virtual metrics are their mean and
// host metrics their median (so setup_s is the median of kReps set-ups).
constexpr int kReps = 3;
constexpr int kSpaceSamples = 20;        // space_amp is their peak
constexpr double kTailShare = 0.10;      // op_worst10pct_us
constexpr double kMaxTraceOverhead = 0.02;
constexpr double kLayerSumTolerance = 0.01;

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

// ---- Host-time tracing --------------------------------------------------

// Accumulated steady_clock time and call count at one timed boundary.
// For KVStore calls, self_ns excludes the time spent below SimpleFs.
struct Span {
  int64_t ns = 0;
  int64_t self_ns = 0;
  uint64_t calls = 0;
};

// Times every command passing through it. Traced runs wrap the SsdDevice
// (ssd+ftl self time) and the device handed to SimpleFs (everything from
// there down); the difference is the block layer's decorators.
class TimedDevice : public block::BlockDevice {
 public:
  explicit TimedDevice(block::BlockDevice* base) : base_(base) {}

  uint64_t lba_bytes() const override { return base_->lba_bytes(); }
  uint64_t num_lbas() const override { return base_->num_lbas(); }
  sim::SimClock* clock() const override { return base_->clock(); }
  Status Read(uint64_t lba, uint64_t count, uint8_t* dst) override {
    return Timed([&] { return base_->Read(lba, count, dst); });
  }
  Status Write(uint64_t lba, uint64_t count, const uint8_t* src) override {
    return Timed([&] { return base_->Write(lba, count, src); });
  }
  Status Trim(uint64_t lba, uint64_t count) override {
    return Timed([&] { return base_->Trim(lba, count); });
  }
  Status Flush() override {
    return Timed([&] { return base_->Flush(); });
  }

  const Span& span() const { return span_; }

 private:
  template <typename F>
  Status Timed(const F& f) {
    const int64_t t0 = HostNanos();
    Status s = f();
    span_.ns += HostNanos() - t0;
    span_.calls++;
    return s;
  }

  block::BlockDevice* base_;
  Span span_;
};

// Measured cost of one timed call's steady_clock pair, for the
// deterministic trace-overhead bound.
double ClockPairNanos() {
  constexpr int kIters = 200'000;
  int64_t sink = 0;
  const int64_t t0 = HostNanos();
  for (int i = 0; i < kIters; i++) {
    const int64_t a = HostNanos();
    sink += HostNanos() - a;
  }
  const int64_t elapsed = HostNanos() - t0;
  if (sink < 0) std::abort();  // keeps the loop from being elided
  return static_cast<double>(elapsed) / kIters;
}

// ---- The stack ----------------------------------------------------------

// Built from public constructors the way core::BuildStack does:
// SsdDevice -> IoStatCollector -> LbaTraceCollector -> PartitionView ->
// SimpleFs -> kv::OpenStore. Traced runs add the two TimedDevices.
struct Stack {
  sim::SimClock clock;
  std::unique_ptr<ssd::SsdDevice> ssd;
  std::unique_ptr<TimedDevice> ssd_timer;
  std::unique_ptr<block::IoStatCollector> iostat;
  std::unique_ptr<block::LbaTraceCollector> lba;
  std::unique_ptr<block::PartitionView> partition;
  std::unique_ptr<TimedDevice> fs_timer;
  std::unique_ptr<fs::SimpleFs> fs;
  std::unique_ptr<kv::KVStore> store;
  // Host time inside KVStore calls (traced runs).
  Span kv_setup;
  Span kv_put;
  Span kv_get;

  Span Outer() const { return fs_timer ? fs_timer->span() : Span{}; }
  Span Inner() const { return ssd_timer ? ssd_timer->span() : Span{}; }
};

core::ExperimentConfig CoreConfig(const Workload& w) {
  core::ExperimentConfig c;
  c.scale = w.scale;
  return c;
}

Status BuildStack(const Workload& w, bool trace, Stack* s) {
  const core::ExperimentConfig config = CoreConfig(w);
  ssd::SsdConfig ssd_config = ssd::MakeProfile(
      ssd::ProfileKind::kSsd1Enterprise, config.device_bytes, config.scale);
  ssd_config.channels = w.channels;
  s->ssd = std::make_unique<ssd::SsdDevice>(ssd_config, &s->clock);
  block::BlockDevice* top = s->ssd.get();
  if (trace) {
    s->ssd_timer = std::make_unique<TimedDevice>(top);
    top = s->ssd_timer.get();
  }
  s->iostat = std::make_unique<block::IoStatCollector>(top);
  s->lba = std::make_unique<block::LbaTraceCollector>(s->iostat.get());
  s->partition = std::make_unique<block::PartitionView>(
      s->lba.get(), 0, s->lba->num_lbas());
  PTSB_RETURN_IF_ERROR(ssd::TrimAll(s->ssd.get()));
  top = s->partition.get();
  if (trace) {
    s->fs_timer = std::make_unique<TimedDevice>(top);
    top = s->fs_timer.get();
  }
  s->fs = std::make_unique<fs::SimpleFs>(top, core::ScaledFsOptions(config));

  kv::EngineOptions eo;
  eo.engine = w.engine;
  eo.fs = s->fs.get();
  eo.clock = &s->clock;
  const std::string engine = w.engine;
  if (engine == "lsm") {
    eo.params = lsm::EncodeEngineParams(core::ScaledLsmOptions(config));
  } else if (engine == "btree") {
    btree::BTreeOptions o = core::ScaledBTreeOptions(config);
    if (w.btree_cache_bytes > 0) o.cache_bytes = w.btree_cache_bytes;
    eo.params = btree::EncodeEngineParams(o);
  } else {
    eo.params = alog::ScaledEngineParams(config.scale);
  }
  eo.params["background_io"] = w.background_io ? "1" : "0";
  eo.params["compaction_parallelism"] =
      std::to_string(w.compaction_parallelism);
  PTSB_ASSIGN_OR_RETURN(s->store, kv::OpenStore(eo));
  return Status::OK();
}

// Runs one KVStore call, timing it into `span` on traced runs.
template <typename F>
Status KvCall(const Stack& s, Span* span, const F& f) {
  if (!s.fs_timer) return f();
  const int64_t below0 = s.fs_timer->span().ns;
  const int64_t t0 = HostNanos();
  Status st = f();
  const int64_t ns = HostNanos() - t0;
  span->ns += ns;
  span->self_ns += ns - (s.fs_timer->span().ns - below0);
  span->calls++;
  return st;
}

// ---- Metrics ------------------------------------------------------------

// kEndToEnd: the JSON line of an untraced run. kLayer: counter reads,
// printed on every run, in the JSON line of a traced run. kTraced: layer
// host times, traced runs only. kInfo: printed and written to --out only.
enum class Tier { kEndToEnd, kLayer, kTraced, kInfo };

struct Metric {
  std::string name;
  double value;
  std::string unit;
  Tier tier;
  bool is_virtual;  // feeds virt_digest
};

class Metrics {
 public:
  void Add(std::string name, double value, std::string unit, Tier tier,
           bool is_virtual) {
    if (!std::isfinite(value)) value = 0;
    list_.push_back({std::move(name), value, std::move(unit), tier,
                     is_virtual});
  }
  const std::vector<Metric>& list() const { return list_; }

  // Combines the repetitions of one run, which list the same metrics in
  // the same order: virtual metrics by mean, host metrics by median.
  static Metrics Combine(const std::vector<Metrics>& reps);

 private:
  std::vector<Metric> list_;
};

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

Metrics Metrics::Combine(const std::vector<Metrics>& reps) {
  Metrics out;
  for (size_t i = 0; i < reps.front().list_.size(); i++) {
    Metric m = reps.front().list_[i];
    std::vector<double> values;
    for (const Metrics& r : reps) values.push_back(r.list_[i].value);
    double sum = 0;
    for (const double v : values) sum += v;
    m.value = m.is_virtual ? sum / static_cast<double>(values.size())
                           : Median(values);
    out.list_.push_back(m);
  }
  return out;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

// Latency statistics over virtual nanoseconds, returned in microseconds.
// Percentile interpolates linearly between order statistics.
double PercentileUs(std::vector<int64_t> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = p / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return (static_cast<double>(v[lo]) * (1 - frac) +
          static_cast<double>(v[hi]) * frac) /
         1000.0;
}

double MeanUs(const std::vector<int64_t>& v) {
  double sum = 0;
  for (const int64_t x : v) sum += static_cast<double>(x);
  return Ratio(sum, static_cast<double>(v.size())) / 1000.0;
}

// Mean of the slowest `share` of the latencies.
double WorstMeanUs(std::vector<int64_t> v, double share) {
  if (v.empty()) return 0;
  const auto n = std::max<ptrdiff_t>(
      1, static_cast<ptrdiff_t>(share * static_cast<double>(v.size())));
  std::nth_element(v.begin(), v.end() - n, v.end());
  return MeanUs(std::vector<int64_t>(v.end() - n, v.end()));
}

uint64_t Fnv1a(uint64_t h, const void* data, size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; i++) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

// ---- One run ------------------------------------------------------------

struct Args {
  const Workload* workload = nullptr;
  uint64_t seed = 42;
  double seconds = 10;
  bool trace = false;
  std::string out;
};

// Counter snapshot at an update-phase boundary.
struct Counters {
  block::IoCounters io;
  ssd::SmartCounters smart;
  ssd::SsdDevice::TimeBreakdown ssd_times;
  ssd::FlashTranslationLayer::Stats ftl;
  std::vector<ssd::SsdDevice::ChannelStats> channels;
  kv::KvStoreStats kv;
  Span outer;
  Span inner;
};

Counters Snapshot(const Stack& s) {
  return {s.iostat->counters(),     s.ssd->smart(),
          s.ssd->time_breakdown(),  s.ssd->ftl().GetStats(),
          s.ssd->channel_stats(),   s.store->GetStats(),
          s.Outer(),                s.Inner()};
}

// What the update phase measured, beyond the counter snapshots.
struct Phase {
  int64_t t0 = 0;       // virtual start
  int64_t t1 = 0;       // virtual end
  int64_t tail_start = 0;
  uint64_t tail_ops = 0;  // ops completed at or after tail_start
  int64_t last_done = 0;  // virtual completion time of the last op
  std::vector<int64_t> put_lat;
  std::vector<int64_t> get_lat;
  uint64_t late = 0;        // open loop: ops issued after their due time
  int64_t wait_ns = 0;      // their summed lateness
  double peak_space = 0;    // DiskBytesUsed / dataset
  double peak_util = 0;     // filesystem utilization
  int64_t wall_ns = 0;
  int64_t cpu_ns = 0;
  Counters c0;
  Counters c1;
};

// Outcome of the traced run's self-checks.
struct TraceCheck {
  bool layers_ok = false;
  double overhead = 0;  // deterministic bound, share of phase wall time
};

struct RunResult {
  Metrics metrics;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, bool> checks;
  uint32_t content_crc = 0;
  uint64_t virt_digest = 0;
};

class Runner {
 public:
  Runner(const Args& args, const Workload& w)
      : args_(args), w_(w), config_(CoreConfig(w)) {}

  Status Run(RunResult* r);

 private:
  Status Setup(Stack* s);
  void UpdatePhase(Stack* s, int rep, Phase* p);
  void Execute(Stack* s, const kv::Op& op, int64_t due_ns, Phase* p);
  bool ScanMatchesShadow(Stack* s, uint32_t* crc);
  bool Matches(uint64_t key_id, std::string_view got) const {
    return got == kv::MakeValue(expected_[key_id], kv::kDefaultValueBytes);
  }
  void AddEndToEnd(const Phase& p, double setup_s, Metrics* m) const;
  void AddLayers(const Stack& s, const Phase& p, Metrics* m) const;
  TraceCheck AddTraced(const Stack& s, const Phase& p, double setup_kv_s,
                       Metrics* m) const;

  const Args& args_;
  const Workload& w_;
  const core::ExperimentConfig config_;
  // Shadow model: the value seed each key must read back as.
  std::vector<uint64_t> expected_;
  std::string key_;
  std::string value_;
  std::string got_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  uint64_t wrong_values_ = 0;
};

// Stack construction through load, Flush and SettleBackgroundWork. The
// shadow model restarts with the loaded values.
Status Runner::Setup(Stack* s) {
  PTSB_RETURN_IF_ERROR(BuildStack(w_, args_.trace, s));
  expected_.resize(config_.NumKeys());
  for (uint64_t id = 0; id < config_.NumKeys(); id++) {
    expected_[id] = SplitMix64(id ^ kLoadSeedSalt);
    key_ = kv::MakeKey(id);
    value_ = kv::MakeValue(expected_[id], kv::kDefaultValueBytes);
    PTSB_RETURN_IF_ERROR(KvCall(*s, &s->kv_setup,
                                [&] { return s->store->Put(key_, value_); }));
  }
  PTSB_RETURN_IF_ERROR(
      KvCall(*s, &s->kv_setup, [&] { return s->store->Flush(); }));
  return KvCall(*s, &s->kv_setup,
                [&] { return s->store->SettleBackgroundWork(); });
}

// Issues one op; its latency counts from `due_ns`, when it was meant to
// start. Every get is checked against the shadow model.
void Runner::Execute(Stack* s, const kv::Op& op, int64_t due_ns, Phase* p) {
  attempted_++;
  key_ = kv::MakeKey(op.key_id);
  const bool is_get = op.type == kv::Op::Type::kGet;
  Status st;
  if (is_get) {
    st = KvCall(*s, &s->kv_get, [&] { return s->store->Get(key_, &got_); });
    if (st.ok() && !Matches(op.key_id, got_)) {
      wrong_values_++;
      failed_++;
    }
  } else {
    value_ = kv::MakeValue(op.value_seed, kv::kDefaultValueBytes);
    st = KvCall(*s, &s->kv_put, [&] { return s->store->Put(key_, value_); });
    if (st.ok()) expected_[op.key_id] = op.value_seed;
  }
  if (!st.ok()) {
    failed_++;  // NotFound included: no workload deletes
    return;
  }
  const int64_t done = s->clock.NowNanos();
  (is_get ? p->get_lat : p->put_lat).push_back(done - due_ns);
  if (done >= p->tail_start) p->tail_ops++;
  p->last_done = done;
}

// Closed loop: the next op is issued when the previous one completes.
// Open loop: op i is due at t0 + i / rate; an early clock idles to the
// due time (background lanes and the SSD cache keep working meanwhile).
void Runner::UpdatePhase(Stack* s, int rep, Phase* p) {
  kv::WorkloadSpec spec;
  spec.num_keys = config_.NumKeys();
  spec.write_fraction = w_.write_fraction;
  spec.distribution = w_.distribution;
  spec.seed = args_.seed;
  // ForThread(rep): the same op mix from a stream unique to this rep.
  kv::WorkloadGenerator gen(spec.ForThread(static_cast<size_t>(rep)));

  const auto duration = static_cast<int64_t>(
      w_.paper_minutes_per_second * args_.seconds /
      static_cast<double>(w_.scale) * 60e9);
  p->t0 = s->clock.NowNanos();
  p->tail_start = p->t0 + duration * 2 / 3;  // the paper's tail window
  const int64_t end = p->t0 + duration;
  int next_sample = 1;
  auto sample_until = [&](int64_t now) {
    for (; next_sample <= kSpaceSamples &&
           now >= p->t0 + duration * next_sample / kSpaceSamples;
         next_sample++) {
      p->peak_space = std::max(
          p->peak_space, static_cast<double>(s->store->DiskBytesUsed()) /
                             static_cast<double>(config_.DatasetBytes()));
      p->peak_util = std::max(p->peak_util, s->fs->GetStats().Utilization());
    }
  };

  p->c0 = Snapshot(*s);
  const int64_t wall0 = HostNanos();
  const int64_t cpu0 = ProcessCpuNanos();
  for (uint64_t i = 0;; i++) {
    int64_t due = s->clock.NowNanos();
    if (w_.open_rate_ops > 0) {
      due = p->t0 + static_cast<int64_t>(static_cast<double>(i) * 1e9 /
                                         w_.open_rate_ops);
      if (due >= end) break;
      const int64_t now = s->clock.NowNanos();
      if (now < due) {
        s->clock.AdvanceTo(due);
      } else if (now > due) {
        p->late++;
        p->wait_ns += now - due;
      }
    } else if (due >= end) {
      break;
    }
    sample_until(s->clock.NowNanos());
    Execute(s, gen.Next(), due, p);
  }
  s->clock.AdvanceTo(end);
  sample_until(end);
  p->wall_ns = HostNanos() - wall0;
  p->cpu_ns = ProcessCpuNanos() - cpu0;
  p->t1 = s->clock.NowNanos();
  p->c1 = Snapshot(*s);
}

// Full iterator scan, outside every timed span: exactly num_keys keys,
// in order, each with its expected value. *crc covers keys and values.
bool Runner::ScanMatchesShadow(Stack* s, uint32_t* crc) {
  std::unique_ptr<kv::KVStore::Iterator> it = s->store->NewIterator();
  uint64_t id = 0;
  for (it->SeekToFirst(); it->Valid(); it->Next(), id++) {
    if (id >= config_.NumKeys() || it->key() != kv::MakeKey(id) ||
        !Matches(id, it->value())) {
      return false;
    }
    *crc = Crc32c(*crc, it->key().data(), it->key().size());
    *crc = Crc32c(*crc, it->value().data(), it->value().size());
  }
  return it->status().ok() && id == config_.NumKeys();
}

Status Runner::Run(RunResult* r) {
  std::vector<Metrics> reps;
  bool scan_ok = true;
  bool layers_ok = true;
  bool overhead_ok = true;
  uint32_t crc = 0;
  for (int rep = 0; rep < kReps; rep++) {
    const int64_t t0 = HostNanos();
    Stack stack;
    PTSB_RETURN_IF_ERROR(Setup(&stack));
    const double setup_s = static_cast<double>(HostNanos() - t0) / 1e9;
    Phase p;
    UpdatePhase(&stack, rep, &p);
    scan_ok = ScanMatchesShadow(&stack, &crc) && scan_ok;

    Metrics m;
    AddEndToEnd(p, setup_s, &m);
    AddLayers(stack, p, &m);
    if (args_.trace) {
      const TraceCheck c = AddTraced(
          stack, p, static_cast<double>(stack.kv_setup.self_ns) / 1e9, &m);
      layers_ok = layers_ok && c.layers_ok;
      overhead_ok = overhead_ok && c.overhead < kMaxTraceOverhead;
    }
    reps.push_back(std::move(m));
  }
  r->metrics = Metrics::Combine(reps);
  r->checks["values_match_shadow_model"] = wrong_values_ == 0;
  r->checks["no_failed_ops"] = failed_ == 0;
  r->checks["scan_visits_every_key_in_order"] = scan_ok;
  if (args_.trace) {
    r->checks["layer_self_times_sum_to_total"] = layers_ok;
    r->checks["trace_overhead_bound_below_2pct"] = overhead_ok;
  }
  r->attempted = attempted_;
  r->failed = failed_;
  r->content_crc = crc;
  uint64_t h = 0xcbf29ce484222325ULL;
  for (const Metric& x : r->metrics.list()) {
    if (!x.is_virtual) continue;
    h = Fnv1a(h, x.name.data(), x.name.size());
    h = Fnv1a(h, &x.value, sizeof(x.value));
  }
  r->virt_digest = Fnv1a(h, &crc, sizeof(crc));
  return Status::OK();
}

// Latencies are reported as means and as the mean of the slowest 10% of
// all ops, not as percentiles: virtual-time latencies take a handful of
// discrete cost-model values, so a percentile sits on one of them and
// jumps between levels from seed to seed. The percentiles are kInfo.
void Runner::AddEndToEnd(const Phase& p, double setup_s, Metrics* m) const {
  const Tier e = Tier::kEndToEnd;
  std::vector<int64_t> all = p.put_lat;
  all.insert(all.end(), p.get_lat.begin(), p.get_lat.end());
  const double user_bytes = static_cast<double>(
      p.c1.kv.user_bytes_written - p.c0.kv.user_bytes_written);
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  m->Add("tput_kops",
         Ratio(static_cast<double>(p.tail_ops),
               static_cast<double>(p.last_done - p.tail_start) / 1e9) /
             1000.0,
         "Kops/s", e, true);
  m->Add("put_mean_us", MeanUs(p.put_lat), "us", e, true);
  m->Add("get_mean_us", MeanUs(p.get_lat), "us", e, true);
  m->Add("op_worst10pct_us", WorstMeanUs(all, kTailShare), "us", e, true);
  m->Add("wa_a",
         Ratio(static_cast<double>(p.c1.io.write_bytes - p.c0.io.write_bytes),
               user_bytes),
         "ratio", e, true);
  m->Add("wa_d",
         Ratio(static_cast<double>(p.c1.smart.nand_bytes_written -
                                   p.c0.smart.nand_bytes_written),
               static_cast<double>(p.c1.smart.host_bytes_written -
                                   p.c0.smart.host_bytes_written)),
         "ratio", e, true);
  m->Add("space_amp", p.peak_space, "ratio", e, true);
  m->Add("setup_s", setup_s, "s", e, false);
  m->Add("host_us_per_op",
         Ratio(static_cast<double>(p.wall_ns) / 1000.0,
               static_cast<double>(all.size())),
         "us/op", e, false);
  m->Add("peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0, "MiB", e,
         false);

  const Tier i = Tier::kInfo;
  m->Add("put_p50_us", PercentileUs(p.put_lat, 50), "us", i, true);
  m->Add("put_p999_us", PercentileUs(p.put_lat, 99.9), "us", i, true);
  m->Add("get_p50_us", PercentileUs(p.get_lat, 50), "us", i, true);
  m->Add("get_p999_us", PercentileUs(p.get_lat, 99.9), "us", i, true);
}

// Per-layer counter metrics over the update phase. Engine-specific ones
// read 0 on the other engines' workloads.
void Runner::AddLayers(const Stack& s, const Phase& p, Metrics* m) const {
  const Tier l = Tier::kLayer;
  // Update-phase delta of one KvStoreStats field.
  auto kv_delta = [&](auto kv::KvStoreStats::*f) {
    return static_cast<double>(p.c1.kv.*f - p.c0.kv.*f);
  };
  const double user = kv_delta(&kv::KvStoreStats::user_bytes_written);
  const double virt_ns = static_cast<double>(p.t1 - p.t0);
  const double gets = static_cast<double>(p.get_lat.size());
  const double ops = static_cast<double>(p.put_lat.size()) + gets;
  double lat_ns = 0;
  for (const int64_t x : p.put_lat) lat_ns += static_cast<double>(x);
  for (const int64_t x : p.get_lat) lat_ns += static_cast<double>(x);

  m->Add("host.offcpu_frac",
         1.0 - Ratio(static_cast<double>(p.cpu_ns),
                     static_cast<double>(p.wall_ns)),
         "fraction", l, false);
  m->Add("driver.late_frac", Ratio(static_cast<double>(p.late), ops),
         "fraction", l, true);
  m->Add("driver.wait_share", Ratio(static_cast<double>(p.wait_ns), lat_ns),
         "fraction", l, true);
  m->Add("driver.put_n", static_cast<double>(p.put_lat.size()), "count", l,
         true);
  m->Add("driver.get_n", gets, "count", l, true);

  m->Add("kv.stalls", kv_delta(&kv::KvStoreStats::stall_count), "count", l,
         true);
  m->Add("kv.wal_per_user_byte",
         Ratio(kv_delta(&kv::KvStoreStats::wal_bytes_written), user), "ratio",
         l, true);
  m->Add("kv.bg_virt_frac",
         Ratio(kv_delta(&kv::KvStoreStats::time_background_ns), virt_ns),
         "fraction", l, true);
  const double fg_ns = kv_delta(&kv::KvStoreStats::time_wal_ns) +
                       kv_delta(&kv::KvStoreStats::time_flush_ns) +
                       kv_delta(&kv::KvStoreStats::time_compaction_ns) +
                       kv_delta(&kv::KvStoreStats::time_read_path_ns) +
                       kv_delta(&kv::KvStoreStats::time_writeback_ns) +
                       kv_delta(&kv::KvStoreStats::time_checkpoint_ns);
  m->Add("kv.fg_attributed_frac", Ratio(fg_ns, virt_ns), "fraction", l, true);

  m->Add("lsm.compaction_write_per_user_byte",
         Ratio(kv_delta(&kv::KvStoreStats::compaction_bytes_written), user),
         "ratio", l, true);
  m->Add("lsm.compaction_read_per_user_byte",
         Ratio(kv_delta(&kv::KvStoreStats::compaction_bytes_read), user),
         "ratio", l, true);
  m->Add("lsm.flush_write_per_user_byte",
         Ratio(kv_delta(&kv::KvStoreStats::flush_bytes_written), user),
         "ratio", l, true);
  m->Add("lsm.compaction_virt_frac",
         Ratio(kv_delta(&kv::KvStoreStats::time_compaction_ns), virt_ns),
         "fraction", l, true);
  const double fp = kv_delta(&kv::KvStoreStats::bloom_false_positives);
  m->Add("lsm.bloom_fp_rate",
         Ratio(fp, fp + kv_delta(&kv::KvStoreStats::bloom_negatives)),
         "fraction", l, true);

  m->Add("btree.page_read_kib_per_get",
         Ratio(kv_delta(&kv::KvStoreStats::page_read_bytes) / 1024.0, gets),
         "KiB", l, true);
  m->Add("btree.writeback_per_user_byte",
         Ratio(kv_delta(&kv::KvStoreStats::page_write_bytes), user), "ratio",
         l, true);
  m->Add("btree.checkpoint_per_user_byte",
         Ratio(kv_delta(&kv::KvStoreStats::checkpoint_bytes_written), user),
         "ratio", l, true);

  m->Add("alog.gc_write_per_user_byte",
         Ratio(kv_delta(&kv::KvStoreStats::gc_bytes_written), user), "ratio",
         l, true);
  m->Add("alog.gc_read_per_user_byte",
         Ratio(kv_delta(&kv::KvStoreStats::gc_bytes_read), user), "ratio", l,
         true);

  m->Add("fs.peak_utilization", p.peak_util, "fraction", l, true);
  m->Add("fs.free_extents", static_cast<double>(s.fs->GetStats().free_extents),
         "count", l, true);

  const block::IoCounters io = p.c1.io - p.c0.io;
  m->Add("block.write_cmds_per_op",
         Ratio(static_cast<double>(io.write_ops), ops), "count/op", l, true);
  m->Add("block.avg_write_kib",
         Ratio(static_cast<double>(io.write_bytes) / 1024.0,
               static_cast<double>(io.write_ops)),
         "KiB", l, true);
  m->Add("block.flushes_per_op", Ratio(static_cast<double>(io.flushes), ops),
         "count/op", l, true);
  m->Add("block.read_kib_per_get",
         Ratio(static_cast<double>(io.read_bytes) / 1024.0, gets), "KiB", l,
         true);
  m->Add("block.lba_untouched_frac", s.lba->FractionUntouched(), "fraction",
         l, true);

  const auto& t0 = p.c0.ssd_times;
  const auto& t1 = p.c1.ssd_times;
  m->Add("ssd.write_stall_frac",
         Ratio(static_cast<double>(t1.write_stall_ns - t0.write_stall_ns),
               virt_ns),
         "fraction", l, true);
  m->Add("ssd.read_interference_frac",
         Ratio(static_cast<double>(t1.read_interference_ns -
                                   t0.read_interference_ns),
               virt_ns),
         "fraction", l, true);
  const auto bg = static_cast<size_t>(sim::IoClass::kBackground);
  double bg_busy = 0;
  double util_max = 0;
  double util_sum = 0;
  for (size_t ch = 0; ch < p.c1.channels.size(); ch++) {
    const auto& a = p.c0.channels[ch];
    const auto& b = p.c1.channels[ch];
    bg_busy += static_cast<double>(b.class_busy_ns[bg] - a.class_busy_ns[bg]);
    const double util = Ratio(static_cast<double>(b.busy_ns - a.busy_ns),
                              virt_ns);
    util_max = std::max(util_max, util);
    util_sum += util;
  }
  const auto channels = static_cast<double>(p.c1.channels.size());
  m->Add("ssd.bg_busy_frac", Ratio(bg_busy, virt_ns * channels), "fraction",
         l, true);
  m->Add("ssd.channel_util_max", util_max, "fraction", l, true);
  m->Add("ssd.channel_util_mean", Ratio(util_sum, channels), "fraction", l,
         true);

  const double host_pages = static_cast<double>(
      p.c1.ftl.host_pages_written - p.c0.ftl.host_pages_written);
  m->Add("ftl.gc_relocated_per_host_page",
         Ratio(static_cast<double>(p.c1.ftl.gc_pages_relocated -
                                   p.c0.ftl.gc_pages_relocated),
               host_pages),
         "ratio", l, true);
  m->Add("ftl.erases_per_host_gib",
         Ratio(static_cast<double>(p.c1.ftl.blocks_erased -
                                   p.c0.ftl.blocks_erased),
               host_pages * static_cast<double>(s.ssd->lba_bytes()) /
                   static_cast<double>(1ull << 30)),
         "count/GiB", l, true);
}

// Update-phase host self time per layer, from the traced boundaries:
// ssd = inner device, block = outer - inner, kv+fs = KVStore calls minus
// the outer device time inside them, driver = phase wall time - KVStore
// calls. The four sum to the wall time exactly unless a device command
// ran outside a KVStore call, which the layer check catches.
TraceCheck Runner::AddTraced(const Stack& s, const Phase& p,
                             double setup_kv_s, Metrics* m) const {
  const Tier t = Tier::kTraced;
  const double ops = static_cast<double>(p.put_lat.size() + p.get_lat.size());
  const double wall = static_cast<double>(p.wall_ns);
  const double outer = static_cast<double>(p.c1.outer.ns - p.c0.outer.ns);
  const double inner = static_cast<double>(p.c1.inner.ns - p.c0.inner.ns);
  const Span& put = s.kv_put;  // set-up and the scan are not in these
  const Span& get = s.kv_get;
  const double kv_calls = static_cast<double>(put.ns + get.ns);
  const double self[] = {wall - kv_calls,
                         static_cast<double>(put.self_ns + get.self_ns),
                         outer - inner, inner};
  TraceCheck c;
  c.layers_ok = true;
  double sum = 0;
  for (const double x : self) {
    c.layers_ok = c.layers_ok && x >= 0;
    sum += x;
  }
  c.layers_ok =
      c.layers_ok && std::abs(sum - wall) <= kLayerSumTolerance * wall;
  const uint64_t timed_calls = put.calls + get.calls +
                               (p.c1.outer.calls - p.c0.outer.calls) +
                               (p.c1.inner.calls - p.c0.inner.calls);
  c.overhead = Ratio(static_cast<double>(timed_calls) * ClockPairNanos(), wall);

  m->Add("driver.host_us_per_op", Ratio(self[0] / 1000.0, ops), "us/op", t,
         false);
  m->Add("kv.host_us_per_op", Ratio(self[1] / 1000.0, ops), "us/op", t,
         false);
  m->Add("kv.put_host_us",
         Ratio(static_cast<double>(put.self_ns) / 1000.0,
               static_cast<double>(put.calls)),
         "us", t, false);
  m->Add("kv.get_host_us",
         Ratio(static_cast<double>(get.self_ns) / 1000.0,
               static_cast<double>(get.calls)),
         "us", t, false);
  m->Add("kv.setup_host_s", setup_kv_s, "s", t, false);
  m->Add("block.host_us_per_op", Ratio(self[2] / 1000.0, ops), "us/op", t,
         false);
  m->Add("ssd.host_us_per_op", Ratio(self[3] / 1000.0, ops), "us/op", t,
         false);
  m->Add("ssd.host_ns_per_cmd",
         Ratio(inner, static_cast<double>(p.c1.inner.calls -
                                          p.c0.inner.calls)),
         "ns", t, false);
  m->Add("host.trace_overhead_frac", c.overhead, "fraction", t, false);
  return c;
}

// ---- Output -------------------------------------------------------------

std::string JsonNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string MetricsJson(const std::vector<const Metric*>& list) {
  std::string out = "{";
  for (const Metric* x : list) {
    if (out.size() > 1) out += ", ";
    out += "\"" + x->name + "\": {\"value\": " + JsonNumber(x->value) +
           ", \"unit\": \"" + x->unit + "\"}";
  }
  return out + "}";
}

int Report(const Args& args, const RunResult& r) {
  bool correct = true;
  for (const auto& [name, ok] : r.checks) correct = correct && ok;
  std::printf("workload %s  seed %llu  seconds %g  trace %d\n",
              args.workload->name, static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0);
  std::vector<const Metric*> all;
  std::vector<const Metric*> selected;
  for (const Metric& x : r.metrics.list()) {
    std::printf("  %-36s %16.6f  %s%s\n", x.name.c_str(), x.value,
                x.unit.c_str(), x.is_virtual ? "  [virtual]" : "");
    all.push_back(&x);
    const bool want = args.trace
                          ? x.tier == Tier::kLayer || x.tier == Tier::kTraced
                          : x.tier == Tier::kEndToEnd;
    if (want) selected.push_back(&x);
  }
  std::string checks = "{";
  for (const auto& [name, ok] : r.checks) {
    std::printf("  check %-40s %s\n", name.c_str(), ok ? "pass" : "FAIL");
    if (checks.size() > 1) checks += ", ";
    checks += "\"" + name + "\": " + (ok ? "true" : "false");
  }
  checks += "}";
  char digests[96];
  std::snprintf(digests, sizeof(digests),
                "\"content_crc32c\": \"%08x\", \"virt_digest\": \"%016llx\"",
                r.content_crc, static_cast<unsigned long long>(r.virt_digest));
  std::printf("  %s\n", digests);
  const std::string counts =
      "\"attempted\": " + std::to_string(r.attempted) +
      ", \"failed\": " + std::to_string(r.failed);

  if (!args.out.empty()) {
    FILE* f = std::fopen(args.out.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "perf_suite: cannot write %s\n", args.out.c_str());
      return 2;
    }
    std::fprintf(f,
                 "{\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %s, "
                 "\"trace\": %s, \"correct\": %s, %s, %s, \"checks\": %s, "
                 "\"metrics\": %s}\n",
                 args.workload->name,
                 static_cast<unsigned long long>(args.seed),
                 JsonNumber(args.seconds).c_str(),
                 args.trace ? "true" : "false", correct ? "true" : "false",
                 counts.c_str(), digests, checks.c_str(),
                 MetricsJson(all).c_str());
    std::fclose(f);
  }

  std::printf("{\"correct\": %s, %s, \"metrics\": %s}\n",
              correct ? "true" : "false", counts.c_str(),
              MetricsJson(selected).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

int Usage(const std::string& msg) {
  std::fprintf(stderr,
               "perf_suite: %s\n"
               "usage: perf_suite --workload=NAME [--seed=N] [--seconds=S] "
               "[--trace] [--out=FILE]\nworkloads:",
               msg.c_str());
  for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

int Main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; i++) {
    const std::string a = argv[i];
    const size_t eq = a.find('=');
    const std::string flag = a.substr(0, eq);
    const std::string value = eq == std::string::npos ? "" : a.substr(eq + 1);
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = FindWorkload(value);
      if (args.workload == nullptr) return Usage("unknown workload " + value);
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') return Usage("bad --seed");
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(args.seconds > 0) ||
          args.seconds > 600) {
        return Usage("bad --seconds");
      }
    } else if (a == "--trace") {
      args.trace = true;
    } else if (flag == "--out" && !value.empty()) {
      args.out = value;
    } else {
      return Usage("unknown flag " + a);
    }
  }
  if (args.workload == nullptr) return Usage("--workload is required");

  RunResult result;
  Runner runner(args, *args.workload);
  const Status s = runner.Run(&result);
  if (!s.ok()) {
    std::fprintf(stderr, "perf_suite: %s: %s\n", args.workload->name,
                 s.ToString().c_str());
    return 2;
  }
  return Report(args, result);
}

}  // namespace
}  // namespace ptsb::perf

int main(int argc, char** argv) { return ptsb::perf::Main(argc, argv); }

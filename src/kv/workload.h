// Workload generation per Section 3.2 of the paper: sequential-order load
// of N key-value pairs, then an op mix (default write-only uniform-random
// updates of existing keys; num_threads > 1 replays disjoint streams from
// concurrent workers). Variants cover the paper's
// additional workloads (50:50 read/write mix, 128-byte values), a zipfian
// extension, and the batched/delete/scan mixes the engine API supports:
// write ops become kBatchPut groups when batch_size > 1, a delete_fraction
// of writes are deletes, and a scan_fraction of reads are scan_count-entry
// range scans.
#ifndef PTSB_KV_WORKLOAD_H_
#define PTSB_KV_WORKLOAD_H_

#include <cstdint>
#include <string>

#include "kv/kv.h"
#include "kv/kvstore.h"
#include "util/random.h"
#include "util/status.h"

namespace ptsb::kv {

enum class Distribution { kUniform, kZipfian };

struct WorkloadSpec {
  uint64_t num_keys = 50'000'000;
  size_t key_bytes = kDefaultKeyBytes;
  size_t value_bytes = kDefaultValueBytes;
  // Fraction of operations that are writes (paper default: write-only).
  double write_fraction = 1.0;
  // Of the write ops: fraction that are deletes (the rest are puts).
  double delete_fraction = 0.0;
  // Of the read ops: fraction that are range scans (the rest are gets).
  double scan_fraction = 0.0;
  // Puts are emitted as kBatchPut when batch_size > 1; the driver groups
  // this many entries into one KVStore::Write (group commit).
  size_t batch_size = 1;
  // Entries consumed per scan op.
  size_t scan_count = 100;
  // Run each scan over a snapshot (KVStore::GetSnapshot + ReadOptions):
  // the cursor observes a frozen sequence and survives concurrent
  // writers — required for scan ops under num_threads > 1.
  bool scan_snapshot = false;
  // Worker threads replaying the update phase. Each worker runs its own
  // WorkloadGenerator seeded with ForThread(t).seed, so the T op streams
  // are disjoint and the whole run is deterministic given (seed, T).
  // Every built-in engine accepts concurrent writers (kv::WriteGroup).
  size_t num_threads = 1;
  Distribution distribution = Distribution::kUniform;
  double zipf_theta = 0.99;
  uint64_t seed = 7;

  // The per-worker spec for thread `t` of num_threads: identical shape,
  // thread-unique seed.
  WorkloadSpec ForThread(size_t t) const;

  uint64_t DatasetBytes() const {
    return num_keys * (key_bytes + value_bytes);
  }
};

struct Op {
  enum class Type { kPut, kGet, kBatchPut, kDelete, kScan } type = Type::kPut;
  uint64_t key_id = 0;      // target key (first key of a batch / scan start)
  uint64_t value_seed = 0;  // for puts
};

class WorkloadGenerator {
 public:
  explicit WorkloadGenerator(const WorkloadSpec& spec);

  // Next operation of the update/read phase.
  Op Next();

  // Additional draws for filling a kBatchPut: the driver calls these
  // (batch_size - 1) times per batch op, keeping the stream deterministic.
  uint64_t NextKeyId();
  uint64_t NextValueSeed();

  const WorkloadSpec& spec() const { return spec_; }

  std::string KeyFor(uint64_t id) const {
    return MakeKey(id, spec_.key_bytes);
  }
  std::string ValueFor(uint64_t seed) const {
    return MakeValue(seed, spec_.value_bytes);
  }

 private:
  WorkloadSpec spec_;
  Rng rng_;
  ZipfianGenerator zipf_;
  uint64_t op_counter_ = 0;
};

// Ingests all keys in sequential order (the paper's loading phase),
// batching spec.batch_size keys per KVStore::Write. Calls
// progress(i, num_keys) every `progress_every` keys if non-null.
Status LoadSequential(KVStore* store, const WorkloadSpec& spec,
                      void (*progress)(uint64_t, uint64_t) = nullptr,
                      uint64_t progress_every = 1u << 20);

}  // namespace ptsb::kv

#endif  // PTSB_KV_WORKLOAD_H_

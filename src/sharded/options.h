// Configuration of the sharded front end. The sharded "engine" is a thin
// concurrent router: it owns N instances of an inner engine (any name in
// kv::EngineRegistry except "sharded" itself) and hash-partitions the
// keyspace across them, so the structural options all belong to the inner
// engine and pass through the param map untouched.
#ifndef PTSB_SHARDED_OPTIONS_H_
#define PTSB_SHARDED_OPTIONS_H_

#include <string>

namespace ptsb::sharded {

struct ShardedOptions {
  // Number of per-shard inner engine instances. Each shard lives in its
  // own directory (<root>/shard-NNN) and is guarded by its own mutex, so
  // writers on different shards proceed in parallel.
  int shards = 4;

  // Registry name of the engine each shard runs ("lsm", "btree", "alog",
  // or any out-of-tree registration). Nesting "sharded" is rejected.
  std::string inner_engine = "lsm";

  // Maximum in-flight async sub-batch commits per Write call. At > 1
  // (and with a virtual clock attached), a cross-shard batch dispatches
  // its sub-batches through KVStore::WriteAsync — shard i submits on
  // queue i, the simulated SSD serializes queue i on channel
  // i % channels only — so up to queue_depth commits overlap in VIRTUAL
  // device time, like an NVMe multi-queue submitter. Dispatch stays on
  // the calling thread, keeping the virtual timeline deterministic. 1 =
  // synchronous serialized commits on the calling thread; multiple
  // caller threads still get shard-level parallelism from the per-shard
  // locking.
  int queue_depth = 1;

  // Maximum in-flight async sub-lookups per MultiGet call: the read-side
  // twin of queue_depth. At > 1 (with a virtual clock), MultiGet routes
  // each key's lookup through the owning shard's ReadAsync — shard i
  // submits on queue i, so lookups hitting distinct shards overlap in
  // VIRTUAL device time across SSD channels. 1 = sequential Gets.
  int read_queue_depth = 1;
};

}  // namespace ptsb::sharded

#endif  // PTSB_SHARDED_OPTIONS_H_

// OpenStore: opens a store by engine name ("alog", "btree" or "lsm") from a
// string->string param map, so the experiment driver, the benches and the
// examples never name a concrete engine type. The engines are a fixed
// table in kv/engines.cc.
#ifndef PTSB_KV_REGISTRY_H_
#define PTSB_KV_REGISTRY_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "kv/kvstore.h"
#include "util/status.h"

namespace ptsb::fs {
class SimpleFs;
}  // namespace ptsb::fs
namespace ptsb::sim {
class SimClock;
}  // namespace ptsb::sim

namespace ptsb::kv {

// Everything OpenStore needs to build a store. `params` overrides the
// engine's option defaults by field name (e.g. "memtable_bytes" ->
// "65536"); the keys an engine accepts are its ForEachParam list.
struct EngineOptions {
  std::string engine = "lsm";
  fs::SimpleFs* fs = nullptr;       // required
  sim::SimClock* clock = nullptr;   // optional virtual clock
  std::string root;                 // engine root dir/file ("" = default)
  std::map<std::string, std::string> params;
};

// Opens `options.engine`. InvalidArgument for a null fs, for an unknown
// engine (the message lists the known ones), and for a param the engine
// does not have or whose value does not parse as its field's type.
StatusOr<std::unique_ptr<KVStore>> OpenStore(const EngineOptions& options);

// The engine names OpenStore knows, in alphabetical order.
std::vector<std::string> EngineNames();

}  // namespace ptsb::kv

#endif  // PTSB_KV_REGISTRY_H_

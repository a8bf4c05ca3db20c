// EngineRegistry + OpenStore: registry-driven engine construction. Engines
// self-register a factory under a short name ("lsm", "btree", "alog");
// callers open
// a store with a name plus a string->string option map, so the experiment
// driver, benches and future multi-backend work never link against a
// concrete engine type. New engines plug in by calling
// EngineRegistry::Global().Register(...) — no core/ changes required.
#ifndef PTSB_KV_REGISTRY_H_
#define PTSB_KV_REGISTRY_H_

#include <cstdint>
#include <functional>
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

// Everything a factory needs to build a store. `params` carries
// engine-specific option overrides as strings (e.g. "memtable_bytes" ->
// "65536"); unknown keys are ignored by engines that don't understand
// them, so one map can be threaded through generic drivers.
struct EngineOptions {
  std::string engine = "lsm";
  fs::SimpleFs* fs = nullptr;       // required
  sim::SimClock* clock = nullptr;   // optional virtual clock
  std::string root;                 // engine root dir/file ("" = default)
  std::map<std::string, std::string> params;
};

using EngineFactory =
    std::function<StatusOr<std::unique_ptr<KVStore>>(const EngineOptions&)>;

class EngineRegistry {
 public:
  // The process-wide registry used by OpenStore.
  static EngineRegistry& Global();

  // Registers (or replaces) a factory under `name`.
  void Register(const std::string& name, EngineFactory factory);

  bool Contains(const std::string& name) const;
  std::vector<std::string> Names() const;

  StatusOr<std::unique_ptr<KVStore>> Open(const EngineOptions& options) const;

 private:
  std::map<std::string, EngineFactory> factories_;
};

// Opens a store through the global registry. Built-in engines are
// registered on first use; returns InvalidArgument for unknown names,
// listing what is available.
StatusOr<std::unique_ptr<KVStore>> OpenStore(const EngineOptions& options);

// Idempotently registers the built-in engines ("lsm", "btree", "alog").
// OpenStore calls this itself; it is exposed for code that inspects the
// registry before opening anything.
void RegisterBuiltinEngines();

// Typed accessors for EngineOptions::params (missing key -> `def`;
// unparsable values also fall back to `def`). Booleans accept
// "1"/"0"/"true"/"false".
uint64_t ParamUint64(const EngineOptions& options, const std::string& key,
                     uint64_t def);
int64_t ParamInt64(const EngineOptions& options, const std::string& key,
                   int64_t def);
int ParamInt(const EngineOptions& options, const std::string& key, int def);
double ParamDouble(const EngineOptions& options, const std::string& key,
                   double def);
bool ParamBool(const EngineOptions& options, const std::string& key,
               bool def);

}  // namespace ptsb::kv

#endif  // PTSB_KV_REGISTRY_H_

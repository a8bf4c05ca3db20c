// The engine table behind kv::OpenStore.
#include "alog/alog_store.h"
#include "btree/btree_store.h"
#include "kv/registry.h"
#include "lsm/lsm_store.h"

namespace ptsb::kv {

namespace {

struct Engine {
  const char* name;
  // The store's root when EngineOptions::root is empty.
  const char* default_root;
  StatusOr<std::unique_ptr<KVStore>> (*open)(const Engine&,
                                              const EngineOptions&);
};

template <typename Store, typename Options>
StatusOr<std::unique_ptr<KVStore>> Open(const Engine& engine,
                                        const EngineOptions& eo) {
  PTSB_ASSIGN_OR_RETURN(Options o,
                        DecodeParams<Options>(engine.name, eo.params));
  o.clock = eo.clock;
  PTSB_ASSIGN_OR_RETURN(
      std::unique_ptr<Store> store,
      Store::Open(eo.fs, o, eo.root.empty() ? engine.default_root : eo.root));
  return std::unique_ptr<KVStore>(std::move(store));
}

constexpr Engine kEngines[] = {
    {"alog", "alog", Open<alog::AlogStore, alog::AlogOptions>},
    {"btree", "btree/tree.db", Open<btree::BTreeStore, btree::BTreeOptions>},
    {"lsm", "lsm", Open<lsm::LsmStore, lsm::LsmOptions>},
};

}  // namespace

StatusOr<std::unique_ptr<KVStore>> OpenStore(const EngineOptions& options) {
  if (options.fs == nullptr) {
    return Status::InvalidArgument("EngineOptions.fs is required");
  }
  for (const Engine& engine : kEngines) {
    if (options.engine == engine.name) return engine.open(engine, options);
  }
  std::string known;
  for (const std::string& name : EngineNames()) {
    known += (known.empty() ? "" : ", ") + name;
  }
  return Status::InvalidArgument("unknown engine \"" + options.engine +
                                 "\" (known: " + known + ")");
}

std::vector<std::string> EngineNames() {
  std::vector<std::string> names;
  for (const Engine& engine : kEngines) names.push_back(engine.name);
  return names;
}

}  // namespace ptsb::kv

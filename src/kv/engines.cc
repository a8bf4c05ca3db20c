// Links the built-in engines into the registry. Static self-registration
// alone would be dropped by the linker for binaries that only reference
// kv::OpenStore (the engine object files would appear unused in the static
// library), so OpenStore pulls the registrations in explicitly through
// this translation unit.
#include <mutex>

#include "alog/alog_store.h"
#include "btree/btree_store.h"
#include "kv/registry.h"
#include "lsm/lsm_store.h"

namespace ptsb::kv {

void RegisterBuiltinEngines() {
  static std::once_flag once;
  std::call_once(once, [] {
    lsm::RegisterLsmEngine();
    btree::RegisterBTreeEngine();
    alog::RegisterAlogEngine();
  });
}

}  // namespace ptsb::kv

// Engine params: the options every engine shares, and the one param list
// per engine that both kv::OpenStore's decoding and EncodeEngineParams
// walk.
//
// Each engine's options.h defines ForEachParam(o, visit), which calls
// visit(key, o.field) once per param. Its rows are PTSB_PARAM(field), so
// a key is always the name of the field it sets. DecodeParams and
// EncodeParams below turn that list into a parser and a printer.
#ifndef PTSB_KV_PARAMS_H_
#define PTSB_KV_PARAMS_H_

#include <cstdint>
#include <map>
#include <string>
#include <type_traits>

#include "sim/clock.h"
#include "util/parse.h"
#include "util/status.h"

namespace ptsb::kv {

// One row of an engine's param list, inside a ForEachParam(o, visit)
// body: visits o.field under the key "field".
#define PTSB_PARAM(field) visit(#field, o.field)

// The options every engine shares; each engine's options struct derives
// from it and sets its own cpu_put_ns.
struct CommonOptions {
  // Optional virtual clock for CPU accounting (device time is charged by
  // the device itself). Carried by kv::EngineOptions, not a param.
  sim::SimClock* clock = nullptr;
  // CPU charge per written entry, paid by the commit group's leader.
  int64_t cpu_put_ns = 0;
  // Run the engine's maintenance (LSM compaction, B+Tree checkpoints,
  // alog GC) on its background submission lanes (queue
  // kv::kBackgroundQueue + i, I/O class kBackground) instead of the
  // user's timeline: commits no longer absorb that device time, and the
  // user waits for it explicitly where it must (the LSM stall trigger,
  // Flush, Close, SettleBackgroundWork). Off by default, the paper's
  // baseline.
  bool background_io = false;
  // With background_io and a clock, the number of background lanes the
  // maintenance fans out over, so its I/O overlaps across SSD channels:
  // LSM subcompactions over disjoint key ranges, alog GC value reads,
  // B+Tree checkpoint block writes. 1 keeps one lane.
  int compaction_parallelism = 1;
};

// The CommonOptions params (not the clock); every engine's ForEachParam
// visits them.
template <typename Options, typename Visit>
void ForEachCommonParam(Options& o, Visit&& visit) {
  PTSB_PARAM(cpu_put_ns);
  PTSB_PARAM(background_io);
  PTSB_PARAM(compaction_parallelism);
}

// The param map of `o`: every param its ForEachParam lists, bools as
// "1"/"0". The clock is not a param.
template <typename Options>
std::map<std::string, std::string> EncodeParams(const Options& o) {
  std::map<std::string, std::string> p;
  ForEachParam(o, [&p](const char* key, const auto& field) {
    if constexpr (std::is_same_v<std::decay_t<decltype(field)>, bool>) {
      p[key] = field ? "1" : "0";
    } else {
      p[key] = std::to_string(field);
    }
  });
  return p;
}

// Default Options with each of `params` parsed over its field (see
// ParseValue). A key the list lacks, or a value that does not parse as
// its field's type, is InvalidArgument naming `engine`.
template <typename Options>
StatusOr<Options> DecodeParams(const std::string& engine,
                               std::map<std::string, std::string> params) {
  Options o;
  std::string malformed;
  ForEachParam(o, [&](const char* key, auto& field) {
    const auto it = params.find(key);
    if (it == params.end()) return;
    if (!ParseValue(it->second, &field) && malformed.empty()) {
      malformed = std::string(key) + "=\"" + it->second + "\"";
    }
    params.erase(it);
  });
  if (!malformed.empty()) {
    return Status::InvalidArgument("engine " + engine +
                                   ": malformed param " + malformed);
  }
  if (!params.empty()) {
    return Status::InvalidArgument("engine " + engine + ": unknown param \"" +
                                   params.begin()->first + "\"");
  }
  return o;
}

}  // namespace ptsb::kv

#endif  // PTSB_KV_PARAMS_H_

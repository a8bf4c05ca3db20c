#include "kv/kvstore.h"

#include "sim/clock.h"

namespace ptsb::kv {

Status WriteHandle::Wait() {
  Settle();
  return status_;
}

void WriteHandle::OnComplete(Callback cb) {
  if (joined_) {
    if (cb) cb(status_);
    return;
  }
  callback_ = std::move(cb);
}

void WriteHandle::Settle() {
  if (!joined_) {
    if (clock_ != nullptr && complete_ns_ > 0) {
      clock_->AdvanceTo(complete_ns_);
    }
    joined_ = true;
  }
  if (callback_) {
    Callback cb = std::move(callback_);
    callback_ = nullptr;
    cb(status_);
  }
}

Status ReadHandle::Wait() {
  Settle();
  return status_;
}

void ReadHandle::OnComplete(Callback cb) {
  if (joined_) {
    if (cb) cb(status_);
    return;
  }
  callback_ = std::move(cb);
}

void ReadHandle::Settle() {
  if (!joined_) {
    if (clock_ != nullptr && complete_ns_ > 0) {
      clock_->AdvanceTo(complete_ns_);
    }
    joined_ = true;
  }
  if (callback_) {
    Callback cb = std::move(callback_);
    callback_ = nullptr;
    cb(status_);
  }
}

std::vector<Status> KVStore::MultiGet(std::span<const std::string_view> keys,
                                      std::vector<std::string>* values) {
  values->assign(keys.size(), std::string());
  std::vector<Status> statuses(keys.size());
  for (size_t i = 0; i < keys.size(); i++) {
    statuses[i] = Get(keys[i], &(*values)[i]);
  }
  return statuses;
}

}  // namespace ptsb::kv

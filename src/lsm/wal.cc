#include "lsm/wal.h"

#include "util/encoding.h"

namespace ptsb::lsm {

std::string EncodeWalBatch(const kv::WriteBatch& batch,
                           SequenceNumber first_seq) {
  std::string payload;
  payload.reserve(batch.ByteSize() + batch.Count() * 24);
  SequenceNumber seq = first_seq;
  for (const kv::WriteBatch::Entry& e : batch.entries()) {
    EntryType type = EntryType::kDelete;
    switch (e.kind) {
      case kv::WriteBatch::EntryKind::kPut:
        type = EntryType::kPut;
        break;
      case kv::WriteBatch::EntryKind::kDelete:
        type = EntryType::kDelete;
        break;
      case kv::WriteBatch::EntryKind::kDeleteRange:
        type = EntryType::kRangeDelete;
        break;
    }
    PutFixed64(&payload, PackSeqType(seq++, type));
    PutLengthPrefixed(&payload, e.key);
    PutLengthPrefixed(&payload, e.value);
  }
  return payload;
}

Status DecodeWalBatch(std::string_view payload,
                      std::vector<WalEntry>* entries) {
  entries->clear();
  std::string_view p = payload;
  while (!p.empty()) {
    uint64_t tag;
    WalEntry e;
    if (!GetFixed64(&p, &tag) || !GetLengthPrefixed(&p, &e.key) ||
        !GetLengthPrefixed(&p, &e.value)) {
      return Status::Corruption("malformed WAL record");
    }
    e.seq = UnpackSeq(tag);
    e.type = UnpackType(tag);
    entries->push_back(e);
  }
  return Status::OK();
}

}  // namespace ptsb::lsm

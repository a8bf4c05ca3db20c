// Write-ahead log payload codec. The WAL is a kv::LogWriter log with one
// record per write *batch* (group commit); this file owns only the
// payload:
//   (fixed64 tag | varint32 klen | key | varint32 vlen | value)+
// where tag packs the entry's sequence number and EntryType. A kDeleteRange
// entry carries (begin, exclusive end) in (key, value).
#ifndef PTSB_LSM_WAL_H_
#define PTSB_LSM_WAL_H_

#include <string>
#include <string_view>
#include <vector>

#include "kv/write_batch.h"
#include "lsm/format.h"
#include "util/status.h"

namespace ptsb::lsm {

// Encodes the whole batch as one payload; entry i gets sequence
// first_seq + i.
std::string EncodeWalBatch(const kv::WriteBatch& batch,
                           SequenceNumber first_seq);

struct WalEntry {
  std::string_view key;
  SequenceNumber seq;
  EntryType type;
  std::string_view value;
};

// Parses a whole payload; Corruption if any entry is malformed.
Status DecodeWalBatch(std::string_view payload,
                      std::vector<WalEntry>* entries);

}  // namespace ptsb::lsm

#endif  // PTSB_LSM_WAL_H_

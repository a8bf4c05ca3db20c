// The one log-record module. Every engine log — the LSM WAL and MANIFEST,
// the B+Tree journal and the alog segments — is a sequence of framed
// records:
//   fixed32 masked-crc(payload) | varint32 len | payload
// LogWriter frames, stages and syncs records; ReplayLog walks them back.
// Engines own only their payload codecs. The batch codec below is shared
// by the journal and the segments; the WAL and the MANIFEST encode their
// own payloads.
//
// Replay tells a torn tail from corruption. A record that is cut short,
// or whose checksum fails with no intact record at its declared end, is
// the tail a crash leaves: replay stops there and returns OK. A failed
// checksum followed by an intact record is damage in the middle of the
// log and returns Corruption. That rule is sound because no engine ever
// appends to a log it has just replayed, so a torn record can only ever
// be the last one.
#ifndef PTSB_KV_LOG_H_
#define PTSB_KV_LOG_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "fs/file.h"
#include "fs/filesystem.h"
#include "kv/write_batch.h"
#include "util/status.h"

namespace ptsb::kv {

class LogWriter {
 public:
  // Does not take ownership of `file`. Records are staged in a
  // `buffer_bytes` memory buffer before reaching the filesystem (RocksDB's
  // log writer buffering); 0 writes every record through. After at least
  // `sync_every_bytes` record bytes since the last sync, Add syncs; 0
  // never syncs on its own (full filesystem pages still reach the device
  // as they fill). Staged and unsynced records are lost on a crash.
  LogWriter(fs::File* file, uint64_t sync_every_bytes, uint64_t buffer_bytes);

  // Frames and stages one record, syncing after it when the cadence is
  // due or `sync` is set — once either way, where Add then Sync would
  // sync twice when the cadence is due. Returns the payload's offset in
  // the file.
  StatusOr<uint64_t> Add(std::string_view payload, bool sync = false);
  // Writes out the staged records and syncs the file.
  Status Sync();

  // Framed bytes added through this writer.
  uint64_t bytes_written() const { return bytes_written_; }
  fs::File* file() const { return file_; }

 private:
  Status FlushBuffer();

  fs::File* file_;
  uint64_t sync_every_bytes_;
  uint64_t buffer_bytes_;
  std::string buffer_;
  uint64_t bytes_written_ = 0;
  uint64_t unsynced_ = 0;
};

// Reads `file` once and hands every intact record's payload, with its
// offset in the file, to `fn` in order. A torn tail ends replay with OK; a
// bad record followed by an intact one returns Corruption, as does any
// error `fn` returns. `fn` should parse the whole payload before applying
// any of it, so a batch never replays as a prefix.
Status ReplayLog(
    fs::File* file,
    const std::function<Status(uint64_t offset, std::string_view payload)>&
        fn);

// ---- Batch payload codec: one entry per batch operation,
//   (u8 EntryKind | varint32 klen | key | varint32 vlen | value)+
// A kDeleteRange entry carries (begin, exclusive end) in (key, value).

// Where one entry sits inside its encoded payload. entry_bytes is the
// entry's share of the payload (alog's live/dead accounting unit).
struct EntryLayout {
  uint64_t value_offset = 0;  // first value byte, from the payload start
  uint32_t entry_bytes = 0;
};

// Encodes the whole batch as one payload; `layout` (if non-null) gets one
// EntryLayout per entry, in order.
std::string EncodeBatch(const WriteBatch& batch,
                        std::vector<EntryLayout>* layout);

struct DecodedEntry {
  WriteBatch::EntryKind kind;
  std::string_view key;
  std::string_view value;  // points into the decoded payload
  uint32_t entry_bytes = 0;
};

// Parses a whole payload; Corruption if any entry is malformed.
Status DecodeBatch(std::string_view payload,
                   std::vector<DecodedEntry>* entries);

// ---- Numbered files: "<dir>/<number, %06llu>.<ext>" — WALs, SSTs and
// segments.
std::string NumberedFileName(const std::string& dir, uint64_t number,
                             std::string_view ext);

// (number, name) of every file directly in `dir` named "<digits><ext>",
// in numeric order. Names whose stem is not 1 to 19 digits are foreign
// and skipped.
std::vector<std::pair<uint64_t, std::string>> ListNumberedFiles(
    const fs::SimpleFs& fs, const std::string& dir, std::string_view ext);

}  // namespace ptsb::kv

#endif  // PTSB_KV_LOG_H_

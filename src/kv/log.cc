#include "kv/log.h"

#include <algorithm>

#include "util/crc32.h"
#include "util/encoding.h"
#include "util/human.h"

namespace ptsb::kv {

LogWriter::LogWriter(fs::File* file, uint64_t sync_every_bytes,
                     uint64_t buffer_bytes)
    : file_(file),
      sync_every_bytes_(sync_every_bytes),
      buffer_bytes_(buffer_bytes) {}

StatusOr<uint64_t> LogWriter::Add(std::string_view payload, bool sync) {
  const size_t record_start = buffer_.size();
  PutFixed32(&buffer_, MaskCrc(Crc32c(payload)));
  PutVarint32(&buffer_, static_cast<uint32_t>(payload.size()));
  const uint64_t offset = file_->size() + buffer_.size();
  buffer_.append(payload.data(), payload.size());
  const uint64_t record_bytes = buffer_.size() - record_start;
  bytes_written_ += record_bytes;
  unsynced_ += record_bytes;

  if (buffer_.size() >= buffer_bytes_) {
    PTSB_RETURN_IF_ERROR(FlushBuffer());
  }
  if (sync || (sync_every_bytes_ > 0 && unsynced_ >= sync_every_bytes_)) {
    PTSB_RETURN_IF_ERROR(Sync());
  }
  return offset;
}

Status LogWriter::FlushBuffer() {
  if (buffer_.empty()) return Status::OK();
  PTSB_RETURN_IF_ERROR(file_->Append(buffer_));
  buffer_.clear();
  return Status::OK();
}

Status LogWriter::Sync() {
  unsynced_ = 0;
  PTSB_RETURN_IF_ERROR(FlushBuffer());
  return file_->Sync();
}

namespace {

// One frame of a log image, parsed at `pos`.
struct Frame {
  bool complete = false;  // header and the declared payload are all there
  bool intact = false;    // ... and the checksum matches
  uint64_t payload_offset = 0;
  std::string_view payload;
  uint64_t end = 0;  // offset just past the payload
};

Frame ParseFrame(std::string_view log, uint64_t pos) {
  Frame f;
  std::string_view in = log.substr(pos);
  uint32_t crc, len;
  if (!GetFixed32(&in, &crc) || !GetVarint32(&in, &len) || in.size() < len) {
    return f;
  }
  f.complete = true;
  f.payload_offset = log.size() - in.size();
  f.payload = in.substr(0, len);
  f.end = f.payload_offset + len;
  f.intact = UnmaskCrc(crc) == Crc32c(f.payload);
  return f;
}

}  // namespace

Status ReplayLog(
    fs::File* file,
    const std::function<Status(uint64_t, std::string_view)>& fn) {
  std::string data(file->size(), '\0');
  PTSB_ASSIGN_OR_RETURN(const uint64_t got,
                        file->ReadAt(0, data.size(), data.data()));
  const std::string_view log(data.data(), got);
  uint64_t pos = 0;
  while (pos < log.size()) {
    const Frame f = ParseFrame(log, pos);
    if (!f.complete) break;  // cut short: the tail a crash leaves
    if (!f.intact) {
      if (f.end < log.size() && ParseFrame(log, f.end).intact) {
        return Status::Corruption(StrPrintf(
            "log record at offset %llu fails its checksum, but an intact "
            "record follows it",
            static_cast<unsigned long long>(pos)));
      }
      break;  // torn last record
    }
    PTSB_RETURN_IF_ERROR(fn(f.payload_offset, f.payload));
    pos = f.end;
  }
  return Status::OK();
}

std::string EncodeBatch(const WriteBatch& batch,
                        std::vector<EntryLayout>* layout) {
  std::string payload;
  payload.reserve(batch.ByteSize() + batch.Count() * 11);
  if (layout != nullptr) {
    layout->clear();
    layout->reserve(batch.Count());
  }
  for (const WriteBatch::Entry& e : batch.entries()) {
    const size_t entry_start = payload.size();
    payload.push_back(static_cast<char>(e.kind));
    PutLengthPrefixed(&payload, e.key);
    PutVarint32(&payload, static_cast<uint32_t>(e.value.size()));
    const uint64_t value_offset = payload.size();
    payload.append(e.value);
    if (layout != nullptr) {
      layout->push_back(
          {value_offset, static_cast<uint32_t>(payload.size() - entry_start)});
    }
  }
  return payload;
}

Status DecodeBatch(std::string_view payload,
                   std::vector<DecodedEntry>* entries) {
  entries->clear();
  std::string_view p = payload;
  while (!p.empty()) {
    const size_t entry_start = payload.size() - p.size();
    DecodedEntry e;
    e.kind = static_cast<WriteBatch::EntryKind>(p[0]);
    p.remove_prefix(1);
    if ((e.kind != WriteBatch::EntryKind::kPut &&
         e.kind != WriteBatch::EntryKind::kDelete &&
         e.kind != WriteBatch::EntryKind::kDeleteRange) ||
        !GetLengthPrefixed(&p, &e.key) || !GetLengthPrefixed(&p, &e.value)) {
      return Status::Corruption("malformed batch record");
    }
    e.entry_bytes =
        static_cast<uint32_t>(payload.size() - p.size() - entry_start);
    entries->push_back(e);
  }
  return Status::OK();
}

std::string NumberedFileName(const std::string& dir, uint64_t number,
                             std::string_view ext) {
  return StrPrintf("%s/%06llu%.*s", dir.c_str(),
                   static_cast<unsigned long long>(number),
                   static_cast<int>(ext.size()), ext.data());
}

std::vector<std::pair<uint64_t, std::string>> ListNumberedFiles(
    const fs::SimpleFs& fs, const std::string& dir, std::string_view ext) {
  std::vector<std::pair<uint64_t, std::string>> files;
  const std::string prefix = dir + "/";
  for (const std::string& name : fs.List(prefix)) {
    if (name.size() < prefix.size() + ext.size() || !name.ends_with(ext)) {
      continue;
    }
    const std::string_view stem = std::string_view(name).substr(
        prefix.size(), name.size() - prefix.size() - ext.size());
    if (stem.empty() || stem.size() > 19 ||
        stem.find_first_not_of("0123456789") != std::string_view::npos) {
      continue;
    }
    uint64_t number = 0;
    for (const char c : stem) number = number * 10 + (c - '0');
    files.emplace_back(number, name);
  }
  std::sort(files.begin(), files.end());
  return files;
}

}  // namespace ptsb::kv

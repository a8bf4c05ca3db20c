#include "lsm/sst.h"

#include <algorithm>

#include "util/crc32.h"
#include "util/encoding.h"
#include "util/logging.h"

namespace ptsb::lsm {

SstBuilder::SstBuilder(fs::File* file, uint64_t block_bytes,
                       int bloom_bits_per_key, uint64_t write_buffer_bytes)
    : file_(file),
      block_bytes_(block_bytes),
      write_buffer_bytes_(write_buffer_bytes),
      bloom_(bloom_bits_per_key) {}

Status SstBuilder::StageWrite(std::string_view data) {
  staged_.append(data.data(), data.size());
  if (staged_.size() >= write_buffer_bytes_) return FlushStaged();
  return Status::OK();
}

Status SstBuilder::FlushStaged() {
  if (staged_.empty()) return Status::OK();
  PTSB_RETURN_IF_ERROR(file_->Append(staged_));
  staged_.clear();
  return Status::OK();
}

Status SstBuilder::Add(std::string_view key, SequenceNumber seq,
                       EntryType type, std::string_view value) {
  PTSB_CHECK(!finished_);
  if (have_last_) {
    PTSB_CHECK(CompareInternal(largest_, last_seq_, key, seq) < 0)
        << "SST keys out of order: " << largest_ << " then " << key;
  }
  if (!have_last_) smallest_.assign(key.data(), key.size());
  largest_.assign(key.data(), key.size());
  last_seq_ = seq;
  have_last_ = true;

  PutVarint32(&block_buf_, static_cast<uint32_t>(key.size()));
  block_buf_.append(key.data(), key.size());
  PutFixed64(&block_buf_, PackSeqType(seq, type));
  PutVarint32(&block_buf_, static_cast<uint32_t>(value.size()));
  block_buf_.append(value.data(), value.size());

  bloom_.AddKey(key);
  last_key_in_block_.assign(key.data(), key.size());
  num_entries_++;
  payload_bytes_ += key.size() + value.size();

  if (block_buf_.size() >= block_bytes_) {
    return FlushBlock();
  }
  return Status::OK();
}

Status SstBuilder::FlushBlock() {
  if (block_buf_.empty()) return Status::OK();
  const uint32_t crc = MaskCrc(Crc32c(block_buf_));
  PutFixed32(&block_buf_, crc);

  // Index entry points at this block.
  PutVarint32(&index_buf_, static_cast<uint32_t>(last_key_in_block_.size()));
  index_buf_.append(last_key_in_block_);
  PutFixed64(&index_buf_, offset_);
  PutFixed32(&index_buf_, static_cast<uint32_t>(block_buf_.size()));

  PTSB_RETURN_IF_ERROR(StageWrite(block_buf_));
  offset_ += block_buf_.size();
  block_buf_.clear();
  return Status::OK();
}

Status SstBuilder::Finish() {
  PTSB_CHECK(!finished_);
  finished_ = true;
  PTSB_RETURN_IF_ERROR(FlushBlock());

  const uint64_t index_off = offset_;
  const uint32_t index_crc = MaskCrc(Crc32c(index_buf_));
  PutFixed32(&index_buf_, index_crc);
  PTSB_RETURN_IF_ERROR(StageWrite(index_buf_));
  offset_ += index_buf_.size();
  const auto index_size = static_cast<uint32_t>(index_buf_.size());

  const uint64_t bloom_off = offset_;
  std::string bloom_data = bloom_.Finish();
  PutFixed32(&bloom_data, MaskCrc(Crc32c(bloom_data)));
  PTSB_RETURN_IF_ERROR(StageWrite(bloom_data));
  offset_ += bloom_data.size();
  const auto bloom_size = static_cast<uint32_t>(bloom_data.size());

  std::string footer;
  PutFixed64(&footer, index_off);
  PutFixed32(&footer, index_size);
  PutFixed64(&footer, bloom_off);
  PutFixed32(&footer, bloom_size);
  PutFixed64(&footer, num_entries_);
  PutFixed64(&footer, kSstMagic);
  PTSB_RETURN_IF_ERROR(StageWrite(footer));
  offset_ += footer.size();

  PTSB_RETURN_IF_ERROR(FlushStaged());
  PTSB_RETURN_IF_ERROR(file_->Sync());
  return file_->ShrinkToFit();
}

SstReader::SstReader(fs::File* file, std::string bloom_data)
    : file_(file), bloom_(std::move(bloom_data)) {}

StatusOr<std::unique_ptr<SstReader>> SstReader::Open(fs::File* file) {
  const uint64_t size = file->size();
  if (size < static_cast<uint64_t>(kFooterBytes)) {
    return Status::Corruption("SST too small: " + file->name());
  }
  std::string footer(kFooterBytes, '\0');
  PTSB_ASSIGN_OR_RETURN(const uint64_t got,
                        file->ReadAt(size - kFooterBytes, kFooterBytes,
                                     footer.data()));
  if (got != static_cast<uint64_t>(kFooterBytes)) {
    return Status::Corruption("short footer read");
  }
  std::string_view in = footer;
  uint64_t index_off, bloom_off, num_entries, magic;
  uint32_t index_size, bloom_size;
  GetFixed64(&in, &index_off);
  GetFixed32(&in, &index_size);
  GetFixed64(&in, &bloom_off);
  GetFixed32(&in, &bloom_size);
  GetFixed64(&in, &num_entries);
  GetFixed64(&in, &magic);
  if (magic != kSstMagic) {
    return Status::Corruption("bad SST magic in " + file->name());
  }

  // Index.
  std::string index_data(index_size, '\0');
  PTSB_ASSIGN_OR_RETURN(const uint64_t igot,
                        file->ReadAt(index_off, index_size,
                                     index_data.data()));
  if (igot != index_size || index_size < 4) {
    return Status::Corruption("short index read");
  }
  const uint32_t stored_crc =
      DecodeFixed32(index_data.data() + index_size - 4);
  if (UnmaskCrc(stored_crc) !=
      Crc32c(std::string_view(index_data.data(), index_size - 4))) {
    return Status::Corruption("index checksum mismatch");
  }

  // Bloom.
  std::string bloom_data(bloom_size, '\0');
  PTSB_ASSIGN_OR_RETURN(const uint64_t bgot,
                        file->ReadAt(bloom_off, bloom_size,
                                     bloom_data.data()));
  if (bgot != bloom_size || bloom_size < 4) {
    return Status::Corruption("short bloom read");
  }
  const uint32_t bloom_crc =
      DecodeFixed32(bloom_data.data() + bloom_size - 4);
  bloom_data.resize(bloom_size - 4);
  if (UnmaskCrc(bloom_crc) != Crc32c(bloom_data)) {
    return Status::Corruption("bloom checksum mismatch");
  }

  auto reader =
      std::unique_ptr<SstReader>(new SstReader(file, std::move(bloom_data)));
  reader->num_entries_ = num_entries;
  reader->file_bytes_ = size;
  std::string_view idx(index_data.data(), index_size - 4);
  while (!idx.empty()) {
    IndexEntry e;
    std::string_view key;
    uint64_t off;
    uint32_t sz;
    uint32_t klen;
    if (!GetVarint32(&idx, &klen) || idx.size() < klen) {
      return Status::Corruption("bad index entry");
    }
    key = idx.substr(0, klen);
    idx.remove_prefix(klen);
    if (!GetFixed64(&idx, &off) || !GetFixed32(&idx, &sz)) {
      return Status::Corruption("bad index entry");
    }
    e.last_key.assign(key.data(), key.size());
    e.offset = off;
    e.size = sz;
    reader->blocks_.push_back(std::move(e));
  }
  return reader;
}

uint64_t SstReader::PinnedBytes() const {
  uint64_t n = bloom_.SizeBytes();
  for (const auto& b : blocks_) n += b.last_key.size() + 16;
  return n;
}

Status SstReader::ReadBlock(size_t block_index, std::string* out) const {
  const IndexEntry& e = blocks_[block_index];
  out->resize(e.size);
  PTSB_ASSIGN_OR_RETURN(const uint64_t got,
                        file_->ReadAt(e.offset, e.size, out->data()));
  if (got != e.size || e.size < 4) {
    return Status::Corruption("short block read");
  }
  const uint32_t crc = DecodeFixed32(out->data() + e.size - 4);
  out->resize(e.size - 4);
  if (UnmaskCrc(crc) != Crc32c(*out)) {
    return Status::Corruption("block checksum mismatch in " + file_->name());
  }
  return Status::OK();
}

size_t SstReader::FindBlock(std::string_view key) const {
  // Binary search: first block with last_key >= key.
  size_t lo = 0, hi = blocks_.size();
  while (lo < hi) {
    const size_t mid = (lo + hi) / 2;
    if (blocks_[mid].last_key < key) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

StatusOr<SstReader::GetResult> SstReader::Get(std::string_view key) {
  GetResult r;
  if (!bloom_.MayContain(key)) {
    r.bloom_negative = true;
    return r;
  }
  // From here on, a miss with a real filter present is a false
  // positive: the filter admitted a key the table does not hold.
  const bool bloom_admitted = !bloom_.empty();
  const size_t bi = FindBlock(key);
  if (bi >= blocks_.size()) {
    r.bloom_false_positive = bloom_admitted;
    return r;
  }
  std::string block;
  PTSB_RETURN_IF_ERROR(ReadBlock(bi, &block));
  std::string_view in = block;
  while (!in.empty()) {
    uint32_t klen, vlen;
    uint64_t tag;
    if (!GetVarint32(&in, &klen) || in.size() < klen) {
      return Status::Corruption("bad record");
    }
    const std::string_view rkey = in.substr(0, klen);
    in.remove_prefix(klen);
    if (!GetFixed64(&in, &tag) || !GetVarint32(&in, &vlen) ||
        in.size() < vlen) {
      return Status::Corruption("bad record");
    }
    const std::string_view rvalue = in.substr(0, vlen);
    in.remove_prefix(vlen);
    if (rkey == key) {
      // Internal order puts the newest version first.
      r.found = true;
      r.seq = UnpackSeq(tag);
      r.type = UnpackType(tag);
      r.value.assign(rvalue.data(), rvalue.size());
      return r;
    }
    if (rkey > key) break;
  }
  r.bloom_false_positive = bloom_admitted;
  return r;
}

SstReader::Iterator::Iterator(SstReader* reader, uint64_t readahead_bytes)
    : reader_(reader), readahead_bytes_(readahead_bytes) {}

Status SstReader::Iterator::LoadSpan(size_t first_block) {
  const auto& blocks = reader_->blocks_;
  if (first_block >= blocks.size()) {
    valid_ = false;
    return Status::OK();
  }
  size_t end = first_block + 1;
  uint64_t span_bytes = blocks[first_block].size;
  // The prefetch cap (LimitSpanTo) bounds batching, never access: a
  // first block at/past the cap still loads as a one-block span.
  const size_t cap = std::max(first_block + 1, span_block_limit_);
  while (end < blocks.size() && end < cap &&
         span_bytes + blocks[end].size <=
             std::max<uint64_t>(readahead_bytes_,
                                blocks[first_block].size)) {
    span_bytes += blocks[end].size;
    end++;
  }
  span_first_ = first_block;
  span_end_ = end;
  span_base_offset_ = blocks[first_block].offset;
  span_data_.resize(span_bytes);
  PTSB_ASSIGN_OR_RETURN(
      const uint64_t got,
      reader_->file_->ReadAt(span_base_offset_, span_bytes,
                             span_data_.data()));
  if (got != span_bytes) return Status::Corruption("short span read");
  return EnterBlock(first_block);
}

Status SstReader::Iterator::EnterBlock(size_t block_index) {
  if (block_index >= reader_->blocks_.size()) {
    valid_ = false;
    return Status::OK();
  }
  if (block_index < span_first_ || block_index >= span_end_) {
    return LoadSpan(block_index);
  }
  const auto& e = reader_->blocks_[block_index];
  block_index_ = block_index;
  const uint64_t rel = e.offset - span_base_offset_;
  const std::string_view framed(span_data_.data() + rel, e.size);
  if (e.size < 4) return Status::Corruption("undersized block");
  const uint32_t crc = DecodeFixed32(framed.data() + e.size - 4);
  const std::string_view body = framed.substr(0, e.size - 4);
  if (UnmaskCrc(crc) != Crc32c(body)) {
    return Status::Corruption("block checksum mismatch in " +
                              reader_->file_->name());
  }
  remaining_ = body;
  valid_ = ParseCurrent();
  if (!valid_ && block_index + 1 < reader_->blocks_.size()) {
    return EnterBlock(block_index + 1);
  }
  return Status::OK();
}

bool SstReader::Iterator::ParseCurrent() {
  if (remaining_.empty()) return false;
  uint32_t klen, vlen;
  uint64_t tag;
  if (!GetVarint32(&remaining_, &klen) || remaining_.size() < klen) {
    return false;
  }
  key_.assign(remaining_.data(), klen);
  remaining_.remove_prefix(klen);
  if (!GetFixed64(&remaining_, &tag) || !GetVarint32(&remaining_, &vlen) ||
      remaining_.size() < vlen) {
    return false;
  }
  seq_ = UnpackSeq(tag);
  type_ = UnpackType(tag);
  value_.assign(remaining_.data(), vlen);
  remaining_.remove_prefix(vlen);
  return true;
}

Status SstReader::Iterator::SeekToFirst() { return LoadSpan(0); }

Status SstReader::Iterator::Seek(std::string_view target) {
  PTSB_RETURN_IF_ERROR(LoadSpan(reader_->FindBlock(target)));
  while (valid_ && key_ < target) {
    PTSB_RETURN_IF_ERROR(Next());
  }
  return Status::OK();
}

Status SstReader::Iterator::Next() {
  PTSB_DCHECK(valid_);
  if (ParseCurrent()) return Status::OK();
  return EnterBlock(block_index_ + 1);
}

}  // namespace ptsb::lsm

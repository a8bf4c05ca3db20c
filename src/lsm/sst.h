// Sorted string table: the on-disk file format of the LSM engine.
//
// Layout:
//   [data block]* [index block] [bloom filter] [footer]
// Data block:  (varint klen, key, fixed64 tag, varint vlen, value)* crc32
// Index block: (varint klen, last_key, fixed64 offset, fixed32 size)* crc32
// Bloom:       filter bytes, crc32
// Footer:      fixed64 index_off, fixed32 index_sz, fixed64 bloom_off,
//              fixed32 bloom_sz, fixed64 num_entries, fixed64 magic
//
// Readers keep the index and bloom pinned in memory (as RocksDB pins
// filter/index blocks); data blocks are read from the device on demand,
// which is what the paper's 10 MiB-cache configuration effectively does.
#ifndef PTSB_LSM_SST_H_
#define PTSB_LSM_SST_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "fs/file.h"
#include "lsm/bloom.h"
#include "lsm/format.h"
#include "util/status.h"

namespace ptsb::lsm {

class SstBuilder {
 public:
  // Does not take ownership of `file`. Output is staged through a write
  // buffer (like RocksDB's WritableFileWriter) so the device sees large
  // sequential write commands instead of per-block ones.
  SstBuilder(fs::File* file, uint64_t block_bytes, int bloom_bits_per_key,
             uint64_t write_buffer_bytes = 256 << 10);

  // Keys must arrive in strictly increasing internal order.
  Status Add(std::string_view key, SequenceNumber seq, EntryType type,
             std::string_view value);

  // Flushes everything, syncs, trims the allocation. No Add after Finish.
  Status Finish();

  uint64_t num_entries() const { return num_entries_; }
  uint64_t file_bytes() const { return offset_; }
  // Flushed bytes plus the buffered block: the rollover check.
  uint64_t EstimatedBytes() const { return offset_ + block_buf_.size(); }
  const std::string& smallest() const { return smallest_; }
  const std::string& largest() const { return largest_; }
  // Uncompressed user payload added so far (for compaction accounting).
  uint64_t payload_bytes() const { return payload_bytes_; }

 private:
  Status FlushBlock();
  Status StageWrite(std::string_view data);
  Status FlushStaged();

  fs::File* file_;
  uint64_t block_bytes_;
  uint64_t write_buffer_bytes_;
  std::string staged_;
  BloomFilterBuilder bloom_;
  std::string block_buf_;
  std::string index_buf_;
  std::string last_key_in_block_;
  std::string smallest_;
  std::string largest_;
  SequenceNumber last_seq_ = 0;
  bool have_last_ = false;
  uint64_t offset_ = 0;
  uint64_t num_entries_ = 0;
  uint64_t payload_bytes_ = 0;
  bool finished_ = false;
};

class SstReader {
 public:
  // Opens the table: reads footer, index and bloom (charged as device
  // reads). `file` must outlive the reader.
  static StatusOr<std::unique_ptr<SstReader>> Open(fs::File* file);

  struct GetResult {
    bool found = false;
    EntryType type = EntryType::kPut;
    SequenceNumber seq = 0;
    std::string value;
    // Bloom-filter verdict for this probe (both false when the table
    // has no filter): rejected without any device read, or admitted
    // and then not found — a wasted data-block read.
    bool bloom_negative = false;
    bool bloom_false_positive = false;
  };
  // Finds the newest entry for user key (tables store versions in internal
  // order, newest first).
  StatusOr<GetResult> Get(std::string_view key);

  uint64_t num_entries() const { return num_entries_; }
  uint64_t file_bytes() const { return file_bytes_; }
  // In-memory footprint of the pinned index + bloom.
  uint64_t PinnedBytes() const;

  // The pinned block index, exposed as (last user key, on-disk size)
  // anchors: the byte-weighted candidate cut points the compaction
  // range splitter partitions input tables on. Splitting at a block's
  // last key keeps every version of one user key in one subrange.
  size_t NumBlocks() const { return blocks_.size(); }
  const std::string& BlockLastKey(size_t i) const {
    return blocks_[i].last_key;
  }
  uint32_t BlockBytes(size_t i) const { return blocks_[i].size; }
  // Index of the first block whose last key >= key (== NumBlocks() if
  // none) — the block a subcompaction bound lands in.
  size_t FindBlock(std::string_view key) const;

  class Iterator {
   public:
    // `readahead_bytes` batches sequential block reads into large device
    // commands (RocksDB's compaction readahead); 0 reads block by block.
    explicit Iterator(SstReader* reader, uint64_t readahead_bytes = 0);
    bool Valid() const { return valid_; }
    // Caps span prefetch at block `end_block` (exclusive): a
    // subcompaction stops batching at its subrange's last needed block
    // instead of reading the whole readahead window past its end key.
    // Blocks at/past the cap are still readable one at a time (a key
    // run can spill one block past a subrange bound).
    void LimitSpanTo(size_t end_block) { span_block_limit_ = end_block; }
    Status SeekToFirst();
    // Positions at the first entry with user key >= target.
    Status Seek(std::string_view target);
    Status Next();
    std::string_view key() const { return key_; }
    SequenceNumber seq() const { return seq_; }
    EntryType type() const { return type_; }
    std::string_view value() const { return value_; }

   private:
    // Reads a run of blocks starting at `first_block` covering up to the
    // readahead budget, then enters the first block of the span.
    Status LoadSpan(size_t first_block);
    // Validates and enters a block that lies within the current span.
    Status EnterBlock(size_t block_index);
    bool ParseCurrent();

    SstReader* reader_;
    uint64_t readahead_bytes_;
    size_t span_block_limit_ = static_cast<size_t>(-1);
    size_t span_first_ = 0;  // first block index in span_data_
    size_t span_end_ = 0;    // one past the last block in span_data_
    uint64_t span_base_offset_ = 0;
    std::string span_data_;
    size_t block_index_ = 0;
    std::string_view remaining_;
    bool valid_ = false;
    std::string key_;
    SequenceNumber seq_ = 0;
    EntryType type_ = EntryType::kPut;
    std::string value_;
  };

 private:
  struct IndexEntry {
    std::string last_key;
    uint64_t offset;
    uint32_t size;  // block size including crc trailer
  };

  SstReader(fs::File* file, std::string bloom_data);

  Status ReadBlock(size_t block_index, std::string* out) const;

  fs::File* file_;
  std::vector<IndexEntry> blocks_;
  BloomFilter bloom_;
  uint64_t num_entries_ = 0;
  uint64_t file_bytes_ = 0;
};

}  // namespace ptsb::lsm

#endif  // PTSB_LSM_SST_H_

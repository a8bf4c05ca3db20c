#include "lsm/compaction.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"

namespace ptsb::lsm {

uint64_t LevelTargetBytes(const LsmOptions& options, int level) {
  PTSB_DCHECK(level >= 1);
  double target = static_cast<double>(options.l1_target_bytes);
  for (int l = 1; l < level; l++) target *= options.level_size_ratio;
  return static_cast<uint64_t>(target);
}

double LevelScore(const VersionSet& versions, const LsmOptions& options,
                  int level) {
  if (level == 0) {
    return static_cast<double>(versions.LevelFiles(0).size()) /
           static_cast<double>(options.l0_compaction_trigger);
  }
  if (level >= versions.num_levels() - 1) return 0;  // last level: no target
  return static_cast<double>(versions.LevelBytes(level)) /
         static_cast<double>(LevelTargetBytes(options, level));
}

bool CanDropTombstones(const VersionSet& versions, int output_level) {
  for (int l = output_level + 1; l < versions.num_levels(); l++) {
    if (!versions.LevelFiles(l).empty()) return false;
  }
  return true;
}

namespace {

// Key span of a set of files.
void RangeOf(const std::vector<FileMeta>& files, std::string* smallest,
             std::string* largest) {
  for (const FileMeta& f : files) {
    if (smallest->empty() || f.smallest < *smallest) *smallest = f.smallest;
    if (largest->empty() || f.largest > *largest) *largest = f.largest;
  }
}

}  // namespace

CompactionPick PickCompaction(const VersionSet& versions,
                              const LsmOptions& options,
                              std::vector<uint64_t>* cursors) {
  CompactionPick pick;
  cursors->resize(versions.num_levels(), 0);

  int best_level = -1;
  double best_score = 1.0;  // only levels at/over their trigger
  for (int l = 0; l < versions.num_levels() - 1; l++) {
    const double score = LevelScore(versions, options, l);
    if (score >= best_score) {
      best_score = score;
      best_level = l;
    }
  }
  if (best_level < 0) return pick;

  pick.valid = true;
  pick.level = best_level;
  pick.score = best_score;

  if (best_level == 0) {
    // All of L0 (files overlap; merging them all at once keeps the
    // invariant simple, as LevelDB does).
    pick.inputs0 = versions.LevelFiles(0);
  } else {
    // RocksDB's kMinOverlappingRatio heuristic: compact the file whose
    // key range overlaps the least data in the next level (per input
    // byte), which substantially lowers WA-A versus naive round-robin.
    const auto& files = versions.LevelFiles(best_level);
    PTSB_CHECK(!files.empty());
    size_t best_idx = (*cursors)[best_level] % files.size();
    double best_ratio = -1;
    for (size_t i = 0; i < files.size(); i++) {
      uint64_t overlap = 0;
      for (const FileMeta& f :
           versions.Overlapping(best_level + 1, files[i].smallest,
                                files[i].largest)) {
        overlap += f.file_bytes;
      }
      const double ratio = static_cast<double>(overlap) /
                           static_cast<double>(files[i].file_bytes + 1);
      if (best_ratio < 0 || ratio < best_ratio) {
        best_ratio = ratio;
        best_idx = i;
      }
    }
    (*cursors)[best_level] = best_idx + 1;
    pick.inputs0.push_back(files[best_idx]);
  }

  std::string smallest, largest;
  RangeOf(pick.inputs0, &smallest, &largest);
  pick.inputs1 = versions.Overlapping(best_level + 1, smallest, largest);
  pick.drop_tombstones = CanDropTombstones(versions, best_level + 1);
  pick.trivial_move = best_level >= 1 && pick.inputs0.size() == 1 &&
                      pick.inputs1.empty();
  return pick;
}

std::vector<std::string> SplitCompactionRange(
    const std::vector<SstReader*>& readers, int k) {
  std::vector<std::string> bounds;
  if (k <= 1) return bounds;
  // Anchors: every input block's (last user key, on-disk bytes), from
  // the pinned indexes — the finest cut points available without I/O.
  struct Anchor {
    const std::string* key;
    uint64_t bytes;
  };
  std::vector<Anchor> anchors;
  uint64_t total = 0;
  for (const SstReader* r : readers) {
    for (size_t i = 0; i < r->NumBlocks(); i++) {
      anchors.push_back({&r->BlockLastKey(i), r->BlockBytes(i)});
      total += r->BlockBytes(i);
    }
  }
  if (anchors.size() < 2 || total == 0) return bounds;
  std::sort(anchors.begin(), anchors.end(),
            [](const Anchor& a, const Anchor& b) { return *a.key < *b.key; });
  const std::string& top = *anchors.back().key;
  // Walk the cumulative byte weight and cut at total*i/k. Cuts that
  // collide (dense duplicates) or land on the top key (which would
  // leave an empty tail subrange) are dropped — callers fall back to
  // fewer subranges, or to an unsplit job when none survive.
  uint64_t cum = 0;
  size_t a = 0;
  for (int i = 1; i < k; i++) {
    const uint64_t target = total * static_cast<uint64_t>(i) /
                            static_cast<uint64_t>(k);
    while (a < anchors.size() && cum + anchors[a].bytes <= target) {
      cum += anchors[a].bytes;
      a++;
    }
    if (a == 0 || a >= anchors.size()) continue;
    const std::string& key = *anchors[a - 1].key;
    if (key >= top) break;
    if (!bounds.empty() && key <= bounds.back()) continue;
    bounds.push_back(key);
  }
  return bounds;
}

CompactionJob::CompactionJob(fs::SimpleFs* fs, std::string dir,
                             VersionSet* versions, const LsmOptions& options,
                             CompactionPick pick)
    : fs_(fs),
      dir_(std::move(dir)),
      versions_(versions),
      options_(options),
      pick_(std::move(pick)) {}

CompactionJob::~CompactionJob() = default;

Status CompactionJob::Prepare(const std::vector<SstReader*>& readers) {
  PTSB_CHECK(!prepared_);
  prepared_ = true;
  PTSB_CHECK_EQ(readers.size(), pick_.inputs0.size() + pick_.inputs1.size());
  size_t r = 0;
  auto borrow_input = [&](const FileMeta& meta) -> Status {
    Input in;
    in.meta = meta;
    in.reader = readers[r++];
    in.iter = std::make_unique<SstReader::Iterator>(
        in.reader, options_.compaction_readahead_bytes);
    if (!end_key_.empty()) {
      // Don't prefetch past this subrange: cap the span at the block
      // holding end_key_ (blocks are sorted by last key, so the first
      // block whose last key covers it is the last one needed).
      in.iter->LimitSpanTo(in.reader->FindBlock(end_key_) + 1);
    }
    if (begin_key_.empty()) {
      PTSB_RETURN_IF_ERROR(in.iter->SeekToFirst());
    } else {
      // The lower bound is exclusive: the previous subrange owns every
      // version of begin_key_ itself.
      PTSB_RETURN_IF_ERROR(in.iter->Seek(begin_key_));
      while (in.iter->Valid() && in.iter->key() == begin_key_) {
        PTSB_RETURN_IF_ERROR(in.iter->Next());
      }
    }
    inputs_.push_back(std::move(in));
    return Status::OK();
  };
  for (const FileMeta& f : pick_.inputs0) {
    PTSB_RETURN_IF_ERROR(borrow_input(f));
  }
  for (const FileMeta& f : pick_.inputs1) {
    PTSB_RETURN_IF_ERROR(borrow_input(f));
  }
  return Status::OK();
}

int CompactionJob::FindSmallest() const {
  int best = -1;
  for (size_t i = 0; i < inputs_.size(); i++) {
    const auto& in = inputs_[i];
    if (!in.iter->Valid()) continue;
    if (best < 0 ||
        CompareInternal(in.iter->key(), in.iter->seq(),
                        inputs_[best].iter->key(),
                        inputs_[best].iter->seq()) < 0) {
      best = static_cast<int>(i);
    }
  }
  return best;
}

Status CompactionJob::OpenOutput() {
  output_number_ = versions_->NewFileNumber();
  PTSB_ASSIGN_OR_RETURN(
      output_file_,
      fs_->Create(kv::NumberedFileName(dir_, output_number_, ".sst")));
  builder_ = std::make_unique<SstBuilder>(output_file_, options_.block_bytes,
                                          kBloomBitsPerKey);
  return Status::OK();
}

Status CompactionJob::FinishOutput() {
  if (builder_ == nullptr) return Status::OK();
  if (builder_->num_entries() == 0) {
    builder_.reset();
    PTSB_RETURN_IF_ERROR(
        fs_->Delete(kv::NumberedFileName(dir_, output_number_, ".sst")));
    output_file_ = nullptr;
    return Status::OK();
  }
  PTSB_RETURN_IF_ERROR(builder_->Finish());
  FileMeta meta;
  meta.number = output_number_;
  meta.file_bytes = builder_->file_bytes();
  meta.num_entries = builder_->num_entries();
  meta.smallest = builder_->smallest();
  meta.largest = builder_->largest();
  io_.bytes_written += builder_->file_bytes();
  outputs_.emplace_back(std::move(meta), output_number_);
  builder_.reset();
  output_file_ = nullptr;
  return Status::OK();
}

StatusOr<bool> CompactionJob::Step(uint64_t max_bytes) {
  PTSB_CHECK(prepared_);
  if (finished_) return true;

  uint64_t consumed = 0;
  while (consumed < max_bytes) {
    const int idx = FindSmallest();
    if (idx < 0 || (!end_key_.empty() && inputs_[idx].iter->key() > end_key_)) {
      // All inputs drained — or the smallest remaining entry is past
      // this subrange's inclusive upper bound, so every input is.
      PTSB_RETURN_IF_ERROR(FinishOutput());
      finished_ = true;
      return true;
    }
    auto& iter = *inputs_[idx].iter;
    const uint64_t entry_bytes = iter.key().size() + iter.value().size() + 16;
    consumed += entry_bytes;
    io_.bytes_read += entry_bytes;

    const bool shadowed = emitted_any_ && iter.key() == last_emitted_key_;
    const bool drop_tombstone =
        pick_.drop_tombstones && iter.type() == EntryType::kDelete;
    if (shadowed || drop_tombstone) {
      io_.entries_dropped++;
      if (!shadowed) {
        // A dropped tombstone still consumes its key slot.
        last_emitted_key_.assign(iter.key().data(), iter.key().size());
        emitted_any_ = true;
      }
      PTSB_RETURN_IF_ERROR(iter.Next());
      continue;
    }

    if (builder_ == nullptr) PTSB_RETURN_IF_ERROR(OpenOutput());
    PTSB_RETURN_IF_ERROR(
        builder_->Add(iter.key(), iter.seq(), iter.type(), iter.value()));
    last_emitted_key_.assign(iter.key().data(), iter.key().size());
    emitted_any_ = true;
    if (builder_->EstimatedBytes() >= options_.sst_target_bytes) {
      PTSB_RETURN_IF_ERROR(FinishOutput());
    }
    PTSB_RETURN_IF_ERROR(iter.Next());
  }
  return false;
}

}  // namespace ptsb::lsm

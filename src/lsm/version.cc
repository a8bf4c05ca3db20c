#include "lsm/version.h"

#include "fs/file.h"

#include <algorithm>

#include "util/encoding.h"
#include "util/human.h"
#include "util/logging.h"

namespace ptsb::lsm {

namespace {
enum EditTag : uint32_t {
  kNextFileNumber = 1,
  kLastSequence = 2,
  kLogNumber = 3,
  kAddedFile = 4,
  kRemovedFile = 5,
  kRangeTombstones = 6,  // full-list replacement (count + entries)
};
}  // namespace

std::string VersionEdit::Encode() const {
  std::string out;
  if (next_file_number) {
    PutVarint32(&out, kNextFileNumber);
    PutVarint64(&out, *next_file_number);
  }
  if (last_sequence) {
    PutVarint32(&out, kLastSequence);
    PutVarint64(&out, *last_sequence);
  }
  if (log_number) {
    PutVarint32(&out, kLogNumber);
    PutVarint64(&out, *log_number);
  }
  for (const auto& [level, f] : added) {
    PutVarint32(&out, kAddedFile);
    PutVarint32(&out, static_cast<uint32_t>(level));
    PutVarint64(&out, f.number);
    PutVarint64(&out, f.file_bytes);
    PutVarint64(&out, f.num_entries);
    PutLengthPrefixed(&out, f.smallest);
    PutLengthPrefixed(&out, f.largest);
  }
  for (const auto& [level, number] : removed) {
    PutVarint32(&out, kRemovedFile);
    PutVarint32(&out, static_cast<uint32_t>(level));
    PutVarint64(&out, number);
  }
  if (range_tombstones) {
    PutVarint32(&out, kRangeTombstones);
    PutVarint32(&out, static_cast<uint32_t>(range_tombstones->size()));
    for (const RangeTombstone& t : *range_tombstones) {
      PutLengthPrefixed(&out, t.begin);
      PutLengthPrefixed(&out, t.end);
      PutVarint64(&out, t.seq);
    }
  }
  return out;
}

StatusOr<VersionEdit> VersionEdit::Decode(std::string_view in) {
  VersionEdit edit;
  while (!in.empty()) {
    uint32_t tag;
    if (!GetVarint32(&in, &tag)) {
      return Status::Corruption("bad edit tag");
    }
    uint64_t v64;
    switch (tag) {
      case kNextFileNumber:
        if (!GetVarint64(&in, &v64)) return Status::Corruption("bad edit");
        edit.next_file_number = v64;
        break;
      case kLastSequence:
        if (!GetVarint64(&in, &v64)) return Status::Corruption("bad edit");
        edit.last_sequence = v64;
        break;
      case kLogNumber:
        if (!GetVarint64(&in, &v64)) return Status::Corruption("bad edit");
        edit.log_number = v64;
        break;
      case kAddedFile: {
        uint32_t level;
        FileMeta f;
        std::string_view smallest, largest;
        if (!GetVarint32(&in, &level) || !GetVarint64(&in, &f.number) ||
            !GetVarint64(&in, &f.file_bytes) ||
            !GetVarint64(&in, &f.num_entries) ||
            !GetLengthPrefixed(&in, &smallest) ||
            !GetLengthPrefixed(&in, &largest)) {
          return Status::Corruption("bad added-file edit");
        }
        f.smallest.assign(smallest.data(), smallest.size());
        f.largest.assign(largest.data(), largest.size());
        edit.added.emplace_back(static_cast<int>(level), std::move(f));
        break;
      }
      case kRemovedFile: {
        uint32_t level;
        if (!GetVarint32(&in, &level) || !GetVarint64(&in, &v64)) {
          return Status::Corruption("bad removed-file edit");
        }
        edit.removed.emplace_back(static_cast<int>(level), v64);
        break;
      }
      case kRangeTombstones: {
        uint32_t count;
        if (!GetVarint32(&in, &count)) {
          return Status::Corruption("bad range-tombstone edit");
        }
        std::vector<RangeTombstone> list;
        list.reserve(count);
        for (uint32_t i = 0; i < count; i++) {
          std::string_view begin, end;
          uint64_t seq;
          if (!GetLengthPrefixed(&in, &begin) ||
              !GetLengthPrefixed(&in, &end) || !GetVarint64(&in, &seq)) {
            return Status::Corruption("bad range-tombstone edit");
          }
          RangeTombstone t;
          t.begin.assign(begin.data(), begin.size());
          t.end.assign(end.data(), end.size());
          t.seq = seq;
          list.push_back(std::move(t));
        }
        edit.range_tombstones = std::move(list);
        break;
      }
      default:
        return Status::Corruption("unknown edit tag");
    }
  }
  return edit;
}

VersionSet::VersionSet(fs::SimpleFs* fs, std::string dir, int max_levels)
    : fs_(fs), dir_(std::move(dir)), levels_(max_levels) {}

std::string VersionSet::ManifestName(uint64_t number) const {
  return StrPrintf("%s/MANIFEST-%06llu", dir_.c_str(),
                   static_cast<unsigned long long>(number));
}

std::string VersionSet::CurrentName() const { return dir_ + "/CURRENT"; }

void VersionSet::Apply(const VersionEdit& edit) {
  if (edit.next_file_number) next_file_number_ = *edit.next_file_number;
  if (edit.last_sequence) last_sequence_ = *edit.last_sequence;
  if (edit.log_number) log_number_ = *edit.log_number;
  if (edit.range_tombstones) tombstones_ = *edit.range_tombstones;
  for (const auto& [level, number] : edit.removed) {
    auto& files = levels_[level];
    files.erase(std::remove_if(files.begin(), files.end(),
                               [n = number](const FileMeta& f) {
                                 return f.number == n;
                               }),
                files.end());
  }
  // One edit may carry many additions (a memtable flush, or a
  // partitioned subcompaction installing every subrange's outputs as
  // one atomic record); the re-sort below makes the order they arrive
  // in irrelevant, but each file number must appear at most once.
#ifndef NDEBUG
  {
    std::vector<uint64_t> nums;
    for (const auto& [level, f] : edit.added) nums.push_back(f.number);
    std::sort(nums.begin(), nums.end());
    PTSB_DCHECK(std::adjacent_find(nums.begin(), nums.end()) == nums.end())
        << "duplicate file number added by one VersionEdit";
  }
#endif
  for (const auto& [level, f] : edit.added) {
    // Never hand out a number at or below one we have seen in use.
    next_file_number_ = std::max(next_file_number_, f.number + 1);
    levels_[level].push_back(f);
  }
  if (edit.log_number) {
    next_file_number_ = std::max(next_file_number_, *edit.log_number + 1);
  }
  // Restore ordering invariants.
  std::sort(levels_[0].begin(), levels_[0].end(),
            [](const FileMeta& a, const FileMeta& b) {
              return a.number > b.number;  // newest first
            });
  for (size_t l = 1; l < levels_.size(); l++) {
    std::sort(levels_[l].begin(), levels_[l].end(),
              [](const FileMeta& a, const FileMeta& b) {
                return a.smallest < b.smallest;
              });
  }
}

Status VersionSet::Recover() {
  if (!fs_->Exists(CurrentName())) return WriteSnapshot("");  // Fresh store.
  // Read CURRENT.
  PTSB_ASSIGN_OR_RETURN(fs::File * current, fs_->Open(CurrentName()));
  std::string manifest_name(current->size(), '\0');
  PTSB_ASSIGN_OR_RETURN(const uint64_t got,
                        current->ReadAt(0, manifest_name.size(),
                                        manifest_name.data()));
  manifest_name.resize(got);
  if (manifest_name.empty()) return Status::Corruption("empty CURRENT");

  PTSB_ASSIGN_OR_RETURN(fs::File * manifest, fs_->Open(manifest_name));
  PTSB_RETURN_IF_ERROR(kv::ReplayLog(
      manifest, [&](uint64_t, std::string_view payload) -> Status {
        PTSB_ASSIGN_OR_RETURN(VersionEdit edit, VersionEdit::Decode(payload));
        Apply(edit);
        return Status::OK();
      }));
  // Never append to the manifest just replayed (a torn tail must stay its
  // last record): carry on in a fresh snapshot manifest.
  return WriteSnapshot(manifest_name);
}

Status VersionSet::WriteSnapshot(const std::string& obsolete) {
  const uint64_t number = next_file_number_++;
  // Full state as one edit, into a fresh manifest.
  VersionEdit snapshot;
  snapshot.next_file_number = next_file_number_;
  snapshot.last_sequence = last_sequence_;
  snapshot.log_number = log_number_;
  snapshot.range_tombstones = tombstones_;
  for (int level = 0; level < num_levels(); level++) {
    for (const FileMeta& f : levels_[level]) {
      snapshot.added.emplace_back(level, f);
    }
  }
  const std::string name = ManifestName(number);
  if (fs_->Exists(name)) PTSB_RETURN_IF_ERROR(fs_->Delete(name));
  PTSB_ASSIGN_OR_RETURN(fs::File * file, fs_->Create(name));
  auto writer = std::make_unique<kv::LogWriter>(file, /*sync_every_bytes=*/1,
                                                /*buffer_bytes=*/0);
  PTSB_RETURN_IF_ERROR(writer->Add(snapshot.Encode()).status());

  // Point CURRENT at it.
  const std::string tmp = CurrentName() + ".tmp";
  if (fs_->Exists(tmp)) PTSB_RETURN_IF_ERROR(fs_->Delete(tmp));
  PTSB_ASSIGN_OR_RETURN(fs::File * cur, fs_->Create(tmp));
  PTSB_RETURN_IF_ERROR(cur->Append(name));
  PTSB_RETURN_IF_ERROR(cur->Sync());
  PTSB_RETURN_IF_ERROR(fs_->Rename(tmp, CurrentName()));

  manifest_number_ = number;
  manifest_ = std::move(writer);
  manifest_edits_ = 0;
  if (!obsolete.empty()) PTSB_RETURN_IF_ERROR(fs_->Delete(obsolete));
  return Status::OK();
}

Status VersionSet::LogAndApply(const VersionEdit& edit) {
  Apply(edit);
  // Rotate the manifest periodically so it does not grow unboundedly.
  constexpr uint64_t kEditsPerManifest = 512;
  if (manifest_edits_ >= kEditsPerManifest) {
    return WriteSnapshot(ManifestName(manifest_number_));
  }
  // Stamp the counters so that a crash right after this record replays to
  // a state that never reuses a file number or a sequence number.
  VersionEdit stamped = edit;
  stamped.next_file_number = next_file_number_;
  stamped.last_sequence = last_sequence_;
  PTSB_RETURN_IF_ERROR(manifest_->Add(stamped.Encode()).status());
  manifest_edits_++;
  return Status::OK();
}

uint64_t VersionSet::LevelBytes(int level) const {
  uint64_t n = 0;
  for (const FileMeta& f : levels_[level]) n += f.file_bytes;
  return n;
}

uint64_t VersionSet::TotalSstBytes() const {
  uint64_t n = 0;
  for (int l = 0; l < num_levels(); l++) n += LevelBytes(l);
  return n;
}

uint64_t VersionSet::TotalEntries() const {
  uint64_t n = 0;
  for (const auto& level : levels_) {
    for (const FileMeta& f : level) n += f.num_entries;
  }
  return n;
}

int VersionSet::MaxPopulatedLevel() const {
  for (int l = num_levels() - 1; l >= 0; l--) {
    if (!levels_[l].empty()) return l;
  }
  return -1;
}

std::vector<FileMeta> VersionSet::Overlapping(int level,
                                              std::string_view smallest,
                                              std::string_view largest) const {
  PTSB_DCHECK(level >= 1);
  // L1+ files are sorted and disjoint, so `largest` ascends with `smallest`:
  // the first candidate is the first file ending at or after `smallest`,
  // and the overlap run ends at the first file starting after `largest`.
  const std::vector<FileMeta>& files = levels_[level];
  auto it = std::lower_bound(
      files.begin(), files.end(), smallest,
      [](const FileMeta& f, std::string_view key) { return f.largest < key; });
  std::vector<FileMeta> out;
  for (; it != files.end() && it->smallest <= largest; ++it) {
    out.push_back(*it);
  }
  return out;
}

Status VersionSet::CheckInvariants() const {
  for (size_t i = 1; i < levels_[0].size(); i++) {
    if (levels_[0][i - 1].number <= levels_[0][i].number) {
      return Status::Corruption("L0 not newest-first");
    }
  }
  for (size_t l = 1; l < levels_.size(); l++) {
    const auto& files = levels_[l];
    for (size_t i = 0; i < files.size(); i++) {
      if (files[i].smallest > files[i].largest) {
        return Status::Corruption("file with inverted range");
      }
      if (i > 0 && files[i - 1].largest >= files[i].smallest) {
        return Status::Corruption("overlapping files in L" +
                                  std::to_string(l));
      }
    }
  }
  return Status::OK();
}

}  // namespace ptsb::lsm

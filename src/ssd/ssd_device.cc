#include "ssd/ssd_device.h"

#include <algorithm>
#include <cstring>

#include "util/logging.h"

namespace ptsb::ssd {

SsdDevice::SsdDevice(const SsdConfig& config, sim::SimClock* clock)
    : config_(config),
      clock_(clock),
      ftl_(std::make_unique<FlashTranslationLayer>(
          config.geometry, config.host_open_blocks)) {
  const uint64_t chunks =
      (config_.geometry.LogicalPages() + kPagesPerChunk - 1) / kPagesPerChunk;
  chunks_.resize(chunks);
  channels_.resize(static_cast<size_t>(std::max(1, config_.channels)));
}

SsdDevice::~SsdDevice() = default;

uint8_t* SsdDevice::ChunkFor(uint64_t lpn, bool create) {
  const uint64_t idx = lpn / kPagesPerChunk;
  if (!chunks_[idx]) {
    if (!create) return nullptr;
    const uint64_t bytes = kPagesPerChunk * config_.geometry.page_bytes;
    chunks_[idx] = std::make_unique<uint8_t[]>(bytes);
    std::memset(chunks_[idx].get(), 0, bytes);
  }
  return chunks_[idx].get();
}

void SsdDevice::CopyIn(uint64_t lpn, const uint8_t* src) {
  const uint64_t page = config_.geometry.page_bytes;
  uint8_t* chunk = ChunkFor(lpn, /*create=*/true);
  std::memcpy(chunk + (lpn % kPagesPerChunk) * page, src, page);
}

void SsdDevice::CopyOut(uint64_t lpn, uint8_t* dst) const {
  const uint64_t page = config_.geometry.page_bytes;
  const uint64_t idx = lpn / kPagesPerChunk;
  const uint8_t* chunk = chunks_[idx].get();
  if (chunk == nullptr) {
    std::memset(dst, 0, page);
  } else {
    std::memcpy(dst, chunk + (lpn % kPagesPerChunk) * page, page);
  }
}

SsdDevice::Channel& SsdDevice::ActiveChannel() {
  const uint32_t queue = clock_->AsyncQueue();
  return channels_[queue % channels_.size()];
}

void SsdDevice::DrainCache(int64_t now_ns) {
  while (!cache_.empty() && cache_.top().first <= now_ns) {
    cache_occupancy_ -= cache_.top().second;
    cache_.pop();
  }
}

void SsdDevice::WaitForCacheSpace(uint64_t bytes, Channel* channel) {
  const uint64_t cache_cap = config_.timing.cache_bytes;
  if (cache_cap == 0) {
    // No cache: the host write is synchronous with the channel's backend.
    clock_->AdvanceTo(channel->busy_until_ns);
    return;
  }
  DrainCache(clock_->NowNanos());
  // An oversized request is admitted once the cache is empty.
  while (cache_occupancy_ > 0 && cache_occupancy_ + bytes > cache_cap) {
    // Stall until the oldest cached entry reaches flash.
    clock_->AdvanceTo(cache_.top().first);
    DrainCache(clock_->NowNanos());
  }
}

void SsdDevice::EnqueueBackend(Channel* channel, int64_t cost_ns,
                               uint64_t cached_bytes, sim::IoClass cls,
                               uint64_t bytes) {
  const int64_t start = std::max(clock_->NowNanos(), channel->busy_until_ns);
  const int64_t end = start + cost_ns;
  channel->busy_until_ns = end;
  channel->busy_ns += cost_ns;
  channel->commands++;
  const auto c = static_cast<size_t>(cls);
  channel->class_backend_ns[c] += cost_ns;
  channel->class_bytes[c] += bytes;
  channel->class_commands[c]++;
  if (cached_bytes > 0) {
    cache_.emplace(end, cached_bytes);
    cache_occupancy_ += cached_bytes;
  }
}

int64_t SsdDevice::BackendBacklogNanos(const Channel& channel) const {
  return std::max<int64_t>(0, channel.busy_until_ns - clock_->NowNanos());
}

Status SsdDevice::Read(uint64_t lba, uint64_t count, uint8_t* dst) {
  if (lba + count > num_lbas()) {
    return Status::InvalidArgument("read beyond device");
  }
  std::lock_guard<std::mutex> lock(mu_);
  const uint64_t page = config_.geometry.page_bytes;
  const uint64_t bytes = count * page;
  // Content.
  for (uint64_t i = 0; i < count; i++) {
    CopyOut(lba + i, dst + i * page);
  }
  // Timing: command latency + transfer + a slice of backend interference.
  Channel& channel = ActiveChannel();
  const auto cls =
      clock_->ActiveIoClass(sim::IoClass::kForegroundRead);
  int64_t cost = config_.timing.read_latency_ns +
                 sim::BytesToNanos(bytes, config_.timing.read_bw);
  // Reads queue behind a slice of the channel's program backlog; bounded,
  // since real firmware prioritizes reads over background programs.
  const int64_t backlog_ns = BackendBacklogNanos(channel);
  const auto interference = std::min(
      static_cast<int64_t>(config_.timing.read_interference *
                           static_cast<double>(backlog_ns)),
      5 * config_.timing.read_latency_ns);
  cost += interference;
  times_.read_ns += cost;
  times_.read_interference_ns += interference;
  times_.read_commands++;
  // The command occupies the channel's read pipeline: concurrent reads
  // (submission lanes) to the SAME channel serialize behind each other,
  // reads on distinct channels overlap. A synchronous caller always
  // waits each read out, so for it start == now and this is exactly the
  // old Advance(cost).
  const int64_t start =
      std::max(clock_->NowNanos(), channel.read_busy_until_ns);
  channel.read_busy_until_ns = start + cost;
  const auto c = static_cast<size_t>(cls);
  channel.class_read_ns[c] += cost;
  channel.class_bytes[c] += bytes;
  channel.class_commands[c]++;
  clock_->AdvanceTo(start + cost);
  DrainCache(clock_->NowNanos());
  smart_.host_bytes_read += bytes;
  return Status::OK();
}

Status SsdDevice::Write(uint64_t lba, uint64_t count, const uint8_t* src) {
  if (lba + count > num_lbas()) {
    return Status::InvalidArgument("write beyond device");
  }
  std::lock_guard<std::mutex> lock(mu_);
  const uint64_t page = config_.geometry.page_bytes;
  Channel& channel = ActiveChannel();
  // Process in bounded batches so cache admission interleaves with large
  // writes the way real transfers do. Batches must fit well inside the
  // cache, or admission degrades to stop-and-wait.
  uint64_t batch_bytes = 1u << 20;
  if (config_.timing.cache_bytes > 0) {
    batch_bytes = std::min(batch_bytes, config_.timing.cache_bytes / 4);
  }
  const uint64_t batch_pages = std::max<uint64_t>(1, batch_bytes / page);
  uint64_t done = 0;
  bool first_command = true;
  const auto cls = clock_->ActiveIoClass(sim::IoClass::kForegroundWrite);
  while (done < count) {
    const uint64_t n = std::min(batch_pages, count - done);
    const uint64_t bytes = n * page;

    // Admission into the device cache (may stall).
    const int64_t stall_t0 = clock_->NowNanos();
    WaitForCacheSpace(bytes, &channel);
    times_.write_stall_ns += clock_->NowNanos() - stall_t0;

    // FTL work for these pages.
    FlashTranslationLayer::WorkDone work;
    for (uint64_t i = 0; i < n; i++) {
      const uint64_t lpn = lba + done + i;
      work.Add(ftl_->HostWrite(lpn));
      if (src != nullptr) CopyIn(lpn, src + (done + i) * page);
    }

    // Backend cost: GC first (it makes room), then the host program.
    // Device-internal GC is charged to the class of the write that
    // triggered it.
    const auto& t = config_.timing;
    const int64_t gc_cost =
        sim::BytesToNanos(work.gc_read_pages * page, t.gc_read_bw) +
        sim::BytesToNanos(work.gc_write_pages * page, t.program_bw);
    if (gc_cost > 0) {
      EnqueueBackend(&channel, gc_cost, 0, cls,
                     (work.gc_read_pages + work.gc_write_pages) * page);
    }
    EnqueueBackend(&channel, sim::BytesToNanos(bytes, t.program_bw), bytes,
                   cls, bytes);

    // Host-side cost: ack latency (once per command) + bus transfer.
    int64_t host_cost = sim::BytesToNanos(bytes, t.host_write_bw);
    if (first_command) {
      host_cost += t.write_ack_latency_ns;
      first_command = false;
      times_.write_commands++;
    }
    times_.write_host_ns += host_cost;
    clock_->Advance(host_cost);
    DrainCache(clock_->NowNanos());

    smart_.host_bytes_written += bytes;
    done += n;
  }
  // Refresh NAND counters from the FTL.
  const auto stats = ftl_->GetStats();
  smart_.nand_bytes_written = stats.nand_pages_written() * page;
  smart_.blocks_erased = stats.blocks_erased;
  return Status::OK();
}

Status SsdDevice::Trim(uint64_t lba, uint64_t count) {
  if (lba + count > num_lbas()) {
    return Status::InvalidArgument("trim beyond device");
  }
  std::lock_guard<std::mutex> lock(mu_);
  for (uint64_t i = 0; i < count; i++) {
    const uint64_t lpn = lba + i;
    ftl_->Trim(lpn);
    // Drop content so reads of trimmed pages return zeros.
    const uint64_t idx = lpn / kPagesPerChunk;
    if (chunks_[idx]) {
      const uint64_t page = config_.geometry.page_bytes;
      std::memset(chunks_[idx].get() + (lpn % kPagesPerChunk) * page, 0, page);
    }
  }
  smart_.pages_trimmed += count;
  // TRIM commands are cheap but not free.
  clock_->Advance(10'000);
  return Status::OK();
}

Status SsdDevice::Flush() {
  std::lock_guard<std::mutex> lock(mu_);
  clock_->Advance(config_.timing.flush_latency_ns);
  DrainCache(clock_->NowNanos());
  return Status::OK();
}

SsdDevice::CacheState SsdDevice::GetCacheState() const {
  std::lock_guard<std::mutex> lock(mu_);
  CacheState s;
  s.occupancy_bytes = cache_occupancy_;
  for (const Channel& c : channels_) {
    s.backend_lag_ns = std::max(s.backend_lag_ns, BackendBacklogNanos(c));
  }
  return s;
}

std::vector<SsdDevice::ChannelStats> SsdDevice::channel_stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<ChannelStats> out;
  out.reserve(channels_.size());
  for (const Channel& c : channels_) {
    ChannelStats s;
    // Exclude the unserved backlog (work scheduled past the current
    // clock): a short run with a full write cache would otherwise
    // report utilization above 100%.
    const int64_t backlog = BackendBacklogNanos(c);
    s.busy_ns = c.busy_ns - backlog;
    s.commands = c.commands;
    s.scheduled_ns = c.busy_ns;
    for (int k = 0; k < sim::kNumIoClasses; k++) {
      // The backlog is deducted from the backend classes pro rata (the
      // per-item completion times are not tracked per class); read
      // occupancy carries no backlog — every read is waited out. The
      // share is computed in double: the int64 product backlog *
      // class_backend_ns overflows on long runs.
      int64_t backend = c.class_backend_ns[k];
      if (backlog > 0 && c.busy_ns > 0) {
        backend -= static_cast<int64_t>(
            static_cast<double>(backlog) *
            static_cast<double>(c.class_backend_ns[k]) /
            static_cast<double>(c.busy_ns));
      }
      s.class_busy_ns[k] = backend + c.class_read_ns[k];
      s.class_scheduled_ns[k] = c.class_backend_ns[k];
    }
    s.class_bytes = c.class_bytes;
    s.class_commands = c.class_commands;
    out.push_back(s);
  }
  return out;
}

uint64_t SsdDevice::ContentMemoryBytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t n = 0;
  for (const auto& c : chunks_) {
    if (c) n += kPagesPerChunk * config_.geometry.page_bytes;
  }
  return n;
}

}  // namespace ptsb::ssd

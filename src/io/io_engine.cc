#include "io/io_engine.h"

#include <algorithm>
#include <string>
#include <utility>

namespace rda::io {

IoEngine::IoEngine(uint32_t num_disks, const IoEngineOptions& options,
                   PhysicalWrite writer)
    : options_{std::max(options.width, 1u),
               std::max(options.queue_watermark, 1u)},
      writer_(std::move(writer)),
      queues_(num_disks),
      dispatch_hists_(num_disks, nullptr) {
  drain_mus_.reserve(num_disks);
  for (uint32_t d = 0; d < num_disks; ++d) {
    drain_mus_.push_back(std::make_unique<std::mutex>());
  }
  workers_.reserve(options_.width);
  for (uint32_t w = 0; w < options_.width; ++w) {
    workers_.emplace_back([this, w] { WorkerLoop(w); });
  }
}

IoEngine::~IoEngine() {
  {
    std::lock_guard<std::mutex> lock(wake_mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& worker : workers_) {
    worker.join();
  }
  // Workers are gone: drain the remaining journal inline so every submitted
  // write reaches the medium (the journal is modeled non-volatile).
  for (DiskId d = 0; d < queues_.size(); ++d) {
    DrainDisk(d);
  }
}

std::shared_future<Status> IoEngine::SubmitWrite(DiskId disk, SlotId slot,
                                                PageImage image,
                                                bool is_parity) {
  return Submit(disk, slot, std::move(image), is_parity,
                /*want_future=*/true);
}

void IoEngine::SubmitWriteDetached(DiskId disk, SlotId slot, PageImage image,
                                   bool is_parity) {
  Submit(disk, slot, std::move(image), is_parity, /*want_future=*/false);
}

std::shared_future<Status> IoEngine::Submit(DiskId disk, SlotId slot,
                                            PageImage image, bool is_parity,
                                            bool want_future) {
  DiskQueue& queue = queues_[disk];
  std::shared_future<Status> future;
  bool wake = false;
  {
    std::lock_guard<std::mutex> lock(queue.mu);
    auto it = queue.pending.find(slot);
    if (it != queue.pending.end()) {
      // Last-writer-wins merge: the queued entry's image is replaced in
      // place and both submitters share its completion. One physical
      // transfer now covers both logical writes.
      *it->second.image = std::move(image);
      it->second.is_parity = is_parity;
      submitted_.fetch_add(1, std::memory_order_relaxed);
      obs::Inc(submitted_counter_);
      coalesced_.fetch_add(1, std::memory_order_relaxed);
      obs::Inc(coalesced_counter_);
      if (is_parity) {
        // A merged parity-slot write is one read-modify-write absorbed
        // into the batch the queue accumulated for this (group, twin).
        parity_rmw_.fetch_add(1, std::memory_order_relaxed);
        obs::Inc(parity_rmw_counter_);
      }
      if (!want_future) {
        return {};
      }
      if (it->second.promise == nullptr) {
        // Merging into a detached entry: attach the completion on demand.
        it->second.promise = std::make_shared<std::promise<Status>>();
        it->second.future = it->second.promise->get_future().share();
      }
      return it->second.future;
    }
    Pending entry;
    entry.image = std::make_shared<PageImage>(std::move(image));
    if (want_future) {
      entry.promise = std::make_shared<std::promise<Status>>();
      entry.future = entry.promise->get_future().share();
      future = entry.future;
    }
    entry.is_parity = is_parity;
    entry.submitted = std::chrono::steady_clock::now();
    queue.pending.emplace(slot, std::move(entry));
    // Edge-triggered: the queue grows one entry at a time, so == fires
    // exactly once per upward watermark crossing. Steady-state submits
    // above the watermark stay silent instead of re-waking every worker
    // (the workers rescan all owned disks after each drain anyway).
    wake = queue.pending.size() == options_.queue_watermark;
  }
  submitted_.fetch_add(1, std::memory_order_relaxed);
  obs::Inc(submitted_counter_);
  depth_.fetch_add(1, std::memory_order_relaxed);
  if (depth_gauge_ != nullptr) {
    depth_gauge_->Add(1);
  }
  if (wake) {
    // The notify must not land between a worker's (negative) predicate
    // evaluation and its block: the crossing is edge-triggered, so a missed
    // notify would leave the queue growing silently until an unrelated
    // wake. Holding wake_mu_ orders the notify against the predicate —
    // either the worker's check sees the above-watermark queue, or it is
    // already blocked when the notify fires.
    std::lock_guard<std::mutex> wake_lock(wake_mu_);
    cv_.notify_all();
  }
  return future;
}

bool IoEngine::ReadFromQueue(DiskId disk, SlotId slot, PageImage* out) const {
  const DiskQueue& queue = queues_[disk];
  std::lock_guard<std::mutex> lock(queue.mu);
  const auto pending = queue.pending.find(slot);
  if (pending != queue.pending.end()) {
    *out = *pending->second.image;
  } else {
    const auto inflight = queue.inflight.find(slot);
    if (inflight == queue.inflight.end()) {
      return false;
    }
    *out = *inflight->second;
  }
  cache_hits_.fetch_add(1, std::memory_order_relaxed);
  obs::Inc(cache_hits_counter_);
  return true;
}

void IoEngine::WorkerLoop(uint32_t worker) {
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(wake_mu_);
      cv_.wait(lock, [this, worker] {
        if (stop_) {
          return true;
        }
        for (DiskId d = worker; d < queues_.size(); d += options_.width) {
          std::lock_guard<std::mutex> qlock(queues_[d].mu);
          if (queues_[d].pending.size() >= options_.queue_watermark) {
            return true;
          }
        }
        return false;
      });
      if (stop_) {
        return;
      }
    }
    for (DiskId d = worker; d < queues_.size(); d += options_.width) {
      bool due;
      {
        std::lock_guard<std::mutex> qlock(queues_[d].mu);
        due = queues_[d].pending.size() >= options_.queue_watermark;
      }
      if (due) {
        DrainDisk(d);
      }
    }
  }
}

void IoEngine::DrainDisk(DiskId disk) {
  DiskQueue& queue = queues_[disk];
  std::lock_guard<std::mutex> drain_lock(*drain_mus_[disk]);
  for (;;) {
    std::map<SlotId, Pending> batch;
    {
      std::lock_guard<std::mutex> lock(queue.mu);
      if (queue.pending.empty()) {
        return;
      }
      batch = std::move(queue.pending);
      queue.pending.clear();
      // Publish to the in-flight view BEFORE the writes start, so readers
      // keep hitting the journal until each image is fully on the medium.
      for (const auto& [slot, entry] : batch) {
        queue.inflight[slot] = entry.image;
      }
    }
    // Elevator dispatch: the map hands back the batch slot-ascending, so
    // the head sweeps one way across the platter per drain pass.
    for (auto& [slot, entry] : batch) {
      const Status status = writer_(disk, slot, *entry.image);
      physical_.fetch_add(1, std::memory_order_relaxed);
      obs::Inc(physical_counter_);
      {
        std::lock_guard<std::mutex> lock(queue.mu);
        queue.inflight.erase(slot);
        if (!status.ok() && queue.error.ok()) {
          queue.error = status;
        }
      }
      depth_.fetch_add(-1, std::memory_order_relaxed);
      if (depth_gauge_ != nullptr) {
        depth_gauge_->Add(-1);
      }
      if (dispatch_hists_[disk] != nullptr) {
        const auto now = std::chrono::steady_clock::now();
        dispatch_hists_[disk]->Observe(
            std::chrono::duration<double, std::micro>(now - entry.submitted)
                .count());
      }
      if (entry.promise != nullptr) {
        entry.promise->set_value(status);
      }
    }
  }
}

Status IoEngine::Flush() {
  Status first = Status::Ok();
  for (DiskId d = 0; d < queues_.size(); ++d) {
    DrainDisk(d);
    std::lock_guard<std::mutex> lock(queues_[d].mu);
    if (first.ok() && !queues_[d].error.ok()) {
      first = queues_[d].error;
    }
    // Report-once: the error belongs to writes already retired. Leaving it
    // sticky would fail every later flush — including the scrub/rebuild
    // passes that exist to repair exactly this damage.
    queues_[d].error = Status::Ok();
  }
  return first;
}

void IoEngine::PurgeDisk(DiskId disk) {
  if (disk >= queues_.size()) {
    return;
  }
  DiskQueue& queue = queues_[disk];
  std::map<SlotId, Pending> dropped;
  {
    std::lock_guard<std::mutex> lock(queue.mu);
    dropped = std::move(queue.pending);
    queue.pending.clear();
    queue.error = Status::Ok();
  }
  for (auto& [slot, entry] : dropped) {
    // The medium these bytes were headed for is gone; completing Ok is the
    // history "the write landed, then the disk failed", which is what the
    // synchronous path would have produced.
    if (entry.promise != nullptr) {
      entry.promise->set_value(Status::Ok());
    }
    depth_.fetch_add(-1, std::memory_order_relaxed);
    if (depth_gauge_ != nullptr) {
      depth_gauge_->Add(-1);
    }
  }
  purged_.fetch_add(dropped.size(), std::memory_order_relaxed);
}

IoEngine::StatsSnapshot IoEngine::stats() const {
  StatsSnapshot snapshot;
  snapshot.submitted_writes = submitted_.load(std::memory_order_relaxed);
  snapshot.physical_writes = physical_.load(std::memory_order_relaxed);
  snapshot.coalesced_writes = coalesced_.load(std::memory_order_relaxed);
  snapshot.batched_parity_rmw = parity_rmw_.load(std::memory_order_relaxed);
  snapshot.cache_hits = cache_hits_.load(std::memory_order_relaxed);
  snapshot.purged_writes = purged_.load(std::memory_order_relaxed);
  return snapshot;
}

uint64_t IoEngine::QueueDepth() const {
  const int64_t depth = depth_.load(std::memory_order_relaxed);
  return depth > 0 ? static_cast<uint64_t>(depth) : 0;
}

void IoEngine::AttachObs(obs::ObsHub* hub) {
  submitted_counter_ = obs::GetCounter(hub, "io.submitted_writes");
  physical_counter_ = obs::GetCounter(hub, "io.physical_writes");
  coalesced_counter_ = obs::GetCounter(hub, "io.coalesced_writes");
  parity_rmw_counter_ = obs::GetCounter(hub, "io.batched_parity_rmw");
  cache_hits_counter_ = obs::GetCounter(hub, "io.cache_hits");
  depth_gauge_ = obs::GetGauge(hub, "io.queue_depth");
  const std::vector<double> us_bounds = {10,   50,   100,   250,   500,
                                         1000, 2500, 5000,  10000, 25000};
  for (size_t d = 0; d < dispatch_hists_.size(); ++d) {
    dispatch_hists_[d] = obs::GetHistogram(
        hub, "io.disk" + std::to_string(d) + ".dispatch_us", us_bounds);
  }
}

}  // namespace rda::io

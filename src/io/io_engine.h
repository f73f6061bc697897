#ifndef RDA_IO_IO_ENGINE_H_
#define RDA_IO_IO_ENGINE_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "obs/obs.h"
#include "storage/page.h"

namespace rda::io {

// Tuning knobs of the asynchronous engine (surfaced through IoPolicy as
// DatabaseOptions::io.width / io.queue_watermark).
struct IoEngineOptions {
  // Worker threads draining the per-disk submission queues. Disk d is owned
  // by worker d % width, so one disk is never drained by two threads.
  uint32_t width = 1;
  // Pending writes on one disk that wake its worker for a drain. Submission
  // never blocks on the watermark — it only sets the coalescing window.
  uint32_t queue_watermark = 32;
};

// Asynchronous per-disk I/O engine (DESIGN.md section 16).
//
// Model: each disk has a submission queue that behaves like an NVRAM-backed
// write journal — a write is durable the moment SubmitWrite returns, and the
// journal is replayed onto the medium by a background worker in elevator
// (slot-ascending) order. Because the journal holds at most one image per
// slot (last-writer-wins), rewrites of a page still in queue COALESCE into a
// single physical transfer; reads consult the journal first and are served
// from memory without touching the device at all.
//
// The engine knows nothing about layouts, parity semantics or retry policy:
// the owner (DiskArray) supplies one `PhysicalWrite` callback that performs
// a single slot write with whatever retry/accounting machinery it already
// has. All transfer counters are therefore bumped exactly where the sync
// path bumps them — per PHYSICAL transfer, at drain — which keeps the fuzz
// oracle's counter-conservation invariants intact.
//
// Crash/failure semantics (the equivalence argument the tests verify):
//  * Crash: the journal is non-volatile, so Database::Crash() calls Flush()
//    before tearing down volatile state — every submitted write reaches the
//    medium, exactly as if it had been synchronous.
//  * Disk failure: Fail() destroys the whole medium, so queued writes for
//    that disk are moot; PurgeDisk drops them. This is indistinguishable
//    from the synchronous history "write completed, then the disk died".
class IoEngine {
 public:
  // Performs one physical slot write (retries, fault injection and transfer
  // accounting included). `is_parity` tags parity-page slots for the
  // batched-parity statistics only.
  using PhysicalWrite =
      std::function<Status(DiskId disk, SlotId slot, const PageImage& image)>;

  IoEngine(uint32_t num_disks, const IoEngineOptions& options,
           PhysicalWrite writer);
  ~IoEngine();

  IoEngine(const IoEngine&) = delete;
  IoEngine& operator=(const IoEngine&) = delete;

  // Journals `image` for (disk, slot). Returns the completion future of the
  // slot's journal entry: it resolves when the entry's (possibly merged)
  // physical write lands. A submission that merges into a queued entry
  // shares that entry's future — its bytes are superseded, and they become
  // durable-on-medium together with the superseding write.
  std::shared_future<Status> SubmitWrite(DiskId disk, SlotId slot,
                                         PageImage image, bool is_parity);

  // SubmitWrite without the completion future: the hot path for callers
  // that rely on Flush()'s sticky-error reporting instead (DiskArray's
  // WriteSlot). Skips the promise/future allocation entirely; a later
  // SubmitWrite merging into a detached entry attaches one on demand.
  void SubmitWriteDetached(DiskId disk, SlotId slot, PageImage image,
                           bool is_parity);

  // Serves a read from the journal (pending or in-flight image). Returns
  // true and fills *out on a hit. A hit is NOT a device transfer and bumps
  // no storage counters — only the engine's cache_hits statistic.
  bool ReadFromQueue(DiskId disk, SlotId slot, PageImage* out) const;

  // Drains every queue from the calling thread (workers may drain
  // concurrently; per-disk drains are serialized). Returns the first
  // sticky drain error across disks (lowest disk id), Ok otherwise.
  // Reported errors are cleared (report-once), so one historical failure
  // never wedges later flushes — scrub/rebuild passes in particular.
  Status Flush();

  // Drops every queued write for `disk` and clears its sticky error. The
  // dropped entries' futures complete Ok: their content is gone WITH the
  // medium, exactly as if the writes had completed before the failure.
  void PurgeDisk(DiskId disk);

  // Point-in-time statistics (monotonic counters).
  struct StatsSnapshot {
    uint64_t submitted_writes = 0;  // SubmitWrite calls.
    uint64_t physical_writes = 0;   // Drained journal entries.
    uint64_t coalesced_writes = 0;  // Submissions merged into a queued entry.
    uint64_t batched_parity_rmw = 0;  // Coalesced writes on parity slots.
    uint64_t cache_hits = 0;        // Reads served from the journal.
    uint64_t purged_writes = 0;     // Entries dropped by PurgeDisk.
  };
  StatsSnapshot stats() const;

  // Pending journal entries across all disks right now.
  uint64_t QueueDepth() const;

  // `io.*` counters, the io.queue_depth gauge and per-disk dispatch-latency
  // histograms (io.diskN.dispatch_us: submit -> medium). Null detaches.
  void AttachObs(obs::ObsHub* hub);

  uint32_t width() const { return options_.width; }

 private:
  struct Pending {
    std::shared_ptr<PageImage> image;
    // Null for detached submissions (nobody will wait on this entry).
    std::shared_ptr<std::promise<Status>> promise;
    std::shared_future<Status> future;
    bool is_parity = false;
    std::chrono::steady_clock::time_point submitted;
  };

  struct DiskQueue {
    // Guards pending/inflight/error. Leaf lock: nothing is acquired under
    // it, and the physical write runs with it released.
    mutable std::mutex mu;
    // Slot-ordered pending writes — map order IS the elevator schedule.
    std::map<SlotId, Pending> pending;
    // Entries currently being written: still visible to ReadFromQueue so a
    // reader can never fall through to the device mid-write and see stale
    // bytes. Cleared as each write completes.
    std::map<SlotId, std::shared_ptr<PageImage>> inflight;
    // First unreported drain error on a still-live disk; cleared once a
    // Flush() reports it, or by PurgeDisk.
    Status error = Status::Ok();
  };

  // Common journal path behind SubmitWrite / SubmitWriteDetached. Returns
  // an empty future when `want_future` is false.
  std::shared_future<Status> Submit(DiskId disk, SlotId slot, PageImage image,
                                    bool is_parity, bool want_future);
  void WorkerLoop(uint32_t worker);
  // Drains `disk` until its pending map is empty. Serialized per disk.
  void DrainDisk(DiskId disk);

  const IoEngineOptions options_;
  const PhysicalWrite writer_;
  std::vector<DiskQueue> queues_;
  // Serializes drains of one disk between workers and Flush() callers.
  std::vector<std::unique_ptr<std::mutex>> drain_mus_;

  // Wake-up plumbing: workers sleep on cv_ until a queue they own crosses
  // the watermark, or shutdown.
  mutable std::mutex wake_mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::vector<std::thread> workers_;

  // Statistics (relaxed atomics: monotonic counters, read quiesced).
  mutable std::atomic<uint64_t> submitted_{0};
  mutable std::atomic<uint64_t> physical_{0};
  mutable std::atomic<uint64_t> coalesced_{0};
  mutable std::atomic<uint64_t> parity_rmw_{0};
  mutable std::atomic<uint64_t> cache_hits_{0};
  mutable std::atomic<uint64_t> purged_{0};
  std::atomic<int64_t> depth_{0};

  // Observability (null = disabled).
  obs::Counter* submitted_counter_ = nullptr;
  obs::Counter* physical_counter_ = nullptr;
  obs::Counter* coalesced_counter_ = nullptr;
  obs::Counter* parity_rmw_counter_ = nullptr;
  obs::Counter* cache_hits_counter_ = nullptr;
  obs::Gauge* depth_gauge_ = nullptr;
  std::vector<obs::Histogram*> dispatch_hists_;
};

}  // namespace rda::io

#endif  // RDA_IO_IO_ENGINE_H_

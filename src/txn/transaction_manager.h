#ifndef RDA_TXN_TRANSACTION_MANAGER_H_
#define RDA_TXN_TRANSACTION_MANAGER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "buffer/buffer_pool.h"
#include "common/status.h"
#include "common/types.h"
#include "exec/worker_pool.h"
#include "lock/lock_manager.h"
#include "obs/obs.h"
#include "parity/twin_parity_manager.h"
#include "txn/transaction.h"
#include "wal/log_manager.h"

namespace rda {

// Logging granularity (paper Sections 5.2 vs 5.3).
enum class LoggingMode : uint8_t { kPageLogging, kRecordLogging };

// Recovery-algorithm configuration, expressed in the paper's taxonomy
// (Haerder & Reuter): propagation is always notATOMIC (update-in-place),
// page replacement is always STEAL — the combination the paper restricts
// itself to ("the use of a log chain makes UNDO logging ... STEAL policy",
// Section 4.4) — while FORCE/notFORCE and RDA on/off are knobs.
struct TxnConfig {
  LoggingMode logging_mode = LoggingMode::kPageLogging;
  // FORCE: all pages a transaction modified are propagated before EOT
  // (TOC-style, no separate checkpoints). notFORCE pairs with ACC
  // checkpoints driven by recovery/Checkpointer.
  bool force = true;
  // Use the twin-page parity scheme to skip UNDO logging where Figure 3
  // permits. Off = the traditional baseline.
  bool rda_undo = true;
  // Log after-images at commit (REDO). Required for notFORCE; kept on for
  // FORCE too, matching the paper's cost model (UNDO and REDO log files).
  bool log_after_images = true;
  // Record size for kRecordLogging (fixed-size slots).
  size_t record_size = 64;
  // FORCE the commit's page propagations in (parity group, page) order so
  // same-group writes land adjacently in the async engine's submission
  // queues (elevator-friendly, maximizes parity-slot coalescing). Set by
  // Database::Open when the engine is on; off keeps the insertion order the
  // synchronous path has always used, bit-for-bit.
  bool elevator_force = false;
};

// Page payloads a disk undo left on the disk, by page.
using RestoredPages = std::unordered_map<PageId, std::vector<uint8_t>>;

// Applies one logged before-image to the disk: the undo step shared by
// runtime abort and restart. A page-granular image replaces the payload. A
// record-granular one patches its slot inside the page's current payload —
// `restored`'s copy if it holds one, else a healed read — under the group
// latch, and zeroes the pageLSN (mixed state: REDO replays every record
// after a crash). It clears the page's txn stamp too, unless the page is
// its group's dirty page, whose stamp the parity undo must still
// recognize. `restored`, if not null, receives the payload now on disk.
Status ApplyBeforeImage(TwinParityManager* parity, size_t record_size,
                        PageId page, bool record_granular, RecordSlot slot,
                        const std::vector<uint8_t>& before,
                        RestoredPages* restored);

// Outcome counters used by the simulator to report the paper's metrics.
struct TxnStats {
  uint64_t begun = 0;
  uint64_t committed = 0;
  uint64_t aborted = 0;
  uint64_t before_images_logged = 0;
  uint64_t before_images_avoided = 0;  // Unlogged steals (the RDA win).
};

// Parameters for RunConcurrent: a closed-loop multi-threaded workload where
// each worker runs transactions back to back until its quota of commits is
// reached. Lock conflicts and mid-EOT frame collisions surface as kBusy and
// are resolved by abort-and-retry (deadlock victims included).
struct ConcurrentWorkload {
  uint32_t threads = 4;
  uint32_t txns_per_thread = 25;  // Commits each worker must complete.
  uint32_t ops_per_txn = 4;
  uint32_t pages = 64;      // Page ids drawn uniformly from [0, pages).
  double write_fraction = 1.0;
  uint64_t seed = 1;
  // Abort-and-retry attempts per transaction before giving up (livelock
  // guard; hitting it is an error).
  uint32_t max_attempts = 10000;
  // Runs after every successful write, on the writing thread, between
  // transaction calls (Database::RunConcurrent hooks its auto-checkpoint
  // here). An error fails the workload. Empty: nothing runs.
  std::function<Status()> after_write;
};

struct ConcurrentResult {
  uint64_t committed = 0;
  uint64_t aborted = 0;      // Abort-and-retry cycles (all retried).
  uint64_t busy_retries = 0;  // kBusy occurrences that triggered a retry.
};

// The transaction manager: BOT/EOT processing, page- and record-granular
// updates through the buffer pool, the Figure 3 UNDO-logging decision on
// every steal, commit finalization of dirtied parity groups, and runtime
// abort via parity and/or logged before-images.
//
// Thread safety (DESIGN.md section 11): distinct transactions may run on
// distinct threads concurrently — one thread per transaction at a time.
// Lock conflicts surface as kBusy for the caller to retry or resolve via
// deadlock-victim abort, exactly as in the cooperative single-threaded
// simulator. Internally the manager relies on the buffer pool's shard
// latches for frame state, per-parity-group latches for group state, the
// per-transaction mutex for cross-thread eviction touches, and a small
// table mutex for the transaction map. The latch order is
//   buffer shard -> parity group -> txn mutex -> WAL / disk / lock table,
// and the only place a later lock is awaited while holding an earlier one
// is the eviction callback — which only ever try_locks transaction
// mutexes, so it can skip (kBusy) instead of deadlocking.
class TransactionManager {
 public:
  // `undo_pool`, if wider than 1, runs a runtime abort's disk undo one
  // parity group per shard (see UndoDiskState); null keeps it serial.
  TransactionManager(const TxnConfig& config, TwinParityManager* parity,
                     LogManager* log, LockManager* locks,
                     const BufferPool::Options& pool_options,
                     exec::WorkerPool* undo_pool = nullptr);

  TransactionManager(const TransactionManager&) = delete;
  TransactionManager& operator=(const TransactionManager&) = delete;

  Result<TxnId> Begin();

  // Page-granular API (kPageLogging). `out`/`bytes` cover the user region
  // of the page: page_size - kDataRegionOffset bytes.
  Status ReadPage(TxnId txn, PageId page, std::vector<uint8_t>* out);
  Status WritePage(TxnId txn, PageId page, const std::vector<uint8_t>& bytes);

  // Record-granular API (kRecordLogging). `bytes` at most record_size.
  Status ReadRecord(TxnId txn, PageId page, RecordSlot slot,
                    std::vector<uint8_t>* out);
  Status WriteRecord(TxnId txn, PageId page, RecordSlot slot,
                     const std::vector<uint8_t>& bytes);

  Status Commit(TxnId txn);
  Status Abort(TxnId txn);

  // Runs `workload.threads` worker threads, each committing
  // `workload.txns_per_thread` transactions of `workload.ops_per_txn`
  // random page (or record) operations. kBusy outcomes abort and retry the
  // transaction. Returns aggregate outcome counts, or the first hard error
  // any worker hit.
  Result<ConcurrentResult> RunConcurrent(const ConcurrentWorkload& workload);

  // True iff `txn` is blocked in a deadlock cycle (scheduler picks victims).
  bool WouldDeadlock(TxnId txn) const { return locks_->WouldDeadlock(txn); }

  // Drops all volatile state: buffer, lock table, active-transaction table.
  void LoseVolatileState();

  // The table holds only transactions that have not finished: Commit and
  // Abort erase theirs once EOT has detached it from every frame.
  Transaction* Find(TxnId txn);
  std::vector<TxnId> ActiveTxns() const;
  size_t tracked_txns() const;

  BufferPool* pool() { return &pool_; }
  TwinParityManager* parity() { return parity_; }
  LogManager* log() { return log_; }
  const TxnConfig& config() const { return config_; }
  // Snapshot by value: counters are bumped concurrently.
  TxnStats stats() const;
  void ResetStats();
  size_t user_page_size() const;
  uint32_t records_per_page() const;

  // The id the next Begin() returns. Restart points record it.
  TxnId next_txn_id() const;
  // Restores the transaction-id counter after recovery so new transactions
  // never reuse the id of a pre-crash one.
  void BumpNextTxnId(TxnId floor);

  // Hooks the manager (and its buffer pool) into the observability hub:
  // `txn.*` counters, per-transaction page-transfer attribution and the
  // txn-lifecycle trace events. Null detaches.
  void AttachObs(obs::ObsHub* hub);

 private:
  // Eviction/propagation callback registered with the buffer pool: applies
  // the Figure 3 decision and performs logging + parity-maintained writes.
  // Runs under the frame's shard latch; takes the page's parity-group latch
  // across classify -> log -> propagate and try_locks every active
  // modifier's mutex — a busy or mid-EOT modifier makes it return kBusy so
  // the eviction walk can pick another victim.
  Status PropagateFrame(Frame* frame);

  // OK iff `txn` (looked up as `id`) is active. A finished id is
  // FailedPrecondition, an id never handed out NotFound.
  Status RequireActive(TxnId id, Transaction* txn) const;

  // Commit/Abort bodies, run inside the EOT scope.
  Status CommitInEot(Transaction* txn);
  Status AbortInEot(Transaction* txn);

  // After a finished EOT: releases the transaction's restart-point claim
  // in the log and erases it from the table. Safe once EOT has detached it
  // from every frame — PropagateFrame only reaches transactions through
  // frame modifier lists, under the frame's shard latch.
  void Retire(Transaction* txn);

  // True iff parity undo of `frame`'s current propagation epoch would land
  // exactly on the logical before-state of `txn` (no committed-but-
  // unpropagated bytes of other transactions would be wiped).
  bool UnloggedCoverageExact(Frame* frame, TxnId txn);

  // Writes the BOT record if this is the transaction's first update. The
  // caller must hold txn->mu or have EOT exclusivity.
  Status EnsureBot(Transaction* txn);

  // Logs before-images for a steal that cannot use parity coverage, for
  // every active modifier of the frame (whose mutexes the caller holds),
  // then flushes (WAL rule).
  Status LogBeforeImagesForSteal(Frame* frame,
                                 const std::vector<Transaction*>& modifiers);

  // Disk-level undo of everything `txn` propagated, per parity group: the
  // logged before-images taken inside the group's unlogged window, the
  // parity undo, then the earlier before-images. Groups run in parallel on
  // `undo_pool_`. Fills `restored_disk` with the page payloads now on disk.
  Status UndoDiskState(Transaction* txn, RestoredPages* restored_disk);

  // Reverts txn's record modifications inside resident frames and detaches
  // the transaction from them.
  void CleanBufferAfterAbort(Transaction* txn,
                             const RestoredPages& restored_disk);

  Status LogAfterImages(Transaction* txn);

  // Array + log page transfers so far; deltas around an operation are the
  // transfers it caused (steals included — cost goes to the op that forced
  // them). Only consulted while observability is attached.
  uint64_t TransfersNow() const;
  uint64_t TransfersStart() const {
    return obs_attached_ ? TransfersNow() : 0;
  }
  void AttributeTransfers(Transaction* txn, uint64_t start) {
    if (obs_attached_ && txn != nullptr) {
      txn->transfers += TransfersNow() - start;
    }
  }

  TxnConfig config_;
  TwinParityManager* parity_;
  LogManager* log_;
  LockManager* locks_;
  BufferPool pool_;
  exec::WorkerPool* undo_pool_;  // Null: serial abort undo.
  // Guards the map and the id counter only (leaf lock, held briefly);
  // Transaction objects are pointer-stable and carry their own mutex.
  mutable std::mutex txns_mu_;
  std::unordered_map<TxnId, std::unique_ptr<Transaction>> txns_;
  TxnId next_txn_ = 1;

  // Per-field atomic stats: bumped from several worker threads.
  struct AtomicTxnStats {
    std::atomic<uint64_t> begun{0};
    std::atomic<uint64_t> committed{0};
    std::atomic<uint64_t> aborted{0};
    std::atomic<uint64_t> before_images_logged{0};
    std::atomic<uint64_t> before_images_avoided{0};
  };
  AtomicTxnStats stats_;

  // Observability (null / false = disabled).
  bool obs_attached_ = false;
  obs::TraceBuffer* trace_ = nullptr;
  obs::Counter* begun_counter_ = nullptr;
  obs::Counter* committed_counter_ = nullptr;
  obs::Counter* aborted_counter_ = nullptr;
  obs::Counter* before_logged_counter_ = nullptr;
  obs::Counter* before_avoided_counter_ = nullptr;
  obs::Histogram* transfers_per_commit_ = nullptr;
  // Latency spans: the whole Commit()/Abort() plus its force/WAL/parity
  // segments, and the begin->EOT lifetime interval.
  obs::SpanCollector* spans_ = nullptr;
  obs::Histogram* commit_us_hist_ = nullptr;
  obs::Histogram* abort_us_hist_ = nullptr;
};

}  // namespace rda

#endif  // RDA_TXN_TRANSACTION_MANAGER_H_

#ifndef RDA_RECOVERY_CRASH_RECOVERY_H_
#define RDA_RECOVERY_CRASH_RECOVERY_H_

#include <atomic>
#include <cstdint>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "exec/worker_pool.h"
#include "obs/obs.h"
#include "obs/trace.h"
#include "parity/twin_parity_manager.h"
#include "txn/transaction_manager.h"
#include "wal/log_manager.h"

namespace rda {

// What crash recovery did — surfaced so tests, examples and benches can
// assert the paper's claims (how much was undone via parity vs via the log).
struct CrashRecoveryReport {
  std::vector<TxnId> winners;
  std::vector<TxnId> losers;
  uint64_t groups_finalized = 0;   // Winner dirty groups rolled forward.
  uint64_t parity_undos = 0;       // Loser pages undone from twin parity.
  uint64_t logged_undos = 0;       // Loser images undone from the log.
  uint64_t redo_applied = 0;       // Committed after-images re-applied.
  uint64_t redo_skipped = 0;       // Skipped by the pageLSN check.
  uint64_t chain_pages_walked = 0; // TWIST chain links traversed (audit).
  // The log window analysed: the first LSN read (the newest restart LSN,
  // see LogManager::ReadForRestart) and the number of records from there
  // to the stable tail.
  Lsn scan_start_lsn = 0;
  uint64_t log_records_scanned = 0;
  // Per-phase cost breakdown (page transfers + wall clock), in execution
  // order. Always filled, whether or not observability is attached.
  std::vector<obs::PhaseCost> phases;
};

// System-failure recovery (paper Section 4.3), to be run against a
// TransactionManager whose volatile state was already dropped:
//
//  1. Rebuild the parity directory from the twin page headers
//     (Current_Parity, Figure 7; the S/N term of c'_s).
//  2. Analysis: read the log from the newest restart LSN R (DESIGN.md
//     4.3.1) to the tail; BOT without Commit/AbortComplete = loser.
//  3. Roll FORWARD: finalize dirty groups owned by winners (crash fell
//     between the commit record and twin finalization).
//  4. UNDO losers: parity-undo each dirty group owned by a loser (walking
//     the TWIST chain for audit), then re-apply logged before-images in
//     reverse LSN order.
//  5. REDO winners: re-apply committed after-images in LSN order wherever
//     the on-disk pageLSN shows them missing.
//  6. Log AbortComplete for every loser and flush.
//
// Idempotent: crashing during recovery and re-running it converges to the
// same committed state.
class CrashRecovery {
 public:
  CrashRecovery(TransactionManager* txn_manager, TwinParityManager* parity,
                LogManager* log)
      : txn_manager_(txn_manager), parity_(parity), log_(log) {}

  CrashRecovery(const CrashRecovery&) = delete;
  CrashRecovery& operator=(const CrashRecovery&) = delete;

  // Runs recovery over the log from max(base_lsn(), min(R, latest_start))
  // to the stable tail, R being the newest restart LSN in the stable log.
  // Restart passes kInvalidLsn; an archive restore passes its archive
  // point, because the work committed since its snapshot may predate R.
  Result<CrashRecoveryReport> Recover(Lsn latest_start);

  // Hooks recovery into the observability hub (`recovery.phase.*` counters
  // and kPhaseBegin/kPhaseEnd trace events). Null detaches.
  void AttachObs(obs::ObsHub* hub) { hub_ = hub; }

  // Fans the REDO and parity-UNDO phases out over `pool` (DESIGN.md §13:
  // REDO is sharded by page id so each page's after-images replay in LSN
  // order on one shard; parity undo runs per dirty group under the group
  // latches). Null (the default) keeps every phase on the serial path.
  void SetWorkerPool(exec::WorkerPool* pool) { pool_ = pool; }

  // Robustness hook: make Recover() fail with kAborted after `actions`
  // mutating recovery steps (finalizations, undos, redo applications),
  // simulating a crash in the middle of recovery.
  void InjectFaultAfterActions(uint64_t actions) {
    fault_armed_ = true;
    fault_budget_ = actions;
  }

 private:
  // Consumes one unit of the fault budget; fails when it runs out. Safe to
  // call from concurrent recovery shards (the budget is claimed with CAS).
  Status ConsumeFaultBudget();

  bool fault_armed_ = false;
  std::atomic<uint64_t> fault_budget_{0};

  // Applies (or LSN-skips) one committed after-image; tallies into the
  // caller's per-shard counters.
  Status RedoAfterImage(const LogRecord& record, uint64_t* applied,
                        uint64_t* skipped);

  // Array + log transfers so far (phase deltas are charged per phase).
  uint64_t TransfersNow() const;

  TransactionManager* txn_manager_;
  TwinParityManager* parity_;
  LogManager* log_;
  obs::ObsHub* hub_ = nullptr;
  exec::WorkerPool* pool_ = nullptr;
};

}  // namespace rda

#endif  // RDA_RECOVERY_CRASH_RECOVERY_H_

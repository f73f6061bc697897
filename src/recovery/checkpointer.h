#ifndef RDA_RECOVERY_CHECKPOINTER_H_
#define RDA_RECOVERY_CHECKPOINTER_H_

#include <atomic>
#include <cstdint>
#include <mutex>

#include "common/status.h"
#include "common/types.h"
#include "obs/obs.h"
#include "txn/transaction_manager.h"
#include "wal/log_manager.h"

namespace rda {

// Checkpoint disciplines (paper Section 2, "Checkpointing Schemes"):
//  * TOC (transaction-oriented): equivalent to the FORCE discipline — every
//    commit propagates the transaction's pages, so every FORCE commit
//    record is itself a restart point (TransactionManager::Commit) and no
//    separate checkpoint operation is needed.
//  * ACC (action-consistent): periodically propagate every modified buffer
//    page (a quiescent point between update actions) and log a checkpoint
//    record naming the transactions then active. The record is a restart
//    point: restart recovery reads the log from its restart LSN on, which
//    bounds analysis and REDO to the work since the checkpoint.
class Checkpointer {
 public:
  Checkpointer(TransactionManager* txn_manager, LogManager* log)
      : txn_manager_(txn_manager), log_(log) {}

  Checkpointer(const Checkpointer&) = delete;
  Checkpointer& operator=(const Checkpointer&) = delete;

  // Takes an action-consistent checkpoint: propagates all dirty buffer
  // frames (uncommitted ones follow the Figure 3 steal rule — this is where
  // ACC algorithms harvest unlogged propagations), then appends and flushes
  // a kCheckpoint record whose restart LSN is the log position from before
  // the propagation, lowered to the BOT of any transaction still open.
  // kBusy (a frame's modifier is mid-call) writes no record and is counted
  // in checkpoints_busy(). Concurrent calls (an automatic checkpoint and an
  // explicit one) run one at a time.
  Status TakeCheckpoint();

  // LSN of the most recent completed checkpoint, or kInvalidLsn.
  Lsn last_checkpoint_lsn() const { return last_checkpoint_lsn_.load(); }
  uint64_t checkpoints_taken() const { return checkpoints_taken_.load(); }
  uint64_t checkpoints_busy() const { return checkpoints_busy_.load(); }

  // Hooks checkpoints into the observability hub (`recovery.checkpoints`
  // and `recovery.checkpoints_busy` counters, kCheckpoint trace events).
  // Null detaches.
  void AttachObs(obs::ObsHub* hub);

 private:
  TransactionManager* txn_manager_;
  LogManager* log_;
  // Serializes TakeCheckpoint. Taken before any buffer, parity or WAL lock.
  std::mutex mu_;
  std::atomic<Lsn> last_checkpoint_lsn_{kInvalidLsn};
  std::atomic<uint64_t> checkpoints_taken_{0};
  std::atomic<uint64_t> checkpoints_busy_{0};
  obs::TraceBuffer* trace_ = nullptr;
  obs::Counter* checkpoints_counter_ = nullptr;
  obs::Counter* busy_counter_ = nullptr;
};

}  // namespace rda

#endif  // RDA_RECOVERY_CHECKPOINTER_H_

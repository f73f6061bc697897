#include "recovery/checkpointer.h"

#include <utility>

#include "wal/log_record.h"

namespace rda {

void Checkpointer::AttachObs(obs::ObsHub* hub) {
  trace_ = obs::TraceOf(hub);
  checkpoints_counter_ = obs::GetCounter(hub, "recovery.checkpoints");
  busy_counter_ = obs::GetCounter(hub, "recovery.checkpoints_busy");
}

Status Checkpointer::TakeCheckpoint() {
  std::lock_guard<std::mutex> lock(mu_);
  // Everything logged before this point that committed is in a buffer
  // frame or on disk; the propagation below puts it all on disk.
  const Lsn before_propagation = log_->next_lsn();
  const Status propagated = txn_manager_->pool()->PropagateAllDirty();
  if (propagated.IsBusy()) {
    ++checkpoints_busy_;
    obs::Inc(busy_counter_);
  }
  RDA_RETURN_IF_ERROR(propagated);
  LogRecord record;
  record.type = LogRecordType::kCheckpoint;
  record.active_txns = txn_manager_->ActiveTxns();
  record.next_txn = txn_manager_->next_txn_id();
  const size_t active = record.active_txns.size();
  RDA_ASSIGN_OR_RETURN(const Lsn lsn, log_->AppendRestartPoint(
                                          std::move(record),
                                          before_propagation));
  RDA_RETURN_IF_ERROR(log_->Flush());
  last_checkpoint_lsn_ = lsn;
  ++checkpoints_taken_;
  obs::Inc(checkpoints_counter_);
  if (trace_ != nullptr) {
    obs::TraceEvent event;
    event.subsystem = obs::Subsystem::kRecovery;
    event.kind = obs::EventKind::kCheckpoint;
    event.detail = static_cast<int64_t>(active);
    event.value = static_cast<int64_t>(lsn);
    obs::Emit(trace_, event);
  }
  return Status::Ok();
}

}  // namespace rda

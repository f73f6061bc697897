#include "recovery/crash_recovery.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "obs/scoped.h"
#include "storage/data_page_meta.h"
#include "txn/record_page.h"
#include "wal/log_record.h"

namespace rda {

namespace {
bool RecoveryTraceEnabled() {
  static const bool enabled = std::getenv("RDA_RECOVERY_TRACE") != nullptr;
  return enabled;
}
}  // namespace

Status CrashRecovery::ConsumeFaultBudget() {
  if (!fault_armed_) {
    return Status::Ok();
  }
  // Concurrent recovery shards race for the remaining units, so each one is
  // claimed with CAS; whoever finds the budget empty trips the crash point.
  uint64_t budget = fault_budget_.load(std::memory_order_relaxed);
  while (budget > 0) {
    if (fault_budget_.compare_exchange_weak(budget, budget - 1,
                                            std::memory_order_relaxed)) {
      return Status::Ok();
    }
  }
  // Crash-point trip: capture the per-thread span/event timeline before
  // the recovery attempt unwinds.
  obs::TriggerFlight(obs::FlightOf(hub_),
                     "injected crash-point tripped during recovery");
  return Status::Aborted("injected crash during recovery");
}

Status CrashRecovery::RedoAfterImage(const LogRecord& record,
                                     uint64_t* applied, uint64_t* skipped) {
  PageImage current;
  RDA_RETURN_IF_ERROR(parity_->ReadDataHealed(record.page, &current));
  const DataPageMeta disk_meta = LoadDataMeta(current.payload);

  PageImage restored(0);
  DataPageMeta meta;
  if (!record.record_granular) {
    // Whole-page image: the captured payload embeds the pageLSN it
    // represents, so the skip test compares captured vs on-disk pageLSN —
    // a FORCEd page whose latest image already reached the disk is left
    // alone. Equal stamps do NOT imply equal content: the stamp is
    // next_lsn() at write time, and a buffered rewrite that follows an
    // unlogged steal (which appends nothing) carries the same stamp as the
    // stolen version already on disk. Break the tie on the data bytes.
    const DataPageMeta captured = LoadDataMeta(record.after);
    if (captured.page_lsn < disk_meta.page_lsn ||
        (captured.page_lsn == disk_meta.page_lsn &&
         std::equal(record.after.begin() + kDataRegionOffset,
                    record.after.end(),
                    current.payload.begin() + kDataRegionOffset))) {
      if (RecoveryTraceEnabled()) {
        std::fprintf(stderr,
                     "redo SKIP page=%llu lsn=%llu cap_lsn=%llu disk_lsn=%llu\n",
                     (unsigned long long)record.page,
                     (unsigned long long)record.lsn,
                     (unsigned long long)captured.page_lsn,
                     (unsigned long long)disk_meta.page_lsn);
      }
      ++*skipped;
      return Status::Ok();
    }
    restored.payload = record.after;
    meta = captured;
  } else {
    // Record-granular image: page-level LSN gating, replay in log order.
    // Equality does not prove the image landed: a page stamp is next_lsn()
    // at write time, and when the stamped write stays buffered past an
    // unlogged steal, the commit's after-image append consumes exactly that
    // LSN — same number, older bytes on disk. Skip on equality only when
    // the slot already holds the image (the idempotent re-recovery case).
    bool already_applied = false;
    if (record.lsn == disk_meta.page_lsn) {
      RecordPageView disk_view(&current.payload,
                               txn_manager_->config().record_size);
      std::vector<uint8_t> disk_slot;
      RDA_RETURN_IF_ERROR(disk_view.Read(record.slot, &disk_slot));
      already_applied = disk_slot == record.after;
    }
    if (record.lsn < disk_meta.page_lsn || already_applied) {
      if (RecoveryTraceEnabled()) {
        std::fprintf(stderr,
                     "redo SKIP page=%llu slot=%u lsn=%llu disk_lsn=%llu\n",
                     (unsigned long long)record.page, (unsigned)record.slot,
                     (unsigned long long)record.lsn,
                     (unsigned long long)disk_meta.page_lsn);
      }
      ++*skipped;
      return Status::Ok();
    }
    restored.payload = current.payload;
    RecordPageView view(&restored.payload,
                        txn_manager_->config().record_size);
    RDA_RETURN_IF_ERROR(view.Write(record.slot, record.after));
    meta = LoadDataMeta(restored.payload);
    meta.page_lsn = record.lsn;
  }
  meta.txn_id = kInvalidTxnId;
  meta.chain_prev = kInvalidPageId;
  StoreDataMeta(meta, &restored.payload);

  RDA_RETURN_IF_ERROR(parity_->Propagate(record.page, kInvalidTxnId,
                                         PropagationKind::kPlain,
                                         &current.payload, restored));
  if (RecoveryTraceEnabled()) {
    std::fprintf(stderr, "redo APPLY page=%llu slot=%u lsn=%llu granular=%d\n",
                 (unsigned long long)record.page, (unsigned)record.slot,
                 (unsigned long long)record.lsn, (int)record.record_granular);
  }
  ++*applied;
  return Status::Ok();
}

uint64_t CrashRecovery::TransfersNow() const {
  return parity_->array()->counters().total() + log_->counters().total();
}

Result<CrashRecoveryReport> CrashRecovery::Recover(Lsn latest_start) {
  CrashRecoveryReport report;
  const auto transfers_now = [this] { return TransfersNow(); };

  // Phase 1: Current_Parity — rebuild the volatile parity directory.
  {
    obs::ScopedPhase phase(hub_, obs::RecoveryPhase::kDirectoryRebuild,
                           transfers_now, &report.phases);
    RDA_RETURN_IF_ERROR(parity_->RebuildDirectory(pool_));
  }

  // Phase 2: analysis — read the log from the newest restart LSN R to the
  // tail, then one forward pass that classifies transactions AND
  // pre-buckets the after-images for the sharded REDO of phase 5. Shard =
  // page id mod shard count, so every image of one page lands on one shard
  // and (the pass being forward) stays in LSN order within it. One shard
  // reproduces the serial replay exactly. Nothing before R is needed: every
  // transaction that logged there had finished by R's record, and its
  // pages were on disk (DESIGN.md 4.3.1).
  const uint32_t redo_shard_count =
      pool_ != nullptr ? std::max<uint32_t>(pool_->width(), 1) : 1;
  LogManager::RestartRead read;
  std::deque<LogRecord>& records = read.records;
  std::vector<std::vector<uint32_t>> redo_shards(redo_shard_count);
  std::unordered_set<TxnId> winners;
  std::unordered_set<TxnId> losers;
  // Per transaction, the LSN at which each page's unlogged window opened
  // (from its kChainHead marker). Consulted by the undo phases below.
  std::unordered_map<TxnId, std::unordered_map<PageId, Lsn>> window_start;
  TxnId max_txn = 0;
  {
    obs::ScopedPhase phase(hub_, obs::RecoveryPhase::kAnalysis, transfers_now,
                           &report.phases);
    RDA_RETURN_IF_ERROR(log_->ReadForRestart(latest_start, &read));
    report.scan_start_lsn = read.scan_start;
    report.log_records_scanned = records.size();
    std::unordered_set<TxnId> seen;
    std::unordered_set<TxnId> finished;  // Committed or abort-complete.
    // Pre-size the transaction sets from the latest checkpoint's active-txn
    // list plus the rebuilt dirty set, instead of rehashing as the scan
    // grows them record by record.
    size_t checkpoint_active = 0;
    for (auto it = records.rbegin(); it != records.rend(); ++it) {
      if (it->type == LogRecordType::kCheckpoint) {
        checkpoint_active = it->active_txns.size();
        break;
      }
    }
    const size_t txn_hint =
        checkpoint_active + parity_->directory().DirtyCount() + 16;
    seen.reserve(txn_hint);
    finished.reserve(txn_hint);
    winners.reserve(txn_hint);
    losers.reserve(txn_hint);
    for (auto& shard : redo_shards) {
      shard.reserve(records.size() / redo_shard_count + 1);
    }
    for (uint32_t index = 0; index < records.size(); ++index) {
      const LogRecord& record = records[index];
      if (record.txn != kInvalidTxnId) {
        seen.insert(record.txn);
        max_txn = std::max(max_txn, record.txn);
      }
      switch (record.type) {
        case LogRecordType::kCommit:
          winners.insert(record.txn);
          finished.insert(record.txn);
          break;
        case LogRecordType::kAbortComplete:
          finished.insert(record.txn);
          break;
        case LogRecordType::kAfterImage:
          redo_shards[record.page % redo_shard_count].push_back(index);
          break;
        case LogRecordType::kChainHead:
          // Unlogged-window open marker: one per group dirtying. Its LSN
          // splits the transaction's before-images of that page into
          // pre-window (deferred past the parity undo, phase 4d) and
          // in-window (phase 4b). Later markers overwrite earlier ones —
          // only the window still open at the crash matters.
          window_start[record.txn][record.chain_head] = record.lsn;
          break;
        default:
          break;
      }
    }
    for (const TxnId txn : seen) {
      if (!finished.contains(txn)) {
        losers.insert(txn);
      }
    }
    // A dirty group whose owner never reached the log (BOT flushed with the
    // first propagation, so this is defensive) is a loser as well.
    for (const GroupId group : parity_->directory().AllDirtyGroups()) {
      const GroupState& state = parity_->directory().Get(group);
      if (!winners.contains(state.dirty_txn)) {
        losers.insert(state.dirty_txn);
      }
    }

    report.winners.assign(winners.begin(), winners.end());
    std::sort(report.winners.begin(), report.winners.end());
    report.losers.assign(losers.begin(), losers.end());
    std::sort(report.losers.begin(), report.losers.end());
  }

  // Phase 3: roll forward twin finalization for winners (crash landed
  // between the commit record and FinalizeCommit).
  {
    obs::ScopedPhase phase(hub_, obs::RecoveryPhase::kRollForward,
                           transfers_now, &report.phases);
    for (const GroupId group : parity_->directory().AllDirtyGroups()) {
      const GroupState& state = parity_->directory().Get(group);
      if (winners.contains(state.dirty_txn)) {
        RDA_RETURN_IF_ERROR(ConsumeFaultBudget());
        RDA_RETURN_IF_ERROR(parity_->FinalizeCommit(group, state.dirty_txn));
        ++report.groups_finalized;
      }
    }
  }

  // Phase 4a: audit-walk the TWIST chains of losers (the paper's mechanism
  // for identifying pages propagated without UNDO logging). The chain
  // heads are the dirty pages recorded in the rebuilt parity directory;
  // each page's embedded chain_prev link leads to the transaction's
  // previously unlogged page. The directory is authoritative — the walk
  // cross-checks it and feeds the report.
  {
    obs::ScopedPhase phase(hub_, obs::RecoveryPhase::kChainAudit,
                           transfers_now, &report.phases);
    std::unordered_set<PageId> visited;
    for (const GroupId group : parity_->directory().AllDirtyGroups()) {
      const GroupState& state = parity_->directory().Get(group);
      if (!losers.contains(state.dirty_txn)) {
        continue;
      }
      PageId cursor = state.dirty_page;
      while (cursor != kInvalidPageId && visited.insert(cursor).second) {
        PageImage data;
        RDA_RETURN_IF_ERROR(parity_->ReadDataHealed(cursor, &data));
        const DataPageMeta meta = LoadDataMeta(data.payload);
        if (meta.txn_id != state.dirty_txn) {
          break;  // Chain tail (or a page already undone).
        }
        ++report.chain_pages_walked;
        cursor = meta.chain_prev;
      }
    }
  }

  // Phases 4b-4d: loser undo, reverse-chronological PER PAGE. A
  // before-image from a steal INSIDE a group's unlogged window (LSN after
  // its kChainHead marker) can contain the loser's own bytes from the
  // unlogged steal; restoring it first re-creates exactly the state the
  // parity undo then cancels, so those go in 4b, before the parity undo
  // (DESIGN.md 4.3). A before-image logged BEFORE the window opened must
  // wait until 4d: applying it first would change the data page out from
  // under the XOR cancellation and the parity undo would "restore" garbage
  // (base xor new xor before). Every page belongs to one parity group, so
  // 4b and 4d each shard by group, keeping reverse LSN order within it.
  using UndoBucket = std::vector<const LogRecord*>;
  exec::KeyedShards<UndoBucket> in_window(pool_);
  exec::KeyedShards<UndoBucket> pre_window(pool_);
  // Applies one phase's buckets; returns the before-images applied.
  const auto apply_before_images =
      [&](exec::KeyedShards<UndoBucket>* buckets, const char* phase_name,
          uint64_t* applied) -> Status {
    const std::vector<UndoBucket*> shards = buckets->Shards();
    std::vector<uint64_t> counts(shards.size(), 0);
    const Status status = exec::RunSharded(
        pool_, shards.size(), [&](uint64_t shard) -> Status {
          for (const LogRecord* record : *shards[shard]) {
            RDA_RETURN_IF_ERROR(ConsumeFaultBudget());
            if (RecoveryTraceEnabled()) {
              std::fprintf(stderr, "undo %s page=%llu slot=%u lsn=%llu "
                           "txn=%llu\n", phase_name,
                           (unsigned long long)record->page,
                           (unsigned)record->slot,
                           (unsigned long long)record->lsn,
                           (unsigned long long)record->txn);
            }
            RDA_RETURN_IF_ERROR(ApplyBeforeImage(
                parity_, txn_manager_->config().record_size, record->page,
                record->record_granular, record->slot, record->before,
                /*restored=*/nullptr));
            ++counts[shard];
          }
          return Status::Ok();
        });
    for (const uint64_t count : counts) {
      *applied += count;
    }
    return status;
  };
  {
    obs::ScopedPhase phase(hub_, obs::RecoveryPhase::kLoggedUndo,
                           transfers_now, &report.phases);
    for (auto it = records.rbegin(); it != records.rend(); ++it) {
      const LogRecord& record = *it;
      if (record.type != LogRecordType::kBeforeImage ||
          !losers.contains(record.txn)) {
        continue;
      }
      const GroupId group = parity_->array()->layout().GroupOf(record.page);
      const GroupState& state = parity_->directory().Get(group);
      bool before_window = false;
      if (state.dirty && state.dirty_txn == record.txn &&
          state.dirty_page == record.page) {
        auto txn_windows = window_start.find(record.txn);
        if (txn_windows != window_start.end()) {
          auto window = txn_windows->second.find(record.page);
          before_window = window != txn_windows->second.end() &&
                          record.lsn < window->second;
        }
      }
      (before_window ? pre_window : in_window).At(group).push_back(&record);
    }
    RDA_RETURN_IF_ERROR(
        apply_before_images(&in_window, "4b", &report.logged_undos));
  }

  // Phase 4c: parity-undo every dirty group owned by a loser. Each undo
  // touches only its own group (directory entry, twins, data page) under
  // that group's latch, so the dirty groups fan out across the pool.
  {
    obs::ScopedPhase phase(hub_, obs::RecoveryPhase::kParityUndo,
                           transfers_now, &report.phases);
    std::vector<std::pair<GroupId, TxnId>> undo_groups;
    for (const GroupId group : parity_->directory().AllDirtyGroups()) {
      const GroupState& state = parity_->directory().Get(group);
      if (losers.contains(state.dirty_txn)) {
        undo_groups.emplace_back(group, state.dirty_txn);
      }
    }
    RDA_RETURN_IF_ERROR(exec::RunSharded(
        pool_, undo_groups.size(), [&](uint64_t i) -> Status {
          RDA_RETURN_IF_ERROR(ConsumeFaultBudget());
          if (RecoveryTraceEnabled()) {
            std::fprintf(stderr, "undo 4c group=%llu txn=%llu\n",
                         (unsigned long long)undo_groups[i].first,
                         (unsigned long long)undo_groups[i].second);
          }
          return parity_
              ->UndoUnloggedUpdate(undo_groups[i].first, undo_groups[i].second)
              .status();
        }));
    report.parity_undos += undo_groups.size();

    // Phase 4d: pre-window before-images, still in reverse LSN order. The
    // parity undo above rewound their pages to each window's base image, so
    // these now apply to the state they were captured against.
    RDA_RETURN_IF_ERROR(
        apply_before_images(&pre_window, "4d", &report.logged_undos));
  }

  // Phase 5: REDO committed after-images. Analysis pre-bucketed them so
  // each shard replays a disjoint page set in LSN order; the pageLSN check
  // skips work already on disk. Shards tally separately and the totals are
  // summed in shard order, so the report is deterministic.
  {
    obs::ScopedPhase phase(hub_, obs::RecoveryPhase::kRedo, transfers_now,
                           &report.phases);
    std::vector<uint64_t> applied(redo_shards.size(), 0);
    std::vector<uint64_t> skipped(redo_shards.size(), 0);
    RDA_RETURN_IF_ERROR(exec::RunSharded(
        pool_, redo_shards.size(), [&](uint64_t shard) -> Status {
          for (const uint32_t index : redo_shards[shard]) {
            const LogRecord& record = records[index];
            if (!winners.contains(record.txn)) {
              continue;
            }
            RDA_RETURN_IF_ERROR(ConsumeFaultBudget());
            RDA_RETURN_IF_ERROR(
                RedoAfterImage(record, &applied[shard], &skipped[shard]));
          }
          return Status::Ok();
        }));
    for (size_t shard = 0; shard < redo_shards.size(); ++shard) {
      report.redo_applied += applied[shard];
      report.redo_skipped += skipped[shard];
    }
  }

  // Phase 6: mark losers resolved so a crash during the next epoch does not
  // re-undo them.
  {
    obs::ScopedPhase phase(hub_, obs::RecoveryPhase::kLoserResolution,
                           transfers_now, &report.phases);
    for (const TxnId txn : report.losers) {
      LogRecord done;
      done.type = LogRecordType::kAbortComplete;
      done.txn = txn;
      RDA_RETURN_IF_ERROR(log_->Append(std::move(done)).status());
    }
    RDA_RETURN_IF_ERROR(log_->Flush());
  }

  // Ids of transactions that finished before R appear in no record read;
  // the restart point's next_txn covers them.
  txn_manager_->BumpNextTxnId(std::max(max_txn + 1, read.next_txn));
  return report;
}

}  // namespace rda

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "core/database.h"

namespace rda {
namespace {

DatabaseOptions BaseOptions() {
  DatabaseOptions options;
  options.array.data_pages_per_group = 4;
  options.array.parity_copies = 2;
  options.array.min_data_pages = 64;
  options.array.page_size = 128;
  options.buffer.capacity = 16;
  options.txn.force = false;  // notFORCE exercises REDO.
  options.txn.rda_undo = true;
  return options;
}

class CrashRecoveryTest : public ::testing::Test {
 protected:
  void Open(const DatabaseOptions& options = BaseOptions()) {
    auto db = Database::Open(options);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    db_ = std::move(db).value();
  }

  std::vector<uint8_t> UserBytes(uint8_t fill) {
    return std::vector<uint8_t>(db_->user_page_size(), fill);
  }

  uint8_t DiskByte(PageId page) {
    auto payload = db_->RawReadPage(page);
    EXPECT_TRUE(payload.ok());
    return (*payload)[kDataRegionOffset];
  }

  void Steal(PageId page) {
    Frame* frame = db_->txn_manager()->pool()->Lookup(page);
    ASSERT_NE(frame, nullptr);
    ASSERT_TRUE(db_->txn_manager()->pool()->PropagateFrame(frame).ok());
  }

  void ExpectParityConsistent() {
    auto ok = db_->VerifyAllParity();
    ASSERT_TRUE(ok.ok());
    EXPECT_TRUE(*ok);
  }

  std::unique_ptr<Database> db_;
};

TEST_F(CrashRecoveryTest, CommittedWorkIsRedone) {
  Open();
  auto txn = db_->Begin();
  ASSERT_TRUE(db_->WritePage(*txn, 1, UserBytes(0xAA)).ok());
  ASSERT_TRUE(db_->Commit(*txn).ok());
  EXPECT_EQ(DiskByte(1), 0x00);  // notFORCE: still only in the buffer.

  db_->Crash();
  auto report = db_->Recover();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->winners.size(), 1u);
  EXPECT_GE(report->redo_applied, 1u);
  EXPECT_EQ(DiskByte(1), 0xAA);
  ExpectParityConsistent();
}

TEST_F(CrashRecoveryTest, BufferedLoserSimplyVanishes) {
  Open();
  auto txn = db_->Begin();
  ASSERT_TRUE(db_->WritePage(*txn, 1, UserBytes(0xBB)).ok());
  db_->Crash();
  auto report = db_->Recover();
  ASSERT_TRUE(report.ok());
  // The transaction never propagated anything: its BOT record was still in
  // the volatile log buffer, so it leaves no trace at all — nothing to
  // undo.
  EXPECT_TRUE(report->losers.empty());
  EXPECT_EQ(report->parity_undos, 0u);
  EXPECT_EQ(DiskByte(1), 0x00);
  ExpectParityConsistent();
}

TEST_F(CrashRecoveryTest, StolenLoserUndoneFromParityAlone) {
  Open();
  auto txn = db_->Begin();
  ASSERT_TRUE(db_->WritePage(*txn, 1, UserBytes(0xCC)).ok());
  Steal(1);
  EXPECT_EQ(DiskByte(1), 0xCC);

  db_->Crash();
  auto report = db_->Recover();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->losers.size(), 1u);
  EXPECT_EQ(report->parity_undos, 1u);
  EXPECT_EQ(report->logged_undos, 0u);
  EXPECT_EQ(DiskByte(1), 0x00);
  ExpectParityConsistent();
}

TEST_F(CrashRecoveryTest, LoggedLoserUndoneFromLog) {
  Open();
  auto txn = db_->Begin();
  // Two pages in the same group: the second steal is a logged one.
  ASSERT_TRUE(db_->WritePage(*txn, 0, UserBytes(0xD1)).ok());
  ASSERT_TRUE(db_->WritePage(*txn, 1, UserBytes(0xD2)).ok());
  Steal(0);
  Steal(1);
  db_->Crash();
  auto report = db_->Recover();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->parity_undos, 1u);
  EXPECT_EQ(report->logged_undos, 1u);
  EXPECT_EQ(DiskByte(0), 0x00);
  EXPECT_EQ(DiskByte(1), 0x00);
  ExpectParityConsistent();
}

TEST_F(CrashRecoveryTest, CrashBetweenCommitAndFinalizeRollsForward) {
  Open();
  auto txn = db_->Begin();
  ASSERT_TRUE(db_->WritePage(*txn, 2, UserBytes(0xE1)).ok());
  Steal(2);
  // Write the commit record manually, crash BEFORE FinalizeCommit: the
  // group is still dirty but the transaction is a winner.
  LogRecord commit;
  commit.type = LogRecordType::kCommit;
  commit.txn = *txn;
  ASSERT_TRUE(db_->log()->Append(std::move(commit)).ok());
  ASSERT_TRUE(db_->log()->Flush().ok());
  EXPECT_TRUE(db_->parity()->directory().Get(0).dirty);

  db_->Crash();
  auto report = db_->Recover();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->groups_finalized, 1u);
  EXPECT_TRUE(report->losers.empty());
  EXPECT_EQ(DiskByte(2), 0xE1);  // Kept: the transaction committed.
  EXPECT_FALSE(db_->parity()->directory().Get(0).dirty);
  ExpectParityConsistent();
}

TEST_F(CrashRecoveryTest, WinnersAndLosersMixed) {
  Open();
  auto winner = db_->Begin();
  ASSERT_TRUE(db_->WritePage(*winner, 0, UserBytes(0x10)).ok());
  ASSERT_TRUE(db_->Commit(*winner).ok());
  auto loser = db_->Begin();
  ASSERT_TRUE(db_->WritePage(*loser, 4, UserBytes(0x20)).ok());
  Steal(4);
  auto loser2 = db_->Begin();
  ASSERT_TRUE(db_->WritePage(*loser2, 8, UserBytes(0x30)).ok());

  db_->Crash();
  auto report = db_->Recover();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->winners.size(), 1u);
  // Only the loser that stole a page is visible after the crash; the
  // buffered-only one evaporated with the volatile log tail.
  EXPECT_EQ(report->losers.size(), 1u);
  EXPECT_EQ(DiskByte(0), 0x10);
  EXPECT_EQ(DiskByte(4), 0x00);
  EXPECT_EQ(DiskByte(8), 0x00);
  ExpectParityConsistent();
}

TEST_F(CrashRecoveryTest, CommittedThenOverwrittenByLoser) {
  // The subtle interleaving from DESIGN.md: a winner's committed-but-
  // unpropagated change is wiped from disk by the loser's parity undo and
  // must be REDOne on top.
  Open();
  auto winner = db_->Begin();
  ASSERT_TRUE(db_->WritePage(*winner, 3, UserBytes(0x77)).ok());
  ASSERT_TRUE(db_->Commit(*winner).ok());  // notFORCE: not on disk.
  auto loser = db_->Begin();
  ASSERT_TRUE(db_->WritePage(*loser, 3, UserBytes(0x88)).ok());
  Steal(3);  // Propagates the loser's version (which includes nothing of
             // the winner's bytes — full page write).
  EXPECT_EQ(DiskByte(3), 0x88);

  db_->Crash();
  auto report = db_->Recover();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(DiskByte(3), 0x77);  // Winner's version, via undo THEN redo.
  ExpectParityConsistent();
}

TEST_F(CrashRecoveryTest, RecoveryIsIdempotent) {
  Open();
  auto winner = db_->Begin();
  ASSERT_TRUE(db_->WritePage(*winner, 0, UserBytes(0x10)).ok());
  ASSERT_TRUE(db_->Commit(*winner).ok());
  auto loser = db_->Begin();
  ASSERT_TRUE(db_->WritePage(*loser, 4, UserBytes(0x20)).ok());
  Steal(4);
  db_->Crash();
  ASSERT_TRUE(db_->Recover().ok());

  // Crash again immediately after recovery, recover again.
  db_->Crash();
  auto second = db_->Recover();
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->losers.empty());  // AbortComplete was logged.
  EXPECT_EQ(second->parity_undos, 0u);
  EXPECT_EQ(DiskByte(0), 0x10);
  EXPECT_EQ(DiskByte(4), 0x00);
  ExpectParityConsistent();
}

TEST_F(CrashRecoveryTest, ChainWalkAuditsUnloggedPages) {
  Open();
  auto loser = db_->Begin();
  ASSERT_TRUE(db_->WritePage(*loser, 0, UserBytes(0x41)).ok());
  ASSERT_TRUE(db_->WritePage(*loser, 4, UserBytes(0x42)).ok());
  ASSERT_TRUE(db_->WritePage(*loser, 8, UserBytes(0x43)).ok());
  Steal(0);
  Steal(4);
  Steal(8);
  db_->Crash();
  auto report = db_->Recover();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->chain_pages_walked, 3u);
  EXPECT_EQ(report->parity_undos, 3u);
  ExpectParityConsistent();
}

TEST_F(CrashRecoveryTest, NewTransactionsResumeAfterRecovery) {
  Open();
  auto txn = db_->Begin();
  ASSERT_TRUE(db_->WritePage(*txn, 0, UserBytes(0x10)).ok());
  ASSERT_TRUE(db_->Commit(*txn).ok());
  db_->Crash();
  ASSERT_TRUE(db_->Recover().ok());

  auto fresh = db_->Begin();
  ASSERT_TRUE(fresh.ok());
  EXPECT_GT(*fresh, *txn);  // Ids never reused.
  ASSERT_TRUE(db_->WritePage(*fresh, 1, UserBytes(0x99)).ok());
  ASSERT_TRUE(db_->Commit(*fresh).ok());
  db_->Crash();
  auto report = db_->Recover();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(DiskByte(1), 0x99);
  EXPECT_EQ(DiskByte(0), 0x10);
}

TEST_F(CrashRecoveryTest, ForceModeCrashNeedsNoRedo) {
  DatabaseOptions options = BaseOptions();
  options.txn.force = true;
  Open(options);
  auto txn = db_->Begin();
  ASSERT_TRUE(db_->WritePage(*txn, 1, UserBytes(0x66)).ok());
  ASSERT_TRUE(db_->Commit(*txn).ok());
  EXPECT_EQ(DiskByte(1), 0x66);  // FORCE put it on disk already.
  auto before = db_->RawReadPage(1);
  ASSERT_TRUE(before.ok());
  db_->Crash();
  auto report = db_->Recover();
  ASSERT_TRUE(report.ok());
  // TOC: the commit record is a restart point with nothing open before it,
  // so restart reads that record alone and examines no after-image.
  EXPECT_EQ(report->log_records_scanned, 1u);
  EXPECT_EQ(report->redo_applied, 0u);
  EXPECT_EQ(report->redo_skipped, 0u);
  EXPECT_EQ(report->winners, std::vector<TxnId>{*txn});
  auto after = db_->RawReadPage(1);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(*after, *before);
}

TEST_F(CrashRecoveryTest, CheckpointBoundsRedoAndSurvivesCrash) {
  DatabaseOptions options = BaseOptions();
  options.checkpoint_interval_updates = 4;
  Open(options);
  for (int i = 0; i < 6; ++i) {
    auto txn = db_->Begin();
    ASSERT_TRUE(
        db_->WritePage(*txn, static_cast<PageId>(i * 4),
                       UserBytes(static_cast<uint8_t>(0x50 + i)))
            .ok());
    ASSERT_TRUE(db_->Commit(*txn).ok());
  }
  EXPECT_GE(db_->checkpointer()->checkpoints_taken(), 1u);
  db_->Crash();
  auto report = db_->Recover();
  ASSERT_TRUE(report.ok());
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(DiskByte(static_cast<PageId>(i * 4)), 0x50 + i);
  }
  ExpectParityConsistent();
}

TEST_F(CrashRecoveryTest, AbortedTransactionNotReundone) {
  Open();
  auto setup = db_->Begin();
  ASSERT_TRUE(db_->WritePage(*setup, 2, UserBytes(0x11)).ok());
  ASSERT_TRUE(db_->Commit(*setup).ok());
  auto aborted = db_->Begin();
  ASSERT_TRUE(db_->WritePage(*aborted, 2, UserBytes(0x22)).ok());
  Steal(2);
  ASSERT_TRUE(db_->Abort(*aborted).ok());

  db_->Crash();
  auto report = db_->Recover();
  ASSERT_TRUE(report.ok());
  // The aborted transaction logged AbortComplete: recovery skips it.
  EXPECT_TRUE(report->losers.empty());
  EXPECT_EQ(DiskByte(2), 0x11);
  ExpectParityConsistent();
}


DatabaseOptions RecordOptions() {
  DatabaseOptions options = BaseOptions();
  options.txn.logging_mode = LoggingMode::kRecordLogging;
  options.txn.record_size = 16;
  return options;
}

TEST_F(CrashRecoveryTest, RecordModeSharedPageWinnerAndLoser) {
  Open(RecordOptions());
  auto winner = db_->Begin();
  auto loser = db_->Begin();
  ASSERT_TRUE(
      db_->WriteRecord(*winner, 1, 0, std::vector<uint8_t>(16, 0xA1)).ok());
  ASSERT_TRUE(
      db_->WriteRecord(*loser, 1, 1, std::vector<uint8_t>(16, 0xB1)).ok());
  Steal(1);  // Multi-modifier: logged for both.
  ASSERT_TRUE(db_->Commit(*winner).ok());

  db_->Crash();
  auto report = db_->Recover();
  ASSERT_TRUE(report.ok());
  auto payload = db_->RawReadPage(1);
  ASSERT_TRUE(payload.ok());
  EXPECT_EQ((*payload)[kDataRegionOffset], 0xA1);       // Winner's slot.
  EXPECT_EQ((*payload)[kDataRegionOffset + 16], 0x00);  // Loser undone.
  ExpectParityConsistent();
}

TEST_F(CrashRecoveryTest, RecordModeUnloggedLoserSlotUndone) {
  Open(RecordOptions());
  auto setup = db_->Begin();
  ASSERT_TRUE(
      db_->WriteRecord(*setup, 2, 0, std::vector<uint8_t>(16, 0x11)).ok());
  ASSERT_TRUE(db_->Commit(*setup).ok());
  ASSERT_TRUE(db_->Checkpoint().ok());

  auto loser = db_->Begin();
  ASSERT_TRUE(
      db_->WriteRecord(*loser, 2, 0, std::vector<uint8_t>(16, 0x99)).ok());
  Steal(2);  // Sole modifier: unlogged, parity-covered.
  db_->Crash();
  auto report = db_->Recover();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->parity_undos, 1u);
  auto payload = db_->RawReadPage(2);
  ASSERT_TRUE(payload.ok());
  EXPECT_EQ((*payload)[kDataRegionOffset], 0x11);
  ExpectParityConsistent();
}

TEST_F(CrashRecoveryTest, ManyCrashEpochsAccumulateCorrectly) {
  Open();
  uint8_t expected = 0;
  for (int epoch = 0; epoch < 5; ++epoch) {
    auto winner = db_->Begin();
    expected = static_cast<uint8_t>(0x10 + epoch);
    ASSERT_TRUE(db_->WritePage(*winner, 1, UserBytes(expected)).ok());
    ASSERT_TRUE(db_->Commit(*winner).ok());
    auto loser = db_->Begin();
    ASSERT_TRUE(db_->WritePage(*loser, 1, UserBytes(0xEE)).ok());
    Steal(1);
    db_->Crash();
    auto report = db_->Recover();
    ASSERT_TRUE(report.ok()) << "epoch " << epoch;
    ASSERT_EQ(DiskByte(1), expected) << "epoch " << epoch;
    ExpectParityConsistent();
  }
}

TEST_F(CrashRecoveryTest, RedoSkippedCountsForceProplagatedPages) {
  DatabaseOptions options = BaseOptions();
  options.txn.force = true;
  Open(options);
  for (int i = 0; i < 3; ++i) {
    auto txn = db_->Begin();
    ASSERT_TRUE(db_->WritePage(*txn, static_cast<PageId>(i * 4),
                               UserBytes(static_cast<uint8_t>(i + 1)))
                    .ok());
    ASSERT_TRUE(db_->Commit(*txn).ok());
  }
  std::vector<std::vector<uint8_t>> before;
  for (int i = 0; i < 3; ++i) {
    auto payload = db_->RawReadPage(static_cast<PageId>(i * 4));
    ASSERT_TRUE(payload.ok());
    before.push_back(*payload);
  }
  db_->Crash();
  auto report = db_->Recover();
  ASSERT_TRUE(report.ok());
  // Nothing committed before the newest restart point is examined: the
  // FORCE-propagated pages are neither redone nor even LSN-checked.
  EXPECT_EQ(report->redo_applied, 0u);
  EXPECT_EQ(report->redo_skipped, 0u);
  for (int i = 0; i < 3; ++i) {
    auto payload = db_->RawReadPage(static_cast<PageId>(i * 4));
    ASSERT_TRUE(payload.ok());
    EXPECT_EQ(*payload, before[i]) << "page " << i * 4;
  }
}

TEST_F(CrashRecoveryTest, FlushedBotWithoutWorkIsCleanLoser) {
  Open();
  auto txn = db_->Begin();
  ASSERT_TRUE(db_->WritePage(*txn, 1, UserBytes(0x44)).ok());
  ASSERT_TRUE(db_->log()->Flush().ok());  // BOT reaches stable storage.
  db_->Crash();
  auto report = db_->Recover();
  ASSERT_TRUE(report.ok());
  ASSERT_EQ(report->losers.size(), 1u);
  EXPECT_EQ(report->parity_undos, 0u);  // Nothing was propagated.
  EXPECT_EQ(DiskByte(1), 0x00);
  // Its AbortComplete is now logged: the next epoch forgets it.
  db_->Crash();
  auto second = db_->Recover();
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->losers.empty());
}

// Regression: after a restart, RebuildDirectory must seed the timestamp
// counter ABOVE every timestamp already stamped on stable twins. If the
// counter restarted low, the first post-restart unlogged update would get a
// twin timestamp not newer than the committed twin's, the WORKING/committed
// classification would pick the wrong image, and undo would restore stale
// data.
TEST_F(CrashRecoveryTest, RestartSeedsTimestampsAboveStableTwins) {
  Open();
  // Several committed generations inflate the pre-crash timestamps.
  for (const uint8_t fill : {0x11, 0x22, 0xAA}) {
    auto txn = db_->Begin();
    ASSERT_TRUE(txn.ok());
    ASSERT_TRUE(db_->WritePage(*txn, 1, UserBytes(fill)).ok());
    Steal(1);
    ASSERT_TRUE(db_->Commit(*txn).ok());
  }

  db_->Crash();
  ASSERT_TRUE(db_->Recover().ok());
  EXPECT_EQ(DiskByte(1), 0xAA);

  // Runtime undo after the restart: the fresh twin must be classified as
  // the working (newer) image so parity undo restores 0xAA, not vice versa.
  auto loser = db_->Begin();
  ASSERT_TRUE(loser.ok());
  ASSERT_TRUE(db_->WritePage(*loser, 1, UserBytes(0xBB)).ok());
  Steal(1);
  EXPECT_EQ(DiskByte(1), 0xBB);
  ASSERT_TRUE(db_->Abort(*loser).ok());
  EXPECT_EQ(DiskByte(1), 0xAA);
  ExpectParityConsistent();

  // Crash undo after the restart: same property through recovery.
  auto crash_loser = db_->Begin();
  ASSERT_TRUE(crash_loser.ok());
  ASSERT_TRUE(db_->WritePage(*crash_loser, 1, UserBytes(0xCC)).ok());
  Steal(1);
  EXPECT_EQ(DiskByte(1), 0xCC);
  db_->Crash();
  auto report = db_->Recover();
  ASSERT_TRUE(report.ok());
  EXPECT_GE(report->parity_undos, 1u);
  EXPECT_EQ(DiskByte(1), 0xAA);
  ExpectParityConsistent();
}

// --- Restart points: restart reads the log from the newest restart LSN ---

// Runs `history` committed single-page transactions, then a fence (a
// checkpoint, or for FORCE the start of a long-lived loser), then a fixed
// load: three winners and a stolen loser. Returns the page transfers of the
// Recover() that follows a crash.
//
// Every history transaction logs the same number of bytes, so histories
// that differ by a multiple of the log page size (128 B) leave the tail at
// the same offset within its page: the final log flush then touches the
// same number of pages, and any other difference in restart transfers
// comes from reading history.
constexpr int kShortHistory = 14;
constexpr int kLongHistory = kShortHistory + 128;  // About 10x.

uint64_t RestartTransfersAfterHistory(bool force, int history,
                                      CrashRecoveryReport* report_out) {
  DatabaseOptions options = BaseOptions();
  options.txn.force = force;
  auto opened = Database::Open(options);
  EXPECT_TRUE(opened.ok());
  std::unique_ptr<Database> db = std::move(opened).value();
  const auto bytes = [&db](uint8_t fill) {
    return std::vector<uint8_t>(db->user_page_size(), fill);
  };
  for (int i = 0; i < history; ++i) {
    auto txn = db->Begin();
    EXPECT_TRUE(db->WritePage(*txn, static_cast<PageId>(32 + i % 32),
                              bytes(static_cast<uint8_t>(i)))
                    .ok());
    EXPECT_TRUE(db->Commit(*txn).ok());
  }
  if (force) {
    // FORCE: every commit is a restart point, bounded by the oldest open
    // transaction — this one, whose stolen page keeps it open to the end.
    auto old_loser = db->Begin();
    EXPECT_TRUE(db->WritePage(*old_loser, 20, bytes(0xE0)).ok());
    Frame* frame = db->txn_manager()->pool()->Lookup(20);
    EXPECT_NE(frame, nullptr);
    EXPECT_TRUE(db->txn_manager()->pool()->PropagateFrame(frame).ok());
  } else {
    EXPECT_TRUE(db->Checkpoint().ok());
  }
  for (int i = 0; i < 3; ++i) {
    auto txn = db->Begin();
    EXPECT_TRUE(db->WritePage(*txn, static_cast<PageId>(4 * i + 1),
                              bytes(static_cast<uint8_t>(0xA0 + i)))
                    .ok());
    EXPECT_TRUE(db->Commit(*txn).ok());
  }
  auto loser = db->Begin();
  EXPECT_TRUE(db->WritePage(*loser, 17, bytes(0xEE)).ok());
  Frame* frame = db->txn_manager()->pool()->Lookup(17);
  EXPECT_NE(frame, nullptr);
  EXPECT_TRUE(db->txn_manager()->pool()->PropagateFrame(frame).ok());

  db->Crash();
  const uint64_t before = db->TotalPageTransfers();
  auto report = db->Recover();
  EXPECT_TRUE(report.ok()) << report.status().ToString();
  const uint64_t transfers = db->TotalPageTransfers() - before;
  for (int i = 0; i < 3; ++i) {
    auto payload = db->RawReadPage(static_cast<PageId>(4 * i + 1));
    EXPECT_TRUE(payload.ok());
    EXPECT_EQ((*payload)[kDataRegionOffset], 0xA0 + i);
  }
  auto loser_page = db->RawReadPage(17);
  EXPECT_TRUE(loser_page.ok());
  EXPECT_EQ((*loser_page)[kDataRegionOffset], 0x00);
  *report_out = *report;
  return transfers;
}

TEST_F(CrashRecoveryTest, NoForceRestartCostIgnoresHistoryBeforeCheckpoint) {
  CrashRecoveryReport short_report;
  CrashRecoveryReport long_report;
  const uint64_t short_history =
      RestartTransfersAfterHistory(false, kShortHistory, &short_report);
  const uint64_t long_history =
      RestartTransfersAfterHistory(false, kLongHistory, &long_report);
  EXPECT_EQ(short_history, long_history);
  EXPECT_EQ(short_report.log_records_scanned,
            long_report.log_records_scanned);
  EXPECT_GT(long_report.scan_start_lsn, short_report.scan_start_lsn);
  EXPECT_EQ(long_report.winners.size(), 3u);
  EXPECT_EQ(long_report.losers.size(), 1u);
}

TEST_F(CrashRecoveryTest, ForceRestartCostIgnoresHistoryBeforeOldestLoser) {
  CrashRecoveryReport short_report;
  CrashRecoveryReport long_report;
  const uint64_t short_history =
      RestartTransfersAfterHistory(true, kShortHistory, &short_report);
  const uint64_t long_history =
      RestartTransfersAfterHistory(true, kLongHistory, &long_report);
  EXPECT_EQ(short_history, long_history);
  EXPECT_EQ(short_report.log_records_scanned,
            long_report.log_records_scanned);
  EXPECT_GT(long_report.scan_start_lsn, short_report.scan_start_lsn);
  // The long-lived loser holds R down to its BOT: the three later winners
  // are read (and LSN-checked), the earlier ones are not.
  EXPECT_EQ(long_report.winners.size(), 3u);
  EXPECT_EQ(long_report.losers.size(), 2u);
  EXPECT_EQ(long_report.redo_applied + long_report.redo_skipped, 3u);
}

// A loser that stays open across a restart point holds R down to its BOT:
// its before-image, logged before the restart point, must still be read
// and applied.
TEST_F(CrashRecoveryTest, LoserOpenAcrossRestartPointIsFullyUndone) {
  for (const bool force : {false, true}) {
    SCOPED_TRACE(force ? "FORCE" : "notFORCE");
    DatabaseOptions options = BaseOptions();
    options.txn.force = force;
    Open(options);
    auto loser = db_->Begin();
    // Same group: the first steal is unlogged (parity-covered), the
    // second must log a before-image.
    ASSERT_TRUE(db_->WritePage(*loser, 0, UserBytes(0xD1)).ok());
    ASSERT_TRUE(db_->WritePage(*loser, 1, UserBytes(0xD2)).ok());
    Steal(0);
    Steal(1);
    // The restart point: a checkpoint, or under FORCE any commit.
    auto winner = db_->Begin();
    ASSERT_TRUE(db_->WritePage(*winner, 8, UserBytes(0x77)).ok());
    ASSERT_TRUE(db_->Commit(*winner).ok());
    if (!force) {
      ASSERT_TRUE(db_->Checkpoint().ok());
    }
    db_->Crash();
    auto report = db_->Recover();
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_EQ(report->losers, std::vector<TxnId>{*loser});
    EXPECT_EQ(report->parity_undos, 1u);
    EXPECT_EQ(report->logged_undos, 1u);
    EXPECT_EQ(DiskByte(0), 0x00);
    EXPECT_EQ(DiskByte(1), 0x00);
    EXPECT_EQ(DiskByte(8), 0x77);
    ExpectParityConsistent();
  }
}

TEST_F(CrashRecoveryTest, TxnIdsFinishedBeforeRestartLsnAreNotReused) {
  for (const bool force : {false, true}) {
    SCOPED_TRACE(force ? "FORCE" : "notFORCE");
    DatabaseOptions options = BaseOptions();
    options.txn.force = force;
    Open(options);
    // The loser draws the lowest id but logs its BOT only at its first
    // write, after the winners have finished and a restart point exists.
    auto loser = db_->Begin();
    TxnId highest = *loser;
    for (int i = 0; i < 8; ++i) {
      auto txn = db_->Begin();
      ASSERT_TRUE(db_->WritePage(*txn, static_cast<PageId>(i), UserBytes(0x30))
                      .ok());
      ASSERT_TRUE(db_->Commit(*txn).ok());
      highest = std::max(highest, *txn);
    }
    if (!force) {
      ASSERT_TRUE(db_->Checkpoint().ok());
    }
    ASSERT_TRUE(db_->WritePage(*loser, 12, UserBytes(0x31)).ok());
    Steal(12);
    db_->Crash();
    auto report = db_->Recover();
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_EQ(report->losers, std::vector<TxnId>{*loser});
    // Under FORCE the newest restart point is the last winner's own
    // commit record, so that one winner is read; no other is.
    EXPECT_LE(report->winners.size(), force ? 1u : 0u);
    auto next = db_->Begin();
    ASSERT_TRUE(next.ok());
    EXPECT_GT(*next, highest);
    ASSERT_TRUE(db_->Commit(*next).ok());
  }
}

TEST_F(CrashRecoveryTest, CrashDuringBoundedRecoveryConverges) {
  // A checkpoint bounds the log; winners after it need REDO, a loser after
  // it needs parity undo. Crash the first recovery after k actions, for
  // every k, then recover again: the same state every time.
  for (uint64_t actions = 0; actions < 6; ++actions) {
    SCOPED_TRACE("actions " + std::to_string(actions));
    Open();
    for (int i = 0; i < 10; ++i) {
      auto txn = db_->Begin();
      ASSERT_TRUE(db_->WritePage(*txn, static_cast<PageId>(i),
                                 UserBytes(static_cast<uint8_t>(0x40 + i)))
                      .ok());
      ASSERT_TRUE(db_->Commit(*txn).ok());
    }
    ASSERT_TRUE(db_->Checkpoint().ok());
    for (int i = 0; i < 3; ++i) {
      auto txn = db_->Begin();
      ASSERT_TRUE(db_->WritePage(*txn, static_cast<PageId>(i),
                                 UserBytes(static_cast<uint8_t>(0x70 + i)))
                      .ok());
      ASSERT_TRUE(db_->Commit(*txn).ok());
    }
    auto loser = db_->Begin();
    ASSERT_TRUE(db_->WritePage(*loser, 9, UserBytes(0xEE)).ok());
    Steal(9);
    db_->Crash();
    auto faulty = db_->RecoverWithInjectedFault(actions);
    if (!faulty.ok()) {
      EXPECT_TRUE(faulty.status().IsAborted());
      db_->Crash();
    }
    auto report = db_->Recover();
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    for (int i = 0; i < 10; ++i) {
      EXPECT_EQ(DiskByte(static_cast<PageId>(i)),
                i < 3 ? 0x70 + i : 0x40 + i)
          << "page " << i;
    }
    ExpectParityConsistent();
  }
}

}  // namespace
}  // namespace rda

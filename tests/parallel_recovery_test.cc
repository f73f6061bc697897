#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/database.h"
#include "exec/worker_pool.h"

namespace rda {
namespace {

// Parallel recovery must be an implementation detail: for every algorithm
// class the paper distinguishes ({page, record} logging x {FORCE, notFORCE}),
// running the same crash at recovery_threads=1 and recovery_threads=4 must
// produce byte-identical data pages, identical recovery reports (including
// per-phase page-transfer counts) and an identical Dirty_Set.
struct ConfigCase {
  LoggingMode mode;
  bool force;
};

std::string CaseName(const ::testing::TestParamInfo<ConfigCase>& info) {
  std::string name =
      info.param.mode == LoggingMode::kPageLogging ? "Page" : "Record";
  name += info.param.force ? "Force" : "NoForce";
  return name;
}

DatabaseOptions BaseOptions(uint32_t threads) {
  DatabaseOptions options;
  options.array.data_pages_per_group = 4;
  options.array.parity_copies = 2;
  options.array.min_data_pages = 64;
  options.array.page_size = 128;
  options.buffer.capacity = 16;
  options.txn.rda_undo = true;
  options.txn.record_size = 16;
  options.recovery.recovery_threads = threads;
  return options;
}

// Everything recovery is allowed to influence, captured for comparison.
struct EndState {
  CrashRecoveryReport report;
  std::vector<std::vector<uint8_t>> pages;
  std::vector<GroupId> dirty_groups;
  bool parity_ok = false;
};

void ExpectSameOutcome(const EndState& serial, const EndState& parallel) {
  EXPECT_EQ(serial.pages, parallel.pages) << "data pages diverged";
  EXPECT_EQ(serial.dirty_groups, parallel.dirty_groups);
  EXPECT_TRUE(serial.parity_ok);
  EXPECT_TRUE(parallel.parity_ok);
  EXPECT_EQ(serial.report.winners, parallel.report.winners);
  EXPECT_EQ(serial.report.losers, parallel.report.losers);
  EXPECT_EQ(serial.report.groups_finalized, parallel.report.groups_finalized);
  EXPECT_EQ(serial.report.parity_undos, parallel.report.parity_undos);
  EXPECT_EQ(serial.report.logged_undos, parallel.report.logged_undos);
  EXPECT_EQ(serial.report.redo_applied, parallel.report.redo_applied);
  EXPECT_EQ(serial.report.redo_skipped, parallel.report.redo_skipped);
  EXPECT_EQ(serial.report.chain_pages_walked,
            parallel.report.chain_pages_walked);
  ASSERT_EQ(serial.report.phases.size(), parallel.report.phases.size());
  for (size_t i = 0; i < serial.report.phases.size(); ++i) {
    EXPECT_EQ(serial.report.phases[i].phase, parallel.report.phases[i].phase);
    EXPECT_EQ(serial.report.phases[i].page_transfers,
              parallel.report.phases[i].page_transfers)
        << "phase " << i;
  }
}

class ParallelRecoveryTest : public ::testing::TestWithParam<ConfigCase> {
 protected:
  void Open(uint32_t threads, uint32_t buffer_capacity = 16) {
    DatabaseOptions options = BaseOptions(threads);
    options.buffer.capacity = buffer_capacity;
    options.txn.logging_mode = GetParam().mode;
    options.txn.force = GetParam().force;
    auto db = Database::Open(options);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    db_ = std::move(db).value();
  }

  Status Write(TxnId txn, PageId page, uint8_t fill) {
    if (GetParam().mode == LoggingMode::kRecordLogging) {
      return db_->WriteRecord(txn, page, 0, std::vector<uint8_t>(16, fill));
    }
    return db_->WritePage(txn, page,
                          std::vector<uint8_t>(db_->user_page_size(), fill));
  }

  Status Read(TxnId txn, PageId page, std::vector<uint8_t>* out) {
    if (GetParam().mode == LoggingMode::kRecordLogging) {
      return db_->ReadRecord(txn, page, 0, out);
    }
    return db_->ReadPage(txn, page, out);
  }

  void Steal(PageId page) {
    Frame* frame = db_->txn_manager()->pool()->Lookup(page);
    ASSERT_NE(frame, nullptr);
    ASSERT_TRUE(db_->txn_manager()->pool()->PropagateFrame(frame).ok());
  }

  void Populate() {
    for (PageId page = 0; page < db_->num_pages(); ++page) {
      auto txn = db_->Begin();
      ASSERT_TRUE(txn.ok());
      ASSERT_TRUE(Write(*txn, page, static_cast<uint8_t>(page + 1)).ok());
      ASSERT_TRUE(db_->Commit(*txn).ok());
    }
  }

  // A crash scenario touching every recovery mechanism at once: buffered
  // winners needing REDO, a committed-but-unfinalized dirty group needing
  // roll-forward, a parity-undo loser, a logged-undo loser and a buffered
  // loser that vanishes.
  void StageCrash() {
    for (uint32_t k = 0; k < 5; ++k) {
      auto winner = db_->Begin();
      ASSERT_TRUE(winner.ok());
      ASSERT_TRUE(Write(*winner, k, static_cast<uint8_t>(0xA0 + k)).ok());
      ASSERT_TRUE(
          Write(*winner, 19 + 4 * k, static_cast<uint8_t>(0xB0 + k)).ok());
      ASSERT_TRUE(db_->Commit(*winner).ok());
    }

    // Commit record on the stable log, crash before twin finalization.
    auto unfinalized = db_->Begin();
    ASSERT_TRUE(unfinalized.ok());
    ASSERT_TRUE(Write(*unfinalized, 40, 0xE1).ok());
    Steal(40);
    LogRecord commit;
    commit.type = LogRecordType::kCommit;
    commit.txn = *unfinalized;
    ASSERT_TRUE(db_->log()->Append(std::move(commit)).ok());
    ASSERT_TRUE(db_->log()->Flush().ok());

    auto parity_loser = db_->Begin();
    ASSERT_TRUE(parity_loser.ok());
    ASSERT_TRUE(Write(*parity_loser, 8, 0xC1).ok());
    Steal(8);

    auto logged_loser = db_->Begin();
    ASSERT_TRUE(logged_loser.ok());
    ASSERT_TRUE(Write(*logged_loser, 12, 0xD1).ok());
    ASSERT_TRUE(Write(*logged_loser, 13, 0xD2).ok());
    Steal(12);
    Steal(13);

    auto buffered_loser = db_->Begin();
    ASSERT_TRUE(buffered_loser.ok());
    ASSERT_TRUE(Write(*buffered_loser, 50, 0xF1).ok());
  }

  EndState Capture(CrashRecoveryReport report) {
    EndState state;
    state.report = std::move(report);
    for (PageId page = 0; page < db_->num_pages(); ++page) {
      auto payload = db_->RawReadPage(page);
      EXPECT_TRUE(payload.ok()) << payload.status().ToString();
      state.pages.push_back(std::move(payload).value());
    }
    state.dirty_groups = db_->parity()->directory().AllDirtyGroups();
    auto ok = db_->VerifyAllParity();
    EXPECT_TRUE(ok.ok());
    state.parity_ok = ok.ok() && *ok;
    return state;
  }

  EndState RunCrashScenario(uint32_t threads) {
    Open(threads);
    Populate();
    StageCrash();
    db_->Crash();
    auto report = db_->Recover();
    EXPECT_TRUE(report.ok()) << report.status().ToString();
    return Capture(std::move(report).value());
  }

  EndState RunRebuildScenario(uint32_t threads, DiskId disk) {
    Open(threads);
    Populate();
    EXPECT_TRUE(db_->FailDisk(disk).ok());
    auto report = db_->RebuildDisk(disk);
    EXPECT_TRUE(report.ok()) << report.status().ToString();
    EndState state = Capture(CrashRecoveryReport{});
    // Fold the media report into comparable fields.
    state.report.groups_finalized = report->data_pages_rebuilt;
    state.report.parity_undos = report->parity_pages_rebuilt;
    state.report.logged_undos = report->obsolete_twins_reset;
    for (const auto& phase : report->phases) {
      state.report.phases.push_back(phase);
    }
    return state;
  }

  std::unique_ptr<Database> db_;
};

TEST_P(ParallelRecoveryTest, CrashRecoveryMatchesSerialAtFourThreads) {
  EndState serial = RunCrashScenario(1);
  EndState parallel = RunCrashScenario(4);
  ExpectSameOutcome(serial, parallel);
}

TEST_P(ParallelRecoveryTest, MediaRebuildMatchesSerialAtFourThreads) {
  // Disk 1 holds data pages; the last disks hold parity twins. Both kinds
  // of rebuild work must match the serial pass.
  EndState serial_data = RunRebuildScenario(1, 1);
  EndState parallel_data = RunRebuildScenario(4, 1);
  ExpectSameOutcome(serial_data, parallel_data);

  const DiskId parity_disk = static_cast<DiskId>(
      db_->array()->layout().ParityLocation(0, 0).disk);
  EndState serial_parity = RunRebuildScenario(1, parity_disk);
  EndState parallel_parity = RunRebuildScenario(4, parity_disk);
  ExpectSameOutcome(serial_parity, parallel_parity);
}

TEST_P(ParallelRecoveryTest, ScrubMatchesSerialAtFourThreads) {
  for (const uint32_t threads : {1u, 4u}) {
    Open(threads);
    Populate();
    auto report = db_->Scrub();
    ASSERT_TRUE(report.ok());
    EXPECT_EQ(report->groups_checked, db_->array()->num_groups());
    EXPECT_TRUE(report->repaired.empty());
    EXPECT_EQ(report->groups_skipped_dirty, 0u);
  }
}

TEST_P(ParallelRecoveryTest, ArchiveRestoreMatchesSerialAtFourThreads) {
  std::vector<EndState> states;
  for (const uint32_t threads : {1u, 4u}) {
    Open(threads);
    Populate();
    ASSERT_TRUE(db_->TakeArchive(false).ok());
    // A catastrophe the array cannot survive: two disks at once.
    ASSERT_TRUE(db_->FailDisk(0).ok());
    ASSERT_TRUE(db_->FailDisk(1).ok());
    auto report = db_->RestoreFromArchive();
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    states.push_back(Capture(std::move(report).value()));
  }
  ExpectSameOutcome(states[0], states[1]);
}

// Everything a runtime abort is allowed to influence.
struct AbortState {
  std::vector<std::vector<uint8_t>> pages;
  std::vector<GroupId> dirty_groups;
  bool parity_ok = false;
  ParityStats parity;
  IoCounters array;
  IoCounters log;
  uint64_t parallel_fors = 0;
};

// A runtime Abort() of a transaction that stole pages into ten parity
// groups, each with a before-image logged before the group's unlogged
// window opened (a steal while another transaction held the group dirty)
// and one logged inside it. Page payloads, parity, the dirty set, parity
// statistics and transfer counts must not depend on the thread count, and
// at four threads the undo must actually fan out.
TEST_P(ParallelRecoveryTest, RuntimeAbortMatchesSerialAtFourThreads) {
  constexpr GroupId kGroups = 10;
  std::vector<AbortState> states;
  for (const uint32_t threads : {1u, 4u}) {
    // Every page stays resident, so the abort must also reconcile the
    // loser's frames with what its disk undo restored.
    Open(threads, /*buffer_capacity=*/128);
    Populate();
    const Layout& layout = db_->array()->layout();
    ASSERT_GE(db_->array()->num_groups(), kGroups);
    auto other = db_->Begin();
    auto loser = db_->Begin();
    ASSERT_TRUE(other.ok() && loser.ok());
    for (GroupId g = 0; g < kGroups; ++g) {
      // `other` dirties the group, so the loser's steal is logged: this
      // before-image predates the loser's own window on the page.
      ASSERT_TRUE(Write(*other, layout.PageAt(g, 0), 0x11).ok());
      Steal(layout.PageAt(g, 0));
      ASSERT_TRUE(Write(*loser, layout.PageAt(g, 1), 0x21).ok());
      Steal(layout.PageAt(g, 1));
    }
    ASSERT_TRUE(db_->Commit(*other).ok());  // Every group is clean again.
    for (GroupId g = 0; g < kGroups; ++g) {
      // Unlogged first steal: the window opens on page 1. The steal of
      // page 2 then finds the group dirty and logs an in-window image.
      ASSERT_TRUE(Write(*loser, layout.PageAt(g, 1), 0x22).ok());
      Steal(layout.PageAt(g, 1));
      ASSERT_TRUE(Write(*loser, layout.PageAt(g, 2), 0x23).ok());
      Steal(layout.PageAt(g, 2));
    }
    const std::vector<GroupId> dirty =
        db_->parity()->directory().DirtyGroupsOf(*loser);
    ASSERT_EQ(dirty.size(), kGroups);
    const ParityStats before = db_->parity()->stats();
    ASSERT_TRUE(db_->Abort(*loser).ok());

    AbortState state;
    for (PageId page = 0; page < db_->num_pages(); ++page) {
      auto payload = db_->RawReadPage(page);
      ASSERT_TRUE(payload.ok()) << payload.status().ToString();
      state.pages.push_back(std::move(payload).value());
    }
    // The loser's pages are back to their populated bytes, on disk and
    // in the buffer.
    auto reader = db_->Begin();
    ASSERT_TRUE(reader.ok());
    for (GroupId g = 0; g < kGroups; ++g) {
      for (const uint32_t i : {1u, 2u}) {
        const PageId page = layout.PageAt(g, i);
        const auto populated = static_cast<uint8_t>(page + 1);
        EXPECT_EQ(state.pages[page][kDataRegionOffset], populated)
            << "threads=" << threads << " page=" << page;
        std::vector<uint8_t> bytes;
        ASSERT_TRUE(Read(*reader, page, &bytes).ok());
        EXPECT_EQ(bytes.at(0), populated)
            << "threads=" << threads << " page=" << page;
      }
    }
    ASSERT_TRUE(db_->Commit(*reader).ok());
    state.dirty_groups = db_->parity()->directory().AllDirtyGroups();
    EXPECT_TRUE(state.dirty_groups.empty());
    auto ok = db_->VerifyAllParity();
    ASSERT_TRUE(ok.ok());
    state.parity_ok = *ok;
    state.parity = db_->parity()->stats();
    EXPECT_EQ(state.parity.parity_undos - before.parity_undos, kGroups);
    EXPECT_GE(state.parity.logged_undos - before.logged_undos, 2 * kGroups);
    state.array = db_->array()->counters();
    state.log = db_->log()->counters();
    state.parallel_fors =
        db_->SnapshotMetrics().CounterValue("exec.parallel_fors");
    states.push_back(std::move(state));
  }
  const AbortState& serial = states[0];
  const AbortState& parallel = states[1];
  EXPECT_EQ(serial.pages, parallel.pages);
  EXPECT_EQ(serial.dirty_groups, parallel.dirty_groups);
  EXPECT_TRUE(serial.parity_ok);
  EXPECT_TRUE(parallel.parity_ok);
  EXPECT_EQ(serial.parity.unlogged_first, parallel.parity.unlogged_first);
  EXPECT_EQ(serial.parity.logged_dirty_group,
            parallel.parity.logged_dirty_group);
  EXPECT_EQ(serial.parity.plain, parallel.parity.plain);
  EXPECT_EQ(serial.parity.parity_undos, parallel.parity.parity_undos);
  EXPECT_EQ(serial.parity.logged_undos, parallel.parity.logged_undos);
  EXPECT_EQ(serial.parity.commits_finalized,
            parallel.parity.commits_finalized);
  EXPECT_EQ(serial.array.page_reads, parallel.array.page_reads);
  EXPECT_EQ(serial.array.page_writes, parallel.array.page_writes);
  EXPECT_EQ(serial.array.xor_computations, parallel.array.xor_computations);
  EXPECT_EQ(serial.log.page_writes, parallel.log.page_writes);
  EXPECT_EQ(serial.parallel_fors, 0u);
  EXPECT_GE(parallel.parallel_fors, 1u);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ParallelRecoveryTest,
    ::testing::Values(ConfigCase{LoggingMode::kPageLogging, true},
                      ConfigCase{LoggingMode::kPageLogging, false},
                      ConfigCase{LoggingMode::kRecordLogging, true},
                      ConfigCase{LoggingMode::kRecordLogging, false}),
    CaseName);

// --- fault-injection interaction (DESIGN.md sections 10 + 13) ---

// A latent sector fault hit by a rebuild worker must escalate through the
// IoPolicy error budget (second failure -> kDataLoss) without wedging the
// worker pool: the pool must still be usable for the archive restore that
// follows. Runs at 1 and 4 threads; the outcome is identical.
TEST(ParallelRebuildFaultTest, LatentFaultEscalatesWithoutDeadlock) {
  std::vector<std::vector<std::vector<uint8_t>>> restored_pages;
  for (const uint32_t threads : {1u, 4u}) {
    DatabaseOptions options = BaseOptions(threads);
    options.txn.logging_mode = LoggingMode::kPageLogging;
    options.txn.force = true;
    options.fault.enabled = true;       // Scripted injections only.
    options.io.disk_error_budget = 1;   // First sector error escalates.
    auto open = Database::Open(options);
    ASSERT_TRUE(open.ok()) << open.status().ToString();
    std::unique_ptr<Database> db = std::move(open).value();
    for (PageId page = 0; page < db->num_pages(); ++page) {
      auto txn = db->Begin();
      ASSERT_TRUE(txn.ok());
      std::vector<uint8_t> bytes(db->user_page_size(),
                                 static_cast<uint8_t>(page + 1));
      ASSERT_TRUE(db->WritePage(*txn, page, bytes).ok());
      ASSERT_TRUE(db->Commit(*txn).ok());
    }
    ASSERT_TRUE(db->TakeArchive(false).ok());

    // Fail the disk holding group 0's consistent parity twin; rebuilding it
    // recomputes parity from the data pages. Plant a latent sector under
    // one of those data reads: healing cannot reconstruct (the parity it
    // needs is on the failed disk), and RecordSectorError blows the error
    // budget — a second disk failure in mid-rebuild.
    const Layout& layout = db->array()->layout();
    const GroupState& state = db->parity()->directory().Get(0);
    const DiskId victim = layout.ParityLocation(0, state.valid_twin).disk;
    const PhysicalLocation faulty =
        layout.DataLocation(layout.PageAt(0, 1));
    ASSERT_NE(faulty.disk, victim);
    db->array()->injector(faulty.disk)->InjectLatentSector(faulty.slot);

    ASSERT_TRUE(db->FailDisk(victim).ok());
    auto rebuild = db->RebuildDisk(victim);
    ASSERT_FALSE(rebuild.ok()) << "threads=" << threads;
    EXPECT_TRUE(rebuild.status().IsDataLoss())
        << rebuild.status().ToString();
    EXPECT_GE(db->array()->policy_stats().escalations, 1u);
    EXPECT_TRUE(db->array()->DiskFailed(faulty.disk));

    // The pool survived: the (pooled) archive restore completes and the
    // database is whole again.
    auto restore = db->RestoreFromArchive();
    ASSERT_TRUE(restore.ok()) << restore.status().ToString();
    std::vector<std::vector<uint8_t>> pages;
    for (PageId page = 0; page < db->num_pages(); ++page) {
      auto payload = db->RawReadPage(page);
      ASSERT_TRUE(payload.ok());
      EXPECT_EQ((*payload)[kDataRegionOffset],
                static_cast<uint8_t>(page + 1));
      pages.push_back(std::move(payload).value());
    }
    auto ok = db->VerifyAllParity();
    ASSERT_TRUE(ok.ok());
    EXPECT_TRUE(*ok);
    restored_pages.push_back(std::move(pages));
  }
  EXPECT_EQ(restored_pages[0], restored_pages[1]);
}

// Directory rebuild with latent sector faults under one twin of three dirty
// groups: groups 2 and 9 lose their committed twin (their parity is
// recomputed from data, group 2 inside the first band and group 9 after
// the bands), group 13 its working twin (reset as obsolete). All three come
// out clean. The directory, the twin headers, the timestamp seed and the
// repair counts must not depend on the thread count.
TEST(ParallelRebuildFaultTest, DirectoryRebuildWithTwinFaultMatchesSerial) {
  struct Outcome {
    std::vector<std::array<uint64_t, 5>> directory;
    std::vector<std::array<uint64_t, 2>> twin_headers;  // State, timestamp.
    ParityTimestamp seed = 0;
    ParityStats parity;
    IoCounters array;
  };
  std::vector<Outcome> outcomes;
  for (const uint32_t threads : {1u, 4u}) {
    DatabaseOptions options = BaseOptions(1);
    options.txn.logging_mode = LoggingMode::kPageLogging;
    options.txn.force = false;
    options.fault.enabled = true;  // Scripted injections only.
    auto open = Database::Open(options);
    ASSERT_TRUE(open.ok()) << open.status().ToString();
    std::unique_ptr<Database> db = std::move(open).value();
    const Layout& layout = db->array()->layout();
    ASSERT_EQ(db->array()->num_groups(), 16u);
    auto loser = db->Begin();
    ASSERT_TRUE(loser.ok());
    // Group 2 last: its twins carry the newest timestamps, so group 9's
    // recomputed twin must land above them, not just above its own.
    for (const GroupId g : {GroupId{9}, GroupId{13}, GroupId{2}}) {
      const PageId page = layout.PageAt(g, 1);
      ASSERT_TRUE(db->WritePage(*loser, page,
                                std::vector<uint8_t>(db->user_page_size(),
                                                     0x5A))
                      .ok());
      Frame* frame = db->txn_manager()->pool()->Lookup(page);
      ASSERT_NE(frame, nullptr);
      ASSERT_TRUE(db->txn_manager()->pool()->PropagateFrame(frame).ok());
    }
    const auto twin_of = [&](GroupId g, bool working) {
      const GroupState& state = db->parity()->directory().Get(g);
      EXPECT_TRUE(state.dirty);
      return layout.ParityLocation(
          g, working ? state.working_twin : state.valid_twin);
    };
    const PhysicalLocation faults[] = {twin_of(2, false), twin_of(9, false),
                                       twin_of(13, true)};
    db->Crash();
    for (const PhysicalLocation& loc : faults) {
      db->array()->injector(loc.disk)->InjectLatentSector(loc.slot);
    }
    exec::WorkerPool pool(threads);
    ASSERT_TRUE(db->parity()->RebuildDirectory(&pool).ok());

    Outcome outcome;
    for (GroupId g = 0; g < db->array()->num_groups(); ++g) {
      const GroupState& state = db->parity()->directory().Get(g);
      outcome.directory.push_back({state.valid_twin, state.dirty,
                                   state.working_twin, state.dirty_page,
                                   state.dirty_txn});
    }
    EXPECT_TRUE(db->parity()->directory().AllDirtyGroups().empty());
    outcome.seed = db->parity()->last_timestamp();
    outcome.parity = db->parity()->stats();
    EXPECT_EQ(outcome.parity.latent_repairs, 3u) << "threads=" << threads;
    outcome.array = db->array()->counters();
    for (GroupId g = 0; g < db->array()->num_groups(); ++g) {
      for (const uint32_t twin : {0u, 1u}) {
        PageImage image;
        ASSERT_TRUE(db->array()->ReadParity(g, twin, &image).ok());
        outcome.twin_headers.push_back(
            {static_cast<uint64_t>(image.header.parity_state),
             image.header.timestamp});
      }
    }
    outcomes.push_back(std::move(outcome));
  }
  EXPECT_EQ(outcomes[0].directory, outcomes[1].directory);
  EXPECT_EQ(outcomes[0].twin_headers, outcomes[1].twin_headers);
  EXPECT_EQ(outcomes[0].seed, outcomes[1].seed);
  EXPECT_EQ(outcomes[0].parity.latent_repairs,
            outcomes[1].parity.latent_repairs);
  EXPECT_EQ(outcomes[0].parity.corruption_repairs,
            outcomes[1].parity.corruption_repairs);
  EXPECT_EQ(outcomes[0].array.page_reads, outcomes[1].array.page_reads);
  EXPECT_EQ(outcomes[0].array.page_writes, outcomes[1].array.page_writes);
}

}  // namespace
}  // namespace rda

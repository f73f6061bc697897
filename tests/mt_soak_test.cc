// Multi-threaded soak of the concurrent engine: N writer threads with
// randomized aborts, end-state equivalence against a serial replay of the
// same scripts, crash+recover on the concurrent end state, scripted
// transient faults under RunConcurrent (with the retry-reclassification
// invariant of the I/O counters), a crash landing inside the group-commit
// latency window, and evidence that group commit actually batches.
//
// This file is the primary TSan target: the CI thread-sanitizer job runs
// it alongside the unit tests (.github/workflows/ci.yml).
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <thread>
#include <vector>

#include "common/random.h"
#include "core/database.h"
#include "io/io_engine.h"

namespace rda {
namespace {

struct MtCase {
  bool force;
  bool rda;
};

std::string CaseName(const ::testing::TestParamInfo<MtCase>& info) {
  return std::string(info.param.force ? "Force" : "NoForce") +
         (info.param.rda ? "Rda" : "NoRda");
}

constexpr uint32_t kThreads = 4;
constexpr uint32_t kPages = 64;
constexpr uint32_t kTxnsPerThread = 30;

DatabaseOptions MakeOptions(bool force, bool rda) {
  DatabaseOptions options;
  options.array.data_pages_per_group = 4;
  options.array.parity_copies = 2;
  options.array.min_data_pages = kPages;
  options.array.page_size = 128;
  options.buffer.capacity = 24;  // Smaller than kPages: evictions happen.
  options.buffer.shards = 4;
  options.txn.force = force;
  options.txn.rda_undo = rda;
  if (!force) {
    options.checkpoint_interval_updates = 64;
  }
  return options;
}

// One scripted operation / transaction / per-thread program. Scripts are
// drawn up front so the concurrent run and the serial replay execute the
// exact same work, and so Busy-triggered retries replay identical writes.
struct ScriptedTxn {
  std::vector<std::pair<PageId, uint8_t>> writes;
  bool abort = false;
};

std::vector<std::vector<ScriptedTxn>> DrawScripts(uint64_t seed) {
  std::vector<std::vector<ScriptedTxn>> scripts(kThreads);
  for (uint32_t worker = 0; worker < kThreads; ++worker) {
    Random rng(seed + worker * 1000003);
    // Disjoint page partition per thread: the final value of every page is
    // then determined by its owner's program order alone, making the
    // concurrent end state deterministic and serially replayable.
    const PageId base = worker * (kPages / kThreads);
    scripts[worker].resize(kTxnsPerThread);
    for (ScriptedTxn& txn : scripts[worker]) {
      const int ops = 1 + static_cast<int>(rng.Uniform(4));
      for (int op = 0; op < ops; ++op) {
        const PageId page =
            base + static_cast<PageId>(rng.Uniform(kPages / kThreads));
        const uint8_t fill = static_cast<uint8_t>(rng.UniformRange(1, 250));
        txn.writes.emplace_back(page, fill);
      }
      txn.abort = rng.Bernoulli(0.25);
    }
  }
  return scripts;
}

// Executes one worker's program. Busy outcomes (lock conflicts, eviction
// hitting a mid-EOT frame) abort and replay the scripted transaction.
void RunScript(Database* db, const std::vector<ScriptedTxn>& script,
               std::atomic<bool>* failed) {
  std::vector<uint8_t> bytes(db->user_page_size());
  for (const ScriptedTxn& scripted : script) {
    for (int attempt = 0; attempt < 10000; ++attempt) {
      auto txn = db->Begin();
      if (!txn.ok()) {
        failed->store(true);
        return;
      }
      bool busy = false;
      for (const auto& [page, fill] : scripted.writes) {
        std::fill(bytes.begin(), bytes.end(), fill);
        const Status status = db->WritePage(*txn, page, bytes);
        if (status.IsBusy()) {
          busy = true;
          break;
        }
        if (!status.ok()) {
          failed->store(true);
          return;
        }
      }
      if (busy || scripted.abort) {
        if (!db->Abort(*txn).ok()) {
          failed->store(true);
          return;
        }
        if (busy) {
          std::this_thread::yield();
          continue;  // Replay the scripted transaction.
        }
        break;  // Scripted abort: move on.
      }
      const Status status = db->Commit(*txn);
      if (status.IsBusy()) {
        if (!db->Abort(*txn).ok()) {
          failed->store(true);
          return;
        }
        std::this_thread::yield();
        continue;
      }
      if (!status.ok()) {
        failed->store(true);
        return;
      }
      break;
    }
  }
}

class MtSoakTest : public ::testing::TestWithParam<MtCase> {};

// The tentpole end-to-end property: N concurrent writers with randomized
// aborts leave the database in EXACTLY the state a serial execution of the
// same scripts leaves it in — and that state survives a crash.
TEST_P(MtSoakTest, ConcurrentWritersMatchSerialEndState) {
  const auto scripts = DrawScripts(GetParam().force * 2 + GetParam().rda + 7);

  auto concurrent_db =
      Database::Open(MakeOptions(GetParam().force, GetParam().rda));
  ASSERT_TRUE(concurrent_db.ok());
  std::atomic<bool> failed{false};
  {
    std::vector<std::thread> workers;
    for (uint32_t w = 0; w < kThreads; ++w) {
      workers.emplace_back(RunScript, concurrent_db->get(), scripts[w],
                           &failed);
    }
    for (std::thread& worker : workers) {
      worker.join();
    }
  }
  ASSERT_FALSE(failed.load());

  auto serial_db =
      Database::Open(MakeOptions(GetParam().force, GetParam().rda));
  ASSERT_TRUE(serial_db.ok());
  for (uint32_t w = 0; w < kThreads; ++w) {
    RunScript(serial_db->get(), scripts[w], &failed);
  }
  ASSERT_FALSE(failed.load());

  // Phase 1: logical equivalence, read through the engine (in NOFORCE
  // configurations committed content may still live in the buffer pool).
  {
    auto concurrent_reader = (*concurrent_db)->Begin();
    auto serial_reader = (*serial_db)->Begin();
    ASSERT_TRUE(concurrent_reader.ok() && serial_reader.ok());
    std::vector<uint8_t> concurrent_bytes;
    std::vector<uint8_t> serial_bytes;
    for (PageId page = 0; page < kPages; ++page) {
      ASSERT_TRUE((*concurrent_db)
                      ->ReadPage(*concurrent_reader, page, &concurrent_bytes)
                      .ok());
      ASSERT_TRUE(
          (*serial_db)->ReadPage(*serial_reader, page, &serial_bytes).ok());
      ASSERT_EQ(concurrent_bytes, serial_bytes)
          << "after concurrent run, page " << page;
    }
    ASSERT_TRUE((*concurrent_db)->Commit(*concurrent_reader).ok());
    ASSERT_TRUE((*serial_db)->Commit(*serial_reader).ok());
    auto parity_ok = (*concurrent_db)->VerifyAllParity();
    ASSERT_TRUE(parity_ok.ok());
    ASSERT_TRUE(*parity_ok) << "after concurrent run";
  }

  // Phase 2: the committed end state must survive a crash — of both
  // engines, so the durable states are directly comparable.
  (*concurrent_db)->Crash();
  ASSERT_TRUE((*concurrent_db)->Recover().ok());
  (*serial_db)->Crash();
  ASSERT_TRUE((*serial_db)->Recover().ok());
  for (PageId page = 0; page < kPages; ++page) {
    auto concurrent_payload = (*concurrent_db)->RawReadPage(page);
    auto serial_payload = (*serial_db)->RawReadPage(page);
    ASSERT_TRUE(concurrent_payload.ok() && serial_payload.ok());
    // Compare the user data region only: the metadata prefix (stamping txn
    // id, page LSN) legitimately depends on scheduling — Busy-triggered
    // retries consume txn ids and LSNs the serial replay never draws.
    const std::vector<uint8_t> concurrent_data(
        concurrent_payload->begin() + kDataRegionOffset,
        concurrent_payload->end());
    const std::vector<uint8_t> serial_data(
        serial_payload->begin() + kDataRegionOffset, serial_payload->end());
    ASSERT_EQ(concurrent_data, serial_data)
        << "after crash+recover, page " << page;
  }
  auto parity_ok = (*concurrent_db)->VerifyAllParity();
  ASSERT_TRUE(parity_ok.ok());
  ASSERT_TRUE(*parity_ok) << "after crash+recover";
}

INSTANTIATE_TEST_SUITE_P(Sweep, MtSoakTest,
                         ::testing::Values(MtCase{true, true},
                                           MtCase{true, false},
                                           MtCase{false, true},
                                           MtCase{false, false}),
                         CaseName);

// Async-vs-sync end-state equivalence (DESIGN.md section 16): the same
// scripts, run against a synchronous (io.width=0) and an asynchronous
// (io.width=2) database, must leave identical committed user data, clean
// parity, and a crash-surviving durable state — at 1 thread (deterministic
// trace) and at kThreads (every interleaving must hold).
TEST_P(MtSoakTest, AsyncEngineMatchesSyncEndState) {
  for (const uint32_t threads : {1u, kThreads}) {
    const auto scripts =
        DrawScripts(GetParam().force * 4 + GetParam().rda * 2 + threads + 31);

    auto run = [&](uint32_t io_width) {
      DatabaseOptions options =
          MakeOptions(GetParam().force, GetParam().rda);
      options.io.width = io_width;
      options.io.queue_watermark = 8;  // Small: drains race the workload.
      auto db = Database::Open(options);
      EXPECT_TRUE(db.ok());
      std::atomic<bool> failed{false};
      if (threads == 1) {
        for (uint32_t w = 0; w < kThreads; ++w) {
          RunScript(db->get(), scripts[w], &failed);
        }
      } else {
        std::vector<std::thread> workers;
        for (uint32_t w = 0; w < threads; ++w) {
          workers.emplace_back(RunScript, db->get(), scripts[w], &failed);
        }
        for (std::thread& worker : workers) {
          worker.join();
        }
      }
      EXPECT_FALSE(failed.load());
      return std::move(db).value();
    };

    auto sync_db = run(0);
    auto async_db = run(2);

    // Phase 1: logical equivalence through the engine (NOFORCE committed
    // content may still live in the buffer pool of either database).
    {
      auto sync_reader = sync_db->Begin();
      auto async_reader = async_db->Begin();
      ASSERT_TRUE(sync_reader.ok() && async_reader.ok());
      std::vector<uint8_t> sync_bytes;
      std::vector<uint8_t> async_bytes;
      for (PageId page = 0; page < kPages; ++page) {
        ASSERT_TRUE(sync_db->ReadPage(*sync_reader, page, &sync_bytes).ok());
        ASSERT_TRUE(
            async_db->ReadPage(*async_reader, page, &async_bytes).ok());
        ASSERT_EQ(sync_bytes, async_bytes)
            << "before crash, " << threads << " thread(s), page " << page;
      }
      ASSERT_TRUE(sync_db->Commit(*sync_reader).ok());
      ASSERT_TRUE(async_db->Commit(*async_reader).ok());
      auto parity_ok = async_db->VerifyAllParity();
      ASSERT_TRUE(parity_ok.ok());
      ASSERT_TRUE(*parity_ok) << "before crash";
    }

    // Phase 2: durable equivalence. Crash() drains the async journal
    // before volatile teardown, so both arrays hold their full committed
    // state; recovery must then converge them to identical user bytes.
    sync_db->Crash();
    ASSERT_TRUE(sync_db->Recover().ok());
    async_db->Crash();
    ASSERT_TRUE(async_db->Recover().ok());
    for (PageId page = 0; page < kPages; ++page) {
      auto sync_payload = sync_db->RawReadPage(page);
      auto async_payload = async_db->RawReadPage(page);
      ASSERT_TRUE(sync_payload.ok() && async_payload.ok());
      // User region only: metadata stamps (txn id, page LSN) may differ
      // across interleavings, exactly as in the concurrent-vs-serial
      // comparison above.
      const std::vector<uint8_t> sync_data(
          sync_payload->begin() + kDataRegionOffset, sync_payload->end());
      const std::vector<uint8_t> async_data(
          async_payload->begin() + kDataRegionOffset, async_payload->end());
      ASSERT_EQ(sync_data, async_data)
          << "after crash+recover, " << threads << " thread(s), page "
          << page;
    }
    auto parity_ok = async_db->VerifyAllParity();
    ASSERT_TRUE(parity_ok.ok());
    ASSERT_TRUE(*parity_ok) << "after crash+recover";
  }
}

// Scripted transient faults under the built-in concurrent workload: every
// transaction must still commit (retries absorb the faults), parity must
// verify, and — the retry-reclassification regression — the LOGICAL
// transfer counters must be identical to a fault-free run of the same
// deterministic workload, with the extra attempts showing up only in
// io_retries. Before the fix, each retried read double-counted as another
// logical page read.
TEST(MtSoakFaultTest, TransientFaultsRetrySafelyAndCountOnlyAsRetries) {
  ConcurrentWorkload workload;
  workload.threads = 1;  // Single worker: the access trace is deterministic.
  workload.txns_per_thread = 60;
  workload.ops_per_txn = 3;
  workload.pages = kPages;
  workload.seed = 42;

  auto run = [&](bool with_faults, IoCounters* counters) {
    DatabaseOptions options = MakeOptions(/*force=*/true, /*rda=*/true);
    if (with_faults) {
      options.fault.enabled = true;
      options.fault.seed = 99;
      options.fault.transient_read_p = 0.02;
      options.fault.transient_write_p = 0.02;
      options.io.max_read_retries = 4;
      options.io.max_write_retries = 4;
    }
    auto db = Database::Open(options);
    ASSERT_TRUE(db.ok());
    auto result = (*db)->txn_manager()->RunConcurrent(workload);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->committed, workload.txns_per_thread);
    auto parity_ok = (*db)->VerifyAllParity();
    ASSERT_TRUE(parity_ok.ok());
    EXPECT_TRUE(*parity_ok);
    *counters = (*db)->array()->counters();
  };

  IoCounters clean;
  IoCounters faulted;
  run(false, &clean);
  run(true, &faulted);

  EXPECT_EQ(clean.io_retries, 0u);
  EXPECT_GT(faulted.io_retries, 0u);  // The schedule did inject faults.
  // Retried accesses are ONE logical transfer plus N retries, so the
  // logical counters match the fault-free trace exactly.
  EXPECT_EQ(faulted.page_reads, clean.page_reads);
  EXPECT_EQ(faulted.page_writes, clean.page_writes);
}

// The same retry-reclassification invariant with the async engine in the
// path: a coalesced journal entry that needs retries during its drain is
// still ONE logical transfer — the extra attempts must land in io_retries,
// never in page_writes. We pin the queue watermark above the workload's
// total write count so every drain happens at the explicit FlushIo below,
// making the physical write order (and thus the fault draws) deterministic.
TEST(MtSoakFaultTest, AsyncCoalescedRetriesCountOnlyAsRetries) {
  ConcurrentWorkload workload;
  workload.threads = 1;  // Single worker: the access trace is deterministic.
  workload.txns_per_thread = 60;
  workload.ops_per_txn = 3;
  workload.pages = kPages;
  workload.seed = 42;

  struct Observed {
    IoCounters counters;
    io::IoEngine::StatsSnapshot engine;
  };
  auto run = [&](bool with_faults, Observed* out) {
    DatabaseOptions options = MakeOptions(/*force=*/true, /*rda=*/true);
    options.io.width = 2;
    options.io.queue_watermark = 1u << 20;  // Drain only at FlushIo.
    if (with_faults) {
      options.fault.enabled = true;
      options.fault.seed = 99;
      options.fault.transient_read_p = 0.02;
      options.fault.transient_write_p = 0.02;
      options.io.max_read_retries = 4;
      options.io.max_write_retries = 4;
    }
    auto db = Database::Open(options);
    ASSERT_TRUE(db.ok());
    auto result = (*db)->txn_manager()->RunConcurrent(workload);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->committed, workload.txns_per_thread);
    ASSERT_TRUE((*db)->array()->FlushIo().ok());
    auto parity_ok = (*db)->VerifyAllParity();
    ASSERT_TRUE(parity_ok.ok());
    EXPECT_TRUE(*parity_ok);
    out->counters = (*db)->array()->counters();
    out->engine = (*db)->array()->io_engine()->stats();
  };

  Observed clean;
  Observed faulted;
  run(false, &clean);
  run(true, &faulted);

  EXPECT_EQ(clean.counters.io_retries, 0u);
  EXPECT_GT(faulted.counters.io_retries, 0u);
  // Identical logical submission streams: faults must not change what the
  // engine saw or how it coalesced, only how many physical attempts the
  // drains needed.
  EXPECT_EQ(faulted.engine.submitted_writes, clean.engine.submitted_writes);
  EXPECT_EQ(faulted.engine.coalesced_writes, clean.engine.coalesced_writes);
  EXPECT_EQ(faulted.engine.physical_writes, clean.engine.physical_writes);
  // And the logical transfer counters match the fault-free trace exactly:
  // each retried drain was reclassified down to one logical write.
  EXPECT_EQ(faulted.counters.page_reads, clean.counters.page_reads);
  EXPECT_EQ(faulted.counters.page_writes, clean.counters.page_writes);
}

// A crash landing inside the group-commit latency window: the leader has
// PUBLISHED the batch to the stable streams and is sleeping out the device
// delay when the crash hits. The commit record must survive — publication,
// not the latency accounting, is what recovery reads.
TEST(MtSoakGroupCommitTest, CrashInsideLatencyWindowKeepsPublishedCommit) {
  LogManager::Options options;
  options.group_commit_window_us = 5000;
  options.flush_delay_us = 200000;
  LogManager log(options);

  LogRecord commit;
  commit.type = LogRecordType::kCommit;
  commit.txn = 7;
  auto lsn = log.Append(commit);
  ASSERT_TRUE(lsn.ok());

  std::thread committer([&log, &lsn] {
    ASSERT_TRUE(log.CommitFlush(*lsn).ok());
  });
  // Land well inside [window, window + delay): the batch is published, the
  // leader is still sleeping.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  log.LoseVolatileState();  // The crash.
  committer.join();

  std::vector<LogRecord> records;
  ASSERT_TRUE(log.Scan(0, &records).ok());
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].type, LogRecordType::kCommit);
  EXPECT_EQ(records[0].txn, 7u);
}

// Truncation racing a group commit: the leader has published its batch and
// is sleeping out the device delay when Truncate targets an LSN inside that
// batch. Truncate must wait for the commit-durable watermark — before the
// fix it erased records whose CommitFlush callers were still blocked.
TEST(MtSoakGroupCommitTest, TruncateWaitsOutInFlightCommitBatch) {
  LogManager::Options options;
  options.flush_delay_us = 120000;
  LogManager log(options);

  // An old record, already stable: the pre-batch truncation boundary.
  LogRecord old_commit;
  old_commit.type = LogRecordType::kCommit;
  old_commit.txn = 1;
  ASSERT_TRUE(log.Append(old_commit).ok());
  ASSERT_TRUE(log.Flush().ok());

  LogRecord commit;
  commit.type = LogRecordType::kCommit;
  commit.txn = 2;
  auto lsn = log.Append(commit);
  ASSERT_TRUE(lsn.ok());

  std::thread committer([&log, &lsn] {
    ASSERT_TRUE(log.CommitFlush(*lsn).ok());
  });
  // Land inside the publish-before-sleep window: the batch is stable, the
  // leader is sleeping, commit durability has not advanced yet.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (log.flushed_lsn() <= *lsn &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const Lsn batch_end = log.flushed_lsn();
  ASSERT_GT(batch_end, *lsn);  // The leader did publish txn 2's record.

  // Truncate the whole stable log, including the in-flight batch. The call
  // must block until the leader's latency elapses: when it returns, the
  // watermark covers everything it erased — deterministically, not by luck.
  ASSERT_TRUE(log.Truncate(batch_end).ok());
  EXPECT_GE(log.commit_durable_lsn(), batch_end)
      << "Truncate returned while the batch it erased was not yet "
         "commit-durable";
  committer.join();

  EXPECT_EQ(log.base_lsn(), batch_end);
  std::vector<LogRecord> records;
  ASSERT_TRUE(log.Scan(0, &records).ok());
  EXPECT_TRUE(records.empty());  // Everything up to the boundary is gone.
}

// Concurrent truncators and committers must never lose an unacknowledged
// commit record: every Truncate boundary observed by a committer after its
// CommitFlush returned lies at or below the durability watermark.
TEST(MtSoakGroupCommitTest, ConcurrentTruncateAndCommitKeepWatermarkOrder) {
  LogManager::Options options;
  options.flush_delay_us = 2000;
  LogManager log(options);

  std::atomic<bool> stop{false};
  std::atomic<bool> failed{false};
  std::thread truncator([&] {
    while (!stop.load(std::memory_order_acquire)) {
      // Truncate to the current flushed tail — a legal boundary. With a
      // batch in flight this waits; it must never erase ahead of the
      // watermark.
      const Lsn target = log.flushed_lsn();
      const Status status = log.Truncate(target);
      if (!status.ok() && !status.IsInvalidArgument()) {
        failed.store(true);
        return;
      }
      if (status.ok() && log.commit_durable_lsn() < target) {
        failed.store(true);
        return;
      }
      std::this_thread::yield();
    }
  });
  for (int i = 0; i < 40; ++i) {
    LogRecord commit;
    commit.type = LogRecordType::kCommit;
    commit.txn = static_cast<TxnId>(i + 1);
    auto lsn = log.Append(commit);
    ASSERT_TRUE(lsn.ok());
    ASSERT_TRUE(log.CommitFlush(*lsn).ok());
  }
  stop.store(true, std::memory_order_release);
  truncator.join();
  ASSERT_FALSE(failed.load());
}

// Group commit must actually batch: with a real flush latency and four
// closed-loop committers, fewer flushes than commits.
TEST(MtSoakGroupCommitTest, ConcurrentCommittersShareFlushes) {
  DatabaseOptions options = MakeOptions(/*force=*/true, /*rda=*/true);
  options.log.flush_delay_us = 1000;
  options.log.group_commit_window_us = 400;
  options.obs.enable_metrics = true;
  auto db = Database::Open(options);
  ASSERT_TRUE(db.ok());

  ConcurrentWorkload workload;
  workload.threads = 4;
  workload.txns_per_thread = 15;
  workload.ops_per_txn = 2;
  workload.pages = kPages;
  workload.seed = 3;
  auto result = (*db)->txn_manager()->RunConcurrent(workload);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->committed, 60u);

  const obs::MetricsSnapshot metrics = (*db)->SnapshotMetrics();
  const uint64_t batches = metrics.CounterValue("wal.group_commit_batches");
  EXPECT_GT(batches, 0u);
  EXPECT_LT(batches, result->committed);  // At least one multi-commit batch.

  auto parity_ok = (*db)->VerifyAllParity();
  ASSERT_TRUE(parity_ok.ok());
  EXPECT_TRUE(*parity_ok);
}

// Striped media rebuild under TSan: a concurrent workload produces the
// database, then every disk is failed and rebuilt with a 4-wide worker
// pool. The rebuild workers share the parity manager, scratch pool, dirty
// set and obs hub — exactly the state the banded partition claims needs no
// coordination — so a data race here is a sharding-rule violation. A pooled
// crash recovery over the same state rides along for the REDO/undo shards.
TEST(MtSoakRebuildTest, ConcurrentRebuildAndRecoveryAreRaceFree) {
  DatabaseOptions options = MakeOptions(/*force=*/false, /*rda=*/true);
  options.recovery.recovery_threads = 4;
  options.obs.enable_metrics = true;
  options.obs.enable_trace = true;
  auto db = Database::Open(options);
  ASSERT_TRUE(db.ok());

  ConcurrentWorkload workload;
  workload.threads = 4;
  workload.txns_per_thread = 20;
  workload.ops_per_txn = 3;
  workload.pages = kPages;
  workload.seed = 11;
  auto result = (*db)->txn_manager()->RunConcurrent(workload);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  for (DiskId disk = 0; disk < (*db)->array()->num_disks(); ++disk) {
    ASSERT_TRUE((*db)->FailDisk(disk).ok());
    auto report = (*db)->RebuildDisk(disk);
    ASSERT_TRUE(report.ok()) << "disk " << disk << ": "
                             << report.status().ToString();
  }
  auto parity_ok = (*db)->VerifyAllParity();
  ASSERT_TRUE(parity_ok.ok());
  EXPECT_TRUE(*parity_ok);

  (*db)->Crash();
  ASSERT_TRUE((*db)->Recover().ok());
  auto scrub = (*db)->Scrub();
  ASSERT_TRUE(scrub.ok());
  EXPECT_TRUE(scrub->repaired.empty());
}

// Checkpoints taken while writers commit and abort are restart points:
// after a crash, recovery reads the log from the newest one only. The
// recovered state must still match each writer's shadow of its committed
// pages (writers own disjoint pages, so each shadow is exact), and the
// transactions left open at the crash must leave no trace.
TEST(MtSoakCheckpointTest, CheckpointsAmidWritersBoundRestartAndKeepCommits) {
  constexpr PageId kPagesPerWriter = kPages / kThreads;
  DatabaseOptions options = MakeOptions(/*force=*/false, /*rda=*/true);
  auto db = Database::Open(options);
  ASSERT_TRUE(db.ok());
  Database* database = db->get();
  std::atomic<bool> stop{false};
  std::atomic<bool> failed{false};
  std::atomic<uint32_t> checkpoints{0};
  std::atomic<uint32_t> finished{0};  // Transactions that reached EOT.
  std::vector<std::map<PageId, uint8_t>> shadows(kThreads);

  auto writer = [&](uint32_t w) {
    Random rng(900 + w);
    std::vector<uint8_t> bytes(database->user_page_size());
    const PageId base = w * kPagesPerWriter;
    // Writers keep going for a while after the last checkpoint, so that
    // restart has post-checkpoint work to redo.
    for (int after_stop = 10; !stop.load() || after_stop-- > 0;) {
      std::vector<std::pair<PageId, uint8_t>> writes;
      const int ops = 1 + static_cast<int>(rng.Uniform(3));
      for (int op = 0; op < ops; ++op) {
        writes.emplace_back(
            base + static_cast<PageId>(rng.Uniform(kPagesPerWriter)),
            static_cast<uint8_t>(rng.UniformRange(1, 250)));
      }
      const bool abort = rng.Bernoulli(0.2);
      for (int attempt = 0;; ++attempt) {
        if (attempt == 10000) {
          failed.store(true);
          return;
        }
        auto txn = database->Begin();
        Status status = txn.status();
        for (size_t i = 0; status.ok() && i < writes.size(); ++i) {
          std::fill(bytes.begin(), bytes.end(), writes[i].second);
          status = database->WritePage(*txn, writes[i].first, bytes);
        }
        if (status.ok() && !abort) {
          status = database->Commit(*txn);
          if (status.ok()) {
            for (const auto& [page, fill] : writes) {
              shadows[w][page] = fill;
            }
            break;
          }
        }
        if (!status.ok() && !status.IsBusy()) {
          failed.store(true);
          return;
        }
        if (!database->Abort(*txn).ok()) {
          failed.store(true);
          return;
        }
        if (status.ok()) {
          break;  // Scripted abort.
        }
        std::this_thread::yield();
      }
      finished.fetch_add(1);
      // Leave gaps in which no frame is mid-call, so checkpoints succeed.
      std::this_thread::sleep_for(std::chrono::microseconds(20));
    }
    // One transaction per writer is still open at the crash.
    auto loser = database->Begin();
    std::fill(bytes.begin(), bytes.end(), 0xEE);
    for (PageId page = base; page < base + 3; ++page) {
      if (!database->WritePage(*loser, page, bytes).ok()) {
        failed.store(true);
        return;
      }
    }
  };

  std::vector<std::thread> writers;
  for (uint32_t w = 0; w < kThreads; ++w) {
    writers.emplace_back(writer, w);
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (finished.load() < 40 && !failed.load() &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();  // Let the writers build up a history.
  }
  while (checkpoints.load() < 3 && !failed.load() &&
         std::chrono::steady_clock::now() < deadline) {
    const Status status = database->Checkpoint();
    if (status.ok()) {
      checkpoints.fetch_add(1);
    } else if (!status.IsBusy()) {
      failed.store(true);
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  stop.store(true);
  for (std::thread& thread : writers) {
    thread.join();
  }
  ASSERT_FALSE(failed.load());
  ASSERT_GE(checkpoints.load(), 3u) << "no checkpoint got through";

  database->Crash();
  auto report = database->Recover();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_GT(report->scan_start_lsn, 0u);
  // A loser whose BOT was still buffered at the crash left no trace.
  EXPECT_LE(report->losers.size(), kThreads);
  for (uint32_t w = 0; w < kThreads; ++w) {
    for (PageId page = w * kPagesPerWriter;
         page < (w + 1) * kPagesPerWriter; ++page) {
      auto payload = database->RawReadPage(page);
      ASSERT_TRUE(payload.ok());
      const auto it = shadows[w].find(page);
      const uint8_t expected = it == shadows[w].end() ? 0 : it->second;
      const std::vector<uint8_t> want(payload->size() - kDataRegionOffset,
                                      expected);
      ASSERT_TRUE(std::equal(want.begin(), want.end(),
                             payload->begin() + kDataRegionOffset))
          << "page " << page;
    }
  }
  auto parity_ok = database->VerifyAllParity();
  ASSERT_TRUE(parity_ok.ok());
  EXPECT_TRUE(*parity_ok);
}

// Concurrent span emission: four threads pour ScopedSpans into one shared
// collector while a reader thread snapshots the rings the whole time. The
// seqlock protocol must keep this data-race free (this file runs under the
// TSan CI job) and no record may be torn — a snapshot either sees a span
// whole or not at all.
TEST(MtSoakSpanTest, ConcurrentEmittersAndSnapshotsDontTear) {
  constexpr int kSpansPerThread = 2000;
  obs::SpanCollector collector(128);
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> snapshots_taken{0};

  std::thread reader([&] {
    while (!stop.load(std::memory_order_acquire)) {
      for (const auto& thread : collector.SnapshotAll()) {
        for (const obs::SpanRecord& span : thread.spans) {
          // A torn slot would show a kind no writer ever stores.
          ASSERT_EQ(span.kind, obs::SpanKind::kParityPropagate);
          ASSERT_EQ(span.detail, static_cast<int64_t>(thread.thread_index));
        }
      }
      snapshots_taken.fetch_add(1, std::memory_order_relaxed);
    }
  });

  {
    std::vector<std::thread> emitters;
    for (int w = 0; w < 4; ++w) {
      emitters.emplace_back([&collector] {
        // Every thread writes its ring index as the detail, so the reader
        // can verify attribution. Ring() resolves the index on first use.
        const uint32_t index = collector.Ring()->thread_index();
        for (int i = 0; i < kSpansPerThread; ++i) {
          obs::ScopedSpan span(&collector, obs::SpanKind::kParityPropagate,
                               nullptr, static_cast<int64_t>(index));
        }
      });
    }
    for (std::thread& emitter : emitters) {
      emitter.join();
    }
  }
  stop.store(true, std::memory_order_release);
  reader.join();

  EXPECT_GT(snapshots_taken.load(), 0u);
  EXPECT_EQ(collector.TotalRecorded(), 4u * kSpansPerThread);
  // Rings hold 128 entries each; the rest are counted, not silent.
  EXPECT_EQ(collector.TotalDropped(), 4u * (kSpansPerThread - 128));
  const auto threads = collector.SnapshotAll();
  ASSERT_EQ(threads.size(), 4u);
  for (const auto& thread : threads) {
    EXPECT_EQ(thread.recorded, static_cast<uint64_t>(kSpansPerThread));
    EXPECT_EQ(thread.spans.size(), 128u);  // Quiesced: no skipped slots.
  }
}

}  // namespace
}  // namespace rda

// Latency-percentile report: runs the paper's four algorithm classes
// (page vs record logging x FORCE-TOC vs notFORCE-ACC), each with RDA undo
// on and off, under the concurrent engine at 1 and 4 worker threads, then
// stages a crash + recovery. For every run it reports bucket-interpolated
// p50/p95/p99 from the engine's latency histograms — commit, WAL flush,
// group-commit wait (leader vs follower), parity propagate, and each
// recovery phase — and writes BENCH_latency.json for the README table and
// the CI perf-smoke artifact. The 4-thread page_force_toc RDA run also
// exports its span timeline as a Chrome Trace Event file (BENCH_trace.json,
// loadable in Perfetto / chrome://tracing).
//
// Usage: latency_report [output.json] [trace.json]
//        (defaults: BENCH_latency.json, BENCH_trace.json in cwd)
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "core/database.h"

namespace {

struct Config {
  const char* name;
  rda::LoggingMode logging;
  bool force;
  uint64_t checkpoint_interval;
};

constexpr Config kConfigs[] = {
    {"page_force_toc", rda::LoggingMode::kPageLogging, true, 0},
    {"page_noforce_acc", rda::LoggingMode::kPageLogging, false, 256},
    {"record_force_toc", rda::LoggingMode::kRecordLogging, true, 0},
    {"record_noforce_acc", rda::LoggingMode::kRecordLogging, false, 256},
};

// Simulated log-device flush latency: gives group commit something to
// amortise so leader-flush vs follower-wait separate visibly.
constexpr uint32_t kFlushDelayUs = 500;
constexpr uint32_t kGroupCommitWindowUs = 200;
constexpr uint32_t kTotalTxns = 240;  // Split evenly across workers.
constexpr uint32_t kOpsPerTxn = 4;
constexpr uint32_t kPages = 384;
const std::vector<uint32_t> kThreadCounts = {1, 4};

// The per-operation histograms every run reports. Group-commit wait is
// split by role: the leader pays the device flush, followers only wait.
constexpr const char* kOperationHists[] = {
    "txn.commit_us",
    "wal.flush_us",
    "wal.group_commit_wait_us",
    "wal.group_commit_leader_flush_us",
    "wal.group_commit_follower_wait_us",
    "parity.propagate_us",
};

rda::DatabaseOptions MakeOptions(const Config& config, bool rda_on) {
  rda::DatabaseOptions options;
  options.array.data_pages_per_group = 8;
  options.array.parity_copies = 2;
  options.array.min_data_pages = 512;
  options.array.page_size = 512;
  options.buffer.capacity = 512;
  options.buffer.shards = 8;
  options.txn.logging_mode = config.logging;
  options.txn.record_size = 48;
  options.txn.force = config.force;
  options.txn.rda_undo = rda_on;
  options.checkpoint_interval_updates = config.checkpoint_interval;
  options.log.flush_delay_us = kFlushDelayUs;
  options.log.group_commit_window_us = kGroupCommitWindowUs;
  return options;  // Observability (metrics/trace/spans) on by default.
}

// Leaves in-flight transactions with stolen pages on disk, then crashes and
// recovers — the recovery-phase percentiles come from this staged restart.
rda::Status StageCrashAndRecover(rda::Database* db,
                                 rda::CrashRecoveryReport* report) {
  const int losers = 4;
  const int pages_each = 3;
  const bool record_mode = db->txn_manager()->config().logging_mode ==
                           rda::LoggingMode::kRecordLogging;
  std::vector<uint8_t> page_bytes(db->user_page_size(), 0xA5);
  std::vector<uint8_t> record_bytes(db->txn_manager()->config().record_size,
                                    0xA5);
  for (int t = 0; t < losers; ++t) {
    RDA_ASSIGN_OR_RETURN(const rda::TxnId txn, db->Begin());
    for (int i = 0; i < pages_each; ++i) {
      const rda::PageId page =
          static_cast<rda::PageId>((t * 64 + i * 8) % db->num_pages());
      rda::Status status =
          record_mode ? db->WriteRecord(txn, page, 0, record_bytes)
                      : db->WritePage(txn, page, page_bytes);
      if (status.IsBusy()) {
        continue;
      }
      RDA_RETURN_IF_ERROR(status);
      rda::Frame* frame = db->txn_manager()->pool()->Lookup(page);
      if (frame != nullptr) {
        RDA_RETURN_IF_ERROR(db->txn_manager()->pool()->PropagateFrame(frame));
      }
    }
  }
  db->Crash();
  RDA_ASSIGN_OR_RETURN(*report, db->Recover());
  return rda::Status::Ok();
}

void AppendDouble(std::string* out, double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f", value);
  *out += buf;
}

// {"count":n,"p50":x,"p95":y,"p99":z,"max":m} — zeros when the histogram
// is absent or empty.
void AppendPercentiles(
    std::string* out,
    const rda::obs::MetricsSnapshot::HistogramSnapshot* histogram) {
  *out += "{\"count\":";
  *out += std::to_string(histogram != nullptr ? histogram->count : 0);
  constexpr struct {
    const char* label;
    double q;
  } kQuantiles[] = {{"p50", 0.50}, {"p95", 0.95}, {"p99", 0.99}};
  for (const auto& [label, q] : kQuantiles) {
    *out += ",\"";
    *out += label;
    *out += "\":";
    AppendDouble(out, histogram != nullptr ? rda::obs::Quantile(*histogram, q)
                                           : 0.0);
  }
  *out += ",\"max\":";
  AppendDouble(out, histogram != nullptr ? histogram->max : 0.0);
  *out += "}";
}

}  // namespace

int main(int argc, char** argv) {
  const char* out_path = argc > 1 ? argv[1] : "BENCH_latency.json";
  const char* trace_path = argc > 2 ? argv[2] : "BENCH_trace.json";

  std::string json = "{\"flush_delay_us\":" + std::to_string(kFlushDelayUs) +
                     ",\"group_commit_window_us\":" +
                     std::to_string(kGroupCommitWindowUs) +
                     ",\"total_txns\":" + std::to_string(kTotalTxns) +
                     ",\"runs\":[";
  bool first = true;
  bool trace_written = false;
  for (const Config& config : kConfigs) {
    for (const bool rda_on : {true, false}) {
      for (const uint32_t threads : kThreadCounts) {
        auto db_or = rda::Database::Open(MakeOptions(config, rda_on));
        if (!db_or.ok()) {
          std::fprintf(stderr, "%s rda=%d t=%u: open failed: %s\n",
                       config.name, rda_on ? 1 : 0, threads,
                       db_or.status().message().c_str());
          return 1;
        }
        rda::Database* db = db_or->get();

        rda::ConcurrentWorkload workload;
        workload.threads = threads;
        workload.txns_per_thread = kTotalTxns / threads;
        workload.ops_per_txn = kOpsPerTxn;
        workload.pages = kPages;
        workload.write_fraction = 1.0;
        workload.seed = 29 + threads;
        auto run = db->RunConcurrent(workload);
        if (!run.ok()) {
          std::fprintf(stderr, "%s rda=%d t=%u: run failed: %s\n",
                       config.name, rda_on ? 1 : 0, threads,
                       run.status().message().c_str());
          return 1;
        }

        const uint64_t checkpoints =
            db->SnapshotMetrics().CounterValue("recovery.checkpoints");
        if (config.checkpoint_interval > 0 && checkpoints == 0) {
          std::fprintf(stderr, "%s rda=%d t=%u: no checkpoint completed\n",
                       config.name, rda_on ? 1 : 0, threads);
          return 1;
        }

        rda::CrashRecoveryReport recovery;
        rda::Status staged = StageCrashAndRecover(db, &recovery);
        if (!staged.ok()) {
          std::fprintf(stderr, "%s rda=%d t=%u: staged recovery failed: %s\n",
                       config.name, rda_on ? 1 : 0, threads,
                       staged.message().c_str());
          return 1;
        }

        const rda::obs::MetricsSnapshot snapshot = db->SnapshotMetrics();
        if (!first) {
          json += ",";
        }
        first = false;
        json += "{\"config\":\"";
        json += config.name;
        json += "\",\"rda_undo\":";
        json += rda_on ? "true" : "false";
        json += ",\"threads\":";
        json += std::to_string(threads);
        json += ",\"committed\":";
        json += std::to_string(run->committed);
        json += ",\"checkpoints\":";
        json += std::to_string(checkpoints);
        json += ",\"operations\":{";
        bool first_op = true;
        for (const char* name : kOperationHists) {
          if (!first_op) {
            json += ",";
          }
          first_op = false;
          json += "\"";
          json += name;
          json += "\":";
          AppendPercentiles(&json, snapshot.FindHistogram(name));
        }
        json += "},\"recovery_phases\":{";
        bool first_phase = true;
        for (const auto& histogram : snapshot.histograms) {
          const std::string_view name = histogram.name;
          constexpr std::string_view kPrefix = "recovery.phase.";
          constexpr std::string_view kSuffix = ".wall_us";
          if (!name.starts_with(kPrefix) || !name.ends_with(kSuffix)) {
            continue;
          }
          if (!first_phase) {
            json += ",";
          }
          first_phase = false;
          json += "\"";
          json += name.substr(kPrefix.size(),
                              name.size() - kPrefix.size() - kSuffix.size());
          json += "\":";
          AppendPercentiles(&json, &histogram);
        }
        json += "}}";

        const auto* commit = snapshot.FindHistogram("txn.commit_us");
        std::printf("%-20s rda=%d t=%u: %llu committed, commit p50/p95/p99 = "
                    "%.0f/%.0f/%.0f us\n",
                    config.name, rda_on ? 1 : 0, threads,
                    static_cast<unsigned long long>(run->committed),
                    commit != nullptr ? rda::obs::Quantile(*commit, 0.50) : 0.0,
                    commit != nullptr ? rda::obs::Quantile(*commit, 0.95) : 0.0,
                    commit != nullptr ? rda::obs::Quantile(*commit, 0.99)
                                      : 0.0);

        // One representative Chrome trace: the 4-thread RDA page-FORCE run.
        if (!trace_written && rda_on && threads == 4 &&
            std::string_view(config.name) == "page_force_toc") {
          rda::Status dumped = db->DumpChromeTrace(trace_path);
          if (!dumped.ok()) {
            std::fprintf(stderr, "chrome trace dump failed: %s\n",
                         dumped.message().c_str());
            return 1;
          }
          trace_written = true;
          std::printf("  wrote %s (Chrome Trace Event format)\n", trace_path);
        }
      }
    }
  }
  json += "]}\n";

  std::FILE* out = std::fopen(out_path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out_path);
    return 1;
  }
  std::fwrite(json.data(), 1, json.size(), out);
  std::fclose(out);
  std::printf("\nwrote %s\n", out_path);
  return trace_written ? 0 : 1;
}

// rdabench: end-to-end benchmark of the twin-parity engine.
//
//   rdabench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Drives rda::Database through its public API only. A run repeats whole
// epochs until --seconds have passed. An epoch opens and bulk-loads a fresh
// database, runs the workload's transaction load, checks the outcome
// against the benchmark's own shadow copy, crashes and recovers, fails and
// rebuilds one disk, and checks again. Any failed call or check ends the
// run, so a run that finishes reports no failed operations.
//
// With --trace 0 the last stdout line is a JSON object with the end-to-end
// metrics; with --trace 1 epochs alternate between untraced and traced
// (spans around every public call, engine span rings harvested) and the
// JSON carries the per-layer metrics plus the tracing overhead.
// README.md in this directory documents the workloads and every metric.
#include <malloc.h>
#include <sys/prctl.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/database.h"
#include "obs/span.h"
#include "obs/trace.h"
#include "stats.h"
#include "storage/data_page_meta.h"

namespace rdabench {
namespace {

using Clock = std::chrono::steady_clock;
using rda::PageId;
using rda::RecordSlot;
using rda::Status;
using rda::TxnId;
using Bytes = std::vector<uint8_t>;

double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}
double Micros(Clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}

struct BenchError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

void Check(const Status& status, const std::string& what) {
  if (!status.ok()) {
    throw BenchError(what + ": " + status.ToString());
  }
}
template <typename T>
T Take(rda::Result<T> result, const std::string& what) {
  Check(result.status(), what);
  return std::move(result).value();
}
void Expect(bool condition, const std::string& what) {
  if (!condition) {
    throw BenchError("check failed: " + what);
  }
}

// splitmix64. The benchmark owns its generator so its inputs do not change
// when the engine's rda::Random does.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  uint32_t Uniform(uint32_t n) { return static_cast<uint32_t>(Next() % n); }
  uint32_t Between(uint32_t lo, uint32_t hi) { return lo + Uniform(hi - lo + 1); }
  bool Chance(double p) {
    return static_cast<double>(Next() >> 11) * 0x1.0p-53 < p;
  }
  void Fill(Bytes* bytes) {
    for (size_t i = 0; i < bytes->size(); i += 8) {
      const uint64_t v = Next();
      std::memcpy(bytes->data() + i, &v, std::min<size_t>(8, bytes->size() - i));
    }
  }

 private:
  uint64_t state_;
};

uint64_t Mix(uint64_t a, uint64_t b) {
  return Rng(a * 0x9e3779b97f4a7c15ull ^ (b + 0x632be59bd9b4e019ull)).Next();
}

// ---------------------------------------------------------------------------
// Workloads.

enum class Kind { kPages, kRecords };

struct Spec {
  std::string name;
  rda::DatabaseOptions options;
  Kind kind = Kind::kPages;
  uint32_t clients = 1;
  // Main phase: transactions per epoch (0 = none).
  uint32_t txns = 0;
  // Page mix: a transaction touches `short_*` pages, or with `long_share`
  // writes `long_*` distinct pages (more than the buffer pool holds).
  uint32_t short_min = 4, short_max = 12, long_min = 36, long_max = 48;
  double long_share = 0;
  double read_share = 0;  // Share of a short transaction's ops that read.
  // Voluntary aborts. Long transactions abort more often, so that the median
  // abort undoes stolen pages from parity, which is what it should measure.
  double abort_share = 0, long_abort_share = 0;
  // Record mix: read-modify-write increments and plain reads on the hot set.
  uint32_t hot_pages = 0, increments = 0, reads = 0;
  // Checkpoint() once the main phase's clients are done (see README: a
  // Checkpoint() concurrent with the clients fails now and then).
  bool checkpoint_after_main = false;
  // Restart cycles per epoch, and the load each crash interrupts.
  uint32_t cycles = 1;
  uint32_t winners = 0;      // Transactions of the mix, run before the crash.
  uint32_t losers = 0;       // Left open at the crash...
  uint32_t loser_pages = 0;  // ...each having written this many pages.
  bool checkpoint_after_recover = false;
  // Mechanism checks (per epoch).
  bool expect_unlogged_steals = false;
  bool expect_coalescing = false;
  bool expect_group_commit = false;
  bool expect_redo = false;
};

rda::DatabaseOptions BaseOptions(uint32_t data_pages, uint32_t frames) {
  rda::DatabaseOptions o;
  o.array.data_pages_per_group = 8;
  o.array.parity_copies = 2;
  o.array.min_data_pages = data_pages;
  o.array.page_size = 512;
  o.buffer.capacity = frames;
  o.txn.rda_undo = true;
  return o;
}

std::optional<Spec> MakeSpec(const std::string& name) {
  Spec s;
  s.name = name;
  if (name == "force_steal_abort" || name == "force_async_disk") {
    const bool async = name == "force_async_disk";
    s.options = BaseOptions(async ? 1024 : 4096, 32);
    s.options.txn.logging_mode = rda::LoggingMode::kPageLogging;
    s.options.txn.force = true;
    if (async) {
      s.options.io.width = 2;
      s.options.array.real_access_delay_us = 20;
    }
    s.txns = async ? 250 : 1500;
    s.long_share = 0.2;
    s.read_share = 0.25;
    s.abort_share = 0.05;
    s.long_abort_share = 0.5;
    s.winners = 20;
    s.losers = 2;
    s.loser_pages = 40;
    s.expect_unlogged_steals = true;
    s.expect_coalescing = async;
  } else if (name == "noforce_concurrent") {
    s.options = BaseOptions(1024, 256);
    s.options.buffer.shards = 8;
    s.options.txn.logging_mode = rda::LoggingMode::kRecordLogging;
    s.options.txn.record_size = 48;
    s.options.txn.force = false;
    s.options.log.flush_delay_us = 200;
    s.kind = Kind::kRecords;
    s.clients = 4;
    s.txns = 4000;
    s.hot_pages = 160;
    s.increments = 4;
    s.reads = 4;
    s.abort_share = 0.05;
    s.checkpoint_after_main = true;
    s.winners = 50;
    s.losers = 1;
    s.loser_pages = 300;
    s.expect_group_commit = true;
    s.expect_redo = true;
  } else if (name == "restart_rebuild") {
    s.options = BaseOptions(1024, 32);
    s.options.txn.logging_mode = rda::LoggingMode::kPageLogging;
    s.options.txn.force = false;
    s.options.array.real_access_delay_us = 50;
    s.options.recovery.recovery_threads = 4;
    s.long_share = 0.2;
    s.read_share = 0.25;
    s.abort_share = 0.05;
    s.long_abort_share = 0.5;
    s.cycles = 4;
    s.winners = 60;
    s.losers = 2;
    s.loser_pages = 40;
    s.checkpoint_after_recover = true;
    s.expect_redo = true;
  } else {
    return std::nullopt;
  }
  return s;
}

const char* const kWorkloads[] = {"force_steal_abort", "force_async_disk",
                                  "noforce_concurrent", "restart_rebuild"};

// ---------------------------------------------------------------------------
// Accounting.

// Public calls the benchmark makes; each gets a span when traced.
enum Call : int {
  kBegin, kRead, kWrite, kCommit, kAbort, kCheckpoint, kFlushIo,
  kCrash, kRecover, kFailDisk, kRebuildDisk, kNumCalls
};
const char* const kCallNames[kNumCalls] = {
    "begin", "read", "write", "commit", "abort", "checkpoint",
    "flush_io", "crash", "recover", "fail_disk", "rebuild_disk"};

// Logical operations: the units `attempted` counts. A transaction retried
// after kBusy is still one operation.
enum Op : int {
  kTxnCommit, kTxnAbort, kTxnLoser, kOpCheckpoint, kOpFlushIo, kOpRestart,
  kOpRebuild, kNumOps
};
const char* const kOpNames[kNumOps] = {
    "txn_commit", "txn_abort", "txn_loser", "checkpoint", "flush_io",
    "crash_recover", "fail_rebuild"};

// One client thread's tallies, merged after the phase.
struct Tally {
  std::array<uint64_t, kNumCalls> calls{};
  std::array<uint64_t, kNumCalls> busy{};
  std::array<uint64_t, kNumCalls> span_ns{};
  std::array<uint64_t, kNumOps> attempted{};
  std::vector<double> commit_us;  // First Begin -> successful Commit.
  std::vector<double> abort_us;   // Voluntary Abort() calls.
  uint64_t commits = 0;
  uint64_t busy_retries = 0;

  void Merge(const Tally& o) {
    for (int i = 0; i < kNumCalls; ++i) {
      calls[i] += o.calls[i];
      busy[i] += o.busy[i];
      span_ns[i] += o.span_ns[i];
    }
    for (int i = 0; i < kNumOps; ++i) {
      attempted[i] += o.attempted[i];
    }
    commit_us.insert(commit_us.end(), o.commit_us.begin(), o.commit_us.end());
    abort_us.insert(abort_us.end(), o.abort_us.begin(), o.abort_us.end());
    commits += o.commits;
    busy_retries += o.busy_retries;
  }
};

// Wraps every public call: counts it and, when traced, records its span.
class Caller {
 public:
  Caller(rda::Database* db, bool traced, Tally* tally)
      : db_(db), traced_(traced), tally_(tally) {}

  template <typename F>
  auto Run(Call call, F&& fn) {
    ++tally_->calls[call];
    if (!traced_) {
      return fn();
    }
    const auto start = Clock::now();
    auto result = fn();
    tally_->span_ns[call] +=
        static_cast<uint64_t>((Clock::now() - start).count());
    return result;
  }
  // Status-returning calls also count kBusy outcomes.
  template <typename F>
  Status RunStatus(Call call, F&& fn) {
    Status status = Run(call, std::forward<F>(fn));
    if (status.IsBusy()) {
      ++tally_->busy[call];
    }
    return status;
  }

  rda::Database* db() { return db_; }
  Tally* tally() { return tally_; }

 private:
  rda::Database* db_;
  bool traced_;
  Tally* tally_;
};

// Engine span rings, harvested while traced so that no span is counted twice.
// Each thread pushes spans in completion order, so a per-thread watermark on
// the end time separates new records from ones already seen.
class SpanHarvest {
 public:
  static constexpr size_t kRingCapacity = 16384;

  void MaybeHarvest(const rda::obs::SpanCollector* spans) {
    if (spans != nullptr &&
        spans->TotalRecorded() - last_total_ >= kRingCapacity / 4) {
      Harvest(spans);
    }
  }
  void Harvest(const rda::obs::SpanCollector* spans) {
    if (spans == nullptr) {
      return;
    }
    last_total_ = spans->TotalRecorded();
    for (const auto& thread : spans->SnapshotAll()) {
      ThreadState& state = threads_[thread.thread_index];
      const uint64_t fresh = thread.recorded - state.recorded;
      uint64_t taken = 0;
      for (const auto& span : thread.spans) {
        const uint64_t end = span.start_ns + span.duration_ns;
        if (end <= state.watermark) {
          continue;
        }
        state.watermark = end;
        const auto kind = static_cast<size_t>(span.kind);
        if (kind < kKinds) {
          ns[kind] += span.duration_ns;
          count[kind] += 1;
        }
        ++taken;
      }
      if (fresh > taken) {
        lost += fresh - taken;
      }
      state.recorded = thread.recorded;
    }
  }
  // Called when the collector is about to die (end of epoch).
  void Reset() {
    threads_.clear();
    last_total_ = 0;
  }

  static constexpr size_t kKinds = 32;
  std::array<uint64_t, kKinds> ns{};
  std::array<uint64_t, kKinds> count{};
  uint64_t lost = 0;

 private:
  struct ThreadState {
    uint64_t watermark = 0;
    uint64_t recorded = 0;
  };
  std::map<uint32_t, ThreadState> threads_;
  uint64_t last_total_ = 0;
};

// Resident set size of this process right now, in MB.
double RssMb() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  unsigned long long size = 0, resident = 0;
  const bool ok = f != nullptr && std::fscanf(f, "%llu %llu", &size, &resident) == 2;
  if (f != nullptr) {
    std::fclose(f);
  }
  Expect(ok, "cannot read /proc/self/statm");
  return static_cast<double>(resident) * static_cast<double>(sysconf(_SC_PAGESIZE)) /
         (1024.0 * 1024.0);
}

// Engine counters read at the edges of a measured window.
struct Probe {
  rda::Database::StatsSnapshot stats;
  rda::obs::MetricsSnapshot metrics;
  rda::io::IoEngine::StatsSnapshot io;
};

Probe TakeProbe(rda::Database* db) {
  Probe p;
  p.stats = db->Stats();
  p.metrics = db->SnapshotMetrics();
  if (db->array()->io_engine() != nullptr) {
    p.io = db->array()->io_engine()->stats();
  }
  return p;
}

double HistSum(const rda::obs::MetricsSnapshot& m, const char* name) {
  const auto* h = m.FindHistogram(name);
  return h != nullptr ? h->sum : 0;
}
double HistCount(const rda::obs::MetricsSnapshot& m, const char* name) {
  const auto* h = m.FindHistogram(name);
  return h != nullptr ? static_cast<double>(h->count) : 0;
}

// Everything one run accumulates. Traced and untraced epochs keep separate
// end-to-end samples so the tracing overhead can be stated.
struct Samples {
  std::vector<double> setup_s, restart_s, restart_transfers, rebuild_s;
  std::vector<double> peak_rss_mb;  // One per epoch.
  std::vector<double> commit_tps;   // One per epoch.
  double window_s = 0;
  double client_s = 0;  // Window time summed over the clients running.
  uint64_t window_transfers = 0;
  uint32_t epochs = 0;
  Tally tally;
};

struct RunState {
  Samples untraced, traced;
  // Per-layer sums over traced epochs (deltas of engine counters).
  std::map<std::string, double> layer;
  SpanHarvest engine_spans;
  double restart_ms_total = 0, restart_phase_ms_total = 0;
};

void AddWindow(std::map<std::string, double>* layer, const Probe& a,
               const Probe& b) {
  auto add = [layer](const std::string& key, double v) { (*layer)[key] += v; };
  auto d = [](uint64_t after, uint64_t before) {
    return static_cast<double>(after - before);
  };
  add("txn.before_images_avoided",
      d(b.stats.txn.before_images_avoided, a.stats.txn.before_images_avoided));
  add("txn.before_images_logged",
      d(b.stats.txn.before_images_logged, a.stats.txn.before_images_logged));
  add("buffer.hits", d(b.stats.buffer.hits, a.stats.buffer.hits));
  add("buffer.misses", d(b.stats.buffer.misses, a.stats.buffer.misses));
  add("buffer.steals", d(b.stats.buffer.steals, a.stats.buffer.steals));
  add("buffer.evictions", d(b.stats.buffer.evictions, a.stats.buffer.evictions));
  add("parity.unlogged_first",
      d(b.stats.parity.unlogged_first, a.stats.parity.unlogged_first));
  add("parity.parity_undos",
      d(b.stats.parity.parity_undos, a.stats.parity.parity_undos));
  add("storage.reads", d(b.stats.array.page_reads, a.stats.array.page_reads));
  add("storage.writes", d(b.stats.array.page_writes, a.stats.array.page_writes));
  add("storage.xor", d(b.stats.array.xor_computations,
                       a.stats.array.xor_computations));
  add("storage.max_disk_busy_ms",
      b.stats.array_max_busy_ms - a.stats.array_max_busy_ms);
  add("io.submitted", d(b.io.submitted_writes, a.io.submitted_writes));
  add("io.physical", d(b.io.physical_writes, a.io.physical_writes));
  add("io.coalesced", d(b.io.coalesced_writes, a.io.coalesced_writes));
  add("io.parity_rmw", d(b.io.batched_parity_rmw, a.io.batched_parity_rmw));
  add("io.cache_hits", d(b.io.cache_hits, a.io.cache_hits));
  for (const char* c : {"buffer.latch_waits", "parity.latch_waits",
                        "wal.bytes_appended", "wal.forces"}) {
    add(c, d(b.metrics.CounterValue(c), a.metrics.CounterValue(c)));
  }
  for (const char* h :
       {"wal.group_commit_batch_size", "wal.group_commit_follower_wait_us",
        "wal.group_commit_leader_flush_us"}) {
    add(std::string(h) + ".sum", HistSum(b.metrics, h) - HistSum(a.metrics, h));
    add(std::string(h) + ".count",
        HistCount(b.metrics, h) - HistCount(a.metrics, h));
  }
}

// ---------------------------------------------------------------------------
// The benchmark's shadow of the committed database, one user region per page.

class Shadow {
 public:
  Shadow(uint32_t pages, size_t user_size, uint64_t seed)
      : pages_(pages, Bytes(user_size)) {
    for (uint32_t p = 0; p < pages; ++p) {
      Rng(Mix(seed, p)).Fill(&pages_[p]);
    }
  }
  const std::vector<Bytes>& pages() const { return pages_; }
  Bytes& page(PageId p) { return pages_[p]; }

  // Pages written (committed or not) since the last disk check. Only the
  // single-client paths call Touch; concurrent clients write the hot set,
  // which the record workload marks once.
  void Touch(PageId p) { touched_[p] = 1; }
  bool TakeTouched(PageId p) {
    const bool was = touched_[p] != 0;
    touched_[p] = 0;
    return was;
  }

 private:
  std::vector<Bytes> pages_;
  std::vector<uint8_t> touched_ = std::vector<uint8_t>(pages_.size(), 0);
};

uint64_t LoadCounter(const uint8_t* record) {
  uint64_t v = 0;
  std::memcpy(&v, record, sizeof(v));
  return v;
}
void StoreCounter(uint8_t* record, uint64_t v) {
  std::memcpy(record, &v, sizeof(v));
}

// The disk image of every page must equal the shadow (after a recovery:
// every committed write present, every loser write gone).
void CheckDiskImage(rda::Database* db, const Shadow& shadow,
                    const std::function<bool(PageId)>& which,
                    const std::string& when) {
  for (PageId p = 0; p < shadow.pages().size(); ++p) {
    if (!which(p)) {
      continue;
    }
    const Bytes raw = Take(db->RawReadPage(p), "RawReadPage");
    const Bytes& want = shadow.pages()[p];
    Expect(raw.size() == want.size() + rda::kDataRegionOffset &&
               std::memcmp(raw.data() + rda::kDataRegionOffset, want.data(),
                           want.size()) == 0,
           when + ": page " + std::to_string(p) + " differs from the shadow");
  }
}

// Parity audit by the benchmark's own loop: every group is clean and the XOR
// of its data pages equals one of its twins.
void AuditParity(rda::Database* db, const std::string& when) {
  Check(db->array()->FlushIo(), "FlushIo before audit");
  const rda::DiskArray* array = db->array();
  const rda::Layout& layout = array->layout();
  rda::PageImage data, parity;
  for (rda::GroupId g = 0; g < array->num_groups(); ++g) {
    Expect(!db->parity()->directory().Get(g).dirty,
           when + ": group " + std::to_string(g) + " dirty when quiescent");
    Bytes sum(array->page_size(), 0);
    for (uint32_t i = 0; i < layout.data_pages_per_group(); ++i) {
      Check(array->ReadData(layout.PageAt(g, i), &data), "ReadData");
      for (size_t b = 0; b < sum.size(); ++b) {
        sum[b] ^= data.payload[b];
      }
    }
    bool match = false;
    for (uint32_t twin = 0; twin < layout.parity_copies() && !match; ++twin) {
      Check(array->ReadParity(g, twin, &parity), "ReadParity");
      match = parity.payload == sum;
    }
    Expect(match, when + ": parity of group " + std::to_string(g) +
                      " matches neither twin");
  }
}

// ---------------------------------------------------------------------------
// Transaction scripts.

// One transaction of the page mix: the pages it touches and what it writes.
struct PageTxn {
  struct Action {
    PageId page;
    bool write;
  };
  std::vector<Action> actions;
  bool abort = false;
};

PageTxn MakePageTxn(const Spec& spec, Rng& rng, uint32_t num_pages,
                    const std::unordered_set<PageId>& avoid) {
  PageTxn t;
  auto pick = [&] {
    PageId p;
    do {
      p = rng.Uniform(num_pages);
    } while (avoid.contains(p));
    return p;
  };
  const bool is_long = rng.Chance(spec.long_share);
  t.abort = rng.Chance(is_long ? spec.long_abort_share : spec.abort_share);
  if (is_long) {
    std::unordered_set<PageId> seen;
    const uint32_t n = rng.Between(spec.long_min, spec.long_max);
    while (t.actions.size() < n) {
      const PageId p = pick();
      if (seen.insert(p).second) {
        t.actions.push_back({p, true});
      }
    }
  } else {
    const uint32_t n = rng.Between(spec.short_min, spec.short_max);
    for (uint32_t i = 0; i < n; ++i) {
      t.actions.push_back({pick(), !rng.Chance(spec.read_share)});
    }
  }
  return t;
}

// Runs one page-mix transaction to its scripted end (single client).
// Reads are checked against the transaction's own writes and the shadow.
void RunPageTxn(Caller& c, const PageTxn& script, Shadow* shadow, Rng& rng) {
  rda::Database* db = c.db();
  Tally* tally = c.tally();
  const auto start = Clock::now();
  const TxnId txn = Take(c.Run(kBegin, [&] { return db->Begin(); }), "Begin");
  std::map<PageId, Bytes> written;
  Bytes buf(db->user_page_size());
  for (const auto& action : script.actions) {
    if (action.write) {
      shadow->Touch(action.page);
      rng.Fill(&buf);
      Check(c.RunStatus(kWrite, [&] { return db->WritePage(txn, action.page, buf); }),
            "WritePage");
      written[action.page] = buf;
    } else {
      Bytes out;
      Check(c.RunStatus(kRead, [&] { return db->ReadPage(txn, action.page, &out); }),
            "ReadPage");
      const auto it = written.find(action.page);
      Expect(out == (it != written.end() ? it->second
                                         : shadow->pages()[action.page]),
             "read returned neither own write nor committed value");
    }
  }
  if (script.abort) {
    const auto abort_start = Clock::now();
    Check(c.RunStatus(kAbort, [&] { return db->Abort(txn); }), "Abort");
    tally->abort_us.push_back(Micros(Clock::now() - abort_start));
    ++tally->attempted[kTxnAbort];
    return;
  }
  Check(c.RunStatus(kCommit, [&] { return db->Commit(txn); }), "Commit");
  tally->commit_us.push_back(Micros(Clock::now() - start));
  ++tally->commits;
  ++tally->attempted[kTxnCommit];
  for (auto& [page, bytes] : written) {
    shadow->page(page) = std::move(bytes);
  }
}

// Leaves a transaction open having written `spec.loser_pages` distinct pages
// (more than the pool holds, so some are stolen). Adds them to `locked`.
void RunLoser(Caller& c, const Spec& spec, Rng& rng, Shadow* shadow,
              std::unordered_set<PageId>* locked) {
  rda::Database* db = c.db();
  const TxnId txn = Take(c.Run(kBegin, [&] { return db->Begin(); }), "Begin");
  ++c.tally()->attempted[kTxnLoser];
  const uint32_t first = spec.kind == Kind::kRecords ? spec.hot_pages : 0;
  for (uint32_t written = 0; written < spec.loser_pages;) {
    const PageId p = first + rng.Uniform(db->num_pages() - first);
    if (!locked->insert(p).second) {
      continue;
    }
    ++written;
    shadow->Touch(p);
    if (spec.kind == Kind::kPages) {
      Bytes buf(db->user_page_size());
      rng.Fill(&buf);
      Check(c.RunStatus(kWrite, [&] { return db->WritePage(txn, p, buf); }),
            "loser WritePage");
    } else {
      Bytes rec(spec.options.txn.record_size);
      rng.Fill(&rec);
      Check(c.RunStatus(kWrite, [&] { return db->WriteRecord(txn, p, 0, rec); }),
            "loser WriteRecord");
    }
  }
}

// Record mix: hot records hold a counter in their first 8 bytes.
struct RecordCounts {
  explicit RecordCounts(size_t records) : committed(records) {}
  std::vector<std::atomic<uint32_t>> committed;  // Increments per record.
};

struct RecordTxn {
  std::vector<std::pair<PageId, RecordSlot>> increments, reads;
  bool abort = false;
};

RecordTxn MakeRecordTxn(const Spec& spec, Rng& rng, uint32_t per_page) {
  RecordTxn t;
  t.abort = rng.Chance(spec.abort_share);
  std::unordered_set<uint32_t> seen;
  auto pick = [&](std::vector<std::pair<PageId, RecordSlot>>* into) {
    uint32_t r;
    do {
      r = rng.Uniform(spec.hot_pages * per_page);
    } while (!seen.insert(r).second);
    into->push_back({r / per_page, static_cast<RecordSlot>(r % per_page)});
  };
  for (uint32_t i = 0; i < spec.increments; ++i) pick(&t.increments);
  for (uint32_t i = 0; i < spec.reads; ++i) pick(&t.reads);
  return t;
}

constexpr std::chrono::microseconds kRetryBackoff{50};

// Runs one record-mix transaction until it commits or voluntarily aborts.
// kBusy (no-wait lock conflict, or a frame collision at commit) aborts the
// attempt and retries it; the latency spans every attempt.
void RunRecordTxn(Caller& c, const RecordTxn& script, uint32_t per_page,
                  RecordCounts* counts) {
  rda::Database* db = c.db();
  Tally* tally = c.tally();
  const auto start = Clock::now();
  Bytes rec;
  for (uint32_t attempt = 0;; ++attempt) {
    Expect(attempt < 100000, "record transaction starved");
    const TxnId txn = Take(c.Run(kBegin, [&] { return db->Begin(); }), "Begin");
    Status status = Status::Ok();
    const size_t steps = std::max(script.increments.size(), script.reads.size());
    for (size_t i = 0; i < steps && status.ok(); ++i) {
      if (i < script.increments.size()) {
        const auto [page, slot] = script.increments[i];
        status = c.RunStatus(kRead, [&] { return db->ReadRecord(txn, page, slot, &rec); });
        if (status.ok()) {
          StoreCounter(rec.data(), LoadCounter(rec.data()) + 1);
          status = c.RunStatus(kWrite, [&] { return db->WriteRecord(txn, page, slot, rec); });
        }
      }
      if (status.ok() && i < script.reads.size()) {
        const auto [page, slot] = script.reads[i];
        status = c.RunStatus(kRead, [&] { return db->ReadRecord(txn, page, slot, &rec); });
      }
    }
    if (status.ok() && script.abort) {
      const auto abort_start = Clock::now();
      Check(c.RunStatus(kAbort, [&] { return db->Abort(txn); }), "Abort");
      tally->abort_us.push_back(Micros(Clock::now() - abort_start));
      ++tally->attempted[kTxnAbort];
      return;
    }
    if (status.ok()) {
      status = c.RunStatus(kCommit, [&] { return db->Commit(txn); });
      if (status.ok()) {
        tally->commit_us.push_back(Micros(Clock::now() - start));
        ++tally->commits;
        ++tally->attempted[kTxnCommit];
        for (const auto& [page, slot] : script.increments) {
          counts->committed[page * per_page + slot].fetch_add(
              1, std::memory_order_relaxed);
        }
        return;
      }
    }
    Expect(status.IsBusy(), "record transaction: " + status.ToString());
    ++tally->busy_retries;
    Check(c.RunStatus(kAbort, [&] { return db->Abort(txn); }), "retry Abort");
    // Back off before retrying: the lock holder is usually waiting out its
    // group-commit flush, and an immediate retry would only spin. This also
    // cuts the Begin calls per commit (txn.busy_retries_per_commit), and with
    // them the growth of the engine's never-pruned transaction table, which
    // peak_rss_mb would otherwise show more strongly.
    std::this_thread::sleep_for(kRetryBackoff);
  }
}

// Brings the shadow of the hot records up to the committed increments.
void ApplyCounts(const Spec& spec, uint32_t per_page, size_t record_size,
                 const std::vector<uint64_t>& base, RecordCounts* counts,
                 Shadow* shadow) {
  for (uint32_t r = 0; r < spec.hot_pages * per_page; ++r) {
    uint8_t* rec = shadow->page(r / per_page).data() + (r % per_page) * record_size;
    StoreCounter(rec, base[r] + counts->committed[r].load());
  }
}

// ---------------------------------------------------------------------------
// One epoch.

class Epoch {
 public:
  Epoch(const Spec& spec, uint64_t seed, uint32_t index, bool traced,
        RunState* run)
      : spec_(spec),
        seed_(Mix(seed, index)),
        index_(index),
        traced_(traced),
        run_(run),
        samples_(traced ? &run->traced : &run->untraced) {}

  void Run() {
    Setup();
    Caller c(db_.get(), traced_, &tally_);
    for (uint32_t cycle = 0; cycle < spec_.cycles; ++cycle) {
      if (cycle == 0 && spec_.txns > 0) {
        const Probe before = TakeProbe(db_.get());
        Window(spec_.clients, [&] { MainPhase(); });
        CheckMechanisms(before, TakeProbe(db_.get()));
        ReadBack();
      }
      Window(1, [&] { PreCrashLoad(c, cycle); });
      Restart(c, cycle);
      Rebuild(c, cycle);
      if (traced_) {
        run_->engine_spans.Harvest(Spans());
      }
    }
    AuditParity(db_.get(), "at the end of the epoch");
    if (traced_) {
      run_->engine_spans.Reset();
    }
    samples_->peak_rss_mb.push_back(peak_rss_mb_);
    Expect(window_s_ > 0, "no measured load");
    samples_->commit_tps.push_back(static_cast<double>(tally_.commits) / window_s_);
    samples_->tally.Merge(tally_);
    ++samples_->epochs;
  }

 private:
  const rda::obs::SpanCollector* Spans() {
    return db_->obs() != nullptr ? db_->obs()->spans() : nullptr;
  }

  // setup_s covers Open and BulkLoad; generating the load is not timed.
  void Setup() {
    rda::DatabaseOptions options = spec_.options;
    if (traced_) {
      options.obs.span_ring_capacity = SpanHarvest::kRingCapacity;
    }
    auto start = Clock::now();
    db_ = Take(rda::Database::Open(options), "Open");
    double setup = Seconds(Clock::now() - start);
    shadow_ = std::make_unique<Shadow>(db_->num_pages(), db_->user_page_size(),
                                       Mix(seed_, 1));
    if (spec_.kind == Kind::kRecords) {
      const size_t record_size = options.txn.record_size;
      per_page_ = db_->records_per_page();
      Expect(per_page_ * record_size <= db_->user_page_size(), "record layout");
      base_.resize(spec_.hot_pages * per_page_);
      for (uint32_t r = 0; r < base_.size(); ++r) {
        base_[r] = r;  // Small start values: counters never wrap.
        StoreCounter(shadow_->page(r / per_page_).data() +
                         (r % per_page_) * record_size,
                     base_[r]);
      }
      counts_ = std::make_unique<RecordCounts>(base_.size());
      for (PageId p = 0; p < spec_.hot_pages; ++p) {
        shadow_->Touch(p);
      }
    }
    start = Clock::now();
    Check(db_->BulkLoad(shadow_->pages()), "BulkLoad");
    setup += Seconds(Clock::now() - start);
    samples_->setup_s.push_back(setup);
  }

  // Times a stretch of client load run by `threads` clients, ending with
  // FlushIo so that journaled writes count against the load that made them,
  // and records the engine's counters over it.
  template <typename F>
  void Window(uint32_t threads, F&& body) {
    const Probe before = traced_ ? TakeProbe(db_.get()) : Probe{};
    const uint64_t transfers = db_->TotalPageTransfers();
    const auto start = Clock::now();
    body();
    Caller c(db_.get(), traced_, &tally_);
    ++tally_.attempted[kOpFlushIo];
    Check(c.RunStatus(kFlushIo, [&] { return db_->array()->FlushIo(); }),
          "FlushIo");
    const double secs = Seconds(Clock::now() - start);
    samples_->window_s += secs;
    window_s_ += secs;
    samples_->client_s += secs * threads;
    samples_->window_transfers += db_->TotalPageTransfers() - transfers;
    NoteRss();
    if (traced_) {
      AddWindow(&run_->layer, before, TakeProbe(db_.get()));
    }
  }

  // Each epoch must show that its workload's mechanism ran.
  void CheckMechanisms(const Probe& a, const Probe& b) {
    if (spec_.expect_unlogged_steals) {
      Expect(b.stats.txn.before_images_avoided > a.stats.txn.before_images_avoided,
             "no steal skipped its before-image");
      Expect(b.stats.parity.parity_undos > a.stats.parity.parity_undos,
             "no abort was undone from parity");
    }
    if (spec_.expect_coalescing) {
      Expect(b.io.coalesced_writes > a.io.coalesced_writes,
             "the I/O engine coalesced no write");
    }
    if (spec_.expect_group_commit) {
      const char* h = "wal.group_commit_batch_size";
      const double commits = HistSum(b.metrics, h) - HistSum(a.metrics, h);
      const double batches = HistCount(b.metrics, h) - HistCount(a.metrics, h);
      Expect(batches > 0 && commits / batches > 1,
             "group commit never batched two commits");
    }
  }

  void MainPhase() {
    if (spec_.kind == Kind::kPages) {
      Caller c(db_.get(), traced_, &tally_);
      Rng rng(Mix(seed_, 2));
      for (uint32_t t = 0; t < spec_.txns; ++t) {
        RunPageTxn(c, MakePageTxn(spec_, rng, db_->num_pages(), {}),
                   shadow_.get(), rng);
        if (traced_) {
          run_->engine_spans.MaybeHarvest(Spans());
        }
      }
    } else {
      ConcurrentPhase();
    }
    if (spec_.checkpoint_after_main) {
      Caller c(db_.get(), traced_, &tally_);
      ++tally_.attempted[kOpCheckpoint];
      Check(c.RunStatus(kCheckpoint, [&] { return db_->Checkpoint(); }),
            "Checkpoint");
    }
  }

  // Closed loop of `clients` threads drawing tickets until `txns` are done.
  // A transaction's inputs depend on its ticket, not on the thread.
  void ConcurrentPhase() {
    std::atomic<uint32_t> next{0};
    std::atomic<bool> stop{false};
    std::vector<Tally> tallies(spec_.clients);
    std::vector<std::string> errors(spec_.clients);
    auto client = [&](uint32_t id) {
      Caller c(db_.get(), traced_, &tallies[id]);
      try {
        for (uint32_t t; !stop && (t = next.fetch_add(1)) < spec_.txns;) {
          Rng rng(Mix(seed_, 1000 + t));
          RunRecordTxn(c, MakeRecordTxn(spec_, rng, per_page_), per_page_,
                       counts_.get());
        }
      } catch (const std::exception& e) {
        errors[id] = e.what();
        stop = true;
      }
    };
    std::vector<std::thread> threads;
    for (uint32_t id = 0; id < spec_.clients; ++id) {
      threads.emplace_back(client, id);
    }
    while (traced_ && next.load() < spec_.txns && !stop) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      run_->engine_spans.MaybeHarvest(Spans());
    }
    for (auto& t : threads) {
      t.join();
    }
    for (uint32_t id = 0; id < spec_.clients; ++id) {
      if (!errors[id].empty()) {
        throw BenchError("client " + std::to_string(id) + ": " + errors[id]);
      }
      tally_.Merge(tallies[id]);
    }
  }

  // Losers, left open, and then winners (committed, or voluntarily aborted).
  // Under NOFORCE the winners' pages are still in the pool at the crash.
  void PreCrashLoad(Caller& c, uint32_t cycle) {
    Rng rng(Mix(seed_, 3 + 17 * cycle));
    std::unordered_set<PageId> locked;
    for (uint32_t l = 0; l < spec_.losers; ++l) {
      RunLoser(c, spec_, rng, shadow_.get(), &locked);
    }
    for (uint32_t w = 0; w < spec_.winners; ++w) {
      if (spec_.kind == Kind::kPages) {
        PageTxn script = MakePageTxn(spec_, rng, db_->num_pages(), locked);
        if (w + 1 == spec_.winners) {
          // The last winner commits a few writes, so that under NOFORCE the
          // crash always finds committed pages that are not on disk yet (a
          // long transaction before it may have flushed out all others).
          script.abort = false;
          script.actions.resize(std::min<size_t>(script.actions.size(), 4));
          for (auto& action : script.actions) {
            action.write = true;
          }
        }
        RunPageTxn(c, script, shadow_.get(), rng);
      } else {
        RunRecordTxn(c, MakeRecordTxn(spec_, rng, per_page_), per_page_,
                     counts_.get());
      }
    }
  }

  // After the main phase a fresh transaction reads the database back and
  // must see exactly the shadow: no aborted write visible, no committed
  // write lost. The benchmark's own parity audit follows.
  void ReadBack() {
    if (spec_.kind == Kind::kRecords) {
      ApplyCounts(spec_, per_page_, spec_.options.txn.record_size, base_,
                  counts_.get(), shadow_.get());
      CheckHotRecords();
    } else {
      const TxnId txn = Take(db_->Begin(), "Begin");
      Bytes out;
      for (PageId p = 0; p < db_->num_pages(); ++p) {
        Check(db_->ReadPage(txn, p, &out), "ReadPage");
        Expect(out == shadow_->pages()[p],
               "read-back: page " + std::to_string(p) + " differs");
      }
      Check(db_->Commit(txn), "read-only Commit");
    }
    AuditParity(db_.get(), "after the main phase");
  }

  void Restart(Caller& c, uint32_t cycle) {
    c.Run(kCrash, [&] {
      db_->Crash();
      return 0;
    });
    const auto metrics_before =
        traced_ ? db_->SnapshotMetrics() : rda::obs::MetricsSnapshot{};
    const uint64_t transfers = db_->TotalPageTransfers();
    const auto start = Clock::now();
    ++tally_.attempted[kOpRestart];
    const rda::CrashRecoveryReport report =
        Take(c.Run(kRecover, [&] { return db_->Recover(); }), "Recover");
    const double secs = Seconds(Clock::now() - start);
    NoteRss();
    samples_->restart_s.push_back(secs);
    samples_->restart_transfers.push_back(
        static_cast<double>(db_->TotalPageTransfers() - transfers));
    // Mechanism: every restart undoes stolen loser pages from parity, and
    // under NOFORCE re-applies committed after-images.
    Expect(report.losers.size() == spec_.losers, "loser count after restart");
    Expect(report.parity_undos > 0, "restart did no parity undo");
    if (spec_.expect_redo) {
      Expect(report.redo_applied > 0,
             "restart applied no redo (" + std::to_string(report.redo_skipped) +
                 " skipped, " + std::to_string(report.winners.size()) +
                 " winners)");
    }
    if (spec_.kind == Kind::kRecords) {
      ApplyCounts(spec_, per_page_, spec_.options.txn.record_size, base_,
                  counts_.get(), shadow_.get());
    }
    Shadow* shadow = shadow_.get();
    CheckDiskImage(db_.get(), *shadow_,
                   [shadow](PageId p) { return shadow->TakeTouched(p); },
                   "after restart " + std::to_string(cycle));
    if (spec_.kind == Kind::kRecords) {
      CheckHotRecords();
      for (PageId p = 0; p < spec_.hot_pages; ++p) {
        shadow_->Touch(p);
      }
    }
    if (traced_) {
      auto& layer = run_->layer;
      double phase_ms = 0;
      for (const auto& phase : report.phases) {
        const std::string name =
            std::string("recovery.") + PhaseName(phase.phase);
        layer[name + "_ms"] += phase.wall_ms;
        layer[name + "_transfers"] += static_cast<double>(phase.page_transfers);
        phase_ms += phase.wall_ms;
      }
      layer["recovery.redo_applied"] += static_cast<double>(report.redo_applied);
      layer["recovery.parity_undos"] += static_cast<double>(report.parity_undos);
      layer["recovery.restarts"] += 1;
      run_->restart_ms_total += secs * 1e3;
      run_->restart_phase_ms_total += phase_ms;
      AddExec(metrics_before);
    }
    if (spec_.checkpoint_after_recover) {
      ++tally_.attempted[kOpCheckpoint];
      Check(c.RunStatus(kCheckpoint, [&] { return db_->Checkpoint(); }),
            "quiescent Checkpoint");
    }
  }

  // A fresh transaction reads every hot record through the engine.
  void CheckHotRecords() {
    const TxnId txn = Take(db_->Begin(), "Begin");
    Bytes rec;
    const size_t record_size = spec_.options.txn.record_size;
    for (uint32_t r = 0; r < base_.size(); ++r) {
      const PageId page = r / per_page_;
      const auto slot = static_cast<RecordSlot>(r % per_page_);
      Check(db_->ReadRecord(txn, page, slot, &rec), "ReadRecord");
      const uint8_t* want = shadow_->pages()[page].data() + slot * record_size;
      Expect(rec.size() == record_size &&
                 std::memcmp(rec.data(), want, record_size) == 0,
             "record " + std::to_string(r) + " lost an update or kept an "
             "aborted one (counter " + std::to_string(LoadCounter(rec.data())) +
             ", expected " + std::to_string(LoadCounter(want)) + ")");
    }
    Check(db_->Commit(txn), "read-only Commit");
  }

  void Rebuild(Caller& c, uint32_t cycle) {
    const rda::DiskId disk =
        (index_ * spec_.cycles + cycle) % db_->array()->num_disks();
    ++tally_.attempted[kOpRebuild];
    Check(c.RunStatus(kFailDisk, [&] { return db_->FailDisk(disk); }), "FailDisk");
    const auto metrics_before =
        traced_ ? db_->SnapshotMetrics() : rda::obs::MetricsSnapshot{};
    const uint64_t transfers = db_->TotalPageTransfers();
    const auto start = Clock::now();
    const rda::MediaRecoveryReport report =
        Take(c.Run(kRebuildDisk, [&] { return db_->RebuildDisk(disk); }),
             "RebuildDisk");
    samples_->rebuild_s.push_back(Seconds(Clock::now() - start));
    NoteRss();
    Expect(report.undo_coverage_lost.empty(), "rebuild lost undo coverage");
    const rda::Layout& layout = db_->array()->layout();
    CheckDiskImage(db_.get(), *shadow_,
                   [&](PageId p) { return layout.DataLocation(p).disk == disk; },
                   "after rebuild of disk " + std::to_string(disk));
    if (traced_) {
      // MediaRecoveryReport::phases comes back empty from RebuildDisk, so
      // the rebuild's wall time is the benchmark's own span (media.rebuild_ms).
      auto& layer = run_->layer;
      layer["media.pages_rebuilt"] +=
          report.data_pages_rebuilt + report.parity_pages_rebuilt;
      layer["media.rebuild_transfers"] +=
          static_cast<double>(db_->TotalPageTransfers() - transfers);
      layer["media.rebuilds"] += 1;
      AddExec(metrics_before);
    }
  }

  // The epoch's peak resident memory, sampled where it is highest: after
  // each load (the log is longest), after Recover and after RebuildDisk.
  void NoteRss() { peak_rss_mb_ = std::max(peak_rss_mb_, RssMb()); }

  void AddExec(const rda::obs::MetricsSnapshot& before) {
    const auto after = db_->SnapshotMetrics();
    for (const char* c : {"exec.parallel_fors", "exec.chunks"}) {
      run_->layer[c] +=
          static_cast<double>(after.CounterValue(c) - before.CounterValue(c));
    }
  }

  static const char* PhaseName(rda::obs::RecoveryPhase phase) {
    switch (phase) {
      case rda::obs::RecoveryPhase::kDirectoryRebuild: return "directory_rebuild";
      case rda::obs::RecoveryPhase::kAnalysis: return "analysis";
      case rda::obs::RecoveryPhase::kRollForward: return "roll_forward";
      case rda::obs::RecoveryPhase::kChainAudit: return "chain_audit";
      case rda::obs::RecoveryPhase::kLoggedUndo: return "logged_undo";
      case rda::obs::RecoveryPhase::kParityUndo: return "parity_undo";
      case rda::obs::RecoveryPhase::kRedo: return "redo";
      case rda::obs::RecoveryPhase::kLoserResolution: return "loser_resolution";
      default: return "other";
    }
  }

  const Spec& spec_;
  const uint64_t seed_;
  const uint32_t index_;
  const bool traced_;
  RunState* run_;
  Samples* samples_;
  Tally tally_;
  std::unique_ptr<Shadow> shadow_;
  uint32_t per_page_ = 0;
  std::vector<uint64_t> base_;
  std::unique_ptr<RecordCounts> counts_;
  double peak_rss_mb_ = 0;
  double window_s_ = 0;
  std::unique_ptr<rda::Database> db_;
};

// ---------------------------------------------------------------------------
// Reporting.

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string note;  // Sample count and the like, printed beside the value.
};

std::string Number(double v) {
  char buf[64];
  const auto result = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, result.ptr);
}


Metric QuantileMetric(const std::string& name, const std::vector<double>& v,
                      double q) {
  const auto quantile = TailQuantile(v, q);
  if (!quantile) {
    throw BenchError(name + ": " + std::to_string(v.size()) +
                     " samples leave fewer than " + std::to_string(kMinBeyond) +
                     " beyond the quantile; run longer");
  }
  return {name, quantile->value, "us",
          "samples=" + std::to_string(quantile->samples) +
              " beyond=" + std::to_string(quantile->beyond)};
}

// The tail is taken per block of 1000 consecutive commits (ten beyond each
// block's p99) and the median block reported, so that a burst of load from
// another tenant of the host does not decide the run's figure.
Metric BlockP99Metric(const std::string& name, const std::vector<double>& v) {
  const auto quantile = MedianBlockQuantile(v, 0.99, 1000);
  if (!quantile) {
    throw BenchError(name + ": " + std::to_string(v.size()) +
                     " samples fill no block of 1000; run longer");
  }
  return {name, quantile->value, "us",
          "samples=" + std::to_string(quantile->samples) +
              " blocks=" + std::to_string(quantile->blocks)};
}

Metric MedianMetric(const std::string& name, const std::vector<double>& v,
                    const std::string& unit) {
  Expect(!v.empty(), name + " has no samples");
  return {name, Median(v), unit, "median of " + std::to_string(v.size())};
}

std::vector<Metric> EndToEnd(const Samples& s) {
  const Tally& t = s.tally;
  Expect(t.commits > 0 && s.window_s > 0, "no transaction committed");
  return {
      MedianMetric("setup_s", s.setup_s, "s"),
      MedianMetric("commit_tps", s.commit_tps, "txn/s"),
      QuantileMetric("commit_p50_us", t.commit_us, 0.5),
      QuantileMetric("abort_p50_us", t.abort_us, 0.5),
      {"transfers_per_commit",
       static_cast<double>(s.window_transfers) / static_cast<double>(t.commits),
       "transfers", "commits=" + std::to_string(t.commits)},
      MedianMetric("peak_rss_mb", s.peak_rss_mb, "MB"),
      MedianMetric("restart_s", s.restart_s, "s"),
      MedianMetric("restart_transfers", s.restart_transfers, "transfers"),
      MedianMetric("rebuild_s", s.rebuild_s, "s"),
  };
}

std::vector<Metric> PerLayer(const RunState& run) {
  const Samples& s = run.traced;
  const Tally& t = s.tally;
  const auto& L = run.layer;
  auto get = [&L](const std::string& key) {
    const auto it = L.find(key);
    return it != L.end() ? it->second : 0.0;
  };
  auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  const double commits = static_cast<double>(t.commits);
  const double epochs = s.epochs;
  const double restarts = get("recovery.restarts");
  const double rebuilds = get("media.rebuilds");
  std::vector<Metric> m;
  auto add = [&m](const std::string& name, double v, const std::string& unit) {
    m.push_back({name, v, unit, ""});
  };
  auto call_us = [&t, &ratio](Call c) {
    return ratio(static_cast<double>(t.span_ns[c]) / 1e3,
                 static_cast<double>(t.calls[c]));
  };
  const auto& E = run.engine_spans;
  auto engine_us = [&E, &ratio](rda::obs::SpanKind k) {
    const auto i = static_cast<size_t>(k);
    return ratio(static_cast<double>(E.ns[i]) / 1e3,
                 static_cast<double>(E.count[i]));
  };
  auto per_commit = [&](const std::string& name, const std::string& key,
                        const std::string& unit) {
    add(name, ratio(get(key), commits), unit);
  };
  using SK = rda::obs::SpanKind;

  add("core.begin_us", call_us(kBegin), "us");
  add("core.read_us", call_us(kRead), "us");
  add("core.write_us", call_us(kWrite), "us");
  add("core.commit_us", call_us(kCommit), "us");
  add("core.abort_us", call_us(kAbort), "us");

  per_commit("txn.before_images_avoided_per_commit", "txn.before_images_avoided",
             "count");
  per_commit("txn.before_images_logged_per_commit", "txn.before_images_logged",
             "count");
  add("txn.busy_retries_per_commit",
      ratio(static_cast<double>(t.busy_retries), commits), "count");

  const double accesses = get("buffer.hits") + get("buffer.misses");
  add("buffer.hit_ratio", ratio(get("buffer.hits"), accesses), "ratio");
  add("buffer.accesses_per_commit", ratio(accesses, commits), "count");
  per_commit("buffer.steals_per_commit", "buffer.steals", "count");
  per_commit("buffer.evictions_per_commit", "buffer.evictions", "count");
  add("buffer.latch_waits", ratio(get("buffer.latch_waits"), epochs), "count");
  add("buffer.fetch_miss_us", engine_us(SK::kBufferFetchMiss), "us");

  add("parity.propagate_us", engine_us(SK::kParityPropagate), "us");
  add("parity.finalize_us", engine_us(SK::kCommitParityFinalize), "us");
  add("parity.undo_us", engine_us(SK::kParityUndo), "us");
  per_commit("parity.unlogged_first_per_commit", "parity.unlogged_first",
             "count");
  add("parity.parity_undos", ratio(get("parity.parity_undos"), epochs), "count");
  add("parity.latch_waits", ratio(get("parity.latch_waits"), epochs), "count");

  per_commit("wal.bytes_per_commit", "wal.bytes_appended", "bytes");
  per_commit("wal.forces_per_commit", "wal.forces", "count");
  add("wal.group_commit_batch_mean",
      ratio(get("wal.group_commit_batch_size.sum"),
            get("wal.group_commit_batch_size.count")),
      "count");
  add("wal.follower_wait_us",
      ratio(get("wal.group_commit_follower_wait_us.sum"),
            get("wal.group_commit_follower_wait_us.count")),
      "us");
  add("wal.leader_flush_us",
      ratio(get("wal.group_commit_leader_flush_us.sum"),
            get("wal.group_commit_leader_flush_us.count")),
      "us");

  per_commit("storage.reads_per_commit", "storage.reads", "count");
  per_commit("storage.writes_per_commit", "storage.writes", "count");
  per_commit("storage.xor_per_commit", "storage.xor", "count");
  add("storage.max_disk_busy_ms", ratio(get("storage.max_disk_busy_ms"), epochs),
      "ms");

  per_commit("io.submitted_writes_per_commit", "io.submitted", "count");
  per_commit("io.physical_writes_per_commit", "io.physical", "count");
  per_commit("io.coalesced_writes_per_commit", "io.coalesced", "count");
  per_commit("io.batched_parity_rmw_per_commit", "io.parity_rmw", "count");
  add("io.cache_hits", ratio(get("io.cache_hits"), epochs), "count");
  add("io.flush_us", call_us(kFlushIo), "us");

  for (const char* phase :
       {"directory_rebuild", "analysis", "roll_forward", "chain_audit",
        "logged_undo", "parity_undo", "redo", "loser_resolution"}) {
    const std::string base = std::string("recovery.") + phase;
    add(base + "_ms", ratio(get(base + "_ms"), restarts), "ms");
    add(base + "_transfers", ratio(get(base + "_transfers"), restarts),
        "transfers");
  }
  add("recovery.redo_applied", ratio(get("recovery.redo_applied"), restarts),
      "count");
  add("recovery.parity_undos", ratio(get("recovery.parity_undos"), restarts),
      "count");
  add("recovery.checkpoint_us", call_us(kCheckpoint), "us");
  add("recovery.checkpoints_attempted",
      ratio(static_cast<double>(t.attempted[kOpCheckpoint]), epochs), "count");

  add("exec.parallel_fors", ratio(get("exec.parallel_fors"), restarts), "count");
  add("exec.chunks", ratio(get("exec.chunks"), restarts), "count");

  add("media.rebuild_ms", call_us(kRebuildDisk) / 1e3, "ms");
  add("media.group_rebuild_us", engine_us(SK::kParityRebuild), "us");
  add("media.pages_rebuilt", ratio(get("media.pages_rebuilt"), rebuilds), "count");
  add("media.rebuild_transfers", ratio(get("media.rebuild_transfers"), rebuilds),
      "transfers");

  // Where the clients' time went: each public call's share of the client
  // time inside measured windows; the rest is the benchmark's own code.
  double covered = 0;
  for (const Call c : {kBegin, kRead, kWrite, kCommit, kAbort, kCheckpoint,
                       kFlushIo}) {
    const double pct =
        ratio(static_cast<double>(t.span_ns[c]) / 1e9, s.client_s) * 100;
    covered += pct;
    add(std::string("share.") + kCallNames[c] + "_pct", pct, "%");
  }
  add("share.client_pct", 100 - covered, "%");
  // The engine's own spans inside Commit().
  const double commit_ns = static_cast<double>(t.span_ns[kCommit]);
  for (const auto& [name, kind] :
       {std::pair{"share.commit_force_pages_pct", SK::kCommitForcePages},
        std::pair{"share.commit_wal_flush_pct", SK::kCommitWalFlush},
        std::pair{"share.commit_parity_finalize_pct",
                  SK::kCommitParityFinalize}}) {
    add(name,
        ratio(static_cast<double>(E.ns[static_cast<size_t>(kind)]), commit_ns) *
            100,
        "%");
  }
  add("share.restart_phases_pct",
      ratio(run.restart_phase_ms_total, run.restart_ms_total) * 100, "%");

  const double tps_untraced = ratio(static_cast<double>(run.untraced.tally.commits),
                                    run.untraced.window_s);
  const double tps_traced = ratio(commits, s.window_s);
  add("trace.overhead_pct", (ratio(tps_untraced, tps_traced) - 1) * 100, "%");
  add("trace.spans_lost", static_cast<double>(E.lost), "count");
  return m;
}

void PrintCounts(const Tally& t) {
  for (int op = 0; op < kNumOps; ++op) {
    if (t.attempted[op] > 0) {
      std::printf("op %-14s attempted %10llu  failed %8d\n", kOpNames[op],
                  static_cast<unsigned long long>(t.attempted[op]), 0);
    }
  }
  for (int c = 0; c < kNumCalls; ++c) {
    if (t.calls[c] > 0) {
      std::printf("call %-12s %10llu  busy %8llu\n", kCallNames[c],
                  static_cast<unsigned long long>(t.calls[c]),
                  static_cast<unsigned long long>(t.busy[c]));
    }
  }
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

std::optional<Args> ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
    } else if (key == "--trace") {
      args.trace = value == "1";
      if (value != "0" && value != "1") {
        return std::nullopt;
      }
    } else {
      return std::nullopt;
    }
    if (end != nullptr && *end != '\0') {
      return std::nullopt;
    }
  }
  if (argc % 2 != 1 || !MakeSpec(args.workload) || !(args.seconds > 0) ||
      args.seconds > 3600) {
    return std::nullopt;
  }
  return args;
}

int Main(int argc, char** argv) {
  const std::optional<Args> args = ParseArgs(argc, argv);
  if (!args) {
    std::fprintf(stderr,
                 "usage: rdabench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1>\nworkloads:");
    for (const char* w : kWorkloads) {
      std::fprintf(stderr, " %s", w);
    }
    std::fprintf(stderr, "\n");
    return 2;
  }
  const Spec spec = *MakeSpec(args->workload);
  // Modeled device and log delays are sleeps. The default 50 us timer slack
  // would stretch each of them by a varying amount; 1 us keeps them close to
  // the modeled time. This setting is per process (inherited by threads).
  prctl(PR_SET_TIMERSLACK, 1000UL, 0UL, 0UL, 0UL);
  RunState run;
  const auto start = Clock::now();
  uint32_t epoch = 0;
  try {
    // Whole epochs only; in trace mode they alternate untraced / traced.
    // Past --seconds, keep going until the quantiles have their samples.
    auto enough = [&run, &args] {
      const Tally& t = run.untraced.tally;
      return args->trace || (t.commit_us.size() >= 1000 && t.abort_us.size() >= 20);
    };
    do {
      const bool traced = args->trace && epoch % 2 == 1;
      Epoch(spec, args->seed, epoch, traced, &run).Run();
      // Hand the epoch's freed memory back to the kernel, so that the next
      // epoch's resident size is its own and not the sum of its past.
      malloc_trim(0);
      ++epoch;
    } while (Seconds(Clock::now() - start) < args->seconds || !enough() ||
             (args->trace && epoch < 2));

    Tally all = run.untraced.tally;
    all.Merge(run.traced.tally);
    std::printf("workload %s seed %llu epochs %u elapsed_s %.3f trace %d\n",
                spec.name.c_str(), static_cast<unsigned long long>(args->seed),
                epoch, Seconds(Clock::now() - start), args->trace ? 1 : 0);
    PrintCounts(all);
    const std::vector<Metric> metrics =
        args->trace ? PerLayer(run) : EndToEnd(run.untraced);
    for (const Metric& m : metrics) {
      std::printf("metric %-40s %16s %-10s %s\n", m.name.c_str(),
                  Number(m.value).c_str(), m.unit.c_str(), m.note.c_str());
    }
    if (!args->trace) {
      // Printed, but kept out of the JSON result: a shared host's load
      // moves this tail far more than the gated metrics (see README.md).
      const Metric tail =
          BlockP99Metric("commit_p99_us", run.untraced.tally.commit_us);
      std::printf("tail   %-40s %16s %-10s %s\n", tail.name.c_str(),
                  Number(tail.value).c_str(), tail.unit.c_str(),
                  tail.note.c_str());
    }
    uint64_t attempted = 0;
    for (int op = 0; op < kNumOps; ++op) {
      attempted += all.attempted[op];
    }
    std::string json = "{\"correct\": true, \"attempted\": " +
                       std::to_string(attempted) +
                       ", \"failed\": 0, \"metrics\": {";
    for (size_t i = 0; i < metrics.size(); ++i) {
      json += (i > 0 ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
              Number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
              "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fflush(stdout);
    std::fprintf(stderr, "rdabench: %s (epoch %u)\n", e.what(), epoch);
    std::printf(
        "{\"correct\": false, \"attempted\": 1, \"failed\": 1, \"metrics\": "
        "{}}\n");
    return 1;
  }
}

}  // namespace
}  // namespace rdabench

int main(int argc, char** argv) { return rdabench::Main(argc, argv); }

#include "fuzz/shrinker.h"

#include <cstddef>
#include <string>

namespace rda::fuzz {
namespace {

// Replays `candidate`; true when it still fails. Updates `violation` with
// the candidate's diagnosis on failure so the final result explains the
// minimized schedule, not the original.
Result<bool> StillFails(const Schedule& candidate, const FuzzOptions& options,
                        std::string* violation, uint32_t* runs) {
  ++*runs;
  Result<RunOutcome> outcome = RunSchedule(candidate, options);
  if (!outcome.ok()) {
    return outcome.status();
  }
  if (!outcome->passed) {
    *violation = outcome->violation;
    return true;
  }
  return false;
}

}  // namespace

Result<ShrinkResult> Shrink(const Schedule& failing,
                            const FuzzOptions& options, uint32_t max_runs) {
  ShrinkResult result;
  result.minimized = failing;
  Result<bool> seed_fails =
      StillFails(failing, options, &result.violation, &result.runs);
  if (!seed_fails.ok()) {
    return seed_fails.status();
  }
  if (!*seed_fails) {
    return Status::FailedPrecondition(
        "schedule passes the oracle; nothing to shrink");
  }

  Schedule& best = result.minimized;
  bool improved = true;
  while (improved && result.runs < max_runs) {
    improved = false;

    // Drop crash points, one at a time.
    for (size_t i = 0;
         i < best.crash_points.size() && result.runs < max_runs; ++i) {
      Schedule candidate = best;
      candidate.crash_points.erase(candidate.crash_points.begin() +
                                   static_cast<std::ptrdiff_t>(i));
      Result<bool> fails =
          StillFails(candidate, options, &result.violation, &result.runs);
      if (!fails.ok()) {
        return fails.status();
      }
      if (*fails) {
        best = candidate;
        improved = true;
        --i;  // The next crash point slid into this index.
      }
    }

    // Simplify surviving crash points: a plain crash is smaller than one
    // that also crashes mid-recovery.
    for (size_t i = 0;
         i < best.crash_points.size() && result.runs < max_runs; ++i) {
      if (best.crash_points[i].recovery_faults == 0) {
        continue;
      }
      Schedule candidate = best;
      candidate.crash_points[i].recovery_faults = 0;
      Result<bool> fails =
          StillFails(candidate, options, &result.violation, &result.runs);
      if (!fails.ok()) {
        return fails.status();
      }
      if (*fails) {
        best = candidate;
        improved = true;
      }
    }

    // Drop faults, one at a time.
    for (size_t i = 0; i < best.faults.size() && result.runs < max_runs;
         ++i) {
      Schedule candidate = best;
      candidate.faults.erase(candidate.faults.begin() +
                             static_cast<std::ptrdiff_t>(i));
      Result<bool> fails =
          StillFails(candidate, options, &result.violation, &result.runs);
      if (!fails.ok()) {
        return fails.status();
      }
      if (*fails) {
        best = candidate;
        improved = true;
        --i;
      }
    }

    // Drop the held transaction.
    if (best.hold && result.runs < max_runs) {
      Schedule candidate = best;
      candidate.hold.reset();
      Result<bool> fails =
          StillFails(candidate, options, &result.violation, &result.runs);
      if (!fails.ok()) {
        return fails.status();
      }
      if (*fails) {
        best = candidate;
        improved = true;
      }
    }

    // Shrink the workload: halve while that still fails, then try single
    // decrements. (Events past the new end clamp to the final step, so the
    // schedule stays well-formed.)
    while (best.num_steps > 0 && result.runs < max_runs) {
      Schedule halved = best;
      halved.num_steps = best.num_steps / 2;
      Result<bool> fails =
          StillFails(halved, options, &result.violation, &result.runs);
      if (!fails.ok()) {
        return fails.status();
      }
      if (*fails) {
        best = halved;
        improved = true;
        continue;
      }
      if (result.runs >= max_runs) {
        break;
      }
      Schedule decremented = best;
      decremented.num_steps = best.num_steps - 1;
      fails = StillFails(decremented, options, &result.violation,
                         &result.runs);
      if (!fails.ok()) {
        return fails.status();
      }
      if (*fails) {
        best = decremented;
        improved = true;
        continue;
      }
      break;
    }

    // Concurrency last: a single-threaded repro is worth more than a small
    // multi-threaded one.
    if (best.threads > 1 && result.runs < max_runs) {
      Schedule candidate = best;
      candidate.threads = 1;
      Result<bool> fails =
          StillFails(candidate, options, &result.violation, &result.runs);
      if (!fails.ok()) {
        return fails.status();
      }
      if (*fails) {
        best = candidate;
        improved = true;
      }
    }
  }
  return result;
}

}  // namespace rda::fuzz

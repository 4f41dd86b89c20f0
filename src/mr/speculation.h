#ifndef DYNO_MR_SPECULATION_H_
#define DYNO_MR_SPECULATION_H_

#include <cstdint>
#include <functional>
#include <queue>
#include <set>
#include <vector>

#include "common/sim_time.h"

namespace dyno {

/// Speculative-execution bookkeeping for one phase (map or reduce) of one
/// job (DESIGN.md §6.2). The straggler test compares each in-flight primary
/// attempt against the median duration of the phase's completed attempts;
/// both inputs are kept here so that test costs O(log n) per completion and
/// O(in-flight primaries) per scan, never a pass over every task.
class PhaseSpeculation {
 public:
  /// Records the duration of one completed attempt.
  void AddCompleted(SimMillis ms) {
    ++version_;
    if (upper_.empty() || ms >= upper_.top()) {
      upper_.push(ms);
    } else {
      lower_.push(ms);
    }
    // Rebalance so upper_ holds ceil(n/2) durations.
    if (upper_.size() > lower_.size() + 1) {
      lower_.push(upper_.top());
      upper_.pop();
    } else if (lower_.size() > upper_.size()) {
      upper_.push(lower_.top());
      lower_.pop();
    }
  }

  bool HasCompleted() const { return !upper_.empty(); }

  /// Element n/2 (0-based) of the n completed durations in sorted order:
  /// the upper median. Requires HasCompleted().
  SimMillis Median() const { return upper_.top(); }

  /// Marks whether task `task_id`'s primary attempt is in flight. This is
  /// the only record of that fact.
  void SetPrimaryInFlight(int task_id, bool in_flight) {
    ++version_;
    if (in_flight) {
      in_flight_.insert(task_id);
    } else {
      in_flight_.erase(task_id);
    }
  }

  bool PrimaryInFlight(int task_id) const {
    return in_flight_.count(task_id) != 0;
  }

  /// Ids of the tasks whose primary attempt is in flight, ascending — the
  /// order that gives the straggler scan its lowest-id tie-break.
  const std::set<int>& primaries_in_flight() const { return in_flight_; }

  /// Records that a task's backup attempt launched or was killed: the
  /// straggler test reads that too.
  void NoteBackupChange() { ++version_; }

  /// Remembers the speculation wakeup computed now (-1: none).
  void SetWakeup(SimMillis at) {
    wakeup_version_ = version_;
    wakeup_ = at;
  }

  /// True when nothing the wakeup depends on changed since SetWakeup and
  /// its answer still holds at `now`: no wakeup, or one still ahead of
  /// `now` — which the event queue then already holds.
  bool WakeupQueued(SimMillis now) const {
    return wakeup_version_ == version_ && (wakeup_ < 0 || wakeup_ > now);
  }

 private:
  /// The floor(n/2) smallest durations (max-heap) and the ceil(n/2) largest
  /// (min-heap); every element of lower_ is <= every element of upper_.
  std::priority_queue<SimMillis> lower_;
  std::priority_queue<SimMillis, std::vector<SimMillis>, std::greater<>>
      upper_;
  std::set<int> in_flight_;
  /// Bumped by every change the straggler test reads.
  uint64_t version_ = 0;
  uint64_t wakeup_version_ = ~uint64_t{0};
  SimMillis wakeup_ = -1;
};

}  // namespace dyno

#endif  // DYNO_MR_SPECULATION_H_

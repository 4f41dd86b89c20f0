#ifndef DYNO_MR_SPECULATION_H_
#define DYNO_MR_SPECULATION_H_

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

 private:
  /// The floor(n/2) smallest durations (max-heap) and the ceil(n/2) largest
  /// (min-heap); every element of lower_ is <= every element of upper_.
  std::priority_queue<SimMillis> lower_;
  std::priority_queue<SimMillis, std::vector<SimMillis>, std::greater<>>
      upper_;
  std::set<int> in_flight_;
};

}  // namespace dyno

#endif  // DYNO_MR_SPECULATION_H_

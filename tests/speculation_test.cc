// PhaseSpeculation, the engine's per-phase speculation bookkeeping: the
// running median must equal the nth_element value the straggler test is
// defined by after every append, and the in-flight index must iterate in
// ascending task id whatever order ids come and go in.

#include <algorithm>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "mr/speculation.h"

namespace dyno {
namespace {

SimMillis NthElementMedian(std::vector<SimMillis> v) {
  const size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + mid, v.end());
  return v[mid];
}

/// Appends `durations` one at a time, checking the median after each.
void ExpectMedianMatchesOracle(const std::vector<SimMillis>& durations) {
  PhaseSpeculation spec;
  EXPECT_FALSE(spec.HasCompleted());
  std::vector<SimMillis> seen;
  for (SimMillis d : durations) {
    spec.AddCompleted(d);
    seen.push_back(d);
    ASSERT_TRUE(spec.HasCompleted());
    ASSERT_EQ(spec.Median(), NthElementMedian(seen))
        << "after " << seen.size() << " durations";
  }
}

TEST(SpeculationTest, MedianMatchesNthElementOnRandomSequences) {
  Rng rng(17);
  for (int round = 0; round < 40; ++round) {
    const int n = static_cast<int>(rng.UniformInt(1, 5000));
    // Small value ranges force many duplicates; wide ones few.
    const int64_t range = round % 2 == 0 ? 8 : 1000000;
    std::vector<SimMillis> durations;
    while (static_cast<int>(durations.size()) < n) {
      const int64_t start = rng.UniformInt(0, range);
      const int run = static_cast<int>(rng.UniformInt(1, 60));
      switch (rng.Uniform(3)) {
        case 0:  // ascending run
          for (int i = 0; i < run; ++i) durations.push_back(start + i);
          break;
        case 1:  // descending run
          for (int i = 0; i < run; ++i) durations.push_back(start - i);
          break;
        default:  // independent draws
          for (int i = 0; i < run; ++i) {
            durations.push_back(rng.UniformInt(0, range));
          }
      }
    }
    durations.resize(n);
    ExpectMedianMatchesOracle(durations);
  }
}

TEST(SpeculationTest, MedianOfMonotoneAndConstantSequences) {
  std::vector<SimMillis> up;
  std::vector<SimMillis> down;
  std::vector<SimMillis> flat(777, 42);
  for (int i = 0; i < 2000; ++i) {
    up.push_back(i);
    down.push_back(2000 - i);
  }
  ExpectMedianMatchesOracle(up);
  ExpectMedianMatchesOracle(down);
  ExpectMedianMatchesOracle(flat);
}

TEST(SpeculationTest, InFlightIndexIteratesInAscendingId) {
  Rng rng(5);
  PhaseSpeculation spec;
  std::set<int> oracle;
  for (int step = 0; step < 20000; ++step) {
    const int id = static_cast<int>(rng.Uniform(300));
    const bool in_flight = rng.Bernoulli(0.55);
    spec.SetPrimaryInFlight(id, in_flight);
    if (in_flight) {
      oracle.insert(id);
    } else {
      oracle.erase(id);
    }
    ASSERT_EQ(spec.PrimaryInFlight(id), in_flight);
    if (step % 97 == 0) {
      std::vector<int> got(spec.primaries_in_flight().begin(),
                           spec.primaries_in_flight().end());
      ASSERT_TRUE(std::is_sorted(got.begin(), got.end()));
      ASSERT_EQ(got, std::vector<int>(oracle.begin(), oracle.end()));
    }
  }
  // Clearing an id that is not in flight is a no-op.
  spec.SetPrimaryInFlight(1000, false);
  EXPECT_EQ(spec.primaries_in_flight().size(), oracle.size());
}

}  // namespace
}  // namespace dyno

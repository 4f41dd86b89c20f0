// Reproduces Figure 4: the overhead DYNO's machinery adds to query
// execution — pilot runs, (re-)optimization calls, and online statistics
// collection — for Q2, Q7, Q8' and Q10 at SF300. The paper reports
// (re-)optimization at <0.25% (about 7% for the 8-relation Q8', whose
// initial optimizer call dominates), pilot runs at 2.5-6.7%, statistics
// collection at 0.1-2.8%, and ~7-10% total.

#include <cstdio>

#include "bench_common.h"

using namespace dyno;
using namespace dyno::bench;

int main() {
  auto scenario = MakeScenario("SF300");
  std::vector<std::pair<std::string, Query>> queries = {
      {"Q2", MakeTpchQ2()},
      {"Q7", MakeTpchQ7()},
      {"Q8'", MakeTpchQ8Prime()},
      {"Q10", MakeTpchQ10()},
  };

  PrintHeader("Figure 4: DYNOPT overhead breakdown (SF300, % of total)",
              {"plan exec", "pilot runs", "re-opt", "stats coll",
               "overhead"});
  for (auto& [name, query] : queries) {
    Measured m = RunDynopt(scenario.get(), query);
    if (!m.ok) {
      std::printf("%-18s  FAILED: %s\n", name.c_str(), m.detail.c_str());
      RecordFailedCell(name, "DYNOPT");
      continue;
    }
    double total = static_cast<double>(m.total_ms);
    double pilot = static_cast<double>(m.report.pilot_ms);
    double opt = static_cast<double>(m.report.optimizer_ms);
    double stats = static_cast<double>(m.report.stats_overhead_ms);
    double exec = total - pilot - opt - stats;
    PrintRow(name, {exec, pilot, opt, stats, pilot + opt + stats}, total);
  }
  std::printf(
      "\npaper: re-opt <0.25%% (Q8' ~7%%), pilot 2.5-6.7%%, stats 0.1-2.8%%,"
      " total overhead 7-10%%\n");
  return BenchExitCode();
}

// Reproduces Figure 7: end-to-end execution time of the four plan variants
// — BESTSTATICJAQL (best hand-written left-deep plan), RELOPT (traditional
// shared-nothing optimizer), DYNOPT-SIMPLE (pilot runs, no re-opt) and
// DYNOPT — for Q2, Q8', Q9', Q10 at SF 100/300/1000, normalized to
// BESTSTATICJAQL. Paper shape: the DYNO variants are never worse than the
// best left-deep plan; Q2 gains ~1.2x from bushy plans; Q8' gains up to 2x
// from re-optimization (shrinking with SF); Q9' gains 1.33-1.88x from
// pilot-run-enabled broadcasts; Q10's left-deep plan is already optimal.

#include <cstdio>

#include "bench_common.h"

using namespace dyno;
using namespace dyno::bench;

int main() {
  std::vector<std::string> sfs = {"SF100", "SF300", "SF1000"};
  std::vector<std::pair<std::string, Query>> queries = {
      {"Q2", MakeTpchQ2()},
      {"Q8'", MakeTpchQ8Prime()},
      {"Q9'", MakeTpchQ9Prime()},
      {"Q10", MakeTpchQ10()},
  };

  for (const std::string& sf : sfs) {
    auto scenario = MakeScenario(sf);
    PrintHeader("Figure 7 (" + sf + "): normalized to BESTSTATICJAQL",
                {"BESTSTATIC", "RELOPT", "DYN-SIMPLE", "DYNOPT"});
    for (auto& [name, query] : queries) {
      Measured best_static = RunBestStatic(scenario.get(), query);
      Measured relopt = RunRelopt(scenario.get(), query);
      Measured simple = RunDynoptSimple(scenario.get(), query);
      Measured dynopt = RunDynopt(scenario.get(), query);
      double base = best_static.ok ? static_cast<double>(best_static.total_ms)
                                   : -1;
      PrintRow(name,
               {base, relopt.ok ? static_cast<double>(relopt.total_ms) : -1,
                simple.ok ? static_cast<double>(simple.total_ms) : -1,
                dynopt.ok ? static_cast<double>(dynopt.total_ms) : -1},
               base);
    }
  }
  std::printf(
      "\npaper: DYNO variants <= 100%% everywhere; Q2 ~83%% (bushy); Q8' "
      "50-93%% (re-opt); Q9' 53-75%% (pilot-enabled broadcasts); Q10 "
      "~100%%\n");
  return BenchExitCode();
}

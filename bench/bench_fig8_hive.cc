// Reproduces Figure 8: the benefit of DYNO's plans on a Hive-style
// backend, whose broadcast join ships the build side through the
// DistributedCache (loaded once per node instead of once per map task).
// Same comparison as Fig. 7 at SF300, all variants executed in Hive mode,
// normalized to BESTSTATICHIVE. Paper shape: same trends as Jaql, but Q9'
// speeds up much more (3.98x vs 1.88x) because its plan is broadcast-heavy
// and the DistributedCache amortizes every build-side load.

#include <cstdio>

#include "bench_common.h"

using namespace dyno;
using namespace dyno::bench;

int main() {
  auto scenario = MakeScenario("SF300");
  std::vector<std::pair<std::string, Query>> queries = {
      {"Q2", MakeTpchQ2()},
      {"Q8'", MakeTpchQ8Prime()},
      {"Q9'", MakeTpchQ9Prime()},
      {"Q10", MakeTpchQ10()},
  };

  PrintHeader("Figure 8 (SF300, Hive backend): normalized to BESTSTATICHIVE",
              {"BESTSTATIC", "RELOPT", "DYN-SIMPLE", "DYNOPT"});
  for (auto& [name, query] : queries) {
    Measured best_static = RunBestStatic(scenario.get(), query, /*hive=*/true);
    Measured relopt = RunRelopt(scenario.get(), query, /*hive=*/true);
    Measured simple = RunDynoptSimple(scenario.get(), query, /*hive=*/true);
    Measured dynopt =
        RunDynopt(scenario.get(), query, ExecutionStrategy::kUncertain1,
                  /*hive=*/true);
    double base =
        best_static.ok ? static_cast<double>(best_static.total_ms) : -1;
    PrintRow(name,
             {base, relopt.ok ? static_cast<double>(relopt.total_ms) : -1,
              simple.ok ? static_cast<double>(simple.total_ms) : -1,
              dynopt.ok ? static_cast<double>(dynopt.total_ms) : -1},
             base);
  }
  std::printf("\npaper: same trends as Jaql; Q9' speedup grows to ~3.98x "
              "because the DistributedCache amortizes broadcast loads\n");
  return BenchExitCode();
}

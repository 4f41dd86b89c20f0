// Reproduces Table 1: relative execution time of the pilot runs, PILR_ST
// vs PILR_MT, for queries Q2, Q8', Q9', Q10 and scale factors 100/300/1000.
// Each row is normalized to PILR_ST at SF100 (= 100%). Expected shape:
// MT is several times faster than ST (it submits all leaf jobs at once,
// paying the 15 s job-startup latency once instead of per relation), and
// MT's cost is flat across scale factors (it reads a fixed-size sample).

#include <cstdio>
#include <map>

#include "bench_common.h"
#include "pilot/pilot_runner.h"

namespace {

using namespace dyno;
using namespace dyno::bench;

SimMillis RunPilr(Scenario* scenario, const Query& query,
                  PilotRunOptions::Mode mode) {
  std::vector<LeafExpr> leaves = ExtractLeafExprs(query.join_block, nullptr);
  StatsStore store;  // fresh store: no reuse between measurements
  PilotRunOptions options;
  options.mode = mode;
  options.k = 128;
  options.reuse_stats = false;
  PilotRunner runner(scenario->engine.get(), scenario->catalog.get(), &store,
                     options);
  auto report = runner.Run(leaves);
  if (!report.ok()) {
    std::fprintf(stderr, "PILR failed: %s\n",
                 report.status().ToString().c_str());
    return -1;
  }
  return report->elapsed_ms;
}

}  // namespace

int main() {
  std::vector<std::pair<std::string, Query>> queries = {
      {"Q2", MakeTpchQ2()},
      {"Q8'", MakeTpchQ8Prime()},
      {"Q9'", MakeTpchQ9Prime()},
      {"Q10", MakeTpchQ10()},
  };
  std::vector<std::string> sfs = {"SF100", "SF300", "SF1000"};
  std::map<std::string, std::unique_ptr<Scenario>> scenarios;
  for (const std::string& sf : sfs) scenarios[sf] = MakeScenario(sf);

  PrintHeader("Table 1: relative PILR time (row-normalized to SF100-ST)",
              {"SF100-ST", "SF100-MT", "SF300-MT", "SF1000-MT"});
  double mt_speedup_sum = 0;
  int mt_speedup_n = 0;
  for (auto& [name, query] : queries) {
    double st100 = static_cast<double>(
        RunPilr(scenarios["SF100"].get(), query, PilotRunOptions::Mode::kSerial));
    double mt100 = static_cast<double>(RunPilr(
        scenarios["SF100"].get(), query, PilotRunOptions::Mode::kParallel));
    double mt300 = static_cast<double>(RunPilr(
        scenarios["SF300"].get(), query, PilotRunOptions::Mode::kParallel));
    double mt1000 = static_cast<double>(RunPilr(
        scenarios["SF1000"].get(), query, PilotRunOptions::Mode::kParallel));
    PrintRow(name, {st100, mt100, mt300, mt1000}, st100);
    if (mt100 > 0) {
      mt_speedup_sum += st100 / mt100;
      ++mt_speedup_n;
    }
  }
  std::printf("\naverage MT speedup over ST: %.1fx (paper: 4.6x)\n",
              mt_speedup_sum / mt_speedup_n);
  return BenchExitCode();
}

// Self-tests of the benchmark itself (not of the library):
//
//   hostbench_selftest
//
//   tamper       a result whose rows were altered, dropped, duplicated or
//                bit-flipped is rejected; reordering rows or struct fields
//                is not.
//   seeds        the same seed gives the same TPC-H data, two seeds give
//                different data.
//   threads      for one seed, every workload's first iteration (simulated
//                times, statuses, row fingerprints) and every engine count
//                are identical at 1 and N = max(2, min(4, nproc)) execution
//                threads.
//
// Prints PASS/FAIL per check; exits 0 only when all pass.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "dyno/driver.h"
#include "hostbench.h"
#include "stats/stats_store.h"
#include "tpch/queries.h"

using namespace hostbench;

namespace {

int failures = 0;

void Check(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "PASS" : "FAIL", what.c_str());
  std::fflush(stdout);
  if (!ok) ++failures;
}

RowSet MustRows(const std::vector<dyno::Value>& rows) {
  auto set = CanonicalRows(rows);
  if (!set.ok()) {
    std::fprintf(stderr, "CanonicalRows: %s\n",
                 set.status().ToString().c_str());
    std::exit(1);
  }
  return *set;
}

/// Replaces the first integer field of `row` with its value plus one.
dyno::Value Bump(const dyno::Value& row) {
  dyno::StructFields fields = row.fields();
  for (auto& [name, value] : fields) {
    if (value.type() == dyno::Value::Type::kInt) {
      value = dyno::Value::Int(value.int_value() + 1);
      break;
    }
  }
  return dyno::Value::Struct(std::move(fields));
}

void TamperedRowsRejected() {
  ScenarioSpec spec;
  spec.sf = "SF100";
  std::unique_ptr<Scenario> s = BuildScenario(spec);
  dyno::DynoOptions options;
  options.cost = s->cost;
  options.pilot.k = 128;
  options.max_job_attempts = 1;
  options.retry_budget_ms = 0;
  options.oom_retry_ladder = 0;
  dyno::StatsStore store;
  dyno::DynoDriver driver(s->engine.get(), s->catalog.get(), &store, options);
  auto report = driver.Execute(dyno::MakeTpchQ10());
  if (!report.ok() || report->result == nullptr) {
    Check(false, "tamper: Q10 runs");
    return;
  }
  auto rows = dyno::ReadAllRows(*report->result);
  if (!rows.ok() || rows->size() < 2) {
    Check(false, "tamper: Q10 returns at least two rows");
    return;
  }
  const RowSet truth = MustRows(*rows);
  auto from_file = CanonicalRows(report->result);
  Check(from_file.ok() && *from_file == truth,
        "tamper: the result file and its rows give one fingerprint");

  std::vector<dyno::Value> reversed(rows->rbegin(), rows->rend());
  for (dyno::Value& row : reversed) {
    dyno::StructFields fields = row.fields();
    std::reverse(fields.begin(), fields.end());
    row = dyno::Value::Struct(std::move(fields));
  }
  Check(MustRows(reversed) == truth,
        "tamper: reordered rows and struct fields are accepted");

  std::vector<dyno::Value> changed = *rows;
  changed[changed.size() / 2] = Bump(changed[changed.size() / 2]);
  Check(!(MustRows(changed) == truth),
        "tamper: one altered value is rejected");

  std::vector<dyno::Value> dropped(rows->begin(), rows->end() - 1);
  Check(!(MustRows(dropped) == truth), "tamper: a dropped row is rejected");

  std::vector<dyno::Value> duplicated = *rows;
  duplicated.back() = duplicated.front();
  Check(!(MustRows(duplicated) == truth),
        "tamper: a row replaced by a duplicate is rejected");

  auto copy = dyno::WriteRows(&s->dfs, "/selftest/tampered", *rows);
  if (!copy.ok()) {
    Check(false, "tamper: copy the result");
    return;
  }
  (void)(*copy)->CorruptByteForTesting(0, 0, 0x01);
  Check(!CanonicalRows(*copy).ok(),
        "tamper: a flipped result bit is DataLoss");
}

void SeedsChangeData() {
  auto table_rows = [](uint64_t seed) {
    ScenarioSpec spec;
    spec.sf = "SF100";
    spec.tpch_seed = DeriveSeed(seed, "tpch");
    std::unique_ptr<Scenario> s = BuildScenario(spec);
    std::vector<RowSet> sets;
    for (const std::string& table : s->catalog->TableNames()) {
      auto file = s->catalog->OpenTable(table);
      auto set = file.ok() ? CanonicalRows(*file)
                           : dyno::Result<RowSet>(file.status());
      sets.push_back(set.ok() ? *set : RowSet{});
    }
    return sets;
  };
  const std::vector<RowSet> a = table_rows(1), again = table_rows(1),
                            b = table_rows(2);
  Check(a == again, "seeds: one seed gives identical tables");
  Check(a.size() == b.size() && !(a == b),
        "seeds: seeds 1 and 2 give different tables");
}

/// Fingerprint of a workload's first iteration plus every engine count;
/// empty when the reference or any execution failed.
std::string FirstIteration(const std::string& name, int threads) {
  std::unique_ptr<Workload> w = MakeWorkload(name, /*seed=*/7, threads);
  w->Setup();
  if (!w->Prepare().ok()) return "";
  Tracer tracer;
  IterationResult iter = w->RunIteration(&tracer);
  if (iter.failed > 0) return "";
  return iter.fingerprint + tracer.metrics()->Serialize();
}

void ThreadsAgree(int threads) {
  for (const std::string& name : WorkloadNames()) {
    const std::string one = FirstIteration(name, 1);
    const std::string many = FirstIteration(name, threads);
    Check(!one.empty() && one == many,
          "threads: " + name + " identical at 1 and " +
              std::to_string(threads) + " execution threads");
  }
}

}  // namespace

int main() {
  if (!DynoEnvironment().empty()) {
    std::fprintf(stderr, "hostbench_selftest: unset the DYNO_* variables\n");
    return 2;
  }
  TamperedRowsRejected();
  SeedsChangeData();
  ThreadsAgree(std::max(2, std::min(4, Nproc())));
  std::printf("%s: %d failure(s)\n", failures == 0 ? "OK" : "FAILED",
              failures);
  return failures == 0 ? 0 : 1;
}

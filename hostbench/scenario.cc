#include <sched.h>
#include <stdlib.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <set>

#include "hostbench.h"
#include "tpch/dbgen.h"

extern char** environ;

namespace hostbench {

namespace {

/// The simulator scale each paper scale factor maps to (as in
/// bench/bench_common.cc).
double ScaleFor(const std::string& sf) {
  return sf == "SF100" ? 0.002 : 0.02;  // else SF1000
}

}  // namespace

void Scenario::DropScratch() {
  std::set<std::string> keep;
  for (const std::string& table : catalog->TableNames()) {
    auto entry = catalog->Lookup(table);
    if (entry.ok()) keep.insert(entry->dfs_path);
  }
  for (const std::string& path : dfs.List()) {
    if (keep.count(path) == 0) (void)dfs.Delete(path);
  }
}

IterationEngine::IterationEngine(Scenario* scenario, Tracer* tracer,
                                 bool gate)
    : scenario_(scenario), tracer_(tracer) {
  scenario->engine.reset();
  scenario->engine = std::make_unique<dyno::MapReduceEngine>(
      &scenario->dfs, scenario->cluster);
  if (tracer_ != nullptr) tracer_->Attach(scenario->engine.get(), gate);
}

IterationEngine::~IterationEngine() {
  if (tracer_ != nullptr) tracer_->Detach(scenario_->engine.get());
}

std::unique_ptr<Scenario> BuildScenario(const ScenarioSpec& spec) {
  auto scenario = std::make_unique<Scenario>();
  // The paper's cluster at simulator scale, exactly as the bench_* programs
  // configure it: 15 nodes, 140/84 slots, 5 s job startup, 64 KiB of task
  // memory, data-dominated phase rates.
  dyno::ClusterConfig& cluster = scenario->cluster;
  cluster.num_nodes = 15;
  cluster.map_slots = 140;
  cluster.reduce_slots = 84;
  cluster.job_startup_ms = 5000;
  cluster.memory_per_task_bytes = 64 * 1024;
  cluster.map_read_bytes_per_ms = 2.0;
  cluster.map_write_bytes_per_ms = 2.0;
  cluster.shuffle_bytes_per_ms = 50.0;
  cluster.reduce_read_bytes_per_ms = 4.0;
  cluster.reduce_write_bytes_per_ms = 4.0;
  cluster.side_load_bytes_per_ms = 100.0;
  cluster.cpu_units_per_ms = 500.0;
  cluster.execution_threads = spec.execution_threads;
  cluster.reduce_memory_mode = spec.memory_mode;
  cluster.faults = spec.faults;
  cluster.faults.use_env_defaults = false;

  scenario->engine =
      std::make_unique<dyno::MapReduceEngine>(&scenario->dfs, cluster);
  scenario->catalog = std::make_unique<dyno::Catalog>(&scenario->dfs);

  scenario->cost.max_memory_bytes = cluster.memory_per_task_bytes;
  scenario->cost.c_job = 200000.0;
  scenario->cost.memory_factor = cluster.broadcast_memory_factor;

  dyno::TpchConfig config;
  config.scale = ScaleFor(spec.sf);
  config.seed = spec.tpch_seed;
  config.split_bytes = kSplitBytes;
  ColumnarKnobs knobs(spec.columnar);
  dyno::Status st = dyno::GenerateTpch(scenario->catalog.get(), config);
  if (!st.ok()) {
    std::fprintf(stderr, "TPC-H generation failed: %s\n",
                 st.ToString().c_str());
    std::exit(1);
  }
  return scenario;
}

ColumnarKnobs::ColumnarKnobs(bool on) {
  for (int i = 0; i < 2; ++i) {
    if (const char* prev = std::getenv(kNames[i])) saved_[i] = prev;
    setenv(kNames[i], on ? "1" : "0", 1);
  }
}

ColumnarKnobs::~ColumnarKnobs() {
  for (int i = 0; i < 2; ++i) {
    if (saved_[i].has_value()) {
      setenv(kNames[i], saved_[i]->c_str(), 1);
    } else {
      unsetenv(kNames[i]);
    }
  }
}

std::vector<std::string> DynoEnvironment() {
  std::vector<std::string> names;
  for (char** env = environ; env != nullptr && *env != nullptr; ++env) {
    if (std::strncmp(*env, "DYNO_", 5) != 0) continue;
    const char* eq = std::strchr(*env, '=');
    names.emplace_back(*env, eq != nullptr ? eq - *env : std::strlen(*env));
  }
  return names;
}

int Nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  int n = CPU_COUNT(&set);
  return n >= 1 ? n : 1;
}

}  // namespace hostbench

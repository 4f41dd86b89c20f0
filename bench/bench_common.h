#ifndef DYNO_BENCH_BENCH_COMMON_H_
#define DYNO_BENCH_BENCH_COMMON_H_

#include <memory>
#include <string>
#include <vector>

#include "baselines/best_static.h"
#include "baselines/relopt.h"
#include "dyno/driver.h"
#include "mr/engine.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "stats/stats_store.h"
#include "storage/catalog.h"
#include "tpch/dbgen.h"
#include "tpch/queries.h"

namespace dyno::bench {

/// One experiment environment: a simulated cluster with TPC-H data at a
/// paper scale factor. The paper's SF100/SF300/SF1000 map to proportional
/// simulator scales (plan choice depends on *relative* sizes; the cluster's
/// task memory stays fixed while data grows, so broadcast opportunities
/// shrink with SF exactly as in the paper).
struct Scenario {
  std::string sf_name;
  double tpch_scale = 0.002;
  Dfs dfs;
  std::unique_ptr<Catalog> catalog;
  std::unique_ptr<MapReduceEngine> engine;
  ClusterConfig cluster;
  CostModelParams cost;

  /// Engaged when DYNO_TRACE_PATH is set: the engine (and everything
  /// driving it) records into these, and the destructor writes
  /// <path>.jsonl, <path>.chrome.json and <path>.metrics.txt.
  std::unique_ptr<obs::TraceSink> trace;
  std::unique_ptr<obs::MetricsRegistry> metrics;
  std::string trace_path;

  Scenario(const Scenario&) = delete;
  Scenario& operator=(const Scenario&) = delete;
  Scenario() = default;
  ~Scenario();
};

/// Simulator scale for a paper scale factor name ("SF100", "SF300",
/// "SF1000").
double ScaleFor(const std::string& sf_name);

/// Builds a scenario: paper-like cluster (140/84 slots, 15 s startup,
/// fixed task memory) + generated TPC-H tables.
std::unique_ptr<Scenario> MakeScenario(const std::string& sf_name,
                                       bool hive_broadcast = false);

/// Result of one measured query execution.
struct Measured {
  SimMillis total_ms = 0;
  bool ok = false;
  std::string detail;
  QueryRunReport report;  ///< Populated for the DYNO variants.
};

/// Runs full DYNOPT (pilot runs + re-optimization, UNC-1 by default).
Measured RunDynopt(Scenario* scenario, const Query& query,
                   ExecutionStrategy strategy = ExecutionStrategy::kUncertain1,
                   bool hive = false);

/// Runs DYNOPT-SIMPLE (pilot runs, one optimizer call, MO waves).
Measured RunDynoptSimple(Scenario* scenario, const Query& query,
                         bool hive = false);

/// Runs the RELOPT baseline (static stats, traditional estimator).
Measured RunRelopt(Scenario* scenario, const Query& query, bool hive = false);

/// Runs the BESTSTATIC baseline (best hand-written left-deep Jaql plan).
Measured RunBestStatic(Scenario* scenario, const Query& query,
                       bool hive = false);

/// Prints a normalized table row: name + one column per value, normalized
/// to `baseline` when it is > 0 (per the paper's relative-time figures).
/// A negative value prints as `fail` and goes to RecordFailedCell under the
/// column named by the last PrintHeader.
void PrintRow(const std::string& name, const std::vector<double>& values,
              double baseline);

/// Prints a section header; its columns name the cells of the rows below.
void PrintHeader(const std::string& title,
                 const std::vector<std::string>& columns);

/// Records that the cell `row`/`column` failed. A failed DYNO-side cell (any
/// column but the BESTSTATIC and RELOPT baselines, which have no job retry)
/// makes BenchExitCode() return 1.
void RecordFailedCell(const std::string& row, const std::string& column);

/// The bench's exit code: 1 when a DYNO-side cell failed (each is listed on
/// stderr), otherwise 0.
int BenchExitCode();

}  // namespace dyno::bench

#endif  // DYNO_BENCH_BENCH_COMMON_H_

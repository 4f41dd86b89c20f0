#ifndef DYNO_BASELINES_RELOPT_H_
#define DYNO_BASELINES_RELOPT_H_

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/sim_time.h"
#include "common/status.h"
#include "exec/plan_executor.h"
#include "lang/plan.h"
#include "lang/query.h"
#include "mr/engine.h"
#include "optimizer/optimizer.h"
#include "stats/histogram.h"
#include "stats/table_stats.h"
#include "storage/catalog.h"

namespace dyno {

/// The RELOPT baseline (paper §6.1): a state-of-the-art relational
/// optimizer for a shared-nothing DBMS ("DBMS-X"). It enjoys *detailed*
/// statistics gathered ahead of time — exact base-table cardinalities,
/// per-column distinct counts and equi-depth histograms — and estimates
/// simple-predicate selectivities well. Its two blind spots are exactly the
/// paper's targets: (1) multiple predicates combine under the independence
/// assumption, so correlated predicates yield badly underestimated results;
/// (2) UDFs have unknown selectivity (treated as 1.0), so UDF-filtered
/// relations look full-size. The resulting plan is executed as-is on the
/// MapReduce runtime ("hand-coded to a Jaql script"), with no pilot runs
/// and no re-optimization.
class RelOptBaseline {
 public:
  /// `cost` is the MapReduce cost model (used for Jaql-side chain
  /// application); internally the planner runs with a DBMS-flavored
  /// derivative (cheap pipelined exchanges, N-fold broadcast replication).
  /// `num_nodes` is the DBMS cluster size for that replication factor.
  RelOptBaseline(MapReduceEngine* engine, Catalog* catalog,
                 CostModelParams cost, int num_nodes = 15);

  /// ANALYZE: collects full statistics (exact counts, NDVs, histograms) on
  /// `columns` of `table`. Client-side and unbilled — DBMS-X gathers all
  /// needed statistics before query execution (§6.1). The scan runs once
  /// per table version and column set on the catalog
  /// (Catalog::MemoizedStats); this baseline then sees exactly the columns
  /// it asked for.
  Status AnalyzeTable(const std::string& table,
                      const std::vector<std::string>& columns);

  /// Runs ANALYZE over every table/column a join block touches.
  Status AnalyzeForBlock(const JoinBlock& block);

  /// Plans `block` with the traditional estimator. The plan is bushy and
  /// may use broadcast joins wherever the (possibly wrong) estimates say
  /// the build side fits.
  Result<std::unique_ptr<PlanNode>> Plan(const JoinBlock& block);

  /// Estimated statistics RELOPT derives for one leaf (exposed for tests:
  /// this is where independence and UDF-blindness manifest).
  Result<TableStats> EstimateLeaf(const LeafExpr& leaf);

  struct RunResult {
    SimMillis elapsed_ms = 0;
    std::string plan_compact;
    std::string plan_tree;
    int jobs_run = 0;
    int map_only_jobs = 0;
    std::shared_ptr<DfsFile> output;
    /// Non-OK when the plan failed at runtime (e.g. a broadcast build side
    /// that the optimizer underestimated and that did not fit in memory).
    Status exec_status;
  };

  /// Plans and executes `block` (wave-parallel static execution).
  Result<RunResult> PlanAndExecute(const JoinBlock& block,
                                   const ExecOptions& exec_options);

 private:
  struct TableAnalysis {
    TableStats stats;  ///< Exact cardinality/NDV per analyzed column.
    std::map<std::string, EquiDepthHistogram> histograms;
  };

  /// One full scan of `table` for `columns`: AnalyzeTable's memo miss.
  Result<TableAnalysis> ComputeAnalysis(
      const std::string& table, const std::set<std::string>& columns) const;

  MapReduceEngine* engine_;
  Catalog* catalog_;
  CostModelParams cost_;
  int num_nodes_;
  std::map<std::string, TableAnalysis> analyzed_;
};

}  // namespace dyno

#endif  // DYNO_BASELINES_RELOPT_H_

#ifndef HOSTBENCH_HOSTBENCH_H_
#define HOSTBENCH_HOSTBENCH_H_

// Host-time benchmark of the DYNO simulator. It drives the library's public
// entry points from outside (DynoDriver::Execute, the two baselines,
// QueryService::RunAll, Catalog/Dfs writes) and measures what a run costs
// on the host, next to the simulated-clock results the paper reports.
// README.md in this directory maps every metric to its layer and workload.

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "lang/query.h"
#include "mr/engine.h"
#include "obs/metrics.h"
#include "optimizer/cost_model.h"
#include "storage/catalog.h"
#include "storage/dfs.h"

namespace hostbench {

// ---------------------------------------------------------------------------
// Result checking and statistics (canonical.cc).

/// Order-insensitive fingerprint of a result's rows: the row count and a
/// hash over the sorted encodings of the rows, each with its struct fields
/// sorted by name. Two plans that return the same multiset of rows give
/// the same RowSet whatever order their jobs wrote the rows in.
struct RowSet {
  uint64_t rows = 0;
  uint64_t hash = 0;
  bool operator==(const RowSet& other) const = default;
};

dyno::Result<RowSet> CanonicalRows(const std::vector<dyno::Value>& rows);
/// Reads (and so checksum-verifies) every split of `file`. A null file is
/// an error: every successful execution must leave a result file.
dyno::Result<RowSet> CanonicalRows(const std::shared_ptr<dyno::DfsFile>& file);

double Median(std::vector<double> values);

/// The highest of the percentiles 99.9, 99, 95, 90 and 75 that still has at
/// least ten samples above it. Sets with too few samples for any of them
/// (the sequential workloads' 16 or 6 executions) report their maximum.
struct Tail {
  double value = 0.0;
  double percentile = 100.0;
  int beyond = 0;   ///< Samples strictly above the percentile's rank.
  int samples = 0;
};
Tail TailOf(std::vector<double> values);

double GeometricMean(const std::vector<double>& values);

/// Steady-clock seconds since an arbitrary epoch.
double NowSeconds();
/// Process CPU seconds (all threads).
double ProcessCpuSeconds();

/// Derives an independent 64-bit seed for one named input stream (TPC-H
/// data, service arrivals, faults, rewrite order) from the workload seed.
uint64_t DeriveSeed(uint64_t seed, std::string_view stream);

// ---------------------------------------------------------------------------
// Independent reference answers (oracle.cc).

/// Evaluates `query` without the engine, the plan executor or the shuffle:
/// reads every base table it names, filters each, joins them by greedy
/// in-memory hash joins, projects, then groups with COUNT/MIN/MAX (the
/// aggregates whose result does not depend on folding order). The rows come
/// in no particular order, so an ORDER BY with a LIMIT is refused. Results
/// of the measured code are checked against this answer.
dyno::Result<std::vector<dyno::Value>> NaiveEvaluate(dyno::Catalog* catalog,
                                                     const dyno::Query& query);

// ---------------------------------------------------------------------------
// Explicit configuration (scenario.cc).

/// Split size of the TPC-H base tables (as in bench/bench_common.cc), also
/// used for rewritten and probed copies so they split like the originals.
inline constexpr uint64_t kSplitBytes = 2 * 1024;

/// Everything a scenario is built from. Nothing is read from the
/// environment: fault injection is configured here with
/// FaultConfig::use_env_defaults = false.
struct ScenarioSpec {
  std::string sf = "SF1000";  ///< "SF100" or "SF1000".
  uint64_t tpch_seed = 12345;
  int execution_threads = 1;
  dyno::FaultConfig faults;
  dyno::ClusterConfig::ReduceMemoryMode memory_mode =
      dyno::ClusterConfig::ReduceMemoryMode::kUnbounded;
  /// Write the base tables columnar (DYNO_COLUMNAR/DYNO_ZONE_MAPS must be
  /// set to match while the scenario runs; see ColumnarKnobs).
  bool columnar = false;
};

/// A simulated cluster with TPC-H data: the same cluster and cost model
/// the repository's bench_* programs use, built from an explicit spec.
struct Scenario {
  dyno::Dfs dfs;
  std::unique_ptr<dyno::Catalog> catalog;
  std::unique_ptr<dyno::MapReduceEngine> engine;
  dyno::ClusterConfig cluster;
  dyno::CostModelParams cost;

  /// Deletes every DFS file the catalog does not reference: job outputs,
  /// temp files and checkpoints left by earlier executions. Keeps memory
  /// flat across iterations of a workload.
  void DropScratch();
};

class Tracer;

/// Gives one iteration a fresh engine over the scenario's DFS (clock at 0,
/// every node up, empty per-query slot ledger), so each iteration starts
/// from the same state, and attaches `tracer` to it when non-null (with the
/// timing submit gate when `gate`). Detaches on destruction.
class IterationEngine {
 public:
  IterationEngine(Scenario* scenario, Tracer* tracer, bool gate);
  ~IterationEngine();
  IterationEngine(const IterationEngine&) = delete;
  IterationEngine& operator=(const IterationEngine&) = delete;

 private:
  Scenario* scenario_;
  Tracer* tracer_;
};

std::unique_ptr<Scenario> BuildScenario(const ScenarioSpec& spec);

/// Sets DYNO_COLUMNAR and DYNO_ZONE_MAPS (the library reads them at each
/// table write and leaf scan) for the lifetime of the object and restores
/// their previous values afterwards, so scopes nest.
class ColumnarKnobs {
 public:
  explicit ColumnarKnobs(bool on);
  ~ColumnarKnobs();
  ColumnarKnobs(const ColumnarKnobs&) = delete;
  ColumnarKnobs& operator=(const ColumnarKnobs&) = delete;

 private:
  static constexpr const char* kNames[2] = {"DYNO_COLUMNAR", "DYNO_ZONE_MAPS"};
  std::optional<std::string> saved_[2];
};

/// Names of DYNO_* variables set in the environment. The benchmark refuses
/// to run when there are any: they would silently change the library's
/// configuration.
std::vector<std::string> DynoEnvironment();

/// CPUs this process may run on (what `nproc` prints).
int Nproc();

// ---------------------------------------------------------------------------
// Per-layer host timing from outside the program (tracer.cc).

/// Keeps spans in memory (name, parent, start, end) for calls the benchmark
/// makes into each layer, and times every SubmitAllDirect call through an
/// engine submit gate. Each JobSpec's map/reduce/flush functions and output
/// observer are wrapped so their host time is summed across worker threads.
/// A MetricsRegistry attached to the engine supplies the counts.
class Tracer {
 public:
  /// Job classes by JobSpec::name: "pilr:*" pilot, "filter:*" filter,
  /// "groupby"/"orderby" agg, everything else plan.
  enum JobClass { kPlan = 0, kPilot, kFilter, kAgg, kNumClasses };
  static JobClass ClassOf(const std::string& job_name);
  static const char* ClassName(JobClass c);

  struct Span {
    std::string name;
    int parent = -1;
    double start_s = 0.0;
    double end_s = 0.0;
  };

  /// Per span name: summed duration and summed self time (duration minus
  /// the time its child spans cover).
  struct Layer {
    double total_s = 0.0;
    double self_s = 0.0;
  };

  /// Opens a span as a child of the innermost open span. Spans open and
  /// close on the benchmark's main thread only.
  class Scope {
   public:
    Scope(Tracer* tracer, std::string name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    int id_ = -1;
  };

  Tracer() = default;
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Attaches the registry to `engine` and, unless `gate` is false,
  /// installs the timing submit gate. A QueryService replaces the gate with
  /// its own while RunAll runs, so service workloads attach without it.
  void Attach(dyno::MapReduceEngine* engine, bool gate);
  void Detach(dyno::MapReduceEngine* engine);

  dyno::obs::MetricsRegistry* metrics() { return &metrics_; }
  uint64_t Count(const std::string& counter);

  std::map<std::string, Layer> Layers() const;

  double submit_wall_s() const { return submit_wall_s_; }
  double submit_cpu_s() const { return submit_cpu_s_; }
  double class_s(JobClass c) const { return class_s_[c]; }
  uint64_t map_input_bytes() const { return map_input_bytes_; }
  double map_fn_s() const { return map_fn_ns_.load() * 1e-9; }
  double reduce_fn_s() const { return reduce_fn_ns_.load() * 1e-9; }
  double observer_s() const { return observer_ns_.load() * 1e-9; }

 private:
  void WrapSpecs(std::vector<dyno::JobSpec>* specs);
  dyno::Result<std::vector<dyno::JobResult>> TimedSubmit(
      dyno::MapReduceEngine* engine, std::vector<dyno::JobSpec> specs);

  dyno::obs::MetricsRegistry metrics_;
  std::vector<Span> spans_;
  std::vector<int> open_;
  double submit_wall_s_ = 0.0;
  double submit_cpu_s_ = 0.0;
  double class_s_[kNumClasses] = {};
  uint64_t map_input_bytes_ = 0;
  std::atomic<int64_t> map_fn_ns_{0};
  std::atomic<int64_t> reduce_fn_ns_{0};
  std::atomic<int64_t> observer_ns_{0};
};

/// Opens a span when `tracer` is non-null; a no-op for untraced runs.
class MaybeScope {
 public:
  MaybeScope(Tracer* tracer, const char* name);
  MaybeScope(const MaybeScope&) = delete;
  MaybeScope& operator=(const MaybeScope&) = delete;

 private:
  std::unique_ptr<Tracer::Scope> scope_;
};

/// Verify and decode throughput of the storage layer over `catalog`'s base
/// tables, each also copied into the other split format so row and
/// columnar decode are both measured. MB are 10^6 bytes of split payload.
struct StorageProbe {
  double verify_mb_per_s = 0.0;
  double row_decode_mb_per_s = 0.0;
  double columnar_decode_mb_per_s = 0.0;
};
StorageProbe ProbeStorage(const dyno::Catalog& catalog);

// ---------------------------------------------------------------------------
// Workloads (workloads.cc).

/// What one iteration of a workload did. An iteration is a fixed,
/// deterministic unit of work: the same seed gives the same executions,
/// results and simulated times in every iteration.
struct IterationResult {
  int attempted = 0;   ///< Query executions started.
  int correct = 0;     ///< Completed with the expected rows.
  int failed = 0;      ///< Failed unexpectedly or returned wrong rows.
  int expected_failures = 0;  ///< Typed failures the workload allows.
  double work_s = 0.0;  ///< Host seconds spent inside workload calls.
  /// Host ms per query execution (sequential workloads), or one sample of
  /// host ms per session amortized over the iteration (service workload).
  std::vector<double> host_ms;
  /// Simulated seconds per successful query execution.
  std::vector<double> sim_s;
  /// Deterministic record of the iteration: per execution its label,
  /// status, simulated ms and row fingerprint.
  std::string fingerprint;
  std::vector<std::string> errors;  ///< One line per failed execution.
};

class Workload {
 public:
  virtual ~Workload() = default;
  virtual const char* name() const = 0;
  /// Builds the scenario from scratch; timed as setup_s.
  virtual void Setup() = 0;
  /// Untimed work after the last Setup: the oracle's answers, cold
  /// reference runs checked against them, and the BESTSTATIC side of
  /// dynopt_vs_beststatic.
  virtual dyno::Status Prepare() = 0;
  /// Runs one iteration; `tracer` is null for untraced runs.
  virtual IterationResult RunIteration(Tracer* tracer) = 0;
  /// Geometric mean over the workload's queries of DYNOPT simulated time
  /// divided by BESTSTATIC's. Valid after the first iteration.
  virtual double DynoptVsBeststatic() const = 0;
  virtual const dyno::Catalog& catalog() const = 0;
  /// True when the workload runs through a QueryService, which owns the
  /// engine's submit gate while it runs.
  virtual bool uses_service() const { return false; }
  /// Engine worker threads; 1 unless MakeWorkload overrode it.
  virtual int execution_threads() const = 0;
  virtual int setup_repeats() const = 0;
  virtual std::string describe() const = 0;
};

/// Workload names, in BENCHMARK.json order.
std::vector<std::string> WorkloadNames();

/// Null for an unknown name. `threads` overrides the workload's execution
/// thread count when > 0 (self-tests compare 1 and N threads).
std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       uint64_t seed, int threads = 0);

}  // namespace hostbench

#endif  // HOSTBENCH_HOSTBENCH_H_

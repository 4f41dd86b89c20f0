#include <cstdio>
#include <cstdlib>
#include <map>
#include <utility>

#include "baselines/best_static.h"
#include "baselines/relopt.h"
#include "common/string_util.h"
#include "dyno/driver.h"
#include "hostbench.h"
#include "lang/parser.h"
#include "service/query_service.h"
#include "stats/stats_store.h"
#include "tpch/queries.h"

namespace hostbench {

namespace {

using dyno::SimMillis;
using dyno::StatusCode;

/// Driver options with every knob the library would otherwise read from
/// the environment pinned explicitly.
dyno::DynoOptions DriverOptions(const Scenario& scenario,
                                dyno::ExecutionStrategy strategy) {
  dyno::DynoOptions options;
  options.cost = scenario.cost;
  options.strategy = strategy;
  options.pilot.k = 128;  // as bench_common.cc: the simulator-scale k
  options.max_job_attempts = 1;
  options.retry_budget_ms = 0;
  options.oom_retry_ladder = 0;
  return options;
}

/// One query execution's outcome as the workload judges it.
struct Outcome {
  dyno::Status status;
  SimMillis sim_ms = 0;
  std::shared_ptr<dyno::DfsFile> result;
  double host_s = 0.0;
};

/// Runs `fn` (which fills an Outcome) under a span named `layer`, timing it.
template <typename Fn>
Outcome TimeCall(Tracer* tracer, const char* layer, Fn&& fn) {
  MaybeScope scope(tracer, layer);
  const double t0 = NowSeconds();
  Outcome out = fn();
  out.host_s = NowSeconds() - t0;
  return out;
}

Outcome RunDyno(Scenario* scenario, const dyno::Query& query,
                const dyno::DynoOptions& options) {
  dyno::StatsStore store;
  dyno::DynoDriver driver(scenario->engine.get(), scenario->catalog.get(),
                          &store, options);
  auto report = driver.Execute(query);
  Outcome out;
  if (!report.ok()) {
    out.status = report.status();
    return out;
  }
  out.sim_ms = report->total_ms;
  out.result = report->result;
  return out;
}

Outcome RunRelopt(Scenario* scenario, const dyno::Query& query) {
  dyno::RelOptBaseline relopt(scenario->engine.get(), scenario->catalog.get(),
                              scenario->cost);
  auto run = relopt.PlanAndExecute(query.join_block, dyno::ExecOptions());
  Outcome out;
  if (!run.ok()) {
    out.status = run.status();
    return out;
  }
  out.status = run->exec_status;
  out.sim_ms = run->elapsed_ms;
  out.result = run->output;
  return out;
}

Outcome RunBestStatic(Scenario* scenario, const dyno::Query& query) {
  dyno::BestStaticOptions options;
  options.cost = scenario->cost;
  options.execute_top_k = 5;  // as bench_common.cc
  dyno::BestStaticBaseline baseline(scenario->engine.get(),
                                    scenario->catalog.get(), options);
  auto run = baseline.Run(query.join_block);
  Outcome out;
  if (!run.ok()) {
    out.status = run.status();
    return out;
  }
  out.sim_ms = run->best_time_ms;
  out.result = run->output;
  return out;
}

/// Judges one execution into `iter` (host time is the caller's). `expected`
/// is the RowSet the execution must return; `allowed` lists failure codes
/// the workload tolerates by design.
void Judge(IterationResult* iter, const std::string& label, const Outcome& out,
           const RowSet& expected,
           const std::vector<StatusCode>& allowed = {}) {
  iter->attempted += 1;
  std::string verdict;
  if (!out.status.ok()) {
    bool tolerated = false;
    for (StatusCode code : allowed) tolerated |= out.status.code() == code;
    if (tolerated) {
      iter->expected_failures += 1;
      verdict = "expected:" + out.status.ToString();
    } else {
      iter->failed += 1;
      iter->errors.push_back(label + ": " + out.status.ToString());
      verdict = "failed:" + out.status.ToString();
    }
  } else {
    auto rows = CanonicalRows(out.result);
    if (!rows.ok()) {
      iter->failed += 1;
      iter->errors.push_back(label + ": " + rows.status().ToString());
      verdict = "unreadable";
    } else if (!(*rows == expected)) {
      iter->failed += 1;
      iter->errors.push_back(dyno::StrFormat(
          "%s: wrong rows (%llu rows, hash %016llx; expected %llu, %016llx)",
          label.c_str(), (unsigned long long)rows->rows,
          (unsigned long long)rows->hash, (unsigned long long)expected.rows,
          (unsigned long long)expected.hash));
      verdict = "wrong";
    } else {
      iter->correct += 1;
      iter->sim_s.push_back(out.sim_ms / 1000.0);
      verdict = dyno::StrFormat("ok rows=%llu hash=%016llx",
                                (unsigned long long)rows->rows,
                                (unsigned long long)rows->hash);
    }
  }
  iter->fingerprint += dyno::StrFormat("%s sim_ms=%lld %s\n", label.c_str(),
                                       (long long)out.sim_ms, verdict.c_str());
}

/// Judge() for a sequential execution, whose host time is its own.
void Record(IterationResult* iter, const std::string& label,
            const Outcome& out, const RowSet& expected,
            const std::vector<StatusCode>& allowed = {}) {
  iter->host_ms.push_back(out.host_s * 1000.0);
  iter->work_s += out.host_s;
  Judge(iter, label, out, expected, allowed);
}

std::vector<dyno::NamedQuery> Fig7Queries() {
  return {{"Q2", dyno::MakeTpchQ2()},
          {"Q8'", dyno::MakeTpchQ8Prime()},
          {"Q9'", dyno::MakeTpchQ9Prime()},
          {"Q10", dyno::MakeTpchQ10()}};
}

/// The six paper queries plus a parsed GROUP BY/ORDER BY query, so that
/// the driver's aggregation and ordering jobs run too.
std::vector<dyno::NamedQuery> QueriesWithAggregate() {
  std::vector<dyno::NamedQuery> queries = dyno::MakeAllPaperQueries();
  auto agg = dyno::ParseQuery(
      "SELECT n_name, COUNT(*) AS orders, MIN(o_orderdate) AS first_order, "
      "MAX(o_totalprice) AS top_price FROM customer c, orders o, nation n "
      "WHERE c.c_custkey = o.o_custkey AND c.c_nationkey = n.n_nationkey "
      "AND o.o_orderdate >= 19960101 GROUP BY n_name ORDER BY n_name");
  if (!agg.ok()) {
    std::fprintf(stderr, "hostbench: %s\n", agg.status().ToString().c_str());
    std::exit(1);
  }
  queries.push_back({"Qagg", *std::move(agg)});
  return queries;
}

/// The oracle's answer (NaiveEvaluate) to each query. Some answers are
/// empty at the simulator's scale (Q9' keeps nothing past its UDFs, nor do
/// Q2 and Q7 at SF100); when every answer is, the check could not tell a
/// correct run from one that drops every row, so that is refused.
dyno::Result<std::map<std::string, RowSet>> OracleRows(
    dyno::Catalog* catalog, const std::vector<dyno::NamedQuery>& queries) {
  std::map<std::string, RowSet> out;
  std::string counts;
  uint64_t total = 0;
  for (const auto& [name, query] : queries) {
    DYNO_ASSIGN_OR_RETURN(std::vector<dyno::Value> rows,
                          NaiveEvaluate(catalog, query));
    DYNO_ASSIGN_OR_RETURN(out[name], CanonicalRows(rows));
    counts += dyno::StrFormat(" %s=%zu", name.c_str(), rows.size());
    total += rows.size();
  }
  std::printf("# oracle rows:%s\n", counts.c_str());
  if (total == 0) {
    return dyno::Status::FailedPrecondition(
        "oracle: every query has an empty answer for this seed");
  }
  return out;
}

/// The rows every execution of a query must return (the oracle's, which a
/// cold DYNOPT run must also match) and the DYNOPT/BESTSTATIC
/// simulated-time ratios, computed once outside the timed phase.
struct Reference {
  std::map<std::string, RowSet> rows;
  std::vector<double> dynopt_vs_beststatic;  ///< One term per join query.
};

dyno::Result<Reference> BuildReference(
    Scenario* scenario, const std::vector<dyno::NamedQuery>& queries) {
  Reference ref;
  DYNO_ASSIGN_OR_RETURN(ref.rows,
                        OracleRows(scenario->catalog.get(), queries));
  for (const auto& [name, query] : queries) {
    Outcome dyn = RunDyno(
        scenario, query,
        DriverOptions(*scenario, dyno::ExecutionStrategy::kUncertain1));
    if (!dyn.status.ok()) return dyn.status;
    DYNO_ASSIGN_OR_RETURN(RowSet rows, CanonicalRows(dyn.result));
    if (!(rows == ref.rows[name])) {
      return dyno::Status::Internal("cold DYNOPT " + name +
                                    " differs from the oracle");
    }
    // BESTSTATIC runs the join block alone, so it is compared only on
    // queries that are nothing more.
    const bool join_only = !query.group_by && !query.order_by;
    Outcome best = join_only ? RunBestStatic(scenario, query) : Outcome{};
    if (join_only && best.status.ok() && best.sim_ms > 0) {
      ref.dynopt_vs_beststatic.push_back(static_cast<double>(dyn.sim_ms) /
                                         static_cast<double>(best.sim_ms));
    }
    scenario->DropScratch();
  }
  return ref;
}

// ---------------------------------------------------------------------------

/// Fig. 7 at SF1000: Q2, Q8', Q9', Q10, each as BESTSTATIC, RELOPT,
/// DYNOPT-SIMPLE and DYNOPT, sequentially, row plane, no faults.
class Fig7Workload : public Workload {
 public:
  Fig7Workload(uint64_t seed, int threads) : seed_(seed), threads_(threads) {}

  const char* name() const override { return "fig7_sf1000"; }
  int execution_threads() const override { return threads_; }
  int setup_repeats() const override { return 5; }
  std::string describe() const override {
    return "Q2,Q8',Q9',Q10 x {BESTSTATIC,RELOPT,DYNOPT-SIMPLE,DYNOPT} at "
           "SF1000, row plane, faults off, sequential (closed loop, 1 client)";
  }

  void Setup() override {
    ScenarioSpec spec;
    spec.sf = "SF1000";
    spec.tpch_seed = DeriveSeed(seed_, "tpch");
    spec.execution_threads = threads_;
    scenario_.reset();
    scenario_ = BuildScenario(spec);
  }

  dyno::Status Prepare() override {
    DYNO_ASSIGN_OR_RETURN(oracle_,
                          OracleRows(scenario_->catalog.get(), queries_));
    return dyno::Status::OK();
  }

  IterationResult RunIteration(Tracer* tracer) override {
    IterationResult iter;
    Scenario* s = scenario_.get();
    s->DropScratch();
    IterationEngine engine(s, tracer, /*gate=*/true);
    for (const auto& [name, query] : queries_) {
      Outcome outs[4] = {
          TimeCall(tracer, "baselines.beststatic",
                [&] { return RunBestStatic(s, query); }),
          TimeCall(tracer, "baselines.relopt",
                [&] { return RunRelopt(s, query); }),
          TimeCall(tracer, "dyno.execute",
                [&] {
                  return RunDyno(
                      s, query,
                      DriverOptions(*s,
                                    dyno::ExecutionStrategy::kSimpleParallel));
                }),
          TimeCall(tracer, "dyno.execute",
                [&] {
                  return RunDyno(
                      s, query,
                      DriverOptions(*s, dyno::ExecutionStrategy::kUncertain1));
                }),
      };
      static const char* const kVariants[4] = {"BESTSTATIC", "RELOPT",
                                               "DYNOPT-SIMPLE", "DYNOPT"};
      for (int v = 0; v < 4; ++v) {
        // RELOPT keeps Jaql's broadcast join, which dies with OutOfMemory
        // instead of spilling (paper §6.1). BESTSTATIC skips candidates that
        // fail; when none of its top k runs it fails, and that counts.
        Record(&iter, name + " " + kVariants[v], outs[v], oracle_[name],
               v == 1 ? std::vector<StatusCode>{StatusCode::kOutOfMemory}
                      : std::vector<StatusCode>{});
      }
      if (!ratio_done_ && outs[0].status.ok() && outs[3].status.ok() &&
          outs[0].sim_ms > 0) {
        ratio_terms_.push_back(static_cast<double>(outs[3].sim_ms) /
                               static_cast<double>(outs[0].sim_ms));
      }
      s->DropScratch();
    }
    ratio_done_ = true;
    return iter;
  }

  double DynoptVsBeststatic() const override {
    return GeometricMean(ratio_terms_);
  }
  const dyno::Catalog& catalog() const override { return *scenario_->catalog; }

 private:
  uint64_t seed_;
  int threads_;
  std::unique_ptr<Scenario> scenario_;
  std::vector<dyno::NamedQuery> queries_ = Fig7Queries();
  std::map<std::string, RowSet> oracle_;
  std::vector<double> ratio_terms_;
  bool ratio_done_ = false;
};

// ---------------------------------------------------------------------------

/// The six-query mix through QueryService at SF100 with the subtree cache
/// and shared pilot statistics on; every few passes one base table is
/// rewritten with identical rows.
class ServiceWorkload : public Workload {
 public:
  static constexpr int kPasses = 80;
  static constexpr int kRewriteEvery = 4;  // 20 rewrites: each table twice
  static constexpr int kMaxConcurrent = 4;
  static constexpr SimMillis kArrivalWindowMs = 60000;

  ServiceWorkload(uint64_t seed, int threads)
      : seed_(seed), threads_(threads) {}

  const char* name() const override { return "service_cached"; }
  int execution_threads() const override { return threads_; }
  int setup_repeats() const override { return 11; }
  bool uses_service() const override { return true; }
  std::string describe() const override {
    return dyno::StrFormat(
        "QueryService, SF100, 6-query mix x %d passes (one RunAll each, "
        "arrivals seeded over %llds), max_concurrent=%d, subtree cache + "
        "shared pilot stats on, one table rewritten every %d passes",
        kPasses, (long long)(kArrivalWindowMs / 1000), kMaxConcurrent,
        kRewriteEvery);
  }

  void Setup() override {
    ScenarioSpec spec;
    spec.sf = "SF100";
    spec.tpch_seed = DeriveSeed(seed_, "tpch");
    spec.execution_threads = threads_;
    scenario_.reset();
    scenario_ = BuildScenario(spec);
  }

  dyno::Status Prepare() override {
    DYNO_ASSIGN_OR_RETURN(reference_,
                          BuildReference(scenario_.get(), queries_));
    return dyno::Status::OK();
  }

  IterationResult RunIteration(Tracer* tracer) override {
    IterationResult iter;
    Scenario* s = scenario_.get();
    // The service installs its own submit gate, so only counts and the
    // benchmark's own spans are traced here.
    s->DropScratch();  // the previous iteration's cache pins and outputs
    IterationEngine engine(s, tracer, /*gate=*/false);
    dyno::StatsStore store;
    dyno::QueryServiceOptions options;
    options.max_concurrent = kMaxConcurrent;
    options.admission_queue_limit = static_cast<int>(queries_.size());
    options.seed = DeriveSeed(seed_, "arrivals");
    options.arrival_window_ms = kArrivalWindowMs;
    options.enable_subtree_cache = true;
    options.share_pilot_stats = true;
    dyno::QueryService service(s->engine.get(), s->catalog.get(), &store,
                               options);
    // Every base table is rewritten equally often, each round of rewrites
    // in an order drawn from the seed (the same schedule every iteration).
    std::vector<std::string> rewrites;
    dyno::Rng rewrite_rng(DeriveSeed(seed_, "rewrites"));
    while (rewrites.size() < kPasses / kRewriteEvery) {
      std::vector<std::string> round = s->catalog->TableNames();
      rewrite_rng.Shuffle(&round);
      rewrites.insert(rewrites.end(), round.begin(), round.end());
    }
    for (int pass = 0; pass < kPasses; ++pass) {
      for (const auto& [name, query] : queries_) {
        dyno::QuerySubmission sub;
        sub.query_id = dyno::StrFormat("%s-p%d", name.c_str(), pass);
        sub.query = query;
        sub.options =
            DriverOptions(*s, dyno::ExecutionStrategy::kUncertain1);
        dyno::Status st = service.Enqueue(std::move(sub));
        if (!st.ok()) {
          iter.attempted += 1;
          iter.failed += 1;
          iter.errors.push_back("enqueue: " + st.ToString());
        }
      }
      std::vector<dyno::QueryOutcome> outcomes;
      double t0 = NowSeconds();
      {
        MaybeScope scope(tracer, "service.run_all");
        outcomes = service.RunAll();
      }
      iter.work_s += NowSeconds() - t0;
      for (const dyno::QueryOutcome& outcome : outcomes) {
        const std::string name =
            outcome.query_id.substr(0, outcome.query_id.find("-p"));
        Outcome out;
        out.status = outcome.status;
        out.sim_ms = outcome.Latency();
        out.result = outcome.report.result;
        Judge(&iter, outcome.query_id, out, reference_.rows[name]);
      }
      if ((pass + 1) % kRewriteEvery == 0) {
        const std::string& table = rewrites[(pass + 1) / kRewriteEvery - 1];
        t0 = NowSeconds();
        dyno::Status st;
        {
          MaybeScope scope(tracer, "storage.rewrite");
          st = Rewrite(table);
        }
        iter.work_s += NowSeconds() - t0;
        iter.fingerprint += "rewrite " + table + "\n";
        if (!st.ok()) {
          iter.failed += 1;
          iter.errors.push_back("rewrite " + table + ": " + st.ToString());
        }
      }
    }
    // Sessions interleave inside RunAll, so host time is amortized: one
    // sample per iteration, the iteration's host ms per session.
    if (iter.attempted > 0) {
      iter.host_ms.push_back(iter.work_s * 1000.0 / iter.attempted);
    }
    return iter;
  }

  double DynoptVsBeststatic() const override {
    return GeometricMean(reference_.dynopt_vs_beststatic);
  }
  const dyno::Catalog& catalog() const override { return *scenario_->catalog; }

 private:
  /// Rewrites `table` in place with identical rows: ReadAllRows, WriteRows
  /// to a fresh path, Catalog::ReplaceTable, then drops the old file.
  dyno::Status Rewrite(const std::string& table) {
    Scenario* s = scenario_.get();
    DYNO_ASSIGN_OR_RETURN(dyno::TableEntry entry, s->catalog->Lookup(table));
    DYNO_ASSIGN_OR_RETURN(auto file, s->catalog->OpenTable(table));
    DYNO_ASSIGN_OR_RETURN(std::vector<dyno::Value> rows,
                          dyno::ReadAllRows(*file));
    const std::string path = dyno::StrFormat(
        "/hostbench/rewrite/%s/%d", table.c_str(), rewrite_count_++);
    DYNO_RETURN_IF_ERROR(
        dyno::WriteRows(&s->dfs, path, rows, kSplitBytes).status());
    DYNO_RETURN_IF_ERROR(s->catalog->ReplaceTable(table, path));
    return s->dfs.Delete(entry.dfs_path);
  }

  uint64_t seed_;
  int threads_;
  std::unique_ptr<Scenario> scenario_;
  std::vector<dyno::NamedQuery> queries_ = dyno::MakeAllPaperQueries();
  Reference reference_;
  int rewrite_count_ = 0;
};

// ---------------------------------------------------------------------------

/// DYNOPT over the six paper queries and a GROUP BY/ORDER BY query at
/// SF1000 on columnar tables with zone maps, spill-mode reduce memory, and
/// injected task failures plus block and shuffle corruption.
class ChaosWorkload : public Workload {
 public:
  ChaosWorkload(uint64_t seed, int threads) : seed_(seed), threads_(threads) {}

  const char* name() const override { return "chaos_columnar"; }
  int execution_threads() const override { return threads_; }
  int setup_repeats() const override { return 5; }
  std::string describe() const override {
    return "DYNOPT x 7 queries (the six paper queries + GROUP BY/ORDER BY) "
           "at SF1000, columnar + zone maps, spill memory mode, 2% task "
           "failures, 1% block + 1% shuffle corruption, sequential (closed "
           "loop, 1 client)";
  }

  ScenarioSpec Spec(bool chaos) const {
    ScenarioSpec spec;
    spec.sf = "SF1000";
    spec.tpch_seed = DeriveSeed(seed_, "tpch");
    spec.execution_threads = threads_;
    if (chaos) {
      spec.columnar = true;
      spec.memory_mode = dyno::ClusterConfig::ReduceMemoryMode::kSpill;
      spec.faults.seed = DeriveSeed(seed_, "faults");
      spec.faults.task_failure_rate = 0.02;
      spec.faults.block_corruption_rate = 0.01;
      spec.faults.shuffle_corruption_rate = 0.01;
    }
    return spec;
  }

  void Setup() override {
    scenario_.reset();
    scenario_ = BuildScenario(Spec(true));
  }

  dyno::Status Prepare() override {
    // The fault-free row-plane twin: same data, no columnar, no faults.
    std::unique_ptr<Scenario> twin = BuildScenario(Spec(false));
    DYNO_ASSIGN_OR_RETURN(reference_, BuildReference(twin.get(), queries_));
    return dyno::Status::OK();
  }

  IterationResult RunIteration(Tracer* tracer) override {
    ColumnarKnobs knobs(true);
    IterationResult iter;
    Scenario* s = scenario_.get();
    s->DropScratch();
    IterationEngine engine(s, tracer, /*gate=*/true);
    dyno::DynoOptions options =
        DriverOptions(*s, dyno::ExecutionStrategy::kUncertain1);
    options.max_job_attempts = 2;
    options.oom_retry_ladder = 2;
    for (const auto& [name, query] : queries_) {
      Outcome out = TimeCall(tracer, "dyno.execute",
                          [&] { return RunDyno(s, query, options); });
      Record(&iter, name + " DYNOPT", out, reference_.rows[name],
             {StatusCode::kDataLoss, StatusCode::kOutOfMemory});
      s->DropScratch();
    }
    return iter;
  }

  double DynoptVsBeststatic() const override {
    return GeometricMean(reference_.dynopt_vs_beststatic);
  }
  const dyno::Catalog& catalog() const override { return *scenario_->catalog; }

 private:
  uint64_t seed_;
  int threads_;
  std::unique_ptr<Scenario> scenario_;
  std::vector<dyno::NamedQuery> queries_ = QueriesWithAggregate();
  Reference reference_;
};

}  // namespace

std::vector<std::string> WorkloadNames() {
  return {"fig7_sf1000", "service_cached", "chaos_columnar"};
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed,
                                       int threads) {
  // One engine thread unless overridden (README.md: on a shared host more
  // threads made runs noisier without making them faster).
  const int fixed = threads > 0 ? threads : 1;
  if (name == "fig7_sf1000") return std::make_unique<Fig7Workload>(seed, fixed);
  if (name == "service_cached") {
    return std::make_unique<ServiceWorkload>(seed, fixed);
  }
  if (name == "chaos_columnar") {
    return std::make_unique<ChaosWorkload>(seed, fixed);
  }
  return nullptr;
}

}  // namespace hostbench

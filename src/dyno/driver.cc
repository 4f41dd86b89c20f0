#include "dyno/driver.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <map>
#include <set>
#include <utility>

#include "common/string_util.h"
#include "exec/aggregates.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "pilot/predicate_order.h"
#include "exec/row_ops.h"

namespace dyno {

namespace {

/// Units of `units` that have not run yet and whose inputs are all
/// materialized: bound leaves, or outputs of units in `executed`.
std::vector<const JobUnit*> ReadyUnits(const std::vector<JobUnit>& units,
                                       const std::set<int64_t>& executed) {
  std::vector<const JobUnit*> ready;
  for (const JobUnit& unit : units) {
    if (executed.count(unit.uid)) continue;
    bool inputs_ready = true;
    for (const JobInput& input : unit.inputs) {
      if (!input.IsLeaf() && !executed.count(input.unit_uid)) {
        inputs_ready = false;
        break;
      }
    }
    if (inputs_ready) ready.push_back(&unit);
  }
  return ready;
}

/// The paper's §8 "dynamic join operator": when a broadcast join's build
/// side turns out not to fit in task memory (discovered while building the
/// hash tables, before wasting the probe scan), re-run the unit's joins as
/// repartition jobs instead of failing the query, threading the original
/// request's statistics/projection onto the last job. Returns the final
/// step, registered as the unit's output. The repartition jobs beyond the
/// one the caller books for the unit go to `*jobs_run`, the fallback to
/// `*broadcast_fallbacks`, and a `broadcast_fallback` event to `trace`
/// (may be null).
Result<StepResult> RunRepartitionFallback(
    PlanExecutor* executor, const JobUnit& unit,
    const PlanExecutor::UnitRequest& original, int* jobs_run,
    int* broadcast_fallbacks, obs::TraceSink* trace) {
  DYNO_ASSIGN_OR_RETURN(std::string current,
                        executor->ResolveInput(unit.inputs[0]));
  StepResult last;
  int extra_jobs = 0;
  for (size_t i = 0; i < unit.nodes.size(); ++i) {
    const PlanNode& node = *unit.nodes[i];
    DYNO_ASSIGN_OR_RETURN(std::string build_id,
                          executor->ResolveInput(unit.inputs[i + 1]));
    auto plan = PlanNode::Join(JoinMethod::kRepartition,
                               PlanNode::Leaf(current),
                               PlanNode::Leaf(build_id), node.key_pairs);
    plan->post_filter = node.post_filter;
    DYNO_ASSIGN_OR_RETURN(std::vector<JobUnit> units,
                          PlanExecutor::Decompose(*plan));
    PlanExecutor::UnitRequest request;
    request.unit = &units[0];
    if (i + 1 == unit.nodes.size()) {
      request.stats_columns = original.stats_columns;
      request.projection = original.projection;
    }
    DYNO_ASSIGN_OR_RETURN(StepResult step, executor->ExecuteOne(request));
    ++extra_jobs;
    current = step.relation_id;
    // Counters accumulate across the fallback's jobs so the caller can
    // account the whole recovery with one step.
    step.job.Add(last.job);
    last = std::move(step);
  }
  // The stats describe the original unit's subtree, so they must be keyed
  // by *its* signature: the synthesized per-join decompositions above have
  // signatures no later query will ever compute, and publishing under them
  // would pollute the stats store.
  last.subtree_signature = executor->CanonicalSignature(*unit.nodes.back());
  *jobs_run += extra_jobs - 1;
  ++*broadcast_fallbacks;
  // The fallback's final output stands in for this unit's output, so
  // dependants resolving through the unit uid find it.
  executor->RegisterUnitOutput(unit.uid, last.relation_id);
  if (trace != nullptr) {
    trace->Record(obs::TraceEvent(executor->engine()->now(), -1,
                                  obs::TraceLane::kDriver, "driver",
                                  "broadcast_fallback")
                      .ArgInt("unit", unit.uid)
                      .ArgInt("extra_jobs", extra_jobs));
  }
  return last;
}

/// Runs the grouping and then the ordering that follow a join block (either
/// may be absent) as one job each, writing under the query's temp prefix to
/// "<path_prefix>gb_<now>" / "<path_prefix>ob_<now>", and books the jobs in
/// `report`. Returns the final output.
Result<std::shared_ptr<DfsFile>> RunGroupAndOrder(
    MapReduceEngine* engine, const ExecOptions& exec,
    std::shared_ptr<DfsFile> input, const std::optional<GroupBySpec>& group_by,
    const std::optional<OrderBySpec>& order_by, const char* path_prefix,
    QueryRunReport* report) {
  auto path = [&](const char* op) {
    return StrFormat("%s/%s%s_%lld", exec.ScopedTempPrefix().c_str(),
                     path_prefix, op, static_cast<long long>(engine->now()));
  };
  auto book = [&](const JobResult& job) {
    ++report->jobs_run;
    report->Add(job);
    return job.output;
  };
  if (group_by.has_value()) {
    DYNO_ASSIGN_OR_RETURN(
        JobResult job, RunGroupBy(engine, input, *group_by, path("gb"),
                                  /*use_combiner=*/true, exec.query_id));
    input = book(job);
  }
  if (order_by.has_value()) {
    DYNO_ASSIGN_OR_RETURN(JobResult job,
                          RunOrderBy(engine, input, *order_by, path("ob"),
                                     exec.query_id));
    input = book(job);
  }
  return input;
}

/// How many permanent job failures one block tolerates (each triggers a
/// re-plan around the materialized subtrees) before the query gives up.
constexpr int kMaxPermanentJobFailures = 3;

/// Mutable optimization state of one join block: the relations still to be
/// joined (base leaves and virtual intermediates), the surviving join
/// edges, and the not-yet-applied non-local predicates.
struct BlockState {
  std::map<std::string, TableStats> relations;
  std::vector<OptEdge> edges;
  std::vector<OptNonLocalPred> preds;

  OptJoinGraph BuildGraph() const {
    OptJoinGraph graph;
    for (const auto& [id, stats] : relations) {
      graph.relations.push_back({id, stats});
    }
    graph.edges = edges;
    graph.non_local_preds = preds;
    return graph;
  }

  /// Replaces the executed relation set `covered` with the virtual relation
  /// `new_id` carrying `stats`: edges inside `covered` are consumed,
  /// crossing edges re-attach to `new_id`, and non-local predicates whose
  /// relations have all been merged are dropped (the join applied them).
  void Substitute(const std::set<std::string>& covered,
                  const std::string& new_id, TableStats stats) {
    for (const std::string& id : covered) relations.erase(id);
    relations[new_id] = std::move(stats);

    std::vector<OptEdge> kept_edges;
    for (OptEdge edge : edges) {
      if (covered.count(edge.left_id)) edge.left_id = new_id;
      if (covered.count(edge.right_id)) edge.right_id = new_id;
      if (edge.left_id == edge.right_id) continue;  // consumed by the join
      kept_edges.push_back(std::move(edge));
    }
    edges = std::move(kept_edges);

    std::vector<OptNonLocalPred> kept_preds;
    for (OptNonLocalPred pred : preds) {
      std::set<std::string> ids;
      for (std::string& id : pred.relation_ids) {
        if (covered.count(id)) id = new_id;
        ids.insert(id);
      }
      pred.relation_ids.assign(ids.begin(), ids.end());
      if (pred.relation_ids.size() >= 2) kept_preds.push_back(std::move(pred));
      // size == 1: the executed join covered the predicate and its
      // post_filter already applied it.
    }
    preds = std::move(kept_preds);
  }

  /// Columns of relations in `covered` that future joins still need — the
  /// attribute set online statistics are collected for (paper §5.4).
  std::vector<std::string> StatsColumnsFor(
      const std::set<std::string>& covered) const {
    std::set<std::string> cols;
    for (const OptEdge& edge : edges) {
      bool left_in = covered.count(edge.left_id) > 0;
      bool right_in = covered.count(edge.right_id) > 0;
      if (left_in && !right_in) cols.insert(edge.left_column);
      if (right_in && !left_in) cols.insert(edge.right_column);
    }
    return {cols.begin(), cols.end()};
  }
};

}  // namespace

/// One join block's run through Algorithm 2 (paper §5), one method per
/// phase: bind the leaves and get their statistics, apply a resume
/// manifest, then loop — optimize, pick the ready units by strategy, run
/// them as a wave with online statistics, account/checkpoint/substitute
/// each, and re-optimize — until the plan's root unit has produced the
/// block's output. The root runs as a one-unit wave through the same path;
/// it differs only in carrying the final projection, in its trace event
/// (`final_step` instead of `checkpoint`), and in ending the run.
class DynoDriver::BlockRun {
 public:
  /// Runs `block` and returns its output file.
  static Result<std::shared_ptr<DfsFile>> Run(
      DynoDriver* driver, const JoinBlock& block, QueryRunReport* report,
      const CheckpointManifest* resume);

 private:
  /// One unit of a wave with what its run and its bookkeeping need.
  struct WaveUnit {
    const JobUnit* unit = nullptr;
    PlanExecutor::UnitRequest request;
    std::set<std::string> covered;  ///< Relation ids its inputs resolve to.
    std::string cache_key;          ///< Set only with a subtree cache.
    bool is_root = false;
  };

  BlockRun(DynoDriver* driver, const JoinBlock& block,
           std::vector<LeafExpr> leaves, std::vector<Predicate> non_local,
           QueryRunReport* report, const CheckpointManifest* resume);

  Result<std::shared_ptr<DfsFile>> Execute();

  // Leaves and their statistics.
  Status BindLeaves();
  Status GetLeafStatistics();
  Result<std::shared_ptr<DfsFile>> RunScan();
  void BuildJoinGraph();
  // Resume.
  Status ValidateResumeManifest() const;
  void ApplyResumeManifest();
  // Optimize.
  Result<std::unique_ptr<PlanNode>> Optimize();
  Result<std::shared_ptr<DfsFile>> RunSimple();
  Result<std::shared_ptr<DfsFile>> RunDynopt();
  Status Replan();
  // Pick and run.
  Result<std::vector<WaveUnit>> PickWave();
  Result<std::shared_ptr<DfsFile>> RunWave(std::vector<WaveUnit> wave);
  Result<bool> Recover(const WaveUnit& wave_unit, StepResult* step);
  Result<StepResult> ClimbOomLadder(const PlanExecutor::UnitRequest& original,
                                    int planned_reducers, Status first_error);
  Result<StepResult> RetryJob(const PlanExecutor::UnitRequest& request,
                              Status first_error);
  SimMillis AttainedSlotMs() const;
  // Account, checkpoint, substitute.
  Result<std::shared_ptr<DfsFile>> Complete(const WaveUnit& wave_unit,
                                            const StepResult& step,
                                            bool from_cache);
  void Account(const WaveUnit& wave_unit, const StepResult& step,
               bool from_cache);
  void Substitute(const WaveUnit& wave_unit, const StepResult& step,
                  bool from_cache);
  std::string CacheKey(const WaveUnit& wave_unit) const;
  std::map<std::string, uint64_t> TableVersionsFor(
      const std::set<std::string>& base_aliases) const;

  MapReduceEngine* const engine_;
  Catalog* const catalog_;
  StatsStore* const store_;
  const DynoOptions& options_;
  CheckpointManifest& manifest_;
  obs::TraceSink* const trace_;
  obs::MetricsRegistry* const metrics_;
  const JoinBlock& block_;
  QueryRunReport* const report_;
  const CheckpointManifest* const resume_;
  const SimMillis block_start_;
  const std::vector<LeafExpr> leaves_;
  const std::vector<Predicate> non_local_;

  PlanExecutor executor_;
  JoinOptimizer optimizer_;
  BlockState state_;
  /// Base-leaf cover set of every live relation: which original leaves it
  /// embodies. Checkpoint entries are keyed by cover, because relation ids
  /// are run-local — a resumed run matches entries through this map.
  std::map<std::string, std::set<std::string>> base_cover_;
  std::map<std::string, std::string> alias_to_table_;
  std::string previous_plan_;

  // DYNOPT loop state: the current plan, its units, and which of them ran.
  std::unique_ptr<PlanNode> plan_;
  std::vector<JobUnit> units_;
  std::set<int64_t> executed_units_;
  bool replan_ = true;
  int permanent_failures_ = 0;
};

DynoDriver::DynoDriver(MapReduceEngine* engine, Catalog* catalog,
                       StatsStore* store, DynoOptions options)
    : engine_(engine), catalog_(catalog), store_(store),
      options_(std::move(options)) {
  if (options_.max_job_attempts <= 0) {
    options_.max_job_attempts = 1;
    if (const char* env = std::getenv("DYNO_MAX_JOB_ATTEMPTS")) {
      options_.max_job_attempts = static_cast<int>(
          EnvInt64OrDie("DYNO_MAX_JOB_ATTEMPTS", env, 1, 1000));
    }
  }
  if (options_.retry_budget_ms < 0) {
    options_.retry_budget_ms = 0;
    if (const char* env = std::getenv("DYNO_RETRY_BUDGET_MS")) {
      options_.retry_budget_ms = EnvInt64OrDie("DYNO_RETRY_BUDGET_MS", env, 0,
                                               int64_t{1} << 40);
    }
  }
  if (options_.oom_retry_ladder < 0) {
    options_.oom_retry_ladder = 0;
    if (const char* env = std::getenv("DYNO_OOM_RETRIES")) {
      options_.oom_retry_ladder =
          static_cast<int>(EnvInt64OrDie("DYNO_OOM_RETRIES", env, 0, 16));
    }
  }
  if (options_.sync_cost_memory) {
    // Single source of truth for the memory model: the optimizer's
    // feasibility/spill knobs are the engine's, so plan-time admission can
    // never disagree with run-time enforcement. Spill costing only engages
    // when the engine actually enforces reduce memory — otherwise the cost
    // model must reproduce the legacy (memory-oblivious) plans bit for bit.
    const ClusterConfig& cluster = engine_->config();
    bool enforced = cluster.reduce_memory_mode !=
                    ClusterConfig::ReduceMemoryMode::kUnbounded;
    options_.cost.AdoptClusterMemoryModel(
        cluster.memory_per_task_bytes, cluster.broadcast_memory_factor,
        enforced ? cluster.bytes_per_reduce_task : 0, cluster.reduce_slots);
  }
}

Result<QueryRunReport> DynoDriver::Execute(const Query& query) {
  return ExecuteInternal(query, nullptr);
}

Result<QueryRunReport> DynoDriver::Resume(const Query& query) {
  CheckpointManifest manifest;
  bool from_scratch = true;
  bool used_fallback = false;
  if (!options_.checkpoint_path.empty()) {
    auto loaded = CheckpointManifest::ReadWithFallback(
        *engine_->dfs(), options_.checkpoint_path, &used_fallback);
    if (loaded.ok()) {
      manifest = std::move(*loaded);
      from_scratch = manifest.entries.empty();
    }
  }
  if (obs::TraceSink* trace = engine_->trace()) {
    trace->Record(obs::TraceEvent(engine_->now(), -1, obs::TraceLane::kDriver,
                                  "driver", "resume")
                      .ArgBool("from_scratch", from_scratch)
                      .ArgInt("checkpointed_steps",
                              static_cast<int64_t>(manifest.entries.size())));
    if (used_fallback) {
      trace->Record(obs::TraceEvent(engine_->now(), -1,
                                    obs::TraceLane::kDriver, "driver",
                                    "manifest_fallback")
                        .Arg("path", options_.checkpoint_path)
                        .ArgInt("recovered_steps",
                                static_cast<int64_t>(manifest.entries.size())));
    }
  }
  if (obs::MetricsRegistry* metrics = engine_->metrics()) {
    metrics->GetCounter("driver.recovery_resumes")->Add();
    if (used_fallback) {
      metrics->GetCounter("driver.manifest_fallbacks")->Add();
    }
  }
  auto report = ExecuteInternal(query, from_scratch ? nullptr : &manifest);
  if (report.ok() && used_fallback) ++report->manifest_fallbacks;
  return report;
}
Result<QueryRunReport> DynoDriver::ExecuteInternal(
    const Query& query, const CheckpointManifest* resume) {
  // Seeding with the resume manifest keeps the already-applied entries
  // available should this run itself be killed and resumed again.
  manifest_ = resume != nullptr ? *resume : CheckpointManifest{};
  QueryRunReport report;
  SimMillis start = engine_->now();
  DYNO_ASSIGN_OR_RETURN(
      std::shared_ptr<DfsFile> joined,
      BlockRun::Run(this, query.join_block, &report, resume));
  DYNO_ASSIGN_OR_RETURN(
      std::shared_ptr<DfsFile> current,
      RunGroupAndOrder(engine_, options_.exec, std::move(joined),
                       query.group_by, query.order_by, "", &report));
  report.result = current;
  report.result_records = current ? current->num_records() : 0;
  report.total_ms = engine_->now() - start;
  return report;
}

Result<QueryRunReport> DynoDriver::ExecuteMultiBlock(
    const MultiBlockQuery& query) {
  if (query.blocks.empty()) {
    return Status::InvalidArgument("multi-block query has no blocks");
  }
  manifest_ = CheckpointManifest{};
  QueryRunReport report;
  SimMillis start = engine_->now();

  std::set<std::string> names;
  for (const auto& block : query.blocks) {
    if (block.name.empty() || StartsWith(block.name, kBlockRefPrefix)) {
      return Status::InvalidArgument("bad block name: " + block.name);
    }
    if (!names.insert(block.name).second) {
      return Status::InvalidArgument("duplicate block name: " + block.name);
    }
  }

  // Dependencies: block -> blocks it reads via "@block:" table references.
  auto deps_of = [&](const MultiBlockQuery::Block& block)
      -> Result<std::vector<std::string>> {
    std::vector<std::string> deps;
    for (const TableRef& ref : block.join_block.tables) {
      if (!StartsWith(ref.table, kBlockRefPrefix)) continue;
      std::string dep = ref.table.substr(sizeof(kBlockRefPrefix) - 1);
      if (!names.count(dep)) {
        return Status::InvalidArgument("unknown block reference: " +
                                       ref.table);
      }
      deps.push_back(std::move(dep));
    }
    return deps;
  };

  // Catalog names for block outputs. The catalog is shared by every driver
  // on the engine, so a concurrent query defining an identically-named
  // block must not collide: a query-scoped driver registers (and reads)
  // block outputs under "@block:<query_id>/<name>" instead of the bare
  // legacy "@block:<name>".
  auto scoped_block_name = [&](const std::string& bare) {
    return options_.exec.query_id.empty()
               ? kBlockRefPrefix + bare
               : kBlockRefPrefix + options_.exec.query_id + "/" + bare;
  };
  auto scope_block_refs = [&](const JoinBlock& jb) {
    JoinBlock scoped = jb;
    for (TableRef& ref : scoped.tables) {
      if (!StartsWith(ref.table, kBlockRefPrefix)) continue;
      ref.table =
          scoped_block_name(ref.table.substr(sizeof(kBlockRefPrefix) - 1));
    }
    return scoped;
  };

  // Execute in dependency order (Kahn-style over declaration order).
  std::set<std::string> done;
  std::vector<const MultiBlockQuery::Block*> pending;
  for (const auto& block : query.blocks) pending.push_back(&block);
  std::shared_ptr<DfsFile> last_output;

  while (!pending.empty()) {
    bool progressed = false;
    for (auto it = pending.begin(); it != pending.end();) {
      DYNO_ASSIGN_OR_RETURN(std::vector<std::string> deps, deps_of(**it));
      bool ready = true;
      for (const std::string& dep : deps) {
        if (!done.count(dep)) {
          ready = false;
          break;
        }
      }
      if (!ready) {
        ++it;
        continue;
      }
      const MultiBlockQuery::Block& block = **it;
      JoinBlock scoped_join_block = scope_block_refs(block.join_block);
      DYNO_ASSIGN_OR_RETURN(
          std::shared_ptr<DfsFile> joined,
          BlockRun::Run(this, scoped_join_block, &report, nullptr));
      DYNO_ASSIGN_OR_RETURN(
          std::shared_ptr<DfsFile> output,
          RunGroupAndOrder(engine_, options_.exec, std::move(joined),
                           block.group_by, std::nullopt, "mb_", &report));
      // Expose the block's output to downstream blocks through the catalog.
      // ReplaceTable (not RegisterTable) so re-running a query under the
      // same scope — e.g. Resume after a kill — re-points the name instead
      // of failing AlreadyExists, and bumps its data version.
      DYNO_RETURN_IF_ERROR(catalog_->ReplaceTable(
          scoped_block_name(block.name), output->path()));
      done.insert(block.name);
      last_output = std::move(output);
      it = pending.erase(it);
      progressed = true;
    }
    if (!progressed) {
      return Status::InvalidArgument("cyclic block references");
    }
  }

  DYNO_ASSIGN_OR_RETURN(
      last_output,
      RunGroupAndOrder(engine_, options_.exec, std::move(last_output),
                       std::nullopt, query.final_order_by, "mb_", &report));
  report.result = last_output;
  report.result_records = last_output ? last_output->num_records() : 0;
  report.total_ms = engine_->now() - start;
  return report;
}

Result<std::shared_ptr<DfsFile>> DynoDriver::BlockRun::Run(
    DynoDriver* driver, const JoinBlock& block, QueryRunReport* report,
    const CheckpointManifest* resume) {
  DYNO_RETURN_IF_ERROR(ValidateJoinBlock(block));
  std::vector<Predicate> non_local;
  std::vector<LeafExpr> leaves = ExtractLeafExprs(block, &non_local);
  // Optional §4.4 extension: order each leaf's conjuncts by measured rank
  // so cheap, selective predicates run first at every scan.
  if (driver->options_.reorder_local_predicates) {
    for (LeafExpr& leaf : leaves) {
      if (leaf.filter == nullptr) continue;
      PredicateOrderOptions order_options;
      DYNO_ASSIGN_OR_RETURN(
          leaf.filter,
          ReorderConjunction(driver->catalog_, leaf.table, leaf.filter,
                             order_options));
    }
  }
  BlockRun run(driver, block, std::move(leaves), std::move(non_local), report,
               resume);
  return run.Execute();
}

DynoDriver::BlockRun::BlockRun(DynoDriver* driver, const JoinBlock& block,
                               std::vector<LeafExpr> leaves,
                               std::vector<Predicate> non_local,
                               QueryRunReport* report,
                               const CheckpointManifest* resume)
    : engine_(driver->engine_),
      catalog_(driver->catalog_),
      store_(driver->store_),
      options_(driver->options_),
      manifest_(driver->manifest_),
      trace_(engine_->trace()),
      metrics_(engine_->metrics()),
      block_(block),
      report_(report),
      resume_(resume),
      block_start_(engine_->now()),
      leaves_(std::move(leaves)),
      non_local_(std::move(non_local)),
      executor_(engine_, options_.exec),
      optimizer_(options_.cost) {}

Result<std::shared_ptr<DfsFile>> DynoDriver::BlockRun::Execute() {
  DYNO_RETURN_IF_ERROR(BindLeaves());
  DYNO_RETURN_IF_ERROR(GetLeafStatistics());
  if (leaves_.size() == 1) return RunScan();
  BuildJoinGraph();
  if (resume_ != nullptr) {
    DYNO_RETURN_IF_ERROR(ValidateResumeManifest());
    ApplyResumeManifest();
    if (state_.relations.size() == 1) {
      // Every join ran before the kill: the last checkpoint is already the
      // block's projected output.
      DYNO_ASSIGN_OR_RETURN(
          RelationBinding binding,
          executor_.GetBinding(state_.relations.begin()->first));
      return binding.file;
    }
  }
  return IsSimpleStrategy(options_.strategy) ? RunSimple() : RunDynopt();
}

Status DynoDriver::BlockRun::BindLeaves() {
  for (const LeafExpr& leaf : leaves_) {
    DYNO_ASSIGN_OR_RETURN(std::shared_ptr<DfsFile> file,
                          catalog_->OpenTable(leaf.table));
    RelationBinding binding;
    binding.file = std::move(file);
    binding.scan_filter = leaf.filter;
    binding.scan_cpu_per_record = leaf.filter ? leaf.filter->CpuCost() : 0.0;
    binding.signature = LeafSignature(leaf);
    executor_.Bind(leaf.alias, std::move(binding));
  }
  return Status::OK();
}

/// Leaf statistics from pilot runs, or from base statistics when the pilot
/// is ablated away.
Status DynoDriver::BlockRun::GetLeafStatistics() {
  if (!options_.use_pilot_runs) {
    for (const LeafExpr& leaf : leaves_) {
      auto cached = store_->Get(leaf.table + "|");
      if (cached.has_value()) {
        state_.relations[leaf.alias] = *cached;
        continue;
      }
      DYNO_ASSIGN_OR_RETURN(std::shared_ptr<DfsFile> file,
                            catalog_->OpenTable(leaf.table));
      TableStats stats;
      stats.cardinality = static_cast<double>(file->num_records());
      stats.avg_record_size = file->avg_record_size();
      state_.relations[leaf.alias] = std::move(stats);
    }
    return Status::OK();
  }
  // Pilot jobs inherit the query scope so identically-aliased leaves of
  // concurrent queries keep independent engine fault streams.
  PilotRunOptions pilot_options = options_.pilot;
  if (pilot_options.query_id.empty()) {
    pilot_options.query_id = options_.exec.query_id;
  }
  PilotRunner pilot(engine_, catalog_, store_, pilot_options);
  DYNO_ASSIGN_OR_RETURN(PilotRunReport pilot_report, pilot.Run(leaves_));
  report_->pilot_ms += pilot_report.elapsed_ms;
  for (const LeafExpr& leaf : leaves_) {
    const PilotLeafResult* result = pilot_report.Find(leaf.alias);
    if (result == nullptr) {
      return Status::Internal("pilot run missing leaf " + leaf.alias);
    }
    state_.relations[leaf.alias] = result->stats;
    if (options_.reuse_pilot_full_outputs && result->full_output != nullptr) {
      // The pilot consumed the whole relation: its output *is* the leaf.
      RelationBinding binding;
      binding.file = result->full_output;
      binding.signature = result->signature;
      executor_.Bind(leaf.alias, std::move(binding));
    }
  }
  return Status::OK();
}

/// Single-table block: one map-only scan of the leaf, projected to the
/// block's output columns.
Result<std::shared_ptr<DfsFile>> DynoDriver::BlockRun::RunScan() {
  DYNO_ASSIGN_OR_RETURN(RelationBinding binding,
                        executor_.GetBinding(leaves_[0].alias));
  JobSpec spec;
  spec.name = "scan";
  spec.query_id = options_.exec.query_id;
  spec.output_path =
      StrFormat("%s/scan_%lld", options_.exec.ScopedTempPrefix().c_str(),
                static_cast<long long>(engine_->now()));
  MapInput input;
  ExprPtr filter = ConfigureLeafScan(engine_, binding, &input);
  input.map_fn = [filter, proj = block_.output_columns](
                     const Value& record, MapContext* ctx) -> Status {
    DYNO_ASSIGN_OR_RETURN(bool keep, EvalFilter(filter, record));
    if (!keep) return Status::OK();
    ctx->Output(proj.empty() ? record : ProjectRow(record, proj));
    return Status::OK();
  };
  spec.inputs = {std::move(input)};
  DYNO_ASSIGN_OR_RETURN(JobResult job, engine_->Submit(spec));
  if (!job.status.ok()) return job.status;
  ++report_->jobs_run;
  ++report_->map_only_jobs;
  report_->Add(job);
  return job.output;
}

void DynoDriver::BlockRun::BuildJoinGraph() {
  for (const JoinEdge& edge : block_.edges) {
    state_.edges.push_back({edge.left_alias, edge.left_column,
                            edge.right_alias, edge.right_column});
  }
  for (const Predicate& pred : non_local_) {
    OptNonLocalPred opt_pred;
    opt_pred.expr = pred.expr;
    opt_pred.relation_ids = pred.aliases;
    state_.preds.push_back(std::move(opt_pred));
  }
  for (const LeafExpr& leaf : leaves_) {
    base_cover_[leaf.alias] = {leaf.alias};
    alias_to_table_[leaf.alias] = leaf.table;
  }
  // Record the query's leaf signatures in the manifest, so a later Resume
  // can prove the checkpoints were written for this exact query text.
  if (!options_.checkpoint_path.empty()) {
    for (const LeafExpr& leaf : leaves_) {
      manifest_.leaf_signatures.insert_or_assign(leaf.alias,
                                                 LeafSignature(leaf));
    }
  }
}

/// Refuses to substitute checkpoints into a changed query: every base alias
/// a manifest entry covers must still exist with the same leaf signature
/// (table + local filter). Silently reusing a materialization of different
/// predicates would return wrong rows, so a mismatch is an error, not a
/// skip.
Status DynoDriver::BlockRun::ValidateResumeManifest() const {
  std::map<std::string, std::string> current_sigs;
  for (const LeafExpr& leaf : leaves_) {
    current_sigs[leaf.alias] = LeafSignature(leaf);
  }
  for (const CheckpointEntry& entry : resume_->entries) {
    for (const std::string& alias : entry.covered) {
      auto current = current_sigs.find(alias);
      if (current == current_sigs.end()) {
        return Status::InvalidArgument(StrFormat(
            "checkpoint manifest covers leaf '%s', which the resumed "
            "query does not have — the query text changed since the "
            "checkpoint was written",
            alias.c_str()));
      }
      auto recorded = resume_->leaf_signatures.find(alias);
      if (recorded == resume_->leaf_signatures.end() ||
          recorded->second != current->second) {
        return Status::InvalidArgument(StrFormat(
            "checkpoint manifest was written for a different definition "
            "of leaf '%s' (recorded signature \"%s\", current \"%s\")",
            alias.c_str(),
            recorded == resume_->leaf_signatures.end()
                ? "<missing>"
                : recorded->second.c_str(),
            current->second.c_str()));
      }
    }
  }
  return Status::OK();
}

/// Binds and substitutes every manifest entry that still applies.
void DynoDriver::BlockRun::ApplyResumeManifest() {
  int applied = 0;
  for (const CheckpointEntry& entry : resume_->entries) {
    std::set<std::string> want(entry.covered.begin(), entry.covered.end());
    // The entry replaces the live relations whose covers tile `want`
    // exactly; anything else (already superseded, or from a different
    // query sharing the path) is skipped and re-executed normally.
    std::set<std::string> replaced;
    std::set<std::string> got;
    for (const auto& [id, cover] : base_cover_) {
      if (state_.relations.count(id) == 0) continue;
      if (!std::includes(want.begin(), want.end(), cover.begin(),
                         cover.end())) {
        continue;
      }
      replaced.insert(id);
      got.insert(cover.begin(), cover.end());
    }
    if (replaced.empty() || got != want) continue;
    // Skip entries whose base data was rewritten after the checkpoint:
    // their materializations hold pre-rewrite rows.
    bool stale = false;
    for (const auto& [table, version] : entry.table_versions) {
      if (catalog_->TableVersion(table) != version) {
        stale = true;
        break;
      }
    }
    if (stale) continue;
    auto file = engine_->dfs()->Open(entry.path);
    if (!file.ok()) continue;  // Materialization gone; re-execute it.
    RelationBinding binding;
    binding.file = std::move(*file);
    binding.signature = entry.signature;
    executor_.Bind(entry.relation_id, std::move(binding));
    state_.Substitute(replaced, entry.relation_id, entry.stats);
    store_->Put(entry.signature, entry.stats);
    base_cover_[entry.relation_id] = std::move(want);
    ++applied;
  }
  if (applied == 0) return;
  // Continuation relation ids (and so subtree signatures) must match the
  // ones the killed run would have assigned next.
  executor_.ReserveTempIds(static_cast<int>(resume_->temp_counter));
  report_->resumed_steps += applied;
  if (metrics_ != nullptr) {
    metrics_->GetCounter("driver.recovery_resumed_steps")->Add(applied);
  }
  if (trace_ != nullptr) {
    trace_->Record(obs::TraceEvent(engine_->now(), -1,
                                   obs::TraceLane::kDriver, "driver",
                                   "resume_applied")
                       .ArgInt("steps", applied)
                       .ArgInt("reserved_temp_ids", resume_->temp_counter));
  }
}

/// One optimizer call over the current join graph, recorded in the plan
/// history, the trace and the metrics, and charged to the simulated clock.
Result<std::unique_ptr<PlanNode>> DynoDriver::BlockRun::Optimize() {
  DYNO_ASSIGN_OR_RETURN(OptimizeResult opt,
                        optimizer_.Optimize(state_.BuildGraph()));
  PlanEvent event;
  event.at_ms = engine_->now() - block_start_;
  event.plan_tree = opt.plan->ToTreeString();
  event.plan_compact = opt.plan->ToString();
  event.est_cost = opt.plan->est_cost;
  event.plan_changed =
      !previous_plan_.empty() && previous_plan_ != event.plan_compact;
  if (event.plan_changed) ++report_->plan_changes;
  if (trace_ != nullptr) {
    trace_->Record(
        obs::TraceEvent(engine_->now(), opt.report.simulated_ms,
                        obs::TraceLane::kOptimizer, "optimizer", "optimize")
            .ArgInt("groups_explored", opt.report.groups_explored)
            .ArgInt("expressions_costed", opt.report.expressions_costed)
            .ArgInt("plans_pruned_memory", opt.report.plans_pruned_memory)
            .ArgInt("broadcast_chain_collapses",
                    opt.report.broadcast_chain_collapses)
            .ArgDouble("best_cost", opt.plan->est_cost)
            .Arg("plan", event.plan_compact)
            .Arg("prev_plan", previous_plan_)
            .ArgBool("plan_changed", event.plan_changed));
  }
  if (metrics_ != nullptr) {
    metrics_->GetCounter("driver.optimizer_calls")->Add();
    if (event.plan_changed) {
      metrics_->GetCounter("driver.plan_changes")->Add();
    }
    metrics_->GetCounter("optimizer.groups_explored")
        ->Add(opt.report.groups_explored);
    metrics_->GetCounter("optimizer.plans_pruned_memory")
        ->Add(opt.report.plans_pruned_memory);
  }
  previous_plan_ = event.plan_compact;
  report_->plan_history.push_back(std::move(event));
  report_->optimizer_ms += opt.report.simulated_ms;
  ++report_->optimizer_calls;
  engine_->AdvanceClock(opt.report.simulated_ms);
  return std::move(opt.plan);
}

/// DYNOPT-SIMPLE: one optimizer call, then the plan runs as-is.
Result<std::shared_ptr<DfsFile>> DynoDriver::BlockRun::RunSimple() {
  DYNO_ASSIGN_OR_RETURN(std::unique_ptr<PlanNode> plan, Optimize());
  DYNO_ASSIGN_OR_RETURN(
      StaticRunResult run,
      RunStaticPlan(&executor_, *plan,
                    options_.strategy == ExecutionStrategy::kSimpleParallel,
                    block_.output_columns, options_.adaptive_join_fallback));
  report_->jobs_run += run.jobs_run;
  report_->map_only_jobs += run.map_only_jobs;
  report_->broadcast_fallbacks += run.broadcast_fallbacks;
  report_->Add(run);
  return run.output;
}

/// DYNOPT (Algorithm 2): optimize, execute ready units, collect statistics,
/// substitute, and repeat. Re-optimization is conditional: if every
/// executed job's observed cardinality landed within
/// `reopt_row_error_threshold` of its estimate, the current plan is
/// continued instead of re-planned (paper §3/§5.1: "the decision to
/// re-optimize could be conditional on a threshold difference between the
/// estimated result size and the observed one"). The default threshold of
/// 0 re-optimizes after every step, the paper's implementation.
Result<std::shared_ptr<DfsFile>> DynoDriver::BlockRun::RunDynopt() {
  for (;;) {
    if (replan_) DYNO_RETURN_IF_ERROR(Replan());
    DYNO_ASSIGN_OR_RETURN(std::vector<WaveUnit> wave, PickWave());
    replan_ = options_.reopt_row_error_threshold <= 0.0;
    DYNO_ASSIGN_OR_RETURN(std::shared_ptr<DfsFile> output,
                          RunWave(std::move(wave)));
    if (output != nullptr) return output;
  }
}

Status DynoDriver::BlockRun::Replan() {
  DYNO_ASSIGN_OR_RETURN(plan_, Optimize());
  DYNO_ASSIGN_OR_RETURN(units_, PlanExecutor::Decompose(*plan_));
  executed_units_.clear();
  if (units_.empty()) {
    return Status::Internal("optimizer returned a plan with no jobs");
  }
  return Status::OK();
}

/// The units to run next. The root unit becomes ready only once every other
/// unit of the plan has run; it then runs alone, with the final projection
/// (Algorithm 2, line 6). Otherwise the strategy picks among the ready
/// units, each collecting statistics on the columns later joins need.
Result<std::vector<DynoDriver::BlockRun::WaveUnit>>
DynoDriver::BlockRun::PickWave() {
  std::vector<const JobUnit*> ready = ReadyUnits(units_, executed_units_);
  if (ready.empty()) {
    return Status::Internal("plan decomposition produced no ready jobs");
  }
  const bool root = ready.back() == &units_.back();
  std::vector<const JobUnit*> chosen =
      root ? ready : PickLeafJobs(options_.strategy, ready);
  std::vector<WaveUnit> wave;
  for (const JobUnit* unit : chosen) {
    WaveUnit wave_unit;
    wave_unit.unit = unit;
    wave_unit.is_root = root;
    for (const JobInput& input : unit->inputs) {
      DYNO_ASSIGN_OR_RETURN(std::string id, executor_.ResolveInput(input));
      wave_unit.covered.insert(std::move(id));
    }
    wave_unit.request.unit = unit;
    if (root) {
      wave_unit.request.projection = block_.output_columns;
    } else {
      wave_unit.request.stats_columns =
          state_.StatsColumnsFor(wave_unit.covered);
    }
    wave.push_back(std::move(wave_unit));
  }
  return wave;
}

/// Runs one wave: units the cross-query cache holds are served from it, the
/// rest execute together, and each failed one goes through Recover. Returns
/// the block's output once the root unit completes, else null.
Result<std::shared_ptr<DfsFile>> DynoDriver::BlockRun::RunWave(
    std::vector<WaveUnit> wave) {
  // A unit whose decorated subtree key is pinned (and still valid against
  // current table versions) is satisfied without running a job. All
  // decisions happen on this (baton-serialized) driver thread, so hit
  // patterns depend only on admission order — never on engine threading.
  if (options_.subtree_cache != nullptr) {
    std::vector<WaveUnit> misses;
    for (WaveUnit& wave_unit : wave) {
      wave_unit.cache_key = CacheKey(wave_unit);
      auto hit = options_.subtree_cache->Lookup(wave_unit.cache_key,
                                                engine_->now());
      if (!hit.has_value()) {
        misses.push_back(std::move(wave_unit));
        continue;
      }
      StepResult step;
      step.subtree_signature =
          executor_.CanonicalSignature(*wave_unit.unit->nodes.back());
      step.stats = hit->stats;
      RelationBinding cached;
      cached.file = hit->file;
      cached.signature = step.subtree_signature;
      step.relation_id = executor_.BindCachedRelation(std::move(cached));
      executor_.RegisterUnitOutput(wave_unit.unit->uid, step.relation_id);
      DYNO_ASSIGN_OR_RETURN(std::shared_ptr<DfsFile> output,
                            Complete(wave_unit, step, /*from_cache=*/true));
      if (output != nullptr) return output;
    }
    wave = std::move(misses);
    if (wave.empty()) return std::shared_ptr<DfsFile>();
  }

  std::vector<PlanExecutor::UnitRequest> requests;
  for (const WaveUnit& wave_unit : wave) requests.push_back(wave_unit.request);
  DYNO_ASSIGN_OR_RETURN(std::vector<StepResult> steps,
                        executor_.Execute(requests));
  for (size_t i = 0; i < steps.size(); ++i) {
    if (!steps[i].status.ok()) {
      DYNO_ASSIGN_OR_RETURN(bool recovered, Recover(wave[i], &steps[i]));
      if (!recovered) continue;  // Abandoned; re-plan around what succeeded.
    }
    DYNO_ASSIGN_OR_RETURN(std::shared_ptr<DfsFile> output,
                          Complete(wave[i], steps[i], /*from_cache=*/false));
    if (output != nullptr) return output;
  }
  return std::shared_ptr<DfsFile>();
}

/// Recovery for a unit whose job failed, in one order for every unit: the
/// OOM ladder for a reduce-side OutOfMemory, the §8 broadcast fallback for
/// a map-only one, then whole-job retry. A failure that survives them
/// abandons the unit — the next wave re-plans around the subtrees already
/// materialized — unless it is environmental or the block's budget of
/// permanent failures is spent, which ends the query. Returns false when
/// the unit was abandoned; on true, `step` holds the successful result.
Result<bool> DynoDriver::BlockRun::Recover(const WaveUnit& wave_unit,
                                           StepResult* step) {
  const JobUnit& unit = *wave_unit.unit;
  if (step->status.code() == StatusCode::kOutOfMemory && !unit.map_only &&
      options_.oom_retry_ladder > 0) {
    auto climbed = ClimbOomLadder(wave_unit.request,
                                  step->job.reduce_tasks_planned,
                                  step->status);
    if (climbed.ok()) {
      *step = std::move(*climbed);
      replan_ = true;  // the plan's memory footprint was provably wrong
      return true;
    }
    step->status = climbed.status();
  }
  if (step->status.code() == StatusCode::kOutOfMemory &&
      options_.adaptive_join_fallback && unit.map_only) {
    DYNO_ASSIGN_OR_RETURN(
        *step, RunRepartitionFallback(&executor_, unit, wave_unit.request,
                                      &report_->jobs_run,
                                      &report_->broadcast_fallbacks, trace_));
    replan_ = true;  // the plan was provably wrong here
    return true;
  }
  auto retried = RetryJob(wave_unit.request, step->status);
  if (retried.ok()) {
    *step = std::move(*retried);
    return true;
  }
  const StatusCode code = retried.status().code();
  if (code == StatusCode::kUnavailable || code == StatusCode::kCancelled ||
      code == StatusCode::kDeadlineExceeded ||
      permanent_failures_ + 1 > kMaxPermanentJobFailures) {
    return retried.status();
  }
  ++permanent_failures_;
  if (trace_ != nullptr) {
    trace_->Record(obs::TraceEvent(engine_->now(), -1,
                                   obs::TraceLane::kDriver, "driver",
                                   "job_permanent_failure")
                       .ArgInt("unit", unit.uid)
                       .ArgInt("permanent_failures", permanent_failures_)
                       .Arg("error", retried.status().ToString()));
  }
  if (metrics_ != nullptr) {
    metrics_->GetCounter("driver.recovery_replans")->Add();
  }
  replan_ = true;
  return false;
}

/// OOM retry ladder (DESIGN.md §6.10): a repartition unit whose reducers
/// died of OutOfMemory under the strict memory mode is re-submitted with
/// spill mode forced (rung 1); each further rung doubles the reducer count
/// so every reducer's sort state halves. Runs until the ladder is
/// exhausted, success, or a non-OOM failure (handed back for whole-job
/// retry).
Result<StepResult> DynoDriver::BlockRun::ClimbOomLadder(
    const PlanExecutor::UnitRequest& original, int planned_reducers,
    Status first_error) {
  PlanExecutor::UnitRequest request = original;
  request.reduce_memory_mode = 1;  // ClusterConfig::ReduceMemoryMode::kSpill
  Status last = std::move(first_error);
  int reducers = planned_reducers;
  for (int rung = 1; rung <= options_.oom_retry_ladder; ++rung) {
    if (rung >= 2) {
      if (reducers <= 0) reducers = 1;
      reducers *= 2;
      request.num_reduce_tasks = reducers;
    }
    ++report_->oom_retries;
    if (metrics_ != nullptr) {
      metrics_->GetCounter("driver.oom_retries")->Add();
    }
    if (trace_ != nullptr) {
      trace_->Record(obs::TraceEvent(engine_->now(), -1,
                                     obs::TraceLane::kDriver, "driver",
                                     "oom_retry")
                         .ArgInt("unit", request.unit->uid)
                         .ArgInt("rung", rung)
                         .ArgInt("reduce_tasks", request.num_reduce_tasks)
                         .Arg("error", last.ToString()));
    }
    DYNO_ASSIGN_OR_RETURN(std::vector<StepResult> again,
                          executor_.Execute({request}));
    StepResult& step = again[0];
    if (step.status.ok()) return std::move(step);
    if (step.status.code() != StatusCode::kOutOfMemory) return step.status;
    last = step.status;
    // The failed attempt still froze a reducer count; double from it.
    if (step.job.reduce_tasks_planned > 0) {
      reducers = step.job.reduce_tasks_planned;
    }
  }
  return last;  // Ladder exhausted: the OOM is permanent.
}

/// Whole-job retry: re-submits a transiently failed unit until the attempt
/// budget or the retry slot-ms budget runs out. OutOfMemory (the ladder and
/// the broadcast fallback own it) and Unavailable (the cluster can never
/// run it) are not retried, nor are Cancelled / DeadlineExceeded (the
/// service told the query to stop — retrying would fight the scheduler).
Result<StepResult> DynoDriver::BlockRun::RetryJob(
    const PlanExecutor::UnitRequest& request, Status first_error) {
  Status last = std::move(first_error);
  for (int attempt = 2; attempt <= options_.max_job_attempts &&
                        last.code() != StatusCode::kOutOfMemory &&
                        last.code() != StatusCode::kUnavailable &&
                        last.code() != StatusCode::kCancelled &&
                        last.code() != StatusCode::kDeadlineExceeded;
       ++attempt) {
    if (options_.retry_budget_ms > 0 &&
        report_->retry_slot_ms >= options_.retry_budget_ms) {
      report_->retry_budget_exhausted = true;
      if (metrics_ != nullptr) {
        metrics_->GetCounter("driver.retry_budget_exhausted")->Add();
      }
      if (trace_ != nullptr) {
        trace_->Record(obs::TraceEvent(engine_->now(), -1,
                                       obs::TraceLane::kDriver, "driver",
                                       "retry_budget_exhausted")
                           .ArgInt("unit", request.unit->uid)
                           .ArgInt("retry_slot_ms", report_->retry_slot_ms)
                           .ArgInt("budget_ms", options_.retry_budget_ms));
      }
      break;
    }
    ++report_->job_retries;
    if (metrics_ != nullptr) {
      metrics_->GetCounter("driver.recovery_job_retries")->Add();
    }
    if (trace_ != nullptr) {
      trace_->Record(obs::TraceEvent(engine_->now(), -1,
                                     obs::TraceLane::kDriver, "driver",
                                     "job_retry")
                         .ArgInt("unit", request.unit->uid)
                         .ArgInt("attempt", attempt)
                         .Arg("error", last.ToString()));
    }
    const SimMillis before_ms = AttainedSlotMs();
    auto again = executor_.ExecuteOne(request);
    report_->retry_slot_ms += AttainedSlotMs() - before_ms;
    if (again.ok()) return std::move(*again);
    last = again.status();
  }
  return last;
}

/// Slot-ms attributable to this query, for charging re-submissions against
/// DynoOptions::retry_budget_ms. With a query id the engine's per-query
/// ledger is exact even when other sessions share the wave; without one the
/// driver owns the engine, so the global ledger is equivalent.
SimMillis DynoDriver::BlockRun::AttainedSlotMs() const {
  if (!options_.exec.query_id.empty()) {
    const auto& ledger = engine_->query_slot_ms();
    auto it = ledger.find(options_.exec.query_id);
    return it == ledger.end() ? 0 : it->second;
  }
  return engine_->busy_slot_ms_total();
}

/// Books a unit that completed (executed, or served from the cache): the
/// root returns the block's output; any other unit is substituted into the
/// join graph. Returns null unless the root completed.
Result<std::shared_ptr<DfsFile>> DynoDriver::BlockRun::Complete(
    const WaveUnit& wave_unit, const StepResult& step, bool from_cache) {
  Account(wave_unit, step, from_cache);
  // The test kill switch: abort once this many jobs have been accounted.
  if (!from_cache && options_.abort_after_jobs >= 0 &&
      report_->jobs_run >= options_.abort_after_jobs) {
    return Status::Cancelled(
        StrFormat("query aborted after %d jobs (test kill switch)",
                  report_->jobs_run));
  }
  if (!wave_unit.is_root) {
    Substitute(wave_unit, step, from_cache);
    return std::shared_ptr<DfsFile>();
  }
  if (trace_ != nullptr) {
    obs::TraceEvent event(engine_->now(), -1, obs::TraceLane::kDriver,
                          "driver",
                          from_cache ? "final_step_cached" : "final_step");
    std::move(event).Arg("relation", step.relation_id);
    if (!from_cache) {
      std::move(event)
          .ArgDouble("est_rows", std::max(wave_unit.unit->est_rows, 1.0))
          .ArgDouble("observed_rows", std::max(step.stats.cardinality, 1.0));
    }
    trace_->Record(std::move(event).Arg("plan", previous_plan_));
  }
  DYNO_ASSIGN_OR_RETURN(RelationBinding binding,
                        executor_.GetBinding(step.relation_id));
  return binding.file;
}

/// Charges an executed unit to the report, records its statistics, folds
/// its base-leaf cover, publishes it to the subtree cache and checkpoints
/// it.
void DynoDriver::BlockRun::Account(const WaveUnit& wave_unit,
                                   const StepResult& step, bool from_cache) {
  if (!from_cache) {
    ++report_->jobs_run;
    if (wave_unit.unit->map_only) ++report_->map_only_jobs;
    report_->stats_overhead_ms += step.job.observer_overhead_ms;
    report_->Add(step.job);
    if (step.job.records_quarantined > 0 && metrics_ != nullptr) {
      metrics_->GetCounter("driver.quarantine_records")
          ->Add(static_cast<int64_t>(step.job.records_quarantined));
      metrics_->GetCounter("driver.quarantine_steps")->Add();
    }
  }
  store_->Put(step.subtree_signature, step.stats);
  std::set<std::string> base;
  for (const std::string& id : wave_unit.covered) {
    auto it = base_cover_.find(id);
    if (it != base_cover_.end()) {
      base.insert(it->second.begin(), it->second.end());
    } else {
      base.insert(id);
    }
  }
  base_cover_[step.relation_id] = base;
  auto binding = executor_.GetBinding(step.relation_id);
  if (!binding.ok() || binding->file == nullptr) return;
  if (options_.subtree_cache != nullptr && !from_cache &&
      !wave_unit.cache_key.empty() && step.job.records_quarantined == 0) {
    // Publish for other queries. Quarantine-affected outputs stay private:
    // their rows depend on this query's corruption stream, not just on the
    // subtree definition.
    (void)options_.subtree_cache->Publish(wave_unit.cache_key,
                                          TableVersionsFor(base),
                                          *binding->file, step.stats,
                                          engine_->now());
  }
  if (options_.checkpoint_path.empty()) return;
  CheckpointEntry entry;
  entry.signature = step.subtree_signature;
  entry.relation_id = step.relation_id;
  entry.path = binding->file->path();
  entry.covered.assign(base.begin(), base.end());
  entry.stats = step.stats;
  entry.table_versions = TableVersionsFor(base);
  manifest_.entries.push_back(std::move(entry));
  manifest_.temp_counter = executor_.temp_counter();
  Status persisted =
      manifest_.WriteTo(engine_->dfs(), options_.checkpoint_path);
  if (persisted.ok() && metrics_ != nullptr) {
    metrics_->GetCounter("driver.recovery_checkpoint_writes")->Add();
  }
}

/// Replaces a completed non-root unit's inputs with its output in the join
/// graph and decides whether the observed cardinality calls for
/// re-optimization. A cache hit's stats are the ones executing would have
/// observed, so the decision matches a cold run exactly.
void DynoDriver::BlockRun::Substitute(const WaveUnit& wave_unit,
                                      const StepResult& step,
                                      bool from_cache) {
  state_.Substitute(wave_unit.covered, step.relation_id, step.stats);
  executed_units_.insert(wave_unit.unit->uid);
  double estimated = std::max(wave_unit.unit->est_rows, 1.0);
  double observed = std::max(step.stats.cardinality, 1.0);
  double error = std::abs(observed - estimated) / estimated;
  bool step_triggers_replan = error > options_.reopt_row_error_threshold;
  if (step_triggers_replan) replan_ = true;
  // Observed spilling re-plans even when the cardinality landed: the cost
  // model charges spill I/O (SpillCost), so the re-optimizer can trade the
  // next joins toward broadcasts or cheaper shapes.
  if (step.job.reduce_spills > 0) replan_ = true;
  if (trace_ != nullptr) {
    obs::TraceEvent event(engine_->now(), -1, obs::TraceLane::kDriver,
                          "driver",
                          from_cache ? "checkpoint_cached" : "checkpoint");
    std::move(event)
        .Arg("relation", step.relation_id)
        .ArgDouble("est_rows", estimated)
        .ArgDouble("observed_rows", observed);
    if (!from_cache) {
      std::move(event)
          .ArgDouble("row_error", error)
          .ArgDouble("threshold", options_.reopt_row_error_threshold)
          .ArgBool("replan", step_triggers_replan);
    }
    trace_->Record(std::move(event).Arg("plan", previous_plan_));
  }
  if (!from_cache && metrics_ != nullptr) {
    metrics_->GetCounter("driver.checkpoints")->Add();
    if (step_triggers_replan) {
      metrics_->GetCounter("driver.replans_triggered")->Add();
    }
  }
}

/// Cross-query cache key for one unit: the canonical subtree signature
/// decorated with the requested output statistics columns and projection.
/// Both change the entry's usability (a consumer needing column synopses
/// the entry lacks would plan differently; a projected root output holds
/// different bytes), so they are part of the key, not a lookup-time check.
std::string DynoDriver::BlockRun::CacheKey(const WaveUnit& wave_unit) const {
  std::string key = executor_.CanonicalSignature(*wave_unit.unit->nodes.back());
  key += "|stats=";
  for (const std::string& c : wave_unit.request.stats_columns) {
    key += c;
    key += ',';
  }
  key += "|proj=";
  for (const std::string& c : wave_unit.request.projection) {
    key += c;
    key += ',';
  }
  return key;
}

/// Current data version of every base table a set of base aliases reads —
/// what cache entries and checkpoint entries are validated against.
std::map<std::string, uint64_t> DynoDriver::BlockRun::TableVersionsFor(
    const std::set<std::string>& base_aliases) const {
  std::map<std::string, uint64_t> versions;
  for (const std::string& alias : base_aliases) {
    auto it = alias_to_table_.find(alias);
    if (it == alias_to_table_.end()) continue;
    versions[it->second] = catalog_->TableVersion(it->second);
  }
  return versions;
}

Result<StaticRunResult> RunStaticPlan(
    PlanExecutor* executor, const PlanNode& plan, bool parallel_waves,
    const std::vector<std::string>& final_projection,
    bool broadcast_fallback) {
  StaticRunResult result;
  if (plan.IsLeaf()) {
    DYNO_ASSIGN_OR_RETURN(RelationBinding binding,
                          executor->GetBinding(plan.relation_id));
    result.output = binding.file;
    result.final_relation_id = plan.relation_id;
    return result;
  }
  DYNO_ASSIGN_OR_RETURN(std::vector<JobUnit> units,
                        PlanExecutor::Decompose(plan));
  executor->ResetUnitOutputs();
  std::set<int64_t> executed;
  int64_t final_uid = units.empty() ? -1 : units.back().uid;

  while (executed.size() < units.size()) {
    std::vector<const JobUnit*> ready = ReadyUnits(units, executed);
    if (ready.empty()) {
      return Status::Internal("static plan has unexecutable units");
    }
    if (!parallel_waves) ready.resize(1);
    std::vector<PlanExecutor::UnitRequest> requests;
    for (const JobUnit* unit : ready) {
      PlanExecutor::UnitRequest request;
      request.unit = unit;
      if (unit->uid == final_uid) request.projection = final_projection;
      requests.push_back(std::move(request));
    }
    DYNO_ASSIGN_OR_RETURN(std::vector<StepResult> steps,
                          executor->Execute(requests));
    for (size_t i = 0; i < steps.size(); ++i) {
      if (!steps[i].status.ok()) {
        if (steps[i].status.code() != StatusCode::kOutOfMemory ||
            !broadcast_fallback || !ready[i]->map_only) {
          return steps[i].status;
        }
        // The static path's traces carry only its jobs' events.
        DYNO_ASSIGN_OR_RETURN(
            steps[i], RunRepartitionFallback(executor, *ready[i], requests[i],
                                             &result.jobs_run,
                                             &result.broadcast_fallbacks,
                                             /*trace=*/nullptr));
      }
      executed.insert(ready[i]->uid);
      ++result.jobs_run;
      if (ready[i]->map_only) ++result.map_only_jobs;
      result.Add(steps[i].job);
      if (ready[i]->uid == final_uid) {
        result.final_relation_id = steps[i].relation_id;
        result.output = steps[i].job.output;
      }
    }
  }
  return result;
}

}  // namespace dyno

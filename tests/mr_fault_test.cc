// The engine's fault model: deterministic injected task failures with
// retry/backoff, straggler slowdowns with speculative execution, retry
// exhaustion failing the job, and failed jobs draining cleanly while the
// engine keeps serving other work.

#include <gtest/gtest.h>

#include "mr/engine.h"
#include "storage/dfs.h"

namespace dyno {
namespace {

Value Row(int64_t id, int64_t group) {
  return MakeRow({{"id", Value::Int(id)}, {"g", Value::Int(group)}});
}

std::shared_ptr<DfsFile> MakeInput(Dfs* dfs, int rows,
                                   const std::string& path,
                                   uint64_t split_bytes = 128) {
  std::vector<Value> data;
  for (int i = 0; i < rows; ++i) data.push_back(Row(i, i % 7));
  auto file = WriteRows(dfs, path, data, split_bytes);
  EXPECT_TRUE(file.ok());
  return *file;
}

ClusterConfig BaseConfig() {
  ClusterConfig config;
  config.job_startup_ms = 1000;
  config.map_slots = 4;
  config.reduce_slots = 2;
  // Tests pin their own fault settings; the ctest fault preset's env vars
  // must not override them.
  config.faults.use_env_defaults = false;
  return config;
}

JobSpec CountByGroup(std::shared_ptr<DfsFile> input,
                     const std::string& out_path) {
  JobSpec spec;
  spec.name = "count-by-group:" + out_path;
  spec.output_path = out_path;
  MapInput mi;
  mi.file = std::move(input);
  mi.map_fn = [](const Value& record, MapContext* ctx) -> Status {
    ctx->Emit(*record.FindField("g"), Value::Int(1));
    return Status::OK();
  };
  spec.inputs = {std::move(mi)};
  spec.reduce_fn = [](const Value& key, const std::vector<Value>& values,
                      ReduceContext* ctx) -> Status {
    ctx->Output(MakeRow(
        {{"g", key},
         {"n", Value::Int(static_cast<int64_t>(values.size()))}}));
    return Status::OK();
  };
  return spec;
}

TEST(MrFaultTest, RetriesMakeInjectedFailuresTransparent) {
  Dfs dfs;
  ClusterConfig config = BaseConfig();
  config.faults.seed = 11;
  config.faults.task_failure_rate = 0.25;
  config.faults.max_task_attempts = 8;
  config.faults.retry_backoff_ms = 200;
  MapReduceEngine engine(&dfs, config);

  auto input = MakeInput(&dfs, 400, "/in");
  auto result = engine.Submit(CountByGroup(input, "/out"));
  ASSERT_TRUE(result.ok());
  ASSERT_TRUE(result->status.ok()) << result->status.ToString();

  // Failures happened and every one was retried away.
  EXPECT_GT(result->task_failures_injected, 0);
  EXPECT_GT(result->task_retries, 0);
  EXPECT_GE(result->task_retries, result->task_failures_injected);

  // The job's observable results are exactly those of a fault-free run:
  // counters count each logical task once (failed attempts never ran their
  // data flow, retried attempts are not double-counted).
  EXPECT_EQ(result->counters.map_input_records, 400u);
  EXPECT_EQ(result->counters.map_input_bytes, input->num_bytes());
  EXPECT_EQ(result->counters.map_output_records, 400u);
  EXPECT_EQ(result->counters.output_records, 7u);
  EXPECT_EQ(result->output->num_records(), 7u);
}

TEST(MrFaultTest, RetryExhaustionFailsTheJob) {
  Dfs dfs;
  ClusterConfig config = BaseConfig();
  config.faults.seed = 3;
  config.faults.task_failure_rate = 1.0;  // every attempt dies
  config.faults.max_task_attempts = 3;
  config.faults.retry_backoff_ms = 100;
  MapReduceEngine engine(&dfs, config);

  auto input = MakeInput(&dfs, 60, "/in");
  JobSpec spec;
  spec.name = "doomed";
  spec.output_path = "/out";
  MapInput mi;
  mi.file = input;
  mi.map_fn = [](const Value&, MapContext*) -> Status {
    return Status::OK();
  };
  spec.inputs = {mi};

  auto result = engine.Submit(spec);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->status.ok());
  EXPECT_NE(result->status.ToString().find("3 attempts"), std::string::npos)
      << result->status.ToString();
  // Some task burned through all its attempts.
  EXPECT_GE(result->task_failures_injected, config.faults.max_task_attempts);
  // The failed job's output was deleted by the drain.
  EXPECT_EQ(result->output, nullptr);
  EXPECT_FALSE(dfs.Open("/out").ok());
}

TEST(MrFaultTest, RealTaskErrorsAreRetriedThenExhausted) {
  Dfs dfs;
  ClusterConfig config = BaseConfig();
  config.faults.seed = 5;
  // Enable the fault model (and thus retries) without any injection noise:
  // stragglers only affect timing.
  config.faults.task_failure_rate = 0.0;
  config.faults.straggler_rate = 0.2;
  config.faults.max_task_attempts = 4;
  config.faults.retry_backoff_ms = 50;
  MapReduceEngine engine(&dfs, config);

  auto input = MakeInput(&dfs, 60, "/in");
  JobSpec spec = CountByGroup(input, "/out");
  spec.reduce_fn = [](const Value&, const std::vector<Value>&,
                      ReduceContext*) -> Status {
    return Status::Internal("deterministic reduce bug");
  };

  auto result = engine.Submit(spec);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->status.ok());
  // The deterministic error failed every attempt of the first reduce task.
  EXPECT_NE(result->status.ToString().find("4 attempts"), std::string::npos)
      << result->status.ToString();
  EXPECT_NE(result->status.ToString().find("deterministic reduce bug"),
            std::string::npos)
      << result->status.ToString();
  EXPECT_GE(result->task_retries, config.faults.max_task_attempts - 1);
  EXPECT_EQ(result->output, nullptr);
}

TEST(MrFaultTest, SpeculativeBackupBeatsStragglerAndIsAccounted) {
  Dfs dfs;
  ClusterConfig config = BaseConfig();
  config.map_slots = 8;
  config.faults.seed = 21;
  config.faults.task_failure_rate = 0.0;
  config.faults.straggler_rate = 0.2;
  config.faults.straggler_slowdown = 10.0;
  config.faults.speculative_slowness_threshold = 1.5;

  auto run = [&](bool speculation) {
    Dfs local_dfs;
    ClusterConfig c = config;
    c.faults.speculative_execution = speculation;
    MapReduceEngine engine(&local_dfs, c);
    auto input = MakeInput(&local_dfs, 600, "/in");
    JobSpec spec;
    spec.name = "scan";
    spec.output_path = "/out";
    MapInput mi;
    mi.file = input;
    mi.map_fn = [](const Value& record, MapContext* ctx) -> Status {
      ctx->Output(record);
      return Status::OK();
    };
    spec.inputs = {mi};
    auto result = engine.Submit(spec);
    EXPECT_TRUE(result.ok());
    EXPECT_TRUE(result->status.ok());
    return std::move(*result);
  };

  JobResult with_spec = run(true);
  JobResult without_spec = run(false);

  // Stragglers got backed up and at least one backup won its race.
  EXPECT_GT(with_spec.speculative_launches, 0);
  EXPECT_GT(with_spec.speculative_wins, 0);
  EXPECT_EQ(without_spec.speculative_launches, 0);

  // Speculation only re-runs already-committed work: outputs are identical.
  EXPECT_EQ(with_spec.output->num_records(), 600u);
  EXPECT_EQ(without_spec.output->num_records(), 600u);
  EXPECT_EQ(with_spec.counters.map_input_records,
            without_spec.counters.map_input_records);

  // And it pays off: cutting the straggler tail cannot make the job slower.
  EXPECT_LT(with_spec.Elapsed(), without_spec.Elapsed());
}

TEST(MrFaultTest, FailedJobDrainsWhileConcurrentJobCompletes) {
  Dfs dfs;
  ClusterConfig config = BaseConfig();
  config.faults.seed = 9;
  config.faults.task_failure_rate = 0.0;
  config.faults.straggler_rate = 0.1;  // model on, no injected failures
  config.faults.max_task_attempts = 2;
  config.faults.retry_backoff_ms = 100;
  MapReduceEngine engine(&dfs, config);

  auto poison_input = MakeInput(&dfs, 120, "/in_poison");
  JobSpec poison;
  poison.name = "poison";
  poison.output_path = "/out_poison";
  {
    MapInput mi;
    mi.file = poison_input;
    mi.map_fn = [](const Value& record, MapContext* ctx) -> Status {
      if (record.FindField("id")->int_value() == 60) {
        return Status::Internal("poisoned record");
      }
      ctx->Output(record);
      return Status::OK();
    };
    poison.inputs = {mi};
  }
  auto healthy_input = MakeInput(&dfs, 120, "/in_healthy");
  JobSpec healthy = CountByGroup(healthy_input, "/out_healthy");

  auto results = engine.SubmitAll({poison, healthy});
  ASSERT_TRUE(results.ok());
  EXPECT_FALSE((*results)[0].status.ok());
  EXPECT_EQ((*results)[0].output, nullptr);
  EXPECT_FALSE(dfs.Open("/out_poison").ok());
  ASSERT_TRUE((*results)[1].status.ok());
  EXPECT_EQ((*results)[1].counters.map_input_records, 120u);
  EXPECT_EQ((*results)[1].output->num_records(), 7u);

  // The engine stays usable after the drain: disable injection and run a
  // fresh job on the same cluster clock.
  ClusterConfig clean = BaseConfig();
  engine.set_config(clean);
  auto again = engine.Submit(CountByGroup(healthy_input, "/out_again"));
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(again->status.ok());
  EXPECT_EQ(again->output->num_records(), 7u);
}

TEST(MrFaultTest, FailedAttemptIsBilledForItsPartialScan) {
  // Legacy fail-fast mode (fault model off): a map task that errors
  // mid-split must be billed for the bytes it actually read — a task dying
  // on its first record finishes earlier than one dying on its last.
  auto run_with_error_at = [](int64_t bad_id) {
    Dfs dfs;
    MapReduceEngine engine(&dfs, BaseConfig());
    std::vector<Value> data;
    for (int i = 0; i < 400; ++i) data.push_back(Row(i, 0));
    auto input = WriteRows(&dfs, "/in", data, /*split_bytes=*/1 << 20);
    EXPECT_TRUE(input.ok());  // one big split -> one map task
    JobSpec spec;
    spec.name = "err";
    spec.output_path = "/out";
    MapInput mi;
    mi.file = *input;
    mi.map_fn = [bad_id](const Value& record, MapContext* ctx) -> Status {
      if (record.FindField("id")->int_value() == bad_id) {
        return Status::Internal("bad record");
      }
      ctx->Output(record);
      return Status::OK();
    };
    spec.inputs = {mi};
    auto result = engine.Submit(spec);
    EXPECT_TRUE(result.ok());
    EXPECT_FALSE(result->status.ok());
    return result->Elapsed();
  };

  SimMillis early = run_with_error_at(0);
  SimMillis late = run_with_error_at(399);
  EXPECT_LT(early, late)
      << "read time must scale with the bytes the attempt consumed";
}

TEST(MrFaultTest, BackoffCapBoundsRetryDelays) {
  // Attempt n of a task waits min(retry_backoff_ms * 2^(n-1),
  // max_backoff_ms): without the cap the exponential dominates the job
  // tail as soon as any task fails a few times.
  auto run = [](SimMillis max_backoff) {
    Dfs dfs;
    ClusterConfig config = BaseConfig();
    config.faults.seed = 11;
    config.faults.task_failure_rate = 0.5;
    config.faults.max_task_attempts = 12;
    config.faults.retry_backoff_ms = 500;
    config.faults.retry_jitter_fraction = 0.0;
    config.faults.max_backoff_ms = max_backoff;
    MapReduceEngine engine(&dfs, config);
    auto input = MakeInput(&dfs, 400, "/in");
    auto result = engine.Submit(CountByGroup(input, "/out"));
    EXPECT_TRUE(result.ok());
    EXPECT_TRUE(result->status.ok()) << result->status.ToString();
    return std::move(*result);
  };

  JobResult capped = run(600);
  JobResult uncapped = run(0);  // <= 0 disables the cap
  EXPECT_GT(capped.task_retries, 0);
  EXPECT_LT(capped.Elapsed(), uncapped.Elapsed())
      << "the cap must shorten the retry tail";
  // Backoff shapes timing only; the work done is the same.
  EXPECT_EQ(capped.counters.map_input_records, 400u);
  EXPECT_EQ(uncapped.counters.map_input_records, 400u);
  EXPECT_EQ(capped.counters.output_records, uncapped.counters.output_records);
}

TEST(MrFaultTest, RetryJitterIsDeterministicPerConfig) {
  auto run = [](double jitter) {
    Dfs dfs;
    ClusterConfig config = BaseConfig();
    config.faults.seed = 7;
    config.faults.task_failure_rate = 0.5;
    config.faults.max_task_attempts = 12;
    config.faults.retry_backoff_ms = 200;
    config.faults.retry_jitter_fraction = jitter;
    MapReduceEngine engine(&dfs, config);
    auto input = MakeInput(&dfs, 400, "/in");
    auto result = engine.Submit(CountByGroup(input, "/out"));
    EXPECT_TRUE(result.ok());
    EXPECT_TRUE(result->status.ok()) << result->status.ToString();
    return std::move(*result);
  };

  // The jitter is drawn from the seeded fault stream, not the wall clock:
  // the same config replays to the millisecond.
  JobResult a = run(0.25);
  JobResult b = run(0.25);
  EXPECT_EQ(a.Elapsed(), b.Elapsed());
  EXPECT_EQ(a.task_retries, b.task_retries);
  EXPECT_EQ(a.task_failures_injected, b.task_failures_injected);

  // And it is engaged: turning it off changes retry timing but nothing
  // observable about the output.
  JobResult c = run(0.0);
  EXPECT_NE(a.Elapsed(), c.Elapsed());
  EXPECT_EQ(a.counters.output_records, c.counters.output_records);
  EXPECT_EQ(a.output->num_records(), c.output->num_records());
}

TEST(MrFaultTest, ReduceExhaustionDrainsWhileConcurrentJobCompletes) {
  Dfs dfs;
  ClusterConfig config = BaseConfig();
  config.faults.seed = 13;
  config.faults.straggler_rate = 0.1;  // model on, no injected failures
  config.faults.max_task_attempts = 3;
  config.faults.retry_backoff_ms = 50;
  MapReduceEngine engine(&dfs, config);

  auto doomed_input = MakeInput(&dfs, 120, "/in_doomed");
  JobSpec doomed = CountByGroup(doomed_input, "/out_doomed");
  doomed.reduce_fn = [](const Value& key, const std::vector<Value>&,
                        ReduceContext*) -> Status {
    if (key.int_value() == 3) return Status::Internal("poisoned group");
    return Status::OK();
  };
  auto healthy_input = MakeInput(&dfs, 120, "/in_healthy");
  JobSpec healthy = CountByGroup(healthy_input, "/out_healthy");

  auto results = engine.SubmitAll({doomed, healthy});
  ASSERT_TRUE(results.ok());
  const JobResult& failed = (*results)[0];
  EXPECT_FALSE(failed.status.ok());
  EXPECT_NE(failed.status.ToString().find("3 attempts"), std::string::npos)
      << failed.status.ToString();
  // Every reduce attempt after the first was a retry, and the drain reports
  // no data counters: a failed job contributes nothing, not partial work.
  EXPECT_GE(failed.task_retries, config.faults.max_task_attempts - 1);
  EXPECT_EQ(failed.counters.map_input_records, 0u);
  EXPECT_EQ(failed.counters.output_records, 0u);
  // Failed-job drain: no output handle, no file, no partial rows.
  EXPECT_EQ(failed.output, nullptr);
  EXPECT_FALSE(dfs.Open("/out_doomed").ok());

  const JobResult& ok = (*results)[1];
  ASSERT_TRUE(ok.status.ok()) << ok.status.ToString();
  EXPECT_EQ(ok.counters.map_input_records, 120u);
  EXPECT_EQ(ok.output->num_records(), 7u);
}

TEST(MrFaultTest, ReduceRetryAfterShuffleFailureIsTransparent) {
  // A node crash while reducers run (or wait) invalidates the maps resident
  // on it: reducers hit shuffle-fetch failures and are re-queued behind the
  // re-executed maps. The retried reducers must not double-count anything.
  ClusterConfig config = BaseConfig();
  config.num_nodes = 2;
  config.reduce_slots = 2;
  config.faults.retry_backoff_ms = 50;
  config.faults.node_recovery_ms = 400;

  auto run = [&config](std::vector<FaultConfig::ScriptedNodeCrash> crashes) {
    Dfs dfs;
    ClusterConfig c = config;
    c.faults.scripted_node_crashes = std::move(crashes);
    MapReduceEngine engine(&dfs, c);
    auto input = MakeInput(&dfs, 400, "/in");
    JobSpec spec = CountByGroup(input, "/out");
    spec.num_reduce_tasks = 4;  // more reducers than slots -> pending ones
    auto result = engine.Submit(spec);
    EXPECT_TRUE(result.ok());
    return std::move(*result);
  };

  JobResult clean = run({});
  ASSERT_TRUE(clean.status.ok());

  bool hit_reduce_phase = false;
  for (int pct : {98, 96, 94, 92, 90, 85, 80}) {
    SimMillis window = clean.Elapsed() - config.job_startup_ms;
    JobResult faulty =
        run({{config.job_startup_ms + window * pct / 100, 1}});
    ASSERT_TRUE(faulty.status.ok())
        << "crash at " << pct << "%: " << faulty.status.ToString();
    EXPECT_EQ(faulty.counters.map_input_records,
              clean.counters.map_input_records);
    EXPECT_EQ(faulty.counters.map_output_records,
              clean.counters.map_output_records);
    EXPECT_EQ(faulty.counters.output_records, clean.counters.output_records);
    EXPECT_EQ(faulty.output->num_records(), clean.output->num_records());
    if (faulty.shuffle_fetch_retries > 0) {
      EXPECT_GT(faulty.maps_invalidated, 0);
      hit_reduce_phase = true;
      break;
    }
  }
  EXPECT_TRUE(hit_reduce_phase)
      << "no crash placement caught reducers behind a re-shuffle";
}

TEST(MrFaultTest, SpeculationAtScaleIsPinnedAcrossThreadCounts) {
  // Thousands of map tasks and dozens of reducers under stragglers, task
  // failures and speculation: the scale at which the straggler scans'
  // cost shows. The counts and the finish time are pinned literals; any
  // drift in which attempts launch, race or retry (including the
  // lowest-id tie-break among equally slow tasks) moves them.
  auto run = [](int threads) {
    Dfs dfs;
    ClusterConfig config = BaseConfig();
    config.map_slots = 140;
    config.reduce_slots = 84;
    config.execution_threads = threads;
    config.faults.seed = 2014;
    config.faults.task_failure_rate = 0.05;
    config.faults.straggler_rate = 0.10;
    config.faults.speculative_execution = true;
    MapReduceEngine engine(&dfs, config);
    auto input = MakeInput(&dfs, 24000, "/in");
    EXPECT_GE(input->splits().size(), 2000u);
    JobSpec spec;
    spec.name = "speculation-at-scale";
    spec.output_path = "/out";
    spec.num_reduce_tasks = 64;
    MapInput mi;
    mi.file = input;
    mi.map_fn = [](const Value& record, MapContext* ctx) -> Status {
      ctx->Emit(Value::Int(record.FindField("id")->int_value() % 509),
                Value::Int(1));
      return Status::OK();
    };
    spec.inputs = {std::move(mi)};
    spec.reduce_fn = [](const Value& key, const std::vector<Value>& values,
                        ReduceContext* ctx) -> Status {
      ctx->Output(MakeRow(
          {{"k", key},
           {"n", Value::Int(static_cast<int64_t>(values.size()))}}));
      return Status::OK();
    };
    auto result = engine.Submit(spec);
    EXPECT_TRUE(result.ok());
    return std::move(*result);
  };

  for (int threads : {1, 4}) {
    SCOPED_TRACE(threads);
    JobResult r = run(threads);
    ASSERT_TRUE(r.status.ok()) << r.status.ToString();
    EXPECT_EQ(r.output->num_records(), 509u);
    EXPECT_EQ(r.counters.map_input_records, 24000u);
    EXPECT_EQ(r.reduce_tasks_planned, 64);
    EXPECT_EQ(r.speculative_launches, 34);
    EXPECT_EQ(r.speculative_wins, 15);
    EXPECT_EQ(r.task_retries, 128);
    EXPECT_EQ(r.finish_time_ms, 12789);
  }
}

}  // namespace
}  // namespace dyno

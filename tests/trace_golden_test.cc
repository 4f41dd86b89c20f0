// Golden-trace regression harness. One canonical DYNOPT run — TPC-H Q10,
// a 3-join star over customer/orders/lineitem/nation, pilot runs plus
// re-optimization — is traced end to end and the serialized JSONL trace is
// diffed byte-for-byte against a checked-in golden, at 1, 4 and 8 engine
// execution threads, with fault injection off and on. Any change to event
// ordering, span timing, cost numbers or the schema shows up as an
// event-level diff naming the first divergent span.
//
// Regenerate the goldens after an intentional change with
//   DYNO_UPDATE_GOLDEN=1 ./trace_golden_test
// (they are written back into the source tree via DYNO_GOLDEN_DIR).

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/string_util.h"
#include "dyno/driver.h"
#include "mr/engine.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "stats/stats_store.h"
#include "storage/catalog.h"
#include "tpch/dbgen.h"
#include "tpch/queries.h"

#ifndef DYNO_GOLDEN_DIR
#error "DYNO_GOLDEN_DIR must point at the checked-in goldens directory"
#endif

namespace dyno {
namespace {

std::string GoldenPath(const std::string& name) {
  return std::string(DYNO_GOLDEN_DIR) + "/" + name;
}

bool ReadFileToString(const std::string& path, std::string* out) {
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) return false;
  out->clear();
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) out->append(buf, n);
  std::fclose(f);
  return true;
}

bool WriteStringToFile(const std::string& path, const std::string& contents) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  size_t written = std::fwrite(contents.data(), 1, contents.size(), f);
  return std::fclose(f) == 0 && written == contents.size();
}

std::vector<std::string> SplitLines(const std::string& s) {
  std::vector<std::string> lines;
  size_t start = 0;
  while (start <= s.size()) {
    size_t end = s.find('\n', start);
    if (end == std::string::npos) {
      if (start < s.size()) lines.push_back(s.substr(start));
      break;
    }
    lines.push_back(s.substr(start, end - start));
    start = end + 1;
  }
  return lines;
}

/// "name" field of one serialized event line, or "<no name>".
std::string EventName(const std::string& line) {
  const char kKey[] = "\"name\":\"";
  size_t pos = line.find(kKey);
  if (pos == std::string::npos) return "<no name>";
  pos += sizeof(kKey) - 1;
  size_t end = line.find('"', pos);
  if (end == std::string::npos) return "<no name>";
  return line.substr(pos, end - pos);
}

/// Event-level diff: names the first span where two serialized traces
/// disagree, with both renderings. Empty string when identical.
std::string DescribeFirstDivergence(const std::string& golden,
                                    const std::string& actual) {
  if (golden == actual) return "";
  std::vector<std::string> want = SplitLines(golden);
  std::vector<std::string> got = SplitLines(actual);
  size_t n = std::min(want.size(), got.size());
  for (size_t i = 0; i < n; ++i) {
    if (want[i] == got[i]) continue;
    return StrFormat(
        "first divergent span at line %zu: event \"%s\"\n  golden: %s\n  "
        "actual: %s",
        i, EventName(got[i] != "" ? got[i] : want[i]).c_str(),
        want[i].c_str(), got[i].c_str());
  }
  // One trace is a strict prefix of the other.
  const std::vector<std::string>& longer = want.size() > n ? want : got;
  return StrFormat("traces diverge at line %zu: %s has extra event \"%s\": %s",
                   n, want.size() > n ? "golden" : "actual",
                   EventName(longer[n]).c_str(), longer[n].c_str());
}

/// Number of `name` events whose line contains `needle`.
int CountEvents(const std::string& trace_jsonl, const std::string& name,
                const std::string& needle) {
  int count = 0;
  for (const std::string& line : SplitLines(trace_jsonl)) {
    if (EventName(line) == name && line.find(needle) != std::string::npos) {
      ++count;
    }
  }
  return count;
}

/// Number of reduce_attempt events that are a task's second attempt or
/// later.
int RetriedReduceAttempts(const std::string& trace_jsonl) {
  int retried = 0;
  for (const std::string& line : SplitLines(trace_jsonl)) {
    if (EventName(line) != "reduce_attempt") continue;
    size_t pos = line.find("\"attempt\":");
    if (pos != std::string::npos &&
        std::atoi(line.c_str() + pos + sizeof("\"attempt\":") - 1) > 1) {
      ++retried;
    }
  }
  return retried;
}

struct TracedRun {
  std::string trace_jsonl;
  std::string metrics_text;
  QueryRunReport report;
};

/// The fault regimes the canonical query is traced under.
enum class Regime {
  kClean,
  /// Task failures, stragglers and speculation.
  kFaults,
  /// Block and shuffle corruption plus poison records.
  kCorruption,
  /// Repartition joins under task failures, stragglers, speculation, node
  /// crashes with recovery and a spill-mode reduce memory budget: pins the
  /// engine's reduce side under faults, node-crash invalidation and the
  /// shuffle re-fetch after a crash.
  kEngineFaults,
};

/// Builds a fresh cluster + TPC-H catalog, executes Q10 through the full
/// DYNOPT pipeline with a trace sink and metrics registry attached, and
/// returns every serialized observation. `c_probe_scale` perturbs the cost
/// model's broadcast probe constant (used to prove the harness catches
/// cost-model drift).
TracedRun RunCanonicalQuery(int threads, Regime regime,
                            double c_probe_scale = 1.0) {
  const bool faults = regime == Regime::kFaults;
  const bool corruption = regime == Regime::kCorruption;
  const bool engine_faults = regime == Regime::kEngineFaults;
  TracedRun out;
  Dfs dfs;
  Catalog catalog(&dfs);
  ClusterConfig config;
  config.job_startup_ms = 2000;
  config.map_slots = 20;
  config.reduce_slots = 10;
  config.memory_per_task_bytes = 64 * 1024;
  config.execution_threads = threads;
  // Pin the fault model so the ctest `faults` preset's env vars cannot
  // perturb the golden comparison.
  config.faults.use_env_defaults = false;
  if (faults) {
    config.faults.seed = 42;
    config.faults.task_failure_rate = 0.08;
    config.faults.straggler_rate = 0.10;
    config.faults.straggler_slowdown = 4.0;
    config.faults.speculative_slowness_threshold = 1.5;
    config.faults.retry_backoff_ms = 200;
  }
  if (corruption) {
    // A corruption-heavy regime: plenty of healed replica re-reads and
    // shuffle re-fetches, a sprinkle of quarantined poison records, but
    // rates low enough that the query still succeeds (all replicas corrupt
    // at 0.05^3 per read is vanishingly rare at this scale).
    config.faults.seed = 42;
    config.faults.block_corruption_rate = 0.05;
    config.faults.shuffle_corruption_rate = 0.4;
    config.faults.poison_record_rate = 0.001;
    config.faults.retry_backoff_ms = 200;
  }
  if (engine_faults) {
    config.faults.seed = 105;
    config.faults.task_failure_rate = 0.08;
    config.faults.straggler_rate = 0.10;
    config.faults.straggler_slowdown = 4.0;
    config.faults.speculative_slowness_threshold = 1.5;
    config.faults.retry_backoff_ms = 200;
    config.faults.node_failure_rate = 0.04;
    config.faults.node_recovery_ms = 5000;
    config.reduce_memory_mode = ClusterConfig::ReduceMemoryMode::kSpill;
    config.memory_per_task_bytes = 16 * 1024;
  }
  MapReduceEngine engine(&dfs, config);

  TpchConfig tpch;
  tpch.scale = 0.0005;
  tpch.split_bytes = 8 * 1024;
  EXPECT_TRUE(GenerateTpch(&catalog, tpch).ok());

  obs::TraceSink trace;
  obs::MetricsRegistry metrics;
  engine.set_trace(&trace);
  engine.set_metrics(&metrics);

  StatsStore store;
  DynoOptions options;
  options.pilot.k = 256;
  options.pilot.mode = PilotRunOptions::Mode::kParallel;
  options.pilot.reuse_stats = false;
  options.cost.max_memory_bytes = config.memory_per_task_bytes;
  options.cost.memory_factor = 1.5;
  options.cost.c_probe *= c_probe_scale;
  // At this tiny scale every build side fits in memory, so Q10 plans as
  // pure map-only broadcast chains — which would leave the corruption
  // regime no shuffle to corrupt. Force repartition joins there so the
  // golden pins the shuffle-checksum path too.
  if (corruption || engine_faults) options.cost.enable_broadcast = false;
  DynoDriver driver(&engine, &catalog, &store, options);
  auto report = driver.Execute(MakeTpchQ10());
  EXPECT_TRUE(report.ok()) << report.status().ToString();
  if (report.ok()) out.report = std::move(*report);
  out.trace_jsonl = trace.SerializeJsonl();
  out.metrics_text = metrics.Serialize();
  return out;
}

/// Compares `actual` against the golden file, or rewrites the golden when
/// DYNO_UPDATE_GOLDEN is set.
void CompareWithGolden(const std::string& golden_name,
                       const std::string& actual) {
  std::string path = GoldenPath(golden_name);
  if (std::getenv("DYNO_UPDATE_GOLDEN") != nullptr) {
    ASSERT_TRUE(WriteStringToFile(path, actual))
        << "cannot write golden " << path;
    std::fprintf(stderr, "updated golden %s (%zu bytes)\n", path.c_str(),
                 actual.size());
    return;
  }
  std::string expected;
  ASSERT_TRUE(ReadFileToString(path, &expected))
      << "missing golden " << path
      << " — regenerate with DYNO_UPDATE_GOLDEN=1";
  EXPECT_TRUE(expected == actual) << DescribeFirstDivergence(expected, actual);
}

TEST(TraceGoldenTest, CleanTraceBitIdenticalAcrossThreadsAndMatchesGolden) {
  TracedRun one = RunCanonicalQuery(1, Regime::kClean);
  TracedRun four = RunCanonicalQuery(4, Regime::kClean);
  TracedRun eight = RunCanonicalQuery(8, Regime::kClean);
  EXPECT_TRUE(one.trace_jsonl == four.trace_jsonl)
      << DescribeFirstDivergence(one.trace_jsonl, four.trace_jsonl);
  EXPECT_TRUE(one.trace_jsonl == eight.trace_jsonl)
      << DescribeFirstDivergence(one.trace_jsonl, eight.trace_jsonl);
  EXPECT_EQ(one.metrics_text, four.metrics_text);
  EXPECT_EQ(one.metrics_text, eight.metrics_text);
  CompareWithGolden("q10_clean.jsonl", one.trace_jsonl);
}

TEST(TraceGoldenTest, FaultyTraceBitIdenticalAcrossThreadsAndMatchesGolden) {
  TracedRun one = RunCanonicalQuery(1, Regime::kFaults);
  TracedRun four = RunCanonicalQuery(4, Regime::kFaults);
  TracedRun eight = RunCanonicalQuery(8, Regime::kFaults);
  EXPECT_TRUE(one.trace_jsonl == four.trace_jsonl)
      << DescribeFirstDivergence(one.trace_jsonl, four.trace_jsonl);
  EXPECT_TRUE(one.trace_jsonl == eight.trace_jsonl)
      << DescribeFirstDivergence(one.trace_jsonl, eight.trace_jsonl);
  EXPECT_EQ(one.metrics_text, four.metrics_text);
  // The golden is only interesting if the fault path genuinely fired.
  EXPECT_GT(one.report.task_failures_injected, 0);
  EXPECT_GT(one.report.task_retries, 0);
  CompareWithGolden("q10_faults.jsonl", one.trace_jsonl);
}

TEST(TraceGoldenTest,
     CorruptionTraceBitIdenticalAcrossThreadsAndMatchesGolden) {
  TracedRun one =
      RunCanonicalQuery(1, Regime::kCorruption);
  TracedRun four =
      RunCanonicalQuery(4, Regime::kCorruption);
  TracedRun eight =
      RunCanonicalQuery(8, Regime::kCorruption);
  EXPECT_TRUE(one.trace_jsonl == four.trace_jsonl)
      << DescribeFirstDivergence(one.trace_jsonl, four.trace_jsonl);
  EXPECT_TRUE(one.trace_jsonl == eight.trace_jsonl)
      << DescribeFirstDivergence(one.trace_jsonl, eight.trace_jsonl);
  EXPECT_EQ(one.metrics_text, four.metrics_text);
  EXPECT_EQ(one.metrics_text, eight.metrics_text);
  // The golden is only interesting if every integrity path genuinely fired
  // (this also guarantees scripts/check_goldens.sh can grep the events).
  EXPECT_GT(one.report.block_corruptions, 0);
  EXPECT_GT(one.report.checksum_refetches, 0);
  EXPECT_GT(one.report.records_quarantined, 0u);
  for (const char* name :
       {"\"name\":\"block_corruption\"", "\"name\":\"shuffle_checksum_retry\"",
        "\"name\":\"record_quarantined\""}) {
    EXPECT_NE(one.trace_jsonl.find(name), std::string::npos) << name;
  }
  CompareWithGolden("q10_corruption.jsonl", one.trace_jsonl);
}

TEST(TraceGoldenTest,
     EngineFaultTraceBitIdenticalAcrossThreadsAndMatchesGolden) {
  TracedRun one = RunCanonicalQuery(1, Regime::kEngineFaults);
  TracedRun four = RunCanonicalQuery(4, Regime::kEngineFaults);
  TracedRun eight = RunCanonicalQuery(8, Regime::kEngineFaults);
  EXPECT_TRUE(one.trace_jsonl == four.trace_jsonl)
      << DescribeFirstDivergence(one.trace_jsonl, four.trace_jsonl);
  EXPECT_TRUE(one.trace_jsonl == eight.trace_jsonl)
      << DescribeFirstDivergence(one.trace_jsonl, eight.trace_jsonl);
  EXPECT_EQ(one.metrics_text, four.metrics_text);
  EXPECT_EQ(one.metrics_text, eight.metrics_text);
  // The golden pins the reduce side under faults, node-crash invalidation
  // and the shuffle re-fetch only if each of them genuinely fired (this
  // also guarantees scripts/check_goldens.sh can grep the events).
  EXPECT_GT(one.report.maps_invalidated, 0);
  EXPECT_GT(one.report.reduce_spills, 0);
  EXPECT_GT(RetriedReduceAttempts(one.trace_jsonl), 0);
  EXPECT_GT(
      CountEvents(one.trace_jsonl, "speculative_win", "\"map\":false"), 0);
  for (const char* name :
       {"\"name\":\"node_crash\"", "\"name\":\"task_spill\"",
        "\"name\":\"shuffle_fetch_retry\""}) {
    EXPECT_NE(one.trace_jsonl.find(name), std::string::npos) << name;
  }
  CompareWithGolden("q10_engine_faults.jsonl", one.trace_jsonl);
}

TEST(TraceGoldenTest, TraceCoversTheWholeQueryLifecycle) {
  TracedRun run = RunCanonicalQuery(1, Regime::kClean);
  for (const char* name :
       {"\"name\":\"pilot_leaf\"", "\"name\":\"pilot_batch\"",
        "\"name\":\"optimize\"", "\"name\":\"job_submit\"",
        "\"name\":\"job\"", "\"name\":\"map_phase\"",
        "\"name\":\"map_attempt\"", "\"name\":\"final_step\""}) {
    EXPECT_NE(run.trace_jsonl.find(name), std::string::npos) << name;
  }
  // Metrics registered by engine, pilot and driver all show up.
  for (const char* metric :
       {"counter mr.jobs", "counter pilot.runs_executed",
        "counter driver.optimizer_calls", "histogram mr.job_ms"}) {
    EXPECT_NE(run.metrics_text.find(metric), std::string::npos) << metric;
  }
}

TEST(TraceGoldenTest, CostModelPerturbationNamesFirstDivergentSpan) {
  // A deliberate one-line cost-model change (c_probe scaled 1.3x — part of
  // every broadcast join's cost, so the winner's cost must move) must fail
  // the golden comparison with a diff that names the optimizer span where
  // the costs first diverge — not merely "files differ".
  TracedRun baseline = RunCanonicalQuery(1, Regime::kClean);
  TracedRun perturbed =
      RunCanonicalQuery(1, Regime::kClean, /*c_probe_scale=*/1.3);
  ASSERT_NE(baseline.trace_jsonl, perturbed.trace_jsonl)
      << "perturbing c_probe must alter traced optimizer costs";
  std::string diff =
      DescribeFirstDivergence(baseline.trace_jsonl, perturbed.trace_jsonl);
  ASSERT_FALSE(diff.empty());
  EXPECT_NE(diff.find("first divergent span"), std::string::npos) << diff;
  EXPECT_NE(diff.find("\"optimize\""), std::string::npos)
      << "expected the optimize span to diverge first, got:\n" << diff;
}

TEST(TraceGoldenTest, GoldenHeadersCarryCurrentSchemaVersion) {
  // scripts/check_goldens.sh enforces the same invariant without a build;
  // this is the in-process version so `ctest` alone catches drift.
  if (std::getenv("DYNO_UPDATE_GOLDEN") != nullptr) GTEST_SKIP();
  std::string expected_header = StrFormat(
      "{\"schema\":%d,\"clock\":\"sim_ms\"}", obs::kTraceSchemaVersion);
  for (const char* name :
       {"q10_clean.jsonl", "q10_faults.jsonl", "q10_corruption.jsonl",
        "q10_engine_faults.jsonl"}) {
    std::string contents;
    ASSERT_TRUE(ReadFileToString(GoldenPath(name), &contents)) << name;
    std::vector<std::string> lines = SplitLines(contents);
    ASSERT_FALSE(lines.empty()) << name;
    EXPECT_EQ(lines[0], expected_header) << name;
  }
}

}  // namespace
}  // namespace dyno

// hostbench: host-time benchmark of the DYNO simulator.
//
//   hostbench --workload <fig7_sf1000|service_cached|chaos_columnar>
//             --seed <n> --seconds <s> --trace <0|1>
//
// Pins itself to one CPU (see PinToOneCpu), builds the workload's scenario
// (timed, several times: setup_s), computes untimed reference results, then
// runs whole iterations of the workload for --seconds host seconds. With --trace 1 the time is split: half untraced,
// half traced through the span tracer, and the per-layer metrics are
// reported instead of the end-to-end ones. The last line of stdout is one
// JSON object: {"correct", "attempted", "failed", "metrics"}. Exit status is
// 0 only when every execution was correct.

#include <malloc.h>
#include <sched.h>

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <algorithm>
#include <fstream>
#include <string>
#include <vector>

#include "common/string_util.h"
#include "hostbench.h"

using namespace hostbench;

namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "hostbench: %s\nusage: hostbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1>\n",
               why);
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') Usage("--seed must be an integer");
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args.seconds > 0)) Usage("--seconds must be > 0");
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") Usage("--trace must be 0 or 1");
      args.trace = value == "1";
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (args.workload.empty()) Usage("--workload is required");
  return args;
}

/// Peak resident set size, from VmHWM in /proc/self/status (MB = 10^6 B).
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) * 1024.0 / 1e6;
    }
  }
  return 0.0;
}

/// Starts a new peak-RSS window (Linux: "5" to clear_refs resets VmHWM to
/// the current RSS). Returns false where the kernel does not allow it.
bool ResetPeakRss() {
  malloc_trim(0);
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return false;
  bool ok = std::fputs("5", f) >= 0;
  return std::fclose(f) == 0 && ok;
}

/// Pins the process, and every thread it starts later, to the CPU it is
/// running on; returns that CPU, or -1 where pinning is refused. Every
/// workload runs one engine thread, and QueryService runs its sessions one
/// at a time, passing a baton between threads. Unpinned, each handoff may
/// wait for another CPU: with four busy-looping processes on the 4-vCPU
/// host the README reports, service_cached fell from ~220 to ~85
/// queries/s unpinned and stayed at ~215 pinned, while fig7_sf1000 slowed
/// alike either way.
int PinToOneCpu() {
  const int cpu = sched_getcpu();
  if (cpu < 0) return -1;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return sched_setaffinity(0, sizeof(set), &set) == 0 ? cpu : -1;
}

/// Totals over the iterations of one phase.
struct Phase {
  int iterations = 0;
  int attempted = 0;
  int correct = 0;
  int failed = 0;
  int expected_failures = 0;
  double work_s = 0.0;
  std::vector<double> host_ms;
  /// Correct executions per host second, one value per iteration.
  std::vector<double> iteration_qps;
  /// Median over iterations, so a burst of load on the host during one
  /// iteration does not move the figure.
  double qps() const { return Median(iteration_qps); }
};

/// The first line where two fingerprints differ, as "<a>\n  now: <b>".
std::string FirstDifference(const std::string& a, const std::string& b) {
  size_t pa = 0, pb = 0;
  while (pa < a.size() || pb < b.size()) {
    size_t ea = std::min(a.find('\n', pa), a.size());
    size_t eb = std::min(b.find('\n', pb), b.size());
    std::string la = a.substr(pa, ea - pa), lb = b.substr(pb, eb - pb);
    if (la != lb) return la + "\n  now: " + lb;
    pa = ea + 1;
    pb = eb + 1;
  }
  return "(none)";
}

/// Runs whole iterations for at most `budget_s` of wall time: at least one,
/// then another only while the mean iteration so far still fits. Every
/// iteration must reproduce the first iteration's
/// fingerprint (simulated times, statuses and row sets) exactly.
Phase RunPhase(Workload* workload, Tracer* tracer, double budget_s,
               IterationResult* first) {
  Phase phase;
  const double start = NowSeconds();
  double elapsed = 0.0;
  do {
    IterationResult iter = workload->RunIteration(tracer);
    if (first->fingerprint.empty()) {
      *first = iter;
    } else if (iter.fingerprint != first->fingerprint) {
      iter.failed += 1;
      iter.errors.push_back(
          "iteration did not reproduce the first iteration's simulated "
          "times and results; first difference:\n  was: " +
          FirstDifference(first->fingerprint, iter.fingerprint));
    }
    for (const std::string& error : iter.errors) {
      std::fprintf(stderr, "FAIL %s\n", error.c_str());
    }
    std::printf("# %s iteration %d: %d executions, %.3f s in workload calls\n",
                tracer != nullptr ? "traced" : "untraced", phase.iterations + 1,
                iter.attempted, iter.work_s);
    phase.iterations += 1;
    phase.attempted += iter.attempted;
    phase.correct += iter.correct;
    phase.failed += iter.failed;
    phase.expected_failures += iter.expected_failures;
    phase.work_s += iter.work_s;
    phase.iteration_qps.push_back(iter.work_s > 0 ? iter.correct / iter.work_s
                                                  : 0.0);
    phase.host_ms.insert(phase.host_ms.end(), iter.host_ms.begin(),
                         iter.host_ms.end());
    elapsed = NowSeconds() - start;
  } while (elapsed + elapsed / phase.iterations <= budget_s);
  return phase;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string note;
};

void Print(const Metric& m) {
  std::printf("%-34s %14.6g %-6s %s\n", m.name.c_str(), m.value,
              m.unit.c_str(), m.note.c_str());
}

std::string Json(bool correct, int attempted, int failed,
                 const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
    out += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " + value +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

/// Per-layer metrics of the traced phase, each per iteration.
std::vector<Metric> LayerMetrics(Tracer* tracer, int iterations,
                                 const StorageProbe& probe,
                                 double qps_untraced, double qps_traced) {
  const double per_iter = 1.0 / iterations;
  auto layers = tracer->Layers();
  auto ms = [&](const char* span) {
    return layers[span].total_s * 1e3 * per_iter;
  };
  auto count = [&](const char* counter) {
    return static_cast<double>(tracer->Count(counter)) * per_iter;
  };
  const double submit_s = tracer->submit_wall_s();
  const double hits = count("cache.hits");
  const double misses = count("cache.misses");
  const uint64_t input_bytes = tracer->map_input_bytes();

  std::vector<Metric> m;
  m.push_back({"storage.verify_mb_per_s", probe.verify_mb_per_s, "MB/s",
               "VerifySplit over row copies of the base tables"});
  m.push_back({"storage.decode_mb_per_s", probe.row_decode_mb_per_s, "MB/s",
               "DecodeSplitRows (verify + decode), row splits"});
  m.push_back({"storage.rewrite_ms", ms("storage.rewrite"), "ms",
               "ReadAllRows+WriteRows+ReplaceTable"});
  m.push_back({"mr.submit_ms", submit_s * 1e3 * per_iter, "ms",
               "SubmitAllDirect wall time via the submit gate"});
  for (int c = 0; c < Tracer::kNumClasses; ++c) {
    auto cls = static_cast<Tracer::JobClass>(c);
    m.push_back({std::string("mr.submit_ms.") + Tracer::ClassName(cls),
                 tracer->class_s(cls) * 1e3 * per_iter, "ms",
                 "submit time split by job class (by map input bytes)"});
  }
  m.push_back({"mr.cores_busy",
               submit_s > 0 ? tracer->submit_cpu_s() / submit_s : 0.0, "cores",
               "process CPU / wall inside submit"});
  m.push_back({"mr.map_input_mb", input_bytes / 1e6 * per_iter, "MB",
               "JobResult map input bytes"});
  m.push_back({"mr.ns_per_input_byte",
               input_bytes > 0 ? submit_s * 1e9 / input_bytes : 0.0, "ns/B",
               "submit wall per map input byte"});
  for (const char* c : {"mr.jobs", "mr.map_attempts", "mr.task_retries",
                        "mr.speculative_launches"}) {
    m.push_back({c, count(c), "count", "engine MetricsRegistry"});
  }
  m.push_back({"mr.memory_spill_bytes", count("mr.memory_spill_bytes"), "B",
               "engine MetricsRegistry"});
  m.push_back({"mr.integrity_block_corruptions",
               count("mr.integrity_block_corruptions"), "count",
               "engine MetricsRegistry"});
  m.push_back({"exec.map_fn_ms", tracer->map_fn_s() * 1e3 * per_iter, "ms",
               "wrapped map_fn + flush_fn, summed over threads"});
  m.push_back({"exec.reduce_fn_ms", tracer->reduce_fn_s() * 1e3 * per_iter,
               "ms", "wrapped reduce_fn, summed over threads"});
  m.push_back({"stats.observer_ms", tracer->observer_s() * 1e3 * per_iter,
               "ms", "wrapped output_observer, summed over threads"});
  m.push_back({"scan.splits_pruned", count("scan.splits_pruned"), "count",
               "zone-map pruned splits"});
  m.push_back({"scan.batches", count("scan.batches"), "count",
               "columnar batches scanned"});
  m.push_back({"columnar.decode_mb_per_s", probe.columnar_decode_mb_per_s,
               "MB/s", "DecodeSplitRows (verify + decode), columnar splits"});
  for (const char* c : {"pilot.runs_executed", "pilot.runs_skipped_cached",
                        "optimizer.groups_explored", "driver.optimizer_calls",
                        "driver.plan_changes"}) {
    m.push_back({c, count(c), "count", "engine MetricsRegistry"});
  }
  m.push_back({"dyno.execute_ms", ms("dyno.execute"), "ms",
               "DynoDriver::Execute"});
  m.push_back({"dyno.client_ms", layers["dyno.execute"].self_s * 1e3 * per_iter,
               "ms", "Execute minus its mr.submit children"});
  m.push_back({"baselines.relopt_ms", ms("baselines.relopt"), "ms",
               "RelOptBaseline::PlanAndExecute"});
  m.push_back({"baselines.beststatic_ms", ms("baselines.beststatic"), "ms",
               "BestStaticBaseline::Run"});
  m.push_back({"baselines.self_ms",
               (layers["baselines.relopt"].self_s +
                layers["baselines.beststatic"].self_s) *
                   1e3 * per_iter,
               "ms", "both baselines minus their mr.submit children"});
  for (const char* c : {"cache.hits", "cache.misses", "cache.invalidations"}) {
    m.push_back({c, count(c), "count", "engine MetricsRegistry"});
  }
  m.push_back({"cache.hit_ratio",
               hits + misses > 0 ? hits / (hits + misses) : 0.0,
               "ratio", "hits / (hits + misses)"});
  m.push_back({"service.run_all_ms", ms("service.run_all"), "ms",
               "QueryService::RunAll"});
  m.push_back({"service.waves", count("service.waves"), "count",
               "engine MetricsRegistry"});
  m.push_back({"service.wave_jobs", count("service.wave_jobs"), "count",
               "engine MetricsRegistry"});
  m.push_back({"trace.queries_per_s_untraced", qps_untraced, "1/s",
               "untraced half of the run"});
  m.push_back({"trace.queries_per_s_traced", qps_traced, "1/s",
               "traced half of the run"});
  m.push_back({"trace.overhead_frac",
               qps_untraced > 0 ? 1.0 - qps_traced / qps_untraced : 0.0,
               "ratio", "1 - traced / untraced queries_per_s"});
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  // One malloc arena: QueryService session threads would otherwise each get
  // an arena of their own, and peak RSS would depend on how glibc spread
  // allocations over them rather than on the data the workload holds.
  mallopt(M_ARENA_MAX, 1);
  Args args = ParseArgs(argc, argv);
  std::vector<std::string> foreign = DynoEnvironment();
  if (!foreign.empty()) {
    std::string names;
    for (const std::string& n : foreign) names += " " + n;
    std::fprintf(stderr,
                 "hostbench: refusing to run with DYNO_* variables set "
                 "(they change the library's configuration):%s\n",
                 names.c_str());
    return 2;
  }
  std::unique_ptr<Workload> workload = MakeWorkload(args.workload, args.seed);
  if (workload == nullptr) Usage(("unknown workload " + args.workload).c_str());

  std::printf("# hostbench workload=%s seed=%" PRIu64 " seconds=%g trace=%d\n",
              workload->name(), args.seed, args.seconds, args.trace ? 1 : 0);
  std::printf("# %s\n", workload->describe().c_str());
  const int nproc = Nproc();
  const int cpu = PinToOneCpu();
  std::printf("# build=%s flags=\"%s\" nproc=%d pinned_cpu=%d "
              "execution_threads=%d\n",
              HOSTBENCH_BUILD_TYPE, HOSTBENCH_CXX_FLAGS, nproc, cpu,
              workload->execution_threads());
#ifndef NDEBUG
  std::printf("# WARNING: assertions are on (no NDEBUG); host times are not "
              "representative\n");
#endif
  std::fflush(stdout);

  std::vector<double> setup_s;
  for (int i = 0; i < workload->setup_repeats(); ++i) {
    const double t0 = NowSeconds();
    workload->Setup();
    setup_s.push_back(NowSeconds() - t0);
  }
  const double prepare_t0 = NowSeconds();
  if (dyno::Status st = workload->Prepare(); !st.ok()) {
    std::fprintf(stderr, "hostbench: reference run failed: %s\n",
                 st.ToString().c_str());
    return 1;
  }
  std::printf("# untimed reference runs: %.2f s\n", NowSeconds() - prepare_t0);

  const double budget = args.trace ? args.seconds / 2 : args.seconds;
  const bool rss_window = ResetPeakRss();
  IterationResult first;
  Phase untraced = RunPhase(workload.get(), nullptr, budget, &first);
  const double peak_rss_mb = PeakRssMb();

  Phase traced;
  Tracer tracer;
  if (args.trace) {
    traced = RunPhase(workload.get(), &tracer, budget, &first);
  }

  std::vector<Metric> end_to_end;
  end_to_end.push_back(
      {"queries_per_s", untraced.qps(), "1/s",
       dyno::StrFormat("(median of %d iterations; %d correct executions in "
                       "%.2f s of workload calls)",
                       untraced.iterations, untraced.correct,
                       untraced.work_s)});
  end_to_end.push_back(
      {"query_host_ms_p50", Median(untraced.host_ms), "ms",
       dyno::StrFormat("(n=%zu%s)", untraced.host_ms.size(),
                       workload->uses_service()
                           ? " iterations, host ms per session"
                           : " executions")});
  end_to_end.push_back({"setup_s", Median(setup_s), "s",
                        dyno::StrFormat("(median of %zu set-ups)",
                                        setup_s.size())});
  end_to_end.push_back(
      {"peak_rss_mb", peak_rss_mb, "MB",
       rss_window ? "(timed phase)"
                  : "(process lifetime: VmHWM reset refused)"});
  end_to_end.push_back({"sim_query_s_p50", Median(first.sim_s), "s",
                        dyno::StrFormat("(n=%zu, first iteration)",
                                        first.sim_s.size())});
  Tail tail = TailOf(first.sim_s);
  end_to_end.push_back(
      {"sim_query_s_tail", tail.value, "s",
       tail.percentile < 100.0
           ? dyno::StrFormat("(p%g, n=%d, %d beyond)", tail.percentile,
                             tail.samples, tail.beyond)
           : dyno::StrFormat("(max: n=%d is too few for a percentile with 10 "
                             "beyond)",
                             tail.samples)});
  end_to_end.push_back({"dynopt_vs_beststatic",
                        workload->DynoptVsBeststatic(), "ratio",
                        "(geometric mean, simulated clock)"});

  const int attempted = untraced.attempted + traced.attempted;
  const int failed = untraced.failed + traced.failed;
  const int expected = untraced.expected_failures + traced.expected_failures;
  std::printf("\n== end-to-end (untraced) ==\n");
  for (const Metric& m : end_to_end) Print(m);
  Print({"failed_frac", attempted > 0 ? double(failed) / attempted : 0.0,
         "ratio",
         dyno::StrFormat("(%d of %d; %d expected typed failures not counted)",
                         failed, attempted, expected)});

  std::vector<Metric> reported = end_to_end;
  if (args.trace) {
    StorageProbe probe = ProbeStorage(workload->catalog());
    reported = LayerMetrics(&tracer, traced.iterations, probe, untraced.qps(),
                            traced.qps());
    std::printf("\n== per layer (traced, per iteration; %d iterations) ==\n",
                traced.iterations);
    for (const Metric& m : reported) Print(m);
  }
  const bool correct = failed == 0 && attempted > 0;
  std::printf("%s\n", Json(correct, attempted, failed, reported).c_str());
  return correct ? 0 : 1;
}

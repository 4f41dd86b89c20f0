#include "mr/engine.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <map>
#include <numeric>
#include <optional>
#include <queue>
#include <utility>

#include "columnar/batch_eval.h"
#include "common/crc32c.h"
#include "common/hash.h"
#include "common/random.h"
#include "common/string_util.h"
#include "mr/speculation.h"
#include "mr/worker_pool.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace dyno {

void Counters::MergeFrom(const Counters& other) {
  map_input_records += other.map_input_records;
  map_input_bytes += other.map_input_bytes;
  map_output_records += other.map_output_records;
  map_output_bytes += other.map_output_bytes;
  reduce_input_records += other.reduce_input_records;
  output_records += other.output_records;
  output_bytes += other.output_bytes;
}

void JobTally::Add(const JobTally& other) {
  task_failures_injected += other.task_failures_injected;
  task_retries += other.task_retries;
  speculative_launches += other.speculative_launches;
  speculative_wins += other.speculative_wins;
  node_crashes_observed += other.node_crashes_observed;
  attempts_killed_by_node += other.attempts_killed_by_node;
  maps_invalidated += other.maps_invalidated;
  shuffle_fetch_retries += other.shuffle_fetch_retries;
  block_corruptions += other.block_corruptions;
  checksum_refetches += other.checksum_refetches;
  records_quarantined += other.records_quarantined;
  reduce_spills += other.reduce_spills;
  spill_bytes_written += other.spill_bytes_written;
  spill_bytes_read += other.spill_bytes_read;
  peak_task_memory_bytes =
      std::max(peak_task_memory_bytes, other.peak_task_memory_bytes);
}


namespace {

/// A map task to run: which input and which split of it.
struct MapTaskRef {
  int input_index;
  int split_index;
};

enum class JobPhase { kStartingUp, kMap, kShuffle, kReduce, kDone };

/// A queued logical task. `not_before` gates retries: a task re-enters the
/// queue immediately after its attempt fails but only becomes launchable
/// once its backoff elapses, keeping queue order deterministic.
struct PendingTask {
  int task_id = 0;
  SimMillis not_before = 0;
};

/// Poison-record state of a map task. The records are a property of the
/// data, not of any attempt, so the plan survives node-crash resets.
/// Positions are drawn once, at the task's first launch.
struct PoisonPlan {
  bool drawn = false;
  std::vector<uint64_t> records;  ///< Sorted poison record indexes.
  int failures = 0;               ///< Attempts that died on a poison record.
  bool skip_mode = false;         ///< Re-running with record skipping on.
};

/// Attempt bookkeeping for one logical task (fault model).
struct TaskRunState {
  int failures = 0;             ///< Failed attempts so far.
  bool completed = false;       ///< Some attempt has finished.
  bool data_committed = false;  ///< A successful attempt's data is staged.
  bool speculated = false;      ///< A backup attempt was launched.
  bool backup_in_flight = false;
  SimMillis launch_time = 0;      ///< Launch of the in-flight primary.
  SimMillis expected_finish = 0;  ///< That attempt's completion time.
  SimMillis base_duration = 0;    ///< Its duration before straggler factor.
  int node = -1;                  ///< Node hosting the completed output.
  Status last_error;              ///< Most recent attempt failure.
  PoisonPlan poison;              ///< Map tasks only.

  /// Forgets every attempt after a node crash lost the task's output. Real
  /// failures outlive the kill, and so does the poison plan: the positions
  /// are a property of the split's data, and skip mode is a decision
  /// already made for this logical task.
  void ResetAttempts() {
    TaskRunState kept;
    kept.failures = failures;
    kept.poison = std::move(poison);
    *this = std::move(kept);
  }
};

/// Everything one task's data flow produces. Filled on a worker thread,
/// then merged into the RunningJob on the scheduler thread in deterministic
/// launch order — the worker never touches shared job state.
struct TaskOutcome {
  Status status;
  Split output;  ///< Records written via ctx->Output().
  std::vector<std::pair<Value, Value>> emissions;
  std::vector<uint64_t> emission_bytes;  ///< Encoded size of each emission.
  uint64_t emitted_bytes = 0;
  uint64_t input_records = 0;
  uint64_t input_bytes = 0;  ///< Map only; partial when the attempt errored.
  /// Row-encoded size of the input scanned (== input_bytes for row splits).
  /// Feeds counters.map_input_bytes so statistics are format-independent.
  uint64_t input_logical_bytes = 0;
  /// Columnar batches decoded by this attempt (scan.batches metric).
  uint64_t batches_decoded = 0;
  uint64_t reduce_input_records = 0;
  uint64_t reduce_input_bytes = 0;
  double cpu_units = 0.0;  ///< Excludes observer charges (added at commit).
  bool poison_failure = false;  ///< The attempt died on a poison record.
  Split quarantine;  ///< Poison records skipped in skip mode.
  std::vector<uint64_t> quarantine_indexes;
  /// Encoded spill runs produced by an externally-sorted reduce attempt
  /// (empty when the task sorted in memory).
  std::vector<Split> spill_runs_written;
};

/// One logical task's staged data: the outcome of its successful attempt,
/// held per task until the job finishes (or, for map outputs of map-reduce
/// jobs, until a node crash invalidates it). Assembling job outputs from
/// this in task-id order at finish time is what keeps results byte-identical
/// whether or not tasks were re-executed out of order. The spill runs of a
/// reduce task that sorted externally are written to the job's `.spill/`
/// sibling DFS file at durable completion.
struct TaskData : TaskOutcome {
  bool valid = false;
  Counters counters;             ///< This task's contribution alone.
  double observer_charge = 0.0;  ///< CPU units the observer replay costs.

  /// Stages a successful attempt's outcome. Map and reduce outcomes leave
  /// each other's counter sources at zero.
  void Stage(TaskOutcome&& outcome, double charge) {
    TaskOutcome::operator=(std::move(outcome));
    valid = true;
    observer_charge = charge;
    counters = Counters{};
    counters.map_input_records = input_records;
    counters.map_input_bytes = input_logical_bytes;
    counters.map_output_records = emissions.size();
    counters.map_output_bytes = emitted_bytes;
    counters.reduce_input_records = reduce_input_records;
    counters.output_records = output.num_records;
  }
};

/// The logical tasks of one phase (map or reduce) of a running job.
struct TaskPhase {
  std::vector<TaskRunState> states;
  std::vector<TaskData> data;  ///< task_id -> staged outputs.
  std::deque<PendingTask> pending;
  int remaining = 0;  ///< Logical tasks not completed/skipped.
  int active = 0;     ///< Attempts in flight.
  /// Completed-attempt median and in-flight primaries.
  PhaseSpeculation speculation;

  void Assign(size_t tasks) {
    states.assign(tasks, TaskRunState{});
    data.assign(tasks, TaskData{});
    remaining = static_cast<int>(tasks);
  }
};

/// Execution state for one concurrently running job.
struct RunningJob {
  const JobSpec* spec = nullptr;
  int job_index = 0;
  JobPhase phase = JobPhase::kStartingUp;
  SimMillis ready_time = 0;  ///< submit + startup latency.

  std::vector<MapTaskRef> map_defs;  ///< task_id -> (input, split).
  TaskPhase maps;
  TaskPhase reduces;
  TaskPhase& tasks(bool is_map) { return is_map ? maps : reduces; }
  const TaskPhase& tasks(bool is_map) const { return is_map ? maps : reduces; }
  int map_seq = 0;  ///< Tasks launched so far (distributed-cache billing).

  /// Reduce-side state.
  int num_reduce_tasks = 0;
  std::vector<std::vector<std::pair<Value, Value>>> partitions;
  std::vector<uint64_t> partition_bytes;  ///< Encoded bytes of each bucket.
  bool reduce_opened = false;  ///< First shuffle completed at least once.
  /// Bumped when a node crash invalidates map outputs mid-shuffle or later;
  /// a kShuffleDone event with a stale epoch is ignored.
  int shuffle_epoch = 0;
  /// Emission bytes already billed to the network, so a re-shuffle after a
  /// crash transfers only the re-executed maps' bytes.
  uint64_t shuffled_bytes = 0;

  /// When the reduce phase opened (shuffle done) — trace span start.
  SimMillis reduce_start = 0;

  /// Per-job fault stream (engaged only when injection is enabled), seeded
  /// from the config seed and the job name so draws are independent of
  /// cross-job scheduling interleavings.
  std::optional<Rng> fault_rng;

  std::shared_ptr<DfsFile> output;
  JobResult result;
  double observer_cpu_units = 0.0;
  bool failed = false;

  /// DFS paths of spill-run files written by completed reduce tasks;
  /// deleted when the job ends (they are scratch, not output).
  std::vector<std::string> spill_paths;

  bool Finished() const { return phase == JobPhase::kDone; }
};

enum class EventKind {
  kJobReady,
  kAttemptDone,
  kShuffleDone,
  kNodeCrash,
  kNodeRecover,
  /// No-op: exists to force a scheduling pass at a known time (a retry
  /// backoff expiring, an in-flight task crossing the speculation cutoff).
  kWakeup,
};

struct Event {
  SimMillis time = 0;
  uint64_t seq = 0;  ///< Tie-breaker for determinism, stamped when queued.
  EventKind kind = EventKind::kWakeup;
  int job_index = -1;
  int node = -1;           ///< kNodeCrash/kNodeRecover target.
  bool scripted = false;   ///< Crash from FaultConfig::scripted_node_crashes.
  int shuffle_epoch = 0;   ///< kShuffleDone staleness check.
};

struct EventLater {
  bool operator()(const Event& a, const Event& b) const {
    if (a.time != b.time) return a.time > b.time;
    return a.seq > b.seq;
  }
};

/// One launched task: the inputs decided by the scheduler plus the outcome
/// produced by the worker.
struct TaskLaunch {
  RunningJob* job = nullptr;
  bool is_map = true;
  int task_id = 0;
  MapTaskRef map_ref{0, 0};
  const Split* split = nullptr;  ///< Input split (map tasks).
  int task_index = 0;
  SimMillis setup_ms = 0;  ///< Side-data load charge, decided at launch.
  std::vector<std::pair<Value, Value>> bucket;  ///< Reduce input.
  /// Node the attempt was placed on (always >= 0 once launched).
  int node = 0;
  /// Fault draws, decided at launch on the scheduler thread. An attempt
  /// marked `inject_failure` never runs its data flow (the simulated
  /// container dies `fail_fraction` of the way through); `slowdown` > 1
  /// stretches the attempt's simulated duration. `crash_node` schedules a
  /// crash of the hosting node `crash_fraction` of the way through the
  /// attempt (the commit computes the absolute time once the duration is
  /// known).
  bool inject_failure = false;
  double fail_fraction = 0.0;
  double slowdown = 1.0;
  bool crash_node = false;
  double crash_fraction = 0.0;
  /// Data-integrity draws (also decided at launch on the scheduler thread).
  /// A map attempt re-reads its input block once per corrupt replica; all
  /// `replicas` copies corrupt is `block_data_loss` (no data flow runs). A
  /// reduce attempt re-fetches its bucket once per corrupt fetch; more
  /// corrupt fetches than max_shuffle_fetch_retries is `shuffle_data_loss`.
  int replicas = 1;
  int corrupt_replica_reads = 0;
  bool block_data_loss = false;
  int corrupt_fetches = 0;
  bool shuffle_data_loss = false;
  /// Poison-record plan for this map attempt (points into the logical
  /// task's TaskRunState, stable for the wave's lifetime).
  const std::vector<uint64_t>* poison = nullptr;
  bool skip_mode = false;
  /// Reduce-memory plan, decided at launch on the scheduler thread
  /// (DESIGN.md §6.10). `spill_runs` > 1 means the attempt's simulated
  /// sort state exceeds the task memory budget and it sorts externally in
  /// that many runs, merged in `spill_merge_passes` bounded-memory passes;
  /// the commit bills the pass I/O from `bucket_bytes`. `corrupt_spill`
  /// (drawn like the other corruption faults) makes run 0 read back
  /// corrupt, failing the attempt with DataLoss.
  int spill_runs = 0;
  int spill_merge_passes = 0;
  uint64_t bucket_bytes = 0;
  /// Simulated memory this attempt holds: expanded state when in-memory,
  /// the task budget when spilling. Feeds JobResult::peak_task_memory_bytes.
  uint64_t task_memory_bytes = 0;
  bool corrupt_spill = false;
  TaskOutcome outcome;
};

/// One attempt in flight, keyed by the seq of its completion event. A node
/// crash kills attempts by erasing their registry entry; the completion
/// event of a killed attempt is then simply ignored (its node's slots went
/// down with the node).
struct InFlightAttempt {
  int job_index = 0;
  bool is_map = true;
  int task_id = 0;
  bool speculative = false;  ///< A backup attempt.
  int node = 0;
  bool failed = false;          ///< The attempt dies (injected or real).
  bool poison_failure = false;  ///< It dies on a poison record.
  SimMillis duration = 0;
};

/// Map and reduce context that buffers into the task's own outcome.
class TaskContext : public MapContext, public ReduceContext {
 public:
  TaskContext(TaskOutcome* out, int task_index)
      : out_(out), task_index_(task_index) {}

  void Emit(Value key, Value value) override {
    size_t bytes = key.EncodedSize() + value.EncodedSize();
    out_->emitted_bytes += bytes;
    out_->emission_bytes.push_back(bytes);
    out_->emissions.emplace_back(std::move(key), std::move(value));
  }

  void Output(Value record) override {
    record.EncodeTo(&out_->output.data);
    out_->output.num_records += 1;
  }

  void ChargeCpu(double units) override { extra_cpu_ += units; }

  int task_index() const override { return task_index_; }

  double extra_cpu() const { return extra_cpu_; }

 private:
  TaskOutcome* out_;
  int task_index_;
  double extra_cpu_ = 0.0;
};

/// Exercises the real checksum path for a drawn corruption: flips one byte
/// of a copy of `split` and fails with Internal unless verification
/// rejects it. The stored bytes are never touched.
Status CheckCorruptionCaught(Split copy, const char* what) {
  if (!copy.data.empty()) copy.data[0] ^= 0x01;
  if (!VerifySplit(copy).ok()) return Status::OK();
  return Status::Internal(
      StrFormat("checksum failed to detect a corrupted %s", what));
}

SimMillis CeilDiv(double amount, double rate) {
  if (amount <= 0.0) return 0;
  return static_cast<SimMillis>(std::ceil(amount / rate));
}

/// Runs one map task's data flow and returns the attempt's status.
/// Worker-thread safe: reads only the immutable spec/split and writes only
/// the task-local outcome. (User map functions may still touch shared state
/// of their own — e.g. Coordinator counters — which must be internally
/// synchronized and commutative.)
Status RunMapTask(const MapInput& input, const Split& split, int task_index,
                  const std::vector<uint64_t>* poison, bool skip_mode,
                  TaskOutcome* out) {
  // Verified read: the block checksum is checked before any record is
  // decoded (as HDFS does). At-rest corruption of the stored bytes
  // surfaces here as DataLoss, never as silently wrong rows.
  DYNO_RETURN_IF_ERROR(VerifySplit(split));
  TaskContext ctx(out, task_index);

  // Columnar splits are decoded whole-block into rows first; any frame
  // defect that slipped past the checksum is still DataLoss, never a wrong
  // answer. Row splits stream record-at-a-time as they always have, and a
  // row that does not decode is DataLoss too (SplitReader::Next).
  const bool is_columnar = split.format == SplitFormat::kColumnar;
  std::vector<Value> batch_rows;
  if (is_columnar) {
    // The whole block was read to decode it, so billing is all-or-nothing.
    out->input_bytes =
        input.bill_logical_read ? split.logical_bytes : split.num_bytes();
    out->input_logical_bytes = split.logical_bytes;
    DYNO_ASSIGN_OR_RETURN(batch_rows, DecodeVerifiedSplitRows(split));
    out->batches_decoded += 1;
  }

  // Pushed-down filter over a columnar batch runs batch-at-a-time: the
  // selection vector is computed up front (vectorized conjuncts at a CPU
  // discount) and consulted per row below. The keep bits are identical to
  // row-at-a-time evaluation, so results never depend on the format.
  std::vector<uint8_t> batch_keep;
  if (is_columnar && input.scan_filter != nullptr) {
    DYNO_ASSIGN_OR_RETURN(
        columnar::BatchFilterResult filtered,
        columnar::EvalFilterOverRows(input.scan_filter, batch_rows));
    out->cpu_units += filtered.cpu_units;
    batch_keep = std::move(filtered.keep);
  }

  SplitReader reader(&split);
  size_t poison_next = 0;
  uint64_t record_index = 0;
  const uint64_t num_rows =
      is_columnar ? batch_rows.size() : split.num_records;
  while (true) {
    const Value* record = nullptr;
    Value row_storage;
    if (is_columnar) {
      if (record_index >= num_rows) break;
      record = &batch_rows[record_index];
    } else {
      if (reader.AtEnd()) break;
      DYNO_ASSIGN_OR_RETURN(row_storage, reader.Next());
      record = &row_storage;
      // Accumulated per record so an attempt that errors mid-split still
      // reports how much of the split it actually scanned (billed as read
      // time for the failed attempt).
      out->input_bytes = reader.offset();
      out->input_logical_bytes = reader.offset();
    }
    out->input_records += 1;
    const uint64_t index = record_index++;
    if (poison != nullptr && poison_next < poison->size() &&
        (*poison)[poison_next] == index) {
      ++poison_next;
      out->cpu_units += 1.0;
      if (!skip_mode) {
        // The map function "throws" on this record, killing the attempt.
        out->poison_failure = true;
        return Status::Internal(StrFormat(
            "map function threw on poison record %llu",
            (unsigned long long)index));
      }
      // Skip mode: the record is read (and billed) but never reaches the
      // map function; it goes to the quarantine instead of any output.
      record->EncodeTo(&out->quarantine.data);
      out->quarantine.num_records += 1;
      out->quarantine_indexes.push_back(index);
      continue;
    }
    if (input.scan_filter != nullptr) {
      bool pass;
      if (is_columnar) {
        pass = batch_keep[index] != 0;
      } else {
        // Row splits evaluate the pushed-down filter record-at-a-time at
        // its full declared cost.
        out->cpu_units += input.scan_filter_cpu;
        DYNO_ASSIGN_OR_RETURN(Value v, input.scan_filter->Eval(*record));
        pass = v.type() == Value::Type::kBool && v.bool_value();
      }
      out->cpu_units += 1.0;
      if (!pass) continue;
      out->cpu_units += input.cpu_per_record;
    } else {
      out->cpu_units += 1.0 + input.cpu_per_record;
    }
    DYNO_RETURN_IF_ERROR(input.map_fn(*record, &ctx));
  }
  if (input.flush_fn) DYNO_RETURN_IF_ERROR(input.flush_fn(&ctx));
  out->cpu_units += ctx.extra_cpu();
  return Status::OK();
}

/// Runs one reduce task's data flow over its (moved-in) partition bucket,
/// whose encoded size the scheduler already summed into `bucket_bytes`, and
/// returns the attempt's status.
/// `spill_runs` > 1 switches the sort to the bounded-memory external path:
/// the bucket is cut input-order into that many chunks, each chunk is
/// stable-sorted and round-tripped through the CRC-framed spill-run codec
/// (the encoded runs are staged in the outcome for the DFS write at durable
/// completion), and the decoded runs are stable-merged with ties going to
/// the lowest run index — which is exactly one full stable sort, so spilled
/// output is row-for-row identical to the in-memory path. `corrupt_spill`
/// models a flipped bit in run 0's stored bytes: the checksum must reject
/// it and the attempt dies with DataLoss (never a wrong answer).
Status RunReduceTask(const JobSpec& spec,
                     std::vector<std::pair<Value, Value>> bucket,
                     uint64_t bucket_bytes, int spill_runs, bool corrupt_spill,
                     TaskOutcome* out) {
  out->reduce_input_bytes = bucket_bytes;
  out->reduce_input_records = bucket.size();
  auto key_less = [](const std::pair<Value, Value>& a,
                     const std::pair<Value, Value>& b) {
    return a.first.Compare(b.first) < 0;
  };
  if (spill_runs > 1 && !bucket.empty()) {
    const size_t n = bucket.size();
    const size_t per_run =
        (n + static_cast<size_t>(spill_runs) - 1) /
        static_cast<size_t>(spill_runs);
    std::vector<std::vector<std::pair<Value, Value>>> decoded;
    for (size_t start = 0; start < n; start += per_run) {
      const size_t end = std::min(n, start + per_run);
      std::vector<std::pair<Value, Value>> run(
          std::make_move_iterator(bucket.begin() + start),
          std::make_move_iterator(bucket.begin() + end));
      std::stable_sort(run.begin(), run.end(), key_less);
      out->spill_runs_written.push_back(EncodeSpillRun(run));
    }
    if (corrupt_spill) {
      DYNO_RETURN_IF_ERROR(
          CheckCorruptionCaught(out->spill_runs_written.front(), "spill run"));
      return Status::DataLoss(StrFormat(
          "spill run 0 of reduce task in %s failed checksum verification "
          "on read-back",
          spec.name.c_str()));
    }
    for (const Split& s : out->spill_runs_written) {
      DYNO_ASSIGN_OR_RETURN(auto run, DecodeSpillRun(s));
      decoded.push_back(std::move(run));
    }
    // Bounded-memory merge of the sorted runs; ties go to the lowest run
    // index, matching what one stable sort of the whole bucket yields.
    bucket.clear();
    bucket.reserve(n);
    std::vector<size_t> pos(decoded.size(), 0);
    while (true) {
      int best = -1;
      for (size_t r = 0; r < decoded.size(); ++r) {
        if (pos[r] >= decoded[r].size()) continue;
        if (best < 0 ||
            decoded[r][pos[r]].first.Compare(
                decoded[best][pos[best]].first) < 0) {
          best = static_cast<int>(r);
        }
      }
      if (best < 0) break;
      bucket.push_back(std::move(decoded[best][pos[best]]));
      ++pos[best];
    }
  } else {
    std::stable_sort(bucket.begin(), bucket.end(), key_less);
  }

  TaskContext ctx(out, /*task_index=*/-1);
  out->cpu_units += static_cast<double>(bucket.size());
  size_t i = 0;
  while (i < bucket.size()) {
    size_t j = i + 1;
    while (j < bucket.size() &&
           bucket[j].first.Compare(bucket[i].first) == 0) {
      ++j;
    }
    std::vector<Value> values;
    values.reserve(j - i);
    for (size_t k = i; k < j; ++k) values.push_back(bucket[k].second);
    DYNO_RETURN_IF_ERROR(spec.reduce_fn(bucket[i].first, values, &ctx));
    i = j;
  }
  out->cpu_units += ctx.extra_cpu();

  // n log n sort charge for the merge-sort of this partition.
  if (!bucket.empty()) {
    out->cpu_units += static_cast<double>(bucket.size()) *
                      std::log2(static_cast<double>(bucket.size()) + 1.0);
  }
  return Status::OK();
}

/// The billed part of an attempt that dies `fraction` of the way through
/// its `full` duration (at least 1 ms).
SimMillis FailedPart(SimMillis full, double fraction) {
  return std::max<SimMillis>(
      1, static_cast<SimMillis>(std::ceil(static_cast<double>(full) * fraction)));
}

/// Runs one launched attempt's data flow (on a worker thread when the wave
/// runs on the pool) and returns its status. Touches only the launch.
Status RunAttempt(TaskLaunch& t) {
  // Attempts with an injected failure never run their data flow: the
  // simulated container dies. Re-running user code here would repeat its
  // side effects (Coordinator counters), which real retried tasks do too,
  // but would break the simulator's exactly-once accounting.
  if (t.inject_failure) return Status::OK();
  // Drawn corruption is exercised against the *real* checksum machinery:
  // each corrupt copy is modeled by flipping one byte of a scratch copy of
  // the payload and verifying the stored CRC rejects it. The shared split /
  // bucket is never mutated, so healed re-reads decode the intact original
  // bytes.
  if (t.corrupt_replica_reads > 0 && t.is_map && t.split != nullptr &&
      !t.split->data.empty()) {
    DYNO_RETURN_IF_ERROR(CheckCorruptionCaught(*t.split, "block replica"));
  }
  if (t.corrupt_fetches > 0 && !t.is_map && !t.bucket.empty()) {
    DYNO_RETURN_IF_ERROR(CheckCorruptionCaught(
        EncodeSpillRun({t.bucket.front()}), "shuffle frame"));
  }
  // Data-loss attempts never get a clean copy: no data flow runs.
  if (t.block_data_loss || t.shuffle_data_loss) return Status::OK();
  return t.is_map ? RunMapTask(t.job->spec->inputs[t.map_ref.input_index],
                               *t.split, t.task_index, t.poison, t.skip_mode,
                               &t.outcome)
                  : RunReduceTask(*t.job->spec, std::move(t.bucket),
                                  t.bucket_bytes, t.spill_runs,
                                  t.corrupt_spill, &t.outcome);
}

}  // namespace

Split EncodeSpillRun(const std::vector<std::pair<Value, Value>>& pairs) {
  Split run;
  for (const auto& [key, value] : pairs) {
    key.EncodeTo(&run.data);
    value.EncodeTo(&run.data);
  }
  run.num_records = 2 * pairs.size();
  run.logical_bytes = run.data.size();
  run.crc32c = Crc32c(run.data);
  return run;
}

Result<std::vector<std::pair<Value, Value>>> DecodeSpillRun(
    const Split& run) {
  DYNO_RETURN_IF_ERROR(VerifySplit(run));
  if (run.num_records % 2 != 0) {
    return Status::DataLoss(StrFormat(
        "spill run holds %llu records, not an even key/value count",
        (unsigned long long)run.num_records));
  }
  std::vector<std::pair<Value, Value>> pairs;
  pairs.reserve(run.num_records / 2);
  SplitReader reader(&run);
  while (!reader.AtEnd()) {
    Result<Value> key = reader.Next();
    if (!key.ok()) return key.status();
    if (reader.AtEnd()) {
      return Status::DataLoss("spill run ends with a dangling key");
    }
    Result<Value> value = reader.Next();
    if (!value.ok()) return value.status();
    pairs.emplace_back(std::move(*key), std::move(*value));
  }
  return pairs;
}

ClusterConfig MapReduceEngine::ResolveFaultEnv(ClusterConfig config) {
  if (config.faults.use_env_defaults && !config.faults.enabled()) {
    config.faults.ApplyEnvOverrides();
  }
  // The memory knobs ride the same gate: env-driven only when the caller
  // did not configure a memory mode in code.
  if (config.faults.use_env_defaults &&
      config.reduce_memory_mode == ClusterConfig::ReduceMemoryMode::kUnbounded) {
    config.ApplyMemoryEnvOverrides();
  }
  return config;
}

MapReduceEngine::MapReduceEngine(Dfs* dfs, ClusterConfig config)
    : dfs_(dfs), config_(ResolveFaultEnv(std::move(config))) {
  node_states_.assign(std::max(1, config_.num_nodes), NodeState{});
}

MapReduceEngine::~MapReduceEngine() = default;

Result<JobResult> MapReduceEngine::Submit(const JobSpec& spec) {
  DYNO_ASSIGN_OR_RETURN(std::vector<JobResult> results, SubmitAll({spec}));
  return results[0];
}

Result<std::vector<JobResult>> MapReduceEngine::SubmitAll(
    const std::vector<JobSpec>& specs) {
  if (submit_gate_) return submit_gate_(specs);
  return SubmitAllDirect(specs);
}

namespace {

// --- Launch-time and shuffle-time decisions: functions of the
// configuration and of the job or launch they decide for. ---

// Effective reduce-memory mode of one job: the per-job override wins,
// otherwise the cluster-wide knob applies (DESIGN.md §6.10).
ClusterConfig::ReduceMemoryMode MemoryMode(const ClusterConfig& config,
                                           const JobSpec& spec) {
  if (spec.reduce_memory_mode >= 0) {
    return static_cast<ClusterConfig::ReduceMemoryMode>(
        spec.reduce_memory_mode);
  }
  return config.reduce_memory_mode;
}

/// True when the phase has no task left to run or wait for.
bool PhaseDrained(const RunningJob& job, bool is_map) {
  const TaskPhase& phase = job.tasks(is_map);
  return !job.failed && phase.pending.empty() && phase.remaining == 0 &&
         job.phase == (is_map ? JobPhase::kMap : JobPhase::kReduce);
}

// Data-integrity draws. They consume stream draws only when the corruption
// knobs are on, so corruption-free runs keep the exact draw sequence of
// earlier engine versions.
void DrawIntegrityFaults(const FaultConfig& f, TaskLaunch* launch) {
  RunningJob& job = *launch->job;
  Rng& rng = *job.fault_rng;
  if (launch->is_map) {
    launch->replicas = std::max(
        1, job.spec->inputs[launch->map_ref.input_index].file->replicas());
    if (f.block_corruption_rate > 0.0) {
      // Sequential replica reads: each independently corrupt with the
      // configured rate; stop at the first clean copy.
      int bad = 0;
      while (bad < launch->replicas && rng.Bernoulli(f.block_corruption_rate)) {
        ++bad;
      }
      launch->corrupt_replica_reads = bad;
    }
    PoisonPlan& plan = job.maps.states[launch->task_id].poison;
    if (f.poison_record_rate > 0.0 && !plan.drawn) {
      plan.drawn = true;
      for (uint64_t r = 0; r < launch->split->num_records; ++r) {
        if (rng.Bernoulli(f.poison_record_rate)) plan.records.push_back(r);
      }
    }
  } else if (f.shuffle_corruption_rate > 0.0 &&
             !job.partitions[launch->task_id].empty()) {
    const int tries = 1 + std::max(0, f.max_shuffle_fetch_retries);
    int bad = 0;
    while (bad < tries && rng.Bernoulli(f.shuffle_corruption_rate)) ++bad;
    launch->corrupt_fetches = bad;
  }
  // A spilling reduce attempt's run read-back can hit a flipped bit too.
  // The draw is consumed only when the attempt actually spills (possible
  // only with the memory mode on), so corruption campaigns without the
  // memory model keep their exact historical draw sequence.
  if (!launch->is_map && launch->spill_runs > 1 &&
      f.block_corruption_rate > 0.0 && rng.Bernoulli(f.block_corruption_rate)) {
    launch->corrupt_spill = true;
  }
}

// Scripted corruption: exact placement for tests, no draws consumed.
void ApplyScriptedCorruptions(const FaultConfig& f, TaskLaunch* launch) {
  const RunningJob& job = *launch->job;
  const TaskRunState& st = job.tasks(launch->is_map).states[launch->task_id];
  for (const auto& sc : f.scripted_corruptions) {
    const bool is_block =
        sc.target == FaultConfig::ScriptedCorruption::Target::kBlock;
    if (is_block != launch->is_map || sc.job != job.spec->name ||
        sc.task_id != launch->task_id || sc.attempt != st.failures + 1) {
      continue;
    }
    // An unscoped script matches any query (single-driver legacy); a scoped
    // one only hits the query it names.
    if (!sc.query.empty() && sc.query != job.spec->query_id) continue;
    if (launch->is_map) {
      launch->corrupt_replica_reads = std::clamp(sc.count, 0, launch->replicas);
    } else if (sc.target == FaultConfig::ScriptedCorruption::Target::kSpill) {
      // Fires only when the attempt actually spills: an in-memory attempt
      // has no run files to corrupt.
      if (launch->spill_runs > 1) launch->corrupt_spill = sc.count > 0;
    } else if (!job.partitions[launch->task_id].empty()) {
      launch->corrupt_fetches = std::clamp(
          sc.count, 0, 1 + std::max(0, f.max_shuffle_fetch_retries));
    }
  }
}

// Launch-time fault draws, on the scheduler thread, from the job's own
// stream — the order of draws depends only on the (deterministic) launch
// order, never on worker timing.
void DrawFaults(const FaultConfig& f, TaskLaunch* launch) {
  if (!launch->job->fault_rng.has_value()) return;
  Rng& rng = *launch->job->fault_rng;
  if (f.task_failure_rate > 0.0 && rng.Bernoulli(f.task_failure_rate)) {
    launch->inject_failure = true;
    // The container dies somewhere in the latter 75% of the attempt.
    launch->fail_fraction = 0.25 + 0.75 * rng.NextDouble();
  }
  if (f.straggler_rate > 0.0 && rng.Bernoulli(f.straggler_rate)) {
    launch->slowdown = std::max(1.0, f.straggler_slowdown);
  }
  if (f.node_failure_rate > 0.0 && rng.Bernoulli(f.node_failure_rate)) {
    // The hosting node dies somewhere during this attempt; the absolute
    // crash time is computed at commit, once the duration is known.
    launch->crash_node = true;
    launch->crash_fraction = rng.NextDouble();
  }
  DrawIntegrityFaults(f, launch);
  ApplyScriptedCorruptions(f, launch);
  if (launch->is_map && launch->corrupt_replica_reads > 0 &&
      launch->corrupt_replica_reads >= launch->replicas) {
    launch->block_data_loss = true;
  }
  if (!launch->is_map &&
      launch->corrupt_fetches > std::max(0, f.max_shuffle_fetch_retries)) {
    launch->shuffle_data_loss = true;
  }
}

// Hands a reduce launch its partition bucket. With retries on, the bucket
// is copied so a retry after a *real* reduce error finds it in place (it
// is released when an attempt completes); an attempt with an injected
// failure never runs, and the commit sizes it from the bucket left behind.
void HandOffBucket(bool retries_enabled, TaskLaunch* launch) {
  RunningJob& job = *launch->job;
  if (launch->inject_failure) return;
  if (retries_enabled) {
    launch->bucket = job.partitions[launch->task_id];
  } else {
    launch->bucket = std::move(job.partitions[launch->task_id]);
    job.partition_bytes[launch->task_id] = 0;
  }
}

/// Why a failed attempt failed, as its task's last error.
Status AttemptError(const FaultConfig& f, const TaskLaunch& t) {
  const std::string& name = t.job->spec->name;
  const int attempt = t.job->tasks(t.is_map).states[t.task_id].failures + 1;
  if (t.inject_failure) {
    return Status::Internal(StrFormat(
        "injected failure: %s task %d of %s, attempt %d",
        t.is_map ? "map" : "reduce", t.task_id, name.c_str(), attempt));
  }
  if (t.block_data_loss) {
    return Status::DataLoss(StrFormat(
        "all %d replicas of the input block for map task %d of %s failed "
        "checksum verification (attempt %d)",
        t.replicas, t.task_id, name.c_str(), attempt));
  }
  if (t.shuffle_data_loss) {
    return Status::DataLoss(StrFormat(
        "shuffle fetch for reduce task %d of %s failed checksum "
        "verification %d times, exhausting %d re-fetches (attempt %d)",
        t.task_id, name.c_str(), t.corrupt_fetches,
        std::max(0, f.max_shuffle_fetch_retries), attempt));
  }
  return t.outcome.status;
}

// Capped + jittered exponential backoff before re-queueing a failed attempt
// (the legacy retry_backoff_ms * 2^n grew unbounded). The jitter is drawn
// from the job's fault stream on the scheduler thread, so it de-synchronizes
// concurrent retries while staying bit-identical across execution thread
// counts.
SimMillis RetryBackoff(const FaultConfig& f, int failures, RunningJob* job) {
  SimMillis backoff =
      f.retry_backoff_ms * (SimMillis{1} << std::min(failures - 1, 16));
  if (f.max_backoff_ms > 0) backoff = std::min(backoff, f.max_backoff_ms);
  if (f.retry_jitter_fraction > 0.0 && backoff > 0 &&
      job->fault_rng.has_value()) {
    backoff += static_cast<SimMillis>(f.retry_jitter_fraction *
                                      static_cast<double>(backoff) *
                                      job->fault_rng->NextDouble());
  }
  return backoff;
}

// First shuffle: fix the reducer count for the job's lifetime (a re-shuffle
// after a node crash must not re-deal the keys).
void PlanReducers(const ClusterConfig& config, uint64_t total_emitted,
                  RunningJob* job) {
  int reducers = job->spec->num_reduce_tasks;
  if (reducers <= 0) {
    reducers =
        static_cast<int>(total_emitted / config.bytes_per_reduce_task + 1);
    reducers = std::clamp(reducers, 1, config.reduce_slots);
  }
  job->num_reduce_tasks = reducers;
  job->result.reduce_tasks_planned = reducers;
  job->reduces.Assign(reducers);
}

// (Re)builds the partition buckets of not-yet-completed reducers from the
// staged emissions in task-id order — the same order a fault-free run's
// commits feed the shuffle, so reducer input (and thus output) bytes are
// identical whether or not maps were re-executed. Emissions are retained
// per task while node crashes are possible, since a lost node forces
// exactly this rebuild.
void Repartition(bool retain_emissions, RunningJob* job) {
  const int reducers = job->num_reduce_tasks;
  job->partitions.assign(reducers, {});
  job->partition_bytes.assign(reducers, 0);
  for (TaskData& d : job->maps.data) {
    if (!d.valid) continue;
    for (size_t i = 0; i < d.emissions.size(); ++i) {
      auto& kv = d.emissions[i];
      size_t p = kv.first.Hash() % static_cast<size_t>(reducers);
      if (job->reduces.states[p].completed) continue;
      job->partition_bytes[p] += d.emission_bytes[i];
      if (retain_emissions) {
        job->partitions[p].push_back(kv);
      } else {
        job->partitions[p].emplace_back(std::move(kv.first),
                                        std::move(kv.second));
      }
    }
    if (!retain_emissions) {
      d.emissions.clear();
      d.emissions.shrink_to_fit();
      d.emission_bytes.clear();
      d.emission_bytes.shrink_to_fit();
    }
  }
}

}  // namespace

/// One SubmitAllDirect call: the discrete-event simulation of a batch of
/// concurrently submitted jobs, one method per phase. It all runs on the
/// scheduler thread; worker threads touch only their own TaskLaunch, so
/// results are bit-identical at any execution thread count.
class MapReduceEngine::WaveRun {
 public:
  explicit WaveRun(MapReduceEngine* engine);

  Result<std::vector<JobResult>> Run(const std::vector<JobSpec>& specs);

 private:
  /// Instrument pointers, cached once per submission so the hot paths pay
  /// only a relaxed atomic per update. All null without a registry.
  struct Instruments {
    obs::Counter* jobs = nullptr;
    obs::Counter* map_attempts = nullptr;
    obs::Counter* reduce_attempts = nullptr;
    obs::Counter* retries = nullptr;
    obs::Counter* injected = nullptr;
    obs::Counter* spec_launches = nullptr;
    obs::Counter* spec_wins = nullptr;
    obs::Counter* node_crashes = nullptr;
    obs::Counter* node_recoveries = nullptr;
    obs::Counter* node_kills = nullptr;
    obs::Counter* maps_invalidated = nullptr;
    obs::Counter* shuffle_retries = nullptr;
    obs::Counter* block_corruptions = nullptr;
    obs::Counter* checksum_refetches = nullptr;
    obs::Counter* quarantined = nullptr;
    obs::Counter* integrity_failures = nullptr;
    /// Registered lazily on the first committed columnar decode, spill or
    /// OOM, so runs that never see one keep their exact metric registry.
    obs::Counter* scan_batches = nullptr;
    obs::Counter* spilled_tasks = nullptr;
    obs::Counter* spill_bytes = nullptr;
    obs::Counter* oom_failures = nullptr;
    obs::Histogram* map_ms = nullptr;
    obs::Histogram* reduce_ms = nullptr;
    obs::Histogram* job_ms = nullptr;
  };

  // Setup.
  Status SetupJobs(const std::vector<JobSpec>& specs);
  void RecordSubmits();
  void ProvisionNodes();
  void ProvisionNode(int node);
  int NodeCapacity(int total, int node) const;
  // Launch.
  void Schedule();
  void LaunchPending(RunningJob& job, bool is_map,
                     std::vector<TaskLaunch>* wave);
  void PrepareMapLaunch(TaskLaunch* launch);
  void PlanReduceMemory(TaskLaunch* launch);
  int PickNode(bool is_map, int exclude) const;
  // Speculation.
  void Speculate();
  void MaybeSpeculate(RunningJob& job, bool is_map);
  void PushSpeculationWakeup(RunningJob& job, bool is_map);
  // Execute and commit.
  void ExecuteWave(std::vector<TaskLaunch>& wave);
  void CommitAttempt(TaskLaunch& t);
  SimMillis BillMapAttempt(const TaskLaunch& t, double obs_charge);
  SimMillis BillReduceAttempt(const TaskLaunch& t, double obs_charge);
  SimMillis BillSpill(const TaskLaunch& t);
  void RecordIntegrity(const TaskLaunch& t);
  void RecordAttempt(const TaskLaunch& t, SimMillis duration, bool ok);
  // Phase transitions.
  void OnJobReady(RunningJob& job);
  void OnMapPhaseComplete(RunningJob& job);
  bool FitsReduceMemory(RunningJob& job);
  void StartShuffle(RunningJob& job, uint64_t total_emitted);
  void OnShuffleDone(RunningJob& job, const Event& ev);
  // Attempt completion.
  void OnAttemptDone(const Event& ev);
  void CompleteTask(RunningJob& job, const InFlightAttempt& a);
  bool RetryFailedAttempt(RunningJob& job, const InFlightAttempt& a);
  void ApplyDurableCompletion(RunningJob& job, bool is_map, int task_id);
  // Nodes.
  void OnNodeCrash(int node, bool scripted);
  int KillAttempts(const std::function<bool(const InFlightAttempt&)>& match,
                   bool refund);
  void InvalidateMapOutputs(RunningJob& job, int node);
  void OnNodeRecover(const Event& ev);
  bool ClusterDoomedFor(const RunningJob& job) const;
  void FailDoomed(RunningJob& job);
  // Job end.
  void FinishJob(RunningJob& job);
  void FailJob(RunningJob& job, Status status);
  void DrainFailedJob(RunningJob& job);
  void EndJob(RunningJob& job);
  void CountLazily(obs::Counter** counter, const char* name, uint64_t n);
  obs::TraceEvent TaskEvent(const char* name, const RunningJob& job,
                            int task_id) const;
  // Event loop and results.
  void HandleEvent(const Event& ev);
  uint64_t Push(Event ev);
  std::vector<JobResult> Finalize();

  std::vector<int>& free_per_node(bool is_map) {
    return is_map ? free_map_ : free_reduce_;
  }
  int FreeSlots(bool is_map) const;

  MapReduceEngine* const engine_;
  const ClusterConfig& config_;
  SimMillis& now_;  ///< The engine's clock.
  std::vector<NodeState>& nodes_;
  const int num_nodes_;
  obs::TraceSink* const trace_;
  obs::MetricsRegistry* const metrics_;
  /// Whether failed task attempts are retried (Hadoop semantics) instead
  /// of failing the whole job at the first error (legacy fail-fast).
  const bool retries_enabled_;
  const int max_attempts_;
  /// Wave-pressure bookkeeping (see last_wave_pressure()): committed slot
  /// time against the slot capacity available over the wave's duration.
  const SimMillis wave_start_ms_;
  const SimMillis busy_before_ms_;
  Instruments m_;

  std::vector<RunningJob> jobs_;
  int unfinished_ = 0;
  std::priority_queue<Event, std::vector<Event>, EventLater> events_;
  uint64_t seq_ = 0;
  /// Attempts currently executing, keyed by the seq of their completion
  /// event. Killing an attempt = erasing its entry; its completion event is
  /// then ignored. std::map iterates in seq (launch) order, keeping crash
  /// handling deterministic.
  std::map<uint64_t, InFlightAttempt> in_flight_;
  /// Free slots per node; a dead node holds none.
  std::vector<int> free_map_;
  std::vector<int> free_reduce_;
  int alive_nodes_ = 0;
};

Result<std::vector<JobResult>> MapReduceEngine::SubmitAllDirect(
    const std::vector<JobSpec>& specs) {
  WaveRun run(this);
  return run.Run(specs);
}

MapReduceEngine::WaveRun::WaveRun(MapReduceEngine* engine)
    : engine_(engine),
      config_(engine->config_),
      now_(engine->now_),
      nodes_(engine->node_states_),
      num_nodes_(static_cast<int>(engine->node_states_.size())),
      trace_(engine->trace_),
      metrics_(engine->metrics_),
      retries_enabled_(engine->config_.faults.enabled()),
      max_attempts_(std::max(1, engine->config_.faults.max_task_attempts)),
      wave_start_ms_(engine->now_),
      busy_before_ms_(engine->busy_slot_ms_total_) {
  free_map_.assign(num_nodes_, 0);
  free_reduce_.assign(num_nodes_, 0);
  if (metrics_ == nullptr) return;
  m_.jobs = metrics_->GetCounter("mr.jobs");
  m_.map_attempts = metrics_->GetCounter("mr.map_attempts");
  m_.reduce_attempts = metrics_->GetCounter("mr.reduce_attempts");
  m_.retries = metrics_->GetCounter("mr.task_retries");
  m_.injected = metrics_->GetCounter("mr.task_failures_injected");
  m_.spec_launches = metrics_->GetCounter("mr.speculative_launches");
  m_.spec_wins = metrics_->GetCounter("mr.speculative_wins");
  m_.node_crashes = metrics_->GetCounter("mr.node_crashes");
  m_.node_recoveries = metrics_->GetCounter("mr.node_recoveries");
  m_.node_kills = metrics_->GetCounter("mr.node_attempt_kills");
  m_.maps_invalidated = metrics_->GetCounter("mr.maps_invalidated");
  m_.shuffle_retries = metrics_->GetCounter("mr.shuffle_fetch_retries");
  m_.block_corruptions =
      metrics_->GetCounter("mr.integrity_block_corruptions");
  m_.checksum_refetches =
      metrics_->GetCounter("mr.integrity_shuffle_refetches");
  m_.quarantined = metrics_->GetCounter("mr.integrity_records_quarantined");
  m_.integrity_failures =
      metrics_->GetCounter("mr.integrity_data_loss_failures");
  m_.map_ms = metrics_->GetHistogram("mr.map_attempt_ms");
  m_.reduce_ms = metrics_->GetHistogram("mr.reduce_attempt_ms");
  m_.job_ms = metrics_->GetHistogram("mr.job_ms");
}

Result<std::vector<JobResult>> MapReduceEngine::WaveRun::Run(
    const std::vector<JobSpec>& specs) {
  DYNO_RETURN_IF_ERROR(SetupJobs(specs));
  RecordSubmits();
  // Size the worker pool to the configured thread count. The pool persists
  // across submissions and is resized lazily when the config changes.
  const int want_threads = config_.execution_threads;
  std::unique_ptr<WorkerPool>& pool = engine_->pool_;
  if (want_threads <= 1) {
    pool.reset();
  } else if (pool == nullptr || pool->size() != want_threads) {
    pool = std::make_unique<WorkerPool>(want_threads);
  }
  for (const RunningJob& job : jobs_) {
    Push({.time = job.ready_time,
          .kind = EventKind::kJobReady,
          .job_index = job.job_index});
  }
  ProvisionNodes();

  unfinished_ = static_cast<int>(jobs_.size());
  while (unfinished_ > 0) {
    Schedule();
    if (events_.empty()) {
      if (unfinished_ > 0) {
        return Status::Internal("scheduler deadlock: jobs pending, no events");
      }
      break;
    }
    Event ev = events_.top();
    events_.pop();
    now_ = std::max(now_, ev.time);
    HandleEvent(ev);
    // Drain every event at this same timestamp before rescheduling, so all
    // slots freed at one simulated instant are refilled as a single wave —
    // that wave is what the worker pool executes in parallel.
    while (!events_.empty() && events_.top().time <= now_) {
      Event next = events_.top();
      events_.pop();
      HandleEvent(next);
    }
  }
  return Finalize();
}

// --- Setup. ---

Status MapReduceEngine::WaveRun::SetupJobs(const std::vector<JobSpec>& specs) {
  jobs_.resize(specs.size());
  for (size_t i = 0; i < specs.size(); ++i) {
    const JobSpec& spec = specs[i];
    if (spec.inputs.empty()) {
      return Status::InvalidArgument("job has no inputs: " + spec.name);
    }
    if (spec.output_path.empty()) {
      return Status::InvalidArgument("job has no output path: " + spec.name);
    }
    if (spec.reduce_memory_mode < -1 || spec.reduce_memory_mode > 2) {
      return Status::InvalidArgument(
          StrFormat("bad reduce_memory_mode %d in %s",
                    spec.reduce_memory_mode, spec.name.c_str()));
    }
    RunningJob& job = jobs_[i];
    job.spec = &spec;
    job.job_index = static_cast<int>(i);
    job.ready_time =
        now_ + (spec.reuse_warm_containers ? 0 : config_.job_startup_ms);
    job.result.submit_time_ms = now_;
    for (size_t in = 0; in < spec.inputs.size(); ++in) {
      const MapInput& input = spec.inputs[in];
      if (input.file == nullptr) {
        return Status::InvalidArgument("null input file in " + spec.name);
      }
      if (input.split_indexes.empty()) {
        // With split_indexes_exact, an empty list is a fully-pruned scan:
        // this input contributes zero map tasks.
        if (input.split_indexes_exact) continue;
        for (size_t s = 0; s < input.file->splits().size(); ++s) {
          job.map_defs.push_back({static_cast<int>(in), static_cast<int>(s)});
        }
      } else {
        for (int s : input.split_indexes) {
          if (s < 0 || static_cast<size_t>(s) >= input.file->splits().size()) {
            return Status::InvalidArgument(
                StrFormat("split index %d out of range in %s", s,
                          spec.name.c_str()));
          }
          job.map_defs.push_back({static_cast<int>(in), s});
        }
      }
    }
    job.maps.Assign(job.map_defs.size());
    for (size_t t = 0; t < job.map_defs.size(); ++t) {
      job.maps.pending.push_back({static_cast<int>(t), 0});
    }
    if (retries_enabled_) {
      // Per-job fault stream. Jobs are identified by name for legacy
      // submissions; when a query id is present it salts the seed so two
      // concurrent queries submitting identically-named jobs (e.g. "scan")
      // draw independent faults instead of sharing one RNG stream.
      uint64_t fault_seed = HashBytes(spec.name, Mix64(config_.faults.seed));
      if (!spec.query_id.empty()) {
        fault_seed = HashBytes(spec.query_id, fault_seed);
      }
      job.fault_rng.emplace(fault_seed);
    }
    auto output = engine_->dfs_->Create(spec.output_path);
    if (!output.ok()) return output.status();
    job.output = *output;
  }
  return Status::OK();
}

void MapReduceEngine::WaveRun::RecordSubmits() {
  if (trace_ == nullptr) return;
  for (const RunningJob& job : jobs_) {
    obs::TraceEvent ev =
        obs::TraceEvent(now_, -1, obs::TraceLane::kEngine, "mr", "job_submit")
            .Arg("job", job.spec->name)
            .ArgInt("map_tasks", (int64_t)job.map_defs.size())
            .ArgBool("map_only", job.spec->reduce_fn == nullptr);
    // The query tag is appended last and only for query-scoped jobs, so
    // legacy (empty query_id) traces keep their exact historical bytes.
    if (!job.spec->query_id.empty()) {
      std::move(ev).Arg("query", job.spec->query_id);
    }
    trace_->Record(std::move(ev));
  }
}

// Node fault domains: slots live on nodes. Node liveness persists across
// submissions; the event queue and the slot pools do not.
void MapReduceEngine::WaveRun::ProvisionNodes() {
  // Nodes whose recovery time passed while the engine was idle rejoin now;
  // still-pending recoveries re-enter the event queue.
  for (int n = 0; n < num_nodes_; ++n) {
    NodeState& ns = nodes_[n];
    if (!ns.alive && ns.recover_at >= 0 && ns.recover_at <= now_) {
      ns.alive = true;
    }
    if (!ns.alive && ns.recover_at > now_) {
      Push({.time = ns.recover_at, .kind = EventKind::kNodeRecover, .node = n});
    }
    if (ns.alive) ProvisionNode(n);
  }
  // Scripted crashes that have not fired yet (test/chaos hook); re-pushed
  // every submission until they fire, consumed exactly once.
  const auto& scripts = config_.faults.scripted_node_crashes;
  for (size_t c = engine_->scripted_crashes_consumed_; c < scripts.size();
       ++c) {
    Push({.time = std::max(scripts[c].at_ms, now_),
          .kind = EventKind::kNodeCrash,
          .node = scripts[c].node,
          .scripted = true});
  }
}

/// A live node joins the slot pools with full capacity and empty disks.
void MapReduceEngine::WaveRun::ProvisionNode(int node) {
  ++alive_nodes_;
  free_map_[node] = NodeCapacity(config_.map_slots, node);
  free_reduce_[node] = NodeCapacity(config_.reduce_slots, node);
}

int MapReduceEngine::WaveRun::FreeSlots(bool is_map) const {
  const std::vector<int>& free = is_map ? free_map_ : free_reduce_;
  return std::accumulate(free.begin(), free.end(), 0);
}

// Slots divided evenly across nodes, remainder to the low ids. Total
// capacity is exactly map_slots/reduce_slots, so with every node alive
// scheduling behaves as the flat slot pool did.
int MapReduceEngine::WaveRun::NodeCapacity(int total, int node) const {
  return total / num_nodes_ + (node < total % num_nodes_ ? 1 : 0);
}

// --- Launch. ---

// Assigns free slots to pending tasks (FIFO across jobs), executes the
// resulting wave of task data flows — in parallel on the worker pool when
// one is configured — and commits the outcomes in launch order. All launch
// decisions, including stop-condition checks and fault draws, observe only
// *committed* state: no task is in flight while they are made, which is
// what makes the simulation bit-identical for any thread count.
void MapReduceEngine::WaveRun::Schedule() {
  std::vector<TaskLaunch> wave;
  for (RunningJob& job : jobs_) {
    if (job.phase == JobPhase::kMap && now_ >= job.ready_time) {
      // The stop condition is evaluated once per scheduling pass, before
      // the wave launches: concurrently launched tasks cannot observe each
      // other's output (they couldn't on a real cluster either); tasks
      // already running always finish their whole split (§4.2).
      std::deque<PendingTask>& pending = job.maps.pending;
      if (!pending.empty() && job.spec->stop_condition &&
          job.spec->stop_condition()) {
        job.result.map_tasks_skipped += static_cast<int>(pending.size());
        job.maps.remaining -= static_cast<int>(pending.size());
        pending.clear();
      }
      LaunchPending(job, /*is_map=*/true, &wave);
      if (PhaseDrained(job, /*is_map=*/true)) OnMapPhaseComplete(job);
    }
    if (job.phase == JobPhase::kReduce) {
      LaunchPending(job, /*is_map=*/false, &wave);
    }
  }
  Speculate();
  if (wave.empty()) return;
  ExecuteWave(wave);
  for (TaskLaunch& t : wave) CommitAttempt(t);
  // New launches can only cross the speculation cutoff later; make sure a
  // pass happens when the earliest one does.
  for (RunningJob& job : jobs_) {
    if (job.failed) continue;
    if (job.phase == JobPhase::kMap || job.phase == JobPhase::kShuffle) {
      PushSpeculationWakeup(job, /*is_map=*/true);
    }
    if (job.phase == JobPhase::kReduce) {
      PushSpeculationWakeup(job, /*is_map=*/false);
    }
  }
}

// Launches the job's pending tasks of one phase while slots are free,
// skipping (and keeping, in order) tasks whose retry backoff has not
// elapsed yet.
void MapReduceEngine::WaveRun::LaunchPending(RunningJob& job, bool is_map,
                                             std::vector<TaskLaunch>* wave) {
  TaskPhase& phase = job.tasks(is_map);
  std::deque<PendingTask> deferred;
  while (FreeSlots(is_map) > 0 && !phase.pending.empty()) {
    PendingTask next = phase.pending.front();
    phase.pending.pop_front();
    if (next.not_before > now_) {
      deferred.push_back(next);  // Backoff not elapsed yet.
      continue;
    }
    TaskLaunch launch;
    launch.job = &job;
    launch.is_map = is_map;
    launch.task_id = next.task_id;
    if (phase.states[next.task_id].failures > 0) {
      ++job.result.task_retries;
      if (m_.retries != nullptr) m_.retries->Add();
    }
    // The reduce-memory plan is decided before the fault draws, which gate
    // the spill-corruption draw on it.
    if (is_map) {
      PrepareMapLaunch(&launch);
    } else {
      PlanReduceMemory(&launch);
    }
    DrawFaults(config_.faults, &launch);
    if (is_map) {
      // Poison positions are a property of the split's data: every attempt
      // of this logical task sees the plan DrawFaults drew at its first
      // launch. Skip mode is per-task state flipped after repeated poison
      // failures.
      const PoisonPlan& plan = phase.states[next.task_id].poison;
      if (!plan.records.empty()) launch.poison = &plan.records;
      launch.skip_mode = plan.skip_mode;
    } else {
      HandOffBucket(retries_enabled_, &launch);
    }
    // A free slot guarantees some alive node has one.
    launch.node = PickNode(is_map, /*exclude=*/-1);
    --free_per_node(is_map)[launch.node];
    ++phase.active;
    wave->push_back(std::move(launch));
  }
  phase.pending.insert(phase.pending.begin(), deferred.begin(),
                       deferred.end());
}

void MapReduceEngine::WaveRun::PrepareMapLaunch(TaskLaunch* launch) {
  RunningJob& job = *launch->job;
  launch->map_ref = job.map_defs[launch->task_id];
  const MapInput& input = job.spec->inputs[launch->map_ref.input_index];
  launch->split = &input.file->splits()[launch->map_ref.split_index];
  // Charges for loading broadcast side data, honoring the distributed-cache
  // mode (first `num_nodes` tasks pay; later waves find it cached locally).
  const uint64_t side_bytes = job.spec->side_load_bytes;
  if (side_bytes > 0 && !(job.spec->side_data_via_distributed_cache &&
                          job.map_seq >= config_.num_nodes)) {
    launch->setup_ms = CeilDiv(static_cast<double>(side_bytes),
                               config_.side_load_bytes_per_ms);
  }
  launch->task_index = job.map_seq;
  ++job.map_seq;
}

// The simulated sort/hash state is the bucket's bytes scaled by
// reduce_memory_factor; over budget in spill mode, the attempt sorts
// externally in ceil(state / budget) runs (capped at one run per record)
// and merges them fan_in-at-a-time. FitsReduceMemory already failed the
// job if the plan would exceed max_spill_runs.
void MapReduceEngine::WaveRun::PlanReduceMemory(TaskLaunch* launch) {
  const RunningJob& job = *launch->job;
  const uint64_t bytes = job.partition_bytes[launch->task_id];
  launch->bucket_bytes = bytes;
  const double state =
      std::ceil(static_cast<double>(bytes) * config_.reduce_memory_factor);
  launch->task_memory_bytes = static_cast<uint64_t>(state);
  const double budget =
      std::max(1.0, static_cast<double>(config_.memory_per_task_bytes));
  if (MemoryMode(config_, *job.spec) !=
          ClusterConfig::ReduceMemoryMode::kSpill ||
      state <= budget) {
    return;
  }
  int runs = static_cast<int>(std::ceil(state / budget));
  runs = std::min<int>(
      runs, static_cast<int>(std::max<size_t>(
                1, job.partitions[launch->task_id].size())));
  if (runs <= 1) return;
  launch->spill_runs = runs;
  const int fan = std::max(2, config_.spill_merge_fan_in);
  int passes = 0;
  long long width = 1;
  while (width < runs) {
    width *= fan;
    ++passes;
  }
  launch->spill_merge_passes = std::max(1, passes);
  // A spilling task holds only the budget; the rest lives in its run files.
  launch->task_memory_bytes = config_.memory_per_task_bytes;
}

// Picks the alive node with the most free slots of the phase (lowest id
// wins ties); prefers any node other than `exclude` (a backup attempt
// should not land next to its primary). Returns -1 if nothing is free.
int MapReduceEngine::WaveRun::PickNode(bool is_map, int exclude) const {
  const std::vector<int>& free = is_map ? free_map_ : free_reduce_;
  int best = -1;
  for (int n = 0; n < num_nodes_; ++n) {
    if (!nodes_[n].alive || free[n] <= 0 || n == exclude) continue;
    if (best < 0 || free[n] > free[best]) best = n;
  }
  if (best < 0 && exclude >= 0) {
    for (int n = 0; n < num_nodes_; ++n) {
      if (!nodes_[n].alive || free[n] <= 0) continue;
      if (best < 0 || free[n] > free[best]) best = n;
    }
  }
  return best;
}

// --- Speculation. ---

// Backup attempts claim only slots left over after real work, across all
// jobs (never starving another job's pending tasks).
void MapReduceEngine::WaveRun::Speculate() {
  if (!retries_enabled_ || !config_.faults.speculative_execution) return;
  for (RunningJob& job : jobs_) {
    if (job.failed) continue;
    if (job.phase == JobPhase::kMap && now_ >= job.ready_time) {
      MaybeSpeculate(job, /*is_map=*/true);
    }
    if (job.phase == JobPhase::kReduce) MaybeSpeculate(job, /*is_map=*/false);
  }
}

// Launches a backup attempt for the slowest committed in-flight task of one
// phase, when the phase has idle slots, nothing launchable pending, and
// that task has been running `speculative_slowness_threshold` times longer
// than the phase's median completed duration. The backup runs no data flow
// — the primary's outcome is already committed — it is a pure timing race:
// whichever attempt's completion event fires first wins, and the loser
// still occupies its slot until its own finish time.
void MapReduceEngine::WaveRun::MaybeSpeculate(RunningJob& job, bool is_map) {
  if (FreeSlots(is_map) <= 0 || !job.fault_rng.has_value()) return;
  TaskPhase& phase = job.tasks(is_map);
  PhaseSpeculation& spec = phase.speculation;
  if (!spec.HasCompleted()) return;
  for (const PendingTask& p : phase.pending) {
    if (p.not_before <= now_) return;  // Real work should use the slot.
  }
  double threshold = config_.faults.speculative_slowness_threshold *
                     static_cast<double>(spec.Median());
  int slowest = -1;
  SimMillis slowest_elapsed = -1;
  for (int t : spec.primaries_in_flight()) {
    const TaskRunState& st = phase.states[t];
    if (st.completed || st.speculated || !st.data_committed) continue;
    SimMillis elapsed = now_ - st.launch_time;
    if (static_cast<double>(elapsed) <= threshold) continue;
    if (elapsed > slowest_elapsed) {
      slowest_elapsed = elapsed;
      slowest = t;
    }
  }
  if (slowest < 0) return;
  TaskRunState& st = phase.states[slowest];
  // The backup re-runs the same attempt from scratch on another node (never
  // the primary's, when avoidable — the point of speculation under node
  // faults), with its own straggler draw on the unslowed duration.
  int bnode = PickNode(is_map, /*exclude=*/st.node);
  if (bnode < 0) return;
  double slowdown = 1.0;
  if (config_.faults.straggler_rate > 0.0 &&
      job.fault_rng->Bernoulli(config_.faults.straggler_rate)) {
    slowdown = std::max(1.0, config_.faults.straggler_slowdown);
  }
  SimMillis duration = std::max<SimMillis>(
      1, static_cast<SimMillis>(
             std::ceil(static_cast<double>(st.base_duration) * slowdown)));
  --free_per_node(is_map)[bnode];
  ++phase.active;
  st.speculated = true;
  spec.NoteBackupChange();
  st.backup_in_flight = true;
  ++job.result.speculative_launches;
  if (m_.spec_launches != nullptr) m_.spec_launches->Add();
  if (trace_ != nullptr) {
    trace_->Record(obs::TraceEvent(now_, duration, obs::TraceLane::kTasks,
                                   "mr", "speculative_attempt")
                       .Arg("job", job.spec->name)
                       .ArgInt("task", slowest)
                       .ArgBool("map", is_map)
                       .ArgDouble("slowdown", slowdown));
  }
  const uint64_t seq =
      Push({.time = now_ + duration, .kind = EventKind::kAttemptDone});
  in_flight_[seq] = {.job_index = job.job_index,
                     .is_map = is_map,
                     .task_id = slowest,
                     .speculative = true,
                     .node = bnode,
                     .duration = duration};
}

// Schedules a no-op wakeup at the earliest time an in-flight attempt of the
// phase crosses the speculation cutoff, so stragglers are re-examined even
// when no other event falls in between. Skipped while the answer cannot
// have changed since the last call: then the only thing a recompute could
// do is queue a duplicate of a wakeup that is already queued.
void MapReduceEngine::WaveRun::PushSpeculationWakeup(RunningJob& job,
                                                     bool is_map) {
  if (!retries_enabled_ || !config_.faults.speculative_execution) return;
  TaskPhase& phase = job.tasks(is_map);
  PhaseSpeculation& spec = phase.speculation;
  if (!spec.HasCompleted() || spec.WakeupQueued(now_)) return;
  SimMillis cutoff = static_cast<SimMillis>(
      std::ceil(config_.faults.speculative_slowness_threshold *
                static_cast<double>(spec.Median())));
  SimMillis best = -1;
  for (int t : spec.primaries_in_flight()) {
    const TaskRunState& st = phase.states[t];
    if (st.completed || st.speculated || !st.data_committed) continue;
    SimMillis fire = st.launch_time + cutoff + 1;
    if (fire <= now_ || fire >= st.expected_finish) continue;
    if (best < 0 || fire < best) best = fire;
  }
  spec.SetWakeup(best);
  if (best >= 0) {
    Push({.time = best, .kind = EventKind::kWakeup, .job_index = job.job_index});
  }
}

// --- Execute and commit. ---

void MapReduceEngine::WaveRun::ExecuteWave(std::vector<TaskLaunch>& wave) {
  WorkerPool* pool = engine_->pool_.get();
  if (pool != nullptr && wave.size() > 1) {
    std::vector<std::function<void()>> closures;
    closures.reserve(wave.size());
    for (TaskLaunch& t : wave) {
      closures.push_back([&t] { t.outcome.status = RunAttempt(t); });
    }
    pool->RunBatch(std::move(closures));
  } else {
    for (TaskLaunch& t : wave) t.outcome.status = RunAttempt(t);
  }
}

// Commits one finished task attempt back into its job: simulated duration,
// per-task staged data (TaskData), in-flight registration and completion
// event. Runs on the scheduler thread in launch order. Nothing is merged
// into job-level counters or outputs here — that happens at completion /
// finish time — so an attempt later killed by a node crash leaves no
// residue in the job.
void MapReduceEngine::WaveRun::CommitAttempt(TaskLaunch& t) {
  RunningJob& job = *t.job;
  TaskOutcome& o = t.outcome;
  const bool already_failed = job.failed;
  const bool attempt_ok = !t.inject_failure && !t.block_data_loss &&
                          !t.shuffle_data_loss && o.status.ok();
  TaskPhase& phase = job.tasks(t.is_map);
  TaskRunState& st = phase.states[t.task_id];
  // Observer CPU is billed to the attempt now (durations must not depend on
  // when the replay runs), but the replay itself happens at durable
  // completion (ApplyDurableCompletion), so a killed attempt never feeds
  // the observer.
  double obs_charge = 0.0;
  if (attempt_ok && !already_failed && job.spec->output_observer) {
    obs_charge = static_cast<double>(o.output.num_records) *
                 job.spec->observer_cpu_per_record;
  }
  if (t.inject_failure) ++job.result.task_failures_injected;
  SimMillis duration = t.is_map ? BillMapAttempt(t, obs_charge)
                                : BillReduceAttempt(t, obs_charge);
  const SimMillis base = duration;
  if (t.slowdown > 1.0) {
    duration = static_cast<SimMillis>(
        std::ceil(static_cast<double>(duration) * t.slowdown));
  }
  phase.speculation.SetPrimaryInFlight(t.task_id, true);
  st.launch_time = now_;
  st.expected_finish = now_ + duration;
  st.base_duration = base;
  st.node = t.node;
  if (attempt_ok) {
    st.data_committed = true;
  } else {
    st.last_error = AttemptError(config_.faults, t);
  }
  RecordIntegrity(t);
  RecordAttempt(t, duration, attempt_ok);
  // A drawn node crash lands partway through this attempt. The crash event
  // is pushed before the completion event so a crash falling on the
  // attempt's own finish time still kills it first (lower seq wins ties).
  if (t.crash_node) {
    SimMillis crash_after = std::max<SimMillis>(
        1, static_cast<SimMillis>(std::ceil(static_cast<double>(duration) *
                                            t.crash_fraction)));
    Push({.time = now_ + crash_after,
          .kind = EventKind::kNodeCrash,
          .node = t.node});
  }
  const uint64_t seq =
      Push({.time = now_ + duration, .kind = EventKind::kAttemptDone});
  in_flight_[seq] = {.job_index = job.job_index,
                     .is_map = t.is_map,
                     .task_id = t.task_id,
                     .node = t.node,
                     .failed = !attempt_ok,
                     .poison_failure = o.poison_failure,
                     .duration = duration};
  // Legacy fail-fast: with the fault model off, the first real task error
  // kills the whole job at commit time.
  if (!retries_enabled_ && !already_failed && !o.status.ok()) {
    FailJob(job, o.status);
  }
  if (attempt_ok && !already_failed) {
    if (o.batches_decoded > 0) {
      CountLazily(&m_.scan_batches, "scan.batches", o.batches_decoded);
    }
    phase.data[t.task_id].Stage(std::move(o), obs_charge);
  }
}

/// Simulated duration of a map attempt.
SimMillis MapReduceEngine::WaveRun::BillMapAttempt(const TaskLaunch& t,
                                                   double obs_charge) {
  const RunningJob& job = *t.job;
  const TaskOutcome& o = t.outcome;
  // Pilot jobs bill block reads at the split's logical size so their event
  // timeline (and thus the sample the stop condition admits) is identical
  // whichever physical format the table was written in.
  const MapInput& map_input = job.spec->inputs[t.map_ref.input_index];
  const SimMillis block_read_ms =
      CeilDiv(static_cast<double>(map_input.bill_logical_read
                                      ? t.split->logical_bytes
                                      : t.split->num_bytes()),
              config_.map_read_bytes_per_ms);
  if (t.inject_failure) {
    // The attempt dies `fail_fraction` of the way through. Its data flow
    // never ran, so model the full attempt from the split's size and
    // record count, then bill the completed fraction.
    double est_cpu = static_cast<double>(t.split->num_records) *
                     (1.0 + map_input.cpu_per_record);
    SimMillis full = t.setup_ms + block_read_ms +
                     CeilDiv(est_cpu, config_.cpu_units_per_ms);
    return FailedPart(full, t.fail_fraction);
  }
  if (t.block_data_loss) {
    // Every replica of the input block read back corrupt: the attempt
    // billed one full block read per replica tried, verified each against
    // its checksum, and has nothing left to fall back to.
    return std::max<SimMillis>(
        1, t.setup_ms + static_cast<SimMillis>(t.replicas) * block_read_ms);
  }
  // An errored attempt scanned only `input_bytes` of its split and its
  // partial spill is discarded, not written. Corrupt-but-healed replica
  // reads each bill one extra full block read.
  uint64_t written_bytes = 0;
  if (o.status.ok()) {
    written_bytes = job.spec->reduce_fn ? o.emitted_bytes : o.output.num_bytes();
  }
  return t.setup_ms +
         static_cast<SimMillis>(t.corrupt_replica_reads) * block_read_ms +
         CeilDiv(static_cast<double>(o.input_bytes),
                 config_.map_read_bytes_per_ms) +
         CeilDiv(o.cpu_units + obs_charge, config_.cpu_units_per_ms) +
         CeilDiv(static_cast<double>(written_bytes),
                 config_.map_write_bytes_per_ms);
}

/// Simulated duration of a reduce attempt, spill I/O included.
SimMillis MapReduceEngine::WaveRun::BillReduceAttempt(const TaskLaunch& t,
                                                      double obs_charge) {
  RunningJob& job = *t.job;
  const TaskOutcome& o = t.outcome;
  job.result.peak_task_memory_bytes =
      std::max(job.result.peak_task_memory_bytes, t.task_memory_bytes);
  if (t.inject_failure) {
    // Same idea as a dying map attempt: its bucket was left in place
    // (nothing ran), so size the full attempt from it.
    double n = static_cast<double>(job.partitions[t.task_id].size());
    double est_cpu = n + n * std::log2(n + 1.0);
    SimMillis full = CeilDiv(static_cast<double>(t.bucket_bytes),
                             config_.reduce_read_bytes_per_ms) +
                     CeilDiv(est_cpu, config_.cpu_units_per_ms);
    return FailedPart(full, t.fail_fraction);
  }
  if (t.shuffle_data_loss) {
    // Every shuffle fetch of the bucket (the first plus each allowed
    // re-fetch) came back corrupt; each transfer is billed. The bucket
    // stayed in place for the retry.
    return std::max<SimMillis>(
        1, static_cast<SimMillis>(t.corrupt_fetches) *
               CeilDiv(static_cast<double>(t.bucket_bytes),
                       config_.reduce_read_bytes_per_ms));
  }
  const uint64_t written_bytes = o.status.ok() ? o.output.num_bytes() : 0;
  const SimMillis fetch_ms = CeilDiv(static_cast<double>(o.reduce_input_bytes),
                                     config_.reduce_read_bytes_per_ms);
  SimMillis duration =
      static_cast<SimMillis>(t.corrupt_fetches) * fetch_ms + fetch_ms +
      CeilDiv(o.cpu_units + obs_charge, config_.cpu_units_per_ms) +
      CeilDiv(static_cast<double>(written_bytes),
              config_.reduce_write_bytes_per_ms);
  if (t.spill_runs > 1) duration += BillSpill(t);
  return duration;
}

// External-sort I/O of a spilling reduce attempt: run formation writes the
// bucket once, each further merge pass re-reads and re-writes it, and the
// final pass re-reads it into the reduce stream — pass_bytes of writes and
// pass_bytes of reads in total. A corrupt run is discovered on the first
// read-back, so a DataLoss attempt bills one pass.
SimMillis MapReduceEngine::WaveRun::BillSpill(const TaskLaunch& t) {
  RunningJob& job = *t.job;
  const bool ok = t.outcome.status.ok();
  const int passes = ok ? t.spill_merge_passes : 1;
  const double pass_bytes =
      static_cast<double>(t.bucket_bytes) * static_cast<double>(passes);
  job.result.reduce_spills += 1;
  job.result.spill_runs += t.spill_runs;
  job.result.spill_merge_passes += passes;
  job.result.spill_bytes_written += static_cast<uint64_t>(pass_bytes);
  job.result.spill_bytes_read += static_cast<uint64_t>(pass_bytes);
  CountLazily(&m_.spilled_tasks, "mr.memory_spilled_tasks", 1);
  CountLazily(&m_.spill_bytes, "mr.memory_spill_bytes",
              2 * static_cast<int64_t>(pass_bytes));
  if (trace_ != nullptr) {
    const int attempt = job.reduces.states[t.task_id].failures + 1;
    trace_->Record(TaskEvent("task_spill", job, t.task_id)
                       .ArgInt("attempt", attempt)
                       .ArgInt("runs", t.spill_runs)
                       .ArgInt("merge_passes", passes)
                       .ArgInt("bytes", (int64_t)t.bucket_bytes)
                       .ArgBool("ok", ok));
  }
  return CeilDiv(pass_bytes, config_.reduce_write_bytes_per_ms) +
         CeilDiv(pass_bytes, config_.reduce_read_bytes_per_ms);
}

// Data-integrity accounting: corrupt replica reads and shuffle re-fetches
// are counted whether or not the attempt survived them.
void MapReduceEngine::WaveRun::RecordIntegrity(const TaskLaunch& t) {
  RunningJob& job = *t.job;
  const int attempt = job.tasks(t.is_map).states[t.task_id].failures + 1;
  if (t.corrupt_replica_reads > 0) {
    job.result.block_corruptions += t.corrupt_replica_reads;
    if (m_.block_corruptions != nullptr) {
      m_.block_corruptions->Add(t.corrupt_replica_reads);
    }
    if (trace_ != nullptr) {
      trace_->Record(TaskEvent("block_corruption", job, t.task_id)
                         .ArgInt("attempt", attempt)
                         .ArgInt("bad_replicas", t.corrupt_replica_reads)
                         .ArgBool("healed", !t.block_data_loss));
    }
  }
  if (t.corrupt_fetches > 0) {
    int refetches = std::min(
        t.corrupt_fetches, std::max(0, config_.faults.max_shuffle_fetch_retries));
    job.result.checksum_refetches += refetches;
    job.result.shuffle_fetch_retries += refetches;
    if (m_.checksum_refetches != nullptr && refetches > 0) {
      m_.checksum_refetches->Add(refetches);
    }
    if (m_.shuffle_retries != nullptr && refetches > 0) {
      m_.shuffle_retries->Add(refetches);
    }
    if (trace_ != nullptr) {
      trace_->Record(TaskEvent("shuffle_checksum_retry", job, t.task_id)
                         .ArgInt("attempt", attempt)
                         .ArgInt("refetches", refetches)
                         .ArgBool("exhausted", t.shuffle_data_loss));
    }
  }
}

void MapReduceEngine::WaveRun::RecordAttempt(const TaskLaunch& t,
                                             SimMillis duration, bool ok) {
  RunningJob& job = *t.job;
  if (t.is_map) {
    if (m_.map_attempts != nullptr) m_.map_attempts->Add();
    if (m_.map_ms != nullptr) m_.map_ms->Observe(duration);
    job.result.map_slot_ms += duration;
  } else {
    if (m_.reduce_attempts != nullptr) m_.reduce_attempts->Add();
    if (m_.reduce_ms != nullptr) m_.reduce_ms->Observe(duration);
    job.result.reduce_slot_ms += duration;
  }
  if (t.inject_failure && m_.injected != nullptr) m_.injected->Add();
  if (trace_ == nullptr) return;
  const int attempt = job.tasks(t.is_map).states[t.task_id].failures + 1;
  trace_->Record(obs::TraceEvent(now_, duration, obs::TraceLane::kTasks, "mr",
                                 t.is_map ? "map_attempt" : "reduce_attempt")
                     .Arg("job", job.spec->name)
                     .ArgInt("task", t.task_id)
                     .ArgInt("attempt", attempt)
                     .ArgBool("ok", ok)
                     .ArgBool("injected_failure", t.inject_failure)
                     .ArgDouble("slowdown", t.slowdown));
}

// --- Phase transitions. ---

void MapReduceEngine::WaveRun::OnJobReady(RunningJob& job) {
  if (job.failed || job.phase != JobPhase::kStartingUp) return;
  if (ClusterDoomedFor(job)) {
    // Submitted against a permanently dead cluster (every crash already
    // classified the jobs it doomed; this catches jobs submitted
    // afterwards).
    FailDoomed(job);
    return;
  }
  // Check the broadcast memory budget at task-launch time: the build side
  // is loaded by the first task wave, which is when Jaql's broadcast join
  // discovers it does not fit and dies.
  double need = static_cast<double>(job.spec->side_memory_bytes) *
                config_.broadcast_memory_factor;
  if (job.spec->side_memory_bytes > 0) {
    job.result.peak_task_memory_bytes = std::max(
        job.result.peak_task_memory_bytes, static_cast<uint64_t>(need));
  }
  if (need <= static_cast<double>(config_.memory_per_task_bytes)) {
    job.phase = JobPhase::kMap;
    return;
  }
  CountLazily(&m_.oom_failures, "mr.memory_oom_failures", 1);
  FailJob(job, Status::OutOfMemory(StrFormat(
                   "broadcast build side of %s needs %.0f bytes "
                   "(task memory %llu)",
                   job.spec->name.c_str(), need,
                   static_cast<unsigned long long>(
                       config_.memory_per_task_bytes))));
}

// Transition after the map phase drains: a map-only job finishes; a
// map-reduce job (re)partitions the staged emissions and starts the
// shuffle.
void MapReduceEngine::WaveRun::OnMapPhaseComplete(RunningJob& job) {
  if (trace_ != nullptr) {
    trace_->Record(obs::TraceEvent(job.ready_time, now_ - job.ready_time,
                                   obs::TraceLane::kEngine, "mr", "map_phase")
                       .Arg("job", job.spec->name)
                       .ArgInt("tasks_run", job.result.map_tasks_run)
                       .ArgInt("tasks_skipped", job.result.map_tasks_skipped));
  }
  if (!job.spec->reduce_fn) {
    FinishJob(job);
    return;
  }
  job.phase = JobPhase::kShuffle;
  uint64_t total_emitted = 0;
  for (const TaskData& d : job.maps.data) {
    if (d.valid) total_emitted += d.emitted_bytes;
  }
  if (job.num_reduce_tasks == 0) PlanReducers(config_, total_emitted, &job);
  Repartition(config_.faults.node_faults(), &job);
  if (!FitsReduceMemory(job)) return;
  StartShuffle(job, total_emitted);
}

// Memory check at shuffle start (DESIGN.md §6.10): each reducer's simulated
// sort/hash state is its partition bytes scaled by reduce_memory_factor.
// Strict mode fails the job with OutOfMemory as soon as any reducer is over
// budget; spill mode fails only when a reducer would need more runs than
// max_spill_runs (its merge state no longer fits either) — that residual
// OOM is what the driver's doubled-reducer retry rung resolves. Returns
// false when it failed the job.
bool MapReduceEngine::WaveRun::FitsReduceMemory(RunningJob& job) {
  const auto memory_mode = MemoryMode(config_, *job.spec);
  if (memory_mode == ClusterConfig::ReduceMemoryMode::kUnbounded) return true;
  const bool strict = memory_mode == ClusterConfig::ReduceMemoryMode::kStrict;
  const double budget =
      std::max(1.0, static_cast<double>(config_.memory_per_task_bytes));
  for (int p = 0; p < job.num_reduce_tasks; ++p) {
    if (job.reduces.states[p].completed) continue;
    const double state =
        std::ceil(static_cast<double>(job.partition_bytes[p]) *
                  config_.reduce_memory_factor);
    if (state <= budget) continue;
    if (!strict &&
        std::ceil(state / budget) <=
            static_cast<double>(std::max(1, config_.max_spill_runs))) {
      continue;
    }
    CountLazily(&m_.oom_failures, "mr.memory_oom_failures", 1);
    FailJob(job, Status::OutOfMemory(StrFormat(
                     "reduce task %d of %s needs %.0f bytes of sort state "
                     "(task memory %llu, %s mode)",
                     p, job.spec->name.c_str(), state,
                     (unsigned long long)config_.memory_per_task_bytes,
                     strict ? "strict" : "spill")));
    return false;
  }
  return true;
}

// Shuffle is billed at the cluster's aggregate cross-network rate: the
// all-to-all transfer is bisection-bandwidth bound, not per-reducer
// parallel, which is what makes repartitioning a large relation so much
// more expensive than broadcasting a small one (paper §2.2.1). Only bytes
// not already transferred are billed, so a re-shuffle after a crash pays
// for the re-executed maps' output alone.
void MapReduceEngine::WaveRun::StartShuffle(RunningJob& job,
                                            uint64_t total_emitted) {
  uint64_t transfer =
      total_emitted - std::min(total_emitted, job.shuffled_bytes);
  job.shuffled_bytes = total_emitted;
  SimMillis shuffle_ms =
      CeilDiv(static_cast<double>(transfer), config_.shuffle_bytes_per_ms);
  if (trace_ != nullptr) {
    trace_->Record(obs::TraceEvent(now_, shuffle_ms, obs::TraceLane::kEngine,
                                   "mr", "shuffle_phase")
                       .Arg("job", job.spec->name)
                       .ArgInt("bytes", (int64_t)transfer)
                       .ArgInt("reducers", job.num_reduce_tasks));
  }
  Push({.time = now_ + shuffle_ms,
        .kind = EventKind::kShuffleDone,
        .job_index = job.job_index,
        .shuffle_epoch = job.shuffle_epoch});
}

void MapReduceEngine::WaveRun::OnShuffleDone(RunningJob& job,
                                             const Event& ev) {
  // A stale epoch means a node crash invalidated map outputs while this
  // shuffle was in flight; the job re-entered the map phase and will
  // re-shuffle when the re-executed maps drain.
  if (job.failed || ev.shuffle_epoch != job.shuffle_epoch ||
      job.phase != JobPhase::kShuffle) {
    return;
  }
  job.phase = JobPhase::kReduce;
  if (job.reduce_opened) {
    // Re-shuffle after invalidation: the reducers that were blocked on the
    // fetch failure are already queued (and freshly re-bucketed); just
    // resume them.
    return;
  }
  job.reduce_opened = true;
  job.reduce_start = now_;
  for (int r = 0; r < job.num_reduce_tasks; ++r) {
    job.reduces.pending.push_back({r, 0});
  }
}

// --- Attempt completion. ---

void MapReduceEngine::WaveRun::OnAttemptDone(const Event& ev) {
  auto flight = in_flight_.find(ev.seq);
  if (flight == in_flight_.end()) return;  // Killed by a node crash.
  const InFlightAttempt a = flight->second;
  in_flight_.erase(flight);
  ++free_per_node(a.is_map)[a.node];
  RunningJob& job = jobs_[a.job_index];
  TaskPhase& phase = job.tasks(a.is_map);
  --phase.active;
  if (job.failed) {
    DrainFailedJob(job);
    return;
  }
  TaskRunState& st = phase.states[a.task_id];
  if (a.speculative) {
    st.backup_in_flight = false;
    // The backup beat its primary; the primary's own completion event will
    // only give back its slot.
    if (!st.completed) CompleteTask(job, a);
  } else {
    phase.speculation.SetPrimaryInFlight(a.task_id, false);
    if (a.failed) {
      if (!RetryFailedAttempt(job, a)) return;
    } else if (!st.completed) {
      CompleteTask(job, a);
    }
    // else: the primary lost its race against a faster backup; it only
    // held a slot until now.
  }
  // ApplyDurableCompletion can fail the job (quarantine budget); a failed
  // job must not advance phases.
  if (job.failed) return;
  if (!PhaseDrained(job, a.is_map)) {
    PushSpeculationWakeup(job, a.is_map);
  } else if (a.is_map) {
    OnMapPhaseComplete(job);
  } else {
    FinishJob(job);
  }
}

void MapReduceEngine::WaveRun::CompleteTask(RunningJob& job,
                                            const InFlightAttempt& a) {
  TaskPhase& phase = job.tasks(a.is_map);
  TaskRunState& st = phase.states[a.task_id];
  st.completed = true;
  st.node = a.node;
  --phase.remaining;
  ++(a.is_map ? job.result.map_tasks_run : job.result.reduce_tasks_run);
  if (a.speculative) {
    ++job.result.speculative_wins;
    if (m_.spec_wins != nullptr) m_.spec_wins->Add();
    if (trace_ != nullptr) {
      trace_->Record(TaskEvent("speculative_win", job, a.task_id)
                         .ArgBool("map", a.is_map));
    }
  }
  phase.speculation.AddCompleted(a.duration);
  ApplyDurableCompletion(job, a.is_map, a.task_id);
}

// Charges a failed primary attempt to its task and re-queues the task
// after its backoff, or fails the job once the task is out of attempts.
// Returns false when it failed the job.
bool MapReduceEngine::WaveRun::RetryFailedAttempt(RunningJob& job,
                                                  const InFlightAttempt& a) {
  TaskRunState& st = job.tasks(a.is_map).states[a.task_id];
  ++st.failures;
  if (a.poison_failure) {
    // A map function "threw" on a poison record. After two such attempt
    // deaths the task re-runs in skip mode, quarantining the poison
    // records instead of failing (Hadoop skip mode).
    ++st.poison.failures;
    if (st.poison.failures >= 2) st.poison.skip_mode = true;
  }
  if (st.failures >= max_attempts_) {
    // A DataLoss last error keeps its code through the job failure: it is
    // the signal that lets the driver's retry ladder classify the failure
    // as data corruption, not engine logic.
    std::string detail = StrFormat(
        "%s task %d of %s failed %d attempts; last: %s",
        a.is_map ? "map" : "reduce", a.task_id, job.spec->name.c_str(),
        st.failures, st.last_error.ToString().c_str());
    if (st.last_error.code() != StatusCode::kDataLoss) {
      FailJob(job, Status::Internal(std::move(detail)));
      return false;
    }
    if (m_.integrity_failures != nullptr) m_.integrity_failures->Add();
    FailJob(job, Status::DataLoss(std::move(detail)));
    return false;
  }
  SimMillis backoff = RetryBackoff(config_.faults, st.failures, &job);
  job.tasks(a.is_map).pending.push_back({a.task_id, now_ + backoff});
  if (backoff > 0) {
    Push({.time = now_ + backoff,
          .kind = EventKind::kWakeup,
          .job_index = job.job_index});
  }
  return true;
}

// Applies a logical task's durable completion: replays its staged output
// records through the job's output observer (scheduler thread only, so
// observer state is never updated concurrently; observers must be
// commutative across tasks, which the stats collectors are) and, for
// reduce tasks, releases the partition bucket retained for retries. Runs at
// *completion* rather than commit so an attempt killed by a node crash
// after committing never double-applies when the task re-runs.
void MapReduceEngine::WaveRun::ApplyDurableCompletion(RunningJob& job,
                                                      bool is_map,
                                                      int task_id) {
  TaskData& d = job.tasks(is_map).data[task_id];
  // Quarantined records become durable with the completing task (even for
  // map tasks of map-reduce jobs, whose *output* stays volatile until job
  // end); a node crash that invalidates the task un-accounts them. They
  // never reach the output or the observer — excluded, not emitted.
  if (is_map && d.valid && d.quarantine.num_records > 0) {
    job.result.records_quarantined += d.quarantine.num_records;
    if (m_.quarantined != nullptr) {
      m_.quarantined->Add(static_cast<int64_t>(d.quarantine.num_records));
    }
    if (trace_ != nullptr) {
      for (uint64_t idx : d.quarantine_indexes) {
        trace_->Record(TaskEvent("record_quarantined", job, task_id)
                           .ArgInt("record", static_cast<int64_t>(idx)));
      }
    }
    const int budget = config_.faults.max_skipped_records;
    if (budget >= 0 &&
        job.result.records_quarantined > static_cast<uint64_t>(budget)) {
      if (m_.integrity_failures != nullptr) m_.integrity_failures->Add();
      FailJob(job, Status::DataLoss(StrFormat(
                       "job %s quarantined %llu records, over the "
                       "max_skipped_records budget of %d",
                       job.spec->name.c_str(),
                       (unsigned long long)job.result.records_quarantined,
                       budget)));
      return;
    }
  }
  if (is_map && job.spec->reduce_fn) return;  // Volatile until job end.
  if (d.valid && job.spec->output_observer && d.output.num_records > 0) {
    SplitReader reader(&d.output);
    while (!reader.AtEnd()) {
      Result<Value> record = reader.Next();
      if (!record.ok()) break;  // Unreachable: we encoded these records.
      job.spec->output_observer(*record);
    }
  }
  if (d.valid) job.observer_cpu_units += d.observer_charge;
  if (!is_map && d.valid && !d.spill_runs_written.empty()) {
    // The winning attempt's spill runs become durable DFS scratch under a
    // sibling path of the job output; the path carries its own write
    // epoch, so spill files never perturb the table versioning of the
    // output itself. Removed at job end (EndJob).
    std::string spath =
        StrFormat("%s.spill/t%d", job.spec->output_path.c_str(), task_id);
    Dfs* dfs = engine_->dfs_;
    dfs->Delete(spath).ok();
    auto sfile = dfs->Create(spath);
    if (sfile.ok()) {
      for (Split& s : d.spill_runs_written) {
        (*sfile)->AppendSplit(std::move(s));
      }
      job.spill_paths.push_back(std::move(spath));
    }
    d.spill_runs_written.clear();
    d.spill_runs_written.shrink_to_fit();
  }
  if (!is_map) {
    job.partitions[task_id].clear();
    job.partitions[task_id].shrink_to_fit();
    job.partition_bytes[task_id] = 0;
  }
}

// --- Nodes. ---

// A node dies: its slots leave the pool, every attempt running on it is
// killed (a kill, not a failure — the task re-queues without charging an
// attempt, Hadoop's KILLED vs FAILED), and the completed map outputs
// resident on it are invalidated for any map-reduce job that still needs
// them, regressing those jobs to the map phase for re-execution.
void MapReduceEngine::WaveRun::OnNodeCrash(int node, bool scripted) {
  if (scripted) ++engine_->scripted_crashes_consumed_;
  if (node < 0 || node >= num_nodes_) return;
  NodeState& ns = nodes_[node];
  if (!ns.alive) return;  // Already down; nothing new to lose.
  ns.alive = false;
  ns.recover_at = config_.faults.node_recovery_ms > 0
                      ? now_ + config_.faults.node_recovery_ms
                      : -1;
  if (ns.recover_at >= 0) {
    Push({.time = ns.recover_at, .kind = EventKind::kNodeRecover, .node = node});
  }
  --alive_nodes_;
  free_map_[node] = 0;
  free_reduce_[node] = 0;
  if (m_.node_crashes != nullptr) m_.node_crashes->Add();

  // The node's attempts die with it; their slots went down with the node,
  // so nothing is refunded.
  const int killed = KillAttempts(
      [node](const InFlightAttempt& a) { return a.node == node; },
      /*refund=*/false);
  for (RunningJob& job : jobs_) {
    InvalidateMapOutputs(job, node);
    if (!job.Finished() && !job.failed) ++job.result.node_crashes_observed;
  }
  if (trace_ != nullptr) {
    trace_->Record(obs::TraceEvent(now_, -1, obs::TraceLane::kEngine, "mr",
                                   "node_crash")
                       .ArgInt("node", node)
                       .ArgBool("scripted", scripted)
                       .ArgInt("attempts_killed", killed)
                       .ArgInt("alive_nodes", alive_nodes_));
  }
  // Permanent-failure classification: with no capacity left and none ever
  // coming back, unfinished jobs can never run.
  for (RunningJob& job : jobs_) {
    if (!job.failed && !job.Finished() && ClusterDoomedFor(job)) {
      FailDoomed(job);
    }
  }
  // Failed jobs whose last in-flight attempts were just killed have no
  // completion event left to drain them.
  for (RunningJob& job : jobs_) {
    if (job.failed) DrainFailedJob(job);
  }
}

// Kills the in-flight attempts `match` selects, in launch (seq) order (a
// kill, not a failure: no attempt is charged, Hadoop's KILLED vs FAILED).
// A killed attempt's completion event finds no registry entry and is
// ignored. `refund` gives its slot back. A task left with no attempt
// re-queues unless it already completed. Returns the count.
int MapReduceEngine::WaveRun::KillAttempts(
    const std::function<bool(const InFlightAttempt&)>& match, bool refund) {
  int killed = 0;
  for (auto it = in_flight_.begin(); it != in_flight_.end();) {
    if (!match(it->second)) {
      ++it;
      continue;
    }
    const InFlightAttempt a = it->second;
    it = in_flight_.erase(it);
    ++killed;
    if (refund) ++free_per_node(a.is_map)[a.node];
    RunningJob& job = jobs_[a.job_index];
    TaskPhase& phase = job.tasks(a.is_map);
    --phase.active;
    TaskRunState& st = phase.states[a.task_id];
    if (a.speculative) {
      st.backup_in_flight = false;
      st.speculated = false;  // Eligible for a fresh backup later.
      phase.speculation.NoteBackupChange();
    } else {
      phase.speculation.SetPrimaryInFlight(a.task_id, false);
    }
    ++job.result.attempts_killed_by_node;
    if (m_.node_kills != nullptr) m_.node_kills->Add();
    if (!job.failed && !st.completed &&
        !phase.speculation.PrimaryInFlight(a.task_id) && !st.backup_in_flight) {
      phase.pending.push_back({a.task_id, now_});
    }
  }
  return killed;
}

// Invalidates the job's completed map outputs that lived on the node, if
// the job still needs them. (Map-only outputs and reduce outputs model
// durable DFS writes and survive; a reduce phase with no reducer left to
// launch has already fetched everything.)
void MapReduceEngine::WaveRun::InvalidateMapOutputs(RunningJob& job,
                                                    int node) {
  if (job.failed || job.Finished() || job.spec->reduce_fn == nullptr) return;
  const bool needs_map_outputs =
      job.phase == JobPhase::kMap || job.phase == JobPhase::kShuffle ||
      (job.phase == JobPhase::kReduce && !job.reduces.pending.empty());
  if (!needs_map_outputs) return;
  int invalidated = 0;
  for (size_t t = 0; t < job.maps.states.size(); ++t) {
    TaskRunState& st = job.maps.states[t];
    if (!st.completed || st.node != node) continue;
    // Any attempt of this task still racing elsewhere is killed too: the
    // logical task is being reset, and a late completion would otherwise
    // re-complete it against cleared data. Those kills free live slots.
    KillAttempts(
        [&](const InFlightAttempt& a) {
          return a.job_index == job.job_index && a.is_map &&
                 a.task_id == static_cast<int>(t);
        },
        /*refund=*/true);
    TaskData& d = job.maps.data[t];
    job.shuffled_bytes -= std::min(job.shuffled_bytes, d.emitted_bytes);
    // Quarantined records accounted by the lost attempt are un-counted;
    // the re-run re-quarantines (and re-accounts) the same positions.
    uint64_t unquarantined = d.quarantine_indexes.size();
    job.result.records_quarantined -=
        std::min(job.result.records_quarantined, unquarantined);
    d = TaskData{};
    st.ResetAttempts();
    // A primary that lost to a backup may still have been running; it was
    // just killed.
    job.maps.speculation.SetPrimaryInFlight(static_cast<int>(t), false);
    ++job.maps.remaining;
    job.maps.pending.push_back({static_cast<int>(t), now_});
    ++invalidated;
  }
  if (invalidated == 0) return;
  job.result.maps_invalidated += invalidated;
  if (m_.maps_invalidated != nullptr) m_.maps_invalidated->Add(invalidated);
  if (job.phase == JobPhase::kReduce) {
    // The reducers still waiting to launch hit shuffle-fetch failures: they
    // stay queued behind the re-shuffle of the re-executed maps.
    int blocked = static_cast<int>(job.reduces.pending.size());
    job.result.shuffle_fetch_retries += blocked;
    if (m_.shuffle_retries != nullptr) m_.shuffle_retries->Add(blocked);
    if (trace_ != nullptr) {
      trace_->Record(obs::TraceEvent(now_, -1, obs::TraceLane::kEngine, "mr",
                                     "shuffle_fetch_retry")
                         .Arg("job", job.spec->name)
                         .ArgInt("blocked_reducers", blocked)
                         .ArgInt("node", node));
    }
  }
  if (job.phase != JobPhase::kMap) ++job.shuffle_epoch;
  job.phase = JobPhase::kMap;
}

void MapReduceEngine::WaveRun::OnNodeRecover(const Event& ev) {
  if (ev.node < 0 || ev.node >= num_nodes_) return;
  NodeState& ns = nodes_[ev.node];
  if (ns.alive || ns.recover_at != ev.time) return;  // Stale event.
  ns.alive = true;
  ns.recover_at = 0;
  // The node rejoins with empty disks: full slot capacity, no resident map
  // outputs (those were invalidated at crash time).
  ProvisionNode(ev.node);
  if (m_.node_recoveries != nullptr) m_.node_recoveries->Add();
  if (trace_ != nullptr) {
    trace_->Record(obs::TraceEvent(now_, -1, obs::TraceLane::kEngine, "mr",
                                   "node_recover")
                       .ArgInt("node", ev.node)
                       .ArgInt("alive_nodes", alive_nodes_));
  }
}

// True when the nodes that could ever host this job's tasks are all down
// for good (no recovery scheduled): the job can never finish.
bool MapReduceEngine::WaveRun::ClusterDoomedFor(const RunningJob& job) const {
  int pot_map = 0;
  int pot_reduce = 0;
  for (int n = 0; n < num_nodes_; ++n) {
    if (nodes_[n].alive || nodes_[n].recover_at >= 0) {
      pot_map += NodeCapacity(config_.map_slots, n);
      pot_reduce += NodeCapacity(config_.reduce_slots, n);
    }
  }
  return pot_map == 0 || (job.spec->reduce_fn != nullptr && pot_reduce == 0);
}

void MapReduceEngine::WaveRun::FailDoomed(RunningJob& job) {
  FailJob(job, Status::Unavailable(StrFormat(
                   "no node that could run %s will ever come back "
                   "(cluster permanently degraded)",
                   job.spec->name.c_str())));
}

// --- Job end. ---

void MapReduceEngine::WaveRun::FinishJob(RunningJob& job) {
  // Assemble counters and output splits from the per-task staged data in
  // task-id / partition order — the exact order a fault-free run commits
  // in — so job outputs stay byte-identical even when node crashes forced
  // out-of-order re-execution of some tasks.
  Counters& totals = job.result.counters;
  std::vector<Split> quarantine_splits;
  for (bool is_map : {true, false}) {
    for (TaskData& d : job.tasks(is_map).data) {
      if (!d.valid) continue;
      totals.MergeFrom(d.counters);
      if ((!is_map || !job.spec->reduce_fn) && d.output.num_records > 0) {
        totals.output_bytes += d.output.num_bytes();
        job.output->AppendSplit(std::move(d.output));
      }
      if (d.quarantine.num_records > 0) {
        quarantine_splits.push_back(std::move(d.quarantine));
      }
      d = TaskData{};
    }
  }
  if (!quarantine_splits.empty()) {
    // The per-job quarantine file: poison records in map-task order, a
    // durable sibling of the job output (Hadoop's skip mode keeps them
    // under "_logs/skip"). Replaces any leftover from a previous run of a
    // re-submitted job. Assembled in task-id order, so its bytes are as
    // deterministic as the output's.
    std::string qpath = job.spec->output_path + ".quarantine";
    engine_->dfs_->Delete(qpath).ok();
    auto qfile = engine_->dfs_->Create(qpath);
    if (qfile.ok()) {
      for (Split& s : quarantine_splits) (*qfile)->AppendSplit(std::move(s));
      job.result.quarantine_path = qpath;
    }
  }
  job.result.observer_overhead_ms = static_cast<SimMillis>(
      std::ceil(job.observer_cpu_units / config_.cpu_units_per_ms));
  if (trace_ != nullptr && job.spec->reduce_fn) {
    trace_->Record(obs::TraceEvent(job.reduce_start, now_ - job.reduce_start,
                                   obs::TraceLane::kEngine, "mr",
                                   "reduce_phase")
                       .Arg("job", job.spec->name)
                       .ArgInt("reduce_tasks", job.num_reduce_tasks));
  }
  EndJob(job);
}

void MapReduceEngine::WaveRun::FailJob(RunningJob& job, Status status) {
  job.failed = true;
  job.result.status = std::move(status);
  job.maps.pending.clear();
  job.reduces.pending.clear();
  DrainFailedJob(job);
}

// Tears down a failed job once its last in-flight attempt has drained (or
// immediately when none are in flight).
void MapReduceEngine::WaveRun::DrainFailedJob(RunningJob& job) {
  if (!job.failed || job.phase == JobPhase::kDone) return;
  if (job.maps.active != 0 || job.reduces.active != 0) return;
  engine_->dfs_->Delete(job.spec->output_path).ok();
  job.output = nullptr;
  EndJob(job);
}

// Closes out a job, success or failure: marks it done, removes its spill-run
// files (scratch that exists between a spilling reduce task's durable
// completion and the end of its job) and records the whole-job span plus
// job-level counters/latency.
void MapReduceEngine::WaveRun::EndJob(RunningJob& job) {
  job.phase = JobPhase::kDone;
  job.result.finish_time_ms = now_;
  for (const std::string& p : job.spill_paths) engine_->dfs_->Delete(p).ok();
  job.spill_paths.clear();
  --unfinished_;
  const JobResult& r = job.result;
  SimMillis elapsed = now_ - r.submit_time_ms;
  if (m_.job_ms != nullptr) m_.job_ms->Observe(elapsed);
  if (m_.jobs != nullptr) m_.jobs->Add();
  if (!job.spec->query_id.empty()) {
    engine_->query_slot_ms_[job.spec->query_id] +=
        r.map_slot_ms + r.reduce_slot_ms;
  }
  engine_->busy_slot_ms_total_ += r.map_slot_ms + r.reduce_slot_ms;
  if (trace_ == nullptr) return;
  obs::TraceEvent ev =
      obs::TraceEvent(r.submit_time_ms, elapsed, obs::TraceLane::kEngine,
                      "mr", "job")
          .Arg("job", job.spec->name)
          .ArgBool("ok", r.status.ok())
          .ArgInt("map_tasks_run", r.map_tasks_run)
          .ArgInt("map_tasks_skipped", r.map_tasks_skipped)
          .ArgInt("reduce_tasks_run", r.reduce_tasks_run)
          .ArgInt("retries", r.task_retries)
          .ArgInt("failures_injected", r.task_failures_injected)
          .ArgInt("speculative_launches", r.speculative_launches)
          .ArgInt("speculative_wins", r.speculative_wins)
          .ArgInt("node_attempt_kills", r.attempts_killed_by_node)
          .ArgInt("maps_invalidated", r.maps_invalidated)
          .ArgInt("shuffle_fetch_retries", r.shuffle_fetch_retries)
          .ArgInt("block_corruptions", r.block_corruptions)
          .ArgInt("checksum_refetches", r.checksum_refetches)
          .ArgInt("records_quarantined", (int64_t)r.records_quarantined)
          .ArgInt("output_records", (int64_t)r.counters.output_records);
  // Memory args only under an active memory mode, so knob-off traces keep
  // their exact historical bytes (golden traces predate them). The
  // optional args append in place: `ev = std::move(ev).Arg(...)` would
  // self-move-assign and drop every arg.
  if (MemoryMode(config_, *job.spec) !=
      ClusterConfig::ReduceMemoryMode::kUnbounded) {
    std::move(ev)
        .ArgInt("reduce_spills", r.reduce_spills)
        .ArgInt("spill_runs", r.spill_runs)
        .ArgInt("spill_bytes_written", (int64_t)r.spill_bytes_written)
        .ArgInt("peak_task_memory", (int64_t)r.peak_task_memory_bytes);
  }
  if (!job.spec->query_id.empty()) {
    std::move(ev).Arg("query", job.spec->query_id);
  }
  trace_->Record(std::move(ev));
}

// Bumps one of the lazily registered counters (see Instruments).
void MapReduceEngine::WaveRun::CountLazily(obs::Counter** counter,
                                           const char* name, uint64_t n) {
  if (metrics_ == nullptr) return;
  if (*counter == nullptr) *counter = metrics_->GetCounter(name);
  (*counter)->Add(n);
}

/// An instant event on the tasks lane about one task of `job`.
obs::TraceEvent MapReduceEngine::WaveRun::TaskEvent(const char* name,
                                                    const RunningJob& job,
                                                    int task_id) const {
  return obs::TraceEvent(now_, -1, obs::TraceLane::kTasks, "mr", name)
      .Arg("job", job.spec->name)
      .ArgInt("task", task_id);
}

// --- Event loop and results. ---

void MapReduceEngine::WaveRun::HandleEvent(const Event& ev) {
  switch (ev.kind) {
    case EventKind::kJobReady:
      OnJobReady(jobs_[ev.job_index]);
      break;
    case EventKind::kAttemptDone:
      OnAttemptDone(ev);
      break;
    case EventKind::kShuffleDone:
      OnShuffleDone(jobs_[ev.job_index], ev);
      break;
    case EventKind::kNodeCrash:
      OnNodeCrash(ev.node, ev.scripted);
      break;
    case EventKind::kNodeRecover:
      OnNodeRecover(ev);
      break;
    case EventKind::kWakeup:
      // Nothing to do: the point was to trigger the scheduling pass that
      // follows event handling at this timestamp.
      break;
  }
}

uint64_t MapReduceEngine::WaveRun::Push(Event ev) {
  ev.seq = seq_++;
  events_.push(ev);
  return ev.seq;
}

std::vector<JobResult> MapReduceEngine::WaveRun::Finalize() {
  const SimMillis wave_elapsed_ms = now_ - wave_start_ms_;
  const int total_slots =
      std::max(1, config_.map_slots) + std::max(0, config_.reduce_slots);
  if (wave_elapsed_ms > 0) {
    double pressure =
        static_cast<double>(engine_->busy_slot_ms_total_ - busy_before_ms_) /
        (static_cast<double>(wave_elapsed_ms) *
         static_cast<double>(total_slots));
    engine_->last_wave_pressure_ = std::clamp(pressure, 0.0, 1.0);
  }
  std::vector<JobResult> results;
  results.reserve(jobs_.size());
  for (RunningJob& job : jobs_) {
    job.result.output = job.output;
    results.push_back(std::move(job.result));
  }
  return results;
}

}  // namespace dyno

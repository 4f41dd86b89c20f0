#include "exec/aggregates.h"

#include <algorithm>
#include <map>
#include <memory>
#include <mutex>
#include <cmath>

#include "common/string_util.h"
#include "exec/row_ops.h"

namespace dyno {

namespace {

/// Folds one group of rows into the aggregate output fields.
Status FoldAggregates(const GroupBySpec& spec, const Value& key,
                      const std::vector<Value>& rows, StructFields* out) {
  for (size_t i = 0; i < spec.keys.size(); ++i) {
    const Value* kv = key.FindElement(i);
    out->emplace_back(spec.keys[i], kv == nullptr ? Value::Null() : *kv);
  }
  for (const Aggregate& agg : spec.aggregates) {
    switch (agg.kind) {
      case Aggregate::Kind::kCount:
        out->emplace_back(agg.output_name,
                          Value::Int(static_cast<int64_t>(rows.size())));
        break;
      case Aggregate::Kind::kSum:
      case Aggregate::Kind::kAvg: {
        double sum = 0.0;
        int64_t n = 0;
        for (const Value& row : rows) {
          const Value* v = row.FindField(agg.input_column);
          if (v == nullptr || v->is_null()) continue;
          if (v->type() != Value::Type::kInt &&
              v->type() != Value::Type::kDouble) {
            return Status::InvalidArgument("SUM/AVG over non-numeric column " +
                                           agg.input_column);
          }
          sum += v->AsDouble();
          ++n;
        }
        if (agg.kind == Aggregate::Kind::kSum) {
          out->emplace_back(agg.output_name, Value::Double(sum));
        } else {
          out->emplace_back(agg.output_name,
                            n == 0 ? Value::Null()
                                   : Value::Double(sum / static_cast<double>(n)));
        }
        break;
      }
      case Aggregate::Kind::kMin:
      case Aggregate::Kind::kMax: {
        const Value* best = nullptr;
        for (const Value& row : rows) {
          const Value* v = row.FindField(agg.input_column);
          if (v == nullptr || v->is_null()) continue;
          if (best == nullptr ||
              (agg.kind == Aggregate::Kind::kMin ? v->Compare(*best) < 0
                                                 : v->Compare(*best) > 0)) {
            best = v;
          }
        }
        out->emplace_back(agg.output_name,
                          best == nullptr ? Value::Null() : *best);
        break;
      }
    }
  }
  return Status::OK();
}

/// Per-group partial aggregation state used by the map-side combiner.
/// Serialized as a struct Value: {"__rows": n, "v<j>": partial, "c<j>": m}.
struct PartialState {
  int64_t rows = 0;
  /// One slot per aggregate: sum (kSum/kAvg) or best (kMin/kMax); unused
  /// for kCount.
  std::vector<Value> values;
  /// Non-null input counts (needed by kAvg).
  std::vector<int64_t> counts;
};

/// Folds one raw row into a partial state.
void AccumulateRow(const GroupBySpec& spec, const Value& row,
                   PartialState* state) {
  state->values.resize(spec.aggregates.size(), Value::Null());
  state->counts.resize(spec.aggregates.size(), 0);
  ++state->rows;
  for (size_t j = 0; j < spec.aggregates.size(); ++j) {
    const Aggregate& aggregate = spec.aggregates[j];
    if (aggregate.kind == Aggregate::Kind::kCount) continue;
    const Value* v = row.FindField(aggregate.input_column);
    if (v == nullptr || v->is_null()) continue;
    ++state->counts[j];
    Value& slot = state->values[j];
    switch (aggregate.kind) {
      case Aggregate::Kind::kSum:
      case Aggregate::Kind::kAvg:
        slot = Value::Double((slot.is_null() ? 0.0 : slot.double_value()) +
                             v->AsDouble());
        break;
      case Aggregate::Kind::kMin:
        if (slot.is_null() || v->Compare(slot) < 0) slot = *v;
        break;
      case Aggregate::Kind::kMax:
        if (slot.is_null() || v->Compare(slot) > 0) slot = *v;
        break;
      case Aggregate::Kind::kCount:
        break;
    }
  }
}

Value EncodePartial(const PartialState& state) {
  StructFields fields;
  fields.emplace_back("__rows", Value::Int(state.rows));
  for (size_t j = 0; j < state.values.size(); ++j) {
    fields.emplace_back(StrFormat("v%zu", j), state.values[j]);
    fields.emplace_back(StrFormat("c%zu", j), Value::Int(state.counts[j]));
  }
  return Value::Struct(std::move(fields));
}

Status MergePartialInto(const GroupBySpec& spec, const Value& encoded,
                        PartialState* state) {
  state->values.resize(spec.aggregates.size(), Value::Null());
  state->counts.resize(spec.aggregates.size(), 0);
  const Value* rows = encoded.FindField("__rows");
  if (rows == nullptr) return Status::Internal("malformed partial");
  state->rows += rows->int_value();
  for (size_t j = 0; j < spec.aggregates.size(); ++j) {
    const Value* v = encoded.FindField(StrFormat("v%zu", j));
    const Value* c = encoded.FindField(StrFormat("c%zu", j));
    if (v == nullptr || c == nullptr) {
      return Status::Internal("malformed partial slot");
    }
    state->counts[j] += c->int_value();
    if (v->is_null()) continue;
    Value& slot = state->values[j];
    switch (spec.aggregates[j].kind) {
      case Aggregate::Kind::kSum:
      case Aggregate::Kind::kAvg:
        slot = Value::Double((slot.is_null() ? 0.0 : slot.double_value()) +
                             v->AsDouble());
        break;
      case Aggregate::Kind::kMin:
        if (slot.is_null() || v->Compare(slot) < 0) slot = *v;
        break;
      case Aggregate::Kind::kMax:
        if (slot.is_null() || v->Compare(slot) > 0) slot = *v;
        break;
      case Aggregate::Kind::kCount:
        break;
    }
  }
  return Status::OK();
}

Value FinalizeState(const GroupBySpec& spec, const Value& key,
                    const PartialState& state) {
  StructFields fields;
  for (size_t i = 0; i < spec.keys.size(); ++i) {
    const Value* kv = key.FindElement(i);
    fields.emplace_back(spec.keys[i], kv == nullptr ? Value::Null() : *kv);
  }
  for (size_t j = 0; j < spec.aggregates.size(); ++j) {
    const Aggregate& aggregate = spec.aggregates[j];
    switch (aggregate.kind) {
      case Aggregate::Kind::kCount:
        fields.emplace_back(aggregate.output_name, Value::Int(state.rows));
        break;
      case Aggregate::Kind::kSum:
        fields.emplace_back(aggregate.output_name,
                            Value::Double(state.values[j].is_null()
                                              ? 0.0
                                              : state.values[j].double_value()));
        break;
      case Aggregate::Kind::kAvg:
        fields.emplace_back(
            aggregate.output_name,
            state.counts[j] == 0
                ? Value::Null()
                : Value::Double(state.values[j].double_value() /
                                static_cast<double>(state.counts[j])));
        break;
      case Aggregate::Kind::kMin:
      case Aggregate::Kind::kMax:
        fields.emplace_back(aggregate.output_name, state.values[j]);
        break;
    }
  }
  return Value::Struct(std::move(fields));
}

}  // namespace

Result<JobResult> RunGroupBy(MapReduceEngine* engine,
                             std::shared_ptr<DfsFile> input,
                             const GroupBySpec& spec,
                             const std::string& output_path,
                             bool use_combiner,
                             const std::string& query_id) {
  JobSpec job;
  job.name = "groupby";
  job.query_id = query_id;
  job.output_path = output_path;
  MapInput map_input;
  map_input.file = std::move(input);
  const KeyColumns keys(spec.keys);
  GroupBySpec spec_copy = spec;

  if (use_combiner) {
    // Map side: accumulate one PartialState per (task, group); the flush
    // hook ships one partial per group instead of every raw row. Worker
    // threads run several map tasks at once, so the task -> groups map is
    // locked; each task's own groups are touched only by that task, and
    // std::map keeps them in place while other tasks insert and erase.
    using Groups = std::map<std::string, std::pair<Value, PartialState>>;
    struct PerTask {
      std::mutex mu;
      std::map<int, Groups> groups;
    };
    auto per_task = std::make_shared<PerTask>();
    map_input.map_fn = [keys, spec_copy, per_task](
                           const Value& record, MapContext* ctx) -> Status {
      Value key = keys.AsValue(record);
      std::string encoded = keys.Encode(record);
      Groups* groups = nullptr;
      {
        std::lock_guard<std::mutex> lock(per_task->mu);
        groups = &per_task->groups[ctx->task_index()];
      }
      auto [it, inserted] =
          groups->try_emplace(std::move(encoded), key, PartialState{});
      AccumulateRow(spec_copy, record, &it->second.second);
      ctx->ChargeCpu(1.0 + static_cast<double>(spec_copy.aggregates.size()));
      return Status::OK();
    };
    map_input.flush_fn = [per_task](MapContext* ctx) -> Status {
      std::map<int, Groups>::node_type done;
      {
        std::lock_guard<std::mutex> lock(per_task->mu);
        done = per_task->groups.extract(ctx->task_index());
      }
      if (done.empty()) return Status::OK();
      for (auto& [encoded, entry] : done.mapped()) {
        ctx->Emit(entry.first, EncodePartial(entry.second));
      }
      return Status::OK();
    };
    job.reduce_fn = [spec_copy](const Value& key,
                                const std::vector<Value>& values,
                                ReduceContext* ctx) -> Status {
      PartialState merged;
      for (const Value& partial : values) {
        DYNO_RETURN_IF_ERROR(MergePartialInto(spec_copy, partial, &merged));
      }
      ctx->ChargeCpu(static_cast<double>(values.size()));
      ctx->Output(FinalizeState(spec_copy, key, merged));
      return Status::OK();
    };
  } else {
    map_input.map_fn = [keys](const Value& record, MapContext* ctx) -> Status {
      ctx->Emit(keys.AsValue(record), record);
      return Status::OK();
    };
    job.reduce_fn = [spec_copy](const Value& key,
                                const std::vector<Value>& values,
                                ReduceContext* ctx) -> Status {
      StructFields fields;
      DYNO_RETURN_IF_ERROR(FoldAggregates(spec_copy, key, values, &fields));
      ctx->ChargeCpu(static_cast<double>(values.size()) *
                     (1.0 +
                      static_cast<double>(spec_copy.aggregates.size())));
      ctx->Output(Value::Struct(std::move(fields)));
      return Status::OK();
    };
  }
  job.inputs = {std::move(map_input)};
  DYNO_ASSIGN_OR_RETURN(JobResult result, engine->Submit(job));
  if (!result.status.ok()) return result.status;
  return result;
}

Result<JobResult> RunOrderBy(MapReduceEngine* engine,
                             std::shared_ptr<DfsFile> input,
                             const OrderBySpec& spec,
                             const std::string& output_path,
                             const std::string& query_id) {
  JobSpec job;
  job.name = "orderby";
  job.query_id = query_id;
  job.output_path = output_path;
  job.num_reduce_tasks = 1;  // Global order needs a single reducer.
  MapInput map_input;
  map_input.file = std::move(input);
  map_input.map_fn = [](const Value& record, MapContext* ctx) -> Status {
    ctx->Emit(Value::Int(0), record);
    return Status::OK();
  };
  job.inputs = {std::move(map_input)};
  OrderBySpec spec_copy = spec;
  job.reduce_fn = [spec_copy](const Value& key,
                              const std::vector<Value>& values,
                              ReduceContext* ctx) -> Status {
    (void)key;
    std::vector<Value> rows = values;
    std::stable_sort(rows.begin(), rows.end(),
                     [&spec_copy](const Value& a, const Value& b) {
                       for (const auto& [col, desc] : spec_copy.keys) {
                         const Value* va = a.FindField(col);
                         const Value* vb = b.FindField(col);
                         Value na = va == nullptr ? Value::Null() : *va;
                         Value nb = vb == nullptr ? Value::Null() : *vb;
                         int c = na.Compare(nb);
                         if (c != 0) return desc ? c > 0 : c < 0;
                       }
                       return false;
                     });
    ctx->ChargeCpu(static_cast<double>(rows.size()) *
                   std::log2(static_cast<double>(rows.size()) + 2.0));
    int64_t limit = spec_copy.limit < 0
                        ? static_cast<int64_t>(rows.size())
                        : std::min<int64_t>(spec_copy.limit,
                                            static_cast<int64_t>(rows.size()));
    for (int64_t i = 0; i < limit; ++i) ctx->Output(std::move(rows[i]));
    return Status::OK();
  };
  DYNO_ASSIGN_OR_RETURN(JobResult result, engine->Submit(job));
  if (!result.status.ok()) return result.status;
  return result;
}

}  // namespace dyno

#include "exec/row_ops.h"

#include <algorithm>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "columnar/batch_eval.h"

namespace dyno {

Result<bool> EvalFilter(const ExprPtr& filter, const Value& row) {
  if (filter == nullptr) return true;
  DYNO_ASSIGN_OR_RETURN(Value v, filter->Eval(row));
  return v.type() == Value::Type::kBool && v.bool_value();
}

Result<std::vector<uint8_t>> FilterKeepMask(const ExprPtr& filter,
                                            const std::vector<Value>& rows) {
  if (filter == nullptr) return std::vector<uint8_t>(rows.size(), 1);
  DYNO_ASSIGN_OR_RETURN(columnar::BatchFilterResult result,
                        columnar::EvalFilterOverRows(filter, rows));
  return std::move(result.keep);
}

namespace {

const Value* FindColumn(const Value& row, const std::string& column) {
  return row.FindField(column);
}

const Value* FindColumn(const Value& row, const FieldRef& column) {
  return column.Find(row);
}

template <typename Column>
std::string EncodeKey(const Value& row, const std::vector<Column>& columns) {
  std::string out;
  for (const Column& col : columns) {
    const Value* v = FindColumn(row, col);
    if (v == nullptr) {
      Value::Null().EncodeTo(&out);
    } else {
      v->EncodeTo(&out);
    }
  }
  return out;
}

/// How MergeRows combines one (left, right) pair of shapes: the merged
/// shape, and the right slots that survive (names not already taken).
struct MergePlan {
  const RowShape* merged = nullptr;
  std::vector<uint32_t> right_slots;
};

struct ShapePairHash {
  size_t operator()(
      const std::pair<const RowShape*, const RowShape*>& key) const {
    return std::hash<const RowShape*>()(key.first) * 31 +
           std::hash<const RowShape*>()(key.second);
  }
};

const MergePlan& PlanMerge(const RowShape* left, const RowShape* right) {
  // Shapes are interned and never freed, so their addresses are stable
  // keys. Per thread: no lock on the join's hot path.
  thread_local std::unordered_map<std::pair<const RowShape*, const RowShape*>,
                                  MergePlan, ShapePairHash>
      plans;
  auto [it, inserted] = plans.try_emplace({left, right});
  MergePlan& plan = it->second;
  if (!inserted) return plan;
  std::vector<std::string_view> names;
  names.reserve(left->size() + right->size());
  for (size_t i = 0; i < left->size(); ++i) names.push_back(left->name(i));
  for (size_t i = 0; i < right->size(); ++i) {
    const std::string& name = right->name(i);
    if (std::find(names.begin(), names.end(), name) != names.end()) continue;
    names.push_back(name);
    plan.right_slots.push_back(static_cast<uint32_t>(i));
  }
  plan.merged = RowShape::Intern(names);
  return plan;
}

}  // namespace

std::string EncodeJoinKey(const Value& row,
                          const std::vector<std::string>& columns) {
  return EncodeKey(row, columns);
}

std::string KeyColumns::Encode(const Value& row) const {
  return EncodeKey(row, columns_);
}

Value KeyColumns::AsValue(const Value& row) const {
  ArrayElements elems;
  elems.reserve(columns_.size());
  for (const FieldRef& col : columns_) {
    const Value* v = col.Find(row);
    elems.push_back(v == nullptr ? Value::Null() : *v);
  }
  return Value::Array(std::move(elems));
}

Value MergeRows(const Value& left, const Value& right) {
  const MergePlan& plan = PlanMerge(&left.shape(), &right.shape());
  std::span<const Value> left_values = left.field_values();
  std::span<const Value> right_values = right.field_values();
  std::span<Value> merged;
  Value out = Value::Struct(plan.merged, &merged);
  std::copy(left_values.begin(), left_values.end(), merged.begin());
  Value* next = merged.data() + left_values.size();
  for (uint32_t slot : plan.right_slots) *next++ = right_values[slot];
  return out;
}

Value ProjectRow(const Value& row, const std::vector<std::string>& columns) {
  std::vector<std::string_view> names;
  std::vector<const Value*> found;
  names.reserve(columns.size());
  found.reserve(columns.size());
  for (const std::string& col : columns) {
    const Value* v = row.FindField(col);
    if (v == nullptr) continue;
    names.push_back(col);
    found.push_back(v);
  }
  std::span<Value> values;
  Value out = Value::Struct(RowShape::Intern(names), &values);
  for (size_t i = 0; i < found.size(); ++i) values[i] = *found[i];
  return out;
}

}  // namespace dyno

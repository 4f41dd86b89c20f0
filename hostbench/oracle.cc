#include <map>
#include <set>

#include "exec/row_ops.h"
#include "hostbench.h"

namespace hostbench {

namespace {

using dyno::Result;
using dyno::Status;
using dyno::Value;

Result<bool> Passes(const dyno::ExprPtr& filter, const Value& row) {
  if (filter == nullptr) return true;
  DYNO_ASSIGN_OR_RETURN(Value v, filter->Eval(row));
  return v.type() == Value::Type::kBool && v.bool_value();
}

/// The join block by greedy connected hash joins over fully read tables,
/// starting at the first table; non-local predicates apply as soon as the
/// join covers their aliases.
Result<std::vector<Value>> JoinBlock(dyno::Catalog* catalog,
                                     const dyno::JoinBlock& block) {
  DYNO_RETURN_IF_ERROR(dyno::ValidateJoinBlock(block));
  std::vector<dyno::Predicate> non_local;
  std::vector<dyno::LeafExpr> leaves =
      dyno::ExtractLeafExprs(block, &non_local);

  std::map<std::string, std::vector<Value>> rows_by_alias;
  for (const dyno::LeafExpr& leaf : leaves) {
    DYNO_ASSIGN_OR_RETURN(auto file, catalog->OpenTable(leaf.table));
    DYNO_ASSIGN_OR_RETURN(std::vector<Value> rows, dyno::ReadAllRows(*file));
    std::vector<Value>& kept = rows_by_alias[leaf.alias];
    for (Value& row : rows) {
      DYNO_ASSIGN_OR_RETURN(bool pass, Passes(leaf.filter, row));
      if (pass) kept.push_back(std::move(row));
    }
  }

  std::vector<Value> current = rows_by_alias[block.tables[0].alias];
  std::set<std::string> joined{block.tables[0].alias};
  std::set<size_t> applied;
  auto apply_covered = [&]() -> Status {
    for (size_t i = 0; i < non_local.size(); ++i) {
      if (applied.count(i) != 0) continue;
      bool covered = true;
      for (const std::string& alias : non_local[i].aliases) {
        covered &= joined.count(alias) != 0;
      }
      if (!covered) continue;
      std::vector<Value> kept;
      for (Value& row : current) {
        DYNO_ASSIGN_OR_RETURN(bool pass, Passes(non_local[i].expr, row));
        if (pass) kept.push_back(std::move(row));
      }
      current = std::move(kept);
      applied.insert(i);
    }
    return Status::OK();
  };

  while (joined.size() < block.tables.size()) {
    std::string next;
    std::vector<std::string> left_cols, right_cols;
    for (const dyno::TableRef& ref : block.tables) {
      if (joined.count(ref.alias) != 0) continue;
      left_cols.clear();
      right_cols.clear();
      for (const dyno::JoinEdge& edge : block.edges) {
        if (edge.left_alias == ref.alias && joined.count(edge.right_alias)) {
          left_cols.push_back(edge.right_column);
          right_cols.push_back(edge.left_column);
        } else if (edge.right_alias == ref.alias &&
                   joined.count(edge.left_alias)) {
          left_cols.push_back(edge.left_column);
          right_cols.push_back(edge.right_column);
        }
      }
      if (!left_cols.empty()) {
        next = ref.alias;
        break;
      }
    }
    if (next.empty()) {
      return Status::InvalidArgument("oracle: disconnected join graph");
    }
    std::map<std::string, std::vector<const Value*>> by_key;
    for (const Value& row : rows_by_alias[next]) {
      by_key[dyno::EncodeJoinKey(row, right_cols)].push_back(&row);
    }
    std::vector<Value> merged;
    for (const Value& row : current) {
      auto it = by_key.find(dyno::EncodeJoinKey(row, left_cols));
      if (it == by_key.end()) continue;
      for (const Value* match : it->second) {
        merged.push_back(dyno::MergeRows(row, *match));
      }
    }
    current = std::move(merged);
    joined.insert(next);
    DYNO_RETURN_IF_ERROR(apply_covered());
  }
  if (!block.output_columns.empty()) {
    for (Value& row : current) {
      row = dyno::ProjectRow(row, block.output_columns);
    }
  }
  return current;
}

/// GROUP BY with COUNT, MIN and MAX, the aggregates whose result does not
/// depend on the order rows are folded in.
Result<std::vector<Value>> GroupBy(const std::vector<Value>& rows,
                                   const dyno::GroupBySpec& spec) {
  // Key values as an array Value, compared with Value::Compare.
  auto less = [](const Value& a, const Value& b) { return a.Compare(b) < 0; };
  std::map<Value, std::vector<const Value*>, decltype(less)> groups(less);
  for (const Value& row : rows) {
    dyno::ArrayElements key;
    for (const std::string& column : spec.keys) {
      const Value* v = row.FindField(column);
      key.push_back(v == nullptr ? Value::Null() : *v);
    }
    groups[Value::Array(std::move(key))].push_back(&row);
  }
  std::vector<Value> out;
  for (const auto& [key, members] : groups) {
    dyno::StructFields fields;
    for (size_t i = 0; i < spec.keys.size(); ++i) {
      fields.emplace_back(spec.keys[i], key.array()[i]);
    }
    for (const dyno::Aggregate& agg : spec.aggregates) {
      if (agg.kind == dyno::Aggregate::Kind::kCount) {
        fields.emplace_back(agg.output_name,
                            Value::Int(static_cast<int64_t>(members.size())));
        continue;
      }
      const bool is_min = agg.kind == dyno::Aggregate::Kind::kMin;
      if (!is_min && agg.kind != dyno::Aggregate::Kind::kMax) {
        return Status::InvalidArgument(
            "oracle: only COUNT, MIN and MAX are order-independent");
      }
      const Value* best = nullptr;
      for (const Value* row : members) {
        const Value* v = row->FindField(agg.input_column);
        if (v == nullptr || v->is_null()) continue;
        const int c = best == nullptr ? 0 : v->Compare(*best);
        if (best == nullptr || (is_min ? c < 0 : c > 0)) best = v;
      }
      fields.emplace_back(agg.output_name,
                          best == nullptr ? Value::Null() : *best);
    }
    out.push_back(Value::Struct(std::move(fields)));
  }
  return out;
}

}  // namespace

Result<std::vector<Value>> NaiveEvaluate(dyno::Catalog* catalog,
                                         const dyno::Query& query) {
  DYNO_ASSIGN_OR_RETURN(std::vector<Value> rows,
                        JoinBlock(catalog, query.join_block));
  if (query.group_by.has_value()) {
    DYNO_ASSIGN_OR_RETURN(rows, GroupBy(rows, *query.group_by));
  }
  if (query.order_by.has_value() && query.order_by->limit >= 0) {
    // Which rows a LIMIT keeps depends on ties; results compare as sets.
    return Status::InvalidArgument("oracle: ORDER BY ... LIMIT unsupported");
  }
  return rows;
}

}  // namespace hostbench

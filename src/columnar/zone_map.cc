#include "columnar/zone_map.h"

#include <utility>

namespace dyno::columnar {

const ColumnZone* ZoneMap::FindColumn(std::string_view name) const {
  for (const ColumnZone& zone : zones_) {
    if (zone.name == name) return &zone;
  }
  return nullptr;
}

void ZoneMapBuilder::Observe(const Value& row) {
  ++map_.num_rows_;
  if (!map_.trackable_) return;
  if (row.type() != Value::Type::kStruct) {
    map_.trackable_ = false;
    map_.zones_.clear();
    return;
  }
  if (&row.shape() != shape_ && !ResolveShape(row.shape())) return;
  std::span<const Value> values = row.field_values();
  for (size_t slot = 0; slot < values.size(); ++slot) {
    if (zone_of_slot_[slot] < 0) continue;
    ColumnZone& zone = map_.zones_[zone_of_slot_[slot]];
    const Value& field = values[slot];
    if (field.is_null()) {
      zone.has_null_or_absent = true;
    } else {
      if (zone.non_null_rows == 0) {
        zone.min_value = field;
        zone.max_value = field;
      } else {
        if (field.Compare(zone.min_value) < 0) zone.min_value = field;
        if (field.Compare(zone.max_value) > 0) zone.max_value = field;
      }
      ++zone.non_null_rows;
    }
  }
  // Columns this row does not mention evaluate to null in it.
  for (size_t z : absent_zones_) map_.zones_[z].has_null_or_absent = true;
}

bool ZoneMapBuilder::ResolveShape(const RowShape& shape) {
  shape_ = &shape;
  zone_of_slot_.assign(shape.size(), -1);
  std::vector<bool> present(map_.zones_.size(), false);
  for (size_t slot = 0; slot < shape.size(); ++slot) {
    const std::string& name = shape.name(slot);
    if (shape.Find(name) != static_cast<int>(slot)) continue;
    // Linear scans are fine at kMaxColumns scale.
    size_t z = 0;
    while (z < map_.zones_.size() && map_.zones_[z].name != name) ++z;
    if (z == map_.zones_.size()) {
      if (map_.zones_.size() >= ZoneMap::kMaxColumns) {
        map_.trackable_ = false;
        map_.zones_.clear();
        shape_ = nullptr;
        return false;
      }
      map_.zones_.push_back(ColumnZone{});
      map_.zones_.back().name = name;
      // The column was absent in every earlier row of the split.
      map_.zones_.back().has_null_or_absent = map_.num_rows_ > 1;
      present.push_back(false);
    }
    zone_of_slot_[slot] = static_cast<int>(z);
    present[z] = true;
  }
  absent_zones_.clear();
  for (size_t z = 0; z < present.size(); ++z) {
    if (!present[z]) absent_zones_.push_back(z);
  }
  return true;
}

ZoneMap ZoneMapBuilder::Build() {
  ZoneMap out = std::move(map_);
  Reset();
  return out;
}

void ZoneMapBuilder::Reset() {
  map_ = ZoneMap{};
  shape_ = nullptr;
}

namespace {

/// Over-approximation of a predicate's truth set over one split: can any
/// row evaluate truthy / can any row evaluate falsy (where "falsy" covers
/// null and non-bool results — the engine's EvalFilter treats those as
/// false, and NOT maps them to true). Both flags err toward `true`.
struct TriState {
  bool can_true = true;
  bool can_false = true;
};

TriState Unknown() { return TriState{true, true}; }

TriState EvalComparison(const ZoneMap& zm, const std::string& column,
                        Expr::CompareOp op, const Value& literal) {
  if (literal.is_null()) {
    // `col <op> null` is false for every row.
    return TriState{false, true};
  }
  const ColumnZone* zone = zm.FindColumn(column);
  if (zone == nullptr) {
    // No row of the split has the column: it evaluates to null everywhere,
    // so the comparison is false everywhere.
    return TriState{false, true};
  }
  if (zone->non_null_rows == 0) return TriState{false, true};

  // All non-null values v of the column satisfy min <= v <= max under the
  // total value order, so range tests against the literal bound existence.
  const int cmp_min = zone->min_value.Compare(literal);
  const int cmp_max = zone->max_value.Compare(literal);
  const bool single_point = cmp_min == 0 && cmp_max == 0;
  TriState t;
  switch (op) {
    case Expr::CompareOp::kEq:
      t.can_true = cmp_min <= 0 && cmp_max >= 0;
      t.can_false = !single_point;
      break;
    case Expr::CompareOp::kNe:
      t.can_true = !single_point;
      t.can_false = cmp_min <= 0 && cmp_max >= 0;
      break;
    case Expr::CompareOp::kLt:
      t.can_true = cmp_min < 0;
      t.can_false = cmp_max >= 0;
      break;
    case Expr::CompareOp::kLe:
      t.can_true = cmp_min <= 0;
      t.can_false = cmp_max > 0;
      break;
    case Expr::CompareOp::kGt:
      t.can_true = cmp_max > 0;
      t.can_false = cmp_min <= 0;
      break;
    case Expr::CompareOp::kGe:
      t.can_true = cmp_max >= 0;
      t.can_false = cmp_min < 0;
      break;
  }
  // Rows where the column is null/absent evaluate the comparison to false.
  if (zone->has_null_or_absent) t.can_false = true;
  return t;
}

TriState EvalPrune(const ZoneMap& zm, const Expr& e) {
  switch (e.kind()) {
    case Expr::Kind::kLiteral: {
      Result<Value> v = e.Eval(Value::Null());
      if (!v.ok()) return Unknown();
      bool truthy = v->type() == Value::Type::kBool && v->bool_value();
      return TriState{truthy, !truthy};
    }
    case Expr::Kind::kCompare: {
      std::string column;
      Expr::CompareOp op;
      Value literal;
      if (e.AsSimpleComparison(&column, &op, &literal)) {
        return EvalComparison(zm, column, op, literal);
      }
      // Nested paths, column-to-column, arithmetic sides, UDF sides: the
      // zone map has nothing to say.
      return Unknown();
    }
    case Expr::Kind::kLogical: {
      Expr::LogicalOp op;
      const Expr* lhs = nullptr;
      const Expr* rhs = nullptr;
      if (!e.AsLogical(&op, &lhs, &rhs)) return Unknown();
      TriState l = EvalPrune(zm, *lhs);
      switch (op) {
        case Expr::LogicalOp::kNot:
          return TriState{l.can_false, l.can_true};
        case Expr::LogicalOp::kAnd: {
          TriState r = EvalPrune(zm, *rhs);
          return TriState{l.can_true && r.can_true,
                          l.can_false || r.can_false};
        }
        case Expr::LogicalOp::kOr: {
          TriState r = EvalPrune(zm, *rhs);
          return TriState{l.can_true || r.can_true,
                          l.can_false && r.can_false};
        }
      }
      return Unknown();
    }
    case Expr::Kind::kPath:
    case Expr::Kind::kArith:
    case Expr::Kind::kUdf:
      // Opaque to the zone map. In particular a UDF's selectivity is
      // invisible by design (the paper's information asymmetry), so a UDF
      // anywhere in a factor keeps every split.
      return Unknown();
  }
  return Unknown();
}

}  // namespace

bool ZoneMapMayMatch(const ZoneMap& zone_map, const Expr& filter) {
  if (!zone_map.trackable() || zone_map.num_rows() == 0) return true;
  return EvalPrune(zone_map, filter).can_true;
}

}  // namespace dyno::columnar

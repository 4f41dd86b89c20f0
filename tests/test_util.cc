#include "test_util.h"

#include <map>
#include <set>

#include <gtest/gtest.h>

#include "common/hash.h"

namespace dyno {

namespace {

Result<bool> PassesFilter(const ExprPtr& filter, const Value& row) {
  if (filter == nullptr) return true;
  DYNO_ASSIGN_OR_RETURN(Value v, filter->Eval(row));
  return v.type() == Value::Type::kBool && v.bool_value();
}

}  // namespace

Result<std::vector<Value>> NaiveEvaluateJoinBlock(Catalog* catalog,
                                                  const JoinBlock& block) {
  DYNO_RETURN_IF_ERROR(ValidateJoinBlock(block));
  std::vector<Predicate> non_local;
  std::vector<LeafExpr> leaves = ExtractLeafExprs(block, &non_local);

  // Load + filter each leaf.
  std::map<std::string, std::vector<Value>> rows_by_alias;
  for (const LeafExpr& leaf : leaves) {
    DYNO_ASSIGN_OR_RETURN(std::shared_ptr<DfsFile> file,
                          catalog->OpenTable(leaf.table));
    DYNO_ASSIGN_OR_RETURN(std::vector<Value> rows, ReadAllRows(*file));
    std::vector<Value> kept;
    for (const Value& row : rows) {
      DYNO_ASSIGN_OR_RETURN(bool pass, PassesFilter(leaf.filter, row));
      if (pass) kept.push_back(row);
    }
    rows_by_alias[leaf.alias] = std::move(kept);
  }

  // Greedy connected join order starting at the first table.
  std::vector<Value> current = rows_by_alias[block.tables[0].alias];
  std::set<std::string> joined{block.tables[0].alias};
  std::set<size_t> applied_preds;

  auto apply_covered_preds = [&](std::vector<Value>* rows) -> Status {
    for (size_t i = 0; i < non_local.size(); ++i) {
      if (applied_preds.count(i)) continue;
      bool covered = true;
      for (const std::string& alias : non_local[i].aliases) {
        if (!joined.count(alias)) {
          covered = false;
          break;
        }
      }
      if (!covered) continue;
      std::vector<Value> filtered;
      for (const Value& row : *rows) {
        DYNO_ASSIGN_OR_RETURN(bool pass,
                              PassesFilter(non_local[i].expr, row));
        if (pass) filtered.push_back(row);
      }
      *rows = std::move(filtered);
      applied_preds.insert(i);
    }
    return Status::OK();
  };

  while (joined.size() < block.tables.size()) {
    // Find an unjoined alias connected to the current set.
    std::string next;
    std::vector<std::pair<std::string, std::string>> keys;
    for (const TableRef& ref : block.tables) {
      if (joined.count(ref.alias)) continue;
      keys.clear();
      for (const JoinEdge& edge : block.edges) {
        if (edge.left_alias == ref.alias && joined.count(edge.right_alias)) {
          keys.emplace_back(edge.right_column, edge.left_column);
        } else if (edge.right_alias == ref.alias &&
                   joined.count(edge.left_alias)) {
          keys.emplace_back(edge.left_column, edge.right_column);
        }
      }
      if (!keys.empty()) {
        next = ref.alias;
        break;
      }
    }
    if (next.empty()) {
      return Status::InvalidArgument("disconnected join graph in oracle");
    }
    std::vector<std::string> left_cols;
    std::vector<std::string> right_cols;
    for (const auto& [l, r] : keys) {
      left_cols.push_back(l);
      right_cols.push_back(r);
    }
    // Hash the right side.
    std::map<std::string, std::vector<const Value*>> by_key;
    for (const Value& row : rows_by_alias[next]) {
      by_key[EncodeJoinKey(row, right_cols)].push_back(&row);
    }
    std::vector<Value> merged;
    for (const Value& row : current) {
      auto it = by_key.find(EncodeJoinKey(row, left_cols));
      if (it == by_key.end()) continue;
      for (const Value* r : it->second) {
        merged.push_back(MergeRows(row, *r));
      }
    }
    current = std::move(merged);
    joined.insert(next);
    DYNO_RETURN_IF_ERROR(apply_covered_preds(&current));
  }

  if (!block.output_columns.empty()) {
    for (Value& row : current) row = ProjectRow(row, block.output_columns);
  }
  return current;
}

Value CanonicalizeFieldOrder(const Value& v) {
  switch (v.type()) {
    case Value::Type::kStruct: {
      StructFields fields = v.fields();
      for (auto& [name, value] : fields) value = CanonicalizeFieldOrder(value);
      std::sort(fields.begin(), fields.end(),
                [](const auto& a, const auto& b) { return a.first < b.first; });
      return Value::Struct(std::move(fields));
    }
    case Value::Type::kArray: {
      ArrayElements elems = v.array();
      for (Value& e : elems) e = CanonicalizeFieldOrder(e);
      return Value::Array(std::move(elems));
    }
    default:
      return v;
  }
}

void SortRowsForComparison(std::vector<Value>* rows) {
  for (Value& row : *rows) row = CanonicalizeFieldOrder(row);
  std::sort(rows->begin(), rows->end(),
            [](const Value& a, const Value& b) { return a.Compare(b) < 0; });
}

std::vector<Value> MustReadAll(const DfsFile& file) {
  auto rows = ReadAllRows(file);
  EXPECT_TRUE(rows.ok()) << rows.status().ToString();
  return rows.ok() ? std::move(rows).value() : std::vector<Value>{};
}

namespace legacy {

namespace {

void EncodeVarint(uint64_t v, std::string* out) {
  while (v >= 0x80) {
    out->push_back(static_cast<char>((v & 0x7f) | 0x80));
    v >>= 7;
  }
  out->push_back(static_cast<char>(v));
}

size_t VarintSize(uint64_t v) {
  size_t n = 1;
  while (v >= 0x80) {
    v >>= 7;
    ++n;
  }
  return n;
}

void EncodeTo(const Value& v, std::string* out) {
  switch (v.type()) {
    case Value::Type::kArray:
      out->push_back(static_cast<char>(v.type()));
      EncodeVarint(v.array().size(), out);
      for (const Value& e : v.array()) EncodeTo(e, out);
      return;
    case Value::Type::kStruct:
      out->push_back(static_cast<char>(v.type()));
      EncodeVarint(v.fields().size(), out);
      for (const auto& [name, value] : v.fields()) {
        EncodeVarint(name.size(), out);
        out->append(name);
        EncodeTo(value, out);
      }
      return;
    default:
      v.EncodeTo(out);
  }
}

}  // namespace

std::string Encode(const Value& v) {
  std::string out;
  EncodeTo(v, &out);
  return out;
}

size_t EncodedSize(const Value& v) {
  switch (v.type()) {
    case Value::Type::kArray: {
      size_t n = 1 + VarintSize(v.array().size());
      for (const Value& e : v.array()) n += EncodedSize(e);
      return n;
    }
    case Value::Type::kStruct: {
      size_t n = 1 + VarintSize(v.fields().size());
      for (const auto& [name, value] : v.fields()) {
        n += VarintSize(name.size()) + name.size() + EncodedSize(value);
      }
      return n;
    }
    default:
      return v.EncodedSize();
  }
}

uint64_t Hash(const Value& v) {
  switch (v.type()) {
    case Value::Type::kArray: {
      uint64_t h = 0x617272ULL;
      for (const Value& e : v.array()) h = HashCombine(h, Hash(e));
      return h;
    }
    case Value::Type::kStruct: {
      uint64_t h = 0x6f626aULL;
      for (const auto& [name, value] : v.fields()) {
        h = HashCombine(h, HashBytes(name, 0));
        h = HashCombine(h, Hash(value));
      }
      return h;
    }
    default:
      return v.Hash();
  }
}

int Compare(const Value& a, const Value& b) {
  if (a.type() != b.type() || (a.type() != Value::Type::kArray &&
                               a.type() != Value::Type::kStruct)) {
    return a.Compare(b);
  }
  if (a.type() == Value::Type::kArray) {
    const ArrayElements& x = a.array();
    const ArrayElements& y = b.array();
    size_t n = std::min(x.size(), y.size());
    for (size_t i = 0; i < n; ++i) {
      int c = Compare(x[i], y[i]);
      if (c != 0) return c;
    }
    if (x.size() != y.size()) return x.size() < y.size() ? -1 : 1;
    return 0;
  }
  StructFields x = a.fields();
  StructFields y = b.fields();
  size_t n = std::min(x.size(), y.size());
  for (size_t i = 0; i < n; ++i) {
    int c = x[i].first.compare(y[i].first);
    if (c != 0) return c < 0 ? -1 : 1;
    c = Compare(x[i].second, y[i].second);
    if (c != 0) return c;
  }
  if (x.size() != y.size()) return x.size() < y.size() ? -1 : 1;
  return 0;
}

std::string ToString(const Value& v) {
  switch (v.type()) {
    case Value::Type::kArray: {
      std::string out = "[";
      const ArrayElements& elems = v.array();
      for (size_t i = 0; i < elems.size(); ++i) {
        if (i > 0) out += ", ";
        out += ToString(elems[i]);
      }
      return out + "]";
    }
    case Value::Type::kStruct: {
      std::string out = "{";
      StructFields flds = v.fields();
      for (size_t i = 0; i < flds.size(); ++i) {
        if (i > 0) out += ", ";
        out += flds[i].first + ": " + ToString(flds[i].second);
      }
      return out + "}";
    }
    default:
      return v.ToString();
  }
}

const Value* FindField(const Value& v, std::string_view name) {
  if (v.type() != Value::Type::kStruct) return nullptr;
  for (const auto& [field_name, value] : v.fields()) {
    if (field_name == name) return &value;
  }
  return nullptr;
}

}  // namespace legacy

}  // namespace dyno

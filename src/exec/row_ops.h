#ifndef DYNO_EXEC_ROW_OPS_H_
#define DYNO_EXEC_ROW_OPS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "expr/expr.h"
#include "json/value.h"

namespace dyno {

/// Evaluates a boolean filter against one row; non-bool/null results count
/// as false (the engine's scan semantics). A null filter keeps everything.
Result<bool> EvalFilter(const ExprPtr& filter, const Value& row);

/// Batch-at-a-time variant: one keep byte per row, bit-identical to calling
/// EvalFilter row-by-row. `column <op> literal` conjuncts run as vectorized
/// selection-cascade compare loops (columnar::EvalFilterOverRows); client-
/// side callers (broadcast build, result checks) use this so the row path
/// stays available as the oracle it is tested against.
Result<std::vector<uint8_t>> FilterKeepMask(const ExprPtr& filter,
                                            const std::vector<Value>& rows);

/// Extracts the join key of `row` over `columns` as an encoded string
/// (usable as a hash map key without collision concerns). Missing columns
/// contribute nulls.
std::string EncodeJoinKey(const Value& row,
                          const std::vector<std::string>& columns);

/// Join or group-by key columns for callers that key row after row: each
/// column's slot is resolved once per row shape (FieldRef). Safe to share
/// between threads.
class KeyColumns {
 public:
  explicit KeyColumns(const std::vector<std::string>& names)
      : columns_(names.begin(), names.end()) {}

  /// EncodeJoinKey(row, names).
  std::string Encode(const Value& row) const;

  /// The key as a Value (an array), used as the shuffle key of repartition
  /// joins and group-bys so the simulator sorts/groups on it.
  Value AsValue(const Value& row) const;

 private:
  std::vector<FieldRef> columns_;
};

/// Concatenates the fields of two joined rows. Column names are unique
/// across a query's tables (TPC-H prefixes), so the merge is a plain append;
/// on a (pathological) duplicate the left side wins, and a name repeated on
/// the right is kept once. The merged shape is worked out once per pair of
/// input shapes (per thread), so a join pays for its values only.
Value MergeRows(const Value& left, const Value& right);

/// Projects `row` onto `columns` (order preserved, missing columns dropped).
Value ProjectRow(const Value& row, const std::vector<std::string>& columns);

}  // namespace dyno

#endif  // DYNO_EXEC_ROW_OPS_H_

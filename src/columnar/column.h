#ifndef DYNO_COLUMNAR_COLUMN_H_
#define DYNO_COLUMNAR_COLUMN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "json/value.h"

namespace dyno::columnar {

/// Physical type of one column vector. Scalar columns hold their values in
/// a typed payload; kMixed falls back to whole `Value` encodings (nested
/// structs/arrays, or a column whose rows disagree on scalar type).
enum class ColumnType : uint8_t {
  kBool = 0,
  kInt = 1,
  kDouble = 2,
  kString = 3,
  kMixed = 4,
};

/// Per-row presence of a column. JSON rows are self-describing, so "the
/// field is missing" and "the field is explicitly null" are different rows;
/// both must survive a round trip through the batch format byte-exactly.
enum class Presence : uint8_t {
  kAbsent = 0,
  kNull = 1,
  kSet = 2,
};

/// One decoded column: a presence run plus the set values in row order.
struct ColumnVector {
  std::string name;
  /// Presence::kAbsent/kNull/kSet per row (size == batch row count).
  std::vector<uint8_t> presence;
  /// The kSet values only, in row order. Values here are never null.
  std::vector<Value> values;
};

/// A batch of rows in columnar layout — the unit one DFS split stores when
/// the columnar data plane is on. Construction never fails: rows whose
/// field order cannot be expressed as a subsequence of a single shared
/// schema (duplicate names, reordered fields, non-struct rows) fall back to
/// an "irregular" representation holding whole row encodings, so
/// `ToRows(FromRows(rows))` is always byte-exact.
///
/// Encoded layout (all integers varint unless noted):
///   'C' 'B' '0' '1'            magic
///   u8 flags                   bit 0 = irregular fallback
///   num_rows, num_cols
///   per column: name, u8 type, num_rows presence bytes, set_count,
///               typed payload (set values in row order)
///   u32 CRC32C (LE)            over every preceding byte
/// Decode verifies the trailing CRC before parsing a single field; any
/// corruption of the frame surfaces as Status::DataLoss, never a crash or
/// a wrong row.
class ColumnBatch {
 public:
  ColumnBatch() = default;

  /// Builds a batch from `rows` (column-regular or irregular fallback).
  static ColumnBatch FromRows(const std::vector<Value>& rows);

  /// Appends the encoded frame (including the trailing CRC) to `out`.
  void EncodeTo(std::string* out) const;

  /// Decodes one frame occupying all of `data`. CRC mismatch, truncation,
  /// trailing garbage, bad tags — every failure mode is DataLoss.
  static Result<ColumnBatch> Decode(std::string_view data);

  /// Reassembles the original rows (exact round trip of FromRows input).
  std::vector<Value> ToRows() const&;
  /// As above, but moves the decoded values out of the batch instead of
  /// copying them; the batch is left valid but unspecified.
  std::vector<Value> ToRows() &&;

  uint64_t num_rows() const { return num_rows_; }
  size_t num_columns() const { return columns_.size(); }
  bool irregular() const { return irregular_; }
  const std::vector<ColumnVector>& columns() const { return columns_; }

 private:
  uint64_t num_rows_ = 0;
  bool irregular_ = false;
  /// Irregular mode: whole-row values, one per row (columns_ empty).
  std::vector<Value> raw_rows_;
  std::vector<ColumnVector> columns_;
};

}  // namespace dyno::columnar

#endif  // DYNO_COLUMNAR_COLUMN_H_

#include "exec/broadcast.h"

#include <utility>

#include "exec/row_ops.h"

namespace dyno {

Result<std::shared_ptr<BroadcastTable>> BuildBroadcastTable(
    const DfsFile& file, const ExprPtr& filter,
    const std::vector<std::string>& key_columns, uint64_t* splits_pruned) {
  auto table = std::make_shared<BroadcastTable>();
  const KeyColumns keys(key_columns);
  std::vector<size_t> split_indexes;
  if (splits_pruned != nullptr) {
    PruneResult pruned = PruneSplitIndexes(file, filter);
    *splits_pruned = pruned.pruned;
    split_indexes = std::move(pruned.kept);
  } else {
    split_indexes.reserve(file.splits().size());
    for (size_t i = 0; i < file.splits().size(); ++i) {
      split_indexes.push_back(i);
    }
  }
  for (size_t index : split_indexes) {
    const Split& split = file.splits()[index];
    table->load_bytes += split.num_bytes();
    DYNO_ASSIGN_OR_RETURN(std::vector<Value> rows, DecodeSplitRows(split));
    DYNO_ASSIGN_OR_RETURN(std::vector<uint8_t> keep,
                          FilterKeepMask(filter, rows));
    for (size_t i = 0; i < rows.size(); ++i) {
      if (!keep[i]) continue;
      Value& row = rows[i];
      table->built_bytes += row.EncodedSize();
      ++table->num_rows;
      table->rows_by_key[keys.Encode(row)].push_back(
          std::move(row));
    }
  }
  return table;
}

}  // namespace dyno

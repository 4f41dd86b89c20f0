#ifndef DYNO_STORAGE_CATALOG_H_
#define DYNO_STORAGE_CATALOG_H_

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <tuple>
#include <typeindex>
#include <typeinfo>
#include <vector>

#include "common/status.h"
#include "storage/dfs.h"

namespace dyno {

/// Metadata for one registered table: where its rows live on the DFS.
/// Schemas are dynamic (the data model is self-describing JSON), so the
/// catalog only tracks names and file locations.
struct TableEntry {
  std::string name;
  std::string dfs_path;
};

/// Maps table names to DFS files — the Hive-metastore stand-in.
class Catalog {
 public:
  explicit Catalog(Dfs* dfs) : dfs_(dfs) {}
  Catalog(const Catalog&) = delete;
  Catalog& operator=(const Catalog&) = delete;

  /// Registers `name` -> `dfs_path`. The file must already exist.
  Status RegisterTable(const std::string& name, const std::string& dfs_path);

  /// Re-points `name` at `dfs_path`, registering it if absent. This is the
  /// only sanctioned way to rewrite a table in place; it bumps the table's
  /// replace epoch so `TableVersion` changes even if the new file happens to
  /// live at the old path.
  Status ReplaceTable(const std::string& name, const std::string& dfs_path);

  /// Creates a DFS file from `rows` and registers it under `name`. Base
  /// tables are written columnar when DYNO_COLUMNAR=1, row format otherwise;
  /// either way every split carries a zone map. `target_split_bytes` lets
  /// tests script exact split layouts (pinned pruning counts).
  Status CreateTable(const std::string& name, const std::vector<Value>& rows);
  Status CreateTable(const std::string& name, const std::vector<Value>& rows,
                     uint64_t target_split_bytes);

  Result<TableEntry> Lookup(const std::string& name) const;

  /// Opens the DFS file backing `name`.
  Result<std::shared_ptr<DfsFile>> OpenTable(const std::string& name) const;

  std::vector<std::string> TableNames() const;

  /// Version fingerprint for the data currently backing `name`: a hash of
  /// the backing DFS path, that path's DFS write epoch, and the table's
  /// catalog replace epoch. Any rewrite — re-pointing the name, or deleting
  /// and re-creating the file at the same path — changes the version, so
  /// caches keyed by (signature, version) can never serve pre-rewrite data.
  /// Returns 0 for unknown tables (0 is never a valid version).
  uint64_t TableVersion(const std::string& name) const;

  Dfs* dfs() const { return dfs_; }

  /// Statistics computed once per table version and shared by every
  /// caller on this catalog: returns the entry stored under (`table`, its
  /// current TableVersion, `key`), or runs `compute` (a callable returning
  /// `Result<T>`) and stores its result. `key` must determine the statistic
  /// given the table's data (analyzed columns, filter, join columns); `T`
  /// keeps callers' key spaces apart. An entry of an older version is never
  /// returned: ReplaceTable drops the table's entries, and a lookup that
  /// meets an older version recomputes and overwrites it. Entries live as
  /// long as the catalog. A failed `compute` stores nothing.
  template <typename T, typename Compute>
  Result<std::shared_ptr<const T>> MemoizedStats(const std::string& table,
                                                 const std::string& key,
                                                 Compute&& compute);

  /// Number of memoized statistics, for tests.
  size_t memoized_stats_size() const;

 private:
  using MemoKey = std::tuple<std::string, std::type_index, std::string>;
  struct MemoEntry {
    uint64_t version = 0;
    std::shared_ptr<const void> value;
  };

  std::shared_ptr<const void> FindMemo(const MemoKey& key,
                                       uint64_t version) const;
  void StoreMemo(MemoKey key, uint64_t version,
                 std::shared_ptr<const void> value);

  Dfs* dfs_;
  std::map<std::string, TableEntry> tables_;
  std::map<std::string, uint64_t> replace_epochs_;
  mutable std::mutex memo_mu_;
  std::map<MemoKey, MemoEntry> memo_;
};

template <typename T, typename Compute>
Result<std::shared_ptr<const T>> Catalog::MemoizedStats(
    const std::string& table, const std::string& key, Compute&& compute) {
  const uint64_t version = TableVersion(table);
  MemoKey memo_key(table, std::type_index(typeid(T)), key);
  if (std::shared_ptr<const void> hit = FindMemo(memo_key, version)) {
    return std::static_pointer_cast<const T>(std::move(hit));
  }
  // Computed outside the lock: a statistic may scan a whole table.
  DYNO_ASSIGN_OR_RETURN(T value, compute());
  auto stored = std::make_shared<const T>(std::move(value));
  if (version != 0) StoreMemo(std::move(memo_key), version, stored);
  return stored;
}

}  // namespace dyno

#endif  // DYNO_STORAGE_CATALOG_H_

#ifndef DYNO_TESTS_TEST_UTIL_H_
#define DYNO_TESTS_TEST_UTIL_H_

#include <algorithm>
#include <cstdlib>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "exec/row_ops.h"
#include "lang/query.h"
#include "storage/catalog.h"

namespace dyno {

/// RAII environment pin: sets each variable for the scope and restores the
/// previous state (including absence) on destruction. The runtime knobs
/// (DYNO_COLUMNAR, DYNO_ZONE_MAPS, ...) are re-read on every use, so
/// pinning at test scope is deterministic regardless of the ctest preset's
/// environment.
class ScopedEnv {
 public:
  explicit ScopedEnv(std::vector<std::pair<std::string, std::string>> vars) {
    for (auto& [name, value] : vars) {
      const char* old = ::getenv(name.c_str());
      saved_.emplace_back(name, old == nullptr
                                    ? std::optional<std::string>()
                                    : std::optional<std::string>(old));
      ::setenv(name.c_str(), value.c_str(), 1);
    }
  }
  ~ScopedEnv() {
    for (auto it = saved_.rbegin(); it != saved_.rend(); ++it) {
      if (it->second.has_value()) {
        ::setenv(it->first.c_str(), it->second->c_str(), 1);
      } else {
        ::unsetenv(it->first.c_str());
      }
    }
  }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  std::vector<std::pair<std::string, std::optional<std::string>>> saved_;
};

/// Brute-force oracle: evaluates a join block by nested-loop joins over
/// fully materialized tables. Only usable at test scale; results are
/// returned in no particular order.
Result<std::vector<Value>> NaiveEvaluateJoinBlock(Catalog* catalog,
                                                  const JoinBlock& block);

/// Recursively sorts struct fields by name: different join orders merge
/// the same logical row with different field orders, and struct comparison
/// is order-sensitive.
Value CanonicalizeFieldOrder(const Value& v);

/// Canonicalizes field order then sorts rows so result multisets compare.
void SortRowsForComparison(std::vector<Value>* rows);

/// Reads every row of a DFS file (fails the calling test on error).
std::vector<Value> MustReadAll(const DfsFile& file);

/// A reference copy of the codec as it was when every struct owned its
/// field names (a vector of (name, value) pairs), before RowShape. Struct
/// and array cases re-implement the old code over the public field view,
/// names byte by byte; scalars defer to Value, whose scalar code did not
/// change. Tests compare the shape-based Value against these.
namespace legacy {
std::string Encode(const Value& v);
size_t EncodedSize(const Value& v);
uint64_t Hash(const Value& v);
int Compare(const Value& a, const Value& b);
std::string ToString(const Value& v);
/// First field named `name` by linear scan; nullptr when absent.
const Value* FindField(const Value& v, std::string_view name);
}  // namespace legacy

}  // namespace dyno

#endif  // DYNO_TESTS_TEST_UTIL_H_

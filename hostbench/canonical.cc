#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>

#include "common/hash.h"
#include "hostbench.h"

namespace hostbench {

namespace {

/// Sorts struct fields by name, recursively, so rows that differ only in
/// field order (projections built by different plans) encode identically.
dyno::Value Normalize(const dyno::Value& value) {
  switch (value.type()) {
    case dyno::Value::Type::kArray: {
      dyno::ArrayElements elems;
      elems.reserve(value.array().size());
      for (const dyno::Value& e : value.array()) elems.push_back(Normalize(e));
      return dyno::Value::Array(std::move(elems));
    }
    case dyno::Value::Type::kStruct: {
      dyno::StructFields fields;
      fields.reserve(value.fields().size());
      for (const auto& [name, field] : value.fields()) {
        fields.emplace_back(name, Normalize(field));
      }
      std::stable_sort(fields.begin(), fields.end(),
                       [](const auto& a, const auto& b) {
                         return a.first < b.first;
                       });
      return dyno::Value::Struct(std::move(fields));
    }
    default:
      return value;
  }
}

}  // namespace

dyno::Result<RowSet> CanonicalRows(const std::vector<dyno::Value>& rows) {
  std::vector<std::string> encoded;
  encoded.reserve(rows.size());
  for (const dyno::Value& row : rows) {
    std::string bytes;
    Normalize(row).EncodeTo(&bytes);
    encoded.push_back(std::move(bytes));
  }
  std::sort(encoded.begin(), encoded.end());
  RowSet out;
  out.rows = encoded.size();
  uint64_t hash = 0;
  for (const std::string& bytes : encoded) {
    hash = dyno::Mix64(dyno::HashBytes(bytes, hash) + bytes.size());
  }
  out.hash = hash;
  return out;
}

dyno::Result<RowSet> CanonicalRows(const std::shared_ptr<dyno::DfsFile>& file) {
  if (file == nullptr) {
    return dyno::Status::Internal(
        "execution reported success without a result");
  }
  DYNO_ASSIGN_OR_RETURN(std::vector<dyno::Value> rows,
                        dyno::ReadAllRows(*file));
  return CanonicalRows(rows);
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

Tail TailOf(std::vector<double> values) {
  Tail tail;
  tail.samples = static_cast<int>(values.size());
  if (values.empty()) return tail;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  for (double p : {99.9, 99.0, 95.0, 90.0, 75.0}) {
    // Nearest-rank percentile: the value at rank ceil(p/100 * n).
    const size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * n));
    if (n - rank >= 10) {
      tail.value = values[rank - 1];
      tail.percentile = p;
      tail.beyond = static_cast<int>(n - rank);
      return tail;
    }
  }
  tail.value = values.back();
  tail.percentile = 100.0;
  return tail;
}

double GeometricMean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double log_sum = 0.0;
  for (double v : values) log_sum += std::log(v);
  return std::exp(log_sum / static_cast<double>(values.size()));
}

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + ts.tv_nsec * 1e-9;
}

uint64_t DeriveSeed(uint64_t seed, std::string_view stream) {
  return dyno::Mix64(dyno::HashBytes(stream, seed) ^ dyno::Mix64(seed));
}

}  // namespace hostbench

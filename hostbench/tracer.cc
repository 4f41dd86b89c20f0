#include <algorithm>
#include <chrono>
#include <utility>

#include "hostbench.h"

namespace hostbench {

namespace {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Adds the host time of each call of `fn` to `*sink`.
template <typename R, typename... Args>
std::function<R(Args...)> Timed(std::function<R(Args...)> fn,
                                std::atomic<int64_t>* sink) {
  return [fn = std::move(fn), sink](Args... args) -> R {
    const int64_t t0 = NowNs();
    if constexpr (std::is_void_v<R>) {
      fn(std::forward<Args>(args)...);
      sink->fetch_add(NowNs() - t0, std::memory_order_relaxed);
    } else {
      R r = fn(std::forward<Args>(args)...);
      sink->fetch_add(NowNs() - t0, std::memory_order_relaxed);
      return r;
    }
  };
}

}  // namespace

Tracer::JobClass Tracer::ClassOf(const std::string& job_name) {
  if (job_name.rfind("pilr:", 0) == 0) return kPilot;
  if (job_name.rfind("filter:", 0) == 0) return kFilter;
  if (job_name == "groupby" || job_name == "orderby") return kAgg;
  return kPlan;
}

const char* Tracer::ClassName(JobClass c) {
  static const char* const kNames[kNumClasses] = {"plan", "pilot", "filter",
                                                  "agg"};
  return kNames[c];
}

Tracer::Scope::Scope(Tracer* tracer, std::string name) : tracer_(tracer) {
  Span span;
  span.name = std::move(name);
  span.parent = tracer_->open_.empty() ? -1 : tracer_->open_.back();
  span.start_s = NowSeconds();
  id_ = static_cast<int>(tracer_->spans_.size());
  tracer_->spans_.push_back(std::move(span));
  tracer_->open_.push_back(id_);
}

Tracer::Scope::~Scope() {
  tracer_->spans_[id_].end_s = NowSeconds();
  tracer_->open_.pop_back();
}

MaybeScope::MaybeScope(Tracer* tracer, const char* name) {
  if (tracer != nullptr) scope_ = std::make_unique<Tracer::Scope>(tracer, name);
}

void Tracer::Attach(dyno::MapReduceEngine* engine, bool gate) {
  engine->set_metrics(&metrics_);
  if (!gate) return;
  engine->set_submit_gate([this, engine](std::vector<dyno::JobSpec> specs) {
    return TimedSubmit(engine, std::move(specs));
  });
}

void Tracer::Detach(dyno::MapReduceEngine* engine) {
  engine->set_submit_gate(nullptr);
  engine->set_metrics(nullptr);
}

uint64_t Tracer::Count(const std::string& counter) {
  return metrics_.GetCounter(counter)->value();
}

void Tracer::WrapSpecs(std::vector<dyno::JobSpec>* specs) {
  for (dyno::JobSpec& spec : *specs) {
    for (dyno::MapInput& input : spec.inputs) {
      if (input.map_fn) {
        input.map_fn = Timed(std::move(input.map_fn), &map_fn_ns_);
      }
      if (input.flush_fn) {
        input.flush_fn = Timed(std::move(input.flush_fn), &map_fn_ns_);
      }
    }
    if (spec.reduce_fn) {
      spec.reduce_fn = Timed(std::move(spec.reduce_fn), &reduce_fn_ns_);
    }
    if (spec.output_observer) {
      spec.output_observer =
          Timed(std::move(spec.output_observer), &observer_ns_);
    }
  }
}

dyno::Result<std::vector<dyno::JobResult>> Tracer::TimedSubmit(
    dyno::MapReduceEngine* engine, std::vector<dyno::JobSpec> specs) {
  WrapSpecs(&specs);
  Scope span(this, "mr.submit");
  const double cpu0 = ProcessCpuSeconds();
  const double t0 = NowSeconds();
  auto results = engine->SubmitAllDirect(specs);
  const double wall = NowSeconds() - t0;
  submit_cpu_s_ += ProcessCpuSeconds() - cpu0;
  submit_wall_s_ += wall;

  // Split the batch's wall time across its jobs in proportion to the map
  // input each read (evenly when none read any).
  std::vector<double> weight(specs.size(), 1.0);
  if (results.ok() && results->size() == specs.size()) {
    uint64_t total = 0;
    for (const dyno::JobResult& r : *results) {
      total += r.counters.map_input_bytes;
    }
    map_input_bytes_ += total;
    if (total > 0) {
      for (size_t i = 0; i < specs.size(); ++i) {
        weight[i] =
            static_cast<double>((*results)[i].counters.map_input_bytes);
      }
    }
  }
  double weight_sum = 0.0;
  for (double w : weight) weight_sum += w;
  for (size_t i = 0; i < specs.size(); ++i) {
    class_s_[ClassOf(specs[i].name)] += wall * weight[i] / weight_sum;
  }
  return results;
}

std::map<std::string, Tracer::Layer> Tracer::Layers() const {
  std::vector<double> child_s(spans_.size(), 0.0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) child_s[span.parent] += span.end_s - span.start_s;
  }
  std::map<std::string, Layer> layers;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const double duration = spans_[i].end_s - spans_[i].start_s;
    Layer& layer = layers[spans_[i].name];
    layer.total_s += duration;
    layer.self_s += duration - child_s[i];
  }
  return layers;
}

StorageProbe ProbeStorage(const dyno::Catalog& catalog) {
  // Copies of every base table in both formats, split like the originals.
  dyno::Dfs scratch;
  std::vector<std::shared_ptr<dyno::DfsFile>> files[2];  // row, columnar
  for (const std::string& table : catalog.TableNames()) {
    auto file = catalog.OpenTable(table);
    if (!file.ok()) continue;
    auto rows = dyno::ReadAllRows(**file);
    if (!rows.ok()) continue;
    for (int f = 0; f < 2; ++f) {
      auto copy = dyno::WriteRows(
          &scratch, "/probe/" + std::to_string(f) + "/" + table, *rows,
          kSplitBytes, f == 0 ? dyno::SplitFormat::kRow
                           : dyno::SplitFormat::kColumnar);
      if (copy.ok()) files[f].push_back(*copy);
    }
  }

  // Median of five passes of each measurement.
  auto throughput = [](const std::vector<std::shared_ptr<dyno::DfsFile>>& set,
                       bool decode) {
    std::vector<double> mb_per_s;
    for (int pass = 0; pass < 5; ++pass) {
      uint64_t bytes = 0;
      const double t0 = NowSeconds();
      for (const auto& file : set) {
        for (const dyno::Split& split : file->splits()) {
          bytes += split.data.size();
          if (decode) {
            auto rows = dyno::DecodeSplitRows(split);
            if (!rows.ok()) return 0.0;
          } else if (!dyno::VerifySplit(split).ok()) {
            return 0.0;
          }
        }
      }
      const double dt = NowSeconds() - t0;
      mb_per_s.push_back(dt > 0 ? bytes / 1e6 / dt : 0.0);
    }
    return Median(mb_per_s);
  };

  StorageProbe probe;
  probe.verify_mb_per_s = throughput(files[0], false);
  probe.row_decode_mb_per_s = throughput(files[0], true);
  probe.columnar_decode_mb_per_s = throughput(files[1], true);
  return probe;
}

}  // namespace hostbench

// Metrics registry: named counters, gauges, and histograms.
//
// Counters and gauges are single atomics and safe to update from any thread
// (including inside OpenMP regions). Histograms keep every sample under a
// small mutex — they are fed from per-stage control code (points-per-cell
// populations), not from inner kernels — and report nearest-rank percentiles
// on demand.
//
// Naming convention (docs/OBSERVABILITY.md): lower-case dotted paths grouped
// by subsystem, e.g. "ksp.cg.iterations", "mg.vcycles", "mpm.points_per_cell".
#pragma once

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "obs/json.hpp"

namespace ptatin::obs {

class Counter {
public:
  void inc(long long d = 1) { v_.fetch_add(d, std::memory_order_relaxed); }
  long long value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0, std::memory_order_relaxed); }

private:
  std::atomic<long long> v_{0};
};

class Gauge {
public:
  void set(double v) { v_.store(v, std::memory_order_relaxed); }
  double value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0.0, std::memory_order_relaxed); }

private:
  std::atomic<double> v_{0.0};
};

class Histogram {
public:
  void record(double v);
  long long count() const;
  /// Nearest-rank percentile, p in (0, 100]. Returns 0 when empty.
  double percentile(double p) const;

  struct Summary {
    long long count = 0;
    double min = 0, max = 0, mean = 0;
    double p50 = 0, p90 = 0, p99 = 0;
  };
  Summary summarize() const;
  void reset();

private:
  mutable std::mutex mu_;
  std::vector<double> values_;
};

/// Global registry. Metric creation locks; returned references are stable
/// for the process lifetime, so hot paths should capture them once.
class MetricsRegistry {
public:
  static MetricsRegistry& instance();

  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  void reset_all();

  /// {"counters": {...}, "gauges": {...}, "histograms": {name: summary}}.
  /// Metrics that never recorded a sample are omitted.
  JsonValue to_json() const;

private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

} // namespace ptatin::obs

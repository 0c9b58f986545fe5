// Hierarchical trace spans backed by per-thread event buffers.
//
// The pre-existing PerfScope accumulated into a shared PerfEvent, which races
// when operator applications run inside OpenMP regions. Here every thread
// appends completed spans to its own buffer with no synchronization (the
// buffer is registered once under a mutex, on the thread's first span).
// Merging happens on the control thread after parallel regions have joined —
// the OpenMP fork/join barrier provides the happens-before edge — so the hot
// path stays lock-free.
//
// Traces export as Chrome trace_event JSON ("X" complete events), viewable
// in chrome://tracing or https://ui.perfetto.dev. Tracing is off by default:
// a disabled span costs one relaxed atomic load plus a clock read.
#pragma once

#include <atomic>
#include <chrono>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace ptatin::obs {

/// One completed span. Timestamps are microseconds since the tracer epoch
/// (process start), matching the Chrome trace_event clock convention.
struct TraceEvent {
  std::string name;
  double ts_us = 0.0;  ///< span start
  double dur_us = 0.0; ///< span duration
  int tid = 0;         ///< dense thread id (registration order)
  int depth = 0;       ///< nesting depth on the owning thread at span open
  double flops = 0.0;  ///< optional perf payload (emitted into "args")
  double bytes_perfect = 0.0;
  double bytes_pessimal = 0.0;
};

class Tracer {
public:
  static Tracer& instance();

  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Microseconds since the tracer epoch (monotonic).
  double now_us() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - epoch_)
        .count();
  }

  /// Append a completed event to the calling thread's buffer. Lock-free
  /// except for the thread's one-time buffer registration.
  void record(TraceEvent ev);

  /// Open/close the calling thread's nesting scope; returns the depth at
  /// open (0 = top level).
  int open_span();
  void close_span();
  int thread_id();

  // --- cold path: call from serial sections only --------------------------
  /// Merge all thread buffers, sorted by start time.
  std::vector<TraceEvent> collect() const;
  /// Drop all buffered events (thread registrations are kept).
  void clear();
  /// Chrome trace_event JSON document.
  std::string chrome_trace_json() const;
  /// Write the Chrome trace to a file; returns false on I/O failure.
  bool write_chrome_trace(const std::string& path) const;

private:
  using Clock = std::chrono::steady_clock;

  struct ThreadBuf {
    int tid = 0;
    int depth = 0;
    std::vector<TraceEvent> events;
  };

  Tracer() : epoch_(Clock::now()) {}
  ThreadBuf& local();

  mutable std::mutex mu_; ///< guards buffer registration / merge
  std::deque<std::unique_ptr<ThreadBuf>> buffers_;
  std::atomic<bool> enabled_{false};
  Clock::time_point epoch_;
};

} // namespace ptatin::obs

// Wall-clock timing utilities for solver instrumentation.
#pragma once

#include <chrono>
#include <string>

namespace ptatin {

/// Monotonic wall-clock stopwatch.
class Timer {
public:
  Timer() { reset(); }

  void reset() { start_ = Clock::now(); }

  /// Elapsed seconds since construction or last reset().
  double seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

} // namespace ptatin

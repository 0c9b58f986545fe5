// Minimal leveled logging used by solvers for convergence monitoring.
#pragma once

#include <iostream>
#include <sstream>
#include <string>

namespace ptatin {

enum class LogLevel { kSilent = 0, kInfo = 1, kDebug = 2 };

/// Global log verbosity (default: info).
LogLevel log_level();
void set_log_level(LogLevel lvl);

namespace detail {
void log_write(const std::string& line);
}

/// Warnings share the info level but carry a prefix so safeguard events
/// (injected faults, fallbacks, dt cuts) stand out in step logs.
template <class... Args>
void log_warn(Args&&... args) {
  if (log_level() >= LogLevel::kInfo) {
    std::ostringstream os;
    os << "warning: ";
    (os << ... << args);
    detail::log_write(os.str());
  }
}

template <class... Args>
void log_debug(Args&&... args) {
  if (log_level() >= LogLevel::kDebug) {
    std::ostringstream os;
    (os << ... << args);
    detail::log_write(os.str());
  }
}

} // namespace ptatin

// Shared helpers for the paper-reproduction benchmark binaries.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <initializer_list>
#include <string>
#include <vector>

#include "common/options.hpp"
#include "common/timing.hpp"
#include "common/types.hpp"

namespace ptatin::bench {

/// Simple fixed-width table printer matching the paper's layout.
class Table {
public:
  explicit Table(std::vector<std::string> headers, int col_width = 12)
      : headers_(std::move(headers)), w_(col_width) {}

  void print_header() const {
    for (const auto& h : headers_) std::printf("%*s", w_, h.c_str());
    std::printf("\n");
    for (std::size_t i = 0; i < headers_.size(); ++i)
      for (int k = 0; k < w_; ++k) std::printf("-");
    std::printf("\n");
  }
  void cell(const std::string& s) const { std::printf("%*s", w_, s.c_str()); }
  void cell(double v, const char* fmt = "%.3g") const {
    char buf[64];
    std::snprintf(buf, sizeof buf, fmt, v);
    std::printf("%*s", w_, buf);
  }
  void cell(long v) const { std::printf("%*ld", w_, v); }
  void endrow() const { std::printf("\n"); }

private:
  std::vector<std::string> headers_;
  int w_;
};

/// One flag a bench binary reads: "-key HINT  help" in its -help text.
struct Flag {
  const char* key;
  const char* hint;
  const char* help;
};

/// Parse argv for a bench binary that reads exactly `flags`. -help prints
/// them and exits 0; an unknown flag is a usage error (exit 2). Both happen
/// before the bench runs, so a mistyped flag never appends a run to a
/// BENCH_*.json trajectory.
inline Options parse_options(int argc, char** argv, const char* name,
                             std::initializer_list<Flag> flags) {
  for (const Flag& f : flags) Options::describe(f.key, f.hint, f.help);
  Options::describe("help", "", "print this help and exit");
  const Options o = Options::from_args(argc, argv);
  if (o.get_bool("help", false)) {
    std::printf("%s options:\n%s", name, Options::help_text().c_str());
    std::exit(0);
  }
  if (const auto unknown = o.unknown_keys(); !unknown.empty()) {
    std::fprintf(stderr, "error: %susage: %s -help\n",
                 Options::format_unknown(unknown).c_str(), name);
    std::exit(2);
  }
  return o;
}

inline void banner(const std::string& title) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("================================================================\n");
}

} // namespace ptatin::bench

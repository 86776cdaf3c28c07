// Shared helpers for the experiment binaries: the DETECT_SMOKE switch and
// fixed-width table printing.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

namespace detect::bench {

/// True when DETECT_SMOKE is set (non-empty, not "0"): experiment binaries
/// shrink their parameter sweeps to seconds-scale subsets so the CI
/// bench-smoke stage (and `scripts/check.sh --bench-smoke`) can execute
/// every E-binary on every push.
inline bool smoke() {
  const char* env = std::getenv("DETECT_SMOKE");
  return env != nullptr && *env != '\0' && std::string(env) != "0";
}

/// The sweep for this run: the full parameter list, or the first
/// `smoke_prefix` entries under DETECT_SMOKE.
template <typename T>
std::vector<T> sweep(std::vector<T> full, std::size_t smoke_prefix) {
  if (smoke() && full.size() > smoke_prefix) full.resize(smoke_prefix);
  return full;
}

/// Print a row of fixed-width columns. A cell that fills its column still
/// gets one space before the next.
inline void row(const std::vector<std::string>& cells, int width = 14) {
  for (const std::string& c : cells) std::printf("%-*s ", width - 1, c.c_str());
  std::printf("\n");
}

inline void rule(std::size_t cols, int width = 14) {
  std::printf("%s\n", std::string(cols * static_cast<std::size_t>(width), '-').c_str());
}

inline std::string fmt(double v, int prec = 2) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", prec, v);
  return buf;
}

inline std::string fmt_u(std::uint64_t v) { return std::to_string(v); }

}  // namespace detect::bench

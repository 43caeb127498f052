#pragma once
// Small shared helpers: the clock, response hashing and percentiles.

#include <chrono>
#include <cstdint>
#include <string_view>
#include <vector>

namespace lapxbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// FNV-1a 64 of a response line: the transcripts compare by hash.
std::uint64_t fnv1a64(std::string_view bytes);

/// Linear-interpolation quantile (q in [0, 1]) of `values`; 0 when empty.
double quantile(std::vector<double> values, double q);

}  // namespace lapxbench

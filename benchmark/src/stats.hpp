// Order statistics shared by chaos_bench and compare.
#pragma once

#include <algorithm>
#include <array>
#include <vector>

namespace bench {

/// Linear-interpolated percentile (q in [0, 1]) of @p v; 0 when empty.
inline double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

inline double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

/// Quartiles exactly as Python's statistics.quantiles(v, n=4) computes them
/// (the default "exclusive" method); a single value is its own quartiles.
inline std::array<double, 3> quartiles(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const auto ld = static_cast<long>(v.size());
  if (ld == 0) return {0, 0, 0};
  if (ld == 1) return {v[0], v[0], v[0]};
  std::array<double, 3> out{};
  const long m = ld + 1;
  for (long i = 1; i < 4; ++i) {
    long j = i * m / 4;
    j = std::clamp(j, 1L, ld - 1);
    const long delta = i * m - j * 4;
    out[static_cast<std::size_t>(i - 1)] =
        (v[static_cast<std::size_t>(j - 1)] * static_cast<double>(4 - delta) +
         v[static_cast<std::size_t>(j)] * static_cast<double>(delta)) /
        4.0;
  }
  return out;
}

}  // namespace bench

// Metric arithmetic of the host-cost benchmark, kept free of simulator types
// so tests/stats_test.cpp can pin every definition on hand-computed inputs.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <vector>

namespace perfbench {

// Median of `v` (mean of the two middle values for an even count).
inline double median(std::vector<double> v) {
  if (v.empty()) throw std::invalid_argument("median of an empty sample");
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

struct Quartiles {
  double q1 = 0.0, q2 = 0.0, q3 = 0.0;
};

// First, second and third quartile with the same "exclusive" interpolation as
// Python's statistics.quantiles(v, n=4), which is what the steadiness check
// applies to the per-run values. Needs at least two values.
inline Quartiles quartiles(std::vector<double> v) {
  if (v.size() < 2) throw std::invalid_argument("quartiles need at least two values");
  std::sort(v.begin(), v.end());
  const auto n = static_cast<long long>(v.size());
  const long long m = n + 1;
  double q[3] = {};
  for (long long i = 1; i <= 3; ++i) {
    // The same clamp and integer arithmetic as Python's implementation.
    const long long j = std::clamp(i * m / 4, 1LL, n - 1);
    const long long delta = i * m - j * 4;
    q[i - 1] = (v[static_cast<std::size_t>(j - 1)] * static_cast<double>(4 - delta) +
                v[static_cast<std::size_t>(j)] * static_cast<double>(delta)) /
               4.0;
  }
  return {q[0], q[1], q[2]};
}

// host_elems_per_s: tensor elements all-reduced in simulation per host
// wall-second of the passes that reduced them.
inline double host_elems_per_s(std::uint64_t elements, double wall_s) {
  if (!(wall_s > 0.0)) throw std::invalid_argument("a pass must take positive wall time");
  return static_cast<double>(elements) / wall_s;
}

// How much slower than nominal the host ran over a run: the reference
// kernel's mean unit time in the run over its nominal unit time. The run's
// wall times divided by it are the times reported.
inline double host_slowdown(double reference_s, std::uint64_t units, double nominal_unit_s) {
  if (units == 0 || !(reference_s > 0.0) || !(nominal_unit_s > 0.0))
    throw std::invalid_argument("the reference kernel must have run in positive time");
  return reference_s / static_cast<double>(units) / nominal_unit_s;
}

// Elements one training point all-reduces: its gradient elements, scaled
// like the simulation scales them, times the measured iterations.
inline std::uint64_t training_elements(std::uint64_t parameters, double size_scale,
                                       int measured_iterations) {
  return static_cast<std::uint64_t>(std::llround(static_cast<double>(parameters) * size_scale)) *
         static_cast<std::uint64_t>(measured_iterations);
}

// sim_s of a reduction: the slowest worker's tensor aggregation time.
inline double reduction_sim_s(const std::vector<std::int64_t>& tat_ns) {
  if (tat_ns.empty()) throw std::invalid_argument("a reduction reports at least one TAT");
  return static_cast<double>(*std::max_element(tat_ns.begin(), tat_ns.end())) / 1e9;
}

// sim_s of a training point: the simulated iteration time times the measured
// iterations.
inline double training_sim_s(double iteration_ms, int measured_iterations) {
  return iteration_ms * measured_iterations / 1e3;
}

// Only strictly positive, finite TATs and throughputs count as a result.
inline bool valid_positive(double x) { return std::isfinite(x) && x > 0.0; }

// a / b, or 0 when nothing was counted (a ratio of an unexercised layer).
inline double ratio(double a, double b) { return b == 0.0 ? 0.0 : a / b; }

} // namespace perfbench

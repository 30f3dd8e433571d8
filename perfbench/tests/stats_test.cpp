// Unit test of the benchmark's metric arithmetic (src/stats.hpp). Expected
// quartiles are what Python's statistics.quantiles(v, n=4) returns for the
// same lists, the computation the steadiness check applies.
//
//   cmake --build <build dir> --target perfbench_stats_test && <build dir>/perfbench_stats_test
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <vector>

#include "stats.hpp"

namespace {

int failures = 0;

void check_near(double got, double want, const char* what) {
  if (std::fabs(got - want) > 1e-12 * std::fmax(1.0, std::fabs(want))) {
    std::printf("FAIL %s: got %.17g, want %.17g\n", what, got, want);
    ++failures;
  }
}

void check(bool ok, const char* what) {
  if (!ok) {
    std::printf("FAIL %s\n", what);
    ++failures;
  }
}

template <typename F>
void check_throws(F f, const char* what) {
  try {
    f();
  } catch (const std::invalid_argument&) {
    return;
  }
  std::printf("FAIL %s: no std::invalid_argument\n", what);
  ++failures;
}

void test_median() {
  using perfbench::median;
  check_near(median({3.0}), 3.0, "median of one");
  check_near(median({3.0, 1.0, 2.0}), 2.0, "median of odd count");
  check_near(median({4.0, 1.0, 3.0, 2.0}), 2.5, "median of even count");
  check_throws([] { (void)median({}); }, "median of nothing");
}

void test_quartiles() {
  struct Case {
    std::vector<double> v;
    double q1, q2, q3;
  };
  const Case cases[] = {
      {{1, 2}, 0.75, 1.5, 2.25},
      {{3, 1, 2}, 1.0, 2.0, 3.0},
      {{1, 2, 3, 4}, 1.25, 2.5, 3.75},
      {{5, 1, 4, 2, 3}, 1.5, 3.0, 4.5},
      {{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}, 27.5, 55.0, 82.5},
      {{2.5, 7.25, 1.0, 9.5, 3.75, 4.0}, 2.125, 3.875, 7.8125},
  };
  for (const Case& c : cases) {
    const perfbench::Quartiles q = perfbench::quartiles(c.v);
    check_near(q.q1, c.q1, "q1");
    check_near(q.q2, c.q2, "q2");
    check_near(q.q3, c.q3, "q3");
  }
  check_throws([] { (void)perfbench::quartiles({1.0}); }, "quartiles of one value");
}

void test_definitions() {
  // host_elems_per_s: elements per host wall-second.
  check_near(perfbench::host_elems_per_s(1'000'000, 0.5), 2e6, "host_elems_per_s");
  check_throws([] { (void)perfbench::host_elems_per_s(1, 0.0); }, "zero wall time");
  // host_slowdown: mean reference unit time over the nominal one.
  check_near(perfbench::host_slowdown(0.9, 100, 0.006), 1.5, "host_slowdown");
  check_throws([] { (void)perfbench::host_slowdown(0.0, 1, 0.006); }, "reference took no time");
  check_throws([] { (void)perfbench::host_slowdown(1.0, 0, 0.006); }, "no reference units");
  // A training point counts gradient elements x size_scale x measured iterations.
  check(perfbench::training_elements(25'557'032, 1.0 / 128, 2) == 2 * 199'664,
        "training_elements rounds the scaled gradient");
  // sim_s: the slowest worker's TAT for a reduction ...
  check_near(perfbench::reduction_sim_s({400'000, 567'017, 500'000}), 567'017e-9,
             "reduction_sim_s takes the slowest worker");
  check_throws([] { (void)perfbench::reduction_sim_s({}); }, "reduction without TATs");
  // ... and iteration_ms x measured iterations for a training point.
  check_near(perfbench::training_sim_s(250.0, 2), 0.5, "training_sim_s");
  check(!perfbench::valid_positive(0.0), "zero is not a result");
  check(!perfbench::valid_positive(std::nan("")), "NaN is not a result");
  check(!perfbench::valid_positive(INFINITY), "infinity is not a result");
  check(perfbench::valid_positive(1e-9), "a positive value is a result");
  check_near(perfbench::ratio(1.0, 0.0), 0.0, "ratio of an unexercised layer");
  check_near(perfbench::ratio(3.0, 4.0), 0.75, "ratio");
}

} // namespace

int main() {
  test_median();
  test_quartiles();
  test_definitions();
  if (failures == 0) std::printf("stats_test: all checks passed\n");
  return failures == 0 ? 0 : 1;
}

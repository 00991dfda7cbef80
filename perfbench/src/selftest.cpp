// Self-tests of the benchmark's own arithmetic on synthetic inputs
// (perfbench --selftest; run.py runs them before every measurement).

#include <cmath>
#include <iostream>
#include <string>

#include "bench.hpp"
#include "stats.hpp"

namespace perfbench {

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::cerr << "selftest FAILED: " << what << "\n";
  }
}

bool near(double a, double b) { return std::fabs(a - b) <= 1e-9 * std::max(1.0, std::fabs(b)); }

void test_percentile() {
  std::vector<double> xs;
  for (int i = 100; i >= 1; --i) xs.push_back(i);  // unsorted on purpose
  expect(percentile(xs, 50) == 50, "p50 of 1..100 is 50 (nearest rank)");
  expect(percentile(xs, 90) == 90, "p90 of 1..100 is 90");
  expect(percentile(xs, 99) == 99, "p99 of 1..100 is 99");
  expect(percentile(xs, 100) == 100, "p100 is the maximum");
  expect(percentile({7}, 99) == 7, "one sample is every percentile");
  expect(percentile({1, 2}, 50) == 1, "p50 of two samples is the lower (rank ceil(1.0) = 1)");
  expect(percentile({1, 2, 3}, 50) == 2, "p50 of three samples is the middle");
  expect(percentile({}, 50) == 0, "empty sample reads 0");
  const Summary s = summarize(xs);
  expect(s.n == 100 && s.p50 == 50 && s.p90 == 90 && s.p99 == 99, "summarize carries count and ranks");
}

void test_geomean() {
  expect(near(geomean({2, 8}), 4), "geomean(2, 8) = 4");
  expect(near(geomean({1, 10, 100}), 10), "geomean(1, 10, 100) = 10");
  expect(near(geomean({5}), 5), "geomean of one value is the value");
  expect(geomean({}) == 0, "empty geomean reads 0");
  expect(geomean({3, 0}) == 0, "a missing (zero) factor makes the geomean 0");
}

void test_self_time() {
  expect(near(self_time(0, 10, {}), 10), "leaf span: self = duration");
  expect(near(self_time(0, 10, {{1, 3}, {5, 6}}), 7), "disjoint children subtract");
  expect(near(self_time(0, 10, {{1, 5}, {3, 7}}), 4), "overlapping children count once");
  expect(near(self_time(0, 10, {{3, 7}, {1, 5}}), 4), "child order does not matter");
  expect(near(self_time(0, 10, {{-5, 2}, {8, 20}}), 6), "children are clipped to the parent");
  expect(near(self_time(0, 10, {{2, 4}, {2, 4}}), 8), "duplicate children count once");

  // Nested: root [0,100] > a [10,60] > b [20,30]; root > c [70,80].
  Tracer t(Clock::now());
  t.set_enabled(true);
  const int64_t root = t.add("x.root", 1, 0, 100);
  const int64_t a = t.add("y.a", 1, 10, 60, root);
  t.add("z.b", 1, 20, 30, a);
  t.add("z.c", 1, 70, 80, root);
  const auto self = t.layer_self_ms();
  expect(near(self.at("x"), 40), "root self = 100 - 50 - 10");
  expect(near(self.at("y"), 40), "a self = 50 - 10");
  expect(near(self.at("z"), 20), "b + c self = 10 + 10");
  double total = 0;
  for (const auto& [k, v] : self) total += v;
  expect(near(total, 100), "layer self times add up to the root's wall time");
}

void test_open_loop() {
  // Due every 10 ms. Request 2 is sent 15 ms late; latency counts from due.
  std::vector<OpenLoopSample> xs = {
      {0, 0, 2, true}, {10, 10, 12, true}, {20, 35, 40, true}, {30, 36, 41, false}};
  const OpenLoopResult r = open_loop_result(xs);
  expect(r.sent == 4 && r.ok == 3 && r.failed == 1, "sent/ok/failed counts");
  expect(r.latency.n == 3, "latency counts only ok requests");
  expect(near(r.latency.p50, 2) && near(r.latency.p99, 20), "latency is done - due (20 for the late one)");
  expect(near(r.late_p99, 15), "lateness p99 is the worst send delay");
  expect(!step_passes(r, 100, 100), "a failed request fails the step");
  xs[3].ok = true;
  const OpenLoopResult r2 = open_loop_result(xs);
  expect(step_passes(r2, 20, 15), "within the p99 and lateness limits passes");
  expect(!step_passes(r2, 19, 15), "p99 over the limit fails");
  expect(!step_passes(r2, 20, 14), "a generator running late invalidates the step");
  expect(!step_passes(open_loop_result({}), 1e9, 1e9), "an empty step never passes");

  const std::vector<double> fixed = due_times(4, 200);
  expect(fixed.size() == 4 && near(fixed[0], 0) && near(fixed[3], 15), "periodic arrivals are due every 1000/rate ms");
  // Evenly spaced uniforms: the mean exponential gap is 1000/rate to within
  // the quadrature error of -log(1 - u) over (0, 1).
  const size_t n = 100001;
  size_t k = 0;
  const std::vector<double> poisson = due_times(n, 500, [&] { return (static_cast<double>(k++) + 0.5) / (n - 1); });
  expect(k == n - 1, "Poisson arrivals draw one uniform per gap");
  expect(std::fabs(poisson.back() / (n - 1) - 2.0) < 0.01, "Poisson gaps average 1000/rate ms");
  bool ascending = true;
  for (size_t i = 1; i < n; ++i) ascending = ascending && poisson[i] > poisson[i - 1];
  expect(ascending, "due times increase");
}

void test_ladder() {
  auto run = [](double cap, int max_rung, std::vector<double>* tried) {
    return ladder_max_rate(100, 4, max_rung, [cap](double r) { return r <= cap + 1e-9; }, tried);
  };
  std::vector<double> tried;
  const double best = run(300, 40, &tried);
  // Rungs 100 * 2^(i/4): 100, 118.9, 141.4, 168.2, 200, 237.8, 282.8, 336.4, 400.
  expect(near(best, 100 * std::pow(2.0, 6 / 4.0)), "highest passing rung below the capacity");
  expect(tried.size() == 6, "octaves 100/200/400, then rungs 237.8/282.8/336.4");
  expect(run(99, 40, nullptr) == 0, "lowest rung failing reads 0");
  expect(near(run(1e9, 8, nullptr), 400), "every rung passing stops at the top rung");
  expect(near(run(399, 8, nullptr), 100 * std::pow(2.0, 7 / 4.0)), "climbs single rungs below a failed octave");
  // Brute force over capacities: the search equals the highest passing rung.
  for (double cap = 90; cap < 2000; cap *= 1.07) {
    double brute = 0;
    for (int i = 0; i <= 20; ++i) {
      const double r = 100 * std::pow(2.0, i / 4.0);
      if (r <= cap + 1e-9) brute = r;
    }
    expect(near(run(cap, 20, nullptr), brute), "ladder search matches brute force at cap " + std::to_string(cap));
  }
}

void test_compare() {
  expect(compare("x", {1.0, 2.0}, {1.0, 2.0}, 0).empty(), "identical vectors match at rtol 0");
  expect(!compare("x", {1.0}, {1.0, 2.0}, 1).empty(), "a size mismatch is a finding");
  expect(compare("x", {100.0, 1.0 + 1e-7}, {100.0, 1.0}, 1e-8).empty(), "error is relative to the largest reference magnitude");
  expect(!compare("x", {1.0 + 1e-6}, {1.0}, 1e-8).empty(), "error beyond rtol is a finding");
  expect(!compare("x", {NAN}, {1.0}, 1).empty(), "NaN output is a finding");
  expect(!compare("x", {1e-9}, {0.0}, 1e-6).empty(), "an all-zero reference needs near-zero output");
}

}  // namespace

int run_selftest() {
  test_percentile();
  test_geomean();
  test_self_time();
  test_open_loop();
  test_ladder();
  test_compare();
  std::cout << (failures == 0 ? "selftest ok" : "selftest FAILED") << "\n";
  return failures == 0 ? 0 : 1;
}

}  // namespace perfbench

#pragma once

// The benchmark's own arithmetic: percentiles, geometric means, span self
// time, open-loop due-time accounting and the max_rps ladder rule. Pure
// functions over plain data, so selftest.cpp can check each on synthetic
// inputs.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace perfbench {

// Nearest-rank percentile: the smallest sample with at least p% of the
// samples at or below it (rank ceil(p/100 * n), 1-based). p in (0, 100].
// Returns 0 for an empty sample (callers print the count beside it).
inline double percentile(std::vector<double> xs, double p) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(xs.size()));
  const size_t i = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return xs[std::min(i, xs.size() - 1)];
}

// A timing distribution as reported: median, tail percentiles, count.
struct Summary {
  double p50 = 0, p90 = 0, p99 = 0;
  size_t n = 0;
};

inline Summary summarize(const std::vector<double>& xs) {
  return {percentile(xs, 50), percentile(xs, 90), percentile(xs, 99), xs.size()};
}

// Geometric mean of positive values; 0 when empty or any value is <= 0
// (a ratio or latency of 0 means the measurement is missing).
inline double geomean(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  double s = 0.0;
  for (double x : xs) {
    if (!(x > 0.0)) return 0.0;
    s += std::log(x);
  }
  return std::exp(s / static_cast<double>(xs.size()));
}

// One closed interval of a span's children, in the span's clock.
struct Interval {
  double start = 0, end = 0;
};

// Self time of a span [start, end]: its duration minus the part of it that
// the union of its children's intervals covers (children clipped to the
// parent; overlapping children count once).
inline double self_time(double start, double end, std::vector<Interval> children) {
  std::sort(children.begin(), children.end(),
            [](const Interval& a, const Interval& b) { return a.start < b.start; });
  double covered = 0.0, cur_s = 0.0, cur_e = 0.0;
  bool open = false;
  for (const Interval& c : children) {
    const double s = std::max(c.start, start), e = std::min(c.end, end);
    if (e <= s) continue;
    if (open && s <= cur_e) {
      cur_e = std::max(cur_e, e);
    } else {
      if (open) covered += cur_e - cur_s;
      cur_s = s;
      cur_e = e;
      open = true;
    }
  }
  if (open) covered += cur_e - cur_s;
  return (end - start) - covered;
}

// Open-loop accounting for one request: when it was due, when the
// generator actually sent it, and when its response completed (all ms on
// one clock). Latency counts from the due time, so a stall that delays
// later sends is charged to the requests it delayed.
struct OpenLoopSample {
  double due = 0, sent = 0, done = 0;
  bool ok = false;
};

struct OpenLoopResult {
  Summary latency;   // done - due, over ok requests
  double late_p99 = 0;  // sent - due, over all requests
  size_t sent = 0, ok = 0, failed = 0;
};

inline OpenLoopResult open_loop_result(const std::vector<OpenLoopSample>& xs) {
  std::vector<double> lat, late;
  OpenLoopResult r;
  for (const auto& s : xs) {
    late.push_back(std::max(0.0, s.sent - s.due));
    if (s.ok) {
      lat.push_back(s.done - s.due);
      ++r.ok;
    } else {
      ++r.failed;
    }
  }
  r.sent = xs.size();
  r.latency = summarize(lat);
  r.late_p99 = percentile(late, 99);
  return r;
}

// Due times (ms from the first request) of n requests at `rate` per second.
// Without `uniform` the gap is fixed at 1000 / rate ms. With it, arrivals
// are Poisson: each gap is exponential with that mean, drawn from one
// uniform in [0, 1) per gap.
inline std::vector<double> due_times(size_t n, double rate, const std::function<double()>& uniform = {}) {
  const double gap = 1e3 / rate;
  std::vector<double> due(n);
  for (size_t i = 1; i < n; ++i) due[i] = due[i - 1] + (uniform ? -std::log1p(-uniform()) * gap : gap);
  return due;
}

// Whether one rate step meets the serving limits: no failures, p99 within
// the latency limit, and the generator never fell behind by more than the
// lateness limit (a growing backlog shows up as growing lateness). A step
// whose generator ran late is invalid, never "fast".
inline bool step_passes(const OpenLoopResult& r, double p99_limit_ms, double late_limit_ms) {
  return r.sent > 0 && r.failed == 0 && r.latency.p99 <= p99_limit_ms &&
         r.late_p99 <= late_limit_ms;
}

// Fixed geometric ladder: rung i runs at base * 2^(i / per_octave). The
// search climbs whole octaves (every per_octave-th rung) until a step fails,
// then climbs single rungs up from the last passing octave rung. Returns the
// rate of the highest passing rung, or 0 when the lowest rung fails. With a
// predicate that is monotone in the rate this equals the highest passing
// rung of the ladder, at a fraction of the steps.
inline double ladder_max_rate(double base, int per_octave, int max_rung,
                              const std::function<bool(double)>& passes,
                              std::vector<double>* tried = nullptr) {
  auto rate = [&](int i) { return base * std::pow(2.0, static_cast<double>(i) / per_octave); };
  auto run = [&](int i) {
    if (tried) tried->push_back(rate(i));
    return passes(rate(i));
  };
  int best = -1;
  int i = 0;
  for (; i <= max_rung; i += per_octave) {
    if (!run(i)) break;
    best = i;
  }
  if (best < 0) return 0.0;
  for (int j = best + 1; j < std::min(i, max_rung + 1); ++j) {
    if (!run(j)) break;
    best = j;
  }
  return rate(best);
}

}  // namespace perfbench

#pragma once

// Shared plumbing of the benchmark binary: command-line options, the
// workload spec (perfbench/spec.json), the metric report and output checks.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "runtime/value.hpp"
#include "serve/json.hpp"
#include "trace.hpp"

namespace npad::apps {
struct HandData;
}

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool setup_only = false;  // set up, check the first results, report setup_s, exit
  std::string spec_path = "perfbench/spec.json";
  std::string trace_out;    // Chrome trace path for traced runs
};

// Reads a number from a spec object; throws when missing.
double num(const npad::serve::Json& obj, const std::string& key);
int64_t inum(const npad::serve::Json& obj, const std::string& key);
const npad::serve::Json& member(const npad::serve::Json& obj, const std::string& key);

class Report {
public:
  // Records a metric; `n` is the sample count behind a percentile or
  // geomean (printed beside it), or -1 for counts and ratios.
  void metric(const std::string& name, double value, const std::string& unit, int64_t n = -1);
  void info(const std::string& key, const std::string& value) { info_[key] = value; }
  // Counts one checked result; a non-empty finding marks it failed.
  void check(const std::string& what, const std::string& finding);

  // Human-readable lines, then one "PERFBENCH_RESULT {...}" line that
  // perfbench/run.py turns into the benchmark's result.
  void print() const;

private:
  struct Entry {
    double value;
    std::string unit;
    int64_t n;
  };
  std::vector<std::pair<std::string, Entry>> metrics_;
  std::map<std::string, std::string> info_;
  std::vector<std::string> findings_;
  uint64_t attempted_ = 0, failed_ = 0;
};

// Flattens a scalar or array result to doubles.
std::vector<double> flat(const npad::rt::Value& v);

// Largest absolute difference divided by the reference's largest magnitude
// (floored at 1e-12, so an all-zero reference demands near-zero output).
// Infinite on a size mismatch or a non-finite value.
double rel_err(const std::vector<double>& got, const std::vector<double>& ref);

// "" when got matches ref within rtol, else a one-line finding.
std::string compare(const std::string& what, const std::vector<double>& got,
                    const std::vector<double>& ref, double rtol);

// Checks outputs got[i] against each listed (i, reference) pair; "" when
// all match.
using OutputRefs = std::vector<std::pair<size_t, std::vector<double>>>;
std::string check_outputs(const std::vector<npad::rt::Value>& got, const OutputRefs& refs, double rtol);

// Jacobian of the hand-written hand residuals (apps::hand_residuals) by the
// tape, one reversal per residual row: row-major, 3*nverts rows by the
// theta entries then (complicated) the us entries.
std::vector<double> hand_jacobian(const npad::apps::HandData& d, bool complicated);

// Argument-building helpers shared by the workloads.
inline std::vector<double> zeros(int64_t n) { return std::vector<double>(static_cast<size_t>(n), 0.0); }
inline std::vector<double> ones(int64_t n) { return std::vector<double>(static_cast<size_t>(n), 1.0); }
inline std::vector<npad::rt::Value> with(std::vector<npad::rt::Value> a,
                                         std::initializer_list<npad::rt::Value> extra) {
  for (const auto& v : extra) a.push_back(v);
  return a;
}

// Keeps a result alive so the optimizer cannot drop the call producing it.
void sink(double v);

// Peak resident set of this process so far, in MB.
double peak_rss_mb();

// Pinned worker count of the runtime's thread pool.
unsigned pool_workers();

// Build and host facts recorded with every result.
void record_host(Report& rep);

int run_compute(const Options& opt, const npad::serve::Json& spec, Report& rep);
int run_serve(const Options& opt, const npad::serve::Json& spec, Report& rep);
int run_selftest();

}  // namespace perfbench

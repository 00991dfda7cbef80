// perfbench: the repository's benchmark binary. Runs one named workload
// against the library's public entry points, checks every result against an
// independent reference, and prints its metrics. Driven by perfbench/run.py;
// see perfbench/spec.json for the workloads and their constants.
//
//   perfbench --workload dense|irregular|serve --seed N --seconds S
//             [--trace 0|1] [--trace-out PATH] [--setup-only] [--spec PATH]
//   perfbench --selftest

#include <sys/resource.h>

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

#include "apps/hand.hpp"
#include "bench.hpp"
#include "support/thread_pool.hpp"
#include "tape/tape.hpp"

namespace perfbench {

using npad::serve::Json;

const Json& member(const Json& obj, const std::string& key) {
  const Json* j = obj.get(key);
  if (!j) throw std::runtime_error("spec: missing \"" + key + "\"");
  return *j;
}

double num(const Json& obj, const std::string& key) {
  const Json& j = member(obj, key);
  if (!j.is_num()) throw std::runtime_error("spec: \"" + key + "\" is not a number");
  return j.num;
}

int64_t inum(const Json& obj, const std::string& key) { return static_cast<int64_t>(num(obj, key)); }

void Report::metric(const std::string& name, double value, const std::string& unit, int64_t n) {
  metrics_.push_back({name, {value, unit, n}});
}

void Report::check(const std::string& what, const std::string& finding) {
  ++attempted_;
  if (finding.empty()) return;
  ++failed_;
  if (findings_.size() < 20) findings_.push_back(what + ": " + finding);
}

void Report::print() const {
  for (const auto& [k, v] : info_) std::cout << "info " << k << " = " << v << "\n";
  for (const auto& f : findings_) std::cout << "FINDING " << f << "\n";
  for (const auto& [name, e] : metrics_) {
    std::cout << "metric " << name << " = " << e.value << " " << e.unit;
    if (e.n >= 0) std::cout << "  (n=" << e.n << ")";
    std::cout << "\n";
  }
  Json out = Json::object();
  out.set("attempted", Json::number(static_cast<double>(attempted_)));
  out.set("failed", Json::number(static_cast<double>(failed_)));
  Json ms = Json::object();
  for (const auto& [name, e] : metrics_) {
    Json m = Json::object();
    // A non-finite value is a failed measurement: null, never a number.
    m.set("value", std::isfinite(e.value) ? Json::number(e.value) : Json::null());
    m.set("unit", Json::string(e.unit));
    if (e.n >= 0) m.set("n", Json::number(static_cast<double>(e.n)));
    ms.set(name, std::move(m));
  }
  out.set("metrics", std::move(ms));
  Json info = Json::object();
  for (const auto& [k, v] : info_) info.set(k, Json::string(v));
  out.set("info", std::move(info));
  std::cout << "PERFBENCH_RESULT " << out.dump() << std::endl;
}

std::vector<double> flat(const npad::rt::Value& v) {
  if (npad::rt::is_array(v)) return npad::rt::to_f64_vec(npad::rt::as_array(v));
  return {npad::rt::as_f64(v)};
}

double rel_err(const std::vector<double>& got, const std::vector<double>& ref) {
  if (got.size() != ref.size()) return INFINITY;
  double diff = 0.0, mag = 1e-12;
  for (size_t i = 0; i < got.size(); ++i) {
    if (!std::isfinite(got[i])) return INFINITY;
    diff = std::max(diff, std::fabs(got[i] - ref[i]));
    mag = std::max(mag, std::fabs(ref[i]));
  }
  return diff / mag;
}

std::string compare(const std::string& what, const std::vector<double>& got,
                    const std::vector<double>& ref, double rtol) {
  if (got.size() != ref.size()) {
    return what + ": " + std::to_string(got.size()) + " values, reference has " +
           std::to_string(ref.size());
  }
  const double e = rel_err(got, ref);
  if (e <= rtol) return "";
  std::ostringstream os;
  os << what << ": relative error " << e << " > " << rtol;
  return os.str();
}

std::string check_outputs(const std::vector<npad::rt::Value>& got, const OutputRefs& refs, double rtol) {
  for (const auto& [i, ref] : refs) {
    if (i >= got.size()) return "missing output " + std::to_string(i);
    std::string f = compare("output " + std::to_string(i), flat(got[i]), ref, rtol);
    if (!f.empty()) return f;
  }
  return "";
}

std::vector<double> hand_jacobian(const npad::apps::HandData& d, bool complicated) {
  using npad::tape::Adouble;
  using npad::tape::Tape;
  const size_t rows = static_cast<size_t>(d.nverts * 3);
  const size_t cols = d.theta.size() + (complicated ? d.us.size() : 0);
  std::vector<double> jac(rows * cols);
  for (size_t row = 0; row < rows; ++row) {
    Tape::active().clear();
    std::vector<Adouble> th(d.theta.begin(), d.theta.end()), us;
    if (complicated) us.assign(d.us.begin(), d.us.end());
    std::vector<Adouble> out(rows);
    npad::apps::hand_residuals<Adouble>(d, th.data(), complicated ? us.data() : nullptr, out.data());
    out[row].seed(1.0);
    Tape::active().reverse();
    for (size_t c = 0; c < th.size(); ++c) jac[row * cols + c] = th[c].adjoint();
    for (size_t c = 0; c < us.size(); ++c) jac[row * cols + th.size() + c] = us[c].adjoint();
  }
  Tape::active().clear();
  return jac;
}

void sink(double v) {
  thread_local volatile double s = 0.0;  // per thread: callers run baselines concurrently
  s = s + v;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

unsigned pool_workers() { return npad::support::ThreadPool::global().thread_count(); }

void record_host(Report& rep) {
  rep.info("nproc", std::to_string(std::thread::hardware_concurrency()));
  rep.info("workers", std::to_string(pool_workers()));
  const char* vx = std::getenv("NPAD_VEXEC");
  std::string isa = "portable";
#if defined(__x86_64__)
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) isa = "avx2";
#endif
  if (vx && std::string(vx) == "0") isa = "off";
  if (vx && std::string(vx) == "portable") isa = "portable";
  rep.info("vexec_isa", isa);
#ifdef NDEBUG
  rep.info("build", "Release");
#else
  rep.info("build", "Debug");
#endif
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::cerr << "perfbench: " << a << " needs a value\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (a == "--selftest") return run_selftest();
    if (a == "--workload") opt.workload = next();
    else if (a == "--seed") opt.seed = std::stoull(next());
    else if (a == "--seconds") opt.seconds = std::stod(next());
    else if (a == "--trace") opt.trace = next() == "1";
    else if (a == "--trace-out") opt.trace_out = next();
    else if (a == "--spec") opt.spec_path = next();
    else if (a == "--setup-only") opt.setup_only = true;
    else {
      std::cerr << "perfbench: unknown argument " << a << "\n";
      return 2;
    }
  }
  try {
    std::ifstream is(opt.spec_path);
    if (!is) throw std::runtime_error("cannot read " + opt.spec_path);
    std::stringstream ss;
    ss << is.rdbuf();
    const Json spec = Json::parse(ss.str());
    Report rep;
    record_host(rep);
    rep.info("workload", opt.workload);
    rep.info("seed", std::to_string(opt.seed));
    int rc = 2;
    if (opt.workload == "dense" || opt.workload == "irregular") {
      rc = run_compute(opt, spec, rep);
    } else if (opt.workload == "serve") {
      rc = run_serve(opt, spec, rep);
    } else {
      std::cerr << "perfbench: unknown workload '" << opt.workload << "'\n";
      return 2;
    }
    if (rc != 0) return rc;
    rep.metric("peak_rss_mb", peak_rss_mb(), "MB");
    rep.print();
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}

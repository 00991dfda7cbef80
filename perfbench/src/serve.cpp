// The `serve` workload: an in-process serve::HttpServer in front of a
// serve::Batcher, driven over real HTTP by an open-loop generator at a fixed
// low rate on one connection, a fixed high rate, and up the max_rps ladder
// (at most nproc connections). Requests carry their arguments inline, drawn
// from a seeded pool, and every response is checked against a reference
// computed by hand-written code from the same inputs.

#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <functional>
#include <memory>
#include <thread>

#include "apps/ba.hpp"
#include "apps/gmm.hpp"
#include "apps/hand.hpp"
#include "apps/kmeans.hpp"
#include "apps/lstm.hpp"
#include "apps/mc_transport.hpp"
#include "bench.hpp"
#include "runtime/interp.hpp"
#include "serve/batcher.hpp"
#include "serve/http.hpp"
#include "serve/registry.hpp"
#include "support/error.hpp"

namespace perfbench {

namespace {

using npad::serve::Json;
using npad::rt::Value;
using Args = std::vector<Value>;
namespace apps = npad::apps;
namespace rt = npad::rt;

// One request kind (program, mode) with its pool of pre-encoded bodies and
// the matching references.
struct Slot {
  std::string body;
  std::function<std::string(const std::vector<Value>&)> check;
};

struct Kind {
  std::string program, mode;
  double weight = 0;
  std::vector<Slot> slots;
};

std::string encode(const std::string& program, const std::string& mode, const Args& args) {
  Json j = Json::object();
  j.set("program", Json::string(program));
  j.set("mode", Json::string(mode));
  Json a = Json::array();
  for (const Value& v : args) a.push(npad::serve::value_to_json(v, /*full=*/true));
  j.set("args", std::move(a));
  j.set("return", Json::string("full"));
  return j.dump();
}

// Objective and jacobian slots for one argument set. Jacobian conventions
// follow serve::Registry: vjp programs take a 1.0 seed; jvp programs take
// one tangent per f64 argument (ones on the parameters, zeros on the data).
std::pair<Slot, Slot> make_slots(const std::string& prog, const Json& sz, npad::support::Rng& rng,
                                 double rtol) {
  Slot o, jac;
  auto set = [&](const Args& args, const Args& jargs, OutputRefs obj_ref, OutputRefs jac_ref) {
    o.body = encode(prog, "objective", args);
    jac.body = encode(prog, "jacobian", jargs);
    o.check = [=](const std::vector<Value>& r) { return check_outputs(r, obj_ref, rtol); };
    jac.check = [=](const std::vector<Value>& r) { return check_outputs(r, jac_ref, rtol); };
  };
  if (prog == "gmm") {
    const auto d = apps::gmm_gen(rng, inum(sz, "n"), inum(sz, "d"), inum(sz, "k"));
    const auto m = apps::gmm_manual(d);
    const Args a = apps::gmm_ir_args(d);
    set(a, with(a, {1.0}), {{0, {m.objective}}},
        {{0, {m.objective}}, {1, m.d_alphas}, {2, m.d_means}, {3, m.d_qs}});
  } else if (prog == "lstm") {
    const auto d = apps::lstm_gen(rng, inum(sz, "bs"), inum(sz, "n"), inum(sz, "d"), inum(sz, "h"));
    const auto m = apps::lstm_manual(d);
    const Args a = apps::lstm_ir_args(d);
    set(a, with(a, {1.0}), {{0, {m.objective}}}, {{0, {m.objective}}, {1, m.d_wx}, {2, m.d_wh}, {3, m.d_b}});
  } else if (prog == "kmeans") {
    const int64_t n = inum(sz, "n"), dd = inum(sz, "d"), k = inum(sz, "k");
    const auto d = apps::kmeans_gen(rng, n, dd, k);
    const auto m = apps::kmeans_manual(d);
    const Args a = {rt::make_f64_array(d.centroids, {k, dd}), rt::make_f64_array(d.points, {n, dd})};
    set(a, with(a, {1.0}), {{0, {m.cost}}}, {{0, {m.cost}}, {1, m.grad}});
  } else if (prog == "ba") {
    const int64_t nc = inum(sz, "cams"), np = inum(sz, "pts"), no = inum(sz, "obs");
    const auto d = apps::ba_gen(rng, nc, np, no);
    // Direction: every camera, point and weight entry at once. Each residual
    // row depends on one camera, one point and one weight, so its
    // directional derivative is the sum of its tape-Jacobian row.
    std::vector<double> rows;
    apps::ba_tape_jacobian(d, &rows);
    std::vector<double> e0(static_cast<size_t>(no)), e1(e0.size()), werr(e0.size()), d0(e0.size()),
        d1(e0.size()), dw(e0.size());
    for (int64_t i = 0; i < no; ++i) {
      const size_t u = static_cast<size_t>(i);
      double out[2];
      apps::ba_project<double>(d.cams.data() + d.cam_idx[u] * 11, d.pts.data() + d.pt_idx[u] * 3, out);
      const double w = d.weights[u];
      e0[u] = w * (out[0] - d.feats[2 * u]);
      e1[u] = w * (out[1] - d.feats[2 * u + 1]);
      werr[u] = 1.0 - w * w;
      for (int c = 0; c < 15; ++c) {
        d0[u] += rows[(2 * u) * 15 + static_cast<size_t>(c)];
        d1[u] += rows[(2 * u + 1) * 15 + static_cast<size_t>(c)];
      }
      dw[u] = -2.0 * w;
    }
    const Args a = apps::ba_ir_args(d);
    const Args ja = with(a, {rt::make_f64_array(ones(nc * 11), {nc, 11}), rt::make_f64_array(ones(np * 3), {np, 3}),
                             rt::make_f64_array(ones(no), {no}), rt::make_f64_array(zeros(no * 2), {no, 2})});
    set(a, ja, {{0, e0}, {1, e1}, {2, werr}}, {{0, e0}, {1, e1}, {2, werr}, {3, d0}, {4, d1}, {5, dw}});
  } else if (prog == "hand") {
    const int64_t nb = inum(sz, "bones"), nv = inum(sz, "verts");
    const auto d = apps::hand_gen(rng, nb, nv);
    // Simple model; direction: every theta entry at once. Reference: the
    // hand-written residuals and the row sums of their tape Jacobian (x, y,
    // z returned as three arrays by the program, interleaved per vertex by
    // the C++ code).
    std::vector<double> r0(static_cast<size_t>(nv * 3));
    apps::hand_residuals<double>(d, d.theta.data(), nullptr, r0.data());
    const std::vector<double> jac = hand_jacobian(d, false);
    const size_t nth = d.theta.size();
    OutputRefs obj_ref, jac_ref;
    for (int64_t c = 0; c < 3; ++c) {
      std::vector<double> v(static_cast<size_t>(nv)), dv(v.size());
      for (int64_t i = 0; i < nv; ++i) {
        const size_t at = static_cast<size_t>(i * 3 + c);
        v[static_cast<size_t>(i)] = r0[at];
        for (size_t q = 0; q < nth; ++q) dv[static_cast<size_t>(i)] += jac[at * nth + q];
      }
      obj_ref.push_back({static_cast<size_t>(c), v});
      jac_ref.push_back({static_cast<size_t>(c), v});
      jac_ref.push_back({static_cast<size_t>(c + 3), dv});
    }
    const Args a = apps::hand_ir_args(d, false);
    const Args ja = with(a, {rt::make_f64_array(ones(3 * nb), {3 * nb}), rt::make_f64_array(zeros(nv * 3), {nv, 3}),
                             rt::make_f64_array(zeros(nv * 6), {nv, 6}), rt::make_f64_array(zeros(nv * 3), {nv, 3})});
    set(a, ja, obj_ref, jac_ref);
  } else if (prog == "mc_transport") {
    const auto d = apps::xs_gen(rng, inum(sz, "nuclides"), inum(sz, "grid"), inum(sz, "lookups"));
    std::vector<double> gxs;
    const double total = apps::xs_tape_gradient(d, &gxs);
    const Args a = apps::xs_ir_args(d);
    set(a, with(a, {1.0}), {{0, {total}}}, {{0, {total}}, {2, gxs}});
  } else {
    throw std::runtime_error("spec: serve: unknown program '" + prog + "'");
  }
  return {std::move(o), std::move(jac)};
}

// What one generator thread records per request.
struct Done {
  OpenLoopSample s;
  std::string finding;  // empty when the response matched its reference
  size_t kind = 0;
  double queue_ms = 0, exec_ms = 0;
  int batch = 0;
  // From send to the end of the client's own work on the response (parse,
  // check and, for traced requests, span recording).
  double client_ms = 0;
  bool traced = false;
};

struct PhaseResult {
  OpenLoopResult all;
  std::vector<Done> reqs;
};

// Results of a /v1/run response as runtime values ("full" encoding).
std::vector<Value> decode_results(const Json& resp) {
  std::vector<Value> out;
  const Json& rs = member(resp, "results");
  for (const Json& r : rs.arr) out.push_back(npad::serve::value_from_json(r));
  return out;
}

class Generator {
public:
  Generator(const std::vector<Kind>& kinds, int port, int conns, uint64_t seed, Tracer& tracer, Report& rep)
      : kinds_(kinds), port_(port), conns_(conns), seed_(seed), tracer_(tracer), rep_(rep) {}

  // Sends rate * seconds requests due from now at fixed intervals, or as
  // Poisson arrivals when `poisson`, across the connections, and waits for
  // all of them. `trace` records spans for every other request (the rest
  // measure the tracing overhead; each request's kind is drawn independently
  // of its index). `conns` > 0 caps the connections used. `after_each`, when
  // set, runs on the connection's thread after each response.
  PhaseResult run(double rate, double seconds, bool poisson, bool trace, int conns = 0,
                  const std::function<void()>& after_each = {}) {
    conns = conns > 0 ? std::min(conns, conns_) : conns_;
    const size_t n = std::max<size_t>(1, static_cast<size_t>(std::llround(rate * seconds)));
    // The request sequence is a pure function of the seed and the phase.
    npad::support::Rng rng(seed_ * 0x9e3779b97f4a7c15ull + phase_++);
    std::vector<std::pair<size_t, size_t>> plan(n);  // (kind, slot)
    for (auto& p : plan) p = pick(rng);
    const std::vector<double> due =
        due_times(n, rate, poisson ? std::function<double()>([&rng] { return rng.uniform(); }) : nullptr);
    std::vector<Done> done(n);
    std::atomic<size_t> next{0};
    const double t0 = tracer_.now_ms() + 5.0;
    std::vector<std::thread> threads;
    for (int c = 0; c < conns; ++c) {
      threads.emplace_back([&] {
        npad::serve::HttpClient client("127.0.0.1", port_);
        std::string body;
        for (size_t i; (i = next.fetch_add(1)) < n;) {
          Done& d = done[i];
          d.kind = plan[i].first;
          const Kind& k = kinds_[d.kind];
          const Slot& s = k.slots[plan[i].second];
          d.s.due = t0 + due[i];
          const double wait = d.s.due - tracer_.now_ms();
          if (wait > 0) std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(wait));
          d.s.sent = tracer_.now_ms();
          int status = 0;
          try {
            status = client.post("/v1/run", s.body, &body);
          } catch (const npad::Error& e) {
            body = e.what();
          }
          d.s.done = tracer_.now_ms();
          std::string& finding = d.finding;
          if (status != 200) {
            finding = "HTTP " + std::to_string(status) + ": " + body.substr(0, 200);
          } else {
            try {
              const Json resp = Json::parse(body);
              d.queue_ms = num(resp, "queue_wait_ms");
              d.exec_ms = num(resp, "exec_ms");
              d.batch = static_cast<int>(inum(resp, "batch_size"));
              finding = s.check(decode_results(resp));
            } catch (const std::exception& e) {
              finding = std::string("bad response: ") + e.what();
            }
          }
          d.s.ok = finding.empty();
          d.traced = trace && i % 2 == 0;
          if (d.traced) record_spans(i, d);
          d.client_ms = tracer_.now_ms() - d.s.sent;
          if (after_each) after_each();
        }
      });
    }
    for (auto& t : threads) t.join();
    PhaseResult r;
    std::vector<OpenLoopSample> xs;
    for (const Done& d : done) {
      xs.push_back(d.s);
      const Kind& k = kinds_[d.kind];
      rep_.check("serve " + k.program + "/" + k.mode, d.finding);
    }
    r.all = open_loop_result(xs);
    r.reqs = std::move(done);
    return r;
  }

private:
  std::pair<size_t, size_t> pick(npad::support::Rng& rng) const {
    double total = 0;
    for (const Kind& k : kinds_) total += k.weight;
    double u = rng.uniform() * total;
    size_t k = 0;
    while (k + 1 < kinds_.size() && u >= kinds_[k].weight) u -= kinds_[k++].weight;
    return {k, static_cast<size_t>(rng.uniform_int(static_cast<int64_t>(kinds_[k].slots.size())))};
  }

  // gen.request spans from due to done, so generator lateness is its self
  // time; children rebuilt from the response: front (HTTP, JSON, handler:
  // client latency minus queue wait and exec), then queue, then exec.
  void record_spans(size_t i, const Done& d) {
    const int64_t req = tracer_.add("gen.request", i, d.s.due, d.s.done);
    if (!d.s.ok) return;
    const double front = std::max(0.0, (d.s.done - d.s.sent) - d.queue_ms - d.exec_ms);
    double t = d.s.sent;
    tracer_.add("serve.front", i, t, t + front, req);
    t += front;
    tracer_.add("serve.queue", i, t, t + d.queue_ms, req);
    t += d.queue_ms;
    tracer_.add("serve.exec", i, t, std::min(d.s.done, t + d.exec_ms), req);
  }

  const std::vector<Kind>& kinds_;
  int port_, conns_;
  uint64_t seed_;
  uint64_t phase_ = 0;
  Tracer& tracer_;
  Report& rep_;
};

double ratio(double a, double b) { return b > 0 ? a / b : 0.0; }

// A phase's arrival process: "periodic" (fixed gap) or "poisson".
bool poisson(const Json& phase) {
  const std::string a = member(phase, "arrivals").str;
  if (a != "periodic" && a != "poisson") throw std::runtime_error("spec: serve: unknown arrivals '" + a + "'");
  return a == "poisson";
}

}  // namespace

int run_serve(const Options& opt, const Json& spec, Report& rep) {
  const Json& ws = member(member(spec, "workloads"), "serve");
  const Json& tj = member(spec, "tolerance");
  const int64_t pool = inum(spec, "arg_pool");
  Tracer tracer(Clock::now());
  tracer.set_enabled(opt.trace);

  // Argument pool and references (benchmark-side work, before the clock).
  std::vector<Kind> kinds;
  npad::support::Rng rng(opt.seed * 0x9e3779b97f4a7c15ull + 0x73657276ull);
  const Json& programs = member(ws, "programs");
  const Json& mix = member(ws, "mix");
  for (const auto& [prog, sz] : programs.obj) {
    Kind o{prog, "objective", num(member(mix, prog), "objective"), {}};
    Kind j{prog, "jacobian", num(member(mix, prog), "jacobian"), {}};
    for (int64_t i = 0; i < pool; ++i) {
      auto [os, js] = make_slots(prog, sz, rng, num(tj, "analytic_rtol"));
      o.slots.push_back(std::move(os));
      j.slots.push_back(std::move(js));
    }
    kinds.push_back(std::move(o));
    kinds.push_back(std::move(j));
  }

  // Set-up: registry build, server listen, first response per program and
  // mode. The batcher runs with the library's default options.
  const auto t_setup = Clock::now();
  {
    Span s(tracer, "serve.registry_build", 0);
    npad::serve::register_builtin_programs();
  }
  npad::serve::Batcher batcher;
  {
    const npad::serve::BatcherOptions& bo = batcher.options();
    rep.info("batcher", "max_batch=" + std::to_string(bo.max_batch) + " window_us=" + std::to_string(bo.window_us) +
                            " workers=" + std::to_string(bo.workers));
  }
  std::unique_ptr<npad::serve::HttpServer> server;
  {
    Span s(tracer, "serve.listen", 0);
    server = std::make_unique<npad::serve::HttpServer>(batcher);
    server->start();
  }
  {
    npad::serve::HttpClient client("127.0.0.1", server->port());
    std::string body;
    for (const Kind& k : kinds) {
      Span s(tracer, "serve.first_response", 0);
      const int status = client.post("/v1/run", k.slots[0].body, &body);
      std::string finding = status == 200 ? "" : "HTTP " + std::to_string(status) + ": " + body.substr(0, 200);
      if (finding.empty()) {
        try {
          finding = k.slots[0].check(decode_results(Json::parse(body)));
        } catch (const std::exception& e) {
          finding = std::string("bad response: ") + e.what();
        }
      }
      rep.check(k.program + "/" + k.mode + " first response", finding);
    }
  }
  rep.metric("setup_wall_s", ms_since(t_setup, Clock::now()) / 1e3, "s");
  if (opt.setup_only) {
    server->stop();
    batcher.stop();
    return 0;
  }

  const int conns = static_cast<int>(std::min<int64_t>(inum(ws, "connections"),
                                                       std::max(1u, std::thread::hardware_concurrency())));
  rep.info("serve_connections", std::to_string(conns));
  Generator gen(kinds, server->port(), conns, opt.seed, tracer, rep);
  // ad_over_baseline: the registry's deployed GMM jacobian program, run
  // in-process on the low phase's connection right after each response
  // (the server is idle then), against the hand-written gmm_manual on the
  // same inputs. The server's own exec_ms cannot be paired with a baseline:
  // the vCPUs of a shared host run at different speeds, a thread tends to
  // stay on one, and the batcher's worker may sit on any. So each pair of
  // samples runs pinned to the next vCPU in turn, and the ratio is the
  // geomean over vCPUs of their medians' ratio.
  cpu_set_t all_cpus;
  CPU_ZERO(&all_cpus);
  sched_getaffinity(0, sizeof(all_cpus), &all_cpus);
  std::vector<int> cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &all_cpus)) cpus.push_back(c);
  }
  std::vector<std::vector<double>> deriv_ms(cpus.size()), base_ms(cpus.size());
  const std::shared_ptr<const npad::serve::ProgramEntry> gmm = npad::serve::Registry::global().find("gmm");
  if (!gmm) throw std::runtime_error("serve: the registry has no gmm program");
  std::vector<apps::GmmData> gd;
  std::vector<Args> gmm_args;
  std::vector<OutputRefs> gmm_refs;
  {
    npad::support::Rng brng(opt.seed * 0x9e3779b97f4a7c15ull + 0x62617365ull);
    const Json& gs = member(programs, "gmm");
    for (int64_t i = 0; i < pool; ++i) {
      gd.push_back(apps::gmm_gen(brng, inum(gs, "n"), inum(gs, "d"), inum(gs, "k")));
      const apps::GmmManualResult m = apps::gmm_manual(gd.back());
      gmm_args.push_back(with(apps::gmm_ir_args(gd.back()), {1.0}));
      gmm_refs.push_back({{0, {m.objective}}, {1, m.d_alphas}, {2, m.d_means}, {3, m.d_qs}});
    }
  }
  rt::Interp client;
  size_t turn = 0;
  auto time_pair = [&] {
    const size_t c = turn % cpus.size(), i = turn % gd.size();
    ++turn;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus[c], &one);
    pthread_setaffinity_np(pthread_self(), sizeof(one), &one);
    std::vector<Value> res;
    std::string finding;
    auto t = Clock::now();
    try {
      res = client.run(gmm->jacobian, gmm_args[i]);
    } catch (const npad::Error& e) {
      finding = std::string(e.kind()) + ": " + e.what();
    }
    deriv_ms[c].push_back(ms_since(t, Clock::now()));
    for (size_t r = 0; r < 20; ++r) {
      t = Clock::now();
      sink(apps::gmm_manual(gd[i]).objective);
      base_ms[c].push_back(ms_since(t, Clock::now()));
    }
    pthread_setaffinity_np(pthread_self(), sizeof(all_cpus), &all_cpus);
    rep.check("gmm jacobian in-process", finding.empty() ? check_outputs(res, gmm_refs[i], num(tj, "analytic_rtol")) : finding);
  };
  const Json& low = member(ws, "low");
  // Low rate on one connection: nothing else is in flight, so a request's
  // latency is front end + batch-window hold + exec. (With four, concurrent
  // GMM executions on the batcher's workers made a second latency mode.)
  const PhaseResult lo = gen.run(num(low, "rate"), num(low, "share") * opt.seconds, poisson(low), opt.trace,
                                 /*conns=*/1, time_pair);
  const Json& high = member(ws, "high");
  const PhaseResult hi = gen.run(num(high, "rate"), num(high, "share") * opt.seconds, poisson(high), false);
  const npad::serve::ServeStats& ss = batcher.stats();
  const uint64_t fallback = ss.fallback_requests.load();

  const Json& lad = member(ws, "ladder");
  std::vector<double> tried;
  const double max_rps = ladder_max_rate(
      num(lad, "base"), static_cast<int>(inum(lad, "per_octave")), static_cast<int>(inum(lad, "max_rung")),
      [&](double rate) {
        const PhaseResult st = gen.run(rate, num(lad, "step_s"), poisson(lad), false);
        return step_passes(st.all, num(lad, "p99_limit_ms"), num(lad, "late_limit_ms"));
      },
      &tried);
  rep.info("ladder_steps", std::to_string(tried.size()));

  server->stop();
  batcher.stop();

  // End-to-end: latency from each request's due time at the low rate, of the
  // dominant program's requests (the other programs are a minority of mixed
  // sizes whose share of a percentile would vary with the seed).
  // Spans are recorded after a response is complete, so tracing does not
  // touch these latencies; its cost shows in the client's handling time.
  std::vector<double> jac, obj, client_jac, client_jac_traced, queue_lo, front_lo;
  for (const Done& d : lo.reqs) {
    if (!d.s.ok) continue;
    const Kind& k = kinds[d.kind];
    if (k.program == "gmm") {
      const double lat = d.s.done - d.s.due;
      if (k.mode == "objective") {
        obj.push_back(lat);
      } else {
        jac.push_back(lat);
        (d.traced ? client_jac_traced : client_jac).push_back(d.client_ms);
      }
    }
    queue_lo.push_back(d.queue_ms);
    front_lo.push_back(std::max(0.0, (d.s.done - d.s.sent) - d.queue_ms - d.exec_ms));
  }
  const Summary j = summarize(jac), o = summarize(obj);
  std::vector<double> deriv_p50, base_p50, over;
  size_t n_deriv = 0, n_base = 0;
  for (size_t c = 0; c < cpus.size(); ++c) {
    deriv_p50.push_back(percentile(deriv_ms[c], 50));
    base_p50.push_back(percentile(base_ms[c], 50));
    over.push_back(ratio(deriv_p50.back(), base_p50.back()));
    n_deriv += deriv_ms[c].size();
    n_base += base_ms[c].size();
  }
  rep.metric("grad_ms_p50", j.p50, "ms", static_cast<int64_t>(j.n));
  rep.metric("grad_ms_p90", j.p90, "ms", static_cast<int64_t>(j.n));
  rep.metric("obj_ms_p50", o.p50, "ms", static_cast<int64_t>(o.n));
  rep.metric("ad_over_baseline", geomean(over), "ratio", static_cast<int64_t>(n_deriv));
  rep.metric("runtime.gmm.grad_ms_p50", geomean(deriv_p50), "ms", static_cast<int64_t>(n_deriv));
  rep.metric("apps.gmm.baseline_ms_p50", geomean(base_p50), "ms", static_cast<int64_t>(n_base));
  // The host's speed in this run, for setup_s (see run.py).
  rep.metric("host.baseline_ms", geomean(base_p50), "ms");
  const Summary llo = lo.all.latency, lhi = hi.all.latency;
  rep.metric("lat_ms_p50.low", llo.p50, "ms", static_cast<int64_t>(llo.n));
  rep.metric("lat_ms_p99.low", llo.p99, "ms", static_cast<int64_t>(llo.n));
  rep.metric("lat_ms_p50.high", lhi.p50, "ms", static_cast<int64_t>(lhi.n));
  rep.metric("lat_ms_p99.high", lhi.p99, "ms", static_cast<int64_t>(lhi.n));
  rep.metric("max_rps", max_rps, "1/s");

  // Batcher and front end.
  std::vector<double> exec_hi, batch_hi;
  size_t stacked = 0;
  for (const Done& d : hi.reqs) {
    if (!d.s.ok) continue;
    exec_hi.push_back(d.exec_ms);
    batch_hi.push_back(d.batch);
    if (d.batch > 1) ++stacked;
  }
  const Summary q = summarize(queue_lo), f = summarize(front_lo), e = summarize(exec_hi);
  rep.metric("serve.queue_wait_ms_p50", q.p50, "ms", static_cast<int64_t>(q.n));
  rep.metric("serve.queue_wait_ms_p99", q.p99, "ms", static_cast<int64_t>(q.n));
  rep.metric("serve.front_ms_p50", f.p50, "ms", static_cast<int64_t>(f.n));
  rep.metric("serve.exec_ms_p50", e.p50, "ms", static_cast<int64_t>(e.n));
  double bsum = 0;
  for (double x : batch_hi) bsum += x;
  rep.metric("serve.batch_size_mean", ratio(bsum, static_cast<double>(batch_hi.size())), "count");
  rep.metric("serve.stacked_frac", ratio(static_cast<double>(stacked), static_cast<double>(batch_hi.size())), "ratio");
  rep.metric("runtime.batched_prog_runs", static_cast<double>(batcher.interp().stats().batched_prog_runs.load()), "count");
  rep.metric("serve.fallback_requests", static_cast<double>(fallback), "count");

  // Load generator (fixed-rate phases).
  rep.metric("gen.sent", static_cast<double>(lo.all.sent + hi.all.sent), "count");
  rep.metric("gen.ok", static_cast<double>(lo.all.ok + hi.all.ok), "count");
  rep.metric("gen.failed", static_cast<double>(lo.all.failed + hi.all.failed), "count");
  rep.metric("gen.late_ms_p99", std::max(lo.all.late_p99, hi.all.late_p99), "ms");

  if (opt.trace) {
    // Traced (even-indexed) against untraced GMM jacobian requests at the
    // low rate: median time from send to the end of the client's handling.
    const double traced = percentile(client_jac_traced, 50), plain = percentile(client_jac, 50);
    rep.metric("trace.overhead_frac", plain > 0 ? (traced - plain) / plain : 0.0, "ratio");
    const auto self = tracer.layer_self_ms();
    double total = 0;
    for (const auto& [layer, ms] : self) total += ms;
    for (const auto& [layer, ms] : self) {
      rep.metric("trace." + layer + ".self_ms", ms, "ms");
      rep.metric("trace." + layer + ".share", ratio(ms, total), "ratio");
    }
    rep.info("trace_spans", std::to_string(tracer.span_count()));
    if (!opt.trace_out.empty() && !tracer.write_chrome_trace(opt.trace_out)) {
      throw std::runtime_error("cannot write " + opt.trace_out);
    }
  }
  return 0;
}

}  // namespace perfbench

// The `dense` and `irregular` workloads: each program is compiled the way
// serve::Registry compiles it (typecheck, AD first, then opt::optimize),
// then measured in interleaved rounds of primal call, derivative call and
// hand-written baseline on a small pool of seeded argument sets. Every
// result is checked against an independent reference.

#include <algorithm>
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
#include "core/ad.hpp"
#include "ir/print.hpp"
#include "ir/typecheck.hpp"
#include "opt/pipeline.hpp"
#include "runtime/buffer_pool.hpp"
#include "runtime/interp.hpp"
#include "support/error.hpp"
#include "tape/tape.hpp"

namespace perfbench {

namespace {

using npad::serve::Json;
using npad::rt::Value;
using Args = std::vector<Value>;
using Results = std::vector<Value>;
namespace apps = npad::apps;
namespace rt = npad::rt;
namespace ir = npad::ir;

struct Tolerance {
  double analytic = 0;  // reference computes the same function analytically
};

// One seeded argument set of a program with its precomputed reference.
struct Slot {
  Args obj_args;
  std::vector<Args> deriv_args;  // one Interp::run per entry (Jacobian columns)
  std::function<std::string(const Results&)> check_obj;
  std::function<std::string(const std::vector<Results>&)> check_deriv;
  std::function<void()> baseline;
};

enum class Mode { Vjp, Jvp, Hvp };

// Per-program timings (ms) of untraced rounds, plus traced-round derivative
// timings for the tracing overhead.
struct Samples {
  std::vector<double> obj_ms, deriv_ms, base_ms, deriv_ms_traced;
};

struct Program {
  std::string name;
  Mode mode = Mode::Vjp;
  bool has_obj = true;
  std::function<ir::Prog()> source;
  std::function<Slot(npad::support::Rng&)> make_slot;

  ir::Prog obj, deriv;
  std::vector<Slot> slots;
  std::string span_obj, span_deriv, span_base, span_first;
  Samples samples;
  double first_ms = 0;  // first primal + derivative call, compile included
};

// ------------------------------------------------------------ programs --

Program gmm_program(const std::string& name, int64_t n, int64_t d, int64_t k, Tolerance tol) {
  Program p;
  p.name = name;
  p.source = apps::gmm_ir_objective;
  p.make_slot = [=](npad::support::Rng& rng) {
    auto data = std::make_shared<apps::GmmData>(apps::gmm_gen(rng, n, d, k));
    const apps::GmmManualResult ref = apps::gmm_manual(*data);
    Slot s;
    s.obj_args = apps::gmm_ir_args(*data);
    s.deriv_args = {with(s.obj_args, {1.0})};
    s.check_obj = [=](const Results& r) { return check_outputs(r, {{0, {ref.objective}}}, tol.analytic); };
    s.check_deriv = [=](const std::vector<Results>& r) {
      return check_outputs(r[0], {{0, {ref.objective}}, {1, ref.d_alphas}, {2, ref.d_means}, {3, ref.d_qs}},
                           tol.analytic);
    };
    s.baseline = [data] { sink(apps::gmm_manual(*data).objective); };
    return s;
  };
  return p;
}

Program lstm_program(const std::string& name, int64_t bs, int64_t n, int64_t d, int64_t h, Tolerance tol) {
  Program p;
  p.name = name;
  p.source = apps::lstm_ir_objective;
  p.make_slot = [=](npad::support::Rng& rng) {
    auto data = std::make_shared<apps::LstmData>(apps::lstm_gen(rng, bs, n, d, h));
    const apps::LstmResult ref = apps::lstm_manual(*data);
    Slot s;
    s.obj_args = apps::lstm_ir_args(*data);
    s.deriv_args = {with(s.obj_args, {1.0})};
    s.check_obj = [=](const Results& r) { return check_outputs(r, {{0, {ref.objective}}}, tol.analytic); };
    s.check_deriv = [=](const std::vector<Results>& r) {
      return check_outputs(r[0], {{0, {ref.objective}}, {1, ref.d_wx}, {2, ref.d_wh}, {3, ref.d_b}},
                           tol.analytic);
    };
    s.baseline = [data] { sink(apps::lstm_manual(*data).objective); };
    return s;
  };
  return p;
}

Program kmeans_program(const std::string& name, int64_t n, int64_t d, int64_t k, bool hvp, Tolerance tol) {
  Program p;
  p.name = name;
  p.mode = hvp ? Mode::Hvp : Mode::Vjp;
  p.has_obj = !hvp;
  p.source = apps::kmeans_ir_cost;
  p.make_slot = [=](npad::support::Rng& rng) {
    auto data = std::make_shared<apps::KmeansData>(apps::kmeans_gen(rng, n, d, k));
    const apps::KmeansManualResult ref = apps::kmeans_manual(*data);
    Slot s;
    s.obj_args = {rt::make_f64_array(data->centroids, {k, d}), rt::make_f64_array(data->points, {n, d})};
    s.baseline = [data] { sink(apps::kmeans_manual(*data).cost); };
    s.check_obj = [=](const Results& r) { return check_outputs(r, {{0, {ref.cost}}}, tol.analytic); };
    if (!hvp) {
      s.deriv_args = {with(s.obj_args, {1.0})};
      s.check_deriv = [=](const std::vector<Results>& r) {
        return check_outputs(r[0], {{0, {ref.cost}}, {1, ref.grad}}, tol.analytic);
      };
      return s;
    }
    // Hessian-vector product along a random direction v: with assignments
    // fixed, the k-means Hessian is diagonal (2 * cluster size), so H v is
    // hess_diag * v elementwise. Outputs: cost, dC, dP, then their tangents.
    const std::vector<double> dir = rng.normal_vec(static_cast<size_t>(k * d));
    std::vector<double> hv(dir.size());
    for (size_t i = 0; i < dir.size(); ++i) hv[i] = ref.hess_diag[i] * dir[i];
    s.deriv_args = {with(s.obj_args, {1.0, rt::make_f64_array(dir, {k, d}),
                                      rt::make_f64_array(zeros(n * d), {n, d}), 0.0})};
    s.check_deriv = [=](const std::vector<Results>& r) {
      return check_outputs(r[0], {{0, {ref.cost}}, {1, ref.grad}, {4, hv}}, tol.analytic);
    };
    return s;
  };
  return p;
}

Program kmeans_csr_program(const std::string& name, int64_t n, int64_t d, int64_t k, int64_t nnz,
                           Tolerance tol) {
  Program p;
  p.name = name;
  p.source = apps::kmeans_sparse_ir_cost;
  p.make_slot = [=](npad::support::Rng& rng) {
    auto data = std::make_shared<apps::KmeansSparseData>(apps::kmeans_sparse_gen(rng, n, d, k, nnz));
    const apps::KmeansManualResult ref = apps::kmeans_sparse_manual(*data);
    Slot s;
    s.obj_args = apps::kmeans_sparse_ir_args(*data);
    s.deriv_args = {with(s.obj_args, {1.0})};
    s.check_obj = [=](const Results& r) { return check_outputs(r, {{0, {ref.cost}}}, tol.analytic); };
    s.check_deriv = [=](const std::vector<Results>& r) {
      return check_outputs(r[0], {{0, {ref.cost}}, {1, ref.grad}}, tol.analytic);
    };
    s.baseline = [data] { sink(apps::kmeans_sparse_manual(*data).cost); };
    return s;
  };
  return p;
}

// Complicated hand model; the full Jacobian is 3*bones + 2 seed-vector jvp
// columns (the two us columns seed every same-parity entry at once, since
// they touch disjoint rows). Reference: the tape Jacobian of the
// hand-written residuals along the same directions.
Program hand_program(const std::string& name, int64_t bones, int64_t verts, Tolerance tol) {
  Program p;
  p.name = name;
  p.mode = Mode::Jvp;
  p.source = [] { return apps::hand_ir_residuals(/*complicated=*/true); };
  p.make_slot = [=](npad::support::Rng& rng) {
    auto data = std::make_shared<apps::HandData>(apps::hand_gen(rng, bones, verts));
    const int64_t nth = 3 * bones, nus = 2 * verts, nres = 3 * verts;
    std::vector<double> res(static_cast<size_t>(nres));
    apps::hand_residuals<double>(*data, data->theta.data(), data->us.data(), res.data());
    const std::vector<double> jac = hand_jacobian(*data, true);
    // The program returns the x, y and z residual components as three
    // arrays; the hand-written residuals interleave them per vertex.
    auto split = [verts](const std::vector<double>& xyz, size_t first_output) {
      OutputRefs parts;
      for (int64_t i = 0; i < 3; ++i) {
        std::vector<double> part(static_cast<size_t>(verts));
        for (int64_t v = 0; v < verts; ++v) part[static_cast<size_t>(v)] = xyz[static_cast<size_t>(v * 3 + i)];
        parts.push_back({first_output + static_cast<size_t>(i), std::move(part)});
      }
      return parts;
    };
    Slot s;
    s.obj_args = apps::hand_ir_args(*data, true);
    const auto res0 = split(res, 0);
    std::vector<OutputRefs> cols;
    for (int64_t c = 0; c < nth + 2; ++c) {
      std::vector<double> th_t = zeros(nth), us_t = zeros(nus);
      if (c < nth) {
        th_t[static_cast<size_t>(c)] = 1.0;
      } else {
        for (int64_t v = 0; v < verts; ++v) us_t[static_cast<size_t>(2 * v + (c - nth))] = 1.0;
      }
      s.deriv_args.push_back(with(s.obj_args, {rt::make_f64_array(th_t, {nth}), rt::make_f64_array(us_t, {nus}),
                                               rt::make_f64_array(zeros(verts * 3), {verts, 3}),
                                               rt::make_f64_array(zeros(verts * 6), {verts, 6}),
                                               rt::make_f64_array(zeros(verts * 3), {verts, 3})}));
      // Column c of the seeded jvp: the Jacobian times the seed direction.
      std::vector<double> dir = th_t, col(static_cast<size_t>(nres), 0.0);
      dir.insert(dir.end(), us_t.begin(), us_t.end());
      for (size_t r = 0; r < col.size(); ++r) {
        for (size_t q = 0; q < dir.size(); ++q) col[r] += jac[r * dir.size() + q] * dir[q];
      }
      cols.push_back(split(col, 3));
    }
    s.check_obj = [=](const Results& r) { return check_outputs(r, res0, tol.analytic); };
    s.check_deriv = [=](const std::vector<Results>& r) {
      for (size_t c = 0; c < r.size(); ++c) {
        std::string f = check_outputs(r[c], res0, tol.analytic);
        if (f.empty()) f = check_outputs(r[c], cols[c], tol.analytic);
        if (!f.empty()) return "column " + std::to_string(c) + " " + f;
      }
      return std::string();
    };
    s.baseline = [data] { sink(static_cast<double>(apps::hand_tape_jacobian(*data, true))); };
    return s;
  };
  return p;
}

// Bundle adjustment: 15 seed-vector jvp columns (11 camera, 3 point, 1
// weight) recover the block-sparse Jacobian. Reference: the tape Jacobian's
// rows (each residual depends on one camera and one point, so column c of
// the seeded jvp is entry c of each row).
Program ba_program(const std::string& name, int64_t cams, int64_t pts, int64_t obs, Tolerance tol) {
  Program p;
  p.name = name;
  p.mode = Mode::Jvp;
  p.source = apps::ba_ir_residuals;
  p.make_slot = [=](npad::support::Rng& rng) {
    auto data = std::make_shared<apps::BaData>(apps::ba_gen(rng, cams, pts, obs));
    std::vector<double> rows;
    apps::ba_tape_jacobian(*data, &rows);
    std::vector<double> e0(static_cast<size_t>(obs)), e1(e0.size()), werr(e0.size());
    for (int64_t o = 0; o < obs; ++o) {
      double out[2];
      apps::ba_project<double>(data->cams.data() + data->cam_idx[static_cast<size_t>(o)] * 11,
                               data->pts.data() + data->pt_idx[static_cast<size_t>(o)] * 3, out);
      const double w = data->weights[static_cast<size_t>(o)];
      e0[static_cast<size_t>(o)] = w * (out[0] - data->feats[static_cast<size_t>(2 * o)]);
      e1[static_cast<size_t>(o)] = w * (out[1] - data->feats[static_cast<size_t>(2 * o + 1)]);
      werr[static_cast<size_t>(o)] = 1.0 - w * w;
    }
    Slot s;
    s.obj_args = apps::ba_ir_args(*data);
    std::vector<OutputRefs> col_refs;
    for (int c = 0; c < 15; ++c) {
      std::vector<double> cam_t = zeros(cams * 11), pt_t = zeros(pts * 3), w_t = zeros(obs);
      if (c < 11) {
        for (int64_t i = 0; i < cams; ++i) cam_t[static_cast<size_t>(i * 11 + c)] = 1.0;
      } else if (c < 14) {
        for (int64_t i = 0; i < pts; ++i) pt_t[static_cast<size_t>(i * 3 + c - 11)] = 1.0;
      } else {
        std::fill(w_t.begin(), w_t.end(), 1.0);
      }
      s.deriv_args.push_back(with(s.obj_args, {rt::make_f64_array(cam_t, {cams, 11}), rt::make_f64_array(pt_t, {pts, 3}),
                                               rt::make_f64_array(w_t, {obs}),
                                               rt::make_f64_array(zeros(obs * 2), {obs, 2})}));
      std::vector<double> d0(static_cast<size_t>(obs)), d1(d0.size()), dw(d0.size());
      for (int64_t o = 0; o < obs; ++o) {
        d0[static_cast<size_t>(o)] = rows[static_cast<size_t>((2 * o) * 15 + c)];
        d1[static_cast<size_t>(o)] = rows[static_cast<size_t>((2 * o + 1) * 15 + c)];
        dw[static_cast<size_t>(o)] = c == 14 ? -2.0 * data->weights[static_cast<size_t>(o)] : 0.0;
      }
      col_refs.push_back({{0, e0}, {1, e1}, {2, werr}, {3, d0}, {4, d1}, {5, dw}});
    }
    s.check_obj = [=](const Results& r) { return check_outputs(r, {{0, e0}, {1, e1}, {2, werr}}, tol.analytic); };
    s.check_deriv = [=](const std::vector<Results>& r) {
      for (size_t c = 0; c < r.size(); ++c) {
        std::string f = check_outputs(r[c], col_refs[c], tol.analytic);
        if (!f.empty()) return "column " + std::to_string(c) + " " + f;
      }
      return std::string();
    };
    s.baseline = [data] { sink(static_cast<double>(apps::ba_tape_jacobian(*data, nullptr))); };
    return s;
  };
  return p;
}

// XSBench-like lookup; reference: the tape gradient with respect to the
// cross-section table (output 2: the adjoint of xs).
Program xs_program(const std::string& name, int64_t nuclides, int64_t grid, int64_t lookups, Tolerance tol) {
  Program p;
  p.name = name;
  p.source = apps::xs_ir_objective;
  p.make_slot = [=](npad::support::Rng& rng) {
    auto data = std::make_shared<apps::XsData>(apps::xs_gen(rng, nuclides, grid, lookups));
    std::vector<double> gxs;
    const double total = apps::xs_tape_gradient(*data, &gxs);
    Slot s;
    s.obj_args = apps::xs_ir_args(*data);
    s.deriv_args = {with(s.obj_args, {1.0})};
    s.check_obj = [=](const Results& r) { return check_outputs(r, {{0, {total}}}, tol.analytic); };
    s.check_deriv = [=](const std::vector<Results>& r) {
      return check_outputs(r[0], {{0, {total}}, {2, gxs}}, tol.analytic);
    };
    s.baseline = [data] {
      std::vector<double> g;
      sink(apps::xs_tape_gradient(*data, &g));
    };
    return s;
  };
  return p;
}

// RSBench-like resonance evaluation; reference: a tape gradient of the
// hand-written objective with respect to every pole parameter and the
// concentrations (outputs 1..4).
Program rs_program(const std::string& name, int64_t nuclides, int64_t poles, int64_t lookups, Tolerance tol) {
  Program p;
  p.name = name;
  p.source = apps::rs_ir_objective;
  p.make_slot = [=](npad::support::Rng& rng) {
    auto data = std::make_shared<apps::RsData>(apps::rs_gen(rng, nuclides, poles, lookups));
    using npad::tape::Adouble;
    npad::tape::Tape::active().clear();
    std::vector<Adouble> pe, pw, pa, conc;
    for (double v : data->pole_e) pe.emplace_back(v);
    for (double v : data->pole_w) pw.emplace_back(v);
    for (double v : data->pole_a) pa.emplace_back(v);
    for (double v : data->conc) conc.emplace_back(v);
    Adouble total = apps::rs_objective<Adouble>(*data, pe.data(), pw.data(), pa.data(), conc.data());
    total.seed(1.0);
    npad::tape::Tape::active().reverse();
    auto adj = [](const std::vector<Adouble>& xs) {
      std::vector<double> out;
      for (const auto& x : xs) out.push_back(x.adjoint());
      return out;
    };
    const double tv = total.value();
    const auto gpe = adj(pe), gpw = adj(pw), gpa = adj(pa), gconc = adj(conc);
    npad::tape::Tape::active().clear();
    Slot s;
    s.obj_args = apps::rs_ir_args(*data);
    s.deriv_args = {with(s.obj_args, {1.0})};
    s.check_obj = [=](const Results& r) { return check_outputs(r, {{0, {tv}}}, tol.analytic); };
    s.check_deriv = [=](const std::vector<Results>& r) {
      return check_outputs(r[0], {{0, {tv}}, {1, gpe}, {2, gpw}, {3, gpa}, {4, gconc}}, tol.analytic);
    };
    s.baseline = [data] { sink(apps::rs_tape_gradient(*data)); };
    return s;
  };
  return p;
}

std::vector<Program> make_programs(const std::string& workload, const Json& wspec, Tolerance tol) {
  const Json& ps = member(wspec, "programs");
  std::vector<Program> out;
  for (const auto& [name, sh] : ps.obj) {
    const std::string kind = member(sh, "kind").str;
    if (kind == "gmm") {
      out.push_back(gmm_program(name, inum(sh, "n"), inum(sh, "d"), inum(sh, "k"), tol));
    } else if (kind == "lstm") {
      out.push_back(lstm_program(name, inum(sh, "bs"), inum(sh, "n"), inum(sh, "d"), inum(sh, "h"), tol));
    } else if (kind == "kmeans" || kind == "kmeans_hvp") {
      out.push_back(kmeans_program(name, inum(sh, "n"), inum(sh, "d"), inum(sh, "k"), kind == "kmeans_hvp", tol));
    } else if (kind == "kmeans_csr") {
      out.push_back(kmeans_csr_program(name, inum(sh, "n"), inum(sh, "d"), inum(sh, "k"), inum(sh, "nnz_per_row"), tol));
    } else if (kind == "hand_complicated") {
      out.push_back(hand_program(name, inum(sh, "bones"), inum(sh, "verts"), tol));
    } else if (kind == "ba") {
      out.push_back(ba_program(name, inum(sh, "cams"), inum(sh, "pts"), inum(sh, "obs"), tol));
    } else if (kind == "xsbench") {
      out.push_back(xs_program(name, inum(sh, "nuclides"), inum(sh, "grid"), inum(sh, "lookups"), tol));
    } else if (kind == "rsbench") {
      out.push_back(rs_program(name, inum(sh, "nuclides"), inum(sh, "poles"), inum(sh, "lookups"), tol));
    } else {
      throw std::runtime_error("spec: workload " + workload + ": unknown program kind '" + kind + "'");
    }
  }
  return out;
}

double elapsed_ms(Clock::time_point t0) { return ms_since(t0, Clock::now()); }

// InterpStats deltas taken outside the derivative calls.
using Counters = std::map<std::string, uint64_t>;
void add_delta(Counters& acc, const Counters& before, const Counters& after) {
  for (const auto& [k, v] : after) acc[k] += v - before.at(k);
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

}  // namespace

int run_compute(const Options& opt, const Json& spec, Report& rep) {
  const auto t_start = Clock::now();
  Tracer tracer(t_start);
  const Json& wspec = member(member(spec, "workloads"), opt.workload);
  const Json& tj = member(spec, "tolerance");
  const Tolerance tol{num(tj, "analytic_rtol")};
  const int64_t pool = inum(spec, "arg_pool");

  // Inputs and references first: they are the benchmark's own work, so the
  // set-up clock below starts after them.
  std::vector<Program> progs = make_programs(opt.workload, wspec, tol);
  npad::support::Rng rng(opt.seed * 0x9e3779b97f4a7c15ull + 0x70657266ull);
  for (auto& p : progs) {
    for (int64_t i = 0; i < pool; ++i) p.slots.push_back(p.make_slot(rng));
    p.span_obj = "runtime.run/" + p.name + "/obj";
    p.span_deriv = "runtime.run/" + p.name + (p.mode == Mode::Vjp ? "/vjp" : p.mode == Mode::Jvp ? "/jvp" : "/hvp");
    p.span_base = "apps.baseline/" + p.name;
    p.span_first = "runtime.first_run/" + p.name;
  }

  rt::Interp interp;
  tracer.set_enabled(opt.trace);
  double typecheck_ms = 0, ad_ms = 0, optimize_ms = 0;
  uint64_t ad_stms = 0, opt_stms = 0, fused = 0, flattened = 0;
  auto timed = [&](double& acc, const char* span, auto&& fn) {
    Span sp(tracer, span, 0);
    const auto t = Clock::now();
    fn();
    acc += elapsed_ms(t);
  };

  const auto t_setup = Clock::now();
  {
    Span setup(tracer, "bench.setup", 0);
    for (auto& p : progs) {
      ir::Prog primal = p.source();
      timed(typecheck_ms, "ir.typecheck", [&] { ir::typecheck(primal); });
      ir::Prog deriv;
      if (p.mode == Mode::Jvp) {
        timed(ad_ms, "core.jvp", [&] { deriv = npad::ad::jvp(primal); });
      } else {
        timed(ad_ms, "core.vjp", [&] { deriv = npad::ad::vjp(primal); });
        if (p.mode == Mode::Hvp) {
          timed(typecheck_ms, "ir.typecheck", [&] { ir::typecheck(deriv); });
          timed(ad_ms, "core.jvp", [&] { deriv = npad::ad::jvp(deriv); });
        }
      }
      ad_stms += ir::count_stms(deriv.fn.body);
      npad::opt::PipelineStats ps;
      timed(optimize_ms, "opt.optimize", [&] {
        if (p.has_obj) p.obj = npad::opt::optimize(primal, {}, &ps);
        p.deriv = npad::opt::optimize(deriv, {}, &ps);
      });
      fused += static_cast<uint64_t>(ps.fuse.fused_maps + ps.fuse.fused_redomaps + ps.fuse.fused_hists);
      flattened += static_cast<uint64_t>(ps.flatten.flattened_maps + ps.flatten.flattened_redomaps);
      opt_stms += ir::count_stms(p.deriv.fn.body) + (p.has_obj ? ir::count_stms(p.obj.fn.body) : 0);
      timed(typecheck_ms, "ir.typecheck", [&] {
        if (p.has_obj) ir::typecheck(p.obj);
        ir::typecheck(p.deriv);
      });
    }
    // First checked result of every program: resolve, plan, kernel compile
    // and vexec lowering all happen inside these first calls.
    for (auto& p : progs) {
      Span sp(tracer, p.span_first.c_str(), 0);
      const Slot& s = p.slots[0];
      const auto t = Clock::now();
      try {
        if (p.has_obj) rep.check(p.name + " first obj", s.check_obj(interp.run(p.obj, s.obj_args)));
        std::vector<Results> rs;
        for (const Args& a : s.deriv_args) rs.push_back(interp.run(p.deriv, a));
        rep.check(p.name + " first deriv", s.check_deriv(rs));
      } catch (const npad::Error& e) {
        rep.check(p.name + " first run", std::string(e.kind()) + ": " + e.what());
      }
      p.first_ms = elapsed_ms(t);
    }
  }
  rep.metric("setup_wall_s", elapsed_ms(t_setup) / 1e3, "s");
  if (opt.setup_only) return 0;

  // Measurement: `callers` threads, each with its own Interp (so its stats
  // deltas are its own), run interleaved rounds over the argument pool,
  // starting at different pool slots. In a traced run rounds alternate in
  // blocks of one pass over the pool: the rounds of even blocks record spans,
  // those of odd blocks do not, so both halves see every argument set and the
  // same process measures the tracing overhead.
  struct Caller {
    std::vector<Samples> samples;
    Counters delta, steady;
    uint64_t deriv_calls = 0;
    std::vector<std::pair<std::string, std::string>> checks;  // (what, finding)
  };
  const size_t callers = static_cast<size_t>(std::clamp<int64_t>(
      inum(wspec, "callers"), 1, std::max(1u, std::thread::hardware_concurrency())));
  rep.info("callers", std::to_string(callers));
  std::vector<Caller> results(callers);
  const auto pool0 = rt::BufferPool::global().stats();
  const auto t_meas = Clock::now();
  const double budget_ms = opt.seconds * 1e3;
  auto measure = [&](size_t c) {
    Caller& out = results[c];
    out.samples.resize(progs.size());
    rt::Interp my;
    const Counters stats0 = my.stats().counters();
    auto check = [&](const std::string& what, std::string finding) { out.checks.emplace_back(what, std::move(finding)); };
    const uint64_t p_slots = static_cast<uint64_t>(pool);
    for (uint64_t r = 0; elapsed_ms(t_meas) < budget_ms || r < 2 * p_slots; ++r) {
      const bool traced = opt.trace && (r / p_slots) % 2 == 0;
      Span round(tracer, "bench.round", r, traced);
      for (size_t pi = 0; pi < progs.size(); ++pi) {
        const Program& p = progs[pi];
        Samples& smp = out.samples[pi];
        const Slot& s = p.slots[(r + c) % p.slots.size()];
        try {
          if (p.has_obj) {
            Results res;
            {
              Span sp(tracer, p.span_obj.c_str(), r, traced);
              const auto t = Clock::now();
              res = my.run(p.obj, s.obj_args);
              if (!traced) smp.obj_ms.push_back(elapsed_ms(t));
            }
            Span ck(tracer, "bench.check", r, traced);
            check(p.name + " obj", s.check_obj(res));
          }
          std::vector<Results> outs;
          const Counters before = my.stats().counters();
          // The span's own open and close are inside the timed region, so
          // traced minus untraced samples is the tracing overhead.
          const auto t = Clock::now();
          {
            Span sp(tracer, p.span_deriv.c_str(), r, traced);
            for (const Args& a : s.deriv_args) outs.push_back(my.run(p.deriv, a));
          }
          (traced ? smp.deriv_ms_traced : smp.deriv_ms).push_back(elapsed_ms(t));
          add_delta(out.delta, before, my.stats().counters());
          ++out.deriv_calls;
          Span ck(tracer, "bench.check", r, traced);
          check(p.name + " deriv", s.check_deriv(outs));
        } catch (const npad::Error& e) {
          check(p.name + " run", std::string(e.kind()) + ": " + e.what());
        }
        Span sp(tracer, p.span_base.c_str(), r, traced);
        const auto t = Clock::now();
        s.baseline();
        if (!traced) smp.base_ms.push_back(elapsed_ms(t));
      }
    }
    add_delta(out.steady, stats0, my.stats().counters());
  };
  {
    std::vector<std::thread> threads;
    for (size_t c = 1; c < callers; ++c) threads.emplace_back(measure, c);
    measure(0);
    for (auto& t : threads) t.join();
  }
  const auto pool1 = rt::BufferPool::global().stats();
  Counters delta, steady;
  uint64_t deriv_calls = 0;
  for (const Caller& c : results) {
    for (const auto& [what, finding] : c.checks) rep.check(what, finding);
    for (const auto& [k, v] : c.delta) delta[k] += v;
    for (const auto& [k, v] : c.steady) steady[k] += v;
    deriv_calls += c.deriv_calls;
    for (size_t pi = 0; pi < progs.size(); ++pi) {
      const Samples& from = c.samples[pi];
      Samples& to = progs[pi].samples;
      to.obj_ms.insert(to.obj_ms.end(), from.obj_ms.begin(), from.obj_ms.end());
      to.deriv_ms.insert(to.deriv_ms.end(), from.deriv_ms.begin(), from.deriv_ms.end());
      to.base_ms.insert(to.base_ms.end(), from.base_ms.begin(), from.base_ms.end());
      to.deriv_ms_traced.insert(to.deriv_ms_traced.end(), from.deriv_ms_traced.begin(), from.deriv_ms_traced.end());
    }
  }

  // End-to-end: geomeans over programs of per-program percentiles.
  std::vector<double> g50, g90, o50, over, base, g50_traced;
  size_t n_grad = 0, n_obj = 0, n_over = 0;
  double first_run_ms = 0;
  for (auto& p : progs) {
    const Summary g = summarize(p.samples.deriv_ms), b = summarize(p.samples.base_ms);
    g50.push_back(g.p50);
    g90.push_back(g.p90);
    n_grad += g.n;
    over.push_back(ratio(g.p50, b.p50));
    base.push_back(b.p50);
    n_over += std::min(g.n, b.n);
    first_run_ms += p.first_ms - g.p50;
    rep.metric("runtime." + p.name + ".grad_ms_p50", g.p50, "ms", static_cast<int64_t>(g.n));
    rep.metric("runtime." + p.name + ".grad_ms_p90", g.p90, "ms", static_cast<int64_t>(g.n));
    rep.metric("apps." + p.name + ".baseline_ms_p50", b.p50, "ms", static_cast<int64_t>(b.n));
    if (p.has_obj) {
      const Summary o = summarize(p.samples.obj_ms);
      o50.push_back(o.p50);
      n_obj += o.n;
      first_run_ms -= o.p50;
      rep.metric("runtime." + p.name + ".obj_ms_p50", o.p50, "ms", static_cast<int64_t>(o.n));
    }
    if (opt.trace) g50_traced.push_back(percentile(p.samples.deriv_ms_traced, 50));
  }
  rep.metric("grad_ms_p50", geomean(g50), "ms", static_cast<int64_t>(n_grad));
  rep.metric("grad_ms_p90", geomean(g90), "ms", static_cast<int64_t>(n_grad));
  rep.metric("obj_ms_p50", geomean(o50), "ms", static_cast<int64_t>(n_obj));
  rep.metric("ad_over_baseline", geomean(over), "ratio", static_cast<int64_t>(n_over));
  // The host's speed in this run, for setup_s (see run.py).
  rep.metric("host.baseline_ms", geomean(base), "ms");

  // Per layer. Counts are per derivative call.
  rep.metric("ir.typecheck_ms", typecheck_ms, "ms");
  rep.metric("core.ad_ms", ad_ms, "ms");
  rep.metric("core.stms", static_cast<double>(ad_stms), "count");
  rep.metric("opt.optimize_ms", optimize_ms, "ms");
  rep.metric("opt.stms", static_cast<double>(opt_stms), "count");
  rep.metric("opt.fused", static_cast<double>(fused), "count");
  rep.metric("opt.flattened", static_cast<double>(flattened), "count");
  rep.metric("runtime.first_run_ms", first_run_ms, "ms");
  auto per_call = [&](const std::string& name, double v) {
    rep.metric(name, ratio(v, static_cast<double>(deriv_calls)), "count");
  };
  auto d = [&](const char* k) { return static_cast<double>(delta[k]); };
  per_call("runtime.vexec_launches", d("vexec_launches"));
  per_call("runtime.batched_launches", d("batched_launches"));
  per_call("runtime.segred_launches", d("segred_launches"));
  per_call("runtime.flattened_maps", d("flattened_maps"));
  per_call("runtime.plan_scalar_blocks", d("plan_scalar_blocks"));
  per_call("runtime.plan_launches", d("plan_launches"));
  per_call("runtime.general_soacs",
           d("general_maps") + d("general_reduces") + d("general_scans") + d("general_hists"));
  rep.metric("runtime.kernel_share", ratio(d("kernel_maps"), d("kernel_maps") + d("general_maps")), "ratio");
  const double hits = static_cast<double>(steady["kernel_cache_hits"]);
  const double misses = static_cast<double>(steady["kernel_cache_misses"]);
  rep.metric("runtime.kernel_cache_miss_ratio", ratio(misses, hits + misses), "ratio");
  const double atomic = d("atomic_updates") + d("atomic_hist_updates");
  const double priv = d("privatized_updates") + d("privatized_hist_updates");
  rep.metric("runtime.atomic_frac", ratio(atomic, atomic + priv), "ratio");
  rep.metric("support.workers", pool_workers(), "count");
  const double ph = static_cast<double>(pool1.hits - pool0.hits);
  const double pm = static_cast<double>(pool1.misses - pool0.misses);
  rep.metric("pool.hit_ratio", ratio(ph, ph + pm), "ratio");
  rep.metric("pool.retained_mb", static_cast<double>(pool1.retained_bytes) / (1 << 20), "MB");

  if (opt.trace) {
    const double traced = geomean(g50_traced), plain = geomean(g50);
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

  // Every launch buffer must be back in the pool once the results and
  // argument sets are gone.
  progs.clear();
  const uint64_t outstanding = rt::BufferPool::global().stats().outstanding_buffers;
  rep.metric("pool.outstanding_buffers", static_cast<double>(outstanding), "count");
  rep.check("pool outstanding buffers after the workload",
            outstanding == 0 ? "" : std::to_string(outstanding) + " buffers still outstanding");
  return 0;
}

}  // namespace perfbench

// The three workloads. Each is a closed loop in one process: the next
// registration (or batch) starts only after the previous one finished.
//
//   synth64_p2     Table I problem at 64^3 on 2 ranks, one standalone
//                  RegistrationSolver per registration.
//   brain_iso_p1   incompressible registration of two brain phantoms on a
//                  40x48x40 (non-power-of-two) grid on 1 rank.
//   batch32x16_p4  16 synthetic 32^3 jobs through one BatchSolver on 4 ranks,
//                  resubmitted batch after batch.
//
// The untraced run times the loop; the traced run (--trace 1) runs one
// registration (or batch) without and one with a Newton-iterate hook that
// records a span per accepted iterate, then the layer pass (layers.cpp).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <mutex>

#include "imaging/synthetic.hpp"
#include "regbench.hpp"

namespace regbench {

namespace {

constexpr WorkloadShape kWorkloads[] = {
    {"synth64_p2", {64, 64, 64}, 2, 2},
    {"brain_iso_p1", {40, 48, 40}, 1, 2},
    {"batch32x16_p4", {32, 32, 32}, 4, 4},
};

/// Set-up runs this many times per process; setup_s is their median.
constexpr int kSetupRepeats = 3;
constexpr int kBatchJobs = 16;
/// Brain phantom subjects: template and reference.
constexpr unsigned kBrainTemplate = 2, kBrainReference = 1;
/// Isochoric map: |det grad y - 1| must stay below this (measured 3.3e-4
/// on the 40x48x40 pair; nt = 4 RK2 transport bounds it, not round-off).
constexpr double kDetTolerance = 1e-3;
/// Divergence of the returned velocity by 4th-order finite differences,
/// relative to the Frobenius norm of its finite-difference gradient. A
/// Leray-projected smooth field leaves only the difference between the
/// spectral and the finite-difference derivative (measured 3.4e-5); a
/// field that is not divergence-free reads O(0.1).
constexpr double kDivergenceBound = 1e-3;

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

double uniform01(std::uint64_t& state) {
  return static_cast<double>(splitmix64(state) >> 11) * 0x1.0p-53;
}

core::RegistrationOptions table1_options(bool incompressible) {
  core::RegistrationOptions o;
  o.beta = 1e-2;
  o.nt = 4;
  o.gtol = 1e-2;
  o.gauss_newton = true;
  o.reg_type = core::RegType::kH2Seminorm;
  o.incompressible = incompressible;
  return o;
}

/// A field on the whole grid, built through a single-rank decomposition
/// (layout [N1][N2][N3], i3 fastest).
grid::ScalarField full_volume(
    const Int3& dims,
    const std::function<grid::ScalarField(grid::PencilDecomp&)>& make) {
  Timings t;
  grid::PencilDecomp decomp(mpisim::single_rank(t), dims);
  return make(decomp);
}

/// Copies this rank's pencil block out of a whole-grid field, translated
/// periodically by `shift` grid cells.
void copy_block(grid::PencilDecomp& decomp, const grid::ScalarField& full,
                grid::ScalarField& out, const Int3& shift = {0, 0, 0}) {
  const Int3 n = decomp.dims();
  const Int3 ld = decomp.local_real_dims();
  out.resize(decomp.local_real_size());
  index_t idx = 0;
  for (index_t i1 = 0; i1 < ld[0]; ++i1) {
    const index_t g1 = (decomp.range1().begin + i1 + shift[0]) % n[0];
    for (index_t i2 = 0; i2 < ld[1]; ++i2) {
      const index_t g2 = (decomp.range2().begin + i2 + shift[1]) % n[1];
      for (index_t i3 = 0; i3 < ld[2]; ++i3, ++idx)
        out[idx] = full[(g1 * n[1] + g2) * n[2] + (i3 + shift[2]) % n[2]];
    }
  }
}

/// Properties every registration must have: it converged, reduced the
/// mismatch, and its map is diffeomorphic.
bool registration_ok(bool converged, double rel_residual, double min_det) {
  return converged && rel_residual < 1 && min_det > 0;
}

/// The gradient-norm reduction the solver was asked for.
bool gradient_ok(const core::NewtonReport& r, double gtol) {
  return r.final_gradient_norm <= gtol * r.initial_gradient_norm;
}

/// ||div v|| / ||grad v|| with periodic 4th-order central differences on the
/// whole grid (gathered on rank 0). Independent of the solver's spectral
/// operators. Collective; every rank gets the value.
double fd_divergence_ratio(grid::PencilDecomp& decomp,
                           const grid::VectorField& v) {
  auto& comm = decomp.comm();
  comm.set_time_kind(TimeKind::kOther);
  constexpr int kTag = 9100;
  if (comm.rank() != 0) {
    for (int c = 0; c < 3; ++c)
      comm.send<real_t>(std::span<const real_t>(v[c]), 0, kTag + c);
    return comm.allreduce_max(0.0);
  }
  const Int3 n = decomp.dims();
  std::vector<std::vector<real_t>> full(3, std::vector<real_t>(n.prod()));
  for (int r = 0; r < comm.size(); ++r) {
    const BlockRange r1 = block_range(n[0], decomp.p1(), r / decomp.p2());
    const BlockRange r2 = block_range(n[1], decomp.p2(), r % decomp.p2());
    for (int c = 0; c < 3; ++c) {
      const std::vector<real_t> blk =
          r == 0 ? v[c] : comm.recv<real_t>(r, kTag + c);
      index_t idx = 0;
      for (index_t i1 = r1.begin; i1 < r1.end; ++i1)
        for (index_t i2 = r2.begin; i2 < r2.end; ++i2)
          for (index_t i3 = 0; i3 < n[2]; ++i3, ++idx)
            full[c][(i1 * n[1] + i2) * n[2] + i3] = blk[idx];
    }
  }
  const auto at = [&](int c, index_t i1, index_t i2, index_t i3) {
    i1 = (i1 + n[0]) % n[0];
    i2 = (i2 + n[1]) % n[1];
    i3 = (i3 + n[2]) % n[2];
    return full[c][(i1 * n[1] + i2) * n[2] + i3];
  };
  const auto d = [&](int c, int axis, index_t i1, index_t i2, index_t i3) {
    const real_t h = kTwoPi / n[axis];
    index_t o[3] = {0, 0, 0};
    o[axis] = 1;
    const auto f = [&](index_t k) {
      return at(c, i1 + k * o[0], i2 + k * o[1], i3 + k * o[2]);
    };
    return (-f(2) + 8 * f(1) - 8 * f(-1) + f(-2)) / (12 * h);
  };
  double div2 = 0, grad2 = 0;
  for (index_t i1 = 0; i1 < n[0]; ++i1)
    for (index_t i2 = 0; i2 < n[1]; ++i2)
      for (index_t i3 = 0; i3 < n[2]; ++i3) {
        double div = 0;
        for (int c = 0; c < 3; ++c)
          for (int axis = 0; axis < 3; ++axis) {
            const double g = d(c, axis, i1, i2, i3);
            grad2 += g * g;
            if (axis == c) div += g;
          }
        div2 += div * div;
      }
  const double ratio = grad2 > 0 ? std::sqrt(div2 / grad2) : 0;
  return comm.allreduce_max(ratio);
}

/// Set-up phase boundaries of one repetition, marked on rank 0 and printed
/// on stderr (the set-up breakdown in README.md).
struct SetupPhases {
  double start = now_s();
  std::vector<std::pair<const char*, double>> marks;
  void mark(const char* what) { marks.emplace_back(what, now_s()); }
  void print() const {
    std::fprintf(stderr, "setup phases (s):");
    double prev = start;
    for (const auto& [what, t] : marks) {
      std::fprintf(stderr, " %s %.3f", what, t - prev);
      prev = t;
    }
    std::fprintf(stderr, "\n");
  }
};

/// Per-solve figures of a traced registration, as the per-layer metrics
/// report them.
struct SolveFigures {
  Timings timings;  // slowest rank
  double tts = 0, unattributed = 0, queue_wait = 0, comm_wait = 0;
  double newton = 0, matvecs = 0, krylov = 0, plan_builds = 0;
};

int krylov_iterations(const core::NewtonReport& r) {
  int k = 0;
  for (const auto& e : r.log) k += e.krylov_iterations;
  return k;
}

double comm_seconds(const Timings& t) {
  return t.get(TimeKind::kFftComm) + t.get(TimeKind::kInterpComm) +
         t.get(TimeKind::kOther);
}

double attributed_seconds(const Timings& t) {
  double s = 0;
  for (int k = 0; k < kNumTimeKinds; ++k) s += t.get(static_cast<TimeKind>(k));
  return s;
}

/// Installs a hook that records one span per accepted Newton iterate,
/// carrying the Communicator Timings delta of that iterate. Observational:
/// it reads clocks and counters only.
void install_iterate_hook(core::RegistrationOptions& opt,
                          mpisim::Communicator& comm) {
  struct State {
    double last = 0;
    Timings prev;
    int parent = -1;
  };
  auto st = std::make_shared<State>();
  st->last = now_s();
  st->prev = comm.timings();
  st->parent = Tracer::get().current();
  mpisim::Communicator* c = &comm;
  opt.iterate_hook = [st, c](const core::NewtonIterateInfo& info) {
    Span s;
    s.name = "core.newton_iterate";
    s.rank = c->rank();
    s.start = st->last;
    s.end = now_s();
    s.parent = st->parent;
    const Timings d = timings_delta(st->prev, c->timings());
    s.args = {{"iterate", info.iterates_done},
              {"fft_comm_s", d.get(TimeKind::kFftComm)},
              {"fft_exec_s", d.get(TimeKind::kFftExec)},
              {"interp_comm_s", d.get(TimeKind::kInterpComm)},
              {"interp_exec_s", d.get(TimeKind::kInterpExec)},
              {"other_comm_s", d.get(TimeKind::kOther)},
              {"bytes", static_cast<double>(d.total_bytes())},
              {"messages", static_cast<double>(d.total_messages())}};
    Tracer::get().record(std::move(s));
    st->last = now_s();
    st->prev = c->timings();
  };
}

void add_solve_figures(Report& rep, const SolveFigures& f, double leases,
                       double builds, double attempts) {
  const Timings& t = f.timings;
  rep.set("mpisim.bytes_per_solve", static_cast<double>(t.total_bytes()),
          "bytes");
  rep.set("mpisim.messages_per_solve",
          static_cast<double>(t.total_messages()), "count");
  rep.set("mpisim.exchanges_per_solve",
          static_cast<double>(t.total_exchanges()), "count");
  rep.set("mpisim.comm_wait_s", f.comm_wait, "s");
  rep.set("fft.exec_s", t.get(TimeKind::kFftExec), "s");
  rep.set("fft.comm_s", t.get(TimeKind::kFftComm), "s");
  rep.set("interp.exec_s", t.get(TimeKind::kInterpExec), "s");
  rep.set("interp.comm_s", t.get(TimeKind::kInterpComm), "s");
  rep.set("core.newton_iters", f.newton, "count");
  rep.set("core.hessian_matvecs", f.matvecs, "count");
  rep.set("core.krylov_iters", f.krylov, "count");
  rep.set("core.interp_plan_builds", f.plan_builds, "count");
  rep.set("core.unattributed_s", f.unattributed, "s");
  rep.set("core.batch_queue_wait_p50_s", f.queue_wait, "s");
  rep.set("core.registry_plan_builds", builds, "count");
  rep.set("core.registry_leases", leases, "count");
  rep.set("core.batch_attempts", attempts, "count");
  // The first iterate's span also holds the solve's set-up (input
  // smoothing, initial gradient) and, in a batch, the queue wait.
  std::vector<double> iters;
  for (const auto& s : Tracer::get().spans("core.newton_iterate"))
    if (s.args.at("iterate") >= 2) iters.push_back(s.seconds());
  rep.set("core.iterate_s", median(iters), "s");
}

void add_end_to_end(Report& rep, const std::vector<double>& tts,
                    const std::vector<double>& latency, double wall,
                    double cpu, double rel_residual,
                    const std::vector<double>& setups) {
  const double n = static_cast<double>(tts.size());
  rep.set("time_to_solution_s", median(tts), "s");
  rep.set("registrations_per_s", n / wall, "1/s");
  rep.set("job_latency_p50_s", median(latency), "s");
  rep.set("cpu_s_per_registration", cpu / n, "s");
  rep.set("setup_s", median(setups), "s");
  rep.set("peak_rss_mb", peak_rss_mb(), "MB");
  rep.set("rel_residual", rel_residual, "ratio");
  std::fprintf(stderr, "timed: %zu registrations in %.2f s wall, %.2f s cpu; "
               "setups (s):", tts.size(), wall, cpu);
  for (double s : setups) std::fprintf(stderr, " %.3f", s);
  std::fprintf(stderr, "\n");
}

// ---------------------------------------------------------------------------
// Standalone solve workloads (synth64_p2, brain_iso_p1).

/// One checked registration of a solve workload.
struct Solved {
  core::RegistrationResult r;
  bool ok = false;
  double latency = 0;  ///< Submission (solver construction) to result.
  double wait = 0;     ///< Submission to solve start.
};

struct SolveSpec {
  core::RegistrationOptions opt;
  bool brain = false;
  /// Builds this rank's template/reference blocks. Collective.
  std::function<void(grid::PencilDecomp&, grid::ScalarField&,
                     grid::ScalarField&)>
      inputs;
  /// Whole-grid inputs made before the ranks start (part of set-up).
  std::function<void()> prepare;
};

Report run_solve_workload(const Args& args, const WorkloadShape& shape,
                          const SolveSpec& spec) {
  Report rep;
  std::vector<double> setups, tts, latency, rel;
  double wall = 0, cpu = 0;
  SolveFigures fig;
  double untraced_tts = 0;
  std::mutex mu;

  const int repeats = args.trace ? 1 : kSetupRepeats;
  for (int k = 0; k < repeats; ++k) {
    const bool last = k + 1 == repeats;
    SetupPhases phases;
    spec.prepare();
    phases.mark("whole-grid_inputs");
    mpisim::run_spmd(shape.ranks, [&](mpisim::Communicator& comm) {
      grid::PencilDecomp decomp(comm, shape.dims);
      if (comm.is_root()) phases.mark("rank_start+decomp");
      grid::ScalarField rho_t, rho_r;
      spec.inputs(decomp, rho_t, rho_r);
      if (comm.is_root()) phases.mark("inputs");
      {
        // Warm-up: one objective and gradient evaluation touches every
        // layer (FFT plans, ghost exchange, interpolation plans) once.
        spectral::SpectralOps ops(decomp);
        semilag::TransportConfig tc;
        tc.incompressible = spec.opt.incompressible;
        semilag::Transport transport(ops, tc);
        core::Regularization reg(ops, spec.opt.reg_type, spec.opt.beta);
        core::OptimalitySystem sys(ops, transport, reg, rho_t, rho_r,
                                   spec.opt.incompressible, true);
        grid::VectorField v(decomp.local_real_size()), g;
        v.fill(0);
        sys.evaluate(v);
        sys.gradient(g);
      }
      comm.barrier();
      if (comm.is_root()) {
        phases.mark("warm-up");
        setups.push_back(now_s() - phases.start);
      }
      if (!last) return;

      const auto checked_solve = [&](core::RegistrationOptions opt,
                                     double& check_s) {
        const double submitted = now_s();
        core::RegistrationSolver solver(decomp, opt);
        const double started = now_s();
        core::RegistrationResult r = solver.run(rho_t, rho_r);
        const double done = now_s();
        bool ok = registration_ok(r.newton.converged, r.rel_residual,
                                  r.min_det) &&
                  gradient_ok(r.newton, opt.gtol);
        if (spec.brain) {
          const double det_dev = std::max(std::abs(r.min_det - 1),
                                          std::abs(r.max_det - 1));
          const double div = fd_divergence_ratio(decomp, r.velocity);
          if (comm.is_root())
            std::fprintf(stderr, "brain: |det-1| %.2e  fd div ratio %.2e\n",
                         det_dev, div);
          ok = ok && det_dev <= kDetTolerance && div <= kDivergenceBound;
        }
        ok = comm.allreduce_min(ok ? 1 : 0) == 1;
        check_s += now_s() - done;
        return Solved{std::move(r), ok, done - submitted,
                      started - submitted};
      };

      if (!args.trace) {
        const double loop0 = now_s();
        const double cpu0 = process_cpu_s();
        double check_s = 0;
        int count = 0;
        while (count == 0 ||
               comm.allreduce_max(now_s() - loop0) < args.seconds) {
          auto o = checked_solve(spec.opt, check_s);
          const double slowest = comm.allreduce_max(o.r.time_to_solution);
          const double lat = comm.allreduce_max(o.latency);
          if (comm.is_root()) {
            rep.count(o.ok);
            tts.push_back(slowest);
            latency.push_back(lat);
            rel.push_back(o.r.rel_residual);
          }
          ++count;
        }
        comm.barrier();
        if (comm.is_root()) {
          wall = now_s() - loop0 - check_s;
          cpu = process_cpu_s() - cpu0;
        }
        return;
      }

      // Traced run: one plain registration, then one with the hook.
      double check_s = 0;
      auto plain = checked_solve(spec.opt, check_s);
      const double plain_tts = comm.allreduce_max(plain.r.time_to_solution);
      core::RegistrationOptions opt = spec.opt;
      const Solved traced = [&] {
        ScopedSpan span("core.registration", comm.rank());
        install_iterate_hook(opt, comm);
        return checked_solve(opt, check_s);
      }();
      const double traced_tts = comm.allreduce_max(traced.r.time_to_solution);
      const double wait = comm.allreduce_max(traced.wait);
      const double unattributed = comm.allreduce_max(
          traced.r.time_to_solution - attributed_seconds(traced.r.timings));
      {
        std::scoped_lock lock(mu);
        fig.timings.max_with(traced.r.timings);
      }
      if (comm.is_root()) {
        rep.count(plain.ok);
        rep.count(traced.ok);
        untraced_tts = plain_tts;
        fig.tts = traced_tts;
        fig.unattributed = unattributed;
        fig.queue_wait = wait;
        fig.newton = traced.r.newton.iterations;
        fig.matvecs = traced.r.newton.total_matvecs;
        fig.krylov = krylov_iterations(traced.r.newton);
        fig.plan_builds = traced.r.newton.plan_builds;
      }
    });
    phases.print();
  }

  if (!args.trace) {
    add_end_to_end(rep, tts, latency, wall, cpu, median(rel), setups);
    return rep;
  }
  fig.comm_wait = comm_seconds(fig.timings);
  add_solve_figures(rep, fig, 0, 0, 1);
  std::fprintf(stderr,
               "traced registration: %.3f s, untraced %.3f s (tracing "
               "overhead %+.2f%%); %g newton, %g matvecs, unattributed "
               "%.3f s; setup %.3f s\n",
               fig.tts, untraced_tts, 100 * (fig.tts / untraced_tts - 1),
               fig.newton, fig.matvecs, fig.unattributed, setups[0]);
  run_layer_pass(args, shape, spec.opt.incompressible, shape.ranks == 1,
                 rep);
  return rep;
}

// ---------------------------------------------------------------------------
// Batch service workload (batch32x16_p4).

Report run_batch_workload(const Args& args, const WorkloadShape& shape) {
  Report rep;
  const core::RegistrationOptions base = table1_options(false);
  std::uint64_t rng = args.seed * 0x2545F4914F6CDD1Dull + 17;
  std::vector<double> amplitude(kBatchJobs);
  for (int j = 0; j < kBatchJobs; ++j)
    amplitude[j] = 0.30 + 0.025 * j + 0.01 * uniform01(rng);

  grid::ScalarField tmpl;
  std::vector<grid::ScalarField> refs(kBatchJobs);
  std::vector<double> setups, tts, latency, rel_max;
  double wall = 0, cpu = 0;
  SolveFigures fig;
  double leases = 0, builds = 0, attempts = 0, untraced_wall = 0,
         traced_wall = 0;
  std::vector<double> job_tts, job_unattr, job_wait, job_newton, job_mv,
      job_kry, job_pb;
  std::mutex mu;

  const int repeats = args.trace ? 1 : kSetupRepeats;
  for (int k = 0; k < repeats; ++k) {
    const bool last = k + 1 == repeats;
    SetupPhases phases;
    tmpl = full_volume(shape.dims, [](grid::PencilDecomp& d) {
      return imaging::synthetic_template(d);
    });
    for (int j = 0; j < kBatchJobs; ++j)
      refs[j] = full_volume(shape.dims, [&](grid::PencilDecomp& d) {
        spectral::SpectralOps ops(d);
        return imaging::make_reference(
            ops, tmpl, imaging::synthetic_velocity(d, amplitude[j]));
      });
    phases.mark("inputs");
    mpisim::run_spmd(shape.ranks, [&](mpisim::Communicator& comm) {
      core::BatchSolver solver(comm);
      if (comm.is_root()) phases.mark("rank_start");
      const auto submit_all = [&](bool hooked) {
        for (int j = 0; j < kBatchJobs; ++j) {
          core::BatchJobSpec spec;
          spec.dims = shape.dims;
          spec.request.options = base;
          if (hooked) install_iterate_hook(spec.request.options, comm);
          spec.make_inputs = [&, j](grid::PencilDecomp& d,
                                    grid::ScalarField& t,
                                    grid::ScalarField& r) {
            copy_block(d, tmpl, t);
            copy_block(d, refs[j], r);
          };
          solver.submit(std::move(spec));
        }
      };
      // The set-up batch builds every registry plan and is the reference
      // the timed batches must reproduce job for job.
      submit_all(false);
      const core::BatchReport ref = solver.run_all();
      comm.barrier();
      if (comm.is_root()) {
        phases.mark("warm-up_batch");
        setups.push_back(now_s() - phases.start);
      }
      if (!last) return;

      const auto check_batch = [&](core::BatchReport& b, bool corrupt) {
        if (corrupt) b.summary[0].outcome = core::JobOutcome::kPoisoned;
        std::vector<int> bad(kBatchJobs, 0);
        for (const auto& r : b.reports)
          for (int j = 0; j < kBatchJobs; ++j)
            if (b.summary[j].job_id == r.job_id &&
                !gradient_ok(r.newton, base.gtol))
              bad[j] = 1;
        comm.allreduce_max(bad);
        std::vector<bool> ok(kBatchJobs);
        for (int j = 0; j < kBatchJobs; ++j) {
          const auto& s = b.summary[j];
          const auto& r0 = ref.summary[j];
          ok[j] = bad[j] == 0 && s.outcome == core::JobOutcome::kDone &&
                  s.attempts == 1 &&
                  registration_ok(s.converged, s.rel_residual, s.min_det) &&
                  s.newton_iters == r0.newton_iters &&
                  s.matvecs == r0.matvecs &&
                  s.rel_residual == r0.rel_residual;
        }
        return ok;
      };

      if (!args.trace) {
        const double loop0 = now_s();
        const double cpu0 = process_cpu_s();
        double check_s = 0;
        int batches = 0;
        while (batches == 0 ||
               comm.allreduce_max(now_s() - loop0) < args.seconds) {
          submit_all(false);
          core::BatchReport b = solver.run_all();
          const double c0 = now_s();
          const auto ok = check_batch(b, args.corrupt == "job" && batches == 0);
          check_s += now_s() - c0;
          if (comm.is_root()) {
            // Latency is the median job of each batch: pooled over batches,
            // the median would land in the gap between the 2nd and 3rd job
            // of the shard queues and jump across it from run to run.
            double worst = 0;
            std::vector<double> done_at;
            for (int j = 0; j < kBatchJobs; ++j) {
              rep.count(ok[j]);
              tts.push_back(b.summary[j].solve_seconds);
              done_at.push_back(b.summary[j].completed_at_seconds);
              worst = std::max(worst, double(b.summary[j].rel_residual));
            }
            latency.push_back(median(done_at));
            rel_max.push_back(worst);
          }
          ++batches;
        }
        comm.barrier();
        if (comm.is_root()) {
          wall = now_s() - loop0 - check_s;
          cpu = process_cpu_s() - cpu0;
        }
        return;
      }

      // Traced run: one plain batch, then one with hooks on every job.
      submit_all(false);
      core::BatchReport plain = solver.run_all();
      const auto plain_ok = check_batch(plain, args.corrupt == "job");
      const core::PlanRegistry::Stats before = plain.registry;
      core::BatchReport traced;
      {
        ScopedSpan span("core.batch", comm.rank());
        submit_all(true);
        traced = solver.run_all();
      }
      const auto traced_ok = check_batch(traced, false);
      const double d_builds = comm.allreduce_sum(
          (traced.registry.decomp_builds - before.decomp_builds) +
          (traced.registry.spectral_builds - before.spectral_builds) +
          (traced.registry.resample_builds - before.resample_builds) +
          (traced.registry.transport_builds - before.transport_builds));
      const double d_leases =
          comm.allreduce_sum(traced.registry.leases - before.leases);
      {
        std::scoped_lock lock(mu);
        for (const auto& r : traced.reports) {
          fig.timings.max_with(r.timings);
          job_tts.push_back(r.time_to_solution);
          job_unattr.push_back(r.time_to_solution -
                               attributed_seconds(r.timings));
          job_newton.push_back(r.newton.iterations);
          job_mv.push_back(r.newton.total_matvecs);
          job_kry.push_back(krylov_iterations(r.newton));
          job_pb.push_back(r.newton.plan_builds);
        }
      }
      comm.barrier();
      if (comm.is_root()) {
        for (int j = 0; j < kBatchJobs; ++j) {
          rep.count(plain_ok[j]);
          rep.count(traced_ok[j]);
          const auto& s = traced.summary[j];
          job_wait.push_back(s.completed_at_seconds - s.solve_seconds);
          attempts += s.attempts;
        }
        builds = d_builds;
        leases = d_leases;
        untraced_wall = plain.wall_seconds;
        traced_wall = traced.wall_seconds;
      }
    });
    phases.print();
  }

  if (!args.trace) {
    add_end_to_end(rep, tts, latency, wall, cpu, median(rel_max), setups);
    return rep;
  }
  // Per-solve figures: the median job of the traced batch; the Timings of
  // the slowest job (jobs run on one rank each, so nothing crosses ranks).
  fig.tts = median(job_tts);
  fig.unattributed = median(job_unattr);
  fig.queue_wait = median(job_wait);
  fig.newton = median(job_newton);
  fig.matvecs = median(job_mv);
  fig.krylov = median(job_kry);
  fig.plan_builds = median(job_pb);
  add_solve_figures(rep, fig, leases, builds, attempts);
  std::fprintf(stderr,
               "traced batch: %.3f s, untraced %.3f s (tracing overhead "
               "%+.2f%%); median job %.3f s; setup %.3f s\n",
               traced_wall, untraced_wall,
               100 * (traced_wall / untraced_wall - 1), fig.tts, setups[0]);
  run_layer_pass(args, shape, false, true, rep);
  return rep;
}

}  // namespace

bool find_workload(const std::string& name, WorkloadShape& shape) {
  for (const auto& w : kWorkloads)
    if (name == w.name) {
      shape = w;
      return true;
    }
  return false;
}

Report run_workload(const Args& args, const WorkloadShape& shape) {
  const std::string name = shape.name;
  if (name == "batch32x16_p4") return run_batch_workload(args, shape);

  SolveSpec spec;
  std::uint64_t rng = args.seed * 0x2545F4914F6CDD1Dull + 7;
  if (name == "synth64_p2") {
    // Table I: synthetic template, reference transported by the synthetic
    // velocity at a seeded amplitude near 0.5.
    const double amplitude = 0.49 + 0.02 * uniform01(rng);
    spec.opt = table1_options(false);
    spec.prepare = [] {};
    spec.inputs = [amplitude](grid::PencilDecomp& d, grid::ScalarField& t,
                              grid::ScalarField& r) {
      spectral::SpectralOps ops(d);
      t = imaging::synthetic_template(d);
      r = imaging::make_reference(ops, t,
                                  imaging::synthetic_velocity(d, amplitude));
    };
    std::fprintf(stderr, "synth64_p2: amplitude %.6f\n", amplitude);
    return run_solve_workload(args, shape, spec);
  }

  // brain_iso_p1: a fixed subject pair under a seeded periodic translation
  // (see README: subject pairs differ 2x in Newton work, a translation
  // changes the data placement on the ranks but not the problem).
  Int3 shift{0, 0, 0};
  for (int d = 0; d < 3; ++d)
    shift[d] = static_cast<index_t>(splitmix64(rng) %
                                    static_cast<std::uint64_t>(shape.dims[d]));
  spec.opt = table1_options(true);
  spec.brain = true;
  auto tmpl = std::make_shared<grid::ScalarField>();
  auto ref = std::make_shared<grid::ScalarField>();
  const Int3 dims = shape.dims;
  spec.prepare = [tmpl, ref, dims] {
    *tmpl = full_volume(dims, [](grid::PencilDecomp& d) {
      return imaging::brain_phantom(d, kBrainTemplate);
    });
    *ref = full_volume(dims, [](grid::PencilDecomp& d) {
      return imaging::brain_phantom(d, kBrainReference);
    });
  };
  spec.inputs = [tmpl, ref, shift](grid::PencilDecomp& d,
                                   grid::ScalarField& t,
                                   grid::ScalarField& r) {
    copy_block(d, *tmpl, t, shift);
    copy_block(d, *ref, r, shift);
  };
  std::fprintf(stderr, "brain_iso_p1: subjects %u -> %u, shift (%lld, %lld, "
               "%lld)\n", kBrainTemplate, kBrainReference,
               static_cast<long long>(shift[0]),
               static_cast<long long>(shift[1]),
               static_cast<long long>(shift[2]));
  return run_solve_workload(args, shape, spec);
}

}  // namespace regbench

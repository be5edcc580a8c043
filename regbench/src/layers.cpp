// The layer pass of the traced run: every layer's public functions called
// directly at the workload's grid and rank count, one span per call, each
// output checked against a closed form computed here, next to the host's
// measured ceilings.
#include <immintrin.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>

#include "imaging/synthetic.hpp"
#include "regbench.hpp"

namespace regbench {

namespace {

/// Timed calls per layer function (after one warm-up call).
constexpr int kReps = 8;

// --- host ceilings ---------------------------------------------------------

/// Bytes copied per second by memcpy between two arrays of `bytes` each.
double memcpy_gbps(std::size_t bytes) {
  std::vector<char> src(bytes, 1), dst(bytes, 0);  // touches every page
  std::vector<double> t;
  for (int r = 0; r < 3; ++r) {
    const double t0 = now_s();
    std::memcpy(dst.data(), src.data(), bytes);
    t.push_back(now_s() - t0);
    src[static_cast<std::size_t>(r)] = dst[bytes - 1 - r];  // keep live
  }
  return static_cast<double>(bytes) / median(t) / 1e9;
}

// 12 independent FMA chains hide the FMA latency on current cores.
__attribute__((target("avx512f"))) double fma_avx512(long iters) {
  __m512d acc[12];
  for (int k = 0; k < 12; ++k) acc[k] = _mm512_set1_pd(1.0 + 1e-3 * k);
  const __m512d a = _mm512_set1_pd(0.999999), b = _mm512_set1_pd(1e-7);
  for (long i = 0; i < iters; ++i)
    for (int k = 0; k < 12; ++k) acc[k] = _mm512_fmadd_pd(acc[k], a, b);
  double lanes[8], sum = 0;
  for (int k = 0; k < 12; ++k) {
    _mm512_storeu_pd(lanes, acc[k]);
    for (double l : lanes) sum += l;
  }
  return sum;
}

__attribute__((target("avx2,fma"))) double fma_avx2(long iters) {
  __m256d acc[12];
  for (int k = 0; k < 12; ++k) acc[k] = _mm256_set1_pd(1.0 + 1e-3 * k);
  const __m256d a = _mm256_set1_pd(0.999999), b = _mm256_set1_pd(1e-7);
  for (long i = 0; i < iters; ++i)
    for (int k = 0; k < 12; ++k) acc[k] = _mm256_fmadd_pd(acc[k], a, b);
  double lanes[4], sum = 0;
  for (int k = 0; k < 12; ++k) {
    _mm256_storeu_pd(lanes, acc[k]);
    sum += lanes[0] + lanes[1] + lanes[2] + lanes[3];
  }
  return sum;
}

/// Single-core fp64 FMA rate at the widest vector width the CPU offers.
double fma_gflops(const char*& isa) {
  int lanes = 0;
  double (*kernel)(long) = nullptr;
  if (__builtin_cpu_supports("avx512f")) {
    kernel = fma_avx512, lanes = 8, isa = "avx512f";
  } else if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
    kernel = fma_avx2, lanes = 4, isa = "avx2+fma";
  } else {
    isa = "none";
    return 0;
  }
  constexpr long kIters = 20'000'000;
  std::vector<double> t;
  double sink = 0;
  for (int r = 0; r < 3; ++r) {
    const double t0 = now_s();
    sink += kernel(kIters);
    t.push_back(now_s() - t0);
  }
  if (sink == 0) std::fprintf(stderr, " ");
  return 2.0 * 12 * lanes * static_cast<double>(kIters) / median(t) / 1e9;
}

// --- closed forms ----------------------------------------------------------

/// Integer-valued field of the global grid index, exact in fp64.
real_t index_code(int comp, index_t g1, index_t g2, index_t g3) {
  return 1e9 * comp + 1e6 * static_cast<real_t>(g1) +
         1e3 * static_cast<real_t>(g2) + static_cast<real_t>(g3);
}

/// Fills this rank's block with fn(x1, x2, x3) at the grid points.
template <typename F>
void fill(grid::PencilDecomp& d, grid::ScalarField& out, F&& fn) {
  const Int3 n = d.dims(), ld = d.local_real_dims();
  out.resize(d.local_real_size());
  index_t idx = 0;
  for (index_t i1 = 0; i1 < ld[0]; ++i1)
    for (index_t i2 = 0; i2 < ld[1]; ++i2)
      for (index_t i3 = 0; i3 < ld[2]; ++i3, ++idx)
        out[idx] = fn(kTwoPi * (d.range1().begin + i1) / n[0],
                      kTwoPi * (d.range2().begin + i2) / n[1],
                      kTwoPi * i3 / n[2]);
}

// FFT test field: 1 + cos(m.x) + 0.25 cos(q.x); its unnormalized DFT is N at
// k = 0, N/2 at k = +-m and N/8 at k = +-q.
constexpr index_t kM[3] = {1, 2, 3}, kQ[3] = {2, 0, 1};

real_t fft_field(real_t x1, real_t x2, real_t x3) {
  return 1 + std::cos(kM[0] * x1 + kM[1] * x2 + kM[2] * x3) +
         0.25 * std::cos(kQ[0] * x1 + kQ[1] * x2 + kQ[2] * x3);
}

real_t fft_coefficient(const Int3& n, index_t k1, index_t k2, index_t k3) {
  const auto is = [&](const index_t* m, int sign) {
    return (k1 - sign * m[0]) % n[0] == 0 && (k2 - sign * m[1]) % n[1] == 0 &&
           (k3 - sign * m[2]) % n[2] == 0;
  };
  const real_t total = static_cast<real_t>(n.prod());
  const index_t zero[3] = {0, 0, 0};
  real_t c = is(zero, 1) ? total : 0;
  c += (is(kM, 1) + is(kM, -1)) * total / 2;
  c += (is(kQ, 1) + is(kQ, -1)) * total / 8;
  return c;
}

// Interpolation test function and its per-axis fourth-derivative bounds.
real_t interp_field(real_t x1, real_t x2, real_t x3) {
  return std::sin(x1) * std::cos(2 * x2) + 0.5 * std::sin(x3);
}
constexpr real_t kInterpM4[3] = {1, 16, 0.5};

/// Tensor-product cubic Lagrange error bound: per axis
/// max|(t+1)t(t-1)(t-2)|/4! h^4 max|f''''| = (9/16)/24 h^4 M4, times the
/// square of the 1D Lebesgue constant (1.25) for the tensor product.
real_t tricubic_bound(const Int3& n) {
  real_t b = 0;
  for (int a = 0; a < 3; ++a) {
    const real_t h = kTwoPi / n[a];
    b += (9.0 / 16.0) / 24.0 * std::pow(h, 4) * kInterpM4[a];
  }
  return 1.25 * 1.25 * b;
}

std::uint32_t pattern(std::uint64_t seed, int src, int dst, index_t i) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ull ^
                    (static_cast<std::uint64_t>(src) << 48) ^
                    (static_cast<std::uint64_t>(dst) << 40) ^
                    static_cast<std::uint64_t>(i);
  z = (z ^ (z >> 33)) * 0xFF51AFD7ED558CCDull;
  z = (z ^ (z >> 33)) * 0xC4CEB9FE1A85EC53ull;
  return static_cast<std::uint32_t>(z >> 32);
}

/// Median slowest-rank seconds of one forward + inverse scalar transform.
double fft_pair_seconds(const Int3& dims, int p) {
  const std::string name = "fft.pair.p" + std::to_string(p);
  mpisim::run_spmd(p, [&](mpisim::Communicator& comm) {
    grid::PencilDecomp decomp(comm, dims);
    fft::DistributedFft3d fft(decomp);
    grid::ScalarField x;
    fill(decomp, x, fft_field);
    std::vector<complex_t> spec(fft.local_spectral_size());
    fft.forward(x, spec);
    fft.inverse(spec, x);
    for (int r = 0; r < kReps; ++r) {
      ScopedSpan span(name, comm.rank());
      fft.forward(x, spec);
      fft.inverse(spec, x);
    }
  });
  return median(Tracer::get().per_call_max(name));
}

/// ns per point of batched 1D transforms of length n (stderr reference).
double fft1d_ns_per_point(index_t n) {
  fft::Fft1d f(n);
  const index_t rows = 4096 / n + 64;
  std::vector<complex_t> data(static_cast<std::size_t>(rows * n),
                              complex_t(1, 0.5));
  f.forward_batch(data.data(), rows);
  std::vector<double> t;
  for (int r = 0; r < 5; ++r) {
    const double t0 = now_s();
    for (int k = 0; k < 20; ++k) f.forward_batch(data.data(), rows);
    t.push_back(now_s() - t0);
  }
  return median(t) / (20.0 * static_cast<double>(rows * n)) * 1e9;
}

double ms(const std::string& span) {
  return median(Tracer::get().per_call_max(span)) * 1e3;
}

}  // namespace

void run_layer_pass(const Args& args, const WorkloadShape& shape,
                    bool incompressible, bool comm_per_call, Report& rep) {
  const Int3 dims = shape.dims;
  const int p = shape.layer_ranks;
  const double npts = static_cast<double>(dims.prod());

  // Host ceilings: arrays of at least 4x the last-level cache.
  long llc = sysconf(_SC_LEVEL3_CACHE_SIZE);
  if (llc <= 0) llc = sysconf(_SC_LEVEL2_CACHE_SIZE);
  const std::size_t copy_bytes = std::clamp<std::size_t>(
      4 * static_cast<std::size_t>(std::max(llc, 0L)), std::size_t(256) << 20,
      std::size_t(2) << 30);
  const double mem_gbps = memcpy_gbps(copy_bytes);
  const char* isa = "";
  const double fma = fma_gflops(isa);
  rep.set("host.memcpy_gbps", mem_gbps, "GB/s");
  rep.set("host.fma_gflops", fma, "GFLOP/s");
  std::fprintf(stderr,
               "host: LLC %.0f MiB, memcpy arrays %.0f MiB each: %.2f GB/s; "
               "single-core %s FMA %.2f GFLOP/s\n",
               llc / 1048576.0, copy_bytes / 1048576.0, mem_gbps, isa, fma);

  // FFT strong scaling on this grid, measured in this run.
  const double t1 = fft_pair_seconds(dims, 1);
  const double t2 = fft_pair_seconds(dims, 2);
  const double t4 = fft_pair_seconds(dims, 4);
  const double tp = p == 1 ? t1 : (p == 2 ? t2 : t4);
  rep.set("fft.parallel_efficiency", t1 / (p * tp), "ratio");
  std::fprintf(stderr,
               "fft scaling %lldx%lldx%lld fwd+inv: p1 %.2f ms, p2 %.2f ms "
               "(eff %.2f), p4 %.2f ms (eff %.2f)\n",
               static_cast<long long>(dims[0]),
               static_cast<long long>(dims[1]),
               static_cast<long long>(dims[2]), t1 * 1e3, t2 * 1e3,
               t1 / (2 * t2), t4 * 1e3, t1 / (4 * t4));
  std::fprintf(stderr, "fft1d ns/point: n=64 %.1f, n=48 %.1f, n=40 %.1f\n",
               fft1d_ns_per_point(64), fft1d_ns_per_point(48),
               fft1d_ns_per_point(40));

  // Check verdicts, combined over ranks inside the pass (collective).
  struct Verdicts {
    bool fft_coeff = true, fft_roundtrip = true, alltoallv = true,
         ghost = true, interp = true;
  } verdict;
  double a2a_bytes = 0, halo_bytes = 0, hidden = 0, interp_err = 0;
  double fft_comm_pair = 0, interp_comm_call = 0, matvec_comm = 0;

  mpisim::run_spmd(p, [&](mpisim::Communicator& comm) {
    const int rank = comm.rank();
    grid::PencilDecomp decomp(comm, dims);
    spectral::SpectralOps ops(decomp);
    const index_t n = decomp.local_real_size();
    const auto all_ok = [&](bool ok) {
      return comm.allreduce_min(ok ? 1 : 0) == 1;
    };

    // fft: closed-form coefficients, then inverse(forward(x)) == x.
    {
      fft::DistributedFft3d fft(decomp);
      grid::ScalarField x, y(n);
      fill(decomp, x, fft_field);
      std::vector<complex_t> spec(fft.local_spectral_size());
      fft.forward(x, spec);
      fft.inverse(spec, y);
      const Timings fft0 = comm.timings();
      for (int r = 0; r < kReps; ++r) {
        ScopedSpan span("fft.forward", rank);
        fft.forward(x, spec);
      }
      double fft_comm = timings_delta(fft0, comm.timings()).get(
          TimeKind::kFftComm);
      if (args.corrupt == "fft" && rank == 0) spec[spec.size() / 2] += 1.0;
      const Int3 sd = decomp.local_spectral_dims();
      double err = 0;
      index_t idx = 0;
      for (index_t a = 0; a < sd[0]; ++a)
        for (index_t b = 0; b < sd[1]; ++b)
          for (index_t c = 0; c < sd[2]; ++c, ++idx)
            err = std::max(err, std::abs(spec[idx] - complex_t(fft_coefficient(
                                    dims, c, decomp.srange2().begin + b,
                                    decomp.srange3().begin + a))));
      const bool coeff_ok = all_ok(err <= 1e-9 * npts);
      fft.forward(x, spec);
      const Timings inv0 = comm.timings();
      for (int r = 0; r < kReps; ++r) {
        ScopedSpan span("fft.inverse", rank);
        fft.inverse(spec, y);
      }
      fft_comm += timings_delta(inv0, comm.timings()).get(TimeKind::kFftComm);
      fft_comm = comm.allreduce_max(fft_comm / kReps);
      double rt = 0;
      for (index_t i = 0; i < n; ++i) rt = std::max(rt, std::abs(y[i] - x[i]));
      const bool rt_ok = all_ok(rt <= 1e-12);
      // Opt-in overlap schedule: wire time hidden under the self unpack.
      fft::DistributedFft3d fft_ov(decomp, WirePrecision::kF64, true);
      fft_ov.forward(x, spec);
      fft_ov.inverse(spec, y);
      const Timings before = comm.timings();
      for (int r = 0; r < kReps; ++r) {
        fft_ov.forward(x, spec);
        fft_ov.inverse(spec, y);
      }
      const Timings d = timings_delta(before, comm.timings());
      const double h = comm.allreduce_max(d.hidden(TimeKind::kFftComm) / kReps);
      if (rank == 0) {
        verdict.fft_coeff = coeff_ok;
        verdict.fft_roundtrip = rt_ok;
        hidden = h;
        fft_comm_pair = fft_comm;
      }
    }

    // mpisim: alltoallv of a seeded pattern at the FFT transpose sizes (one
    // rank's spectral block split evenly over the peers).
    {
      const index_t per_peer = std::max<index_t>(
          1, comm.allreduce_max(2 * decomp.local_spectral_size()) /
                 comm.size());
      std::vector<index_t> counts(comm.size(), per_peer);
      std::vector<real_t> send(per_peer * comm.size()), recv(send.size());
      for (int q = 0; q < comm.size(); ++q)
        for (index_t i = 0; i < per_peer; ++i)
          send[q * per_peer + i] = pattern(args.seed, rank, q, i);
      comm.set_time_kind(TimeKind::kOther);
      comm.alltoallv<real_t>(send, counts, recv, counts, 7001);
      for (int r = 0; r < kReps; ++r) {
        ScopedSpan span("mpisim.alltoallv", rank);
        comm.alltoallv<real_t>(send, counts, recv, counts, 7001);
      }
      bool ok = true;
      for (int q = 0; q < comm.size(); ++q)
        for (index_t i = 0; i < per_peer; ++i)
          ok = ok && recv[q * per_peer + i] == pattern(args.seed, q, rank, i);
      ok = all_ok(ok);
      if (rank == 0) {
        verdict.alltoallv = ok;
        a2a_bytes = 8.0 * per_peer * (comm.size() - 1);
      }
    }

    // grid: ghost exchange of a vector field at the interpolation halo width;
    // every ghosted value must equal the closed form at its wrapped index.
    {
      grid::GhostExchange gx(decomp, interp::kGhostWidth);
      const Int3 ld = decomp.local_real_dims(), gd = gx.ghost_dims();
      const index_t w = gx.width();
      grid::VectorField f(n);
      for (int c = 0; c < 3; ++c) {
        index_t idx = 0;
        for (index_t i1 = 0; i1 < ld[0]; ++i1)
          for (index_t i2 = 0; i2 < ld[1]; ++i2)
            for (index_t i3 = 0; i3 < ld[2]; ++i3, ++idx)
              f[c][idx] = index_code(c, decomp.range1().begin + i1,
                                     decomp.range2().begin + i2, i3);
      }
      const real_t* locals[3] = {f[0].data(), f[1].data(), f[2].data()};
      std::vector<real_t> ghosted(3 * gx.ghost_size());
      gx.exchange_many(locals, ghosted);
      for (int r = 0; r < kReps; ++r) {
        ScopedSpan span("grid.ghost_exchange", rank);
        gx.exchange_many(locals, ghosted);
      }
      if (args.corrupt == "halo" && rank == 0) ghosted[0] += 1;
      bool ok = true;
      index_t idx = 0;
      for (int c = 0; c < 3; ++c)
        for (index_t j1 = 0; j1 < gd[0]; ++j1)
          for (index_t j2 = 0; j2 < gd[1]; ++j2)
            for (index_t j3 = 0; j3 < gd[2]; ++j3, ++idx) {
              const index_t g1 =
                  (decomp.range1().begin + j1 - w + dims[0]) % dims[0];
              const index_t g2 =
                  (decomp.range2().begin + j2 - w + dims[1]) % dims[1];
              const index_t g3 = (j3 - w + dims[2]) % dims[2];
              ok = ok && ghosted[idx] == index_code(c, g1, g2, g3);
            }
      ok = all_ok(ok);
      if (rank == 0) {
        verdict.ghost = ok;
        halo_bytes = 8.0 * 3 * static_cast<double>(gx.ghost_size() - n);
      }
    }

    // Velocities for the interpolation, transport and optimality layers.
    const auto velocity = [&](real_t amp) {
      return incompressible ? imaging::synthetic_velocity_divfree(decomp, amp)
                            : imaging::synthetic_velocity(decomp, amp);
    };
    const grid::VectorField va = velocity(0.5), vb = velocity(0.52);

    // interp: plan build at first-order departure points x - v(x)/nt, then
    // tricubic evaluation of a closed form there.
    {
      const Int3 ld = decomp.local_real_dims();
      const auto departure = [&](const grid::VectorField& v) {
        std::vector<Vec3> pts(static_cast<std::size_t>(n));
        index_t idx = 0;
        for (index_t i1 = 0; i1 < ld[0]; ++i1)
          for (index_t i2 = 0; i2 < ld[1]; ++i2)
            for (index_t i3 = 0; i3 < ld[2]; ++i3, ++idx)
              pts[idx] = Vec3{
                  kTwoPi * (decomp.range1().begin + i1) / dims[0] -
                      v[0][idx] / 4,
                  kTwoPi * (decomp.range2().begin + i2) / dims[1] -
                      v[1][idx] / 4,
                  kTwoPi * i3 / dims[2] - v[2][idx] / 4};
        return pts;
      };
      const std::vector<Vec3> pa = departure(va), pb = departure(vb);
      interp::InterpPlan plan(decomp);
      grid::GhostExchange gx(decomp, interp::kGhostWidth);
      plan.build(pb);
      for (int r = 0; r < kReps; ++r) {
        ScopedSpan span("interp.plan_build", rank);
        plan.build(r % 2 == 0 ? pa : pb);
      }
      plan.build(pa);
      grid::ScalarField f, out(n);
      fill(decomp, f, interp_field);
      plan.interpolate(gx, f, out);
      const Timings interp0 = comm.timings();
      for (int r = 0; r < kReps; ++r) {
        ScopedSpan span("interp.interpolate", rank);
        plan.interpolate(gx, f, out);
      }
      const double icomm = comm.allreduce_max(
          timings_delta(interp0, comm.timings()).get(TimeKind::kInterpComm) /
          kReps);
      double err = 0;
      for (index_t i = 0; i < n; ++i)
        err = std::max(err, std::abs(out[i] - interp_field(pa[i][0], pa[i][1],
                                                           pa[i][2])));
      const double max_err = comm.allreduce_max(err);
      if (rank == 0) {
        verdict.interp = max_err <= tricubic_bound(dims);
        interp_err = max_err;
        interp_comm_call = icomm;
      }
    }

    // semilag: the public Transport calls the solver makes per iterate.
    grid::ScalarField rho_t, rho_r;
    if (incompressible) {
      rho_t = imaging::brain_phantom(decomp, 2);
      rho_r = imaging::brain_phantom(decomp, 1);
    } else {
      rho_t = imaging::synthetic_template(decomp);
      rho_r = imaging::make_reference(ops, rho_t, va);
    }
    {
      semilag::TransportConfig tc;
      tc.incompressible = incompressible;
      semilag::Transport tr(ops, tc);
      grid::ScalarField rt1;
      grid::VectorField b;
      tr.set_velocity(vb);
      for (int r = 0; r < kReps; ++r) {
        ScopedSpan span("semilag.set_velocity", rank);
        tr.set_velocity(r % 2 == 0 ? va : vb);
      }
      for (int r = 0; r <= kReps; ++r) {
        ScopedSpan span(r == 0 ? "semilag.warmup" : "semilag.state_solve",
                        rank);
        tr.solve_state(rho_t);
      }
      for (int r = 0; r <= kReps; ++r) {
        ScopedSpan span(r == 0 ? "semilag.warmup" : "semilag.gn_matvec", rank);
        tr.solve_incremental_state(vb, rt1);
        tr.solve_incremental_adjoint_gn(rt1, b);
      }
    }

    // spectral: smoothing, the preconditioner's inverse operator, Leray.
    {
      const real_t beta = 1e-2;
      const Vec3 sigma{kTwoPi / dims[0], kTwoPi / dims[1], kTwoPi / dims[2]};
      grid::ScalarField s(n);
      grid::VectorField w(n), v = va;
      for (int r = 0; r <= kReps; ++r) {
        ScopedSpan span(r == 0 ? "spectral.warmup" : "spectral.smooth", rank);
        ops.gaussian_smooth(rho_t, sigma, s);
      }
      for (int r = 0; r <= kReps; ++r) {
        ScopedSpan span(r == 0 ? "spectral.warmup" : "spectral.inv_reg", rank);
        ops.inv_neg_laplacian_pow(va, 2, w, 1 / beta, 1);
      }
      for (int r = 0; r <= kReps; ++r) {
        ScopedSpan span(r == 0 ? "spectral.warmup" : "spectral.leray", rank);
        ops.leray_project(v);
      }
    }

    // core: the optimality system's public calls, as one Newton iterate
    // makes them (evaluate alternates velocities so each call is a new one).
    {
      semilag::TransportConfig tc;
      tc.incompressible = incompressible;
      semilag::Transport tr(ops, tc);
      core::Regularization reg(ops, core::RegType::kH2Seminorm, 1e-2);
      core::OptimalitySystem sys(ops, tr, reg, rho_t, rho_r, incompressible,
                                 true);
      grid::VectorField g, hv(n), pr(n);
      sys.evaluate(vb);
      for (int r = 0; r < kReps; ++r) {
        ScopedSpan span("core.evaluate", rank);
        sys.evaluate(r % 2 == 0 ? va : vb);
      }
      sys.evaluate(va);
      for (int r = 0; r <= kReps; ++r) {
        ScopedSpan span(r == 0 ? "core.warmup" : "core.gradient", rank);
        sys.gradient(g);
      }
      sys.hessian_matvec(vb, hv);
      const Timings mv0 = comm.timings();
      for (int r = 0; r < kReps; ++r) {
        ScopedSpan span("core.hessian_matvec", rank);
        sys.hessian_matvec(vb, hv);
      }
      const Timings mv = timings_delta(mv0, comm.timings());
      const double mv_comm = comm.allreduce_max(
          (mv.get(TimeKind::kFftComm) + mv.get(TimeKind::kInterpComm) +
           mv.get(TimeKind::kOther)) /
          kReps);
      if (rank == 0) matvec_comm = mv_comm;
      for (int r = 0; r <= kReps; ++r) {
        ScopedSpan span(r == 0 ? "core.warmup" : "core.precond", rank);
        sys.apply_preconditioner(g, pr);
      }
    }
  });

  rep.count(verdict.fft_coeff);
  rep.count(verdict.fft_roundtrip);
  rep.count(verdict.alltoallv);
  rep.count(verdict.ghost);
  rep.count(verdict.interp);
  std::fprintf(stderr,
               "layer checks: fft coefficients %s, fft round trip %s, "
               "alltoallv pattern %s, ghost halos %s, tricubic %s (max err "
               "%.2e, bound %.2e)\n",
               verdict.fft_coeff ? "ok" : "FAILED",
               verdict.fft_roundtrip ? "ok" : "FAILED",
               verdict.alltoallv ? "ok" : "FAILED",
               verdict.ghost ? "ok" : "FAILED",
               verdict.interp ? "ok" : "FAILED", interp_err,
               tricubic_bound(dims));

  const double fwd_ms = ms("fft.forward");
  rep.set("fft.forward_ms", fwd_ms, "ms");
  rep.set("fft.inverse_ms", ms("fft.inverse"), "ms");
  rep.set("fft.gflops", 2.5 * npts * std::log2(npts) / (fwd_ms * 1e-3) / 1e9,
          "GFLOP/s");
  const double a2a_ms = ms("mpisim.alltoallv");
  rep.set("mpisim.alltoallv_gbps", a2a_bytes / (a2a_ms * 1e-3) / 1e9, "GB/s");
  rep.set("mpisim.hidden_s", hidden, "s");
  if (comm_per_call) {
    rep.set("fft.comm_s", fft_comm_pair, "s");
    rep.set("interp.comm_s", interp_comm_call, "s");
    rep.set("mpisim.comm_wait_s", matvec_comm, "s");
  }
  const double ghost_ms = ms("grid.ghost_exchange");
  rep.set("grid.ghost_exchange_ms", ghost_ms, "ms");
  rep.set("grid.ghost_gbps", halo_bytes / (ghost_ms * 1e-3) / 1e9, "GB/s");
  rep.set("interp.plan_build_ms", ms("interp.plan_build"), "ms");
  rep.set("interp.points_per_s", npts / (ms("interp.interpolate") * 1e-3),
          "points/s");
  rep.set("semilag.set_velocity_ms", ms("semilag.set_velocity"), "ms");
  rep.set("semilag.state_solve_ms", ms("semilag.state_solve"), "ms");
  rep.set("semilag.gn_matvec_ms", ms("semilag.gn_matvec"), "ms");
  rep.set("spectral.smooth_ms", ms("spectral.smooth"), "ms");
  rep.set("spectral.inv_reg_ms", ms("spectral.inv_reg"), "ms");
  rep.set("spectral.leray_ms", ms("spectral.leray"), "ms");
  rep.set("core.evaluate_ms", ms("core.evaluate"), "ms");
  rep.set("core.gradient_ms", ms("core.gradient"), "ms");
  rep.set("core.hessian_matvec_ms", ms("core.hessian_matvec"), "ms");
  rep.set("core.precond_ms", ms("core.precond"), "ms");

  std::fprintf(stderr,
               "throughput vs ceiling: fft %.2f GFLOP/s of %.2f FMA peak; "
               "alltoallv %.2f GB/s, ghost %.2f GB/s of %.2f GB/s memcpy\n",
               rep.metrics["fft.gflops"].value, fma,
               rep.metrics["mpisim.alltoallv_gbps"].value,
               rep.metrics["grid.ghost_gbps"].value, mem_gbps);
  std::fprintf(stderr, "spans recorded: %zu\n", Tracer::get().size());
  if (!args.trace_out.empty()) Tracer::get().write_chrome_json(args.trace_out);
}

}  // namespace regbench

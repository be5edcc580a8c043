// regbench: the repository's end-to-end and per-layer benchmark.
//
// One process runs one workload (synth64_p2, brain_iso_p1, batch32x16_p4)
// for a fixed wall-clock budget and prints one JSON object on its last
// stdout line: end-to-end metrics for an untraced run, per-layer metrics
// for a traced run (--trace 1). Every layer is measured from outside, through
// the library's public API; see README.md for the metric map.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "core/diffreg.hpp"

namespace regbench {

using namespace diffreg;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  /// Self-test fault: "fft", "halo" or "job" corrupts one value before its
  /// check runs, so the run must count exactly one failed operation.
  std::string corrupt;
  /// Where the traced run writes its spans (Chrome trace-event JSON).
  std::string trace_out;
};

struct Metric {
  double value = 0;
  std::string unit;
};

/// What one run reports: operations attempted and failed, whether every
/// operation that did not fail produced correct output, and the metrics.
struct Report {
  bool correct = true;
  long attempted = 0;
  long failed = 0;
  std::map<std::string, Metric> metrics;

  void set(const std::string& name, double value, const char* unit) {
    metrics[name] = Metric{value, unit};
  }
  /// Counts one operation and its check result.
  void count(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
};

// --- clocks and statistics (common.cpp) ------------------------------------

/// Seconds on the steady clock since process start.
double now_s();
/// CPU seconds consumed by the whole process (all rank threads).
double process_cpu_s();
/// Peak resident set size of this process, in MB.
double peak_rss_mb();
double median(std::vector<double> v);

// --- spans (common.cpp) ----------------------------------------------------

/// One traced interval: the layer call it wraps, the rank thread that made
/// it, and the span that was open on that thread when it began.
struct Span {
  int id = 0;
  std::string name;
  int rank = 0;
  double start = 0, end = 0;
  int parent = -1;
  std::map<std::string, double> args;
  double seconds() const { return end - start; }
};

/// Process-wide in-memory span store. Spans are appended when they close;
/// nothing is written until the run ends.
class Tracer {
 public:
  static Tracer& get();
  /// Records a span whose interval the caller measured itself (the Newton
  /// iterate hook). Returns its id.
  int record(Span span);
  /// Opens a span on the calling thread (parent: the innermost open one).
  int open(const std::string& name, int rank);
  void close(int id);
  /// Innermost open span of the calling thread, -1 when none.
  int current() const;

  std::vector<Span> spans(const std::string& name) const;
  /// Per-call duration of `name`, slowest rank per call: the k-th span of
  /// every rank is one collective call.
  std::vector<double> per_call_max(const std::string& name) const;
  std::size_t size() const;
  void write_chrome_json(const std::string& path) const;

 private:
  Tracer() = default;
  mutable std::mutex mu_;
  std::vector<Span> done_;
  std::map<int, Span> open_;
  int next_id_ = 0;
};

/// RAII span around one layer call.
class ScopedSpan {
 public:
  ScopedSpan(const std::string& name, int rank)
      : id_(Tracer::get().open(name, rank)) {}
  ~ScopedSpan() { Tracer::get().close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  int id_;
};

// --- workloads (workloads.cpp) and the layer pass (layers.cpp) -------------

struct WorkloadShape {
  const char* name;
  Int3 dims;
  int ranks;  ///< Ranks of the workload's communicator.
  /// Ranks of the layer pass: the workload's own, but at least 2, so the
  /// comm layers are measured on every workload.
  int layer_ranks;
};

/// Returns false for an unknown workload name.
bool find_workload(const std::string& name, WorkloadShape& shape);

/// Runs the workload: the timed closed loop (untraced), or the traced
/// registration plus the layer pass (args.trace).
Report run_workload(const Args& args, const WorkloadShape& shape);

/// Calls every layer's public functions directly at the workload's grid and
/// rank count with a span around each call, checks their outputs against
/// closed forms, measures the host ceilings, and adds the per-layer
/// kernel metrics to `report`. With `comm_per_call` (a workload whose
/// solves send no messages) fft.comm_s, interp.comm_s and
/// mpisim.comm_wait_s are the comm seconds of one FFT forward+inverse pair,
/// one interpolation and one GN Hessian matvec here.
void run_layer_pass(const Args& args, const WorkloadShape& shape,
                    bool incompressible, bool comm_per_call, Report& report);

}  // namespace regbench

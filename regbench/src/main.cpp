// regbench --workload NAME --seed N --seconds S --trace 0|1
//          [--corrupt fft|halo|job] [--trace-out PATH]
//
// Prints a human-readable summary on stderr and, as the last stdout line,
// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "regbench.hpp"

namespace {

bool parse_args(int argc, char** argv, regbench::Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      std::fprintf(stderr, "regbench: %s needs a value\n", flag.c_str());
      return false;
    }
    const std::string v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v.c_str(), &end, 10);
      if (end == v.c_str() || *end != '\0') return false;
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(v.c_str(), &end);
      if (end == v.c_str() || *end != '\0' || !(a.seconds > 0)) return false;
    } else if (flag == "--trace") {
      if (v != "0" && v != "1") return false;
      a.trace = v == "1";
    } else if (flag == "--corrupt") {
      if (v != "fft" && v != "halo" && v != "job") return false;
      a.corrupt = v;
    } else if (flag == "--trace-out") {
      a.trace_out = v;
    } else {
      std::fprintf(stderr, "regbench: unknown flag %s\n", flag.c_str());
      return false;
    }
  }
  return !a.workload.empty();
}

void print_json(const regbench::Report& r) {
  std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, "
              "\"metrics\": {",
              r.correct ? "true" : "false", r.attempted, r.failed);
  bool first = true;
  for (const auto& [name, m] : r.metrics) {
    std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                first ? "" : ", ", name.c_str(), m.value, m.unit.c_str());
    first = false;
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  regbench::Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: regbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--corrupt fft|halo|job] [--trace-out PATH]\n");
    return 2;
  }
  regbench::WorkloadShape shape{};
  if (!regbench::find_workload(args.workload, shape)) {
    std::fprintf(stderr, "regbench: unknown workload %s\n",
                 args.workload.c_str());
    return 2;
  }
  try {
    regbench::Report report = regbench::run_workload(args, shape);
    for (const auto& [name, m] : report.metrics)
      if (!std::isfinite(m.value)) report.correct = false;
    print_json(report);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "regbench: %s failed: %s\n", args.workload.c_str(),
                 e.what());
    return 1;
  }
  return 0;
}

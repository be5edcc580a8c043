#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <ctime>
#include <stdexcept>

#include "regbench.hpp"

namespace regbench {

namespace {

const auto kProcessStart = std::chrono::steady_clock::now();

/// Open spans of the calling thread, innermost last.
thread_local std::vector<int> t_open_stack;

}  // namespace

double now_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       kProcessStart)
      .count();
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

Tracer& Tracer::get() {
  static Tracer tracer;
  return tracer;
}

int Tracer::record(Span span) {
  std::scoped_lock lock(mu_);
  span.id = next_id_++;
  done_.push_back(std::move(span));
  return done_.back().id;
}

int Tracer::open(const std::string& name, int rank) {
  Span s;
  s.name = name;
  s.rank = rank;
  s.parent = t_open_stack.empty() ? -1 : t_open_stack.back();
  s.start = now_s();
  std::scoped_lock lock(mu_);
  s.id = next_id_++;
  t_open_stack.push_back(s.id);
  open_[s.id] = std::move(s);
  return t_open_stack.back();
}

void Tracer::close(int id) {
  const double end = now_s();
  if (!t_open_stack.empty() && t_open_stack.back() == id)
    t_open_stack.pop_back();
  std::scoped_lock lock(mu_);
  auto it = open_.find(id);
  if (it == open_.end()) return;
  it->second.end = end;
  done_.push_back(std::move(it->second));
  open_.erase(it);
}

int Tracer::current() const {
  return t_open_stack.empty() ? -1 : t_open_stack.back();
}

std::vector<Span> Tracer::spans(const std::string& name) const {
  std::scoped_lock lock(mu_);
  std::vector<Span> out;
  for (const auto& s : done_)
    if (s.name == name) out.push_back(s);
  std::sort(out.begin(), out.end(),
            [](const Span& a, const Span& b) { return a.start < b.start; });
  return out;
}

std::vector<double> Tracer::per_call_max(const std::string& name) const {
  std::map<int, std::vector<double>> by_rank;
  for (const auto& s : spans(name)) by_rank[s.rank].push_back(s.seconds());
  std::vector<double> out;
  for (const auto& [rank, d] : by_rank) {
    if (out.size() < d.size()) out.resize(d.size(), 0.0);
    for (std::size_t k = 0; k < d.size(); ++k) out[k] = std::max(out[k], d[k]);
  }
  return out;
}

std::size_t Tracer::size() const {
  std::scoped_lock lock(mu_);
  return done_.size();
}

void Tracer::write_chrome_json(const std::string& path) const {
  std::scoped_lock lock(mu_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write trace " + path);
  std::fprintf(f, "{\"traceEvents\": [\n");
  for (std::size_t i = 0; i < done_.size(); ++i) {
    const Span& s = done_[i];
    std::fprintf(f,
                 "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 0, \"tid\": %d, "
                 "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %d, "
                 "\"parent\": %d",
                 s.name.c_str(), s.rank, s.start * 1e6,
                 (s.end - s.start) * 1e6, s.id, s.parent);
    for (const auto& [k, v] : s.args)
      std::fprintf(f, ", \"%s\": %.9g", k.c_str(), v);
    std::fprintf(f, "}}%s\n", i + 1 < done_.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  std::fclose(f);
}

}  // namespace regbench

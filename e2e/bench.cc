#include "bench.h"

#include <dirent.h>
#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <set>
#include <thread>
#include <utility>

namespace dimqr::e2e {
namespace {

double ClockS(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

/// Innermost open span of this thread (-1 when none).
thread_local int t_current_span = -1;

}  // namespace

double NowS() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double ProcessCpuS() { return ClockS(CLOCK_PROCESS_CPUTIME_ID); }

double ThreadCpuS() { return ClockS(CLOCK_THREAD_CPUTIME_ID); }

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double ClockGhz() {
#if defined(__x86_64__)
  constexpr int kMultiplies = 100000;
  double best_s = 0.0;
  for (int sample = 0; sample < 5; ++sample) {
    std::uint64_t x = 3;
    const double t0 = NowS();
    for (int i = 0; i < kMultiplies; ++i) asm volatile("imul %0, %0" : "+r"(x));
    const double s = NowS() - t0;
    // An interrupt or a preemption only lengthens a sample.
    if (sample == 0 || s < best_s) best_s = s;
  }
  return 3.0 * kMultiplies / best_s / 1e9;
#else
  return kReferenceGhz;
#endif
}

CpuRotation::CpuRotation(int width) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &allowed)) cpus_.push_back(cpu);
    }
  }
  width_ = std::min<std::size_t>(static_cast<std::size_t>(std::max(width, 1)),
                                 cpus_.size());
}

void CpuRotation::Next() {
  if (width_ == 0 || width_ == cpus_.size()) return;
  cpu_set_t window;
  CPU_ZERO(&window);
  for (std::size_t k = 0; k < width_; ++k) {
    CPU_SET(cpus_[(next_ + k) % cpus_.size()], &window);
  }
  next_ = (next_ + 1) % cpus_.size();
  // Threads started later (the parallel pool's workers) inherit the window
  // from the thread that starts them.
  DIR* tasks = opendir("/proc/self/task");
  if (tasks == nullptr) {
    sched_setaffinity(0, sizeof(window), &window);
    return;
  }
  while (const dirent* entry = readdir(tasks)) {
    const int tid = std::atoi(entry->d_name);
    if (tid > 0) sched_setaffinity(tid, sizeof(window), &window);
  }
  closedir(tasks);
}

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const auto n = static_cast<double>(samples.size());
  auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n));
  rank = std::clamp<std::size_t>(rank, 1, samples.size());
  return samples[rank - 1];
}

std::uint64_t Fnv1a(std::string_view bytes, std::uint64_t hash) {
  for (unsigned char c : bytes) {
    hash ^= c;
    hash *= 1099511628211ull;
  }
  return hash;
}

Tracer::Scope::Scope(Tracer& tracer, std::string_view name, int parent)
    : tracer_(tracer) {
  if (!tracer_.enabled()) return;
  id_ = tracer_.Begin(name, parent == kInherit ? t_current_span : parent);
  saved_current_ = t_current_span;
  t_current_span = id_;
}

Tracer::Scope::~Scope() {
  if (id_ < 0) return;
  tracer_.End(id_);
  t_current_span = saved_current_;
}

int Tracer::Begin(std::string_view name, int parent) {
  Span span;
  span.name = std::string(name);
  span.parent = parent;
  span.phase = phase_;
  span.thread = std::hash<std::thread::id>{}(std::this_thread::get_id());
  span.begin_s = NowS();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(span));
  return static_cast<int>(spans_.size()) - 1;
}

void Tracer::End(int id) {
  const double end = NowS();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(id)].end_s = end;
}

double Tracer::PerPhaseSeconds(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mu_);
  double total = 0.0;
  std::set<int> phases;
  for (const Span& s : spans_) {
    if (s.name != name) continue;
    total += s.end_s - s.begin_s;
    phases.insert(s.phase);
  }
  return phases.empty() ? 0.0 : total / static_cast<double>(phases.size());
}

std::vector<double> Tracer::Durations(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name) out.push_back(s.end_s - s.begin_s);
  }
  return out;
}

bool Tracer::WriteChromeJson(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path);
  if (!out) return false;
  // Thread ids are hashed std::thread::ids; map them to small integers.
  std::map<std::uint64_t, int> tids;
  out << "{\"traceEvents\":[\n";
  char line[256];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const int tid = tids.emplace(s.thread, static_cast<int>(tids.size()))
                        .first->second;
    std::snprintf(line, sizeof(line),
                  "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                  "\"parent\":%d,\"phase\":%d}}\n",
                  i == 0 ? "" : ",", s.name.c_str(), tid, s.begin_s * 1e6,
                  (s.end_s - s.begin_s) * 1e6, i, s.parent, s.phase);
    out << line;
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

}  // namespace dimqr::e2e

#ifndef DIMQR_E2E_BENCH_H_
#define DIMQR_E2E_BENCH_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

/// \file bench.h
/// The end-to-end benchmark's shared pieces: clocks, the in-memory span
/// recorder behind `--trace 1`, and the interface each workload implements.
/// Spans are recorded here, around calls into the library's public
/// functions; nothing inside src/ is instrumented.

namespace dimqr::e2e {

/// Monotonic wall clock, in seconds.
double NowS();
/// CPU time of the whole process (all threads), in seconds.
double ProcessCpuS();
/// CPU time of the calling thread, in seconds.
double ThreadCpuS();
/// Peak resident set size of the process so far, in MiB.
double PeakRssMb();

/// The clock that the benchmark's timings are scaled to, in GHz.
inline constexpr double kReferenceGhz = 2.5;
/// Clock rate of the CPU the calling thread runs on, in GHz: the shortest of
/// a few timed chains of dependent 64-bit multiplies, which take 3 cycles
/// each on x86-64 cores. Elsewhere it returns kReferenceGhz. Takes ~0.6 ms.
double ClockGhz();

/// \brief Moves the process's threads over the CPUs it may run on, one
/// window of `width` CPUs per call. Linux leaves a busy thread on one CPU for
/// a whole run, and on a shared host each CPU has its own noisy neighbour, so
/// without this one CPU sets a whole run's timings. Successive phases of a
/// run instead sample every CPU in turn.
class CpuRotation {
 public:
  explicit CpuRotation(int width);
  /// Pins every thread of the process to the next window of CPUs.
  void Next();

 private:
  std::vector<int> cpus_;
  std::size_t width_;
  std::size_t next_ = 0;
};

/// Nearest-rank percentile (`p` in (0, 100]) of unsorted samples; 0 when
/// empty.
double Percentile(std::vector<double> samples, double p);

/// 64-bit FNV-1a over `bytes`, continuing from `hash`.
std::uint64_t Fnv1a(std::string_view bytes,
                    std::uint64_t hash = 14695981039346656037ull);

/// \brief In-memory span recorder. Every span carries a name
/// ("<layer>.<call>"), its wall interval, the span that caused it, the
/// recording thread and the phase (one set-up or one iteration) it belongs
/// to. Recording is a no-op while disabled, so untraced runs pay nothing
/// beyond a branch. Thread-safe: eval fan-out workers record answers.
class Tracer {
 public:
  struct Span {
    std::string name;
    double begin_s = 0.0;
    double end_s = 0.0;
    int parent = -1;
    int phase = 0;
    std::uint64_t thread = 0;
  };

  /// RAII span. `parent` defaults to the innermost open span of this
  /// thread; pass a span id to attach work that runs on another thread.
  class Scope {
   public:
    Scope(Tracer& tracer, std::string_view name, int parent = kInherit);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    int id() const { return id_; }

   private:
    Tracer& tracer_;
    int id_ = -1;
    int saved_current_ = -1;
  };

  static constexpr int kInherit = -2;

  void set_enabled(bool enabled) { enabled_ = enabled; }
  bool enabled() const { return enabled_; }

  /// Starts a new phase; later spans belong to it.
  void BeginPhase() { ++phase_; }

  /// Summed duration of spans named `name`, divided by the number of
  /// phases that recorded one: seconds per set-up or per iteration.
  double PerPhaseSeconds(std::string_view name) const;
  /// Durations of every span named `name`, in seconds.
  std::vector<double> Durations(std::string_view name) const;

  /// Writes the spans as Chrome trace-event JSON (Perfetto,
  /// chrome://tracing). Returns false when the file cannot be written.
  bool WriteChromeJson(const std::string& path) const;

 private:
  int Begin(std::string_view name, int parent);
  void End(int id);

  bool enabled_ = false;
  int phase_ = 0;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// \brief What one iteration of a workload produced.
struct IterResult {
  /// Canonical text of the outputs; iterations must agree on it exactly.
  std::string digest_text;
  /// The workload's quality metric (accuracy, macro F1, agreement).
  double quality = 0.0;
  /// Units of work of the throughput metric.
  std::uint64_t items = 0;
  /// Seconds the items took when the ops ran concurrently; 0 when the ops
  /// ran one after another, so that the items' time is the sum of each op's
  /// median time over the iterations.
  double concurrent_item_seconds = 0.0;
  /// Operations attempted and failed (declined or dropped).
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Latency of each operation, in milliseconds.
  std::vector<double> op_ms;
  /// Per-layer counts and ratios, keyed by per-layer metric name.
  std::map<std::string, double> layer;
  /// Empty when the outputs pass the workload's own checks; else why not.
  std::string check_error;
};

/// \brief One workload: a set-up that the driver repeats and times, and an
/// iteration that it repeats for the measured interval. Iterations are
/// independent: each returns the same outputs for the same seed.
class Workload {
 public:
  virtual ~Workload() = default;
  virtual void Setup(Tracer& tracer) = 0;
  virtual IterResult Run(Tracer& tracer) = 0;
  /// Canonical text of the inputs the last Setup generated.
  virtual std::string InputsText() const = 0;
};

/// \brief Static description of a workload.
struct WorkloadSpec {
  const char* name;
  int threads;               ///< DIMQR_THREADS for the run.
  // The workload's own names for items_per_s, op_ms_* and quality.
  const char* items_metric;
  const char* op_metric;
  const char* quality_metric;
  std::unique_ptr<Workload> (*make)(std::uint64_t seed, bool tiny);
};

/// The workloads, in the order BENCHMARK.json lists them.
const std::vector<WorkloadSpec>& Workloads();

}  // namespace dimqr::e2e

#endif  // DIMQR_E2E_BENCH_H_

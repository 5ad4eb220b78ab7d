#include "core/parallel.h"

#include <algorithm>
#include <cstdlib>
#include <exception>
#include <string>

namespace dimqr {

namespace {

/// Pool size from the DIMQR_THREADS environment variable (see GlobalPool()).
int EnvThreadCount() {
  const char* env = std::getenv("DIMQR_THREADS");
  if (env == nullptr || *env == '\0') return 1;
  char* end = nullptr;
  long v = std::strtol(env, &end, 10);
  if (end == env || *end != '\0' || v < 0) return 1;
  if (v == 0) {
    unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<int>(hw);
  }
  return static_cast<int>(std::min(v, 256L));
}

/// Active ScopedParallelism override, if any. Mutated only on the main
/// thread between parallel regions.
ThreadPool* g_override_pool = nullptr;

}  // namespace

ThreadPool::ThreadPool(int threads) {
  int n = std::max(1, threads);
  workers_.reserve(static_cast<std::size_t>(n - 1));
  for (int i = 0; i < n - 1; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

Status ThreadPool::RunOneTask(const std::function<Status(int)>& task,
                              int index) {
  // Repo convention: no exceptions across the pool boundary. Anything a body
  // throws is demoted to an Internal status here, on the worker, so it can be
  // merged like any other chunk failure.
  try {
    return task(index);
  } catch (const std::exception& e) {
    return Status::Internal(
        std::string("uncaught exception in parallel task: ") + e.what());
  } catch (...) {
    return Status::Internal("uncaught non-std exception in parallel task");
  }
}

void ThreadPool::DrainTasks(const std::function<Status(int)>& task, int total,
                            CancelMode cancel_mode) {
  for (;;) {
    int i = next_task_.fetch_add(1, std::memory_order_relaxed);
    if (i >= total) return;
    // Cooperative cancellation: once some lower index has failed
    // non-retryably, running this task can neither change the reported
    // status (lowest index wins) nor produce output anyone will read, so
    // skip straight to completion accounting.
    const bool skip =
        cancel_mode == CancelMode::kCancelOnPermanentError &&
        i > cancel_above_.load(std::memory_order_acquire);
    if (!skip) {
      Status st = RunOneTask(task, i);
      if (!st.ok()) {
        if (cancel_mode == CancelMode::kCancelOnPermanentError &&
            !IsRetryable(st.code())) {
          int current = cancel_above_.load(std::memory_order_relaxed);
          while (i < current && !cancel_above_.compare_exchange_weak(
                                    current, i, std::memory_order_acq_rel)) {
          }
        }
        std::lock_guard<std::mutex> lock(err_mu_);
        if (err_status_.ok() || i < err_index_) {
          err_index_ = i;
          err_status_ = std::move(st);
        }
      }
    }
    if (completed_.fetch_add(1, std::memory_order_acq_rel) + 1 == total) {
      std::lock_guard<std::mutex> lock(mu_);
      done_cv_.notify_all();
    }
  }
}

void ThreadPool::WorkerLoop() {
  std::uint64_t seen_generation = 0;
  for (;;) {
    const std::function<Status(int)>* job = nullptr;
    int total = 0;
    CancelMode cancel_mode = CancelMode::kRunAll;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [&] {
        return shutdown_ || generation_ != seen_generation;
      });
      if (shutdown_) return;
      seen_generation = generation_;
      job = job_;
      total = job_total_;
      cancel_mode = job_cancel_mode_;
      // Registering as an active drainer under mu_ is what makes it safe for
      // Run() to reset the job state: Run() returns only once every drainer
      // has deregistered, so no stale worker can touch next_task_ afterwards.
      if (job != nullptr) ++active_drainers_;
    }
    // job_ is cleared once a job completes; a worker that wakes late for an
    // already-finished generation simply goes back to waiting.
    if (job != nullptr) {
      DrainTasks(*job, total, cancel_mode);
      std::lock_guard<std::mutex> lock(mu_);
      if (--active_drainers_ == 0) done_cv_.notify_all();
    }
  }
}

Status ThreadPool::Run(int num_tasks, const std::function<Status(int)>& task,
                       CancelMode cancel_mode) {
  if (num_tasks <= 0) return Status::OK();
  // Serial path: no workers to wake (or nothing worth waking them for).
  // Runs tasks in index order, so the first non-retryable failure is
  // already the lowest-indexed one and cancellation can stop immediately.
  if (workers_.empty() || num_tasks == 1) {
    int first_err_index = num_tasks;
    Status first_err;
    for (int i = 0; i < num_tasks; ++i) {
      Status st = RunOneTask(task, i);
      if (!st.ok()) {
        const bool cancels =
            cancel_mode == CancelMode::kCancelOnPermanentError &&
            !IsRetryable(st.code());
        if (i < first_err_index) {
          first_err_index = i;
          first_err = std::move(st);
        }
        // Every remaining index is higher, so none can win the
        // lowest-indexed-failure rule: stop here.
        if (cancels) break;
      }
    }
    return first_err;
  }

  {
    std::lock_guard<std::mutex> lock(mu_);
    job_ = &task;
    job_total_ = num_tasks;
    job_cancel_mode_ = cancel_mode;
    next_task_.store(0, std::memory_order_relaxed);
    completed_.store(0, std::memory_order_relaxed);
    cancel_above_.store(num_tasks, std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> err_lock(err_mu_);
      err_index_ = num_tasks;
      err_status_ = Status::OK();
    }
    ++generation_;
  }
  work_cv_.notify_all();

  // The calling thread is an executor too.
  DrainTasks(task, num_tasks, cancel_mode);

  Status result;
  {
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [&] {
      return completed_.load(std::memory_order_acquire) == job_total_ &&
             active_drainers_ == 0;
    });
    job_ = nullptr;
    std::lock_guard<std::mutex> err_lock(err_mu_);
    result = std::move(err_status_);
    err_status_ = Status::OK();
  }
  return result;
}

ThreadPool& GlobalPool() {
  // Leaked on purpose: worker threads must outlive every static destructor
  // that might still issue a parallel loop during teardown.
  static ThreadPool* pool = new ThreadPool(EnvThreadCount());
  return g_override_pool != nullptr ? *g_override_pool : *pool;
}

int ParallelThreadCount() { return GlobalPool().threads(); }

ScopedParallelism::ScopedParallelism(int threads)
    : previous_(g_override_pool) {
  pool_.emplace(threads);
  g_override_pool = &*pool_;
}

ScopedParallelism::~ScopedParallelism() { g_override_pool = previous_; }

std::int64_t DefaultGrain(std::int64_t n) {
  if (n <= 0) return 1;
  constexpr std::int64_t kMaxChunks = 64;
  return (n + kMaxChunks - 1) / kMaxChunks;
}

Status ParallelFor(
    std::int64_t n,
    const std::function<Status(std::int64_t, std::int64_t, int)>& body,
    std::int64_t grain, CancelMode cancel_mode) {
  if (n <= 0) return Status::OK();
  if (grain <= 0) grain = DefaultGrain(n);
  const int chunks = NumChunks(n, grain);
  // The task captures one pointer, so std::function holds it in place: a
  // parallel loop costs no heap allocation of its own.
  struct Loop {
    std::int64_t n, grain;
    const std::function<Status(std::int64_t, std::int64_t, int)>& body;
  } loop{n, grain, body};
  return GlobalPool().Run(
      chunks,
      [&loop](int chunk) -> Status {
        const std::int64_t begin =
            static_cast<std::int64_t>(chunk) * loop.grain;
        const std::int64_t end = std::min(loop.n, begin + loop.grain);
        return loop.body(begin, end, chunk);
      },
      cancel_mode);
}

}  // namespace dimqr

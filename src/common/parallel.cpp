#include "resipe/common/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace resipe {
namespace {

std::atomic<std::size_t> g_default_threads{0};
std::atomic<void (*)()> g_hook_begin{nullptr};
std::atomic<void (*)()> g_hook_end{nullptr};
std::atomic<void (*)()> g_hook_join{nullptr};
thread_local bool t_in_region = false;

// One in-flight region, claimed chunk-by-chunk through an atomic
// cursor so slow arms load-balance across workers.
struct Job {
  const FunctionRef<void(std::size_t, std::size_t)>* body = nullptr;
  std::size_t n = 0;
  std::size_t grain = 1;
  std::size_t worker_cap = 0;  // pool workers allowed to join (excl. caller)
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> claims{0};
  std::atomic<bool> failed{false};
  std::mutex error_mu;
  std::exception_ptr error;
};

void execute_chunks(Job& job) {
  t_in_region = true;
  if (void (*begin)() = g_hook_begin.load(std::memory_order_acquire)) begin();
  for (;;) {
    if (job.failed.load(std::memory_order_relaxed)) break;
    const std::size_t b = job.next.fetch_add(job.grain,
                                             std::memory_order_relaxed);
    if (b >= job.n) break;
    const std::size_t e = std::min(b + job.grain, job.n);
    try {
      (*job.body)(b, e);
    } catch (...) {
      const std::lock_guard<std::mutex> lock(job.error_mu);
      if (!job.error) job.error = std::current_exception();
      job.failed.store(true, std::memory_order_relaxed);
    }
  }
  if (void (*end)() = g_hook_end.load(std::memory_order_acquire)) end();
  t_in_region = false;
}

// Lazily-started global pool.  Workers sleep between regions; the
// caller participates in every region, so a threads==N region uses
// N-1 pool workers.  Workers the current region does not need skip it
// via the claims ticket.
class Pool {
 public:
  static Pool& instance() {
    static Pool pool;
    return pool;
  }

  void run(Job& job) {
    const std::lock_guard<std::mutex> region(run_mu_);
    {
      std::unique_lock<std::mutex> lock(mu_);
      while (workers_.size() < job.worker_cap) {
        workers_.emplace_back([this] { worker_loop(); });
      }
      job_ = &job;
      ++generation_;
      unfinished_ = workers_.size();
      cv_work_.notify_all();
    }
    execute_chunks(job);
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_done_.wait(lock, [this] { return unfinished_ == 0; });
      job_ = nullptr;
    }
    if (void (*join)() = g_hook_join.load(std::memory_order_acquire)) join();
  }

  std::size_t worker_count() {
    const std::lock_guard<std::mutex> lock(mu_);
    return workers_.size();
  }

 private:
  Pool() = default;

  ~Pool() {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      shutdown_ = true;
      cv_work_.notify_all();
    }
    for (std::thread& t : workers_) t.join();
  }

  void worker_loop() {
    std::uint64_t seen = 0;
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      cv_work_.wait(lock, [&] { return shutdown_ || generation_ != seen; });
      if (shutdown_) return;
      seen = generation_;
      Job* job = job_;
      lock.unlock();
      if (job != nullptr &&
          job->claims.fetch_add(1, std::memory_order_relaxed) <
              job->worker_cap) {
        execute_chunks(*job);
      }
      lock.lock();
      if (--unfinished_ == 0) cv_done_.notify_all();
    }
  }

  std::mutex run_mu_;  // serializes top-level regions
  std::mutex mu_;
  std::condition_variable cv_work_;
  std::condition_variable cv_done_;
  std::vector<std::thread> workers_;
  Job* job_ = nullptr;
  std::uint64_t generation_ = 0;
  std::size_t unfinished_ = 0;
  bool shutdown_ = false;
};

}  // namespace

std::size_t hardware_threads() {
  static const std::size_t resolved = [] {
    if (const char* env = std::getenv("RESIPE_THREADS")) {
      const long parsed = std::strtol(env, nullptr, 10);
      if (parsed >= 1) return static_cast<std::size_t>(parsed);
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return static_cast<std::size_t>(hw >= 1 ? hw : 1);
  }();
  return resolved;
}

void set_default_threads(std::size_t n) {
  g_default_threads.store(n, std::memory_order_relaxed);
}

std::size_t default_threads() {
  const std::size_t n = g_default_threads.load(std::memory_order_relaxed);
  return n > 0 ? n : hardware_threads();
}

bool in_parallel_region() noexcept { return t_in_region; }

void set_parallel_hooks(const ParallelHooks& hooks) {
  g_hook_begin.store(hooks.thread_begin, std::memory_order_release);
  g_hook_end.store(hooks.thread_end, std::memory_order_release);
  g_hook_join.store(hooks.join, std::memory_order_release);
}

void parallel_for_chunked(std::size_t n, std::size_t grain,
                          FunctionRef<void(std::size_t, std::size_t)> body,
                          std::size_t threads) {
  if (n == 0) return;
  std::size_t want = threads > 0 ? threads : default_threads();
  if (grain == 0) grain = std::max<std::size_t>(1, n / (4 * want));
  const std::size_t chunks = (n + grain - 1) / grain;
  want = std::min(want, chunks);
  if (want <= 1 || t_in_region) {
    // Serial / nested path: same chunk decomposition, same body, run
    // inline in index order.  Exceptions propagate directly.
    for (std::size_t b = 0; b < n; b += grain) {
      body(b, std::min(b + grain, n));
    }
    return;
  }
  Job job;
  job.body = &body;
  job.n = n;
  job.grain = grain;
  job.worker_cap = want - 1;  // caller takes the remaining slot
  Pool::instance().run(job);
  if (job.error) std::rethrow_exception(job.error);
}

void parallel_for(std::size_t n, FunctionRef<void(std::size_t)> body,
                  std::size_t threads) {
  parallel_for_chunked(
      n, 1,
      [&body](std::size_t b, std::size_t e) {
        for (std::size_t i = b; i < e; ++i) body(i);
      },
      threads);
}

namespace detail {
std::size_t pool_worker_count() { return Pool::instance().worker_count(); }
}  // namespace detail

}  // namespace resipe

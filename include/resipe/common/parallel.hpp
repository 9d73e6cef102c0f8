// Deterministic parallel runtime: a lazily-initialized global thread
// pool exposed through parallel_for / parallel_for_chunked.
//
// Determinism contract: callers decompose a sweep into independent
// work items that are pure functions of their index (each item derives
// its randomness from a hash_seed stream keyed on the index, never
// from a shared generator), write results into index-addressed slots,
// and reduce on the calling thread in index order.  The thread count
// then only changes *when* an item runs, never *what* it computes or
// the order it is folded, so 1-, 2- and N-thread runs are bit-identical.
//
// Thread-count resolution (highest precedence first):
//   1. an explicit `threads` argument (config knob / CLI --threads),
//   2. set_default_threads(n) — the process-wide default,
//   3. the RESIPE_THREADS environment variable,
//   4. std::thread::hardware_concurrency().
// `threads == 1` is the escape hatch: the loop runs inline on the
// calling thread and never touches the pool.
#pragma once

#include <cstddef>
#include <memory>
#include <type_traits>
#include <utility>

namespace resipe {

/// A non-owning reference to a callable of signature R(Args...).  It
/// binds a lambda in place, where a std::function may copy a large
/// capture to the heap, and stays valid while the callable lives: a
/// parallel loop's body outlives the loop call.
template <class Sig>
class FunctionRef;

template <class R, class... Args>
class FunctionRef<R(Args...)> {
 public:
  template <class F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, FunctionRef> &&
             std::is_invocable_r_v<R, F&, Args...>)
  FunctionRef(F&& f) noexcept  // implicit, as std::function's is
      : object_(static_cast<const void*>(std::addressof(f))),
        call_([](const void* object, Args... args) -> R {
          return (*static_cast<std::add_pointer_t<std::remove_reference_t<F>>>(
              const_cast<void*>(object)))(std::forward<Args>(args)...);
        }) {}

  R operator()(Args... args) const {
    return call_(object_, std::forward<Args>(args)...);
  }

 private:
  const void* object_;
  R (*call_)(const void*, Args...);
};

/// Machine parallelism: RESIPE_THREADS if set (clamped to >= 1), else
/// std::thread::hardware_concurrency() (>= 1).  The env var is read
/// once, on first use.
std::size_t hardware_threads();

/// Sets the process-wide default thread count used when a loop is
/// called with threads == 0.  Pass 0 to restore auto (hardware_threads).
void set_default_threads(std::size_t n);

/// The resolved process-wide default: the last set_default_threads(n>0)
/// value, else hardware_threads().
std::size_t default_threads();

/// True while the calling thread is executing inside a parallel_for
/// body.  Nested parallel_for calls detect this and run inline
/// serially instead of deadlocking or oversubscribing the pool.
bool in_parallel_region() noexcept;

/// Runs body(i) for i in [0, n), distributing indices over `threads`
/// workers (0 = default_threads()).  Items are claimed dynamically one
/// at a time, so heavy-tailed arms load-balance.  The first exception
/// thrown by any item is rethrown on the calling thread after the
/// region drains; remaining items are abandoned.
void parallel_for(std::size_t n, FunctionRef<void(std::size_t)> body,
                  std::size_t threads = 0);

/// Runs body(begin, end) over contiguous chunks of ~grain indices
/// (grain == 0 picks n / (4 * threads), at least 1).  Use this when
/// per-item work is tiny (per-image inference) so scheduling overhead
/// amortizes, or when the body wants per-chunk scratch buffers.
void parallel_for_chunked(std::size_t n, std::size_t grain,
                          FunctionRef<void(std::size_t, std::size_t)> body,
                          std::size_t threads = 0);

/// Callbacks a subsystem can register to bracket each thread's
/// participation in a parallel region (the caller's slice included).
/// Telemetry uses this to install per-thread counter shards and call
/// trees that are merged at pool join, keeping the hot path free of
/// shared state.  Keeping the hooks generic (plain function pointers,
/// registered at runtime) lets resipe_common stay free of any telemetry
/// dependency.  Regions run inline when nested or single-threaded, and
/// then no hook runs.
struct ParallelHooks {
  void (*thread_begin)() = nullptr;  // runs before the first chunk
  void (*thread_end)() = nullptr;    // runs after the last chunk
  void (*join)() = nullptr;  // runs on the caller once every thread_end
                             // has returned
};

/// Installs region hooks (replacing any previous ones).  Hooks must be
/// safe to call from multiple threads concurrently.
void set_parallel_hooks(const ParallelHooks& hooks);

namespace detail {
/// Number of persistent workers the global pool currently owns
/// (excludes the calling thread).  Exposed for tests.
std::size_t pool_worker_count();
}  // namespace detail

}  // namespace resipe

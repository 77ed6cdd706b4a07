// Deterministic thread pool.
//
// The fleet simulator, the forest/GBDT trainers and the per-DIMM scorer are
// all embarrassingly parallel, but the project's reproducibility contract
// ("same seed => same Table II numbers") must survive parallelisation. The
// pool therefore guarantees that the chunks of a `parallel_for` /
// `parallel_for_chunks` section depend only on (n, grain), never on the
// number of threads or on scheduling:
//
//   * every index writes to its own output slot (caller's responsibility),
//   * chunk boundaries are a pure function of n and grain,
//   * a reduction writes one partial per chunk and the caller folds the
//     partials serially in ascending chunk order,
//   * per-task randomness comes from `Rng::fork(index)`, which derives a
//     child stream from the parent state and the task index without
//     advancing the parent.
//
// A parallel section is the only unit of work. It lives on the calling
// thread's stack and offers `width - 1` helper slots; idle workers sleep on
// one condition variable and join the newest open section, then claim chunk
// indices from its shared atomic cursor. The calling thread runs chunks too,
// which makes nested sections deadlock-free: a worker that opens an inner
// section drains it itself even when every other worker is busy.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

namespace memfp {

class ThreadPool {
 public:
  /// Creates a pool that runs parallel sections with `threads` executors
  /// (the calling thread plus `threads - 1` workers). `threads <= 0` means
  /// `default_threads()`. `default_width` caps how many executors a section
  /// uses when no ScopedLimit is active (<= 0 means all of them); the global
  /// pool uses it to keep spare workers for explicit above-core-count
  /// requests without oversubscribing by default.
  explicit ThreadPool(int threads = 0, int default_width = 0);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Maximum number of executors (including the calling thread).
  int size() const { return static_cast<int>(workers_.size()) + 1; }

  /// MEMFP_THREADS environment variable if set to a positive integer,
  /// otherwise std::thread::hardware_concurrency().
  static int default_threads();

  /// The process-wide pool, created on first use with default_threads().
  static ThreadPool& global();

  /// Process-wide cap on the width of parallel sections; 0 = uncapped.
  /// A cap of 1 makes every parallel section run inline on the calling
  /// thread (the serial fallback). Restores the previous cap on destruction.
  class ScopedLimit {
   public:
    /// `limit <= 0` leaves the current cap unchanged.
    explicit ScopedLimit(int limit);
    ~ScopedLimit();
    ScopedLimit(const ScopedLimit&) = delete;
    ScopedLimit& operator=(const ScopedLimit&) = delete;

   private:
    int previous_;
  };
  static int current_limit();

  /// Calls body(i) for every i in [0, n). Blocks until all calls finished;
  /// rethrows the first exception a body threw. The iteration->chunk mapping
  /// depends only on n and grain (grain 0 = default_grain(n)), so any
  /// index-slotted output is identical for every thread count.
  template <typename Body>
  void parallel_for(std::size_t n, Body&& body, std::size_t grain = 0) {
    if (n == 0) return;
    const std::size_t g = grain > 0 ? grain : default_grain(n);
    const std::size_t chunks = (n + g - 1) / g;
    run_chunked(chunks, [&](std::size_t c) {
      const std::size_t begin = c * g;
      const std::size_t end = begin + g < n ? begin + g : n;
      for (std::size_t i = begin; i < end; ++i) body(i);
    });
  }

  /// Chunk-granular variant of `parallel_for`: calls body(begin, end) once
  /// per chunk instead of once per index. Chunk boundaries depend only on
  /// (n, grain), so index->chunk assignment is identical for every thread
  /// count; callers use this to reuse a scratch buffer across all indices of
  /// a chunk instead of allocating per index (e.g. the per-feature column
  /// gather in BinMapper), or to write one partial per chunk and fold the
  /// partials serially in chunk order for a bit-identical reduction.
  template <typename Body>
  void parallel_for_chunks(std::size_t n, Body&& body, std::size_t grain = 0) {
    if (n == 0) return;
    const std::size_t g = grain > 0 ? grain : default_grain(n);
    const std::size_t chunks = (n + g - 1) / g;
    run_chunked(chunks, [&](std::size_t c) {
      const std::size_t begin = c * g;
      const std::size_t end = begin + g < n ? begin + g : n;
      body(begin, end);
    });
  }

  /// Default chunk size: a pure function of n (NOT of the thread count, so
  /// reductions stay deterministic). Caps the chunk count at 64.
  static std::size_t default_grain(std::size_t n) {
    return n / 64 > 0 ? n / 64 + (n % 64 != 0) : 1;
  }

 private:
  struct Impl;

  /// Executes body(c) for every chunk c in [0, chunks): inline when the
  /// effective width is 1, otherwise as a section the calling thread shares
  /// with up to width-1 workers. Rethrows the first exception.
  void run_chunked(std::size_t chunks,
                   const std::function<void(std::size_t)>& body);

  void worker_loop();

  std::unique_ptr<Impl> impl_;
  int default_width_;
  std::vector<std::thread> workers_;
};

}  // namespace memfp

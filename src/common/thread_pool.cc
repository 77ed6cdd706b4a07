#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <exception>
#include <memory>
#include <mutex>
#include <vector>

#include "common/check.h"

namespace memfp {
namespace {

std::atomic<int> g_width_limit{0};  // 0 = uncapped

/// One parallel section, on the stack of the thread that opened it.
struct Section {
  const std::function<void(std::size_t)>* body = nullptr;
  std::size_t chunks = 0;
  std::atomic<std::size_t> cursor{0};
  std::atomic<bool> failed{false};
  std::mutex error_mutex;
  std::exception_ptr error;  // guarded by error_mutex
  // Guarded by the pool mutex: helper slots not yet taken, and helpers
  // currently inside run().
  int free_slots = 0;
  int helpers = 0;
  std::condition_variable helpers_left;

  /// Claims and executes chunks until the cursor is exhausted. Once a chunk
  /// threw, the remaining chunks are claimed but skipped.
  void run() {
    for (;;) {
      const std::size_t c = cursor.fetch_add(1, std::memory_order_relaxed);
      if (c >= chunks) return;
      if (failed.load(std::memory_order_acquire)) continue;
      try {
        (*body)(c);
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mutex);
        if (!error) error = std::current_exception();
        failed.store(true, std::memory_order_release);
      }
    }
  }
};

}  // namespace

struct ThreadPool::Impl {
  std::mutex mutex;
  std::condition_variable wake;
  std::vector<Section*> open;  // sections with free slots, oldest first
  bool stopping = false;
};

ThreadPool::ThreadPool(int threads, int default_width)
    : impl_(std::make_unique<Impl>()) {
  const int want = threads > 0 ? threads : default_threads();
  // An absurd thread count is always a bug upstream (corrupt MEMFP_THREADS,
  // width confused with row count), and each worker costs a stack.
  MEMFP_CHECK_LE(want, 4096) << "implausible thread-pool size";
  default_width_ = default_width > 0 && default_width < want ? default_width
                                                             : want;
  const int workers = want > 1 ? want - 1 : 0;
  workers_.reserve(static_cast<std::size_t>(workers));
  for (int i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(impl_->mutex);
    impl_->stopping = true;
  }
  impl_->wake.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

int ThreadPool::default_threads() {
  if (const char* env = std::getenv("MEMFP_THREADS")) {
    const int parsed = std::atoi(env);
    if (parsed > 0) return parsed;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

ThreadPool& ThreadPool::global() {
  // Keep at least 4 executors even on smaller machines so an explicit
  // above-core-count request (PipelineConfig::num_threads, ScopedLimit — the
  // 1-vs-4-thread determinism tests in particular) gets real threads; the
  // default section width stays at default_threads(), so nothing
  // oversubscribes unless explicitly asked to.
  static ThreadPool pool(default_threads() > 4 ? default_threads() : 4,
                         default_threads());
  return pool;
}

ThreadPool::ScopedLimit::ScopedLimit(int limit)
    : previous_(g_width_limit.load(std::memory_order_relaxed)) {
  if (limit > 0) g_width_limit.store(limit, std::memory_order_relaxed);
}

ThreadPool::ScopedLimit::~ScopedLimit() {
  g_width_limit.store(previous_, std::memory_order_relaxed);
}

int ThreadPool::current_limit() {
  return g_width_limit.load(std::memory_order_relaxed);
}

void ThreadPool::worker_loop() {
  Impl& pool = *impl_;
  std::unique_lock<std::mutex> lock(pool.mutex);
  for (;;) {
    pool.wake.wait(lock, [&] { return pool.stopping || !pool.open.empty(); });
    if (pool.open.empty()) return;  // stopping, and no section is open
    // The newest section is the innermost one a busy thread is draining.
    Section* s = pool.open.back();
    if (--s->free_slots == 0) pool.open.pop_back();
    ++s->helpers;
    lock.unlock();
    s->run();
    lock.lock();
    // Notify under the lock: once it is released the owner may return and
    // destroy the section.
    if (--s->helpers == 0) s->helpers_left.notify_one();
  }
}

void ThreadPool::run_chunked(std::size_t chunks,
                             const std::function<void(std::size_t)>& body) {
  if (chunks == 0) return;
  const int limit = current_limit();
  int width = limit > 0 ? limit : default_width_;
  if (width > size()) width = size();
  if (static_cast<std::size_t>(width) > chunks) {
    width = static_cast<int>(chunks);
  }
  if (width <= 1 || workers_.empty()) {
    // Serial fallback: the same chunks in ascending order, so
    // single-threaded results are bit-identical to the parallel ones.
    for (std::size_t c = 0; c < chunks; ++c) body(c);
    return;
  }

  Impl& pool = *impl_;
  Section section;
  section.body = &body;
  section.chunks = chunks;
  section.free_slots = width - 1;
  {
    std::lock_guard<std::mutex> lock(pool.mutex);
    pool.open.push_back(&section);
  }
  for (int i = 0; i < width - 1; ++i) pool.wake.notify_one();
  section.run();  // the calling thread is always one of the executors
  {
    // Every chunk is claimed, and each one is run by this thread or by a
    // helper still inside run(): once the section is closed and the last
    // helper has left, all chunks are done.
    std::unique_lock<std::mutex> lock(pool.mutex);
    const auto it = std::find(pool.open.begin(), pool.open.end(), &section);
    if (it != pool.open.end()) pool.open.erase(it);  // not fully staffed
    section.helpers_left.wait(lock, [&] { return section.helpers == 0; });
  }
  if (section.error) std::rethrow_exception(section.error);
}

}  // namespace memfp

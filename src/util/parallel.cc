#include "util/parallel.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace groupcast::util {

namespace {

// True on a parallel_for worker thread: nested calls run inline.
thread_local bool tl_in_worker = false;

}  // namespace

void parallel_for(std::size_t n, std::size_t jobs,
                  const std::function<void(std::size_t)>& fn) {
  jobs = std::min(jobs, n);
  if (jobs <= 1 || tl_in_worker) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }

  // The atomic ticket is the only shared mutable word.
  std::atomic<std::size_t> next{0};
  std::mutex error_mutex;
  std::exception_ptr first_error;
  auto worker = [&] {
    tl_in_worker = true;
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      try {
        fn(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
        // Drain remaining tickets so the pool winds down quickly.
        next.store(n, std::memory_order_relaxed);
        return;
      }
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(jobs);
  try {
    for (std::size_t t = 0; t < jobs; ++t) pool.emplace_back(worker);
  } catch (...) {
    // A thread that failed to start: stop the ones that did before the
    // state they share goes out of scope.
    next.store(n, std::memory_order_relaxed);
    for (std::thread& running : pool) running.join();
    throw;
  }
  for (std::thread& running : pool) running.join();
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace groupcast::util

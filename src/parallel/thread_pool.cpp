#include "parallel/thread_pool.hpp"

#include <cstdlib>
#include <exception>
#include <string>

#include "rt/fault.hpp"

namespace ovo::par {

int default_threads() {
  static const int cached = [] {
    if (const char* env = std::getenv("OVO_THREADS")) {
      char* tail = nullptr;
      const long v = std::strtol(env, &tail, 10);
      if (tail != env && *tail == '\0' && v >= 1)
        return ThreadPool::clamp_threads(static_cast<int>(
            v > ThreadPool::kMaxThreads ? ThreadPool::kMaxThreads : v));
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1
                   : ThreadPool::clamp_threads(static_cast<int>(hw));
  }();
  return cached;
}

// The process-wide totals ARE the obs registry's sched.* slots; there is
// no second accumulator.
void charge_barrier_wait(std::uint64_t ns) {
  obs::Registry::global().record(obs::Metric::kSchedBarrierWaitNs, ns);
}

SchedStats sched_stats() {
  SchedStats s;
  s.from_ledger(obs::Registry::global().snapshot());
  return s;
}

/// One in-flight chunked region.  Participants pull chunks from the
/// atomic cursor; the first one to see the stop flag or catch an
/// exception marks the region stopped so the others leave at their next
/// chunk boundary.
struct ThreadPool::Region {
  std::uint64_t end = 0;
  std::uint64_t grain = 1;
  const std::atomic<bool>* stop = nullptr;
  std::function<void(std::uint64_t, std::uint64_t, int)> body;
  std::atomic<std::uint64_t> cursor{0};
  std::atomic<std::uint64_t> chunks{0};
  std::atomic<bool> stopped{false};

  std::mutex mu;  ///< guards error and pending
  std::condition_variable detached;
  std::exception_ptr error;
  int pending = 0;  ///< workers that have not left yet

  void participate(int slot) {
    bool& in = in_region();
    const bool was_in = in;
    in = true;
    for (;;) {
      if (stop != nullptr && stop->load(std::memory_order_relaxed)) {
        stopped.store(true, std::memory_order_relaxed);
        break;
      }
      if (stopped.load(std::memory_order_relaxed)) break;
      const std::uint64_t lo =
          cursor.fetch_add(grain, std::memory_order_relaxed);
      if (lo >= end) break;
      const std::uint64_t hi = lo + grain < end ? lo + grain : end;
      try {
        // Fault site kTaskDispatch: the injected FaultInjected takes the
        // same first-exception path as a real chunk failure.
        rt::fault_dispatch_hook();
        body(lo, hi, slot);
      } catch (...) {
        std::lock_guard<std::mutex> lk(mu);
        if (!error) error = std::current_exception();
        stopped.store(true, std::memory_order_relaxed);
        break;
      }
      chunks.fetch_add(1, std::memory_order_relaxed);
    }
    in = was_in;
  }
};

ThreadPool& ThreadPool::shared() {
  static ThreadPool pool;
  return pool;
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

int ThreadPool::workers() const {
  std::lock_guard<std::mutex> lk(mu_);
  return static_cast<int>(workers_.size());
}

bool& ThreadPool::in_region() {
  thread_local bool flag = false;
  return flag;
}

void ThreadPool::ensure_workers(int count) {
  std::lock_guard<std::mutex> lk(mu_);
  while (static_cast<int>(workers_.size()) < count &&
         static_cast<int>(workers_.size()) < kMaxThreads - 1)
    workers_.emplace_back([this] { worker_main(); });
}

void ThreadPool::worker_main() {
  in_region() = true;
  for (;;) {
    Job job;
    {
      std::unique_lock<std::mutex> lk(mu_);
      cv_.wait(lk, [&] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ set and nothing left to drain
      job = queue_.front();
      queue_.pop_front();
    }
    job.region->participate(job.slot);
    // Detach under the region's lock: once pending hits zero the
    // dispatching thread may destroy the region, so do not touch it
    // after the unlock.
    std::lock_guard<std::mutex> lk(job.region->mu);
    if (--job.region->pending == 0) job.region->detached.notify_all();
  }
}

void ThreadPool::run_chunked(
    std::uint64_t begin, std::uint64_t end, std::uint64_t grain, int threads,
    const std::atomic<bool>* stop,
    std::function<void(std::uint64_t, std::uint64_t, int)> chunk_body) {
  Region region;
  region.end = end;
  region.grain = grain;
  region.stop = stop;
  region.body = std::move(chunk_body);
  region.cursor.store(begin, std::memory_order_relaxed);

  const std::uint64_t chunks = (end - begin + grain - 1) / grain;
  int extra = threads - 1;
  if (static_cast<std::uint64_t>(extra) > chunks - 1)
    extra = static_cast<int>(chunks - 1);
  ensure_workers(extra);
  {
    std::lock_guard<std::mutex> lk(mu_);
    const int available = static_cast<int>(workers_.size());
    if (extra > available) extra = available;
    region.pending = extra;  // no worker can see the region yet
    for (int s = 1; s <= extra; ++s) queue_.push_back(Job{&region, s});
  }
  cv_.notify_all();
  region.participate(0);
  {
    std::unique_lock<std::mutex> lk(region.mu);
    region.detached.wait(lk, [&] { return region.pending == 0; });
  }

  obs::Registry& reg = obs::Registry::global();
  reg.record(obs::Metric::kSchedGraphs, 1);
  reg.record(obs::Metric::kSchedChunks,
             region.chunks.load(std::memory_order_relaxed));
  if (region.error) std::rethrow_exception(region.error);
}

}  // namespace ovo::par

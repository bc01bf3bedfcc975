#pragma once
// Worker-pool substrate of the ovo::par execution layer: a lazily grown
// set of pool workers and one kind of parallel region, a flat chunked
// index range.  parallel_for and parallel_reduce are the whole API.
//
// Model: a parallel region splits an index range [begin, end) into
// chunks of `grain` consecutive indices; participating threads pull
// chunks from one atomic cursor until the range is exhausted.  The
// calling thread always participates (as slot 0), so `threads = t` means
// the caller plus up to t - 1 pool workers.  A region returns once every
// participant has left it, so consecutive regions are separated by a
// full barrier — the FS* DP issues one region per layer.
//
// Determinism contract:
//  * parallel_for(threads <= 1, stop == nullptr) runs a plain serial
//    loop on the calling thread — no pool machinery, bit-identical to
//    pre-parallel code.  With a stop flag, the serial path polls it at
//    the same per-chunk granularity as pooled execution, so budgets
//    interrupt 1-thread runs no later than 4-thread runs.
//  * Which thread runs which chunk is scheduling-dependent; callers make
//    results deterministic by giving every index its own write slot
//    (e.g. the DP writes each state's result at the state's index).
//  * Per-thread scratch is indexed by the `slot` argument passed to the
//    body (0 = caller, 1..t-1 = workers).  Slot-indexed accumulators
//    must be merged with commutative operations (sums, maxes) to stay
//    deterministic, because slot-to-chunk assignment is not.
//  * parallel_reduce computes one partial per *chunk* and folds the
//    partials in chunk order, so its result depends on the grain but not
//    on the thread count — except threads <= 1 without a stop flag,
//    which maps the whole range as a single chunk (bit-identical to a
//    pre-parallel serial accumulation loop).  A *governed* serial reduce
//    (stop != nullptr) folds chunk by chunk like the pooled path — same
//    fold order, same cancellation granularity at every thread count.
//
// Nested regions: a region issued from inside an active region — on a
// pool worker or on the caller thread while it participates — runs
// serially inline on that thread (slot 0 of the inner region).  Only the
// outermost region fans out.
//
// Cooperative cancellation: the overloads taking a `stop` flag check it
// before every chunk pull and drain cooperatively when it flips.
// Already-started chunks run to completion, so a stopped region never
// leaves a chunk half-executed; callers discard the region's output when
// the flag is set.  The flag is typically rt::Governor::stop_flag().
//
// Exceptions: the first exception a chunk throws stops the region (no
// new chunks start), and parallel_for rethrows it on the calling thread
// once every participant has left.  Later exceptions are dropped.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "parallel/exec_policy.hpp"

namespace ovo::par {

/// Parallel-region counters (process-wide totals, see sched_stats()).
/// All times are steady-clock ns.
struct SchedStats {
  std::uint64_t graphs = 0;  ///< regions that fanned out over the pool
  std::uint64_t chunks = 0;  ///< chunks those regions executed
  /// Layer-boundary stall charged by engines (see charge_barrier_wait).
  std::uint64_t barrier_wait_ns = 0;

  /// Accumulates this struct into `l` under the sched.* metric IDs.
  void to_ledger(obs::Ledger& l) const {
    l.record(obs::Metric::kSchedGraphs, graphs);
    l.record(obs::Metric::kSchedChunks, chunks);
    l.record(obs::Metric::kSchedBarrierWaitNs, barrier_wait_ns);
  }
  void from_ledger(const obs::Ledger& l) {
    graphs = l.get(obs::Metric::kSchedGraphs);
    chunks = l.get(obs::Metric::kSchedChunks);
    barrier_wait_ns = l.get(obs::Metric::kSchedBarrierWaitNs);
  }

  /// Delta between two snapshots of the process-wide totals.
  SchedStats operator-(const SchedStats& o) const {
    return {graphs - o.graphs, chunks - o.chunks,
            barrier_wait_ns - o.barrier_wait_ns};
  }
};

/// Snapshot of the process-wide region totals (monotone; callers diff two
/// snapshots around a run they want to attribute).
SchedStats sched_stats();

/// Adds `ns` to the process-wide barrier_wait_ns total.  Engines call
/// this to attribute the structural idleness of a serial seam between
/// parallel regions (a publish epilogue, a final extraction): it leaves
/// threads - 1 participants parked, so the engine charges
/// (threads - 1) x the seam's duration.
void charge_barrier_wait(std::uint64_t ns);

class ThreadPool {
 public:
  /// Hard ceiling on cooperating threads per region (and on worker slot
  /// ids).  Requests beyond it are clamped.
  static constexpr int kMaxThreads = 64;

  ThreadPool() = default;
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Process-wide pool shared by all call sites.  Lazily grows its
  /// worker set to the largest thread count ever requested (minus the
  /// caller), capped at kMaxThreads - 1; a process that only ever runs
  /// serial policies never spawns a thread.
  static ThreadPool& shared();

  /// Worker threads currently alive (excludes callers).
  int workers() const;

  /// Clamps a requested thread count into [1, kMaxThreads].
  static int clamp_threads(int threads) {
    return threads < 1 ? 1 : (threads > kMaxThreads ? kMaxThreads : threads);
  }

  /// Runs fn(i, slot) for every i in [begin, end), chunked by `grain`
  /// over at most `threads` threads (caller included).  slot identifies
  /// the executing thread within this region, in [0, threads).
  template <typename Fn>
  void parallel_for(std::uint64_t begin, std::uint64_t end,
                    std::uint64_t grain, int threads, Fn&& fn) {
    parallel_for(begin, end, grain, threads,
                 static_cast<const std::atomic<bool>*>(nullptr),
                 std::forward<Fn>(fn));
  }

  /// As above, plus a cooperative stop flag checked at chunk boundaries
  /// (see header comment).  stop may be nullptr.
  template <typename Fn>
  void parallel_for(std::uint64_t begin, std::uint64_t end,
                    std::uint64_t grain, int threads,
                    const std::atomic<bool>* stop, Fn&& fn) {
    if (begin >= end) return;
    if (grain == 0) grain = 1;
    threads = clamp_threads(threads);
    const std::uint64_t chunks = (end - begin + grain - 1) / grain;
    if (threads <= 1 || chunks <= 1 || in_region()) {
      if (stop == nullptr) {
        for (std::uint64_t i = begin; i < end; ++i) fn(i, 0);
        return;
      }
      // Serial path honours the same chunk-boundary stop granularity as
      // the parallel one, so governed runs degrade identically.
      for (std::uint64_t lo = begin; lo < end; lo += grain) {
        if (stop->load(std::memory_order_relaxed)) return;
        const std::uint64_t hi = lo + grain < end ? lo + grain : end;
        for (std::uint64_t i = lo; i < hi; ++i) fn(i, 0);
      }
      return;
    }
    run_chunked(begin, end, grain, threads, stop,
                [&fn](std::uint64_t lo, std::uint64_t hi, int slot) {
                  for (std::uint64_t i = lo; i < hi; ++i) fn(i, slot);
                });
  }

  /// Maps chunks [lo, hi) of [begin, end) with `map_chunk` and folds the
  /// per-chunk partials with `combine` in ascending chunk order, seeded
  /// by `init`.  threads <= 1 maps the whole range as one chunk.
  template <typename T, typename MapChunk, typename Combine>
  T parallel_reduce(std::uint64_t begin, std::uint64_t end,
                    std::uint64_t grain, int threads, T init,
                    MapChunk&& map_chunk, Combine&& combine) {
    return parallel_reduce(begin, end, grain, threads,
                           static_cast<const std::atomic<bool>*>(nullptr),
                           std::move(init), std::forward<MapChunk>(map_chunk),
                           std::forward<Combine>(combine));
  }

  /// As above with a cooperative stop flag.  When the flag trips
  /// mid-region the unmapped chunks contribute default-constructed
  /// partials (parallel) or are simply missing from the fold (serial),
  /// so the caller must treat the result as garbage whenever the flag is
  /// set on return.  The governed serial path maps and folds chunk by
  /// chunk — the pooled fold order — polling the flag between chunks.
  template <typename T, typename MapChunk, typename Combine>
  T parallel_reduce(std::uint64_t begin, std::uint64_t end,
                    std::uint64_t grain, int threads,
                    const std::atomic<bool>* stop, T init,
                    MapChunk&& map_chunk, Combine&& combine) {
    if (begin >= end) return init;
    if (grain == 0) grain = 1;
    threads = clamp_threads(threads);
    const std::uint64_t chunks = (end - begin + grain - 1) / grain;
    if (threads <= 1 || chunks <= 1 || in_region()) {
      if (stop == nullptr)
        return combine(std::move(init), map_chunk(begin, end));
      if (chunks <= 1) {
        if (stop->load(std::memory_order_relaxed)) return init;
        return combine(std::move(init), map_chunk(begin, end));
      }
      T acc = std::move(init);
      for (std::uint64_t lo = begin; lo < end; lo += grain) {
        if (stop->load(std::memory_order_relaxed)) return acc;
        const std::uint64_t hi = lo + grain < end ? lo + grain : end;
        acc = combine(std::move(acc), map_chunk(lo, hi));
      }
      return acc;
    }
    std::vector<T> partials(chunks);
    parallel_for(0, chunks, 1, threads, stop, [&](std::uint64_t c, int) {
      const std::uint64_t lo = begin + c * grain;
      const std::uint64_t hi = lo + grain < end ? lo + grain : end;
      partials[c] = map_chunk(lo, hi);
    });
    T acc = std::move(init);
    for (T& p : partials) acc = combine(std::move(acc), std::move(p));
    return acc;
  }

 private:
  struct Region;

  /// True while this thread participates in a region (pool workers
  /// always do); regions started there run inline.
  static bool& in_region();

  /// Fans [begin, end) out over the caller plus up to threads - 1
  /// workers and returns once all of them have left the region;
  /// rethrows the first exception a chunk raised.
  void run_chunked(
      std::uint64_t begin, std::uint64_t end, std::uint64_t grain,
      int threads, const std::atomic<bool>* stop,
      std::function<void(std::uint64_t, std::uint64_t, int)> chunk_body);

  void ensure_workers(int count);
  void worker_main();

  struct Job {
    Region* region = nullptr;
    int slot = 0;
  };

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Job> queue_;
  std::vector<std::thread> workers_;
  bool stop_ = false;
};

}  // namespace ovo::par

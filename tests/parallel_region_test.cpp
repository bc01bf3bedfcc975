// Tests for the flat parallel region under parallel_for and for the FS*
// layer loop built on it.  Contracts under test: every index runs
// exactly once at every thread count, the first exception is rethrown
// exactly once, a pre-tripped stop runs nothing, a nested region runs
// inline at slot 0, fanned-out regions and their chunks are counted, the
// layer loop emits one fs.layer trace span per layer, and the DP
// survives cancellation and allocation faults injected mid-layer (run
// under the asan/tsan presets by tools/ci.sh).

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <new>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/fs_star.hpp"
#include "core/minimize.hpp"
#include "obs/trace.hpp"
#include "parallel/exec_policy.hpp"
#include "parallel/thread_pool.hpp"
#include "reorder/minimize_auto.hpp"
#include "rt/budget.hpp"
#include "rt/fault.hpp"
#include "tt/function_zoo.hpp"
#include "util/combinatorics.hpp"
#include "util/rng.hpp"

namespace ovo {
namespace {

par::ExecPolicy policy(int threads,
                       par::PruneMode prune = par::PruneMode::kOff) {
  par::ExecPolicy exec;
  exec.num_threads = threads;
  exec.prune = prune;
  return exec;
}

// -------------------------------------------------------------- regions --

TEST(ParallelRegion, EveryIndexRunsExactlyOnceAtEveryThreadCount) {
  par::ThreadPool& pool = par::ThreadPool::shared();
  for (const int threads : {1, 2, 4, 8}) {
    const std::uint64_t n = 1000;
    std::vector<std::atomic<int>> counts(n);
    // Four consecutive regions over the same index space.
    for (int region = 0; region < 4; ++region) {
      pool.parallel_for(std::uint64_t{0}, n, 7, threads,
                        [&](std::uint64_t i, int slot) {
                          EXPECT_GE(slot, 0);
                          EXPECT_LT(slot, threads);
                          counts[i].fetch_add(1, std::memory_order_relaxed);
                        });
    }
    for (const auto& c : counts) EXPECT_EQ(c.load(), 4);
  }
}

// Many chunks throw; the caller sees exactly one exception, and the pool
// runs the next region in full.
TEST(ParallelRegion, FirstExceptionIsRethrownOnce) {
  par::ThreadPool& pool = par::ThreadPool::shared();
  for (int round = 0; round < 20; ++round) {
    int caught = 0;
    try {
      pool.parallel_for(std::uint64_t{0}, std::uint64_t{1000}, 8, 4,
                        [](std::uint64_t i, int) {
                          if (i >= 500) throw std::runtime_error("boom");
                        });
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "boom");
      ++caught;
    }
    EXPECT_EQ(caught, 1);
    std::atomic<int> ran{0};
    pool.parallel_for(std::uint64_t{0}, std::uint64_t{100}, 1, 4,
                      [&](std::uint64_t, int) { ran.fetch_add(1); });
    EXPECT_EQ(ran.load(), 100);
  }
}

TEST(ParallelRegion, PreTrippedStopRunsNothing) {
  par::ThreadPool& pool = par::ThreadPool::shared();
  std::atomic<bool> stop{true};
  std::atomic<int> ran{0};
  for (const int threads : {1, 4}) {
    pool.parallel_for(std::uint64_t{0}, std::uint64_t{100}, 1, threads,
                      &stop, [&](std::uint64_t, int) { ran.fetch_add(1); });
    EXPECT_EQ(ran.load(), 0) << "threads=" << threads;
  }
}

// A region issued from any participant of a running region — pool
// worker or the calling thread — runs inline as slot 0.
TEST(ParallelRegion, NestedRegionRunsInlineAtSlotZero) {
  par::ThreadPool& pool = par::ThreadPool::shared();
  std::atomic<int> inner_total{0};
  const par::SchedStats before = par::sched_stats();
  pool.parallel_for(std::uint64_t{0}, std::uint64_t{8}, 1, 4,
                    [&](std::uint64_t, int) {
                      pool.parallel_for(
                          std::uint64_t{0}, std::uint64_t{10}, 1, 4,
                          [&](std::uint64_t, int slot) {
                            EXPECT_EQ(slot, 0);
                            inner_total.fetch_add(1,
                                                  std::memory_order_relaxed);
                          });
                    });
  EXPECT_EQ(inner_total.load(), 80);
  EXPECT_EQ((par::sched_stats() - before).graphs, 1u);  // the outer only
}

// Fanned-out regions count one region and their chunks; serial and
// single-chunk regions take the inline path and count nothing.
TEST(ParallelRegion, RegionsAndChunksAccumulateIntoProcessWideStats) {
  par::ThreadPool& pool = par::ThreadPool::shared();
  const par::SchedStats before = par::sched_stats();
  pool.parallel_for(std::uint64_t{0}, std::uint64_t{100}, 10, 4,
                    [](std::uint64_t, int) {});
  pool.parallel_for(std::uint64_t{0}, std::uint64_t{100}, 10, 1,
                    [](std::uint64_t, int) {});
  pool.parallel_for(std::uint64_t{0}, std::uint64_t{5}, 10, 4,
                    [](std::uint64_t, int) {});
  const par::SchedStats d = par::sched_stats() - before;
  EXPECT_EQ(d.graphs, 1u);
  EXPECT_EQ(d.chunks, 10u);
}

// --------------------------------------------------------- layer spans --

#if OVO_TRACE_ENABLED
std::size_t count_spans(const std::string& json, const std::string& name) {
  const std::string key = "\"name\":\"" + name + "\"";
  std::size_t n = 0;
  for (std::size_t pos = json.find(key); pos != std::string::npos;
       pos = json.find(key, pos + 1))
    ++n;
  return n;
}

// Serial and parallel, dense and pruned: one fs.layer span per layer.
TEST(FsLayerTrace, OneSpanPerCompletedLayer) {
  util::Xoshiro256 rng(0x7ace);
  const tt::TruthTable f = tt::random_function(8, rng);
  for (const par::PruneMode prune :
       {par::PruneMode::kOff, par::PruneMode::kBounds}) {
    for (const int threads : {1, 4}) {
      SCOPED_TRACE(testing::Message()
                   << "threads=" << threads
                   << " pruned=" << (prune == par::PruneMode::kBounds));
      obs::trace::enable();
      const core::FsStarResult r =
          core::fs_star(core::initial_table(f), util::full_mask(8), 8,
                        core::DiagramKind::kBdd, nullptr,
                        policy(threads, prune));
      obs::trace::disable();
      EXPECT_EQ(r.completed_layers, 8);
      const std::string json = obs::trace::to_json();
      EXPECT_EQ(count_spans(json, "fs.layer"),
                static_cast<std::size_t>(r.completed_layers));
      EXPECT_NE(json.find("\"layer\":8"), std::string::npos);
    }
  }
}
#endif

// ------------------------------------------------ faults mid-layer --

// Cancellation tripped at a governor checkpoint inside a 4-thread layer:
// the region drains, the ladder salvages, and the result is a valid
// order with its exact size and Outcome::kCancelled.
TEST(BarrierDpFaults, CancelMidLayerSalvagesAConsistentOutcome) {
  const tt::TruthTable f = tt::hidden_weighted_bit(10);
  rt::CancelToken token;
  rt::FaultPlan plan;
  plan.cancel_at_checkpoint = 100;  // mid layer ~3 of the DP
  plan.cancel = &token;
  rt::ScopedFaultPlan scoped(plan);

  rt::Budget b;
  b.cancel = &token;
  reorder::AutoMinimizeOptions opt;
  opt.exec = policy(4);
  const auto r = reorder::minimize_auto(f, b, opt);
  EXPECT_EQ(r.outcome, rt::Outcome::kCancelled);
  EXPECT_FALSE(r.value.optimal);
  EXPECT_LT(r.value.dp_layers_completed, 10);
  ASSERT_TRUE(util::is_permutation(r.value.order_root_first));
  ASSERT_EQ(r.value.order_root_first.size(), 10u);
  EXPECT_EQ(core::diagram_size_for_order(f, r.value.order_root_first),
            r.value.internal_nodes);
  EXPECT_GE(scoped.checkpoints_seen(), 100u);
}

// ds-layer allocation faults injected under the 4-thread DP: the
// bad_alloc thrown inside a chunk must drain the region, propagate
// exactly once, corrupt nothing (the rerun matches serial), and leak
// nothing under the asan preset.
TEST(BarrierDpFaults, AllocFaultDrainsAndLeavesNoCorruption) {
  util::Xoshiro256 rng(4242);
  const tt::TruthTable f = tt::random_function(8, rng);
  const core::MinimizeResult serial = core::fs_minimize(f);

  std::uint64_t events = 0;
  {
    rt::ScopedFaultPlan probe(rt::FaultPlan{});
    const core::MinimizeResult r =
        core::fs_minimize(f, core::DiagramKind::kBdd, policy(4));
    EXPECT_EQ(r.min_internal_nodes, serial.min_internal_nodes);
    events = probe.allocations_seen();
  }
  ASSERT_GT(events, 0u);

  // Probe the first, a middle, and the last allocation event (which
  // chunk hits event k varies with scheduling; clean unwind must not).
  for (const std::uint64_t k : {std::uint64_t{1}, events / 2, events}) {
    rt::FaultPlan plan;
    plan.fail_alloc_at = k;
    rt::ScopedFaultPlan scoped(plan);
    try {
      core::fs_minimize(f, core::DiagramKind::kBdd, policy(4));
      FAIL() << "allocation " << k << " did not fail";
    } catch (const std::bad_alloc&) {
      // expected
    }
  }

  // With the plan gone, the same 4-thread run succeeds bit-identically.
  const core::MinimizeResult again =
      core::fs_minimize(f, core::DiagramKind::kBdd, policy(4));
  EXPECT_EQ(again.min_internal_nodes, serial.min_internal_nodes);
  EXPECT_EQ(again.order_root_first, serial.order_root_first);
  EXPECT_EQ(again.ops.table_cells, serial.ops.table_cells);
}

}  // namespace
}  // namespace ovo

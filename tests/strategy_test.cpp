// Migration pins and registry tests for the unified reorder cost-oracle
// and strategy layer.
//
// The pins hard-code the results every algorithm produced *before* the
// CostOracle refactor (same function, same seeds), at thread counts 1
// and 4: the refactor's contract is bit-identical orders, sizes, and
// tie-breaks, with memoization changing only how much work runs, never
// what comes out.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <numeric>
#include <thread>
#include <vector>

#include "bdd/dynamic_reorder.hpp"
#include "bdd/manager.hpp"
#include "core/fs_star.hpp"
#include "core/minimize.hpp"
#include "quantum/min_find.hpp"
#include "quantum/opt_obdd.hpp"
#include "reorder/annealing.hpp"
#include "reorder/baselines.hpp"
#include "reorder/branch_and_bound.hpp"
#include "reorder/exact_window.hpp"
#include "reorder/minimize_auto.hpp"
#include "reorder/oracle.hpp"
#include "reorder/strategy.hpp"
#include "rt/fault.hpp"
#include "tt/function_zoo.hpp"
#include "util/combinatorics.hpp"
#include "util/rng.hpp"

namespace ovo::reorder {
namespace {

/// The fixed 7-variable function every pin below was measured on.
tt::TruthTable pin_function() {
  util::Xoshiro256 rng(99);
  return tt::random_function(7, rng);
}

std::vector<int> identity(int n) {
  std::vector<int> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  return order;
}

using Order = std::vector<int>;

class MigrationPins : public ::testing::TestWithParam<int> {
 protected:
  par::ExecPolicy exec() const {
    par::ExecPolicy e;
    e.num_threads = GetParam();
    return e;
  }
};

TEST_P(MigrationPins, Sift) {
  const tt::TruthTable f = pin_function();
  const auto r = sift(f, identity(7), core::DiagramKind::kBdd, 8, exec());
  EXPECT_EQ(r.internal_nodes, 38u);
  EXPECT_EQ(r.order_root_first, (Order{1, 2, 3, 0, 5, 4, 6}));
  EXPECT_EQ(r.orders_evaluated, 99u);
}

TEST_P(MigrationPins, WindowPermute) {
  const tt::TruthTable f = pin_function();
  const auto r =
      window_permute(f, identity(7), 3, core::DiagramKind::kBdd, 8, exec());
  EXPECT_EQ(r.internal_nodes, 39u);
  EXPECT_EQ(r.order_root_first, (Order{0, 1, 2, 3, 5, 4, 6}));
}

TEST_P(MigrationPins, BruteForce) {
  const tt::TruthTable f = pin_function();
  const auto r = brute_force_minimize(f, core::DiagramKind::kBdd, exec());
  EXPECT_EQ(r.internal_nodes, 36u);
  EXPECT_EQ(r.order_root_first, (Order{1, 3, 5, 4, 6, 0, 2}));
  EXPECT_EQ(r.orders_evaluated, 5040u);
}

TEST_P(MigrationPins, Annealing) {
  const tt::TruthTable f = pin_function();
  util::Xoshiro256 rng(42);
  // The legacy entry has no exec parameter (candidates are sequential by
  // nature); run it at every MigrationPins instantiation anyway so the
  // suite shape stays uniform.
  const auto r = simulated_annealing(f, identity(7), AnnealOptions{}, rng);
  EXPECT_EQ(r.internal_nodes, 36u);
  EXPECT_EQ(r.order_root_first, (Order{5, 3, 1, 4, 6, 0, 2}));
  EXPECT_EQ(r.orders_evaluated, 1201u);
  EXPECT_EQ(r.moves_accepted, 656u);
}

TEST_P(MigrationPins, RandomRestart) {
  const tt::TruthTable f = pin_function();
  util::Xoshiro256 rng(42);
  const auto r =
      random_restart(f, 16, rng, core::DiagramKind::kBdd, exec());
  EXPECT_EQ(r.internal_nodes, 38u);
  EXPECT_EQ(r.order_root_first, (Order{3, 1, 5, 4, 2, 6, 0}));
}

TEST_P(MigrationPins, BranchAndBound) {
  const tt::TruthTable f = pin_function();
  const auto r = branch_and_bound_minimize(f, core::DiagramKind::kBdd,
                                           ~std::uint64_t{0}, exec());
  EXPECT_EQ(r.internal_nodes, 36u);
  EXPECT_EQ(r.order_root_first, (Order{5, 3, 1, 4, 6, 0, 2}));
  EXPECT_EQ(r.states_expanded, 61u);
  EXPECT_TRUE(r.complete);
}

TEST_P(MigrationPins, FsAndExactWindow) {
  const tt::TruthTable f = pin_function();
  const auto fs = core::fs_minimize(f, core::DiagramKind::kBdd, exec());
  EXPECT_EQ(fs.min_internal_nodes, 36u);
  EXPECT_EQ(fs.order_root_first, (Order{1, 3, 5, 4, 6, 0, 2}));
  const auto ew = exact_window(f, identity(7), 3);
  EXPECT_EQ(ew.internal_nodes, 39u);
  EXPECT_EQ(ew.order_root_first, (Order{0, 1, 2, 3, 5, 4, 6}));
}

TEST_P(MigrationPins, MinimizeAutoUnbudgeted) {
  const tt::TruthTable f = pin_function();
  AutoMinimizeOptions opt;
  opt.exec = exec();
  const auto r = minimize_auto(f, rt::Budget{}, opt);
  EXPECT_EQ(r.outcome, rt::Outcome::kComplete);
  EXPECT_TRUE(r.value.optimal);
  EXPECT_EQ(r.value.internal_nodes, 36u);
  EXPECT_EQ(r.value.order_root_first, (Order{1, 3, 5, 4, 6, 0, 2}));
}

TEST_P(MigrationPins, MinimizeAutoBudgeted) {
  const tt::TruthTable f = pin_function();
  AutoMinimizeOptions opt;
  opt.exec = exec();
  const auto r =
      minimize_auto(f, rt::Budget::with_work_limit(3000), opt);
  EXPECT_EQ(r.outcome, rt::Outcome::kDeadline);
  EXPECT_EQ(r.value.internal_nodes, 38u);
  EXPECT_EQ(r.value.order_root_first, (Order{6, 5, 4, 2, 3, 0, 1}));
  EXPECT_EQ(r.value.dp_layers_completed, 1);
  EXPECT_EQ(r.value.lower_bound, 2u);
  EXPECT_EQ(r.stats.work_units, 2928u);
}

TEST_P(MigrationPins, DynamicSift) {
  const tt::TruthTable f = pin_function();
  bdd::Manager m(7);
  const bdd::NodeId root = m.from_truth_table(f);
  const auto r = bdd::sift_in_place(m, {root});
  EXPECT_EQ(r.final_nodes, 38u);
  EXPECT_EQ(r.swaps, 172u);
  EXPECT_EQ(r.passes, 2);
  EXPECT_TRUE(r.complete);
  EXPECT_EQ(m.order(), (Order{1, 2, 3, 0, 5, 4, 6}));
}

TEST_P(MigrationPins, QuantumOptObdd) {
  const tt::TruthTable f = pin_function();
  quantum::AccountingMinimumFinder finder(7.0);
  quantum::OptObddOptions opt;
  opt.alphas = {0.27};
  opt.finder = &finder;
  opt.exec = exec();
  const auto r = quantum::opt_obdd_minimize(f, opt);
  EXPECT_EQ(r.min_internal_nodes, 36u);
  EXPECT_EQ(r.order_root_first, (Order{1, 3, 5, 4, 6, 0, 2}));
  EXPECT_EQ(r.quantum.candidates_evaluated, 21u);
  EXPECT_NEAR(r.quantum.quantum_queries, 32.078, 0.01);
  EXPECT_EQ(r.classical_ops.table_cells, 20594u);
}

INSTANTIATE_TEST_SUITE_P(Threads, MigrationPins, ::testing::Values(1, 4));

// ---------------------------------------------------------------------------

TEST(StrategyRegistry, HasTenEntriesAndRejectsUnknown) {
  EXPECT_EQ(strategies().size(), 10u);
  EXPECT_EQ(find_strategy("no-such-strategy"), nullptr);
  for (const Strategy& s : strategies()) {
    const Strategy* found = find_strategy(s.name);
    ASSERT_NE(found, nullptr);
    EXPECT_EQ(found, &s);
  }
}

TEST(StrategyRegistry, EveryStrategyMatchesItsDirectCall) {
  const tt::TruthTable f = pin_function();
  const StrategyOptions opt;  // window 3, max_passes 8, 16 restarts, seed 42
  const EvalContext ctx;

  const auto run = [&](const char* name) {
    const Strategy* s = find_strategy(name);
    EXPECT_NE(s, nullptr) << name;
    return s->run(f, opt, ctx);
  };

  // Exact engines agree with each other and the registry.
  for (const char* exact : {"fs", "bnb", "brute", "quantum"}) {
    const StrategyResult r = run(exact);
    EXPECT_EQ(r.internal_nodes, 36u) << exact;
    EXPECT_TRUE(r.optimal) << exact;
    EXPECT_EQ(r.outcome, rt::Outcome::kComplete) << exact;
  }
  EXPECT_EQ(run("fs").order_root_first, (Order{1, 3, 5, 4, 6, 0, 2}));
  EXPECT_EQ(run("bnb").order_root_first, (Order{5, 3, 1, 4, 6, 0, 2}));

  // Heuristics reproduce their direct-call pins.
  EXPECT_EQ(run("sift").internal_nodes, 38u);
  EXPECT_EQ(run("sift").order_root_first, (Order{1, 2, 3, 0, 5, 4, 6}));
  EXPECT_EQ(run("window").internal_nodes, 39u);
  EXPECT_EQ(run("exact-window").internal_nodes, 39u);
  EXPECT_EQ(run("anneal").internal_nodes, 36u);
  EXPECT_EQ(run("anneal").order_root_first, (Order{5, 3, 1, 4, 6, 0, 2}));
  EXPECT_EQ(run("restarts").internal_nodes, 38u);
  EXPECT_EQ(run("restarts").order_root_first, (Order{3, 1, 5, 4, 2, 6, 0}));
  EXPECT_EQ(run("dynamic").internal_nodes, 38u);
  EXPECT_EQ(run("dynamic").order_root_first, (Order{1, 2, 3, 0, 5, 4, 6}));

  // Every strategy reports through the unified counters, and the
  // invariant queries == evals + memo_hits holds wherever queries flow.
  for (const Strategy& s : strategies()) {
    const StrategyResult r = s.run(f, opt, ctx);
    EXPECT_EQ(r.oracle.queries, r.oracle.evals + r.oracle.memo_hits)
        << s.name;
    EXPECT_FALSE(r.order_root_first.empty()) << s.name;
  }
}

// `fs` runs the governed ladder: a cancel that fires inside the DP (fault
// injection standing in for SIGINT) stops it, and the run still returns
// a valid order, that order's exact size and a certified lower bound.
TEST(StrategyRegistry, FsHonoursCancellation) {
  util::Xoshiro256 rng(31);
  const tt::TruthTable f = tt::random_function(8, rng);
  const Strategy* fs = find_strategy("fs");
  ASSERT_NE(fs, nullptr);
  const StrategyOptions opt;
  EvalContext ctx;
  const std::uint64_t optimum =
      core::fs_minimize(f).min_internal_nodes;

  // Count the run's governor checkpoints with a plan that never fires,
  // then cancel halfway through them: inside the dense DP.
  std::uint64_t total_checkpoints = 0;
  {
    rt::ScopedFaultPlan probe(rt::FaultPlan{});
    rt::Governor gov(rt::Budget{});
    ctx.gov = &gov;
    EXPECT_TRUE(fs->run(f, opt, ctx).optimal);
    total_checkpoints = probe.checkpoints_seen();
  }
  ASSERT_GT(total_checkpoints, 1u);

  rt::CancelToken cancel;
  rt::FaultPlan plan;
  plan.cancel_at_checkpoint = total_checkpoints / 2;
  plan.cancel = &cancel;
  rt::Budget budget;
  budget.cancel = &cancel;
  rt::ScopedFaultPlan scoped(plan);
  rt::Governor gov(budget);
  ctx.gov = &gov;
  const StrategyResult r = fs->run(f, opt, ctx);
  EXPECT_EQ(r.outcome, rt::Outcome::kCancelled);
  EXPECT_FALSE(r.optimal);
  ASSERT_EQ(r.order_root_first.size(), 8u);
  EXPECT_TRUE(util::is_permutation(r.order_root_first));
  EXPECT_EQ(r.internal_nodes,
            core::diagram_size_for_order(f, r.order_root_first));
  EXPECT_LE(r.lower_bound, optimum);
}

// A work limit trips `fs` deterministically; the registry run returns
// what the ladder called directly returns.
TEST(StrategyRegistry, FsHonoursAWorkLimit) {
  const tt::TruthTable f = pin_function();
  const StrategyOptions opt;
  rt::Governor gov(rt::Budget::with_work_limit(3000));
  EvalContext ctx;
  ctx.gov = &gov;
  const StrategyResult r = find_strategy("fs")->run(f, opt, ctx);
  EXPECT_EQ(r.outcome, rt::Outcome::kDeadline);
  EXPECT_FALSE(r.optimal);
  const auto direct =
      minimize_auto(f, rt::Budget::with_work_limit(3000), {});
  EXPECT_EQ(r.order_root_first, direct.value.order_root_first);
  EXPECT_EQ(r.internal_nodes, direct.value.internal_nodes);
  EXPECT_EQ(r.lower_bound, direct.value.lower_bound);
  EXPECT_EQ(r.run.work_units, direct.stats.work_units);
  EXPECT_EQ(r.internal_nodes,
            core::diagram_size_for_order(f, r.order_root_first));
}

TEST(CostOracle, MemoDeterminismAcrossThreadCounts) {
  const tt::TruthTable f = pin_function();
  Order ref_order;
  std::uint64_t ref_nodes = 0, ref_q = 0, ref_e = 0, ref_h = 0;
  for (const int threads : {1, 2, 4, 8}) {
    CostOracle oracle(f, core::DiagramKind::kBdd);
    EvalContext ctx;
    ctx.exec.num_threads = threads;
    const auto r = sift(oracle, identity(7), 8, ctx);
    const OracleStats& st = oracle.stats();
    EXPECT_EQ(st.queries, st.evals + st.memo_hits);
    if (threads == 1) {
      ref_order = r.order_root_first;
      ref_nodes = r.internal_nodes;
      ref_q = st.queries;
      ref_e = st.evals;
      ref_h = st.memo_hits;
      EXPECT_GT(st.memo_hits, 0u);  // sift revisits neighboring orders
    } else {
      EXPECT_EQ(r.order_root_first, ref_order) << threads;
      EXPECT_EQ(r.internal_nodes, ref_nodes) << threads;
      EXPECT_EQ(st.queries, ref_q) << threads;
      EXPECT_EQ(st.evals, ref_e) << threads;
      EXPECT_EQ(st.memo_hits, ref_h) << threads;
    }
  }
}

TEST(CostOracle, MemoNeverLies) {
  // Every memoized answer must equal a fresh evaluation.
  const tt::TruthTable f = pin_function();
  CostOracle memoized(f, core::DiagramKind::kBdd);
  std::vector<Order> orders;
  Order o = identity(7);
  for (int i = 0; i < 50; ++i) {  // successive permutations: all distinct
    orders.push_back(o);
    std::next_permutation(o.begin(), o.end());
  }
  for (int round = 0; round < 2; ++round)  // second round is all hits
    for (const Order& o : orders)
      EXPECT_EQ(memoized.size_for_order(o),
                core::diagram_size_for_order(f, o));
  EXPECT_EQ(memoized.stats().evals, memoized.stats().queries / 2);
  EXPECT_GE(memoized.stats().memo_hits, 50u);
}

TEST(LadderMemoization, SharedOracleSavesChainEvals) {
  // The budgeted ladder runs sifting then restarts on one oracle: some
  // orders recur, so strictly fewer chains run than queries are made,
  // and the memo hits are observable in the result.
  const tt::TruthTable f = pin_function();
  const auto r = minimize_auto(f, rt::Budget::with_work_limit(3000));
  EXPECT_GT(r.value.oracle.memo_hits, 0u);
  EXPECT_LT(r.value.oracle.evals, r.value.oracle.queries);
  EXPECT_EQ(r.value.oracle.evals + r.value.oracle.memo_hits,
            r.value.oracle.queries);
}

TEST(DynamicSiftGoverned, HonorsWorkLimitDeterministically) {
  const tt::TruthTable f = pin_function();
  // Reference: ungoverned result.
  bdd::Manager ref(7);
  const bdd::NodeId ref_root = ref.from_truth_table(f);
  const auto full = bdd::sift_in_place(ref, {ref_root});
  EXPECT_TRUE(full.complete);

  // A tiny work limit trips between variable sweeps; the result is
  // still a consistent manager and is identical at 1 and 4 threads.
  bdd::SiftResult tripped[2];
  Order orders[2];
  const int threads[2] = {1, 4};
  for (int i = 0; i < 2; ++i) {
    bdd::Manager m(7);
    const bdd::NodeId root = m.from_truth_table(f);
    rt::Governor gov(rt::Budget::with_work_limit(2000));
    EvalContext ctx;
    ctx.exec.num_threads = threads[i];
    ctx.gov = &gov;
    tripped[i] = bdd::sift_in_place(m, {root}, 4, ctx);
    orders[i] = m.order();
    EXPECT_FALSE(tripped[i].complete);
    EXPECT_LT(tripped[i].swaps, full.swaps);
    EXPECT_EQ(bdd::shared_reachable_size(m, {root}),
              tripped[i].final_nodes);
  }
  EXPECT_EQ(orders[0], orders[1]);
  EXPECT_EQ(tripped[0].final_nodes, tripped[1].final_nodes);
  EXPECT_EQ(tripped[0].swaps, tripped[1].swaps);
}

TEST(ParallelReachableSize, MatchesSerialOnLargeDag) {
  // Force the parallel BFS path (threshold is on the arena size) and
  // check it against the serial scan.
  util::Xoshiro256 rng(5);
  const tt::TruthTable f = tt::random_function(18, rng);
  bdd::Manager m(18);
  const bdd::NodeId root = m.from_truth_table(f);
  ASSERT_GE(m.pool_size(), std::size_t{1} << 14);
  par::ExecPolicy exec;
  exec.num_threads = 4;
  EXPECT_EQ(bdd::shared_reachable_size(m, {root}, exec),
            bdd::shared_reachable_size(m, {root}));
}

// ---------------------------------------------------------------------------
// Shared-prefix batches: sizes_for_orders runs its first miss (the spine)
// in full and every other miss only above the depth its order shares
// with the spine's.  Each size must equal a lone chain's, and the memo
// accounting must be the serial pre-pass's, for every batch shape.

/// One function to evaluate: a truth table (BDD/ZDD) or a value table
/// over {0, ..., 4} (MTBDD, up to 5 terminals).
struct Instance {
  core::DiagramKind kind;
  int n;
  tt::TruthTable f;
  std::vector<std::int64_t> values;

  std::unique_ptr<CostOracle> oracle() const {
    if (kind == core::DiagramKind::kMtbdd)
      return std::make_unique<CostOracle>(values, n);
    return std::make_unique<CostOracle>(f, kind);
  }
};

Instance make_instance(core::DiagramKind kind, int n) {
  util::Xoshiro256 rng(1000 + static_cast<std::uint64_t>(n));
  Instance in{kind, n, tt::random_function(n, rng), {}};
  if (kind == core::DiagramKind::kMtbdd)
    for (std::uint64_t a = 0; a < (std::uint64_t{1} << n); ++a)
      in.values.push_back(static_cast<std::int64_t>(rng.below(5)));
  return in;
}

Order shuffled(int n, util::Xoshiro256& rng) {
  Order o = identity(n);
  for (int i = n - 1; i > 0; --i)
    std::swap(o[static_cast<std::size_t>(i)],
              o[rng.below(static_cast<std::uint64_t>(i) + 1)]);
  return o;
}

/// Every insertion position of `v` in `order` (a sift step's batch).
std::vector<Order> insertion_set(const Order& order, int v) {
  Order work = order;
  work.erase(std::find(work.begin(), work.end(), v));
  std::vector<Order> batch;
  for (std::size_t p = 0; p <= work.size(); ++p) {
    Order c = work;
    c.insert(c.begin() + static_cast<std::ptrdiff_t>(p), v);
    batch.push_back(std::move(c));
  }
  return batch;
}

/// Every permutation of `order`'s slots [s, s + w) (a window step).
std::vector<Order> window_set(const Order& order, int s, int w) {
  Order slot(order.begin() + s, order.begin() + s + w);
  std::sort(slot.begin(), slot.end());
  std::vector<Order> batch;
  do {
    Order c = order;
    std::copy(slot.begin(), slot.end(), c.begin() + s);
    batch.push_back(std::move(c));
  } while (std::next_permutation(slot.begin(), slot.end()));
  return batch;
}

std::vector<std::vector<Order>> batch_shapes(int n) {
  util::Xoshiro256 rng(77 + static_cast<std::uint64_t>(n));
  const Order start = shuffled(n, rng);
  std::vector<std::vector<Order>> batches;
  for (int v = 0; v < n; ++v) batches.push_back(insertion_set(start, v));
  for (const int w : {3, 4})
    for (int s = 0; s + w <= n; ++s)
      batches.push_back(window_set(start, s, w));
  std::vector<Order> restarts;  // unrelated orders: d = 0 almost always
  for (int t = 0; t < 8; ++t) restarts.push_back(shuffled(n, rng));
  batches.push_back(restarts);
  // Duplicates: a repeated spine (d = n) and a repeated later candidate.
  std::vector<Order> dups = insertion_set(shuffled(n, rng), 0);
  dups.push_back(dups.front());
  dups.push_back(dups.back());
  batches.push_back(dups);
  batches.push_back({shuffled(n, rng)});  // a single miss
  return batches;
}

/// Sizes and counter deltas of one batch.
struct BatchRun {
  std::vector<std::uint64_t> sizes;
  std::uint64_t queries, evals, memo_hits;
};

BatchRun run_batch(CostOracle& oracle, const std::vector<Order>& batch,
                   int threads, rt::Governor* gov = nullptr) {
  const OracleStats before = oracle.stats();
  EvalContext ctx;
  ctx.exec.num_threads = threads;
  ctx.gov = gov;
  BatchRun r;
  r.sizes = oracle.sizes_for_orders(batch, ctx);
  r.queries = oracle.stats().queries - before.queries;
  r.evals = oracle.stats().evals - before.evals;
  r.memo_hits = oracle.stats().memo_hits - before.memo_hits;
  return r;
}

TEST(SharedPrefixBatches, MatchOneLoneChainPerCandidate) {
  for (const core::DiagramKind kind :
       {core::DiagramKind::kBdd, core::DiagramKind::kZdd,
        core::DiagramKind::kMtbdd}) {
    for (int n = 1; n <= 12; ++n) {
      const Instance in = make_instance(kind, n);
      const std::vector<std::vector<Order>> batches = batch_shapes(n);
      // Reference: one size_for_order per candidate on a fresh oracle.
      const std::unique_ptr<CostOracle> lone = in.oracle();
      if (kind == core::DiagramKind::kMtbdd && n >= 4) {
        ASSERT_GT(lone->base().num_terminals, 2u);
      }
      std::vector<std::vector<std::uint64_t>> want;
      for (const std::vector<Order>& b : batches) {
        want.emplace_back();
        for (const Order& o : b) want.back().push_back(lone->size_for_order(o));
      }
      std::vector<BatchRun> serial;
      for (const int threads : {1, 2, 4}) {
        SCOPED_TRACE(testing::Message()
                     << "kind=" << static_cast<int>(kind) << " n=" << n
                     << " threads=" << threads);
        const std::unique_ptr<CostOracle> batched = in.oracle();
        for (std::size_t k = 0; k < batches.size(); ++k) {
          const BatchRun r = run_batch(*batched, batches[k], threads);
          EXPECT_EQ(r.sizes, want[k]) << "batch " << k;
          EXPECT_EQ(r.queries, batches[k].size());
          EXPECT_EQ(r.evals + r.memo_hits, r.queries);
          if (k == 0) {
            EXPECT_EQ(r.memo_hits, 0u);  // fresh memo: all miss
          }
          if (threads == 1) {
            serial.push_back(r);
          } else {
            EXPECT_EQ(r.evals, serial[k].evals) << "batch " << k;
            EXPECT_EQ(r.memo_hits, serial[k].memo_hits) << "batch " << k;
          }
        }
        // Duplicates inside one batch are all misses: the pre-pass looks
        // up before anything of the batch is stored.
        const std::unique_ptr<CostOracle> fresh = in.oracle();
        const std::vector<Order>& dups = batches[batches.size() - 2];
        const BatchRun d = run_batch(*fresh, dups, threads);
        EXPECT_EQ(d.sizes, want[batches.size() - 2]);
        EXPECT_EQ(d.evals, dups.size());
      }
    }
  }
}

TEST(SharedPrefixBatches, MemoHitsMoveTheSpineToALaterCandidate) {
  for (const core::DiagramKind kind :
       {core::DiagramKind::kBdd, core::DiagramKind::kZdd,
        core::DiagramKind::kMtbdd}) {
    const Instance in = make_instance(kind, 9);
    util::Xoshiro256 rng(5);
    const std::vector<Order> batch = insertion_set(shuffled(9, rng), 4);
    const std::unique_ptr<CostOracle> lone = in.oracle();
    std::vector<std::uint64_t> want;
    for (const Order& o : batch) want.push_back(lone->size_for_order(o));
    for (const int threads : {1, 2, 4}) {
      // The first candidate is a hit, so the spine is the second.
      const std::unique_ptr<CostOracle> first_hit = in.oracle();
      first_hit->size_for_order(batch.front());
      const BatchRun a = run_batch(*first_hit, batch, threads);
      EXPECT_EQ(a.sizes, want);
      EXPECT_EQ(a.memo_hits, 1u);
      EXPECT_EQ(a.evals, batch.size() - 1);
      // All but the last are hits: a single miss runs alone.
      const std::unique_ptr<CostOracle> one_miss = in.oracle();
      for (std::size_t i = 0; i + 1 < batch.size(); ++i)
        one_miss->size_for_order(batch[i]);
      const BatchRun b = run_batch(*one_miss, batch, threads);
      EXPECT_EQ(b.sizes, want);
      EXPECT_EQ(b.evals, 1u);
      EXPECT_EQ(b.memo_hits, batch.size() - 1);
    }
  }
}

TEST(SharedPrefixBatches, CancelledMidSpineReturnsOnlyExactOrAborted) {
  util::Xoshiro256 rng(16);
  const tt::TruthTable f = tt::random_function(16, rng);
  const std::vector<Order> batch = insertion_set(shuffled(16, rng), 3);
  CostOracle lone(f, core::DiagramKind::kBdd);
  std::vector<std::uint64_t> want;
  for (const Order& o : batch) want.push_back(lone.size_for_order(o));
  for (const int threads : {1, 4}) {
    for (const int delay_us : {0, 50, 200, 1000, 5000}) {
      SCOPED_TRACE(testing::Message()
                   << "threads=" << threads << " delay_us=" << delay_us);
      CostOracle oracle(f, core::DiagramKind::kBdd);
      rt::CancelToken token;
      rt::Budget budget;
      budget.cancel = &token;
      rt::Governor gov(budget);
      std::thread stopper([&] {
        std::this_thread::sleep_for(std::chrono::microseconds(delay_us));
        gov.stop(rt::Outcome::kCancelled);
      });
      const BatchRun r = run_batch(oracle, batch, threads, &gov);
      stopper.join();
      std::uint64_t finished = 0;
      for (std::size_t i = 0; i < batch.size(); ++i) {
        if (r.sizes[i] == core::kAbortedSize) continue;
        EXPECT_EQ(r.sizes[i], want[i]) << "candidate " << i;
        ++finished;
      }
      // A stop before the admission admits nothing; after it, all.
      EXPECT_TRUE(r.queries == 0 || r.queries == batch.size());
      EXPECT_EQ(r.memo_hits, 0u);
      EXPECT_EQ(r.evals, finished);  // aborted chains are not counted
      // ...nor memoized: an ungoverned rerun evaluates them for real.
      const BatchRun again = run_batch(oracle, batch, threads);
      EXPECT_EQ(again.sizes, want);
    }
  }
}

// ---------------------------------------------------------------------------
// Seeding pins, computed before batches shared their bottom levels: the
// seed order, its bound and the memo accounting (which chains run is
// decided by the serial pre-pass) must not move at any thread count.

struct SeedPin {
  const char* seed;
  std::uint64_t upper_bound, queries, evals, memo_hits;
  Order order;
};

TEST(SeedPins, SharedPrefixesKeepSeedsAndAccounting) {
  const struct {
    const char* name;
    tt::TruthTable f;
    std::vector<SeedPin> pins;
  } cases[] = {
      {"hwb12",
       tt::hidden_weighted_bit(12),
       {{"sift", 137, 577, 435, 142, {0, 11, 10, 9, 1, 8, 2, 7, 3, 4, 5, 6}},
        {"window", 238, 61, 42, 19, {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}},
        {"restarts", 181, 16, 16, 0, {2, 10, 6, 0, 11, 1, 7, 8, 5, 9, 3, 4}}}},
      {"adder12",
       tt::adder_carry(12),
       {{"sift", 17, 145, 122, 23, {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}},
        {"window", 17, 61, 42, 19, {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}},
        {"restarts", 29, 16, 16, 0, {10, 7, 11, 4, 6, 5, 1, 8, 0, 3, 2, 9}}}},
  };
  for (const auto& c : cases) {
    for (const SeedPin& pin : c.pins) {
      for (const int threads : {1, 4}) {
        SCOPED_TRACE(testing::Message() << c.name << " " << pin.seed
                                        << " threads=" << threads);
        CostOracle oracle(c.f, core::DiagramKind::kBdd);
        EvalContext ctx;
        ctx.exec.num_threads = threads;
        const PruneSeedResult s =
            seed_prune_bound(oracle, pin.seed, 8, 16, 42, ctx);
        EXPECT_EQ(s.order_root_first, pin.order);
        EXPECT_EQ(s.upper_bound, pin.upper_bound);
        EXPECT_EQ(oracle.stats().queries, pin.queries);
        EXPECT_EQ(oracle.stats().evals, pin.evals);
        EXPECT_EQ(oracle.stats().memo_hits, pin.memo_hits);
      }
    }
  }
}

TEST(SeedPins, WorkLimitedSiftAdmitsTheSameWork) {
  for (const tt::TruthTable& f :
       {tt::hidden_weighted_bit(12), tt::adder_carry(12)}) {
    for (const int threads : {1, 4}) {
      CostOracle oracle(f, core::DiagramKind::kBdd);
      rt::Governor gov(rt::Budget::with_work_limit(300000));
      EvalContext ctx;
      ctx.exec.num_threads = threads;
      ctx.gov = &gov;
      const OrderSearchResult r = sift(oracle, identity(12), 8, ctx);
      EXPECT_EQ(gov.outcome(), rt::Outcome::kDeadline);
      EXPECT_EQ(r.orders_evaluated, 36u);
      EXPECT_EQ(gov.stats().work_units, 294840u);
      EXPECT_EQ(oracle.stats().queries, 36u);
      EXPECT_EQ(oracle.stats().evals, 31u);
      EXPECT_EQ(oracle.stats().memo_hits, 5u);
    }
  }
}

TEST(GovernedSift, OneMillisecondDeadlineStops) {
  // Serial batch admissions are far fewer than check_interval polls; they
  // read the clock themselves, so a sift on 16 variables (hundreds of
  // milliseconds unbudgeted) stops at its deadline.
  util::Xoshiro256 rng(16);
  const tt::TruthTable f = tt::random_function(16, rng);
  rt::Budget budget;
  budget.deadline_ms = 1;
  ASSERT_EQ(budget.check_interval, 1024u);
  rt::Governor gov(budget);
  CostOracle oracle(f, core::DiagramKind::kBdd);
  EvalContext ctx;
  ctx.gov = &gov;
  const OrderSearchResult r = sift(oracle, identity(16), 8, ctx);
  EXPECT_EQ(gov.outcome(), rt::Outcome::kDeadline);
  EXPECT_FALSE(r.order_root_first.empty());
}

// At n = 20 a packed order no longer fits the memo's 96-bit key, so
// orders are keyed by their rank: sift's batches hit the order they
// start from.  Before, every query at n >= 20 evaluated (0 hits).
TEST(SeedPins, MemoKeysTwentyVariableOrders) {
  util::Xoshiro256 rng(20);
  const tt::TruthTable f = tt::random_function(20, rng);
  for (const int threads : {1, 4}) {
    SCOPED_TRACE(testing::Message() << "threads=" << threads);
    CostOracle oracle(f, core::DiagramKind::kBdd);
    EXPECT_TRUE(oracle.memo_enabled());
    rt::Governor gov(
        rt::Budget::with_work_limit(43 * oracle.chain_eval_cost()));
    EvalContext ctx;
    ctx.exec.num_threads = threads;
    ctx.gov = &gov;
    const OrderSearchResult r = sift(oracle, identity(20), 8, ctx);
    EXPECT_EQ(gov.outcome(), rt::Outcome::kDeadline);
    EXPECT_EQ(r.orders_evaluated, 43u);
    EXPECT_EQ(oracle.stats().queries, 43u);
    EXPECT_EQ(oracle.stats().evals, 39u);
    EXPECT_EQ(oracle.stats().memo_hits, 4u);
  }
}

// The FS* engines read the clock at every DP state, so a deadline that
// falls inside a long layer stops the run within a few states' time.
// Sampling the clock every check_interval (1024) polls let it run on
// for hundreds of states, until the next layer's admission.
TEST(GovernedDp, DeadlineInsideALayerStopsWithinAFewStates) {
  using Clock = std::chrono::steady_clock;
  const auto ms_since = [](Clock::time_point t0) {
    return std::chrono::duration<double, std::milli>(Clock::now() - t0)
        .count();
  };
  util::Xoshiro256 rng(0xdead);
  const int n = 16;
  const tt::TruthTable f = tt::random_function(n, rng);
  const core::PrefixTable base = core::initial_table(f);
  // One layer-1 state: a compaction of the whole base, the largest table
  // any DP state reads.  Later states read fewer cells.
  std::vector<double> samples;
  core::PrefixTable out;
  ds::UniqueTable dedup;
  for (int v = 0; v < 5; ++v) {
    const Clock::time_point t0 = Clock::now();
    core::compact_into(out, base, v, core::DiagramKind::kBdd, nullptr,
                       nullptr, &dedup);
    samples.push_back(ms_since(t0));
  }
  std::sort(samples.begin(), samples.end());
  const double state_ms = samples[samples.size() / 2];
  // Serial, with n = 16: layers 1-2 of the dense DP take about 136
  // layer-1 states' time and layer 3 (560 states, under 1024, so sampled
  // polling read no clock inside it) about 240 more.  1 ms: inside layer
  // 1 of the dense DP and inside the DP-greedy step (about 136 state
  // times) of the pruned one.  150 states in: early in layer 3 of the
  // dense DP, where sampled polling ran on for 140 to 220 state times
  // (49 to 77 ms on a 4-vCPU Xeon), and past the DP-greedy step in the
  // pruned one.
  const std::uint64_t deadlines[] = {
      1,
      std::max<std::uint64_t>(1, static_cast<std::uint64_t>(150 * state_ms))};
  for (const std::uint64_t deadline_ms : deadlines) {
    rt::Budget budget;
    budget.deadline_ms = deadline_ms;
    ASSERT_EQ(budget.check_interval, 1024u);
    for (const par::PruneMode prune :
         {par::PruneMode::kOff, par::PruneMode::kBounds}) {
      SCOPED_TRACE(testing::Message()
                   << "pruned=" << (prune == par::PruneMode::kBounds)
                   << " state_ms=" << state_ms
                   << " deadline_ms=" << deadline_ms);
      par::ExecPolicy exec;
      exec.num_threads = 1;
      exec.prune = prune;
      const Clock::time_point t0 = Clock::now();
      rt::Governor gov(budget);
      const core::FsStarResult r = core::fs_star(
          base, util::full_mask(n), n, core::DiagramKind::kBdd, nullptr, exec,
          &gov);
      const double elapsed_ms = ms_since(t0);
      EXPECT_EQ(gov.outcome(), rt::Outcome::kDeadline);
      EXPECT_LT(r.completed_layers, n);
      // Slack for preemption on a loaded machine: 32 state times and
      // 10 ms (about 21 ms), still under the overshoot of sampled polling.
      EXPECT_LT(elapsed_ms,
                static_cast<double>(deadline_ms) + 32 * state_ms + 10.0);
    }
  }
}

}  // namespace
}  // namespace ovo::reorder

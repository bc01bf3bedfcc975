// Tests for the bound-pruned sparse FS* DP (ExecPolicy.prune = kBounds):
// bit-identity with the dense DP over exhaustive small-n sweeps and
// randomized larger functions at every thread count, ledger consistency,
// the certified lower bound, the small-n serial fallback, governed
// admission, fault injection (cancellation and allocation failure) on the
// sparse path, and the DP-greedy incumbent (bit-identity, its bound, a
// pinned case where it beats sift, and resume).  Run under the asan/tsan
// presets by tools/ci.sh.

#include <gtest/gtest.h>

#include <cstdint>
#include <new>
#include <vector>

#include "core/fs_star.hpp"
#include "core/minimize.hpp"
#include "ds/sparse_index.hpp"
#include "parallel/exec_policy.hpp"
#include "parallel/thread_pool.hpp"
#include "reorder/minimize_auto.hpp"
#include "reorder/oracle.hpp"
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

/// The dense ledger identities every pruned run must satisfy.
void expect_consistent_ledger(const core::PruneStats& p) {
  EXPECT_EQ(p.states_generated, p.states_pruned + p.states_surviving);
  EXPECT_EQ(p.states_enumerated(), p.states_generated + p.states_dead);
  EXPECT_LE(p.sparse_cells, p.dense_cells);
}

// ------------------------------------------------------------ SparseIndex --

TEST(SparseIndex, RankContainsAndNpos) {
  const std::vector<std::uint64_t> keys = {0b001, 0b100, 0b110, 0b1011};
  const ds::SparseIndex idx(keys);
  EXPECT_EQ(idx.size(), 4u);
  EXPECT_FALSE(idx.empty());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(idx.rank(keys[i]), i);
    EXPECT_TRUE(idx.contains(keys[i]));
  }
  for (const std::uint64_t missing : {0ull, 0b010ull, 0b111ull, ~0ull}) {
    EXPECT_EQ(idx.rank(missing), ds::SparseIndex::npos);
    EXPECT_FALSE(idx.contains(missing));
  }
  const std::vector<std::uint64_t> none;
  EXPECT_TRUE(ds::SparseIndex(none).empty());
}

// ----------------------------------------------------- differential sweeps --

// Every Boolean function on 3 variables, serial: the pruned DP must
// return the dense optimum, order, and tie-breaks for all of them.
TEST(FsPruneDifferential, ExhaustiveN3AllFunctions) {
  for (std::uint32_t bits = 0; bits < 256; ++bits) {
    const tt::TruthTable f = tt::TruthTable::tabulate(
        3, [&](std::uint64_t a) { return (bits >> a) & 1u; });
    const core::MinimizeResult dense = core::fs_minimize(f);
    const core::MinimizeResult pruned = core::fs_minimize(
        f, core::DiagramKind::kBdd,
        policy(1, par::PruneMode::kBounds));
    ASSERT_EQ(pruned.min_internal_nodes, dense.min_internal_nodes)
        << "bits=" << bits;
    ASSERT_EQ(pruned.order_root_first, dense.order_root_first)
        << "bits=" << bits;
    expect_consistent_ledger(pruned.ops.prune);
  }
}

// Every Boolean function on 4 variables, serial (65536 functions; each
// DP is a few hundred cells, so the sweep stays cheap).
TEST(FsPruneDifferential, ExhaustiveN4AllFunctions) {
  for (std::uint64_t bits = 0; bits < 65536; ++bits) {
    const tt::TruthTable f = tt::TruthTable::tabulate(
        4, [&](std::uint64_t a) { return (bits >> a) & 1u; });
    const core::MinimizeResult dense = core::fs_minimize(f);
    const core::MinimizeResult pruned = core::fs_minimize(
        f, core::DiagramKind::kBdd,
        policy(1, par::PruneMode::kBounds));
    ASSERT_EQ(pruned.min_internal_nodes, dense.min_internal_nodes)
        << "bits=" << bits;
    ASSERT_EQ(pruned.order_root_first, dense.order_root_first)
        << "bits=" << bits;
  }
}

// Random functions up to n = 10 across thread counts; n >= 7 clears the
// serial-fallback threshold, so threads > 1 genuinely fans the pruned
// layers out.
TEST(FsPruneDifferential, RandomizedAcrossThreadsAndPipelines) {
  util::Xoshiro256 rng(0xbead);
  for (const int n : {5, 6, 7, 8, 10}) {
    const tt::TruthTable f = tt::random_function(n, rng);
    const core::MinimizeResult dense = core::fs_minimize(f);
    for (const int threads : {1, 2, 4, 8}) {
      const core::MinimizeResult pruned = core::fs_minimize(
          f, core::DiagramKind::kBdd, policy(threads, par::PruneMode::kBounds));
      ASSERT_EQ(pruned.min_internal_nodes, dense.min_internal_nodes)
          << "n=" << n << " threads=" << threads;
      ASSERT_EQ(pruned.order_root_first, dense.order_root_first)
          << "n=" << n << " threads=" << threads;
      expect_consistent_ledger(pruned.ops.prune);
    }
  }
}

// ZDD kind goes through the same pruned kernels.
TEST(FsPruneDifferential, ZddKindMatchesDense) {
  util::Xoshiro256 rng(0x5eed);
  const tt::TruthTable f = tt::random_sparse_function(7, 11, rng);
  const core::MinimizeResult dense =
      core::fs_minimize(f, core::DiagramKind::kZdd);
  for (const int threads : {1, 4}) {
    const core::MinimizeResult pruned = core::fs_minimize(
        f, core::DiagramKind::kZdd,
        policy(threads, par::PruneMode::kBounds));
    EXPECT_EQ(pruned.min_internal_nodes, dense.min_internal_nodes);
    EXPECT_EQ(pruned.order_root_first, dense.order_root_first);
  }
}

// The tightest admissible incumbent — the exact optimum — must keep the
// optimal chain alive (pruning cuts strictly-greater bounds only).
TEST(FsPruneDifferential, TightUpperBoundKeepsTheOptimum) {
  util::Xoshiro256 rng(0x7137);
  for (int trial = 0; trial < 3; ++trial) {
    const tt::TruthTable f = tt::random_function(8, rng);
    const core::MinimizeResult dense = core::fs_minimize(f);
    for (const int threads : {1, 4}) {
      const core::MinimizeResult pruned = core::fs_minimize(
          f, core::DiagramKind::kBdd,
          policy(threads, par::PruneMode::kBounds),
          dense.min_internal_nodes);
      EXPECT_EQ(pruned.min_internal_nodes, dense.min_internal_nodes);
      EXPECT_EQ(pruned.order_root_first, dense.order_root_first);
      EXPECT_EQ(pruned.ops.prune.upper_bound, dense.min_internal_nodes);
    }
  }
}

// ------------------------------------------------------- ledger and bound --

TEST(FsPruneLedger, CountsCoverTheSubsetLatticeAndBoundIsExact) {
  util::Xoshiro256 rng(0xcafe);
  const int n = 8;
  const tt::TruthTable f = tt::random_function(n, rng);
  core::OpCounter ops;
  const core::FsStarResult r = core::fs_star(
      core::initial_table(f), util::full_mask(n), n, core::DiagramKind::kBdd,
      &ops, policy(1, par::PruneMode::kBounds));
  expect_consistent_ledger(r.prune);
  // Enumerated states cover every non-empty subset of the lattice.
  std::uint64_t lattice = 0;
  for (int k = 1; k <= n; ++k) lattice += util::binomial_u64(n, k);
  EXPECT_EQ(r.prune.states_enumerated(), lattice);
  EXPECT_GT(r.prune.states_surviving, 0u);
  // A completed pruned run's certified bound IS the optimum, and the
  // engine's ledger reaches the caller through the OpCounter.
  EXPECT_EQ(r.certified_lower_bound, r.tables.at(util::full_mask(n)).mincost());
  EXPECT_EQ(ops.prune.states_generated, r.prune.states_generated);
  // The self-seeded incumbent is a real chain cost: optimum <= ub.
  EXPECT_GE(r.prune.upper_bound, r.certified_lower_bound);
}

TEST(FsPruneLedger, DenseModeLeavesLedgerUntouched) {
  util::Xoshiro256 rng(0xd00d);
  const tt::TruthTable f = tt::random_function(6, rng);
  const core::MinimizeResult dense = core::fs_minimize(f);
  EXPECT_EQ(dense.ops.prune.states_enumerated(), 0u);
  EXPECT_EQ(dense.ops.prune.upper_bound, 0u);
  // kOff is the default: an explicit kOff policy is the same engine.
  const core::MinimizeResult off = core::fs_minimize(
      f, core::DiagramKind::kBdd, policy(1, par::PruneMode::kOff));
  EXPECT_EQ(off.min_internal_nodes, dense.min_internal_nodes);
  EXPECT_EQ(off.order_root_first, dense.order_root_first);
  EXPECT_EQ(off.ops.table_cells, dense.ops.table_cells);
}

// Stop-early runs must keep the dense all-subsets contract even when the
// policy asks for pruning (partition searches read every stop-layer
// subset).
TEST(FsPruneLedger, StopEarlyRunsIgnoreThePruneFlag) {
  const tt::TruthTable f = tt::majority(5);
  const util::Mask all = util::full_mask(5);
  for (int k = 1; k < 5; ++k) {
    const core::FsStarResult r =
        core::fs_star(core::initial_table(f), all, k, core::DiagramKind::kBdd,
                      nullptr, policy(1, par::PruneMode::kBounds));
    EXPECT_EQ(r.tables.size(), util::binomial_u64(5, k)) << "k=" << k;
    EXPECT_EQ(r.prune.states_enumerated(), 0u) << "k=" << k;
  }
}

// --------------------------------------------------- fallback and routing --

// Below the serial-fallback work threshold a threads=4 run must not
// touch the scheduler at all: zero graphs, zero chunks.
TEST(FsPruneRouting, SmallInstancesFallBackToSerial) {
  util::Xoshiro256 rng(0xfa11);
  const tt::TruthTable small = tt::random_function(6, rng);
  const par::SchedStats before = par::sched_stats();
  const core::MinimizeResult r =
      core::fs_minimize(small, core::DiagramKind::kBdd, policy(4));
  const par::SchedStats delta = par::sched_stats() - before;
  EXPECT_EQ(delta.graphs, 0u);
  EXPECT_EQ(delta.chunks, 0u);
  EXPECT_EQ(r.min_internal_nodes, core::fs_minimize(small).min_internal_nodes);

  // One variable more clears the threshold: one region per layer of
  // more than one state (layers 1..6 of 7).
  const tt::TruthTable big = tt::random_function(7, rng);
  const par::SchedStats before2 = par::sched_stats();
  const core::MinimizeResult r2 =
      core::fs_minimize(big, core::DiagramKind::kBdd, policy(4));
  const par::SchedStats delta2 = par::sched_stats() - before2;
  EXPECT_EQ(delta2.graphs, 6u);
  EXPECT_GT(delta2.chunks, 0u);
  EXPECT_EQ(r2.min_internal_nodes, core::fs_minimize(big).min_internal_nodes);
}

// A pruned run under deterministic budget limits runs the same layer loop
// as an ungoverned one: a roomy work limit changes neither the regions
// issued nor the order and size returned.
TEST(FsPruneRouting, DeterministicLimitsForceTheBarrierEngine) {
  util::Xoshiro256 rng(0xbead);
  const tt::TruthTable f = tt::random_function(7, rng);
  const par::ExecPolicy exec = policy(4, par::PruneMode::kBounds);

  const par::SchedStats before = par::sched_stats();
  core::OpCounter ops;
  rt::Governor roomy(rt::Budget::with_work_limit(~std::uint64_t{0} >> 1));
  const core::FsStarResult governed =
      core::fs_star(core::initial_table(f), util::full_mask(7), 7,
                    core::DiagramKind::kBdd, &ops, exec, &roomy);
  const par::SchedStats delta = par::sched_stats() - before;
  EXPECT_GT(delta.graphs, 1u);  // one region per parallel layer

  const par::SchedStats before2 = par::sched_stats();
  const core::FsStarResult free_run =
      core::fs_star(core::initial_table(f), util::full_mask(7), 7,
                    core::DiagramKind::kBdd, nullptr, exec);
  const par::SchedStats delta2 = par::sched_stats() - before2;
  EXPECT_EQ(delta2.graphs, delta.graphs);

  EXPECT_EQ(governed.tables.at(util::full_mask(7)).mincost(),
            free_run.tables.at(util::full_mask(7)).mincost());
  EXPECT_EQ(core::reconstruct_block_order(governed, util::full_mask(7)),
            core::reconstruct_block_order(free_run, util::full_mask(7)));
}

// ------------------------------------------------------- governed pruning --

// A deterministic work-limit trip mid-DP must return the same partial
// ledger, certified bound, and salvaged order at every thread count.
TEST(FsPruneGoverned, WorkLimitTripIsThreadCountInvariant) {
  util::Xoshiro256 rng(0x90b0);
  const tt::TruthTable f = tt::random_function(9, rng);
  const std::uint64_t optimal = core::fs_minimize(f).min_internal_nodes;

  rt::Budget b;
  b.work_limit = 30000;  // trips a few layers into the n=9 pruned DP
  reorder::AutoMinimizeOptions opt;
  opt.exec = policy(1, par::PruneMode::kBounds);

  const auto reference = reorder::minimize_auto(f, b, opt);
  EXPECT_EQ(reference.outcome, rt::Outcome::kDeadline);
  EXPECT_FALSE(reference.value.optimal);
  EXPECT_LE(reference.value.lower_bound, optimal);
  EXPECT_GE(reference.value.internal_nodes, optimal);
  expect_consistent_ledger(reference.value.ops.prune);

  for (const int threads : {2, 4, 8}) {
    reorder::AutoMinimizeOptions t_opt;
    t_opt.exec = policy(threads, par::PruneMode::kBounds);
    const auto r = reorder::minimize_auto(f, b, t_opt);
    EXPECT_EQ(r.outcome, reference.outcome) << "threads=" << threads;
    EXPECT_EQ(r.value.order_root_first, reference.value.order_root_first)
        << "threads=" << threads;
    EXPECT_EQ(r.value.internal_nodes, reference.value.internal_nodes)
        << "threads=" << threads;
    EXPECT_EQ(r.value.lower_bound, reference.value.lower_bound)
        << "threads=" << threads;
    EXPECT_EQ(r.value.dp_layers_completed,
              reference.value.dp_layers_completed)
        << "threads=" << threads;
    EXPECT_EQ(r.value.ops.prune.states_surviving,
              reference.value.ops.prune.states_surviving)
        << "threads=" << threads;
  }
}

// The governed ladder with pruning on and a roomy budget completes and
// proves optimality, with the prune ledger in the result.
TEST(FsPruneGoverned, RoomyBudgetCompletesOptimally) {
  util::Xoshiro256 rng(0x600d);
  const tt::TruthTable f = tt::random_function(8, rng);
  const std::uint64_t optimal = core::fs_minimize(f).min_internal_nodes;
  reorder::AutoMinimizeOptions opt;
  opt.exec = policy(4, par::PruneMode::kBounds);
  const auto r = reorder::minimize_auto(f, rt::Budget{}, opt);
  EXPECT_EQ(r.outcome, rt::Outcome::kComplete);
  EXPECT_TRUE(r.value.optimal);
  EXPECT_EQ(r.value.internal_nodes, optimal);
  EXPECT_EQ(r.value.lower_bound, optimal);
  expect_consistent_ledger(r.value.ops.prune);
  EXPECT_GT(r.value.ops.prune.states_surviving, 0u);
}

// ---------------------------------------------------------------- faults --

// Cancellation mid-DP on the pruned 4-thread path: the layer drains, the
// ladder salvages a valid order, the prune ledger stays consistent, and
// the interrupted run still reports a certified lower bound.
TEST(FsPruneFaults, CancelMidDagKeepsLedgerAndBoundConsistent) {
  const tt::TruthTable f = tt::hidden_weighted_bit(10);
  const std::uint64_t optimal = core::fs_minimize(f).min_internal_nodes;

  rt::CancelToken token;
  rt::FaultPlan plan;
  plan.cancel_at_checkpoint = 100;  // lands inside the pruned DP
  plan.cancel = &token;
  rt::ScopedFaultPlan scoped(plan);

  rt::Budget b;
  b.cancel = &token;
  reorder::AutoMinimizeOptions opt;
  opt.exec = policy(4, par::PruneMode::kBounds);
  opt.prune_seed = "none";  // keep every checkpoint inside the DP
  const auto r = reorder::minimize_auto(f, b, opt);
  EXPECT_EQ(r.outcome, rt::Outcome::kCancelled);
  EXPECT_FALSE(r.value.optimal);
  EXPECT_LT(r.value.dp_layers_completed, 10);
  ASSERT_TRUE(util::is_permutation(r.value.order_root_first));
  EXPECT_EQ(core::diagram_size_for_order(f, r.value.order_root_first),
            r.value.internal_nodes);
  expect_consistent_ledger(r.value.ops.prune);
  EXPECT_GT(r.value.lower_bound, 0u);
  EXPECT_LE(r.value.lower_bound, optimal);
  EXPECT_GE(scoped.checkpoints_seen(), 100u);
}

// Allocation faults injected under the pruned 4-thread DP: the
// bad_alloc drains the layer, propagates exactly once, and a rerun with
// the plan gone is bit-identical to the dense serial reference.
TEST(FsPruneFaults, AllocFaultDrainsAndLeavesNoCorruption) {
  util::Xoshiro256 rng(0xa110c);
  const tt::TruthTable f = tt::random_function(8, rng);
  const core::MinimizeResult serial = core::fs_minimize(f);
  const par::ExecPolicy exec = policy(4, par::PruneMode::kBounds);

  std::uint64_t events = 0;
  {
    rt::ScopedFaultPlan probe(rt::FaultPlan{});
    const core::MinimizeResult r =
        core::fs_minimize(f, core::DiagramKind::kBdd, exec);
    EXPECT_EQ(r.min_internal_nodes, serial.min_internal_nodes);
    events = probe.allocations_seen();
  }
  ASSERT_GT(events, 0u);

  for (const std::uint64_t k : {std::uint64_t{1}, events / 2, events}) {
    rt::FaultPlan plan;
    plan.fail_alloc_at = k;
    rt::ScopedFaultPlan scoped(plan);
    try {
      core::fs_minimize(f, core::DiagramKind::kBdd, exec);
      FAIL() << "allocation " << k << " did not fail";
    } catch (const std::bad_alloc&) {
      // expected
    }
  }

  const core::MinimizeResult again =
      core::fs_minimize(f, core::DiagramKind::kBdd, exec);
  EXPECT_EQ(again.min_internal_nodes, serial.min_internal_nodes);
  EXPECT_EQ(again.order_root_first, serial.order_root_first);
}


// ------------------------------------------------------------------ pins --

// The figures below are what the unbounded candidate sweep produces.
// Cutting losing candidates short must change no prune decision and no
// Theorem 5 count, at any thread count.

/// A pruned run's whole ledger and Theorem 5 counts.
struct PrunedRunPin {
  core::PruneStats prune;
  std::uint64_t certified_lower_bound = 0;
  std::uint64_t table_cells = 0;
  std::uint64_t compactions = 0;
  std::uint64_t peak_cells = 0;
};

/// fs_star with a sift-seeded incumbent, as `ovo order --prune bounds`
/// runs it.
PrunedRunPin sift_seeded_pruned_run(const tt::TruthTable& f, int threads) {
  reorder::CostOracle oracle(f, core::DiagramKind::kBdd);
  const reorder::PruneSeedResult seeded = reorder::seed_prune_bound(
      oracle, "sift", 8, 16, 42, reorder::EvalContext{});
  core::OpCounter ops;
  const int n = f.num_vars();
  const core::FsStarResult r = core::fs_star(
      core::initial_table(f), util::full_mask(n), n, core::DiagramKind::kBdd,
      &ops, policy(threads, par::PruneMode::kBounds), nullptr,
      seeded.upper_bound);
  return {r.prune, r.certified_lower_bound, ops.table_cells, ops.compactions,
          ops.peak_cells};
}

void expect_pin(const PrunedRunPin& want, const PrunedRunPin& got) {
  EXPECT_EQ(got.prune.upper_bound, want.prune.upper_bound);
  EXPECT_EQ(got.prune.states_generated, want.prune.states_generated);
  EXPECT_EQ(got.prune.states_pruned, want.prune.states_pruned);
  EXPECT_EQ(got.prune.states_dead, want.prune.states_dead);
  EXPECT_EQ(got.prune.states_surviving, want.prune.states_surviving);
  EXPECT_EQ(got.prune.dense_cells, want.prune.dense_cells);
  EXPECT_EQ(got.prune.sparse_cells, want.prune.sparse_cells);
  EXPECT_EQ(got.certified_lower_bound, want.certified_lower_bound);
  EXPECT_EQ(got.table_cells, want.table_cells);
  EXPECT_EQ(got.compactions, want.compactions);
  EXPECT_EQ(got.peak_cells, want.peak_cells);
}

/// The DP-greedy incumbent step's own counted work at n = 12: layer 1
/// (12 compactions of 4096 cells) plus 8 greedy completions from it, one
/// compaction per candidate (66 per completion).  Sift is already optimal
/// on both inputs below, so the step moves no prune decision and the
/// DP's own counts stay the unbounded sweep's.
constexpr std::uint64_t kGreedyStepCells12 = 376848;
constexpr std::uint64_t kGreedyStepCompactions12 = 540;

TEST(FsPrunePins, SiftSeededRunsKeepTheUnboundedLedger) {
  const struct {
    const char* name;
    tt::TruthTable f;
    PrunedRunPin want;
  } cases[] = {
      {"hwb12", tt::hidden_weighted_bit(12),
       {{137, 1759, 1144, 2336, 615, 527345, 265051},
        137, 2477846 + kGreedyStepCells12, 5061 + kGreedyStepCompactions12,
        180224}},
      {"adder12", tt::adder_carry(12),
       {{17, 2435, 1588, 1660, 847, 527345, 275489},
        17, 2538376 + kGreedyStepCells12, 6220 + kGreedyStepCompactions12,
        180224}},
  };
  for (const auto& c : cases) {
    for (const int threads : {1, 4}) {
      SCOPED_TRACE(testing::Message() << c.name << " threads=" << threads);
      expect_pin(c.want, sift_seeded_pruned_run(c.f, threads));
    }
  }
}

TEST(FsPrunePins, DenseRunKeepsTheTheorem5Counts) {
  const tt::TruthTable f = tt::hidden_weighted_bit(12);
  for (const int threads : {1, 4}) {
    SCOPED_TRACE(testing::Message() << "threads=" << threads);
    const core::MinimizeResult m =
        core::fs_minimize(f, core::DiagramKind::kBdd, policy(threads));
    EXPECT_EQ(m.ops.table_cells, 4251528u);
    EXPECT_EQ(m.ops.compactions, 24576u);
    EXPECT_EQ(m.ops.peak_cells, 239360u);
  }
}

// ----------------------------------------------------- DP-greedy incumbent --

/// multiplier_middle_bit(12) with its inputs relabelled so that sift from
/// the identity order stops at 194 nodes while the DP-greedy step finds
/// 138 (the optimum is 134).
tt::TruthTable relabelled_multiplier12() {
  return tt::multiplier_middle_bit(12).permute_inputs(
      {2, 10, 4, 1, 5, 0, 6, 7, 9, 11, 3, 8});
}

/// Self-seeded (DP-greedy) pruned runs return the dense order, size and
/// tie-breaks, and prune against a real completion, at every thread
/// count.
TEST(FsPruneIncumbent, SelfSeededRunsMatchDense) {
  util::Xoshiro256 rng(0x9eed);
  const struct {
    const char* name;
    tt::TruthTable f;
  } cases[] = {
      {"random10", tt::random_function(10, rng)},
      {"random12", tt::random_function(12, rng)},
      {"hwb12", tt::hidden_weighted_bit(12)},
      {"adder12", tt::adder_carry(12)},
      {"mult12", relabelled_multiplier12()},
  };
  for (const auto& c : cases) {
    for (const core::DiagramKind kind :
         {core::DiagramKind::kBdd, core::DiagramKind::kZdd}) {
      const core::MinimizeResult dense = core::fs_minimize(c.f, kind);
      for (const int threads : {1, 2, 4}) {
        SCOPED_TRACE(testing::Message()
                     << c.name << " zdd=" << (kind == core::DiagramKind::kZdd)
                     << " threads=" << threads);
        const core::MinimizeResult pruned = core::fs_minimize(
            c.f, kind, policy(threads, par::PruneMode::kBounds));
        EXPECT_EQ(pruned.min_internal_nodes, dense.min_internal_nodes);
        EXPECT_EQ(pruned.order_root_first, dense.order_root_first);
        EXPECT_GE(pruned.ops.prune.upper_bound, dense.min_internal_nodes);
        expect_consistent_ledger(pruned.ops.prune);
      }
    }
  }
}

TEST(FsPruneIncumbent, MtbddSelfSeededRunsMatchDense) {
  util::Xoshiro256 rng(0x3717);
  for (const int n : {8, 11}) {
    std::vector<std::int64_t> values(std::size_t{1} << n);
    for (auto& v : values) v = static_cast<std::int64_t>(rng.below(4));
    const core::MinimizeResult dense = core::fs_minimize_mtbdd(values, n);
    for (const int threads : {1, 2, 4}) {
      SCOPED_TRACE(testing::Message() << "n=" << n << " threads=" << threads);
      const core::MinimizeResult pruned = core::fs_minimize_mtbdd(
          values, n, policy(threads, par::PruneMode::kBounds));
      EXPECT_EQ(pruned.min_internal_nodes, dense.min_internal_nodes);
      EXPECT_EQ(pruned.order_root_first, dense.order_root_first);
      EXPECT_GE(pruned.ops.prune.upper_bound, dense.min_internal_nodes);
    }
  }
}

/// The effective incumbent is min(caller's bound, DP-greedy): never below
/// the optimum, never above the caller's bound, and the same at every
/// thread count.
TEST(FsPruneIncumbent, EffectiveBoundLiesBetweenOptimumAndCallerBound) {
  util::Xoshiro256 rng(0xb0b0);
  const tt::TruthTable funcs[] = {tt::random_function(9, rng),
                                  tt::hidden_weighted_bit(10),
                                  relabelled_multiplier12()};
  for (const tt::TruthTable& f : funcs) {
    const int n = f.num_vars();
    const std::uint64_t opt = core::fs_minimize(f).min_internal_nodes;
    const std::uint64_t self_seeded =
        core::fs_minimize(f, core::DiagramKind::kBdd,
                          policy(1, par::PruneMode::kBounds))
            .ops.prune.upper_bound;
    EXPECT_GE(self_seeded, opt);
    for (const std::uint64_t caller :
         {opt, opt + 1, self_seeded, self_seeded + 7, 4 * opt}) {
      for (const int threads : {1, 4}) {
        SCOPED_TRACE(testing::Message() << "n=" << n << " caller=" << caller
                                        << " threads=" << threads);
        const core::FsStarResult r = core::fs_star(
            core::initial_table(f), util::full_mask(n), n,
            core::DiagramKind::kBdd, nullptr,
            policy(threads, par::PruneMode::kBounds), nullptr, caller);
        EXPECT_EQ(r.prune.upper_bound, std::min(caller, self_seeded));
        EXPECT_GE(r.prune.upper_bound, opt);
        EXPECT_LE(r.prune.upper_bound, caller);
      }
    }
  }
}

/// The sift-seeded pruned run of the relabelled multiplier, where the
/// DP-greedy step lowers the incumbent from sift's 194 to 138.
PrunedRunPin multiplier_pin_run(int threads,
                                const core::FsCheckpointOptions* ckpt,
                                std::uint64_t* sift_bound) {
  const tt::TruthTable f = relabelled_multiplier12();
  reorder::CostOracle oracle(f, core::DiagramKind::kBdd);
  const reorder::PruneSeedResult seeded = reorder::seed_prune_bound(
      oracle, "sift", 8, 16, 42, reorder::EvalContext{});
  if (sift_bound != nullptr) *sift_bound = seeded.upper_bound;
  core::OpCounter ops;
  const core::FsStarResult r = core::fs_star(
      core::initial_table(f), util::full_mask(12), 12,
      core::DiagramKind::kBdd, &ops,
      policy(threads, par::PruneMode::kBounds), nullptr,
      seeded.upper_bound, ckpt);
  EXPECT_EQ(r.tables.at(util::full_mask(12)).mincost(), 134u);
  return {r.prune, r.certified_lower_bound, ops.table_cells, ops.compactions,
          ops.peak_cells};
}

/// Computed once, with the DP-greedy step counted in its named terms.
const PrunedRunPin kMultiplierPin = {
    {138, 1201, 791, 2894, 410, 527345, 179493},
    134,
    1747688 + kGreedyStepCells12,
    3040 + kGreedyStepCompactions12,
    129024};

TEST(FsPruneIncumbent, DpGreedyBeatsSiftOnRelabelledMultiplier) {
  for (const int threads : {1, 2, 4}) {
    SCOPED_TRACE(testing::Message() << "threads=" << threads);
    std::uint64_t sift_bound = 0;
    expect_pin(kMultiplierPin,
               multiplier_pin_run(threads, nullptr, &sift_bound));
    EXPECT_EQ(sift_bound, 194u);
  }
}

/// A snapshot of that run records the effective incumbent, and resuming
/// from it (which skips the DP-greedy step) replays the run bit for bit.
TEST(FsPruneIncumbent, ResumeReplaysTheEffectiveIncumbent) {
  std::vector<std::vector<std::uint8_t>> fences;
  core::FsCheckpointOptions write;
  write.every = 1;
  write.on_bytes = [&](const std::vector<std::uint8_t>& p) {
    fences.push_back(p);
  };
  expect_pin(kMultiplierPin, multiplier_pin_run(1, &write, nullptr));
  ASSERT_GE(fences.size(), 6u);
  for (const std::size_t at : {std::size_t{0}, std::size_t{5}}) {
    const core::FsStarSnapshot snap =
        core::decode_snapshot(fences[at].data(), fences[at].size());
    EXPECT_EQ(snap.prune_upper_bound, kMultiplierPin.prune.upper_bound);
    core::FsCheckpointOptions resume;
    resume.resume = &snap;
    for (const int threads : {1, 2, 4}) {
      SCOPED_TRACE(testing::Message() << "layer=" << snap.layer
                                      << " threads=" << threads);
      expect_pin(kMultiplierPin, multiplier_pin_run(threads, &resume, nullptr));
    }
  }
}

/// A pruned run of the relabelled multiplier against `caller`, stopped by
/// a cancel at governor checkpoint `cancel_at` (0: never).  Only the
/// ledger is read: a stopped run has no final table.
PrunedRunPin multiplier_run(std::uint64_t caller, int threads,
                            const core::FsCheckpointOptions* ckpt,
                            std::uint64_t cancel_at) {
  const tt::TruthTable f = relabelled_multiplier12();
  rt::CancelToken token;
  rt::Budget budget;
  budget.cancel = &token;
  rt::Governor gov(budget);
  rt::FaultPlan plan;
  plan.cancel_at_checkpoint = cancel_at;
  plan.cancel = &token;
  rt::ScopedFaultPlan scoped(plan);
  core::OpCounter ops;
  const core::FsStarResult r = core::fs_star(
      core::initial_table(f), util::full_mask(12), 12,
      core::DiagramKind::kBdd, &ops,
      policy(threads, par::PruneMode::kBounds), &gov, caller, ckpt);
  return {r.prune, r.certified_lower_bound, ops.table_cells, ops.compactions,
          ops.peak_cells};
}

/// A run cancelled inside the DP-greedy step trips before layer 1 and
/// writes a layer-0 snapshot holding whatever bound it had: the caller's,
/// a partial minimum, or none.  Resuming it runs the step again, so the
/// resumed run prunes against, ledgers and counts exactly what the
/// uninterrupted run does.  The step polls 12 times for layer 1, then 11
/// times per completion.
TEST(FsPruneIncumbent, ResumeFromAStoppedStepReplaysTheUninterruptedRun) {
  for (const std::uint64_t caller : {std::uint64_t{0}, std::uint64_t{194}}) {
    const PrunedRunPin want = multiplier_run(caller, 1, nullptr, 0);
    EXPECT_EQ(want.prune.upper_bound, 138u);
    for (const std::uint64_t cancel_at : {1, 12, 13, 40, 100}) {
      std::vector<std::uint8_t> last;
      core::FsCheckpointOptions write;
      write.on_bytes = [&](const std::vector<std::uint8_t>& p) { last = p; };
      const PrunedRunPin tripped =
          multiplier_run(caller, 1, &write, cancel_at);
      SCOPED_TRACE(testing::Message()
                   << "caller=" << caller << " cancel_at=" << cancel_at);
      ASSERT_FALSE(last.empty());
      const core::FsStarSnapshot snap =
          core::decode_snapshot(last.data(), last.size());
      EXPECT_EQ(snap.layer, 0);
      EXPECT_EQ(snap.prune_upper_bound, tripped.prune.upper_bound);
      EXPECT_GE(snap.prune_upper_bound, 138u);
      if (cancel_at <= 13) {
        EXPECT_EQ(snap.prune_upper_bound,
                  caller != 0 ? caller : core::kNoCostLimit);
      }
      core::FsCheckpointOptions resume;
      resume.resume = &snap;
      for (const int threads : {1, 4}) {
        SCOPED_TRACE(testing::Message() << "threads=" << threads);
        expect_pin(want, multiplier_run(caller, threads, &resume, 0));
      }
    }
  }
}

/// A resumed ladder run that trips again salvages against the seed
/// order's real size, not the snapshot's incumbent: here the effective
/// incumbent is DP-greedy's 138 while sift's seed order has 194 nodes.
/// Both the tripped and the resumed run report the size of the order
/// they return.  Every limit trips the DP before layer 5.
TEST(FsPruneIncumbent, ResumedLadderReportsTheSizeOfItsOrder) {
  const tt::TruthTable f = relabelled_multiplier12();
  reorder::AutoMinimizeOptions opt;
  opt.exec = policy(1, par::PruneMode::kBounds);
  opt.restarts = 0;
  int above_incumbent = 0;
  for (const std::uint64_t work_limit :
       {2000000, 2500000, 3000000, 3500000, 4000000}) {
    SCOPED_TRACE(testing::Message() << "work_limit=" << work_limit);
    rt::Budget budget;
    budget.work_limit = work_limit;
    std::vector<std::uint8_t> last;
    reorder::AutoMinimizeOptions wopt = opt;
    wopt.ckpt.on_bytes = [&](const std::vector<std::uint8_t>& p) {
      last = p;
    };
    const rt::Result<reorder::AutoMinimizeResult> tripped =
        reorder::minimize_auto(f, budget, wopt);
    ASSERT_FALSE(tripped.value.optimal);
    ASSERT_FALSE(last.empty());
    const core::FsStarSnapshot snap =
        core::decode_snapshot(last.data(), last.size());
    EXPECT_EQ(snap.prune_upper_bound, 138u);
    reorder::AutoMinimizeOptions ropt = opt;
    ropt.ckpt.resume = &snap;
    const rt::Result<reorder::AutoMinimizeResult> resumed =
        reorder::minimize_auto(f, budget, ropt);
    for (const auto* r : {&tripped.value, &resumed.value}) {
      EXPECT_EQ(r->internal_nodes,
                core::diagram_size_for_order(f, r->order_root_first));
    }
    EXPECT_EQ(resumed.value.order_root_first, tripped.value.order_root_first);
    EXPECT_EQ(resumed.value.internal_nodes, tripped.value.internal_nodes);
    if (resumed.value.internal_nodes > snap.prune_upper_bound)
      ++above_incumbent;
  }
  // At least one limit salvages above the incumbent, where reporting the
  // incumbent for the seed order would have been wrong.
  EXPECT_GE(above_incumbent, 1);
}

}  // namespace
}  // namespace ovo

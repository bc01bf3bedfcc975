// The central correctness suite for the paper's algorithm FS:
//   * compaction canonicity against the quasi-reduced subfunction counter;
//   * Lemma 3 (level width depends only on the prefix *set*);
//   * Lemma 4 (the DP recurrence);
//   * FS minimum == brute-force minimum over all n! orders, for BDD, ZDD
//     and MTBDD kinds;
//   * the returned order achieves the minimum when the diagram is rebuilt
//     with the corresponding manager;
//   * Fig. 1's exact sizes (2m+2 vs 2^{m+1});
//   * the greedy completion rule and the DP-greedy pruning incumbent.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <numeric>
#include <set>
#include <utility>

#include "bdd/manager.hpp"
#include "core/fs_star.hpp"
#include "core/minimize.hpp"
#include "mtbdd/manager.hpp"
#include "reorder/baselines.hpp"
#include "rt/budget.hpp"
#include "tt/function_zoo.hpp"
#include "util/combinatorics.hpp"
#include "util/rng.hpp"
#include "zdd/manager.hpp"

namespace ovo::core {
namespace {

// --- compaction primitive ---------------------------------------------------

TEST(PrefixTable, InitialTableIsTruthTable) {
  const tt::TruthTable t = tt::parity(3);
  const PrefixTable p = initial_table(t);
  EXPECT_EQ(p.n, 3);
  EXPECT_EQ(p.vars, 0u);
  EXPECT_EQ(p.mincost(), 0u);
  ASSERT_EQ(p.cells.size(), 8u);
  for (std::uint64_t a = 0; a < 8; ++a)
    EXPECT_EQ(p.cells[a], t.get(a) ? 1u : 0u);
}

TEST(PrefixTable, CompactParityStep) {
  // Compacting parity w.r.t. any variable creates exactly 2 nodes
  // (parity and its complement as subfunctions of the remaining vars).
  const PrefixTable p = initial_table(tt::parity(4));
  for (int v = 0; v < 4; ++v) {
    OpCounter ops;
    const PrefixTable q = compact(p, v, DiagramKind::kBdd, &ops);
    // Both x_v and !x_v occur as bottom subfunctions: cell pairs (0,1) and
    // (1,0) each create one node.
    EXPECT_EQ(q.mincost(), 2u);
    EXPECT_EQ(ops.table_cells, 16u);
    EXPECT_EQ(ops.compactions, 1u);
  }
}

TEST(PrefixTable, CompactCountsMatchSubfunctionCounter) {
  // After compacting a set I (any chain), mincost equals the number of
  // distinct subfunctions over I that depend on their top variable —
  // equivalently sum over the chain of created widths. Cross-check the
  // *table cells* against count_distinct_subfunctions: the number of
  // distinct cell values equals the number of distinct subfunctions
  // (including constants reachable).
  util::Xoshiro256 rng(2);
  for (int trial = 0; trial < 10; ++trial) {
    const tt::TruthTable t = tt::random_function(6, rng);
    PrefixTable p = initial_table(t);
    util::Mask I = 0;
    for (const int v : {1, 4, 2}) {
      p = compact(p, v, DiagramKind::kBdd, nullptr);
      I |= util::Mask{1} << v;
      std::set<std::uint32_t> distinct(p.cells.begin(), p.cells.end());
      EXPECT_EQ(distinct.size(), t.count_distinct_subfunctions(I))
          << "prefix mask " << I;
    }
  }
}

TEST(PrefixTable, CompactRejectsRepeatedVariable) {
  PrefixTable p = initial_table(tt::parity(3));
  p = compact(p, 1, DiagramKind::kBdd, nullptr);
  EXPECT_THROW(compact(p, 1, DiagramKind::kBdd, nullptr), util::CheckError);
}

TEST(PrefixTable, CompactionWidthAgreesWithCompact) {
  util::Xoshiro256 rng(3);
  for (int trial = 0; trial < 10; ++trial) {
    const tt::TruthTable t = tt::random_function(5, rng);
    const PrefixTable p = initial_table(t);
    for (int v = 0; v < 5; ++v) {
      const PrefixTable q = compact(p, v, DiagramKind::kBdd, nullptr);
      EXPECT_EQ(compaction_width(p, v, DiagramKind::kBdd, nullptr),
                q.mincost() - p.mincost());
    }
  }
}

TEST(PrefixTable, MtbddInitialTableInternsValues) {
  std::vector<std::int64_t> vals{5, 5, -1, 7, 5, -1, 7, 7};
  std::vector<std::int64_t> terms;
  const PrefixTable p = initial_table_values(vals, 3, &terms);
  EXPECT_EQ(p.num_terminals, 3u);
  EXPECT_EQ(terms, (std::vector<std::int64_t>{5, -1, 7}));
  EXPECT_EQ(p.cells[0], 0u);
  EXPECT_EQ(p.cells[2], 1u);
  EXPECT_EQ(p.cells[3], 2u);
}

// --- compaction fast path and reusable dedup ---------------------------------

/// The paper's COMPACT written independently of prefix_table.cpp: pairs
/// are formed by explicit bit insertion and deduplicated in a std::map,
/// one new id per first-seen pair in new-cell order.
PrefixTable reference_compact(const PrefixTable& t, int var,
                              DiagramKind kind) {
  int pos = 0;  // rank of var among the free variables
  for (int v = 0; v < var; ++v)
    if (((t.vars >> v) & 1) == 0) ++pos;
  PrefixTable out = t;
  out.vars |= util::Mask{1} << var;
  out.cells.assign(t.cells.size() / 2, 0);
  std::map<std::pair<std::uint32_t, std::uint32_t>, std::uint32_t> nodes;
  for (std::uint64_t b = 0; b < out.cells.size(); ++b) {
    const std::uint64_t lo = b & ((std::uint64_t{1} << pos) - 1);
    const std::uint64_t idx0 = ((b >> pos) << (pos + 1)) | lo;
    const std::uint32_t u0 = t.cells[idx0];
    const std::uint32_t u1 = t.cells[idx0 | (std::uint64_t{1} << pos)];
    const bool passes = kind == DiagramKind::kZdd ? u1 == 0 : u0 == u1;
    if (passes) {
      out.cells[b] = u0;
      continue;
    }
    const auto [it, inserted] = nodes.emplace(std::make_pair(u0, u1),
                                              out.next_id);
    if (inserted) ++out.next_id;
    out.cells[b] = it->second;
  }
  return out;
}

/// A table whose cells are the ids first .. first+|cells|-1 in order.
PrefixTable fresh_run_table(int n, util::Mask vars,
                            std::uint32_t num_terminals,
                            std::uint32_t first) {
  PrefixTable t;
  t.n = n;
  t.vars = vars;
  t.num_terminals = num_terminals;
  t.cells.resize(std::size_t{1} << t.free_count());
  std::iota(t.cells.begin(), t.cells.end(), first);
  t.next_id = first + static_cast<std::uint32_t>(t.cells.size());
  return t;
}

struct FastPathCase {
  const char* name;
  DiagramKind kind;
  PrefixTable table;
  bool fresh;  ///< expected to take the lookup-free path
};

std::vector<FastPathCase> fast_path_cases() {
  std::vector<FastPathCase> cs;
  const auto add = [&](const char* name, DiagramKind kind, PrefixTable t,
                       bool fresh) {
    cs.push_back({name, kind, std::move(t), fresh});
  };
  // Fresh runs: every DiagramKind, gaps below the run, MTBDD with five
  // terminals, a prefix already compacted.
  add("bdd_fresh", DiagramKind::kBdd, fresh_run_table(5, 0, 2, 2), true);
  add("bdd_fresh_gap", DiagramKind::kBdd,
      fresh_run_table(6, 0b100100, 2, 40), true);
  add("zdd_fresh", DiagramKind::kZdd, fresh_run_table(5, 0b10, 2, 7), true);
  add("mtbdd_fresh", DiagramKind::kMtbdd, fresh_run_table(4, 0, 5, 5), true);
  add("mtbdd_fresh_gap", DiagramKind::kMtbdd,
      fresh_run_table(5, 0b1000, 5, 11), true);
  // Near misses: each breaks one clause of the condition.
  PrefixTable repeated = fresh_run_table(5, 0, 2, 2);
  repeated.cells[3] = repeated.cells[2];
  add("bdd_repeated_id", DiagramKind::kBdd, repeated, false);
  PrefixTable terminal = fresh_run_table(5, 0, 2, 2);
  terminal.cells[5] = 1;
  add("bdd_terminal_cell", DiagramKind::kBdd, terminal, false);
  add("mtbdd_run_from_terminal", DiagramKind::kMtbdd,
      fresh_run_table(4, 0, 5, 3), false);
  PrefixTable short_end = fresh_run_table(5, 0, 2, 4);
  ++short_end.next_id;  // run ends at next_id - 2
  add("bdd_run_short_of_next_id", DiagramKind::kBdd, short_end, false);
  PrefixTable zdd_zero = fresh_run_table(5, 0b10, 2, 7);
  zdd_zero.cells[6] = 0;
  add("zdd_holds_id_0", DiagramKind::kZdd, zdd_zero, false);
  PrefixTable reversed = fresh_run_table(4, 0, 2, 2);
  std::reverse(reversed.cells.begin(), reversed.cells.end());
  add("bdd_run_out_of_order", DiagramKind::kBdd, reversed, false);
  return cs;
}

TEST(CompactFastPath, MatchesReferenceOnFreshRunsAndNearMisses) {
  for (const FastPathCase& c : fast_path_cases()) {
    SCOPED_TRACE(c.name);
    const PrefixTable& t = c.table;
    util::for_each_bit(t.free_mask(), [&](int v) {
      SCOPED_TRACE(v);
      const PrefixTable want = reference_compact(t, v, c.kind);
      OpCounter ops;
      PrefixTable got;
      compact_into(got, t, v, c.kind, &ops);
      EXPECT_EQ(got.cells, want.cells);
      EXPECT_EQ(got.next_id, want.next_id);
      EXPECT_EQ(got.vars, want.vars);
      EXPECT_EQ(got.num_terminals, want.num_terminals);
      // The fast path makes no lookups; every near miss hashes its pairs.
      // Inserts count created nodes on both paths.
      if (c.fresh)
        EXPECT_EQ(ops.dedup.lookups, 0u);
      else
        EXPECT_GT(ops.dedup.lookups, 0u);
      EXPECT_EQ(ops.dedup.inserts, want.next_id - t.next_id);
      EXPECT_EQ(ops.table_cells, t.cells.size());
      EXPECT_EQ(ops.compactions, 1u);

      ds::UniqueTable scratch;
      PrefixTable via_scratch;
      compact_into(via_scratch, t, v, c.kind, nullptr, nullptr, &scratch);
      EXPECT_EQ(via_scratch.cells, want.cells);
      EXPECT_EQ(via_scratch.next_id, want.next_id);

      OpCounter width_ops;
      EXPECT_EQ(compaction_width(t, v, c.kind, &width_ops),
                want.next_id - t.next_id);
      EXPECT_EQ(compaction_width(t, v, c.kind, nullptr, &scratch),
                want.next_id - t.next_id);
      EXPECT_EQ(width_ops.dedup.lookups, ops.dedup.lookups);
      EXPECT_EQ(width_ops.dedup.inserts, ops.dedup.inserts);
    });
  }
}

TEST(CompactFastPath, FreshRunsChainAlongAWholeOrder) {
  // Compacting a fresh run yields a fresh run, so a whole chain stays on
  // the fast path and creates one node per pair: 2^m - 1 nodes in all.
  PrefixTable t = fresh_run_table(6, 0, 2, 2);
  OpCounter ops;
  for (const int v : {3, 0, 5, 1, 4, 2}) t = compact(t, v, DiagramKind::kBdd,
                                                     &ops);
  EXPECT_EQ(t.cells.size(), 1u);
  EXPECT_EQ(t.next_id, 2u + 64u + 63u);
  EXPECT_EQ(ops.dedup.lookups, 0u);
  EXPECT_EQ(ops.dedup.inserts, 63u);
}

void expect_table_stats_equal(const ds::TableStats& a,
                              const ds::TableStats& b) {
  EXPECT_EQ(a.lookups, b.lookups);
  EXPECT_EQ(a.hits, b.hits);
  EXPECT_EQ(a.inserts, b.inserts);
  EXPECT_EQ(a.resizes, b.resizes);
  EXPECT_EQ(a.probes, b.probes);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(a.probe_hist[i], b.probe_hist[i]);
}

TEST(CompactScratch, ReuseAcrossSizesMatchesScratchlessCalls) {
  // One scratch through large -> small -> large compactions.  The large
  // table has ~131K distinct pairs, past the 64K reserve clamp, so the
  // scratch also grows (and counts resizes) after a reset.
  util::Xoshiro256 rng(11);
  const auto random_ids = [&](int n, std::uint32_t next_id) {
    PrefixTable t;
    t.n = n;
    t.next_id = next_id;
    t.cells.resize(std::size_t{1} << n);
    for (std::uint32_t& c : t.cells)
      c = static_cast<std::uint32_t>(rng.below(next_id));
    return t;
  };
  const PrefixTable large = random_ids(18, 400000);
  const PrefixTable small = initial_table(tt::random_function(6, rng));
  const PrefixTable large2 = random_ids(17, 90000);
  ds::UniqueTable scratch;
  int step = 0;
  for (const PrefixTable* t : {&large, &small, &large2, &small, &large}) {
    SCOPED_TRACE(step++);
    for (const DiagramKind kind : {DiagramKind::kBdd, DiagramKind::kZdd}) {
      const int v = step % t->n;
      OpCounter with, without;
      PrefixTable a, b;
      compact_into(a, *t, v, kind, &with, nullptr, &scratch);
      compact_into(b, *t, v, kind, &without);
      EXPECT_EQ(a.cells, b.cells);
      EXPECT_EQ(a.next_id, b.next_id);
      expect_table_stats_equal(with.dedup, without.dedup);
      OpCounter wwith, wwithout;
      EXPECT_EQ(compaction_width(*t, v, kind, &wwith, &scratch),
                compaction_width(*t, v, kind, &wwithout));
      expect_table_stats_equal(wwith.dedup, wwithout.dedup);
    }
  }
  // The large tables really exercised growth.
  OpCounter ops;
  PrefixTable out;
  compact_into(out, large, 0, DiagramKind::kBdd, &ops, nullptr, &scratch);
  EXPECT_GT(ops.dedup.resizes, 0u);
}

// --- bounded compaction -------------------------------------------------------

TEST(CompactLimit, FinishesIffTheFullCostIsBelowTheLimit) {
  struct Case {
    const char* name;
    DiagramKind kind;
    PrefixTable table;
    bool fresh;  ///< takes the lookup-free path
  };
  util::Xoshiro256 rng(0x11a1);
  std::vector<Case> cs;
  // Hash-path tables, each also one compaction in (so mincost > 0).
  const auto add_hash = [&](const char* name, const char* mid,
                            DiagramKind kind, const PrefixTable& t) {
    cs.push_back({name, kind, t, false});
    cs.push_back({mid, kind, compact(t, 2, kind), false});
  };
  add_hash("bdd_hash", "bdd_hash_mid", DiagramKind::kBdd,
           initial_table(tt::random_function(6, rng)));
  add_hash("zdd_hash", "zdd_hash_mid", DiagramKind::kZdd,
           initial_table(tt::random_sparse_function(6, 20, rng)));
  std::vector<std::int64_t> vals(64);
  for (std::int64_t& v : vals)
    v = static_cast<std::int64_t>(rng.below(5)) - 2;
  const PrefixTable mt = initial_table_values(vals, 6);
  ASSERT_GT(mt.num_terminals, 2u);
  add_hash("mtbdd_hash", "mtbdd_hash_mid", DiagramKind::kMtbdd, mt);
  // Fresh runs: the cost is known before the sweep.
  cs.push_back(
      {"bdd_fresh", DiagramKind::kBdd, fresh_run_table(5, 0, 2, 2), true});
  cs.push_back(
      {"zdd_fresh", DiagramKind::kZdd, fresh_run_table(5, 0b10, 2, 7), true});
  cs.push_back({"mtbdd_fresh", DiagramKind::kMtbdd,
                fresh_run_table(5, 0b1000, 5, 11), true});

  // One scratch through every bounded call: a call that returns before
  // resetting it must not disturb the next one.
  ds::UniqueTable scratch;
  for (const Case& c : cs) {
    SCOPED_TRACE(c.name);
    const PrefixTable& t = c.table;
    util::for_each_bit(t.free_mask(), [&](int v) {
      SCOPED_TRACE(v);
      OpCounter full_ops;
      PrefixTable want;
      ASSERT_TRUE(compact_into(want, t, v, c.kind, &full_ops));
      const std::uint64_t full = want.mincost();
      ASSERT_GT(full, 0u);
      ASSERT_EQ(full_ops.dedup.lookups == 0, c.fresh);
      for (const std::uint64_t limit :
           {std::uint64_t{0}, t.mincost(), full - 1, full, full + 1,
            kNoCostLimit}) {
        SCOPED_TRACE(limit);
        OpCounter ops;
        PrefixTable got;
        const bool finished = compact_into(got, t, v, c.kind, &ops, nullptr,
                                           &scratch, limit);
        EXPECT_EQ(finished, full < limit);
        if (finished) {
          EXPECT_EQ(got.cells, want.cells);
          EXPECT_EQ(got.next_id, want.next_id);
          EXPECT_EQ(got.vars, want.vars);
          expect_table_stats_equal(ops.dedup, full_ops.dedup);
        } else {
          EXPECT_LE(ops.dedup.lookups, full_ops.dedup.lookups);
          EXPECT_LE(ops.dedup.inserts, full_ops.dedup.inserts);
        }
        // Theorem 5's count: every call in full, cut or not.
        EXPECT_EQ(ops.table_cells, t.cells.size());
        EXPECT_EQ(ops.compactions, 1u);
      }
    });
  }
}

// --- Lemma 3: width depends only on the prefix set --------------------------

class Lemma3Property : public ::testing::TestWithParam<int> {};

TEST_P(Lemma3Property, WidthInvariantUnderPrefixReordering) {
  util::Xoshiro256 rng(static_cast<std::uint64_t>(GetParam()) * 37 + 5);
  const int n = 6;
  const tt::TruthTable t = tt::random_function(n, rng);
  // Pick a prefix set I of size 3 and a distinguished i in I.
  const util::Mask I = 0b101100;  // vars {2,3,5}
  const int i = 3;
  // All chains that insert I\{i} in some order, then i: the width added by
  // i must be identical (Lemma 3).
  const std::vector<int> others{2, 5};
  std::vector<std::uint64_t> widths;
  std::vector<std::vector<int>> arrangements{{2, 5}, {5, 2}};
  for (const auto& arr : arrangements) {
    PrefixTable p = initial_table(t);
    for (const int v : arr) p = compact(p, v, DiagramKind::kBdd, nullptr);
    const PrefixTable q = compact(p, i, DiagramKind::kBdd, nullptr);
    widths.push_back(q.mincost() - p.mincost());
  }
  EXPECT_EQ(widths[0], widths[1]);
  (void)I;
  (void)others;
}

TEST_P(Lemma3Property, WidthInvariantExhaustive) {
  util::Xoshiro256 rng(static_cast<std::uint64_t>(GetParam()) * 101 + 11);
  const int n = 5;
  const tt::TruthTable t = tt::random_function(n, rng);
  // For every prefix set I of size 3 and every i in I: the width of i on
  // top of I\{i} is the same for all orderings of I\{i}.
  util::for_each_subset_of_size(n, 3, [&](util::Mask I) {
    util::for_each_bit(I, [&](int i) {
      const std::vector<int> rest = util::bits_of(I & ~(util::Mask{1} << i));
      std::vector<int> arr = rest;
      std::uint64_t first_width = 0;
      bool first = true;
      do {
        PrefixTable p = initial_table(t);
        for (const int v : arr) p = compact(p, v, DiagramKind::kBdd, nullptr);
        const std::uint64_t w =
            compaction_width(p, i, DiagramKind::kBdd, nullptr);
        if (first) {
          first_width = w;
          first = false;
        } else {
          ASSERT_EQ(w, first_width) << "I=" << I << " i=" << i;
        }
      } while (std::next_permutation(arr.begin(), arr.end()));
    });
  });
}

INSTANTIATE_TEST_SUITE_P(Seeds, Lemma3Property, ::testing::Range(0, 5));

// --- Lemma 4: the DP recurrence ---------------------------------------------

TEST(Lemma4, RecurrenceHoldsOnDpTable) {
  util::Xoshiro256 rng(19);
  const int n = 5;
  const tt::TruthTable t = tt::random_function(n, rng);
  const FsStarResult r =
      fs_star(initial_table(t), util::full_mask(n), n, DiagramKind::kBdd);
  // MINCOST_I = min_{k in I} (MINCOST_{I\k} + Cost_k(pi_{(I\k, k)})).
  for (const auto& [I, cost] : r.mincost) {
    if (I == 0) continue;
    std::uint64_t best = std::numeric_limits<std::uint64_t>::max();
    util::for_each_bit(I, [&](int k) {
      // Rebuild the width of k over I\k from scratch.
      PrefixTable p = initial_table(t);
      util::for_each_bit(I & ~(util::Mask{1} << k), [&](int v) {
        p = compact(p, v, DiagramKind::kBdd, nullptr);
      });
      const std::uint64_t w =
          compaction_width(p, k, DiagramKind::kBdd, nullptr);
      best = std::min(best, r.mincost.at(I & ~(util::Mask{1} << k)) + w);
    });
    EXPECT_EQ(cost, best) << "I=" << I;
  }
}

// --- FS vs brute force -------------------------------------------------------

struct FsCase {
  const char* name;
  tt::TruthTable table;
};

std::vector<FsCase> fs_cases() {
  util::Xoshiro256 rng(4242);
  std::vector<FsCase> cases;
  cases.push_back({"pair_sum2", tt::pair_sum(2)});
  cases.push_back({"pair_sum3", tt::pair_sum(3)});
  cases.push_back({"parity5", tt::parity(5)});
  cases.push_back({"majority5", tt::majority(5)});
  cases.push_back({"hwb5", tt::hidden_weighted_bit(5)});
  cases.push_back({"hwb6", tt::hidden_weighted_bit(6)});
  cases.push_back({"mult6", tt::multiplier_middle_bit(6)});
  cases.push_back({"adder6", tt::adder_carry(6)});
  cases.push_back({"isa6", tt::indirect_storage_access(6)});
  cases.push_back({"threshold6", tt::threshold(6, 2)});
  for (int i = 0; i < 6; ++i)
    cases.push_back({"random6", tt::random_function(6, rng)});
  for (int i = 0; i < 4; ++i)
    cases.push_back({"random5", tt::random_function(5, rng)});
  for (int i = 0; i < 3; ++i)
    cases.push_back({"sparse6", tt::random_sparse_function(6, 5, rng)});
  for (int i = 0; i < 3; ++i)
    cases.push_back({"readonce6", tt::random_read_once(6, rng)});
  cases.push_back({"const0", tt::TruthTable(4)});
  cases.push_back({"const1", ~tt::TruthTable(4)});
  return cases;
}

class FsVsBruteForce : public ::testing::TestWithParam<int> {};

TEST_P(FsVsBruteForce, BddMinimumMatches) {
  const FsCase c = fs_cases()[static_cast<std::size_t>(GetParam())];
  const MinimizeResult fs = fs_minimize(c.table, DiagramKind::kBdd);
  const reorder::OrderSearchResult bf =
      reorder::brute_force_minimize(c.table, DiagramKind::kBdd);
  EXPECT_EQ(fs.min_internal_nodes, bf.internal_nodes) << c.name;
  // The FS order must achieve the claimed size.
  EXPECT_EQ(diagram_size_for_order(c.table, fs.order_root_first,
                                   DiagramKind::kBdd),
            fs.min_internal_nodes);
  // And a real BDD manager rebuild agrees.
  bdd::Manager m(c.table.num_vars(), fs.order_root_first);
  EXPECT_EQ(m.size(m.from_truth_table(c.table)), fs.min_internal_nodes);
}

TEST_P(FsVsBruteForce, ZddMinimumMatches) {
  const FsCase c = fs_cases()[static_cast<std::size_t>(GetParam())];
  const MinimizeResult fs = fs_minimize(c.table, DiagramKind::kZdd);
  const reorder::OrderSearchResult bf =
      reorder::brute_force_minimize(c.table, DiagramKind::kZdd);
  EXPECT_EQ(fs.min_internal_nodes, bf.internal_nodes) << c.name;
  zdd::Manager m(c.table.num_vars(), fs.order_root_first);
  EXPECT_EQ(m.size(m.from_truth_table(c.table)), fs.min_internal_nodes);
}

INSTANTIATE_TEST_SUITE_P(Cases, FsVsBruteForce,
                         ::testing::Range(0, 28));

TEST(FsMtbdd, MinimumMatchesBruteForce) {
  util::Xoshiro256 rng(7);
  for (int trial = 0; trial < 5; ++trial) {
    const int n = 5;
    std::vector<std::int64_t> values(32);
    for (auto& v : values) v = static_cast<std::int64_t>(rng.below(3));
    const MinimizeResult fs = fs_minimize_mtbdd(values, n);
    // Brute force with the MTBDD size oracle.
    std::uint64_t best = std::numeric_limits<std::uint64_t>::max();
    std::vector<int> order{0, 1, 2, 3, 4};
    do {
      best = std::min(best,
                      diagram_size_for_order_values(values, n, order));
    } while (std::next_permutation(order.begin(), order.end()));
    EXPECT_EQ(fs.min_internal_nodes, best);
    // Rebuild with the MTBDD manager under the FS order.
    mtbdd::Manager m(n, fs.order_root_first);
    EXPECT_EQ(m.size(m.from_value_table(values)), fs.min_internal_nodes);
  }
}

// --- Fig. 1 ------------------------------------------------------------------

TEST(Fig1, PairSumSizesMatchPaper) {
  for (int m = 2; m <= 4; ++m) {
    const tt::TruthTable f = tt::pair_sum(m);
    // Natural order: 2m internal nodes (2m + 2 with terminals).
    EXPECT_EQ(diagram_size_for_order(f, tt::pair_sum_natural_order(m)),
              static_cast<std::uint64_t>(2 * m));
    // Interleaved order: 2^{m+1} - 2 internal nodes (2^{m+1} with
    // terminals... the paper counts 2^{m+1} total including terminals).
    EXPECT_EQ(diagram_size_for_order(f, tt::pair_sum_interleaved_order(m)),
              (std::uint64_t{1} << (m + 1)) - 2);
    // And the optimum equals the natural order's size.
    EXPECT_EQ(fs_minimize(f).min_internal_nodes,
              static_cast<std::uint64_t>(2 * m));
  }
}

TEST(Fig1, Fig1ExactCase) {
  // The figure's concrete instance: m = 3 (six variables), sizes 8 and 16
  // including the two terminals.
  const tt::TruthTable f = tt::pair_sum(3);
  EXPECT_EQ(diagram_size_for_order(f, tt::pair_sum_natural_order(3)) + 2, 8u);
  EXPECT_EQ(
      diagram_size_for_order(f, tt::pair_sum_interleaved_order(3)) + 2, 16u);
}

// --- misc --------------------------------------------------------------------

TEST(FsMisc, ParityIsOrderInsensitive) {
  const tt::TruthTable p = tt::parity(6);
  const MinimizeResult fs = fs_minimize(p);
  EXPECT_EQ(fs.min_internal_nodes, 11u);  // 2n - 1
  // Every order achieves it.
  for (const auto& order : util::all_permutations(6))
    ASSERT_EQ(diagram_size_for_order(p, order), 11u);
}

TEST(FsMisc, OpsCountIsPositiveAndBounded) {
  const tt::TruthTable t = tt::majority(6);
  const MinimizeResult fs = fs_minimize(t);
  EXPECT_GT(fs.ops.table_cells, 0u);
  // Theorem 5: up to a polynomial factor the work is 3^n; the raw cell
  // count is at most n * 3^n for sure.
  EXPECT_LE(fs.ops.table_cells,
            6.0 * std::pow(3.0, 6) * 2.0 + 4096.0);
}

TEST(FsMisc, OrderIsAlwaysAPermutation) {
  util::Xoshiro256 rng(6);
  for (int n = 1; n <= 7; ++n) {
    const MinimizeResult fs = fs_minimize(tt::random_function(n, rng));
    EXPECT_EQ(static_cast<int>(fs.order_root_first.size()), n);
    EXPECT_TRUE(util::is_permutation(fs.order_root_first));
  }
}

// Relabeling inputs permutes the optimal order but cannot change the
// minimum size — a strong end-to-end consistency property of the DP.
TEST(FsMisc, InputPermutationInvariance) {
  util::Xoshiro256 rng(77);
  for (int trial = 0; trial < 5; ++trial) {
    const int n = 6;
    const tt::TruthTable t = tt::random_function(n, rng);
    std::vector<int> sigma(static_cast<std::size_t>(n));
    std::iota(sigma.begin(), sigma.end(), 0);
    for (int i = n - 1; i > 0; --i)
      std::swap(sigma[static_cast<std::size_t>(i)],
                sigma[rng.below(static_cast<std::uint64_t>(i) + 1)]);
    const tt::TruthTable permuted = t.permute_inputs(sigma);
    EXPECT_EQ(fs_minimize(t).min_internal_nodes,
              fs_minimize(permuted).min_internal_nodes);
    EXPECT_EQ(fs_minimize(t, DiagramKind::kZdd).min_internal_nodes,
              fs_minimize(permuted, DiagramKind::kZdd).min_internal_nodes);
  }
}

TEST(FsMisc, ZddOfSparseBeatsItsBdd) {
  util::Xoshiro256 rng(8);
  const tt::TruthTable t = tt::random_sparse_function(8, 4, rng);
  const MinimizeResult z = fs_minimize(t, DiagramKind::kZdd);
  const MinimizeResult b = fs_minimize(t, DiagramKind::kBdd);
  EXPECT_LE(z.min_internal_nodes, b.min_internal_nodes);
}

// --- greedy completion ------------------------------------------------------

// The one greedy rule, checked against a reference built on allocating
// compact(): each step places the block variable whose compaction adds
// the fewest nodes (ties to the lower index), variables outside the block
// stay free, and the final table is the chain along the returned order.
TEST(GreedyComplete, FollowsTheWidthRuleWithinTheBlock) {
  util::Xoshiro256 rng(0x96ee);
  for (const DiagramKind kind : {DiagramKind::kBdd, DiagramKind::kZdd}) {
    for (int trial = 0; trial < 4; ++trial) {
      const tt::TruthTable f = tt::random_function(8, rng);
      const PrefixTable start = compact(initial_table(f), trial, kind);
      const util::Mask block = 0b11011010 & ~start.vars;
      PrefixTable t = start;
      ChainScratch scratch;
      std::vector<int> order;
      OpCounter ops;
      ASSERT_TRUE(greedy_complete(t, block, kind, scratch, &order, &ops));

      PrefixTable ref = start;
      std::vector<int> ref_order;
      while ((ref.free_mask() & block) != 0) {
        PrefixTable best;
        int best_var = -1;
        util::for_each_bit(ref.free_mask() & block, [&](int v) {
          PrefixTable c = compact(ref, v, kind);
          if (best_var < 0 || c.mincost() < best.mincost()) {
            best = std::move(c);
            best_var = v;
          }
        });
        ref = std::move(best);
        ref_order.push_back(best_var);
      }
      EXPECT_EQ(order, ref_order);
      EXPECT_EQ(t.vars, start.vars | block);
      EXPECT_EQ(t.cells, ref.cells);
      EXPECT_EQ(t.mincost(), ref.mincost());
      // Every candidate is one COMPACT, finished or cut short.
      std::uint64_t calls = 0;
      for (int k = util::popcount(block); k > 0; --k)
        calls += static_cast<std::uint64_t>(k);
      EXPECT_EQ(ops.compactions, calls);
    }
  }
}

TEST(GreedyComplete, StoppedGovernorLeavesTheTableOnItsChain) {
  const tt::TruthTable f = tt::hidden_weighted_bit(8);
  rt::CancelToken token;
  token.cancel();
  rt::Budget b;
  b.cancel = &token;
  rt::Governor gov(b);
  PrefixTable t = initial_table(f);
  ChainScratch scratch;
  std::vector<int> order;
  EXPECT_FALSE(greedy_complete(t, t.free_mask(), DiagramKind::kBdd, scratch,
                               &order, nullptr, &gov));
  EXPECT_TRUE(order.empty());
  EXPECT_EQ(t.cells, initial_table(f).cells);
}

// --- DP-greedy incumbent ----------------------------------------------------

// A pruned fs_star run with no caller bound self-seeds from the DP-greedy
// step: the incumbent is a real completion (>= the optimum), the run is
// bit-identical to dense, and a caller bound below it is kept.
TEST(DpGreedyIncumbent, SelfSeedIsARealCompletionAndCallerBoundsWin) {
  util::Xoshiro256 rng(0x1c0b);
  for (int trial = 0; trial < 3; ++trial) {
    const tt::TruthTable f = tt::random_function(9, rng);
    const util::Mask all = util::full_mask(9);
    const MinimizeResult dense = fs_minimize(f);
    par::ExecPolicy pruned;
    pruned.prune = par::PruneMode::kBounds;
    const FsStarResult self =
        fs_star(initial_table(f), all, 9, DiagramKind::kBdd, nullptr, pruned);
    EXPECT_GE(self.prune.upper_bound, dense.min_internal_nodes);
    EXPECT_EQ(self.tables.at(all).mincost(), dense.min_internal_nodes);
    EXPECT_EQ(reconstruct_block_order(self, all),
              std::vector<int>(dense.order_root_first.rbegin(),
                               dense.order_root_first.rend()));
    const FsStarResult tight =
        fs_star(initial_table(f), all, 9, DiagramKind::kBdd, nullptr, pruned,
                nullptr, dense.min_internal_nodes);
    EXPECT_EQ(tight.prune.upper_bound, dense.min_internal_nodes);
  }
}

// On a block J over a prefix I the step completes within J only, and its
// bound counts the base's nodes (chain totals).
TEST(DpGreedyIncumbent, BlockRunsBoundTheBlockChain) {
  util::Xoshiro256 rng(0xb10c);
  const tt::TruthTable f = tt::random_function(9, rng);
  const PrefixTable base =
      compact(compact(initial_table(f), 4, DiagramKind::kBdd), 7,
              DiagramKind::kBdd);
  const util::Mask J = 0b001101011;  // leaves variables 2 and 8 free
  const int k = util::popcount(J);
  const FsStarResult dense =
      fs_star(base, J, k, DiagramKind::kBdd, nullptr, par::ExecPolicy{});
  par::ExecPolicy pruned;
  pruned.prune = par::PruneMode::kBounds;
  pruned.num_threads = 2;
  const FsStarResult r =
      fs_star(base, J, k, DiagramKind::kBdd, nullptr, pruned);
  EXPECT_EQ(r.tables.at(J).mincost(), dense.tables.at(J).mincost());
  EXPECT_EQ(reconstruct_block_order(r, J), reconstruct_block_order(dense, J));
  EXPECT_GE(r.prune.upper_bound, dense.tables.at(J).mincost());
  EXPECT_GT(r.prune.upper_bound, base.mincost());
}

}  // namespace
}  // namespace ovo::core

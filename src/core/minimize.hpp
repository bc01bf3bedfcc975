#pragma once
// Public entry points for exact decision-diagram minimization — the paper's
// algorithm FS (Theorem 5) specialized per diagram kind, plus order-cost
// evaluation used by baselines and verification.

#include <cstdint>
#include <span>
#include <vector>

#include "core/prefix_table.hpp"
#include "parallel/exec_policy.hpp"
#include "tt/truth_table.hpp"

namespace ovo::core {

struct MinimizeResult {
  /// Optimal variable reading order, root first: order_root_first[0] is the
  /// variable read first (the paper's x_{pi[n]}).
  std::vector<int> order_root_first;

  /// Internal (non-terminal) node count of the minimum diagram,
  /// MINCOST_{[n]}. The paper's figures count terminals too: add
  /// 2 for BDD/ZDD, the number of distinct values for MTBDD.
  std::uint64_t min_internal_nodes = 0;

  /// Work performed, in table cells processed (Theorem 5: O*(3^n)).
  OpCounter ops;
};

/// Exact minimum OBDD ordering by the Friedman–Supowit DP; O*(3^n) time and
/// space in the number of variables of `f`.  `exec` fans the per-layer
/// subset sweep out over the ovo::par pool; the default is serial, and
/// results are identical for every thread count.  With exec.prune ==
/// PruneMode::kBounds, `prune_upper_bound` is the caller's pruning
/// incumbent (0 for none; the DP lowers it to its DP-greedy bound, see
/// fs_star) — the result is still exact and bit-identical to the dense
/// run.  Checkpointing and budgets are the governed ladder's job
/// (reorder::minimize_auto, the `fs` strategy).
MinimizeResult fs_minimize(const tt::TruthTable& f,
                           DiagramKind kind = DiagramKind::kBdd,
                           const par::ExecPolicy& exec = {},
                           std::uint64_t prune_upper_bound = 0);

/// Exact minimum ZDD ordering (Appendix D adaptation).
inline MinimizeResult fs_minimize_zdd(const tt::TruthTable& f,
                                      const par::ExecPolicy& exec = {}) {
  return fs_minimize(f, DiagramKind::kZdd, exec);
}

/// Exact minimum MTBDD ordering for a multi-valued function given as a
/// value table of size 2^n (Remark 2).
MinimizeResult fs_minimize_mtbdd(const std::vector<std::int64_t>& values,
                                 int n, const par::ExecPolicy& exec = {});

/// Sentinel returned by governed size evaluations hard-stopped mid-chain.
/// Larger than any real size, so an aborted candidate is never selected.
inline constexpr std::uint64_t kAbortedSize = ~std::uint64_t{0};

/// Internal node count of the diagram for `f` under a full reading order
/// (root first), computed by a single chain of table compactions; O(2^n).
/// This is the exact size oracle used by the heuristic baselines.
/// A non-null `gov` is checked between compactions for hard stops
/// (cancel / wall deadline); an aborted evaluation returns kAbortedSize.
/// Work is NOT charged here — batch callers pre-admit the closed-form
/// chain cost (2^{n+1} - 2 cells per evaluation) to stay deterministic.
std::uint64_t diagram_size_for_order(const tt::TruthTable& f,
                                     const std::vector<int>& order_root_first,
                                     DiagramKind kind = DiagramKind::kBdd,
                                     OpCounter* ops = nullptr,
                                     const rt::Governor* gov = nullptr);

/// Reusable state of one chain evaluator: the two tables a chain
/// ping-pongs between and the dedup table its compactions reset (see
/// compact_into).  Keep one per thread for the life of a request; never
/// share one between threads.
struct ChainScratch {
  PrefixTable cur, next;
  ds::UniqueTable dedup;
};

/// The greedy completion rule: until `t` has placed every variable of
/// `block`, compact the free block variable whose compaction adds the
/// fewest nodes (ties to the lower variable index), appending it to
/// `order_bottom_up` when that is non-null.  Deterministic, and cheap
/// next to the DP — O(|block| · |t.cells|) cells — so it is counted into
/// `ops` (one COMPACT per candidate) but never governor-charged.  Each
/// candidate compacts through `scratch` under the best cost so far
/// (compact_into's limit), so losing candidates stop early and nothing
/// is allocated once the scratch covers t.  A non-null `gov` is polled,
/// reading the clock, before each step; when it is stopped the call
/// returns false and leaves `t` a valid table part-way along the chain.
bool greedy_complete(PrefixTable& t, util::Mask block, DiagramKind kind,
                     ChainScratch& scratch, std::vector<int>* order_bottom_up,
                     OpCounter* ops = nullptr, rt::Governor* gov = nullptr);

/// diagram_size_for_order continuing a chain from `start` and compacting
/// in the caller's scratch, so a caller that evaluates many orders
/// against one function allocates nothing once the scratch capacity
/// covers one chain.  `start` is TABLE_{emptyset} or any table the same
/// chain passes through: its prefix set must be exactly the order's
/// bottom d = |start.vars| variables, and the chain runs only the
/// remaining n - d compactions.  Node ids are canonical along a chain,
/// so the table after the bottom d compactions depends only on those d
/// variables in that order, and the result is bit for bit the size a
/// chain from TABLE_{emptyset} gives.  `start` is read, never mutated
/// (threads may share one).  When `keep` is nonempty the chain writes
/// its depth-k table (the one whose prefix set is the bottom k
/// variables) into keep[k - 1] for every depth k <= keep.size() it
/// reaches, so later chains sharing that many bottom variables can
/// start there.  A stopped `gov` returns kAbortedSize and leaves keep's
/// unreached entries unspecified.  This is the primitive under
/// reorder::CostOracle.
std::uint64_t diagram_size_from_base(const PrefixTable& start,
                                     const std::vector<int>& order_root_first,
                                     DiagramKind kind, ChainScratch& scratch,
                                     OpCounter* ops = nullptr,
                                     const rt::Governor* gov = nullptr,
                                     std::span<PrefixTable> keep = {});

/// MTBDD variant of diagram_size_for_order.
std::uint64_t diagram_size_for_order_values(
    const std::vector<std::int64_t>& values, int n,
    const std::vector<int>& order_root_first, OpCounter* ops = nullptr,
    const rt::Governor* gov = nullptr);

/// Work units one full-chain size evaluation costs (cells read by the n
/// compactions: 2^n + 2^{n-1} + ... + 2 = 2^{n+1} - 2).
inline std::uint64_t chain_eval_cost(int n) {
  return (std::uint64_t{2} << n) - 2;
}

/// Per-level widths (the paper's Cost_{pi[j]} profile, bottom-up: entry 0
/// is the lowest level) under a full reading order.
std::vector<std::uint64_t> level_profile_for_order(
    const tt::TruthTable& f, const std::vector<int>& order_root_first,
    DiagramKind kind = DiagramKind::kBdd);

}  // namespace ovo::core

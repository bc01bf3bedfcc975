#pragma once
// The shared order-cost oracle: every classical ordering search evaluates
// candidate reading orders through one CostOracle, which owns
//
//  * the base prefix table TABLE_{emptyset} (built once per function),
//  * the chain-evaluation scratch — compact_into ping-pong tables, dedup
//    table, and the kept spine tables below (no allocation per
//    evaluation once their capacity covers one chain),
//  * an order-keyed memo cache (ovo::ds::ComputedCache) so repeated
//    candidates across sift passes, windows, restarts, and ladder stages
//    are evaluated once, and
//  * the unified OracleStats counters.
//
// Determinism and budget contract: memoization never changes results or
// governor accounting.  A memo hit returns exactly the size a fresh
// evaluation would have computed (keys are lossless, see below), and the
// governor is charged per *query* — identically to the pre-oracle code —
// so a governed run trips at the same point whether or not the cache is
// warm.  Memoization only skips the computation.
//
// Shared-prefix batches: a chain evaluation compacts bottom level first,
// and candidates in one batch mostly agree at the bottom (a sift step's
// candidates differ only in one variable's position, a window step's
// share everything below the window).  After the memo pre-pass the
// first miss is the *spine*; every other miss gets a *shared depth* d,
// the length of the common suffix of its root-first order and the
// spine's.  The spine runs in full and keeps its tables at depths
// 1..D (D = the largest shared depth); a miss with d > 0 starts from the
// spine's depth-d table and runs only its remaining n - d compactions.
// This is exact: node ids are canonical along a chain, so the table and
// MINCOST after the bottom d compactions depend only on those d
// variables in that order — a continued chain gives bit for bit the size
// a chain from TABLE_{emptyset} gives.  The kept tables hold
// 2^{n-1} + ... + 2^{n-D} < 2^n cells and are reused across batches.
// Misses run in two waves over the pool: the spine beside the misses
// with d = 0, then the misses that continue from the spine.  Counters:
// queries / evals / memo_hits come from the serial pre-pass and are
// unchanged by sharing, and the governor is still charged
// chain_eval_cost() per admitted query; only stats().ops — the COMPACT
// calls actually made — falls.
//
// Memo keying: an order is packed into ceil(log2 n) bits per variable,
// root first, into the cache's 96-bit (uint64, uint32) key while that
// fits (n <= 19).  Longer orders are keyed by their rank among the n!
// orders (factorial-number-system digits, root first), which fits in 96
// bits up to n = 27, past any n whose truth table fits in memory.  The
// rank alone would do for every n, but the cache is direct-mapped and a
// different key moves its slot collisions: rank-keyed, sifting hwb12
// makes 436 evaluations and 141 hits instead of 435 and 142.  Both
// keys are injective and the cache compares full keys, so a hit is never
// a collision.  Beyond n = 27 the memo is off and every query evaluates.

#include <cstdint>
#include <vector>

#include "core/minimize.hpp"
#include "core/prefix_table.hpp"
#include "ds/computed_cache.hpp"
#include "reorder/eval_context.hpp"
#include "rt/budget.hpp"
#include "tt/truth_table.hpp"

namespace ovo::reorder {

class CostOracle {
 public:
  /// Oracle over a truth table (BDD or ZDD chain evaluation).
  CostOracle(const tt::TruthTable& f, core::DiagramKind kind);

  /// Oracle over an MTBDD value table of size 2^n.
  CostOracle(const std::vector<std::int64_t>& values, int n);

  CostOracle(const CostOracle&) = delete;
  CostOracle& operator=(const CostOracle&) = delete;

  int num_vars() const { return base_.n; }
  core::DiagramKind kind() const { return kind_; }

  /// TABLE_{emptyset}, shared with callers that run their own chains
  /// (brute force, BnB, the FS* DP) against the same function.
  const core::PrefixTable& base() const { return base_; }

  /// Work units one full-chain evaluation costs (2^{n+1} - 2 cells).
  std::uint64_t chain_eval_cost() const {
    return core::chain_eval_cost(base_.n);
  }

  bool memo_enabled() const;

  /// Internal node count of the diagram under `order_root_first`.
  /// A non-null `gov` is polled for hard stops: a stopped query returns
  /// core::kAbortedSize (never memoized).  Work is NOT charged here —
  /// callers admit/charge at their serial program points, exactly as
  /// before the oracle existed.
  std::uint64_t size_for_order(const std::vector<int>& order_root_first,
                               const rt::Governor* gov = nullptr);

  /// Batch evaluation of candidate orders, preserving the pre-oracle
  /// semantics bit for bit: with ctx.gov the batch is first
  /// truncated — serially — to the prefix the remaining work budget
  /// admits (chain_eval_cost() units per candidate, charged whether or
  /// not the candidate later hits the memo), then memo hits are resolved
  /// serially and only the misses run, as a shared-prefix family (see
  /// the header comment) fanned out one candidate per chunk by default.
  /// Entries not admitted or hard-stopped mid-chain hold
  /// core::kAbortedSize, which no selection scan can pick as a best; a
  /// stopped spine leaves every miss that would continue from it there.
  std::vector<std::uint64_t> sizes_for_orders(
      const std::vector<std::vector<int>>& candidates,
      const EvalContext& ctx);

  OracleStats& stats() { return stats_; }
  const OracleStats& stats() const { return stats_; }

 private:
  /// Packs an order into the memo key; false when the memo is disabled.
  bool pack_key(const std::vector<int>& order, std::uint64_t* a,
                std::uint32_t* b) const;

  core::DiagramKind kind_;
  core::PrefixTable base_;
  ds::ComputedCache memo_;
  core::ChainScratch scratch_;
  /// The current batch's spine tables: spine_[k - 1] holds the depth-k
  /// table (2^{n-k} cells, under 2^n in all), reused across batches.
  std::vector<core::PrefixTable> spine_;
  OracleStats stats_;
};

}  // namespace ovo::reorder

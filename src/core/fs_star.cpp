#include "core/fs_star.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <limits>
#include <numeric>
#include <optional>
#include <utility>

#include "core/minimize.hpp"
#include "ds/sparse_index.hpp"
#include "obs/trace.hpp"
#include "parallel/thread_pool.hpp"
#include "util/check.hpp"
#include "util/combinatorics.hpp"

namespace ovo::core {

namespace {

/// Expands a dense subset of J's bit positions into a variable mask.
util::Mask spread_mask(util::Mask dense, const std::vector<int>& j_vars) {
  util::Mask K = 0;
  util::for_each_bit(dense, [&](int b) {
    K |= util::Mask{1} << j_vars[static_cast<std::size_t>(b)];
  });
  return K;
}

/// Per-thread-slot compaction scratch: the candidate table the inner loop
/// compacts into, and the dedup table every one of those compactions
/// resets and reuses (see compact_into).  One per slot per run, so it
/// lives exactly as long as the request's DP.
struct SlotScratch {
  PrefixTable cand;
  ds::UniqueTable dedup;
};

/// What one state's candidate sweep found.
struct Argmin {
  int var = -1;  ///< winning last variable; -1 when every candidate was cut
  std::uint64_t cost = kNoCostLimit;  ///< the winner's MINCOST
  bool any_live = false;  ///< some predecessor was present in the layer
};

/// Lemma 7's argmin for dense subset `d`, the dense DP's per-state
/// kernel and the core of the pruned one.  `pred(mask)` returns the
/// index of a predecessor table in `prev`, or ds::SparseIndex::npos when
/// the predecessor is gone (pruned or dead); absent predecessors are
/// skipped.  Candidates are
/// visited in ascending bit order and each compacts under the limit
/// min(first_limit, best cost so far), so a candidate finishes only when
/// it strictly beats every earlier one and the first limit — the
/// first-candidate-wins tie-break of the unbounded sweep.  The winner's
/// table lands in `best`.
template <typename Pred>
Argmin best_last_for_subset(util::Mask d,
                            const std::vector<PrefixTable>& prev,
                            Pred&& pred, const std::vector<int>& j_vars,
                            DiagramKind kind, std::uint64_t first_limit,
                            OpCounter* shard, SlotScratch& sc,
                            PrefixTable& best) {
  Argmin a;
  std::uint64_t limit = first_limit;
  util::for_each_bit(d, [&](int b) {
    const std::size_t p = pred(d & ~(util::Mask{1} << b));
    if (p == ds::SparseIndex::npos) return;
    a.any_live = true;
    const int var = j_vars[static_cast<std::size_t>(b)];
    if (!compact_into(sc.cand, prev[p], var, kind, shard, nullptr, &sc.dedup,
                      limit))
      return;
    a.var = var;
    a.cost = limit = sc.cand.mincost();
    std::swap(best, sc.cand);
  });
  return a;
}

std::uint64_t engine_now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// ---------------------------------------------------------------------------
// Checkpoint/resume plumbing (see fs_checkpoint.hpp for the contract).

/// Dispatch-resolved checkpoint plan handed to the layer loop: the caller's
/// options plus the run's fingerprint and the effective pruning incumbent
/// (recorded into every written snapshot so a resume prunes against the
/// identical bound).
struct CkptPlan {
  const FsCheckpointOptions* opts = nullptr;
  FsFingerprint fp;
  std::uint32_t num_terminals = 2;
  std::uint64_t prune_ub = 0;  ///< effective incumbent; 0 in dense mode
  /// Pruned runs: the op counts from before the DP-greedy step, which a
  /// layer-0 snapshot records because a resume from layer 0 runs the
  /// step again (see fs_star).
  std::optional<OpCounter> ops_before_step;

  bool writes() const { return opts != nullptr && opts->writes(); }
  const FsStarSnapshot* resume() const {
    return opts != nullptr ? opts->resume : nullptr;
  }
};

/// Emits one layer-fence snapshot from the layer loop's state at a fence,
/// where `dense`/`tables` hold the completed layer, the result maps are
/// published through it, and `ops`/`gov` hold merged totals.
void emit_fence_snapshot(const CkptPlan& plan, int layer,
                         const std::vector<util::Mask>& dense,
                         const std::vector<PrefixTable>& tables,
                         const FsStarResult& result, const OpCounter* ops,
                         const rt::Governor* gov) {
  OVO_TRACE_SPAN_ARGS("fs.checkpoint", "rt", 0, "layer",
                      static_cast<std::uint64_t>(layer), nullptr, 0);
  FsSnapshotView v;
  v.fingerprint = &plan.fp;
  v.num_terminals = plan.num_terminals;
  v.layer = layer;
  v.dense = &dense;
  v.tables = &tables;
  v.best_last = &result.best_last;
  v.mincost = &result.mincost;
  v.prune = &result.prune;
  v.certified_lower_bound = result.certified_lower_bound;
  v.ops = layer == 0 && plan.ops_before_step ? &*plan.ops_before_step : ops;
  v.work_charged = gov != nullptr ? gov->stats().work_units : 0;
  v.prune_upper_bound = plan.prune_ub;
  v.seed_order = &plan.opts->seed_order;
  v.rng_seed = plan.opts->rng_seed;
  v.seed_name = &plan.opts->seed_name;
  v.seed_stats = &plan.opts->seed_stats;
  const std::vector<std::uint8_t> payload = encode_snapshot(v);
  if (plan.opts->on_bytes) plan.opts->on_bytes(payload);
  if (!plan.opts->path.empty()) save_snapshot(plan.opts->path, payload);
}

/// True at a fence that should persist: the cadence hit (or a trip, which
/// the layer loop handles separately).
bool fence_due(const CkptPlan& plan, int layer, int stop_k) {
  return plan.writes() && layer < stop_k && plan.opts->every > 0 &&
         layer % plan.opts->every == 0;
}

/// Seeds a result with a snapshot's accumulated maps and ledgers.  The
/// layer loop then replays layers `snapshot.layer + 1 ..` exactly as the
/// uninterrupted run would have.
void apply_resume(FsStarResult& result, const FsStarSnapshot& s) {
  for (const auto& [mask, var] : s.best_last)
    result.best_last.emplace(mask, var);
  for (const auto& [mask, cost] : s.mincost)
    result.mincost.emplace(mask, cost);
  result.prune = s.prune;
  result.certified_lower_bound = s.certified_lower_bound;
  result.completed_layers = s.layer;
}

// ---------------------------------------------------------------------------
// Bound-pruned mode: admissible per-state lower bounds and sparse layers.

/// Free variables of `t` whose assignment can change a cell id.  Because
/// ids are canonical per table, v is in the support iff two cells
/// differing only in v's coordinate differ — i.e. some pair of
/// subfunctions over the placed variables differs, a property invariant
/// under compacting *other* variables.  So the support computed once on
/// the base table is each DP state's exact remaining-dependence set.
util::Mask table_support(const PrefixTable& t) {
  util::Mask support = 0;
  const std::vector<int> free_vars = util::bits_of(t.free_mask());
  for (std::size_t p = 0; p < free_vars.size(); ++p) {
    const std::size_t stride = std::size_t{1} << p;
    bool depends = false;
    for (std::size_t lo = 0; lo < t.cells.size() && !depends;
         lo += 2 * stride) {
      for (std::size_t i = lo; i < lo + stride; ++i) {
        if (t.cells[i] != t.cells[i + stride]) {
          depends = true;
          break;
        }
      }
    }
    if (depends) support |= util::Mask{1} << free_vars[p];
  }
  return support;
}

/// Per-slot scratch for the distinct-id count: a generation-stamped array
/// over node ids — O(|cells|) per count, no clearing between states.
struct BoundScratch {
  std::vector<std::uint32_t> stamp;
  std::uint32_t gen = 0;
};

/// Number of distinct ids among t.cells — the distinct subfunctions any
/// completion of the block must still reach.
std::uint64_t distinct_cell_count(const PrefixTable& t, BoundScratch& bs) {
  if (bs.stamp.size() < t.next_id)
    bs.stamp.resize(static_cast<std::size_t>(t.next_id), 0);
  if (++bs.gen == 0) {  // generation wrap: clear once, restart at 1
    std::fill(bs.stamp.begin(), bs.stamp.end(), 0);
    bs.gen = 1;
  }
  std::uint64_t d = 0;
  for (std::uint32_t id : t.cells) {
    if (bs.stamp[static_cast<std::size_t>(id)] != bs.gen) {
      bs.stamp[static_cast<std::size_t>(id)] = bs.gen;
      ++d;
    }
  }
  return d;
}

/// Admissible completion bound: nodes ANY placement of the remaining
/// block variables must still create from a state with table `t`.
///  * Sink bound: the q nodes the completed block adds carry 2q outgoing
///    pointers, the finished block's table contributes `final_cells`
///    root pointers, and each of the q nodes plus each of t's d distinct
///    cell ids needs at least one incoming pointer — so 2q + final_cells
///    >= q + d, i.e. q >= d - final_cells.
///  * Dependence bound: every remaining block variable in the function's
///    support labels at least one created node (support is placement-
///    invariant, see table_support).
/// Both hold for every completion order, so their max is admissible.
std::uint64_t completion_bound(const PrefixTable& t, util::Mask remaining,
                               util::Mask base_support,
                               std::uint64_t final_cells, BoundScratch& bs) {
  const std::uint64_t d = distinct_cell_count(t, bs);
  const std::uint64_t sinks = d > final_cells ? d - final_cells : 0;
  const std::uint64_t dep =
      static_cast<std::uint64_t>(util::popcount(base_support & remaining));
  return sinks > dep ? sinks : dep;
}

/// DP state fates in the layer loop.
enum : std::uint8_t { kStateDead = 0, kStatePruned = 1, kStateAlive = 2 };

/// The fixed inputs of every prune decision in one pruned run.
struct PruneBounds {
  util::Mask J = 0;
  std::uint64_t ub = 0;            ///< the incumbent
  util::Mask base_support = 0;     ///< placement-invariant, see table_support
  std::uint64_t final_cells = 0;   ///< cells of the finished block's table

  PruneBounds(const PrefixTable& base, util::Mask block, std::uint64_t inc)
      : J(block),
        ub(inc),
        base_support(table_support(base) & block),
        final_cells(static_cast<std::uint64_t>(base.cells.size()) >>
                    util::popcount(block)) {}
};

/// Expands one state of a pruned run and decides its fate: kStateDead
/// when `pred` finds no predecessor, kStatePruned when the state cannot
/// survive (its table, if any, is freed on the spot), kStateAlive with
/// `table`, `var`, `cost` and `bound` set otherwise.
///
/// The state survives iff cost + completion_bound <= ub, and the bound's
/// dependence half `dep` needs no table.  So no candidate costing at
/// least ub + 1 - dep can make it survive, and that is the first limit
/// of the candidate sweep.  When it cuts every candidate the state is
/// pruned with no table: the decision the full sweep would have reached.
/// A surviving state's winner costs less than the limit, so its argmin
/// and tie-break are the unbounded sweep's.  Skipping an absent
/// predecessor never changes a surviving state's argmin either: every
/// chain through a pruned predecessor already exceeds the incumbent.
template <typename Pred>
std::uint8_t expand_pruned_state(const PruneBounds& pb, util::Mask d,
                                 const std::vector<PrefixTable>& prev,
                                 Pred&& pred, const std::vector<int>& j_vars,
                                 DiagramKind kind, OpCounter* shard,
                                 SlotScratch& sc, BoundScratch& bs,
                                 PrefixTable& table, int* var,
                                 std::uint64_t* cost, std::uint64_t* bound) {
  const util::Mask rest = pb.J & ~spread_mask(d, j_vars);
  const std::uint64_t dep =
      static_cast<std::uint64_t>(util::popcount(pb.base_support & rest));
  const std::uint64_t first_limit =  // ub + 1 - dep, saturating both ways
      dep > pb.ub ? 0 : std::min(pb.ub - dep, kNoCostLimit - 1) + 1;
  const Argmin a = best_last_for_subset(d, prev, pred, j_vars, kind,
                                        first_limit, shard, sc, table);
  if (!a.any_live) return kStateDead;
  if (a.var < 0) return kStatePruned;
  *var = a.var;
  *cost = a.cost;
  *bound = a.cost +
           completion_bound(table, rest, pb.base_support, pb.final_cells, bs);
  if (*bound <= pb.ub) return kStateAlive;
  std::vector<std::uint32_t>().swap(table.cells);
  return kStatePruned;
}

/// The FS* layer loop, dense (`pb` == nullptr) or bound-pruned.  Each
/// layer runs one parallel_for over its candidate states, then a serial
/// epilogue publishes the survivors in ascending mask order, merges the
/// op shards, charges the governor and writes the fence snapshot.
///
/// A layer holds its states packed in ascending mask order, which for a
/// fixed popcount is colex rank order.  Candidates are the states with
/// at least one predecessor present.  A complete previous layer (always
/// so in dense mode) makes every state a candidate and is looked up by
/// colex rank; a sparse one is enumerated and looked up through a
/// ds::SparseIndex.  Both lookups give the same index on a complete
/// layer, so the storage choice never changes a result.
///
/// Admission: the layer's work is one predecessor-cells sweep per
/// present predecessor, and its residency half the predecessor cells per
/// candidate on top of the previous layer (Remark 1: both layers are
/// resident while the next one is built).  With every predecessor
/// present this is the dense closed form.  The decision is made before
/// the layer is built and does not depend on the thread count.
///
/// Determinism: each state's kernel reads only the previous layer and
/// writes only its own slot; in pruned mode the incumbent is fixed and
/// each state's bound is local, so the surviving set is a function of
/// (base, J, ub) alone.  Orders, sizes, tie-breaks and the merged
/// OpCounter totals are the same at every thread count.  A stopped run
/// discards its partial layer, op counts included.
///
/// Barrier-wait accounting: the per-layer epilogue after every fanned-out
/// region and the final extraction each leave threads - 1 participants
/// parked, so (threads - 1) x their duration is charged to
/// par::charge_barrier_wait.
FsStarResult fs_layers(const PrefixTable& base, util::Mask J, int stop_k,
                       DiagramKind kind, OpCounter* ops, int threads,
                       std::uint64_t grain, rt::Governor* gov,
                       const PruneBounds* pb, const CkptPlan& plan) {
  const int j_size = util::popcount(J);
  const std::vector<int> j_vars = util::bits_of(J);
  const auto& binom = util::BinomialTable::instance();
  par::ThreadPool& pool = par::ThreadPool::shared();

  FsStarResult result;
  result.mincost.emplace(util::Mask{0}, base.mincost());

  // Per-thread-slot state: scratch so the inner loop's candidate
  // compactions reuse one table and one dedup per thread, and OpCounter
  // shards merged after each layer (exact: all fields commute).
  std::vector<SlotScratch> scratch(static_cast<std::size_t>(threads));
  std::vector<OpCounter> shards(static_cast<std::size_t>(threads));
  std::vector<BoundScratch> bounds(static_cast<std::size_t>(threads));

  // Layer 0 is the base.  A resume snapshot's layer (packed survivors
  // when pruned) stands in for layers 0..snapshot.layer, and its ledger
  // replaces the layer-0 certification.
  const FsStarSnapshot* resume = plan.resume();
  const int start_layer = resume != nullptr ? resume->layer : 0;
  std::vector<PrefixTable> prev;
  std::vector<util::Mask> prev_dense;
  if (resume != nullptr) {
    apply_resume(result, *resume);
    prev = resume->tables;  // copies: one snapshot may seed many runs
    prev_dense = resume->dense;
  } else {
    prev.push_back(base);
    prev_dense.push_back(util::Mask{0});
    // The run may trip before layer 1: layer 0's bound is still
    // certified.
    if (pb != nullptr)
      result.certified_lower_bound =
          base.mincost() + completion_bound(base, J, pb->base_support,
                                            pb->final_cells, bounds[0]);
  }
  // A layer-0 resume reran the DP-greedy step: its bound is the run's.
  if (pb != nullptr) result.prune.upper_bound = pb->ub;

  const std::atomic<bool>* stop_flag =
      gov != nullptr ? gov->stop_flag() : nullptr;
  std::uint64_t prev_resident = 0;
  for (const PrefixTable& t : prev) prev_resident += t.cells.size();
  std::uint64_t serial_ns = 0;
  int last_snapshot_layer = -1;
  for (int layer = start_layer + 1; layer <= stop_k; ++layer) {
    const std::uint64_t layer_size = binom.choose(j_size, layer);
    const std::uint64_t pred_cells =
        static_cast<std::uint64_t>(base.cells.size()) >> (layer - 1);

    // Candidates in ascending mask order, and the predecessors present
    // summed over them: the layer's exact compaction count.  Gosper
    // enumeration yields masks in increasing numeric order.
    const bool prev_complete =
        prev_dense.size() == binom.choose(j_size, layer - 1);
    std::optional<ds::SparseIndex> prev_index;
    std::vector<util::Mask> cand;
    std::uint64_t n_comp = 0;
    if (prev_complete) {
      cand.reserve(static_cast<std::size_t>(layer_size));
      util::for_each_subset_of_size(j_size, layer, [&](util::Mask m) {
        cand.push_back(m);
      });
      OVO_CHECK_MSG(cand.size() == layer_size,
                    "fs_star: layer enumeration incomplete");
      n_comp = layer_size * static_cast<std::uint64_t>(layer);
    } else {
      prev_index.emplace(prev_dense);
      util::for_each_subset_of_size(j_size, layer, [&](util::Mask m) {
        int live = 0;
        util::for_each_bit(m, [&](int b) {
          if (prev_index->contains(m & ~(util::Mask{1} << b))) ++live;
        });
        if (live > 0) {
          cand.push_back(m);
          n_comp += static_cast<std::uint64_t>(live);
        }
      });
    }

    const std::uint64_t layer_work = n_comp * pred_cells;
    if (gov != nullptr) {
      const std::uint64_t resident =
          prev_resident +
          static_cast<std::uint64_t>(cand.size()) * (pred_cells >> 1);
      if (!gov->admit_nodes(resident) ||
          !gov->admit_bytes(resident * sizeof(base.cells[0])) ||
          !gov->admit_work(layer_work))
        break;
    }
    OVO_TRACE_SPAN_VAR(layer_span, "fs.layer", "fs", 0, "layer", layer,
                       "states");

    const auto pred = [&](util::Mask pd) -> std::size_t {
      if (prev_index) return prev_index->rank(pd);
      const std::size_t r = static_cast<std::size_t>(binom.rank(pd));
      OVO_DCHECK(r < prev_dense.size() && prev_dense[r] == pd);
      return r;
    };
    std::vector<PrefixTable> cur(cand.size());
    std::vector<int> best_var(cand.size(), -1);
    std::vector<std::uint64_t> best_cost(cand.size());
    std::vector<std::uint64_t> bound(pb != nullptr ? cand.size() : 0);
    std::vector<std::uint8_t> status(cand.size(), kStateDead);

    // A layer of <= grain states takes parallel_for's serial fast path;
    // its epilogue is not a fan-out seam, so it is not charged.
    const bool fans_out = threads > 1 && cand.size() > grain;
    pool.parallel_for(0, cand.size(), grain, threads, stop_flag,
                      [&](std::uint64_t i, int slot) {
      if (gov != nullptr) gov->poll_clock();  // one clock read per state
      const std::size_t sl = static_cast<std::size_t>(slot);
      const std::size_t s = static_cast<std::size_t>(i);
      OpCounter* shard = ops != nullptr ? &shards[sl] : nullptr;
      if (pb != nullptr) {
        status[s] = expand_pruned_state(*pb, cand[s], prev, pred, j_vars,
                                        kind, shard, scratch[sl], bounds[sl],
                                        cur[s], &best_var[s], &best_cost[s],
                                        &bound[s]);
        return;
      }
      const Argmin a =
          best_last_for_subset(cand[s], prev, pred, j_vars, kind,
                               kNoCostLimit, shard, scratch[sl], cur[s]);
      best_var[s] = a.var;
      best_cost[s] = a.cost;
      status[s] = a.var >= 0 ? kStateAlive : kStateDead;
    });
    const std::uint64_t epilogue_t0 = fans_out ? engine_now_ns() : 0;
    if (gov != nullptr && gov->stopped()) break;  // discard partial layer

    // Serial epilogue: publish survivors in rank order and pack them to
    // the front of the layer.
    std::uint64_t cur_resident = 0;
    std::uint64_t layer_lb_min = std::numeric_limits<std::uint64_t>::max();
    std::size_t kept = 0;
    for (std::size_t i = 0; i < cand.size(); ++i) {
      OVO_CHECK(status[i] != kStateDead);  // candidates have a predecessor
      if (status[i] != kStateAlive) continue;
      const util::Mask K = spread_mask(cand[i], j_vars);
      result.best_last.emplace(K, best_var[i]);
      result.mincost.emplace(K, best_cost[i]);
      if (pb != nullptr && bound[i] < layer_lb_min) layer_lb_min = bound[i];
      cur_resident += cur[i].cells.size();
      if (kept != i) {
        cand[kept] = cand[i];
        cur[kept] = std::move(cur[i]);
      }
      ++kept;
    }
    OVO_CHECK_MSG(kept > 0,
                  "fs_star: pruning incumbent below the true optimum");
    if (pb != nullptr) {
      result.prune.states_generated += cand.size();
      result.prune.states_pruned += cand.size() - kept;
      result.prune.states_dead += layer_size - cand.size();
      result.prune.states_surviving += kept;
      result.prune.dense_cells += layer_size * (pred_cells >> 1);
      result.prune.sparse_cells += cur_resident;
      result.certified_lower_bound = layer_lb_min;
    }
    cand.resize(kept);
    cur.resize(kept);
    if (ops != nullptr) {
      for (OpCounter& shard : shards) {
        *ops += shard;
        shard.reset();
      }
      ops->observe_resident(prev_resident + cur_resident);
    }
    prev_resident = cur_resident;
    prev = std::move(cur);
    prev_dense = std::move(cand);
    result.completed_layers = layer;
    OVO_TRACE_SET_B(layer_span, kept);
    if (gov != nullptr) gov->charge(layer_work);
    if (fans_out) serial_ns += engine_now_ns() - epilogue_t0;
    // Snapshot IO happens after charging, so a resumed run's first
    // admit decision sees exactly the work total recorded here.
    if (fence_due(plan, layer, stop_k)) {
      emit_fence_snapshot(plan, layer, prev_dense, prev, result, ops, gov);
      last_snapshot_layer = layer;
    }
  }

  // Trip snapshot: persist the deepest completed layer even off-cadence,
  // so a budget/cancel trip never loses fence state.  It must run before
  // extraction moves the tables out, and before the prune ledger merges
  // into `ops`: fence-time ops never include that merge, so a resumed
  // run (which restores snapshot.ops and result.prune, then merges at
  // its own end) reproduces the uninterrupted run's totals exactly.
  if (plan.writes() && plan.opts->on_trip &&
      result.completed_layers < stop_k &&
      result.completed_layers != last_snapshot_layer)
    emit_fence_snapshot(plan, result.completed_layers, prev_dense, prev,
                        result, ops, gov);

  const std::uint64_t extract_t0 = threads > 1 ? engine_now_ns() : 0;
  for (std::size_t r = 0; r < prev.size(); ++r)
    result.tables.emplace(spread_mask(prev_dense[r], j_vars),
                          std::move(prev[r]));
  if (threads > 1) {
    serial_ns += engine_now_ns() - extract_t0;
    par::charge_barrier_wait(static_cast<std::uint64_t>(threads - 1) *
                             serial_ns);
  }
  if (pb != nullptr && ops != nullptr) ops->prune += result.prune;
  return result;
}

/// Closed-form total compaction work of a dense run: each layer-k state
/// costs k compactions over base_cells >> (k-1) predecessor cells.  Used
/// by the small-n serial fallback: below kSerialFallbackWork (a
/// full-width block of n <= 6) the whole DP takes microseconds, less
/// than waking the pool and crossing a barrier per layer.
std::uint64_t dense_dp_work(int j_size, std::uint64_t base_cells,
                            int stop_k) {
  const auto& binom = util::BinomialTable::instance();
  std::uint64_t total = 0;
  for (int k = 1; k <= stop_k; ++k)
    total += binom.choose(j_size, k) * static_cast<std::uint64_t>(k) *
             (base_cells >> (k - 1));
  return total;
}

constexpr std::uint64_t kSerialFallbackWork = std::uint64_t{1} << 13;

/// Layer-1 states the DP-greedy incumbent completes.  On the circuit
/// benchmark's requests, 16 found a better bound on 2 of 36 at up to
/// twice the cost, and starting from layer 2 found none (see
/// docs/INTERNALS.md "DP-greedy incumbent").
constexpr std::size_t kGreedyStarts = 8;

/// The DP-greedy incumbent: builds layer 1 of the DP over J in full,
/// greedily completes its kGreedyStarts cheapest states (ties to the
/// lower variable) within J, and returns min(caller_ub, the cheapest
/// completion), with caller_ub == 0 meaning no caller bound.  Every
/// completion is a real order of J on top of `base`, so the result never
/// falls below the optimum.  Layer 1 and the completions each fan out
/// over `threads` with per-slot scratch, and the minimum is the same at
/// every thread count.  The compactions count into `ops` and are not
/// governor-charged.  `gov` is polled (reading the clock) before every
/// layer-1 state and every greedy step; once it stops, the result keeps
/// the caller's bound or a completion already finished, and kNoCostLimit
/// (no pruning; the stopped DP ends at its first check) when there is
/// neither.
std::uint64_t dp_greedy_incumbent(const PrefixTable& base, util::Mask J,
                                  DiagramKind kind, OpCounter* ops,
                                  int threads, rt::Governor* gov,
                                  std::uint64_t caller_ub) {
  OVO_TRACE_SPAN_VAR(span, "fs.incumbent", "fs", 0, "caller", caller_ub,
                     "effective");
  const std::vector<int> j_vars = util::bits_of(J);
  // Layer 1 and each completion read under |J| · |base| cells apiece;
  // below the DP's own serial-fallback work a fan-out costs more than it
  // buys.
  if ((kGreedyStarts + 1) * j_vars.size() * base.cells.size() <
      kSerialFallbackWork)
    threads = 1;
  par::ThreadPool& pool = par::ThreadPool::shared();
  const std::atomic<bool>* stop_flag =
      gov != nullptr ? gov->stop_flag() : nullptr;
  std::vector<ChainScratch> scratch(static_cast<std::size_t>(threads));
  std::vector<OpCounter> shards(static_cast<std::size_t>(threads));
  const auto shard = [&](int slot) {
    return ops != nullptr ? &shards[static_cast<std::size_t>(slot)]
                          : nullptr;
  };

  std::vector<PrefixTable> layer1(j_vars.size());
  pool.parallel_for(0, j_vars.size(), 1, threads, stop_flag,
                    [&](std::uint64_t i, int slot) {
                      if (gov != nullptr && gov->poll_clock()) return;
                      compact_into(layer1[i], base, j_vars[i], kind,
                                   shard(slot), nullptr,
                                   &scratch[static_cast<std::size_t>(slot)]
                                        .dedup);
                    });
  std::vector<std::size_t> starts;
  if (gov == nullptr || !gov->stopped()) {
    starts.resize(j_vars.size());
    std::iota(starts.begin(), starts.end(), std::size_t{0});
    std::stable_sort(starts.begin(), starts.end(),
                     [&](std::size_t a, std::size_t b) {
                       return layer1[a].mincost() < layer1[b].mincost();
                     });
    starts.resize(std::min(starts.size(), kGreedyStarts));
  }

  std::vector<std::uint64_t> sizes(starts.size(), kNoCostLimit);
  pool.parallel_for(0, starts.size(), 1, threads, stop_flag,
                    [&](std::uint64_t k, int slot) {
                      PrefixTable& t = layer1[starts[k]];
                      if (greedy_complete(
                              t, J, kind,
                              scratch[static_cast<std::size_t>(slot)],
                              nullptr, shard(slot), gov))
                        sizes[k] = t.mincost();
                    });
  if (ops != nullptr)
    for (const OpCounter& sh : shards) *ops += sh;

  std::uint64_t ub = caller_ub != 0 ? caller_ub : kNoCostLimit;
  for (const std::uint64_t s : sizes) ub = std::min(ub, s);
  OVO_TRACE_SET_B(span, ub);
  return ub;
}

}  // namespace

FsStarResult fs_star(const PrefixTable& base, util::Mask J, int stop_k,
                     DiagramKind kind, OpCounter* ops,
                     const par::ExecPolicy& exec, rt::Governor* gov,
                     std::uint64_t prune_upper_bound,
                     const FsCheckpointOptions* ckpt) {
  OVO_CHECK_MSG((base.vars & J) == 0, "fs_star: J overlaps prefix I");
  OVO_CHECK_MSG(util::is_subset(J, util::full_mask(base.n)),
                "fs_star: J outside variable universe");
  const int j_size = util::popcount(J);
  OVO_CHECK_MSG(stop_k >= 0 && stop_k <= j_size, "fs_star: bad stop layer");

  int threads = par::ThreadPool::clamp_threads(exec.resolved_threads());
  // Per-subset work is exponential in the free-variable count, so the
  // default chunk is a single subset.
  const std::uint64_t grain = exec.grain != 0 ? exec.grain : 1;

  // Small-n serial fallback: when the whole DP's closed-form work is
  // below the fan-out's break-even, or no layer even fills one chunk,
  // run serially — same loop, same results, no pool round-trip.  Layer
  // sizes C(|J|, k) peak at k = |J|/2.
  if (threads > 1 && stop_k > 0) {
    const std::uint64_t widest = util::BinomialTable::instance().choose(
        j_size, std::min(stop_k, j_size / 2));
    if (dense_dp_work(j_size, base.cells.size(), stop_k) <
            kSerialFallbackWork ||
        widest <= grain)
      threads = 1;
  }

  // Bound pruning applies only to full-block runs: stop-early callers
  // (partition search over block boundaries) require a table for *every*
  // stop-layer subset, which pruning deliberately violates.
  const bool prune = exec.prune == par::PruneMode::kBounds &&
                     stop_k == j_size && j_size > 0;

  // Checkpoint plan: fingerprint the run, validate a resume snapshot
  // against it (a mismatch is the *caller's* instance error, so it is a
  // typed CheckpointError, not an OVO_CHECK), and restore the fence
  // ledgers once, at this serial point — every later charge and admit
  // then replays the uninterrupted run's decisions bit for bit.
  CkptPlan plan;
  if (ckpt != nullptr && ckpt->active()) {
    plan.opts = ckpt;
    plan.num_terminals = base.num_terminals;
    plan.fp = fs_fingerprint(
        base, J, stop_k, kind,
        prune ? par::PruneMode::kBounds : par::PruneMode::kOff);
    if (ckpt->resume != nullptr) {
      if (!(ckpt->resume->fingerprint == plan.fp))
        throw rt::CheckpointError(
            rt::CheckpointErrorKind::kWrongInstance,
            "checkpoint: snapshot fingerprint does not match this run "
            "(different function, block, stop layer, kind, or prune mode)");
      if (ops != nullptr) *ops += ckpt->resume->ops;
      if (gov != nullptr) gov->restore_work(ckpt->resume->work_charged);
    }
  }
  const FsStarSnapshot* resume = plan.resume();

  if (prune) {
    // The incumbent is fixed here, before layer 1.  A snapshot past
    // layer 0 carries the *effective* incumbent of the original run, so
    // resuming from it skips the DP-greedy step — bounds and ops replay
    // identically.  A layer-0 snapshot may come from a run stopped inside
    // the step, holding only the caller's bound or a partial minimum;
    // resuming from it runs the step again with that bound as the
    // caller's, which gives the uninterrupted run's min(caller,
    // DP-greedy) because every completion is deterministic.  Its ops are
    // the count from before the step, so the step is counted once.
    const bool run_step = resume == nullptr || resume->layer == 0;
    if (ops != nullptr && plan.writes()) plan.ops_before_step = *ops;
    const std::uint64_t ub =
        run_step ? dp_greedy_incumbent(
                       base, J, kind, ops, threads, gov,
                       resume != nullptr ? resume->prune_upper_bound
                                         : prune_upper_bound)
                 : resume->prune_upper_bound;
    plan.prune_ub = ub;
    const PruneBounds pb(base, J, ub);
    return fs_layers(base, J, stop_k, kind, ops, threads, grain, gov, &pb,
                     plan);
  }
  return fs_layers(base, J, stop_k, kind, ops, threads, grain, gov, nullptr,
                   plan);
}

PrefixTable fs_star_full(const PrefixTable& base, util::Mask J,
                         DiagramKind kind, OpCounter* ops,
                         std::vector<int>* block_order_bottom_up,
                         const par::ExecPolicy& exec,
                         std::uint64_t prune_upper_bound,
                         const FsCheckpointOptions* ckpt) {
  FsStarResult r = fs_star(base, J, util::popcount(J), kind, ops, exec,
                           nullptr, prune_upper_bound, ckpt);
  if (block_order_bottom_up != nullptr)
    *block_order_bottom_up = reconstruct_block_order(r, J);
  auto it = r.tables.find(J);
  OVO_CHECK(it != r.tables.end());
  return std::move(it->second);
}

std::vector<int> reconstruct_block_order(const FsStarResult& r,
                                         util::Mask J) {
  std::vector<int> top_down;
  util::Mask K = J;
  while (K != 0) {
    const auto it = r.best_last.find(K);
    OVO_CHECK_MSG(it != r.best_last.end(),
                  "reconstruct_block_order: missing back-pointer");
    top_down.push_back(it->second);
    K &= ~(util::Mask{1} << it->second);
  }
  return {top_down.rbegin(), top_down.rend()};  // bottom-up
}

}  // namespace ovo::core

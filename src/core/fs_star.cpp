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
#include "parallel/task_graph.hpp"
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
/// resets and reuses (see compact_into).  One per slot per engine run, so
/// it lives exactly as long as the request's DP.
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

/// Lemma 7's argmin for dense subset `d`, the one candidate kernel of
/// every engine.  `pred(mask)` returns the index of a predecessor table
/// in `prev`, or ds::SparseIndex::npos when the predecessor is gone
/// (pruned or dead); absent predecessors are skipped.  Candidates are
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

/// Predecessor lookup into a dense layer, where every subset is present
/// at its colex rank — an O(layer) table-driven computation in place of
/// the seed's hash find.
auto dense_pred(const util::BinomialTable& binom,
                const std::vector<util::Mask>& prev_dense) {
  return [&binom, &prev_dense](util::Mask pd) {
    const std::size_t r = static_cast<std::size_t>(binom.rank(pd));
    OVO_DCHECK(r < prev_dense.size() && prev_dense[r] == pd);
    return r;
  };
}

std::uint64_t engine_now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// ---------------------------------------------------------------------------
// Checkpoint/resume plumbing (see fs_checkpoint.hpp for the contract).

/// Dispatch-resolved checkpoint plan handed to the engines: the caller's
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

/// Emits one layer-fence snapshot from live engine state.  Only called at
/// a fence of a barrier engine (dispatch forces barrier for writing
/// runs), where `dense`/`tables` hold the completed layer, the result
/// maps are published through it, and `ops`/`gov` hold merged totals.
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
/// the engines handle separately).
bool fence_due(const CkptPlan& plan, int layer, int stop_k) {
  return plan.writes() && layer < stop_k && plan.opts->every > 0 &&
         layer % plan.opts->every == 0;
}

/// Seeds a result with a snapshot's accumulated maps and ledgers.  The
/// engine then replays layers `snapshot.layer + 1 ..` exactly as the
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

/// DP state fates in the pruned engines.
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

/// Expands one state of a pruned engine and decides its fate: kStateDead
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

/// The PR 2 engine: one parallel_for per layer with an implicit barrier.
/// Kept as the serial path and the pipeline=false A/B reference — its
/// published results are identical to the pipelined engine's.
///
/// Barrier-wait accounting (symmetric with the pipelined engine):
/// charged time is the *layer-boundary serialization each engine's
/// design imposes* — here, the per-layer publish epilogue after every
/// fanned-out region plus the final extraction, each costing
/// (threads - 1) x its duration in parked participants.  The pipelined
/// engine overlaps those epilogues with the next layer's chunk work
/// (they run inside fences), so this is exactly the stall pipelining
/// removes.  Serial work BOTH engines pay identically before any fan-out
/// (admission, enumeration, allocation; the pipelined engine's graph
/// build) is excluded on both sides: it is setup overhead, visible in
/// wall clock, not barrier stall.
FsStarResult fs_star_barrier(const PrefixTable& base, util::Mask J,
                             int stop_k, DiagramKind kind, OpCounter* ops,
                             int threads, std::uint64_t grain,
                             rt::Governor* gov, const CkptPlan& plan) {
  const int j_size = util::popcount(J);
  const std::vector<int> j_vars = util::bits_of(J);
  const auto& binom = util::BinomialTable::instance();
  par::ThreadPool& pool = par::ThreadPool::shared();

  FsStarResult result;
  result.mincost.emplace(util::Mask{0}, base.mincost());

  // Layer k holds one PrefixTable per k-subset of J, at the subset's
  // colex rank (over dense positions into j_vars).  Layer 0 is the base.
  // A resume snapshot stands in for layers 0..snapshot.layer.
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
  }

  // Per-thread-slot state: scratch so the inner loop's candidate
  // compactions reuse one table and one dedup per thread, and OpCounter
  // shards merged after each layer (exact: all fields commute).
  std::vector<SlotScratch> scratch(static_cast<std::size_t>(threads));
  std::vector<OpCounter> shards(static_cast<std::size_t>(threads));

  const std::atomic<bool>* stop_flag =
      gov != nullptr ? gov->stop_flag() : nullptr;
  std::uint64_t prev_resident = 0;
  for (const PrefixTable& t : prev) prev_resident += t.cells.size();
  std::uint64_t layer_work = 0;
  std::uint64_t serial_ns = 0;
  int last_snapshot_layer = -1;
  for (int layer = start_layer + 1; layer <= stop_k; ++layer) {
    const std::uint64_t layer_size = binom.choose(j_size, layer);
    if (gov != nullptr) {
      // Deterministic pre-admission: the whole layer's cost is known in
      // closed form, so the trip decision is independent of thread count
      // and made before any allocation.  Both layers are resident while
      // the next one is built (Remark 1).
      const std::uint64_t pred_cells =
          static_cast<std::uint64_t>(base.cells.size()) >> (layer - 1);
      layer_work =
          layer_size * static_cast<std::uint64_t>(layer) * pred_cells;
      const std::uint64_t resident =
          prev_resident + layer_size * (pred_cells >> 1);
      if (!gov->admit_nodes(resident) ||
          !gov->admit_bytes(resident * sizeof(base.cells[0])) ||
          !gov->admit_work(layer_work))
        break;
    }
    // Gosper enumeration yields masks in increasing numeric order, which
    // for fixed popcount IS colex rank order; the one-time size check
    // below replaces the seed's per-(subset, variable) hash-find checks.
    std::vector<util::Mask> dense;
    dense.reserve(static_cast<std::size_t>(layer_size));
    util::for_each_subset_of_size(j_size, layer, [&](util::Mask m) {
      dense.push_back(m);
    });
    OVO_CHECK_MSG(dense.size() == layer_size,
                  "fs_star: layer enumeration incomplete");

    std::vector<PrefixTable> cur(static_cast<std::size_t>(layer_size));
    std::vector<int> best_var(static_cast<std::size_t>(layer_size), -1);
    std::vector<std::uint64_t> best_cost(
        static_cast<std::size_t>(layer_size));

    // A layer of <= grain subsets takes parallel_for's serial fast path;
    // its epilogue is not a fan-out seam, so it is not charged.
    const bool fans_out = threads > 1 && layer_size > grain;
    pool.parallel_for(0, layer_size, grain, threads, stop_flag,
                      [&](std::uint64_t rank, int slot) {
      if (gov != nullptr) gov->poll_clock();  // one clock read per state
      OpCounter* shard =
          ops != nullptr ? &shards[static_cast<std::size_t>(slot)] : nullptr;
      const std::size_t r = static_cast<std::size_t>(rank);
      const Argmin a = best_last_for_subset(
          dense[r], prev, dense_pred(binom, prev_dense), j_vars, kind,
          kNoCostLimit, shard, scratch[static_cast<std::size_t>(slot)],
          cur[r]);
      best_var[r] = a.var;
      best_cost[r] = a.cost;
    });
    const std::uint64_t epilogue_t0 = fans_out ? engine_now_ns() : 0;
    if (gov != nullptr && gov->stopped()) break;  // discard partial layer

    // Serial epilogue per layer: publish back-pointers/costs in rank
    // order (identical to the seed's enumeration order) and account for
    // residency.  Remark 1: both layers are resident while the next one
    // is built.
    std::uint64_t cur_resident = 0;
    for (std::uint64_t r = 0; r < layer_size; ++r) {
      OVO_CHECK(best_var[static_cast<std::size_t>(r)] >= 0);
      const util::Mask K =
          spread_mask(dense[static_cast<std::size_t>(r)], j_vars);
      result.best_last.emplace(K, best_var[static_cast<std::size_t>(r)]);
      result.mincost.emplace(K, best_cost[static_cast<std::size_t>(r)]);
      cur_resident += cur[static_cast<std::size_t>(r)].cells.size();
    }
    if (ops != nullptr) {
      for (OpCounter& shard : shards) {
        *ops += shard;
        shard.reset();
      }
      ops->observe_resident(prev_resident + cur_resident);
    }
    prev_resident = cur_resident;
    prev = std::move(cur);
    prev_dense = std::move(dense);
    result.completed_layers = layer;
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
  // so a budget/cancel trip never loses fence state.  Must run before
  // extraction moves the tables out.
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
  return result;
}

/// Ceiling on subset-group task nodes per DP layer: big layers are cut
/// into at most this many graph nodes (each still work-chunked at the
/// subset grain internally), bounding graph size at O(layers × 512)
/// while keeping dependency edges sparse enough to pipeline.
constexpr std::uint64_t kMaxGroupsPerLayer = 512;

/// Adds layer `L` of a pipelined engine to `graph`: its subsets cut into
/// up to kMaxGroupsPerLayer range nodes of `body` (group boundaries on
/// chunk boundaries), each with dependency edges to exactly the groups of
/// the previous layer `P` that hold its predecessors, deduplicated with a
/// stamp array.  When `P` is the seed layer (base or resume snapshot) it
/// is not a task, so `L`'s groups get no edges and seed the ready queue.
template <typename Layer, typename Body>
void add_layer_groups(par::TaskGraph& graph, int layer, Layer& L,
                      const Layer& P, bool p_is_seed, std::uint64_t grain,
                      const util::BinomialTable& binom, Body body) {
  const std::uint64_t layer_size = L.dense.size();
  std::uint64_t group =
      (layer_size + kMaxGroupsPerLayer - 1) / kMaxGroupsPerLayer;
  if (group < grain) group = grain;
  group = (group + grain - 1) / grain * grain;  // align chunk boundaries
  L.group_size = group;
  L.n_groups = (layer_size + group - 1) / group;
  std::vector<std::uint32_t> stamp(
      p_is_seed ? 0 : static_cast<std::size_t>(P.n_groups),
      std::numeric_limits<std::uint32_t>::max());
  for (std::uint64_t g = 0; g < L.n_groups; ++g) {
    const std::uint64_t lo = g * group;
    const std::uint64_t hi = lo + group < layer_size ? lo + group : layer_size;
    const par::TaskGraph::TaskId id = graph.add_range(lo, hi, grain, body);
    graph.set_label(id, "fs.group", "layer",
                    static_cast<std::uint64_t>(layer), "group", g);
    if (g == 0) L.first_group = id;
    if (p_is_seed) continue;
    for (std::uint64_t r = lo; r < hi; ++r) {
      const util::Mask d = L.dense[static_cast<std::size_t>(r)];
      util::for_each_bit(d, [&](int b) {
        const std::uint64_t pg =
            binom.rank(d & ~(util::Mask{1} << b)) / P.group_size;
        if (stamp[static_cast<std::size_t>(pg)] !=
            static_cast<std::uint32_t>(g)) {
          stamp[static_cast<std::size_t>(pg)] = static_cast<std::uint32_t>(g);
          graph.add_edge(
              P.first_group + static_cast<par::TaskGraph::TaskId>(pg), id);
        }
      });
    }
  }
}

/// The tentpole engine: the whole admitted DP is built as ONE TaskGraph.
/// Each layer's subsets are grouped into up to kMaxGroupsPerLayer range
/// nodes; a layer-(k+1) group depends only on the layer-k groups that
/// hold its predecessors (dependency count = number of incomplete
/// predecessor groups), so compaction of layer k+1 starts while layer k
/// is still draining — the per-layer barrier is gone from the hot path.
/// A seq_epoch fence per layer publishes back-pointers/costs in rank
/// order, accounts residency, charges the governor, and frees layer k-1;
/// fences are serialized by the fence chain, so they run the exact
/// serial-epilogue code of the barrier engine.
///
/// Determinism: every subset writes its table/best-var/best-cost into
/// its own colex-rank slot and the candidate loop is identical code, so
/// published results are bit-identical to the barrier engine at every
/// thread count.  Governor interaction is kept deterministic by doing
/// ALL admit decisions serially up front: admit_work(cum + w_k) with
/// nothing charged yet tests the same predicate work0 + w_1 + … + w_k <=
/// limit the interleaved admit/charge sequence does (closed-form layer
/// costs are exact — compaction halves cells), and each fence then
/// charges its layer exactly where the barrier engine would.
///
/// Residency under pipelining: reported peak_cells stays the Remark-1
/// two-layer model (fences observe prev+cur, identical values to the
/// barrier engine); the true transient footprint can briefly hold parts
/// of three layers, since layer k-1 is freed only when fence k runs.
FsStarResult fs_star_pipelined(const PrefixTable& base, util::Mask J,
                               int stop_k, DiagramKind kind, OpCounter* ops,
                               int threads, std::uint64_t grain,
                               rt::Governor* gov, const CkptPlan& plan) {
  const int j_size = util::popcount(J);
  const std::vector<int> j_vars = util::bits_of(J);
  const auto& binom = util::BinomialTable::instance();

  FsStarResult result;
  result.mincost.emplace(util::Mask{0}, base.mincost());

  // Resume-only here: snapshot-writing runs take the barrier engine
  // (fs_star dispatch), since this engine's ledger merges only after the
  // DAG drains.  The snapshot's layer becomes the graph's seed layer.
  const FsStarSnapshot* resume = plan.resume();
  const int start_layer = resume != nullptr ? resume->layer : 0;
  if (resume != nullptr) apply_resume(result, *resume);
  std::uint64_t seed_resident = 0;
  if (resume != nullptr)
    for (const PrefixTable& t : resume->tables)
      seed_resident += t.cells.size();
  else
    seed_resident = base.cells.size();

  // --- Serial pre-admission (see function comment). ---
  int last_layer = start_layer;
  std::vector<std::uint64_t> layer_work(
      static_cast<std::size_t>(stop_k) + 1, 0);
  {
    std::uint64_t cum = 0;
    std::uint64_t prev_res = seed_resident;
    for (int layer = start_layer + 1; layer <= stop_k; ++layer) {
      const std::uint64_t layer_size = binom.choose(j_size, layer);
      const std::uint64_t pred_cells =
          static_cast<std::uint64_t>(base.cells.size()) >> (layer - 1);
      const std::uint64_t w =
          layer_size * static_cast<std::uint64_t>(layer) * pred_cells;
      if (gov != nullptr) {
        const std::uint64_t resident =
            prev_res + layer_size * (pred_cells >> 1);
        if (!gov->admit_nodes(resident) ||
            !gov->admit_bytes(resident * sizeof(base.cells[0])) ||
            !gov->admit_work(cum + w))
          break;
      }
      cum += w;
      layer_work[static_cast<std::size_t>(layer)] = w;
      prev_res = layer_size * (pred_cells >> 1);
      last_layer = layer;
    }
  }

  struct Layer {
    std::vector<util::Mask> dense;
    std::vector<PrefixTable> tables;
    std::vector<int> best_var;
    std::vector<std::uint64_t> best_cost;
    std::uint64_t group_size = 1;
    std::uint64_t n_groups = 0;
    par::TaskGraph::TaskId first_group = 0;
  };
  std::vector<Layer> layers(static_cast<std::size_t>(last_layer) + 1);
  Layer& seed = layers[static_cast<std::size_t>(start_layer)];
  if (resume != nullptr) {
    seed.dense = resume->dense;
    seed.tables = resume->tables;  // copies, as in the barrier engine
  } else {
    seed.dense.push_back(util::Mask{0});
    seed.tables.push_back(base);
  }

  if (last_layer == start_layer) {
    for (std::size_t r = 0; r < seed.tables.size(); ++r)
      result.tables.emplace(spread_mask(seed.dense[r], j_vars),
                            std::move(seed.tables[r]));
    return result;
  }

  std::vector<SlotScratch> scratch(static_cast<std::size_t>(threads));
  std::vector<OpCounter> shards(static_cast<std::size_t>(threads));

  // Chained fence state: fences are serialized, so plain variables.
  std::uint64_t fence_prev_resident = seed_resident;

  par::TaskGraph graph;
  for (int layer = start_layer + 1; layer <= last_layer; ++layer) {
    Layer& L = layers[static_cast<std::size_t>(layer)];
    Layer& P = layers[static_cast<std::size_t>(layer) - 1];
    const std::uint64_t layer_size = binom.choose(j_size, layer);
    L.dense.reserve(static_cast<std::size_t>(layer_size));
    util::for_each_subset_of_size(j_size, layer, [&](util::Mask m) {
      L.dense.push_back(m);
    });
    OVO_CHECK_MSG(L.dense.size() == layer_size,
                  "fs_star: layer enumeration incomplete");
    L.tables.resize(static_cast<std::size_t>(layer_size));
    L.best_var.assign(static_cast<std::size_t>(layer_size), -1);
    L.best_cost.resize(static_cast<std::size_t>(layer_size));

    auto body = [&layers, &scratch, &shards, &j_vars, &binom, layer, kind,
                 ops, gov](std::uint64_t rank, int slot) {
      if (gov != nullptr) gov->poll_clock();  // one clock read per state
      Layer& cur = layers[static_cast<std::size_t>(layer)];
      Layer& pre = layers[static_cast<std::size_t>(layer) - 1];
      OpCounter* shard =
          ops != nullptr ? &shards[static_cast<std::size_t>(slot)] : nullptr;
      const std::size_t r = static_cast<std::size_t>(rank);
      const Argmin a = best_last_for_subset(
          cur.dense[r], pre.tables, dense_pred(binom, pre.dense), j_vars,
          kind, kNoCostLimit, shard, scratch[static_cast<std::size_t>(slot)],
          cur.tables[r]);
      cur.best_var[r] = a.var;
      cur.best_cost[r] = a.cost;
    };

    add_layer_groups(graph, layer, L, P, layer == start_layer + 1, grain,
                     binom, body);

    // The layer fence: the one consumer that truly needs every subset of
    // the layer.  Runs the barrier engine's serial epilogue verbatim —
    // publish in rank order, account residency, charge, free layer-1.
    const par::TaskGraph::TaskId fence_id = graph.seq_epoch(
        [&result, &layers, &layer_work, &fence_prev_resident,
                     &j_vars, layer, layer_size, ops, gov](int) {
      Layer& cur = layers[static_cast<std::size_t>(layer)];
      std::uint64_t cur_resident = 0;
      for (std::uint64_t r = 0; r < layer_size; ++r) {
        OVO_CHECK(cur.best_var[static_cast<std::size_t>(r)] >= 0);
        const util::Mask K =
            spread_mask(cur.dense[static_cast<std::size_t>(r)], j_vars);
        result.best_last.emplace(K,
                                 cur.best_var[static_cast<std::size_t>(r)]);
        result.mincost.emplace(K,
                               cur.best_cost[static_cast<std::size_t>(r)]);
        cur_resident += cur.tables[static_cast<std::size_t>(r)].cells.size();
      }
      if (ops != nullptr)
        ops->observe_resident(fence_prev_resident + cur_resident);
      fence_prev_resident = cur_resident;
      result.completed_layers = layer;
      if (gov != nullptr)
        gov->charge(layer_work[static_cast<std::size_t>(layer)]);
      // Every reader of layer-1 (this layer's subsets) has completed.
      std::vector<PrefixTable>().swap(
          layers[static_cast<std::size_t>(layer) - 1].tables);
    });
    graph.set_label(fence_id, "fs.fence", "layer",
                    static_cast<std::uint64_t>(layer));
  }

  graph.run(threads, gov != nullptr ? gov->stop_flag() : nullptr);
  // Barrier-wait accounting: the only layer-boundary serialization this
  // engine retains is the final extraction (per-layer epilogues run
  // inside fences, overlapped with the next layer's chunks; in-graph
  // no-work bubbles are counted by the scheduler itself).  Setup cost —
  // pre-admission, enumeration, graph build — is excluded on both sides
  // of the A/B; see fs_star_barrier.
  const std::uint64_t extract_t0 = engine_now_ns();

  // Shards merge once, after the drain (fences overlap layer k+1 chunk
  // work, so per-layer merges would race).  All fields commute, so
  // completed-run totals equal the barrier engine's; a hard-stopped run
  // additionally counts work from its discarded partial layer.
  if (ops != nullptr)
    for (OpCounter& shard : shards) *ops += shard;

  Layer& last = layers[static_cast<std::size_t>(result.completed_layers)];
  for (std::size_t r = 0; r < last.tables.size(); ++r)
    result.tables.emplace(spread_mask(last.dense[r], j_vars),
                          std::move(last.tables[r]));
  par::charge_barrier_wait(static_cast<std::uint64_t>(threads - 1) *
                           (engine_now_ns() - extract_t0));
  return result;
}

/// Bound-pruned barrier engine: sparse layers (packed survivors plus a
/// sorted-mask ds::SparseIndex), per-state admissible bounds against the
/// fixed incumbent `ub`, and the serial per-layer publish epilogue of
/// the dense barrier engine.  Serves the serial path, pipeline=false,
/// and every governed pruned run with deterministic limits: its
/// admission uses the *running sparse counts* (surviving predecessors,
/// live candidates) that are only known at a serial layer boundary.
///
/// Determinism: the incumbent never moves during the DP and each state's
/// bound depends only on its own table, so the surviving set is a pure
/// function of (base, J, ub) — identical at every thread count.  Along
/// any chain of surviving states the candidate sweep sees exactly the
/// dense engine's candidates in the same order, so the optimal order,
/// size, and every tie-break match the dense engines bit for bit.
FsStarResult fs_star_pruned_barrier(const PrefixTable& base, util::Mask J,
                                    int stop_k, DiagramKind kind,
                                    OpCounter* ops, int threads,
                                    std::uint64_t grain, rt::Governor* gov,
                                    std::uint64_t ub, const CkptPlan& plan) {
  const int j_size = util::popcount(J);
  const std::vector<int> j_vars = util::bits_of(J);
  const auto& binom = util::BinomialTable::instance();
  par::ThreadPool& pool = par::ThreadPool::shared();

  FsStarResult result;
  result.prune.upper_bound = ub;
  result.mincost.emplace(util::Mask{0}, base.mincost());

  const PruneBounds pb(base, J, ub);

  // A resume snapshot's packed survivors stand in for layers
  // 0..snapshot.layer; its ledger (including the restored layer-fence
  // lower bound) replaces the layer-0 certification below.
  const FsStarSnapshot* resume = plan.resume();
  const int start_layer = resume != nullptr ? resume->layer : 0;
  std::vector<PrefixTable> prev;
  std::vector<util::Mask> prev_dense;

  std::vector<SlotScratch> scratch(static_cast<std::size_t>(threads));
  std::vector<OpCounter> shards(static_cast<std::size_t>(threads));
  std::vector<BoundScratch> bounds(static_cast<std::size_t>(threads));

  if (resume != nullptr) {
    apply_resume(result, *resume);
    result.prune.upper_bound = ub;  // a layer-0 resume reran the step
    prev = resume->tables;  // copies: one snapshot may seed many runs
    prev_dense = resume->dense;
  } else {
    prev.push_back(base);
    prev_dense.push_back(util::Mask{0});
    // The run may trip before layer 1: layer 0's bound is still
    // certified.
    result.certified_lower_bound =
        base.mincost() + completion_bound(base, J, pb.base_support,
                                          pb.final_cells, bounds[0]);
  }

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

    // Serial candidate enumeration: states with at least one surviving
    // predecessor.  O(C(|J|,k)·k·log s) mask work — noise next to the
    // compactions it skips — and the surviving-predecessor total IS the
    // layer's exact compaction work.
    const ds::SparseIndex prev_index(prev_dense);
    std::vector<util::Mask> cand;
    std::uint64_t n_dead = 0;
    std::uint64_t n_comp = 0;
    util::for_each_subset_of_size(j_size, layer, [&](util::Mask m) {
      int live = 0;
      util::for_each_bit(m, [&](int b) {
        if (prev_index.contains(m & ~(util::Mask{1} << b))) ++live;
      });
      if (live > 0) {
        cand.push_back(m);
        n_comp += static_cast<std::uint64_t>(live);
      } else {
        ++n_dead;
      }
    });

    const std::uint64_t layer_work = n_comp * pred_cells;
    if (gov != nullptr) {
      // Running-sparse-count admission: live candidates stand in for the
      // dense closed form, so a pruned run fits budgets a dense run of
      // the same n would trip.
      const std::uint64_t resident =
          prev_resident +
          static_cast<std::uint64_t>(cand.size()) * (pred_cells >> 1);
      if (!gov->admit_nodes(resident) ||
          !gov->admit_bytes(resident * sizeof(base.cells[0])) ||
          !gov->admit_work(layer_work))
        break;
    }

    std::vector<PrefixTable> cur(cand.size());
    std::vector<int> best_var(cand.size(), -1);
    std::vector<std::uint64_t> best_cost(cand.size());
    std::vector<std::uint64_t> bound(cand.size());
    std::vector<std::uint8_t> status(cand.size(), kStateDead);

    const bool fans_out = threads > 1 && cand.size() > grain;
    pool.parallel_for(
        0, cand.size(), grain, threads, stop_flag,
        [&](std::uint64_t i, int slot) {
          if (gov != nullptr) gov->poll_clock();  // one clock read per state
          const std::size_t sl = static_cast<std::size_t>(slot);
          const std::size_t s = static_cast<std::size_t>(i);
          // The prune decision is state-local and the incumbent is
          // fixed, so deciding it inside the parallel body is safe and
          // deterministic.
          status[s] = expand_pruned_state(
              pb, cand[s], prev,
              [&prev_index](util::Mask pd) { return prev_index.rank(pd); },
              j_vars, kind, ops != nullptr ? &shards[sl] : nullptr,
              scratch[sl], bounds[sl], cur[s], &best_var[s], &best_cost[s],
              &bound[s]);
        });
    const std::uint64_t epilogue_t0 = fans_out ? engine_now_ns() : 0;
    if (gov != nullptr && gov->stopped()) break;  // discard partial layer

    // Serial epilogue: publish survivors in rank order and re-pack the
    // layer (surviving-mask index + packed payload vector).
    std::vector<PrefixTable> nxt;
    std::vector<util::Mask> nxt_dense;
    std::uint64_t cur_resident = 0;
    std::uint64_t layer_lb_min = std::numeric_limits<std::uint64_t>::max();
    for (std::size_t i = 0; i < cand.size(); ++i) {
      OVO_CHECK(status[i] != kStateDead);  // candidates have a predecessor
      if (status[i] != kStateAlive) continue;
      const util::Mask K = spread_mask(cand[i], j_vars);
      result.best_last.emplace(K, best_var[i]);
      result.mincost.emplace(K, best_cost[i]);
      if (bound[i] < layer_lb_min) layer_lb_min = bound[i];
      cur_resident += cur[i].cells.size();
      nxt_dense.push_back(cand[i]);
      nxt.push_back(std::move(cur[i]));
    }
    OVO_CHECK_MSG(!nxt.empty(),
                  "fs_star: pruning incumbent below the true optimum");
    result.prune.states_generated += cand.size();
    result.prune.states_pruned += cand.size() - nxt.size();
    result.prune.states_dead += n_dead;
    result.prune.states_surviving += nxt.size();
    result.prune.dense_cells += layer_size * (pred_cells >> 1);
    result.prune.sparse_cells += cur_resident;
    result.certified_lower_bound = layer_lb_min;
    if (ops != nullptr) {
      for (OpCounter& shard : shards) {
        *ops += shard;
        shard.reset();
      }
      ops->observe_resident(prev_resident + cur_resident);
    }
    prev_resident = cur_resident;
    prev = std::move(nxt);
    prev_dense = std::move(nxt_dense);
    result.completed_layers = layer;
    if (gov != nullptr) gov->charge(layer_work);
    if (fans_out) serial_ns += engine_now_ns() - epilogue_t0;
    if (fence_due(plan, layer, stop_k)) {
      emit_fence_snapshot(plan, layer, prev_dense, prev, result, ops, gov);
      last_snapshot_layer = layer;
    }
  }

  // Trip snapshot, emitted BEFORE the final prune-ledger merge into
  // `ops`: fence-time ops never include the merge (it happens once, at
  // engine end), so a resumed run — which restores snapshot.ops and
  // result.prune, then merges at its own end — reproduces the
  // uninterrupted run's final totals exactly.
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
  if (ops != nullptr) ops->prune += result.prune;
  return result;
}

/// Bound-pruned pipelined engine: the dense task graph with per-state
/// prune gates.  The graph must be built before any prune decision
/// exists, so slots stay rank-indexed — but dead states never allocate
/// cells and pruned states free theirs inside the chunk body, so the
/// heap holds survivors only (the fully packed representation lives in
/// the barrier engine, which big memory-capped runs take anyway).  Each
/// layer's fence publishes survivors in rank order, tallies the prune
/// ledger and the chunks that held no surviving work, charges the
/// governor the layer's *actual* sparse work, and frees layer k-1.
///
/// Runs only without deterministic budget limits (see fs_star dispatch):
/// sparse admission needs the serial layer boundary the barrier engine
/// has.  Deadline/cancel budgets still work — per-chunk polls, DAG
/// drain, partial layers discarded.
FsStarResult fs_star_pruned_pipelined(const PrefixTable& base, util::Mask J,
                                      int stop_k, DiagramKind kind,
                                      OpCounter* ops, int threads,
                                      std::uint64_t grain, rt::Governor* gov,
                                      std::uint64_t ub,
                                      const CkptPlan& plan) {
  const int j_size = util::popcount(J);
  const std::vector<int> j_vars = util::bits_of(J);
  const auto& binom = util::BinomialTable::instance();

  FsStarResult result;
  result.prune.upper_bound = ub;
  result.mincost.emplace(util::Mask{0}, base.mincost());

  const PruneBounds pb(base, J, ub);

  struct Layer {
    std::vector<util::Mask> dense;
    std::vector<PrefixTable> tables;
    std::vector<int> best_var;
    std::vector<std::uint64_t> best_cost;
    std::vector<std::uint64_t> bound;
    std::vector<std::uint8_t> status;
    std::uint64_t group_size = 1;
    std::uint64_t n_groups = 0;
    par::TaskGraph::TaskId first_group = 0;
  };
  std::vector<Layer> layers(static_cast<std::size_t>(stop_k) + 1);

  std::vector<SlotScratch> scratch(static_cast<std::size_t>(threads));
  std::vector<OpCounter> shards(static_cast<std::size_t>(threads));
  std::vector<BoundScratch> bounds(static_cast<std::size_t>(threads));

  // Resume-only here (writing runs take the barrier engine).  The seed
  // layer must be rank-indexed like every other layer of this engine, so
  // the snapshot's packed survivors are scattered back to their colex
  // slots; non-survivors keep empty tables and a kStatePruned gate.
  const FsStarSnapshot* resume = plan.resume();
  const int start_layer = resume != nullptr ? resume->layer : 0;
  std::uint64_t fence_prev_resident = 0;
  Layer& seed = layers[static_cast<std::size_t>(start_layer)];
  if (resume != nullptr) {
    apply_resume(result, *resume);
    result.prune.upper_bound = ub;  // a layer-0 resume reran the step
    const std::uint64_t seed_card =
        binom.choose(j_size, start_layer);
    seed.dense.reserve(static_cast<std::size_t>(seed_card));
    util::for_each_subset_of_size(j_size, start_layer, [&](util::Mask m) {
      seed.dense.push_back(m);
    });
    seed.tables.resize(static_cast<std::size_t>(seed_card));
    seed.status.assign(static_cast<std::size_t>(seed_card), kStatePruned);
    std::size_t si = 0;
    for (std::size_t r = 0; r < seed.dense.size(); ++r) {
      if (si < resume->dense.size() && resume->dense[si] == seed.dense[r]) {
        seed.tables[r] = resume->tables[si];
        seed.status[r] = kStateAlive;
        fence_prev_resident += seed.tables[r].cells.size();
        ++si;
      }
    }
    OVO_CHECK_MSG(si == resume->dense.size(),
                  "fs_star: snapshot survivor outside its layer");
  } else {
    seed.dense.push_back(util::Mask{0});
    seed.tables.push_back(base);
    seed.status.push_back(kStateAlive);
    result.certified_lower_bound =
        base.mincost() + completion_bound(base, J, pb.base_support,
                                          pb.final_cells, bounds[0]);
    fence_prev_resident = base.cells.size();
  }

  par::TaskGraph graph;
  for (int layer = start_layer + 1; layer <= stop_k; ++layer) {
    Layer& L = layers[static_cast<std::size_t>(layer)];
    Layer& P = layers[static_cast<std::size_t>(layer) - 1];
    const std::uint64_t layer_size = binom.choose(j_size, layer);
    L.dense.reserve(static_cast<std::size_t>(layer_size));
    util::for_each_subset_of_size(j_size, layer, [&](util::Mask m) {
      L.dense.push_back(m);
    });
    OVO_CHECK_MSG(L.dense.size() == layer_size,
                  "fs_star: layer enumeration incomplete");
    L.tables.resize(static_cast<std::size_t>(layer_size));
    L.best_var.assign(static_cast<std::size_t>(layer_size), -1);
    L.best_cost.resize(static_cast<std::size_t>(layer_size));
    L.bound.resize(static_cast<std::size_t>(layer_size));
    L.status.assign(static_cast<std::size_t>(layer_size), kStateDead);

    auto body = [&layers, &scratch, &shards, &bounds, &j_vars, &binom, &pb,
                 layer, kind, ops, gov](std::uint64_t rank, int slot) {
      if (gov != nullptr) gov->poll_clock();  // one clock read per state
      Layer& cur = layers[static_cast<std::size_t>(layer)];
      const Layer& pre = layers[static_cast<std::size_t>(layer) - 1];
      const std::size_t r = static_cast<std::size_t>(rank);
      const std::size_t sl = static_cast<std::size_t>(slot);
      // Pruned and dead slots hold no cells: only alive ones are
      // predecessors.  A state with none stays kStateDead.
      const auto alive_pred = [&binom, &pre](util::Mask pd) {
        const std::size_t p = static_cast<std::size_t>(binom.rank(pd));
        OVO_DCHECK(p < pre.status.size());
        return pre.status[p] == kStateAlive ? p : ds::SparseIndex::npos;
      };
      cur.status[r] = expand_pruned_state(
          pb, cur.dense[r], pre.tables, alive_pred, j_vars, kind,
          ops != nullptr ? &shards[sl] : nullptr, scratch[sl], bounds[sl],
          cur.tables[r], &cur.best_var[r], &cur.best_cost[r], &cur.bound[r]);
    };

    // Prune fates are not known at build time, so the dependency edges
    // are the dense engine's; a dead group body costs one status sweep.
    add_layer_groups(graph, layer, L, P, layer == start_layer + 1, grain,
                     binom, body);

    // Layer fence: publish survivors in rank order, tally the ledger and
    // the all-dead chunks, charge the actual sparse work, free layer-1.
    const par::TaskGraph::TaskId fence_id = graph.seq_epoch(
        [&result, &layers, &fence_prev_resident, &j_vars, &binom,
                     layer, layer_size, grain, pred_cells =
                         static_cast<std::uint64_t>(base.cells.size()) >>
                         (layer - 1),
                     ops, gov](int) {
      Layer& cur = layers[static_cast<std::size_t>(layer)];
      Layer& pre = layers[static_cast<std::size_t>(layer) - 1];
      std::uint64_t cur_resident = 0;
      std::uint64_t n_alive = 0, n_pruned = 0, n_dead = 0, n_comp = 0;
      std::uint64_t layer_lb_min = std::numeric_limits<std::uint64_t>::max();
      for (std::uint64_t r = 0; r < layer_size; ++r) {
        const std::size_t i = static_cast<std::size_t>(r);
        switch (cur.status[i]) {
          case kStateAlive: {
            const util::Mask K = spread_mask(cur.dense[i], j_vars);
            result.best_last.emplace(K, cur.best_var[i]);
            result.mincost.emplace(K, cur.best_cost[i]);
            if (cur.bound[i] < layer_lb_min) layer_lb_min = cur.bound[i];
            cur_resident += cur.tables[i].cells.size();
            ++n_alive;
            break;
          }
          case kStatePruned:
            ++n_pruned;
            break;
          default:
            ++n_dead;
            break;
        }
        // Actual compaction work this state cost: one predecessor-cells
        // sweep per surviving predecessor (dead states cost none).
        if (cur.status[i] != kStateDead) {
          util::for_each_bit(cur.dense[i], [&](int b) {
            const util::Mask pd = cur.dense[i] & ~(util::Mask{1} << b);
            if (pre.status[static_cast<std::size_t>(binom.rank(pd))] ==
                kStateAlive)
              ++n_comp;
          });
        }
      }
      OVO_CHECK_MSG(n_alive > 0,
                    "fs_star: pruning incumbent below the true optimum");
      result.prune.states_generated += n_alive + n_pruned;
      result.prune.states_pruned += n_pruned;
      result.prune.states_dead += n_dead;
      result.prune.states_surviving += n_alive;
      result.prune.dense_cells += layer_size * (pred_cells >> 1);
      result.prune.sparse_cells += cur_resident;
      result.certified_lower_bound = layer_lb_min;
      if (ops != nullptr)
        ops->observe_resident(fence_prev_resident + cur_resident);
      fence_prev_resident = cur_resident;
      result.completed_layers = layer;
      if (gov != nullptr) gov->charge(n_comp * pred_cells);
      // Chunks whose whole range was dead retired without compacting
      // anything — the scheduling overhead sparsity leaves behind.
      std::uint64_t skipped_chunks = 0;
      for (std::uint64_t g = 0; g < cur.n_groups; ++g) {
        const std::uint64_t glo = g * cur.group_size;
        const std::uint64_t ghi = glo + cur.group_size < layer_size
                                      ? glo + cur.group_size
                                      : layer_size;
        for (std::uint64_t lo = glo; lo < ghi; lo += grain) {
          const std::uint64_t hi = lo + grain < ghi ? lo + grain : ghi;
          bool any_work = false;
          for (std::uint64_t r = lo; r < hi && !any_work; ++r)
            any_work = cur.status[static_cast<std::size_t>(r)] != kStateDead;
          if (!any_work) ++skipped_chunks;
        }
      }
      if (skipped_chunks > 0) par::charge_pruned_chunks(skipped_chunks);
      // Every reader of layer-1 (this layer's subsets) has completed.
      std::vector<PrefixTable>().swap(
          layers[static_cast<std::size_t>(layer) - 1].tables);
    });
    graph.set_label(fence_id, "fs.fence", "layer",
                    static_cast<std::uint64_t>(layer));
  }

  graph.run(threads, gov != nullptr ? gov->stop_flag() : nullptr);
  const std::uint64_t extract_t0 = engine_now_ns();

  if (ops != nullptr)
    for (OpCounter& shard : shards) *ops += shard;

  Layer& last = layers[static_cast<std::size_t>(result.completed_layers)];
  for (std::size_t r = 0; r < last.tables.size(); ++r) {
    if (last.status[r] != kStateAlive) continue;  // pruned/dead slot
    result.tables.emplace(spread_mask(last.dense[r], j_vars),
                          std::move(last.tables[r]));
  }
  par::charge_barrier_wait(static_cast<std::uint64_t>(threads - 1) *
                           (engine_now_ns() - extract_t0));
  if (ops != nullptr) ops->prune += result.prune;
  return result;
}

}  // namespace

namespace {

/// Closed-form total compaction work of a dense full-depth run: each
/// layer-k state costs k compactions over base_cells >> (k-1) predecessor
/// cells.  Used by the small-n serial fallback — below this threshold the
/// whole DP is cheaper than the fan-out it would buy (BENCH_fs.json shows
/// speedup < 0.5 for n <= 6 on this structure).
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
  // run serially — same engines, same results, no pool round-trip.
  if (threads > 1 && stop_k > 0) {
    const auto& binom = util::BinomialTable::instance();
    std::uint64_t widest = 0;
    for (int k = 1; k <= stop_k; ++k)
      if (binom.choose(j_size, k) > widest) widest = binom.choose(j_size, k);
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
    // The incumbent is fixed here, before layer 1, for both pruned
    // engines.  A snapshot past layer 0 carries the *effective* incumbent
    // of the original run, so resuming from it skips the DP-greedy step —
    // bounds and ops replay identically.  A layer-0 snapshot may come
    // from a run stopped inside the step, holding only the caller's bound
    // or a partial minimum; resuming from it runs the step again with
    // that bound as the caller's, which gives the uninterrupted run's
    // min(caller, DP-greedy) because every completion is deterministic.
    // Its ops are the count from before the step, so the step is counted
    // once.
    const bool run_step = resume == nullptr || resume->layer == 0;
    if (ops != nullptr && plan.writes()) plan.ops_before_step = *ops;
    const std::uint64_t ub =
        run_step ? dp_greedy_incumbent(
                       base, J, kind, ops, threads, gov,
                       resume != nullptr ? resume->prune_upper_bound
                                         : prune_upper_bound)
                 : resume->prune_upper_bound;
    plan.prune_ub = ub;
    // Sparse admission counts exist only at serial layer boundaries, so
    // deterministic budget limits force the barrier engine (see
    // Budget::deterministic_limits); deadline/cancel-only budgets keep
    // their per-chunk polling on either engine.  Snapshot-writing runs
    // also need the barrier engine: only its fences hold a merged,
    // fence-consistent ledger (the pipelined engine merges shards once,
    // after the DAG drains).
    const bool may_pipeline =
        exec.pipeline && threads > 1 && !plan.writes() &&
        !(gov != nullptr && gov->budget().deterministic_limits());
    if (may_pipeline)
      return fs_star_pruned_pipelined(base, J, stop_k, kind, ops, threads,
                                      grain, gov, ub, plan);
    return fs_star_pruned_barrier(base, J, stop_k, kind, ops, threads,
                                  grain, gov, ub, plan);
  }

  if (exec.pipeline && threads > 1 && stop_k > 0 && !plan.writes())
    return fs_star_pipelined(base, J, stop_k, kind, ops, threads, grain,
                             gov, plan);
  return fs_star_barrier(base, J, stop_k, kind, ops, threads, grain, gov,
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

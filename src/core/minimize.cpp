#include "core/minimize.hpp"

#include <algorithm>
#include <utility>

#include "core/fs_star.hpp"
#include "util/check.hpp"
#include "util/combinatorics.hpp"

namespace ovo::core {

namespace {

MinimizeResult minimize_from_base(const PrefixTable& base, DiagramKind kind,
                                  const par::ExecPolicy& exec,
                                  std::uint64_t prune_upper_bound = 0) {
  MinimizeResult out;
  const util::Mask all = util::full_mask(base.n);
  std::vector<int> bottom_up;
  const PrefixTable final_table =
      fs_star_full(base, all, kind, &out.ops, &bottom_up, exec,
                   prune_upper_bound);
  out.min_internal_nodes = final_table.mincost();
  out.order_root_first.assign(bottom_up.rbegin(), bottom_up.rend());
  return out;
}

}  // namespace

MinimizeResult fs_minimize(const tt::TruthTable& f, DiagramKind kind,
                           const par::ExecPolicy& exec,
                           std::uint64_t prune_upper_bound) {
  OVO_CHECK_MSG(kind != DiagramKind::kMtbdd,
                "fs_minimize: use fs_minimize_mtbdd for value tables");
  return minimize_from_base(initial_table(f), kind, exec, prune_upper_bound);
}

MinimizeResult fs_minimize_mtbdd(const std::vector<std::int64_t>& values,
                                 int n, const par::ExecPolicy& exec) {
  return minimize_from_base(initial_table_values(values, n),
                            DiagramKind::kMtbdd, exec);
}

namespace {

std::uint64_t chain_size_impl(const PrefixTable& start,
                              const std::vector<int>& order_root_first,
                              DiagramKind kind, ChainScratch& scratch,
                              OpCounter* ops,
                              std::vector<std::uint64_t>* profile,
                              const rt::Governor* gov,
                              std::span<PrefixTable> keep = {}) {
  const int n = start.n;
  OVO_CHECK_MSG(static_cast<int>(order_root_first.size()) == n,
                "order length mismatch");
  OVO_CHECK_MSG(util::is_permutation(order_root_first),
                "order not a permutation");
  const int done = util::popcount(start.vars);
  util::Mask bottom = 0;
  for (int depth = 1; depth <= done; ++depth)
    bottom |= util::Mask{1} << order_root_first[n - depth];
  OVO_CHECK_MSG(start.vars == bottom,
                "start table is not on this order's chain");
  OVO_DCHECK(&start != &scratch.cur && &start != &scratch.next);
  if (profile != nullptr) profile->assign(order_root_first.size(), 0);
  // Compact bottom-up (last-read variable first) from `start`.  Depths
  // the caller keeps are written into `keep`; the rest ping-pong between
  // the scratch tables, so each step reuses the other's cells buffer and
  // `start` is never copied.
  const PrefixTable* table = &start;
  for (int depth = done + 1; depth <= n; ++depth) {
    if (gov != nullptr && gov->stopped()) return kAbortedSize;
    PrefixTable& out =
        static_cast<std::size_t>(depth) <= keep.size() ? keep[depth - 1]
        : table == &scratch.cur                        ? scratch.next
                                                       : scratch.cur;
    compact_into(out, *table, order_root_first[n - depth], kind, ops,
                 nullptr, &scratch.dedup);
    if (profile != nullptr)
      (*profile)[depth - 1] = out.mincost() - table->mincost();
    table = &out;
  }
  return table->mincost();
}

std::uint64_t chain_size(const PrefixTable& base,
                         const std::vector<int>& order_root_first,
                         DiagramKind kind, OpCounter* ops,
                         std::vector<std::uint64_t>* profile,
                         const rt::Governor* gov = nullptr) {
  ChainScratch scratch;
  return chain_size_impl(base, order_root_first, kind, scratch, ops, profile,
                         gov);
}

}  // namespace

bool greedy_complete(PrefixTable& t, util::Mask block, DiagramKind kind,
                     ChainScratch& scratch, std::vector<int>* order_bottom_up,
                     OpCounter* ops, rt::Governor* gov) {
  while ((t.free_mask() & block) != 0) {
    if (gov != nullptr && gov->poll_clock()) return false;
    // Each candidate compacts under the best cost so far, so it finishes
    // only when it strictly beats every earlier one: the first minimum in
    // ascending variable order.  The winner's table waits in
    // scratch.next.
    std::uint64_t limit = kNoCostLimit;
    int best_var = -1;
    util::for_each_bit(t.free_mask() & block, [&](int v) {
      if (!compact_into(scratch.cur, t, v, kind, ops, nullptr, &scratch.dedup,
                        limit))
        return;
      limit = scratch.cur.mincost();
      best_var = v;
      std::swap(scratch.cur, scratch.next);
    });
    std::swap(t, scratch.next);
    if (order_bottom_up != nullptr) order_bottom_up->push_back(best_var);
  }
  return true;
}

std::uint64_t diagram_size_from_base(const PrefixTable& start,
                                     const std::vector<int>& order_root_first,
                                     DiagramKind kind, ChainScratch& scratch,
                                     OpCounter* ops,
                                     const rt::Governor* gov,
                                     std::span<PrefixTable> keep) {
  return chain_size_impl(start, order_root_first, kind, scratch, ops, nullptr,
                         gov, keep);
}

std::uint64_t diagram_size_for_order(const tt::TruthTable& f,
                                     const std::vector<int>& order_root_first,
                                     DiagramKind kind, OpCounter* ops,
                                     const rt::Governor* gov) {
  return chain_size(initial_table(f), order_root_first, kind, ops, nullptr,
                    gov);
}

std::uint64_t diagram_size_for_order_values(
    const std::vector<std::int64_t>& values, int n,
    const std::vector<int>& order_root_first, OpCounter* ops,
    const rt::Governor* gov) {
  return chain_size(initial_table_values(values, n), order_root_first,
                    DiagramKind::kMtbdd, ops, nullptr, gov);
}

std::vector<std::uint64_t> level_profile_for_order(
    const tt::TruthTable& f, const std::vector<int>& order_root_first,
    DiagramKind kind) {
  std::vector<std::uint64_t> profile;
  chain_size(initial_table(f), order_root_first, kind, nullptr, &profile);
  return profile;
}

}  // namespace ovo::core

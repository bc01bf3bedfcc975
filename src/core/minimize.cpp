#include "core/minimize.hpp"

#include <algorithm>

#include "core/fs_star.hpp"
#include "util/check.hpp"
#include "util/combinatorics.hpp"

namespace ovo::core {

namespace {

MinimizeResult minimize_from_base(const PrefixTable& base, DiagramKind kind,
                                  const par::ExecPolicy& exec,
                                  std::uint64_t prune_upper_bound = 0,
                                  const FsCheckpointOptions* ckpt = nullptr) {
  MinimizeResult out;
  const util::Mask all = util::full_mask(base.n);
  std::vector<int> bottom_up;
  const PrefixTable final_table =
      fs_star_full(base, all, kind, &out.ops, &bottom_up, exec,
                   prune_upper_bound, ckpt);
  out.min_internal_nodes = final_table.mincost();
  out.order_root_first.assign(bottom_up.rbegin(), bottom_up.rend());
  return out;
}

}  // namespace

MinimizeResult fs_minimize(const tt::TruthTable& f, DiagramKind kind,
                           const par::ExecPolicy& exec,
                           std::uint64_t prune_upper_bound,
                           const FsCheckpointOptions* ckpt) {
  OVO_CHECK_MSG(kind != DiagramKind::kMtbdd,
                "fs_minimize: use fs_minimize_mtbdd for value tables");
  return minimize_from_base(initial_table(f), kind, exec, prune_upper_bound,
                            ckpt);
}

MinimizeResult fs_minimize_mtbdd(const std::vector<std::int64_t>& values,
                                 int n, const par::ExecPolicy& exec) {
  return minimize_from_base(initial_table_values(values, n),
                            DiagramKind::kMtbdd, exec);
}

namespace {

std::uint64_t chain_size_impl(const PrefixTable& base,
                              const std::vector<int>& order_root_first,
                              DiagramKind kind, ChainScratch& scratch,
                              OpCounter* ops,
                              std::vector<std::uint64_t>* profile,
                              const rt::Governor* gov) {
  OVO_CHECK_MSG(static_cast<int>(order_root_first.size()) == base.n,
                "order length mismatch");
  OVO_CHECK_MSG(util::is_permutation(order_root_first),
                "order not a permutation");
  if (profile != nullptr) profile->assign(order_root_first.size(), 0);
  PrefixTable& table = scratch.cur;
  PrefixTable& next = scratch.next;
  // Copy the base into the scratch table, reusing its cells capacity.
  table.n = base.n;
  table.vars = base.vars;
  table.num_terminals = base.num_terminals;
  table.next_id = base.next_id;
  table.cells.assign(base.cells.begin(), base.cells.end());
  // Compact bottom-up (last-read variable first), ping-ponging between
  // two tables so each step reuses the other's cells buffer instead of
  // allocating a fresh table per compaction.
  for (std::size_t j = order_root_first.size(); j-- > 0;) {
    if (gov != nullptr && gov->stopped()) return kAbortedSize;
    const std::uint64_t before = table.mincost();
    compact_into(next, table, order_root_first[j], kind, ops, nullptr,
                 &scratch.dedup);
    std::swap(table, next);
    if (profile != nullptr)
      (*profile)[order_root_first.size() - 1 - j] = table.mincost() - before;
  }
  return table.mincost();
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

std::uint64_t diagram_size_from_base(const PrefixTable& base,
                                     const std::vector<int>& order_root_first,
                                     DiagramKind kind, ChainScratch& scratch,
                                     OpCounter* ops,
                                     const rt::Governor* gov) {
  return chain_size_impl(base, order_root_first, kind, scratch, ops, nullptr,
                         gov);
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

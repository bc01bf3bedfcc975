#include "core/prefix_table.hpp"

#include <algorithm>
#include <numeric>

#include "ds/hash.hpp"
#include "util/check.hpp"

namespace ovo::core {

namespace {

/// Dedup tables are sized for the incoming pair count but clamped so one
/// compaction never pre-commits more than ~64K entries up front (the table
/// still grows on demand past the clamp).
std::size_t dedup_reserve(std::uint64_t pairs) {
  constexpr std::uint64_t kCap = std::uint64_t{1} << 16;
  return static_cast<std::size_t>(std::min(pairs, kCap));
}

void check_compaction_var(const PrefixTable& t, int var) {
  OVO_CHECK(var >= 0 && var < t.n);
  OVO_CHECK_MSG((t.vars & (util::Mask{1} << var)) == 0,
                "compact: variable already in prefix");
}

/// True when t.cells is exactly the ids next_id-|cells| .. next_id-1 in
/// cell order, none of them a terminal.  Then every pair the sweep forms
/// is distinct and no pair passes through (u0 != u1, and u1 != 0 because
/// id 0 is a terminal), so the hash path would insert one node per pair
/// in sweep order: new-table cell b gets next_id + b, for any variable
/// and every DiagramKind.  Mismatches usually show at cell 0 (a terminal
/// or an old id), so the scan is O(1) on most tables.
bool is_fresh_run(const PrefixTable& t) {
  const std::uint64_t m = t.cells.size();
  if (m > t.next_id) return false;
  const std::uint32_t first = t.next_id - static_cast<std::uint32_t>(m);
  if (first < t.num_terminals) return false;
  for (std::uint64_t i = 0; i < m; ++i)
    if (t.cells[i] != first + i) return false;
  return true;
}

/// The dedup table for one compaction of `pairs` pairs: the caller's
/// scratch reset to a fresh table's size, or `local` when there is none.
ds::UniqueTable& dedup_for(ds::UniqueTable* scratch, ds::UniqueTable& local,
                           std::uint64_t pairs) {
  if (scratch == nullptr) {
    local.reserve(dedup_reserve(pairs));
    return local;
  }
  scratch->reset(dedup_reserve(pairs));
  return *scratch;
}

/// Accounts one COMPACT call of `t` in full (Theorem 5's count), however
/// far its sweep got.
void count_compaction(OpCounter* ops, const PrefixTable& t) {
  if (ops == nullptr) return;
  ops->table_cells += t.cells.size();
  ++ops->compactions;
}

/// Shared cell sweep for compact() / compaction_width(). Emit receives
/// (dense cell index in the new table, u0, u1) for every new-table cell
/// and returns false to stop the sweep; sweep_pairs returns whether it
/// reached the end.
template <typename Emit>
bool sweep_pairs(const PrefixTable& t, int var, Emit&& emit) {
  const util::Mask bit = util::Mask{1} << var;
  const util::Mask free = t.free_mask();
  // Rank of `var` among the free variables (ascending index) = its bit
  // position within the dense cell index.
  const int pos = util::popcount(free & (bit - 1));
  const std::uint64_t low = (std::uint64_t{1} << pos) - 1;
  const std::uint64_t half = t.cells.size() >> 1;
  for (std::uint64_t b = 0; b < half; ++b) {
    const std::uint64_t idx0 = ((b & ~low) << 1) | (b & low);
    const std::uint64_t idx1 = idx0 | (std::uint64_t{1} << pos);
    if (!emit(b, t.cells[idx0], t.cells[idx1])) return false;
  }
  return true;
}

bool cell_passes_through(DiagramKind kind, std::uint32_t u0,
                         std::uint32_t u1) {
  // BDD/MTBDD reduction rule (a): equal children — no node.
  // ZDD zero-suppression: 1-child is the false terminal (id 0) — no node.
  return kind == DiagramKind::kZdd ? (u1 == 0) : (u0 == u1);
}

}  // namespace

PrefixTable initial_table(const tt::TruthTable& f) {
  PrefixTable t;
  t.n = f.num_vars();
  t.vars = 0;
  t.num_terminals = 2;
  t.next_id = 2;
  t.cells.resize(f.size());
  for (std::uint64_t a = 0; a < f.size(); ++a)
    t.cells[a] = f.get(a) ? 1u : 0u;
  return t;
}

PrefixTable initial_table_values(const std::vector<std::int64_t>& values,
                                 int n,
                                 std::vector<std::int64_t>* terminal_values) {
  OVO_CHECK_MSG(n >= 0 && n <= tt::TruthTable::kMaxVars,
                "initial_table_values: n out of range");
  OVO_CHECK_MSG(values.size() == (std::uint64_t{1} << n),
                "initial_table_values: size must be 2^n");
  PrefixTable t;
  t.n = n;
  t.vars = 0;
  t.cells.resize(values.size());
  // Interns values in first-appearance order; key = the value's bit pattern.
  ds::UniqueTable intern(dedup_reserve(values.size()));
  std::vector<std::int64_t> interned;
  for (std::uint64_t a = 0; a < values.size(); ++a) {
    const auto [id, inserted] = intern.find_or_insert(
        static_cast<std::uint64_t>(values[a]),
        static_cast<std::uint32_t>(intern.size()));
    if (inserted) interned.push_back(values[a]);
    t.cells[a] = id;
  }
  t.num_terminals = static_cast<std::uint32_t>(intern.size());
  t.next_id = t.num_terminals;
  if (terminal_values != nullptr) *terminal_values = std::move(interned);
  return t;
}

PrefixTable compact(const PrefixTable& t, int var, DiagramKind kind,
                    OpCounter* ops, rt::Governor* gov) {
  PrefixTable out;
  compact_into(out, t, var, kind, ops, gov);
  return out;
}

bool compact_into(PrefixTable& out, const PrefixTable& t, int var,
                  DiagramKind kind, OpCounter* ops, rt::Governor* gov,
                  ds::UniqueTable* scratch, std::uint64_t limit) {
  OVO_DCHECK(&out != &t);
  check_compaction_var(t, var);
  if (gov != nullptr) gov->charge(t.cells.size());
  count_compaction(ops, t);
  if (t.mincost() >= limit) return false;
  // Nodes this call may still create before its cost reaches `limit`.
  std::uint64_t room = limit - t.mincost();
  const std::uint64_t half = t.cells.size() >> 1;
  const bool fresh = is_fresh_run(t);
  if (fresh && half >= room) return false;
  out.n = t.n;
  out.vars = t.vars | (util::Mask{1} << var);
  out.num_terminals = t.num_terminals;
  out.next_id = t.next_id;
  out.cells.resize(half);
  if (fresh) {
    std::iota(out.cells.begin(), out.cells.end(), out.next_id);
    out.next_id += static_cast<std::uint32_t>(half);
    if (ops != nullptr) ops->dedup.inserts += half;
    return true;
  }
  ds::UniqueTable local;
  ds::UniqueTable& dedup = dedup_for(scratch, local, half);
  const bool finished = sweep_pairs(t, var, [&](std::uint64_t b,
                                                std::uint32_t u0,
                                                std::uint32_t u1) {
    if (cell_passes_through(kind, u0, u1)) {
      out.cells[b] = u0;
      return true;
    }
    const auto [id, inserted] =
        dedup.find_or_insert(ds::pack_pair(u0, u1), out.next_id);
    out.cells[b] = id;
    if (!inserted) return true;
    ++out.next_id;
    return --room != 0;
  });
  if (ops != nullptr) ops->dedup += dedup.stats();
  return finished;
}

std::uint64_t compaction_width(const PrefixTable& t, int var,
                               DiagramKind kind, OpCounter* ops,
                               ds::UniqueTable* scratch) {
  check_compaction_var(t, var);
  count_compaction(ops, t);
  const std::uint64_t half = t.cells.size() >> 1;
  if (is_fresh_run(t)) {
    if (ops != nullptr) ops->dedup.inserts += half;
    return half;
  }
  ds::UniqueTable local;
  ds::UniqueTable& dedup = dedup_for(scratch, local, half);
  sweep_pairs(t, var,
              [&](std::uint64_t, std::uint32_t u0, std::uint32_t u1) {
                if (!cell_passes_through(kind, u0, u1))
                  dedup.find_or_insert(
                      ds::pack_pair(u0, u1),
                      static_cast<std::uint32_t>(dedup.size()));
                return true;
              });
  if (ops != nullptr) ops->dedup += dedup.stats();
  return dedup.size();
}

}  // namespace ovo::core

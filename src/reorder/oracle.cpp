#include "reorder/oracle.hpp"

#include <algorithm>
#include <limits>
#include <span>

#include "obs/trace.hpp"
#include "parallel/thread_pool.hpp"
#include "util/check.hpp"

namespace ovo::reorder {

namespace {

/// Bits needed to store one variable index of an n-variable order
/// (minimum 1, so n == 1 still gets a nonempty key).
int bits_for(int n) {
  int bits = 1;
  while ((1 << bits) < n) ++bits;
  return bits;
}

/// Largest n whose orders all have a key: n! - 1 < 2^96 up to n = 27.
constexpr int kMaxKeyedVars = 27;

/// Bottom compactions two root-first orders' chains have in common: the
/// length of the orders' common suffix.
int shared_depth(const std::vector<int>& a, const std::vector<int>& b) {
  return static_cast<int>(
      std::mismatch(a.rbegin(), a.rend(), b.rbegin(), b.rend()).first -
      a.rbegin());
}

}  // namespace

CostOracle::CostOracle(const tt::TruthTable& f, core::DiagramKind kind)
    : kind_(kind), base_(core::initial_table(f)) {
  OVO_CHECK_MSG(kind != core::DiagramKind::kMtbdd,
                "CostOracle: use the value-table constructor for MTBDDs");
}

CostOracle::CostOracle(const std::vector<std::int64_t>& values, int n)
    : kind_(core::DiagramKind::kMtbdd),
      base_(core::initial_table_values(values, n)) {}

bool CostOracle::memo_enabled() const { return base_.n <= kMaxKeyedVars; }

bool CostOracle::pack_key(const std::vector<int>& order, std::uint64_t* a,
                          std::uint32_t* b) const {
  if (!memo_enabled()) return false;
  const int n = static_cast<int>(order.size());
  const int bits = bits_for(n);
  unsigned __int128 acc = 0;
  if (n * bits <= 96) {
    for (const int v : order) acc = (acc << bits) | static_cast<unsigned>(v);
  } else {
    // The order's rank in the factorial number system: digit i counts
    // the variables not yet placed that are smaller than order[i].
    util::Mask placed = 0;
    for (int i = 0; i < n; ++i) {
      const util::Mask below = (util::Mask{1} << order[i]) - 1;
      acc = acc * static_cast<unsigned>(n - i) +
            static_cast<unsigned>(util::popcount(below & ~placed));
      placed |= util::Mask{1} << order[i];
    }
  }
  *a = static_cast<std::uint64_t>(acc);
  *b = static_cast<std::uint32_t>(acc >> 64);
  return true;
}

std::uint64_t CostOracle::size_for_order(
    const std::vector<int>& order_root_first, const rt::Governor* gov) {
  if (gov != nullptr && gov->stopped()) return core::kAbortedSize;
  ++stats_.queries;
  std::uint64_t a = 0;
  std::uint32_t b = 0;
  const bool keyed = pack_key(order_root_first, &a, &b);
  if (keyed) {
    if (const auto hit = memo_.lookup(a, b)) {
      ++stats_.memo_hits;
      return *hit;
    }
  }
  OVO_TRACE_SPAN_ARGS("oracle.eval", "oracle", 0, "vars",
                      base_.n, nullptr, 0);
  const std::uint64_t s = core::diagram_size_from_base(
      base_, order_root_first, kind_, scratch_, &stats_.ops, gov);
  if (s == core::kAbortedSize) return s;  // hard stop: do not memoize
  ++stats_.evals;
  if (keyed && s <= std::numeric_limits<std::uint32_t>::max())
    memo_.store(a, b, static_cast<std::uint32_t>(s));
  return s;
}

std::vector<std::uint64_t> CostOracle::sizes_for_orders(
    const std::vector<std::vector<int>>& candidates, const EvalContext& ctx) {
  std::vector<std::uint64_t> sizes(candidates.size(), core::kAbortedSize);
  std::uint64_t count = candidates.size();
  rt::Governor* gov = ctx.gov;
  if (gov != nullptr)
    count = gov->admit_charge_batch(chain_eval_cost(), count);

  // Serial memo pre-pass over the admitted prefix: resolve hits, collect
  // miss indices.  Serial so the hit/miss split — and therefore which
  // chains actually run — is identical for every thread count.
  std::vector<std::uint64_t> misses;
  for (std::uint64_t i = 0; i < count; ++i) {
    ++stats_.queries;
    std::uint64_t a = 0;
    std::uint32_t b = 0;
    if (pack_key(candidates[static_cast<std::size_t>(i)], &a, &b)) {
      if (const auto hit = memo_.lookup(a, b)) {
        sizes[static_cast<std::size_t>(i)] = *hit;
        ++stats_.memo_hits;
        continue;
      }
    }
    misses.push_back(i);
  }

  // Shared prefixes: a miss whose order ends in the same d variables as
  // the first miss's (the spine's) continues the spine's chain from its
  // depth-d table.  The spine keeps its tables up to the deepest depth
  // any miss shares; with none shared, every miss runs from
  // TABLE_{emptyset}.
  std::vector<int> shared(misses.size(), 0);
  int deepest = 0;
  for (std::size_t j = 1; j < misses.size(); ++j) {
    shared[j] =
        shared_depth(candidates[static_cast<std::size_t>(misses[0])],
                     candidates[static_cast<std::size_t>(misses[j])]);
    deepest = std::max(deepest, shared[j]);
  }
  if (spine_.size() < static_cast<std::size_t>(deepest))
    spine_.resize(static_cast<std::size_t>(deepest));

  // Two waves, each fanned out one candidate per chunk by default: the
  // spine beside the misses that share nothing with it, then the misses
  // that continue from its kept tables.  Per-slot chain scratch and
  // OpCounter shards, merged commutatively.
  std::vector<std::uint64_t> waves[2];
  for (std::size_t j = 0; j < misses.size(); ++j)
    waves[j == 0 || shared[j] == 0 ? 0 : 1].push_back(j);
  struct Scratch {
    core::ChainScratch chain;
    core::OpCounter ops;
  };
  const int threads = ctx.exec.resolved_threads();
  const std::uint64_t grain = ctx.exec.grain != 0 ? ctx.exec.grain : 1;
  std::vector<Scratch> scratch(
      static_cast<std::size_t>(par::ThreadPool::clamp_threads(threads)));
  const auto run_wave = [&](const std::vector<std::uint64_t>& wave) {
    par::ThreadPool::shared().parallel_for(
        std::uint64_t{0}, wave.size(), grain, threads,
        gov != nullptr ? gov->stop_flag() : nullptr,
        [&](std::uint64_t k, int slot) {
          const std::size_t j = static_cast<std::size_t>(wave[k]);
          const std::size_t i = static_cast<std::size_t>(misses[j]);
          OVO_TRACE_SPAN_ARGS("oracle.eval", "oracle", slot, "candidate", i,
                              nullptr, 0);
          Scratch& sc = scratch[static_cast<std::size_t>(slot)];
          const core::PrefixTable& start =
              shared[j] == 0 ? base_
                             : spine_[static_cast<std::size_t>(shared[j] - 1)];
          const std::span<core::PrefixTable> keep(
              spine_.data(), j == 0 ? static_cast<std::size_t>(deepest) : 0);
          sizes[i] = core::diagram_size_from_base(
              start, candidates[i], kind_, sc.chain, &sc.ops, gov, keep);
        });
  };
  run_wave(waves[0]);
  // A stopped spine leaves its kept tables unfinished: the misses that
  // would continue from them stay aborted.
  if (!misses.empty() &&
      sizes[static_cast<std::size_t>(misses[0])] != core::kAbortedSize)
    run_wave(waves[1]);
  for (const Scratch& sc : scratch) stats_.ops += sc.ops;

  // Serial store pass: count and memoize the evaluations that completed.
  for (const std::uint64_t j : misses) {
    const std::size_t i = static_cast<std::size_t>(j);
    if (sizes[i] == core::kAbortedSize) continue;
    ++stats_.evals;
    std::uint64_t a = 0;
    std::uint32_t b = 0;
    if (pack_key(candidates[i], &a, &b) &&
        sizes[i] <= std::numeric_limits<std::uint32_t>::max())
      memo_.store(a, b, static_cast<std::uint32_t>(sizes[i]));
  }
  return sizes;
}

}  // namespace ovo::reorder

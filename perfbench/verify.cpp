#include "verify.hpp"

#include <algorithm>
#include <numeric>
#include <string_view>
#include <unordered_set>

#include "bdd/manager.hpp"

namespace perfbench {

std::string verify(const Instance& inst, const ovo::tt::TruthTable& f,
                   const Answer& answer) {
  const int n = inst.ref.n;
  if (!inst.ref.same_as(f))
    return inst.name + ": tabulated function differs from the generated one";
  std::vector<int> sorted = answer.order;
  std::sort(sorted.begin(), sorted.end());
  for (int i = 0; i < n; ++i)
    if (sorted.size() != static_cast<std::size_t>(n) ||
        sorted[static_cast<std::size_t>(i)] != i)
      return inst.name + ": order is not a permutation of the inputs";
  ovo::bdd::Manager m(n, answer.order);
  const std::uint64_t built = m.size(m.from_truth_table(f));
  if (built != answer.size)
    return inst.name + ": reported " + std::to_string(answer.size) +
           " nodes, the BDD under that order has " + std::to_string(built);
  if (inst.pinned_optimum != 0 && answer.size != inst.pinned_optimum)
    return inst.name + ": size " + std::to_string(answer.size) +
           " misses the pinned optimum " +
           std::to_string(inst.pinned_optimum);
  return {};
}

std::string agree(const Instance& inst, const Answer& a, const Answer& b) {
  if (a.size != b.size)
    return inst.name + ": exact configurations disagree on the size (" +
           std::to_string(a.size) + " vs " + std::to_string(b.size) + ")";
  if (a.order != b.order)
    return inst.name + ": exact configurations disagree on the order";
  return {};
}

std::uint64_t cofactor_size(const Bits& f, const std::vector<int>& order) {
  const int n = f.n;
  // Rearrange the table so the root variable is the most significant
  // index bit; the cofactors after fixing the top l variables are then
  // the contiguous blocks of length 2^(n-l).
  std::string t(static_cast<std::size_t>(f.size()), '0');
  for (std::uint64_t p = 0; p < f.size(); ++p) {
    std::uint64_t a = 0;
    for (int l = 0; l < n; ++l)
      if ((p >> (n - 1 - l)) & 1u)
        a |= std::uint64_t{1} << order[static_cast<std::size_t>(l)];
    if (f.get(a)) t[static_cast<std::size_t>(p)] = '1';
  }
  const std::string_view all(t);
  std::uint64_t total = 0;
  for (int l = 0; l < n; ++l) {
    const std::size_t block = std::size_t{1} << (n - l);
    std::unordered_set<std::string_view> seen;
    for (std::size_t start = 0; start < t.size(); start += block) {
      const std::string_view g = all.substr(start, block);
      if (g.substr(0, block / 2) != g.substr(block / 2) &&
          seen.insert(g).second)
        ++total;
    }
  }
  return total;
}

std::uint64_t brute_force_optimum(const Bits& f) {
  std::vector<int> order(static_cast<std::size_t>(f.n));
  std::iota(order.begin(), order.end(), 0);
  std::uint64_t best = ~std::uint64_t{0};
  do {
    best = std::min(best, cofactor_size(f, order));
  } while (std::next_permutation(order.begin(), order.end()));
  return best;
}

}  // namespace perfbench

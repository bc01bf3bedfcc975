#pragma once
// Per-request verification.  A request fails when its tabulated function
// is not the generated one, its order is not a permutation, the reduced
// BDD built under that order does not have the reported size, or, for a
// structured instance, the size misses the pinned optimum.  The BDD is
// built by bdd::Manager, which shares no code with the DP's prefix tables.

#include <cstdint>
#include <string>
#include <vector>

#include "gen.hpp"
#include "tt/truth_table.hpp"

namespace perfbench {

/// An ordering request's answer: the order (root first) and the internal
/// node count the library reported for it.
struct Answer {
  std::vector<int> order;
  std::uint64_t size = 0;
};

/// Empty when `answer` is right for `inst` given the table `f` the
/// request tabulated; otherwise why it is wrong.
std::string verify(const Instance& inst, const ovo::tt::TruthTable& f,
                   const Answer& answer);

/// Empty when two exact configurations agree on one instance.
std::string agree(const Instance& inst, const Answer& a, const Answer& b);

/// Internal node count of the reduced OBDD of `f` under `order` (root
/// first), from the distinct cofactors at each level that depend on the
/// level's variable.  Independent of the library; meant for n <= 8.
std::uint64_t cofactor_size(const Bits& f, const std::vector<int>& order);

/// Minimum of cofactor_size over all n! orders.
std::uint64_t brute_force_optimum(const Bits& f);

}  // namespace perfbench

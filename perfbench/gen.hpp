#pragma once
// Seeded input generators for the benchmark.  Everything here is the
// benchmark's own code: the library under test only ever sees the PLA or
// BLIF text (or, for in-memory instances, the finished truth table) that
// these functions produce.  Each generator also computes the function its
// input denotes, by a route that shares nothing with the library's
// parsers and tabulators, so a request can be checked against it.

#include <cstdint>
#include <string>
#include <vector>

#include "tt/truth_table.hpp"

namespace perfbench {

/// splitmix64: small, seedable, and stable across platforms and library
/// versions, so a seed names the same inputs forever.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next();
  /// Uniform in [0, bound); bound > 0.
  std::uint64_t below(std::uint64_t bound);
  /// Uniform in [0, 1).
  double uniform();

 private:
  std::uint64_t s_;
};

/// A Boolean function of n variables as a bit vector: bit a is f(a), and
/// bit i of the assignment a is the value of variable i.
struct Bits {
  int n = 0;
  std::vector<std::uint64_t> words;

  explicit Bits(int vars);
  std::uint64_t size() const { return std::uint64_t{1} << n; }
  bool get(std::uint64_t a) const { return (words[a >> 6] >> (a & 63)) & 1u; }
  void set(std::uint64_t a) { words[a >> 6] |= std::uint64_t{1} << (a & 63); }
  std::uint64_t ones() const;
  bool depends_on(int var) const;
  bool operator==(const Bits& o) const {
    return n == o.n && words == o.words;
  }
  /// True iff `t` denotes the same function.
  bool same_as(const ovo::tt::TruthTable& t) const;
  ovo::tt::TruthTable to_truth_table() const;
};

enum class Format { kPla, kBlif, kTable };

/// One ordering request's input plus what the benchmark knows about it.
struct Instance {
  std::string name;
  Format format = Format::kTable;
  /// PLA or BLIF source; empty for in-memory instances.
  std::string text;
  /// The function the request must solve.
  Bits ref{0};
  /// The finished table handed to the library for Format::kTable.
  ovo::tt::TruthTable table{0};
  /// Known minimum internal node count; 0 when not pinned.
  std::uint64_t pinned_optimum = 0;
  /// Random instances are re-solved with the other exact configuration
  /// in the traced run; structured ones are checked against the pin.
  bool random = false;
};

/// Single-output PLA with `cubes` random products over n inputs; each
/// literal is '-' with probability `dont_care`, else '0' or '1'.
Instance random_pla(int n, int cubes, double dont_care, Rng& rng);

/// Uniformly random in-memory function of n variables.
Instance random_table(int n, Rng& rng);

/// Hidden weighted bit of n variables, in memory: x_{wt(x)}, 0 at wt 0.
Instance hidden_weighted_bit(int n);

enum class Circuit { kAdderCarry, kComparator, kMultiplierMiddle };

/// Gate-level BLIF circuit over two (n/2)-bit operands a and b: the carry
/// out of a ripple adder, a > b from a ripple comparator, or product bit
/// n/2 - 1 of an array multiplier.  `rng` permutes the order in which the
/// inputs are declared, which relabels the variables without changing the
/// optimum.  Throws std::runtime_error if the netlist's table disagrees
/// with integer arithmetic on the operands (a generator bug).
Instance circuit(Circuit kind, int n, Rng& rng);

/// Non-degeneracy of an instance: the function depends on all n inputs,
/// and random instances have an ON-set fraction in [0.25, 0.75].
/// Returns an empty string when the instance is usable, else the reason
/// it is not.
std::string check_instance(const Instance& inst);

/// Theorem 5's dense cell count: sum_k C(n,k) k 2^(n-k+1) = 2n 3^(n-1).
std::uint64_t fs_dense_cells(int n);

}  // namespace perfbench

#pragma once
// BLIF (Berkeley Logic Interchange Format) reader — the standard format
// for multi-level logic benchmarks (MCNC/ISCAS nets).  Supported subset:
// `.model`, `.inputs`, `.outputs`, `.names` single-output covers with
// {0,1,-} input plane and a uniform {0,1} output column, constants
// (`.names f` with a `1` row or no rows), comments (`#`), line
// continuation (`\`), `.end`.  Latches and subcircuits are rejected.
//
// Error rule.  output_table(s) compile the requested outputs' fan-in cone
// once — every fanin of every cover reached from an output, transitively
// — and throw util::CheckError if any signal in it is undefined or lies
// on a combinational cycle, even if some cube's other literals would mask
// it for every assignment.  Signals outside the cone are never looked at,
// so an undefined or cyclic signal in dead logic is accepted.  A primary
// input shadows a cover driving the same name.  eval() is the lazy
// single-assignment evaluator (the tabulation oracle in tests): it only
// follows the literals it needs, so it throws only where that assignment
// reaches the bad signal.

#include <string>
#include <unordered_map>
#include <vector>

#include "tt/truth_table.hpp"

namespace ovo::tt {

struct BlifCover {
  std::vector<std::string> fanins;  ///< signal names, in .names order
  std::string output;
  std::vector<std::string> cubes;   ///< input planes, chars in {0,1,-}
  char out_value = '1';             ///< '1': cubes are the ON-set;
                                    ///< '0': cubes are the OFF-set
};

struct BlifModel {
  std::string name;
  std::vector<std::string> inputs;
  std::vector<std::string> outputs;
  std::vector<BlifCover> covers;

  /// Evaluate signal `signal` under an assignment to the primary inputs
  /// (bit i = inputs[i]). Throws on undefined or cyclic signals that this
  /// assignment reaches.
  bool eval(const std::string& signal, std::uint64_t assignment) const;

  /// Truth table of one primary output over the primary inputs, evaluated
  /// 64 assignments per word over blocks of table words.
  TruthTable output_table(const std::string& output) const;

  /// All primary-output tables, in .outputs order, from one sweep over
  /// their joint cone.
  std::vector<TruthTable> output_tables() const;
};

/// Parses BLIF text. Throws util::CheckError with a line number on
/// malformed input.
BlifModel parse_blif(const std::string& text);

}  // namespace ovo::tt

#pragma once
// Block-wise, word-parallel tabulation of netlists (BLIF covers and
// gate-level circuits).  A netlist is evaluated over a block of up to
// kBlockWords table words at a time — 64 assignments per word — with one
// scratch row of kBlockWords words per signal, so scratch memory is
// (signals x kBlockWords x 8 bytes) whatever n is, up to
// TruthTable::kMaxVars.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "tt/truth_table.hpp"

namespace ovo::tt::detail {

/// Table words per evaluation block: 4096 assignments, 512 bytes a row.
inline constexpr std::size_t kBlockWords = 64;

/// Fills row[0..len) with the projection x_v over table words
/// first..first+len-1.
inline void fill_var_row(int v, std::uint64_t first, std::size_t len,
                         std::uint64_t* row) {
  for (std::size_t i = 0; i < len; ++i)
    row[i] = TruthTable::var_word(v, first + i);
}

/// Tabulates the signals `outputs` of a netlist with `num_signals`
/// signals over n variables.  For each block, eval_block(first, len,
/// rows) must fill rows[s * kBlockWords + i], i < len, with table word
/// first + i of every signal s the outputs depend on.
template <typename EvalBlock>
std::vector<TruthTable> tabulate_blocks(int n, std::size_t num_signals,
                                        const std::vector<std::size_t>& outputs,
                                        EvalBlock&& eval_block) {
  const std::size_t total = TruthTable::word_count(n);
  std::vector<std::vector<std::uint64_t>> words(
      outputs.size(), std::vector<std::uint64_t>(total));
  std::vector<std::uint64_t> rows(num_signals * kBlockWords);
  for (std::size_t first = 0; first < total; first += kBlockWords) {
    const std::size_t len = std::min(kBlockWords, total - first);
    eval_block(static_cast<std::uint64_t>(first), len, rows.data());
    for (std::size_t o = 0; o < outputs.size(); ++o)
      std::copy_n(rows.data() + outputs[o] * kBlockWords, len,
                  words[o].data() + first);
  }
  std::vector<TruthTable> out;
  out.reserve(outputs.size());
  for (std::vector<std::uint64_t>& w : words)
    out.push_back(TruthTable::from_words(n, std::move(w)));
  return out;
}

}  // namespace ovo::tt::detail

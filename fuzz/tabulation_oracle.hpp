#pragma once
// The per-assignment tabulation oracle: a PLA or BLIF output tabulated
// one assignment at a time through the single-point APIs
// (tt::Pla::cube_covers, tt::BlifModel::eval).  The word-parallel
// output_table(s) kernels must agree with it; the fuzz bodies
// (fuzz_one.hpp) and the PLA/BLIF differential tests check that.

#include <cstddef>
#include <cstdint>
#include <string>

#include "tt/blif.hpp"
#include "tt/pla.hpp"
#include "tt/truth_table.hpp"

namespace ovo::fuzz {

inline tt::TruthTable pla_oracle_table(const tt::Pla& pla, int output) {
  const std::size_t o = static_cast<std::size_t>(output);
  return tt::TruthTable::tabulate(pla.num_inputs, [&](std::uint64_t a) {
    for (std::size_t p = 0; p < pla.cubes.size(); ++p)
      if (pla.outputs[p][o] && pla.cube_covers(p, a)) return true;
    return false;
  });
}

inline tt::TruthTable blif_oracle_table(const tt::BlifModel& model,
                                        const std::string& signal) {
  return tt::TruthTable::tabulate(
      static_cast<int>(model.inputs.size()),
      [&](std::uint64_t a) { return model.eval(signal, a); });
}

}  // namespace ovo::fuzz

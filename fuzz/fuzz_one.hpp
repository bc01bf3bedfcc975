#pragma once
// Shared one-input harness bodies for the fuzzed input frontier.  Each
// function feeds arbitrary bytes to one untrusted-input decoder and
// absorbs exactly the *typed* rejection paths (util::CheckError for the
// text parsers, rt::CheckpointError for the binary decoders).  Anything
// else — a crash, a sanitizer report, an unexpected exception type
// terminating the process — is a finding.
//
// The same bodies back three harnesses:
//   * the libFuzzer targets in fuzz/fuzz_*.cpp (Clang, -fsanitize=fuzzer)
//   * the standalone replay driver (GCC; file replay + --rand generation)
//   * the tier-1 corpus regression test (tests/corpus_test.cpp), which
//     replays tests/data/corpus/ through the identical code path.

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "bdd/serialize.hpp"
#include "core/fs_checkpoint.hpp"
#include "rt/checkpoint.hpp"
#include "tabulation_oracle.hpp"
#include "tt/blif.hpp"
#include "tt/expr.hpp"
#include "tt/pla.hpp"
#include "util/check.hpp"
#include "zdd/serialize.hpp"

namespace ovo::fuzz {

inline std::string as_text(const std::uint8_t* data, std::size_t len) {
  return std::string(reinterpret_cast<const char*>(data), len);
}

/// Accepted inputs up to this many primary inputs (2^10 assignments) are
/// checked against the tabulation oracle.
inline constexpr std::size_t kMaxOracleInputs = 10;
/// The BLIF oracle recurses along the netlist and rebuilds its name maps
/// for every assignment, so larger netlists skip the comparison.
inline constexpr std::size_t kMaxOracleCovers = 4096;

inline int one_blif(const std::uint8_t* data, std::size_t len) {
  tt::BlifModel model;
  std::vector<tt::TruthTable> tables;
  try {
    model = tt::parse_blif(as_text(data, len));
    if (model.inputs.size() > kMaxOracleInputs ||
        model.covers.size() > kMaxOracleCovers)
      return 0;
    tables = model.output_tables();
  } catch (const util::CheckError&) {
    return 0;
  }
  // Tabulation succeeded, so every output's cone is defined and acyclic:
  // the lazy oracle must neither throw nor disagree.
  for (std::size_t o = 0; o < tables.size(); ++o)
    if (tables[o] != blif_oracle_table(model, model.outputs[o]))
      throw std::logic_error("BLIF tabulation disagrees with the oracle");
  return 0;
}

inline int one_pla(const std::uint8_t* data, std::size_t len) {
  tt::Pla pla;
  std::vector<tt::TruthTable> tables;
  try {
    pla = tt::parse_pla(as_text(data, len));
    if (static_cast<std::size_t>(pla.num_inputs) > kMaxOracleInputs) return 0;
    tables = pla.output_tables();
  } catch (const util::CheckError&) {
    return 0;
  }
  for (std::size_t o = 0; o < tables.size(); ++o)
    if (tables[o] != pla_oracle_table(pla, static_cast<int>(o)))
      throw std::logic_error("PLA tabulation disagrees with the oracle");
  return 0;
}

inline int one_expr(const std::uint8_t* data, std::size_t len) {
  try {
    tt::parse_expr(as_text(data, len));
  } catch (const util::CheckError&) {
  }
  return 0;
}

/// The checkpoint decode stack: container framing (magic / version /
/// length / CRC) and, when the frame carries the FS* snapshot version,
/// the full semantic payload validation of core::decode_snapshot.
inline int one_snapshot(const std::uint8_t* data, std::size_t len) {
  try {
    const rt::CheckpointData d =
        rt::parse_checkpoint(data, len, 0, ~std::uint32_t{0});
    if (d.version <= core::kFsSnapshotVersion)
      core::decode_snapshot(d.payload.data(), d.payload.size());
  } catch (const rt::CheckpointError&) {
  }
  return 0;
}

/// The diagram loaders, dispatched the way a CLI would: binary images by
/// their leading tag byte, anything else through the text parsers.
inline int one_diagram(const std::uint8_t* data, std::size_t len) {
  try {
    if (len > 0 && data[0] == 'B') {
      bdd::load_bdd_binary(data, len);
    } else if (len > 0 && data[0] == 'Z') {
      zdd::load_zdd_binary(data, len);
    } else {
      const std::string text = as_text(data, len);
      if (text.rfind("ovo-zdd", 0) == 0)
        zdd::load_zdd(text);
      else
        bdd::load_bdd(text);
    }
  } catch (const util::CheckError&) {
  } catch (const rt::CheckpointError&) {
  }
  return 0;
}

}  // namespace ovo::fuzz

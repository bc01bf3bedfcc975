// Tests for the Berkeley PLA reader/writer and its integration with the
// minimization pipeline.

#include <gtest/gtest.h>

#include <string>

#include "core/minimize.hpp"
#include "core/multi_output.hpp"
#include "tt/function_zoo.hpp"
#include "tt/parse_error.hpp"
#include "tt/pla.hpp"
#include "tabulation_oracle.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace ovo::tt {
namespace {

const char* kXorPla = R"(# 2-input xor
.i 2
.o 1
.p 2
01 1
10 1
.e
)";

TEST(PlaParse, XorExample) {
  const Pla p = parse_pla(kXorPla);
  EXPECT_EQ(p.num_inputs, 2);
  EXPECT_EQ(p.num_outputs, 1);
  ASSERT_EQ(p.cubes.size(), 2u);
  EXPECT_EQ(p.output_table(0), parity(2));
}

TEST(PlaParse, DontCaresInCubes) {
  const Pla p = parse_pla(".i 3\n.o 1\n1-0 1\n.e\n");
  // Covers assignments with x0=1, x2=0, any x1.
  const TruthTable t = p.output_table(0);
  EXPECT_EQ(t.count_ones(), 2u);
  EXPECT_TRUE(t.get(0b001));
  EXPECT_TRUE(t.get(0b011));
  EXPECT_FALSE(t.get(0b101));
}

TEST(PlaParse, MultiOutput) {
  const Pla p = parse_pla(
      ".i 2\n.o 2\n.ilb a b\n.ob f g\n11 10\n01 01\n10 01\n.e\n");
  EXPECT_EQ(p.input_names, (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(p.output_names, (std::vector<std::string>{"f", "g"}));
  EXPECT_EQ(p.output_table(0), conjunction(2));  // f = a & b
  EXPECT_EQ(p.output_table(1), parity(2));       // g = a ^ b
  EXPECT_EQ(p.output_tables().size(), 2u);
}

TEST(PlaParse, OutputDnfMatchesTable) {
  const Pla p = parse_pla(".i 3\n.o 1\n.p 2\n1-1 1\n010 1\n.e\n");
  EXPECT_EQ(p.output_dnf(0).to_truth_table(), p.output_table(0));
}

TEST(PlaParse, Errors) {
  EXPECT_THROW(parse_pla(""), util::CheckError);
  EXPECT_THROW(parse_pla(".i 2\n01 1\n.e\n"), util::CheckError);  // no .o
  EXPECT_THROW(parse_pla(".i 2\n.o 1\n011 1\n.e\n"), util::CheckError);
  EXPECT_THROW(parse_pla(".i 2\n.o 1\n0x 1\n.e\n"), util::CheckError);
  EXPECT_THROW(parse_pla(".i 2\n.o 1\n01 2\n.e\n"), util::CheckError);
  EXPECT_THROW(parse_pla(".i 2\n.o 1\n.p 3\n01 1\n.e\n"),
               util::CheckError);  // .p mismatch
  EXPECT_THROW(parse_pla(".i 2\n.o 1\n.e\n01 1\n"), util::CheckError);
  EXPECT_THROW(parse_pla(".i 2\n.o 1\n.ilb a\n01 1\n.e\n"),
               util::CheckError);
  EXPECT_THROW(parse_pla(".i 2\n.o 1\n.type fd\n01 1\n.e\n"),
               util::CheckError);
}

// Every malformed input must surface as the typed ParseError (which is-a
// util::CheckError, so the legacy expectations above also hold).
TEST(PlaParse, MalformedFilesThrowTypedError) {
  // Truncated: header only, no .e.
  EXPECT_THROW(parse_pla(".i 2\n.o 1\n01 1\n"), ParseError);
  // Truncated mid-product: cube cut short by the missing tail.
  EXPECT_THROW(parse_pla(".i 4\n.o 1\n01"), ParseError);
  // Non-numeric and junk-suffixed header fields (std::stoi would have
  // thrown std::invalid_argument instead of a parse error).
  EXPECT_THROW(parse_pla(".i x\n.o 1\n.e\n"), ParseError);
  EXPECT_THROW(parse_pla(".i 2z\n.o 1\n01 1\n.e\n"), ParseError);
  EXPECT_THROW(parse_pla(".i -2\n.o 1\n01 1\n.e\n"), ParseError);
  // Out-of-range counts (std::stoi would have thrown std::out_of_range).
  EXPECT_THROW(parse_pla(".i 99999999999999999999\n.o 1\n.e\n"), ParseError);
  EXPECT_THROW(parse_pla(".i 2\n.o 1\n.p 99999999999999999999\n01 1\n.e\n"),
               ParseError);
  // Input count beyond the tabulation limit.
  EXPECT_THROW(parse_pla(".i 1000\n.o 1\n.e\n"), ParseError);
}

TEST(PlaParse, ParseErrorIsACheckError) {
  try {
    parse_pla(".i nope\n.o 1\n.e\n");
    FAIL() << "expected ParseError";
  } catch (const util::CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("PLA line 1"), std::string::npos);
  }
}

TEST(PlaRoundtrip, WriteParseWrite) {
  const Pla p = parse_pla(kXorPla);
  const std::string text = to_pla(p);
  const Pla q = parse_pla(text);
  EXPECT_EQ(to_pla(q), text);
  EXPECT_EQ(q.output_table(0), p.output_table(0));
}

TEST(PlaIntegration, MinimizeSingleOutput) {
  // The Fig. 1 function as a PLA.
  const Pla p = parse_pla(
      ".i 6\n.o 1\n11---- 1\n--11-- 1\n----11 1\n.e\n");
  EXPECT_EQ(p.output_table(0), pair_sum(3));
  EXPECT_EQ(core::fs_minimize(p.output_table(0)).min_internal_nodes, 6u);
}

TEST(PlaIntegration, SharedMinimizationOfMultiOutputPla) {
  const Pla p = parse_pla(
      ".i 4\n.o 2\n11-- 10\n--11 10\n1-1- 01\n-1-1 01\n.e\n");
  const auto shared = core::fs_minimize_shared(p.output_tables());
  EXPECT_GT(shared.min_internal_nodes, 0u);
  EXPECT_EQ(core::shared_size_for_order(p.output_tables(),
                                        shared.order_root_first),
            shared.min_internal_nodes);
}

// --- Word-parallel tabulation vs the per-assignment oracle ---------------

/// A random PLA over n inputs and m outputs: cube characters over
/// {0,1,-} (one '-' in four; one cube in eight all '-'), output columns
/// over {0,1,-,~}.
std::string random_pla_text(util::Xoshiro256& rng, int n, int m) {
  std::string t =
      ".i " + std::to_string(n) + "\n.o " + std::to_string(m) + "\n";
  const std::uint64_t products = 1 + rng.below(4 * static_cast<unsigned>(n) + 4);
  for (std::uint64_t p = 0; p < products; ++p) {
    const bool all_dont_care = rng.below(8) == 0;
    for (int i = 0; i < n; ++i)
      t += all_dont_care || rng.below(4) == 0 ? '-' : (rng.coin() ? '1' : '0');
    t += ' ';
    for (int o = 0; o < m; ++o) t += "01-~"[rng.below(4)];
    t += '\n';
  }
  return t + ".e\n";
}

TEST(PlaTabulation, RandomPlasMatchOracle) {
  util::Xoshiro256 rng(12);
  for (int n = 1; n <= 12; ++n) {
    for (int trial = 0; trial < 6; ++trial) {
      const int m = 1 + static_cast<int>(rng.below(3));
      const std::string text = random_pla_text(rng, n, m);
      const Pla p = parse_pla(text);
      const std::vector<TruthTable> tables = p.output_tables();
      ASSERT_EQ(tables.size(), static_cast<std::size_t>(m));
      for (int o = 0; o < m; ++o) {
        const TruthTable want = fuzz::pla_oracle_table(p, o);
        EXPECT_EQ(tables[static_cast<std::size_t>(o)], want) << text;
        EXPECT_EQ(p.output_table(o), want) << text;
      }
    }
  }
}

TEST(PlaTabulation, AllDontCareCubeIsTautology) {
  for (const int n : {1, 2, 5, 6, 7, 12}) {
    const Pla p = parse_pla(".i " + std::to_string(n) + "\n.o 1\n" +
                            std::string(static_cast<std::size_t>(n), '-') +
                            " 1\n.e\n");
    const TruthTable t = p.output_table(0);
    EXPECT_EQ(t.count_ones(), t.size()) << n;
    // Bits past cell 2^n - 1 of a partial word stay clear.
    EXPECT_EQ(t, ~TruthTable(n)) << n;
  }
}

TEST(PlaTabulation, OnlyOneColumnsAssert) {
  const Pla p = parse_pla(".i 2\n.o 4\n11 1-~0\n-1 0~-1\n.e\n");
  const std::vector<TruthTable> t = p.output_tables();
  EXPECT_EQ(t[0], conjunction(2));
  EXPECT_EQ(t[1], TruthTable(2));
  EXPECT_EQ(t[2], TruthTable(2));
  EXPECT_EQ(t[3], TruthTable::from_bits(2, "0011"));  // x1
}

TEST(PlaTabulation, HighVariableLiteralsSelectWords) {
  // n = 9: x6..x8 live above the word; x8=1, x6=0 selects table words
  // 4 and 6, and the x0 literal keeps the odd cells of each.
  const Pla p = parse_pla(".i 9\n.o 1\n1-----0-1 1\n.e\n");
  const TruthTable t = p.output_table(0);
  EXPECT_EQ(t.count_ones(), 64u);
  for (std::uint64_t a = 0; a < t.size(); ++a)
    EXPECT_EQ(t.get(a), (a & 1) == 1 && ((a >> 6) & 1) == 0 &&
                            ((a >> 8) & 1) == 1)
        << a;
}

}  // namespace
}  // namespace ovo::tt

// Tests for the BLIF netlist reader and its integration with the
// ordering pipeline.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/minimize.hpp"
#include "core/multi_output.hpp"
#include "tt/blif.hpp"
#include "tt/function_zoo.hpp"
#include "tt/parse_error.hpp"
#include "tabulation_oracle.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace ovo::tt {
namespace {

const char* kFullAdder = R"(# full adder
.model fa
.inputs a b cin
.outputs sum cout
.names a b axb
01 1
10 1
.names axb cin sum
01 1
10 1
.names a b ab
11 1
.names axb cin p
11 1
.names ab p cout
1- 1
-1 1
.end
)";

TEST(Blif, FullAdderSemantics) {
  const BlifModel m = parse_blif(kFullAdder);
  EXPECT_EQ(m.name, "fa");
  EXPECT_EQ(m.inputs.size(), 3u);
  EXPECT_EQ(m.outputs, (std::vector<std::string>{"sum", "cout"}));
  for (std::uint64_t a = 0; a < 8; ++a) {
    const int bits = static_cast<int>((a & 1) + ((a >> 1) & 1) + ((a >> 2) & 1));
    EXPECT_EQ(m.eval("sum", a), (bits & 1) != 0) << a;
    EXPECT_EQ(m.eval("cout", a), bits >= 2) << a;
  }
}

TEST(Blif, OutputTables) {
  const BlifModel m = parse_blif(kFullAdder);
  const auto tables = m.output_tables();
  ASSERT_EQ(tables.size(), 2u);
  EXPECT_EQ(tables[0], parity(3));       // sum
  EXPECT_EQ(tables[1], majority(3));     // carry of 3 = majority
}

TEST(Blif, OffSetCover) {
  // NOR via OFF-set rows: output 0 when any input is 1.
  const BlifModel m = parse_blif(
      ".inputs a b\n.outputs f\n.names a b f\n1- 0\n-1 0\n.end\n");
  EXPECT_TRUE(m.eval("f", 0b00));
  EXPECT_FALSE(m.eval("f", 0b01));
  EXPECT_FALSE(m.eval("f", 0b11));
}

TEST(Blif, Constants) {
  const BlifModel m = parse_blif(
      ".inputs a\n.outputs t z g\n.names t\n1\n.names z\n"
      "\n.names a t g\n11 1\n.end\n");
  EXPECT_TRUE(m.eval("t", 0));
  EXPECT_FALSE(m.eval("z", 0));  // empty cover = constant 0
  EXPECT_TRUE(m.eval("g", 1));
  EXPECT_FALSE(m.eval("g", 0));
}

TEST(Blif, OutOfOrderDefinitionsWork) {
  // g defined before its fanin h.
  const BlifModel m = parse_blif(
      ".inputs a\n.outputs g\n.names h g\n1 1\n.names a h\n0 1\n.end\n");
  EXPECT_TRUE(m.eval("g", 0));
  EXPECT_FALSE(m.eval("g", 1));
}

TEST(Blif, LineContinuation) {
  const BlifModel m = parse_blif(
      ".inputs a \\\nb\n.outputs f\n.names a b f\n11 1\n.end\n");
  EXPECT_EQ(m.inputs.size(), 2u);
  EXPECT_TRUE(m.eval("f", 0b11));
}

TEST(Blif, Errors) {
  EXPECT_THROW(parse_blif(""), util::CheckError);
  EXPECT_THROW(parse_blif(".inputs a\n.names a f\n1 1\n"),
               util::CheckError);  // no outputs
  EXPECT_THROW(parse_blif(".inputs a\n.outputs f\n.latch a f\n.end\n"),
               util::CheckError);
  EXPECT_THROW(parse_blif(".inputs a\n.outputs f\n11 1\n.end\n"),
               util::CheckError);  // row outside .names
  EXPECT_THROW(parse_blif(".inputs a\n.outputs f\n.names a f\n1x 1\n.end\n"),
               util::CheckError);
  EXPECT_THROW(
      parse_blif(".inputs a b\n.outputs f\n.names a b f\n11 1\n1- 0\n.end\n"),
      util::CheckError);  // mixed output column
  const BlifModel undef = parse_blif(
      ".inputs a\n.outputs f\n.names q f\n1 1\n.end\n");
  EXPECT_THROW(undef.eval("f", 0), util::CheckError);
  const BlifModel cyc = parse_blif(
      ".inputs a\n.outputs f\n.names g f\n1 1\n.names f g\n1 1\n.end\n");
  EXPECT_THROW(cyc.eval("f", 0), util::CheckError);
}

// Malformed netlists must raise the typed ParseError (a subclass of
// util::CheckError, so the expectations above keep holding too).
TEST(Blif, MalformedFilesThrowTypedError) {
  // Truncated: no .end terminator.
  EXPECT_THROW(
      parse_blif(".inputs a\n.outputs f\n.names a f\n1 1\n"), ParseError);
  // Truncated: the file ends in the middle of a continuation line.
  EXPECT_THROW(parse_blif(".inputs a\n.outputs f\n.names a f \\"),
               ParseError);
  // Two covers driving the same signal: the evaluator would silently use
  // the first and ignore the second.
  EXPECT_THROW(parse_blif(".inputs a b\n.outputs f\n.names a f\n1 1\n"
                          ".names b f\n1 1\n.end\n"),
               ParseError);
}

TEST(Blif, ParseErrorIsACheckError) {
  try {
    parse_blif(".inputs a\n.outputs f\n.gate and2 f\n.end\n");
    FAIL() << "expected ParseError";
  } catch (const util::CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("BLIF line 3"), std::string::npos);
  }
}

TEST(Blif, PipelineToOptimalOrdering) {
  const BlifModel m = parse_blif(kFullAdder);
  const auto shared = core::fs_minimize_shared(m.output_tables());
  EXPECT_GT(shared.min_internal_nodes, 0u);
  EXPECT_EQ(core::shared_size_for_order(m.output_tables(),
                                        shared.order_root_first),
            shared.min_internal_nodes);
}

// --- Word-parallel tabulation vs the per-assignment oracle ---------------

/// A random acyclic netlist over n inputs x0..x{n-1}: covers g0..g{k-1}
/// with up to three fanins drawn from the inputs and earlier covers, ON-
/// or OFF-set rows, zero-fanin constants and zero-row covers, written in
/// shuffled order (so definitions come out of order).  The outputs are
/// random covers plus, sometimes, a primary input.
std::string random_blif_text(util::Xoshiro256& rng, int n) {
  const auto input = [](std::uint64_t i) { return "x" + std::to_string(i); };
  const std::uint64_t k = 2 + rng.below(3 * static_cast<unsigned>(n) + 4);
  std::vector<std::string> covers;
  for (std::uint64_t g = 0; g < k; ++g) {
    const std::uint64_t fanins = rng.below(4);
    std::string names = ".names";
    for (std::uint64_t f = 0; f < fanins; ++f) {
      const std::uint64_t pick = rng.below(static_cast<unsigned>(n) + g);
      names += " " + (pick < static_cast<unsigned>(n)
                          ? input(pick)
                          : "g" + std::to_string(pick - n));
    }
    std::string text = names + " g" + std::to_string(g) + "\n";
    const char out = rng.below(3) == 0 ? '0' : '1';
    const std::uint64_t rows = rng.below(4);
    for (std::uint64_t r = 0; r < rows; ++r) {
      for (std::uint64_t f = 0; f < fanins; ++f)
        text += "01-"[rng.below(3)];
      text += fanins == 0 ? std::string(1, out) : std::string(" ") + out;
      text += '\n';
    }
    covers.push_back(text);
  }
  for (std::size_t i = covers.size(); i > 1; --i)
    std::swap(covers[i - 1], covers[rng.below(i)]);

  std::string t = ".model rnd\n.inputs";
  for (int i = 0; i < n; ++i) t += " " + input(static_cast<unsigned>(i));
  t += "\n.outputs";
  for (std::uint64_t o = 0, m = 1 + rng.below(3); o < m; ++o)
    t += " g" + std::to_string(rng.below(k));
  if (rng.below(4) == 0) t += " " + input(rng.below(static_cast<unsigned>(n)));
  t += "\n";
  for (const std::string& c : covers) t += c;
  return t + ".end\n";
}

TEST(BlifTabulation, RandomNetlistsMatchOracle) {
  util::Xoshiro256 rng(7);
  for (int n = 1; n <= 12; ++n) {
    for (int trial = 0; trial < 6; ++trial) {
      const std::string text = random_blif_text(rng, n);
      const BlifModel m = parse_blif(text);
      const std::vector<TruthTable> tables = m.output_tables();
      ASSERT_EQ(tables.size(), m.outputs.size());
      for (std::size_t o = 0; o < tables.size(); ++o) {
        const TruthTable want = fuzz::blif_oracle_table(m, m.outputs[o]);
        EXPECT_EQ(tables[o], want) << text;
        EXPECT_EQ(m.output_table(m.outputs[o]), want) << text;
      }
    }
  }
}

TEST(BlifTabulation, OutputThatIsAPrimaryInput) {
  const BlifModel m = parse_blif(
      ".inputs a b\n.outputs b f\n.names a b f\n11 1\n.end\n");
  const std::vector<TruthTable> t = m.output_tables();
  EXPECT_EQ(t[0], TruthTable::from_bits(2, "0011"));  // b = x1
  EXPECT_EQ(t[1], conjunction(2));
}

TEST(BlifTabulation, ConstantAndZeroRowCovers) {
  const BlifModel m = parse_blif(
      ".inputs a\n.outputs one zero empty noff f\n"
      ".names one\n1\n.names zero\n0\n.names empty\n"
      ".names a noff\n.names a one f\n1- 0\n.end\n");
  const std::vector<TruthTable> t = m.output_tables();
  EXPECT_EQ(t[0], ~TruthTable(1));
  EXPECT_EQ(t[1], TruthTable(1));
  EXPECT_EQ(t[2], TruthTable(1));
  EXPECT_EQ(t[3], TruthTable(1));                     // no rows: constant 0
  EXPECT_EQ(t[4], TruthTable::from_bits(1, "10"));    // OFF-set: !a
}

TEST(BlifTabulation, DeepChainNeedsNoRecursion) {
  std::string t = ".inputs a\n.outputs s20000\n.names a s0\n0 1\n";
  for (int i = 1; i <= 20000; ++i)
    t += ".names s" + std::to_string(i - 1) + " s" + std::to_string(i) +
         "\n0 1\n";
  const BlifModel m = parse_blif(t + ".end\n");
  // 20001 inverters: s20000 = !a.
  EXPECT_EQ(m.output_table("s20000"), TruthTable::from_bits(1, "10"));
}

// --- Error rule: the whole cone is checked, dead logic is not -----------

TEST(BlifTabulation, UndefinedSignalInConeThrowsEvenWhenMasked) {
  // `ghost` sits only under '-' columns: the lazy evaluator never reads
  // it, but it is in f's cone.
  const BlifModel dc = parse_blif(
      ".inputs a\n.outputs f\n.names a ghost f\n1- 1\n.end\n");
  EXPECT_TRUE(dc.eval("f", 1));
  EXPECT_FALSE(dc.eval("f", 0));
  EXPECT_THROW(dc.output_table("f"), util::CheckError);
  EXPECT_THROW(dc.output_tables(), util::CheckError);
  // A zero-row cover reads none of its fanins.
  const BlifModel empty = parse_blif(
      ".inputs a\n.outputs f\n.names ghost f\n.end\n");
  EXPECT_FALSE(empty.eval("f", 0));
  EXPECT_THROW(empty.output_table("f"), util::CheckError);
  // An undefined output.
  const BlifModel none = parse_blif(".inputs a\n.outputs f\n.end\n");
  EXPECT_THROW(none.output_tables(), util::CheckError);
}

TEST(BlifTabulation, CycleInConeThrowsEvenWhenMasked) {
  // f = a & g with g = f: the a=0 short-circuit and the '-' column mean
  // the lazy evaluator never walks the cycle for any assignment.
  const BlifModel m = parse_blif(
      ".inputs a\n.outputs f\n.names a g f\n1- 1\n"
      ".names f g\n1 1\n.end\n");
  EXPECT_FALSE(m.eval("f", 0));
  EXPECT_TRUE(m.eval("f", 1));
  EXPECT_THROW(m.output_table("f"), util::CheckError);
  // A self-loop.
  const BlifModel self = parse_blif(
      ".inputs a\n.outputs f\n.names a f f\n0- 1\n.end\n");
  EXPECT_THROW(self.output_tables(), util::CheckError);
}

TEST(BlifTabulation, BadSignalsInDeadLogicAreAccepted) {
  // p <-> q is a cycle and `dead` reads an undefined signal, but neither
  // is in the cone of the output f.
  const BlifModel m = parse_blif(
      ".inputs a b\n.outputs f\n.names a b f\n11 1\n"
      ".names q p\n1 1\n.names p q\n1 1\n.names ghost dead\n1 1\n"
      ".end\n");
  EXPECT_EQ(m.output_table("f"), conjunction(2));
  EXPECT_EQ(m.output_tables().front(), conjunction(2));
}

}  // namespace
}  // namespace ovo::tt

// Tests for the gate-level circuit representation (Corollary 2 input form).

#include <gtest/gtest.h>

#include "tt/circuit.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace ovo::tt {
namespace {

TEST(Circuit, SingleGateOps) {
  struct Case {
    GateOp op;
    bool expected[4];  // indexed by (b<<1)|a
  };
  const Case cases[] = {
      {GateOp::kAnd, {false, false, false, true}},
      {GateOp::kOr, {false, true, true, true}},
      {GateOp::kXor, {false, true, true, false}},
      {GateOp::kNand, {true, true, true, false}},
      {GateOp::kNor, {true, false, false, false}},
      {GateOp::kXnor, {true, false, false, true}},
  };
  for (const Case& c : cases) {
    Circuit ckt(2);
    ckt.add_gate(c.op, 0, 1);
    for (std::uint64_t a = 0; a < 4; ++a)
      EXPECT_EQ(ckt.eval(a), c.expected[a]) << static_cast<int>(c.op);
  }
}

TEST(Circuit, UnaryGates) {
  Circuit ckt(1);
  ckt.add_gate(GateOp::kNot, 0);
  EXPECT_TRUE(ckt.eval(0));
  EXPECT_FALSE(ckt.eval(1));

  Circuit buf(1);
  buf.add_gate(GateOp::kBuf, 0);
  EXPECT_FALSE(buf.eval(0));
  EXPECT_TRUE(buf.eval(1));
}

TEST(Circuit, FaninValidation) {
  Circuit ckt(2);
  EXPECT_THROW(ckt.add_gate(GateOp::kAnd, 0, 5), util::CheckError);
  EXPECT_THROW(ckt.add_gate(GateOp::kAnd, -1, 0), util::CheckError);
  EXPECT_THROW(ckt.add_gate(GateOp::kNot, 0, 1), util::CheckError);
  const int g = ckt.add_gate(GateOp::kAnd, 0, 1);
  EXPECT_EQ(g, 2);
  // Gates can feed later gates.
  EXPECT_EQ(ckt.add_gate(GateOp::kOr, g, 0), 3);
}

TEST(Circuit, OutputSelection) {
  Circuit ckt(2);
  const int a = ckt.add_gate(GateOp::kAnd, 0, 1);
  ckt.add_gate(GateOp::kOr, 0, 1);
  // Default output is the last gate (the OR).
  EXPECT_TRUE(ckt.eval(0b01));
  ckt.set_output(a);
  EXPECT_FALSE(ckt.eval(0b01));
  EXPECT_THROW(ckt.set_output(9), util::CheckError);
}

TEST(Circuit, NoOutputThrows) {
  const Circuit ckt(2);
  EXPECT_THROW(ckt.eval(0), util::CheckError);
}

TEST(Circuit, RippleCarryOutMatchesArithmetic) {
  for (int bits = 1; bits <= 5; ++bits) {
    const Circuit ckt = Circuit::ripple_carry_out(bits);
    const std::uint64_t lim = std::uint64_t{1} << bits;
    for (std::uint64_t u = 0; u < lim; ++u)
      for (std::uint64_t v = 0; v < lim; ++v)
        EXPECT_EQ(ckt.eval(u | (v << bits)), ((u + v) >> bits) & 1u)
            << "bits=" << bits << " u=" << u << " v=" << v;
  }
}

TEST(Circuit, ComparatorEq) {
  const Circuit ckt = Circuit::comparator_eq(3);
  for (std::uint64_t u = 0; u < 8; ++u)
    for (std::uint64_t v = 0; v < 8; ++v)
      EXPECT_EQ(ckt.eval(u | (v << 3)), u == v);
}

TEST(Circuit, TabulateMatchesEval) {
  const Circuit ckt = Circuit::ripple_carry_out(3);
  const TruthTable t = ckt.to_truth_table();
  EXPECT_EQ(t.num_vars(), 6);
  for (std::uint64_t a = 0; a < t.size(); ++a)
    EXPECT_EQ(t.get(a), ckt.eval(a));
}

// Word-parallel to_truth_table vs the single-point eval.
TruthTable eval_oracle(const Circuit& ckt) {
  return TruthTable::tabulate(ckt.num_inputs(),
                              [&](std::uint64_t a) { return ckt.eval(a); });
}

TEST(Circuit, FactoriesTabulateLikeEval) {
  for (int k = 1; k <= 6; ++k) {
    const Circuit carry = Circuit::ripple_carry_out(k);
    EXPECT_EQ(carry.to_truth_table(), eval_oracle(carry)) << k;
    const Circuit eq = Circuit::comparator_eq(k);
    EXPECT_EQ(eq.to_truth_table(), eval_oracle(eq)) << k;
  }
}

TEST(Circuit, RandomCircuitsTabulateLikeEval) {
  util::Xoshiro256 rng(3);
  for (int n = 1; n <= 12; ++n) {
    for (int trial = 0; trial < 4; ++trial) {
      Circuit ckt(n);
      const int gates = 1 + static_cast<int>(rng.below(4 * n));
      for (int g = 0; g < gates; ++g) {
        const GateOp op = static_cast<GateOp>(rng.below(8));
        const std::uint64_t limit = static_cast<std::uint64_t>(n + g);
        const int a = static_cast<int>(rng.below(limit));
        const bool unary = op == GateOp::kNot || op == GateOp::kBuf;
        ckt.add_gate(op, a, unary ? -1 : static_cast<int>(rng.below(limit)));
      }
      // Sometimes an inner gate or an input, leaving dead gates after it.
      if (rng.coin())
        ckt.set_output(static_cast<int>(rng.below(
            static_cast<std::uint64_t>(n + ckt.num_gates()))));
      EXPECT_EQ(ckt.to_truth_table(), eval_oracle(ckt)) << n << " " << trial;
    }
  }
}

}  // namespace
}  // namespace ovo::tt

#include "tt/circuit.hpp"

#include <algorithm>

#include "tt/word_eval.hpp"
#include "util/check.hpp"

namespace ovo::tt {

Circuit::Circuit(int num_inputs) : num_inputs_(num_inputs) {
  OVO_CHECK(num_inputs >= 0 && num_inputs <= TruthTable::kMaxVars);
}

int Circuit::add_gate(GateOp op, int a, int b) {
  const int limit = num_inputs_ + num_gates();
  OVO_CHECK_MSG(a >= 0 && a < limit, "add_gate: bad fanin a");
  const bool unary = (op == GateOp::kNot || op == GateOp::kBuf);
  if (unary) {
    OVO_CHECK_MSG(b == -1, "add_gate: unary gate takes one fanin");
  } else {
    OVO_CHECK_MSG(b >= 0 && b < limit, "add_gate: bad fanin b");
  }
  gates_.push_back(Gate{op, a, b});
  output_ = limit;  // default output tracks the last gate
  return limit;
}

void Circuit::set_output(int signal) {
  OVO_CHECK(signal >= 0 && signal < num_inputs_ + num_gates());
  output_ = signal;
}

int Circuit::output() const {
  OVO_CHECK_MSG(output_ >= 0, "Circuit: no output set");
  return output_;
}

bool Circuit::eval(std::uint64_t assignment) const {
  OVO_CHECK_MSG(output_ >= 0, "Circuit: no output set");
  std::vector<bool> value(static_cast<std::size_t>(num_inputs_) +
                          gates_.size());
  for (int i = 0; i < num_inputs_; ++i)
    value[static_cast<std::size_t>(i)] = ((assignment >> i) & 1u) != 0;
  for (std::size_t g = 0; g < gates_.size(); ++g) {
    const Gate& gate = gates_[g];
    const bool a = value[static_cast<std::size_t>(gate.a)];
    const bool b = gate.b >= 0 && value[static_cast<std::size_t>(gate.b)];
    bool out = false;
    switch (gate.op) {
      case GateOp::kAnd:  out = a && b; break;
      case GateOp::kOr:   out = a || b; break;
      case GateOp::kXor:  out = a != b; break;
      case GateOp::kNand: out = !(a && b); break;
      case GateOp::kNor:  out = !(a || b); break;
      case GateOp::kXnor: out = a == b; break;
      case GateOp::kNot:  out = !a; break;
      case GateOp::kBuf:  out = a; break;
    }
    value[static_cast<std::size_t>(num_inputs_) + g] = out;
  }
  return value[static_cast<std::size_t>(output_)];
}

TruthTable Circuit::to_truth_table() const {
  const std::size_t out = static_cast<std::size_t>(output());
  const std::size_t n_in = static_cast<std::size_t>(num_inputs_);
  // Gates after the output cannot feed it (fanins precede their gate);
  // of the rest, evaluate only the output's cone.
  std::vector<bool> live(out + 1, false);
  live[out] = true;
  for (std::size_t s = out + 1; s-- > n_in;) {
    if (!live[s]) continue;
    const Gate& g = gates_[s - n_in];
    live[static_cast<std::size_t>(g.a)] = true;
    if (g.b >= 0) live[static_cast<std::size_t>(g.b)] = true;
  }
  const auto eval_block = [&](std::uint64_t first, std::size_t len,
                              std::uint64_t* rows) {
    const auto row = [&](std::size_t s) {
      return rows + s * detail::kBlockWords;
    };
    for (std::size_t s = 0; s <= out; ++s) {
      if (!live[s]) continue;
      if (s < n_in) {
        detail::fill_var_row(static_cast<int>(s), first, len, row(s));
        continue;
      }
      const Gate& g = gates_[s - n_in];
      const std::uint64_t* a = row(static_cast<std::size_t>(g.a));
      // A unary gate has no second fanin; b aliases a.
      const std::uint64_t* b =
          g.b >= 0 ? row(static_cast<std::size_t>(g.b)) : a;
      std::uint64_t* o = row(s);
      switch (g.op) {
        case GateOp::kAnd:
          for (std::size_t i = 0; i < len; ++i) o[i] = a[i] & b[i];
          break;
        case GateOp::kOr:
          for (std::size_t i = 0; i < len; ++i) o[i] = a[i] | b[i];
          break;
        case GateOp::kXor:
          for (std::size_t i = 0; i < len; ++i) o[i] = a[i] ^ b[i];
          break;
        case GateOp::kNand:
          for (std::size_t i = 0; i < len; ++i) o[i] = ~(a[i] & b[i]);
          break;
        case GateOp::kNor:
          for (std::size_t i = 0; i < len; ++i) o[i] = ~(a[i] | b[i]);
          break;
        case GateOp::kXnor:
          for (std::size_t i = 0; i < len; ++i) o[i] = ~(a[i] ^ b[i]);
          break;
        case GateOp::kNot:
          for (std::size_t i = 0; i < len; ++i) o[i] = ~a[i];
          break;
        case GateOp::kBuf:
          std::copy_n(a, len, o);
          break;
      }
    }
  };
  return detail::tabulate_blocks(num_inputs_, out + 1, {out}, eval_block)
      .front();
}

Circuit Circuit::ripple_carry_out(int operand_bits) {
  OVO_CHECK(operand_bits >= 1);
  // Inputs: u_0..u_{k-1} at signals 0..k-1, v bits at k..2k-1.
  Circuit c(2 * operand_bits);
  int carry = -1;
  for (int i = 0; i < operand_bits; ++i) {
    const int u = i;
    const int v = operand_bits + i;
    if (carry < 0) {
      carry = c.add_gate(GateOp::kAnd, u, v);
    } else {
      const int uv = c.add_gate(GateOp::kAnd, u, v);
      const int uxv = c.add_gate(GateOp::kXor, u, v);
      const int prop = c.add_gate(GateOp::kAnd, uxv, carry);
      carry = c.add_gate(GateOp::kOr, uv, prop);
    }
  }
  c.set_output(carry);
  return c;
}

Circuit Circuit::comparator_eq(int operand_bits) {
  OVO_CHECK(operand_bits >= 1);
  Circuit c(2 * operand_bits);
  int acc = -1;
  for (int i = 0; i < operand_bits; ++i) {
    const int eq = c.add_gate(GateOp::kXnor, i, operand_bits + i);
    acc = acc < 0 ? eq : c.add_gate(GateOp::kAnd, acc, eq);
  }
  c.set_output(acc);
  return c;
}

}  // namespace ovo::tt

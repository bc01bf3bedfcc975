#include "gen.hpp"

#include <bit>
#include <numeric>
#include <stdexcept>
#include <utility>

namespace perfbench {

std::uint64_t Rng::next() {
  std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::uint64_t Rng::below(std::uint64_t bound) { return next() % bound; }

double Rng::uniform() {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

Bits::Bits(int vars)
    : n(vars), words(vars <= 6 ? 1 : std::size_t{1} << (vars - 6), 0) {}

std::uint64_t Bits::ones() const {
  std::uint64_t c = 0;
  for (const std::uint64_t w : words)
    c += static_cast<std::uint64_t>(std::popcount(w));
  return c;
}

bool Bits::depends_on(int var) const {
  const std::uint64_t bit = std::uint64_t{1} << var;
  for (std::uint64_t a = 0; a < size(); ++a)
    if (!(a & bit) && get(a) != get(a | bit)) return true;
  return false;
}

bool Bits::same_as(const ovo::tt::TruthTable& t) const {
  if (t.num_vars() != n) return false;
  for (std::uint64_t a = 0; a < size(); ++a)
    if (t.get(a) != get(a)) return false;
  return true;
}

ovo::tt::TruthTable Bits::to_truth_table() const {
  ovo::tt::TruthTable t(n);
  for (std::uint64_t a = 0; a < size(); ++a)
    if (get(a)) t.set(a, true);
  return t;
}

Instance random_pla(int n, int cubes, double dont_care, Rng& rng) {
  Instance inst;
  inst.name = "pla" + std::to_string(n) + "x" + std::to_string(cubes);
  inst.format = Format::kPla;
  inst.random = true;
  inst.ref = Bits(n);
  std::string& s = inst.text;
  s = ".i " + std::to_string(n) + "\n.o 1\n.p " + std::to_string(cubes) +
      "\n";
  std::string cube(static_cast<std::size_t>(n), '-');
  std::vector<int> free_vars;
  for (int p = 0; p < cubes; ++p) {
    std::uint64_t fixed_ones = 0;
    free_vars.clear();
    for (int i = 0; i < n; ++i) {
      if (rng.uniform() < dont_care) {
        cube[static_cast<std::size_t>(i)] = '-';
        free_vars.push_back(i);
      } else if (rng.next() & 1u) {
        cube[static_cast<std::size_t>(i)] = '1';
        fixed_ones |= std::uint64_t{1} << i;
      } else {
        cube[static_cast<std::size_t>(i)] = '0';
      }
    }
    s += cube;
    s += " 1\n";
    // The cube covers every assignment that agrees on its fixed literals.
    const std::uint64_t covered = std::uint64_t{1} << free_vars.size();
    for (std::uint64_t m = 0; m < covered; ++m) {
      std::uint64_t a = fixed_ones;
      for (std::size_t j = 0; j < free_vars.size(); ++j)
        if ((m >> j) & 1u) a |= std::uint64_t{1} << free_vars[j];
      inst.ref.set(a);
    }
  }
  s += ".e\n";
  return inst;
}

Instance random_table(int n, Rng& rng) {
  Instance inst;
  inst.name = "random" + std::to_string(n);
  inst.random = true;
  inst.ref = Bits(n);
  for (std::uint64_t& w : inst.ref.words) w = rng.next();
  if (n < 6) inst.ref.words[0] &= (std::uint64_t{1} << inst.ref.size()) - 1;
  inst.table = inst.ref.to_truth_table();
  return inst;
}

Instance hidden_weighted_bit(int n) {
  Instance inst;
  inst.name = "hwb" + std::to_string(n);
  inst.ref = Bits(n);
  for (std::uint64_t a = 0; a < inst.ref.size(); ++a) {
    const int wt = std::popcount(a);
    if (wt > 0 && ((a >> (wt - 1)) & 1u)) inst.ref.set(a);
  }
  inst.table = inst.ref.to_truth_table();
  return inst;
}

namespace {

/// A combinational netlist over signals 0..inputs-1 (primary inputs) and
/// one signal per gate after them.
struct Netlist {
  // '&' and, '|' or, '^' xor, '=' xnor, '!' not, 'm' 3-input majority.
  struct Gate {
    char op;
    int a, b, c;
  };
  int inputs = 0;
  std::vector<Gate> gates;

  int add(char op, int a, int b = -1, int c = -1) {
    gates.push_back(Gate{op, a, b, c});
    return inputs + static_cast<int>(gates.size()) - 1;
  }
};

/// Operand bit i of a is input i, of b is input w + i.  Returns the
/// netlist; *output is the signal the circuit computes.
Netlist build_netlist(Circuit kind, int w, int* output) {
  Netlist net;
  net.inputs = 2 * w;
  const auto a = [](int i) { return i; };
  const auto b = [w](int i) { return w + i; };
  int out = -1;
  switch (kind) {
    case Circuit::kAdderCarry:
      out = net.add('&', a(0), b(0));
      for (int i = 1; i < w; ++i) out = net.add('m', a(i), b(i), out);
      break;
    case Circuit::kComparator:
      out = net.add('&', a(0), net.add('!', b(0)));
      for (int i = 1; i < w; ++i) {
        const int strict = net.add('&', a(i), net.add('!', b(i)));
        const int tie = net.add('&', net.add('=', a(i), b(i)), out);
        out = net.add('|', strict, tie);
      }
      break;
    case Circuit::kMultiplierMiddle: {
      // Array multiplier truncated at product bit m: row i adds a * b_i
      // shifted by i into the running sum with a ripple of full adders.
      const int m = w - 1;
      std::vector<int> sum;
      for (int j = 0; j <= m; ++j) sum.push_back(net.add('&', a(j), b(0)));
      for (int i = 1; i <= m; ++i) {
        int carry = -1;
        for (int col = i; col <= m; ++col) {
          int& s = sum[static_cast<std::size_t>(col)];
          const int x = s;
          const int y = net.add('&', a(col - i), b(i));
          if (carry < 0) {
            s = net.add('^', x, y);
            if (col < m) carry = net.add('&', x, y);
          } else {
            s = net.add('^', net.add('^', x, y), carry);
            if (col < m) carry = net.add('m', x, y, carry);
          }
        }
      }
      out = sum.back();
      break;
    }
  }
  *output = out;
  return net;
}

const char* circuit_name(Circuit kind) {
  switch (kind) {
    case Circuit::kAdderCarry: return "adder_carry";
    case Circuit::kComparator: return "comparator";
    case Circuit::kMultiplierMiddle: return "multiplier_mid";
  }
  return "?";
}

bool arithmetic(Circuit kind, int w, std::uint64_t x, std::uint64_t y) {
  switch (kind) {
    case Circuit::kAdderCarry: return ((x + y) >> w) & 1u;
    case Circuit::kComparator: return x > y;
    case Circuit::kMultiplierMiddle: return ((x * y) >> (w - 1)) & 1u;
  }
  return false;
}

/// BLIF cover rows of each gate operator.
const char* cover_rows(char op) {
  switch (op) {
    case '&': return "11 1\n";
    case '|': return "1- 1\n-1 1\n";
    case '^': return "10 1\n01 1\n";
    case '=': return "00 1\n11 1\n";
    case '!': return "0 1\n";
    case 'm': return "11- 1\n1-1 1\n-11 1\n";
  }
  return "";
}

std::uint64_t apply(char op, std::uint64_t x, std::uint64_t y,
                    std::uint64_t z) {
  switch (op) {
    case '&': return x & y;
    case '|': return x | y;
    case '^': return x ^ y;
    case '=': return ~(x ^ y);
    case '!': return ~x;
    case 'm': return (x & y) | (x & z) | (y & z);
  }
  return 0;
}

}  // namespace

Instance circuit(Circuit kind, int n, Rng& rng) {
  if (n % 2 != 0 || n < 2)
    throw std::invalid_argument("circuit: n must be even");
  const int w = n / 2;
  const auto un = static_cast<std::size_t>(n);
  int output = -1;
  const Netlist net = build_netlist(kind, w, &output);

  // decl[k] = logical input declared k-th, so the library's variable k is
  // logical input decl[k]; var_of inverts it.
  std::vector<int> decl(un);
  std::iota(decl.begin(), decl.end(), 0);
  for (std::size_t k = un - 1; k > 0; --k)
    std::swap(decl[k], decl[rng.below(k + 1)]);
  std::vector<int> var_of(un);
  for (std::size_t k = 0; k < un; ++k)
    var_of[static_cast<std::size_t>(decl[k])] = static_cast<int>(k);

  const auto name = [&](int s) {
    if (s < w) return "a" + std::to_string(s);
    if (s < n) return "b" + std::to_string(s - w);
    return "g" + std::to_string(s - n);
  };

  Instance inst;
  inst.name = circuit_name(kind) + std::to_string(n);
  inst.format = Format::kBlif;
  std::string& t = inst.text;
  t = ".model " + inst.name + "\n.inputs";
  for (const int s : decl) t += " " + name(s);
  t += "\n.outputs " + name(output) + "\n";
  for (std::size_t g = 0; g < net.gates.size(); ++g) {
    const Netlist::Gate& gate = net.gates[g];
    t += ".names";
    for (const int in : {gate.a, gate.b, gate.c})
      if (in >= 0) t += " " + name(in);
    t += " " + name(n + static_cast<int>(g)) + "\n" + cover_rows(gate.op);
  }
  t += ".end\n";

  // Reference table: evaluate the netlist 64 assignments at a time.
  inst.ref = Bits(n);
  const std::size_t nw = inst.ref.words.size();
  std::vector<std::vector<std::uint64_t>> val(
      un + net.gates.size(), std::vector<std::uint64_t>(nw));
  static constexpr std::uint64_t kLow[6] = {
      0xaaaaaaaaaaaaaaaaull, 0xccccccccccccccccull, 0xf0f0f0f0f0f0f0f0ull,
      0xff00ff00ff00ff00ull, 0xffff0000ffff0000ull, 0xffffffff00000000ull};
  for (std::size_t s = 0; s < un; ++s) {
    const int v = var_of[s];
    for (std::size_t i = 0; i < nw; ++i)
      val[s][i] = v < 6 ? kLow[v] : ((i >> (v - 6)) & 1u) ? ~0ull : 0;
  }
  const auto signal = [&](int s, std::size_t i) {
    return s < 0 ? 0 : val[static_cast<std::size_t>(s)][i];
  };
  for (std::size_t g = 0; g < net.gates.size(); ++g) {
    const Netlist::Gate& gate = net.gates[g];
    for (std::size_t i = 0; i < nw; ++i)
      val[un + g][i] = apply(gate.op, signal(gate.a, i), signal(gate.b, i),
                             signal(gate.c, i));
  }
  inst.ref.words = val[static_cast<std::size_t>(output)];
  if (n < 6) inst.ref.words[0] &= (std::uint64_t{1} << inst.ref.size()) - 1;

  // The netlist must compute what its name says, under the relabelling.
  for (std::uint64_t asg = 0; asg < inst.ref.size(); ++asg) {
    std::uint64_t x = 0, y = 0;
    for (std::size_t i = 0; i < static_cast<std::size_t>(w); ++i) {
      x |= ((asg >> var_of[i]) & 1u) << i;
      y |= ((asg >> var_of[static_cast<std::size_t>(w) + i]) & 1u) << i;
    }
    if (inst.ref.get(asg) != arithmetic(kind, w, x, y))
      throw std::runtime_error("circuit " + inst.name +
                               ": netlist disagrees with arithmetic");
  }
  return inst;
}

std::string check_instance(const Instance& inst) {
  const Bits& f = inst.ref;
  for (int v = 0; v < f.n; ++v)
    if (!f.depends_on(v))
      return inst.name + ": does not depend on input " + std::to_string(v);
  if (inst.random) {
    const double on =
        static_cast<double>(f.ones()) / static_cast<double>(f.size());
    if (on < 0.25 || on > 0.75)
      return inst.name + ": ON-set fraction " + std::to_string(on) +
             " outside [0.25, 0.75]";
  }
  return {};
}

std::uint64_t fs_dense_cells(int n) {
  std::uint64_t p = 1;
  for (int i = 1; i < n; ++i) p *= 3;
  return 2 * static_cast<std::uint64_t>(n) * p;
}

}  // namespace perfbench

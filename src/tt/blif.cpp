#include "tt/blif.hpp"

#include <algorithm>
#include <cstddef>
#include <optional>
#include <sstream>
#include <string_view>
#include <unordered_set>

#include "tt/parse_error.hpp"
#include "tt/word_eval.hpp"
#include "util/check.hpp"

namespace ovo::tt {

namespace {

[[noreturn]] void fail(int line_no, const std::string& msg) {
  throw ParseError("BLIF line " + std::to_string(line_no) + ": " + msg);
}

std::vector<std::string> split_ws(const std::string& line) {
  std::vector<std::string> out;
  std::istringstream is(line);
  std::string tok;
  while (is >> tok) out.push_back(tok);
  return out;
}

/// Single-assignment evaluation context behind BlifModel::eval: memoized
/// recursive evaluation with cycle detection, short-circuiting each cube
/// at its first false literal.
class Evaluator {
 public:
  Evaluator(const BlifModel& model, std::uint64_t assignment)
      : model_(model), assignment_(assignment) {
    for (std::size_t i = 0; i < model.inputs.size(); ++i)
      input_index_.emplace(model.inputs[i], static_cast<int>(i));
    for (const BlifCover& c : model.covers)
      cover_of_.emplace(c.output, &c);
  }

  bool eval(const std::string& signal) {
    if (const auto it = input_index_.find(signal);
        it != input_index_.end())
      return ((assignment_ >> it->second) & 1u) != 0;
    if (const auto it = value_.find(signal); it != value_.end())
      return it->second;
    const auto cit = cover_of_.find(signal);
    OVO_CHECK_MSG(cit != cover_of_.end(),
                  "BLIF: undefined signal '" + signal + "'");
    OVO_CHECK_MSG(in_progress_.insert(signal).second,
                  "BLIF: combinational cycle through '" + signal + "'");
    const BlifCover& cover = *cit->second;
    bool covered = false;
    for (const std::string& cube : cover.cubes) {
      bool hit = true;
      for (std::size_t i = 0; i < cover.fanins.size(); ++i) {
        const char c = cube[i];
        if (c == '-') continue;
        if (eval(cover.fanins[i]) != (c == '1')) {
          hit = false;
          break;
        }
      }
      if (hit) {
        covered = true;
        break;
      }
    }
    const bool v = cover.out_value == '1' ? covered : !covered;
    in_progress_.erase(signal);
    value_.emplace(signal, v);
    return v;
  }

 private:
  const BlifModel& model_;
  std::uint64_t assignment_;
  std::unordered_map<std::string, int> input_index_;
  std::unordered_map<std::string, const BlifCover*> cover_of_;
  std::unordered_map<std::string, bool> value_;
  std::unordered_set<std::string> in_progress_;
};

/// The fan-in cone of some signals, compiled for word-parallel
/// evaluation: names resolved to row indices, rows in topological order
/// (every cover after the rows it reads).
struct Cone {
  struct Literal {
    std::size_t row;
    std::uint64_t flip;  ///< 0 for a positive literal, ~0 for a negated one
  };
  struct Signal {
    int var = -1;          ///< >= 0: the primary input x_var
    bool off_set = false;  ///< the cubes list the OFF-set
    std::vector<std::vector<Literal>> cubes;
  };
  std::vector<Signal> signals;
};

/// Builds a Cone by iterative depth-first search from the requested
/// signals (no recursion, so deep netlists cannot exhaust the stack).
/// Every signal reached must be a primary input or the output of a cover,
/// and the covers reached must be acyclic; a primary input shadows a cover
/// of the same name, as in BlifModel::eval.
class ConeCompiler {
 public:
  explicit ConeCompiler(const BlifModel& model) {
    for (std::size_t i = 0; i < model.inputs.size(); ++i)
      input_var_.emplace(model.inputs[i], static_cast<int>(i));
    for (const BlifCover& c : model.covers) cover_of_.emplace(c.output, &c);
  }

  /// Compiles the cone of `signal` (sharing rows already compiled) and
  /// returns its row.  Throws util::CheckError on an undefined or cyclic
  /// signal anywhere in the cone.
  std::size_t compile(std::string_view signal) {
    if (const auto row = ready(signal)) return *row;
    std::vector<Frame> stack;
    push(signal, stack);
    while (!stack.empty()) {
      Frame& f = stack.back();
      if (f.next < f.cover->fanins.size()) {
        const std::string& in = f.cover->fanins[f.next++];
        if (!ready(in)) push(in, stack);
        continue;
      }
      const BlifCover& done = *f.cover;
      stack.pop_back();
      emit(done);
    }
    return row_.at(signal);
  }

  Cone take() { return std::move(cone_); }

 private:
  struct Frame {
    const BlifCover* cover;
    std::size_t next = 0;  ///< next fanin to visit
  };
  static constexpr std::size_t kInProgress = ~std::size_t{0};

  /// The row of a primary input (allocated on first sight) or of a
  /// compiled cover; nullopt for a cover not compiled yet.
  std::optional<std::size_t> ready(std::string_view name) {
    if (const auto it = row_.find(name); it != row_.end()) {
      OVO_CHECK_MSG(it->second != kInProgress,
                    "BLIF: combinational cycle through '" +
                        std::string(name) + "'");
      return it->second;
    }
    if (const auto it = input_var_.find(name); it != input_var_.end()) {
      Cone::Signal s;
      s.var = it->second;
      return add_row(name, std::move(s));
    }
    return std::nullopt;
  }

  void push(std::string_view name, std::vector<Frame>& stack) {
    const auto it = cover_of_.find(name);
    OVO_CHECK_MSG(it != cover_of_.end(),
                  "BLIF: undefined signal '" + std::string(name) + "'");
    row_.emplace(name, kInProgress);
    stack.push_back(Frame{it->second});
  }

  /// Appends the row of a cover whose fanins all have rows.
  void emit(const BlifCover& c) {
    Cone::Signal s;
    s.off_set = c.out_value == '0';
    for (const std::string& plane : c.cubes) {
      OVO_CHECK_MSG(plane.size() == c.fanins.size(),
                    "BLIF: cover row width disagrees with .names fanins");
      std::vector<Cone::Literal> lits;
      for (std::size_t i = 0; i < plane.size(); ++i) {
        if (plane[i] == '-') continue;
        lits.push_back(Cone::Literal{
            row_.at(c.fanins[i]), plane[i] == '1' ? 0 : ~std::uint64_t{0}});
      }
      s.cubes.push_back(std::move(lits));
    }
    row_[c.output] = cone_.signals.size();
    cone_.signals.push_back(std::move(s));
  }

  std::size_t add_row(std::string_view name, Cone::Signal s) {
    const std::size_t row = cone_.signals.size();
    cone_.signals.push_back(std::move(s));
    row_.emplace(name, row);
    return row;
  }

  std::unordered_map<std::string_view, int> input_var_;
  std::unordered_map<std::string_view, const BlifCover*> cover_of_;
  std::unordered_map<std::string_view, std::size_t> row_;
  Cone cone_;
};

/// Fills the rows of every cone signal over table words first..first+len-1:
/// a cover is the OR over its cubes of the AND of its literal rows,
/// complemented for an OFF-set cover.
void eval_block(const Cone& cone, std::uint64_t first, std::size_t len,
                std::uint64_t* rows) {
  std::uint64_t acc[detail::kBlockWords];
  for (std::size_t r = 0; r < cone.signals.size(); ++r) {
    const Cone::Signal& s = cone.signals[r];
    std::uint64_t* out = rows + r * detail::kBlockWords;
    if (s.var >= 0) {
      detail::fill_var_row(s.var, first, len, out);
      continue;
    }
    std::fill_n(out, len, 0);
    for (const std::vector<Cone::Literal>& cube : s.cubes) {
      std::fill_n(acc, len, ~std::uint64_t{0});
      for (const Cone::Literal& lit : cube) {
        const std::uint64_t* in = rows + lit.row * detail::kBlockWords;
        for (std::size_t i = 0; i < len; ++i) acc[i] &= in[i] ^ lit.flip;
      }
      for (std::size_t i = 0; i < len; ++i) out[i] |= acc[i];
    }
    if (s.off_set)
      for (std::size_t i = 0; i < len; ++i) out[i] = ~out[i];
  }
}

/// Tabulates `names` over the primary inputs in one block-wise sweep of
/// their joint cone.
std::vector<TruthTable> tabulate_signals(
    const BlifModel& model, const std::vector<std::string>& names) {
  OVO_CHECK_MSG(static_cast<int>(model.inputs.size()) <= TruthTable::kMaxVars,
                "BLIF: too many primary inputs to tabulate");
  ConeCompiler compiler(model);
  std::vector<std::size_t> rows;
  rows.reserve(names.size());
  for (const std::string& name : names) rows.push_back(compiler.compile(name));
  const Cone cone = compiler.take();
  return detail::tabulate_blocks(
      static_cast<int>(model.inputs.size()), cone.signals.size(), rows,
      [&](std::uint64_t first, std::size_t len, std::uint64_t* block) {
        eval_block(cone, first, len, block);
      });
}

}  // namespace

bool BlifModel::eval(const std::string& signal,
                     std::uint64_t assignment) const {
  Evaluator ev(*this, assignment);
  return ev.eval(signal);
}

TruthTable BlifModel::output_table(const std::string& output) const {
  return tabulate_signals(*this, {output}).front();
}

std::vector<TruthTable> BlifModel::output_tables() const {
  return tabulate_signals(*this, outputs);
}

BlifModel parse_blif(const std::string& text) {
  BlifModel model;
  bool ended = false;
  BlifCover* current = nullptr;
  std::unordered_set<std::string> cover_outputs;

  // Pre-join continuation lines.
  std::vector<std::pair<int, std::string>> lines;
  {
    std::istringstream is(text);
    std::string raw;
    int line_no = 0;
    std::string pending;
    int pending_line = 0;
    while (std::getline(is, raw)) {
      ++line_no;
      const std::size_t hash = raw.find('#');
      if (hash != std::string::npos) raw.resize(hash);
      if (!raw.empty() && raw.back() == '\\') {
        raw.pop_back();
        if (pending.empty()) pending_line = line_no;
        pending += raw + ' ';
        continue;
      }
      if (!pending.empty()) {
        lines.emplace_back(pending_line, pending + raw);
        pending.clear();
      } else {
        lines.emplace_back(line_no, raw);
      }
    }
    if (!pending.empty())
      fail(pending_line, "truncated file: line continuation at end of file");
  }

  for (const auto& [line_no, line] : lines) {
    const std::vector<std::string> tok = split_ws(line);
    if (tok.empty()) continue;
    if (ended) fail(line_no, "content after .end");

    if (tok[0] == ".model") {
      if (tok.size() >= 2) model.name = tok[1];
      current = nullptr;
    } else if (tok[0] == ".inputs") {
      model.inputs.insert(model.inputs.end(), tok.begin() + 1, tok.end());
      current = nullptr;
    } else if (tok[0] == ".outputs") {
      model.outputs.insert(model.outputs.end(), tok.begin() + 1, tok.end());
      current = nullptr;
    } else if (tok[0] == ".names") {
      if (tok.size() < 2) fail(line_no, ".names needs an output signal");
      if (!cover_outputs.insert(tok.back()).second)
        fail(line_no, "duplicate .names for '" + tok.back() +
                          "' (the evaluator would silently use the first)");
      BlifCover cover;
      cover.fanins.assign(tok.begin() + 1, tok.end() - 1);
      cover.output = tok.back();
      model.covers.push_back(std::move(cover));
      current = &model.covers.back();
    } else if (tok[0] == ".end") {
      ended = true;
      current = nullptr;
    } else if (tok[0] == ".latch" || tok[0] == ".subckt" ||
               tok[0] == ".gate") {
      fail(line_no, "sequential/hierarchical BLIF is not supported");
    } else if (tok[0][0] == '.') {
      fail(line_no, "unsupported directive '" + tok[0] + "'");
    } else {
      // Cover row.
      if (current == nullptr) fail(line_no, "cover row outside .names");
      std::string plane;
      char out_char;
      if (current->fanins.empty()) {
        if (tok.size() != 1 || tok[0].size() != 1)
          fail(line_no, "constant cover row must be a single 0/1");
        plane = "";
        out_char = tok[0][0];
      } else {
        if (tok.size() != 2)
          fail(line_no, "cover row needs <plane> <output>");
        plane = tok[0];
        if (tok[1].size() != 1) fail(line_no, "output column must be 0/1");
        out_char = tok[1][0];
      }
      if (out_char != '0' && out_char != '1')
        fail(line_no, "output column must be 0/1");
      if (plane.size() != current->fanins.size())
        fail(line_no, "cover row width disagrees with .names fanins");
      for (const char c : plane)
        if (c != '0' && c != '1' && c != '-')
          fail(line_no, "invalid cover character");
      if (current->cubes.empty()) {
        current->out_value = out_char;
      } else if (current->out_value != out_char) {
        fail(line_no, "mixed output values in one cover");
      }
      current->cubes.push_back(plane);
    }
  }
  if (model.inputs.empty()) throw ParseError("BLIF: no .inputs");
  if (model.outputs.empty()) throw ParseError("BLIF: no .outputs");
  if (!ended) throw ParseError("BLIF: truncated file: missing .end");
  return model;
}

}  // namespace ovo::tt

// Benchmark self-test at n <= 8: the generators, the verification that
// feeds failed_frac, the span accounting, and Theorem 5's closed form.
// Run with `perfbench --selftest` (or `python3 perfbench/run.py
// --selftest`); exits non-zero if any check fails.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "core/fs_star.hpp"
#include "gen.hpp"
#include "reorder/strategy.hpp"
#include "spans.hpp"
#include "tt/blif.hpp"
#include "tt/function_zoo.hpp"
#include "tt/pla.hpp"
#include "util/bits.hpp"
#include "verify.hpp"

namespace perfbench {

namespace {

struct Checks {
  int run = 0;
  int failed = 0;
  void expect(bool ok, const std::string& what) {
    ++run;
    if (!ok) {
      ++failed;
      std::fprintf(stderr, "selftest FAILED: %s\n", what.c_str());
    }
  }
};

Answer solve(const ovo::tt::TruthTable& f, int threads, bool prune) {
  ovo::reorder::StrategyOptions opts;
  ovo::reorder::EvalContext ctx;
  ctx.exec.num_threads = threads;
  ctx.exec.prune =
      prune ? ovo::par::PruneMode::kBounds : ovo::par::PruneMode::kOff;
  const ovo::reorder::StrategyResult r =
      ovo::reorder::find_strategy("fs")->run(f, opts, ctx);
  return Answer{r.order_root_first, r.internal_nodes};
}

ovo::tt::TruthTable tabulate(const Instance& inst) {
  if (inst.format == Format::kPla)
    return ovo::tt::parse_pla(inst.text).output_tables().front();
  if (inst.format == Format::kBlif)
    return ovo::tt::parse_blif(inst.text).output_tables().front();
  return inst.table;
}

std::vector<Instance> small_instances(std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Instance> v;
  v.push_back(random_pla(8, 96, 0.05, rng));
  v.push_back(random_table(8, rng));
  v.push_back(hidden_weighted_bit(8));
  v.push_back(circuit(Circuit::kAdderCarry, 8, rng));
  v.push_back(circuit(Circuit::kComparator, 8, rng));
  v.push_back(circuit(Circuit::kMultiplierMiddle, 8, rng));
  return v;
}

}  // namespace

int selftest() {
  Checks c;

  // Theorem 5's closed form at the benchmark's sizes.
  c.expect(fs_dense_cells(14) == 44'641'044, "closed form n=14");
  c.expect(fs_dense_cells(15) == 143'489'070, "closed form n=15");
  c.expect(fs_dense_cells(16) == 459'165'024, "closed form n=16");
  for (int n = 4; n <= 8; ++n) {
    Rng rng(static_cast<std::uint64_t>(n));
    const Instance inst = random_table(n, rng);
    ovo::core::OpCounter ops;
    ovo::core::fs_star_full(ovo::core::initial_table(inst.table),
                            ovo::util::full_mask(n),
                            ovo::core::DiagramKind::kBdd, &ops);
    c.expect(ops.table_cells == fs_dense_cells(n),
             "dense table cells equal the closed form at n=" +
                 std::to_string(n));
  }

  // Generators: deterministic, non-degenerate, and tabulated by the
  // library to the function the generator computed.
  const std::vector<Instance> a = small_instances(1);
  const std::vector<Instance> a2 = small_instances(1);
  const std::vector<Instance> b = small_instances(2);
  for (std::size_t i = 0; i < a.size(); ++i) {
    const Instance& inst = a[i];
    c.expect(inst.text == a2[i].text && inst.ref == a2[i].ref,
             inst.name + ": same seed, same input");
    c.expect(check_instance(inst).empty(),
             inst.name + ": non-degenerate: " + check_instance(inst));
    c.expect(inst.ref.same_as(tabulate(inst)),
             inst.name + ": library tabulation matches the generator");
  }
  c.expect(a[2].ref.same_as(ovo::tt::hidden_weighted_bit(8)),
           "hwb matches the library's function zoo");
  c.expect(a[3].text != b[3].text, "the seed permutes circuit inputs");
  // A degenerate instance is refused.
  Instance constant = hidden_weighted_bit(4);
  constant.ref = Bits(4);
  c.expect(!check_instance(constant).empty(),
           "a constant function is refused");

  // Verification: right answers pass; the library's optimum equals an
  // independent brute force; relabelled circuits keep their optimum.
  for (std::size_t i = 0; i < a.size(); ++i) {
    Instance inst = a[i];
    const ovo::tt::TruthTable f = tabulate(inst);
    const std::uint64_t optimum = brute_force_optimum(inst.ref);
    const Answer dense = solve(f, 1, false);
    const Answer pruned = solve(f, 2, true);
    c.expect(dense.size == optimum, inst.name + ": fs finds the optimum");
    c.expect(cofactor_size(inst.ref, dense.order) == dense.size,
             inst.name + ": independent size count agrees");
    c.expect(agree(inst, dense, pruned).empty(),
             inst.name + ": dense and pruned agree");
    if (!inst.random) inst.pinned_optimum = optimum;
    c.expect(verify(inst, f, dense).empty(),
             inst.name + ": a right answer passes: " + verify(inst, f, dense));
    if (inst.format == Format::kBlif)
      c.expect(brute_force_optimum(b[i].ref) == optimum,
               inst.name + ": optimum survives relabelling");

    // Deliberately wrong answers must fail.
    Answer dup = dense;
    dup.order[1] = dup.order[0];
    c.expect(!verify(inst, f, dup).empty(), inst.name + ": bad order fails");
    Answer off = dense;
    ++off.size;
    c.expect(!verify(inst, f, off).empty(), inst.name + ": bad size fails");
    std::vector<int> worse = dense.order;
    std::uint64_t worse_size = optimum;
    for (int r = 0; r < 8 && worse_size == optimum; ++r) {
      std::rotate(worse.begin(), worse.begin() + 1, worse.end());
      worse_size = cofactor_size(inst.ref, worse);
    }
    if (worse_size != optimum) {
      const Answer suboptimal{worse, worse_size};
      if (inst.random)
        c.expect(!agree(inst, dense, suboptimal).empty(),
                 inst.name + ": disagreeing configurations fail");
      else
        c.expect(!verify(inst, f, suboptimal).empty(),
                 inst.name + ": missing the pinned optimum fails");
    }
    ovo::tt::TruthTable flipped = f;
    flipped.set(0, !flipped.get(0));
    c.expect(!verify(inst, flipped, dense).empty(),
             inst.name + ": a wrongly tabulated function fails");
  }

  // Span accounting: self times add up to each request's wall time.
  Tracer tr;
  for (int rid = 0; rid < 2; ++rid) {
    Scope req(tr, "request", rid);
    { Scope s(tr, "tt.parse", rid); }
    {
      Scope s(tr, "core.dp", rid);
      Scope inner(tr, "inner", rid);
    }
  }
  c.expect(tr.check_accounting().empty(), "span accounting holds");
  c.expect(tr.spans().size() == 8 && tr.spans()[3].parent == 2,
           "spans record their parents");

  std::printf("selftest: %d checks, %d failed\n", c.run, c.failed);
  return c.failed == 0 ? 0 : 1;
}

}  // namespace perfbench

// The repository benchmark: issues full ordering requests, the
// same ones `ovo order` serves (input text -> tt::parse_pla/parse_blif ->
// output_tables() -> the "fs" strategy -> order), in-process as a closed
// loop with one client and one request at a time.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--trace-out FILE]
//   perfbench --selftest
//
// --trace 0 measures the end-to-end metrics over repeated passes of the
// workload's request list.  --trace 1 makes one untraced and one traced
// pass, re-runs each DP serially as the parallel reference, re-solves
// random instances with the other exact configuration, and reports the
// per-layer metrics.  Every request is verified (see verify.hpp).  The
// last line of standard output is the JSON result; perfbench/README.md
// defines every metric.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/fs_star.hpp"
#include "core/prefix_table.hpp"
#include "gen.hpp"
#include "obs/metrics.hpp"
#include "reorder/minimize_auto.hpp"
#include "reorder/oracle.hpp"
#include "reorder/strategy.hpp"
#include "spans.hpp"
#include "tt/blif.hpp"
#include "tt/pla.hpp"
#include "util/bits.hpp"
#include "verify.hpp"

namespace perfbench {
int selftest();
}

namespace {

using namespace perfbench;
namespace tt = ovo::tt;
namespace core = ovo::core;
namespace reorder = ovo::reorder;
using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// User + system CPU seconds of the whole process (all threads).
double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

int hardware_threads() {
  return std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
}

// --- workloads --------------------------------------------------------------

/// Minimum internal node counts of the n = 16 circuits.  Relabelling the
/// inputs does not change a function's optimum, so these hold for every
/// seed's declaration order.
constexpr std::uint64_t kAdderCarry16Optimum = 23;
constexpr std::uint64_t kComparator16Optimum = 23;
constexpr std::uint64_t kMultiplierMid16Optimum = 754;

/// A workload's inputs: one or more request lists.  Pass p of a run
/// issues list p mod size(), so a run sees every list.
using RequestLists = std::vector<std::vector<Instance>>;

RequestLists make_pla(std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Instance> out;
  for (int k = 0; k < 3; ++k) {
    out.push_back(random_pla(14, 8192, 0.05, rng));
    out.back().name += "#" + std::to_string(k);
  }
  return {out};
}

RequestLists make_dense(std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Instance> out;
  out.push_back(random_table(16, rng));
  out.push_back(hidden_weighted_bit(16));
  return {out};
}

/// Six relabellings of the three circuits.  How close the sift seed gets
/// to the optimum, and so how much the DP prunes and how much memory it
/// holds, depends on the labelling; cycling six of them per run keeps one
/// lucky or unlucky labelling from setting a run's figures.
RequestLists make_circuits(std::uint64_t seed) {
  Rng rng(seed);
  RequestLists lists(6);
  for (std::vector<Instance>& out : lists) {
    out.push_back(circuit(Circuit::kAdderCarry, 16, rng));
    out.back().pinned_optimum = kAdderCarry16Optimum;
    out.push_back(circuit(Circuit::kComparator, 16, rng));
    out.back().pinned_optimum = kComparator16Optimum;
    out.push_back(circuit(Circuit::kMultiplierMiddle, 16, rng));
    out.back().pinned_optimum = kMultiplierMid16Optimum;
  }
  return lists;
}

struct Workload {
  const char* name;
  int max_threads;
  bool prune;
  RequestLists (*make)(std::uint64_t seed);
};

constexpr Workload kWorkloads[] = {
    {"pla_tabulate", 1, false, make_pla},
    {"dp_dense", 4, false, make_dense},
    {"circuit_pruned", 2, true, make_circuits},
};

/// Strategy options and context of one exact configuration.
struct Config {
  reorder::StrategyOptions opts;
  reorder::EvalContext ctx;
  int threads() const { return ctx.exec.resolved_threads(); }
  bool prune() const { return ctx.exec.prune == ovo::par::PruneMode::kBounds; }
};

Config make_config(int threads, bool prune) {
  Config c;
  c.opts.prune_seed = "sift";
  c.ctx.exec.num_threads = threads;
  c.ctx.exec.prune =
      prune ? ovo::par::PruneMode::kBounds : ovo::par::PruneMode::kOff;
  return c;
}

const reorder::Strategy& fs_strategy() {
  const reorder::Strategy* s = reorder::find_strategy("fs");
  if (s == nullptr) throw std::runtime_error("strategy 'fs' not registered");
  return *s;
}

// --- requests ---------------------------------------------------------------

/// A finished request: its answer plus the table it tabulated (empty for
/// in-memory instances, whose table is Instance::table).
struct Outcome {
  Answer answer;
  std::vector<tt::TruthTable> outputs;
  const tt::TruthTable& function(const Instance& inst) const {
    return inst.format == Format::kTable ? inst.table : outputs.front();
  }
};

void require_single_output(const std::vector<tt::TruthTable>& outputs) {
  if (outputs.size() != 1)
    throw std::runtime_error("expected exactly one output table");
}

/// The request exactly as `ovo order --strategy fs` serves it.
Outcome request(const Instance& inst, const Config& c) {
  Outcome o;
  if (inst.format == Format::kPla)
    o.outputs = tt::parse_pla(inst.text).output_tables();
  else if (inst.format == Format::kBlif)
    o.outputs = tt::parse_blif(inst.text).output_tables();
  if (inst.format != Format::kTable) require_single_output(o.outputs);
  reorder::StrategyResult r =
      fs_strategy().run(o.function(inst), c.opts, c.ctx);
  o.answer.order = std::move(r.order_root_first);
  o.answer.size = r.internal_nodes;
  return o;
}

/// What the traced request learns about each layer.
struct LayerCounts {
  core::OpCounter ops;
  reorder::OracleStats seed;
  std::uint64_t seed_upper_bound = 0;
  double dp_cpu_s = 0.0;
};

/// The same request split into the public calls run_fs makes, each
/// wrapped in a span: parse, tabulate, seed the pruning bound, build the
/// base table, run the DP.
Outcome traced_request(const Instance& inst, const Config& c, Tracer& tr,
                       int rid, LayerCounts* lc) {
  Outcome o;
  Scope whole(tr, "request", rid);
  std::optional<tt::Pla> pla;
  std::optional<tt::BlifModel> blif;
  {
    Scope s(tr, "tt.parse", rid);
    if (inst.format == Format::kPla) pla = tt::parse_pla(inst.text);
    if (inst.format == Format::kBlif) blif = tt::parse_blif(inst.text);
  }
  {
    Scope s(tr, "tt.tabulate", rid);
    if (pla) o.outputs = pla->output_tables();
    if (blif) o.outputs = blif->output_tables();
  }
  if (inst.format != Format::kTable) require_single_output(o.outputs);
  const tt::TruthTable& f = o.function(inst);
  {
    Scope s(tr, "reorder.seed", rid);
    if (c.prune() && c.opts.prune_seed != "none") {
      reorder::CostOracle oracle(f, c.opts.kind);
      reorder::EvalContext seed_ctx;
      seed_ctx.exec = c.ctx.exec;
      lc->seed_upper_bound =
          reorder::seed_prune_bound(oracle, c.opts.prune_seed,
                                    c.opts.max_passes, c.opts.restarts,
                                    c.opts.seed, seed_ctx)
              .upper_bound;
      lc->seed = oracle.stats();
    }
  }
  core::PrefixTable base;
  {
    Scope s(tr, "core.base", rid);
    base = core::initial_table(f);
  }
  std::vector<int> bottom_up;
  {
    Scope s(tr, "core.dp", rid);
    const double cpu0 = process_cpu_s();
    const core::PrefixTable last = core::fs_star_full(
        base, ovo::util::full_mask(f.num_vars()), c.opts.kind, &lc->ops,
        &bottom_up, c.ctx.exec, lc->seed_upper_bound);
    lc->dp_cpu_s = process_cpu_s() - cpu0;
    o.answer.size = last.mincost();
  }
  o.answer.order.assign(bottom_up.rbegin(), bottom_up.rend());
  return o;
}

// --- bookkeeping ------------------------------------------------------------

struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Records one checked request; `why` empty means it passed.
  void record(const std::string& why) {
    ++attempted;
    if (!why.empty()) {
      ++failed;
      std::fprintf(stderr, "FAILED: %s\n", why.c_str());
    }
  }
};

/// Runs `fn`, returning an empty string or what went wrong (including a
/// thrown exception).
template <typename Fn>
std::string guarded(Fn&& fn) {
  try {
    return fn();
  } catch (const std::exception& e) {
    return std::string("exception: ") + e.what();
  }
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    if (static_cast<unsigned char>(ch) >= 0x20) out += ch;
  }
  return out;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) {
        std::size_t b = colon + 1;
        while (b < line.size() && line[b] == ' ') ++b;
        return line.substr(b);
      }
    }
  return "unknown";
}

std::string run_info_json(const Workload& w, const Config& c,
                          std::uint64_t seed, double seconds, int trace) {
  std::string s = "{";
  s += "\"nproc\":" + std::to_string(sysconf(_SC_NPROCESSORS_ONLN));
  s += ",\"hardware_concurrency\":" +
       std::to_string(std::thread::hardware_concurrency());
  s += ",\"cpu_model\":\"" + json_escape(cpu_model()) + "\"";
  s += ",\"build_type\":\"" + json_escape(PERFBENCH_BUILD_TYPE) + "\"";
  s += ",\"ovo_trace\":" + std::to_string(OVO_TRACE_ENABLED);
  s += ",\"git\":\"" + json_escape(ovo::obs::build_git_describe()) + "\"";
  s += ",\"workload\":\"" + std::string(w.name) + "\"";
  s += ",\"threads\":" + std::to_string(c.threads());
  s += std::string(",\"prune\":") + (c.prune() ? "\"bounds\"" : "\"off\"");
  s += ",\"seed\":" + std::to_string(seed);
  s += ",\"seconds\":" + json_number(seconds);
  s += ",\"trace\":" + std::to_string(trace);
  return s + "}";
}

void print_result(bool correct, const Tally& t,
                  const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics)
    std::printf("metric %-28s %.9g %s\n", m.name.c_str(), m.value, m.unit);
  std::printf("metric %-28s %.9g frac (%" PRIu64 " of %" PRIu64 ")\n",
              "failed_frac",
              t.attempted == 0 ? 0.0
                               : static_cast<double>(t.failed) /
                                     static_cast<double>(t.attempted),
              t.failed, t.attempted);
  std::string s = std::string("{\"correct\": ") +
                  (correct ? "true" : "false") +
                  ", \"attempted\": " + std::to_string(t.attempted) +
                  ", \"failed\": " + std::to_string(t.failed) +
                  ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i)
    s += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " +
         json_number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
         "\"}";
  std::printf("%s}}\n", s.c_str());
  std::fflush(stdout);
}

// --- set-up -----------------------------------------------------------------

constexpr int kSetupRepeats = 7;

/// Generates the workload's inputs from the seed, checks each instance,
/// and warms up: one small request under the workload's configuration
/// grows the thread pool and faults in the code.  Returns the inputs.
RequestLists set_up(const Workload& w, std::uint64_t seed, const Config& c) {
  RequestLists lists = w.make(seed);
  for (const std::vector<Instance>& list : lists)
    for (const Instance& inst : list)
      if (const std::string why = check_instance(inst); !why.empty())
        throw std::runtime_error("degenerate instance " + why);
  Rng warm_rng(0x77a7);
  const Instance warm = random_table(10, warm_rng);
  const Outcome o = request(warm, c);
  if (const std::string why = verify(warm, warm.table, o.answer);
      !why.empty())
    throw std::runtime_error("warm-up request failed: " + why);
  return lists;
}

/// Repeats set-up kSetupRepeats times; every repeat must produce the same
/// inputs.  Reports the median set-up time.
RequestLists timed_set_up(const Workload& w, std::uint64_t seed,
                          const Config& c, double* setup_s) {
  std::vector<double> times;
  RequestLists lists;
  for (int r = 0; r < kSetupRepeats; ++r) {
    const Clock::time_point t0 = Clock::now();
    RequestLists again = set_up(w, seed, c);
    times.push_back(since(t0));
    for (std::size_t l = 0; r > 0 && l < lists.size(); ++l)
      for (std::size_t i = 0; i < lists[l].size(); ++i)
        if (again[l][i].text != lists[l][i].text ||
            !(again[l][i].ref == lists[l][i].ref))
          throw std::runtime_error("generator is not deterministic");
    lists = std::move(again);
  }
  *setup_s = median(times);
  return lists;
}

// --- runs -------------------------------------------------------------------

struct Pass {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::vector<double> request_s;
  std::vector<Answer> answers;
};

/// One untraced pass over the request list; verification is not timed.
Pass untraced_pass(const std::vector<Instance>& insts, const Config& c,
                   Tally* tally) {
  Pass p;
  for (const Instance& inst : insts) {
    Answer answer;
    double wall = 0.0, cpu = 0.0;
    const std::string why = guarded([&] {
      const double cpu0 = process_cpu_s();
      const Clock::time_point t0 = Clock::now();
      Outcome o = request(inst, c);
      wall = since(t0);
      cpu = process_cpu_s() - cpu0;
      answer = o.answer;
      return verify(inst, o.function(inst), o.answer);
    });
    tally->record(why);
    p.wall_s += wall;
    p.cpu_s += cpu;
    p.request_s.push_back(wall);
    p.answers.push_back(std::move(answer));
  }
  return p;
}

int run_untraced(const Workload& w, std::uint64_t seed, double seconds) {
  const Config c =
      make_config(std::min(w.max_threads, hardware_threads()), w.prune);
  std::printf("run_info %s\n", run_info_json(w, c, seed, seconds, 0).c_str());
  double setup_s = 0.0;
  const RequestLists lists = timed_set_up(w, seed, c, &setup_s);

  Tally tally;
  std::vector<double> pass_wall, pass_cpu;
  // request_s[i]: wall times of the i-th request of a list, over passes.
  std::vector<std::vector<double>> request_s(lists.front().size());
  const Clock::time_point start = Clock::now();
  while (pass_wall.size() < lists.size() || since(start) < seconds) {
    const Pass p =
        untraced_pass(lists[pass_wall.size() % lists.size()], c, &tally);
    pass_wall.push_back(p.wall_s);
    pass_cpu.push_back(p.cpu_s);
    for (std::size_t i = 0; i < p.request_s.size(); ++i)
      request_s[i].push_back(p.request_s[i]);
  }
  // The lists mix request kinds of very different cost, so a median over
  // all requests would sit between two kinds; take each kind's median and
  // then the median over kinds.
  std::vector<double> per_kind;
  for (const std::vector<double>& times : request_s)
    per_kind.push_back(median(times));
  std::printf("passes %zu, pass wall:", pass_wall.size());
  for (const double t : pass_wall) std::printf(" %.3f", t);
  std::printf("\n");
  print_result(tally.failed == 0, tally,
               {{"solve_s", median(per_kind), "s"},
                {"pass_s", median(pass_wall), "s"},
                {"cpu_s", median(pass_cpu), "s"},
                {"peak_rss_mb", peak_rss_mb(), "MB"},
                {"setup_s", setup_s, "s"}});
  return 0;
}

int run_traced(const Workload& w, std::uint64_t seed, double seconds,
               const std::string& trace_out) {
  const Config c =
      make_config(std::min(w.max_threads, hardware_threads()), w.prune);
  const std::string info = run_info_json(w, c, seed, seconds, 1);
  std::printf("run_info %s\n", info.c_str());
  double setup_s = 0.0;
  const std::vector<Instance> insts =
      timed_set_up(w, seed, c, &setup_s).front();
  Tally tally;
  std::vector<std::string> problems;

  // Untraced reference pass, for the tracing overhead.
  const Pass plain = untraced_pass(insts, c, &tally);

  // Traced pass.
  Tracer tr;
  std::vector<LayerCounts> layers(insts.size());
  std::vector<Answer> traced(insts.size());
  for (std::size_t i = 0; i < insts.size(); ++i) {
    tally.record(guarded([&] {
      const Outcome o =
          traced_request(insts[i], c, tr, static_cast<int>(i), &layers[i]);
      traced[i] = o.answer;
      std::printf("request %-20s %" PRIu64 " nodes\n", insts[i].name.c_str(),
                  o.answer.size);
      std::string why = verify(insts[i], o.function(insts[i]), o.answer);
      if (why.empty()) why = agree(insts[i], o.answer, plain.answers[i]);
      return why;
    }));
  }

  // Serial reference DP of every instance (same pruning and bound), and
  // for random instances a re-solve with the other exact configuration.
  double serial_dp_s = 0.0, serial_dp_cpu_s = 0.0;
  const Config serial = make_config(1, w.prune);
  const Config other = make_config(1, !w.prune);
  for (std::size_t i = 0; i < insts.size(); ++i) {
    const Instance& inst = insts[i];
    const tt::TruthTable f = inst.format == Format::kTable
                                 ? inst.table
                                 : inst.ref.to_truth_table();
    tally.record(guarded([&] {
      const core::PrefixTable base = core::initial_table(f);
      std::vector<int> bottom_up;
      const double cpu0 = process_cpu_s();
      const Clock::time_point t0 = Clock::now();
      const core::PrefixTable last = core::fs_star_full(
          base, ovo::util::full_mask(f.num_vars()), serial.opts.kind, nullptr,
          &bottom_up, serial.ctx.exec, layers[i].seed_upper_bound);
      serial_dp_s += since(t0);
      serial_dp_cpu_s += process_cpu_s() - cpu0;
      Answer a{{bottom_up.rbegin(), bottom_up.rend()}, last.mincost()};
      return agree(inst, a, traced[i]);
    }));
    if (inst.random)
      tally.record(guarded([&] {
        const Outcome o = request(inst, other);
        std::string why = verify(inst, f, o.answer);
        if (why.empty()) why = agree(inst, o.answer, traced[i]);
        return why;
      }));
  }

  // Per-layer self times from the spans.
  if (const std::string why = tr.check_accounting(); !why.empty())
    problems.push_back("span accounting: " + why);
  const std::vector<std::int64_t> self = tr.self_ns();
  const auto layer_s = [&](const std::string& name) {
    std::int64_t ns = 0;
    for (std::size_t i = 0; i < self.size(); ++i)
      if (name == tr.spans()[i].name) ns += self[i];
    return static_cast<double>(ns) * 1e-9;
  };
  double traced_pass_s = 0.0;
  for (const Tracer::Span& s : tr.spans())
    if (s.parent < 0) traced_pass_s += (s.end_ns - s.start_ns) * 1e-9;

  core::OpCounter ops;
  double dp_cpu_s = 0.0, gap_sum = 0.0, points = 0.0;
  std::uint64_t evals = 0, memo_hits = 0, seeded = 0, dense_cells = 0;
  for (std::size_t i = 0; i < insts.size(); ++i) {
    const LayerCounts& l = layers[i];
    ops += l.ops;
    dp_cpu_s += l.dp_cpu_s;
    evals += l.seed.evals;
    memo_hits += l.seed.memo_hits;
    points += static_cast<double>(insts[i].ref.size());
    dense_cells += fs_dense_cells(insts[i].ref.n);
    if (l.seed_upper_bound != 0 && traced[i].size != 0) {
      gap_sum += static_cast<double>(l.seed_upper_bound) /
                     static_cast<double>(traced[i].size) -
                 1.0;
      ++seeded;
    }
  }
  // Theorem 5: a dense run reads exactly 2n 3^(n-1) cells per instance.
  if (!c.prune() && ops.table_cells != dense_cells)
    problems.push_back("dense table cells " +
                       std::to_string(ops.table_cells) +
                       " != Theorem 5 closed form " +
                       std::to_string(dense_cells));

  const double dp_s = layer_s("core.dp");
  const double tabulate_s = layer_s("tt.tabulate");
  const double cells = static_cast<double>(ops.table_cells);
  const core::PruneStats& pr = ops.prune;
  std::vector<Metric> m = {
      {"tt.parse_s", layer_s("tt.parse"), "s"},
      {"tt.tabulate_s", tabulate_s, "s"},
      {"tt.tabulate_ns_per_point", tabulate_s * 1e9 / points, "ns"},
      {"core.base_s", layer_s("core.base"), "s"},
      {"core.dp_s", dp_s, "s"},
      {"core.dp_cpu_s", dp_cpu_s, "s"},
      {"core.table_cells", cells, "count"},
      {"core.ns_per_cell", cells > 0 ? dp_s * 1e9 / cells : 0.0, "ns"},
      {"core.compactions", static_cast<double>(ops.compactions), "count"},
      {"core.peak_cells", static_cast<double>(ops.peak_cells), "count"},
      {"core.prune_ratio",
       pr.states_generated == 0
           ? 0.0
           : static_cast<double>(pr.states_pruned) /
                 static_cast<double>(pr.states_generated),
       "ratio"},
      {"core.cells_saved_frac",
       pr.dense_cells == 0 ? 0.0
                           : 1.0 - static_cast<double>(pr.sparse_cells) /
                                       static_cast<double>(pr.dense_cells),
       "ratio"},
      {"reorder.seed_s", layer_s("reorder.seed"), "s"},
      {"reorder.seed_evals", static_cast<double>(evals), "count"},
      {"reorder.seed_memo_hits", static_cast<double>(memo_hits), "count"},
      {"reorder.seed_gap",
       seeded == 0 ? 0.0 : gap_sum / static_cast<double>(seeded), "ratio"},
      {"parallel.speedup", serial_dp_s / dp_s, "ratio"},
      {"parallel.work_inflation", dp_cpu_s / serial_dp_cpu_s, "ratio"},
      {"parallel.busy_frac", dp_cpu_s / (dp_s * c.threads()), "ratio"},
      {"obs.trace_overhead_frac", traced_pass_s / plain.wall_s - 1.0,
       "ratio"},
      {"request.other_s", layer_s("request"), "s"},
  };

  if (!trace_out.empty()) {
    std::ofstream out(trace_out);
    out << tr.chrome_json(info);
    if (!out) problems.push_back("cannot write " + trace_out);
  }
  for (const std::string& p : problems)
    std::fprintf(stderr, "FAILED: %s\n", p.c_str());
  std::printf("setup_s %.6f, untraced pass %.6f s, traced pass %.6f s\n",
              setup_s, plain.wall_s, traced_pass_s);
  print_result(tally.failed == 0 && problems.empty(), tally, m);
  return 0;
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--trace-out FILE]\n"
               "       perfbench --selftest\nworkloads:",
               why);
  for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, trace_out;
  std::uint64_t seed = 0;
  double seconds = -1.0;
  int trace = -1;
  bool selftest = false;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string a = argv[i];
      const bool has_value = i + 1 < argc;
      if (a == "--selftest") {
        selftest = true;
      } else if (a == "--workload" && has_value) {
        workload = argv[++i];
      } else if (a == "--seed" && has_value) {
        seed = std::stoull(argv[++i]);
      } else if (a == "--seconds" && has_value) {
        seconds = std::stod(argv[++i]);
      } else if (a == "--trace" && has_value) {
        trace = std::stoi(argv[++i]);
      } else if (a == "--trace-out" && has_value) {
        trace_out = argv[++i];
      } else {
        usage(("unknown argument '" + a + "'").c_str());
      }
    }
  } catch (const std::exception&) {
    usage("malformed number");
  }
  if (selftest) return perfbench::selftest();
  const Workload* w = nullptr;
  for (const Workload& k : kWorkloads)
    if (workload == k.name) w = &k;
  if (w == nullptr) usage("unknown or missing --workload");
  if (seconds <= 0.0) usage("--seconds must be positive");
  if (trace != 0 && trace != 1) usage("--trace must be 0 or 1");
  try {
    return trace == 0 ? run_untraced(*w, seed, seconds)
                      : run_traced(*w, seed, seconds, trace_out);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}

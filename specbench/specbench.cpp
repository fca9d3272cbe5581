// specbench: the end-to-end benchmark program (see README.md beside this
// file for the workloads, the metrics and how a change names its claim).
//
//   specbench --workload sweep|verify|fuzz --seed N --seconds S --trace 0|1
//             [--out-dir DIR] [--commit ID]
//   specbench --self-test [--out-dir DIR]
//
// With --trace 0 every item goes through the product's public entry points
// (batch::run_sweep, fuzz::run_fuzz) with telemetry off, and the end-to-end
// metrics are printed. With --trace 1 each item's calls into the layers are
// replayed in the order batch::eval_point / fuzz::run_oracles make them, the
// benchmark records its own spans around those calls, and the per-layer
// metrics are printed. The last line of standard output is always one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
#include <sys/resource.h>
#ifdef __GLIBC__
#include <malloc.h>
#endif

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "analysis/schedules/explore.h"
#include "analysis/verifier.h"
#include "batch/sweep.h"
#include "batch/thread_pool.h"
#include "estimate/cost.h"
#include "estimate/profile.h"
#include "estimate/rates.h"
#include "fuzz/fuzzer.h"
#include "fuzz/generator.h"
#include "fuzz/oracle.h"
#include "fuzz/rng.h"
#include "graph/access_graph.h"
#include "obs/bus_trace.h"
#include "obs/metrics.h"
#include "parser/parser.h"
#include "partition/partition.h"
#include "partition/partitioner.h"
#include "printer/printer.h"
#include "refine/refiner.h"
#include "sim/equivalence.h"
#include "sim/program_cache.h"
#include "sim/simulator.h"
#include "spec/mutate.h"
#include "support/diagnostics.h"
#include "telemetry/telemetry.h"

namespace {

using namespace specsyn;
using Clock = std::chrono::steady_clock;

// The paper's three partitions of the medical system (Section 5): Design1/2/3.
constexpr const char* kSpecPath = "examples/specs/medical.spec";
constexpr RatioGoal kDesigns[] = {RatioGoal::Balanced, RatioGoal::MoreLocal,
                                  RatioGoal::MoreGlobal};
// Fuzz seeds are consumed in blocks of whole config cycles (sample_config
// sweeps its discrete axes with period 64), so every run covers the same
// mix of models, protocols and schemes whatever its seed. Item cost varies
// several-fold between generated specs, so the block must be large; a run
// repeats it in rounds, so it must also be small enough for several rounds,
// which keep host-speed drift out of each seed's median. 512 seeds do both.
constexpr size_t kFuzzBlock = 512;
constexpr size_t kFuzzChunk = 128;
constexpr size_t kFuzzTracedBlock = 64;
// Every sweep item's median latency needs a few samples, and p95 over all
// runs (96 per pass) at least ten beyond it.
constexpr size_t kMinPasses = 3;
// Batch passes after each single-worker sweep pass: a batch takes a quarter
// of the single-worker time, and items_per_s needs the samples.
constexpr int kBatchesPerPass = 2;
// Pool starts timed before each fuzz chunk, so set-up time is sampled
// across the whole run.
constexpr int kPoolStartsPerChunk = 16;

double secs_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double cpu_now_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Returns freed heap pages to the system between passes. Each CLI run
/// starts from a fresh heap; without this, fragmentation left by earlier
/// passes (every pass starts new pool threads, which may take other malloc
/// arenas) makes peak_rss_mb depend on the run's length and its luck.
void trim_heap() {
#ifdef __GLIBC__
  malloc_trim(0);
#endif
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile.
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  rank = std::clamp<size_t>(rank, 1, v.size());
  return v[rank - 1];
}

size_t bench_workers() {
  return std::min<size_t>(4, batch::ThreadPool::default_workers());
}

/// The set-up share of a pool: start it and run one empty batch, so its
/// threads are up and parked, not just created. Returns the pool's time.
double start_pool_s(size_t workers) {
  const Clock::time_point t0 = Clock::now();
  batch::ThreadPool pool(workers);
  pool.for_each(workers, [](size_t, batch::WorkerContext&) {});
  return secs_since(t0);
}

// ---------------------------------------------------------------------------
// Result line

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  void add(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
};

void print_result(const Tally& t, const std::vector<Metric>& metrics) {
  std::printf("\n%-28s %16s  %s\n", "metric", "value", "unit");
  for (const Metric& m : metrics) {
    std::printf("%-28s %16.6f  %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("fail_ratio %.6f (%" PRIu64 " failed / %" PRIu64 " attempted)\n",
              t.attempted == 0 ? 0.0
                               : static_cast<double>(t.failed) /
                                     static_cast<double>(t.attempted),
              t.failed, t.attempted);
  std::string out = "{\"correct\": ";
  out += t.failed == 0 && t.attempted > 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(t.attempted);
  out += ", \"failed\": " + std::to_string(t.failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char num[64];
    std::snprintf(num, sizeof num, "%.9g", metrics[i].value);
    out += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " +
           num + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

// ---------------------------------------------------------------------------
// Spans recorded by the benchmark around its calls into the layers (traced run)

struct SpanRec {
  const char* name;
  int64_t item;    // item id; -1 for set-up
  int32_t parent;  // index into Tracer::spans, -1 for a root
  uint64_t start_ns;
  uint64_t end_ns;
};

class Tracer {
 public:
  Tracer() : origin_(Clock::now()) {}

  int32_t begin(const char* name, int64_t item) {
    const int32_t parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back({name, item, parent, now_ns(), 0});
    stack_.push_back(static_cast<int32_t>(spans_.size() - 1));
    return stack_.back();
  }
  void end(int32_t id) {
    spans_[static_cast<size_t>(id)].end_ns = now_ns();
    stack_.pop_back();
  }
  [[nodiscard]] const std::vector<SpanRec>& spans() const { return spans_; }
  [[nodiscard]] int64_t current_item() const {
    return stack_.empty() ? -1 : spans_[static_cast<size_t>(stack_.back())].item;
  }

 private:
  uint64_t now_ns() const {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             origin_)
            .count());
  }
  Clock::time_point origin_;
  std::vector<SpanRec> spans_;
  std::vector<int32_t> stack_;
};

/// RAII span; a null tracer records nothing (untraced set-up).
class Scope {
 public:
  Scope(Tracer* tr, const char* name)
      : tr_(tr), id_(tr ? tr->begin(name, tr->current_item()) : -1) {}
  Scope(Tracer* tr, const char* name, int64_t item)
      : tr_(tr), id_(tr ? tr->begin(name, item) : -1) {}
  ~Scope() {
    if (tr_) tr_->end(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* tr_;
  int32_t id_;
};

/// Layers the per-layer table reports, named after the repository's modules.
const std::vector<std::string>& layer_names() {
  static const std::vector<std::string> names = {
      "parser",      "validate",    "graph",         "partition",
      "profile",     "printer",     "refine",        "analysis",
      "price",       "sim.construct", "sim.run",     "equivalence",
      "schedules",   "obs",         "fuzz.generate", "fuzz.oracle",
      "batch"};
  return names;
}

/// Writes the spans as Chrome trace-event JSON (Perfetto loads it the same
/// way as `--pipeline-trace` output).
void write_chrome_trace(const Tracer& tr, const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  out << "{\"traceEvents\": [\n";
  const auto& spans = tr.spans();
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRec& s = spans[i];
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
                  "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"item\": %" PRId64
                  ", \"parent\": %d}}",
                  s.name, static_cast<double>(s.start_ns) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3, s.item,
                  s.parent);
    out << buf << (i + 1 < spans.size() ? ",\n" : "\n");
  }
  out << "], \"displayTimeUnit\": \"ms\"}\n";
}

/// Counts the traced replay gathers beside its spans (totals over the run).
struct Counts {
  uint64_t printer_bytes = 0;
  uint64_t refine_out_stmts = 0;
  uint64_t findings = 0;
  uint64_t direct_steps = 0;  // steps of the simulations the replay runs itself
  uint64_t transactions = 0;
  ProgramCache::Stats cache;
  void add_cache(const ProgramCache::Stats& s) {
    cache.hits += s.hits;
    cache.misses += s.misses;
    cache.evictions += s.evictions;
  }
};

size_t count_stmts(Specification& spec) {
  size_t n = 0;
  for_each_stmt(spec, [&n](Stmt&) { ++n; });
  return n;
}

// ---------------------------------------------------------------------------
// Correctness checks shared by the runs and the self-test

/// Every field of a row, so two rows compare equal only if they are.
std::string row_digest(const batch::SweepRow& r) {
  char buf[1024];
  std::snprintf(
      buf, sizeof buf,
      "%zu %s ok=%d buses=%zu lines=%zu mbps=%.17g cost=%.17g sa=%zu/%zu "
      "cycles=%" PRIu64 " live=%d util=%.17g cont=%" PRIu64
      " bus=%s ver=%d eq=%d sc=%d scok=%d sx=%" PRIu64 " err=%s",
      r.matrix_index, r.point.label().c_str(), r.refine_ok, r.buses, r.lines,
      r.peak_mbps, r.cost, r.sa_errors, r.sa_warnings, r.cycles,
      r.root_completed, r.peak_util_pct, r.contention_cycles,
      r.busiest_bus.c_str(), r.verified, r.equivalent, r.sched_checked,
      r.sched_consistent, r.sched_explored, r.error.c_str());
  return buf;
}

bool sweep_row_ok(const batch::SweepRow& r, const batch::SweepOptions& opts) {
  if (!r.refine_ok || r.sa_errors > 0 || !r.root_completed) return false;
  if (opts.verify && (!r.verified || !r.equivalent)) return false;
  if (opts.explore_schedules > 0 && (!r.sched_checked || !r.sched_consistent)) {
    return false;
  }
  return true;
}

/// Compares a batch report with the single-worker rows of the same design,
/// matched by matrix_index. Returns false on any difference.
bool batch_matches(const batch::SweepReport& rep,
                   const std::vector<std::string>& single_digests) {
  if (rep.rows.size() != single_digests.size()) return false;
  std::vector<const batch::SweepRow*> by_index(rep.rows.size(), nullptr);
  for (const batch::SweepRow& r : rep.rows) {
    if (r.matrix_index >= by_index.size() || by_index[r.matrix_index]) {
      return false;
    }
    by_index[r.matrix_index] = &r;
  }
  for (size_t i = 0; i < by_index.size(); ++i) {
    if (row_digest(*by_index[i]) != single_digests[i]) return false;
  }
  return true;
}

fuzz::FuzzReport merge_reports(const std::vector<fuzz::FuzzReport>& parts) {
  fuzz::FuzzReport m;
  for (const fuzz::FuzzReport& p : parts) {
    m.seeds_run += p.seeds_run;
    m.injections_applied += p.injections_applied;
    m.failures.insert(m.failures.end(), p.failures.begin(), p.failures.end());
  }
  return m;
}

// ---------------------------------------------------------------------------
// sweep / verify

struct SweepInputs {
  Specification spec;
  AccessGraph graph;
  std::vector<Partition> parts;  // one per kDesigns entry
  ProfileResult prof;
};

/// Everything before the first sweep item: read, parse and validate the
/// spec, build the access graph, make the three partitions, profile.
std::unique_ptr<SweepInputs> setup_sweep(Tracer* tr) {
  std::ifstream in(kSpecPath);
  if (!in) throw std::runtime_error(std::string("cannot read ") + kSpecPath);
  std::stringstream text;
  text << in.rdbuf();
  auto inputs = std::make_unique<SweepInputs>();
  DiagnosticSink diags;
  std::optional<Specification> parsed;
  {
    Scope s(tr, "parser");
    parsed = parse_spec(text.str(), diags);
  }
  if (!parsed) throw std::runtime_error("parse failed: " + diags.str());
  inputs->spec = std::move(*parsed);
  bool valid = false;
  {
    Scope s(tr, "validate");
    valid = validate(inputs->spec, diags);
  }
  if (!valid) throw std::runtime_error("validate failed: " + diags.str());
  {
    Scope s(tr, "graph");
    inputs->graph = build_access_graph(inputs->spec);
  }
  for (RatioGoal goal : kDesigns) {
    Scope s(tr, "partition");
    PartitionerOptions po;
    po.goal = goal;
    inputs->parts.push_back(make_ratio_partition(inputs->spec, inputs->graph,
                                                 Allocation::proc_plus_asic(),
                                                 po)
                                .partition);
  }
  {
    Scope s(tr, "profile");
    inputs->prof = profile_spec(inputs->spec);
  }
  return inputs;
}

batch::SweepOptions sweep_options(bool verify) {
  batch::SweepOptions o;
  o.verify = verify;
  o.explore_schedules = verify ? 4 : 0;
  return o;
}

/// The steps of batch::eval_point (src/batch/sweep.cpp), in its order, each
/// under the span of the layer it calls into.
batch::SweepRow replay_point(const SweepInputs& in, const Partition& part,
                             const batch::SweepOptions& opts,
                             const batch::SweepPoint& point, size_t index,
                             ProgramCache* programs, Tracer& tr, int64_t id,
                             Counts& c) {
  Scope item(&tr, "item", id);
  Scope glue(&tr, "batch");
  batch::SweepRow row;
  row.point = point;
  row.matrix_index = index;
  try {
    RefineResult r = [&] {
      Scope s(&tr, "refine");
      return refine(part, in.graph, point.config);
    }();
    const auto [rates, cost] = [&] {
      Scope s(&tr, "price");
      BusRateReport rr = bus_rates(in.prof, part, r.plan, opts.clock_hz);
      CostReport cr = estimate_cost(r, rr);
      return std::pair(std::move(rr), std::move(cr));
    }();
    row.buses = r.stats.buses;
    {
      Scope s(&tr, "printer");
      const std::string text = print(r.refined);
      row.lines = count_lines(text);
      c.printer_bytes += text.size();
    }
    row.peak_mbps = rates.max_rate();
    row.cost = cost.total;

    const analysis::Report rep = [&] {
      Scope s(&tr, "analysis");
      return analysis::analyze(r.refined);
    }();
    row.sa_errors = rep.count(Severity::Error);
    row.sa_warnings = rep.count(Severity::Warning);
    c.findings += rep.findings.size();

    SimConfig sc;
    sc.exec_tier = opts.exec_tier;
    if (opts.max_cycles != 0) sc.max_cycles = opts.max_cycles;
    sc.clock_hz = opts.clock_hz;

    std::optional<Simulator> sim;
    {
      Scope s(&tr, "sim.construct");
      sim.emplace(r.refined, sc, programs);
    }
    std::unique_ptr<BusTracer> tracer;
    if (sc.exec_tier != ExecTier::Tree) {
      Scope s(&tr, "obs");
      tracer = std::make_unique<BusTracer>(r.refined);
      sim->add_slot_observer(tracer.get());
    }
    SimResult res;
    {
      Scope s(&tr, "sim.run");
      res = sim->run();
    }
    c.direct_steps += res.steps;
    row.cycles = res.end_time;
    row.root_completed = res.root_completed;
    if (!row.root_completed && in.spec.top) {
      auto it = res.behavior_completions.find(in.spec.top->name);
      row.root_completed =
          it != res.behavior_completions.end() && it->second > 0;
    }
    if (tracer) {
      Scope s(&tr, "obs");
      const MetricsReport m = MetricsReport::from(*tracer);
      c.transactions += m.transactions;
      for (const MetricsReport::BusRow& b : m.buses) {
        row.contention_cycles += b.contention_cycles;
        if (b.utilization_pct > row.peak_util_pct) {
          row.peak_util_pct = b.utilization_pct;
          row.busiest_bus = b.name;
        }
      }
    }

    if (opts.verify) {
      EquivalenceOptions eo;
      eo.config = sc;
      eo.compare_write_traces =
          point.config.protocol == ProtocolStyle::FullHandshake;
      eo.programs = programs;
      row.verified = true;
      {
        Scope s(&tr, "equivalence");
        row.equivalent = check_equivalence(in.spec, r.refined, eo).equivalent;
      }
      if (opts.explore_schedules > 0) {
        analysis::schedules::ExploreOptions xo;
        xo.max_schedules = opts.explore_schedules;
        xo.config = sc;
        xo.compare_write_traces = eo.compare_write_traces;
        Scope s(&tr, "schedules");
        const analysis::schedules::InclusionResult inc =
            analysis::schedules::check_inclusion(in.spec, r.refined, xo);
        row.sched_checked = true;
        row.sched_consistent = inc.holds;
        row.sched_explored = inc.refined_explored;
      }
    }
    c.refine_out_stmts += count_stmts(r.refined);
    row.refine_ok = true;
  } catch (const SpecError& e) {
    row.refine_ok = false;
    row.error = e.what();
  }
  return row;
}

// ---------------------------------------------------------------------------
// fuzz

fuzz::FuzzOptions fuzz_options(uint64_t start, size_t seeds, size_t jobs,
                               const std::string& out_dir) {
  fuzz::FuzzOptions fo;
  fo.start_seed = start;
  fo.seeds = seeds;
  fo.jobs = jobs;
  fo.out_dir = out_dir + "/fuzz-failures";
  return fo;
}

/// fuzz::run_oracles' private build_partition, rebuilt from public calls.
Partition fuzz_partition(const Specification& spec, const AccessGraph& graph,
                         const fuzz::OracleConfig& cfg) {
  Partition part(spec, cfg.components == 2 ? Allocation::proc_plus_asic()
                                           : Allocation::asics(cfg.components));
  std::vector<std::string> leaves;
  spec.top->for_each([&](const Behavior& b) {
    if (b.is_leaf()) leaves.push_back(b.name);
  });
  fuzz::Rng rng(cfg.partition_salt);
  std::vector<size_t> comp_of(leaves.size());
  for (size_t i = 0; i < leaves.size(); ++i) {
    comp_of[i] = rng.below(cfg.components);
  }
  if (leaves.size() >= 2) {
    bool has0 = false, has1 = false;
    for (size_t comp : comp_of) {
      has0 |= comp == 0;
      has1 |= comp == 1;
    }
    if (!has0) comp_of[0] = 0;
    if (!has1) comp_of[comp_of[0] == 0 && leaves.size() > 1 ? 1 : 0] = 1;
  }
  for (size_t i = 0; i < leaves.size(); ++i) {
    part.assign_behavior(leaves[i], comp_of[i]);
  }
  part.auto_assign_vars(graph);
  return part;
}

bool same_run(const SimResult& a, const SimResult& b) {
  return a.status == b.status && a.end_time == b.end_time &&
         a.steps == b.steps && a.root_completed == b.root_completed &&
         a.final_vars == b.final_vars &&
         a.observable_writes == b.observable_writes &&
         a.behavior_completions == b.behavior_completions;
}

/// Oracle 1 of run_oracles: print -> parse -> validate -> print fixpoint.
size_t replay_roundtrip(const Specification& spec, Tracer& tr, Counts& c) {
  std::string text;
  {
    Scope s(&tr, "printer");
    text = print(spec);
  }
  c.printer_bytes += text.size();
  DiagnosticSink diags;
  std::optional<Specification> reparsed;
  {
    Scope s(&tr, "parser");
    reparsed = parse_spec(text, diags);
  }
  if (!reparsed) return 1;
  bool valid = false;
  {
    Scope s(&tr, "validate");
    DiagnosticSink vd;
    valid = validate(*reparsed, vd);
  }
  if (!valid) return 1;
  std::string again;
  {
    Scope s(&tr, "printer");
    again = print(*reparsed);
  }
  c.printer_bytes += again.size();
  return again != text ? 1 : 0;
}

/// Oracle 2 of run_oracles: lowered, tree and bytecode runs must agree.
size_t replay_interp_diff(const Specification& spec, uint64_t max_cycles,
                          ProgramCache* programs, Tracer& tr, Counts& c) {
  const auto run = [&](ExecTier tier, ProgramCache* cache) {
    SimConfig cfg;
    cfg.exec_tier = tier;
    cfg.max_cycles = max_cycles;
    std::optional<Simulator> sim;
    {
      Scope s(&tr, "sim.construct");
      sim.emplace(spec, cfg, cache);
    }
    Scope s(&tr, "sim.run");
    SimResult r = sim->run();
    c.direct_steps += r.steps;
    return r;
  };
  const SimResult a = run(ExecTier::Lowered, programs);
  const SimResult b = run(ExecTier::Tree, nullptr);
  const SimResult cc = run(ExecTier::Bytecode, programs);
  return (same_run(a, b) ? 0 : 1) + (same_run(cc, a) ? 0 : 1);
}

size_t replay_analysis(const Specification& spec, Tracer& tr, Counts& c) {
  Scope s(&tr, "analysis");
  const analysis::Report rep = analysis::analyze(spec);
  c.findings += rep.findings.size();
  return rep.clean() ? 0 : 1;
}

/// The steps of fuzz::eval_seed + fuzz::run_oracles (src/fuzz/fuzzer.cpp,
/// src/fuzz/oracle.cpp) for one seed under default FuzzOptions at --jobs 1.
/// Returns the number of oracle issues.
size_t replay_seed(uint64_t seed, ProgramCache* programs, Tracer& tr,
                   int64_t id, Counts& c) {
  const fuzz::FuzzOptions defaults;
  Scope item(&tr, "item", id);
  Specification spec;
  {
    Scope s(&tr, "fuzz.generate");
    fuzz::GenOptions gen;
    gen.seed = seed;
    gen.stmt_budget = defaults.stmt_budget;
    spec = fuzz::generate_spec(gen);
  }
  const fuzz::OracleConfig cfg = fuzz::sample_config(seed);

  Scope oracle(&tr, "fuzz.oracle");
  size_t issues = 0;
  {
    DiagnosticSink diags;
    bool valid = false;
    {
      Scope s(&tr, "validate");
      valid = validate(spec, diags);
    }
    if (!valid) return 1;
  }
  issues += replay_roundtrip(spec, tr, c);
  issues += replay_interp_diff(spec, defaults.max_cycles, programs, tr, c);
  issues += replay_analysis(spec, tr, c);

  Specification refined;
  try {
    AccessGraph graph;
    {
      Scope s(&tr, "graph");
      graph = build_access_graph(spec);
    }
    std::optional<Partition> part;
    {
      Scope s(&tr, "partition");
      part.emplace(fuzz_partition(spec, graph, cfg));
    }
    RefineConfig rc;
    rc.model = cfg.model;
    rc.protocol = cfg.protocol;
    rc.leaf_scheme = cfg.scheme;
    rc.inline_protocols = cfg.inline_protocols;
    Scope s(&tr, "refine");
    refined = std::move(refine(*part, graph, rc).refined);
  } catch (const SpecError&) {
    return issues + 1;
  }
  {
    DiagnosticSink rd;
    bool valid = false;
    {
      Scope s(&tr, "validate");
      valid = validate(refined, rd);
    }
    if (!valid) return issues + 1;
  }
  c.refine_out_stmts += count_stmts(refined);
  issues += replay_roundtrip(refined, tr, c);
  issues += replay_interp_diff(refined, defaults.max_cycles, programs, tr, c);

  EquivalenceOptions eo;
  eo.config.max_cycles = defaults.max_cycles;
  eo.compare_write_traces = cfg.protocol == ProtocolStyle::FullHandshake;
  eo.parallel = true;  // run_fuzz sets this for a serial (--jobs 1) sweep
  eo.programs = programs;
  {
    Scope s(&tr, "equivalence");
    if (!check_equivalence(spec, refined, eo).equivalent) ++issues;
  }
  issues += replay_analysis(refined, tr, c);
  try {
    analysis::schedules::ExploreOptions xo;
    xo.max_schedules = defaults.explore_schedules;
    xo.config.max_cycles = defaults.max_cycles;
    xo.compare_write_traces = cfg.protocol == ProtocolStyle::FullHandshake;
    Scope s(&tr, "schedules");
    if (!analysis::schedules::check_inclusion(spec, refined, xo).holds) {
      ++issues;
    }
  } catch (const SpecError&) {
    ++issues;
  }
  return issues;
}

// ---------------------------------------------------------------------------
// End-to-end runs (--trace 0)

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool self_test = false;
  std::string out_dir = ".bench_build";
  std::string commit = "unknown";
};

/// What every run measures; the workloads differ only in how an item runs.
struct Phases {
  std::vector<double> setup_s;
  /// Wall latency samples, [item id]: one per pass that ran the item.
  std::vector<std::vector<double>> item_ms;
  size_t item_samples = 0;
  double item_cpu_s = 0.0;
  std::vector<double> items_per_s;
  Tally tally;

  void add_item(size_t id, double ms, double cpu_s) {
    if (item_ms.size() <= id) item_ms.resize(id + 1);
    item_ms[id].push_back(ms);
    ++item_samples;
    item_cpu_s += cpu_s;
  }
  /// Each item's median latency over the run. Host speed drifts by tens of
  /// percent over seconds; the per-item median keeps that drift out of the
  /// typical item cost.
  std::vector<double> item_medians() const {
    std::vector<double> out;
    for (const std::vector<double>& v : item_ms) {
      if (!v.empty()) out.push_back(median(v));
    }
    return out;
  }
  /// Every run of every item. The tail is taken over these: 96 design points
  /// leave too few items beyond a p95 of item medians.
  std::vector<double> all_runs() const {
    std::vector<double> out;
    for (const std::vector<double>& v : item_ms) {
      out.insert(out.end(), v.begin(), v.end());
    }
    return out;
  }
};

std::vector<Metric> end_to_end_metrics(const Phases& p) {
  return {
      {"setup_s", median(p.setup_s), "s"},
      {"item_ms_p50", percentile(p.item_medians(), 0.50), "ms"},
      {"item_ms_p95", percentile(p.all_runs(), 0.95), "ms"},
      {"item_cpu_ms",
       p.item_samples == 0
           ? 0.0
           : 1e3 * p.item_cpu_s / static_cast<double>(p.item_samples),
       "ms"},
      {"items_per_s", median(p.items_per_s), "1/s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
      {"pass_ratio",
       p.tally.attempted == 0
           ? 0.0
           : 1.0 - static_cast<double>(p.tally.failed) /
                       static_cast<double>(p.tally.attempted),
       "ratio"},
  };
}

/// Row digests of the first pass, [design][matrix index]; later passes and
/// the batch must reproduce them.
using Digests = std::vector<std::vector<std::string>>;

Digests empty_digests(const SweepInputs& in) {
  return Digests(in.parts.size(),
                 std::vector<std::string>(batch::full_matrix().size()));
}

bool matches_first(Digests& digests, size_t d, const batch::SweepRow& row) {
  std::string& first = digests[d][row.matrix_index];
  std::string now = row_digest(row);
  if (first.empty()) {
    first = std::move(now);
    return true;
  }
  return first == now;
}

/// One item through the public entry: a one-point run_sweep on `pool`.
batch::SweepRow sweep_entry_item(const SweepInputs& in, size_t d,
                                 const batch::SweepPoint& point, size_t index,
                                 const batch::SweepOptions& opts,
                                 batch::ThreadPool& pool) {
  batch::SweepReport rep = batch::run_sweep(in.spec, in.parts[d], in.graph,
                                            in.prof, {point}, opts, pool);
  batch::SweepRow row = std::move(rep.rows.at(0));
  row.matrix_index = index;
  return row;
}

/// One single-worker pass of a sweep workload: every point of every design
/// through the public entry, each design on a fresh 1-worker pool (cold
/// caches, as for each `specsyn sweep` a user runs).
void sweep_single_pass(const SweepInputs& in, const batch::SweepOptions& opts,
                       Digests& digests, Phases& p) {
  const std::vector<batch::SweepPoint> matrix = batch::full_matrix();
  for (size_t d = 0; d < in.parts.size(); ++d) {
    batch::ThreadPool pool(1);
    for (size_t i = 0; i < matrix.size(); ++i) {
      const double c0 = cpu_now_s();
      const Clock::time_point t0 = Clock::now();
      const batch::SweepRow row =
          sweep_entry_item(in, d, matrix[i], i, opts, pool);
      p.add_item(d * matrix.size() + i, 1e3 * secs_since(t0), cpu_now_s() - c0);
      p.tally.add(sweep_row_ok(row, opts) && matches_first(digests, d, row));
    }
  }
}

/// One batch pass: one run_sweep per design over the full matrix on a fresh
/// pool of `workers`. Returns the wall time; a batch whose rows differ from
/// the single-worker rows counts all its items as failed.
double sweep_batch_pass(const SweepInputs& in, const batch::SweepOptions& opts,
                        const Digests& digests, size_t workers, Tally& tally) {
  const std::vector<batch::SweepPoint> matrix = batch::full_matrix();
  const Clock::time_point t0 = Clock::now();
  std::vector<batch::SweepReport> reps;
  for (size_t d = 0; d < in.parts.size(); ++d) {
    batch::ThreadPool pool(workers);
    reps.push_back(batch::run_sweep(in.spec, in.parts[d], in.graph, in.prof,
                                    matrix, opts, pool));
  }
  const double wall = secs_since(t0);
  for (size_t d = 0; d < reps.size(); ++d) {
    const bool ok = batch_matches(reps[d], digests.at(d));
    for (size_t i = 0; i < matrix.size(); ++i) tally.add(ok);
  }
  return wall;
}

Phases run_sweep_workload(bool verify, double seconds) {
  Phases p;
  const size_t workers = bench_workers();
  const batch::SweepOptions opts = sweep_options(verify);
  std::unique_ptr<SweepInputs> in;
  Digests digests;
  // Each pass sets up, then runs the single-worker items, then the batch:
  // the three phases alternate, so a burst of load on the host falls on all
  // metrics alike. A pass starts only while another of the same length fits
  // in the run. Items run on the first set-up's inputs.
  const Clock::time_point start = Clock::now();
  double pass_s = 0.0;
  while (p.setup_s.size() < kMinPasses ||
         secs_since(start) + pass_s <= seconds) {
    const Clock::time_point pass_start = Clock::now();
    std::unique_ptr<SweepInputs> fresh = setup_sweep(nullptr);
    const double inputs_s = secs_since(pass_start);
    p.setup_s.push_back(inputs_s + start_pool_s(workers));
    if (!in) {
      in = std::move(fresh);
      digests = empty_digests(*in);
    }
    fresh.reset();
    sweep_single_pass(*in, opts, digests, p);
    const double items = static_cast<double>(batch::full_matrix().size() *
                                             in->parts.size());
    for (int b = 0; b < kBatchesPerPass; ++b) {
      p.items_per_s.push_back(
          items / sweep_batch_pass(*in, opts, digests, workers, p.tally));
    }
    trim_heap();
    pass_s = secs_since(pass_start);
  }
  return p;
}

Phases run_fuzz_workload(uint64_t seed, double seconds,
                         const std::string& out_dir) {
  Phases p;
  const size_t workers = bench_workers();
  // A round runs the whole block chunk by chunk: pool starts (the fuzz
  // set-up), then each seed through run_fuzz(seeds = 1, jobs = 1), then the
  // chunk as one batch run_fuzz on the pool, compared with the merged
  // single-seed reports. Whole rounds keep the population of items the same
  // in every run.
  std::vector<fuzz::FuzzReport> single(kFuzzBlock);
  const Clock::time_point start = Clock::now();
  double round_s = 0.0;
  for (size_t round = 0;
       round == 0 || secs_since(start) + round_s <= seconds; ++round) {
    const Clock::time_point round_start = Clock::now();
    for (size_t c0 = 0; c0 < kFuzzBlock; c0 += kFuzzChunk) {
      for (int rep = 0; rep < kPoolStartsPerChunk; ++rep) {
        p.setup_s.push_back(start_pool_s(workers));
      }
      for (size_t i = c0; i < c0 + kFuzzChunk; ++i) {
        std::ostringstream log;
        const double cpu0 = cpu_now_s();
        const Clock::time_point t0 = Clock::now();
        fuzz::FuzzReport rep =
            fuzz::run_fuzz(fuzz_options(seed + i, 1, 1, out_dir), log);
        p.add_item(i, 1e3 * secs_since(t0), cpu_now_s() - cpu0);
        bool ok = rep.ok() && rep.seeds_run == 1;
        if (round == 0) {
          single[i] = std::move(rep);
        } else {
          ok = ok && rep.json() == single[i].json();
        }
        p.tally.add(ok);
      }
      const std::string expect =
          merge_reports({single.begin() + static_cast<std::ptrdiff_t>(c0),
                         single.begin() +
                             static_cast<std::ptrdiff_t>(c0 + kFuzzChunk)})
              .json();
      std::ostringstream log;
      const Clock::time_point t0 = Clock::now();
      const fuzz::FuzzReport rep = fuzz::run_fuzz(
          fuzz_options(seed + c0, kFuzzChunk, workers, out_dir), log);
      p.items_per_s.push_back(static_cast<double>(kFuzzChunk) /
                              secs_since(t0));
      const bool ok = rep.json() == expect;
      for (size_t i = 0; i < kFuzzChunk; ++i) p.tally.add(ok);
      trim_heap();
    }
    round_s = secs_since(round_start);
  }
  return p;
}

// ---------------------------------------------------------------------------
// Traced run (--trace 1)

struct TracedRun {
  Tracer tracer;
  Counts counts;
  Tally tally;
  uint64_t items = 0;             // traced items
  double untraced_item_s = 0.0;   // Σ public-entry item wall
  uint64_t untraced_items = 0;
  double batch_wall_s = 0.0;      // Σ batch wall
  uint64_t batch_items = 0;
  uint64_t batch_busy_ns = 0;     // Σ pool worker busy time (telemetry)
  size_t workers = 1;
  std::map<std::string, uint64_t> counters;  // telemetry, traced passes only
};

void add_counters(TracedRun& t, const telemetry::Snapshot& snap) {
  for (const auto& [name, v] : snap.counters) t.counters[name] += v.value;
}

uint64_t busy_ns(const telemetry::Snapshot& snap) {
  uint64_t ns = 0;
  for (const auto& [name, v] : snap.counters) {
    if (name.starts_with("pool.worker.") && name.ends_with(".busy_ns")) {
      ns += v.value;
    }
  }
  return ns;
}

/// Telemetry stays off outside the traced passes, so the untraced passes of
/// a traced run time exactly what --trace 0 times.
template <typename Fn>
telemetry::Snapshot with_telemetry(Fn&& fn) {
  telemetry::reset();
  telemetry::enable(true, false);
  fn();
  telemetry::enable(false, false);
  telemetry::Snapshot snap = telemetry::snapshot();
  telemetry::reset();
  return snap;
}

// In the traced run every item runs twice, back to back: untraced through
// the public entry, then replayed with spans. Pairing item by item keeps
// host-speed drift out of trace.overhead.

void traced_sweep(bool verify, double seconds, TracedRun& t) {
  const batch::SweepOptions opts = sweep_options(verify);
  const std::vector<batch::SweepPoint> matrix = batch::full_matrix();
  std::unique_ptr<SweepInputs> in = setup_sweep(nullptr);
  Digests digests = empty_digests(*in);
  // Like the end-to-end runs, a pass or batch starts only while another of
  // the same length fits: replay in the first 65% of the run, batches after.
  const Clock::time_point start = Clock::now();
  double pass_s = 0.0;
  do {
    const Clock::time_point pass_start = Clock::now();
    add_counters(t, with_telemetry([&] {
      Scope setup(&t.tracer, "setup", -1);
      std::unique_ptr<SweepInputs> traced_in = setup_sweep(&t.tracer);
    }));
    for (size_t d = 0; d < in->parts.size(); ++d) {
      // The replay runs on a pool thread (whose allocator arena differs from
      // the main thread's) with a cold worker cache per design, as
      // eval_point does in a CLI run.
      batch::ThreadPool entry_pool(1);
      batch::ThreadPool replay_pool(1);
      for (size_t i = 0; i < matrix.size(); ++i) {
        const Clock::time_point t0 = Clock::now();
        const batch::SweepRow row =
            sweep_entry_item(*in, d, matrix[i], i, opts, entry_pool);
        t.untraced_item_s += secs_since(t0);
        ++t.untraced_items;
        t.tally.add(sweep_row_ok(row, opts) && matches_first(digests, d, row));

        batch::SweepRow replayed;
        add_counters(t, with_telemetry([&] {
          replay_pool.for_each(1, [&](size_t, batch::WorkerContext& ctx) {
            replayed = replay_point(*in, in->parts[d], opts, matrix[i], i,
                                    ctx.programs, t.tracer,
                                    static_cast<int64_t>(t.items), t.counts);
          });
        }));
        ++t.items;
        // The replay must reproduce the public entry's row exactly.
        t.tally.add(row_digest(replayed) == row_digest(row));
      }
      t.counts.add_cache(replay_pool.cache_stats());
    }
    pass_s = secs_since(pass_start);
  } while (secs_since(start) + pass_s <= 0.65 * seconds);

  double wall = 0.0;
  do {
    const telemetry::Snapshot snap = with_telemetry([&] {
      wall = sweep_batch_pass(*in, opts, digests, t.workers, t.tally);
    });
    t.batch_wall_s += wall;
    t.batch_items += matrix.size() * in->parts.size();
    t.batch_busy_ns += busy_ns(snap);
  } while (secs_since(start) + wall <= seconds);
}

void traced_fuzz(uint64_t seed, double seconds, const std::string& out_dir,
                 TracedRun& t) {
  ProgramCache programs;  // one cache for the whole run, as `fuzz --jobs 1`
  const Clock::time_point start = Clock::now();
  std::vector<fuzz::FuzzReport> single(kFuzzTracedBlock);
  double pass_s = 0.0;
  do {
    const Clock::time_point pass_start = Clock::now();
    for (size_t i = 0; i < kFuzzTracedBlock; ++i) {
      std::ostringstream log;
      const Clock::time_point t0 = Clock::now();
      single[i] = fuzz::run_fuzz(fuzz_options(seed + i, 1, 1, out_dir), log);
      t.untraced_item_s += secs_since(t0);
      ++t.untraced_items;
      t.tally.add(single[i].ok());

      size_t issues = 0;
      add_counters(t, with_telemetry([&] {
        issues = replay_seed(seed + i, &programs, t.tracer,
                             static_cast<int64_t>(t.items), t.counts);
      }));
      ++t.items;
      t.tally.add(issues == 0);
    }
    pass_s = secs_since(pass_start);
  } while (secs_since(start) + pass_s <= 0.65 * seconds);
  t.counts.add_cache(programs.stats());

  const std::string expect = merge_reports(single).json();
  double wall = 0.0;
  do {
    std::ostringstream log;
    bool ok = false;
    const telemetry::Snapshot snap = with_telemetry([&] {
      const Clock::time_point t0 = Clock::now();
      const fuzz::FuzzReport rep = fuzz::run_fuzz(
          fuzz_options(seed, kFuzzTracedBlock, t.workers, out_dir), log);
      wall = secs_since(t0);
      ok = rep.json() == expect;
    });
    for (size_t i = 0; i < kFuzzTracedBlock; ++i) t.tally.add(ok);
    t.batch_wall_s += wall;
    t.batch_items += kFuzzTracedBlock;
    t.batch_busy_ns += busy_ns(snap);
  } while (secs_since(start) + wall <= seconds);
}

std::vector<Metric> per_layer_metrics(const TracedRun& t) {
  // Self time per span = its duration minus its direct children's.
  const auto& spans = t.tracer.spans();
  std::vector<uint64_t> child_ns(spans.size(), 0);
  for (const SpanRec& s : spans) {
    if (s.parent >= 0) {
      child_ns[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  std::map<std::string, uint64_t> self_ns, calls;
  uint64_t root_ns = 0, item_root_ns = 0;
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRec& s = spans[i];
    const uint64_t dur = s.end_ns - s.start_ns;
    if (s.parent < 0) {
      root_ns += dur;
      if (s.item >= 0) item_root_ns += dur;
      continue;
    }
    self_ns[s.name] += dur - child_ns[i];
    ++calls[s.name];
  }
  const double n = std::max<double>(1.0, static_cast<double>(t.items));
  const double root_ms = static_cast<double>(root_ns) / 1e6;
  std::vector<Metric> m;
  uint64_t attributed_ns = 0;
  for (const std::string& layer : layer_names()) {
    const uint64_t ns = self_ns.count(layer) ? self_ns.at(layer) : 0;
    attributed_ns += ns;
    const double ms = static_cast<double>(ns) / 1e6;
    m.push_back({layer + ".ms", ms / n, "ms"});
    m.push_back({layer + ".share", root_ms > 0 ? ms / root_ms : 0.0, "ratio"});
    m.push_back({layer + ".calls",
                 static_cast<double>(calls.count(layer) ? calls.at(layer) : 0) / n,
                 "count"});
  }
  const auto counter = [&](const char* name) {
    auto it = t.counters.find(name);
    return it == t.counters.end() ? 0.0 : static_cast<double>(it->second);
  };
  const Counts& c = t.counts;
  const double lookups = static_cast<double>(c.cache.hits + c.cache.misses);
  const double run_ms =
      self_ns.count("sim.run") ? static_cast<double>(self_ns.at("sim.run")) / 1e6
                               : 0.0;
  const double untraced_item_ms =
      t.untraced_items == 0 ? 0.0
                            : 1e3 * t.untraced_item_s /
                                  static_cast<double>(t.untraced_items);
  const double traced_item_ms = static_cast<double>(item_root_ns) / 1e6 / n;
  const double single_item_s =
      t.untraced_items == 0 ? 0.0
                            : t.untraced_item_s / static_cast<double>(t.untraced_items);
  const double capacity_s = static_cast<double>(t.workers) * t.batch_wall_s;
  std::vector<Metric> counts = {
      {"printer.bytes", static_cast<double>(c.printer_bytes) / n, "bytes"},
      {"refine.out_stmts", static_cast<double>(c.refine_out_stmts) / n, "count"},
      {"analysis.findings", static_cast<double>(c.findings) / n, "count"},
      {"sim.cache.hits", static_cast<double>(c.cache.hits) / n, "count"},
      {"sim.cache.misses", static_cast<double>(c.cache.misses) / n, "count"},
      {"sim.cache.evictions", static_cast<double>(c.cache.evictions) / n, "count"},
      {"sim.cache.hit_ratio",
       lookups > 0 ? static_cast<double>(c.cache.hits) / lookups : 0.0, "ratio"},
      {"sim.runs", counter("sim.runs") / n, "count"},
      {"sim.steps", counter("sim.steps") / n, "count"},
      {"sim.cycles", counter("sim.cycles") / n, "count"},
      {"sim.steps_per_ms",
       run_ms > 0 ? static_cast<double>(c.direct_steps) / run_ms : 0.0, "1/ms"},
      {"schedules.explored", counter("sched.explored") / n, "count"},
      {"schedules.pruned", counter("sched.pruned") / n, "count"},
      {"obs.transactions", static_cast<double>(c.transactions) / n, "count"},
      {"batch.efficiency",
       capacity_s > 0
           ? single_item_s * static_cast<double>(t.batch_items) / capacity_s
           : 0.0,
       "ratio"},
      {"batch.idle_share",
       capacity_s > 0
           ? 1.0 - static_cast<double>(t.batch_busy_ns) / 1e9 / capacity_s
           : 0.0,
       "ratio"},
      {"trace.item_ms", traced_item_ms, "ms"},
      {"trace.unattributed_share",
       root_ns > 0 ? 1.0 - static_cast<double>(attributed_ns) /
                               static_cast<double>(root_ns)
                   : 0.0,
       "ratio"},
      {"trace.overhead",
       untraced_item_ms > 0 ? traced_item_ms / untraced_item_ms - 1.0 : 0.0,
       "ratio"},
  };
  m.insert(m.end(), counts.begin(), counts.end());
  return m;
}

/// Steps the replay cannot reach through a public function; their time is
/// inside the span named after each arrow (or outside every span).
void print_unreachable(const std::string& workload) {
  std::printf("steps the replay cannot reach through a public function:\n");
  if (workload == "fuzz") {
    std::printf(
        "  run_oracles build_partition (private) -> rebuilt from Partition/"
        "fuzz::Rng calls, under 'partition'\n"
        "  run_oracles check_roundtrip/check_interp_diff/check_analysis "
        "(private) -> their public calls replayed one by one\n"
        "  run_oracles diff_sim_results (private) -> re-implemented, under "
        "'fuzz.oracle'\n"
        "  run_oracles tally() telemetry counters -> not replayed (off in "
        "end-to-end runs)\n"
        "  run_oracles inject_bug (private) -> not replayed (InjectedBug::None"
        "; the self-test drives it through run_fuzz)\n"
        "  run_fuzz per-call ProgramCache, SeedOutcome merge, log stream -> "
        "not replayed; in the untraced item time only\n"
        "  check_equivalence's second thread (parallel=true) -> wall time "
        "under 'equivalence'\n"
        "  check_inclusion's explore runs and analysis::Context -> under "
        "'schedules'\n");
  } else {
    std::printf(
        "  eval_point telemetry spans (sweep.point, price) -> not replayed "
        "(off in end-to-end runs)\n"
        "  BusTracer observer callbacks during Simulator::run -> under "
        "'sim.run' (no public seam)\n"
        "  ProgramCache key print + lower inside the Simulator constructor -> "
        "under 'sim.construct'\n"
        "  run_sweep job dispatch (run_batch) and ranking sort -> not "
        "replayed; in the untraced item time only\n"
        "  row assembly and object teardown in eval_point -> under 'batch'\n"
        "  check_inclusion's explore runs and analysis::Context -> under "
        "'schedules'\n");
  }
}

int run_traced(const Args& a) {
  TracedRun t;
  t.workers = bench_workers();
  if (a.workload == "fuzz") {
    traced_fuzz(a.seed, a.seconds, a.out_dir, t);
  } else {
    traced_sweep(a.workload == "verify", a.seconds, t);
  }
  const std::string path = a.out_dir + "/trace-" + a.workload + "-seed" +
                           std::to_string(a.seed) + ".json";
  write_chrome_trace(t.tracer, path);
  std::printf("chrome trace: %s (%zu spans, %" PRIu64 " traced items)\n",
              path.c_str(), t.tracer.spans().size(), t.items);
  print_unreachable(a.workload);
  print_result(t.tally, per_layer_metrics(t));
  return 0;
}

// ---------------------------------------------------------------------------
// Self-test: every check the runs make must be able to fail.

bool injected_bug_trips(fuzz::InjectedBug bug, const std::string& out_dir) {
  Tally tally;
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    fuzz::FuzzOptions fo = fuzz_options(seed, 1, 1, out_dir);
    fo.inject = bug;
    std::ostringstream log;
    tally.add(fuzz::run_fuzz(fo, log).ok());
  }
  const double ratio =
      static_cast<double>(tally.failed) / static_cast<double>(tally.attempted);
  std::printf("self-test: fuzz with injected bug '%s': fail_ratio %.3f\n",
              fuzz::to_string(bug), ratio);
  return ratio > 0.0;
}

bool altered_batch_trips(const std::string& out_dir) {
  std::unique_ptr<SweepInputs> in = setup_sweep(nullptr);
  const batch::SweepOptions opts = sweep_options(false);
  Digests digests = empty_digests(*in);
  Phases p;
  sweep_single_pass(*in, opts, digests, p);
  batch::ThreadPool pool(bench_workers());
  batch::SweepReport rep = batch::run_sweep(
      in->spec, in->parts[0], in->graph, in->prof, batch::full_matrix(), opts,
      pool);
  const bool clean = batch_matches(rep, digests[0]) && p.tally.failed == 0;
  rep.rows[rep.rows.size() / 2].cycles += 1;
  const bool sweep_tripped = !batch_matches(rep, digests[0]);

  std::vector<fuzz::FuzzReport> single;
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    std::ostringstream log;
    single.push_back(fuzz::run_fuzz(fuzz_options(seed, 1, 1, out_dir), log));
  }
  std::ostringstream log;
  fuzz::FuzzReport batch_rep =
      fuzz::run_fuzz(fuzz_options(1, 4, bench_workers(), out_dir), log);
  const std::string expect = merge_reports(single).json();
  const bool fuzz_clean = batch_rep.json() == expect;
  batch_rep.failures.push_back({});
  const bool fuzz_tripped = batch_rep.json() != expect;
  std::printf(
      "self-test: determinism comparison: sweep clean=%d altered-row "
      "tripped=%d, fuzz clean=%d altered-report tripped=%d\n",
      clean, sweep_tripped, fuzz_clean, fuzz_tripped);
  return clean && sweep_tripped && fuzz_clean && fuzz_tripped;
}

int run_self_test(const Args& a) {
  bool ok = injected_bug_trips(fuzz::InjectedBug::CorruptDataUpdate, a.out_dir);
  ok = injected_bug_trips(fuzz::InjectedBug::DropDoneUpdate, a.out_dir) && ok;
  ok = altered_batch_trips(a.out_dir) && ok;
  std::printf("self-test: %s\n", ok ? "ok" : "FAILED");
  return ok ? 0 : 1;
}

// ---------------------------------------------------------------------------

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string f = argv[i];
    if (f == "--self-test") {
      a.self_test = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string v = argv[++i];
    if (f == "--workload") {
      a.workload = v;
    } else if (f == "--seed") {
      a.seed = std::stoull(v);
    } else if (f == "--seconds") {
      a.seconds = std::stod(v);
    } else if (f == "--trace") {
      a.trace = v == "1";
    } else if (f == "--out-dir") {
      a.out_dir = v;
    } else if (f == "--commit") {
      a.commit = v;
    } else {
      return false;
    }
  }
  return a.self_test || a.workload == "sweep" || a.workload == "verify" ||
         a.workload == "fuzz";
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  try {
    if (!parse_args(argc, argv, a)) {
      std::fprintf(stderr,
                   "usage: specbench --workload sweep|verify|fuzz --seed N "
                   "--seconds S --trace 0|1 [--out-dir DIR] [--commit ID]\n"
                   "       specbench --self-test [--out-dir DIR]\n");
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "specbench: bad argument: %s\n", e.what());
    return 2;
  }
  // Pin what is measured: the process-default tier of a plain CLI run, on an
  // optimised build.
  if (std::getenv("SPECSYN_EXEC_TIER") != nullptr) {
    std::fprintf(stderr,
                 "specbench: refusing to run with SPECSYN_EXEC_TIER set; the "
                 "benchmark measures the default tier\n");
    return 2;
  }
#ifndef __OPTIMIZE__
  std::fprintf(stderr, "specbench: refusing to run an unoptimised build\n");
  return 2;
#endif
  try {
    if (a.self_test) return run_self_test(a);
    std::printf(
        "# specbench workload=%s seed=%" PRIu64 " seconds=%g trace=%d "
        "tier=%s workers=%zu nproc=%u build=%s compiler=%s commit=%s\n",
        a.workload.c_str(), a.seed, a.seconds, a.trace ? 1 : 0,
        exec_tier_name(default_exec_tier()), bench_workers(),
        std::thread::hardware_concurrency(), SPECBENCH_BUILD_TYPE,
        SPECBENCH_COMPILER, a.commit.c_str());
    if (a.trace) return run_traced(a);
    const Phases p = a.workload == "fuzz"
                         ? run_fuzz_workload(a.seed, a.seconds, a.out_dir)
                         : run_sweep_workload(a.workload == "verify", a.seconds);
    std::printf("items: p50 over %zu item medians, p95 over %zu single-worker "
                "runs; %zu batch passes\n",
                p.item_medians().size(), p.item_samples, p.items_per_s.size());
    print_result(p.tally, end_to_end_metrics(p));
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "specbench: %s\n", e.what());
    return 1;
  }
}

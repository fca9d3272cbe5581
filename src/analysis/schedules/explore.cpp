#include "analysis/schedules/explore.h"

#include <algorithm>
#include <deque>
#include <set>
#include <utility>

#include "analysis/context.h"
#include "analysis/verifier.h"
#include "batch/thread_pool.h"
#include "sim/program_cache.h"
#include "sim/sched.h"
#include "support/diagnostics.h"
#include "telemetry/telemetry.h"

namespace specsyn::analysis::schedules {

namespace {

/// Unordered behavior-name pairs the SA020 predicate flags as potentially
/// racing: concurrent, at least one write, not both bus-mediated. These are
/// the only reorderings that can change an observable outcome, so they are
/// the only places exploration branches.
std::set<std::pair<std::string, std::string>> racing_pairs(const Context& ctx) {
  std::set<std::pair<std::string, std::string>> pairs;
  for (const auto& [var, accesses] : ctx.var_access()) {
    (void)var;
    for (size_t i = 0; i < accesses.size(); ++i) {
      for (size_t j = i + 1; j < accesses.size(); ++j) {
        const VarAccess& a = accesses[i];
        const VarAccess& b = accesses[j];
        if (!a.is_write && !b.is_write) continue;
        if (a.bus_mediated && b.bus_mediated) continue;  // multi-port mem
        if (a.behavior == b.behavior) continue;
        if (!ctx.concurrent(a.behavior, b.behavior)) continue;
        std::string x = a.behavior->name;
        std::string y = b.behavior->name;
        if (y < x) std::swap(x, y);
        pairs.emplace(std::move(x), std::move(y));
      }
    }
  }
  return pairs;
}

bool is_racing(const std::set<std::pair<std::string, std::string>>& pairs,
               const std::string& a, const std::string& b) {
  return a <= b ? pairs.count({a, b}) != 0 : pairs.count({b, a}) != 0;
}

/// One schedule of `spec`: replay `picks` (canonical beyond the end) and
/// record every decision.
SimResult run_schedule(const Specification& spec, SimConfig cfg,
                       std::vector<uint32_t> picks, ProgramCache* programs) {
  cfg.sched_policy = SchedPolicy::Replay;
  cfg.sched_picks = std::move(picks);
  cfg.record_schedule = true;
  Simulator sim(spec, cfg, programs);
  return sim.run();
}

/// One exploration run: the full taken trace + decisions + outcome.
struct RunResult {
  std::vector<uint32_t> taken;
  std::vector<SchedDecision> decisions;
  Outcome outcome;
};

RunResult run_one(const Specification& spec, const SimConfig& cfg,
                  std::vector<uint32_t> picks, ProgramCache* programs,
                  const std::string& root_behavior) {
  SimResult r = run_schedule(spec, cfg, std::move(picks), programs);
  RunResult out;
  out.taken.reserve(r.sched_decisions.size());
  for (const SchedDecision& d : r.sched_decisions) out.taken.push_back(d.pick);
  out.decisions = std::move(r.sched_decisions);
  out.outcome = outcome_of(r, root_behavior);
  return out;
}

std::string prefix_key(const std::vector<uint32_t>& picks) {
  std::string key;
  for (uint32_t p : picks) {
    key += std::to_string(p);
    key += ',';
  }
  return key;
}

/// First point of disagreement between two outcomes, for report text.
std::string describe_divergence(const Outcome& base, const Outcome& other) {
  if (base.status != other.status) {
    return std::string("baseline ") +
           (base.status == SimResult::Status::Quiescent ? "quiesces"
                                                        : "hits max-cycles") +
           " but the witness schedule " +
           (other.status == SimResult::Status::Quiescent ? "quiesces"
                                                         : "hits max-cycles");
  }
  if (base.root_completed != other.root_completed) {
    return std::string("root behavior ") +
           (base.root_completed ? "completes" : "does not complete") +
           " under the baseline but " +
           (other.root_completed ? "completes" : "does not complete") +
           " under the witness schedule";
  }
  for (const auto& [name, value] : base.final_vars) {
    auto it = other.final_vars.find(name);
    if (it != other.final_vars.end() && it->second != value) {
      return "final value of '" + name + "' is " + std::to_string(value) +
             " under the baseline schedule but " + std::to_string(it->second) +
             " under the witness";
    }
  }
  for (const auto& [name, seq] : base.writes) {
    auto it = other.writes.find(name);
    if (it == other.writes.end() || it->second != seq) {
      return "observable write sequence of '" + name +
             "' differs between the baseline and the witness schedule";
    }
  }
  for (const auto& [name, seq] : other.writes) {
    (void)seq;
    if (base.writes.find(name) == base.writes.end()) {
      return "observable write sequence of '" + name +
             "' differs between the baseline and the witness schedule";
    }
  }
  return "observable outcomes differ";
}

}  // namespace

Outcome outcome_of(const SimResult& r, const std::string& root_behavior) {
  Outcome o;
  o.status = r.status;
  o.root_completed = r.root_completed;
  if (!o.root_completed && !root_behavior.empty()) {
    auto it = r.behavior_completions.find(root_behavior);
    o.root_completed =
        it != r.behavior_completions.end() && it->second > 0;
  }
  o.final_vars = r.final_vars;
  for (const WriteEvent& w : r.observable_writes) {
    o.writes[w.var].push_back(w.value);
  }
  return o;
}

Outcome Outcome::project(const std::set<std::string>& vars) const {
  Outcome out;
  out.status = status;
  out.root_completed = root_completed;
  for (const auto& [name, value] : final_vars) {
    if (vars.count(name) != 0) out.final_vars.emplace(name, value);
  }
  for (const auto& [name, seq] : writes) {
    if (vars.count(name) != 0) out.writes.emplace(name, seq);
  }
  return out;
}

std::string Outcome::digest() const {
  std::string out =
      status == SimResult::Status::Quiescent ? "quiescent" : "max-cycles";
  out += root_completed ? " root-done" : " root-incomplete";
  for (const auto& [name, value] : final_vars) {
    out += ' ';
    out += name;
    out += '=';
    out += std::to_string(value);
  }
  for (const auto& [name, seq] : writes) {
    out += ' ';
    out += name;
    out += ":[";
    for (size_t i = 0; i < seq.size(); ++i) {
      if (i != 0) out += ',';
      out += std::to_string(seq[i]);
    }
    out += ']';
  }
  return out;
}

ExploreResult explore(const Specification& spec, const Context& ctx,
                      const ExploreOptions& opts) {
  return explore_from(spec, ctx, opts,
                      run_schedule(spec, opts.config, {}, nullptr));
}

ExploreResult explore_from(const Specification& spec, const Context& ctx,
                           const ExploreOptions& opts,
                           const SimResult& baseline) {
  telemetry::Span span("explore", telemetry::Stability::Stable);
  const auto races = racing_pairs(ctx);

  ExploreResult result;
  const size_t bound = std::max<size_t>(1, opts.max_schedules);

  // Prefix frontier. A candidate prefix is the taken trace of some explored
  // run up to decision d, with one alternative pick substituted at d; the
  // run it seeds replays that prefix and continues canonically. Expanding
  // only decisions at or past the seeding prefix's length keeps proposals
  // unique up to the dedupe set (earlier decisions were expanded by the
  // ancestors that ran them).
  std::deque<std::vector<uint32_t>> frontier;
  std::set<std::string> seen;

  auto expand = [&](const std::vector<uint32_t>& taken,
                    const std::vector<SchedDecision>& decisions,
                    size_t from_decision) {
    for (size_t d = from_decision; d < decisions.size(); ++d) {
      const SchedDecision& dec = decisions[d];
      const size_t k = dec.ready.size();
      for (uint32_t alt = 0; alt < k; ++alt) {
        if (alt == dec.pick) continue;
        bool allowed = !opts.prune;
        if (opts.prune) {
          // Picking `alt` ahead of its turn reorders it against every other
          // ready process; the branch matters only if one of those pairs is
          // statically racing.
          for (size_t other = 0; other < k && !allowed; ++other) {
            if (other == alt) continue;
            allowed = is_racing(races, dec.ready[alt], dec.ready[other]);
          }
        }
        if (!allowed) {
          ++result.pruned;
          continue;
        }
        std::vector<uint32_t> prefix(taken.begin(), taken.begin() + d);
        prefix.push_back(alt);
        if (seen.insert(prefix_key(prefix)).second) {
          frontier.push_back(std::move(prefix));
        }
      }
    }
  };

  // Baseline: the canonical schedule (empty pick trace) takes pick 0 at
  // every decision point.
  for (const SchedDecision& d : baseline.sched_decisions) {
    if (d.pick != 0) {
      throw SpecError("schedule exploration: the baseline run is not the "
                      "canonical schedule");
    }
  }
  seen.insert(prefix_key({}));
  std::vector<uint32_t> base_taken(baseline.sched_decisions.size(), 0);
  expand(base_taken, baseline.sched_decisions, 0);
  result.schedules.push_back({std::move(base_taken),
                              outcome_of(baseline, opts.root_behavior),
                              false});

  // By value: the loop below grows result.schedules, and a reallocation
  // would dangle a reference into it.
  const Outcome base_outcome = result.schedules.front().outcome;
  while (!frontier.empty() && result.schedules.size() < bound) {
    // One wave: as many frontier prefixes as the budget still allows, run
    // as one (optionally parallel) batch, merged in index order so the
    // result is byte-identical for any worker count.
    const size_t wave =
        std::min(frontier.size(), bound - result.schedules.size());
    std::vector<std::vector<uint32_t>> prefixes;
    prefixes.reserve(wave);
    for (size_t i = 0; i < wave; ++i) {
      prefixes.push_back(std::move(frontier.front()));
      frontier.pop_front();
    }
    std::vector<RunResult> runs;
    if (opts.pool != nullptr && wave > 1) {
      runs = batch::run_batch<RunResult>(
          *opts.pool, wave, [&](size_t job, batch::WorkerContext& wctx) {
            return run_one(spec, opts.config, prefixes[job], wctx.programs,
                           opts.root_behavior);
          });
    } else {
      runs.reserve(wave);
      for (const auto& prefix : prefixes) {
        runs.push_back(
            run_one(spec, opts.config, prefix, nullptr, opts.root_behavior));
      }
    }
    for (size_t i = 0; i < runs.size(); ++i) {
      RunResult& run = runs[i];
      const bool divergent = !(run.outcome == base_outcome);
      expand(run.taken, run.decisions, prefixes[i].size());
      if (divergent) {
        ++result.divergent;
        if (result.witness.empty()) {
          result.witness = format_witness(run.taken);
          result.divergence = describe_divergence(base_outcome, run.outcome);
        }
      }
      result.schedules.push_back(
          {std::move(run.taken), std::move(run.outcome), divergent});
    }
  }

  result.explored = result.schedules.size();
  result.complete = frontier.empty();
  if (telemetry::enabled()) {
    telemetry::count("sched.explored", telemetry::Stability::Stable,
                     result.explored);
    telemetry::count("sched.pruned", telemetry::Stability::Stable,
                     result.pruned);
    telemetry::count("sched.divergent", telemetry::Stability::Stable,
                     result.divergent);
    if (!result.witness.empty()) {
      telemetry::count("sched.witnesses", telemetry::Stability::Stable, 1);
    }
  }
  return result;
}

InclusionResult check_inclusion(const Specification& original,
                                const Specification& refined,
                                const ExploreOptions& opts) {
  const ExploreResult orig = explore(original, Context(original), opts);
  return check_inclusion(original, orig, refined,
                         run_schedule(refined, opts.config, {}, nullptr),
                         opts);
}

InclusionResult check_inclusion(const Specification& original,
                                const ExploreResult& orig,
                                const Specification& refined,
                                const SimResult& refined_baseline,
                                const ExploreOptions& opts) {
  const Context rctx(refined);
  // The refined top is a Concurrent composite whose server behaviors never
  // complete; liveness there means the original top behavior finished
  // inside it (outcome_of's fallback, as in sim/equivalence).
  ExploreOptions ropts = opts;
  if (original.top != nullptr) ropts.root_behavior = original.top->name;
  const ExploreResult refd =
      explore_from(refined, rctx, ropts, refined_baseline);

  InclusionResult result;
  result.original_explored = orig.explored;
  result.refined_explored = refd.explored;

  // Partition consistency is stated over the original specification's
  // observables; the refined runs are projected onto them (bus registers and
  // handshake scratch introduced by refinement are not outcomes). Status and
  // root-completion stay part of the projected outcome: a schedule that
  // deadlocks where the original terminated is a real divergence.
  std::set<std::string> vars;
  for (const VarDecl* v : original.all_vars()) vars.insert(v->name);

  const auto digest_of = [&](const Schedule& s) {
    Outcome p = s.outcome.project(vars);
    if (!opts.compare_write_traces) p.writes.clear();
    return p.digest();
  };
  std::set<std::string> permitted;
  for (const Schedule& s : orig.schedules) {
    permitted.insert(digest_of(s));
  }
  for (const Schedule& s : refd.schedules) {
    const std::string digest = digest_of(s);
    if (permitted.count(digest) != 0) continue;
    if (!orig.complete) {
      // The escaping outcome may simply be missing from a truncated
      // enumeration of the original; don't call that a bug.
      result.inconclusive = true;
      continue;
    }
    result.holds = false;
    result.violation = "refined outcome under schedule '" +
                       format_witness(s.picks) +
                       "' is not an outcome the original permits over " +
                       std::to_string(orig.explored) +
                       " explored original schedules: " + digest;
    break;
  }
  return result;
}

}  // namespace specsyn::analysis::schedules

namespace specsyn::analysis {

void check_schedules(const Specification& spec, Report& report,
                     const ScheduleCheckOptions& opts) {
  const Context ctx(spec);
  schedules::ExploreOptions eopts;
  eopts.max_schedules = opts.max_schedules;
  eopts.config = opts.config;
  eopts.pool = opts.pool;
  const schedules::ExploreResult explored =
      schedules::explore(spec, ctx, eopts);

  report.schedules.ran = true;
  report.schedules.explored = explored.explored;
  report.schedules.pruned = explored.pruned;
  report.schedules.divergent = explored.divergent;
  report.schedules.complete = explored.complete;

  if (!explored.diverged()) return;
  // Dynamic evidence upgrades the static race reports: the same witness
  // replays the divergent run that proves the SA020s are not false alarms.
  for (Finding& f : report.findings) {
    if (f.code == "SA020") f.witness = explored.witness;
  }
  Finding f;
  f.code = "SA021";
  f.severity = Severity::Error;
  f.message = "schedule-sensitive outcome: " + explored.divergence + " (" +
              std::to_string(explored.divergent) + " of " +
              std::to_string(explored.explored) +
              " explored schedules diverge)";
  f.witness = explored.witness;
  report.findings.push_back(std::move(f));
}

}  // namespace specsyn::analysis

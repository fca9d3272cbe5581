// Batch engine tests: thread-pool correctness (ordering, load balance,
// worker contexts, exception discipline), the lowered-program cache,
// Simulator reuse via reset(), parallel equivalence, and the engine-level
// determinism contract (sweep and fuzz output identical for any worker
// count).
#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <mutex>
#include <set>
#include <sstream>

#include "analysis/context.h"
#include "analysis/schedules/explore.h"
#include "batch/sweep.h"
#include "batch/thread_pool.h"
#include "estimate/profile.h"
#include "fuzz/fuzzer.h"
#include "graph/access_graph.h"
#include "partition/partition.h"
#include "partition/partitioner.h"
#include "refine/refiner.h"
#include "sim/equivalence.h"
#include "sim/program_cache.h"
#include "spec/mutate.h"
#include "telemetry/telemetry.h"
#include "test_util.h"
#include "workloads/medical.h"

namespace specsyn::batch {
namespace {

// -- thread pool -------------------------------------------------------------

TEST(ThreadPool, RunBatchOrdersResultsForAnyWorkerCount) {
  for (size_t workers : {1u, 2u, 4u, 8u}) {
    ThreadPool pool(workers);
    EXPECT_EQ(pool.workers(), workers);
    const auto results = run_batch<size_t>(
        pool, 100, [](size_t job, WorkerContext&) { return job * job; });
    ASSERT_EQ(results.size(), 100u);
    for (size_t i = 0; i < results.size(); ++i) EXPECT_EQ(results[i], i * i);
  }
}

TEST(ThreadPool, EveryJobRunsExactlyOnce) {
  ThreadPool pool(3);
  std::mutex mu;
  std::set<size_t> seen;
  pool.for_each(500, [&](size_t job, WorkerContext&) {
    std::lock_guard<std::mutex> lock(mu);
    EXPECT_TRUE(seen.insert(job).second) << "job " << job << " ran twice";
  });
  EXPECT_EQ(seen.size(), 500u);
}

TEST(ThreadPool, SlowJobDoesNotHoldBackTheRest) {
  // Job 0 blocks its worker until every other job has run, so the other
  // worker must claim all of them: no job waits behind a slow one.
  constexpr size_t kJobs = 64;
  ThreadPool pool(2);
  std::mutex mu;
  std::condition_variable cv;
  size_t others_done = 0;
  pool.for_each(kJobs, [&](size_t job, WorkerContext&) {
    std::unique_lock<std::mutex> lock(mu);
    if (job == 0) {
      EXPECT_TRUE(cv.wait_for(lock, std::chrono::seconds(10),
                              [&] { return others_done == kJobs - 1; }))
          << others_done << " of " << kJobs - 1 << " other jobs ran";
    } else {
      ++others_done;
      cv.notify_all();
    }
  });
  EXPECT_EQ(others_done, kJobs - 1);
}

TEST(ThreadPool, WorkersGetDistinctArenas) {
  ThreadPool pool(4);
  std::mutex mu;
  std::set<ProgramCache*> caches;
  size_t max_worker = 0;
  pool.for_each(64, [&](size_t, WorkerContext& ctx) {
    std::lock_guard<std::mutex> lock(mu);
    ASSERT_NE(ctx.programs, nullptr);
    caches.insert(ctx.programs);
    max_worker = std::max(max_worker, ctx.worker);
  });
  EXPECT_LE(caches.size(), 4u);  // one cache per worker, never more
  EXPECT_LT(max_worker, 4u);
}

TEST(ThreadPool, LowestFailingJobIndexWins) {
  ThreadPool pool(4);
  try {
    pool.for_each(50, [](size_t job, WorkerContext&) {
      if (job % 7 == 3) {  // 3, 10, 17, ... all throw; 3 must surface
        throw SpecError("job " + std::to_string(job) + " failed");
      }
    });
    FAIL() << "expected SpecError";
  } catch (const SpecError& e) {
    EXPECT_STREQ(e.what(), "job 3 failed");
  }
}

TEST(ThreadPool, ReusableAfterBatchError) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.for_each(8,
                             [](size_t, WorkerContext&) {
                               throw SpecError("boom");
                             }),
               SpecError);
  const auto results =
      run_batch<int>(pool, 10, [](size_t job, WorkerContext&) {
        return static_cast<int>(job) + 1;
      });
  EXPECT_EQ(results[9], 10);
}

TEST(ThreadPool, NestedForEachIsRejectedNotDeadlocked) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.for_each(1,
                             [&](size_t, WorkerContext&) {
                               pool.for_each(1, [](size_t, WorkerContext&) {});
                             }),
               SpecError);
}

TEST(ThreadPool, ZeroJobsIsANoop) {
  ThreadPool pool(2);
  pool.for_each(0, [](size_t, WorkerContext&) { FAIL() << "ran a job"; });
}

// -- program cache -----------------------------------------------------------

TEST(ProgramCache, ContentIdenticalSpecsShareOneProgram) {
  const Specification spec = testing::abc_spec(2);
  const Specification copy = spec.clone();
  ProgramCache cache;
  SimConfig cfg;
  cfg.exec_tier = ExecTier::Bytecode;  // the tree tier compiles nothing
  Simulator s1(spec, cfg, &cache);
  Simulator s2(copy, cfg, &cache);  // distinct object, same content
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 1u);

  const SimResult a = s1.run();
  const SimResult b = s2.run();
  const SimResult plain = testing::run(spec, cfg);
  EXPECT_EQ(a.end_time, plain.end_time);
  EXPECT_EQ(a.final_vars, plain.final_vars);
  EXPECT_EQ(b.final_vars, plain.final_vars);
  EXPECT_EQ(a.behavior_completions, plain.behavior_completions);
}

TEST(ProgramCache, SimConfigChangeMisses) {
  const Specification spec = testing::abc_spec(2);
  ProgramCache cache;
  SimConfig cfg;
  cfg.exec_tier = ExecTier::Lowered;
  { Simulator s(spec, cfg, &cache); }
  SimConfig bytecode = cfg;
  bytecode.exec_tier = ExecTier::Bytecode;  // the tier is part of the key
  { Simulator s(spec, bytecode, &cache); }
  EXPECT_EQ(cache.stats().misses, 2u);
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(ProgramCache, LruEvictionAtCapacity) {
  ProgramCache cache(/*capacity=*/2);
  SimConfig cfg;
  cfg.exec_tier = ExecTier::Bytecode;
  const Specification s1 = testing::abc_spec(0);
  const Specification s2 = testing::abc_spec(2);
  const Specification s3 = testing::abc_spec(5);
  { Simulator sim(s1, cfg, &cache); }
  { Simulator sim(s2, cfg, &cache); }
  { Simulator sim(s3, cfg, &cache); }  // evicts s1 (least recently used)
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().evictions, 1u);
  { Simulator sim(s1, cfg, &cache); }  // gone -> miss again
  EXPECT_EQ(cache.stats().misses, 4u);
  EXPECT_EQ(cache.stats().hits, 0u);

  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
}

TEST(ProgramCache, CachedProgramOutlivesEvictionWhileSimulatorUsesIt) {
  ProgramCache cache(/*capacity=*/1);
  SimConfig cfg;
  cfg.exec_tier = ExecTier::Bytecode;
  const Specification s1 = testing::abc_spec(2);
  const Specification s2 = testing::abc_spec(5);
  Simulator sim(s1, cfg, &cache);        // holds the cached program alive
  { Simulator other(s2, cfg, &cache); }  // evicts s1's entry from the cache
  EXPECT_EQ(cache.stats().evictions, 1u);
  const SimResult r = sim.run();  // must still run on the evicted program
  EXPECT_EQ(r.final_vars, testing::run(s1, cfg).final_vars);
}

// -- simulator reset ---------------------------------------------------------

TEST(SimulatorReset, RerunIsBitIdentical) {
  const Specification spec = testing::medical_like_spec();
  Simulator sim(spec);
  const SimResult first = sim.run();
  EXPECT_THROW((void)sim.run(), SpecError);  // still once-only without reset
  sim.reset();
  const SimResult second = sim.run();
  EXPECT_EQ(first.end_time, second.end_time);
  EXPECT_EQ(first.steps, second.steps);
  EXPECT_EQ(first.root_completed, second.root_completed);
  EXPECT_EQ(first.final_vars, second.final_vars);
  EXPECT_EQ(first.observable_writes, second.observable_writes);
  EXPECT_EQ(first.behavior_completions, second.behavior_completions);
}

TEST(SimulatorReset, WorksOnLegacyInterpreterToo) {
  const Specification spec = testing::abc_spec(2);
  SimConfig cfg;
  cfg.exec_tier = ExecTier::Tree;
  Simulator sim(spec, cfg);
  const SimResult first = sim.run();
  sim.reset();
  const SimResult second = sim.run();
  EXPECT_EQ(first.final_vars, second.final_vars);
  EXPECT_EQ(first.end_time, second.end_time);
}

// -- parallel equivalence ----------------------------------------------------

TEST(ParallelEquivalence, MatchesSerialReport) {
  const Specification spec = testing::medical_like_spec();
  AccessGraph graph = build_access_graph(spec);
  Partition part(spec, Allocation::proc_plus_asic());
  part.auto_assign_vars(graph);
  RefineConfig rc;
  rc.model = ImplModel::Model2;
  const RefineResult refined = refine(part, graph, rc);

  EquivalenceOptions serial;
  serial.config.exec_tier = ExecTier::Bytecode;  // so the cache compiles
  EquivalenceOptions parallel = serial;
  parallel.parallel = true;
  ProgramCache cache;
  parallel.programs = &cache;

  const EquivalenceReport a = check_equivalence(spec, refined.refined, serial);
  const EquivalenceReport b =
      check_equivalence(spec, refined.refined, parallel);
  EXPECT_TRUE(a.equivalent);
  EXPECT_EQ(a.equivalent, b.equivalent);
  EXPECT_EQ(a.mismatches, b.mismatches);
  EXPECT_EQ(a.original_result.end_time, b.original_result.end_time);
  EXPECT_EQ(a.refined_result.end_time, b.refined_result.end_time);
  EXPECT_EQ(a.refined_result.final_vars, b.refined_result.final_vars);
  EXPECT_GE(cache.stats().misses, 1u);
}

// -- sweep -------------------------------------------------------------------

TEST(Sweep, FullMatrixShape) {
  const auto matrix = full_matrix();
  ASSERT_EQ(matrix.size(), 32u);
  std::set<std::string> labels;
  for (const SweepPoint& p : matrix) labels.insert(p.label());
  EXPECT_EQ(labels.size(), 32u);  // all points distinct
  EXPECT_EQ(model_axis().size(), 4u);
  EXPECT_EQ(model_axis()[2].label(), "model3/hs/loop/inline");
}

TEST(Sweep, JsonIdenticalForAnyWorkerCount) {
  const Specification spec = testing::medical_like_spec();
  AccessGraph graph = build_access_graph(spec);
  Partition part(spec, Allocation::proc_plus_asic());
  part.auto_assign_vars(graph);
  const ProfileResult prof = profile_spec(spec);

  SweepOptions opts;
  opts.verify = true;
  ThreadPool serial(1);
  ThreadPool wide(4);
  const SweepReport a =
      run_sweep(spec, part, graph, prof, full_matrix(), opts, serial);
  const SweepReport b =
      run_sweep(spec, part, graph, prof, full_matrix(), opts, wide);
  EXPECT_EQ(a.json(), b.json());
  EXPECT_EQ(a.table(), b.table());

  ASSERT_EQ(a.rows.size(), 32u);
  for (const SweepRow& r : a.rows) {
    EXPECT_TRUE(r.refine_ok) << r.point.label() << ": " << r.error;
    EXPECT_TRUE(r.equivalent) << r.point.label();
    // Shared-procedure configs can carry pre-existing SA020 findings on
    // single-component partitions; the sweep just reports them. Inlined
    // configs must be verifier-clean.
    if (r.point.config.inline_protocols) {
      EXPECT_EQ(r.sa_errors, 0u) << r.point.label();
    }
  }
}

TEST(Sweep, VerifySimulatesEachSpecOnce) {
  // Each point's measured run is also its equivalence run and its schedule
  // baseline, and the original is simulated and explored once per sweep:
  // 4 refined runs + 1 original. The medical models are race-free, so every
  // exploration stops at its baseline.
  const Specification spec = make_medical_system();
  const AccessGraph graph = build_access_graph(spec);
  const PartitionerResult design = make_medical_design(spec, graph, 3);
  const ProfileResult prof = profile_spec(spec);
  SweepOptions opts;
  opts.verify = true;
  opts.explore_schedules = 4;
  ThreadPool pool(2);

  telemetry::reset();
  telemetry::enable(/*stats=*/true, /*trace=*/false);
  const SweepReport rep = run_sweep(spec, design.partition, graph, prof,
                                    model_axis(), opts, pool);
  const telemetry::Snapshot snap = telemetry::snapshot();
  telemetry::enable(false, false);
  telemetry::reset();

  ASSERT_EQ(rep.rows.size(), 4u);
  for (const SweepRow& r : rep.rows) {
    EXPECT_TRUE(r.refine_ok) << r.point.label() << ": " << r.error;
    EXPECT_TRUE(r.equivalent) << r.point.label();
    EXPECT_TRUE(r.sched_consistent) << r.point.label();
    EXPECT_EQ(r.sched_explored, 1u) << r.point.label();
  }
  EXPECT_EQ(snap.counters.at("sim.runs").value, 4u + 1u);
  EXPECT_EQ(snap.counters.at("sched.explored").value, 4u + 1u);
  // The measured runs were recorded: their decision points reached the
  // explorer, which pruned the branches there.
  EXPECT_GT(snap.counters.at("sched.pruned").value, 0u);
  // Points compile without the worker's program cache.
  for (const auto& [name, counter] : snap.counters) {
    EXPECT_FALSE(name.starts_with("cache.l1.")) << name;
  }
}

// -- checks over shared runs -------------------------------------------------

/// Deletes the first `<bus>_done <= 1` update of a refined spec: its
/// protocol then never acknowledges a transfer (the fuzzer's DropDoneUpdate
/// planted bug).
bool drop_done_update(Specification& refined) {
  return remove_first_matching_stmt(refined, [](const Stmt& s) {
    return s.kind == Stmt::Kind::SignalAssign && s.target.ends_with("_done") &&
           s.expr->kind == Expr::Kind::IntLit && s.expr->int_value == 1;
  });
}

TEST(SharedRuns, ChecksOverPrecomputedRunsStillFail) {
  const Specification spec = make_medical_system();
  const AccessGraph graph = build_access_graph(spec);
  const PartitionerResult design = make_medical_design(spec, graph, 1);
  const RefineResult r = refine(design.partition, graph, RefineConfig{});
  Specification broken = r.refined.clone();
  ASSERT_TRUE(drop_done_update(broken));

  // Every spec runs once, recorded, as in a verified sweep.
  SimConfig cfg;
  cfg.max_cycles = 1'000'000;
  cfg.record_schedule = true;
  const SimResult original = testing::run(spec, cfg);
  analysis::schedules::ExploreOptions xo;
  xo.max_schedules = 4;
  xo.config = cfg;
  const analysis::schedules::ExploreResult orig =
      analysis::schedules::explore_from(spec, analysis::Context(spec), xo,
                                        original);
  EquivalenceOptions eo;
  eo.config = cfg;

  const SimResult clean_run = testing::run(r.refined, cfg);
  const EquivalenceReport clean =
      compare_runs(spec, original, clean_run, eo);
  EXPECT_TRUE(clean.equivalent) << clean.summary();
  const analysis::schedules::InclusionResult clean_inc =
      analysis::schedules::check_inclusion(spec, orig, r.refined, clean_run,
                                           xo);
  EXPECT_TRUE(clean_inc.holds) << clean_inc.violation;

  const SimResult broken_run = testing::run(broken, cfg);
  EXPECT_FALSE(compare_runs(spec, original, broken_run, eo).equivalent);
  const analysis::schedules::InclusionResult broken_inc =
      analysis::schedules::check_inclusion(spec, orig, broken, broken_run, xo);
  EXPECT_FALSE(broken_inc.holds);
  EXPECT_FALSE(broken_inc.violation.empty());
}

TEST(SharedRuns, CompareRunsMatchesCheckEquivalence) {
  const Specification spec = make_medical_system();
  const AccessGraph graph = build_access_graph(spec);
  const PartitionerResult design = make_medical_design(spec, graph, 1);
  const RefineResult r = refine(design.partition, graph, RefineConfig{});
  Specification broken = r.refined.clone();
  ASSERT_TRUE(drop_done_update(broken));

  EquivalenceOptions eo;
  eo.config.max_cycles = 1'000'000;
  const Specification* const refinements[] = {&r.refined, &broken};
  for (const Specification* refined : refinements) {
    const EquivalenceReport full = check_equivalence(spec, *refined, eo);
    const EquivalenceReport cmp =
        compare_runs(spec, full.original_result, full.refined_result, eo);
    EXPECT_EQ(full.equivalent, refined == &r.refined) << full.summary();
    EXPECT_EQ(cmp.equivalent, full.equivalent);
    EXPECT_EQ(cmp.mismatches, full.mismatches);
  }
}

// -- fuzz --jobs -------------------------------------------------------------

TEST(FuzzJobs, ReportAndLogIdenticalForAnyJobCount) {
  namespace fs = std::filesystem;
  const fs::path out = fs::temp_directory_path() / "specsyn_fuzz_jobs_test";
  fs::remove_all(out);

  fuzz::FuzzOptions opts;
  opts.seeds = 10;
  opts.out_dir = (out / "repro").string();
  opts.inject = fuzz::InjectedBug::CorruptDataUpdate;  // force failures
  opts.reduce = true;

  std::ostringstream log1, log4;
  opts.jobs = 1;
  const fuzz::FuzzReport r1 = fuzz::run_fuzz(opts, log1);
  opts.jobs = 4;
  const fuzz::FuzzReport r4 = fuzz::run_fuzz(opts, log4);

  EXPECT_EQ(log1.str(), log4.str());
  EXPECT_EQ(r1.json(), r4.json());
  EXPECT_EQ(r1.seeds_run, 10u);
  EXPECT_FALSE(r1.failures.empty());  // the planted bug must be caught
  fs::remove_all(out);
}

}  // namespace
}  // namespace specsyn::batch

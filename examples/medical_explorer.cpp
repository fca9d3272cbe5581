// Medical explorer: the paper's Section 5 experiment as an interactive-style
// report — explores all four implementation models for each of the three
// partitions of the bladder-volume system and recommends a model per design,
// the way a designer would use SpecSyn's refinement to compare communication
// styles.
//
// The per-model refine/price/simulate loop is the batch sweep engine
// (batch/sweep.h): each design fans its four models over a shared worker
// pool, and the printed numbers are bit-identical to a serial run by the
// engine's determinism contract.
//
// Usage: ./build/examples/medical_explorer [design]   (design in 1..3;
//        default: all three)
#include <cstdio>
#include <cstdlib>

#include "batch/sweep.h"
#include "batch/thread_pool.h"
#include "estimate/profile.h"
#include "graph/access_graph.h"
#include "printer/printer.h"
#include "refine/selector.h"
#include "workloads/medical.h"

using namespace specsyn;

namespace {

void explore(const Specification& spec, const AccessGraph& graph,
             const ProfileResult& prof, int design, batch::ThreadPool& pool) {
  auto d = make_medical_design(spec, graph, design);
  std::printf("\nDesign%d: %zu local / %zu global variables\n", design,
              d.local_vars, d.global_vars);

  // Fan the four models over the pool: refine, static rates + cost, and a
  // measured (BusTracer) simulation per model, all in one engine call.
  batch::SweepOptions opts;  // defaults: 100 MHz clock, bytecode interpreter
  const batch::SweepReport swept = batch::run_sweep(
      spec, d.partition, graph, prof, batch::model_axis(), opts, pool);

  // Print in model order (rows come back ranked; matrix_index restores the
  // Model1..Model4 axis).
  std::vector<const batch::SweepRow*> by_model(swept.rows.size());
  for (const batch::SweepRow& r : swept.rows) by_model[r.matrix_index] = &r;
  for (const batch::SweepRow* r : by_model) {
    if (!r->refine_ok) {
      std::printf("  %s: FAILED: %s\n", to_string(r->point.config.model),
                  r->error.c_str());
      continue;
    }
    std::printf("  %s: peak bus %7.0f Mbit/s, %zu buses, cost %7.1f, "
                "%zu lines\n",
                to_string(r->point.config.model), r->peak_mbps, r->buses,
                r->cost, r->lines);

    // Measured (simulated) bus traffic alongside the static estimate: which
    // bus actually saturates, and how long masters fight the arbiter for it.
    std::printf("      measured: %llu cycles, busiest bus %s at %.1f%% "
                "util, contention %llu cycles\n",
                static_cast<unsigned long long>(r->cycles),
                r->busiest_bus.empty() ? "-" : r->busiest_bus.c_str(),
                r->peak_util_pct,
                static_cast<unsigned long long>(r->contention_cycles));
  }

  // Recommend via the automatic selector: feasible under a max bus-rate
  // constraint, then cheapest (exactly the paper's closing advice).
  SelectionConstraints constraints;
  constraints.max_bus_mbps = 4000;  // designer's bus-technology limit
  SelectionResult sel = select_model(d.partition, graph, prof, constraints);
  if (const Candidate* rec = sel.recommended()) {
    std::printf("  -> recommended under %.0f Mbit/s bus limit: %s "
                "(peak %.0f, cost %.1f)\n",
                constraints.max_bus_mbps, to_string(rec->config.model),
                rec->peak_mbps, rec->cost);
  } else {
    std::printf("  -> no model satisfies the %.0f Mbit/s bus limit\n",
                constraints.max_bus_mbps);
  }
}

}  // namespace

int main(int argc, char** argv) {
  Specification spec = make_medical_system();
  AccessGraph graph = build_access_graph(spec);
  std::printf("medical system: %zu behaviors, %zu variables, %zu channels, "
              "%zu-line specification\n",
              spec.all_behaviors().size(), spec.all_vars().size(),
              graph.data_channel_pairs(), count_lines(spec));
  ProfileResult prof = profile_spec(spec);
  std::printf("profiled: %llu cycles end-to-end, %zu dynamic channels\n",
              static_cast<unsigned long long>(prof.sim.end_time),
              prof.channel_count());

  batch::ThreadPool pool(batch::ThreadPool::default_workers());
  if (argc > 1) {
    explore(spec, graph, prof, std::atoi(argv[1]), pool);
  } else {
    for (int design = 1; design <= 3; ++design) {
      explore(spec, graph, prof, design, pool);
    }
  }
  std::printf(
      "\nconclusion (paper, Section 5): the best communication model is both\n"
      "application- and partition-dependent — exploring all of them per\n"
      "design is exactly what automatic model refinement buys.\n");
  return 0;
}

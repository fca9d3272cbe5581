// Quickstart: the complete model-refinement flow on the paper's Section 2
// example, in ~100 lines.
//
//   1. Write a functional specification in SpecLang (behaviors A, B, C and
//      variable x — Figure 1(a)).
//   2. Derive its access graph (channels).
//   3. Allocate a processor + ASIC and partition: A, C -> PROC; B, x -> ASIC
//      (Figure 1(c)).
//   4. Refine to an implementation model (Model1: shared bus + global
//      memories) — control stubs, protocol transfers, memories, arbiter all
//      inserted automatically (Figure 1(d)).
//   5. Simulate both specifications and check functional equivalence.
//
// Build & run:  ./build/examples/quickstart
#include <cstdio>

#include "graph/access_graph.h"
#include "parser/parser.h"
#include "partition/partition.h"
#include "printer/printer.h"
#include "refine/refiner.h"
#include "sim/equivalence.h"

using namespace specsyn;

static const char* kSpec = R"(
spec Fig1;

observable var x : int16;
observable var r : int16;

behavior Main : seq {
  behavior A : leaf {
    x := 3;
  }
  behavior B : leaf {
    r := x + 10;
  }
  behavior C : leaf {
    r := x + 100;
  }
  transitions {
    A -> B when x > 1;
    A -> C when x < 1;
    B -> complete;
    C -> complete;
  }
}
)";

int main() {
  // 1. Parse the functional model.
  DiagnosticSink diags;
  auto parsed = parse_spec(kSpec, diags);
  if (!parsed) {
    std::fprintf(stderr, "parse failed:\n%s", diags.str().c_str());
    return 1;
  }
  Specification spec = std::move(*parsed);
  validate_or_throw(spec);
  std::printf("parsed '%s': %zu behaviors, %zu variables, %zu lines\n",
              spec.name.c_str(), spec.all_behaviors().size(),
              spec.all_vars().size(), count_lines(spec));

  // 2. Access graph: behaviors, variables and the channels between them.
  AccessGraph graph = build_access_graph(spec);
  std::printf("access graph: %zu data channel pairs, %zu control arcs\n",
              graph.data_channel_pairs(), graph.control_channels().size());

  // 3. Allocation + partition (Figure 1(b)/(c)).
  Partition part(spec, Allocation::proc_plus_asic());
  part.assign_behavior("B", 1);  // B -> ASIC
  part.assign_var("x", 1);       // x -> ASIC memory
  part.auto_assign_vars(graph);
  auto [local_vars, global_vars] = part.local_global_counts(graph);
  std::printf("partition: %zu local / %zu global variables, cut behaviors:",
              local_vars, global_vars);
  for (const auto& b : part.cut_behaviors()) std::printf(" %s", b.c_str());
  std::printf("\n");

  // 4. Refine to Model1 (single shared bus, global memories).
  RefineConfig cfg;
  cfg.model = ImplModel::Model1;
  RefineResult refined = refine(part, graph, cfg);
  std::printf("\nrefined to %s: %zu lines (%zux growth), %zu memories, "
              "%zu arbiters, %zu inlined protocol sites\n",
              to_string(cfg.model), count_lines(refined.refined),
              count_lines(refined.refined) / count_lines(spec),
              refined.stats.memories, refined.stats.arbiters,
              refined.stats.inlined_sites);

  // Show the generated control stub — the B_CTRL of Figure 4.
  if (const Behavior* stub = refined.refined.find_behavior("B_CTRL")) {
    std::printf("\ngenerated control stub (Figure 4):\n%s",
                print(*stub).c_str());
  }

  // 5. Both models must behave identically.
  EquivalenceReport rep = check_equivalence(spec, refined.refined);
  std::printf("\nfunctional equivalence: %s\n", rep.summary().c_str());
  std::printf("original end: t=%llu, refined end: t=%llu "
              "(protocol overhead stretches time, never values)\n",
              static_cast<unsigned long long>(rep.original_result.end_time),
              static_cast<unsigned long long>(rep.refined_result.end_time));
  std::printf("final x=%llu r=%llu\n",
              static_cast<unsigned long long>(
                  rep.refined_result.final_vars.at("x")),
              static_cast<unsigned long long>(
                  rep.refined_result.final_vars.at("r")));
  return rep.equivalent ? 0 : 1;
}

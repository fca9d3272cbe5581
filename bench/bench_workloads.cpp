// Generality check: the Figure 9/10 methodology applied to a second
// workload (the answering machine). The paper's conclusions are claimed to
// be application-dependent in *degree* but not in *kind*; this bench
// verifies the same qualitative structure on a different application:
//   - Model1's single bus is the hot spot,
//   - Model3 has the lowest peak rate and the smallest refined spec,
//   - Model4 pays interfaces in size,
//   - every refinement stays functionally equivalent.
#include <cstdio>

#include "bench_util.h"
#include "estimate/static_profile.h"
#include "printer/printer.h"
#include "sim/equivalence.h"
#include "workloads/answering.h"

using namespace specsyn;
using namespace specsyn::bench;

int main() {
  Specification spec = make_answering_machine();
  AccessGraph graph = build_access_graph(spec);
  ProfileResult prof = profile_spec(spec);
  const size_t orig_lines = count_lines(spec);

  std::printf("answering machine: %zu behaviors, %zu variables, %zu channels, "
              "%zu lines\n",
              spec.all_behaviors().size(), spec.all_vars().size(),
              graph.data_channel_pairs(), orig_lines);

  Partition part(spec, Allocation::proc_plus_asic());
  part.assign_behavior("WaitRing", 1);
  part.assign_behavior("SampleVoice", 1);
  part.assign_behavior("PlayGreeting", 1);
  part.auto_assign_vars(graph);
  auto [local_v, global_v] = part.local_global_counts(graph);
  std::printf("partition (front-end on ASIC): %zu local / %zu global vars\n",
              local_v, global_v);

  int fail = 0;
  Table t;
  t.header = {"Model", "peak Mbit/s", "buses", "arb", "iface", "lines",
              "growth", "equivalent"};
  double peaks[4];
  size_t lines[4];
  for (size_t mi = 0; mi < all_models().size(); ++mi) {
    RefineConfig cfg;
    cfg.model = all_models()[mi];
    RefineResult r = refine(part, graph, cfg);
    BusRateReport rates = bus_rates(prof, part, r.plan, 100e6);
    EquivalenceReport rep = check_equivalence(spec, r.refined);
    if (!rep.equivalent) ++fail;
    peaks[mi] = rates.max_rate();
    lines[mi] = count_lines(r.refined);
    t.rows.push_back({to_string(cfg.model), fmt(peaks[mi]),
                      std::to_string(r.stats.buses),
                      std::to_string(r.stats.arbiters),
                      std::to_string(r.stats.interfaces),
                      std::to_string(lines[mi]),
                      fmt(static_cast<double>(lines[mi]) /
                              static_cast<double>(orig_lines),
                          1) + "x",
                      rep.equivalent ? "yes" : "NO"});
  }
  t.print("four implementation models on the answering machine");

  auto check = [&](bool ok, const char* what) {
    std::printf("  [%s] %s\n", ok ? "ok" : "FAIL", what);
    if (!ok) ++fail;
  };
  std::printf("\nShape checks:\n");
  check(peaks[0] >= peaks[1] && peaks[1] >= peaks[2] - 1e-9,
        "peak rates: Model1 >= Model2 >= Model3");
  check(lines[2] <= lines[0] && lines[2] <= lines[1] && lines[2] <= lines[3],
        "Model3 smallest refined spec");
  check(lines[3] >= lines[1], "Model4 pays interfaces in size");
  check(lines[0] >= 6 * orig_lines, "order-of-magnitude growth");

  std::printf("\n%d failure(s)\n", fail);
  return fail == 0 ? 0 : 1;
}

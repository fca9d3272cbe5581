// Reproduces Figure 10: "Size of the refined specification and CPU time to
// obtain it" — lines of refined SpecLang text and refinement wall time for
// the three medical designs under the four implementation models.
//
// The paper (SPARC5, 1995) reports 2630-4324 lines from a 226-line input
// (11-19x growth) in 33-39 s. Absolute sizes/times differ here (different
// printer and a machine ~3 orders of magnitude faster); the reproducible
// shape, checked below:
//   - the refined spec is roughly an order of magnitude larger than the
//     original (the paper's ~10x productivity-gain claim);
//   - Model3 produces the *smallest* refined spec (dedicated buses need no
//     arbiters) and Model4 the *largest* (bus interfaces + request buses);
//   - refinement time grows with the produced specification.
#include <cstdio>

#include "bench_util.h"
#include "printer/printer.h"

using namespace specsyn;
using namespace specsyn::bench;

namespace {
const char* kPaperRows[3][4] = {
    {"3057/37s", "2815/35s", "2630/33s", "3377/37s"},
    {"3057/37s", "2743/34s", "2630/33s", "2985/37s"},
    {"3057/37s", "3032/37s", "2635/37s", "4324/39s"},
};
// This printer's exact sizes: the input and the 3 designs x Model1-4. The
// ordinal checks alone would pass a counter that is off by a line per
// statement, or a refiner that drops a whole protocol site.
constexpr size_t kOriginalLines = 104;
constexpr size_t kRefinedLines[3][4] = {
    {1451, 1327, 1209, 1611},
    {1409, 1217, 1143, 1585},
    {1451, 1445, 1221, 1563},
};
}  // namespace

int main() {
  Specification spec = make_medical_system();
  AccessGraph graph = build_access_graph(spec);
  const size_t orig_lines = count_lines(spec);

  std::printf("Figure 10 reproduction: refined spec size and refinement time\n");
  std::printf("original specification: %zu lines (paper: 226)\n", orig_lines);

  Table t;
  t.header = {"Design", "Model", "lines", "growth", "time(ms)", "paper"};

  size_t lines[4][4] = {};
  for (int design = 1; design <= 3; ++design) {
    auto d = make_medical_design(spec, graph, design);
    for (size_t mi = 0; mi < all_models().size(); ++mi) {
      RefineConfig cfg;
      cfg.model = all_models()[mi];
      RefineResult result = refine(d.partition, graph, cfg);
      const size_t n = count_lines(result.refined);
      const double ms = time_ms([&] {
        RefineResult r2 = refine(d.partition, graph, cfg);
        (void)r2;
      });
      lines[design][mi] = n;
      t.rows.push_back({mi == 0 ? design_label(design) : "",
                        to_string(cfg.model), std::to_string(n),
                        fmt(static_cast<double>(n) /
                                static_cast<double>(orig_lines),
                            1) + "x",
                        fmt(ms, 2), kPaperRows[design - 1][mi]});
    }
  }
  t.print("Figure 10 — refined lines / refinement time (paper: lines/CPU s)");

  std::printf("\nShape checks:\n");
  int pass = 0, fail = 0;
  auto check = [&](bool ok, const char* what) {
    std::printf("  [%s] %s\n", ok ? "ok" : "FAIL", what);
    (ok ? pass : fail) += 1;
  };
  check(orig_lines == kOriginalLines, "original specification is 104 lines");
  size_t model3_strictly_smallest = 0;
  for (int d = 1; d <= 3; ++d) {
    bool exact = true;
    for (size_t mi = 0; mi < 4; ++mi) {
      exact &= lines[d][mi] == kRefinedLines[d - 1][mi];
    }
    check(exact, "refined sizes match this printer's Figure 10 row");
    check(lines[d][0] >= 4 * orig_lines,
          "refined spec around an order of magnitude larger than input");
    // Model3 needs no per-site bus acquisition (dedicated buses): smallest,
    // up to a small partition-dependent tolerance against Model2 (multi-port
    // server duplication vs arbitration savings can tie).
    const double m3 = static_cast<double>(lines[d][2]);
    check(m3 <= 1.05 * static_cast<double>(lines[d][0]) &&
              m3 <= 1.05 * static_cast<double>(lines[d][1]) &&
              m3 <= 1.05 * static_cast<double>(lines[d][3]),
          "Model3 among the smallest refined specifications (<=5% of min)");
    if (lines[d][2] <= lines[d][0] && lines[d][2] <= lines[d][1] &&
        lines[d][2] <= lines[d][3]) {
      ++model3_strictly_smallest;
    }
    check(lines[d][3] >= lines[d][1],
          "Model4 (bus interfaces) larger than Model2");
  }
  check(model3_strictly_smallest >= 2,
        "Model3 strictly smallest in at least two of three designs");
  std::printf("\n%d shape checks passed, %d failed\n", pass, fail);
  return fail == 0 ? 0 : 1;
}

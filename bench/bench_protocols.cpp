// E9 (ablation): protocol choice — full-handshake (wide bus) vs byte-serial
// (8-bit bus, ceil(width/8) beats per access).
//
// Section 4.2: "Generally we can select different protocols to exchange
// data. When selecting a different bus protocol, the content in the
// subroutines ... will change correspondingly." The trade the ablation
// surfaces: byte-serial needs far fewer bus wires but pays in transactions,
// simulated transfer time and refined-spec size.
#include <cstdio>

#include "bench_util.h"
#include "estimate/cost.h"
#include "printer/printer.h"
#include "sim/simulator.h"

using namespace specsyn;
using namespace specsyn::bench;

int main() {
  Specification spec = make_medical_system();
  AccessGraph graph = build_access_graph(spec);
  auto d = make_medical_design(spec, graph, 1);
  ProfileResult prof = profile_spec(spec);

  std::printf("E9: protocol ablation on the medical system (Design1)\n");

  Table t;
  t.header = {"model", "protocol", "data wires", "addr wires", "lines",
              "sim cycles", "peak Mbit/s"};
  struct Cell {
    uint64_t cycles = 0;
    size_t lines = 0;
  };
  std::map<std::pair<int, int>, Cell> cells;

  for (ImplModel m : all_models()) {
    for (ProtocolStyle ps :
         {ProtocolStyle::FullHandshake, ProtocolStyle::ByteSerial}) {
      RefineConfig cfg;
      cfg.model = m;
      cfg.protocol = ps;
      RefineResult r = refine(d.partition, graph, cfg);
      Simulator sim(r.refined);
      SimResult res = sim.run();
      BusRateReport rates = bus_rates(prof, d.partition, r.plan, 100e6);
      const size_t lines = count_lines(r.refined);
      cells[{static_cast<int>(m), static_cast<int>(ps)}] = {res.end_time,
                                                            lines};
      t.rows.push_back({to_string(m), to_string(ps),
                        std::to_string(r.addresses.data_type().width),
                        std::to_string(r.addresses.addr_type().width),
                        std::to_string(lines), std::to_string(res.end_time),
                        fmt(rates.max_rate())});
    }
  }
  t.print("protocol styles compared");

  std::printf("\nShape checks:\n");
  int pass = 0, fail = 0;
  auto check = [&](bool ok, const char* what) {
    std::printf("  [%s] %s\n", ok ? "ok" : "FAIL", what);
    (ok ? pass : fail) += 1;
  };
  for (ImplModel m : all_models()) {
    const Cell hs = cells[{static_cast<int>(m), 0}];
    const Cell bs = cells[{static_cast<int>(m), 1}];
    check(bs.cycles > hs.cycles,
          "byte-serial needs more simulated cycles (multi-beat transfers)");
    check(bs.lines > hs.lines,
          "byte-serial refined spec larger (per-beat slave entries)");
  }
  std::printf("\n%d shape checks passed, %d failed\n", pass, fail);
  return fail == 0 ? 0 : 1;
}

// Static vs dynamic estimation (SpecSyn estimated statically; we can do
// both): compares the bus-rate picture of the medical system produced by
// the pattern-analysis static profile against the simulated profile.
//
// Absolute rates differ (static loop bounds and branch weights are
// heuristics); what must agree — and is checked — is the *decision-relevant
// shape*: which bus is each model's hot spot and how the models rank by
// peak rate. If the static estimator ranked the models differently from the
// simulation, exploration based on it would pick the wrong communication
// style.
#include <cstdio>

#include "bench_util.h"
#include "estimate/static_profile.h"

using namespace specsyn;
using namespace specsyn::bench;

int main() {
  Specification spec = make_medical_system();
  AccessGraph graph = build_access_graph(spec);
  ProfileResult dyn = profile_spec(spec);
  ProfileResult stat = static_profile(spec);

  std::printf("static vs dynamic profile, medical system\n");
  std::printf("  dynamic: %zu channels, end at %llu cycles\n",
              dyn.channel_count(),
              static_cast<unsigned long long>(dyn.sim.end_time));
  std::printf("  static:  %zu channels, estimated %llu cycles\n",
              stat.channel_count(),
              static_cast<unsigned long long>(stat.sim.end_time));

  int fail = 0;
  int hot_agree = 0, hot_total = 0;
  auto check = [&](bool ok, const char* what) {
    std::printf("  [%s] %s\n", ok ? "ok" : "FAIL", what);
    if (!ok) ++fail;
  };
  // Absolute anchors of the simulated profile (README quotes the 52
  // data-access channels). The rank checks below are ordinal, so a profile
  // that lost every read would still pass them.
  check(dyn.channel_count() == 52, "dynamic profile has 52 channels");
  check(dyn.sim.end_time == 315, "dynamic profile ends at cycle 315");

  Table t;
  t.header = {"Design", "Model", "dyn peak", "dyn hot bus", "stat peak",
              "stat hot bus"};
  for (int design = 1; design <= 3; ++design) {
    auto d = make_medical_design(spec, graph, design);
    std::vector<double> dyn_peaks, stat_peaks;
    for (ImplModel m : all_models()) {
      BusPlan plan = BusPlan::build(d.partition, graph, m);
      BusRateReport rd = bus_rates(dyn, d.partition, plan, 100e6);
      BusRateReport rs = bus_rates(stat, d.partition, plan, 100e6);
      auto hot = [](const BusRateReport& r) {
        std::string best;
        double rate = -1;
        for (const auto& [bus, mbps] : r.bus_mbps) {
          if (mbps > rate) {
            rate = mbps;
            best = bus;
          }
        }
        return best;
      };
      dyn_peaks.push_back(rd.max_rate());
      stat_peaks.push_back(rs.max_rate());
      t.rows.push_back({std::to_string(design), to_string(m),
                        fmt(rd.max_rate()), hot(rd), fmt(rs.max_rate()),
                        hot(rs)});
      if (hot(rd) == hot(rs)) ++hot_agree;
      ++hot_total;
    }
    // Peak-rate ranking of the four models must agree.
    auto rank = [](const std::vector<double>& v) {
      std::vector<size_t> idx = {0, 1, 2, 3};
      std::sort(idx.begin(), idx.end(),
                [&](size_t a, size_t b) { return v[a] < v[b]; });
      return idx;
    };
    check(rank(dyn_peaks) == rank(stat_peaks),
          "static and dynamic rank the four models identically");
  }
  t.print("peak bus rate and hot spot: dynamic vs static estimation");

  // Near-ties between buses may resolve differently under heuristic
  // lifetimes; demand agreement on the clear majority of cells.
  std::printf("\nhot-bus agreement: %d/%d\n", hot_agree, hot_total);
  check(hot_agree * 3 >= hot_total * 2,
        "static identifies the dynamic hot bus in >= 2/3 of cells");

  std::printf("\n%s\n", fail == 0 ? "static estimation decision-equivalent"
                                  : "STATIC/DYNAMIC DISAGREEMENT");
  return fail == 0 ? 0 : 1;
}

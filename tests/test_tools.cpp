// Tests for simulator tooling: VCD waveform export and blocked-process
// (deadlock) diagnostics.
#include <gtest/gtest.h>

#include "refine/refiner.h"
#include "sim/vcd.h"
#include "spec/builder.h"
#include "test_util.h"

namespace specsyn {
namespace {

using namespace build;

TEST(Vcd, HeaderDeclaresSignalsAndObservables) {
  Specification s;
  s.name = "V";
  s.signals = {signal("go"), signal("dbus", Type::u8())};
  s.vars = {var("x", Type::u16(), 0, /*observable=*/true), var("hidden")};
  s.top = leaf("T", block(set("go", 1), assign("x", lit(3))));
  VcdRecorder vcd(s);
  Simulator sim(s);
  sim.add_slot_observer(&vcd);
  (void)sim.run();
  const std::string out = vcd.str();
  EXPECT_NE(out.find("$timescale 1 ns $end"), std::string::npos);
  EXPECT_NE(out.find("$scope module V $end"), std::string::npos);
  EXPECT_NE(out.find(" go $end"), std::string::npos);
  EXPECT_NE(out.find("$var wire 8 "), std::string::npos);   // dbus
  EXPECT_NE(out.find("$var wire 16 "), std::string::npos);  // x
  EXPECT_EQ(out.find("hidden"), std::string::npos);         // not observable
  EXPECT_NE(out.find("$dumpvars"), std::string::npos);
}

TEST(Vcd, RecordsChangesWithTimestamps) {
  Specification s;
  s.name = "V2";
  s.signals = {signal("go")};
  s.top = leaf("T", block(set("go", 1), delay(5), set("go", 0)));
  VcdRecorder vcd(s);
  Simulator sim(s);
  sim.add_slot_observer(&vcd);
  (void)sim.run();
  EXPECT_EQ(vcd.change_count(), 2u);  // 0->1, 1->0
  const std::string out = vcd.str();
  // Change lines: "1<id>" then later "0<id>" after a #time marker.
  size_t t1 = out.find("\n1!");
  size_t t0 = out.find("\n0!", t1 + 1);
  EXPECT_NE(t1, std::string::npos);
  EXPECT_NE(t0, std::string::npos);
  EXPECT_LT(t1, t0);
}

TEST(Vcd, MultiBitValuesInBinary) {
  Specification s;
  s.name = "V3";
  s.signals = {signal("bus", Type::u8())};
  s.top = leaf("T", block(sassign("bus", lit(0xA5))));
  VcdRecorder vcd(s);
  Simulator sim(s);
  sim.add_slot_observer(&vcd);
  (void)sim.run();
  EXPECT_NE(vcd.str().find("b10100101 "), std::string::npos);
}

TEST(Vcd, RefinedSpecProducesBusWaveforms) {
  Specification s = testing::abc_spec(3);
  AccessGraph g = build_access_graph(s);
  Partition part(s, Allocation::proc_plus_asic());
  part.assign_behavior("B", 1);
  part.assign_var("x", 1);
  part.auto_assign_vars(g);
  RefineConfig cfg;
  cfg.model = ImplModel::Model1;
  RefineResult r = refine(part, g, cfg);
  VcdRecorder vcd(r.refined);
  Simulator sim(r.refined);
  sim.add_slot_observer(&vcd);
  (void)sim.run();
  EXPECT_GT(vcd.change_count(), 20u);  // handshakes toggle a lot
  EXPECT_NE(vcd.str().find("gbus_start"), std::string::npos);
}

TEST(BlockedDiagnostics, ReportsWaitingProcesses) {
  // One process blocks forever on a never-raised signal.
  Specification s;
  s.name = "D";
  s.signals = {signal("never")};
  s.vars = {var("x")};
  auto stuck = leaf("Stuck", block(wait_eq("never", 1), assign("x", lit(1))));
  auto fine = leaf("Fine", block(assign("x", lit(2))));
  s.top = conc("Top", behaviors(std::move(stuck), std::move(fine)));
  SimResult r = testing::run(s);
  EXPECT_EQ(r.status, SimResult::Status::Quiescent);
  EXPECT_FALSE(r.root_completed);
  // Stuck leaf + the root joining on it.
  ASSERT_GE(r.blocked.size(), 2u);
  bool found_wait = false, found_join = false;
  for (const BlockedProcess& b : r.blocked) {
    if (b.behavior == "Stuck" && b.waiting_on == "never == 1") {
      found_wait = true;
    }
    if (b.waiting_on == "<join>") found_join = true;
  }
  EXPECT_TRUE(found_wait);
  EXPECT_TRUE(found_join);
}

TEST(BlockedDiagnostics, CleanCompletionHasNoBlocked) {
  SimResult r = testing::run(testing::abc_spec(3));
  EXPECT_TRUE(r.root_completed);
  EXPECT_TRUE(r.blocked.empty());
}

TEST(BlockedDiagnostics, RefinedSpecBlocksOnlyInServers) {
  // After the main flow completes, every blocked process must be a generated
  // server (memory, arbiter, interface, B_NEW) — none of the original
  // behaviors may be stuck.
  Specification s = testing::abc_spec(3);
  AccessGraph g = build_access_graph(s);
  Partition part(s, Allocation::proc_plus_asic());
  part.assign_behavior("B", 1);
  part.auto_assign_vars(g);
  RefineConfig cfg;
  cfg.model = ImplModel::Model4;
  RefineResult r = refine(part, g, cfg);
  SimResult res = testing::run(r.refined);
  EXPECT_EQ(res.status, SimResult::Status::Quiescent);
  std::set<std::string> original_names;
  for (const Behavior* b : s.all_behaviors()) original_names.insert(b->name);
  for (const BlockedProcess& b : res.blocked) {
    EXPECT_EQ(original_names.count(b.behavior), 0u)
        << "original behavior '" << b.behavior << "' deadlocked: waiting on "
        << b.waiting_on;
  }
}

}  // namespace
}  // namespace specsyn

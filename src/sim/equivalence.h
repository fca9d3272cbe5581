// Functional-equivalence checking between a specification and its refined
// implementation model.
//
// The paper's correctness requirement for every refinement procedure is that
// the implementation model be "functionally equivalent to the original
// model". We operationalize that as: simulating both specifications yields
//   (1) the same final value for every variable of the *original* spec
//       (each such variable exists, uniquely named, somewhere in the refined
//       spec — typically inside a generated Memory behavior), and
//   (2) the same per-variable sequence of committed writes for every
//       `observable` variable (timestamps are ignored; refinement changes
//       timing by design).
// Additionally the refined main control flow must have run to completion
// (no deadlock introduced by protocol insertion).
#pragma once

#include <string>
#include <vector>

#include "sim/simulator.h"

namespace specsyn {

struct EquivalenceOptions {
  SimConfig config;
  /// Compare per-variable observable write sequences (not just final values).
  bool compare_write_traces = true;
  /// Run the two simulations concurrently (the original on a spawned thread,
  /// the refined on the caller's). Results are merged in a fixed order, so
  /// the report is identical to a serial run. Worth it when both specs are
  /// expensive to simulate; the per-seed fuzz oracles enable it whenever the
  /// seed sweep itself is serial.
  bool parallel = false;
  /// Optional lowered-program cache; both simulations consult it. Safe to
  /// share across threads (internally locked), but the intended deployment
  /// is one cache per batch worker.
  ProgramCache* programs = nullptr;
};

struct EquivalenceReport {
  bool equivalent = false;
  /// Human-readable mismatch descriptions (empty iff equivalent).
  std::vector<std::string> mismatches;
  /// The two runs check_equivalence simulated (left empty by compare_runs,
  /// whose caller already holds them).
  SimResult original_result;
  SimResult refined_result;

  [[nodiscard]] std::string summary() const;
};

/// Simulates both specs and compares observable behaviour (compare_runs).
/// `original` and `refined` must both be valid.
[[nodiscard]] EquivalenceReport check_equivalence(
    const Specification& original, const Specification& refined,
    const EquivalenceOptions& opts = {});

/// The comparison alone, over finished runs: `a` of `original`, `b` of its
/// refinement, both under the same SimConfig. Only
/// `opts.compare_write_traces` is read. A caller that already simulated the
/// refined spec (the sweep measures it anyway) avoids a second run, and an
/// original shared by many refinements is simulated once.
[[nodiscard]] EquivalenceReport compare_runs(const Specification& original,
                                             const SimResult& a,
                                             const SimResult& b,
                                             const EquivalenceOptions& opts);

}  // namespace specsyn

// Compiled execution plan for the discrete-event simulator.
//
// The interpreter in interp.cpp resolves every name (variable, signal,
// procedure local) through string-keyed hash lookups on every access, and
// re-derives control decisions (transition-arc matching, child indices) from
// the source Specification on every step. `Program` removes all of that from
// the steady state: it is built once per Simulator from a *validated*
// Specification and pre-resolves
//
//   * every `Expr::NameRef` into a `{scope, slot}` reference — a dense index
//     into the global VarTable, the SignalTable, or the enclosing procedure's
//     call-frame local array (name resolution is static: scoping is lexical
//     and spec names are globally unique, so each use site has exactly one
//     possible runtime meaning, mirroring interp.cpp's local→var→signal
//     precedence),
//   * every expression tree into a flat postfix op vector evaluated with a
//     value stack (operand order matches the recursive evaluator, so observer
//     read events fire in the identical order),
//   * every procedure's params + locals into a dense frame layout,
//   * every statement list into an `LBlock` of slot-indexed `LStmt`s,
//   * every behavior into an `LBehavior` with per-child pre-filtered
//     transition arcs and an interned dense behavior id (used for completion
//     counting without string-keyed maps).
//
// The lowered interpreter (interp_lowered.cpp) drives the *same* frame
// machine as the legacy one — one activation record per block / composite /
// call, one scheduling step per statement — so `SimResult` (end_time, steps,
// final_vars, observable_writes, behavior_completions, blocked) is
// bit-identical between the two paths; only the per-access cost changes.
// Source back-pointers (`src`) are retained for diagnostics (blocked-process
// wait-condition printing).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/signal_table.h"
#include "spec/specification.h"

namespace specsyn {

/// One postfix expression op. All ops of a Program live in a single pooled
/// vector (one allocation, contiguous during evaluation); an LExpr names its
/// range within the pool.
struct LOp {
  enum class Kind : uint8_t {
    PushLit,     // push `lit`
    PushVar,     // push vars[slot]      (fires on_var_read when observed)
    PushSignal,  // push signals[slot]
    PushLocal,   // push innermost call frame's locals[slot]
    Unary,       // apply UnOp(op) to the top of stack
    Binary,      // pop rhs, apply BinOp(op) to (new top, rhs)
  };
  Kind kind = Kind::PushLit;
  uint8_t op = 0;     // UnOp / BinOp, for Unary / Binary
  uint32_t slot = 0;  // Push{Var,Signal,Local}
  uint64_t lit = 0;   // PushLit
};

/// Flattened expression: a contiguous postfix op range in the Program's op
/// pool, evaluated with an external value stack (the Simulator owns one
/// scratch stack sized to the program-wide maximum depth).
struct LExpr {
  uint32_t first = 0;  // index of the first op in the pool
  uint32_t count = 0;
};

/// Pre-resolved destination of a variable assignment (`:=` target or an
/// out-parameter copy-back destination).
struct LTarget {
  enum class Scope : uint8_t { Var, Local };
  Scope scope = Scope::Var;
  uint32_t slot = 0;
};

struct LBlock;

/// Dense activation layout of one procedure: params first, then locals, in
/// declaration order. Call frames allocate `local_types.size()` zeroed slots.
struct LProc {
  const Procedure* src = nullptr;
  std::vector<Type> local_types;  // wrap types, indexed by local slot
  const LBlock* body = nullptr;
};

/// One in-parameter binding of a call site, in parameter order.
struct LCallArg {
  uint32_t param = 0;  // dense local slot of the parameter
  LExpr in;            // argument expression (caller scope)
};

struct LStmt {
  Stmt::Kind kind = Stmt::Kind::Nop;

  LTarget target;                        // Assign
  uint32_t signal = 0;                   // SignalAssign
  LExpr expr;                            // Assign value; If/While/Wait cond
  const LBlock* then_block = nullptr;    // If (null if empty) / While / Loop
  const LBlock* else_block = nullptr;    // If (null if empty)
  uint64_t delay = 0;                    // Delay

  // Call
  const LProc* proc = nullptr;
  std::vector<LCallArg> in_args;  // in-params, parameter order
  std::vector<std::pair<uint32_t, LTarget>> out_binds;  // param slot -> dest

  // Wait: signal slots this condition is sensitive to (deduplicated)
  std::vector<uint32_t> wait_signals;

  const Stmt* src = nullptr;  // diagnostics (e.g. blocked-wait printing)
};

struct LBlock {
  std::vector<LStmt> stmts;
};

/// The dense behavior ids every tier shares: pre-order indices of the
/// behavior tree (the top behavior is 0, a composite's children follow it
/// depth-first in declaration order). Program::compile numbers its
/// LBehaviors from it (the bytecode tier inherits those ids) and the tree
/// interpreter attributes by it directly, so completion counts and observer
/// events carry the same ids on all three tiers.
class BehaviorNumbering {
 public:
  explicit BehaviorNumbering(const Behavior& top);

  [[nodiscard]] uint32_t size() const {
    return static_cast<uint32_t>(order_.size());
  }
  [[nodiscard]] const Behavior& behavior(uint32_t id) const {
    return *order_[id];
  }
  [[nodiscard]] uint32_t id_of(const Behavior& b) const { return ids_.at(&b); }

 private:
  void add(const Behavior& b);

  std::vector<const Behavior*> order_;
  std::unordered_map<const Behavior*, uint32_t> ids_;
};

/// Lowered behavior node. `id` comes from BehaviorNumbering, used to count
/// completions in a flat array instead of a string-keyed map.
struct LBehavior {
  static constexpr uint32_t kComplete = UINT32_MAX;

  const Behavior* src = nullptr;
  uint32_t id = 0;
  BehaviorKind kind = BehaviorKind::Leaf;
  const LBlock* body = nullptr;  // Leaf
  std::vector<const LBehavior*> children;

  /// One pre-filtered transition arc: guard (optional) and the successor
  /// child index (kComplete = complete the composite).
  struct LTrans {
    bool has_guard = false;
    LExpr guard;
    uint32_t next = kComplete;
  };
  /// Sequential composites: arcs leaving child i, in declaration order.
  std::vector<std::vector<LTrans>> child_trans;
};

/// The compiled plan. Owns all lowered nodes; pointers handed out are stable
/// for the Program's lifetime. Compilation requires a validated spec and the
/// Simulator's already-built variable/signal tables (slot authorities).
class Program {
 public:
  static std::unique_ptr<const Program> compile(const Specification& spec,
                                                const VarTable& vars,
                                                const SignalTable& signals);

  [[nodiscard]] const LBehavior* root() const { return root_; }
  [[nodiscard]] uint32_t behavior_count() const {
    return static_cast<uint32_t>(behaviors_.size());
  }
  [[nodiscard]] const std::string& behavior_name(uint32_t id) const {
    return behaviors_[id]->src->name;
  }
  /// Deepest value stack any expression in the program needs.
  [[nodiscard]] uint32_t max_eval_stack() const { return max_stack_; }
  /// The shared postfix op pool every LExpr indexes into.
  [[nodiscard]] const std::vector<LOp>& ops() const { return ops_; }

 private:
  friend class ProgramCompiler;
  Program() = default;

  std::vector<LOp> ops_;
  std::vector<std::unique_ptr<LBlock>> blocks_;
  std::vector<std::unique_ptr<LProc>> procs_;
  std::vector<std::unique_ptr<LBehavior>> behaviors_;  // indexed by id
  const LBehavior* root_ = nullptr;
  uint32_t max_stack_ = 0;
};

}  // namespace specsyn

// Lowering pass: Specification -> Program (see program.h for the model).
//
// Resolution mirrors the legacy interpreter exactly: inside a procedure body
// the procedure's params/locals shadow the global tables; everywhere else a
// name is a variable if the VarTable knows it, otherwise a signal. Wait
// sensitivity mirrors block_on: every *signal* named in the condition,
// regardless of shadowing (procedure locals never suppress signal wakeups).
#include "sim/program.h"

#include <unordered_map>

namespace specsyn {

namespace {

/// Name -> dense local slot of the procedure being compiled (null at
/// specification scope, i.e. behavior bodies and transition guards).
using ProcScope = std::unordered_map<std::string, uint32_t>;

}  // namespace

BehaviorNumbering::BehaviorNumbering(const Behavior& top) { add(top); }

void BehaviorNumbering::add(const Behavior& b) {
  ids_.emplace(&b, size());
  order_.push_back(&b);
  if (b.kind == BehaviorKind::Leaf) return;
  for (const BehaviorPtr& c : b.children) add(*c);
}

class ProgramCompiler {
 public:
  ProgramCompiler(const Specification& spec, const VarTable& vars,
                  const SignalTable& signals)
      : spec_(spec), vars_(vars), signals_(signals) {}

  std::unique_ptr<const Program> run() {
    auto prog = std::unique_ptr<Program>(new Program());
    prog_ = prog.get();
    prog_->ops_.reserve(512);

    // Allocate procedure shells first so call sites (including calls between
    // procedures) can resolve the callee before its body is compiled.
    for (const Procedure& p : spec_.procedures) {
      auto lp = std::make_unique<LProc>();
      lp->src = &p;
      ProcScope scope;
      for (const Param& prm : p.params) {
        scope.emplace(prm.name, static_cast<uint32_t>(lp->local_types.size()));
        lp->local_types.push_back(prm.type);
      }
      for (const auto& [name, type] : p.locals) {
        scope.emplace(name, static_cast<uint32_t>(lp->local_types.size()));
        lp->local_types.push_back(type);
      }
      proc_by_name_.emplace(p.name, lp.get());
      proc_scopes_.emplace(lp.get(), std::move(scope));
      prog_->procs_.push_back(std::move(lp));
    }
    for (auto& lp : prog_->procs_) {
      lp->body = compile_block(lp->src->body, &proc_scopes_.at(lp.get()));
    }

    const BehaviorNumbering ids(*spec_.top);
    prog_->behaviors_.resize(ids.size());
    prog_->root_ = compile_behavior(*spec_.top, ids);
    prog_->max_stack_ = max_stack_;
    return prog;
  }

 private:
  const LBehavior* compile_behavior(const Behavior& b,
                                    const BehaviorNumbering& ids) {
    auto lb = std::make_unique<LBehavior>();
    LBehavior* out = lb.get();
    out->src = &b;
    out->id = ids.id_of(b);
    out->kind = b.kind;
    prog_->behaviors_[out->id] = std::move(lb);

    switch (b.kind) {
      case BehaviorKind::Leaf:
        out->body = compile_block(b.body, nullptr);
        break;
      case BehaviorKind::Sequential:
      case BehaviorKind::Concurrent:
        for (const BehaviorPtr& c : b.children) {
          out->children.push_back(compile_behavior(*c, ids));
        }
        if (b.kind == BehaviorKind::Sequential) {
          out->child_trans.resize(b.children.size());
          for (const Transition& t : b.transitions) {
            LBehavior::LTrans arc;
            if (t.guard) {
              arc.has_guard = true;
              compile_expr(*t.guard, nullptr, arc.guard);
            }
            arc.next = t.completes()
                           ? LBehavior::kComplete
                           : static_cast<uint32_t>(b.child_index(t.to));
            out->child_trans[b.child_index(t.from)].push_back(std::move(arc));
          }
        }
        break;
    }
    return out;
  }

  const LBlock* compile_block(const StmtList& stmts, const ProcScope* scope) {
    auto blk = std::make_unique<LBlock>();
    LBlock* out = blk.get();
    prog_->blocks_.push_back(std::move(blk));
    out->stmts.reserve(stmts.size());
    for (const StmtPtr& s : stmts) out->stmts.push_back(compile_stmt(*s, scope));
    return out;
  }

  LStmt compile_stmt(const Stmt& s, const ProcScope* scope) {
    LStmt out;
    out.kind = s.kind;
    out.src = &s;
    switch (s.kind) {
      case Stmt::Kind::Assign:
        out.target = resolve_target(s.target, scope);
        compile_expr(*s.expr, scope, out.expr);
        break;
      case Stmt::Kind::SignalAssign: {
        const size_t si = signals_.find(s.target);
        if (si == SIZE_MAX) {
          throw SpecError("lowering: '<=' to unknown signal '" + s.target + "'");
        }
        out.signal = static_cast<uint32_t>(si);
        compile_expr(*s.expr, scope, out.expr);
        break;
      }
      case Stmt::Kind::If:
        compile_expr(*s.expr, scope, out.expr);
        // The interpreter only pushes a block frame for a non-empty branch.
        if (!s.then_block.empty()) out.then_block = compile_block(s.then_block, scope);
        if (!s.else_block.empty()) out.else_block = compile_block(s.else_block, scope);
        break;
      case Stmt::Kind::While:
      case Stmt::Kind::Loop:
        if (s.expr) compile_expr(*s.expr, scope, out.expr);
        out.then_block = compile_block(s.then_block, scope);
        break;
      case Stmt::Kind::Wait: {
        compile_expr(*s.expr, scope, out.expr);
        std::vector<std::string> names;
        s.expr->collect_names(names);
        for (const std::string& n : names) {
          const size_t si = signals_.find(n);
          if (si == SIZE_MAX) continue;
          const auto slot = static_cast<uint32_t>(si);
          bool seen = false;
          for (uint32_t w : out.wait_signals) seen = seen || w == slot;
          if (!seen) out.wait_signals.push_back(slot);
        }
        break;
      }
      case Stmt::Kind::Delay:
        out.delay = s.delay;
        break;
      case Stmt::Kind::Call: {
        auto it = proc_by_name_.find(s.callee);
        if (it == proc_by_name_.end()) {
          throw SpecError("lowering: call to unknown procedure '" + s.callee +
                          "'");
        }
        out.proc = it->second;
        const Procedure& proc = *out.proc->src;
        for (size_t i = 0; i < proc.params.size(); ++i) {
          const auto param = static_cast<uint32_t>(i);
          if (proc.params[i].is_out) {
            // Validated call sites pass a plain variable name for out-params;
            // it resolves in the *caller's* scope (where the copy-back runs).
            out.out_binds.emplace_back(param,
                                       resolve_target(s.args[i]->name, scope));
          } else {
            LCallArg arg;
            arg.param = param;
            compile_expr(*s.args[i], scope, arg.in);
            out.in_args.push_back(std::move(arg));
          }
        }
        break;
      }
      case Stmt::Kind::Break:
      case Stmt::Kind::Nop:
        break;
    }
    return out;
  }

  LTarget resolve_target(const std::string& name, const ProcScope* scope) {
    if (scope != nullptr) {
      auto it = scope->find(name);
      if (it != scope->end()) {
        return {LTarget::Scope::Local, it->second};
      }
    }
    const size_t vi = vars_.find(name);
    if (vi == SIZE_MAX) {
      throw SpecError("lowering: assignment to unresolved name '" + name + "'");
    }
    return {LTarget::Scope::Var, static_cast<uint32_t>(vi)};
  }

  // Emission from one expression tree is a complete recursion before the
  // next compile_expr starts, so each LExpr's ops are contiguous in the pool.
  void compile_expr(const Expr& e, const ProcScope* scope, LExpr& out) {
    out.first = static_cast<uint32_t>(prog_->ops_.size());
    uint32_t depth = 0;
    uint32_t max_depth = 0;
    emit_expr(e, scope, depth, max_depth);
    out.count = static_cast<uint32_t>(prog_->ops_.size()) - out.first;
    if (max_depth > max_stack_) max_stack_ = max_depth;
  }

  // Postfix emission; operand order matches the recursive evaluator
  // (args[0] fully, then args[1]), so observable read order is preserved.
  void emit_expr(const Expr& e, const ProcScope* scope, uint32_t& depth,
                 uint32_t& max_depth) {
    switch (e.kind) {
      case Expr::Kind::IntLit: {
        LOp op;
        op.kind = LOp::Kind::PushLit;
        op.lit = e.int_value;
        prog_->ops_.push_back(op);
        max_depth = std::max(max_depth, ++depth);
        break;
      }
      case Expr::Kind::NameRef: {
        LOp op;
        if (scope != nullptr) {
          auto it = scope->find(e.name);
          if (it != scope->end()) {
            op.kind = LOp::Kind::PushLocal;
            op.slot = it->second;
            prog_->ops_.push_back(op);
            max_depth = std::max(max_depth, ++depth);
            break;
          }
        }
        if (const size_t vi = vars_.find(e.name); vi != SIZE_MAX) {
          op.kind = LOp::Kind::PushVar;
          op.slot = static_cast<uint32_t>(vi);
        } else if (const size_t si = signals_.find(e.name); si != SIZE_MAX) {
          op.kind = LOp::Kind::PushSignal;
          op.slot = static_cast<uint32_t>(si);
        } else {
          throw SpecError("lowering: unresolved name '" + e.name + "'");
        }
        prog_->ops_.push_back(op);
        max_depth = std::max(max_depth, ++depth);
        break;
      }
      case Expr::Kind::Unary: {
        emit_expr(*e.args[0], scope, depth, max_depth);
        LOp op;
        op.kind = LOp::Kind::Unary;
        op.op = static_cast<uint8_t>(e.un_op);
        prog_->ops_.push_back(op);
        break;
      }
      case Expr::Kind::Binary: {
        emit_expr(*e.args[0], scope, depth, max_depth);
        emit_expr(*e.args[1], scope, depth, max_depth);
        LOp op;
        op.kind = LOp::Kind::Binary;
        op.op = static_cast<uint8_t>(e.bin_op);
        prog_->ops_.push_back(op);
        --depth;
        break;
      }
    }
  }

  const Specification& spec_;
  const VarTable& vars_;
  const SignalTable& signals_;
  Program* prog_ = nullptr;
  uint32_t max_stack_ = 0;
  std::unordered_map<std::string, const LProc*> proc_by_name_;
  std::unordered_map<const LProc*, ProcScope> proc_scopes_;
};

std::unique_ptr<const Program> Program::compile(const Specification& spec,
                                                const VarTable& vars,
                                                const SignalTable& signals) {
  if (!spec.top) throw SpecError("lowering: specification has no top behavior");
  return ProgramCompiler(spec, vars, signals).run();
}

}  // namespace specsyn

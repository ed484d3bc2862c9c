// The lowering pass: Program AST -> PlanIR (see bytecode.hpp). One walk per
// program, at Instance construction. Anything that can fail — unknown
// arrays, type mismatches, unbound scalars, read/write conflicts — is only
// *recorded* here (names, lines, precomputed conflict markers) and checked
// at plan-build time, so a faulty FORALL that is never reached never fails.
#include <algorithm>
#include <map>
#include <set>
#include <utility>
#include <variant>

#include "lang/bytecode.hpp"

namespace chaos::lang {

namespace {

/// Walks an expression collecting indirection-array names, read arrays, and
/// cost estimates.
struct ExprScan {
  std::vector<std::string> ind_names;
  std::set<std::string> read_data;    // arrays read via indirection
  std::set<std::string> read_direct;  // arrays read as a(i)
  i64 flops = 0;
  i64 mem_refs = 0;

  void note_index(const IndexRef& idx) {
    if (!idx.direct) {
      if (std::find(ind_names.begin(), ind_names.end(), idx.ind_array) ==
          ind_names.end()) {
        ind_names.push_back(idx.ind_array);
      }
      ++mem_refs;
    }
  }

  void scan(const Expr& e) {
    ++flops;
    if (const auto* a = std::get_if<Expr::ArrayRef>(&e.node)) {
      if (!a->array.empty()) {
        note_index(a->index);
        // Compiler-generated addressing: a guarded local/ghost select per
        // reference on top of the load itself.
        ++flops;
        ++mem_refs;
        (a->index.direct ? read_direct : read_data).insert(a->array);
      }
      return;
    }
    if (const auto* u = std::get_if<Expr::Unary>(&e.node)) {
      scan(*u->operand);
      return;
    }
    if (const auto* b = std::get_if<Expr::Binary>(&e.node)) {
      scan(*b->lhs);
      scan(*b->rhs);
      return;
    }
    if (const auto* c = std::get_if<Expr::Call>(&e.node)) {
      flops += 8;  // intrinsics cost more than one op
      for (const auto& arg : c->args) scan(*arg);
      return;
    }
  }
};

/// Flattens one expression into symbolic stack bytecode, assigning operand
/// and scalar slots in first-occurrence order, so plan-build resolution
/// reports the first unbound scalar in source order. Returns the needed
/// stack depth, which never exceeds the expression's tree height.
class SymbolicCompiler {
 public:
  SymbolicCompiler(ForallMeta& meta, const std::map<std::string, int>& batch_of,
                   const std::map<std::string, int>& ghost_data_slot,
                   const std::map<std::string, int>& ghost_direct_slot)
      : meta_(meta),
        batch_of_(batch_of),
        ghost_data_slot_(ghost_data_slot),
        ghost_direct_slot_(ghost_direct_slot) {}

  int compile(const Expr& e, std::vector<StackInstr>& out) {
    if (const auto* num = std::get_if<Expr::Num>(&e.node)) {
      out.push_back({StackOp::Imm, -1, num->value});
      return 1;
    }
    if (const auto* s = std::get_if<Expr::Scalar>(&e.node)) {
      i32 slot = -1;
      for (std::size_t k = 0; k < meta_.scalars.size(); ++k) {
        if (meta_.scalars[k].name == s->name) {
          slot = static_cast<i32>(k);
          break;
        }
      }
      if (slot < 0) {
        slot = static_cast<i32>(meta_.scalars.size());
        meta_.scalars.push_back({s->name, e.line, e.column});
      }
      out.push_back({StackOp::Scalar, slot, 0.0});
      return 1;
    }
    if (const auto* a = std::get_if<Expr::ArrayRef>(&e.node)) {
      if (a->array.empty()) {
        out.push_back({StackOp::IterVal, -1, 0.0});
        return 1;
      }
      OperandSym spec;
      spec.array = a->array;
      if (a->index.direct) {
        spec.group = 1;
        spec.ghost_slot = ghost_direct_slot_.at(a->array);
      } else {
        spec.group = 0;
        spec.batch = batch_of_.at(a->index.ind_array);
        spec.ghost_slot = ghost_data_slot_.at(a->array);
      }
      // Deduplicate identical operand specs by (group, batch, array).
      i32 slot = -1;
      for (std::size_t k = 0; k < meta_.operands.size(); ++k) {
        const auto& o = meta_.operands[k];
        if (o.group == spec.group && o.batch == spec.batch &&
            o.array == spec.array) {
          slot = static_cast<i32>(k);
          break;
        }
      }
      if (slot < 0) {
        slot = static_cast<i32>(meta_.operands.size());
        meta_.operands.push_back(std::move(spec));
      }
      out.push_back({StackOp::Load, slot, 0.0});
      return 1;
    }
    if (const auto* u = std::get_if<Expr::Unary>(&e.node)) {
      const int d = compile(*u->operand, out);
      out.push_back({StackOp::Neg, -1, 0.0});
      return d;
    }
    if (const auto* b = std::get_if<Expr::Binary>(&e.node)) {
      const int dl = compile(*b->lhs, out);
      const int dr = compile(*b->rhs, out);
      StackOp op = StackOp::Add;
      switch (b->op) {
        case BinOp::Add: op = StackOp::Add; break;
        case BinOp::Sub: op = StackOp::Sub; break;
        case BinOp::Mul: op = StackOp::Mul; break;
        case BinOp::Div: op = StackOp::Div; break;
        case BinOp::Pow: op = StackOp::Pow; break;
      }
      out.push_back({op, -1, 0.0});
      return dl > dr + 1 ? dl : dr + 1;
    }
    const auto* c = std::get_if<Expr::Call>(&e.node);
    int depth = compile(*c->args[0], out);
    if (c->args.size() == 2) {
      const int d2 = compile(*c->args[1], out) + 1;
      depth = depth > d2 ? depth : d2;
    }
    StackOp op = StackOp::Sqrt;
    switch (c->fn) {
      case Intrinsic::Sqrt: op = StackOp::Sqrt; break;
      case Intrinsic::Abs: op = StackOp::Abs; break;
      case Intrinsic::Sin: op = StackOp::Sin; break;
      case Intrinsic::Cos: op = StackOp::Cos; break;
      case Intrinsic::Exp: op = StackOp::Exp; break;
      case Intrinsic::Min: op = StackOp::Min2; break;
      case Intrinsic::Max: op = StackOp::Max2; break;
      case Intrinsic::Mod: op = StackOp::Mod2; break;
    }
    out.push_back({op, -1, 0.0});
    return depth;
  }

 private:
  ForallMeta& meta_;
  const std::map<std::string, int>& batch_of_;
  const std::map<std::string, int>& ghost_data_slot_;
  const std::map<std::string, int>& ghost_direct_slot_;
};

struct Lowerer {
  ProgramPlan plan;

  void lower_statements(const std::vector<Statement>& statements) {
    for (const auto& s : statements) {
      if (const auto* loop = std::get_if<DoLoop>(&s.node)) {
        const i32 li = static_cast<i32>(plan.loops.size());
        plan.loops.push_back({loop->var, loop->lo, loop->hi, loop->line});
        const i32 begin_pc = static_cast<i32>(plan.code.size());
        plan.code.push_back({PlanOp::LoopBegin, li, -1, -1});
        lower_statements(loop->body);
        plan.code.push_back({PlanOp::LoopEnd, li, -1, -1});
        plan.code[static_cast<std::size_t>(begin_pc)].b =
            static_cast<i32>(plan.code.size());
      } else if (const auto* f = std::get_if<Forall>(&s.node)) {
        lower_forall(*f);
      } else {
        const i32 di = static_cast<i32>(plan.directives.size());
        plan.directives.push_back(&s);
        plan.code.push_back({PlanOp::Directive, di, -1, -1});
      }
    }
  }

  void lower_forall(const Forall& f) {
    ForallMeta m;
    m.loop_id = f.loop_id;
    m.line = f.line;
    m.column = f.column;
    m.loop_var = f.loop_var;
    m.lo = f.lo;
    m.hi = f.hi;

    // ---- analysis -----------------------------------------------------------
    ExprScan scan;
    std::set<std::string> written;
    for (const auto& stmt : f.body) {
      scan.note_index(stmt.target_index);
      scan.scan(*stmt.value);
      written.insert(stmt.target_array);
      ++scan.mem_refs;  // the store
    }
    std::set<std::string> read_any = scan.read_data;
    read_any.insert(scan.read_direct.begin(), scan.read_direct.end());
    for (const auto& w : written) {
      if (read_any.count(w)) {
        m.conflict_array = w;
        break;
      }
    }
    m.expr_flops_per_iter = scan.flops;
    m.mem_refs_per_iter = scan.mem_refs;
    m.ind_names = scan.ind_names;
    m.read_data.assign(scan.read_data.begin(), scan.read_data.end());
    m.read_direct.assign(scan.read_direct.begin(), scan.read_direct.end());

    std::set<std::string> data_arrays = scan.read_data;
    std::set<std::string> direct_arrays = scan.read_direct;
    for (const auto& stmt : f.body) {
      (stmt.target_index.direct ? direct_arrays : data_arrays)
          .insert(stmt.target_array);
    }
    m.data_arrays.assign(data_arrays.begin(), data_arrays.end());
    m.direct_arrays.assign(direct_arrays.begin(), direct_arrays.end());
    std::set<std::string> guard = read_any;
    guard.insert(written.begin(), written.end());
    m.guard_arrays.assign(guard.begin(), guard.end());
    m.written.assign(written.begin(), written.end());

    // ---- body statements + expression bytecode ------------------------------
    std::map<std::string, int> batch_of;
    for (std::size_t k = 0; k < m.ind_names.size(); ++k) {
      batch_of[m.ind_names[k]] = static_cast<int>(k);
    }
    std::map<std::string, int> ghost_data_slot, ghost_direct_slot;
    for (const auto& name : m.read_data) {
      ghost_data_slot[name] = static_cast<int>(ghost_data_slot.size());
    }
    for (const auto& name : m.read_direct) {
      ghost_direct_slot[name] = static_cast<int>(ghost_direct_slot.size());
    }
    SymbolicCompiler compiler(m, batch_of, ghost_data_slot, ghost_direct_slot);
    m.code.resize(f.body.size());
    for (std::size_t si = 0; si < f.body.size(); ++si) {
      const auto& stmt = f.body[si];
      BodySym b;
      b.op = stmt.op;
      b.target = stmt.target_array;
      b.direct = stmt.target_index.direct;
      b.ind_array = stmt.target_index.ind_array;
      b.line = stmt.line;
      b.column = stmt.column;
      m.body.push_back(std::move(b));
      const int depth = compiler.compile(*stmt.value, m.code[si]);
      if (depth > m.max_stack) m.max_stack = depth;
    }

    // ---- slot counts for instruction emission -------------------------------
    // Same (array, group) dedup the plan build performs; a mixed-operator
    // conflict is diagnosed there, before any emitted slot op can run.
    std::set<std::pair<std::string, int>> acc_keys;
    for (const auto& b : m.body) {
      if (b.op == LoopReduceOp::Assign) {
        ++m.n_assigns;
      } else {
        acc_keys.insert({b.target, b.direct ? 1 : 0});
      }
    }
    m.n_accs = static_cast<int>(acc_keys.size());

    // ---- emit ---------------------------------------------------------------
    const i32 fi = static_cast<i32>(plan.foralls.size());
    const i32 check_pc = static_cast<i32>(plan.code.size());
    plan.code.push_back({PlanOp::CheckIncarnation, fi, -1, -1});
    plan.code.push_back({PlanOp::Partition, fi, -1, -1});
    plan.code.push_back({PlanOp::Localize, fi, -1, -1});
    plan.code.push_back({PlanOp::StorePlan, fi, -1, -1});
    plan.code[static_cast<std::size_t>(check_pc)].b =
        static_cast<i32>(plan.code.size());  // warm entry
    plan.code.push_back({PlanOp::ExecBegin, fi, -1, -1});
    for (i32 k = 0; k < static_cast<i32>(m.read_data.size()); ++k) {
      plan.code.push_back({PlanOp::Pack, fi, 0, k});
      plan.code.push_back({PlanOp::Exchange, fi, 0, k});
      plan.code.push_back({PlanOp::Unpack, fi, 0, k});
    }
    for (i32 k = 0; k < static_cast<i32>(m.read_direct.size()); ++k) {
      plan.code.push_back({PlanOp::Pack, fi, 1, k});
      plan.code.push_back({PlanOp::Exchange, fi, 1, k});
      plan.code.push_back({PlanOp::Unpack, fi, 1, k});
    }
    plan.code.push_back({PlanOp::Compute, fi, -1, -1});
    for (i32 k = 0; k < static_cast<i32>(m.n_accs); ++k) {
      plan.code.push_back({PlanOp::FoldScatter, fi, -1, k});
    }
    for (i32 k = 0; k < static_cast<i32>(m.n_assigns); ++k) {
      plan.code.push_back({PlanOp::ScatterAssign, fi, -1, k});
    }
    plan.code.push_back({PlanOp::NoteWrites, fi, -1, -1});
    plan.code.push_back({PlanOp::ExecEnd, fi, -1, -1});
    plan.foralls.push_back(std::move(m));
  }
};

}  // namespace

ProgramPlan lower(const Program& program) {
  Lowerer lw;
  lw.lower_statements(program.statements);
  return std::move(lw.plan);
}

}  // namespace chaos::lang

// PlanIR: the flat bytecode a lang/ Program is lowered to, once, before the
// first execution. The lowering pass (compile.cpp) walks the semantically
// analyzed AST exactly one time and hoists every per-FORALL decision —
// indirection/read/write classification, operand-slot assignment,
// body-expression flattening, and (crucially) the Section 3 inspector-reuse
// guard, which becomes an explicit CHECK_INCARNATION instruction — so a warm
// re-execution of a FORALL touches no AST node and invokes no inspector.
//
// Lowering is pure analysis: it never throws, never charges the virtual
// clock, and needs no runtime state (arrays are not even materialized yet).
// Every semantic check is issued at plan-build time from the precomputed
// metadata, so a faulty FORALL fails only when it is reached, at the line of
// its statement, in the order the name lists below fix.
#pragma once

#include <string>
#include <vector>

#include "lang/ast.hpp"

namespace chaos::lang {

// --- FORALL body stack machine ---------------------------------------------

/// Ops of the per-statement expression bytecode (the "runtime compilation"
/// the paper's title refers to, emitted statically by the lowering pass).
enum class StackOp : u8 {
  Imm, Scalar, IterVal, Load, Neg, Add, Sub, Mul, Div, Pow,
  Sqrt, Abs, Sin, Cos, Exp, Min2, Max2, Mod2,
};

/// One stack instruction. @c slot indexes ForallMeta::operands for Load and
/// ForallMeta::scalars for Scalar; the plan-build step resolves both tables
/// to raw pointers so the evaluator never consults a map.
struct StackInstr {
  StackOp op = StackOp::Imm;
  i32 slot = -1;
  f64 imm = 0.0;
};

// --- symbolic operand tables ------------------------------------------------

/// A deduplicated array operand of a FORALL body. Purely symbolic — the
/// inspector resolves it to storage pointers and a localized-reference slice
/// when the plan is built.
struct OperandSym {
  int group = 0;          ///< 0: data batch, 1: direct (iteration space)
  int batch = -1;         ///< group 0: index into ind_names, or the identity
                          ///< batch ind_names.size()
  std::string array;
};

/// A scalar reference (PARAMETER or DO variable), recorded at its first
/// occurrence so plan-build resolution reports "unbound scalar" at the first
/// use in source order.
struct ScalarSym {
  std::string name;
  int line = 0;
  int column = 0;
};

/// One FORALL body statement, pre-classified.
struct BodySym {
  LoopReduceOp op = LoopReduceOp::Assign;
  std::string target;
  bool direct = true;       ///< target indexed a(i) vs a(ind(i))
  std::string ind_array;    ///< indirection array of the target (!direct)
  int line = 0;
  int column = 0;
};

// --- per-statement metadata --------------------------------------------------

/// Everything the plan build needs from a Forall AST node, computed once.
/// The orders of the name lists are semantic contracts, not conveniences:
///   * ind_names: first-occurrence order (batch indices, remap order);
///   * read_data / read_direct: sorted (read-slot and gather order);
///   * data_arrays / direct_arrays: sorted (anchor-distribution checks);
///   * guard_arrays / written: sorted (reuse-guard DADs, note_write order).
struct ForallMeta {
  u64 loop_id = 0;
  int line = 0;
  int column = 0;
  std::string loop_var;
  SizeExpr lo, hi;

  std::vector<BodySym> body;
  std::vector<std::vector<StackInstr>> code;  ///< one program per body stmt
  std::vector<OperandSym> operands;
  std::vector<ScalarSym> scalars;
  int max_stack = 0;

  std::vector<std::string> ind_names;
  /// Set when an array is read both as a(i) and through indirection. That
  /// array is aligned with the iteration space and the data distribution,
  /// so the two are one DAD, and every direct read goes through one more
  /// data batch, index ind_names.size(): this rank's iteration ids. Every
  /// read array then has one schedule and one ghost tail: read_data lists
  /// them all and read_direct is empty.
  bool identity_batch = false;
  std::vector<std::string> read_data;
  std::vector<std::string> read_direct;
  std::vector<std::string> data_arrays;    ///< read a(ind(i)) + those targets
  std::vector<std::string> direct_arrays;  ///< read a(i) + those targets
  std::vector<std::string> guard_arrays;   ///< every referenced data array
  std::vector<std::string> written;        ///< unique target arrays

  /// First array (sorted order) that is both read and written — the
  /// read/write-conflict diagnostic, precomputed; empty = ok.
  std::string conflict_array;

  i64 expr_flops_per_iter = 0;
  i64 mem_refs_per_iter = 0;
  /// Slot counts, so the lowering pass can emit one FOLD_SCATTER /
  /// SCATTER_ASSIGN instruction per slot before any plan exists.
  int n_accs = 0;
  int n_assigns = 0;
};

/// DO-loop header (bounds resolved once per entry, at LOOP_BEGIN).
struct LoopMeta {
  std::string var;
  SizeExpr lo, hi;
  int line = 0;
};

// --- the instruction set -----------------------------------------------------

/// Program-level ops. Operand a = metadata index (forall / loop / directive
/// table); b, c are op-specific (documented per op). DESIGN.md §12 holds the
/// full table.
enum class PlanOp : u8 {
  Directive,         ///< a: directives[] index — run one mapper/decl directive
  LoopBegin,         ///< a: loops[] index, b: pc past the matching LoopEnd
  LoopEnd,           ///< a: loops[] index
  CheckIncarnation,  ///< a: forall, b: warm-entry pc (its ExecBegin)
  Partition,         ///< a: forall — classify + iteration remap (miss path)
  Localize,          ///< a: forall — build schedules, resolve slots
  StorePlan,         ///< a: forall — record plan under the probe-time guard
  ExecBegin,         ///< a: forall — open the executor clock section
  Gather,            ///< a: forall, b: group (0 data / 1 direct), c: read
                     ///< slot — fill the read array's ghost tail (collective)
  Compute,           ///< a: forall — run the body sweep, charge the model
  FoldScatter,       ///< a: forall, c: accumulator slot
  ScatterAssign,     ///< a: forall, c: assign slot
  NoteWrites,        ///< a: forall — bump the reuse registry per written array
  ExecEnd,           ///< a: forall — close the executor clock section
};

struct PlanInstr {
  PlanOp op = PlanOp::Directive;
  i32 a = -1;
  i32 b = -1;
  i32 c = -1;
};

/// The lowered program. Directive statements stay AST-borne (they run once
/// per execution and their cost is all collectives); loops and FORALLs are
/// fully described by their metadata tables. Borrows the Program's AST — the
/// Program must outlive the plan (same contract as lang::Instance).
struct ProgramPlan {
  std::vector<PlanInstr> code;
  std::vector<ForallMeta> foralls;
  std::vector<LoopMeta> loops;
  std::vector<const Statement*> directives;
};

/// Lowers a compiled program to PlanIR. Pure, non-throwing, charge-free:
/// safe to run at Instance construction on every rank.
[[nodiscard]] ProgramPlan lower(const Program& program);

}  // namespace chaos::lang

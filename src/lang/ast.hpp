// AST of the miniature Fortran 90D dialect. The accepted surface covers
// exactly the constructs of the paper's Figures 1 and 4/5:
//
//   REAL*8 x(n), y(n)                  INTEGER ia(m)
//   DECOMPOSITION reg(n) [, ...]       (DYNAMIC, DECOMPOSITION ... accepted)
//   DISTRIBUTE reg(BLOCK|CYCLIC)
//   ALIGN a, b WITH reg
//   CONSTRUCT G (n, GEOMETRY(d, c...), LINK(m, u, v), LOAD(w))
//   SET fmt BY PARTITIONING G USING NAME
//   REDISTRIBUTE reg(fmt)
//   DO v = lo, hi ... END DO
//   FORALL i = 1, n
//     a(ind(i)) = expr | a(i) = expr
//     REDUCE(ADD|MAX|MIN, a(ind(i)), expr)
//   END FORALL
#pragma once

#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "rt/types.hpp"

namespace chaos::lang {

// --- expressions ------------------------------------------------------------

/// Height limit of an expression tree. The parser enforces it; it also sizes
/// the VM's evaluation stack, since a tree never needs more stack slots than
/// its height.
inline constexpr int kMaxExprDepth = 64;

enum class BinOp : u8 { Add, Sub, Mul, Div, Pow };
enum class Intrinsic : u8 { Sqrt, Abs, Sin, Cos, Exp, Min, Max, Mod };

struct Expr;
using ExprPtr = std::unique_ptr<Expr>;

/// Index of an array reference inside a FORALL: either the loop variable
/// directly (a(i)) or a single level of indirection (a(ind(i))) — the
/// paper's stated model.
struct IndexRef {
  bool direct = true;        ///< a(i) if true, a(ind(i)) otherwise
  std::string ind_array;     ///< indirection array name (when !direct)
  int line = 0;
  int column = 0;
};

struct Expr {
  struct Num {
    f64 value;
  };
  struct Scalar {  // PARAMETER or DO variable
    std::string name;
  };
  struct ArrayRef {
    std::string array;
    IndexRef index;
  };
  struct Unary {
    bool negate;
    ExprPtr operand;
  };
  struct Binary {
    BinOp op;
    ExprPtr lhs, rhs;
  };
  struct Call {
    Intrinsic fn;
    std::vector<ExprPtr> args;
  };

  std::variant<Num, Scalar, ArrayRef, Unary, Binary, Call> node;
  int line = 0;
  int column = 0;
};

// --- FORALL bodies ----------------------------------------------------------

enum class LoopReduceOp : u8 { Assign, Add, Max, Min };

struct LoopStatement {
  LoopReduceOp op = LoopReduceOp::Assign;
  std::string target_array;
  IndexRef target_index;
  ExprPtr value;
  int line = 0;
  int column = 0;
};

// --- top-level statements ---------------------------------------------------

/// A size is either a literal or a host-bound PARAMETER name.
struct SizeExpr {
  i64 literal = -1;
  std::string param;  // used when literal < 0
  int line = 0;
  int column = 0;
};

enum class ElemType : u8 { Real8, Integer };

struct DeclArrays {
  ElemType type;
  std::vector<std::pair<std::string, SizeExpr>> arrays;  // name, extent
};

struct DeclDecomps {
  std::vector<std::pair<std::string, SizeExpr>> decomps;
};

struct Distribute {
  std::string decomp;
  std::string format;  // BLOCK, CYCLIC, or a named SET result
  int line = 0;
  int column = 0;
};

struct Align {
  std::vector<std::string> arrays;
  std::string decomp;
  int line = 0;
  int column = 0;
};

struct Construct {
  std::string name;
  SizeExpr nverts;
  int geometry_dims = 0;                      // 0 = no GEOMETRY clause
  std::vector<std::string> geometry_arrays;   // dims entries
  std::vector<std::pair<std::string, std::string>> links;  // (u, v) pairs
  SizeExpr link_size;                         // declared E (checked)
  std::string load_array;                     // empty = no LOAD clause
  int line = 0;
  int column = 0;
};

struct SetPartition {
  std::string dist_name;
  std::string geocol;
  std::string partitioner;
  int line = 0;
  int column = 0;
};

struct Redistribute {
  std::string decomp;
  std::string dist_name;
  int line = 0;
  int column = 0;
};

struct Forall {
  std::string loop_var;
  SizeExpr lo, hi;
  std::vector<LoopStatement> body;
  u64 loop_id = 0;  ///< stable id used as the plan-cache statement key
  int line = 0;
  int column = 0;
};

struct Statement;

struct DoLoop {
  std::string var;
  SizeExpr lo, hi;
  std::vector<Statement> body;  // vector of incomplete type: OK since C++17
  int line = 0;
  int column = 0;
};

struct Statement {
  std::variant<DeclArrays, DeclDecomps, Distribute, Align, Construct,
               SetPartition, Redistribute, Forall, DoLoop>
      node;
};

/// A compiled program: the statement list plus symbol metadata collected by
/// the parser's semantic pass.
struct Program {
  std::vector<Statement> statements;
  std::vector<std::string> params;  ///< names the host must bind
  u64 forall_count = 0;
};

}  // namespace chaos::lang

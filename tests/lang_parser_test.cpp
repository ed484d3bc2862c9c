// Parser for the mini Fortran 90D dialect: accepted grammar, rejected
// malformed inputs, and faithful AST shapes for the paper's figures.
#include <gtest/gtest.h>

#include <string>
#include <variant>
#include <vector>

#include "lang/parser.hpp"
#include "lang/token.hpp"

namespace lang = chaos::lang;

TEST(Lexer, TokenKindsAndCase) {
  auto toks = lang::tokenize_line("  Real*8 x(NNode), y_2 ! comment", 3);
  ASSERT_GE(toks.size(), 8u);
  EXPECT_EQ(toks[0].kind, lang::Tok::Ident);
  EXPECT_EQ(toks[0].text, "REAL*8");
  EXPECT_EQ(toks[1].text, "X");
  EXPECT_EQ(toks[2].kind, lang::Tok::LParen);
  EXPECT_EQ(toks[3].text, "NNODE");
  EXPECT_EQ(toks[5].kind, lang::Tok::Comma);
  EXPECT_EQ(toks[6].text, "Y_2");
  EXPECT_EQ(toks.back().kind, lang::Tok::End);
  EXPECT_EQ(toks[0].line, 3);
}

TEST(Lexer, NumbersIncludingFortranDoubles) {
  auto toks = lang::tokenize_line("1 2.5 1e3 4.5d-2 2**3", 1);
  EXPECT_DOUBLE_EQ(toks[0].number, 1.0);
  EXPECT_DOUBLE_EQ(toks[1].number, 2.5);
  EXPECT_DOUBLE_EQ(toks[2].number, 1000.0);
  EXPECT_DOUBLE_EQ(toks[3].number, 0.045);
  EXPECT_EQ(toks[5].kind, lang::Tok::Power);
}

TEST(Lexer, RejectsGarbage) {
  EXPECT_THROW(lang::tokenize_line("x @ y", 1), lang::LangError);
}

TEST(Parser, Figure4ProgramParses) {
  // The paper's Figure 4, modulo the partitioner spelling.
  const char* source = R"(
      REAL*8 x(nnode), y(nnode)
      INTEGER end_pt1(nedge), end_pt2(nedge)
C$    DYNAMIC, DECOMPOSITION reg(nnode), reg2(nedge)
C$    DISTRIBUTE reg(BLOCK), reg2(BLOCK)
C$    ALIGN x, y WITH reg
C$    ALIGN end_pt1, end_pt2 WITH reg2
C$    CONSTRUCT G (nnode, LINK(nedge, end_pt1, end_pt2))
C$    SET distfmt BY PARTITIONING G USING RSB
C$    REDISTRIBUTE reg(distfmt)
      FORALL i = 1, nedge
        REDUCE(ADD, y(end_pt1(i)), x(end_pt1(i)) * x(end_pt2(i)))
        REDUCE(ADD, y(end_pt2(i)), x(end_pt1(i)) - x(end_pt2(i)))
      END FORALL
)";
  auto prog = lang::compile(source);
  // decl, decl, decomps, distribute(+1 pending), align, align, construct,
  // set, redistribute, forall
  ASSERT_EQ(prog.statements.size(), 11u);
  EXPECT_EQ(prog.forall_count, 1u);
  // Host must bind NNODE and NEDGE.
  ASSERT_EQ(prog.params.size(), 2u);
  EXPECT_EQ(prog.params[0], "NEDGE");
  EXPECT_EQ(prog.params[1], "NNODE");

  const auto* forall =
      std::get_if<lang::Forall>(&prog.statements.back().node);
  ASSERT_NE(forall, nullptr);
  EXPECT_EQ(forall->loop_var, "I");
  ASSERT_EQ(forall->body.size(), 2u);
  EXPECT_EQ(forall->body[0].op, lang::LoopReduceOp::Add);
  EXPECT_EQ(forall->body[0].target_array, "Y");
  EXPECT_FALSE(forall->body[0].target_index.direct);
  EXPECT_EQ(forall->body[0].target_index.ind_array, "END_PT1");
}

TEST(Parser, GeometryConstructOfFigure5) {
  const char* source = R"(
      REAL*8 xc(n), yc(n), zc(n)
C$    DECOMPOSITION reg(n)
C$    DISTRIBUTE reg(BLOCK)
C$    ALIGN xc, yc, zc WITH reg
C$    CONSTRUCT G (n, GEOMETRY(3, xc, yc, zc))
C$    SET distfmt BY PARTITIONING G USING RCB
)";
  auto prog = lang::compile(source);
  const lang::Construct* c = nullptr;
  for (const auto& s : prog.statements) {
    if (const auto* g = std::get_if<lang::Construct>(&s.node)) c = g;
  }
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->geometry_dims, 3);
  EXPECT_EQ(c->geometry_arrays,
            (std::vector<std::string>{"XC", "YC", "ZC"}));
  EXPECT_TRUE(c->links.empty());
}

TEST(Parser, CombinedGeoColClausesAndLoad) {
  auto prog = lang::compile(
      "C$ CONSTRUCT G4 (n, GEOMETRY(2, xc, yc), LINK(e, u, v), LOAD(w))");
  const auto* c = std::get_if<lang::Construct>(&prog.statements[0].node);
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->geometry_dims, 2);
  EXPECT_EQ(c->links.size(), 1u);
  EXPECT_EQ(c->load_array, "W");
}

TEST(Parser, DoLoopNestsStatements) {
  const char* source = R"(
      REAL*8 x(n)
      DO iter = 1, 10
      FORALL i = 1, n
        x(i) = x(i) + 1.0
      END FORALL
      END DO
)";
  auto prog = lang::compile(source);
  ASSERT_EQ(prog.statements.size(), 2u);
  const auto* loop = std::get_if<lang::DoLoop>(&prog.statements[1].node);
  ASSERT_NE(loop, nullptr);
  EXPECT_EQ(loop->var, "ITER");
  ASSERT_EQ(loop->body.size(), 1u);
  EXPECT_NE(std::get_if<lang::Forall>(&loop->body[0].node), nullptr);
  // ITER is the DO variable, not a host parameter.
  for (const auto& p : prog.params) EXPECT_NE(p, "ITER");
}

TEST(Parser, ExpressionPrecedenceAndIntrinsics) {
  const char* source = R"(
      FORALL i = 1, n
        y(ia(i)) = 2.0 + x(ib(i)) * 3.0 - SQRT(ABS(x(ic(i)))) / 2.0 ** 2
      END FORALL
)";
  auto prog = lang::compile(source);
  const auto* f = std::get_if<lang::Forall>(&prog.statements[0].node);
  ASSERT_NE(f, nullptr);
  const auto& e = *f->body[0].value;
  // Top node: (2.0 + x*3.0) - sqrt/2**2  => Binary Sub.
  const auto* top = std::get_if<lang::Expr::Binary>(&e.node);
  ASSERT_NE(top, nullptr);
  EXPECT_EQ(top->op, lang::BinOp::Sub);
  const auto* left = std::get_if<lang::Expr::Binary>(&top->lhs->node);
  ASSERT_NE(left, nullptr);
  EXPECT_EQ(left->op, lang::BinOp::Add);
}

TEST(Parser, CommentAndDirectiveLineHandling) {
  const char* source = R"(
C this is a comment and CONSTRUCT here is ignored
* another comment
! bang comment
C$ DECOMPOSITION reg(10)
)";
  auto prog = lang::compile(source);
  ASSERT_EQ(prog.statements.size(), 1u);
  EXPECT_NE(std::get_if<lang::DeclDecomps>(&prog.statements[0].node),
            nullptr);
}

TEST(Parser, RejectsTwoLevelIndirection) {
  EXPECT_THROW(lang::compile(R"(
      FORALL i = 1, n
        y(ia(ib(i))) = 1.0
      END FORALL
)"),
               lang::LangError);
}

TEST(Parser, RejectsNonLoopVarSubscript) {
  EXPECT_THROW(lang::compile(R"(
      FORALL i = 1, n
        y(j) = 1.0
      END FORALL
)"),
               lang::LangError);
}

TEST(Parser, RejectsUnterminatedBlocks) {
  EXPECT_THROW(lang::compile("FORALL i = 1, n"), lang::LangError);
  EXPECT_THROW(lang::compile("DO k = 1, 5"), lang::LangError);
}

TEST(Parser, RejectsUnknownStatementsAndBadReduce) {
  EXPECT_THROW(lang::compile("FROBNICATE x"), lang::LangError);
  EXPECT_THROW(lang::compile(R"(
      FORALL i = 1, n
        REDUCE(XOR, y(ia(i)), 1.0)
      END FORALL
)"),
               lang::LangError);
}

TEST(Parser, ErrorsCarryLineNumbers) {
  try {
    (void)lang::compile("\n\nC$ DISTRIBUTE reg BLOCK\n");
    FAIL() << "expected LangError";
  } catch (const lang::LangError& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos)
        << e.what();
  }
}

TEST(Parser, ErrorsRenderLineAndColumn) {
  // Diagnostics render as "line L:C: message" with C a 1-based column into
  // the raw source line (the C$ sentinel is blanked, not stripped, so
  // directive columns stay aligned with the file).
  try {
    (void)lang::compile("\n\nC$ DISTRIBUTE reg BLOCK\n");
    FAIL() << "expected LangError";
  } catch (const lang::LangError& e) {
    // "BLOCK" starts at column 19 of the raw line, where '(' was expected.
    EXPECT_EQ(std::string(e.what()), "line 3:19: expected '('");
  }

  try {
    (void)lang::compile(R"(
      FORALL i = 1, n
        y(i) = x(i) +
      END FORALL
)");
    FAIL() << "expected LangError";
  } catch (const lang::LangError& e) {
    const std::string msg = e.what();
    // Whatever the wording, the location prefix must carry line AND column.
    EXPECT_EQ(msg.rfind("line 3:", 0), 0u) << msg;
    EXPECT_NE(msg.find(": "), std::string::npos) << msg;
  }
}

TEST(Parser, ExpressionDepthIsCappedAtTheVmStack) {
  // The VM evaluates a FORALL body on a kMaxExprDepth-slot stack, and a tree
  // never needs more slots than its height. Each shape below crosses that
  // height; each must end in a LangError at the token that crosses it, not
  // in a parser stack overflow or an untyped check at execute.
  ASSERT_EQ(lang::kMaxExprDepth, 64);
  const auto repeat = [](const std::string& s, int k) {
    std::string out;
    for (int j = 0; j < k; ++j) out += s;
    return out;
  };
  // The value starts at column 16 of line 2.
  const auto forall = [](const std::string& value) {
    return "      FORALL i = 1, n\n        y(i) = " + value +
           "\n      END FORALL\n";
  };
  struct Shape {
    std::string value;
    int column;  // of the token that crosses the limit
  };
  const std::vector<Shape> shapes = {
      // 64th '(' opens level 65.
      {repeat("(", 30000) + "x(i)" + repeat(")", 30000), 15 + 64},
      // 64th unary '-'.
      {repeat("-", 30000) + "x(i)", 15 + 64},
      // '(' of the 64th sqrt.
      {repeat("sqrt(", 30000) + "x(i)" + repeat(")", 30000), 16 + 5 * 63 + 4},
      // 64th '+' makes a left-deep chain of height 65.
      {"x(i)" + repeat(" + x(i)", 199999), 21 + 7 * 63},
      // 64th '(' of a right-nested sum.
      {repeat("x(i) + (", 64) + "x(i)" + repeat(")", 64), 23 + 8 * 63},
  };
  for (const auto& shape : shapes) {
    try {
      (void)lang::compile(forall(shape.value));
      ADD_FAILURE() << "expected LangError for " << shape.value.substr(0, 40);
    } catch (const lang::LangError& e) {
      EXPECT_EQ(std::string(e.what()),
                "line 2:" + std::to_string(shape.column) +
                    ": expression nested deeper than 64 levels");
    }
  }
  // The limit itself is accepted: 64 terms, and a right-nested sum whose
  // stack need is exactly 64.
  EXPECT_NO_THROW((void)lang::compile(forall("x(i)" + repeat(" + x(i)", 63))));
  EXPECT_NO_THROW((void)lang::compile(
      forall(repeat("x(i) + (", 63) + "x(i)" + repeat(")", 63))));
}

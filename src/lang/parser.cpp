#include "lang/parser.hpp"

#include <algorithm>
#include <optional>
#include <set>
#include <sstream>

#include "lang/token.hpp"

namespace chaos::lang {

namespace {

struct Line {
  std::vector<Token> tokens;
  int number;
};

/// Splits the source into directive/statement lines, dropping comments and
/// stripping the "C$" directive prefix.
std::vector<Line> logical_lines(const std::string& source) {
  std::vector<Line> out;
  std::istringstream in(source);
  std::string raw;
  int line_no = 0;
  while (std::getline(in, raw)) {
    ++line_no;
    std::string text = raw;
    // Fixed-form comment: 'C' or '*' in column 1 (but "C$" is a directive).
    if (!text.empty() && (text[0] == 'C' || text[0] == 'c' || text[0] == '*')) {
      if (text.size() >= 2 && text[1] == '$') {
        // Blank the sentinel instead of stripping it so token columns keep
        // pointing at the raw source line in diagnostics.
        text[0] = ' ';
        text[1] = ' ';
      } else {
        continue;
      }
    }
    // Blank / pure-comment lines vanish.
    auto tokens = tokenize_line(text, line_no);
    if (tokens.size() <= 1) continue;
    out.push_back(Line{std::move(tokens), line_no});
  }
  return out;
}

class Parser {
 public:
  explicit Parser(std::vector<Line> lines) : lines_(std::move(lines)) {}

  Program parse() {
    Program prog;
    while (cursor_ < lines_.size()) {
      prog.statements.push_back(parse_statement(prog));
      for (auto& s : pending_) prog.statements.push_back(std::move(s));
      pending_.clear();
    }
    prog.params.assign(params_.begin(), params_.end());
    return prog;
  }

 private:
  // --- line-level helpers ---------------------------------------------------

  const Line& line() const { return lines_[cursor_]; }

  [[noreturn]] void fail(const std::string& msg, const Token& t) const {
    throw LangError(msg, t.line, t.column);
  }

  struct Cursor {
    const std::vector<Token>* toks;
    std::size_t i = 0;
    const Token& peek() const { return (*toks)[i]; }
    const Token& next() { return (*toks)[i++]; }
  };

  static bool is_ident(const Token& t, const char* kw) {
    return t.kind == Tok::Ident && t.text == kw;
  }

  Token expect(Cursor& c, Tok kind, const char* what) {
    if (c.peek().kind != kind) fail(std::string("expected ") + what, c.peek());
    return c.next();
  }

  std::string expect_name(Cursor& c, const char* what) {
    return expect(c, Tok::Ident, what).text;
  }

  void expect_kw(Cursor& c, const char* kw) {
    const Token& t = c.next();
    if (t.kind != Tok::Ident || t.text != kw) {
      fail(std::string("expected keyword ") + kw, t);
    }
  }

  void expect_eol(Cursor& c) {
    if (c.peek().kind != Tok::End) fail("unexpected trailing tokens", c.peek());
  }

  SizeExpr parse_size(Cursor& c) {
    SizeExpr s;
    s.line = c.peek().line;
    s.column = c.peek().column;
    if (c.peek().kind == Tok::Number) {
      const Token t = c.next();
      s.literal = static_cast<i64>(t.number);
      if (static_cast<f64>(s.literal) != t.number || s.literal < 0) {
        fail("extent must be a non-negative integer", t);
      }
    } else {
      s.param = expect_name(c, "extent (literal or parameter name)");
      params_.insert(s.param);
    }
    return s;
  }

  // --- statements -----------------------------------------------------------

  Statement parse_statement(Program& prog) {
    Cursor c{&line().tokens};
    const Token head = c.peek();
    if (head.kind != Tok::Ident) fail("expected a statement keyword", head);

    if (head.text == "REAL*8" || head.text == "REAL" ||
        head.text == "INTEGER") {
      return Statement{parse_decl_arrays(c)};
    }
    if (head.text == "DYNAMIC" || head.text == "DECOMPOSITION") {
      return Statement{parse_decl_decomps(c)};
    }
    if (head.text == "DISTRIBUTE") return Statement{parse_distribute(c)};
    if (head.text == "ALIGN") return Statement{parse_align(c)};
    if (head.text == "CONSTRUCT") return Statement{parse_construct(c)};
    if (head.text == "SET") return Statement{parse_set(c)};
    if (head.text == "REDISTRIBUTE") return Statement{parse_redistribute(c)};
    if (head.text == "FORALL") return Statement{parse_forall(c, prog)};
    if (head.text == "DO") return Statement{parse_do(c, prog)};
    fail("unknown statement '" + head.text + "'", head);
  }

  DeclArrays parse_decl_arrays(Cursor& c) {
    DeclArrays d;
    const Token head = c.next();
    d.type = head.text == "INTEGER" ? ElemType::Integer : ElemType::Real8;
    while (true) {
      const std::string name = expect_name(c, "array name");
      expect(c, Tok::LParen, "'('");
      SizeExpr size = parse_size(c);
      expect(c, Tok::RParen, "')'");
      d.arrays.emplace_back(name, std::move(size));
      if (c.peek().kind != Tok::Comma) break;
      c.next();
    }
    expect_eol(c);
    ++cursor_;
    return d;
  }

  DeclDecomps parse_decl_decomps(Cursor& c) {
    if (is_ident(c.peek(), "DYNAMIC")) {
      c.next();
      if (c.peek().kind == Tok::Comma) c.next();
      expect_kw(c, "DECOMPOSITION");
    } else {
      expect_kw(c, "DECOMPOSITION");
    }
    DeclDecomps d;
    while (true) {
      const std::string name = expect_name(c, "decomposition name");
      expect(c, Tok::LParen, "'('");
      SizeExpr size = parse_size(c);
      expect(c, Tok::RParen, "')'");
      d.decomps.emplace_back(name, std::move(size));
      if (c.peek().kind != Tok::Comma) break;
      c.next();
    }
    expect_eol(c);
    ++cursor_;
    return d;
  }

  Distribute parse_distribute(Cursor& c) {
    const int col = c.peek().column;
    expect_kw(c, "DISTRIBUTE");
    Distribute d;
    d.line = line().number;
    d.column = col;
    d.decomp = expect_name(c, "decomposition name");
    expect(c, Tok::LParen, "'('");
    d.format = expect_name(c, "distribution format");
    expect(c, Tok::RParen, "')'");
    // The paper writes "DISTRIBUTE reg(BLOCK), reg2(BLOCK)": accept the
    // multi-target form by splitting into chained statements is overkill —
    // instead allow extra pairs and keep them in extras_.
    while (c.peek().kind == Tok::Comma) {
      c.next();
      Distribute more;
      more.line = d.line;
      more.column = c.peek().column;
      more.decomp = expect_name(c, "decomposition name");
      expect(c, Tok::LParen, "'('");
      more.format = expect_name(c, "distribution format");
      expect(c, Tok::RParen, "')'");
      pending_.push_back(Statement{std::move(more)});
    }
    expect_eol(c);
    ++cursor_;
    return d;
  }

  Align parse_align(Cursor& c) {
    const int col = c.peek().column;
    expect_kw(c, "ALIGN");
    Align a;
    a.line = line().number;
    a.column = col;
    while (true) {
      a.arrays.push_back(expect_name(c, "array name"));
      if (c.peek().kind != Tok::Comma) break;
      c.next();
    }
    expect_kw(c, "WITH");
    a.decomp = expect_name(c, "decomposition name");
    expect_eol(c);
    ++cursor_;
    return a;
  }

  Construct parse_construct(Cursor& c) {
    const int col = c.peek().column;
    expect_kw(c, "CONSTRUCT");
    Construct g;
    g.line = line().number;
    g.column = col;
    g.name = expect_name(c, "GeoCoL name");
    expect(c, Tok::LParen, "'('");
    g.nverts = parse_size(c);
    while (c.peek().kind == Tok::Comma) {
      c.next();
      const std::string clause = expect_name(c, "GEOMETRY, LINK or LOAD");
      expect(c, Tok::LParen, "'('");
      if (clause == "GEOMETRY") {
        const Token dims = expect(c, Tok::Number, "dimension count");
        g.geometry_dims = static_cast<int>(dims.number);
        if (g.geometry_dims < 1 || g.geometry_dims > 3) {
          fail("GEOMETRY dimensionality must be 1..3", dims);
        }
        for (int d = 0; d < g.geometry_dims; ++d) {
          expect(c, Tok::Comma, "','");
          g.geometry_arrays.push_back(expect_name(c, "coordinate array"));
        }
      } else if (clause == "LINK") {
        g.link_size = parse_size(c);
        expect(c, Tok::Comma, "','");
        const std::string u = expect_name(c, "edge array");
        expect(c, Tok::Comma, "','");
        const std::string v = expect_name(c, "edge array");
        g.links.emplace_back(u, v);
      } else if (clause == "LOAD") {
        g.load_array = expect_name(c, "weight array");
      } else {
        fail("unknown CONSTRUCT clause '" + clause + "'", c.peek());
      }
      expect(c, Tok::RParen, "')'");
    }
    expect(c, Tok::RParen, "')'");
    expect_eol(c);
    ++cursor_;
    return g;
  }

  SetPartition parse_set(Cursor& c) {
    const int col = c.peek().column;
    expect_kw(c, "SET");
    SetPartition s;
    s.line = line().number;
    s.column = col;
    s.dist_name = expect_name(c, "distribution name");
    expect_kw(c, "BY");
    expect_kw(c, "PARTITIONING");
    s.geocol = expect_name(c, "GeoCoL name");
    expect_kw(c, "USING");
    s.partitioner = expect_name(c, "partitioner name");
    // Registered partitioner names may contain '+' ("RCB+KL").
    if (c.peek().kind == Tok::Plus) {
      c.next();
      s.partitioner += "+" + expect_name(c, "partitioner suffix");
    }
    expect_eol(c);
    ++cursor_;
    return s;
  }

  Redistribute parse_redistribute(Cursor& c) {
    const int col = c.peek().column;
    expect_kw(c, "REDISTRIBUTE");
    Redistribute r;
    r.line = line().number;
    r.column = col;
    r.decomp = expect_name(c, "decomposition name");
    expect(c, Tok::LParen, "'('");
    r.dist_name = expect_name(c, "distribution name");
    expect(c, Tok::RParen, "')'");
    expect_eol(c);
    ++cursor_;
    return r;
  }

  DoLoop parse_do(Cursor& c, Program& prog) {
    const int col = c.peek().column;
    expect_kw(c, "DO");
    DoLoop loop;
    loop.line = line().number;
    loop.column = col;
    loop.var = expect_name(c, "loop variable");
    expect(c, Tok::Assign, "'='");
    loop.lo = parse_size(c);
    // The DO variable must not be mistaken for a host parameter.
    params_.erase(loop.var);
    do_vars_.insert(loop.var);
    expect(c, Tok::Comma, "','");
    loop.hi = parse_size(c);
    expect_eol(c);
    ++cursor_;
    while (true) {
      if (cursor_ >= lines_.size()) {
        throw LangError("DO without END DO", loop.line, loop.column);
      }
      Cursor probe{&line().tokens};
      if (is_ident(probe.peek(), "END")) {
        probe.next();
        expect_kw(probe, "DO");
        expect_eol(probe);
        ++cursor_;
        break;
      }
      if (is_ident(probe.peek(), "ENDDO")) {
        probe.next();
        expect_eol(probe);
        ++cursor_;
        break;
      }
      loop.body.push_back(parse_statement(prog));
      // Flush multi-target DISTRIBUTE extras into the block.
      for (auto& s : pending_) loop.body.push_back(std::move(s));
      pending_.clear();
    }
    return loop;
  }

  Forall parse_forall(Cursor& c, Program& prog) {
    const int col = c.peek().column;
    expect_kw(c, "FORALL");
    Forall f;
    f.line = line().number;
    f.column = col;
    f.loop_id = ++prog.forall_count;
    f.loop_var = expect_name(c, "loop variable");
    expect(c, Tok::Assign, "'='");
    f.lo = parse_size(c);
    params_.erase(f.loop_var);
    expect(c, Tok::Comma, "','");
    f.hi = parse_size(c);
    expect_eol(c);
    ++cursor_;

    while (true) {
      if (cursor_ >= lines_.size()) {
        throw LangError("FORALL without END FORALL", f.line, f.column);
      }
      Cursor b{&line().tokens};
      if (is_ident(b.peek(), "END")) {
        b.next();
        expect_kw(b, "FORALL");
        expect_eol(b);
        ++cursor_;
        break;
      }
      f.body.push_back(parse_loop_statement(b, f.loop_var));
      ++cursor_;
    }
    if (f.body.empty()) {
      throw LangError("empty FORALL body", f.line, f.column);
    }
    return f;
  }

  LoopStatement parse_loop_statement(Cursor& c, const std::string& loop_var) {
    LoopStatement s;
    s.line = line().number;
    s.column = c.peek().column;
    if (is_ident(c.peek(), "REDUCE")) {
      c.next();
      expect(c, Tok::LParen, "'('");
      const std::string op = expect_name(c, "ADD, MAX or MIN");
      if (op == "ADD") {
        s.op = LoopReduceOp::Add;
      } else if (op == "MAX") {
        s.op = LoopReduceOp::Max;
      } else if (op == "MIN") {
        s.op = LoopReduceOp::Min;
      } else {
        fail("unknown reduction '" + op + "'", c.peek());
      }
      expect(c, Tok::Comma, "','");
      s.target_array = expect_name(c, "target array");
      expect(c, Tok::LParen, "'('");
      s.target_index = parse_index(c, loop_var);
      expect(c, Tok::RParen, "')'");
      expect(c, Tok::Comma, "','");
      s.value = parse_value(c, loop_var);
      expect(c, Tok::RParen, "')'");
      expect_eol(c);
      return s;
    }
    // Plain assignment: a(index) = expr.
    s.op = LoopReduceOp::Assign;
    s.target_array = expect_name(c, "target array");
    expect(c, Tok::LParen, "'('");
    s.target_index = parse_index(c, loop_var);
    expect(c, Tok::RParen, "')'");
    expect(c, Tok::Assign, "'='");
    s.value = parse_value(c, loop_var);
    expect_eol(c);
    return s;
  }

  // --- expressions ----------------------------------------------------------

  IndexRef parse_index(Cursor& c, const std::string& loop_var) {
    IndexRef idx;
    idx.line = c.peek().line;
    idx.column = c.peek().column;
    const std::string name = expect_name(c, "loop variable or ind(i)");
    if (name == loop_var) {
      idx.direct = true;
      return idx;
    }
    idx.direct = false;
    idx.ind_array = name;
    expect(c, Tok::LParen, "'(' — single level of indirection: a(ind(i))");
    const std::string inner = expect_name(c, "loop variable");
    if (inner != loop_var) {
      fail("indirection arrays must be indexed by the loop variable "
           "(the paper's single-level-of-indirection model)",
           c.peek());
    }
    expect(c, Tok::RParen, "')'");
    return idx;
  }

  static std::optional<Intrinsic> intrinsic_of(const std::string& name) {
    if (name == "SQRT") return Intrinsic::Sqrt;
    if (name == "ABS") return Intrinsic::Abs;
    if (name == "SIN") return Intrinsic::Sin;
    if (name == "COS") return Intrinsic::Cos;
    if (name == "EXP") return Intrinsic::Exp;
    if (name == "MIN") return Intrinsic::Min;
    if (name == "MAX") return Intrinsic::Max;
    if (name == "MOD") return Intrinsic::Mod;
    return std::nullopt;
  }

  // Each parse_* below parses a subexpression whose root sits at @p depth
  // (1 for a statement's value) and returns its tree height in @p height.
  // Every subtree keeps depth + height - 1 <= kMaxExprDepth: parentheses,
  // signs, exponents and call arguments open a level before they recurse,
  // which also bounds the recursion, and each new operator node re-checks a
  // growing chain.

  ExprPtr parse_value(Cursor& c, const std::string& loop_var) {
    int height = 0;
    return parse_expr(c, loop_var, 1, height);
  }

  /// Fails at @p t if a node at @p depth of @p height crosses the limit.
  void check_depth(int depth, int height, const Token& t) const {
    if (depth + height - 1 > kMaxExprDepth) {
      fail("expression nested deeper than " + std::to_string(kMaxExprDepth) +
               " levels",
           t);
    }
  }

  static ExprPtr binary(BinOp op, ExprPtr lhs, ExprPtr rhs) {
    auto e = std::make_unique<Expr>();
    e->line = lhs->line;
    e->column = lhs->column;
    e->node = Expr::Binary{op, std::move(lhs), std::move(rhs)};
    return e;
  }

  ExprPtr parse_expr(Cursor& c, const std::string& loop_var, int depth,
                     int& height) {
    ExprPtr lhs = parse_term(c, loop_var, depth, height);
    while (c.peek().kind == Tok::Plus || c.peek().kind == Tok::Minus) {
      const Token op = c.next();
      int rhs_height = 0;
      ExprPtr rhs = parse_term(c, loop_var, depth, rhs_height);
      height = 1 + std::max(height, rhs_height);
      check_depth(depth, height, op);
      lhs = binary(op.kind == Tok::Plus ? BinOp::Add : BinOp::Sub,
                   std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  ExprPtr parse_term(Cursor& c, const std::string& loop_var, int depth,
                     int& height) {
    ExprPtr lhs = parse_factor(c, loop_var, depth, height);
    while (c.peek().kind == Tok::Star || c.peek().kind == Tok::Slash) {
      const Token op = c.next();
      int rhs_height = 0;
      ExprPtr rhs = parse_factor(c, loop_var, depth, rhs_height);
      height = 1 + std::max(height, rhs_height);
      check_depth(depth, height, op);
      lhs = binary(op.kind == Tok::Star ? BinOp::Mul : BinOp::Div,
                   std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  ExprPtr parse_factor(Cursor& c, const std::string& loop_var, int depth,
                       int& height) {
    if (c.peek().kind == Tok::Minus || c.peek().kind == Tok::Plus) {
      const Token sign = c.next();
      check_depth(depth + 1, 1, sign);
      ExprPtr operand = parse_factor(c, loop_var, depth + 1, height);
      if (sign.kind == Tok::Plus) return operand;
      ++height;
      auto e = std::make_unique<Expr>();
      e->line = operand->line;
      e->column = operand->column;
      e->node = Expr::Unary{true, std::move(operand)};
      return e;
    }
    ExprPtr base = parse_primary(c, loop_var, depth, height);
    if (c.peek().kind == Tok::Power) {
      const Token op = c.next();
      check_depth(depth + 1, 1, op);
      int exp_height = 0;
      ExprPtr exponent =  // right associative
          parse_factor(c, loop_var, depth + 1, exp_height);
      height = 1 + std::max(height, exp_height);
      check_depth(depth, height, op);
      return binary(BinOp::Pow, std::move(base), std::move(exponent));
    }
    return base;
  }

  ExprPtr parse_primary(Cursor& c, const std::string& loop_var, int depth,
                        int& height) {
    const Token t = c.peek();
    auto e = std::make_unique<Expr>();
    e->line = t.line;
    e->column = t.column;
    height = 1;
    if (t.kind == Tok::Number) {
      c.next();
      e->node = Expr::Num{t.number};
      return e;
    }
    if (t.kind == Tok::LParen) {
      c.next();
      check_depth(depth + 1, 1, t);
      ExprPtr inner = parse_expr(c, loop_var, depth + 1, height);
      expect(c, Tok::RParen, "')'");
      return inner;
    }
    if (t.kind != Tok::Ident) fail("expected an operand", t);
    c.next();
    if (c.peek().kind != Tok::LParen) {
      // Bare identifier: the loop variable (its value as a number) or a
      // scalar parameter / DO variable.
      if (t.text == loop_var) {
        IndexRef idx;
        idx.direct = true;
        idx.line = t.line;
        e->node = Expr::ArrayRef{"", idx};  // empty array = "value of i"
        return e;
      }
      if (do_vars_.count(t.text) == 0) params_.insert(t.text);
      e->node = Expr::Scalar{t.text};
      return e;
    }
    // name(...): intrinsic call or array reference.
    if (auto fn = intrinsic_of(t.text)) {
      const Token open = c.next();  // '('
      check_depth(depth + 1, 1, open);
      Expr::Call call;
      call.fn = *fn;
      while (true) {
        int arg_height = 0;
        call.args.push_back(parse_expr(c, loop_var, depth + 1, arg_height));
        height = std::max(height, 1 + arg_height);
        if (c.peek().kind != Tok::Comma) break;
        c.next();
      }
      expect(c, Tok::RParen, "')'");
      const std::size_t want =
          (*fn == Intrinsic::Min || *fn == Intrinsic::Max ||
           *fn == Intrinsic::Mod)
              ? 2
              : 1;
      if (call.args.size() != want) {
        fail("wrong argument count for intrinsic " + t.text, t);
      }
      e->node = std::move(call);
      return e;
    }
    c.next();  // '('
    Expr::ArrayRef ref;
    ref.array = t.text;
    ref.index = parse_index(c, loop_var);
    expect(c, Tok::RParen, "')'");
    e->node = std::move(ref);
    return e;
  }

  std::vector<Line> lines_;
  std::size_t cursor_ = 0;
  std::vector<Statement> pending_;  // extra targets of multi-DISTRIBUTE
  std::set<std::string> params_;
  std::set<std::string> do_vars_;
};

}  // namespace

Program compile(const std::string& source) {
  Parser parser(logical_lines(source));
  // Parser::parse handles top-level pending flushing via a small shim: we
  // re-run the loop here so multi-target DISTRIBUTE works at top level too.
  return parser.parse();
}

}  // namespace chaos::lang

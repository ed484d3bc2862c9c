#include "lang/reference.hpp"

#include <algorithm>
#include <cmath>
#include <set>
#include <utility>

#include "lang/token.hpp"

namespace chaos::lang {

namespace {

template <typename Map>
auto& lookup(Map& map, const std::string& name, int line, const char* what) {
  const auto it = map.find(name);
  if (it == map.end()) throw LangError(what + (" '" + name + "'"), line);
  return it->second;
}

struct Evaluator {
  const std::map<std::string, std::vector<f64>>& host_real;
  const std::map<std::string, std::vector<i64>>& host_int;
  std::map<std::string, i64> scalars;
  std::map<std::string, ReferenceArray> real;       ///< REAL*8 arrays
  std::map<std::string, std::vector<i64>> integer;  ///< INTEGER arrays
  std::set<std::string> written;  ///< targets of the running FORALL

  i64 resolve(const SizeExpr& s) {
    return s.literal >= 0 ? s.literal
                          : lookup(scalars, s.param, s.line, "unbound");
  }
  /// Element of an @p n-element array that @p idx names at iteration @p i.
  std::size_t element(i64 n, const IndexRef& idx, i64 i, int line) {
    i64 g = i;
    if (!idx.direct) {
      const auto& ind = lookup(integer, idx.ind_array, line, "no INTEGER");
      g = i <= std::ssize(ind) ? ind[static_cast<std::size_t>(i - 1)] : 0;
    }
    if (g < 1 || g > n) throw LangError("subscript out of range", line);
    return static_cast<std::size_t>(g - 1);
  }
  f64 eval(const Expr& e, i64 i) {
    if (const auto* num = std::get_if<Expr::Num>(&e.node)) return num->value;
    if (const auto* s = std::get_if<Expr::Scalar>(&e.node)) {
      return static_cast<f64>(lookup(scalars, s->name, e.line, "unbound"));
    }
    if (const auto* r = std::get_if<Expr::ArrayRef>(&e.node)) {
      if (r->array.empty()) return static_cast<f64>(i);  // the loop variable
      if (written.count(r->array)) {
        throw LangError(r->array + " is read and written", e.line);
      }
      const auto& a = lookup(real, r->array, e.line, "no REAL*8").value;
      return a[element(std::ssize(a), r->index, i, e.line)];
    }
    if (const auto* u = std::get_if<Expr::Unary>(&e.node)) {
      return -eval(*u->operand, i);
    }
    if (const auto* b = std::get_if<Expr::Binary>(&e.node)) {
      const f64 l = eval(*b->lhs, i), r = eval(*b->rhs, i);
      switch (b->op) {
        case BinOp::Add: return l + r;
        case BinOp::Sub: return l - r;
        case BinOp::Mul: return l * r;
        case BinOp::Div: return l / r;
        case BinOp::Pow: return std::pow(l, r);
      }
    }
    const auto& c = std::get<Expr::Call>(e.node);
    const f64 x = eval(*c.args[0], i);
    switch (c.fn) {
      case Intrinsic::Sqrt: return std::sqrt(x);
      case Intrinsic::Abs: return std::abs(x);
      case Intrinsic::Sin: return std::sin(x);
      case Intrinsic::Cos: return std::cos(x);
      case Intrinsic::Exp: return std::exp(x);
      case Intrinsic::Min: return std::min(x, eval(*c.args[1], i));
      case Intrinsic::Max: return std::max(x, eval(*c.args[1], i));
      case Intrinsic::Mod: return std::fmod(x, eval(*c.args[1], i));
    }
    return 0.0;
  }
  void forall(const Forall& f) {
    if (resolve(f.lo) != 1) throw LangError("FORALL lower bound not 1", f.line);
    const i64 n = resolve(f.hi);
    for (const auto& st : f.body) written.insert(st.target_array);
    std::set<std::pair<std::string, std::size_t>> assigned;
    for (const auto& st : f.body) {
      auto& [t, sum] = lookup(real, st.target_array, st.line, "no REAL*8");
      for (i64 i = 1; i <= n; ++i) {
        const f64 v = eval(*st.value, i);
        const auto k = element(std::ssize(t), st.target_index, i, st.line);
        switch (st.op) {
          case LoopReduceOp::Assign:
            if (!assigned.emplace(st.target_array, k).second) {
              throw LangError(st.target_array + "(" + std::to_string(k + 1) +
                                  ") assigned twice in one FORALL",
                              st.line, st.column);
            }
            t[k] = v;
            break;
          case LoopReduceOp::Add:
            sum[k] = (sum[k] == 0.0 ? std::abs(t[k]) : sum[k]) + std::abs(v);
            t[k] += v;
            break;
          case LoopReduceOp::Max: t[k] = std::max(t[k], v); break;
          case LoopReduceOp::Min: t[k] = std::min(t[k], v); break;
        }
      }
    }
    written.clear();
  }
  void run(const std::vector<Statement>& statements) {
    for (const auto& s : statements) {
      if (const auto* d = std::get_if<DeclArrays>(&s.node)) {
        for (const auto& [name, extent] : d->arrays) {
          const auto n = static_cast<std::size_t>(resolve(extent));
          if (d->type == ElemType::Real8) {
            real[name] = {host_real.count(name) ? host_real.at(name)
                                                : std::vector<f64>(n),
                          std::vector<f64>(n)};
          } else {
            integer[name] = host_int.count(name) ? host_int.at(name)
                                                 : std::vector<i64>(n);
          }
          CHAOS_CHECK((d->type == ElemType::Real8 ? real[name].value.size()
                                                  : integer[name].size()) == n,
                      "binding for " + name + " has wrong length");
        }
      } else if (const auto* loop = std::get_if<DoLoop>(&s.node)) {
        const i64 lo = resolve(loop->lo), hi = resolve(loop->hi);
        for (i64 v = lo; v <= hi; ++v) {
          scalars[loop->var] = v;
          run(loop->body);
        }
      } else if (const auto* f = std::get_if<Forall>(&s.node)) {
        forall(*f);
      }
    }
  }
};

}  // namespace

std::map<std::string, ReferenceArray> evaluate_reference(
    const Program& program, const std::map<std::string, i64>& params,
    const std::map<std::string, std::vector<f64>>& reals,
    const std::map<std::string, std::vector<i64>>& ints) {
  Evaluator ev{reals, ints, params, {}, {}, {}};
  for (const auto& p : program.params) lookup(ev.scalars, p, 0, "unbound");
  ev.run(program.statements);
  return std::move(ev.real);
}

i64 first_reference_mismatch(const std::vector<f64>& vm,
                             const ReferenceArray& ref) {
  if (vm.size() != ref.value.size()) return 0;
  std::size_t k = 0;
  for (; k < vm.size(); ++k) {
    const f64 a = vm[k], b = ref.value[k];
    if (a != b && !(std::abs(a - b) <= 1e-12 * ref.scale[k])) break;
  }
  return k == vm.size() ? -1 : static_cast<i64>(k);
}

}  // namespace chaos::lang

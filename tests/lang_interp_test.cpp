// The lang::Instance contract around execution: the exact text of every
// semantic diagnostic, the options it rejects, and introspection before the
// first execute. The VM's answers are checked in lang_vm_test.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "dist/translation_cache.hpp"
#include "lang/interp.hpp"
#include "lang/parser.hpp"
#include "lang/token.hpp"
#include "rt/machine.hpp"

namespace rt = chaos::rt;
namespace core = chaos::core;
namespace lang = chaos::lang;
using chaos::i64;

TEST(Interp, SemanticDiagnosticsArePinned) {
  struct Bad {
    const char* source;
    std::map<std::string, std::vector<i64>> ints;
    const char* message;
  };
  const std::vector<Bad> table = {
      {"C$ DECOMPOSITION reg(n)", {},
       "line 0: parameter 'N' is not bound by the host"},
      {R"(
      REAL*8 x(4)
C$    DECOMPOSITION reg(4)
C$    ALIGN x WITH reg
)",
       {},
       "line 4:7: ALIGN before DISTRIBUTE of 'REG'"},
      {R"(
      REAL*8 x(4)
      INTEGER ia(4)
C$    DECOMPOSITION reg(4)
C$    DISTRIBUTE reg(BLOCK)
C$    ALIGN x, ia WITH reg
      FORALL i = 1, 4
        x(ia(i)) = x(ia(i)) + 1.0
      END FORALL
)",
       {{"IA", {1, 2, 3, 4}}},
       "line 7:7: array 'X' is both read and written in one FORALL; only "
       "left-hand-side reductions may carry dependences"},
      {R"(
      REAL*8 x(4), w(4)
C$    DECOMPOSITION reg(4)
C$    DISTRIBUTE reg(BLOCK)
C$    ALIGN x, w WITH reg
      FORALL i = 1, 4
        x(w(i)) = 1.0
      END FORALL
)",
       {},
       "line 6:7: indirection array 'W' must be INTEGER"},
      {R"(
      REAL*8 x(4), y(4)
      INTEGER ia(4)
C$    DECOMPOSITION reg(4)
C$    DISTRIBUTE reg(BLOCK)
C$    ALIGN x, y, ia WITH reg
      FORALL i = 1, 4
        y(ia(i)) = x(i)
      END FORALL
)",
       {{"IA", {1, 2, 3, 9}}},
       "line 7:7: indirection array 'IA' holds index 9 outside 1..4"},
      {R"(
      REAL*8 x(4), y(4)
      INTEGER ia(4)
C$    DECOMPOSITION reg(4)
C$    DISTRIBUTE reg(BLOCK)
C$    ALIGN x, y, ia WITH reg
      FORALL i = 1, 4
        REDUCE(ADD, y(ia(i)), x(i))
        REDUCE(MAX, y(ia(i)), x(i))
      END FORALL
)",
       {{"IA", {1, 2, 3, 4}}},
       "line 9:9: mixed reduction operators on array 'Y' in one FORALL"},
      {R"(
      REAL*8 x(4), y(4)
      INTEGER ia(4)
C$    DECOMPOSITION reg(4), reg2(4)
C$    DISTRIBUTE reg(BLOCK), reg2(BLOCK)
C$    ALIGN x, y WITH reg
C$    ALIGN ia WITH reg2
      FORALL i = 1, 4
        y(ia(i)) = x(i) + x(ia(i))
      END FORALL
)",
       {{"IA", {1, 2, 3, 4}}},
       "line 8:7: directly indexed arrays must be aligned with the iteration "
       "space"},
      {R"(
      REAL*8 x(4), x(4)
)",
       {},
       "line 2:22: array 'X' redeclared"},
      {R"(
      REAL*8 y(4)
C$    DECOMPOSITION reg(4)
C$    DISTRIBUTE reg(BLOCK)
C$    ALIGN y WITH reg
      DO k = 7, 6
      END DO
      FORALL i = 1, 4
        y(i) = 2.0 * k
      END FORALL
)",
       {},
       "line 9:22: unbound scalar 'K'"},
  };
  rt::Machine::run(1, [&](rt::Process& p) {
    for (const auto& bad : table) {
      auto prog = lang::compile(bad.source);
      lang::Instance inst(prog);
      for (const auto& [name, v] : bad.ints) inst.bind_int(name, v);
      std::string message = "<no error>";
      try {
        inst.execute(p);
      } catch (const lang::LangError& e) {
        message = e.what();
      }
      EXPECT_EQ(message, bad.message) << bad.source;
    }
  });
}

TEST(Interp, SetOptionsRejectsATranslationCache) {
  // A cache binds to one distribution; a program's FORALLs localize against
  // several (see lang_vm_test's two_redistributes scenario).
  const auto prog = lang::compile("C$ DECOMPOSITION reg(4)");
  lang::Instance inst(prog);
  chaos::dist::TranslationCache tcache(64);
  core::PlanOptions opts;
  opts.translation_cache = &tcache;
  EXPECT_THROW(inst.set_options(opts), chaos::ChaosError);
  opts.translation_cache = nullptr;
  opts.repair = core::RepairMode::Off;
  inst.set_options(opts);
  EXPECT_EQ(inst.options().repair, core::RepairMode::Off);
}

TEST(Interp, IntrospectionIsSafeBeforeFirstExecute) {
  auto prog = lang::compile(R"(
      REAL*8 x(4)
C$    DECOMPOSITION reg(4)
C$    DISTRIBUTE reg(BLOCK)
C$    ALIGN x WITH reg
)");
  lang::Instance inst(prog);
  EXPECT_EQ(inst.cache_stats().hits, 0);
  EXPECT_EQ(inst.cache_stats().misses, 0);
  EXPECT_EQ(inst.mapper_cache_stats().hits, 0);
  EXPECT_EQ(inst.mapper_cache_stats().misses, 0);
  EXPECT_EQ(inst.reuse_registry().nmod(), 0u);
}

TEST(Interp, NonAsciiHostNamesEndInATypedError) {
  // Host names are upper-cased byte by byte, as the lexer does: a byte
  // >= 0x80 reaches toupper as an unsigned char, and a name no program can
  // declare is simply unknown.
  const std::string name = "\xC3\x89";
  auto prog = lang::compile(R"(
      REAL*8 x(4)
C$    DECOMPOSITION reg(4)
C$    DISTRIBUTE reg(BLOCK)
C$    ALIGN x WITH reg
)");
  rt::Machine::run(1, [&](rt::Process& p) {
    lang::Instance inst(prog);
    inst.set_param(name, 1);
    inst.bind_real(name, {1.0, 2.0, 3.0, 4.0});
    inst.bind_int(name, {1, 2, 3, 4});
    inst.execute(p);
    std::string message = "<no error>";
    try {
      (void)inst.fetch_real(p, name);
    } catch (const lang::LangError& e) {
      message = e.what();
    }
    EXPECT_EQ(message, "line 0: unknown array '" + name + "'");
  });
}

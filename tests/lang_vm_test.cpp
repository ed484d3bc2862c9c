// Bytecode-VM equivalence: every corpus program must produce bit-identical
// fetched arrays, PhaseTimes, cache statistics, and registry timestamps
// whether it runs through the PlanIR dispatch loop (the default) or the
// tree-walking oracle (set_tree_walk). Also pins the VM-specific contracts:
// warm re-executions are pure plan-cache hits, and introspection is safe
// before the first execute.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <string>
#include <vector>

#include "lang/interp.hpp"
#include "lang/parser.hpp"
#include "lang/token.hpp"
#include "rt/machine.hpp"
#include "workload/mesh.hpp"

namespace rt = chaos::rt;
namespace lang = chaos::lang;
namespace wl = chaos::wl;
using chaos::f64;
using chaos::i64;
using chaos::u64;

namespace {

struct Scenario {
  const char* source = nullptr;
  std::map<std::string, i64> params;
  std::map<std::string, std::vector<f64>> reals;
  std::map<std::string, std::vector<i64>> ints;
  std::vector<std::string> fetch;  // REAL*8 arrays to compare
  bool reuse = true;
  int procs = 4;
};

struct RunResult {
  std::map<std::string, std::vector<f64>> fetched;
  std::vector<lang::PhaseTimes> phases;  // per rank
  i64 cache_hits = 0, cache_misses = 0;
  i64 mapper_hits = 0, mapper_misses = 0;
  u64 nmod = 0;
};

/// Runs the scenario in one execution mode on a fresh machine (fresh virtual
/// clocks), so modeled times of the two modes are directly comparable.
RunResult run_mode(const lang::Program& prog, const Scenario& sc,
                   bool tree_walk) {
  RunResult r;
  r.phases.resize(static_cast<std::size_t>(sc.procs));
  rt::Machine::run(sc.procs, [&](rt::Process& p) {
    lang::Instance inst(prog);
    inst.set_tree_walk(tree_walk);
    inst.set_schedule_reuse(sc.reuse);
    for (const auto& [name, v] : sc.params) inst.set_param(name, v);
    for (const auto& [name, v] : sc.reals) inst.bind_real(name, v);
    for (const auto& [name, v] : sc.ints) inst.bind_int(name, v);
    inst.execute(p);
    r.phases[static_cast<std::size_t>(p.rank())] = inst.phases();
    for (const auto& name : sc.fetch) {
      auto v = inst.fetch_real(p, name);  // collective: every rank calls
      if (p.rank() == 0) r.fetched[name] = std::move(v);
    }
    if (p.rank() == 0) {
      r.cache_hits = inst.cache_stats().hits;
      r.cache_misses = inst.cache_stats().misses;
      r.mapper_hits = inst.mapper_cache_stats().hits;
      r.mapper_misses = inst.mapper_cache_stats().misses;
      r.nmod = inst.reuse_registry().nmod();
    }
  });
  return r;
}

/// Bit-exact comparison of the two execution modes.
void expect_modes_identical(const Scenario& sc) {
  auto prog = lang::compile(sc.source);
  const RunResult vm = run_mode(prog, sc, /*tree_walk=*/false);
  const RunResult tw = run_mode(prog, sc, /*tree_walk=*/true);

  for (const auto& name : sc.fetch) {
    ASSERT_TRUE(tw.fetched.count(name)) << name;
    EXPECT_EQ(vm.fetched.at(name), tw.fetched.at(name))
        << "array " << name << " differs between VM and tree walk";
  }
  for (int rank = 0; rank < sc.procs; ++rank) {
    const auto& a = vm.phases[static_cast<std::size_t>(rank)];
    const auto& b = tw.phases[static_cast<std::size_t>(rank)];
    EXPECT_EQ(a.graph_gen, b.graph_gen) << "rank " << rank;
    EXPECT_EQ(a.partition, b.partition) << "rank " << rank;
    EXPECT_EQ(a.remap, b.remap) << "rank " << rank;
    EXPECT_EQ(a.inspector, b.inspector) << "rank " << rank;
    EXPECT_EQ(a.executor, b.executor) << "rank " << rank;
  }
  EXPECT_EQ(vm.cache_hits, tw.cache_hits);
  EXPECT_EQ(vm.cache_misses, tw.cache_misses);
  EXPECT_EQ(vm.mapper_hits, tw.mapper_hits);
  EXPECT_EQ(vm.mapper_misses, tw.mapper_misses);
  EXPECT_EQ(vm.nmod, tw.nmod);
}

/// 1-based edge arrays of the tiny test mesh.
struct EdgeData {
  i64 nnodes, nedges;
  std::vector<i64> e1, e2;
};

EdgeData tiny_edges() {
  const auto mesh = wl::mesh_tiny();
  EdgeData d{mesh.nnodes, mesh.nedges, mesh.edge1, mesh.edge2};
  for (auto& v : d.e1) v += 1;
  for (auto& v : d.e2) v += 1;
  return d;
}

}  // namespace

TEST(LangVm, MatchesTreeWalkOnGatherLoop) {
  constexpr i64 n = 24;
  Scenario sc;
  sc.source = R"(
      REAL*8 x(n), y(n)
      INTEGER ia(n), ib(n)
C$    DECOMPOSITION reg(n)
C$    DISTRIBUTE reg(BLOCK)
C$    ALIGN x, y, ia, ib WITH reg
      FORALL i = 1, n
        y(ia(i)) = 2.0 * x(ib(i)) + 1.0
      END FORALL
)";
  sc.params["N"] = n;
  std::vector<f64> x0(n);
  std::vector<i64> ia(n), ib(n);
  for (i64 i = 0; i < n; ++i) {
    x0[static_cast<std::size_t>(i)] = 0.5 * static_cast<f64>(i);
    ia[static_cast<std::size_t>(i)] = (i * 7 + 3) % n + 1;  // permutation
    ib[static_cast<std::size_t>(i)] = (i * 5 + 1) % n + 1;
  }
  sc.reals["X"] = x0;
  sc.ints["IA"] = ia;
  sc.ints["IB"] = ib;
  sc.fetch = {"X", "Y"};
  expect_modes_identical(sc);
}

TEST(LangVm, MatchesTreeWalkOnFigure4Pipeline) {
  const auto d = tiny_edges();
  Scenario sc;
  sc.source = R"(
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
  sc.params["NNODE"] = d.nnodes;
  sc.params["NEDGE"] = d.nedges;
  std::vector<f64> x0(static_cast<std::size_t>(d.nnodes));
  for (i64 i = 0; i < d.nnodes; ++i) {
    x0[static_cast<std::size_t>(i)] = std::cos(static_cast<f64>(i));
  }
  sc.reals["X"] = x0;
  sc.ints["END_PT1"] = d.e1;
  sc.ints["END_PT2"] = d.e2;
  sc.fetch = {"X", "Y"};
  expect_modes_identical(sc);
}

TEST(LangVm, MatchesTreeWalkAcrossTimeStepLoop) {
  const auto d = tiny_edges();
  Scenario sc;
  sc.source = R"(
      REAL*8 x(nnode), y(nnode)
      INTEGER end_pt1(nedge), end_pt2(nedge)
C$    DECOMPOSITION reg(nnode), reg2(nedge)
C$    DISTRIBUTE reg(BLOCK), reg2(BLOCK)
C$    ALIGN x, y WITH reg
C$    ALIGN end_pt1, end_pt2 WITH reg2
      DO step = 1, 10
      FORALL i = 1, nedge
        REDUCE(ADD, y(end_pt1(i)), x(end_pt2(i)) + step)
      END FORALL
      END DO
)";
  sc.params["NNODE"] = d.nnodes;
  sc.params["NEDGE"] = d.nedges;
  sc.reals["X"] =
      std::vector<f64>(static_cast<std::size_t>(d.nnodes), 1.0);
  sc.ints["END_PT1"] = d.e1;
  sc.ints["END_PT2"] = d.e2;
  sc.fetch = {"Y"};
  expect_modes_identical(sc);
}

TEST(LangVm, MatchesTreeWalkWithReuseDisabled) {
  const auto d = tiny_edges();
  Scenario sc;
  sc.source = R"(
      REAL*8 x(nnode), y(nnode)
      INTEGER end_pt1(nedge), end_pt2(nedge)
C$    DECOMPOSITION reg(nnode), reg2(nedge)
C$    DISTRIBUTE reg(BLOCK), reg2(BLOCK)
C$    ALIGN x, y WITH reg
C$    ALIGN end_pt1, end_pt2 WITH reg2
      DO step = 1, 4
      FORALL i = 1, nedge
        REDUCE(ADD, y(end_pt1(i)), x(end_pt2(i)))
      END FORALL
      END DO
)";
  sc.params["NNODE"] = d.nnodes;
  sc.params["NEDGE"] = d.nedges;
  sc.reals["X"] =
      std::vector<f64>(static_cast<std::size_t>(d.nnodes), 2.0);
  sc.ints["END_PT1"] = d.e1;
  sc.ints["END_PT2"] = d.e2;
  sc.fetch = {"Y"};
  sc.reuse = false;
  sc.procs = 2;
  expect_modes_identical(sc);
}

TEST(LangVm, MatchesTreeWalkOnMultiStatementForall) {
  // Mixed body: direct assign with intrinsics and scalars, indirect assign
  // through a permutation, and an indirect reduction — every write-routing
  // group (assign-direct, assign-indirect, reduce) in one statement.
  constexpr i64 n = 24;
  Scenario sc;
  sc.source = R"(
      REAL*8 x(n), y(n), z(n), w(n)
      INTEGER ia(n)
C$    DECOMPOSITION reg(n)
C$    DISTRIBUTE reg(BLOCK)
C$    ALIGN x, y, z, w WITH reg
C$    ALIGN ia WITH reg
      FORALL i = 1, n
        z(i) = sqrt(abs(x(i))) + scale * i
        w(ia(i)) = x(i) * 0.5
        REDUCE(MAX, y(ia(i)), x(i) - 1.0)
      END FORALL
)";
  sc.params["N"] = n;
  sc.params["SCALE"] = 3;
  std::vector<f64> x0(n);
  std::vector<i64> ia(n);
  for (i64 i = 0; i < n; ++i) {
    x0[static_cast<std::size_t>(i)] = std::sin(static_cast<f64>(i)) * 4.0;
    ia[static_cast<std::size_t>(i)] = (i * 11 + 5) % n + 1;  // permutation
  }
  sc.reals["X"] = x0;
  sc.ints["IA"] = ia;
  sc.fetch = {"Y", "Z", "W"};
  expect_modes_identical(sc);
}

TEST(LangVm, WarmSweepsArePurePlanCacheHits) {
  // The acceptance counter: K executions of an unchanged FORALL cost one
  // inspector (miss) and K-1 CHECK_INCARNATION hits in VM mode.
  const auto d = tiny_edges();
  const char* source = R"(
      REAL*8 x(nnode), y(nnode)
      INTEGER end_pt1(nedge), end_pt2(nedge)
C$    DECOMPOSITION reg(nnode), reg2(nedge)
C$    DISTRIBUTE reg(BLOCK), reg2(BLOCK)
C$    ALIGN x, y WITH reg
C$    ALIGN end_pt1, end_pt2 WITH reg2
      DO step = 1, 10
      FORALL i = 1, nedge
        REDUCE(ADD, y(end_pt1(i)), x(end_pt2(i)))
      END FORALL
      END DO
)";
  auto prog = lang::compile(source);
  rt::Machine::run(4, [&](rt::Process& p) {
    lang::Instance inst(prog);
    inst.set_param("NNODE", d.nnodes);
    inst.set_param("NEDGE", d.nedges);
    inst.bind_real("X",
                   std::vector<f64>(static_cast<std::size_t>(d.nnodes), 1.0));
    inst.bind_int("END_PT1", d.e1);
    inst.bind_int("END_PT2", d.e2);
    inst.execute(p);
    EXPECT_EQ(inst.cache_stats().misses, 1);
    EXPECT_EQ(inst.cache_stats().hits, 9);
  });
}

TEST(LangVm, IntrospectionIsSafeBeforeFirstExecute) {
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

TEST(LangVm, ErrorMessagesMatchBetweenModes) {
  struct Bad {
    const char* source;
    std::map<std::string, std::vector<i64>> ints;
  };
  const std::vector<Bad> corpus = {
      // Read/write conflict.
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
       {{"IA", {1, 2, 3, 4}}}},
      // Indirection array must be INTEGER.
      {R"(
      REAL*8 x(4), w(4)
C$    DECOMPOSITION reg(4)
C$    DISTRIBUTE reg(BLOCK)
C$    ALIGN x, w WITH reg
      FORALL i = 1, 4
        x(w(i)) = 1.0
      END FORALL
)",
       {}},
      // Subscript out of range.
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
       {{"IA", {1, 2, 3, 9}}}},
      // Mixed reduction operators on one target.
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
       {{"IA", {1, 2, 3, 4}}}},
  };

  rt::Machine::run(1, [&](rt::Process& p) {
    for (const auto& bad : corpus) {
      auto prog = lang::compile(bad.source);
      std::string messages[2];
      for (int mode = 0; mode < 2; ++mode) {
        lang::Instance inst(prog);
        inst.set_tree_walk(mode == 1);
        for (const auto& [name, v] : bad.ints) inst.bind_int(name, v);
        try {
          inst.execute(p);
          messages[mode] = "<no error>";
        } catch (const lang::LangError& e) {
          messages[mode] = e.what();
        }
      }
      EXPECT_NE(messages[0], "<no error>") << bad.source;
      EXPECT_EQ(messages[0], messages[1]) << bad.source;
    }
  });
}

TEST(LangVm, RidesTheShrunkenMachineUntouched) {
  // Degradation contract (DESIGN.md §13): after the machine narrows around a
  // dead rank, a fresh per-rank Instance of the same Program just runs — the
  // VM never caches the machine width, and every distribution, plan, and
  // translation it builds is minted at the width it executes at. The gather
  // uses exactly representable values (halves), so the fetched images must
  // be bit-identical across widths.
  constexpr i64 n = 24;
  Scenario sc;
  sc.source = R"(
      REAL*8 x(n), y(n)
      INTEGER ia(n), ib(n)
C$    DECOMPOSITION reg(n)
C$    DISTRIBUTE reg(BLOCK)
C$    ALIGN x, y, ia, ib WITH reg
      FORALL i = 1, n
        y(ia(i)) = 2.0 * x(ib(i)) + 1.0
      END FORALL
)";
  sc.params["N"] = n;
  std::vector<f64> x0(n);
  std::vector<i64> ia(n), ib(n);
  for (i64 i = 0; i < n; ++i) {
    x0[static_cast<std::size_t>(i)] = 0.5 * static_cast<f64>(i);
    ia[static_cast<std::size_t>(i)] = (i * 7 + 3) % n + 1;
    ib[static_cast<std::size_t>(i)] = (i * 5 + 1) % n + 1;
  }
  sc.reals["X"] = x0;
  sc.ints["IA"] = ia;
  sc.ints["IB"] = ib;
  sc.fetch = {"Y"};

  const auto prog = lang::compile(sc.source);
  rt::Machine machine(6);
  auto fetch_y = [&]() {
    std::vector<f64> y;
    machine.run([&](rt::Process& p) {
      lang::Instance inst(prog);
      for (const auto& [name, v] : sc.params) inst.set_param(name, v);
      for (const auto& [name, v] : sc.reals) inst.bind_real(name, v);
      for (const auto& [name, v] : sc.ints) inst.bind_int(name, v);
      inst.execute(p);
      auto v = inst.fetch_real(p, "Y");
      if (p.rank() == 0) y = std::move(v);
    });
    return y;
  };

  const std::vector<f64> full = fetch_y();
  machine.shrink_to(4);  // two ranks died; survivors carry on
  const std::vector<f64> degraded = fetch_y();
  EXPECT_EQ(full, degraded);
  machine.shrink_to(1);  // total collapse still executes (inline)
  const std::vector<f64> solo = fetch_y();
  EXPECT_EQ(full, solo);
}

// The PlanIR VM end to end. Every scenario runs at P = 1, 3 and 4 and must
// match the serial reference evaluator (reference.hpp): exactly for
// assignments, MAX and MIN, within 1e-12 of the sum's scale for ADD. A second
// run on a fresh machine must be bit-identical in results, per-rank modeled
// phase times, both reuse ledgers and nmod. The Section 3 ledgers, the cost of
// turning reuse off, Figure-4 phase accounting and the run on a shrunken
// machine are pinned too.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "lang/interp.hpp"
#include "lang/parser.hpp"
#include "lang/reference.hpp"
#include "lang/token.hpp"
#include "rt/machine.hpp"
#include "workload/mesh.hpp"

namespace rt = chaos::rt;
namespace core = chaos::core;
namespace lang = chaos::lang;
namespace wl = chaos::wl;
using chaos::f64;
using chaos::i64;
using chaos::u64;

namespace {

struct Scenario {
  std::string name;
  std::string source;
  std::map<std::string, i64> params;
  std::map<std::string, std::vector<f64>> reals;
  std::map<std::string, std::vector<i64>> ints;
  bool reuse = true;
  /// Pinned reuse ledgers, the same at every P; -1 = not pinned.
  i64 plan_misses = -1, plan_hits = -1;
  i64 mapper_misses = -1, mapper_hits = -1;
  bool charges_every_phase = false;
};

/// gtest names a failing parameter by this, not by its bytes.
void PrintTo(const Scenario& sc, std::ostream* os) { *os << sc.name; }

struct RunResult {
  std::map<std::string, std::vector<f64>> fetched;
  std::vector<lang::PhaseTimes> phases;  // per rank
  core::InspectorCache::Stats plan, mapper;
  u64 nmod = 0;
};

/// One execution on @p machine's active ranks, fetching every array named in
/// @p ref.
RunResult run(rt::Machine& machine, const lang::Program& prog,
              const Scenario& sc,
              const std::map<std::string, lang::ReferenceArray>& ref) {
  RunResult r;
  r.phases.resize(static_cast<std::size_t>(machine.active_nprocs()));
  machine.run([&](rt::Process& p) {
    lang::Instance inst(prog);
    inst.set_schedule_reuse(sc.reuse);
    for (const auto& [name, v] : sc.params) inst.set_param(name, v);
    for (const auto& [name, v] : sc.reals) inst.bind_real(name, v);
    for (const auto& [name, v] : sc.ints) inst.bind_int(name, v);
    inst.execute(p);
    r.phases[static_cast<std::size_t>(p.rank())] = inst.phases();
    for (const auto& entry : ref) {
      auto v = inst.fetch_real(p, entry.first);  // collective
      if (p.rank() == 0) r.fetched[entry.first] = std::move(v);
    }
    if (p.rank() == 0) {
      r.plan = inst.cache_stats();
      r.mapper = inst.mapper_cache_stats();
      r.nmod = inst.reuse_registry().nmod();
    }
  });
  return r;
}

void expect_same_ledger(const core::InspectorCache::Stats& a,
                        const core::InspectorCache::Stats& b) {
  EXPECT_EQ(a.hits, b.hits);
  EXPECT_EQ(a.misses, b.misses);
  EXPECT_EQ(a.repairs, b.repairs);
  EXPECT_EQ(a.repair_fallbacks, b.repair_fallbacks);
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

std::vector<f64> cosines(i64 n) {
  std::vector<f64> v(static_cast<std::size_t>(n));
  for (i64 i = 0; i < n; ++i) {
    v[static_cast<std::size_t>(i)] = std::cos(static_cast<f64>(i));
  }
  return v;
}

/// A scenario over the tiny mesh: NNODE/NEDGE bound, X = cos(i), and the
/// edge endpoints under the given INTEGER array names.
Scenario on_tiny_mesh(std::string name, std::string source, const char* u,
                      const char* v) {
  const auto d = tiny_edges();
  Scenario sc;
  sc.name = std::move(name);
  sc.source = std::move(source);
  sc.params = {{"NNODE", d.nnodes}, {"NEDGE", d.nedges}};
  sc.reals["X"] = cosines(d.nnodes);
  sc.ints[u] = d.e1;
  sc.ints[v] = d.e2;
  return sc;
}

std::vector<Scenario> scenarios() {
  std::vector<Scenario> out;
  constexpr i64 n = 24;
  std::vector<f64> ramp(n), wave(n);
  std::vector<i64> perm7(n), perm5(n), perm11(n);
  for (i64 i = 0; i < n; ++i) {
    const auto k = static_cast<std::size_t>(i);
    ramp[k] = 0.5 * static_cast<f64>(i);
    wave[k] = std::sin(static_cast<f64>(i)) * 4.0;
    perm7[k] = (i * 7 + 3) % n + 1;
    perm5[k] = (i * 5 + 1) % n + 1;
    perm11[k] = (i * 11 + 5) % n + 1;
  }

  Scenario gather;
  gather.name = "gather";
  gather.source = R"(
      REAL*8 x(n), y(n)
      INTEGER ia(n), ib(n)
C$    DECOMPOSITION reg(n)
C$    DISTRIBUTE reg(BLOCK)
C$    ALIGN x, y, ia, ib WITH reg
      FORALL i = 1, n
        y(ia(i)) = 2.0 * x(ib(i)) + 1.0
      END FORALL
)";
  gather.params["N"] = n;
  gather.reals["X"] = ramp;
  gather.ints = {{"IA", perm7}, {"IB", perm5}};
  out.push_back(gather);

  Scenario fig4 = on_tiny_mesh("figure4_rsb", R"(
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
)",
                               "END_PT1", "END_PT2");
  fig4.charges_every_phase = true;
  out.push_back(fig4);

  Scenario rcb = on_tiny_mesh("geometry_rcb", R"(
      REAL*8 x(nnode), y(nnode), xc(nnode), yc(nnode), zc(nnode)
      INTEGER e1(nedge), e2(nedge)
C$    DECOMPOSITION reg(nnode), reg2(nedge)
C$    DISTRIBUTE reg(BLOCK), reg2(BLOCK)
C$    ALIGN x, y, xc, yc, zc WITH reg
C$    ALIGN e1, e2 WITH reg2
C$    CONSTRUCT G (nnode, GEOMETRY(3, xc, yc, zc))
C$    SET distfmt BY PARTITIONING G USING RCB
C$    REDISTRIBUTE reg(distfmt)
      FORALL i = 1, nedge
        REDUCE(ADD, y(e1(i)), x(e2(i)))
      END FORALL
)",
                              "E1", "E2");
  const auto mesh = wl::mesh_tiny();
  rcb.reals["XC"] = mesh.x;
  rcb.reals["YC"] = mesh.y;
  rcb.reals["ZC"] = mesh.z;
  out.push_back(rcb);

  const char* time_step = R"(
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
  Scenario steps = on_tiny_mesh("time_step_loop", time_step, "END_PT1",
                                "END_PT2");
  steps.plan_misses = 1;  // one inspector, nine reuses
  steps.plan_hits = 9;
  out.push_back(steps);

  Scenario noreuse = on_tiny_mesh("reuse_off", time_step, "END_PT1",
                                  "END_PT2");
  noreuse.reuse = false;
  noreuse.plan_misses = 0;
  noreuse.plan_hits = 0;
  out.push_back(noreuse);

  // Every write-routing group in one FORALL: direct assign with intrinsics
  // and scalars, indirect assign through a permutation, indirect reduction.
  Scenario multi;
  multi.name = "multi_statement";
  multi.source = R"(
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
  multi.params = {{"N", n}, {"SCALE", 3}};
  multi.reals["X"] = wave;
  multi.ints["IA"] = perm11;
  out.push_back(multi);

  Scenario maxmin;
  maxmin.name = "max_min";
  maxmin.source = R"(
      REAL*8 x(n), hi(n), lo(n)
      INTEGER ia(n)
C$    DECOMPOSITION reg(n)
C$    DISTRIBUTE reg(BLOCK)
C$    ALIGN x, hi, lo, ia WITH reg
      FORALL i = 1, n
        REDUCE(MAX, hi(ia(i)), x(i))
        REDUCE(MIN, lo(ia(i)), x(i))
      END FORALL
)";
  maxmin.params["N"] = n;
  std::vector<i64> buckets(n);
  for (i64 i = 0; i < n; ++i) buckets[static_cast<std::size_t>(i)] = i % 4 + 1;
  maxmin.reals["X"] = wave;
  maxmin.ints["IA"] = buckets;
  out.push_back(maxmin);

  // The FORALL index and scalars in expressions; a DO variable keeps its
  // final value after the loop, and an empty loop leaves it alone.
  Scenario scalars;
  scalars.name = "loop_var_and_scalars";
  scalars.source = R"(
      REAL*8 y(n), z(n)
C$    DECOMPOSITION reg(n)
C$    DISTRIBUTE reg(CYCLIC)
C$    ALIGN y, z WITH reg
      DO k = 1, 3
      END DO
      DO k = 7, 6
      END DO
      FORALL i = 1, n
        y(i) = scale * i + 0.5
        z(i) = k * 100 + i
      END FORALL
)";
  scalars.params = {{"N", 13}, {"SCALE", 3}};
  out.push_back(scalars);

  // The deepest expression the parser accepts: a right-nested sum whose
  // evaluation fills all kMaxExprDepth stack slots.
  Scenario deep;
  deep.name = "deepest_expression";
  deep.source = "      REAL*8 x(n), y(n)\n"
                "C$    DECOMPOSITION reg(n)\n"
                "C$    DISTRIBUTE reg(BLOCK)\n"
                "C$    ALIGN x, y WITH reg\n"
                "      FORALL i = 1, n\n"
                "        y(i) = ";
  for (int level = 1; level < lang::kMaxExprDepth; ++level) {
    deep.source += "x(i) + (";
  }
  deep.source += "x(i)" + std::string(lang::kMaxExprDepth - 1, ')') +
                 "\n      END FORALL\n";
  deep.params["N"] = n;
  deep.reals["X"] = wave;
  out.push_back(deep);

  // Section 3 applied to the mapper: an unchanged CONSTRUCT + SET inside a
  // DO loop builds the GeoCoL and the partition once, and the identity
  // REDISTRIBUTE after the first step keeps the FORALL's plan.
  Scenario mapper = on_tiny_mesh("mapper_coupler_loop", R"(
      REAL*8 x(nnode), y(nnode)
      INTEGER end_pt1(nedge), end_pt2(nedge)
C$    DECOMPOSITION reg(nnode), reg2(nedge)
C$    DISTRIBUTE reg(BLOCK), reg2(BLOCK)
C$    ALIGN x, y WITH reg
C$    ALIGN end_pt1, end_pt2 WITH reg2
      DO step = 1, 6
C$    CONSTRUCT G (nnode, LINK(nedge, end_pt1, end_pt2))
C$    SET distfmt BY PARTITIONING G USING RSB
C$    REDISTRIBUTE reg(distfmt)
      FORALL i = 1, nedge
        REDUCE(ADD, y(end_pt1(i)), x(end_pt2(i)))
      END FORALL
      END DO
)",
                                 "END_PT1", "END_PT2");
  mapper.mapper_misses = 2;
  mapper.mapper_hits = 10;
  mapper.plan_misses = 1;
  mapper.plan_hits = 5;
  out.push_back(mapper);

  // Two REDISTRIBUTEs per step, RSB then GEOMETRY/RCB, each followed by a
  // FORALL: the data arrays alternate between two distributions, and each
  // FORALL's plan stays cached under its own DAD incarnation.
  Scenario two = on_tiny_mesh("two_redistributes", R"(
      REAL*8 x(nnode), y(nnode), z(nnode), xc(nnode), yc(nnode), zc(nnode)
      INTEGER e1(nedge), e2(nedge)
C$    DECOMPOSITION reg(nnode), regc(nnode), reg2(nedge)
C$    DISTRIBUTE reg(BLOCK), regc(BLOCK), reg2(BLOCK)
C$    ALIGN x, y, z WITH reg
C$    ALIGN xc, yc, zc WITH regc
C$    ALIGN e1, e2 WITH reg2
      DO step = 1, 3
C$    CONSTRUCT G (nnode, LINK(nedge, e1, e2))
C$    SET fa BY PARTITIONING G USING RSB
C$    REDISTRIBUTE reg(fa)
      FORALL i = 1, nedge
        REDUCE(ADD, y(e1(i)), x(e2(i)))
      END FORALL
C$    CONSTRUCT H (nnode, GEOMETRY(3, xc, yc, zc))
C$    SET fb BY PARTITIONING H USING RCB
C$    REDISTRIBUTE reg(fb)
      FORALL i = 1, nedge
        REDUCE(ADD, z(e2(i)), x(e1(i)))
      END FORALL
      END DO
)",
                              "E1", "E2");
  two.reals["XC"] = mesh.x;
  two.reals["YC"] = mesh.y;
  two.reals["ZC"] = mesh.z;
  two.plan_misses = 2;
  two.plan_hits = 4;
  two.mapper_misses = 4;
  two.mapper_hits = 8;
  out.push_back(two);

  // COMPUTE evaluates blocks of 256 local iterations: with 1003 iterations
  // P = 1 runs three full blocks and a partial tail, rank 0 at P = 3 and 4
  // a full block and a tail, and rank 1 at P = 4 exactly one full block.
  // Two ADDs into Y through different indirections share one accumulator,
  // so they fold in (iteration, statement) order; the body uses every
  // StackOp.
  constexpr i64 big = 1003;
  Scenario blocks;
  blocks.name = "several_blocks";
  blocks.source = R"(
      REAL*8 x(n), w(n), s(n), y(n), z(n), a(n), hi(n), lo(n)
      INTEGER ia(n), ib(n), perm(n)
C$    DECOMPOSITION reg(n)
C$    DISTRIBUTE reg(BLOCK)
C$    ALIGN x, w, s, y, z, a, hi, lo, ia, ib, perm WITH reg
      FORALL i = 1, n
        REDUCE(ADD, y(ia(i)), x(ia(i)) * w(ib(i)) - x(ib(i)) / (2.0 + s(i)))
        REDUCE(ADD, y(ib(i)), sqrt(abs(x(ib(i)) - w(i))) ** 1.5 + sin(x(i)))
        a(perm(i)) = cos(x(i)) * exp(-s(i))
        z(i) = scale * i + mod(i, 7.0)
        REDUCE(MAX, hi(ia(i)), max(x(ib(i)), w(i)))
        REDUCE(MIN, lo(ib(i)), min(x(ia(i)), -w(i)))
      END FORALL
)";
  blocks.params = {{"N", big}, {"SCALE", 3}};
  blocks.reals["X"] = cosines(big);
  std::vector<f64> bw(big), bs(big);
  std::vector<i64> bia(big), bib(big), bperm(big);
  for (i64 i = 0; i < big; ++i) {
    const auto k = static_cast<std::size_t>(i);
    bw[k] = std::sin(0.37 * static_cast<f64>(i)) * 3.0;
    bs[k] = 0.01 * static_cast<f64>(i);
    bia[k] = (i * 7919) % 997 + 1;      // many-to-one
    bib[k] = (i * i + 3) % big + 1;     // quadratic residues: many-to-one
    bperm[k] = (i * 10 + 7) % big + 1;  // gcd(10, 1003) = 1: a permutation
  }
  blocks.reals["W"] = bw;
  blocks.reals["S"] = bs;
  blocks.ints = {{"IA", bia}, {"IB", bib}, {"PERM", bperm}};
  out.push_back(blocks);
  return out;
}

class VmScenario : public ::testing::TestWithParam<Scenario> {};

}  // namespace

TEST_P(VmScenario, MatchesTheReferenceAndReproduces) {
  const Scenario& sc = GetParam();
  const auto prog = lang::compile(sc.source);
  const auto ref =
      lang::evaluate_reference(prog, sc.params, sc.reals, sc.ints);
  for (const int procs : {1, 3, 4}) {
    SCOPED_TRACE("P=" + std::to_string(procs));
    rt::Machine fresh_a(procs), fresh_b(procs);  // fresh virtual clocks
    const RunResult a = run(fresh_a, prog, sc, ref);
    const RunResult b = run(fresh_b, prog, sc, ref);
    for (const auto& [name, want] : ref) {
      const std::vector<f64>& got = a.fetched.at(name);
      const i64 bad = lang::first_reference_mismatch(got, want);
      if (bad >= 0) {
        const auto k = static_cast<std::size_t>(bad);
        ADD_FAILURE() << name << "(" << bad + 1 << "): VM " << got[k]
                      << ", reference " << want.value[k] << " (scale "
                      << want.scale[k] << ")";
      }
      EXPECT_EQ(got, b.fetched.at(name)) << name << " differs between runs";
    }
    for (int rank = 0; rank < procs; ++rank) {
      SCOPED_TRACE("rank " + std::to_string(rank));
      const auto& x = a.phases[static_cast<std::size_t>(rank)];
      const auto& y = b.phases[static_cast<std::size_t>(rank)];
      EXPECT_EQ(x.graph_gen, y.graph_gen);
      EXPECT_EQ(x.partition, y.partition);
      EXPECT_EQ(x.remap, y.remap);
      EXPECT_EQ(x.inspector, y.inspector);
      EXPECT_EQ(x.executor, y.executor);
      if (sc.charges_every_phase) {
        EXPECT_GT(x.graph_gen, 0.0);
        EXPECT_GT(x.partition, 0.0);
        EXPECT_GT(x.remap, 0.0);
        EXPECT_GT(x.inspector, 0.0);
        EXPECT_GT(x.executor, 0.0);
      }
    }
    expect_same_ledger(a.plan, b.plan);
    expect_same_ledger(a.mapper, b.mapper);
    EXPECT_EQ(a.nmod, b.nmod);
    if (sc.plan_misses >= 0) {
      EXPECT_EQ(a.plan.misses, sc.plan_misses);
      EXPECT_EQ(a.plan.hits, sc.plan_hits);
    }
    if (sc.mapper_misses >= 0) {
      EXPECT_EQ(a.mapper.misses, sc.mapper_misses);
      EXPECT_EQ(a.mapper.hits, sc.mapper_hits);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    LangVm, VmScenario, ::testing::ValuesIn(scenarios()),
    [](const ::testing::TestParamInfo<Scenario>& info) {
      return info.param.name;
    });

TEST(LangVm, DisablingReuseRunsInspectorEveryIteration) {
  const auto d = tiny_edges();
  const char* source = R"(
      REAL*8 x(nnode), y(nnode)
      INTEGER end_pt1(nedge), end_pt2(nedge)
C$    DECOMPOSITION reg(nnode), reg2(nedge)
C$    DISTRIBUTE reg(BLOCK), reg2(BLOCK)
C$    ALIGN x, y WITH reg
C$    ALIGN end_pt1, end_pt2 WITH reg2
      DO step = 1, 5
      FORALL i = 1, nedge
        REDUCE(ADD, y(end_pt1(i)), x(end_pt2(i)))
      END FORALL
      END DO
)";
  auto prog = lang::compile(source);
  rt::Machine::run(2, [&](rt::Process& p) {
    lang::Instance with(prog), without(prog);
    for (auto* inst : {&with, &without}) {
      inst->set_param("NNODE", d.nnodes);
      inst->set_param("NEDGE", d.nedges);
      inst->bind_real("X", std::vector<f64>(
                               static_cast<std::size_t>(d.nnodes), 2.0));
      inst->bind_int("END_PT1", d.e1);
      inst->bind_int("END_PT2", d.e2);
    }
    without.set_schedule_reuse(false);
    with.execute(p);
    without.execute(p);
    // Identical results...
    EXPECT_EQ(with.fetch_real(p, "Y"), without.fetch_real(p, "Y"));
    // ...but very different preprocessing cost (Table 1's story).
    EXPECT_LT(with.phases().inspector + with.phases().remap,
              (without.phases().inspector + without.phases().remap) / 2.0);
  });
}

TEST(LangVm, ReferenceRejectsAForallThatAssignsOneElementTwice) {
  // Non-conforming: with a many-to-one IA, the VM's answer depends on P.
  const auto prog = lang::compile(R"(
      REAL*8 x(n), w(n)
      INTEGER ia(n)
C$    DECOMPOSITION reg(n)
C$    DISTRIBUTE reg(BLOCK)
C$    ALIGN x, w, ia WITH reg
      FORALL i = 1, n
        w(ia(i)) = x(i) * 0.5
      END FORALL
)");
  try {
    (void)lang::evaluate_reference(prog, {{"N", 7}}, {{"X", cosines(7)}},
                                   {{"IA", {1, 2, 3, 2, 5, 6, 7}}});
    FAIL() << "expected LangError";
  } catch (const lang::LangError& e) {
    EXPECT_EQ(std::string(e.what()),
              "line 8:9: W(2) assigned twice in one FORALL");
  }
}

TEST(LangVm, RidesTheShrunkenMachineUntouched) {
  // Degradation contract (DESIGN.md §13): after the machine narrows around a
  // dead rank, a fresh per-rank Instance of the same Program just runs — the
  // VM never caches the machine width, and every distribution, plan, and
  // translation it builds is minted at the width it executes at. The gather
  // uses exactly representable values (halves), so the fetched images must
  // be bit-identical across widths.
  const Scenario sc = scenarios().front();
  ASSERT_EQ(sc.name, "gather");
  const auto prog = lang::compile(sc.source);
  const auto ref =
      lang::evaluate_reference(prog, sc.params, sc.reals, sc.ints);
  rt::Machine machine(6);
  const auto full = run(machine, prog, sc, ref).fetched;
  machine.shrink_to(4);  // two ranks died; survivors carry on
  EXPECT_EQ(full, run(machine, prog, sc, ref).fetched);
  machine.shrink_to(1);  // total collapse still executes (inline)
  EXPECT_EQ(full, run(machine, prog, sc, ref).fetched);
}

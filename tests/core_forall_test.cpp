// End-to-end FORALL drivers: the full inspector/executor pipeline (iteration
// partitioning, indirection remap, localize, gather, reduce, scatter) must
// reproduce a serial reference on random graphs, for every distribution and
// process count, including after a mid-run REDISTRIBUTE.
#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "core/forall.hpp"
#include "core/mapper.hpp"
#include "core/reuse.hpp"
#include "rt/collectives.hpp"
#include "workload/mesh.hpp"
#include "workload/rng.hpp"

namespace rt = chaos::rt;
namespace dist = chaos::dist;
namespace core = chaos::core;
namespace wl = chaos::wl;
using chaos::f64;
using chaos::i64;

namespace {

struct Graph {
  i64 nnodes;
  std::vector<i64> e1, e2;
};

Graph random_graph(i64 nnodes, i64 nedges, chaos::u64 seed) {
  wl::Rng rng(seed);
  Graph g{nnodes, {}, {}};
  for (i64 e = 0; e < nedges; ++e) {
    g.e1.push_back(rng.below(nnodes));
    g.e2.push_back(rng.below(nnodes));
  }
  return g;
}

f64 fval(f64 a, f64 b) { return a * b + 1.0; }
f64 gval(f64 a, f64 b) { return a - 2.0 * b; }

/// Serial reference of loop L2 over the whole edge list.
std::vector<f64> serial_l2(const Graph& g, const std::vector<f64>& x) {
  std::vector<f64> y(static_cast<std::size_t>(g.nnodes), 0.0);
  for (std::size_t e = 0; e < g.e1.size(); ++e) {
    const f64 x1 = x[static_cast<std::size_t>(g.e1[e])];
    const f64 x2 = x[static_cast<std::size_t>(g.e2[e])];
    y[static_cast<std::size_t>(g.e1[e])] += fval(x1, x2);
    y[static_cast<std::size_t>(g.e2[e])] += gval(x1, x2);
  }
  return y;
}

}  // namespace

class ForallSweep
    : public ::testing::TestWithParam<std::tuple<int, core::IterRule>> {};

INSTANTIATE_TEST_SUITE_P(
    ProcsRules, ForallSweep,
    ::testing::Combine(::testing::Values(1, 2, 4, 8),
                       ::testing::Values(core::IterRule::MostLocalReferences,
                                         core::IterRule::OwnerComputes)),
    [](const auto& info) {
      // Built by appending: GCC 12 reports a false -Wrestrict for a string
      // literal + std::string temporary.
      std::string name = "P";
      name += std::to_string(std::get<0>(info.param));
      name += std::get<1>(info.param) == core::IterRule::MostLocalReferences
                  ? "_majority"
                  : "_owner";
      return name;
    });

TEST_P(ForallSweep, EdgeReductionMatchesSerialReference) {
  const auto [P, rule] = GetParam();
  const Graph g = random_graph(120, 500, 42);
  std::vector<f64> x0(static_cast<std::size_t>(g.nnodes));
  for (std::size_t i = 0; i < x0.size(); ++i) {
    x0[i] = 0.25 * static_cast<f64>(i) - 3.0;
  }
  const auto expect = serial_l2(g, x0);

  rt::Machine::run(P, [&, rule = rule](rt::Process& p) {
    auto ddist = dist::Distribution::block(p, g.nnodes);
    auto edist = dist::Distribution::block(p, static_cast<i64>(g.e1.size()));
    dist::DistributedArray<f64> x(p, ddist), y(p, ddist, 0.0);
    x.fill_by_global([&](i64 gl) { return x0[static_cast<std::size_t>(gl)]; });

    // Local slices of the edge arrays under the edge distribution.
    std::vector<i64> s1, s2;
    for (i64 l = 0; l < edist->my_local_size(); ++l) {
      const i64 e = edist->global_of(p.rank(), l);
      s1.push_back(g.e1[static_cast<std::size_t>(e)]);
      s2.push_back(g.e2[static_cast<std::size_t>(e)]);
    }

    auto plan = core::EdgeReductionLoop::inspect(p, *edist, s1, s2, *ddist,
                                                 rule);
    // Every iteration is executed exactly once across the machine.
    const i64 total_iters = rt::allreduce_sum(p, plan->my_iterations());
    EXPECT_EQ(total_iters, static_cast<i64>(g.e1.size()));

    core::EdgeReductionLoop::execute(p, *plan, x, y, fval, gval);

    const auto got = y.to_global(p);
    for (i64 v = 0; v < g.nnodes; ++v) {
      EXPECT_NEAR(got[static_cast<std::size_t>(v)],
                  expect[static_cast<std::size_t>(v)], 1e-9)
          << "node " << v;
    }
  });
}

TEST_P(ForallSweep, RepeatedExecutionAccumulates) {
  const auto [P, rule] = GetParam();
  const Graph g = random_graph(60, 200, 7);
  std::vector<f64> x0(static_cast<std::size_t>(g.nnodes), 1.5);
  auto expect = serial_l2(g, x0);
  for (auto& v : expect) v *= 3.0;  // three identical sweeps

  rt::Machine::run(P, [&, rule = rule](rt::Process& p) {
    auto ddist = dist::Distribution::cyclic(p, g.nnodes);
    auto edist = dist::Distribution::block(p, static_cast<i64>(g.e1.size()));
    dist::DistributedArray<f64> x(p, ddist), y(p, ddist, 0.0);
    x.fill_by_global([&](i64 gl) { return x0[static_cast<std::size_t>(gl)]; });

    std::vector<i64> s1, s2;
    for (i64 l = 0; l < edist->my_local_size(); ++l) {
      const i64 e = edist->global_of(p.rank(), l);
      s1.push_back(g.e1[static_cast<std::size_t>(e)]);
      s2.push_back(g.e2[static_cast<std::size_t>(e)]);
    }
    auto plan = core::EdgeReductionLoop::inspect(p, *edist, s1, s2, *ddist,
                                                 rule);
    // The executor reuses one plan across timesteps (schedule reuse!).
    for (int step = 0; step < 3; ++step) {
      core::EdgeReductionLoop::execute(p, *plan, x, y, fval, gval);
    }
    const auto got = y.to_global(p);
    for (i64 v = 0; v < g.nnodes; ++v) {
      EXPECT_NEAR(got[static_cast<std::size_t>(v)],
                  expect[static_cast<std::size_t>(v)], 1e-9);
    }
  });
}

TEST(Forall, ExecuteRejectsAYThatDoesNotMatchTheSchedule) {
  // The sweep writes y's owned segment through the schedule's local
  // indices, so a y shorter than the data distribution must end in a typed
  // error before the first write, not in a write past its end. Passing x
  // as y would zero the ghosts the sweep reads.
  const Graph g = random_graph(64, 200, 5);
  rt::Machine::run(1, [&](rt::Process& p) {
    auto ddist = dist::Distribution::block(p, g.nnodes);
    auto edist = dist::Distribution::block(p, static_cast<i64>(g.e1.size()));
    dist::DistributedArray<f64> x(p, ddist, 1.0);
    dist::DistributedArray<f64> y(p, dist::Distribution::block(p, 32), 0.0);
    auto plan = core::EdgeReductionLoop::inspect(p, *edist, g.e1, g.e2,
                                                 *ddist);
    EXPECT_THROW(core::EdgeReductionLoop::execute(p, *plan, x, y, fval, gval),
                 chaos::ChaosError);
    EXPECT_THROW(core::EdgeReductionLoop::execute(p, *plan, x, x, fval, gval),
                 chaos::ChaosError);
  });
}

TEST(Forall, WorksAfterRedistributeToPartitionedLayout) {
  // The paper's full pipeline: CONSTRUCT -> SET/PARTITION -> REDISTRIBUTE ->
  // inspect -> execute, on a real (tiny) mesh, compared against serial.
  const auto mesh = wl::mesh_tiny();
  Graph g{mesh.nnodes, mesh.edge1, mesh.edge2};
  std::vector<f64> x0(static_cast<std::size_t>(g.nnodes));
  for (std::size_t i = 0; i < x0.size(); ++i) {
    x0[i] = 0.1 * static_cast<f64>(i);
  }
  const auto expect = serial_l2(g, x0);

  rt::Machine::run(4, [&](rt::Process& p) {
    auto reg = dist::Distribution::block(p, mesh.nnodes);
    auto reg2 = dist::Distribution::block(p, mesh.nedges);
    dist::DistributedArray<f64> x(p, reg), y(p, reg, 0.0);
    x.fill_by_global([&](i64 gl) { return x0[static_cast<std::size_t>(gl)]; });

    std::vector<i64> s1, s2;
    for (i64 l = 0; l < reg2->my_local_size(); ++l) {
      const i64 e = reg2->global_of(p.rank(), l);
      s1.push_back(mesh.edge1[static_cast<std::size_t>(e)]);
      s2.push_back(mesh.edge2[static_cast<std::size_t>(e)]);
    }

    // CONSTRUCT G (nnode, LINK(nedge, end_pt1, end_pt2))
    core::GeoColBuilder builder(p, reg);
    builder.link(s1, s2);
    auto geocol = builder.build();
    // SET distfmt BY PARTITIONING G USING RSB; REDISTRIBUTE reg(distfmt)
    core::ReuseRegistry rreg;
    auto distfmt = core::set_by_partitioning(p, *geocol, "RSB");
    core::Redistributor rd(&rreg);
    rd.add(x).add(y);
    rd.apply(p, distfmt);
    EXPECT_TRUE(x.dad() == distfmt->dad());

    auto plan = core::EdgeReductionLoop::inspect(p, *reg2, s1, s2, *distfmt);
    core::EdgeReductionLoop::execute(p, *plan, x, y, fval, gval);

    const auto got = y.to_global(p);
    for (i64 v = 0; v < g.nnodes; ++v) {
      EXPECT_NEAR(got[static_cast<std::size_t>(v)],
                  expect[static_cast<std::size_t>(v)], 1e-9);
    }
  });
}

TEST(Forall, MajorityRuleKeepsIterationsNearData) {
  // On a well-partitioned mesh, the majority rule must place nearly every
  // iteration on a process owning at least one endpoint.
  const auto mesh = wl::mesh_tiny();
  rt::Machine::run(4, [&](rt::Process& p) {
    auto reg = dist::Distribution::block(p, mesh.nnodes);
    auto reg2 = dist::Distribution::block(p, mesh.nedges);
    std::vector<i64> s1, s2;
    for (i64 l = 0; l < reg2->my_local_size(); ++l) {
      const i64 e = reg2->global_of(p.rank(), l);
      s1.push_back(mesh.edge1[static_cast<std::size_t>(e)]);
      s2.push_back(mesh.edge2[static_cast<std::size_t>(e)]);
    }
    auto plan = core::EdgeReductionLoop::inspect(p, *reg2, s1, s2, *reg);
    // Each local iteration references at most 2 remote nodes; with the
    // majority rule at least one endpoint is local unless both endpoints
    // live elsewhere on the same remote process.
    const auto& sched = plan->loc.schedule;
    EXPECT_LE(sched.nghost, plan->my_iterations() * 2);
    // Off-process references cannot exceed one per (iteration, endpoint).
    EXPECT_LE(plan->loc.off_process_refs, 2 * plan->my_iterations());
  });
}

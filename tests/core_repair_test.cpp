// Incremental schedule repair (DESIGN.md §14): the delta-splice path must be
// indistinguishable from a full re-inspection — bit-identical schedules and
// executor results — and must refuse every case it cannot prove repairable
// (fresh DAD incarnations, over-threshold deltas, repair turned off). Edge
// values are small integers throughout so every executor sum is exact and
// cross-path comparisons can demand bitwise equality.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/forall.hpp"
#include "core/mapper.hpp"
#include "core/plan_options.hpp"
#include "core/reuse.hpp"
#include "core/schedule.hpp"
#include "rt/collectives.hpp"
#include "workload/rng.hpp"

namespace rt = chaos::rt;
namespace dist = chaos::dist;
namespace core = chaos::core;
namespace wl = chaos::wl;
using chaos::f64;
using chaos::i64;
using chaos::u64;

namespace {

struct Graph {
  i64 nnodes;
  std::vector<i64> e1, e2;
};

Graph random_graph(i64 nnodes, i64 nedges, u64 seed) {
  wl::Rng rng(seed);
  Graph g{nnodes, {}, {}};
  for (i64 e = 0; e < nedges; ++e) {
    g.e1.push_back(rng.below(nnodes));
    g.e2.push_back(rng.below(nnodes));
  }
  return g;
}

/// Rewires every stride-th edge endpoint: the "refinement epoch". Integer
/// jitter keeps the new endpoints in range and deterministic on every rank.
void refine(Graph& g, i64 stride, int epoch) {
  for (i64 e = epoch; e < static_cast<i64>(g.e1.size()); e += stride) {
    auto& end = (e % 2 == 0) ? g.e1 : g.e2;
    end[static_cast<std::size_t>(e)] =
        (end[static_cast<std::size_t>(e)] + 1 + epoch) % g.nnodes;
  }
}

// Exactly-representable integer kernels: sums are order-independent.
f64 fval(f64 a, f64 b) { return a * b; }
f64 gval(f64 a, f64 b) { return a - b; }

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

std::vector<i64> local_slice(rt::Process& p, const dist::Distribution& d,
                             const std::vector<i64>& global) {
  std::vector<i64> s;
  for (i64 l = 0; l < d.my_local_size(); ++l) {
    s.push_back(global[static_cast<std::size_t>(d.global_of(p.rank(), l))]);
  }
  return s;
}

void expect_schedules_equal(const core::CommSchedule& a,
                            const core::CommSchedule& b) {
  EXPECT_EQ(a.send_indices, b.send_indices);
  EXPECT_EQ(a.send_offsets, b.send_offsets);
  EXPECT_EQ(a.recv_offsets, b.recv_offsets);
  EXPECT_EQ(a.nghost, b.nghost);
  EXPECT_EQ(a.nlocal_at_build, b.nlocal_at_build);
}

}  // namespace

// An in-place rewrite that changes NOTHING (same values re-stored) must ride
// the repair path as an empty splice: schedule untouched, validate clean,
// and the plan still executes correctly.
TEST(ScheduleRepair, EmptyDeltaIsNoOpSplice) {
  const Graph g = random_graph(90, 400, 11);
  for (const int P : {1, 4}) {
    rt::Machine machine(P);
    machine.run([&](rt::Process& p) {
      auto ddist = dist::Distribution::block(p, g.nnodes);
      auto edist = dist::Distribution::block(p, static_cast<i64>(g.e1.size()));
      const auto s1 = local_slice(p, *edist, g.e1);
      const auto s2 = local_slice(p, *edist, g.e2);
      auto plan = core::EdgeReductionLoop::inspect(p, *edist, s1, s2, *ddist);

      const core::CommSchedule before = plan->loc.schedule;
      ASSERT_TRUE(core::EdgeReductionLoop::repair(p, *plan, s1, s2, *ddist));
      expect_schedules_equal(before, plan->loc.schedule);
      plan->loc.schedule.validate_or_throw("empty-delta splice");
      EXPECT_EQ(p.stats().schedule_repairs, 1);
      EXPECT_EQ(p.stats().repair_fallbacks, 0);
    });
  }
}

// A cache probe with no intervening write is a pure reuse hit: the repair
// machinery must not run at all (the §3 guard short-circuits above it).
TEST(ScheduleRepair, CleanProbeIsPureHitNotRepair) {
  const Graph g = random_graph(60, 200, 5);
  rt::Machine machine(4);
  machine.run([&](rt::Process& p) {
    auto ddist = dist::Distribution::block(p, g.nnodes);
    auto edist = dist::Distribution::block(p, static_cast<i64>(g.e1.size()));
    dist::DistributedArray<f64> x(p, ddist), y(p, ddist, 0.0);
    x.fill_by_global([](i64 gl) { return static_cast<f64>(1 + gl % 5); });
    dist::DistributedArray<i64> e1(p, edist), e2(p, edist);
    e1.fill_by_global(
        [&](i64 gl) { return g.e1[static_cast<std::size_t>(gl)]; });
    e2.fill_by_global(
        [&](i64 gl) { return g.e2[static_cast<std::size_t>(gl)]; });

    core::ReuseRegistry registry;
    core::InspectorCache cache;
    const u64 loop_id = rt::collective_counter(p);
    i64 repair_calls = 0;
    auto probe = [&] {
      return cache.get_or_build<core::EdgeLoopPlan>(
          loop_id, registry, {x.dad(), y.dad()}, {e1.dad()},
          [&] {
            const auto s1 = local_slice(p, *edist, g.e1);
            const auto s2 = local_slice(p, *edist, g.e2);
            return core::EdgeReductionLoop::inspect(p, *edist, s1, s2,
                                                    *ddist);
          },
          [&](const std::shared_ptr<core::EdgeLoopPlan>&) {
            ++repair_calls;
            return false;
          });
    };
    auto first = probe();
    auto second = probe();
    EXPECT_EQ(first.get(), second.get());
    EXPECT_EQ(repair_calls, 0);
    EXPECT_EQ(cache.stats().hits, 1);
    EXPECT_EQ(cache.stats().misses, 1);
    EXPECT_EQ(cache.stats().repairs, 0);
    EXPECT_EQ(cache.stats().repair_fallbacks, 0);
    EXPECT_EQ(p.stats().schedule_repairs, 0);
  });
}

// Repaired-then-executed must equal rebuilt-then-executed bitwise, and the
// repaired schedule must equal a full localize of the same remapped
// references — at P=1 and P=8, across three refinement epochs.
TEST(ScheduleRepair, RepairedMatchesRebuiltBitIdentically) {
  // Epoch snapshots precomputed OUTSIDE machine.run: the rank lambdas run
  // concurrently and may only READ shared test state.
  std::vector<Graph> epochs{random_graph(120, 600, 23)};
  for (int epoch = 1; epoch <= 3; ++epoch) {
    Graph next = epochs.back();
    refine(next, /*stride=*/7 - epoch, epoch);  // growing delta per epoch
    epochs.push_back(std::move(next));
  }
  std::vector<f64> x0(static_cast<std::size_t>(epochs[0].nnodes));
  for (std::size_t i = 0; i < x0.size(); ++i) {
    x0[i] = static_cast<f64>(1 + i % 7);
  }
  for (const int P : {1, 8}) {
    const Graph& g0 = epochs[0];
    rt::Machine machine(P);
    machine.run([&](rt::Process& p) {
      auto ddist = dist::Distribution::block(p, g0.nnodes);
      auto edist =
          dist::Distribution::block(p, static_cast<i64>(g0.e1.size()));
      dist::DistributedArray<f64> x(p, ddist);
      x.fill_by_global(
          [&](i64 gl) { return x0[static_cast<std::size_t>(gl)]; });

      auto s1 = local_slice(p, *edist, g0.e1);
      auto s2 = local_slice(p, *edist, g0.e2);
      // RepairMode::On: the splice must engage every epoch, whatever the
      // delta fraction, so this also covers deltas above the Auto threshold.
      const core::PlanOptions opts{.repair = core::RepairMode::On};
      auto plan = core::EdgeReductionLoop::inspect(
          p, *edist, s1, s2, *ddist, core::IterRule::MostLocalReferences,
          opts);

      for (int epoch = 1; epoch <= 3; ++epoch) {
        const Graph& g = epochs[static_cast<std::size_t>(epoch)];
        s1 = local_slice(p, *edist, g.e1);
        s2 = local_slice(p, *edist, g.e2);

        ASSERT_TRUE(core::EdgeReductionLoop::repair(p, *plan, s1, s2, *ddist))
            << "epoch " << epoch << " P " << P;
        plan->loc.schedule.validate_or_throw("post-repair");

        // The repaired schedule must be exactly what a full localize of the
        // SAME remapped references builds (the canonical ghost order makes
        // the schedule a pure function of the reference set).
        core::InspectorWorkspace control_ws;
        core::LocalizedMany control;
        const std::span<const i64> remapped[] = {plan->end1, plan->end2};
        core::localize_many(p, *ddist, remapped, control_ws, control);
        expect_schedules_equal(control.schedule, plan->loc.schedule);
        EXPECT_EQ(control.refs[0], plan->loc.refs[0]);
        EXPECT_EQ(control.refs[1], plan->loc.refs[1]);

        // And the repaired remap must equal a from-scratch remap of the new
        // slices: the delta shipping may not drop or misplace a value.
        EXPECT_EQ(plan->end1,
                  dist::apply_remap<i64>(p, plan->iters.remap, s1));
        EXPECT_EQ(plan->end2,
                  dist::apply_remap<i64>(p, plan->iters.remap, s2));

        // Executor equivalence, bitwise (integer values, exact sums):
        // repaired plan vs a freshly inspected plan vs the serial reference.
        dist::DistributedArray<f64> y_rep(p, ddist, 0.0);
        core::EdgeReductionLoop::execute(p, *plan, x, y_rep, fval, gval);
        auto rebuilt = core::EdgeReductionLoop::inspect(
            p, *edist, s1, s2, *ddist, core::IterRule::MostLocalReferences,
            opts);
        dist::DistributedArray<f64> y_full(p, ddist, 0.0);
        core::EdgeReductionLoop::execute(p, *rebuilt, x, y_full, fval, gval);

        const auto got_rep = y_rep.to_global(p);
        const auto got_full = y_full.to_global(p);
        const auto expect = serial_l2(g, x0);
        for (i64 v = 0; v < g.nnodes; ++v) {
          EXPECT_EQ(got_rep[static_cast<std::size_t>(v)],
                    got_full[static_cast<std::size_t>(v)])
              << "node " << v << " epoch " << epoch;
          EXPECT_EQ(got_rep[static_cast<std::size_t>(v)],
                    expect[static_cast<std::size_t>(v)])
              << "node " << v << " epoch " << epoch;
        }
      }
      EXPECT_EQ(p.stats().schedule_repairs, 3);
    });
  }
}

// A 100% delta (every endpoint rewired) must lose the Auto-mode vote and
// fall back to full re-inspection through the cache's third outcome.
TEST(ScheduleRepair, FullDeltaFallsBackToRebuild) {
  const Graph g0 = random_graph(80, 300, 31);
  // Rewire EVERY edge to a disjoint endpoint set: delta fraction 1.0.
  // Precomputed outside machine.run — rank lambdas only read shared state.
  Graph g1 = g0;
  for (auto& v : g1.e1) v = (v + g1.nnodes / 2) % g1.nnodes;
  for (auto& v : g1.e2) v = (v + g1.nnodes / 2 + 1) % g1.nnodes;
  rt::Machine machine(4);
  machine.run([&](rt::Process& p) {
    const Graph* g = &g0;
    auto ddist = dist::Distribution::block(p, g0.nnodes);
    auto edist = dist::Distribution::block(p, static_cast<i64>(g0.e1.size()));
    dist::DistributedArray<f64> x(p, ddist), y(p, ddist, 0.0);
    x.fill_by_global([](i64 gl) { return static_cast<f64>(1 + gl % 3); });
    dist::DistributedArray<i64> e1(p, edist), e2(p, edist);
    auto load = [&] {
      e1.fill_by_global(
          [&](i64 gl) { return g->e1[static_cast<std::size_t>(gl)]; });
      e2.fill_by_global(
          [&](i64 gl) { return g->e2[static_cast<std::size_t>(gl)]; });
    };
    load();

    core::ReuseRegistry registry;
    core::InspectorCache cache;
    const u64 loop_id = rt::collective_counter(p);
    auto probe = [&] {
      return cache.get_or_build<core::EdgeLoopPlan>(
          loop_id, registry, {x.dad(), y.dad()}, {e1.dad()},
          [&] {
            const auto s1 = local_slice(p, *edist, g->e1);
            const auto s2 = local_slice(p, *edist, g->e2);
            return core::EdgeReductionLoop::inspect(p, *edist, s1, s2,
                                                    *ddist);
          },
          [&](const std::shared_ptr<core::EdgeLoopPlan>& cached) {
            const auto s1 = local_slice(p, *edist, g->e1);
            const auto s2 = local_slice(p, *edist, g->e2);
            return core::EdgeReductionLoop::repair(p, *cached, s1, s2,
                                                   *ddist);
          });
    };
    auto first = probe();

    // Switch to the fully rewired edge list: delta fraction 1.0.
    g = &g1;
    load();
    registry.note_write(e1.dad());

    auto second = probe();
    EXPECT_NE(first.get(), second.get());  // rebuilt, not spliced
    EXPECT_EQ(cache.stats().repairs, 0);
    EXPECT_EQ(cache.stats().repair_fallbacks, 1);
    EXPECT_EQ(cache.stats().misses, 2);
    EXPECT_GE(p.stats().repair_fallbacks, 1);
    // The fallback left a working plan: execute and check the reference.
    core::EdgeReductionLoop::execute(p, *second, x, y, fval, gval);
    std::vector<f64> x0(static_cast<std::size_t>(g1.nnodes));
    for (std::size_t i = 0; i < x0.size(); ++i) {
      x0[i] = static_cast<f64>(1 + i % 3);
    }
    const auto expect = serial_l2(g1, x0);
    const auto got = y.to_global(p);
    for (i64 v = 0; v < g1.nnodes; ++v) {
      EXPECT_EQ(got[static_cast<std::size_t>(v)],
                expect[static_cast<std::size_t>(v)]);
    }
  });
}

// After a REDISTRIBUTE the data arrays carry a fresh DAD incarnation — a
// hard-ineligible repair even in RepairMode::On, and the cache must classify
// it as a plain miss (never a repair candidate).
TEST(ScheduleRepair, RefusedAfterRedistribute) {
  const Graph g = random_graph(70, 250, 41);
  rt::Machine machine(4);
  machine.run([&](rt::Process& p) {
    auto ddist = dist::Distribution::block(p, g.nnodes);
    auto edist = dist::Distribution::block(p, static_cast<i64>(g.e1.size()));
    dist::DistributedArray<f64> x(p, ddist), y(p, ddist, 0.0);
    x.fill_by_global([](i64 gl) { return static_cast<f64>(1 + gl % 4); });

    const auto s1 = local_slice(p, *edist, g.e1);
    const auto s2 = local_slice(p, *edist, g.e2);
    const core::PlanOptions opts{.repair = core::RepairMode::On};
    auto plan = core::EdgeReductionLoop::inspect(
        p, *edist, s1, s2, *ddist, core::IterRule::MostLocalReferences, opts);

    // REDISTRIBUTE reg(cyclic): new data DAD, arrays remapped.
    core::ReuseRegistry registry;
    auto cyc = dist::Distribution::cyclic(p, g.nnodes);
    core::Redistributor rd(&registry);
    rd.add(x).add(y);
    rd.apply(p, cyc);

    // Direct repair against the new distribution: hard-ineligible (the
    // snapshot was taken under the block DAD), even with repair=On.
    const auto ns1 = local_slice(p, *edist, g.e1);
    const auto ns2 = local_slice(p, *edist, g.e2);
    EXPECT_FALSE(core::EdgeReductionLoop::repair(p, *plan, ns1, ns2, *cyc));
    EXPECT_GE(p.stats().repair_fallbacks, 1);
    EXPECT_EQ(p.stats().schedule_repairs, 0);

    // The failed repair left the plan not-ready: a full inspect recovers.
    auto fresh = core::EdgeReductionLoop::inspect(
        p, *edist, ns1, ns2, *cyc, core::IterRule::MostLocalReferences, opts);
    core::EdgeReductionLoop::execute(p, *fresh, x, y, fval, gval);
    std::vector<f64> x0(static_cast<std::size_t>(g.nnodes));
    for (std::size_t i = 0; i < x0.size(); ++i) {
      x0[i] = static_cast<f64>(1 + i % 4);
    }
    const auto expect = serial_l2(g, x0);
    const auto got = y.to_global(p);
    for (i64 v = 0; v < g.nnodes; ++v) {
      EXPECT_EQ(got[static_cast<std::size_t>(v)],
                expect[static_cast<std::size_t>(v)]);
    }
  });
}

// RepairMode::Off refuses before any vote or mutation; the plan stays ready
// and keeps executing through the old schedule.
TEST(ScheduleRepair, OffModeRefusesAndPlanStaysUsable) {
  const Graph g = random_graph(50, 150, 3);
  rt::Machine machine(2);
  machine.run([&](rt::Process& p) {
    auto ddist = dist::Distribution::block(p, g.nnodes);
    auto edist = dist::Distribution::block(p, static_cast<i64>(g.e1.size()));
    const auto s1 = local_slice(p, *edist, g.e1);
    const auto s2 = local_slice(p, *edist, g.e2);
    const core::PlanOptions opts{.repair = core::RepairMode::Off};
    auto plan = core::EdgeReductionLoop::inspect(
        p, *edist, s1, s2, *ddist, core::IterRule::MostLocalReferences, opts);
    EXPECT_FALSE(core::EdgeReductionLoop::repair(p, *plan, s1, s2, *ddist));
    // The off-mode refusal happens before begin_build: still executable.
    EXPECT_TRUE(plan->build.ready());
    EXPECT_EQ(p.stats().schedule_repairs, 0);
  });
}

// The L1 single-statement plan repairs all three indirection slices and both
// schedules (lhs against y, rhs against x) — exact match with the serial
// reference after a partial rewire.
TEST(ScheduleRepair, SingleStatementRepairMatchesSerial) {
  const i64 n = 200, nx = 90, ny = 90;
  wl::Rng rng(77);
  std::vector<i64> ia, ib, ic;
  for (i64 i = 0; i < n; ++i) {
    // FORALL semantics: distinct iterations write distinct elements. Use a
    // permutation-free unique target per iteration modulo ny via i itself
    // spread over ny — keep ia unique by construction (n <= ny * k with
    // distinct writes): simplest is ia = a fixed permutation slot per i.
    ia.push_back(i % ny);
    ib.push_back(rng.below(nx));
    ic.push_back(rng.below(nx));
  }
  // Make ia a real FORALL target: later iterations overwriting the same
  // element would be a race, so keep only the last write per target in the
  // serial reference (executor order is unspecified otherwise). To stay
  // race-free, restrict n to ny so every target is written exactly once.
  ia.resize(static_cast<std::size_t>(ny));
  ib.resize(static_cast<std::size_t>(ny));
  ic.resize(static_cast<std::size_t>(ny));
  const i64 iters = ny;

  std::vector<f64> x0(static_cast<std::size_t>(nx));
  for (std::size_t i = 0; i < x0.size(); ++i) {
    x0[i] = static_cast<f64>(1 + i % 6);
  }
  auto serial = [&](const std::vector<i64>& a, const std::vector<i64>& b,
                    const std::vector<i64>& c) {
    std::vector<f64> y(static_cast<std::size_t>(ny), 0.0);
    for (i64 i = 0; i < iters; ++i) {
      y[static_cast<std::size_t>(a[static_cast<std::size_t>(i)])] =
          fval(x0[static_cast<std::size_t>(b[static_cast<std::size_t>(i)])],
               x0[static_cast<std::size_t>(c[static_cast<std::size_t>(i)])]);
    }
    return y;
  };

  for (const int P : {1, 8}) {
    rt::Machine machine(P);
    machine.run([&](rt::Process& p) {
      auto ydist = dist::Distribution::block(p, ny);
      auto xdist = dist::Distribution::block(p, nx);
      auto idist = dist::Distribution::block(p, iters);
      dist::DistributedArray<f64> x(p, xdist), y(p, ydist, 0.0);
      x.fill_by_global(
          [&](i64 gl) { return x0[static_cast<std::size_t>(gl)]; });

      auto sa = local_slice(p, *idist, ia);
      auto sb = local_slice(p, *idist, ib);
      auto sc = local_slice(p, *idist, ic);
      // RepairMode::On: at P=8 a rank holds only a handful of distinct RHS
      // globals, so even a ~15% rewire can exceed the Auto threshold on the
      // machine-max vote — On pins the test to the splice path.
      const core::PlanOptions opts{.repair = core::RepairMode::On};
      auto plan = core::SingleStatementLoop::inspect(
          p, *idist, sa, sb, sc, *ydist, *xdist,
          core::IterRule::MostLocalReferences, opts);

      // Rewire ~15% of the reads (ib/ic); writes (ia) stay a permutation.
      std::vector<i64> nib = ib, nic = ic;
      for (i64 i = 0; i < iters; i += 7) {
        nib[static_cast<std::size_t>(i)] =
            (nib[static_cast<std::size_t>(i)] + 13) % nx;
        nic[static_cast<std::size_t>(i)] =
            (nic[static_cast<std::size_t>(i)] + 29) % nx;
      }
      sb = local_slice(p, *idist, nib);
      sc = local_slice(p, *idist, nic);
      ASSERT_TRUE(core::SingleStatementLoop::repair(p, *plan, sa, sb, sc,
                                                    *ydist, *xdist));
      plan->lhs.schedule.validate_or_throw("post-repair lhs");
      plan->rhs.schedule.validate_or_throw("post-repair rhs");

      core::SingleStatementLoop::execute(p, *plan, y, x, fval);
      const auto got = y.to_global(p);
      const auto expect = serial(ia, nib, nic);
      for (i64 v = 0; v < ny; ++v) {
        EXPECT_EQ(got[static_cast<std::size_t>(v)],
                  expect[static_cast<std::size_t>(v)])
            << "element " << v << " P " << P;
      }
      EXPECT_GE(p.stats().schedule_repairs, 1);
    });
  }
}

// --- splice_send against malformed repair scripts ---------------------------

namespace {

/// A P = 2 send side: segment 0 packs locals {4, 9} for rank 0 and segment 1
/// packs {2} for rank 1. Every script below edits segment 0 or corrupts the
/// prefix; segment 1's script is empty.
core::CommSchedule two_rank_send_side() {
  core::CommSchedule s;
  s.send_indices = {4, 9, 2};
  s.send_offsets = {0, 2, 3};
  s.recv_offsets = {0, 0, 0};
  s.nlocal_at_build = 10;
  return s;
}

struct BadScript {
  const char* name;
  std::vector<i64> payload;
  std::vector<i64> offsets;
  const char* message;  ///< part of the ScheduleInvalid text it must raise
};

}  // namespace

TEST(SpliceSend, RejectsEveryMalformedScriptWithATypedError) {
  // A script arrives from a peer, so each malformation must end in
  // ScheduleInvalid(SpliceMismatch) before any read outside the payload;
  // the sanitizer builds run this table too.
  const BadScript cases[] = {
      {"prefix narrower than the schedule", {}, {0, 0}, "schedule width"},
      {"prefix not zero-based", {0, 0, 0}, {1, 3, 3}, "does not slice"},
      {"prefix decreases", {0}, {0, 2, 1}, "does not slice"},
      {"prefix overruns the payload", {0, 0}, {0, 2, 3}, "does not slice"},
      {"negative tombstone count", {-1, 0}, {0, 2, 2},
       "truncated tombstone list"},
      {"tombstones overrun the script", {3, 4, 9}, {0, 3, 3},
       "truncated tombstone list"},
      {"insertion count missing", {0}, {0, 1, 1}, "missing insertion count"},
      {"insertion list truncated", {0, 2, 0, 7}, {0, 4, 4},
       "truncated insertion list"},
      {"more tombstones than entries", {3, 4, 9, 11, 0}, {0, 5, 5},
       "removes more entries"},
      {"insertion past the new segment", {1, 4, 1, 5, 7}, {0, 5, 5},
       "consumed the old segment early"},
      {"tombstone not in the segment", {1, 5, 0}, {0, 3, 3},
       "disagree on the edit set"},
  };
  for (const BadScript& c : cases) {
    SCOPED_TRACE(c.name);
    core::CommSchedule sched = two_rank_send_side();
    std::vector<i64> scratch, tombs;
    try {
      sched.splice_send(c.payload, c.offsets, scratch, tombs);
      ADD_FAILURE() << "accepted a malformed script";
    } catch (const core::ScheduleInvalid& e) {
      EXPECT_EQ(e.code, core::ScheduleErrorCode::SpliceMismatch);
      EXPECT_NE(std::string(e.what()).find(c.message), std::string::npos)
          << e.what();
    }
  }

  // The same send side takes a well-formed script: tombstone 4, insert 7 at
  // position 1.
  core::CommSchedule sched = two_rank_send_side();
  std::vector<i64> scratch, tombs;
  const std::vector<i64> payload{1, 4, 1, 1, 7};
  const std::vector<i64> offsets{0, 5, 5};
  sched.splice_send(payload, offsets, scratch, tombs);
  EXPECT_EQ(sched.send_indices, (std::vector<i64>{9, 7, 2}));
  EXPECT_EQ(sched.send_offsets, (std::vector<i64>{0, 2, 3}));
}

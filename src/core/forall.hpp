// FORALL loop drivers: the code shapes the paper's compiler generates for
// its two canonical irregular loops (Figure 1), packaged as inspector
// (collective, produces a reusable plan) + executor (collective, runs the
// computation through the plan's schedules).
//
//   EdgeReductionLoop  — loop L2:  FORALL i = 1,N
//                                    REDUCE(ADD, y(e1(i)), f(x(e1),x(e2)))
//                                    REDUCE(ADD, y(e2(i)), g(x(e1),x(e2)))
//   SingleStatementLoop — loop L1: FORALL i = 1,N
//                                    y(ia(i)) = f(x(ib(i)), x(ic(i)))
//
// Plans are shared_ptr products designed to live in an InspectorCache keyed
// by loop id, guarded by the Section 3 reuse conditions.
#pragma once

#include <memory>
#include <span>

#include "core/executor.hpp"
#include "core/inspector.hpp"
#include "core/iter_partition.hpp"
#include "core/plan_options.hpp"
#include "dist/darray.hpp"
#include "dist/remap.hpp"

namespace chaos::core {

/// Inspector product for an L2-style edge reduction sweep.
struct EdgeLoopPlan {
  IterationPartition iters;
  /// Indirection values remapped onto the executing processes (one value per
  /// local iteration of iters.iter_dist).
  std::vector<i64> end1, end2;
  /// Pre-remap indirection slices as of the last successful build or repair
  /// (this rank's segments of the caller's ept1/ept2). The repair path diffs
  /// the caller's NEW slices against these so only changed endpoints ride
  /// the remap — communication ∝ delta, not mesh.
  std::vector<i64> src1, src2;
  /// Localized references of end1/end2 against the data distribution, with
  /// the shared communication schedule.
  LocalizedMany loc;
  /// Repair baseline: the distinct set + entries the schedule was last
  /// built/spliced from (DESIGN.md §14).
  LocalizeSnapshot snap;
  /// Executor staging, sized once from the schedule on the first sweep so
  /// repeated execute() calls through this plan allocate nothing. Mutable:
  /// scratch identity, not part of the plan's logical state.
  mutable ExecutorWorkspace<f64> ws;
  /// Inspector staging (dedup table, distinct arena, request CSR). Callers
  /// that rebuild a plan in place — the no-reuse pipelines re-running the
  /// inspector every sweep — re-localize through warm buffers; attach a
  /// dist::TranslationCache (via PlanOptions) to also skip warm locates.
  InspectorWorkspace iws;
  /// Delta-remap staging (inverse placement map + payload CSR), grow-only.
  dist::RemapDeltaWorkspace remap_ws;
  std::vector<i64> delta_pos, delta_val;  ///< changed-slice diff scratch
  /// Build validity stamp: a failed (thrown-through) inspection leaves the
  /// plan not ready and execute() refuses it (DESIGN.md §11).
  PlanBuildState build;

  [[nodiscard]] i64 my_iterations() const {
    return static_cast<i64>(end1.size());
  }
  [[nodiscard]] const PlanOptions& options() const { return iws.options(); }
};

class EdgeReductionLoop {
 public:
  /// Collective inspector (phases B+D of Figure 2): partitions the loop
  /// iterations against @p data_dist, remaps the indirection slices, and
  /// localizes them. @p opts is the unified plan-construction surface
  /// (cache, repair policy) — SPMD-identical on all ranks.
  [[nodiscard]] static std::shared_ptr<EdgeLoopPlan> inspect(
      rt::Process& p, const dist::Distribution& edge_dist,
      std::span<const i64> ept1, std::span<const i64> ept2,
      const dist::Distribution& data_dist,
      IterRule rule = IterRule::MostLocalReferences,
      const PlanOptions& opts = {});

  /// Collective incremental repair (DESIGN.md §14): updates @p plan in
  /// place for CHANGED indirection values — same edge and data
  /// distributions, same iteration partition, new ept1/ept2 contents. Ships
  /// only changed endpoints through the remap, locates only novel globals,
  /// and splices the schedule; on success the plan is bit-identical to a
  /// full inspect() of the same inputs. Returns false when the machine-wide
  /// vote rejects (delta over threshold, repair off, or hard
  /// ineligibility) — the plan is then left NOT ready and the caller must
  /// run a full inspect(). Every rank calls together.
  [[nodiscard]] static bool repair(rt::Process& p, EdgeLoopPlan& plan,
                                   std::span<const i64> ept1,
                                   std::span<const i64> ept2,
                                   const dist::Distribution& data_dist);

  /// Collective executor (phase E): gathers x ghosts, sweeps local
  /// iterations computing y(e1) += f(x1,x2) and y(e2) += g(x1,x2) into local
  /// or ghost accumulators, then scatter-adds the ghost contributions back.
  /// @p flops_per_edge models the cost of one f+g evaluation pair.
  template <typename F, typename G>
  static void execute(rt::Process& p, const EdgeLoopPlan& plan,
                      dist::DistributedArray<f64>& x,
                      dist::DistributedArray<f64>& y, F&& f, G&& g,
                      f64 flops_per_edge = 30.0) {
    CHAOS_CHECK(plan.build.ready(),
                "EdgeReductionLoop::execute: plan build incomplete — a "
                "failed inspection must be retried before executing");
    gather_ghosts(p, plan.loc.schedule, x, plan.ws);
    const std::span<f64> y_ghost_acc =
        plan.ws.ghost_accumulator(plan.loc.schedule, 0.0);
    const i64 nlocal = plan.loc.schedule.nlocal_at_build;
    auto deposit = [&](i64 ref, f64 v) {
      if (ref < nlocal) {
        y.local()[static_cast<std::size_t>(ref)] += v;
      } else {
        y_ghost_acc[static_cast<std::size_t>(ref - nlocal)] += v;
      }
    };
    const i64 n = plan.my_iterations();
    for (i64 i = 0; i < n; ++i) {
      const i64 r1 = plan.loc.refs[0][static_cast<std::size_t>(i)];
      const i64 r2 = plan.loc.refs[1][static_cast<std::size_t>(i)];
      const f64 x1 = x.localized(r1);
      const f64 x2 = x.localized(r2);
      deposit(r1, f(x1, x2));
      deposit(r2, g(x1, x2));
    }
    p.clock().charge_ops(n, p.params().flop_us * flops_per_edge +
                                p.params().mem_us_per_word * 4);
    scatter_reduce<f64>(p, plan.loc.schedule, y.local(), y_ghost_acc,
                        ReduceOp::Add, plan.ws);
  }
};

/// Inspector product for an L1-style independent assignment loop.
struct SingleStatementPlan {
  IterationPartition iters;
  std::vector<i64> ia, ib, ic;  ///< remapped indirection values
  /// Pre-remap slices at the last build/repair (see EdgeLoopPlan::src1).
  std::vector<i64> src_ia, src_ib, src_ic;
  Localized lhs;                ///< ia against the y distribution
  LocalizedMany rhs;            ///< ib, ic against the x distribution
  /// Repair baselines, one per localized distribution (DESIGN.md §14).
  LocalizeSnapshot lhs_snap;
  LocalizeSnapshot rhs_snap;
  /// Shared executor staging for both schedules (staging() re-slices per
  /// schedule; buffers grow to the larger one once), so repeated execute()
  /// calls allocate nothing.
  mutable ExecutorWorkspace<f64> ws;
  /// Inspector staging — one workspace per localized distribution (rhs
  /// against x, lhs against y), so a translation cache attached to either
  /// stays bound to exactly one DAD even when x and y are distributed
  /// differently.
  InspectorWorkspace iws;
  InspectorWorkspace lhs_iws;
  /// Delta-remap staging shared by the three indirection slices.
  dist::RemapDeltaWorkspace remap_ws;
  std::vector<i64> delta_pos, delta_val;
  /// Build validity stamp (see EdgeLoopPlan::build).
  PlanBuildState build;

  [[nodiscard]] i64 my_iterations() const {
    return static_cast<i64>(ia.size());
  }
  [[nodiscard]] const PlanOptions& options() const { return iws.options(); }
};

class SingleStatementLoop {
 public:
  [[nodiscard]] static std::shared_ptr<SingleStatementPlan> inspect(
      rt::Process& p, const dist::Distribution& iter_dist,
      std::span<const i64> ia, std::span<const i64> ib,
      std::span<const i64> ic, const dist::Distribution& y_dist,
      const dist::Distribution& x_dist,
      IterRule rule = IterRule::MostLocalReferences,
      const PlanOptions& opts = {});

  /// Collective incremental repair of both schedules (lhs against y, rhs
  /// against x) for changed ia/ib/ic values — see EdgeReductionLoop::repair
  /// for the contract. Both splices must win their votes; a fallback on
  /// either leaves the plan NOT ready and returns false.
  [[nodiscard]] static bool repair(rt::Process& p, SingleStatementPlan& plan,
                                   std::span<const i64> ia,
                                   std::span<const i64> ib,
                                   std::span<const i64> ic,
                                   const dist::Distribution& y_dist,
                                   const dist::Distribution& x_dist);

  /// y(ia(i)) = f(x(ib(i)), x(ic(i))). FORALL semantics: distinct iterations
  /// must write distinct elements (checked only by construction).
  template <typename F>
  static void execute(rt::Process& p, const SingleStatementPlan& plan,
                      dist::DistributedArray<f64>& y,
                      dist::DistributedArray<f64>& x, F&& f,
                      f64 flops_per_iter = 10.0) {
    CHAOS_CHECK(plan.build.ready(),
                "SingleStatementLoop::execute: plan build incomplete — a "
                "failed inspection must be retried before executing");
    gather_ghosts(p, plan.rhs.schedule, x, plan.ws);
    const std::span<f64> y_ghost =
        plan.ws.ghost_accumulator(plan.lhs.schedule, 0.0);
    const i64 y_nlocal = plan.lhs.schedule.nlocal_at_build;
    const i64 n = plan.my_iterations();
    for (i64 i = 0; i < n; ++i) {
      const f64 v = f(x.localized(plan.rhs.refs[0][static_cast<std::size_t>(i)]),
                      x.localized(plan.rhs.refs[1][static_cast<std::size_t>(i)]));
      const i64 ref = plan.lhs.refs[static_cast<std::size_t>(i)];
      if (ref < y_nlocal) {
        y.local()[static_cast<std::size_t>(ref)] = v;
      } else {
        y_ghost[static_cast<std::size_t>(ref - y_nlocal)] = v;
      }
    }
    p.clock().charge_ops(n, p.params().flop_us * flops_per_iter +
                                p.params().mem_us_per_word * 3);
    scatter_assign<f64>(p, plan.lhs.schedule, y.local(), y_ghost, plan.ws);
  }
};

}  // namespace chaos::core

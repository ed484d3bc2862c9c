// FORALL loop plans and executors: the inspector/executor code shape the
// paper's compiler generates for an irregular loop (Figure 1), and that a
// programmer writes by hand with the same runtime calls.
//
//   IrregularLoopPlan  — the inspector product every irregular loop shares:
//                        N indirection batches remapped onto one iteration
//                        partition and localized against one data
//                        distribution. The bytecode VM's LoopPlan holds one.
//   EdgeReductionLoop  — loop L2:  FORALL i = 1,N
//                                    REDUCE(ADD, y(e1(i)), f(x(e1),x(e2)))
//                                    REDUCE(ADD, y(e2(i)), g(x(e1),x(e2)))
//
// Plans are shared_ptr products designed to live in an InspectorCache, one
// slot per loop id (a hand-written loop's, or a FORALL statement's in the
// VM), guarded by the Section 3 reuse conditions.
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

/// Inspector product of one irregular loop: N indirection batches (one value
/// per iteration each) remapped onto an iteration partition and localized
/// together against one data distribution, with one shared schedule. The
/// build is split where the VM splits PARTITION from LOCALIZE, so callers
/// time partition + remap apart from localize. partition() and repair() open
/// a build; the caller marks it built once its last schedule is in place, so
/// a loop that adds schedules of its own (the VM's assign schedules) is
/// never ready early.
struct IrregularLoopPlan {
  explicit IrregularLoopPlan(std::size_t nbatches)
      : batches(nbatches), sources(nbatches) {}

  IterationPartition iters;
  /// Indirection values remapped onto the executing processes: per batch,
  /// one value per local iteration of iters.iter_dist.
  std::vector<std::vector<i64>> batches;
  /// Pre-remap slices as of the last build or repair (this rank's segments
  /// of the caller's indirection arrays). Repair diffs the caller's NEW
  /// slices against these, so only changed values ride the remap.
  std::vector<std::vector<i64>> sources;
  /// The batches localized against the data distribution, with their
  /// shared communication schedule.
  LocalizedMany loc;
  /// Repair baseline of loc's schedule (DESIGN.md §14).
  LocalizeSnapshot snap;
  /// Inspector staging (dedup table, distinct arena, request CSR): an
  /// in-place rebuild re-localizes through warm buffers; attach a
  /// dist::TranslationCache (via PlanOptions) to also skip warm locates.
  InspectorWorkspace iws;
  /// Delta-remap staging, bound to iters.remap; partition() resets it.
  dist::RemapDeltaWorkspace remap_ws;
  std::vector<i64> delta_pos, delta_val;  ///< changed-slice diff scratch
  /// Build validity stamp: executors refuse a plan that is not ready
  /// (DESIGN.md §11).
  PlanBuildState build;

  /// Collective phases B and C: partitions the iterations of @p iter_space
  /// by the homes of @p slices' references in @p data_dist and remaps each
  /// slice onto the partition. Opens a build.
  void partition(rt::Process& p, const dist::Distribution& iter_space,
                 const dist::Distribution& data_dist,
                 std::span<const std::span<const i64>> slices,
                 IterRule rule = IterRule::MostLocalReferences,
                 i64 page_size = 4096);

  /// Collective phase D: localizes the batches against @p data_dist and
  /// captures the repair baseline.
  void localize(rt::Process& p, const dist::Distribution& data_dist);

  /// Collective incremental repair (DESIGN.md §14) for CHANGED indirection
  /// values: same iteration and data distributions, new @p slices contents.
  /// Votes eligibility before mutating anything, ships only changed values
  /// through the remap, locates only novel globals and splices the
  /// schedule, which then matches a full rebuild of the same inputs bit for
  /// bit. Returns false when a machine-wide vote rejects (delta over
  /// threshold, repair off, or hard ineligibility): a plan that had started
  /// to change is then left NOT ready and the caller must rebuild it. Every
  /// rank calls together and gets the same answer.
  [[nodiscard]] bool repair(rt::Process& p,
                            std::span<const std::span<const i64>> slices,
                            const dist::Distribution& data_dist);

 private:
  /// The batches as the spans localize takes (grow-only scratch).
  std::span<const std::span<const i64>> batch_spans();
  std::vector<std::span<const i64>> spans_;
};

/// Inspector product for an L2-style edge reduction sweep: the shared plan
/// with two batches, end1 (from e1) and end2 (from e2), plus the executor's
/// staging. Not copyable: end1 and end2 are bound to this plan's batches.
struct EdgeLoopPlan : IrregularLoopPlan {
  EdgeLoopPlan() : IrregularLoopPlan(2), end1(batches[0]), end2(batches[1]) {}
  EdgeLoopPlan(const EdgeLoopPlan&) = delete;
  EdgeLoopPlan& operator=(const EdgeLoopPlan&) = delete;

  std::vector<i64>& end1;
  std::vector<i64>& end2;
  /// Executor staging, sized once from the schedule on the first sweep so
  /// repeated execute() calls through this plan allocate nothing. Mutable:
  /// scratch identity, not part of the plan's logical state.
  mutable ExecutorWorkspace<f64> ws;

  [[nodiscard]] i64 my_iterations() const {
    return static_cast<i64>(end1.size());
  }
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

  /// Collective incremental repair of @p plan for new ept1/ept2 contents
  /// (IrregularLoopPlan::repair); on success the plan is ready again.
  [[nodiscard]] static bool repair(rt::Process& p, EdgeLoopPlan& plan,
                                   std::span<const i64> ept1,
                                   std::span<const i64> ept2,
                                   const dist::Distribution& data_dist);

  /// Collective executor (phase E): gathers x's ghosts into x's tail, sweeps
  /// the local iterations folding y(e1) += f(x1,x2) and y(e2) += g(x1,x2)
  /// into y's [owned | zeroed ghost] buffer, then scatter-adds y's tail back
  /// to the owners. @p flops_per_edge models the cost of one f+g pair.
  template <typename F, typename G>
  static void execute(rt::Process& p, const EdgeLoopPlan& plan,
                      dist::DistributedArray<f64>& x,
                      dist::DistributedArray<f64>& y, F&& f, G&& g,
                      f64 flops_per_edge = 30.0) {
    CHAOS_CHECK(plan.build.ready(),
                "EdgeReductionLoop::execute: plan build incomplete — a "
                "failed inspection must be retried before executing");
    const CommSchedule& sched = plan.loc.schedule;
    // The sweep writes y's owned segment through the schedule's local
    // indices, and y's tail would overwrite the ghosts x gathers.
    CHAOS_CHECK(&x != &y && y.nlocal() == sched.nlocal_at_build,
                "EdgeReductionLoop::execute: y must be a separate array "
                "whose local segment matches the schedule");
    gather_ghosts(p, sched, x, plan.ws);
    y.resize_ghost(sched.nghost);
    const f64* xv = x.view().data();
    f64* yv = y.view().data();
    const i64* refs1 = plan.loc.refs[0].data();
    const i64* refs2 = plan.loc.refs[1].data();
    const i64 n = plan.my_iterations();
    for (i64 i = 0; i < n; ++i) {
      const f64 x1 = xv[refs1[i]];
      const f64 x2 = xv[refs2[i]];
      yv[refs1[i]] += f(x1, x2);
      yv[refs2[i]] += g(x1, x2);
    }
    p.clock().charge_ops(n, p.params().flop_us * flops_per_edge +
                                p.params().mem_us_per_word * 4);
    scatter_reduce<f64>(p, sched, y.local(), y.ghost(), ReduceOp::Add,
                        plan.ws);
  }
};

}  // namespace chaos::core

#include "core/forall.hpp"

namespace chaos::core {

void IrregularLoopPlan::partition(rt::Process& p,
                                  const dist::Distribution& iter_space,
                                  const dist::Distribution& data_dist,
                                  std::span<const std::span<const i64>> slices,
                                  IterRule rule, i64 page_size) {
  CHAOS_CHECK(slices.size() == batches.size(),
              "IrregularLoopPlan::partition: batch count differs from the "
              "plan's");
  build.begin_build();
  iters = partition_iterations(p, iter_space, data_dist, slices, rule,
                               page_size);
  remap_ws.inverse_built = false;
  for (std::size_t j = 0; j < slices.size(); ++j) {
    batches[j] = dist::apply_remap<i64>(p, iters.remap, slices[j]);
    sources[j].assign(slices[j].begin(), slices[j].end());
  }
}

void IrregularLoopPlan::localize(rt::Process& p,
                                 const dist::Distribution& data_dist) {
  localize_many(p, data_dist, batch_spans(), iws, loc);
  iws.capture(snap);
}

bool IrregularLoopPlan::repair(rt::Process& p,
                               std::span<const std::span<const i64>> slices,
                               const dist::Distribution& data_dist) {
  // Hard eligibility, voted BEFORE any mutation so every rank takes the
  // same path and an ineligible plan is left untouched (and still ready).
  bool ok = build.ready() && iws.options().repair_enabled() &&
            slices.size() == sources.size();
  for (std::size_t j = 0; ok && j < slices.size(); ++j) {
    ok = slices[j].size() == sources[j].size() &&
         static_cast<i64>(slices[j].size()) == iters.remap.nlocal_from;
  }
  if (rt::allreduce_max(p, ok ? i64{0} : i64{1}) != 0) {
    ++p.stats().repair_fallbacks;
    return false;
  }

  // From here the plan mutates: not ready until the caller closes the
  // build, so a voted-out or thrown-through attempt forces a rebuild
  // instead of executing half-updated state (DESIGN.md §11).
  build.begin_build();

  // Phase C': ship only the CHANGED values through the remap, refreshing
  // the baselines at the changed positions.
  i64 scanned = 0;
  for (std::size_t j = 0; j < slices.size(); ++j) {
    delta_pos.clear();
    delta_val.clear();
    std::vector<i64>& base = sources[j];
    for (std::size_t i = 0; i < base.size(); ++i) {
      if (slices[j][i] != base[i]) {
        delta_pos.push_back(static_cast<i64>(i));
        delta_val.push_back(slices[j][i]);
        base[i] = slices[j][i];
      }
    }
    dist::apply_remap_delta(p, iters.remap, delta_pos, delta_val, batches[j],
                            remap_ws);
    scanned += static_cast<i64>(base.size());
  }
  // The diff scan touches every slice element once.
  p.clock().charge_ops(scanned, p.params().mem_us_per_word);

  // Phase D': splice the schedule for the delta.
  if (!repair_localize_many(p, data_dist, batch_spans(), iws, snap, loc)) {
    return false;
  }
  iws.capture(snap);
  return true;
}

std::span<const std::span<const i64>> IrregularLoopPlan::batch_spans() {
  spans_.assign(batches.begin(), batches.end());
  return spans_;
}

std::shared_ptr<EdgeLoopPlan> EdgeReductionLoop::inspect(
    rt::Process& p, const dist::Distribution& edge_dist,
    std::span<const i64> ept1, std::span<const i64> ept2,
    const dist::Distribution& data_dist, IterRule rule,
    const PlanOptions& opts) {
  auto plan = std::make_shared<EdgeLoopPlan>();
  plan->iws.configure(opts);
  const std::span<const i64> slices[] = {ept1, ept2};
  plan->partition(p, edge_dist, data_dist, slices, rule);
  plan->localize(p, data_dist);
  plan->build.mark_built();
  return plan;
}

bool EdgeReductionLoop::repair(rt::Process& p, EdgeLoopPlan& plan,
                               std::span<const i64> ept1,
                               std::span<const i64> ept2,
                               const dist::Distribution& data_dist) {
  const std::span<const i64> slices[] = {ept1, ept2};
  if (!plan.repair(p, slices, data_dist)) return false;
  plan.build.mark_built();
  return true;
}

}  // namespace chaos::core

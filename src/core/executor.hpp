// Executor-phase data movers (Phase E of Figure 2): gather off-process
// copies into the ghost region before a loop, and push ghost contributions
// back to their owners after a reduction loop. All are collective and reuse
// a CommSchedule built once by the inspector — the object whose reuse
// Section 3 of the paper is about.
//
// The executor runs every timestep while the inspector is amortized, so the
// movers here are written to be allocation-free in steady state: each is one
// fused pack → alltoallv_flat → contiguous-unpack pass over the schedule's
// CSR arrays, staging through a reusable ExecutorWorkspace. The ghost buffer
// layout (source rank ascending, request order within rank) is exactly the
// flat exchange's receive layout, so a gather needs no unpack copy at all
// and a scatter needs no pack copy. Hand-written loops and the bytecode VM
// gather through one call, into each array's own [owned | ghost] buffer.
#pragma once

#include <limits>
#include <span>
#include <vector>

#include "core/schedule.hpp"
#include "dist/darray.hpp"
#include "rt/collectives.hpp"

namespace chaos::core {

/// Reduction kinds supported in FORALL left-hand sides (paper: "the only
/// loop carried dependencies allowed are left hand side reductions").
enum class ReduceOp : u8 { Add, Max, Min, Replace };

template <typename T>
constexpr T apply_reduce(ReduceOp op, T current, T incoming) {
  switch (op) {
    case ReduceOp::Add: return current + incoming;
    case ReduceOp::Max: return incoming > current ? incoming : current;
    case ReduceOp::Min: return incoming < current ? incoming : current;
    case ReduceOp::Replace: return incoming;
  }
  return current;
}

/// Identity element so ghost accumulators start neutral.
template <typename T>
constexpr T reduce_identity(ReduceOp op) {
  switch (op) {
    case ReduceOp::Add: return T{};
    case ReduceOp::Max: return std::numeric_limits<T>::lowest();
    case ReduceOp::Min: return std::numeric_limits<T>::max();
    case ReduceOp::Replace: return T{};
  }
  return T{};
}

/// Reusable staging memory for the schedule-driven movers. The buffer grows
/// monotonically and is sized once from the schedule, so every call after
/// the first performs zero heap allocations. Plans own one workspace per
/// loop; every mover below takes one.
template <typename T>
class ExecutorWorkspace {
 public:
  /// Pack staging for a gather / unpack staging for a scatter: one flat
  /// buffer of schedule.total_send() elements.
  [[nodiscard]] std::span<T> staging(const CommSchedule& schedule) {
    const auto need = static_cast<std::size_t>(schedule.total_send());
    if (stage_.size() < need) stage_.resize(need);
    return std::span<T>(stage_.data(), need);
  }

 private:
  std::vector<T> stage_;
};

namespace detail {
inline void check_schedule(const CommSchedule& schedule, i64 nlocal,
                           i64 nghost, const char* who) {
  CHAOS_CHECK(nlocal == schedule.nlocal_at_build,
              std::string(who) + ": schedule is stale (local size changed)");
  CHAOS_CHECK(nghost == schedule.nghost,
              std::string(who) +
                  ": ghost buffer size does not match schedule");
#ifndef NDEBUG
  // Typed full validation (ScheduleInvalid names the violated invariant);
  // per-sweep, so debug builds only — plan-build and trust boundaries run
  // it always via validate_or_throw.
  schedule.validate_or_throw(who);
#endif
}
}  // namespace detail

/// Collective gather: fills @p ghost (size schedule.nghost) with copies of
/// the off-process elements the inspector recorded, reading my owned
/// elements from @p local for peers that requested them. One fused pass:
/// pack into the workspace staging in the schedule's flat CSR send order,
/// the flat all-to-all straight into @p ghost (the ghost layout IS the
/// exchange's receive layout, so there is no unpack copy), then one modeled
/// charge for the pack reads and the ghost writes.
template <typename T>
void gather_ghosts(rt::Process& p, const CommSchedule& schedule,
                   std::span<const T> local, std::span<T> ghost,
                   ExecutorWorkspace<T>& ws) {
  detail::check_schedule(schedule, static_cast<i64>(local.size()),
                         static_cast<i64>(ghost.size()), "gather");
  const std::span<T> stage = ws.staging(schedule);
  const i64* idx = schedule.send_indices.data();
  const i64 packed = schedule.total_send();
  for (i64 k = 0; k < packed; ++k) {
    stage[static_cast<std::size_t>(k)] =
        local[static_cast<std::size_t>(idx[k])];
  }
  rt::alltoallv_flat<T>(p, stage, schedule.send_offsets, ghost,
                        schedule.recv_offsets);
  p.clock().charge_ops(packed + schedule.nghost, p.params().mem_us_per_word);
}

/// Gather into a DistributedArray: fills the ghost tail of its
/// [owned | ghost] buffer in place, resizing it to fit the schedule. The
/// hand-written loops and the bytecode VM's GATHER op both call this.
template <typename T>
void gather_ghosts(rt::Process& p, const CommSchedule& schedule,
                   dist::DistributedArray<T>& a, ExecutorWorkspace<T>& ws) {
  if (a.nghost() != schedule.nghost) a.resize_ghost(schedule.nghost);
  gather_ghosts<T>(p, schedule, a.local(), a.ghost(), ws);
}

/// Collective scatter-reduce: sends each ghost slot's accumulated value back
/// to the owner, which folds it into its local element with @p op. Used
/// after reduction loops that folded into a ghost tail. Reverse of
/// gather: the ghost region is already sliced by source rank, so it is the
/// exchange's flat send buffer verbatim; the unpack folds straight from the
/// staging buffer through the flat send-index array.
template <typename T>
void scatter_reduce(rt::Process& p, const CommSchedule& schedule,
                    std::span<T> local, std::span<const T> ghost, ReduceOp op,
                    ExecutorWorkspace<T>& ws) {
  detail::check_schedule(schedule, static_cast<i64>(local.size()),
                         static_cast<i64>(ghost.size()), "scatter");
  const std::span<T> stage = ws.staging(schedule);
  rt::alltoallv_flat<T>(p, ghost, schedule.recv_offsets, stage,
                        schedule.send_offsets);
  const i64* idx = schedule.send_indices.data();
  const i64 applied = schedule.total_send();
  for (i64 k = 0; k < applied; ++k) {
    T& dst = local[static_cast<std::size_t>(idx[k])];
    dst = apply_reduce(op, dst, stage[static_cast<std::size_t>(k)]);
  }
  p.clock().charge_ops(schedule.nghost + applied, p.params().mem_us_per_word);
  p.clock().charge_ops(applied, p.params().flop_us);
}

/// Collective scatter-assign: writes ghost values into the owners' elements
/// (off-process left-hand sides of dependence-free FORALL assignments, loop
/// L1). The caller guarantees no two iterations write the same element.
template <typename T>
void scatter_assign(rt::Process& p, const CommSchedule& schedule,
                    std::span<T> local, std::span<const T> ghost,
                    ExecutorWorkspace<T>& ws) {
  scatter_reduce<T>(p, schedule, local, ghost, ReduceOp::Replace, ws);
}

}  // namespace chaos::core

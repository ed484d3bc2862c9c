// The remap engine (REDISTRIBUTE): a RemapPlan is a reusable permutation
// schedule between two equal-sized distributions. build_remap computes it
// with ONE batched locate (closed form for regular targets, one table
// exchange for irregular) plus one placement exchange; apply_remap then
// moves any aligned array with one CSR alltoallv — pack by precomputed
// source positions, unpack by precomputed target positions, no per-element
// address arithmetic in the hot path.
#pragma once

#include <span>
#include <vector>

#include "dist/distribution.hpp"
#include "rt/collectives.hpp"

namespace chaos::dist {

struct RemapPlan {
  i64 size = 0;            ///< global extent both distributions share
  i64 nlocal_from = 0;     ///< my source-segment length (staleness guard)
  i64 nlocal_to = 0;       ///< my target-segment length
  i64 moved_elements = 0;  ///< machine-total elements that changed process
  u64 from_incarnation = 0;
  u64 to_incarnation = 0;
  /// CSR by peer, like CommSchedule: send_pos[send_offsets[d] + k] is the
  /// position in my source segment of the k-th value I ship to process d
  /// (ascending source order), and place_pos[recv_offsets[s] + k] is the
  /// position in my target segment where the k-th value arriving from
  /// process s lands. Both prefixes have nprocs+1 entries.
  std::vector<i64> send_offsets, send_pos;
  std::vector<i64> recv_offsets, place_pos;
};

/// Collective. Throws if the distributions differ in global size.
[[nodiscard]] RemapPlan build_remap(rt::Process& p, const Distribution& from,
                                    const Distribution& to);

/// Scratch for apply_remap_delta: the plan's inverse placement map (source
/// position -> (destination, ordinal in the destination's arrival order)),
/// built once per plan and reused, plus the exchange staging. All buffers
/// grow monotonically — warm delta applies perform zero heap allocations.
struct RemapDeltaWorkspace {
  std::vector<i64> dest_of;   ///< source pos -> destination rank
  std::vector<i64> ord_of;    ///< source pos -> ordinal within that dest
  bool inverse_built = false;
  /// One changed element on the wire: its ordinal in the destination's
  /// arrival order, and its new value.
  struct Change {
    i64 ord, val;
  };
  std::vector<Change> payload;  ///< changes grouped by destination
  std::vector<i64> payload_offsets;
  std::vector<Change> recv_payload;
  std::vector<i64> recv_offsets;
  std::vector<i64> counts_scratch;
};

/// Collective sparse companion of apply_remap (incremental schedule repair,
/// DESIGN.md §14): pushes only the CHANGED source entries of an i64 array
/// through @p plan, updating @p target — the array apply_remap produced —
/// in place. Wire volume is two words per changed element, so a repair's
/// remap leg costs ∝ delta size instead of re-shipping the whole array.
/// Every rank must call together (changed sets may be empty on some ranks).
inline void apply_remap_delta(rt::Process& p, const RemapPlan& plan,
                              std::span<const i64> changed_pos,
                              std::span<const i64> changed_val,
                              std::span<i64> target,
                              RemapDeltaWorkspace& ws) {
  CHAOS_CHECK(changed_pos.size() == changed_val.size(),
              "apply_remap_delta: positions/values length mismatch");
  CHAOS_CHECK(static_cast<i64>(target.size()) == plan.nlocal_to,
              "apply_remap_delta: target segment length does not match plan");
  const auto np = static_cast<std::size_t>(p.nprocs());
  if (!ws.inverse_built) {
    ws.dest_of.assign(static_cast<std::size_t>(plan.nlocal_from), -1);
    ws.ord_of.assign(static_cast<std::size_t>(plan.nlocal_from), -1);
    for (std::size_t d = 0; d < np; ++d) {
      const i64 lo = plan.send_offsets[d];
      for (i64 k = lo; k < plan.send_offsets[d + 1]; ++k) {
        const auto pos = static_cast<std::size_t>(
            plan.send_pos[static_cast<std::size_t>(k)]);
        ws.dest_of[pos] = static_cast<i64>(d);
        ws.ord_of[pos] = k - lo;
      }
    }
    ws.inverse_built = true;
  }
  ws.payload.resize(changed_pos.size());
  rt::group_by_dest(
      p.nprocs(), changed_pos.size(),
      [&](std::size_t i) {
        const i64 d = ws.dest_of[static_cast<std::size_t>(changed_pos[i])];
        CHAOS_CHECK(d >= 0,
                    "apply_remap_delta: changed position never shipped");
        return d;
      },
      ws.payload_offsets,
      [&](std::size_t i, std::size_t slot) {
        ws.payload[slot] = {
            ws.ord_of[static_cast<std::size_t>(changed_pos[i])],
            changed_val[i]};
      });
  rt::exchange_csr<RemapDeltaWorkspace::Change>(
      p, ws.payload, ws.payload_offsets, ws.recv_payload, ws.recv_offsets,
      ws.counts_scratch);
  // Place: an arriving change lands where apply_remap would have put the
  // s-th source's ord-th element.
  for (std::size_t s = 0; s < np; ++s) {
    const i64 lo = plan.recv_offsets[s];
    for (i64 k = ws.recv_offsets[s]; k < ws.recv_offsets[s + 1]; ++k) {
      const auto [ord, val] = ws.recv_payload[static_cast<std::size_t>(k)];
      CHAOS_CHECK(ord >= 0 && ord < plan.recv_offsets[s + 1] - lo,
                  "apply_remap_delta: peer sent an out-of-range ordinal");
      target[static_cast<std::size_t>(
          plan.place_pos[static_cast<std::size_t>(lo + ord)])] = val;
    }
  }
  p.clock().charge_ops(static_cast<i64>(changed_pos.size()) +
                           ws.recv_offsets[np],
                       p.params().mem_us_per_word);
}

/// Collective. Moves one array's owned segment through @p plan; the source
/// span must match the plan's build-time segment length, checked before any
/// communication so no rank is left stranded mid-exchange. A raw span
/// carries no distribution identity, so this length compare is the only
/// guard here; DistributedArray::redistribute additionally pins the plan to
/// both endpoint distributions via their DAD incarnations.
template <typename T>
[[nodiscard]] std::vector<T> apply_remap(rt::Process& p, const RemapPlan& plan,
                                         std::span<const T> src) {
  CHAOS_CHECK(static_cast<i64>(src.size()) == plan.nlocal_from,
              "apply_remap: plan is stale (source segment length changed)");
  std::vector<T> packed(plan.send_pos.size());
  for (std::size_t k = 0; k < packed.size(); ++k) {
    packed[k] = src[static_cast<std::size_t>(plan.send_pos[k])];
  }
  std::vector<T> incoming;
  std::vector<i64> incoming_offsets;
  rt::alltoallv<T>(p, packed, plan.send_offsets, incoming, incoming_offsets);
  CHAOS_CHECK(incoming_offsets == plan.recv_offsets,
              "apply_remap: peer sent unexpected element count");
  std::vector<T> out(static_cast<std::size_t>(plan.nlocal_to));
  for (std::size_t k = 0; k < incoming.size(); ++k) {
    out[static_cast<std::size_t>(plan.place_pos[k])] = incoming[k];
  }
  p.clock().charge_ops(static_cast<i64>(packed.size()) + plan.nlocal_to,
                       p.params().mem_us_per_word);
  return out;
}

}  // namespace chaos::dist

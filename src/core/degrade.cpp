#include "core/degrade.hpp"

#include <cstdint>
#include <cstring>

#include "dist/remap.hpp"
#include "rt/collectives.hpp"

namespace chaos::core {

namespace {

using dist::Distribution;
using dist::RemapPlan;
using rt::Process;
using rt::SegmentSnapshot;

/// One ownership claim: global @c g lives (or shall live) on rank @c owner.
struct OwnerClaim {
  i64 g, owner;
};

/// Scatters ownership claims to the block-owners of a map space and
/// assembles each rank's slice of the paper's map array: map_slice[l] =
/// claimed owner of map_dist.global_of(rank, l). Every global in [0, N)
/// must be claimed exactly once across the machine — the checkpoint
/// partitions the index space, so a hole or a duplicate means snapshots
/// from different epochs were mixed.
std::vector<i64> owner_map_from_claims(Process& p,
                                       const Distribution& map_dist,
                                       std::span<const OwnerClaim> claims) {
  std::vector<OwnerClaim> outgoing(claims.size());
  std::vector<i64> send_offsets;
  rt::group_by_dest(
      p.nprocs(), claims.size(),
      [&](std::size_t i) { return map_dist.owner_of(claims[i].g); },
      send_offsets,
      [&](std::size_t i, std::size_t slot) { outgoing[slot] = claims[i]; });
  std::vector<OwnerClaim> incoming;
  std::vector<i64> incoming_offsets;
  rt::alltoallv<OwnerClaim>(p, outgoing, send_offsets, incoming,
                            incoming_offsets);
  std::vector<i64> map_slice(
      static_cast<std::size_t>(map_dist.my_local_size()), -1);
  const i64 base = map_dist.my_local_size() > 0
                       ? map_dist.global_of(p.rank(), 0)
                       : 0;
  for (const OwnerClaim& c : incoming) {
    const i64 l = c.g - base;
    CHAOS_CHECK(l >= 0 && l < static_cast<i64>(map_slice.size()),
                "restore_shrunk: ownership claim outside my map slice");
    CHAOS_CHECK(map_slice[static_cast<std::size_t>(l)] == -1,
                "restore_shrunk: global claimed twice — checkpoint mixes "
                "epochs");
    map_slice[static_cast<std::size_t>(l)] = c.owner;
  }
  for (const i64 owner : map_slice) {
    CHAOS_CHECK(owner >= 0,
                "restore_shrunk: unclaimed global — checkpoint incomplete");
  }
  return map_slice;
}

/// apply_remap over raw bytes, dispatched on the element width so f64/i64
/// payloads move as u64 (bit-exact — no float formatting or arithmetic
/// anywhere near the values).
template <typename U>
std::vector<std::byte> remap_bytes_as(Process& p, const RemapPlan& plan,
                                      std::span<const std::byte> src) {
  std::vector<U> typed(src.size() / sizeof(U));
  if (!typed.empty()) std::memcpy(typed.data(), src.data(), src.size());
  const std::vector<U> moved =
      dist::apply_remap<U>(p, plan, std::span<const U>(typed));
  std::vector<std::byte> out(moved.size() * sizeof(U));
  if (!out.empty()) std::memcpy(out.data(), moved.data(), out.size());
  return out;
}

std::vector<std::byte> remap_bytes(Process& p, const RemapPlan& plan,
                                   std::span<const std::byte> src,
                                   i64 elem_size) {
  switch (elem_size) {
    case 1: return remap_bytes_as<std::uint8_t>(p, plan, src);
    case 2: return remap_bytes_as<std::uint16_t>(p, plan, src);
    case 4: return remap_bytes_as<std::uint32_t>(p, plan, src);
    case 8: return remap_bytes_as<std::uint64_t>(p, plan, src);
    default:
      CHAOS_CHECK(false, "restore_shrunk: unsupported element size");
      return {};
  }
}

}  // namespace

std::vector<RestoredSegment> restore_shrunk(Process& p,
                                            const rt::CheckpointStore& store,
                                            const ShrinkMap& map,
                                            i64 page_size) {
  CHAOS_CHECK(map.old_nprocs >= 2, "restore_shrunk: nothing to shrink from");
  CHAOS_CHECK(map.dead_rank >= 0 && map.dead_rank < map.old_nprocs,
              "restore_shrunk: dead rank outside the old width");
  const int new_p = p.nprocs();
  CHAOS_CHECK(new_p == map.new_nprocs(),
              "restore_shrunk: machine is not at the shrunken width");
  CHAOS_CHECK(store.has_committed(),
              "restore_shrunk: no committed checkpoint to restore from");
  CHAOS_CHECK(store.width() == map.old_nprocs,
              "restore_shrunk: checkpoint was taken at a different width");

  const int my_old = map.old_of(p.rank());
  const rt::RankCheckpoint& mine = store.of(my_old);
  // Partner placement guarantees the buddy of the dead rank survives any
  // single failure (it is a different rank for every P >= 2); that survivor
  // holds — and reads locally, no charge — the dead rank's snapshot, then
  // the remap exchange below pays for moving it onto the survivors.
  const bool holder = my_old == map.buddy_old_rank();
  const rt::RankCheckpoint* dead_ck =
      holder ? &store.of(map.dead_rank) : nullptr;
  const std::size_t nseg = mine.segments.size();
  if (holder) {
    CHAOS_CHECK(dead_ck->segments.size() == nseg,
                "restore_shrunk: buddy snapshot has a different segment "
                "count — checkpoint mixes epochs");
  }

  std::vector<RestoredSegment> out(nseg);
  std::vector<char> grouped(nseg, 0);
  i64 adopted_bytes = 0;
  // Arrays aligned to one distribution (same old incarnation) share one
  // staging map, one target map, and one remap plan — the REDISTRIBUTE
  // contract. Groups are visited in first-appearance order, identical on
  // every rank (SPMD registration order), keeping the collectives aligned.
  for (std::size_t lead = 0; lead < nseg; ++lead) {
    if (grouped[lead]) continue;
    const SegmentSnapshot& ref = mine.segments[lead];
    std::vector<std::size_t> group;
    for (std::size_t j = lead; j < nseg; ++j) {
      if (!grouped[j] && mine.segments[j].incarnation == ref.incarnation) {
        grouped[j] = 1;
        group.push_back(j);
      }
    }
    const i64 n = ref.global_size;
    const SegmentSnapshot* dead_ref =
        holder ? &dead_ck->segments[lead] : nullptr;
    if (holder) {
      CHAOS_CHECK(dead_ref->incarnation == ref.incarnation &&
                      dead_ref->global_size == n && dead_ref->nmod == ref.nmod,
                  "restore_shrunk: buddy snapshot disagrees on array "
                  "identity — checkpoint mixes epochs");
    }

    // The map space the ownership claims are scattered over.
    const auto map_dist = Distribution::block(p, n);

    // STAGING distribution = who HOLDS each global right now: survivors
    // hold their own snapshot, the buddy additionally holds the dead
    // rank's. TARGET distribution = where each global SHALL live: survivors
    // keep their own, the dead rank's elements are dealt round-robin across
    // all survivors (balanced, deterministic).
    std::vector<OwnerClaim> staging_claims, target_claims;
    const i64 me = static_cast<i64>(p.rank());
    for (const i64 g : ref.globals) {
      staging_claims.push_back({g, me});
      target_claims.push_back({g, me});
    }
    if (holder) {
      i64 k = 0;
      for (const i64 g : dead_ref->globals) {
        staging_claims.push_back({g, me});
        target_claims.push_back({g, k % new_p});
        ++k;
      }
    }
    const auto staging_map = owner_map_from_claims(p, *map_dist,
                                                   staging_claims);
    const auto staging = Distribution::irregular_from_map(
        p, staging_map, *map_dist, page_size);
    const auto target_map = owner_map_from_claims(p, *map_dist,
                                                  target_claims);
    const auto target = Distribution::irregular_from_map(
        p, target_map, *map_dist, page_size);
    const RemapPlan plan = dist::build_remap(p, *staging, *target);

    // My held values in STAGING order: staging globals are the ascending
    // merge of my own snapshot's globals (already ascending) with the dead
    // rank's (holder only). src_of[l] indexes the concatenated own+dead
    // value arrays.
    const auto staging_globals = staging->my_globals();
    const i64 nown = static_cast<i64>(ref.globals.size());
    const i64 ndead =
        holder ? static_cast<i64>(dead_ref->globals.size()) : 0;
    CHAOS_CHECK(static_cast<i64>(staging_globals.size()) == nown + ndead,
                "restore_shrunk: staging distribution lost elements");
    std::vector<i64> src_of(staging_globals.size());
    {
      i64 i = 0;
      i64 k = 0;
      for (std::size_t l = 0; l < staging_globals.size(); ++l) {
        const bool take_own =
            i < nown && (k >= ndead ||
                         ref.globals[static_cast<std::size_t>(i)] <
                             dead_ref->globals[static_cast<std::size_t>(k)]);
        const i64 g = take_own
                          ? ref.globals[static_cast<std::size_t>(i)]
                          : dead_ref->globals[static_cast<std::size_t>(k)];
        CHAOS_CHECK(g == staging_globals[l],
                    "restore_shrunk: staging order does not match held "
                    "snapshots");
        src_of[l] = take_own ? i++ : nown + k++;
      }
    }

    for (const std::size_t j : group) {
      const SegmentSnapshot& own = mine.segments[j];
      const SegmentSnapshot* dead_seg =
          holder ? &dead_ck->segments[j] : nullptr;
      CHAOS_CHECK(own.global_size == n &&
                      static_cast<i64>(own.globals.size()) == nown,
                  "restore_shrunk: aligned arrays disagree on extent");
      const i64 es = own.elem_size;
      std::vector<std::byte> staged_bytes(
          static_cast<std::size_t>((nown + ndead) * es));
      for (std::size_t l = 0; l < src_of.size(); ++l) {
        const i64 s = src_of[l];
        const std::byte* from =
            s < nown ? own.values.data() + s * es
                     : dead_seg->values.data() + (s - nown) * es;
        std::memcpy(staged_bytes.data() + static_cast<i64>(l) * es, from,
                    static_cast<std::size_t>(es));
      }
      RestoredSegment& r = out[j];
      r.array_id = own.array_id;
      r.old_incarnation = own.incarnation;
      r.nmod = own.nmod;
      r.elem_size = es;
      r.dist = target;
      r.values = remap_bytes(p, plan, staged_bytes, es);
      adopted_bytes += static_cast<i64>(r.values.size());
    }
  }
  p.stats().note_restore(static_cast<i64>(nseg), adopted_bytes);
  return out;
}

}  // namespace chaos::core

#include "partition/metrics.hpp"

#include <algorithm>

#include "rt/collectives.hpp"

namespace chaos::part {

PartitionQuality evaluate_partition(rt::Process& p, const GeoColView& g,
                                    std::span<const i64> parts, int nparts) {
  CHAOS_CHECK(g.has_connectivity(),
              "evaluate_partition requires LINK connectivity");
  CHAOS_CHECK(static_cast<i64>(parts.size()) == g.nlocal(),
              "evaluate_partition: parts not aligned with vertices");
  CHAOS_CHECK(nparts >= 1, "evaluate_partition: nparts must be positive");

  const auto my_globals = g.vdist->my_globals();

  // Learn the part of every remote neighbor: query the owner of each
  // distinct neighbor id under the vertex distribution.
  std::vector<i64> neighbor_ids(g.adjncy.begin(), g.adjncy.end());
  std::sort(neighbor_ids.begin(), neighbor_ids.end());
  neighbor_ids.erase(std::unique(neighbor_ids.begin(), neighbor_ids.end()),
                     neighbor_ids.end());
  const auto entries = g.vdist->locate(p, neighbor_ids);

  // Ask each owner for its vertices' parts; slot_of[k] is neighbor k's
  // place in the request, and so in the reply.
  std::vector<i64> asked(neighbor_ids.size()), asked_offsets;
  std::vector<std::size_t> slot_of(neighbor_ids.size());
  rt::group_by_dest(
      p.nprocs(), neighbor_ids.size(),
      [&](std::size_t k) { return entries[k].proc; }, asked_offsets,
      [&](std::size_t k, std::size_t slot) {
        asked[slot] = entries[k].local;
        slot_of[k] = slot;
      });
  std::vector<i64> to_answer, to_answer_offsets;
  rt::alltoallv<i64>(p, asked, asked_offsets, to_answer, to_answer_offsets);
  // Answer in place: each query becomes its vertex's part, and the replies
  // go back under the prefix the queries arrived with.
  for (i64& l : to_answer) {
    CHAOS_CHECK(l >= 0 && l < g.nlocal(), "evaluate_partition: bad query");
    l = parts[static_cast<std::size_t>(l)];
  }
  std::vector<i64> got, got_offsets;
  rt::alltoallv<i64>(p, to_answer, to_answer_offsets, got, got_offsets);

  auto lookup_part = [&](i64 global) {
    const auto it = std::lower_bound(neighbor_ids.begin(), neighbor_ids.end(),
                                     global);
    CHAOS_CHECK(it != neighbor_ids.end() && *it == global,
                "evaluate_partition: neighbor lookup miss");
    return got[slot_of[static_cast<std::size_t>(it - neighbor_ids.begin())]];
  };

  PartitionQuality q;
  std::vector<f64> part_weight(static_cast<std::size_t>(nparts), 0.0);
  for (i64 l = 0; l < g.nlocal(); ++l) {
    const i64 mypart = parts[static_cast<std::size_t>(l)];
    CHAOS_CHECK(mypart >= 0 && mypart < nparts,
                "evaluate_partition: part id out of range");
    part_weight[static_cast<std::size_t>(mypart)] += g.weight_of(l);
    const i64 u = my_globals[static_cast<std::size_t>(l)];
    bool on_boundary = false;
    for (i64 k = g.xadj[static_cast<std::size_t>(l)];
         k < g.xadj[static_cast<std::size_t>(l) + 1]; ++k) {
      const i64 v = g.adjncy[static_cast<std::size_t>(k)];
      const i64 vpart = lookup_part(v);
      if (vpart != mypart) on_boundary = true;
      if (u < v) {  // count each undirected edge once
        ++q.total_edges;
        if (vpart != mypart) ++q.edge_cut;
      }
    }
    if (on_boundary) ++q.boundary_vertices;
  }

  q.edge_cut = rt::allreduce_sum(p, q.edge_cut);
  q.total_edges = rt::allreduce_sum(p, q.total_edges);
  q.boundary_vertices = rt::allreduce_sum(p, q.boundary_vertices);
  part_weight = rt::allreduce_vec(p, part_weight, std::plus<>{});

  f64 total_weight = 0.0;
  for (f64 w : part_weight) {
    total_weight += w;
    q.max_part_weight = std::max(q.max_part_weight, w);
    if (w > 0.0) ++q.nonempty_parts;
  }
  const f64 avg = total_weight / static_cast<f64>(nparts);
  q.imbalance = avg > 0.0 ? q.max_part_weight / avg : 0.0;
  return q;
}

}  // namespace chaos::part

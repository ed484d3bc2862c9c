#include "dist/distribution.hpp"

#include <algorithm>
#include <limits>

#include "rt/collectives.hpp"

namespace chaos::dist {

std::shared_ptr<const Distribution> Distribution::block(rt::Process& p,
                                                        i64 n) {
  CHAOS_CHECK(n >= 0, "BLOCK: negative extent");
  auto d = std::shared_ptr<Distribution>(new Distribution());
  const i64 bs = n == 0 ? 1 : (n + p.nprocs() - 1) / p.nprocs();
  d->dad_ = Dad{DistKind::Block, n, p.nprocs(), bs, rt::collective_counter(p)};
  d->my_rank_ = p.rank();
  return d;
}

std::shared_ptr<const Distribution> Distribution::cyclic(rt::Process& p,
                                                         i64 n) {
  CHAOS_CHECK(n >= 0, "CYCLIC: negative extent");
  auto d = std::shared_ptr<Distribution>(new Distribution());
  d->dad_ = Dad{DistKind::Cyclic, n, p.nprocs(), 1, rt::collective_counter(p)};
  d->my_rank_ = p.rank();
  return d;
}

std::shared_ptr<const Distribution> Distribution::block_cyclic(
    rt::Process& p, i64 n, i64 block_size) {
  CHAOS_CHECK(n >= 0, "BLOCK_CYCLIC: negative extent");
  CHAOS_CHECK(block_size >= 1, "BLOCK_CYCLIC: block size must be >= 1");
  auto d = std::shared_ptr<Distribution>(new Distribution());
  d->dad_ = Dad{DistKind::BlockCyclic, n, p.nprocs(), block_size,
                rt::collective_counter(p)};
  d->my_rank_ = p.rank();
  return d;
}

std::shared_ptr<const Distribution> Distribution::irregular_from_map(
    rt::Process& p, std::span<const i64> map_slice,
    const Distribution& map_dist, i64 page_size, bool replicated) {
  CHAOS_CHECK(static_cast<i64>(map_slice.size()) == map_dist.my_local_size(),
              "irregular_from_map: map slice not aligned with the map "
              "distribution");
  const i64 n = map_dist.size();

  auto d = std::shared_ptr<Distribution>(new Distribution());
  d->my_rank_ = p.rank();
  {
    // Route each global to its assigned owner in one exchange.
    std::vector<i64> outgoing(map_slice.size()), send_offsets;
    rt::group_by_dest(
        p.nprocs(), map_slice.size(),
        [&](std::size_t l) {
          const i64 owner = map_slice[l];
          CHAOS_CHECK(owner >= 0 && owner < p.nprocs(),
                      "irregular_from_map: map names process " +
                          std::to_string(owner) + " outside the machine");
          return owner;
        },
        send_offsets,
        [&](std::size_t l, std::size_t slot) {
          outgoing[slot] = map_dist.my_global_of(static_cast<i64>(l));
        });
    std::vector<i64> incoming, block_offsets;  // one block per source rank
    rt::alltoallv<i64>(p, outgoing, send_offsets, incoming, block_offsets);

    // Every block arrives ascending (a distribution's local order is), and
    // the blocks are disjoint, so a P-way merge lays out my globals in
    // order. It copies runs: the block with the smallest head gives up
    // everything below the next-smallest head, so blocks that cover
    // disjoint ranges (a BLOCK map's) each go in one copy. The blocks are
    // freed before the translation table is built.
    d->my_globals_.reserve(incoming.size());
    struct Head {
      i64 g;            ///< the block's smallest unmerged global
      std::size_t at;   ///< position of g in incoming
      std::size_t end;  ///< end of g's block in incoming
    };
    const auto later = [](const Head& a, const Head& b) { return a.g > b.g; };
    std::vector<Head> heads;  // min-heap on g
    for (std::size_t s = 0; s + 1 < block_offsets.size(); ++s) {
      const auto at = static_cast<std::size_t>(block_offsets[s]);
      const auto end = static_cast<std::size_t>(block_offsets[s + 1]);
      if (at < end) heads.push_back(Head{incoming[at], at, end});
    }
    std::make_heap(heads.begin(), heads.end(), later);
    while (!heads.empty()) {
      std::pop_heap(heads.begin(), heads.end(), later);
      const Head h = heads.back();
      heads.pop_back();
      const i64 limit =
          heads.empty() ? std::numeric_limits<i64>::max() : heads.front().g;
      std::size_t run = h.at + 1;
      while (run < h.end && incoming[run] < limit) ++run;
      d->my_globals_.insert(d->my_globals_.end(), incoming.begin() + h.at,
                            incoming.begin() + run);
      if (run < h.end) {
        heads.push_back(Head{incoming[run], run, h.end});
        std::push_heap(heads.begin(), heads.end(), later);
      }
    }
  }
  p.clock().charge_ops(static_cast<i64>(d->my_globals_.size()),
                       p.params().mem_us_per_word);

  d->local_sizes_ = rt::allgather(p, static_cast<i64>(d->my_globals_.size()));
  d->table_ =
      TranslationTable::build(p, n, d->my_globals_, page_size, replicated);
  d->dad_ = Dad{DistKind::Irregular, n, p.nprocs(), page_size,
                rt::collective_counter(p)};
  return d;
}

i64 Distribution::local_size(int rank) const {
  CHAOS_CHECK(rank >= 0 && rank < dad_.nprocs, "local_size: bad rank");
  const i64 n = dad_.size;
  const i64 P = dad_.nprocs;
  const i64 r = rank;
  switch (dad_.kind) {
    case DistKind::Block: {
      const i64 bs = dad_.param;
      return std::clamp<i64>(n - r * bs, 0, bs);
    }
    case DistKind::Cyclic:
      return r < n ? (n - r + P - 1) / P : 0;
    case DistKind::BlockCyclic: {
      const i64 b = dad_.param;
      const i64 nb = (n + b - 1) / b;  // total bricks (last may be partial)
      if (r >= nb) return 0;
      const i64 bricks = (nb - 1 - r) / P + 1;
      const i64 last_brick = nb - 1;
      if (last_brick % P == r) {
        return (bricks - 1) * b + (n - last_brick * b);
      }
      return bricks * b;
    }
    case DistKind::Irregular:
      return local_sizes_[static_cast<std::size_t>(rank)];
  }
  return 0;
}

std::vector<i64> Distribution::my_globals() const {
  if (dad_.kind == DistKind::Irregular) return my_globals_;
  std::vector<i64> out(static_cast<std::size_t>(my_local_size()));
  for (std::size_t l = 0; l < out.size(); ++l) {
    out[l] = global_of(my_rank_, static_cast<i64>(l));
  }
  return out;
}

i64 Distribution::global_of(int rank, i64 l) const {
  const i64 P = dad_.nprocs;
  switch (dad_.kind) {
    case DistKind::Block: return rank * dad_.param + l;
    case DistKind::Cyclic: return l * P + rank;
    case DistKind::BlockCyclic: {
      const i64 b = dad_.param;
      const i64 brick = (l / b) * P + rank;
      return brick * b + l % b;
    }
    case DistKind::Irregular:
      CHAOS_CHECK(rank == my_rank_,
                  "global_of: irregular ownership is materialized only for "
                  "this process");
      return my_globals_[static_cast<std::size_t>(l)];
  }
  return -1;
}

i64 Distribution::owner_of(i64 g) const {
  CHAOS_CHECK(g >= 0 && g < dad_.size, "owner_of: index out of range");
  switch (dad_.kind) {
    case DistKind::Block: return g / dad_.param;
    case DistKind::Cyclic: return g % dad_.nprocs;
    case DistKind::BlockCyclic: return (g / dad_.param) % dad_.nprocs;
    case DistKind::Irregular: break;
  }
  throw ChaosError(
      "owner_of: no closed form for IRREGULAR distributions — use locate()");
}

i64 Distribution::local_index_of(i64 g) const {
  CHAOS_CHECK(g >= 0 && g < dad_.size, "local_index_of: index out of range");
  switch (dad_.kind) {
    case DistKind::Block: return g % dad_.param;
    case DistKind::Cyclic: return g / dad_.nprocs;
    case DistKind::BlockCyclic: {
      const i64 b = dad_.param;
      return (g / b / dad_.nprocs) * b + g % b;
    }
    case DistKind::Irregular: break;
  }
  throw ChaosError(
      "local_index_of: no closed form for IRREGULAR distributions — use "
      "locate()");
}

void Distribution::locate_into(rt::Process& p, std::span<const i64> queries,
                               std::vector<Entry>& out,
                               i64 extra_charged_queries) const {
  if (dad_.kind == DistKind::Irregular) {
    table_->dereference(p, queries, out, extra_charged_queries);
    return;
  }
  out.resize(queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const i64 g = queries[i];
    out[i] = Entry{static_cast<i32>(owner_of(g)), local_index_of(g)};
  }
  p.clock().charge_ops(static_cast<i64>(queries.size()) +
                           extra_charged_queries,
                       p.params().mem_us_per_word);
}

std::vector<Entry> Distribution::locate(rt::Process& p,
                                        std::span<const i64> queries) const {
  std::vector<Entry> out;
  locate_into(p, queries, out);
  return out;
}

}  // namespace chaos::dist

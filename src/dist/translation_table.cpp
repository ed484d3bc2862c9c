#include "dist/translation_table.hpp"

#include <algorithm>

#include "dist/dedup_table.hpp"
#include "rt/collectives.hpp"

namespace chaos::dist {

namespace {

/// One ownership claim routed to a page home during build.
struct Claim {
  i64 g;      ///< global index
  i64 local;  ///< local offset at the owner
};

/// Everything one paged dereference stages. Every buffer grows
/// monotonically and the dedup table resets by bumping its epoch, so a warm
/// repeat call performs zero heap allocations.
struct DerefScratch {
  std::vector<i64> counts;        ///< 2P: my per-home counts + peer counts
  std::vector<u32> pos;           ///< per query: distinct ordinal, or kAnswered
  std::vector<i64> distinct;      ///< distinct remote globals, first seen first
  /// Per distinct remote global: its home rank, then (once the request CSR
  /// is laid out) its position there.
  std::vector<u32> where;
  std::vector<i64> send_offsets;  ///< P+1: request CSR prefix (distinct)
  std::vector<i64> recv_offsets;  ///< P+1: incoming-query CSR prefix
  std::vector<i64> req;           ///< distinct request globals, per home
  std::vector<i64> peer_req;      ///< globals peers ask this process
  std::vector<Entry> reply;       ///< answers shipped back to peers
  std::vector<Entry> answers;     ///< answers received, aligned with req
  DedupTable dedup;               ///< remote global -> distinct ordinal
};

/// pos[] of a query answered from this process's own pages.
constexpr u32 kAnswered = ~u32{0};

/// Throws unless query @p q indexes a table of @p n globals.
void check_query(i64 q, i64 n) {
  CHAOS_CHECK(q >= 0 && q < n, "translation table: dereferenced index " +
                                   std::to_string(q) + " outside [0, " +
                                   std::to_string(n) + ")");
}

/// One scratch per thread. A dereference is a leaf collective that never
/// re-enters, and a rank runs on one thread, so no two calls ever share it.
thread_local DerefScratch t_scratch;

}  // namespace

std::shared_ptr<const TranslationTable> TranslationTable::build(
    rt::Process& p, i64 n, std::span<const i64> mine, i64 page_size,
    bool replicated) {
  CHAOS_CHECK(n >= 0, "translation table: negative global size");
  CHAOS_CHECK(n < (i64{1} << 32),
              "translation table: " + std::to_string(n) +
                  " globals exceed the 2^32 its page arithmetic reaches");
  CHAOS_CHECK(page_size >= 1, "translation table: page size must be >= 1");
  auto tt = std::shared_ptr<TranslationTable>(new TranslationTable());
  tt->n_ = n;
  tt->page_size_ = page_size;
  tt->page_div_ = detail::Reciprocal(
      static_cast<u64>(std::min(page_size, std::max<i64>(n, 1))));
  tt->proc_div_ = detail::Reciprocal(static_cast<u64>(p.nprocs()));
  tt->replicated_ = replicated;
  tt->nprocs_ = p.nprocs();
  tt->my_rank_ = p.rank();

  for (i64 g : mine) {
    CHAOS_CHECK(g >= 0 && g < n,
                "translation table: claimed global index out of range");
  }
  tt->local_counts_ = rt::allgather(p, static_cast<i64>(mine.size()));
  i64 total = 0;
  for (i64 c : tt->local_counts_) total += c;
  CHAOS_CHECK(total == n,
              "translation table: claims do not cover the index space "
              "exactly (claimed " +
                  std::to_string(total) + " of " + std::to_string(n) + ")");

  if (replicated) {
    // Everyone ships (global, local) to everyone; block offsets identify the
    // owning rank, so no owner field travels.
    std::vector<Claim> claims;
    claims.reserve(mine.size());
    for (std::size_t l = 0; l < mine.size(); ++l) {
      claims.push_back(Claim{mine[l], static_cast<i64>(l)});
    }
    std::vector<i64> offsets;
    const auto all = rt::allgatherv<Claim>(p, claims, &offsets);
    tt->proc_.assign(static_cast<std::size_t>(n), -1);
    tt->local_.assign(static_cast<std::size_t>(n), -1);
    for (int r = 0; r < p.nprocs(); ++r) {
      for (i64 k = offsets[static_cast<std::size_t>(r)];
           k < offsets[static_cast<std::size_t>(r) + 1]; ++k) {
        const auto& c = all[static_cast<std::size_t>(k)];
        auto slot = static_cast<std::size_t>(c.g);
        CHAOS_CHECK(tt->proc_[slot] == -1,
                    "translation table: global " + std::to_string(c.g) +
                        " claimed by more than one process");
        tt->proc_[slot] = r;
        tt->local_[slot] = c.local;
      }
    }
    for (i64 g = 0; g < n; ++g) {
      CHAOS_CHECK(tt->proc_[static_cast<std::size_t>(g)] != -1,
                  "translation table: global " + std::to_string(g) +
                      " claimed by no process");
    }
    p.clock().charge_ops(n, p.params().mem_us_per_word);
    return tt;
  }

  // Paged: route each claim to its page home in one exchange, then fill and
  // validate the pages this process hosts.
  const i64 npages = n == 0 ? 0 : (n + page_size - 1) / page_size;
  const i64 my_pages =
      npages > p.rank() ? (npages - 1 - p.rank()) / p.nprocs() + 1 : 0;
  tt->proc_.assign(static_cast<std::size_t>(my_pages * page_size), -1);
  tt->local_.assign(static_cast<std::size_t>(my_pages * page_size), -1);

  std::vector<Claim> outgoing(mine.size());
  std::vector<i64> send_offsets;
  rt::group_by_dest(
      p.nprocs(), mine.size(),
      [&](std::size_t l) { return tt->place_of(mine[l]).home; },
      send_offsets,
      [&](std::size_t l, std::size_t slot) {
        outgoing[slot] = Claim{mine[l], static_cast<i64>(l)};
      });
  std::vector<Claim> incoming;
  std::vector<i64> incoming_offsets;
  rt::alltoallv<Claim>(p, outgoing, send_offsets, incoming, incoming_offsets);
  for (int s = 0; s < p.nprocs(); ++s) {
    for (i64 k = incoming_offsets[static_cast<std::size_t>(s)];
         k < incoming_offsets[static_cast<std::size_t>(s) + 1]; ++k) {
      const Claim& c = incoming[static_cast<std::size_t>(k)];
      const std::size_t slot = tt->place_of(c.g).slot;
      CHAOS_CHECK(tt->proc_[slot] == -1,
                  "translation table: global " + std::to_string(c.g) +
                      " claimed by more than one process");
      tt->proc_[slot] = s;
      tt->local_[slot] = c.local;
    }
  }
  // Coverage: every slot of every hosted page that maps to a real global
  // must have been claimed (padding slots past n stay -1 and are never hit).
  for (i64 k = 0; k < my_pages; ++k) {
    const i64 pid = p.rank() + k * p.nprocs();
    const i64 lo = pid * page_size;
    const i64 hi = std::min(n, lo + page_size);
    for (i64 g = lo; g < hi; ++g) {
      CHAOS_CHECK(tt->proc_[static_cast<std::size_t>(k * page_size +
                                                     (g - lo))] != -1,
                  "translation table: global " + std::to_string(g) +
                      " claimed by no process");
    }
  }
  p.clock().charge_ops(static_cast<i64>(mine.size()) + my_pages * page_size,
                       p.params().mem_us_per_word);
  return tt;
}

void TranslationTable::dereference(rt::Process& p,
                                   std::span<const i64> queries,
                                   std::vector<Entry>& out,
                                   i64 extra_charged_queries) const {
  ++stats_.calls;
  stats_.queries += static_cast<i64>(queries.size());
  ++p.stats().ttable_flat_calls;
  out.resize(queries.size());

  if (replicated_) {
    // Local-only answer path: zero exchange rounds by construction.
    for (std::size_t i = 0; i < queries.size(); ++i) {
      const i64 q = queries[i];
      check_query(q, n_);
      out[i] = Entry{proc_[static_cast<std::size_t>(q)],
                     local_[static_cast<std::size_t>(q)]};
    }
    p.clock().charge_ops(static_cast<i64>(queries.size()) +
                             extra_charged_queries,
                         p.params().mem_us_per_word);
    return;
  }

  DerefScratch& s = t_scratch;
  const auto np = static_cast<std::size_t>(nprocs_);
  s.counts.resize(2 * np);
  const std::span<i64> my_counts(s.counts.data(), np);
  std::fill(my_counts.begin(), my_counts.end(), 0);

  // One pass validates and routes every query, answers the self-homed ones
  // from my pages, and gives every distinct remote global its ordinal
  // (first-occurrence order); repeats read it back from the dedup table. A
  // run of strictly ascending remote queries cannot repeat a global, so the
  // table opens only at the first descent, seeded with the distinct globals
  // seen so far: build_remap's my_globals() never opens it, and on
  // workloads where that is the only locate with remote queries the table
  // would cost every rank thread memory for nothing.
  s.pos.resize(queries.size());
  s.distinct.clear();
  s.where.clear();
  bool ascending = true;
  i64 prev = -1;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const i64 q = queries[i];
    check_query(q, n_);
    const Place at = place_of(q);
    if (at.home == my_rank_) {
      out[i] = Entry{proc_[at.slot], local_[at.slot]};
      s.pos[i] = kAnswered;
      continue;
    }
    u32 id = static_cast<u32>(s.distinct.size());  // a new global's ordinal
    bool fresh = true;
    if (ascending && q <= prev) {
      ascending = false;
      s.dedup.begin(std::min(static_cast<i64>(queries.size()), n_), n_);
      for (std::size_t d = 0; d < s.distinct.size(); ++d) {
        s.dedup.find_or_insert(s.distinct[d]).first = static_cast<u32>(d);
      }
    }
    if (!ascending) {
      auto [slot_id, slot_fresh] = s.dedup.find_or_insert(q);
      if (slot_fresh) {
        slot_id = id;
      } else {
        id = slot_id;
        fresh = false;
      }
    }
    prev = q;
    if (fresh) {
      s.distinct.push_back(q);
      s.where.push_back(static_cast<u32>(at.home));
      ++my_counts[static_cast<std::size_t>(at.home)];
    }
    s.pos[i] = id;
  }

  // Lay the distinct remote globals out as one request CSR, each home's
  // segment in first-occurrence order; where[] turns from home rank into
  // the global's position there.
  s.send_offsets.resize(np + 1);
  s.send_offsets[0] = 0;
  for (std::size_t r = 0; r < np; ++r) {
    s.send_offsets[r + 1] = s.send_offsets[r] + my_counts[r];
    my_counts[r] = s.send_offsets[r];  // now the fill cursor of home r
  }
  const i64 wire = s.send_offsets[np];
  s.req.resize(static_cast<std::size_t>(wire));
  for (std::size_t d = 0; d < s.distinct.size(); ++d) {
    const auto at = static_cast<u32>(my_counts[s.where[d]]++);
    s.req[at] = s.distinct[d];
    s.where[d] = at;
  }
  stats_.wire_queries += wire;
  p.stats().ttable_flat_wire_queries += wire;

  // Rounds 1+2: the shared CSR exchange (counts alltoall fixes the
  // incoming-query prefix, one flat alltoallv moves the request globals) —
  // the same rt::exchange_csr the inspector's ghost requests and geocol's
  // half-edges drive. It rederives the counts from send_offsets into
  // s.counts, so the staging half above is free to be clobbered here.
  rt::exchange_csr<i64>(p, s.req, s.send_offsets, s.peer_req, s.recv_offsets,
                        s.counts);
  const i64 incoming = s.recv_offsets[np];

  // Answer from my pages; round 3 ships the entries back with the prefixes
  // swapped (my recv prefix is the peers' send prefix and vice versa).
  s.reply.resize(static_cast<std::size_t>(incoming));
  for (std::size_t k = 0; k < s.peer_req.size(); ++k) {
    const std::size_t slot = place_of(s.peer_req[k]).slot;
    s.reply[k] = Entry{proc_[slot], local_[slot]};
  }
  s.answers.resize(static_cast<std::size_t>(wire));
  rt::alltoallv_flat<Entry>(p, s.reply, s.recv_offsets, s.answers,
                            s.send_offsets);
  stats_.collectives += 3;

  // Resolve: answers are index-aligned with the request CSR.
  for (std::size_t i = 0; i < queries.size(); ++i) {
    if (s.pos[i] != kAnswered) out[i] = s.answers[s.where[s.pos[i]]];
  }

  // Modeled charge: one table touch per query (plus the compensated extras)
  // and two wire words per distinct remote target; the collective costs
  // above came from the 3 rounds actually performed.
  p.clock().charge_ops(static_cast<i64>(queries.size()) +
                           extra_charged_queries + 2 * wire,
                       p.params().mem_us_per_word);
}

}  // namespace chaos::dist

#include "dist/translation_table.hpp"

#include <algorithm>

#include "dist/dereference_workspace.hpp"
#include "rt/collectives.hpp"

namespace chaos::dist {

namespace {

/// One ownership claim routed to a page home during build.
struct Claim {
  i64 g;      ///< global index
  i64 local;  ///< local offset at the owner
};

}  // namespace

std::shared_ptr<const TranslationTable> TranslationTable::build(
    rt::Process& p, i64 n, std::span<const i64> mine, i64 page_size,
    bool replicated) {
  CHAOS_CHECK(n >= 0, "translation table: negative global size");
  CHAOS_CHECK(page_size >= 1, "translation table: page size must be >= 1");
  auto tt = std::shared_ptr<TranslationTable>(new TranslationTable());
  tt->n_ = n;
  tt->page_size_ = page_size;
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

  std::vector<std::vector<Claim>> outgoing(
      static_cast<std::size_t>(p.nprocs()));
  for (std::size_t l = 0; l < mine.size(); ++l) {
    outgoing[static_cast<std::size_t>(tt->home_of(mine[l]))].push_back(
        Claim{mine[l], static_cast<i64>(l)});
  }
  const auto incoming = rt::alltoallv(p, outgoing);
  for (int s = 0; s < p.nprocs(); ++s) {
    for (const auto& c : incoming[static_cast<std::size_t>(s)]) {
      const std::size_t slot = tt->my_slot(c.g);
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
                                   DereferenceWorkspace& ws,
                                   i64 extra_charged_queries) const {
  ++stats_.calls;
  stats_.queries += static_cast<i64>(queries.size());
  ++p.stats().ttable_flat_calls;
  out.resize(queries.size());

  for (i64 q : queries) {
    CHAOS_CHECK(q >= 0 && q < n_,
                "translation table: dereferenced index " + std::to_string(q) +
                    " outside [0, " + std::to_string(n_) + ")");
  }

  if (replicated_) {
    // Local-only answer path: zero exchange rounds by construction.
    for (std::size_t i = 0; i < queries.size(); ++i) {
      const auto g = static_cast<std::size_t>(queries[i]);
      out[i] = Entry{proc_[g], local_[g]};
    }
    p.clock().charge_ops(static_cast<i64>(queries.size()) +
                             extra_charged_queries,
                         p.params().mem_us_per_word);
    return;
  }

  const auto np = static_cast<std::size_t>(nprocs_);
  ws.counts_.resize(2 * np);
  const std::span<i64> my_counts(ws.counts_.data(), np);
  std::fill(my_counts.begin(), my_counts.end(), 0);

  // Pass 1: answer self-homed queries immediately, count the rest per home.
  ws.home_.resize(queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const i64 q = queries[i];
    const int home = home_of(q);
    if (home == my_rank_) {
      const std::size_t slot = my_slot(q);
      out[i] = Entry{proc_[slot], local_[slot]};
      ws.home_[i] = -1;
    } else {
      ws.home_[i] = static_cast<i32>(home);
      ++my_counts[static_cast<std::size_t>(home)];
    }
  }

  // Pass 2: scatter the remote queries into a per-home CSR, then sort and
  // dedup each segment IN PLACE, compacting left so the request buffer stays
  // flat. my_counts is rewritten with the post-dedup segment lengths.
  ws.send_offsets_.resize(np + 1);
  ws.send_offsets_[0] = 0;
  for (std::size_t r = 0; r < np; ++r) {
    ws.send_offsets_[r + 1] = ws.send_offsets_[r] + my_counts[r];
  }
  ws.req_.resize(static_cast<std::size_t>(ws.send_offsets_[np]));
  ws.cursor_.resize(np);
  std::copy(ws.send_offsets_.begin(), ws.send_offsets_.end() - 1,
            ws.cursor_.begin());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    if (ws.home_[i] >= 0) {
      ws.req_[static_cast<std::size_t>(
          ws.cursor_[static_cast<std::size_t>(ws.home_[i])]++)] = queries[i];
    }
  }
  i64 write = 0;
  for (std::size_t r = 0; r < np; ++r) {
    const i64 lo = ws.send_offsets_[r];
    const i64 hi = ws.send_offsets_[r + 1];
    std::sort(ws.req_.begin() + lo, ws.req_.begin() + hi);
    const i64 start = write;
    for (i64 k = lo; k < hi; ++k) {
      if (k == lo || ws.req_[static_cast<std::size_t>(k)] !=
                         ws.req_[static_cast<std::size_t>(k - 1)]) {
        ws.req_[static_cast<std::size_t>(write++)] =
            ws.req_[static_cast<std::size_t>(k)];
      }
    }
    my_counts[r] = write - start;
  }
  const i64 wire = write;
  ws.send_offsets_[0] = 0;
  for (std::size_t r = 0; r < np; ++r) {
    ws.send_offsets_[r + 1] = ws.send_offsets_[r] + my_counts[r];
  }
  stats_.wire_queries += wire;
  p.stats().ttable_flat_wire_queries += wire;

  // Rounds 1+2: the shared CSR exchange (counts alltoall fixes the
  // incoming-query prefix, one flat alltoallv moves the request globals) —
  // the same rt::exchange_csr the inspector's ghost requests and geocol's
  // half-edges drive. It rederives the counts from send_offsets_ into
  // ws.counts_, so the staging halves above are free to be clobbered here.
  rt::exchange_csr<i64>(
      p, std::span<const i64>(ws.req_.data(), static_cast<std::size_t>(wire)),
      ws.send_offsets_, ws.peer_req_, ws.recv_offsets_, ws.counts_);
  const i64 incoming = ws.recv_offsets_[np];

  // Answer from my pages; round 3 ships the entries back with the prefixes
  // swapped (my recv prefix is the peers' send prefix and vice versa).
  ws.reply_.resize(static_cast<std::size_t>(incoming));
  for (std::size_t k = 0; k < ws.peer_req_.size(); ++k) {
    const std::size_t slot = my_slot(ws.peer_req_[k]);
    ws.reply_[k] = Entry{proc_[slot], local_[slot]};
  }
  ws.answers_.resize(static_cast<std::size_t>(wire));
  rt::alltoallv_flat<Entry>(
      p, ws.reply_, ws.recv_offsets_,
      std::span<Entry>(ws.answers_.data(), static_cast<std::size_t>(wire)),
      ws.send_offsets_);
  stats_.collectives += 3;

  // Resolve remote queries by binary search in their home's sorted request
  // segment — answers_ is index-aligned with req_ by construction.
  for (std::size_t i = 0; i < queries.size(); ++i) {
    if (ws.home_[i] < 0) continue;
    const auto h = static_cast<std::size_t>(ws.home_[i]);
    const auto lo = ws.req_.begin() + ws.send_offsets_[h];
    const auto hi = ws.req_.begin() + ws.send_offsets_[h + 1];
    const auto it = std::lower_bound(lo, hi, queries[i]);
    out[i] = ws.answers_[static_cast<std::size_t>(it - ws.req_.begin())];
  }

  // Modeled charge: one table touch per query (plus the compensated extras)
  // and two wire words per distinct remote target; the collective costs
  // above came from the 3 rounds actually performed.
  p.clock().charge_ops(static_cast<i64>(queries.size()) +
                           extra_charged_queries + 2 * wire,
                       p.params().mem_us_per_word);
}

}  // namespace chaos::dist

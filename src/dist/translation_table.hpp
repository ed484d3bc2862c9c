// The distributed translation table (PARTI/CHAOS): maps global index ->
// (owning process, local offset) for IRREGULAR distributions, where no
// closed form exists. Two organizations, chosen at build time:
//
//   paged      — the table is split into fixed-size pages of consecutive
//                globals; page pid lives on process pid % P. O(N/P) memory
//                per process. Page, home and slot come from reciprocals
//                fixed at build, with no hardware division. dereference()
//                batches all lookups through the flat CSR protocol: a
//                counts alltoall plus two flat alltoallv exchanges over
//                per-home deduplicated request segments.
//   replicated — every process stores the whole table. O(N) memory,
//                zero-communication dereference.
//
// The layout and the locate protocol are documented in DESIGN.md §3–4.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "rt/machine.hpp"

namespace chaos::dist {

namespace detail {
/// floor(a / d) by a multiply-high with a reciprocal fixed in advance, exact
/// for every a < 2^32 and 1 <= d < 2^32: m = floor((2^64 - 1) / d), and the
/// quotient is the high word of m * (a + 1). With m·d = 2^64 - e, 1 <= e <= d,
/// that product is 2^64 · ((a + 1) / d - ε) with 0 < ε < 1/d, which floors to
/// a / d whatever a's remainder (Lemire, Kaser and Kurz, "Faster Remainder by
/// Direct Computation", SPE 2019, round-down variant). d = 1 needs no case.
class Reciprocal {
 public:
  Reciprocal() = default;
  explicit Reciprocal(u64 d) : m_(~u64{0} / d) {}
  [[nodiscard]] u64 div(u64 a) const {
    using u128 = unsigned __int128;
    return static_cast<u64>((static_cast<u128>(m_) * (a + 1)) >> 64);
  }

 private:
  u64 m_ = 0;
};
}  // namespace detail

/// One resolved global reference: owning process and local offset there.
struct Entry {
  i32 proc = -1;
  i64 local = -1;
};

class TranslationTable {
 public:
  /// Per-process dereference accounting; the bench layer reads this to show
  /// that replicated tables answer with zero collectives while paged tables
  /// spend exactly 3 per dereference call.
  struct Stats {
    i64 calls = 0;
    i64 collectives = 0;  ///< 3 per paged call, 0 replicated
    i64 queries = 0;
    /// Distinct remote targets actually shipped on the wire (after the
    /// per-home dedup): the request-side word count. The inspector bench
    /// reads this to show the translation-cache traffic cut.
    i64 wire_queries = 0;
  };

  /// Collective. Every process contributes the globals it owns, in its local
  /// storage order (local index of mine[l] is l). Validates the claims form
  /// an exact partition of [0, n): double claims, unclaimed indices and
  /// out-of-range claims all throw ChaosError, and so does n >= 2^32, the
  /// reach of the page reciprocals. Any page size >= 1 is legal.
  [[nodiscard]] static std::shared_ptr<const TranslationTable> build(
      rt::Process& p, i64 n, std::span<const i64> mine, i64 page_size = 4096,
      bool replicated = false);

  /// Collective (paged mode runs its 3 collectives even when this process
  /// has no remote queries — peers may). out[i] resolves queries[i];
  /// duplicate and empty query lists are legal and lists may differ in
  /// length across processes. The flat CSR protocol (DESIGN.md §4) stages
  /// everything in per-thread scratch that outlives the call, so a warm
  /// repeat call performs 0 heap allocations. @p extra_charged_queries is
  /// folded into the final clock charge (see Distribution::locate_into).
  /// Out-of-range queries throw before any collective.
  void dereference(rt::Process& p, std::span<const i64> queries,
                   std::vector<Entry>& out,
                   i64 extra_charged_queries = 0) const;

  [[nodiscard]] i64 size() const { return n_; }
  [[nodiscard]] i64 page_size() const { return page_size_; }
  [[nodiscard]] bool replicated() const { return replicated_; }
  [[nodiscard]] i64 local_count(int rank) const {
    return local_counts_[static_cast<std::size_t>(rank)];
  }
  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  TranslationTable() = default;

  /// Where global @p g (in [0, n)) lives: page g / page_size is homed on
  /// rank page % P, as the page-th / P of that rank's pages, so @p slot is
  /// its flat index in the home's page storage.
  struct Place {
    int home;
    std::size_t slot;
  };
  [[nodiscard]] Place place_of(i64 g) const {
    const u64 page = page_div_.div(static_cast<u64>(g));
    const u64 round = proc_div_.div(page);
    const auto ps = static_cast<u64>(page_size_);
    return Place{static_cast<int>(page - round * static_cast<u64>(nprocs_)),
                 static_cast<std::size_t>(round * ps + (static_cast<u64>(g) -
                                                        page * ps))};
  }

  i64 n_ = 0;
  i64 page_size_ = 4096;
  /// Reciprocals of the page size (capped at max(n, 1), which leaves every
  /// quotient of a g < n unchanged and keeps the divisor below 2^32) and P.
  detail::Reciprocal page_div_;
  detail::Reciprocal proc_div_;
  bool replicated_ = false;
  int nprocs_ = 0;
  int my_rank_ = 0;
  std::vector<i64> local_counts_;  ///< owned-element count per rank

  /// Entry storage. Replicated: indexed directly by global. Paged: my pages
  /// concatenated in page order, each padded to page_size_ (my_slot()).
  std::vector<i32> proc_;
  std::vector<i64> local_;

  mutable Stats stats_;
};

}  // namespace chaos::dist

// The distributed translation table (PARTI/CHAOS): maps global index ->
// (owning process, local offset) for IRREGULAR distributions, where no
// closed form exists. Two organizations, chosen at build time:
//
//   paged      — the table is split into fixed-size pages of consecutive
//                globals; page pid lives on process pid % P. O(N/P) memory
//                per process. dereference() batches all lookups through the
//                flat CSR protocol: a counts alltoall plus two flat
//                alltoallv exchanges over per-home deduplicated request
//                segments.
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
  /// out-of-range claims all throw ChaosError.
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

  [[nodiscard]] i64 page_of(i64 g) const { return g / page_size_; }
  [[nodiscard]] int home_of(i64 g) const {
    return static_cast<int>(page_of(g) % nprocs_);
  }
  /// Flat slot of global @p g inside this process's page storage (the
  /// caller guarantees home_of(g) == my rank).
  [[nodiscard]] std::size_t my_slot(i64 g) const {
    const i64 pid = page_of(g);
    return static_cast<std::size_t>((pid / nprocs_) * page_size_ +
                                    (g - pid * page_size_));
  }

  i64 n_ = 0;
  i64 page_size_ = 4096;
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

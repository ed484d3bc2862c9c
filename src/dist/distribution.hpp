// Distributions of a 1-D global index space over the machine's processes.
// The three regular kinds (HPF conventions) are pure closed forms: owner_of /
// local_index_of / global_of are O(1) arithmetic and locate() never
// communicates. IRREGULAR distributions carry an explicit translation table
// (paged or replicated, see dist/translation_table.hpp); their locate() is
// one batched collective dereference.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "dist/dad.hpp"
#include "dist/translation_table.hpp"
#include "rt/machine.hpp"

namespace chaos::dist {

class Distribution {
 public:
  /// BLOCK: contiguous chunks of ceil(n/P), process r owns
  /// [r*bs, min(n, (r+1)*bs)).
  [[nodiscard]] static std::shared_ptr<const Distribution> block(
      rt::Process& p, i64 n);

  /// CYCLIC: process r owns globals g with g % P == r, local index g / P.
  [[nodiscard]] static std::shared_ptr<const Distribution> cyclic(
      rt::Process& p, i64 n);

  /// BLOCK_CYCLIC(b): bricks of b consecutive globals dealt round-robin.
  [[nodiscard]] static std::shared_ptr<const Distribution> block_cyclic(
      rt::Process& p, i64 n, i64 block_size);

  /// IRREGULAR from the paper's map array: map_slice[l] names the process
  /// that shall own global map_dist.global_of(rank, l). Collective. Each
  /// owner stores its globals in ascending order; ownership is recorded in a
  /// translation table (paged unless @p replicated).
  [[nodiscard]] static std::shared_ptr<const Distribution> irregular_from_map(
      rt::Process& p, std::span<const i64> map_slice,
      const Distribution& map_dist, i64 page_size = 4096,
      bool replicated = false);

  [[nodiscard]] DistKind kind() const { return dad_.kind; }
  [[nodiscard]] i64 size() const { return dad_.size; }
  [[nodiscard]] const Dad& dad() const { return dad_; }
  [[nodiscard]] int nprocs() const { return dad_.nprocs; }

  /// Number of elements process @p rank owns. O(1) for every kind.
  [[nodiscard]] i64 local_size(int rank) const;
  [[nodiscard]] i64 my_local_size() const { return local_size(my_rank_); }

  /// This process's owned globals, in local-index order (ascending for
  /// IRREGULAR by construction; regular kinds follow their closed form).
  [[nodiscard]] std::vector<i64> my_globals() const;

  /// Global index of local element @p l on process @p rank. For IRREGULAR
  /// only this process's own slice is materialized, so rank must be mine.
  [[nodiscard]] i64 global_of(int rank, i64 l) const;
  [[nodiscard]] i64 my_global_of(i64 l) const {
    return global_of(my_rank_, l);
  }

  /// Closed-form owner / local offset; throws for IRREGULAR (use locate).
  [[nodiscard]] i64 owner_of(i64 g) const;
  [[nodiscard]] i64 local_index_of(i64 g) const;

  /// Collective. Resolves a batch of global indices to (owner, local)
  /// entries into @p out (resized in place). Regular kinds answer locally
  /// with pure arithmetic; IRREGULAR runs TranslationTable::dereference
  /// staged in @p ws (3 collectives when paged, none when replicated; 0 heap
  /// allocations on a warm repeat call). @p extra_charged_queries is model
  /// compensation folded into the SAME clock charge as the real queries (one
  /// fused charge keeps the virtual clock bit-identical to a single locate
  /// over queries + extras): the dedup-first inspector passes the collapsed
  /// duplicates here.
  void locate_into(rt::Process& p, std::span<const i64> queries,
                   std::vector<Entry>& out, DereferenceWorkspace& ws,
                   i64 extra_charged_queries = 0) const;

  /// Value-returning locate_into through a call-local workspace, for cold
  /// one-shot callers (remap, geocol, partition metrics).
  [[nodiscard]] std::vector<Entry> locate(rt::Process& p,
                                          std::span<const i64> queries) const;

  /// The backing translation table (IRREGULAR only; nullptr otherwise).
  [[nodiscard]] const TranslationTable* table() const { return table_.get(); }

 private:
  Distribution() = default;

  Dad dad_;
  int my_rank_ = 0;
  std::vector<i64> local_sizes_;  ///< IRREGULAR: per-rank owned counts
  std::vector<i64> my_globals_;   ///< IRREGULAR: my globals, ascending
  std::shared_ptr<const TranslationTable> table_;
};

}  // namespace chaos::dist

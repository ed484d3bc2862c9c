// The inspector's "localize" step (Phase D of Figure 2), rebuilt dedup-first:
// duplicate *global* references are collapsed through a flat open-addressing
// table BEFORE the distribution locate, so the translation table only ever
// sees each distinct global once (mesh indirection arrays reference each node
// ~6.7x — that factor comes straight off the locate query volume). The
// distinct entries are then split owned/off-process and ghost slots assigned
// per-owner CANONICALLY — owners ascending, within an owner sorted by global
// index ascending — so the schedule's content is a pure function of the ghost
// SET. That canonical order is what makes incremental repair (DESIGN.md §14)
// exact: splicing a delta into an existing schedule lands bit-identical to a
// full rebuild, because surviving entries keep their sorted relative order.
//
// All scratch lives in a reusable InspectorWorkspace (the inspector-side
// sibling of ExecutorWorkspace): buffers grow monotonically, the dedup table
// resets by epoch tag, and the entry points below write into caller-owned
// results — so a re-run inspector performs zero heap allocations after
// warmup, IRREGULAR locates included (the dereference keeps its own
// per-thread scratch).
#pragma once

#include <span>
#include <vector>

#include "core/plan_options.hpp"
#include "core/schedule.hpp"
#include "dist/dedup_table.hpp"
#include "dist/distribution.hpp"
#include "dist/translation_cache.hpp"
#include "rt/collectives.hpp"
#include "rt/machine.hpp"

namespace chaos::core {

/// Result of localizing one batch of global references against one
/// distribution. refs[i] is the localized index of global_refs[i]:
/// < nlocal → owned element; >= nlocal → ghost slot (nlocal + slot).
struct Localized {
  std::vector<i64> refs;
  CommSchedule schedule;
  i64 off_process_refs = 0;  ///< before duplicate removal
};

/// Several reference batches localized against the same distribution with a
/// *shared* duplicate-removal table and one schedule (CHAOS builds one ghost
/// index space per loop per distribution, shared by every data array aligned
/// to it). One refs vector per batch.
struct LocalizedMany {
  std::vector<std::vector<i64>> refs;
  CommSchedule schedule;
  i64 off_process_refs = 0;
};

/// What incremental repair diffs against: the distinct globals and resolved
/// (owner, local) entries of one schedule's last successful localize, plus
/// the distribution identity they were translated under. Captured by copy
/// (InspectorWorkspace::capture) after every successful localize or repair;
/// plans hold one per schedule. A snapshot against a different DAD key or
/// local segment length is hard-ineligible — repair then votes fallback
/// machine-wide, so REDISTRIBUTE can never be papered over with a stale
/// splice.
struct LocalizeSnapshot {
  bool valid = false;
  u64 dad_key = 0;  ///< dist::Dad::key() of the localized distribution
  i64 nlocal = 0;   ///< my local segment length at localize time
  std::vector<i64> distinct;         ///< distinct globals (dedup order)
  std::vector<dist::Entry> entries;  ///< resolved entry per distinct global
};

class InspectorWorkspace;

namespace detail {
void localize_into(rt::Process& p, const dist::Distribution& d,
                   std::span<const std::span<const i64>> batches,
                   std::span<std::vector<i64>* const> refs_out,
                   CommSchedule& schedule, i64& off_process_refs,
                   InspectorWorkspace& ws);

bool repair_into(rt::Process& p, const dist::Distribution& d,
                 std::span<const std::span<const i64>> batches,
                 std::span<std::vector<i64>* const> refs_out,
                 CommSchedule& schedule, i64& off_process_refs,
                 InspectorWorkspace& ws, const LocalizeSnapshot& snap);

/// The canonical ghost-slot assignment shared by the full build and the
/// repair path: counts distinct off-process entries per owner into the
/// schedule's receive prefix, then assigns ghost slots per-owner sorted by
/// global ascending, filling the workspace's localized-value arena and flat
/// per-owner request list. Pure local (no communication, no clock charge).
void assign_ghost_slots(InspectorWorkspace& ws, std::size_t np, i32 my_rank,
                        i64 nlocal, CommSchedule& schedule);
}  // namespace detail

/// Reusable inspector scratch: the dedup table, the distinct-reference
/// arena, per-owner request staging, and the PlanOptions governing cache /
/// repair behavior. One workspace serves any number of sequential localize
/// calls; plans own one per loop.
class InspectorWorkspace {
 public:
  /// Installs the plan options this workspace localizes under. SPMD
  /// discipline: every rank of the machine configures identically — the
  /// cached path adds one collective vote per localize and the repair vote
  /// is machine-wide.
  /// The translation cache only engages for IRREGULAR distributions
  /// (regular locates are closed-form arithmetic and need no caching); it
  /// must be unbound or bound to the localized distribution's DAD, otherwise
  /// localize throws (stale binding after a REDISTRIBUTE is an error, never
  /// a silent stale hit). A cache therefore serves ONE distribution
  /// instance: use one workspace per localized distribution when attaching
  /// caches (as the loop plans do); a cache-free workspace can serve any
  /// mix of distributions.
  void configure(const PlanOptions& opts) { opts_ = opts; }
  [[nodiscard]] const PlanOptions& options() const { return opts_; }

  [[nodiscard]] dist::TranslationCache* cache() const {
    return opts_.translation_cache;
  }

  /// Reference counts of the most recent localize through this workspace
  /// (the bench layer checks locate volume against these).
  [[nodiscard]] i64 last_total_refs() const { return last_total_; }
  [[nodiscard]] i64 last_distinct_refs() const { return last_distinct_; }

  /// Copies the most recent successful localize/repair's distinct set,
  /// resolved entries, and distribution identity into @p snap — the state
  /// the next repair diffs against. Grow-only with headroom, so captures
  /// under a slowly drifting distinct count stay allocation-free.
  void capture(LocalizeSnapshot& snap) const {
    const auto n = static_cast<std::size_t>(last_distinct_);
    if (snap.distinct.capacity() < n) {
      snap.distinct.reserve(2 * n);
      snap.entries.reserve(2 * n);
    }
    snap.distinct.assign(distinct_.begin(),
                         distinct_.begin() + static_cast<std::ptrdiff_t>(n));
    snap.entries.assign(entries_.begin(),
                        entries_.begin() + static_cast<std::ptrdiff_t>(n));
    snap.dad_key = last_dad_key_;
    snap.nlocal = last_nlocal_;
    snap.valid = true;
  }

 private:
  friend void detail::localize_into(rt::Process&, const dist::Distribution&,
                                    std::span<const std::span<const i64>>,
                                    std::span<std::vector<i64>* const>,
                                    CommSchedule&, i64&, InspectorWorkspace&);
  friend bool detail::repair_into(rt::Process&, const dist::Distribution&,
                                  std::span<const std::span<const i64>>,
                                  std::span<std::vector<i64>* const>,
                                  CommSchedule&, i64&, InspectorWorkspace&,
                                  const LocalizeSnapshot&);
  friend void detail::assign_ghost_slots(InspectorWorkspace&, std::size_t,
                                         i32, i64, CommSchedule&);
  friend void localize_many(rt::Process&, const dist::Distribution&,
                            std::span<const std::span<const i64>>,
                            InspectorWorkspace&, LocalizedMany&);
  friend bool repair_localize_many(rt::Process&, const dist::Distribution&,
                                   std::span<const std::span<const i64>>,
                                   InspectorWorkspace&,
                                   const LocalizeSnapshot&, LocalizedMany&);

  /// Collapses duplicate globals across @p batches (indices into a
  /// distribution of @p n elements): fills the per-position ordinal map and
  /// the distinct arena (first-occurrence order) and returns the distinct
  /// count. The shared front half of localize and repair. The table is
  /// sized to load factor <= 1/2 of min(total, n), and every reference is
  /// range-checked before it is inserted, so the table can never fill.
  /// Allocates only on growth.
  i64 dedup_batches(std::span<const std::span<const i64>> batches, i64 n);

  /// Distinct ordinal of global @p g, minting one (first-occurrence order)
  /// on the first sighting this pass.
  [[nodiscard]] i64 dedup_id(i64 g) {
    auto [id, fresh] = dedup_.find_or_insert(g);
    if (fresh) {
      id = static_cast<u32>(distinct_.size());
      distinct_.push_back(g);
    }
    return id;
  }

  dist::DedupTable dedup_;      ///< global -> distinct ordinal, this pass
  std::vector<i64> pos_ids_;    ///< distinct ordinal per reference position
  std::vector<i64> distinct_;   ///< distinct globals, first-occurrence order
  std::vector<dist::Entry> entries_;  ///< resolved entry per distinct global
  std::vector<i64> loc_val_;    ///< localized index per distinct global
  std::vector<i64> all_ids_;    ///< iota over distinct (cache probe_batch)
  std::vector<i64> miss_ids_;   ///< cache misses: ordinal into distinct_
  std::vector<i64> miss_globals_;
  std::vector<dist::Entry> miss_entries_;
  std::vector<i64> ghost_ord_;      ///< distinct ordinal per ghost slot
  std::vector<i64> owner_cursor_;   ///< P: next request slot per owner
  std::vector<i64> req_local_;      ///< flat per-owner request CSR values
  std::vector<i64> counts_scratch_; ///< 2P: exchange_csr count staging
  std::vector<std::vector<i64>*> refs_ptrs_;  ///< localize_many staging

  // Repair scratch (detail::repair_into): the snapshot diff table, the
  // novel/departed classification, the per-owner splice-script CSR, and the
  // splice staging handed to CommSchedule::splice_send. All grow-only.
  dist::DedupTable prev_;         ///< snapshot global -> snapshot ordinal
  std::vector<u8> prev_matched_;  ///< per snapshot ordinal: survived?
  std::vector<u8> is_novel_;      ///< per new distinct ordinal
  std::vector<i64> novel_ids_;    ///< novel ordinals into distinct_
  std::vector<i64> novel_globals_;
  std::vector<dist::Entry> novel_entries_;
  std::vector<i64> script_payload_;  ///< outgoing splice scripts, CSR
  std::vector<i64> script_offsets_;
  std::vector<i64> script_cursor_;   ///< P: per-owner script fill cursor
  std::vector<i64> script_recv_;     ///< arriving scripts for my send side
  std::vector<i64> script_recv_offsets_;
  std::vector<i64> splice_scratch_;  ///< splice_send rebuild staging
  std::vector<i64> tomb_scratch_;    ///< splice_send sorted-tombstone staging

  PlanOptions opts_;
  i64 last_total_ = 0;
  i64 last_distinct_ = 0;
  u64 last_dad_key_ = 0;  ///< distribution identity of the last localize
  i64 last_nlocal_ = 0;
};

/// Collective. Localizes @p global_refs (indices into an array distributed
/// by @p d). All processes must call together; lists may differ in length.
/// Every buffer of @p out and @p ws is reused in place — a warm re-localize
/// of same-shaped batches performs zero heap allocations.
void localize(rt::Process& p, const dist::Distribution& d,
              std::span<const i64> global_refs, InspectorWorkspace& ws,
              Localized& out);

void localize_many(rt::Process& p, const dist::Distribution& d,
                   std::span<const std::span<const i64>> batches,
                   InspectorWorkspace& ws, LocalizedMany& out);

/// Collective. Attempts an incremental repair of @p out's existing schedule
/// against the NEW reference set in @p global_refs, diffing it against
/// @p snap (the state captured after the schedule's last build): only novel
/// globals are located (warm cache hits make that nearly free), departed
/// entries are tombstoned and novel ones merged on the owners via an
/// exchanged splice script, and the refs are rewritten in full. Returns
/// true on success — @p out is then bit-identical to what a full localize
/// of the same refs would produce, at delta-proportional communication
/// cost. Returns false when the machine-wide vote rejects the repair (a
/// hard-ineligible snapshot anywhere, or the voted delta fraction over
/// PlanOptions::effective_threshold()); @p out is untouched and the caller
/// must fall back to a full localize. Every rank must call together and
/// agrees on the outcome by construction.
[[nodiscard]] bool repair_localize(rt::Process& p, const dist::Distribution& d,
                                   std::span<const i64> global_refs,
                                   InspectorWorkspace& ws,
                                   const LocalizeSnapshot& snap,
                                   Localized& out);

[[nodiscard]] bool repair_localize_many(
    rt::Process& p, const dist::Distribution& d,
    std::span<const std::span<const i64>> batches, InspectorWorkspace& ws,
    const LocalizeSnapshot& snap, LocalizedMany& out);

/// THE schedule-forming exchange (hosted in rt/collectives.hpp so the dist
/// layer's dereference can drive it too): localize routes its ghost requests
/// through it, geocol its half-edges, and TranslationTable::dereference its
/// request round — one CSR exchange implementation in the tree.
using rt::exchange_csr;

}  // namespace chaos::core

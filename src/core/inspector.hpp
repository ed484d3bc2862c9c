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
// resets by epoch tag, the locate round stages in the workspace's
// dereference scratch, and the entry points below write into caller-owned
// results — so a re-run inspector performs zero heap allocations after
// warmup, IRREGULAR locates included.
#pragma once

#include <span>
#include <vector>

#include "core/plan_options.hpp"
#include "core/schedule.hpp"
#include "dist/dereference_workspace.hpp"
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

/// Collapses duplicate globals across @p batches through the workspace's
/// dedup table: fills the per-position ordinal map and the distinct arena
/// (first-occurrence order) and returns the distinct count. The shared front
/// half of localize, also used by partition_iterations to dedup its
/// reference batches before the owner locate.
i64 dedup_batches(InspectorWorkspace& ws,
                  std::span<const std::span<const i64>> batches);

/// The canonical ghost-slot assignment shared by the full build and the
/// repair path: counts distinct off-process entries per owner into the
/// schedule's receive prefix, then assigns ghost slots per-owner sorted by
/// global ascending, filling the workspace's localized-value arena and flat
/// per-owner request list. Pure local (no communication, no clock charge).
void assign_ghost_slots(InspectorWorkspace& ws, std::size_t np, i32 my_rank,
                        i64 nlocal, CommSchedule& schedule);
}  // namespace detail

/// Reusable inspector scratch: the dedup table, the distinct-reference
/// arena, per-owner request staging, the locate's dereference scratch, and
/// the PlanOptions governing cache / repair behavior. One workspace serves
/// any number of sequential localize calls; plans own one per loop.
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

  /// Scratch for the distribution locate: localize and repair stage their
  /// locate round here, and partition_iterations borrows it for its owner
  /// locate.
  [[nodiscard]] dist::DereferenceWorkspace& deref_scratch() {
    return deref_ws_;
  }

  /// Reference counts of the most recent localize through this workspace
  /// (the bench layer checks locate volume against these).
  [[nodiscard]] i64 last_total_refs() const { return last_total_; }
  [[nodiscard]] i64 last_distinct_refs() const { return last_distinct_; }

  /// Read-only views of the most recent dedup pass (valid until the next
  /// begin): the distinct globals in first-occurrence order, and the
  /// distinct ordinal of every reference position in batch-major order.
  [[nodiscard]] std::span<const i64> distinct_globals() const {
    return {distinct_.data(), static_cast<std::size_t>(last_distinct_)};
  }
  [[nodiscard]] std::span<const i64> pos_ordinals() const {
    return {pos_ids_.data(), static_cast<std::size_t>(last_total_)};
  }

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
  friend i64 detail::dedup_batches(InspectorWorkspace&,
                                   std::span<const std::span<const i64>>);
  friend void detail::assign_ghost_slots(InspectorWorkspace&, std::size_t,
                                         i32, i64, CommSchedule&);
  friend void localize_many(rt::Process&, const dist::Distribution&,
                            std::span<const std::span<const i64>>,
                            InspectorWorkspace&, LocalizedMany&);
  friend bool repair_localize_many(rt::Process&, const dist::Distribution&,
                                   std::span<const std::span<const i64>>,
                                   InspectorWorkspace&,
                                   const LocalizeSnapshot&, LocalizedMany&);

  /// Starts a localize over @p total references: bumps the dedup epoch and
  /// (re)sizes the table to load factor <= 1/2. Allocates only on growth.
  void begin(std::size_t total) {
    std::size_t cap = slot_key_.size();
    if (cap < 2 * total || cap == 0) {
      cap = 16;
      while (cap < 2 * total) cap <<= 1;
      slot_key_.resize(cap);
      slot_id_.resize(cap);
      slot_epoch_.resize(cap, 0);
    }
    mask_ = cap - 1;
    ++epoch_;
    distinct_.clear();
    distinct_.reserve(total);
    pos_ids_.resize(total);
    last_total_ = static_cast<i64>(total);
    last_distinct_ = 0;
  }

  /// Distinct ordinal of global @p g, minting one (first-occurrence order)
  /// on the first sighting this epoch.
  [[nodiscard]] i64 dedup_id(i64 g) {
    std::size_t s =
        static_cast<std::size_t>(dist::detail::mix64(static_cast<u64>(g))) &
        mask_;
    while (true) {
      if (slot_epoch_[s] != epoch_) {
        slot_epoch_[s] = epoch_;
        slot_key_[s] = g;
        const i64 id = static_cast<i64>(distinct_.size());
        slot_id_[s] = id;
        distinct_.push_back(g);
        return id;
      }
      if (slot_key_[s] == g) return slot_id_[s];
      s = (s + 1) & mask_;
    }
  }

  /// (Re)builds the repair diff table over @p prev_globals (the snapshot's
  /// distinct set). Same epoch-tagged open-addressing shape as the dedup
  /// table, kept separate so a repair never perturbs dedup state.
  void build_prev_table(std::span<const i64> prev_globals) {
    std::size_t cap = prev_key_.size();
    if (cap < 2 * prev_globals.size() || cap == 0) {
      cap = 16;
      while (cap < 2 * prev_globals.size()) cap <<= 1;
      prev_key_.resize(cap);
      prev_id_.resize(cap);
      prev_epoch_.resize(cap, 0);
    }
    prev_mask_ = cap - 1;
    ++prev_gen_;
    for (std::size_t q = 0; q < prev_globals.size(); ++q) {
      std::size_t s = static_cast<std::size_t>(dist::detail::mix64(
                          static_cast<u64>(prev_globals[q]))) &
                      prev_mask_;
      while (prev_epoch_[s] == prev_gen_) s = (s + 1) & prev_mask_;
      prev_epoch_[s] = prev_gen_;
      prev_key_[s] = prev_globals[q];
      prev_id_[s] = static_cast<i64>(q);
    }
  }

  /// Snapshot ordinal of @p g, or -1 if the global is novel.
  [[nodiscard]] i64 prev_lookup(i64 g) const {
    std::size_t s =
        static_cast<std::size_t>(dist::detail::mix64(static_cast<u64>(g))) &
        prev_mask_;
    while (prev_epoch_[s] == prev_gen_) {
      if (prev_key_[s] == g) return prev_id_[s];
      s = (s + 1) & prev_mask_;
    }
    return -1;
  }

  // Dedup table: open addressing, splitmix64 probing, epoch-tagged slots so
  // a reset is one counter bump instead of an O(capacity) clear.
  std::vector<i64> slot_key_;
  std::vector<i64> slot_id_;
  std::vector<u64> slot_epoch_;
  std::size_t mask_ = 0;
  u64 epoch_ = 0;

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
  std::vector<i64> prev_key_;
  std::vector<i64> prev_id_;
  std::vector<u64> prev_epoch_;
  std::size_t prev_mask_ = 0;
  u64 prev_gen_ = 0;
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
  dist::DereferenceWorkspace deref_ws_;  ///< locate-round scratch
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

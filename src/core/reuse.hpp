// Communication-schedule reuse (Section 3 of the paper — the first of its
// two contributions). The compiler-generated code maintains:
//
//   nmod      — a global timestamp: the cumulative number of code blocks
//               (loops, intrinsics, statements) that modified ANY
//               distributed array;
//   last_mod  — a map DAD -> nmod value at the DAD's latest modification
//               (remapping an array changes its DAD and bumps nmod).
//
// An inspector for loop L stores the DADs of L's data arrays, the DADs of
// its indirection arrays, and last_mod of the indirection DADs. Before a
// subsequent execution of L the saved results are reused iff
//   (1) every data-array DAD is unchanged,
//   (2) every indirection-array DAD is unchanged, and
//   (3) no indirection array may have been modified since (last_mod equal).
// The method is conservative: a false invalidation costs a redundant
// inspector; stale reuse would be a correctness bug and must never happen.
#pragma once

#include <memory>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "dist/dad.hpp"

namespace chaos::core {

/// Per-process (SPMD-replicated) modification record. All processes execute
/// the same statement sequence, so their registries stay identical without
/// communication — exactly how the compiler-generated code works.
class ReuseRegistry {
 public:
  /// Called once per loop / array intrinsic / statement that writes to a
  /// distributed array with descriptor @p dad.
  void note_write(const dist::Dad& dad) { last_mod_[dad.key()] = ++nmod_; }

  /// Called when an array is remapped: the paper increments nmod and stamps
  /// the *new* DAD (the old DAD can never be referenced again).
  void note_remap(const dist::Dad& new_dad) { note_write(new_dad); }

  /// Timestamp of the last possible modification of arrays with @p dad
  /// (0 = never modified since creation).
  [[nodiscard]] u64 last_mod(const dist::Dad& dad) const {
    const auto it = last_mod_.find(dad.key());
    return it == last_mod_.end() ? 0 : it->second;
  }

  [[nodiscard]] u64 nmod() const { return nmod_; }
  void clear() {
    nmod_ = 0;
    last_mod_.clear();
  }

 private:
  u64 nmod_ = 0;
  std::unordered_map<u64, u64> last_mod_;
};

/// What loop L's inspector saved: L.DAD(x_i), L.DAD(ind_j),
/// L.last_mod(DAD(ind_j)) in the paper's notation.
struct InspectorRecord {
  std::vector<dist::Dad> data_dads;
  std::vector<dist::Dad> ind_dads;
  std::vector<u64> ind_last_mod;
};

/// The three reuse conditions from Section 3.
[[nodiscard]] bool reuse_valid(const ReuseRegistry& reg,
                               const InspectorRecord& rec,
                               std::span<const dist::Dad> cur_data_dads,
                               std::span<const dist::Dad> cur_ind_dads);

/// Conditions 1 and 2 only (DAD spans unchanged, last_mod ignored): the
/// repair-eligibility predicate. A record that passes this but fails
/// reuse_valid is stale ONLY because an indirection array's values changed
/// in place — exactly the case an incremental splice (DESIGN.md §14) can
/// fix. A failed DAD compare (REDISTRIBUTE, remap, shrink) is never
/// repairable and must take the full-miss path.
[[nodiscard]] bool dads_match(const InspectorRecord& rec,
                              std::span<const dist::Dad> cur_data_dads,
                              std::span<const dist::Dad> cur_ind_dads);

/// Cache of inspector products keyed by loop id. The product type is opaque
/// (schedules, iteration partitions, localized references — whatever the
/// loop's inspector builds); the cache only owns the guard logic.
class InspectorCache {
 public:
  struct Stats {
    i64 hits = 0;
    i64 misses = 0;
    /// Third outcome beside hit/miss (DESIGN.md §14): stale slots whose
    /// DADs still matched and were spliced in place, and repair attempts
    /// that fell back to a full rebuild (threshold vote or repair-off).
    i64 repairs = 0;
    i64 repair_fallbacks = 0;
  };

  /// Returns the cached product for @p loop_id if the Section 3 conditions
  /// hold, otherwise runs @p build (which must return
  /// std::shared_ptr<Product>) and records the new guard state. Never
  /// attempts repair and never counts a repair fallback: a stale slot is an
  /// ordinary miss, exactly the pre-§14 behavior.
  template <typename Product, typename BuildFn>
  std::shared_ptr<Product> get_or_build(
      u64 loop_id, const ReuseRegistry& reg,
      std::vector<dist::Dad> cur_data_dads,
      std::vector<dist::Dad> cur_ind_dads, BuildFn&& build) {
    return get_or_build_impl<Product>(
        /*offer_repair=*/false, loop_id, reg, std::move(cur_data_dads),
        std::move(cur_ind_dads), std::forward<BuildFn>(build),
        [](const std::shared_ptr<Product>&) { return false; });
  }

  /// Repair-aware overload: when the slot fails ONLY the last_mod stamp
  /// check (both DAD spans equal — an indirection array's values changed in
  /// place, never a REDISTRIBUTE), @p repair is offered the cached product
  /// first. It returns true to accept the splice — the guard stamps are
  /// refreshed and the SAME product is returned (a third outcome beside
  /// hit/miss) — or false to decline, which falls through to the ordinary
  /// miss path. A DAD mismatch never reaches @p repair: a fresh incarnation
  /// always rebuilds.
  template <typename Product, typename BuildFn, typename RepairFn>
  std::shared_ptr<Product> get_or_build(
      u64 loop_id, const ReuseRegistry& reg,
      std::vector<dist::Dad> cur_data_dads,
      std::vector<dist::Dad> cur_ind_dads, BuildFn&& build,
      RepairFn&& repair) {
    return get_or_build_impl<Product>(
        /*offer_repair=*/true, loop_id, reg, std::move(cur_data_dads),
        std::move(cur_ind_dads), std::forward<BuildFn>(build),
        std::forward<RepairFn>(repair));
  }

  /// Drops one loop's cached product (or everything).
  void invalidate(u64 loop_id) { slots_.erase(loop_id); }
  void clear() { slots_.clear(); }

  [[nodiscard]] const Stats& stats() const { return stats_; }
  [[nodiscard]] std::size_t size() const { return slots_.size(); }

 private:
  struct Slot {
    InspectorRecord record;
    std::shared_ptr<void> product;
  };

  template <typename Product, typename BuildFn, typename RepairFn>
  std::shared_ptr<Product> get_or_build_impl(
      bool offer_repair, u64 loop_id, const ReuseRegistry& reg,
      std::vector<dist::Dad> cur_data_dads,
      std::vector<dist::Dad> cur_ind_dads, BuildFn&& build,
      RepairFn&& repair) {
    auto it = slots_.find(loop_id);
    if (it != slots_.end()) {
      if (reuse_valid(reg, it->second.record, cur_data_dads, cur_ind_dads)) {
        ++stats_.hits;
        return std::static_pointer_cast<Product>(it->second.product);
      }
      if (offer_repair &&
          dads_match(it->second.record, cur_data_dads, cur_ind_dads)) {
        auto cached = std::static_pointer_cast<Product>(it->second.product);
        if (repair(cached)) {
          ++stats_.repairs;
          refresh_stamps(it->second.record, reg);
          return cached;
        }
        ++stats_.repair_fallbacks;
      }
    }
    ++stats_.misses;
    std::shared_ptr<Product> product = build();
    Slot slot;
    slot.record.data_dads = std::move(cur_data_dads);
    slot.record.ind_dads = std::move(cur_ind_dads);
    slot.record.ind_last_mod.reserve(slot.record.ind_dads.size());
    for (const auto& dad : slot.record.ind_dads) {
      slot.record.ind_last_mod.push_back(reg.last_mod(dad));
    }
    slot.product = product;
    slots_[loop_id] = std::move(slot);
    return product;
  }

  /// Re-stamps a repaired slot's guard: the splice consumed the indirection
  /// arrays' CURRENT values, so the record's last_mod must advance to now or
  /// the very next probe would re-repair an already-current plan.
  static void refresh_stamps(InspectorRecord& rec, const ReuseRegistry& reg) {
    rec.ind_last_mod.clear();
    for (const auto& dad : rec.ind_dads) {
      rec.ind_last_mod.push_back(reg.last_mod(dad));
    }
  }

  std::unordered_map<u64, Slot> slots_;
  Stats stats_;
};

/// Program-level plan cache: the InspectorCache generalized for the bytecode
/// VM. Where InspectorCache holds one slot per loop id, PlanCache keys each
/// slot by (statement id, DAD incarnation set), so plans built against
/// different incarnation sets of the same statement coexist instead of
/// evicting each other — a program alternating between two distributions
/// pays two inspector runs total, not one per switch. The Section 3 guard
/// still applies on every probe: identical DADs hash to the same slot, and
/// reuse_valid re-checks conditions 1–3 (last_mod of the indirection arrays
/// cannot be part of the key — a write leaves the DAD, and thus the key,
/// unchanged).
///
/// The probe path is allocation-free: span-based guards, no vector copies.
/// Only store() (the cache-miss path, which just ran a full inspector)
/// allocates.
class PlanCache {
 public:
  using Stats = InspectorCache::Stats;

  /// Composite key: statement id mixed with every guard DAD's key, in guard
  /// order. Full-avalanche mixing per component keeps the composite
  /// order-sensitive and uniformly spread.
  [[nodiscard]] static u64 key_of(u64 stmt_id,
                                  std::span<const dist::Dad> data_dads,
                                  std::span<const dist::Dad> ind_dads) {
    u64 h = dist::detail::mix64(stmt_id ^ 0x7c15bf58476d1ce4ull);
    for (const auto& d : data_dads) h = dist::detail::mix64(h ^ d.key());
    for (const auto& d : ind_dads) h = dist::detail::mix64(h ^ ~d.key());
    return h;
  }

  /// Probe outcome (DESIGN.md §14). RepairCandidate means the slot exists,
  /// the DAD incarnation sets still match, and only the last_mod stamp is
  /// stale: the VM's CHECK_INCARNATION may splice the cached plan in place
  /// before paying a full re-inspection.
  enum class ProbeOutcome : u8 { Miss = 0, Hit, RepairCandidate };
  struct ProbeResult {
    ProbeOutcome outcome = ProbeOutcome::Miss;
    std::shared_ptr<void> product;  ///< set for Hit AND RepairCandidate
  };

  /// CHECK_INCARNATION: probes the slot of @p stmt_id under the current DAD
  /// incarnation set. A Hit needs the Section 3 conditions. Only when
  /// @p offer_repair is set can a stale slot be a RepairCandidate, which is
  /// NOT yet counted: the caller resolves it with note_repaired() or
  /// note_repair_fallback(). Otherwise a stale slot is a plain miss, so a
  /// repair-off run counts exactly hits and misses, as InspectorCache's
  /// get_or_build does. A miss is expected to be followed by store() once
  /// the plan is rebuilt.
  [[nodiscard]] ProbeResult probe(bool offer_repair, u64 stmt_id,
                                  const ReuseRegistry& reg,
                                  std::span<const dist::Dad> data_dads,
                                  std::span<const dist::Dad> ind_dads) {
    const auto it = slots_.find(key_of(stmt_id, data_dads, ind_dads));
    if (it != slots_.end()) {
      if (reuse_valid(reg, it->second.record, data_dads, ind_dads)) {
        ++stats_.hits;
        return {ProbeOutcome::Hit, it->second.product};
      }
      if (offer_repair && dads_match(it->second.record, data_dads, ind_dads)) {
        return {ProbeOutcome::RepairCandidate, it->second.product};
      }
    }
    ++stats_.misses;
    return {};
  }

  /// Resolves a RepairCandidate whose splice succeeded: counts the repair
  /// and advances the slot's guard stamps to the indirection arrays'
  /// current last_mod (the splice consumed their current values).
  void note_repaired(u64 stmt_id, const ReuseRegistry& reg,
                     std::span<const dist::Dad> data_dads,
                     std::span<const dist::Dad> ind_dads) {
    ++stats_.repairs;
    const auto it = slots_.find(key_of(stmt_id, data_dads, ind_dads));
    if (it == slots_.end()) return;
    it->second.record.ind_last_mod.clear();
    for (const auto& dad : it->second.record.ind_dads) {
      it->second.record.ind_last_mod.push_back(reg.last_mod(dad));
    }
  }

  /// Resolves a RepairCandidate that declined or failed the vote: one
  /// fallback plus the full-rebuild miss it implies.
  void note_repair_fallback() {
    ++stats_.repair_fallbacks;
    ++stats_.misses;
  }

  /// Records a freshly built plan under the probe-time guard state.
  void store(u64 stmt_id, const ReuseRegistry& reg,
             std::span<const dist::Dad> data_dads,
             std::span<const dist::Dad> ind_dads,
             std::shared_ptr<void> product) {
    Slot slot;
    slot.record.data_dads.assign(data_dads.begin(), data_dads.end());
    slot.record.ind_dads.assign(ind_dads.begin(), ind_dads.end());
    slot.record.ind_last_mod.reserve(ind_dads.size());
    for (const auto& dad : ind_dads) {
      slot.record.ind_last_mod.push_back(reg.last_mod(dad));
    }
    slot.product = std::move(product);
    slots_[key_of(stmt_id, data_dads, ind_dads)] = std::move(slot);
  }

  void clear() { slots_.clear(); }

  [[nodiscard]] const Stats& stats() const { return stats_; }
  [[nodiscard]] std::size_t size() const { return slots_.size(); }

 private:
  struct Slot {
    InspectorRecord record;
    std::shared_ptr<void> product;
  };
  std::unordered_map<u64, Slot> slots_;
  Stats stats_;
};

}  // namespace chaos::core

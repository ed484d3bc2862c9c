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

 private:
  u64 nmod_ = 0;
  /// One entry per DAD ever written or remapped, never pruned: an erased
  /// entry would read 0 again, so a record stamped 0 before a later write
  /// would validate once more and serve a stale plan. The map grows by one
  /// small entry per DAD incarnation, where a cache slot holds a whole plan.
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

/// The Section 3 reuse cache: one slot per loop id, holding loop L's
/// InspectorRecord and its inspector product. The product type is opaque
/// (schedules, iteration partitions, localized references — whatever the
/// loop's inspector builds); the cache only owns the guard logic. store()
/// replaces the loop's slot and releases the old product, so the cache holds
/// at most one product per loop however many distributions the loop sees: a
/// loop that alternates between two distributions re-inspects at each
/// switch, as in the paper.
///
/// probe() is allocation-free (span-based guards, no vector copies). Only
/// store() — the miss path, which just ran a full inspector — allocates.
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

  /// Probe outcome (DESIGN.md §14). RepairCandidate means the slot's DADs
  /// still match and only the last_mod stamp is stale: the caller may splice
  /// the cached product in place before paying a full re-inspection.
  enum class ProbeOutcome : u8 { Miss = 0, Hit, RepairCandidate };
  struct ProbeResult {
    ProbeOutcome outcome = ProbeOutcome::Miss;
    std::shared_ptr<void> product;  ///< set for Hit AND RepairCandidate
  };

  /// Probes @p loop_id's slot under the current DADs. A Hit needs the
  /// Section 3 conditions. Only when @p offer_repair is set can a stale slot
  /// be a RepairCandidate, which is NOT yet counted: the caller resolves it
  /// with note_repaired() or note_repair_fallback(). Otherwise a stale slot
  /// is a plain miss, so a repair-off run counts exactly hits and misses. A
  /// miss is expected to be followed by store() once the product is rebuilt.
  [[nodiscard]] ProbeResult probe(bool offer_repair, u64 loop_id,
                                  const ReuseRegistry& reg,
                                  std::span<const dist::Dad> data_dads,
                                  std::span<const dist::Dad> ind_dads);

  /// Resolves a RepairCandidate whose splice succeeded: counts the repair
  /// and advances the slot's guard stamps to the indirection arrays'
  /// current last_mod (the splice consumed their current values), so the
  /// next probe hits.
  void note_repaired(u64 loop_id, const ReuseRegistry& reg);

  /// Resolves a RepairCandidate that declined or failed the vote: one
  /// fallback plus the full-rebuild miss it implies.
  void note_repair_fallback() {
    ++stats_.repair_fallbacks;
    ++stats_.misses;
  }

  /// Records a freshly built product under the probe-time guard state,
  /// replacing @p loop_id's slot and releasing its old product.
  void store(u64 loop_id, const ReuseRegistry& reg,
             std::span<const dist::Dad> data_dads,
             std::span<const dist::Dad> ind_dads,
             std::shared_ptr<void> product);

  /// Returns the cached product for @p loop_id if the Section 3 conditions
  /// hold, otherwise runs @p build (which must return
  /// std::shared_ptr<Product>) and stores its product. Never attempts
  /// repair and never counts a repair fallback: a stale slot is an ordinary
  /// miss, exactly the pre-§14 behavior.
  template <typename Product, typename BuildFn>
  std::shared_ptr<Product> get_or_build(
      u64 loop_id, const ReuseRegistry& reg,
      std::vector<dist::Dad> cur_data_dads,
      std::vector<dist::Dad> cur_ind_dads, BuildFn&& build) {
    ProbeResult pr =
        probe(/*offer_repair=*/false, loop_id, reg, cur_data_dads,
              cur_ind_dads);
    if (pr.outcome == ProbeOutcome::Hit) {
      return std::static_pointer_cast<Product>(std::move(pr.product));
    }
    std::shared_ptr<Product> product = build();
    store(loop_id, reg, cur_data_dads, cur_ind_dads, product);
    return product;
  }

  /// Repair-aware overload: when the slot fails ONLY the last_mod stamp
  /// check (both DAD spans equal — an indirection array's values changed in
  /// place, never a REDISTRIBUTE), @p repair is offered the cached product
  /// first. It returns true to accept the splice — the guard stamps are
  /// refreshed and the SAME product is returned (a third outcome beside
  /// hit/miss) — or false to decline, which counts a fallback and falls
  /// through to the ordinary miss path. A DAD mismatch never reaches
  /// @p repair: a fresh incarnation always rebuilds.
  template <typename Product, typename BuildFn, typename RepairFn>
  std::shared_ptr<Product> get_or_build(
      u64 loop_id, const ReuseRegistry& reg,
      std::vector<dist::Dad> cur_data_dads,
      std::vector<dist::Dad> cur_ind_dads, BuildFn&& build,
      RepairFn&& repair) {
    ProbeResult pr = probe(/*offer_repair=*/true, loop_id, reg,
                           cur_data_dads, cur_ind_dads);
    if (pr.outcome != ProbeOutcome::Miss) {
      auto cached = std::static_pointer_cast<Product>(std::move(pr.product));
      if (pr.outcome == ProbeOutcome::Hit) return cached;
      if (repair(cached)) {
        note_repaired(loop_id, reg);
        return cached;
      }
      note_repair_fallback();
    }
    std::shared_ptr<Product> product = build();
    store(loop_id, reg, cur_data_dads, cur_ind_dads, product);
    return product;
  }

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

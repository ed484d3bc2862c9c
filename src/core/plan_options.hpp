// Unified plan-construction options: the one struct every plan-construction
// surface consumes (core::EdgeLoopPlan / SingleStatementPlan inspectors,
// InspectorWorkspace::configure, and the lang Instance). It carries the
// persistent translation cache and the incremental schedule-repair policy.
#pragma once

#include "rt/types.hpp"

namespace chaos::dist {
class TranslationCache;
}  // namespace chaos::dist

namespace chaos::core {

/// Incremental schedule repair policy (DESIGN.md §14).
enum class RepairMode : u8 {
  /// Attempt a delta splice when a cached plan fails only the last_mod
  /// stamp check (DADs unchanged), falling back to full re-inspection when
  /// the voted delta fraction exceeds repair_threshold.
  Auto = 0,
  /// Always splice an eligible plan, whatever the delta fraction (the
  /// threshold fallback is disabled; hard ineligibility — a fresh DAD
  /// incarnation or a changed local segment — still forces a rebuild).
  On,
  /// Never attempt repair: every stale plan pays a full re-inspection.
  Off,
};

[[nodiscard]] constexpr const char* to_string(RepairMode m) {
  switch (m) {
    case RepairMode::Auto: return "auto";
    case RepairMode::On: return "on";
    case RepairMode::Off: return "off";
  }
  return "?";
}

/// The one configuration struct for plan construction. Value semantics; the
/// translation cache is a non-owning attach (SPMD discipline: every rank of
/// the machine passes a cache or none, see InspectorWorkspace::configure).
struct PlanOptions {
  /// Persistent dist::TranslationCache attached to the plan's inspector
  /// workspace(s); nullptr = no cache.
  dist::TranslationCache* translation_cache = nullptr;
  /// Incremental schedule repair policy (DESIGN.md §14).
  RepairMode repair = RepairMode::Auto;
  /// Auto-mode fallback threshold: the machine-max delta fraction
  /// (novel + departed distinct globals over the new distinct count) above
  /// which a splice stops paying off and the plan is rebuilt instead.
  f64 repair_threshold = 0.5;

  [[nodiscard]] bool repair_enabled() const {
    return repair != RepairMode::Off;
  }
  /// The threshold the repair vote actually compares against: Auto uses the
  /// configured fraction, On never falls back on size, Off never repairs.
  [[nodiscard]] f64 effective_threshold() const {
    switch (repair) {
      case RepairMode::Auto: return repair_threshold;
      case RepairMode::On: return 1e300;  // any finite delta splices
      case RepairMode::Off: return -1.0;
    }
    return repair_threshold;
  }
};

}  // namespace chaos::core

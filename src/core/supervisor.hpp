// Pipeline phase supervision: bounded retry of failed SPMD phases on a
// recovered Machine (DESIGN.md §11).
//
// A Supervisor wraps each pipeline phase (partition → inspect → execute) in
// a run/classify/recover/backoff loop. The contract that makes retry sound
// is split across the layers: Machine::recover() certifies no barrier or
// blackboard state leaks between attempts (rt/), the workspaces and plans are
// exception-safe so a half-finished attempt can be thrown away (core/,
// dist/), and phase bodies are written idempotent — each attempt rebuilds
// its outputs from the previous phase's, never from its own partial state.
// Backoff burns wall-clock only; the modeled virtual clock of the
// successful attempt is byte-identical to a clean run (gated by
// bench/ablation_recovery.cpp).
#pragma once

#include <functional>

#include "rt/machine.hpp"
#include "rt/retry.hpp"

namespace chaos::core {

/// Counters accumulated across every run_phase call on one Supervisor.
/// attempts - phases == total retries; recoveries counts phases that
/// failed at least once and then succeeded.
struct SupervisorStats {
  i64 phases = 0;           ///< run_phase calls completed successfully
  i64 attempts = 0;         ///< Machine::run invocations (>= phases)
  i64 retries = 0;          ///< attempts beyond each phase's first
  i64 recoveries = 0;       ///< phases that succeeded after >= 1 failure
  i64 gave_up = 0;          ///< phases escalated or rethrown (exhausted/fatal)
  f64 backoff_wall_ms = 0.0;  ///< wall-clock slept between attempts

  [[nodiscard]] bool clean() const { return retries == 0 && gave_up == 0; }
};

/// Runs SPMD phase bodies on one Machine under a RetryPolicy. Not
/// thread-safe; drive it from the host thread that owns the machine.
class Supervisor {
 public:
  explicit Supervisor(rt::Machine& machine, rt::RetryPolicy policy = {});

  /// Runs @p body via Machine::run. On a retryable failure (rt::
  /// is_retryable) with attempts remaining: recovers the machine, sleeps
  /// the policy's backoff (wall-clock only), and retries. A FATAL error
  /// (CHAOS_CHECK violation, logic bug) is rethrown as-is — retrying
  /// deterministic breakage is meaningless and so is blaming a rank. A
  /// RETRYABLE error that survives the whole retry budget is escalated:
  /// the transient-fault hypothesis is falsified, so run_phase throws a
  /// typed chaos::PermanentFault naming the presumed-dead rank (from the
  /// FaultInjected's detonation rank or a MachineTimeout's first missing
  /// rank) and the fault site, and the caller is expected to degrade
  /// (DESIGN.md §13). Either way the machine is recovered first, so a
  /// catching caller can keep using it. @p phase_name labels the
  /// escalation message and future diagnostics; it is not stored.
  void run_phase(const char* phase_name,
                 const std::function<void(rt::Process&)>& body);

  [[nodiscard]] const SupervisorStats& stats() const { return stats_; }
  [[nodiscard]] const rt::RetryPolicy& policy() const { return policy_; }
  [[nodiscard]] rt::Machine& machine() { return *machine_; }
  void reset_stats() { stats_ = SupervisorStats{}; }

 private:
  rt::Machine* machine_;
  rt::RetryPolicy policy_;
  SupervisorStats stats_;
};

}  // namespace chaos::core

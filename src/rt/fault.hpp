// Deterministic fault injection for the rt/ substrate (DESIGN.md §10).
//
// A FaultPlan is a seeded, immutable-once-installed list of FaultSpecs; the
// Machine carries an atomic pointer to at most one plan. Every named
// injection site in the runtime calls Machine::inject_point, which is a
// single relaxed pointer load plus a null test when no plan is installed —
// the modeled virtual clocks are untouched in every configuration (faults
// burn wall-clock, never modeled time), so all existing benches stay
// byte-identical whether or not a plan is armed (gated by ablation_faults).
//
// Determinism: a site fires on the Nth visit of a given rank to that site.
// Visit sequences are program-order facts of the SPMD body, so the same
// (body, plan, seed) always detonates at the same instruction; the only
// randomness is the seeded delay duration, derived from splitmix64(seed,
// site, rank) — identical across runs and hosts.
#pragma once

#include <atomic>
#include <vector>

#include "rt/types.hpp"

namespace chaos::rt {

class Machine;

/// The named instrumentation points of the substrate: every edge a
/// pipeline crosses between ranks. Each is visited by exactly one rank per
/// call (the rank passed to inject_point).
enum class FaultSite : u8 {
  BarrierArrive = 0,   ///< Machine::barrier_reduce_max entry (every phase)
  BlackboardPublish,   ///< detail::bb_publish_ptr (pointer-mode collectives)
  Alltoall,            ///< rt::alltoall entry (the counts round)
  AlltoallvFlat,       ///< rt::alltoallv_flat entry (the payload round)
};
inline constexpr int kFaultSiteCount = 4;
[[nodiscard]] const char* fault_site_name(FaultSite site);

enum class FaultKind : u8 {
  Throw = 0,  ///< throw FaultInjected at the site
  Delay,      ///< sleep wall-clock ms at the site, then continue
  AllocFail,  ///< fail the next allocation at the site (std::bad_alloc)
  Stall,      ///< never return: park until the machine is poisoned
  Permanent,  ///< throw FaultInjected on EVERY visit from nth_visit onward —
              ///< the rank is broken for good; retry cannot outrun it and a
              ///< supervisor must escalate to chaos::PermanentFault
};
inline constexpr int kFaultKindCount = 5;
[[nodiscard]] const char* fault_kind_name(FaultKind kind);

/// One armed fault: fire @p kind when @p rank makes its @p nth_visit-th
/// visit to @p site (Permanent: every visit from the nth onward). rank -1
/// arms every rank (each fires on its own Nth visit). delay_ms <= 0 asks
/// Delay for a seeded duration in [0.5, 2) ms.
struct FaultSpec {
  FaultSite site = FaultSite::BarrierArrive;
  FaultKind kind = FaultKind::Throw;
  int rank = -1;
  u64 nth_visit = 1;
  f64 delay_ms = 0.0;
};

/// Seeded, deterministic fault schedule. Thread-safe for concurrent
/// inject_point calls from all ranks (per-(site,rank) atomic visit
/// counters); add() must not race a running SPMD body — build the plan,
/// install it, then run.
class FaultPlan {
 public:
  explicit FaultPlan(int nprocs, u64 seed = 0x9e3779b97f4a7c15ull);

  FaultPlan& add(const FaultSpec& spec);

  /// Counts the visit and fires every matching spec. Called by
  /// Machine::inject_point only when this plan is installed. May throw
  /// (Throw/AllocFail), sleep (Delay), or block until poison (Stall).
  /// AllocFail specs only ARM during the spec loop; the allocator probe
  /// runs once at the end of the visit under a scope guard that disarms
  /// the thread-local flag on every exit — a Throw firing at the same
  /// visit can never leak an armed AllocFail into later allocations.
  void on_visit(Machine& m, FaultSite site, int rank);

  /// Clears visit counters and the fired tally (not the specs); makes one
  /// plan reusable across back-to-back Machine::run calls.
  void reset();

  [[nodiscard]] i64 fired() const {
    return fired_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] u64 visits(FaultSite site, int rank) const;
  [[nodiscard]] int nprocs() const { return nprocs_; }
  [[nodiscard]] u64 seed() const { return seed_; }

 private:
  /// Per-rank visit counters for all sites, padded so two ranks' counters
  /// never share a cache line (the sweep hammers these from every rank).
  struct alignas(64) RankVisits {
    std::atomic<u64> per_site[kFaultSiteCount];
  };

  void fire(Machine& m, const FaultSpec& spec, int rank, u64 visit);

  int nprocs_;
  u64 seed_;
  std::vector<FaultSpec> specs_;
  std::vector<RankVisits> visits_;
  std::atomic<i64> fired_{0};
};

/// True while an AllocFail fault is armed on this thread. A test binary may
/// hook global operator new (the ablation-bench counting hook, PR 5) and
/// consume the flag to throw std::bad_alloc from the allocator itself; if
/// nothing consumes it, the injection site throws bad_alloc directly.
[[nodiscard]] bool fault_alloc_fail_armed();
/// Consumes the armed flag; returns whether it was set.
[[nodiscard]] bool fault_consume_alloc_fail();

}  // namespace chaos::rt

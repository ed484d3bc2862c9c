#include "rt/fault.hpp"

#include <chrono>
#include <new>
#include <sstream>
#include <thread>

#include "rt/machine.hpp"

namespace chaos::rt {

namespace {

thread_local bool t_alloc_fail_armed = false;

/// splitmix64 — the repo's standard cheap mixer (inspector dedup, rng.hpp).
u64 splitmix64(u64 x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

const char* fault_site_name(FaultSite site) {
  switch (site) {
    case FaultSite::BarrierArrive: return "barrier_arrive";
    case FaultSite::BlackboardPublish: return "blackboard_publish";
    case FaultSite::Alltoall: return "alltoall";
    case FaultSite::AlltoallvFlat: return "alltoallv_flat";
  }
  return "unknown_site";
}

const char* fault_kind_name(FaultKind kind) {
  switch (kind) {
    case FaultKind::Throw: return "throw";
    case FaultKind::Delay: return "delay";
    case FaultKind::AllocFail: return "alloc_fail";
    case FaultKind::Stall: return "stall";
    case FaultKind::Permanent: return "permanent";
  }
  return "unknown_kind";
}

bool fault_alloc_fail_armed() { return t_alloc_fail_armed; }

bool fault_consume_alloc_fail() {
  if (!t_alloc_fail_armed) return false;
  t_alloc_fail_armed = false;
  return true;
}

FaultPlan::FaultPlan(int nprocs, u64 seed)
    : nprocs_(nprocs), seed_(seed),
      visits_(static_cast<std::size_t>(nprocs)) {
  CHAOS_CHECK(nprocs >= 1, "fault plan needs at least one rank");
  reset();
}

FaultPlan& FaultPlan::add(const FaultSpec& spec) {
  CHAOS_CHECK(spec.rank >= -1 && spec.rank < nprocs_,
              "fault spec: rank out of range");
  CHAOS_CHECK(spec.nth_visit >= 1, "fault spec: nth_visit is 1-based");
  specs_.push_back(spec);
  return *this;
}

void FaultPlan::reset() {
  for (auto& rv : visits_) {
    for (auto& v : rv.per_site) v.store(0, std::memory_order_relaxed);
  }
  fired_.store(0, std::memory_order_relaxed);
}

u64 FaultPlan::visits(FaultSite site, int rank) const {
  return visits_[static_cast<std::size_t>(rank)]
      .per_site[static_cast<int>(site)]
      .load(std::memory_order_relaxed);
}

void FaultPlan::on_visit(Machine& m, FaultSite site, int rank) {
  const u64 visit =
      visits_[static_cast<std::size_t>(rank)]
          .per_site[static_cast<int>(site)]
          .fetch_add(1, std::memory_order_relaxed) +
      1;
  // The armed flag must not survive ANY exit from this visit — in
  // particular a Throw spec firing after an AllocFail spec armed would
  // otherwise leave the flag set and fail an unrelated later allocation on
  // this thread (e.g. inside a catch block building its error report).
  struct DisarmGuard {
    ~DisarmGuard() { t_alloc_fail_armed = false; }
  } disarm_on_exit;
  for (const FaultSpec& s : specs_) {
    if (s.site != site) continue;
    if (s.rank >= 0 && s.rank != rank) continue;
    // Transient kinds detonate on exactly the Nth visit; a Permanent fault
    // keeps firing on every visit from the Nth onward — the rank is broken
    // for good, so no amount of retrying can sneak a clean pass through.
    const bool match = s.kind == FaultKind::Permanent ? visit >= s.nth_visit
                                                      : visit == s.nth_visit;
    if (!match) continue;
    fire(m, s, rank, visit);
  }
  if (t_alloc_fail_armed) {
    // Probe the allocator: a binary that hooks operator new (the PR 5
    // counting-hook idiom) consumes the flag and throws bad_alloc from
    // inside the allocator; a plain binary leaves the flag set and we
    // model the failed allocation ourselves.
    void* probe = ::operator new(1);
    ::operator delete(probe);
    if (fault_consume_alloc_fail()) throw std::bad_alloc();
  }
}

void FaultPlan::fire(Machine& m, const FaultSpec& spec, int rank, u64 visit) {
  fired_.fetch_add(1, std::memory_order_relaxed);
  m.note_fault_injected();
  switch (spec.kind) {
    case FaultKind::Throw:
    case FaultKind::Permanent: {
      std::ostringstream os;
      os << "injected fault: " << fault_kind_name(spec.kind) << " at "
         << fault_site_name(spec.site) << " on rank " << rank << " (visit "
         << visit << ")";
      throw FaultInjected(os.str(), rank, static_cast<int>(spec.site));
    }
    case FaultKind::Delay: {
      f64 ms = spec.delay_ms;
      if (ms <= 0.0) {
        // Seeded duration in [0.5, 2) ms — deterministic per (seed, site,
        // rank), independent of host scheduling.
        const u64 h = splitmix64(seed_ ^ (static_cast<u64>(spec.site) << 8) ^
                                 static_cast<u64>(rank));
        ms = 0.5 + 1.5 * (static_cast<f64>(h >> 11) /
                          static_cast<f64>(1ull << 53));
      }
      std::this_thread::sleep_for(std::chrono::duration<f64, std::milli>(ms));
      return;
    }
    case FaultKind::AllocFail: {
      // Only ARM here; the probe (and the bad_alloc) happens at the end of
      // on_visit, under its scope guard, after every spec for this visit
      // has had its chance to fire. Splitting arm from probe is what makes
      // the guard meaningful: no unwind path can leak the armed flag.
      t_alloc_fail_armed = true;
      return;
    }
    case FaultKind::Stall: {
      // Park until a sibling's watchdog times out and poisons the machine,
      // then surface the poison like any released waiter — the stalled rank
      // must not hold Machine::run open forever.
      while (!m.is_poisoned()) {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
      m.note_poisoned_wait();
      throw MachinePoisoned(
          "machine poisoned: this rank was stalled by an injected fault");
    }
  }
}

}  // namespace chaos::rt

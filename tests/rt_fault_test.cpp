// Fault-injection sweep for the rt/ substrate (DESIGN.md §10).
//
// The tentpole contract under test: for EVERY injection site x fault kind x
// victim rank, a run over a body that visits all sites must terminate — the
// victim observes its own fault, every surviving rank throws a typed error
// (MachinePoisoned or MachineTimeout) instead of deadlocking, and the plan's
// deterministic visit counters agree across repeated runs. The whole sweep
// must be TSan/ASan clean (CI runs this binary under both).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <iterator>
#include <new>
#include <string>
#include <vector>

#include "rt/collectives.hpp"
#include "rt/fault.hpp"
#include "rt/machine.hpp"

namespace rt = chaos::rt;
using chaos::f64;
using chaos::i64;
using chaos::u64;

// --- global operator-new hook: the AllocFail consumer -----------------------
//
// Mirrors the ablation benches' counting hook (PR 5). When a FaultPlan arms
// an allocation failure, the next allocation on the armed thread throws from
// inside the allocator itself — the strongest form of the fault, exercising
// the exception safety of whatever call surrounds the allocation. Binaries
// without a hook still fail: the injection site throws bad_alloc directly.
void* operator new(std::size_t size) {
  if (rt::fault_consume_alloc_fail()) throw std::bad_alloc{};
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  if (rt::fault_consume_alloc_fail()) throw std::bad_alloc{};
  if (void* p = std::aligned_alloc(static_cast<std::size_t>(align),
                                   (size + static_cast<std::size_t>(align) - 1) &
                                       ~(static_cast<std::size_t>(align) - 1))) {
    return p;
  }
  throw std::bad_alloc{};
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
// Out of line, so GCC cannot inline a delete next to the std::vector
// allocation it frees and mistake the malloc/free pair for new/free.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete(void* p, std::align_val_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::align_val_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete(void* p, std::size_t,
                                       std::align_val_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t,
                                         std::align_val_t) noexcept {
  std::free(p);
}

namespace {

constexpr int kP = 4;

/// What one rank observed at the end of a faulted run.
enum class Outcome : int {
  kNone = 0,     ///< body neither completed nor threw (a bug: deadlock path)
  kCompleted,    ///< body ran to the final barrier
  kInjected,     ///< FaultInjected (the victim of a Throw fault)
  kAllocFailed,  ///< std::bad_alloc (the victim of an AllocFail fault)
  kTimeout,      ///< MachineTimeout (a survivor whose watchdog fired)
  kPoisoned,     ///< MachinePoisoned (a survivor released by poison)
  kOther,        ///< anything else (always a failure)
};

const char* outcome_name(Outcome o) {
  switch (o) {
    case Outcome::kNone: return "none";
    case Outcome::kCompleted: return "completed";
    case Outcome::kInjected: return "injected";
    case Outcome::kAllocFailed: return "alloc-failed";
    case Outcome::kTimeout: return "timeout";
    case Outcome::kPoisoned: return "poisoned";
    case Outcome::kOther: return "other";
  }
  return "?";
}

/// One SPMD body visiting every injection site at least once per rank: a
/// barrier (BarrierArrive), an alltoall (Alltoall, and BlackboardPublish via
/// its pointer publish), an alltoallv_flat, and a closing barrier. The
/// closing barrier gates completion: no rank can report kCompleted unless
/// EVERY rank survived the whole body, so a "victim died but a peer
/// finished anyway" bug shows up as a wrong outcome, not a flake.
void exercise(rt::Process& p) {
  const int P = p.nprocs();
  const int r = p.rank();
  rt::barrier(p);
  std::vector<i64> counts(static_cast<std::size_t>(P), 1);
  std::vector<i64> peers(static_cast<std::size_t>(P), 0);
  rt::alltoall<i64>(p, counts, peers);
  std::vector<i64> off(static_cast<std::size_t>(P) + 1);
  for (std::size_t i = 0; i < off.size(); ++i) off[i] = static_cast<i64>(i);
  std::vector<f64> payload(static_cast<std::size_t>(P), static_cast<f64>(r));
  std::vector<f64> ghost(static_cast<std::size_t>(P), 0.0);
  rt::alltoallv_flat<f64>(p, payload, off, ghost, off);
  rt::barrier(p);
}

struct SweepResult {
  std::vector<Outcome> per_rank;
  bool run_threw = false;
  i64 fired = 0;
  f64 wall_sec = 0.0;
};

/// Runs `exercise` on a fresh machine with one armed fault and captures what
/// every rank observed. Stall faults need the watchdog (nothing else ever
/// unblocks the peers); all other kinds terminate through the poison
/// protocol alone, so the deadline stays off and the futex path is covered.
SweepResult run_case(rt::FaultSite site, rt::FaultKind kind, int victim,
                     f64 deadline_sec) {
  rt::Machine machine(kP);
  machine.set_deadline_sec(deadline_sec);
  rt::FaultPlan plan(kP);
  plan.add({site, kind, victim, /*nth_visit=*/1, /*delay_ms=*/2.0});
  machine.install_fault_plan(&plan);

  SweepResult res;
  std::vector<std::atomic<int>> outcome(kP);
  const auto t0 = std::chrono::steady_clock::now();
  try {
    machine.run([&](rt::Process& p) {
      auto& mine = outcome[static_cast<std::size_t>(p.rank())];
      try {
        exercise(p);
        mine.store(static_cast<int>(Outcome::kCompleted));
      } catch (const chaos::FaultInjected&) {
        mine.store(static_cast<int>(Outcome::kInjected));
        throw;
      } catch (const chaos::MachineTimeout&) {
        mine.store(static_cast<int>(Outcome::kTimeout));
        throw;
      } catch (const chaos::MachinePoisoned&) {
        mine.store(static_cast<int>(Outcome::kPoisoned));
        throw;
      } catch (const std::bad_alloc&) {
        mine.store(static_cast<int>(Outcome::kAllocFailed));
        throw;
      } catch (...) {
        mine.store(static_cast<int>(Outcome::kOther));
        throw;
      }
    });
  } catch (...) {
    res.run_threw = true;
  }
  res.wall_sec = std::chrono::duration<f64>(std::chrono::steady_clock::now() -
                                            t0)
                     .count();
  res.fired = plan.fired();
  res.per_rank.resize(kP);
  for (int r = 0; r < kP; ++r) {
    res.per_rank[static_cast<std::size_t>(r)] =
        static_cast<Outcome>(outcome[static_cast<std::size_t>(r)].load());
  }
  return res;
}

constexpr rt::FaultSite kSites[] = {
    rt::FaultSite::BarrierArrive,
    rt::FaultSite::BlackboardPublish,
    rt::FaultSite::Alltoall,
    rt::FaultSite::AlltoallvFlat,
};
static_assert(std::size(kSites) == rt::kFaultSiteCount);
constexpr rt::FaultKind kKinds[] = {
    rt::FaultKind::Throw,
    rt::FaultKind::Delay,
    rt::FaultKind::AllocFail,
    rt::FaultKind::Stall,
    rt::FaultKind::Permanent,
};

}  // namespace

// The sweep: every site x kind x victim rank. 80 independent runs;
// each must terminate with the expected per-rank outcome vector.
TEST(FaultSweep, EverySiteKindRankTerminatesWithTypedErrors) {
  // Long enough to never fire spuriously on a loaded/sanitized host, short
  // enough that the 16 stall cases keep the sweep in CI budget.
  constexpr f64 kStallDeadlineSec = 0.5;
  for (const rt::FaultSite site : kSites) {
    for (const rt::FaultKind kind : kKinds) {
      for (int victim = 0; victim < kP; ++victim) {
        SCOPED_TRACE(std::string("site=") + rt::fault_site_name(site) +
                     " kind=" + rt::fault_kind_name(kind) +
                     " victim=" + std::to_string(victim));
        const f64 deadline =
            kind == rt::FaultKind::Stall ? kStallDeadlineSec : 0.0;
        const SweepResult res = run_case(site, kind, victim, deadline);
        ASSERT_EQ(res.fired, 1);

        if (kind == rt::FaultKind::Delay) {
          // Delays perturb wall-clock scheduling only: the run completes.
          EXPECT_FALSE(res.run_threw);
          for (int r = 0; r < kP; ++r) {
            EXPECT_EQ(res.per_rank[static_cast<std::size_t>(r)],
                      Outcome::kCompleted)
                << "rank " << r << " observed "
                << outcome_name(res.per_rank[static_cast<std::size_t>(r)]);
          }
          continue;
        }

        // A real fault: the run rethrows, the victim sees its own fault
        // kind, and every surviving rank is released with a typed error —
        // nobody completes (the closing barrier needs the victim) and
        // nobody is left hanging (kNone would mean a deadlocked rank whose
        // outcome store never ran).
        EXPECT_TRUE(res.run_threw);
        const Outcome expected_victim =
            kind == rt::FaultKind::Throw ||
                    kind == rt::FaultKind::Permanent
                ? Outcome::kInjected
            : kind == rt::FaultKind::AllocFail ? Outcome::kAllocFailed
                                               : Outcome::kPoisoned;
        EXPECT_EQ(res.per_rank[static_cast<std::size_t>(victim)],
                  expected_victim)
            << "victim observed "
            << outcome_name(res.per_rank[static_cast<std::size_t>(victim)]);
        for (int r = 0; r < kP; ++r) {
          if (r == victim) continue;
          const Outcome o = res.per_rank[static_cast<std::size_t>(r)];
          EXPECT_TRUE(o == Outcome::kPoisoned || o == Outcome::kTimeout)
              << "surviving rank " << r << " observed " << outcome_name(o);
        }
        if (kind == rt::FaultKind::Stall) {
          // Detection latency is bounded: the watchdog fires one deadline
          // after the stall, plus generous scheduling slack for sanitizer
          // builds. A deadlock would blow well past this (and the ctest
          // per-test TIMEOUT backstops the whole sweep).
          EXPECT_LT(res.wall_sec, kStallDeadlineSec + 10.0);
        }
      }
    }
  }
}

TEST(FaultPlan, PermanentFiresOnEveryVisitFromTheNthOnward) {
  // The kind that models an unrecoverable rank: unlike Throw (exactly the
  // Nth visit), Permanent keeps detonating on every later visit too, so a
  // supervisor's retries can never sneak a clean pass through. Visit
  // counters are cumulative across runs: with nth_visit=2, run 1 survives
  // visit 1 and dies at visit 2; every subsequent run dies at its first
  // visit. A Throw spec would let runs 2 and 3 complete.
  rt::Machine machine(2);
  rt::FaultPlan plan(2);
  plan.add({rt::FaultSite::BarrierArrive, rt::FaultKind::Permanent,
            /*rank=*/1, /*nth_visit=*/2});
  machine.install_fault_plan(&plan);
  for (int run = 0; run < 3; ++run) {
    bool injected = false;
    try {
      machine.run([](rt::Process& p) {
        rt::barrier(p);
        rt::barrier(p);
        rt::barrier(p);
      });
    } catch (const chaos::FaultInjected& f) {
      injected = true;
      EXPECT_EQ(f.rank, 1);
      EXPECT_EQ(f.site, static_cast<int>(rt::FaultSite::BarrierArrive));
    }
    EXPECT_TRUE(injected) << "run " << run << " should have been killed";
    machine.recover();
  }
  EXPECT_EQ(plan.fired(), 3);
  machine.install_fault_plan(nullptr);
  EXPECT_EQ(std::string(rt::fault_kind_name(rt::FaultKind::Permanent)),
            "permanent");
}

TEST(FaultPlan, VisitCountersAreDeterministicAcrossRuns) {
  rt::Machine machine(kP);
  rt::FaultPlan plan(kP);  // armed but empty: counts visits, never fires
  machine.install_fault_plan(&plan);

  std::vector<u64> first;
  for (int pass = 0; pass < 2; ++pass) {
    plan.reset();
    machine.run(exercise);
    std::vector<u64> counts;
    for (int s = 0; s < rt::kFaultSiteCount; ++s) {
      for (int r = 0; r < kP; ++r) {
        counts.push_back(plan.visits(static_cast<rt::FaultSite>(s), r));
      }
    }
    if (pass == 0) {
      first = counts;
      // The exercise body visits every site on every rank at least once.
      for (const u64 c : counts) EXPECT_GE(c, 1u);
    } else {
      EXPECT_EQ(counts, first);
    }
  }
  EXPECT_EQ(plan.fired(), 0);
}

TEST(FaultPlan, SeededDelaysAreDeterministic) {
  // delay_ms <= 0 asks for a seeded duration; same seed => same schedule,
  // so two runs produce identical fired tallies and identical results.
  for (int pass = 0; pass < 2; ++pass) {
    rt::Machine machine(kP);
    rt::FaultPlan plan(kP, /*seed=*/12345);
    plan.add({rt::FaultSite::Alltoall, rt::FaultKind::Delay, /*rank=*/-1,
              /*nth_visit=*/1, /*delay_ms=*/0.0});
    machine.install_fault_plan(&plan);
    machine.run(exercise);
    EXPECT_EQ(plan.fired(), kP);  // rank -1 arms every rank
    EXPECT_EQ(machine.total_stats().faults_injected, static_cast<i64>(kP));
  }
}

TEST(Deadline, BarrierWatchdogNamesTheMissingRank) {
  rt::Machine machine(kP);
  machine.set_deadline_sec(0.25);
  bool timed_out = false;
  try {
    machine.run([](rt::Process& p) {
      if (p.rank() == 3) return;  // never arrives at the barrier
      rt::barrier(p);
    });
  } catch (const chaos::MachineTimeout& t) {
    timed_out = true;
    ASSERT_EQ(t.missing_ranks.size(), 1u);
    EXPECT_EQ(t.missing_ranks[0], 3);
    EXPECT_EQ(t.epoch, 1u);  // first barrier pass
    EXPECT_NE(std::string(t.what()).find("missing ranks: 3"),
              std::string::npos);
  }
  EXPECT_TRUE(timed_out);
  EXPECT_GE(machine.total_stats().timeouts, 1);
}

TEST(Deadline, DelayLongerThanDeadlineBecomesTimeout) {
  rt::Machine machine(2);
  machine.set_deadline_sec(0.2);
  rt::FaultPlan plan(2);
  plan.add({rt::FaultSite::BarrierArrive, rt::FaultKind::Delay, /*rank=*/1,
            /*nth_visit=*/1, /*delay_ms=*/1500.0});
  machine.install_fault_plan(&plan);
  EXPECT_THROW(machine.run([](rt::Process& p) { rt::barrier(p); }),
               chaos::MachineTimeout);
  EXPECT_EQ(machine.total_stats().faults_injected, 1);
  EXPECT_GE(machine.total_stats().timeouts, 1);
}

TEST(Deadline, MachineIsReusableAfterTimeoutAndFaults) {
  rt::Machine machine(kP);
  machine.set_deadline_sec(0.3);
  rt::FaultPlan plan(kP);
  plan.add({rt::FaultSite::Alltoall, rt::FaultKind::Stall, /*rank=*/2});
  machine.install_fault_plan(&plan);
  EXPECT_THROW(machine.run(exercise), chaos::ChaosError);
  EXPECT_GE(machine.total_stats().faults_injected, 1);

  // Disarm everything; the same machine must run clean with fresh counters.
  machine.install_fault_plan(nullptr);
  machine.set_deadline_sec(0.0);
  machine.run(exercise);
  EXPECT_EQ(machine.total_stats().faults_injected, 0);
  EXPECT_EQ(machine.total_stats().timeouts, 0);
  EXPECT_EQ(machine.total_stats().poisoned_waits, 0);
  EXPECT_FALSE(rt::fault_alloc_fail_armed());
}

TEST(FaultPlan, UninstalledPlanLeavesModeledClocksByteIdentical) {
  // The zero-overhead contract in miniature (ablation_faults gates the full
  // version): an armed-but-never-firing plan and no plan at all produce
  // bit-identical virtual clocks, because fault machinery never charges
  // modeled time.
  auto run_once = [](bool arm) {
    rt::Machine machine(kP);
    rt::FaultPlan plan(kP);
    if (arm) machine.install_fault_plan(&plan);
    machine.run(exercise);
    return machine.max_virtual_time_us();
  };
  const f64 bare = run_once(false);
  const f64 armed = run_once(true);
  EXPECT_EQ(bare, armed);
  EXPECT_GT(bare, 0.0);
}

TEST(FaultPlan, ThrowAtTheSameVisitNeverLeaksAnArmedAllocFail) {
  // Regression for the armed-flag scope guard: an AllocFail spec arms during
  // the spec loop, then a Throw spec at the SAME (site, rank, visit) unwinds
  // on_visit before the allocator probe runs. The guard must disarm the
  // thread-local on that unwind path. In this hooked binary the flag may
  // also be consumed by the exception's own construction; either way,
  // nothing is allowed to survive into later allocations or later visits.
  rt::Machine machine(2);
  rt::FaultPlan plan(2);
  plan.add({rt::FaultSite::BarrierArrive, rt::FaultKind::AllocFail,
            /*rank=*/0, /*nth_visit=*/1});
  plan.add({rt::FaultSite::BarrierArrive, rt::FaultKind::Throw, /*rank=*/0,
            /*nth_visit=*/1});
  machine.install_fault_plan(&plan);
  EXPECT_ANY_THROW(machine.run([](rt::Process& p) { rt::barrier(p); }));
  // Rank 0 runs inline on this thread: a leaked flag would detonate the
  // next allocation (hooked binaries) or the next visit's probe (plain).
  EXPECT_FALSE(rt::fault_alloc_fail_armed());
  std::vector<int> alloc_probe(1024, 7);
  EXPECT_EQ(alloc_probe.back(), 7);
  // Second run with the plan STILL installed: visit 2 matches no spec and
  // must run clean — in a plain binary a leaked flag would only fire here.
  machine.run([](rt::Process& p) { rt::barrier(p); });
  machine.install_fault_plan(nullptr);
  EXPECT_FALSE(rt::fault_alloc_fail_armed());
}

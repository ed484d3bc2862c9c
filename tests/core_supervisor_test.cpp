// Supervised recovery (DESIGN.md §11): retry classification, deterministic
// backoff, the Supervisor's run/classify/recover/retry loop, and the
// exception-safety contracts that make a retried attempt sound — exchange_csr
// leaves its outputs explicitly invalid (never half-written), a localize that
// dies mid-exchange leaves workspace + translation cache resumable with the
// retry bit-identical to a clean run, and a half-built plan refuses to
// execute. This binary deliberately has NO operator-new hook: the AllocFail
// armed-flag regression below exercises the plain-binary unwind path, where a
// leaked flag would detonate at the NEXT injection-site visit.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <stdexcept>
#include <vector>

#include "core/forall.hpp"
#include "core/inspector.hpp"
#include "core/schedule.hpp"
#include "core/supervisor.hpp"
#include "dist/darray.hpp"
#include "dist/distribution.hpp"
#include "dist/translation_cache.hpp"
#include "rt/collectives.hpp"
#include "rt/fault.hpp"
#include "rt/machine.hpp"
#include "rt/retry.hpp"

namespace rt = chaos::rt;
namespace core = chaos::core;
namespace dist = chaos::dist;
using chaos::f64;
using chaos::i64;
using chaos::u64;

namespace {

template <typename Make>
std::exception_ptr capture(Make&& make) {
  try {
    throw make();
  } catch (...) {
    return std::current_exception();
  }
}

}  // namespace

// --- retry classification ----------------------------------------------------

TEST(RetryPolicy, TransientErrorsAreRetryable) {
  EXPECT_TRUE(rt::is_retryable(
      capture([] { return chaos::FaultInjected("injected"); })));
  EXPECT_TRUE(rt::is_retryable(capture(
      [] { return chaos::MachineTimeout("late", {2}, 7, 123.0); })));
  EXPECT_TRUE(rt::is_retryable(
      capture([] { return chaos::MachinePoisoned("sibling died"); })));
  EXPECT_TRUE(rt::is_retryable(capture([] { return std::bad_alloc{}; })));
}

TEST(RetryPolicy, DeterministicBreakageIsFatal) {
  // The ChaosError base is a violated invariant (CHAOS_CHECK) — retrying
  // replays the same deterministic failure, so the supervisor must rethrow.
  EXPECT_FALSE(
      rt::is_retryable(capture([] { return chaos::ChaosError("check"); })));
  EXPECT_FALSE(rt::is_retryable(capture([] {
    return core::ScheduleInvalid("bad plan",
                                 core::ScheduleErrorCode::PrefixNonMonotone,
                                 3);
  })));
  EXPECT_FALSE(rt::is_retryable(
      capture([] { return std::logic_error("program bug"); })));
  EXPECT_FALSE(rt::is_retryable(std::exception_ptr{}));
}

// --- backoff -----------------------------------------------------------------

TEST(RetryPolicy, BackoffIsDeterministicJitteredAndCapped) {
  const rt::RetryPolicy policy{.max_attempts = 8,
                               .base_backoff_ms = 1.0,
                               .multiplier = 2.0,
                               .max_backoff_ms = 16.0};
  EXPECT_EQ(policy.backoff_ms(0), 0.0);
  // Deterministic: the jitter is seeded, not sampled.
  for (int n = 1; n <= 8; ++n) {
    EXPECT_EQ(policy.backoff_ms(n), policy.backoff_ms(n));
  }
  // Jitter multiplies the exponential step by [0.5, 1.5); the cap bounds
  // the step itself, so every value sits in [0.5 * step, 1.5 * cap).
  f64 step = 1.0;
  for (int n = 1; n <= 8; ++n) {
    const f64 expect = std::min(step, 16.0);
    const f64 got = policy.backoff_ms(n);
    EXPECT_GE(got, 0.5 * expect) << "attempt " << n;
    EXPECT_LT(got, 1.5 * expect) << "attempt " << n;
    step *= 2.0;
  }
  // A different seed moves the jitter but keeps the bounds.
  rt::RetryPolicy other = policy;
  other.jitter_seed = 0x1234u;
  EXPECT_NE(other.backoff_ms(1), policy.backoff_ms(1));
  EXPECT_GE(other.backoff_ms(1), 0.5);
  EXPECT_LT(other.backoff_ms(1), 1.5);
}

// --- the supervisor loop -----------------------------------------------------

namespace {
const rt::RetryPolicy kFastRetry{.max_attempts = 3,
                                 .base_backoff_ms = 0.01,
                                 .multiplier = 2.0,
                                 .max_backoff_ms = 0.05};
}  // namespace

TEST(Supervisor, RejectsAPolicyWithZeroAttempts) {
  rt::Machine machine(2);
  EXPECT_THROW(core::Supervisor(machine, rt::RetryPolicy{.max_attempts = 0}),
               chaos::ChaosError);
}

TEST(Supervisor, RetriesTransientFaultAndRecovers) {
  rt::Machine machine(4);
  rt::FaultPlan plan(4);
  plan.add({rt::FaultSite::BarrierArrive, rt::FaultKind::Throw, /*rank=*/2,
            /*nth_visit=*/1});
  machine.install_fault_plan(&plan);
  core::Supervisor sup(machine, kFastRetry);
  std::atomic<int> completions{0};
  sup.run_phase("phase", [&](rt::Process& p) {
    rt::barrier(p);
    if (p.rank() == 0) completions.fetch_add(1, std::memory_order_relaxed);
  });
  machine.install_fault_plan(nullptr);
  EXPECT_EQ(completions.load(), 1);
  EXPECT_EQ(plan.fired(), 1);
  EXPECT_EQ(sup.stats().phases, 1);
  EXPECT_EQ(sup.stats().attempts, 2);
  EXPECT_EQ(sup.stats().retries, 1);
  EXPECT_EQ(sup.stats().recoveries, 1);
  EXPECT_EQ(sup.stats().gave_up, 0);
  EXPECT_GT(sup.stats().backoff_wall_ms, 0.0);
}

TEST(Supervisor, ExhaustsAttemptsThenEscalatesToPermanentFault) {
  rt::Machine machine(4);
  rt::FaultPlan plan(4);
  // One spec per attempt: visit counters are cumulative across runs, so
  // visits 1, 2, 3 of rank 1 fail attempts 1, 2, 3 respectively. Exhausting
  // the budget must NOT rethrow the bare FaultInjected — the supervisor
  // reclassifies the fault as permanent and names the dead rank + site so
  // the caller can degrade (DESIGN.md §13).
  for (u64 visit = 1; visit <= 3; ++visit) {
    plan.add({rt::FaultSite::BarrierArrive, rt::FaultKind::Throw, /*rank=*/1,
              visit});
  }
  machine.install_fault_plan(&plan);
  core::Supervisor sup(machine, kFastRetry);
  bool escalated = false;
  try {
    sup.run_phase("phase", [](rt::Process& p) { rt::barrier(p); });
  } catch (const chaos::PermanentFault& pf) {
    escalated = true;
    EXPECT_EQ(pf.rank, 1);
    EXPECT_EQ(pf.site, static_cast<int>(rt::FaultSite::BarrierArrive));
    EXPECT_NE(std::string(pf.what()).find("phase"), std::string::npos);
  }
  EXPECT_TRUE(escalated);
  machine.install_fault_plan(nullptr);
  EXPECT_EQ(sup.stats().attempts, 3);
  EXPECT_EQ(sup.stats().retries, 2);
  EXPECT_EQ(sup.stats().gave_up, 1);
  EXPECT_EQ(sup.stats().phases, 0);
  EXPECT_EQ(sup.stats().recoveries, 0);
  // The escalation path recovers too: the caller keeps a clean machine.
  EXPECT_FALSE(machine.is_poisoned());
  machine.run([](rt::Process& p) {
    EXPECT_EQ(rt::allreduce_sum(p, i64{p.rank() + 1}), 10);
  });
}

TEST(Supervisor, PermanentFaultIsNotRetryableByANestedSupervisor) {
  // The escalation must not loop: a PermanentFault caught by an outer
  // supervision layer classifies as fatal, not transient.
  EXPECT_FALSE(rt::is_retryable(
      capture([] { return chaos::PermanentFault("dead", 3, 0); })));
}

TEST(Supervisor, FatalErrorsAreNotRetried) {
  rt::Machine machine(4);
  core::Supervisor sup(machine, rt::RetryPolicy{.max_attempts = 5});
  EXPECT_THROW(sup.run_phase("phase",
                             [](rt::Process& p) {
                               if (p.rank() == 3) {
                                 throw chaos::ChaosError("deterministic bug");
                               }
                               rt::barrier(p);
                             }),
               chaos::ChaosError);
  EXPECT_EQ(sup.stats().attempts, 1);
  EXPECT_EQ(sup.stats().retries, 0);
  EXPECT_EQ(sup.stats().gave_up, 1);
}

TEST(Supervisor, DrainsInFlightMessagesOfTheFailedAttempt) {
  rt::Machine machine(4);
  rt::FaultPlan plan(4);
  plan.add({rt::FaultSite::BarrierArrive, rt::FaultKind::Throw, /*rank=*/2,
            /*nth_visit=*/1});
  machine.install_fault_plan(&plan);
  core::Supervisor sup(machine, kFastRetry);
  sup.run_phase("phase", [](rt::Process& p) {
    // Attempt 1 parks two undelivered messages before rank 2 fails at the
    // barrier; the retry re-sends and this time rank 0 consumes them.
    if (p.rank() == 1) {
      p.send_value<int>(0, /*tag=*/9, 41);
      p.send_value<int>(0, /*tag=*/9, 42);
    }
    rt::barrier(p);
    if (p.rank() == 0) {
      EXPECT_EQ(p.recv_value<int>(1, 9), 41);
      EXPECT_EQ(p.recv_value<int>(1, 9), 42);
    }
  });
  machine.install_fault_plan(nullptr);
  EXPECT_EQ(sup.stats().retries, 1);
  EXPECT_EQ(sup.stats().messages_drained, 2);
  // The per-shard breakdown names exactly WHICH pair was mid-flight: both
  // undelivered messages sat in rank 0's mailbox shard for source rank 1.
  EXPECT_EQ(sup.stats().dirty_shards, 1);
  ASSERT_EQ(sup.last_dirty_shards().size(), 1u);
  EXPECT_EQ(sup.last_dirty_shards()[0].dest, 0);
  EXPECT_EQ(sup.last_dirty_shards()[0].source, 1);
  EXPECT_EQ(sup.last_dirty_shards()[0].messages, 2);
}

TEST(Supervisor, ThrowWithArmedAllocFailRetriesExactlyOnce) {
  // Regression for the AllocFail scope guard (rt/fault.cpp): the AllocFail
  // spec ARMS during the spec loop, then the Throw spec at the SAME visit
  // unwinds before the allocator probe runs. Without the guard the armed
  // thread-local leaks past the unwind and detonates at the victim's next
  // site visit — here that would fail attempt 2 as well, making retries 2.
  rt::Machine machine(2);
  rt::FaultPlan plan(2);
  plan.add({rt::FaultSite::BarrierArrive, rt::FaultKind::AllocFail,
            /*rank=*/0, /*nth_visit=*/1});
  plan.add({rt::FaultSite::BarrierArrive, rt::FaultKind::Throw, /*rank=*/0,
            /*nth_visit=*/1});
  machine.install_fault_plan(&plan);
  core::Supervisor sup(machine, rt::RetryPolicy{.max_attempts = 4,
                                                .base_backoff_ms = 0.01,
                                                .multiplier = 2.0,
                                                .max_backoff_ms = 0.05});
  sup.run_phase("phase", [](rt::Process& p) { rt::barrier(p); });
  machine.install_fault_plan(nullptr);
  // Rank 0 runs inline on this thread: the flag must be gone, and a clean
  // allocation must succeed.
  EXPECT_FALSE(rt::fault_alloc_fail_armed());
  std::vector<int> alloc_probe(1024, 7);
  EXPECT_EQ(alloc_probe.back(), 7);
  EXPECT_EQ(sup.stats().attempts, 2);
  EXPECT_EQ(sup.stats().retries, 1);
}

// --- exchange_csr exception safety -------------------------------------------

TEST(ExchangeCsr, OutputsAreExplicitlyInvalidWhenThePayloadRoundFaults) {
  constexpr int kProcs = 4;
  constexpr int kVictim = 2;
  rt::Machine machine(kProcs);
  rt::FaultPlan plan(kProcs);
  // The counts alltoall completes; the fault lands at the payload round, so
  // recv_offsets is already prefixed and recv resized — the dangerous
  // half-written window the clear-on-unwind contract exists for.
  plan.add({rt::FaultSite::AlltoallvFlat, rt::FaultKind::Throw, kVictim,
            /*nth_visit=*/1});
  machine.install_fault_plan(&plan);
  EXPECT_THROW(
      machine.run([&](rt::Process& p) {
        const auto np = static_cast<std::size_t>(p.nprocs());
        std::vector<i64> send(np, p.rank());
        std::vector<i64> soff(np + 1);
        for (std::size_t r = 0; r <= np; ++r) soff[r] = static_cast<i64>(r);
        std::vector<i64> recv{99, 99};          // sentinel: must be cleared
        std::vector<i64> roff{7, 7, 7};
        std::vector<i64> scratch;
        try {
          rt::exchange_csr<i64>(p, send, soff, recv, roff, scratch);
        } catch (...) {
          // Every rank's outputs — the victim's and the poisoned peers' —
          // must be empty, never the half-written exchange.
          EXPECT_TRUE(recv.empty()) << "rank " << p.rank();
          EXPECT_TRUE(roff.empty()) << "rank " << p.rank();
          throw;
        }
        ADD_FAILURE() << "rank " << p.rank() << " completed the exchange";
      }),
      chaos::FaultInjected);
  machine.install_fault_plan(nullptr);
  EXPECT_EQ(plan.fired(), 1);

  // Same buffers, clean machine: the exchange completes and refills them.
  machine.run([&](rt::Process& p) {
    const auto np = static_cast<std::size_t>(p.nprocs());
    std::vector<i64> send(np, p.rank());
    std::vector<i64> soff(np + 1);
    for (std::size_t r = 0; r <= np; ++r) soff[r] = static_cast<i64>(r);
    std::vector<i64> recv, roff, scratch;
    rt::exchange_csr<i64>(p, send, soff, recv, roff, scratch);
    ASSERT_EQ(recv.size(), np);
    for (std::size_t r = 0; r < np; ++r) {
      EXPECT_EQ(recv[r], static_cast<i64>(r));
    }
  });
}

// --- workspace + cache resumability ------------------------------------------

namespace {

struct LocalizeState {
  core::InspectorWorkspace ws;
  core::Localized out;
  std::unique_ptr<dist::TranslationCache> cache;
  std::vector<i64> refs;
};

void expect_same_localized(const core::Localized& got,
                           const core::Localized& want, int rank) {
  EXPECT_EQ(got.refs, want.refs) << "rank " << rank;
  EXPECT_EQ(got.off_process_refs, want.off_process_refs) << "rank " << rank;
  EXPECT_EQ(got.schedule.send_indices, want.schedule.send_indices)
      << "rank " << rank;
  EXPECT_EQ(got.schedule.send_offsets, want.schedule.send_offsets)
      << "rank " << rank;
  EXPECT_EQ(got.schedule.recv_offsets, want.schedule.recv_offsets)
      << "rank " << rank;
  EXPECT_EQ(got.schedule.nghost, want.schedule.nghost) << "rank " << rank;
}

}  // namespace

TEST(Recovery, LocalizeRetryAfterMidExchangeFaultIsBitIdenticalToClean) {
  constexpr int kProcs = 4;
  constexpr int kVictim = 1;
  constexpr i64 kN = 96;
  rt::Machine machine(kProcs);

  // An irregular distribution (engages the translation cache) shared by the
  // three runs below.
  std::vector<std::shared_ptr<const dist::Distribution>> dists(kProcs);
  machine.run([&](rt::Process& p) {
    auto md = dist::Distribution::block(p, kN);
    std::vector<i64> owner(static_cast<std::size_t>(md->my_local_size()));
    for (std::size_t l = 0; l < owner.size(); ++l) {
      const i64 g = md->global_of(p.rank(), static_cast<i64>(l));
      owner[l] = (g * 3 + 1) % kProcs;
    }
    dists[static_cast<std::size_t>(p.rank())] =
        dist::Distribution::irregular_from_map(p, owner, *md,
                                               /*page_size=*/16);
  });

  auto init = [&](std::vector<LocalizeState>& st) {
    st.resize(kProcs);
    for (int r = 0; r < kProcs; ++r) {
      st[static_cast<std::size_t>(r)].cache =
          std::make_unique<dist::TranslationCache>(256);
      st[static_cast<std::size_t>(r)].ws.configure(core::PlanOptions{
          .translation_cache = st[static_cast<std::size_t>(r)].cache.get()});
      for (i64 i = 0; i < 48; ++i) {  // duplicates + off-process references
        st[static_cast<std::size_t>(r)].refs.push_back(
            (static_cast<i64>(r) * 5 + i * 7) % kN);
      }
    }
  };
  std::vector<LocalizeState> clean_st, retry_st;
  init(clean_st);
  init(retry_st);
  auto localize_body = [&](std::vector<LocalizeState>& st) {
    return [&](rt::Process& p) {
      auto& s = st[static_cast<std::size_t>(p.rank())];
      core::localize(p, *dists[static_cast<std::size_t>(p.rank())], s.refs,
                     s.ws, s.out);
    };
  };

  // Clean baseline, with a spec-less plan installed purely to COUNT the
  // victim's site visits — the last AlltoallvFlat visit is the phase-5
  // exchange's payload round, after the cache insertions were staged.
  rt::FaultPlan counting_plan(kProcs);
  machine.install_fault_plan(&counting_plan);
  machine.run(localize_body(clean_st));
  machine.install_fault_plan(nullptr);
  const f64 clean_clock = machine.max_virtual_time_us();
  const u64 payload_visit =
      counting_plan.visits(rt::FaultSite::AlltoallvFlat, kVictim);
  ASSERT_GE(payload_visit, 1u);

  // Aborted attempt: the fault lands mid-exchange, after staging.
  rt::FaultPlan plan(kProcs);
  plan.add({rt::FaultSite::AlltoallvFlat, rt::FaultKind::Throw, kVictim,
            payload_visit});
  machine.install_fault_plan(&plan);
  EXPECT_THROW(machine.run(localize_body(retry_st)), chaos::FaultInjected);
  machine.install_fault_plan(nullptr);
  EXPECT_EQ(plan.fired(), 1);
  auto& victim = retry_st[static_cast<std::size_t>(kVictim)];
  // The aborted attempt's cache insertions are quarantined, not published,
  // and the victim's schedule outputs were cleared by exchange_csr.
  EXPECT_GT(victim.cache->staged(), 0);
  EXPECT_EQ(victim.cache->stats().insertions, 0);
  EXPECT_TRUE(victim.out.schedule.send_indices.empty());

  // Retry through the SAME workspaces, caches, and outputs: modeled clock
  // and every output must match the clean run bit for bit (the staged
  // insertions are discarded on entry, so the miss vote matches too).
  machine.run(localize_body(retry_st));
  EXPECT_EQ(machine.max_virtual_time_us(), clean_clock);
  for (int r = 0; r < kProcs; ++r) {
    expect_same_localized(retry_st[static_cast<std::size_t>(r)].out,
                          clean_st[static_cast<std::size_t>(r)].out, r);
    EXPECT_EQ(retry_st[static_cast<std::size_t>(r)].cache->staged(), 0)
        << "rank " << r;
  }
}

// --- plan build validity -----------------------------------------------------

TEST(PlanBuildState, TracksGenerationsAndCompleteness) {
  core::PlanBuildState b;
  EXPECT_FALSE(b.ready());
  b.begin_build();
  EXPECT_FALSE(b.ready());
  EXPECT_EQ(b.generation, 1u);
  b.mark_built();
  EXPECT_TRUE(b.ready());
  b.begin_build();  // a rebuild in flight invalidates the plan again
  EXPECT_FALSE(b.ready());
  EXPECT_EQ(b.generation, 2u);
}

TEST(PlanBuildState, ExecuteRefusesAHalfBuiltPlan) {
  rt::Machine::run(2, [](rt::Process& p) {
    auto reg = dist::Distribution::block(p, 32);
    auto reg2 = dist::Distribution::block(p, 16);
    dist::DistributedArray<f64> x(p, reg, 1.0), y(p, reg, 0.0);
    std::vector<i64> e1, e2;
    for (i64 l = 0; l < reg2->my_local_size(); ++l) {
      const i64 g = reg2->global_of(p.rank(), l);
      e1.push_back(g % 32);
      e2.push_back((g * 2 + 1) % 32);
    }
    auto plan = core::EdgeReductionLoop::inspect(p, *reg2, e1, e2, *reg);
    const auto f = [](f64 a, f64 b) { return a + b; };
    core::EdgeReductionLoop::execute(p, *plan, x, y, f, f);  // built: fine
    const u64 gen = plan->build.generation;
    // An inspection that died mid-build leaves the plan not ready; the
    // check fires before any collective, so every rank refuses in lockstep.
    plan->build.begin_build();
    EXPECT_THROW(core::EdgeReductionLoop::execute(p, *plan, x, y, f, f),
                 chaos::ChaosError);
    plan->build.mark_built();
    core::EdgeReductionLoop::execute(p, *plan, x, y, f, f);
    EXPECT_EQ(plan->build.generation, gen + 1);
    // A default-constructed plan was never built at all.
    const core::EdgeLoopPlan unbuilt;
    EXPECT_THROW(core::EdgeReductionLoop::execute(p, unbuilt, x, y, f, f),
                 chaos::ChaosError);
  });
}

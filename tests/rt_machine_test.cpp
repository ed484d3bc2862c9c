// Unit tests for the virtual machine substrate: SPMD launch, determinism of
// virtual clocks, failure propagation, recovery, and the shrunken view.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include "rt/collectives.hpp"
#include "rt/machine.hpp"

namespace rt = chaos::rt;
using chaos::i64;

TEST(Machine, RunsEveryRankExactlyOnce) {
  std::atomic<int> count{0};
  std::array<std::atomic<int>, 8> seen{};
  rt::Machine::run(8, [&](rt::Process& p) {
    ++count;
    ++seen[static_cast<std::size_t>(p.rank())];
    EXPECT_EQ(p.nprocs(), 8);
  });
  EXPECT_EQ(count.load(), 8);
  for (const auto& s : seen) EXPECT_EQ(s.load(), 1);
}

TEST(Machine, SingleProcessRunsInline) {
  bool ran = false;
  rt::Machine::run(1, [&](rt::Process& p) {
    ran = true;
    EXPECT_TRUE(p.is_root());
    EXPECT_EQ(p.nprocs(), 1);
  });
  EXPECT_TRUE(ran);
}

TEST(Machine, VirtualTimeIsDeterministicAcrossRuns) {
  auto run_once = [] {
    rt::Machine machine(4);
    machine.run([](rt::Process& p) {
      std::vector<std::vector<i64>> send(4);
      for (int d = 0; d < 4; ++d) {
        send[static_cast<std::size_t>(d)].assign(
            static_cast<std::size_t>(p.rank() + d + 1), 7);
      }
      auto recv = rt::alltoallv(p, send);
      rt::barrier(p);
      (void)recv;
    });
    return machine.max_virtual_time_us();
  };
  const double t1 = run_once();
  const double t2 = run_once();
  EXPECT_GT(t1, 0.0);
  EXPECT_DOUBLE_EQ(t1, t2);
}

TEST(Machine, ExceptionInOneRankPropagatesAndReleasesOthers) {
  EXPECT_THROW(
      rt::Machine::run(4,
                       [](rt::Process& p) {
                         if (p.rank() == 2) throw chaos::ChaosError("boom");
                         // Other ranks head into a barrier and must be
                         // released by poisoning rather than deadlock.
                         p.barrier_sync_only();
                       }),
      chaos::ChaosError);
}

TEST(Machine, ThrowingRankReleasesPeerBlockedInBroadcast) {
  // The root of a broadcast dies before publishing: the peer waiting for
  // its value must come back with MachinePoisoned, not wait forever.
  std::atomic<bool> receiver_poisoned{false};
  EXPECT_THROW(
      rt::Machine::run(2,
                       [&](rt::Process& p) {
                         if (p.rank() == 1) throw chaos::ChaosError("boom");
                         try {
                           (void)rt::broadcast(p, i64{0}, /*root=*/1);
                         } catch (const chaos::MachinePoisoned&) {
                           receiver_poisoned = true;
                           throw;
                         }
                       }),
      chaos::ChaosError);
  EXPECT_TRUE(receiver_poisoned.load());
}

TEST(Machine, ThrowingRankReleasesPeersBlockedInAlltoallvFlat) {
  // Regression for the fault-injection PR: a rank dying BETWEEN collectives
  // leaves its peers inside alltoallv_flat's fused barrier phase, and each
  // of them must surface MachinePoisoned rather than wait for a publish
  // that will never happen.
  constexpr int P = 4;
  std::atomic<int> poisoned_peers{0};
  EXPECT_THROW(
      rt::Machine::run(P,
                       [&](rt::Process& p) {
                         if (p.rank() == 2) throw chaos::ChaosError("boom");
                         std::vector<i64> off(P + 1);
                         for (std::size_t i = 0; i < off.size(); ++i) {
                           off[i] = static_cast<i64>(i);
                         }
                         std::vector<double> send(P, 1.0), recv(P, 0.0);
                         try {
                           rt::alltoallv_flat<double>(p, send, off, recv, off);
                         } catch (const chaos::MachinePoisoned&) {
                           ++poisoned_peers;
                           throw;
                         }
                       }),
      chaos::ChaosError);
  EXPECT_EQ(poisoned_peers.load(), P - 1);
}

TEST(Machine, BackToBackRunsResetStatsAndClocks) {
  rt::Machine machine(2);
  machine.run([](rt::Process& p) {
    const std::vector<std::vector<i64>> out(2, {i64{p.rank()}});
    const auto in = rt::alltoallv<i64>(p, out);
    EXPECT_EQ(in[static_cast<std::size_t>(1 - p.rank())][0], 1 - p.rank());
  });
  EXPECT_EQ(machine.total_stats().messages_sent, 2);
  EXPECT_GT(machine.max_virtual_time_us(), 0.0);

  // An empty second run must start from scratch: no carried-over stats or
  // clocks.
  machine.run([](rt::Process& p) {
    EXPECT_EQ(p.stats().messages_sent, 0);
    EXPECT_DOUBLE_EQ(p.clock().now_us(), 0.0);
  });
  EXPECT_EQ(machine.total_stats().messages_sent, 0);
  EXPECT_EQ(machine.total_stats().barriers, 0);
  EXPECT_DOUBLE_EQ(machine.max_virtual_time_us(), 0.0);
}

namespace {

/// Leaves a 4-rank machine poisoned mid-collective: rank 0 has published a
/// pointer payload nobody read, ranks 1 and 2 wait in barriers, and rank 3
/// throws before arriving.
void poison_mid_collective(rt::Machine& machine) {
  EXPECT_THROW(machine.run([](rt::Process& p) {
    const std::vector<i64> payload(16, 7);
    if (p.rank() == 0) (void)rt::broadcast_vec(p, payload, /*root=*/0);
    if (p.rank() == 3) throw chaos::ChaosError("boom");
    p.barrier_sync_only();
  }),
               chaos::ChaosError);
}

void sum_ranks(rt::Process& p) {
  EXPECT_EQ(rt::allreduce_sum(p, i64{p.rank() + 1}), 10);
}

}  // namespace

TEST(Machine, ReusableAfterPoisonedRun) {
  rt::Machine machine(4);
  poison_mid_collective(machine);

  // The next run must see a clean machine: same results, traffic and
  // modeled time as the same body on a fresh one.
  machine.run(sum_ranks);
  rt::Machine fresh(4);
  fresh.run(sum_ranks);
  EXPECT_EQ(machine.total_stats().messages_sent,
            fresh.total_stats().messages_sent);
  EXPECT_EQ(machine.total_stats().barriers, fresh.total_stats().barriers);
  EXPECT_EQ(machine.total_stats().poisoned_waits, 0);
  EXPECT_EQ(machine.max_virtual_time_us(), fresh.max_virtual_time_us());
}

TEST(Machine, BarrierOrdersPlainWritesAcrossRanks) {
  // The combining barrier is the machine's memory fence: plain writes
  // published before a phase must be visible to every rank after it, for
  // many back-to-back phases (exercises the epoch/parity reuse protocol).
  constexpr int P = 16;
  constexpr int kRounds = 200;
  std::vector<int> shared(P, -1);
  rt::Machine::run(P, [&](rt::Process& p) {
    for (int round = 0; round < kRounds; ++round) {
      shared[static_cast<std::size_t>(p.rank())] = round;
      p.barrier_sync_only();
      for (int r = 0; r < P; ++r) {
        ASSERT_EQ(shared[static_cast<std::size_t>(r)], round);
      }
      p.barrier_sync_only();
    }
  });
}

TEST(Machine, OversubscribedBarrierNeverLosesAWakeup) {
  // Twice as many ranks as cores sets the spin and yield limits to 0, so
  // every waiter futex-sleeps on the release word. A release store ordered
  // after notify_all's waiter check would leave a rank asleep forever; the
  // ctest TIMEOUT turns that hang into a failure.
  const int P =
      2 * std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  constexpr int kBarriers = 100000;
  rt::Machine machine(P);
  machine.run([&](rt::Process& p) {
    for (int k = 0; k < kBarriers; ++k) p.barrier_sync_only();
  });
  EXPECT_EQ(machine.total_stats().barriers, static_cast<i64>(P) * kBarriers);
}

TEST(Machine, MachineReusableAfterRun) {
  rt::Machine machine(3);
  for (int round = 0; round < 3; ++round) {
    machine.run([&](rt::Process& p) {
      auto sum = rt::allreduce_sum(p, i64{p.rank() + 1});
      EXPECT_EQ(sum, 6);
    });
  }
}

TEST(Machine, CollectiveCounterIsUniqueAndAgreedUpon) {
  rt::Machine machine(4);
  machine.run([](rt::Process& p) {
    const auto a = rt::collective_counter(p);
    const auto b = rt::collective_counter(p);
    EXPECT_NE(a, b);
    // All ranks must see identical values.
    auto all_a = rt::allgather(p, a);
    auto all_b = rt::allgather(p, b);
    for (auto v : all_a) EXPECT_EQ(v, a);
    for (auto v : all_b) EXPECT_EQ(v, b);
  });
}

// --- post-poison recovery (DESIGN.md §11) ------------------------------------

TEST(Machine, RecoverClearsThePoisonOfAFailedRun) {
  rt::Machine machine(4);
  poison_mid_collective(machine);
  EXPECT_TRUE(machine.is_poisoned());
  machine.recover();
  EXPECT_FALSE(machine.is_poisoned());
  machine.run(sum_ranks);
}

TEST(Machine, RecoverOnACleanMachineIsANoOp) {
  rt::Machine machine(4);
  machine.recover();  // fresh machine: nothing to reset
  machine.run([](rt::Process& p) {
    const std::vector<i64> payload(16, p.rank());
    EXPECT_EQ(rt::broadcast_vec(p, payload, /*root=*/2)[0], 2);
    rt::barrier(p);
  });
  machine.recover();  // a clean run leaves nothing behind either
  EXPECT_FALSE(machine.is_poisoned());
  machine.run(sum_ranks);
}

// ---------------------------------------------------------------------------
// Shrunken active-rank view (graceful degradation)
// ---------------------------------------------------------------------------

TEST(Machine, ShrinkNarrowsBarrierAndCollectivesToTheSurvivors) {
  rt::Machine machine(8);
  machine.run([](rt::Process& p) { EXPECT_EQ(p.nprocs(), 8); });

  machine.shrink_to(5);
  EXPECT_EQ(machine.active_nprocs(), 5);
  EXPECT_EQ(machine.shrink_count(), 1);
  machine.run([](rt::Process& p) {
    EXPECT_EQ(p.nprocs(), 5);
    EXPECT_LT(p.rank(), 5);
    // Barrier, reduction, and alltoallv all span exactly the survivors.
    EXPECT_EQ(rt::allreduce_sum(p, i64{p.rank()}), 10);
    std::vector<std::vector<i64>> out(5);
    for (int d = 0; d < 5; ++d) out[static_cast<std::size_t>(d)] = {i64{p.rank()}};
    const auto in = rt::alltoallv<i64>(p, out);
    ASSERT_EQ(in.size(), 5u);
    for (int s = 0; s < 5; ++s) {
      ASSERT_EQ(in[static_cast<std::size_t>(s)].size(), 1u);
      EXPECT_EQ(in[static_cast<std::size_t>(s)][0], s);
    }
  });

  machine.restore_full_width();
  EXPECT_EQ(machine.active_nprocs(), 8);
  EXPECT_EQ(machine.shrink_count(), 1);  // restore is not a shrink
  machine.run([](rt::Process& p) {
    EXPECT_EQ(p.nprocs(), 8);
    EXPECT_EQ(rt::allreduce_sum(p, i64{1}), 8);
  });
}

TEST(Machine, ShrinkToOneRunsInlineOnTheCaller) {
  rt::Machine machine(4);
  machine.shrink_to(1);
  const auto caller = std::this_thread::get_id();
  machine.run([&](rt::Process& p) {
    EXPECT_EQ(p.nprocs(), 1);
    EXPECT_EQ(p.rank(), 0);
    EXPECT_EQ(std::this_thread::get_id(), caller);
    EXPECT_EQ(rt::allreduce_sum(p, i64{7}), 7);
  });
  machine.restore_full_width();
  machine.run([](rt::Process& p) { EXPECT_EQ(p.nprocs(), 4); });
}

TEST(Machine, RepeatedShrinksCountAndStack) {
  rt::Machine machine(8);
  machine.shrink_to(7);
  machine.shrink_to(6);
  machine.shrink_to(6);  // no-op: already at the requested width
  EXPECT_EQ(machine.active_nprocs(), 6);
  EXPECT_EQ(machine.shrink_count(), 2);
  machine.run([](rt::Process& p) {
    EXPECT_EQ(rt::allreduce_sum(p, i64{1}), 6);
  });
}

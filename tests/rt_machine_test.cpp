// Unit tests for the virtual machine substrate: SPMD launch, point-to-point
// messaging, determinism of virtual clocks, and failure propagation.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <numeric>
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

TEST(Machine, PointToPointRoundTrip) {
  rt::Machine::run(2, [](rt::Process& p) {
    if (p.rank() == 0) {
      std::vector<i64> payload{1, 2, 3, 42};
      p.send<i64>(1, /*tag=*/7, payload);
      auto back = p.recv<i64>(1, /*tag=*/8);
      ASSERT_EQ(back.size(), 1u);
      EXPECT_EQ(back[0], 48);
    } else {
      auto data = p.recv<i64>(0, 7);
      EXPECT_EQ(data, (std::vector<i64>{1, 2, 3, 42}));
      const i64 sum = std::accumulate(data.begin(), data.end(), i64{0});
      p.send_value<i64>(0, 8, sum);
    }
  });
}

TEST(Machine, MessagesFromSameSourceArriveInOrder) {
  rt::Machine::run(2, [](rt::Process& p) {
    constexpr int kMessages = 64;
    if (p.rank() == 0) {
      for (int i = 0; i < kMessages; ++i) p.send_value<int>(1, 3, i);
    } else {
      for (int i = 0; i < kMessages; ++i) {
        EXPECT_EQ(p.recv_value<int>(0, 3), i);
      }
    }
  });
}

TEST(Machine, TagsAreMatchedIndependently) {
  rt::Machine::run(2, [](rt::Process& p) {
    if (p.rank() == 0) {
      p.send_value<int>(1, /*tag=*/1, 100);
      p.send_value<int>(1, /*tag=*/2, 200);
    } else {
      // Receive in the opposite order of sending.
      EXPECT_EQ(p.recv_value<int>(0, 2), 200);
      EXPECT_EQ(p.recv_value<int>(0, 1), 100);
    }
  });
}

TEST(Machine, SendChargesClockAndStats) {
  rt::Machine machine(2);
  machine.run([](rt::Process& p) {
    if (p.rank() == 0) {
      std::vector<double> payload(100, 1.0);
      p.send<double>(1, 0, payload);
      EXPECT_GT(p.clock().now_us(), 0.0);
      EXPECT_EQ(p.stats().messages_sent, 1);
      EXPECT_EQ(p.stats().bytes_sent, 800);
    } else {
      auto v = p.recv<double>(0, 0);
      EXPECT_EQ(v.size(), 100u);
      EXPECT_EQ(p.stats().messages_received, 1);
      EXPECT_EQ(p.stats().bytes_received, 800);
    }
  });
  EXPECT_EQ(machine.total_stats().messages_sent, 1);
  EXPECT_EQ(machine.total_stats().bytes_sent, 800);
  EXPECT_GT(machine.max_virtual_time_us(), 0.0);
}

TEST(Machine, ReceiverClockAdvancesToMessageReadyTime) {
  rt::Machine::run(2, [](rt::Process& p) {
    if (p.rank() == 0) {
      p.clock().charge(1e6);  // sender is far in the virtual future
      p.send_value<int>(1, 0, 1);
    } else {
      (void)p.recv_value<int>(0, 0);
      EXPECT_GE(p.clock().now_us(), 1e6);
    }
  });
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

TEST(Machine, ThrowingRankReleasesPeerBlockedInRecv) {
  // Regression: poison used to release only the barrier, so a peer blocked
  // in Mailbox::take (recv of a message that will never be sent) hung
  // forever. The mailbox condvars must be poisoned too, and the blocked
  // receiver must come back with MachinePoisoned.
  std::atomic<bool> receiver_poisoned{false};
  EXPECT_THROW(
      rt::Machine::run(2,
                       [&](rt::Process& p) {
                         if (p.rank() == 1) throw chaos::ChaosError("boom");
                         try {
                           (void)p.recv<int>(1, /*tag=*/0);
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
  // leaves its peers inside alltoallv_flat's fused barrier phase (not a
  // plain recv), and each of them must surface MachinePoisoned rather than
  // wait for a publish that will never happen.
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

TEST(Machine, BackToBackRunsResetStatsClocksAndMailboxes) {
  rt::Machine machine(2);
  machine.run([](rt::Process& p) {
    if (p.rank() == 0) {
      p.send_value<int>(1, 0, 11);
    } else {
      EXPECT_EQ(p.recv_value<int>(0, 0), 11);
    }
  });
  EXPECT_EQ(machine.total_stats().messages_sent, 1);
  EXPECT_GT(machine.max_virtual_time_us(), 0.0);

  // An empty second run must start from scratch: no carried-over stats,
  // clocks, or queued messages.
  machine.run([](rt::Process& p) {
    EXPECT_EQ(p.stats().messages_sent, 0);
    EXPECT_EQ(p.machine().mailbox(p.rank()).pending(), 0u);
    EXPECT_DOUBLE_EQ(p.clock().now_us(), 0.0);
  });
  EXPECT_EQ(machine.total_stats().messages_sent, 0);
  EXPECT_EQ(machine.total_stats().barriers, 0);
  EXPECT_DOUBLE_EQ(machine.max_virtual_time_us(), 0.0);
}

TEST(Machine, ReusableAfterPoisonedRun) {
  rt::Machine machine(4);
  EXPECT_THROW(machine.run([](rt::Process& p) {
    // Rank 0 parks a message nobody consumes; rank 1 blocks on a receive
    // that never arrives; rank 3 fails. Poison must release everyone and
    // the next run must see a clean machine.
    if (p.rank() == 0) p.send_value<int>(2, /*tag=*/9, 1);
    if (p.rank() == 1) (void)p.recv<int>(3, /*tag=*/7);
    if (p.rank() == 3) throw chaos::ChaosError("boom");
    p.barrier_sync_only();
  }),
               chaos::ChaosError);

  machine.run([](rt::Process& p) {
    EXPECT_EQ(p.machine().mailbox(p.rank()).pending(), 0u);
    const auto sum = rt::allreduce_sum(p, i64{p.rank() + 1});
    EXPECT_EQ(sum, 10);
  });
  EXPECT_EQ(machine.total_stats().messages_sent, 0);
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

TEST(Machine, RecoverDrainsEveryMailboxShard) {
  constexpr int P = 4;
  rt::Machine machine(P);
  // Every rank parks one message in every other rank's box (all P*(P-1)
  // source shards populated), then rank 3 fails before anyone receives.
  EXPECT_THROW(machine.run([](rt::Process& p) {
                 for (int d = 0; d < p.nprocs(); ++d) {
                   if (d != p.rank()) p.send_value<int>(d, /*tag=*/5, p.rank());
                 }
                 if (p.rank() == 3) throw chaos::ChaosError("boom");
                 p.barrier_sync_only();
               }),
               chaos::ChaosError);
  EXPECT_TRUE(machine.is_poisoned());
  for (int d = 0; d < P; ++d) {
    for (int s = 0; s < P; ++s) {
      EXPECT_EQ(machine.mailbox(d).pending_from(s),
                s == d ? 0u : 1u)
          << "dest " << d << " source " << s;
    }
  }

  EXPECT_EQ(machine.recover(), P * (P - 1));
  EXPECT_FALSE(machine.is_poisoned());
  for (int d = 0; d < P; ++d) {
    EXPECT_EQ(machine.mailbox(d).pending(), 0u) << "dest " << d;
    for (int s = 0; s < P; ++s) {
      EXPECT_EQ(machine.mailbox(d).pending_from(s), 0u)
          << "dest " << d << " source " << s;
    }
  }
  machine.run([](rt::Process& p) {
    EXPECT_EQ(rt::allreduce_sum(p, i64{p.rank() + 1}), 10);
  });
}

TEST(Machine, StaleMessageIsNeverRedeliveredAfterRecover) {
  rt::Machine machine(2);
  // Run 1: rank 1's message is in flight when rank 0 dies before receiving.
  EXPECT_THROW(machine.run([](rt::Process& p) {
                 if (p.rank() == 1) p.send_value<int>(0, /*tag=*/5, 111);
                 if (p.rank() == 0) throw chaos::ChaosError("die first");
                 p.barrier_sync_only();
               }),
               chaos::ChaosError);
  EXPECT_EQ(machine.mailbox(0).pending_from(1), 1u);
  EXPECT_EQ(machine.recover(), 1);

  // Run 2 re-sends under the same (source, tag): the receive must see the
  // fresh payload, never the stale one from the poisoned run.
  machine.run([](rt::Process& p) {
    if (p.rank() == 1) p.send_value<int>(0, /*tag=*/5, 222);
    if (p.rank() == 0) EXPECT_EQ(p.recv_value<int>(1, 5), 222);
  });
  EXPECT_EQ(machine.mailbox(0).pending(), 0u);
}

TEST(Machine, RecoverOnACleanMachineIsANoOp) {
  rt::Machine machine(3);
  EXPECT_EQ(machine.recover(), 0);  // fresh machine: nothing to drain
  machine.run([](rt::Process& p) {
    if (p.rank() == 0) p.send_value<int>(1, 2, 9);
    if (p.rank() == 1) EXPECT_EQ(p.recv_value<int>(0, 2), 9);
    rt::barrier(p);
  });
  EXPECT_EQ(machine.recover(), 0);  // every message was consumed
  machine.run([](rt::Process& p) {
    EXPECT_EQ(rt::allreduce_sum(p, i64{1}), 3);
  });
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
  EXPECT_EQ(machine.recover(), 0);  // parked ranks sent nothing

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

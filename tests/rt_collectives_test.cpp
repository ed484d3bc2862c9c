// Collectives: correctness across process counts (parameterized sweep) and
// the BSP clock-synchronization contract.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <numeric>
#include <string>
#include <vector>

#include "rt/collectives.hpp"
#include "rt/machine.hpp"

namespace rt = chaos::rt;
using chaos::f64;
using chaos::i64;

class CollectivesSweep : public ::testing::TestWithParam<int> {};

INSTANTIATE_TEST_SUITE_P(ProcCounts, CollectivesSweep,
                         ::testing::Values(1, 2, 3, 4, 7, 8, 16),
                         [](const auto& info) {
                           return "P" + std::to_string(info.param);
                         });

TEST_P(CollectivesSweep, Barrier) {
  rt::Machine::run(GetParam(), [](rt::Process& p) {
    for (int i = 0; i < 4; ++i) rt::barrier(p);
    EXPECT_EQ(p.stats().collectives, 4);
  });
}

TEST_P(CollectivesSweep, BroadcastScalarAndVector) {
  const int P = GetParam();
  rt::Machine::run(P, [&](rt::Process& p) {
    const int root = P - 1;
    const i64 v = p.rank() == root ? 31337 : -1;
    EXPECT_EQ(rt::broadcast(p, v, root), 31337);

    std::vector<f64> payload;
    if (p.rank() == root) payload = {1.5, 2.5, 3.5};
    auto got = rt::broadcast_vec(p, payload, root);
    EXPECT_EQ(got, (std::vector<f64>{1.5, 2.5, 3.5}));
  });
}

TEST_P(CollectivesSweep, AllreduceSumMax) {
  const int P = GetParam();
  rt::Machine::run(P, [&](rt::Process& p) {
    const i64 r = p.rank();
    EXPECT_EQ(rt::allreduce_sum(p, r + 1), i64(P) * (P + 1) / 2);
    EXPECT_EQ(rt::allreduce_max(p, r), i64(P - 1));
  });
}

TEST_P(CollectivesSweep, Allgather) {
  const int P = GetParam();
  rt::Machine::run(P, [&](rt::Process& p) {
    auto all = rt::allgather(p, i64{10 * p.rank()});
    ASSERT_EQ(static_cast<int>(all.size()), P);
    for (int r = 0; r < P; ++r) EXPECT_EQ(all[static_cast<std::size_t>(r)], 10 * r);
  });
}

TEST_P(CollectivesSweep, AllgathervConcatenatesInRankOrder) {
  const int P = GetParam();
  rt::Machine::run(P, [&](rt::Process& p) {
    // Rank r contributes r elements, all equal to r.
    std::vector<i64> mine(static_cast<std::size_t>(p.rank()), p.rank());
    std::vector<i64> offsets;
    auto all = rt::allgatherv<i64>(p, mine, &offsets);
    ASSERT_EQ(static_cast<int>(offsets.size()), P + 1);
    for (int r = 0; r < P; ++r) {
      EXPECT_EQ(offsets[static_cast<std::size_t>(r) + 1] -
                    offsets[static_cast<std::size_t>(r)],
                r);
      for (i64 k = offsets[static_cast<std::size_t>(r)];
           k < offsets[static_cast<std::size_t>(r) + 1]; ++k) {
        EXPECT_EQ(all[static_cast<std::size_t>(k)], r);
      }
    }
  });
}

TEST_P(CollectivesSweep, AlltoallvTransposes) {
  const int P = GetParam();
  rt::Machine::run(P, [&](rt::Process& p) {
    // Rank r sends (r + d) % 3 copies of 100*r + d to rank d, so the segment
    // from s must hold (s + rank) % 3 copies of 100*s + rank.
    std::vector<i64> send;
    std::vector<i64> offsets{0};
    for (int d = 0; d < P; ++d) {
      send.insert(send.end(), static_cast<std::size_t>((p.rank() + d) % 3),
                  i64{100} * p.rank() + d);
      offsets.push_back(static_cast<i64>(send.size()));
    }
    std::vector<i64> recv, recv_offsets;
    rt::alltoallv<i64>(p, send, offsets, recv, recv_offsets);
    ASSERT_EQ(recv_offsets.size(), static_cast<std::size_t>(P) + 1);
    EXPECT_EQ(recv_offsets[0], 0);
    EXPECT_EQ(static_cast<i64>(recv.size()), recv_offsets.back());
    for (int s = 0; s < P; ++s) {
      const auto lo = recv_offsets[static_cast<std::size_t>(s)];
      const auto hi = recv_offsets[static_cast<std::size_t>(s) + 1];
      ASSERT_EQ(hi - lo, (s + p.rank()) % 3);
      for (i64 k = lo; k < hi; ++k) {
        EXPECT_EQ(recv[static_cast<std::size_t>(k)], i64{100} * s + p.rank());
      }
    }
  });
}

TEST_P(CollectivesSweep, AlltoallvEmptyLanesAreFine) {
  const int P = GetParam();
  rt::Machine::run(P, [&](rt::Process& p) {
    // Only rank 0 sends, and only to the last rank.
    std::vector<i64> send;
    std::vector<i64> offsets(static_cast<std::size_t>(P) + 1, 0);
    if (p.rank() == 0) {
      send = {5, 6};
      offsets.back() = 2;
    }
    std::vector<i64> recv, recv_offsets;
    rt::alltoallv<i64>(p, send, offsets, recv, recv_offsets);
    std::vector<i64> want_offsets(static_cast<std::size_t>(P) + 1, 0);
    if (p.rank() == P - 1) {
      std::fill(want_offsets.begin() + 1, want_offsets.end(), 2);
      EXPECT_EQ(recv, (std::vector<i64>{5, 6}));
    } else {
      EXPECT_TRUE(recv.empty());
    }
    EXPECT_EQ(recv_offsets, want_offsets);
  });
}

TEST_P(CollectivesSweep, AlltoallvWarmCallKeepsItsBuffers) {
  const int P = GetParam();
  rt::Machine::run(P, [&](rt::Process& p) {
    // Two calls of the same shape into the same outputs: the second must
    // land in the buffers the first sized, with the second call's values.
    std::vector<i64> send(static_cast<std::size_t>(2 * P));
    std::vector<i64> offsets(static_cast<std::size_t>(P) + 1);
    for (int d = 0; d <= P; ++d) offsets[static_cast<std::size_t>(d)] = 2 * d;
    std::vector<i64> recv, recv_offsets;
    const i64* recv_data = nullptr;
    const i64* offsets_data = nullptr;
    for (i64 round = 0; round < 2; ++round) {
      std::fill(send.begin(), send.end(), 10 * p.rank() + round);
      rt::alltoallv<i64>(p, send, offsets, recv, recv_offsets);
      if (round == 0) {
        recv_data = recv.data();
        offsets_data = recv_offsets.data();
      }
    }
    EXPECT_EQ(recv.data(), recv_data);
    EXPECT_EQ(recv_offsets.data(), offsets_data);
    EXPECT_EQ(recv_offsets, offsets);
    for (int s = 0; s < P; ++s) {
      EXPECT_EQ(recv[static_cast<std::size_t>(2 * s)], 10 * s + 1);
      EXPECT_EQ(recv[static_cast<std::size_t>(2 * s + 1)], 10 * s + 1);
    }
  });
}

TEST_P(CollectivesSweep, Gatherv) {
  const int P = GetParam();
  rt::Machine::run(P, [&](rt::Process& p) {
    std::vector<i64> mine{i64{p.rank()}, i64{p.rank()} * 2};
    std::vector<i64> offsets;
    auto gathered = rt::gatherv<i64>(p, mine, /*root=*/0, &offsets);
    if (p.is_root()) {
      ASSERT_EQ(static_cast<int>(gathered.size()), 2 * P);
      for (int r = 0; r < P; ++r) {
        EXPECT_EQ(gathered[static_cast<std::size_t>(2 * r)], r);
        EXPECT_EQ(gathered[static_cast<std::size_t>(2 * r + 1)], 2 * r);
      }
    } else {
      EXPECT_TRUE(gathered.empty());
    }
  });
}

TEST(Collectives, BarrierEqualizesClocks) {
  rt::Machine::run(4, [](rt::Process& p) {
    // Rank 3 is far ahead in virtual time; a barrier must drag everyone up.
    if (p.rank() == 3) p.clock().charge(5e5);
    rt::barrier(p);
    EXPECT_GE(p.clock().now_us(), 5e5);
  });
}

TEST(Collectives, AlltoallvChargesPerMessage) {
  rt::Machine machine(4);
  machine.run([](rt::Process& p) {
    // {1, 2, 3} to every other rank, nothing to self.
    std::vector<i64> send;
    std::vector<i64> offsets{0};
    for (int d = 0; d < 4; ++d) {
      if (d != p.rank()) send.insert(send.end(), {1, 2, 3});
      offsets.push_back(static_cast<i64>(send.size()));
    }
    std::vector<i64> recv, recv_offsets;
    const double before = p.clock().now_us();
    rt::alltoallv<i64>(p, send, offsets, recv, recv_offsets);
    // Three sends + three receives of 24 bytes each.
    const auto& c = p.params();
    const double expected = 3 * c.send_us(24) + 3 * c.recv_us(24);
    EXPECT_NEAR(p.clock().now_us() - before, expected, 1e-9);
    EXPECT_EQ(p.stats().messages_sent, 3);
    EXPECT_EQ(p.stats().messages_received, 3);
    EXPECT_EQ(p.stats().alltoallv_calls, 1);
    EXPECT_EQ(p.stats().alltoallv_bytes, 72);
  });
}

TEST(Collectives, AlltoallvRejectsABadSendPrefix) {
  // One rank's send prefix is too short, descends, or reaches past its
  // buffer. It throws ChaosError before publishing, and its peers, already
  // waiting in the exchange, are released with MachinePoisoned.
  constexpr int P = 4;
  for (const std::string bad : {"short", "descends", "overruns"}) {
    SCOPED_TRACE(bad);
    std::atomic<int> poisoned_peers{0};
    try {
      rt::Machine::run(P, [&](rt::Process& p) {
        const std::vector<i64> send(P, 1);
        std::vector<i64> offsets(P + 1);
        std::iota(offsets.begin(), offsets.end(), i64{0});
        if (p.rank() == 1) {
          if (bad == "short") offsets.pop_back();
          if (bad == "descends") std::swap(offsets[1], offsets[2]);
          if (bad == "overruns") offsets[P] = P + 1;
        }
        std::vector<i64> recv, recv_offsets;
        try {
          rt::alltoallv<i64>(p, send, offsets, recv, recv_offsets);
        } catch (const chaos::MachinePoisoned&) {
          ++poisoned_peers;
          throw;
        }
      });
      ADD_FAILURE() << "the bad prefix was accepted";
    } catch (const chaos::MachinePoisoned&) {
      ADD_FAILURE() << "Machine::run reported a released peer, not the cause";
    } catch (const chaos::ChaosError& e) {
      EXPECT_NE(std::string(e.what()).find("alltoallv: send prefix"),
                std::string::npos)
          << e.what();
    }
    EXPECT_EQ(poisoned_peers.load(), P - 1);
  }
}

TEST(ExchangeCsr, RoundTripsCountsAndPayload) {
  constexpr int P = 4;
  rt::Machine::run(P, [](rt::Process& p) {
    // Rank r sends one element (value 100*r + d) to every destination d.
    std::vector<i64> send(P), offsets(P + 1);
    for (int d = 0; d < P; ++d) {
      send[static_cast<std::size_t>(d)] = 100 * p.rank() + d;
      offsets[static_cast<std::size_t>(d)] = d;
    }
    offsets[P] = P;
    std::vector<i64> recv, recv_offsets, scratch;
    rt::exchange_csr<i64>(p, send, offsets, recv, recv_offsets, scratch);
    ASSERT_EQ(recv_offsets.size(), static_cast<std::size_t>(P) + 1);
    ASSERT_EQ(recv.size(), static_cast<std::size_t>(P));
    for (int s = 0; s < P; ++s) {
      EXPECT_EQ(recv_offsets[static_cast<std::size_t>(s)], s);
      EXPECT_EQ(recv[static_cast<std::size_t>(s)], 100 * s + p.rank());
    }
  });
}

TEST(ExchangeCsr, RejectsNonMonotoneSendOffsets) {
  // The counts round is derived from a caller-supplied prefix; a decreasing
  // prefix means a negative segment count, which must be rejected BEFORE the
  // counts alltoall (so every rank throws synchronously, in Release too —
  // the check is always-on) instead of turning into a negative resize.
  rt::Machine::run(2, [](rt::Process& p) {
    const std::vector<i64> send(3, 7);
    const std::vector<i64> offsets{2, 1, 3};  // 2 -> 1 decreases
    std::vector<i64> recv, recv_offsets, scratch;
    EXPECT_THROW(
        rt::exchange_csr<i64>(p, send, offsets, recv, recv_offsets, scratch),
        chaos::ChaosError);
    rt::barrier(p);
  });
}

TEST(ExchangeCsr, RejectsReceivePrefixOverflow) {
  // Peer-controlled counts feed the receive prefix sum: claims that are
  // individually representable but collectively wrap i64 must trip the
  // overflow guard rather than become a bogus receive-buffer size. Both
  // ranks claim kHuge words for rank 1, so rank 1's receive prefix wraps
  // (the overflow guard) while rank 0 trips alltoallv_flat's buffer/prefix
  // entry check — every rank throws before entering the payload round, so
  // the body stays synchronous and nothing needs poisoning.
  rt::Machine::run(2, [](rt::Process& p) {
    constexpr i64 kHuge = i64{3} << 61;  // 2 x kHuge wraps i64
    const std::vector<i64> offsets{0, 0, kHuge};
    std::vector<i64> recv, recv_offsets, scratch;
    EXPECT_THROW(rt::exchange_csr<i64>(p, std::span<const i64>{}, offsets,
                                       recv, recv_offsets, scratch),
                 chaos::ChaosError);
    rt::barrier(p);
  });
}

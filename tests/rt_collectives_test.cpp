// Collectives: correctness across process counts (parameterized sweep) and
// the BSP clock-synchronization contract.
#include <gtest/gtest.h>

#include <numeric>
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
    // send[d] = {rank*100 + d}; so received[s] must be {s*100 + rank}.
    std::vector<std::vector<i64>> send(static_cast<std::size_t>(P));
    for (int d = 0; d < P; ++d) {
      send[static_cast<std::size_t>(d)] = {i64{100} * p.rank() + d};
    }
    auto recv = rt::alltoallv(p, send);
    for (int s = 0; s < P; ++s) {
      ASSERT_EQ(recv[static_cast<std::size_t>(s)].size(), 1u);
      EXPECT_EQ(recv[static_cast<std::size_t>(s)][0], i64{100} * s + p.rank());
    }
  });
}

TEST_P(CollectivesSweep, AlltoallvEmptyLanesAreFine) {
  const int P = GetParam();
  rt::Machine::run(P, [&](rt::Process& p) {
    // Only rank 0 sends, and only to the last rank.
    std::vector<std::vector<i64>> send(static_cast<std::size_t>(P));
    if (p.rank() == 0) send[static_cast<std::size_t>(P - 1)] = {5, 6};
    auto recv = rt::alltoallv(p, send);
    for (int s = 0; s < P; ++s) {
      if (p.rank() == P - 1 && s == 0) {
        EXPECT_EQ(recv[static_cast<std::size_t>(s)], (std::vector<i64>{5, 6}));
      } else {
        EXPECT_TRUE(recv[static_cast<std::size_t>(s)].empty());
      }
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
    std::vector<std::vector<i64>> send(4);
    for (int d = 0; d < 4; ++d) {
      if (d != p.rank()) send[static_cast<std::size_t>(d)] = {1, 2, 3};
    }
    const double before = p.clock().now_us();
    (void)rt::alltoallv(p, send);
    // Three sends + three receives of 24 bytes each.
    const auto& c = p.params();
    const double expected = 3 * c.send_us(24) + 3 * c.recv_us(24);
    EXPECT_NEAR(p.clock().now_us() - before, expected, 1e-9);
    EXPECT_EQ(p.stats().messages_sent, 3);
    EXPECT_EQ(p.stats().messages_received, 3);
  });
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

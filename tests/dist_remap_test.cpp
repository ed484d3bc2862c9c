// Remap (REDISTRIBUTE): values must survive arbitrary distribution changes,
// plans must be reusable across aligned arrays, and round trips must be
// lossless.
#include <gtest/gtest.h>

#include <numeric>
#include <string>
#include <tuple>
#include <vector>

#include "dist/darray.hpp"
#include "dist/remap.hpp"
#include "rt/collectives.hpp"

namespace rt = chaos::rt;
namespace dist = chaos::dist;
using chaos::f64;
using chaos::i64;

namespace {

std::shared_ptr<const dist::Distribution> scrambled_irregular(rt::Process& p,
                                                              i64 n,
                                                              i64 mult) {
  auto map_dist = dist::Distribution::block(p, n);
  std::vector<i64> slice(static_cast<std::size_t>(map_dist->my_local_size()));
  for (std::size_t l = 0; l < slice.size(); ++l) {
    const i64 g = map_dist->global_of(p.rank(), static_cast<i64>(l));
    slice[l] = (g * mult + 1) % p.nprocs();
  }
  return dist::Distribution::irregular_from_map(p, slice, *map_dist, 16);
}

}  // namespace

class RemapSweep : public ::testing::TestWithParam<std::tuple<i64, int>> {};

INSTANTIATE_TEST_SUITE_P(SizesProcs, RemapSweep,
                         ::testing::Combine(::testing::Values<i64>(1, 8, 100,
                                                                   517),
                                            ::testing::Values(1, 2, 4, 8)),
                         [](const auto& info) {
                           return "N" + std::to_string(std::get<0>(info.param)) +
                                  "_P" + std::to_string(std::get<1>(info.param));
                         });

TEST_P(RemapSweep, BlockToIrregularPreservesValues) {
  const auto [n, P] = GetParam();
  rt::Machine::run(P, [&, n = n](rt::Process& p) {
    auto from = dist::Distribution::block(p, n);
    auto to = scrambled_irregular(p, n, 13);

    dist::DistributedArray<f64> x(p, from);
    x.fill_by_global([](i64 g) { return 3.0 * static_cast<f64>(g) + 0.5; });

    auto plan = dist::build_remap(p, *from, *to);
    auto fresh = dist::apply_remap<f64>(p, plan, x.local());

    dist::DistributedArray<f64> y(p, to);
    y.assign_local(std::move(fresh));
    auto global = y.to_global(p);
    for (i64 g = 0; g < n; ++g) {
      EXPECT_DOUBLE_EQ(global[static_cast<std::size_t>(g)],
                       3.0 * static_cast<f64>(g) + 0.5);
    }
  });
}

TEST_P(RemapSweep, RoundTripIsIdentity) {
  const auto [n, P] = GetParam();
  rt::Machine::run(P, [&, n = n](rt::Process& p) {
    auto a = dist::Distribution::cyclic(p, n);
    auto b = scrambled_irregular(p, n, 5);

    dist::DistributedArray<i64> x(p, a);
    x.fill_by_global([](i64 g) { return g * g; });
    const std::vector<i64> original(x.local().begin(), x.local().end());

    auto there = dist::build_remap(p, *a, *b);
    auto mid = dist::apply_remap<i64>(p, there, x.local());
    auto back = dist::build_remap(p, *b, *a);
    auto restored = dist::apply_remap<i64>(p, back, mid);

    EXPECT_EQ(restored, original);
  });
}

TEST_P(RemapSweep, PlanReusableAcrossAlignedArrays) {
  const auto [n, P] = GetParam();
  rt::Machine::run(P, [&, n = n](rt::Process& p) {
    auto from = dist::Distribution::block(p, n);
    auto to = scrambled_irregular(p, n, 3);
    auto plan = dist::build_remap(p, *from, *to);

    // Two aligned arrays moved with one plan (the paper remaps x and y with
    // the schedule built once for distribution reg -> distfmt).
    dist::DistributedArray<f64> x(p, from), y(p, from);
    x.fill_by_global([](i64 g) { return static_cast<f64>(g); });
    y.fill_by_global([](i64 g) { return static_cast<f64>(-g); });
    auto nx = dist::apply_remap<f64>(p, plan, x.local());
    auto ny = dist::apply_remap<f64>(p, plan, y.local());

    dist::DistributedArray<f64> gx(p, to), gy(p, to);
    gx.assign_local(std::move(nx));
    gy.assign_local(std::move(ny));
    auto fx = gx.to_global(p);
    auto fy = gy.to_global(p);
    for (i64 g = 0; g < n; ++g) {
      EXPECT_DOUBLE_EQ(fx[static_cast<std::size_t>(g)], static_cast<f64>(g));
      EXPECT_DOUBLE_EQ(fy[static_cast<std::size_t>(g)], -static_cast<f64>(g));
    }
  });
}

TEST_P(RemapSweep, PlanIsCsrByPeer) {
  const auto [n, P] = GetParam();
  rt::Machine::run(P, [&, n = n](rt::Process& p) {
    auto from = dist::Distribution::block(p, n);
    auto to = scrambled_irregular(p, n, 7);
    const auto plan = dist::build_remap(p, *from, *to);
    const auto np = static_cast<std::size_t>(P);
    ASSERT_EQ(plan.send_offsets.size(), np + 1);
    ASSERT_EQ(plan.recv_offsets.size(), np + 1);
    EXPECT_EQ(plan.send_offsets.front(), 0);
    EXPECT_EQ(plan.recv_offsets.front(), 0);
    EXPECT_EQ(plan.send_offsets.back(),
              static_cast<i64>(plan.send_pos.size()));
    EXPECT_EQ(plan.recv_offsets.back(),
              static_cast<i64>(plan.place_pos.size()));
    EXPECT_EQ(static_cast<i64>(plan.send_pos.size()), plan.nlocal_from);
    EXPECT_EQ(static_cast<i64>(plan.place_pos.size()), plan.nlocal_to);
    for (std::size_t d = 0; d < np; ++d) {
      for (i64 k = plan.send_offsets[d] + 1; k < plan.send_offsets[d + 1];
           ++k) {
        EXPECT_LT(plan.send_pos[static_cast<std::size_t>(k) - 1],
                  plan.send_pos[static_cast<std::size_t>(k)]);
      }
    }
  });
}

TEST(Remap, AlteredReceivePrefixIsRejectedAfterTheExchange) {
  // Rank 2's plan expects one element more from rank 0 and one fewer from
  // rank 1 than they send. The exchange completes on every rank; only rank
  // 2 then rejects what arrived, and everyone reaches the next collective.
  rt::Machine::run(4, [](rt::Process& p) {
    auto from = dist::Distribution::block(p, 100);
    auto to = dist::Distribution::cyclic(p, 100);
    auto plan = dist::build_remap(p, *from, *to);
    dist::DistributedArray<i64> x(p, from);
    x.fill_by_global([](i64 g) { return g; });
    if (p.rank() == 2) {
      ++plan.recv_offsets[1];
      try {
        (void)dist::apply_remap<i64>(p, plan, x.local());
        ADD_FAILURE() << "the altered prefix was accepted";
      } catch (const chaos::ChaosError& e) {
        EXPECT_NE(std::string(e.what()).find("unexpected element count"),
                  std::string::npos)
            << e.what();
      }
    } else {
      const auto moved = dist::apply_remap<i64>(p, plan, x.local());
      for (std::size_t l = 0; l < moved.size(); ++l) {
        EXPECT_EQ(moved[l], to->global_of(p.rank(), static_cast<i64>(l)));
      }
    }
    EXPECT_EQ(rt::allreduce_sum(p, i64{1}), 4);
  });
}

TEST(GroupByDest, IsStableWithinADestination) {
  // Ranks 1 and 4 receive nothing.
  const std::vector<int> dest{2, 0, 2, 3, 0, 2, 3, 0, 0, 2};
  std::vector<i64> offsets;
  std::vector<std::size_t> grouped(dest.size());
  rt::group_by_dest(
      5, dest.size(), [&](std::size_t i) { return dest[i]; }, offsets,
      [&](std::size_t i, std::size_t slot) { grouped[slot] = i; });
  EXPECT_EQ(offsets, (std::vector<i64>{0, 4, 4, 8, 10, 10}));
  EXPECT_EQ(grouped, (std::vector<std::size_t>{1, 4, 7, 8, 0, 2, 5, 9, 3, 6}));
}

TEST(GroupByDest, NoItemsGiveAZeroPrefix) {
  std::vector<i64> offsets{7, 7};  // stale contents are overwritten
  int placed = 0;
  rt::group_by_dest(
      3, 0, [](std::size_t) { return 0; }, offsets,
      [&](std::size_t, std::size_t) { ++placed; });
  EXPECT_EQ(offsets, (std::vector<i64>{0, 0, 0, 0}));
  EXPECT_EQ(placed, 0);
}

TEST(Remap, IdentityRemapMovesNothing) {
  rt::Machine::run(4, [](rt::Process& p) {
    auto d = dist::Distribution::block(p, 100);
    auto plan = dist::build_remap(p, *d, *d);
    EXPECT_EQ(plan.moved_elements, 0);
    dist::DistributedArray<i64> x(p, d);
    x.fill_by_global([](i64 g) { return g + 7; });
    auto fresh = dist::apply_remap<i64>(p, plan, x.local());
    EXPECT_EQ(fresh, std::vector<i64>(x.local().begin(), x.local().end()));
  });
}

TEST(Remap, SizeMismatchIsRejected) {
  EXPECT_THROW(rt::Machine::run(2,
                                [](rt::Process& p) {
                                  auto a = dist::Distribution::block(p, 10);
                                  auto b = dist::Distribution::block(p, 11);
                                  (void)dist::build_remap(p, *a, *b);
                                }),
               chaos::ChaosError);
}

TEST(Remap, StalePlanDetected) {
  rt::Machine::run(2, [](rt::Process& p) {
    auto a = dist::Distribution::block(p, 10);
    auto b = dist::Distribution::cyclic(p, 10);
    auto plan = dist::build_remap(p, *a, *b);
    // Apply with a wrong-sized source segment: must be caught, not corrupt.
    std::vector<f64> wrong(1, 0.0);
    if (a->my_local_size() > 1) {
      EXPECT_THROW((void)dist::apply_remap<f64>(p, plan, wrong),
                   chaos::ChaosError);
    }
    rt::barrier(p);
  });
}

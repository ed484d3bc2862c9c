// Iteration partitioning (Section 4.3): the majority rule, the
// owner-computes rule, tie-breaking, the induced remap of
// iteration-aligned arrays, and the pinned modeled cost of one call.
#include <gtest/gtest.h>

#include <array>
#include <vector>

#include "core/iter_partition.hpp"
#include "rt/collectives.hpp"

namespace rt = chaos::rt;
namespace dist = chaos::dist;
namespace core = chaos::core;
using chaos::i64;

TEST(IterPartition, MajorityRulePicksTheDominantOwner) {
  rt::Machine::run(4, [](rt::Process& p) {
    constexpr i64 ndata = 40;  // BLOCK over 4 procs: 10 elements each
    constexpr i64 niter = 4;
    auto ddist = dist::Distribution::block(p, ndata);
    auto idist = dist::Distribution::block(p, niter);  // 1 iteration each

    // Every iteration references: two elements owned by proc 2, one owned
    // by proc 0 => majority says proc 2 executes all iterations.
    std::vector<i64> b1(static_cast<std::size_t>(idist->my_local_size()), 20);
    std::vector<i64> b2(static_cast<std::size_t>(idist->my_local_size()), 25);
    std::vector<i64> b3(static_cast<std::size_t>(idist->my_local_size()), 5);
    const std::span<const i64> batches[] = {b1, b2, b3};
    auto part = core::partition_iterations(p, *idist, *ddist, batches);

    EXPECT_EQ(part.iter_dist->local_size(2), niter);
    EXPECT_EQ(part.iter_dist->local_size(0), 0);
  });
}

TEST(IterPartition, TieGoesToTheLowestRank) {
  rt::Machine::run(4, [](rt::Process& p) {
    constexpr i64 ndata = 40;
    constexpr i64 niter = 8;
    auto ddist = dist::Distribution::block(p, ndata);
    auto idist = dist::Distribution::block(p, niter);

    // One reference owned by proc 3, one by proc 1: tie -> proc 1.
    std::vector<i64> b1(static_cast<std::size_t>(idist->my_local_size()), 35);
    std::vector<i64> b2(static_cast<std::size_t>(idist->my_local_size()), 15);
    const std::span<const i64> batches[] = {b1, b2};
    auto part = core::partition_iterations(p, *idist, *ddist, batches);
    EXPECT_EQ(part.iter_dist->local_size(1), niter);
    EXPECT_EQ(part.iter_dist->local_size(3), 0);
  });
}

TEST(IterPartition, TiesAmongManyReferencesGoToTheLowestTiedRank) {
  // Four references per iteration, in three patterns that a vote keeping
  // the first owner it sees among the most-voted would get wrong: a 2-2 tie
  // between ranks 3 and 1 (3 seen first), a 1-1-1-1 tie (2 seen first), and
  // a 2-1-1 majority for rank 2 (0 seen first).
  rt::Machine::run(4, [](rt::Process& p) {
    constexpr i64 ndata = 40;  // BLOCK: rank r owns [10r, 10r + 10)
    constexpr i64 niter = 12;  // BLOCK: 3 iterations per rank
    auto ddist = dist::Distribution::block(p, ndata);
    auto idist = dist::Distribution::block(p, niter);
    constexpr i64 refs[3][4] = {{35, 36, 15, 16},   // 3, 3, 1, 1 -> 1
                                {25, 35, 15, 5},    // 2, 3, 1, 0 -> 0
                                {5, 25, 35, 26}};   // 0, 2, 3, 2 -> 2
    std::vector<i64> b[4];
    for (i64 l = 0; l < idist->my_local_size(); ++l) {
      for (int k = 0; k < 4; ++k) b[k].push_back(refs[l][k]);
    }
    const std::span<const i64> batches[] = {b[0], b[1], b[2], b[3]};
    auto part = core::partition_iterations(p, *idist, *ddist, batches);

    // Local iteration l of every rank is global iteration 3r + l.
    const std::vector<std::vector<i64>> want = {
        {1, 4, 7, 10}, {0, 3, 6, 9}, {2, 5, 8, 11}, {}};
    EXPECT_EQ(part.iter_dist->my_globals(),
              want[static_cast<std::size_t>(p.rank())]);
  });
}

TEST(IterPartition, OwnerComputesFollowsFirstBatch) {
  rt::Machine::run(4, [](rt::Process& p) {
    constexpr i64 ndata = 40;
    constexpr i64 niter = 8;
    auto ddist = dist::Distribution::block(p, ndata);
    auto idist = dist::Distribution::block(p, niter);

    // First batch (the LHS) points at proc 3's block; the other two batches
    // gang up on proc 0 — owner-computes must still pick proc 3.
    std::vector<i64> lhs(static_cast<std::size_t>(idist->my_local_size()), 38);
    std::vector<i64> r1(static_cast<std::size_t>(idist->my_local_size()), 1);
    std::vector<i64> r2(static_cast<std::size_t>(idist->my_local_size()), 2);
    const std::span<const i64> batches[] = {lhs, r1, r2};
    auto part = core::partition_iterations(p, *idist, *ddist, batches,
                                           core::IterRule::OwnerComputes);
    EXPECT_EQ(part.iter_dist->local_size(3), niter);
  });
}

TEST(IterPartition, RemapMovesIterationAlignedData) {
  rt::Machine::run(4, [](rt::Process& p) {
    constexpr i64 ndata = 16;
    constexpr i64 niter = 12;
    auto ddist = dist::Distribution::block(p, ndata);
    auto idist = dist::Distribution::block(p, niter);

    // Iteration i references data element (i * 5 + 1) % ndata.
    std::vector<i64> refs;
    for (i64 l = 0; l < idist->my_local_size(); ++l) {
      const i64 i = idist->global_of(p.rank(), l);
      refs.push_back((i * 5 + 1) % ndata);
    }
    const std::span<const i64> batches[] = {refs};
    auto part = core::partition_iterations(p, *idist, *ddist, batches);

    // After remapping the reference array with the iteration remap, every
    // process must own exactly the references of its assigned iterations —
    // and under the single-batch majority rule those are all LOCAL data.
    auto moved = dist::apply_remap<i64>(p, part.remap, refs);
    ASSERT_EQ(static_cast<i64>(moved.size()),
              part.iter_dist->my_local_size());
    auto entries = ddist->locate(p, moved);
    for (const auto& e : entries) EXPECT_EQ(e.proc, p.rank());

    // And the iteration space itself is exactly partitioned.
    i64 total = 0;
    for (int r = 0; r < p.nprocs(); ++r) {
      total += part.iter_dist->local_size(r);
    }
    EXPECT_EQ(total, niter);
  });
}

TEST(IterPartition, CountsMovedIterations) {
  rt::Machine::run(2, [](rt::Process& p) {
    constexpr i64 ndata = 8;
    constexpr i64 niter = 6;
    auto ddist = dist::Distribution::block(p, ndata);  // 0-3 on p0, 4-7 on p1
    auto idist = dist::Distribution::block(p, niter);  // 0-2 on p0, 3-5 on p1

    // All iterations reference element 7 (owned by p1): p0's 3 iterations
    // move, p1's stay.
    std::vector<i64> refs(static_cast<std::size_t>(idist->my_local_size()), 7);
    const std::span<const i64> batches[] = {refs};
    auto part = core::partition_iterations(p, *idist, *ddist, batches);
    EXPECT_EQ(part.moved_iterations, 3);
    EXPECT_EQ(part.iter_dist->local_size(1), niter);
  });
}

TEST(IterPartition, MisalignedBatchIsRejected) {
  EXPECT_THROW(
      rt::Machine::run(2,
                       [](rt::Process& p) {
                         auto ddist = dist::Distribution::block(p, 8);
                         auto idist = dist::Distribution::block(p, 6);
                         std::vector<i64> bad(1, 0);
                         const std::span<const i64> batches[] = {bad};
                         (void)core::partition_iterations(p, *idist, *ddist,
                                                          batches);
                       }),
      chaos::ChaosError);
}

TEST(IterPartition, CostOfOneCallIsPinned) {
  // One call against a fixed IRREGULAR data distribution (paged, page 64)
  // with heavily repeating references. The clock charge, the collectives,
  // barriers and bytes it pays, and the distinct remote globals it ships
  // are pinned per rank as literals, so a change to how the owner locate
  // deduplicates its references cannot move the charge unnoticed.
  struct Cost {
    chaos::f64 clock_us;
    i64 collectives, barriers, alltoallv_bytes, wire_queries;
  };
  std::array<Cost, 4> got{};
  rt::Machine::run(4, [&](rt::Process& p) {
    constexpr i64 ndata = 1000;
    constexpr i64 niter = 600;
    auto md = dist::Distribution::block(p, ndata);
    std::vector<i64> slice(static_cast<std::size_t>(md->my_local_size()));
    for (std::size_t l = 0; l < slice.size(); ++l) {
      const i64 g = md->global_of(p.rank(), static_cast<i64>(l));
      slice[l] = (g * 7 + g / 90) % p.nprocs();
    }
    auto ddist = dist::Distribution::irregular_from_map(p, slice, *md, 64);
    auto idist = dist::Distribution::block(p, niter);

    std::vector<i64> b1, b2, b3;
    for (i64 l = 0; l < idist->my_local_size(); ++l) {
      const i64 i = idist->global_of(p.rank(), l);
      b1.push_back((i * 7) % 211);
      b2.push_back((i * 13 + 5) % 389 + 600);
      b3.push_back((i * i) % ndata);
    }
    const std::span<const i64> batches[] = {b1, b2, b3};
    rt::barrier(p);
    const rt::MessageStats before = p.stats();
    const chaos::f64 t0 = p.clock().now_us();
    (void)core::partition_iterations(p, *idist, *ddist, batches);
    const rt::MessageStats& after = p.stats();
    got[static_cast<std::size_t>(p.rank())] = Cost{
        p.clock().now_us() - t0, after.collectives - before.collectives,
        after.barriers - before.barriers,
        after.alltoallv_bytes - before.alltoallv_bytes,
        after.ttable_flat_wire_queries - before.ttable_flat_wire_queries};
  });
  const std::array<Cost, 4> want{{{19061.400000000001, 14, 23, 14872, 295},
                                  {19061.400000000001, 14, 23, 12608, 408},
                                  {19061.400000000001, 14, 23, 11808, 410},
                                  {19061.400000000001, 14, 23, 10328, 441}}};
  for (std::size_t r = 0; r < got.size(); ++r) {
    EXPECT_EQ(got[r].clock_us, want[r].clock_us) << "rank " << r;
    EXPECT_EQ(got[r].collectives, want[r].collectives) << "rank " << r;
    EXPECT_EQ(got[r].barriers, want[r].barriers) << "rank " << r;
    EXPECT_EQ(got[r].alltoallv_bytes, want[r].alltoallv_bytes) << "rank " << r;
    EXPECT_EQ(got[r].wire_queries, want[r].wire_queries) << "rank " << r;
  }
}

// Executor data movers: gather / scatter-reduce / scatter-assign must agree
// with a serial reference for arbitrary reference patterns.
#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "core/executor.hpp"
#include "core/inspector.hpp"
#include "dist/darray.hpp"
#include "rt/collectives.hpp"
#include "workload/rng.hpp"

namespace rt = chaos::rt;
namespace dist = chaos::dist;
namespace core = chaos::core;
using chaos::f64;
using chaos::i64;

namespace {

std::vector<i64> make_refs(int rank, i64 n, i64 count, chaos::u64 seed) {
  chaos::wl::Rng rng(seed + static_cast<chaos::u64>(rank) * 31);
  std::vector<i64> refs(static_cast<std::size_t>(count));
  for (auto& r : refs) r = rng.below(n);
  return refs;
}

}  // namespace

class ExecutorSweep : public ::testing::TestWithParam<std::tuple<i64, int>> {};

INSTANTIATE_TEST_SUITE_P(SizesProcs, ExecutorSweep,
                         ::testing::Combine(::testing::Values<i64>(6, 64, 301),
                                            ::testing::Values(1, 2, 4, 8)),
                         [](const auto& info) {
                           return "N" + std::to_string(std::get<0>(info.param)) +
                                  "_P" + std::to_string(std::get<1>(info.param));
                         });

TEST_P(ExecutorSweep, ScatterAddMatchesSerialReference) {
  const auto [n, P] = GetParam();
  rt::Machine::run(P, [&, n = n](rt::Process& p) {
    auto d = dist::Distribution::cyclic(p, n);
    dist::DistributedArray<f64> y(p, d, 0.0);

    // Every rank accumulates +g into y(g) for each of its references.
    const auto refs = make_refs(p.rank(), n, 4 * n, 23);
    core::InspectorWorkspace iws;
    core::Localized loc;
    core::localize(p, *d, refs, iws, loc);

    std::vector<f64> ghost_acc(static_cast<std::size_t>(loc.schedule.nghost),
                               0.0);
    for (std::size_t i = 0; i < refs.size(); ++i) {
      const i64 r = loc.refs[i];
      const f64 v = static_cast<f64>(refs[i]);
      if (r < y.nlocal()) {
        y.local()[static_cast<std::size_t>(r)] += v;
      } else {
        ghost_acc[static_cast<std::size_t>(r - y.nlocal())] += v;
      }
    }
    core::ExecutorWorkspace<f64> ews;
    core::scatter_reduce<f64>(p, loc.schedule, y.local(), ghost_acc,
                              core::ReduceOp::Add, ews);

    // Serial reference: count global occurrences over all ranks.
    auto all_refs = rt::allgatherv<i64>(p, refs);
    std::vector<f64> expect(static_cast<std::size_t>(n), 0.0);
    for (i64 g : all_refs) {
      expect[static_cast<std::size_t>(g)] += static_cast<f64>(g);
    }
    const auto got = y.to_global(p);
    for (i64 g = 0; g < n; ++g) {
      EXPECT_NEAR(got[static_cast<std::size_t>(g)],
                  expect[static_cast<std::size_t>(g)], 1e-9);
    }
  });
}

TEST_P(ExecutorSweep, ScatterMaxMatchesSerialReference) {
  const auto [n, P] = GetParam();
  rt::Machine::run(P, [&, n = n](rt::Process& p) {
    auto d = dist::Distribution::block(p, n);
    dist::DistributedArray<f64> y(p, d,
                                  core::reduce_identity<f64>(core::ReduceOp::Max));

    const auto refs = make_refs(p.rank(), n, 2 * n, 77);
    core::InspectorWorkspace iws;
    core::Localized loc;
    core::localize(p, *d, refs, iws, loc);
    std::vector<f64> ghost_acc(
        static_cast<std::size_t>(loc.schedule.nghost),
        core::reduce_identity<f64>(core::ReduceOp::Max));
    for (std::size_t i = 0; i < refs.size(); ++i) {
      // Contribution value depends on rank so the max is nontrivial.
      const f64 v = static_cast<f64>((p.rank() + 1) * 1000 + refs[i]);
      const i64 r = loc.refs[i];
      if (r < y.nlocal()) {
        auto& dst = y.local()[static_cast<std::size_t>(r)];
        dst = std::max(dst, v);
      } else {
        auto& dst = ghost_acc[static_cast<std::size_t>(r - y.nlocal())];
        dst = std::max(dst, v);
      }
    }
    core::ExecutorWorkspace<f64> ews;
    core::scatter_reduce<f64>(p, loc.schedule, y.local(), ghost_acc,
                              core::ReduceOp::Max, ews);

    struct Contribution {
      i64 g;
      f64 v;
    };
    std::vector<Contribution> mine;
    for (i64 g : refs) {
      mine.push_back({g, static_cast<f64>((p.rank() + 1) * 1000 + g)});
    }
    auto all = rt::allgatherv<Contribution>(p, mine);
    std::vector<f64> expect(static_cast<std::size_t>(n),
                            core::reduce_identity<f64>(core::ReduceOp::Max));
    for (const auto& c : all) {
      expect[static_cast<std::size_t>(c.g)] =
          std::max(expect[static_cast<std::size_t>(c.g)], c.v);
    }
    const auto got = y.to_global(p);
    for (i64 g = 0; g < n; ++g) {
      EXPECT_DOUBLE_EQ(got[static_cast<std::size_t>(g)],
                       expect[static_cast<std::size_t>(g)]);
    }
  });
}

TEST_P(ExecutorSweep, ScatterMinMatchesSerialReference) {
  const auto [n, P] = GetParam();
  rt::Machine::run(P, [&, n = n](rt::Process& p) {
    auto d = dist::Distribution::cyclic(p, n);
    dist::DistributedArray<f64> y(p, d,
                                  core::reduce_identity<f64>(core::ReduceOp::Min));

    const auto refs = make_refs(p.rank(), n, 2 * n, 131);
    core::InspectorWorkspace iws;
    core::Localized loc;
    core::localize(p, *d, refs, iws, loc);
    std::vector<f64> ghost_acc(
        static_cast<std::size_t>(loc.schedule.nghost),
        core::reduce_identity<f64>(core::ReduceOp::Min));
    for (std::size_t i = 0; i < refs.size(); ++i) {
      // Lower contributions from higher ranks so the min is nontrivial.
      const f64 v = static_cast<f64>((p.nprocs() - p.rank()) * 1000 + refs[i]);
      const i64 r = loc.refs[i];
      if (r < y.nlocal()) {
        auto& dst = y.local()[static_cast<std::size_t>(r)];
        dst = std::min(dst, v);
      } else {
        auto& dst = ghost_acc[static_cast<std::size_t>(r - y.nlocal())];
        dst = std::min(dst, v);
      }
    }
    core::ExecutorWorkspace<f64> ews;
    core::scatter_reduce<f64>(p, loc.schedule, y.local(), ghost_acc,
                              core::ReduceOp::Min, ews);

    struct Contribution {
      i64 g;
      f64 v;
    };
    std::vector<Contribution> mine;
    for (i64 g : refs) {
      mine.push_back(
          {g, static_cast<f64>((p.nprocs() - p.rank()) * 1000 + g)});
    }
    auto all = rt::allgatherv<Contribution>(p, mine);
    std::vector<f64> expect(static_cast<std::size_t>(n),
                            core::reduce_identity<f64>(core::ReduceOp::Min));
    for (const auto& c : all) {
      expect[static_cast<std::size_t>(c.g)] =
          std::min(expect[static_cast<std::size_t>(c.g)], c.v);
    }
    const auto got = y.to_global(p);
    for (i64 g = 0; g < n; ++g) {
      EXPECT_DOUBLE_EQ(got[static_cast<std::size_t>(g)],
                       expect[static_cast<std::size_t>(g)]);
    }
  });
}

TEST(Executor, ScatterReplaceMatchesScatterAssign) {
  rt::Machine::run(4, [](rt::Process& p) {
    constexpr i64 n = 48;
    auto d = dist::Distribution::block(p, n);
    dist::DistributedArray<f64> y(p, d, -7.0);

    // Disjoint writers (Replace with overlapping writers is unordered).
    std::vector<i64> refs;
    for (i64 g = p.rank(); g < n; g += p.nprocs()) refs.push_back(g);
    core::InspectorWorkspace iws;
    core::Localized loc;
    core::localize(p, *d, refs, iws, loc);
    std::vector<f64> ghost(static_cast<std::size_t>(loc.schedule.nghost), 0.0);
    for (std::size_t i = 0; i < refs.size(); ++i) {
      const f64 v = static_cast<f64>(3 * refs[i] + 1);
      const i64 r = loc.refs[i];
      if (r < y.nlocal()) {
        y.local()[static_cast<std::size_t>(r)] = v;
      } else {
        ghost[static_cast<std::size_t>(r - y.nlocal())] = v;
      }
    }
    core::ExecutorWorkspace<f64> ews;
    core::scatter_reduce<f64>(p, loc.schedule, y.local(), ghost,
                              core::ReduceOp::Replace, ews);

    const auto got = y.to_global(p);
    for (i64 g = 0; g < n; ++g) {
      EXPECT_DOUBLE_EQ(got[static_cast<std::size_t>(g)],
                       static_cast<f64>(3 * g + 1));
    }
  });
}

TEST(Executor, EmptyScheduleMovesNothing) {
  // All references local: the schedule carries no off-process traffic, and
  // gather/scatter through it must be no-ops on the local data.
  rt::Machine::run(4, [](rt::Process& p) {
    auto d = dist::Distribution::block(p, 64);
    const auto mine = d->my_globals();
    core::InspectorWorkspace iws;
    core::Localized loc;
    core::localize(p, *d, mine, iws, loc);
    ASSERT_EQ(loc.schedule.nghost, 0);
    EXPECT_TRUE(loc.schedule.validate());
    EXPECT_EQ(loc.schedule.total_send(), 0);
    EXPECT_EQ(loc.schedule.messages(p.rank()), 0);
    EXPECT_EQ(loc.schedule.send_volume(p.rank()), 0);

    dist::DistributedArray<f64> x(p, d, 2.5);
    core::ExecutorWorkspace<f64> ws;
    std::vector<f64> ghost;
    core::gather_ghosts<f64>(p, loc.schedule, x.local(), ghost, ws);
    core::scatter_reduce<f64>(p, loc.schedule, x.local(), ghost,
                              core::ReduceOp::Add, ws);
    for (f64 v : x.local()) EXPECT_DOUBLE_EQ(v, 2.5);
  });
}

TEST(Executor, SingleProcessMachineRoundTrips) {
  // P=1: every reference is owned, the CSR arrays are a lone [0,0] prefix,
  // and gather/scatter still run as (trivial) collectives.
  rt::Machine::run(1, [](rt::Process& p) {
    constexpr i64 n = 17;
    auto d = dist::Distribution::block(p, n);
    dist::DistributedArray<f64> y(p, d, 1.0);
    std::vector<i64> refs{0, 5, 16, 5};
    core::InspectorWorkspace iws;
    core::Localized loc;
    core::localize(p, *d, refs, iws, loc);
    EXPECT_EQ(loc.schedule.nghost, 0);
    EXPECT_EQ(loc.schedule.nprocs(), 1);
    EXPECT_TRUE(loc.schedule.validate());

    dist::DistributedArray<f64> x(p, d);
    x.fill_by_global([](i64 g) { return static_cast<f64>(g); });
    core::ExecutorWorkspace<f64> ews;
    core::gather_ghosts<f64>(p, loc.schedule, x, ews);
    for (std::size_t i = 0; i < refs.size(); ++i) {
      EXPECT_DOUBLE_EQ(x.localized(loc.refs[i]), static_cast<f64>(refs[i]));
    }
    std::vector<f64> ghost;
    core::scatter_reduce<f64>(p, loc.schedule, y.local(), ghost,
                              core::ReduceOp::Add, ews);
    for (f64 v : y.local()) EXPECT_DOUBLE_EQ(v, 1.0);
  });
}

TEST(Executor, WorkspaceReuseKeepsBuffersStable) {
  // The allocation-free guarantee, observable without an allocator hook:
  // after the first call, repeated gathers/scatters through the same
  // workspace must reuse the same staging storage and produce identical
  // results.
  rt::Machine::run(4, [](rt::Process& p) {
    constexpr i64 n = 256;
    auto d = dist::Distribution::cyclic(p, n);
    dist::DistributedArray<f64> x(p, d);
    x.fill_by_global([](i64 g) { return 10.0 + static_cast<f64>(g); });
    const auto refs = make_refs(p.rank(), n, 3 * n, 41);
    core::InspectorWorkspace iws;
    core::Localized loc;
    core::localize(p, *d, refs, iws, loc);
    x.resize_ghost(loc.schedule.nghost);

    core::ExecutorWorkspace<f64> ws;
    const f64* stage_ptr = ws.staging(loc.schedule).data();
    for (int sweep = 0; sweep < 5; ++sweep) {
      core::gather_ghosts<f64>(p, loc.schedule, x.local(), x.ghost(), ws);
      EXPECT_EQ(ws.staging(loc.schedule).data(), stage_ptr)
          << "staging buffer reallocated on sweep " << sweep;
      for (std::size_t i = 0; i < refs.size(); ++i) {
        ASSERT_DOUBLE_EQ(x.localized(loc.refs[i]),
                         10.0 + static_cast<f64>(refs[i]));
      }
    }
  });
}

TEST(Executor, RecvOffsetsAreCachedPrefixSums) {
  rt::Machine::run(4, [](rt::Process& p) {
    constexpr i64 n = 128;
    auto d = dist::Distribution::block(p, n);
    const auto refs = make_refs(p.rank(), n, 2 * n, 9);
    core::InspectorWorkspace iws;
    core::Localized loc;
    core::localize(p, *d, refs, iws, loc);
    i64 running = 0;
    for (int s = 0; s < p.nprocs(); ++s) {
      EXPECT_EQ(loc.schedule.recv_offset(s), running);
      running += loc.schedule.recv_count(s);
    }
    EXPECT_EQ(running, loc.schedule.nghost);
    EXPECT_EQ(loc.schedule.recv_offsets.back(), loc.schedule.nghost);
  });
}

TEST(Executor, ScatterAssignWritesRemoteElements) {
  rt::Machine::run(4, [](rt::Process& p) {
    constexpr i64 n = 32;
    auto d = dist::Distribution::block(p, n);
    dist::DistributedArray<f64> y(p, d, -1.0);

    // Rank r writes globals r, r+P, r+2P, ... — disjoint across ranks,
    // many of them remote under BLOCK.
    std::vector<i64> refs;
    for (i64 g = p.rank(); g < n; g += p.nprocs()) refs.push_back(g);
    core::InspectorWorkspace iws;
    core::Localized loc;
    core::localize(p, *d, refs, iws, loc);
    std::vector<f64> ghost(static_cast<std::size_t>(loc.schedule.nghost), 0.0);
    for (std::size_t i = 0; i < refs.size(); ++i) {
      const f64 v = static_cast<f64>(10 * refs[i] + p.rank());
      const i64 r = loc.refs[i];
      if (r < y.nlocal()) {
        y.local()[static_cast<std::size_t>(r)] = v;
      } else {
        ghost[static_cast<std::size_t>(r - y.nlocal())] = v;
      }
    }
    core::ExecutorWorkspace<f64> ews;
    core::scatter_assign<f64>(p, loc.schedule, y.local(), ghost, ews);

    const auto got = y.to_global(p);
    for (i64 g = 0; g < n; ++g) {
      const i64 writer = g % p.nprocs();
      EXPECT_DOUBLE_EQ(got[static_cast<std::size_t>(g)],
                       static_cast<f64>(10 * g + writer));
    }
  });
}

TEST(Executor, GatherRejectsStaleSchedule) {
  rt::Machine::run(2, [](rt::Process& p) {
    auto d = dist::Distribution::block(p, 16);
    std::vector<i64> refs{0, 15};
    core::InspectorWorkspace iws;
    core::Localized loc;
    core::localize(p, *d, refs, iws, loc);
    std::vector<f64> wrong_local(static_cast<std::size_t>(d->my_local_size()) +
                                 1);
    std::vector<f64> ghost(static_cast<std::size_t>(loc.schedule.nghost));
    core::ExecutorWorkspace<f64> ews;
    EXPECT_THROW(
        core::gather_ghosts<f64>(p, loc.schedule, wrong_local, ghost, ews),
        chaos::ChaosError);
    rt::barrier(p);
  });
}

TEST(Executor, ScatterRejectsStaleSchedule) {
  // The CHAOS_CHECK staleness guard must fire on the scatter side too: a
  // schedule built against one local size is dead after the segment changes
  // (e.g. a REDISTRIBUTE without re-running the inspector).
  rt::Machine::run(2, [](rt::Process& p) {
    auto d = dist::Distribution::block(p, 16);
    std::vector<i64> refs{0, 15};
    core::InspectorWorkspace iws;
    core::Localized loc;
    core::localize(p, *d, refs, iws, loc);
    std::vector<f64> wrong_local(static_cast<std::size_t>(d->my_local_size()) +
                                 2);
    std::vector<f64> ghost(static_cast<std::size_t>(loc.schedule.nghost));
    core::ExecutorWorkspace<f64> ews;
    EXPECT_THROW(core::scatter_reduce<f64>(p, loc.schedule, wrong_local, ghost,
                                           core::ReduceOp::Add, ews),
                 chaos::ChaosError);
    rt::barrier(p);
  });
}

TEST(Executor, ValidateCatchesCorruptSchedules) {
  core::CommSchedule s;
  EXPECT_TRUE(s.validate());  // default: empty, nghost 0

  s.send_offsets = {0, 2, 3};
  s.recv_offsets = {0, 1, 4};
  s.send_indices = {0, 1, 2};
  s.nghost = 4;
  s.nlocal_at_build = 3;
  EXPECT_TRUE(s.validate());

  auto corrupt = s;
  corrupt.nghost = 5;  // cached total disagrees with the receive prefix
  EXPECT_FALSE(corrupt.validate());

  corrupt = s;
  corrupt.send_offsets = {0, 3, 2};  // non-monotone prefix
  EXPECT_FALSE(corrupt.validate());

  corrupt = s;
  corrupt.send_indices = {0, 1, 7};  // index outside the local segment
  EXPECT_FALSE(corrupt.validate());

  corrupt = s;
  corrupt.send_indices = {0, 1};  // flat array shorter than the prefix claims
  EXPECT_FALSE(corrupt.validate());
}

TEST(Executor, CheckReportsTypedErrorCodesAndPositions) {
  // The untrusted-input contract: every class of corruption maps to a named
  // ScheduleErrorCode (first violation wins) with the offending position,
  // and validate_or_throw surfaces it as a typed ScheduleInvalid.
  core::CommSchedule s;
  s.send_offsets = {0, 2, 3};
  s.recv_offsets = {0, 1, 4};
  s.send_indices = {0, 1, 2};
  s.nghost = 4;
  s.nlocal_at_build = 3;
  ASSERT_EQ(s.check().code, core::ScheduleErrorCode::Ok);

  auto corrupt = s;
  corrupt.recv_offsets = {0, 1};  // prefixes disagree on P
  EXPECT_EQ(corrupt.check().code,
            core::ScheduleErrorCode::PrefixShapeMismatch);

  corrupt = s;
  corrupt.send_offsets = {1, 2, 3};
  EXPECT_EQ(corrupt.check().code, core::ScheduleErrorCode::PrefixNotZeroBased);

  corrupt = s;
  corrupt.send_offsets = {0, 3, 2};
  EXPECT_EQ(corrupt.check().code, core::ScheduleErrorCode::PrefixNonMonotone);
  EXPECT_EQ(corrupt.check().position, 1);  // offending destination rank

  corrupt = s;
  corrupt.nghost = 5;
  EXPECT_EQ(corrupt.check().code, core::ScheduleErrorCode::GhostCountMismatch);

  corrupt = s;
  corrupt.send_indices = {0, 1};
  EXPECT_EQ(corrupt.check().code, core::ScheduleErrorCode::IndexCountMismatch);

  corrupt = s;
  corrupt.send_indices = {0, 1, 7};
  EXPECT_EQ(corrupt.check().code, core::ScheduleErrorCode::IndexOutOfBounds);
  EXPECT_EQ(corrupt.check().position, 2);  // flat index of the bad entry

  try {
    corrupt.validate_or_throw("test");
    FAIL() << "validate_or_throw accepted a corrupt schedule";
  } catch (const core::ScheduleInvalid& e) {
    EXPECT_EQ(e.code, core::ScheduleErrorCode::IndexOutOfBounds);
    EXPECT_EQ(e.position, 2);
    EXPECT_NE(std::string(e.what()).find("test:"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("local segment"), std::string::npos);
  }
}

TEST(Executor, ScheduleAccountingReadsCsrOffsets) {
  core::CommSchedule s;
  s.send_offsets = {0, 0, 3, 3, 5};  // sends to ranks 1 (3 words) and 3 (2)
  s.recv_offsets = {0, 2, 2, 2, 6};  // receives from ranks 0 (2) and 3 (4)
  s.send_indices = {0, 1, 2, 0, 4};
  s.nghost = 6;
  s.nlocal_at_build = 5;
  ASSERT_TRUE(s.validate());
  // Rank 2's view: 2 nonempty sends + 2 nonempty receives.
  EXPECT_EQ(s.messages(/*my_rank=*/2), 4);
  EXPECT_EQ(s.send_volume(/*my_rank=*/2), 5);
  // Self-traffic is excluded: as rank 1, the 3-word send to rank 1 is local.
  EXPECT_EQ(s.send_volume(/*my_rank=*/1), 2);
  EXPECT_EQ(s.messages(/*my_rank=*/1), 3);
  EXPECT_EQ(s.total_send(), 5);
  EXPECT_EQ(s.send_to(3).size(), 2u);
  EXPECT_EQ(s.send_to(3)[0], 0);
}

TEST(Executor, ReduceOpAlgebra) {
  using core::ReduceOp;
  EXPECT_DOUBLE_EQ(core::apply_reduce(ReduceOp::Add, 2.0, 3.0), 5.0);
  EXPECT_DOUBLE_EQ(core::apply_reduce(ReduceOp::Max, 2.0, 3.0), 3.0);
  EXPECT_DOUBLE_EQ(core::apply_reduce(ReduceOp::Min, 2.0, 3.0), 2.0);
  EXPECT_DOUBLE_EQ(core::apply_reduce(ReduceOp::Replace, 2.0, 3.0), 3.0);
  EXPECT_DOUBLE_EQ(core::reduce_identity<f64>(ReduceOp::Add), 0.0);
  EXPECT_GT(0.0, core::reduce_identity<f64>(ReduceOp::Max));
  EXPECT_LT(0.0, core::reduce_identity<f64>(ReduceOp::Min));
  // Identity really is neutral.
  EXPECT_DOUBLE_EQ(
      core::apply_reduce(ReduceOp::Max,
                         core::reduce_identity<f64>(ReduceOp::Max), -1e300),
      -1e300);
}

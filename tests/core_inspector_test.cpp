// Inspector (localize): localized references must address exactly the right
// values, duplicates must collapse to one ghost slot, and schedules must be
// internally consistent — swept across distributions and process counts.
#include <gtest/gtest.h>

#include <numeric>
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

std::shared_ptr<const dist::Distribution> make_dist(rt::Process& p, int kind,
                                                    i64 n) {
  switch (kind) {
    case 0: return dist::Distribution::block(p, n);
    case 1: return dist::Distribution::cyclic(p, n);
    default: {
      auto md = dist::Distribution::block(p, n);
      std::vector<i64> slice(static_cast<std::size_t>(md->my_local_size()));
      for (std::size_t l = 0; l < slice.size(); ++l) {
        const i64 g = md->global_of(p.rank(), static_cast<i64>(l));
        slice[l] = (g * 11 + 2) % p.nprocs();
      }
      return dist::Distribution::irregular_from_map(p, slice, *md, 16);
    }
  }
}

/// Deterministic per-rank reference list into [0, n).
std::vector<i64> make_refs(int rank, i64 n, i64 count, chaos::u64 seed) {
  chaos::wl::Rng rng(seed + static_cast<chaos::u64>(rank) * 977);
  std::vector<i64> refs(static_cast<std::size_t>(count));
  for (auto& r : refs) r = rng.below(n);
  return refs;
}

std::string kind_name(int kind) {
  return kind == 0 ? "block" : kind == 1 ? "cyclic" : "irregular";
}

}  // namespace

class LocalizeSweep
    : public ::testing::TestWithParam<std::tuple<int, i64, int>> {};

INSTANTIATE_TEST_SUITE_P(
    KindsSizesProcs, LocalizeSweep,
    ::testing::Combine(::testing::Values(0, 1, 2),
                       ::testing::Values<i64>(4, 100, 333),
                       ::testing::Values(1, 2, 4, 8)),
    [](const auto& info) {
      return kind_name(std::get<0>(info.param)) + "_N" +
             std::to_string(std::get<1>(info.param)) + "_P" +
             std::to_string(std::get<2>(info.param));
    });

TEST_P(LocalizeSweep, GatherThroughScheduleReadsCorrectValues) {
  const auto [kind, n, P] = GetParam();
  rt::Machine::run(P, [&, kind = kind, n = n](rt::Process& p) {
    auto d = make_dist(p, kind, n);
    dist::DistributedArray<f64> x(p, d);
    x.fill_by_global([](i64 g) { return 100.0 + static_cast<f64>(g); });

    const auto refs = make_refs(p.rank(), n, 3 * n + p.rank(), 5);
    core::InspectorWorkspace iws;
    core::Localized loc;
    core::localize(p, *d, refs, iws, loc);

    ASSERT_EQ(loc.refs.size(), refs.size());
    x.resize_ghost(loc.schedule.nghost);
    core::ExecutorWorkspace<f64> ews;
    core::gather_ghosts<f64>(p, loc.schedule, x.local(), x.ghost(), ews);
    for (std::size_t i = 0; i < refs.size(); ++i) {
      EXPECT_DOUBLE_EQ(x.localized(loc.refs[i]),
                       100.0 + static_cast<f64>(refs[i]))
          << "ref " << i << " -> global " << refs[i];
    }
  });
}

TEST_P(LocalizeSweep, DuplicateReferencesShareGhostSlots) {
  const auto [kind, n, P] = GetParam();
  rt::Machine::run(P, [&, kind = kind, n = n](rt::Process& p) {
    auto d = make_dist(p, kind, n);
    // Reference global 0 and n-1, each many times.
    std::vector<i64> refs;
    for (int k = 0; k < 50; ++k) {
      refs.push_back(0);
      refs.push_back(n - 1);
    }
    core::InspectorWorkspace iws;
    core::Localized loc;
    core::localize(p, *d, refs, iws, loc);
    // At most two distinct off-process targets => at most 2 ghost slots.
    EXPECT_LE(loc.schedule.nghost, 2);
    // All occurrences of the same global localize identically.
    for (std::size_t i = 2; i < refs.size(); ++i) {
      EXPECT_EQ(loc.refs[i], loc.refs[i - 2]);
    }
  });
}

TEST_P(LocalizeSweep, ScheduleAccountingIsConsistent) {
  const auto [kind, n, P] = GetParam();
  rt::Machine::run(P, [&, kind = kind, n = n](rt::Process& p) {
    auto d = make_dist(p, kind, n);
    const auto refs = make_refs(p.rank(), n, 2 * n, 17);
    core::InspectorWorkspace iws;
    core::Localized loc;
    core::localize(p, *d, refs, iws, loc);

    // Full CSR structural validation, plus: nghost equals the sum of
    // per-source recv counts and recv_offset is the cached prefix.
    EXPECT_TRUE(loc.schedule.validate());
    i64 sum = 0;
    for (int s = 0; s < p.nprocs(); ++s) {
      EXPECT_EQ(loc.schedule.recv_offset(s), sum);
      sum += loc.schedule.recv_count(s);
    }
    EXPECT_EQ(sum, loc.schedule.nghost);
    EXPECT_EQ(loc.schedule.nlocal_at_build, d->my_local_size());
    // Ghost slots never exceed distinct off-process references.
    EXPECT_LE(loc.schedule.nghost, loc.off_process_refs);
    // Every localized index is within [0, nlocal + nghost).
    for (i64 r : loc.refs) {
      EXPECT_GE(r, 0);
      EXPECT_LT(r, d->my_local_size() + loc.schedule.nghost);
    }
    // Send/recv sides must agree pairwise across the machine: what I send
    // to rank d equals what rank d expects from me.
    std::vector<i64> my_send_counts(static_cast<std::size_t>(p.nprocs()));
    for (int r = 0; r < p.nprocs(); ++r) {
      my_send_counts[static_cast<std::size_t>(r)] = loc.schedule.send_count(r);
      EXPECT_EQ(loc.schedule.send_to(r).size(),
                static_cast<std::size_t>(loc.schedule.send_count(r)));
    }
    auto send_matrix = rt::allgatherv<i64>(p, my_send_counts);
    for (int src = 0; src < p.nprocs(); ++src) {
      const i64 they_send_me =
          send_matrix[static_cast<std::size_t>(src) *
                          static_cast<std::size_t>(p.nprocs()) +
                      static_cast<std::size_t>(p.rank())];
      EXPECT_EQ(they_send_me, loc.schedule.recv_count(src));
    }
  });
}

TEST(Localize, ManyBatchesShareOneDedupTable) {
  rt::Machine::run(4, [](rt::Process& p) {
    constexpr i64 n = 40;
    auto d = dist::Distribution::block(p, n);
    // Both batches reference the same single remote element.
    const i64 target = (p.rank() == 0) ? n - 1 : 0;
    std::vector<i64> b1(7, target), b2(9, target);
    const std::span<const i64> batches[] = {b1, b2};
    core::InspectorWorkspace iws;
    core::LocalizedMany loc;
    core::localize_many(p, *d, batches, iws, loc);
    ASSERT_EQ(loc.refs.size(), 2u);
    EXPECT_EQ(loc.refs[0].size(), b1.size());
    EXPECT_EQ(loc.refs[1].size(), b2.size());
    // One distinct off-process target => exactly one ghost slot shared by
    // both batches.
    EXPECT_EQ(loc.schedule.nghost, 1);
    EXPECT_EQ(loc.refs[0][0], loc.refs[1][0]);
  });
}

class WorkspaceSweep : public LocalizeSweep {};

INSTANTIATE_TEST_SUITE_P(
    KindsSizesProcs, WorkspaceSweep,
    ::testing::Combine(::testing::Values(0, 1, 2),
                       ::testing::Values<i64>(4, 100, 333),
                       ::testing::Values(1, 2, 4, 8)),
    [](const auto& info) {
      return kind_name(std::get<0>(info.param)) + "_N" +
             std::to_string(std::get<1>(info.param)) + "_P" +
             std::to_string(std::get<2>(info.param));
    });

TEST_P(WorkspaceSweep, WarmWorkspaceIsBitIdenticalToFreshWorkspace) {
  const auto [kind, n, P] = GetParam();
  rt::Machine::run(P, [&, kind = kind, n = n](rt::Process& p) {
    auto d = make_dist(p, kind, n);
    const auto refs = make_refs(p.rank(), n, 3 * n + p.rank(), 23);
    core::InspectorWorkspace fresh_ws;
    core::Localized value;
    core::localize(p, *d, refs, fresh_ws, value);

    core::InspectorWorkspace ws;
    core::Localized out;
    // Three rounds through one workspace: the first sizes the buffers, the
    // rest re-run warm — every round must reproduce the fresh-workspace
    // result exactly (refs, full CSR schedule, and the pre-dedup counter).
    for (int round = 0; round < 3; ++round) {
      core::localize(p, *d, refs, ws, out);
      EXPECT_EQ(out.refs, value.refs);
      EXPECT_EQ(out.schedule.send_indices, value.schedule.send_indices);
      EXPECT_EQ(out.schedule.send_offsets, value.schedule.send_offsets);
      EXPECT_EQ(out.schedule.recv_offsets, value.schedule.recv_offsets);
      EXPECT_EQ(out.schedule.nghost, value.schedule.nghost);
      EXPECT_EQ(out.schedule.nlocal_at_build, value.schedule.nlocal_at_build);
      EXPECT_EQ(out.off_process_refs, value.off_process_refs);
    }
  });
}

TEST(Localize, HeavyDuplicatesCollapseLocateQueryVolume) {
  // Each distinct global is referenced 8x; the dedup-first pipeline must
  // push only the distinct set through the translation table.
  rt::Machine::run(4, [](rt::Process& p) {
    constexpr i64 n = 128;
    auto d = make_dist(p, 2, n);  // irregular: locate goes through the table
    std::vector<i64> refs;
    const i64 distinct = n / 2;
    for (int rep = 0; rep < 8; ++rep) {
      for (i64 g = 0; g < distinct; ++g) {
        refs.push_back((g * 5 + static_cast<i64>(p.rank())) % n);
      }
    }

    core::InspectorWorkspace ws;
    core::Localized out;
    const i64 queries_before = d->table()->stats().queries;
    core::localize(p, *d, refs, ws, out);
    const i64 queries = d->table()->stats().queries - queries_before;

    EXPECT_EQ(ws.last_total_refs(), static_cast<i64>(refs.size()));
    EXPECT_EQ(ws.last_distinct_refs(), distinct);
    EXPECT_EQ(queries, distinct);  // 8x fewer than the reference stream
    // Wire volume never exceeds the distinct set either.
    EXPECT_LE(d->table()->stats().wire_queries, distinct);
  });
}

TEST(Localize, WorkspaceWarmRerunKeepsBufferAddressesStable) {
  // Zero-allocation claim, observable without an allocator hook: once warm,
  // re-localizing same-shaped input must not move any output buffer.
  rt::Machine::run(4, [](rt::Process& p) {
    constexpr i64 n = 256;
    auto d = dist::Distribution::block(p, n);
    const auto refs = make_refs(p.rank(), n, 4 * n, 71);
    core::InspectorWorkspace ws;
    core::Localized out;
    core::localize(p, *d, refs, ws, out);  // warmup sizes everything
    const i64* refs_data = out.refs.data();
    const i64* send_data = out.schedule.send_indices.data();
    const i64* sendoff_data = out.schedule.send_offsets.data();
    const i64* recvoff_data = out.schedule.recv_offsets.data();
    for (int round = 0; round < 3; ++round) {
      core::localize(p, *d, refs, ws, out);
      EXPECT_EQ(out.refs.data(), refs_data);
      EXPECT_EQ(out.schedule.send_indices.data(), send_data);
      EXPECT_EQ(out.schedule.send_offsets.data(), sendoff_data);
      EXPECT_EQ(out.schedule.recv_offsets.data(), recvoff_data);
    }
  });
}

TEST(Localize, WorkspaceHandlesEmptyAllLocalAndSingleProcess) {
  // P=1: every reference is owned, the schedule is trivially empty.
  rt::Machine::run(1, [](rt::Process& p) {
    auto d = dist::Distribution::block(p, 32);
    const auto refs = make_refs(0, 32, 200, 3);
    core::InspectorWorkspace ws;
    core::Localized out;
    core::localize(p, *d, refs, ws, out);
    EXPECT_EQ(out.schedule.nghost, 0);
    EXPECT_EQ(out.off_process_refs, 0);
    for (std::size_t i = 0; i < refs.size(); ++i) {
      EXPECT_EQ(out.refs[i], refs[i]);
    }
  });
  // Empty batch and all-local batch through one reused workspace.
  rt::Machine::run(4, [](rt::Process& p) {
    auto d = dist::Distribution::block(p, 64);
    core::InspectorWorkspace ws;
    core::Localized out;
    core::localize(p, *d, std::vector<i64>{}, ws, out);
    EXPECT_TRUE(out.refs.empty());
    EXPECT_EQ(out.schedule.nghost, 0);

    const auto mine = d->my_globals();
    core::localize(p, *d, mine, ws, out);
    EXPECT_EQ(out.schedule.nghost, 0);
    EXPECT_EQ(out.off_process_refs, 0);
    for (std::size_t l = 0; l < mine.size(); ++l) {
      EXPECT_EQ(out.refs[l], static_cast<i64>(l));
    }
  });
}

TEST(Localize, OutOfRangeReferenceIsRejected) {
  EXPECT_THROW(rt::Machine::run(2,
                                [](rt::Process& p) {
                                  auto d = dist::Distribution::block(p, 10);
                                  std::vector<i64> refs{0, 10};
                                  core::InspectorWorkspace ws;
                                  core::Localized out;
                                  core::localize(p, *d, refs, ws, out);
                                }),
               chaos::ChaosError);
  // More distinct out-of-range references than the dedup table, sized by
  // the distribution's extent, has slots: the range check must reject the
  // first of them before it is inserted, never fill the table and spin.
  constexpr i64 n = 10;
  for (const int kind : {0, 2}) {
    EXPECT_THROW(rt::Machine::run(2,
                                  [kind](rt::Process& p) {
                                    auto d = make_dist(p, kind, n);
                                    std::vector<i64> refs{0, 1};
                                    for (i64 k = 0; k < 20 * n; ++k) {
                                      refs.push_back(k % 2 == 0 ? n + k
                                                                : -1 - k);
                                    }
                                    core::InspectorWorkspace ws;
                                    core::Localized out;
                                    core::localize(p, *d, refs, ws, out);
                                  }),
                 chaos::ChaosError)
        << kind_name(kind);
  }
}

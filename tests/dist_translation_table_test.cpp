// Translation table: duplicate / coverage detection at build, and the
// dereference protocol — answers checked against the test's own ownership
// map on every layout, the 3-collective (paged) / 0-collective (replicated)
// budget, the edge shapes (empty rank, all-local, P=1), and the out-of-range
// error text.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <random>
#include <string>
#include <tuple>
#include <vector>

#include "dist/dereference_workspace.hpp"
#include "dist/translation_table.hpp"
#include "rt/collectives.hpp"

namespace rt = chaos::rt;
namespace dist = chaos::dist;
using chaos::i64;

namespace {

// Deterministically deals [0, n) to P ranks in a shuffled round-robin, so
// ownership is scattered across pages: the k-th shuffled global goes to rank
// k % P at local slot k / P. Returns the whole map, indexed by global.
std::vector<dist::Entry> shuffled_map(i64 n, int nprocs, unsigned seed) {
  std::vector<i64> all(static_cast<std::size_t>(n));
  std::iota(all.begin(), all.end(), 0);
  std::mt19937 rng(seed);
  std::shuffle(all.begin(), all.end(), rng);
  std::vector<dist::Entry> map(static_cast<std::size_t>(n));
  const auto np = static_cast<std::size_t>(nprocs);
  for (std::size_t k = 0; k < all.size(); ++k) {
    map[static_cast<std::size_t>(all[k])] =
        dist::Entry{static_cast<chaos::i32>(k % np), static_cast<i64>(k / np)};
  }
  return map;
}

// This rank's globals from @p map, in the local order the table must keep.
std::vector<i64> mine_of(const std::vector<dist::Entry>& map, int rank) {
  std::vector<i64> mine;
  for (std::size_t g = 0; g < map.size(); ++g) {
    if (map[g].proc != rank) continue;
    const auto l = static_cast<std::size_t>(map[g].local);
    if (mine.size() <= l) mine.resize(l + 1);
    mine[l] = static_cast<i64>(g);
  }
  return mine;
}

void expect_answers(const std::vector<dist::Entry>& map,
                    const std::vector<i64>& q,
                    const std::vector<dist::Entry>& out) {
  ASSERT_EQ(out.size(), q.size());
  for (std::size_t k = 0; k < q.size(); ++k) {
    const auto& want = map[static_cast<std::size_t>(q[k])];
    EXPECT_EQ(out[k].proc, want.proc) << "global " << q[k];
    EXPECT_EQ(out[k].local, want.local) << "global " << q[k];
  }
}

}  // namespace

class TTableSweep
    : public ::testing::TestWithParam<std::tuple<i64, int, i64, bool>> {};

INSTANTIATE_TEST_SUITE_P(
    SizesProcsPages, TTableSweep,
    ::testing::Combine(::testing::Values<i64>(1, 17, 256, 1000),
                       ::testing::Values(1, 2, 4, 8),
                       ::testing::Values<i64>(1, 7, 64, 4096),
                       ::testing::Bool()),
    [](const auto& info) {
      return "N" + std::to_string(std::get<0>(info.param)) + "_P" +
             std::to_string(std::get<1>(info.param)) + "_pg" +
             std::to_string(std::get<2>(info.param)) +
             (std::get<3>(info.param) ? "_repl" : "_dist");
    });

TEST_P(TTableSweep, DereferenceRecoversOwnership) {
  const auto [n, P, page, repl] = GetParam();
  rt::Machine::run(P, [&, n = n, page = page, repl = repl](rt::Process& p) {
    const auto map = shuffled_map(n, p.nprocs(), /*seed=*/42);
    const auto mine = mine_of(map, p.rank());
    auto tt = dist::TranslationTable::build(p, n, mine, page, repl);
    EXPECT_EQ(tt->local_count(p.rank()), static_cast<i64>(mine.size()));

    // Every global plus rank-skewed duplicates: the protocol dedups per home
    // on the wire, so duplicate-heavy inputs are the interesting case.
    std::vector<i64> q(static_cast<std::size_t>(n));
    std::iota(q.begin(), q.end(), 0);
    for (i64 g = p.rank(); g < n; g += 3) q.push_back(g);

    std::vector<dist::Entry> out;
    dist::DereferenceWorkspace ws;
    tt->dereference(p, q, out, ws);
    expect_answers(map, q, out);

    // Warm repeat through the same workspace: same answers, and the stats
    // hold the collective budget — exactly 3 per paged call, 0 replicated.
    tt->dereference(p, q, out, ws);
    expect_answers(map, q, out);
    EXPECT_EQ(tt->stats().calls, 2);
    EXPECT_EQ(tt->stats().collectives, repl ? 0 : 2 * 3);
    EXPECT_EQ(tt->stats().queries, 2 * static_cast<i64>(q.size()));
    EXPECT_EQ(p.stats().ttable_flat_calls, 2);
    if (repl) {
      EXPECT_EQ(tt->stats().wire_queries, 0);
    }
  });
}

TEST_P(TTableSweep, EmptyQueriesAreLegal) {
  const auto [n, P, page, repl] = GetParam();
  rt::Machine::run(P, [&, n = n, page = page, repl = repl](rt::Process& p) {
    const auto map = shuffled_map(n, p.nprocs(), 7);
    auto tt = dist::TranslationTable::build(p, n, mine_of(map, p.rank()),
                                            page, repl);
    // Only rank 0 queries; everyone else passes empty lists (still
    // collective — the exchange must tolerate asymmetric load).
    std::vector<i64> q;
    if (p.is_root() && n > 0) q = {0, n - 1, 0};
    std::vector<dist::Entry> out;
    dist::DereferenceWorkspace ws;
    tt->dereference(p, q, out, ws);
    expect_answers(map, q, out);
  });
}

TEST(TranslationTable, RepeatedQueriesGetConsistentAnswers) {
  rt::Machine::run(4, [](rt::Process& p) {
    constexpr i64 n = 64;
    const auto map = shuffled_map(n, p.nprocs(), 3);
    auto tt = dist::TranslationTable::build(p, n, mine_of(map, p.rank()), 8);
    std::vector<i64> q(static_cast<std::size_t>(n), 13);  // same index, n times
    std::vector<dist::Entry> out;
    dist::DereferenceWorkspace ws;
    tt->dereference(p, q, out, ws);
    expect_answers(map, q, out);
  });
}

TEST(TranslationTable, DetectsDoubleClaim) {
  EXPECT_THROW(
      rt::Machine::run(2,
                       [](rt::Process& p) {
                         // Both ranks claim global 0; rank 1 also skips 1.
                         std::vector<i64> mine =
                             p.rank() == 0 ? std::vector<i64>{0} : std::vector<i64>{0};
                         (void)dist::TranslationTable::build(p, 2, mine, 4);
                       }),
      chaos::ChaosError);
}

TEST(TranslationTable, DetectsUnclaimedIndex) {
  EXPECT_THROW(
      rt::Machine::run(2,
                       [](rt::Process& p) {
                         // Global size 3 but only two elements claimed.
                         std::vector<i64> mine =
                             p.rank() == 0 ? std::vector<i64>{0} : std::vector<i64>{2};
                         (void)dist::TranslationTable::build(p, 3, mine, 4);
                       }),
      chaos::ChaosError);
}

TEST(TranslationTable, RejectsOutOfRangeClaims) {
  EXPECT_THROW(
      rt::Machine::run(2,
                       [](rt::Process& p) {
                         std::vector<i64> mine =
                             p.rank() == 0 ? std::vector<i64>{0, 5} : std::vector<i64>{1};
                         (void)dist::TranslationTable::build(p, 3, mine, 4);
                       }),
      chaos::ChaosError);
}

TEST(TranslationTable, EmptyRanksAndAsymmetricQueries) {
  // Ranks 1 and 3 own nothing and ask nothing: the pager must still host
  // their share of the pages, accept a zero-length claim vector, and the
  // exchange must tolerate a rank that neither owns nor queries — both table
  // organizations, including page_size 1 (one global per page).
  rt::Machine::run(4, [](rt::Process& p) {
    constexpr i64 n = 40;
    std::vector<i64> mine;
    if (p.rank() == 0) {
      for (i64 g = 0; g < n; g += 2) mine.push_back(g);  // evens
    } else if (p.rank() == 2) {
      for (i64 g = 1; g < n; g += 2) mine.push_back(g);  // odds
    }
    std::vector<dist::Entry> map(static_cast<std::size_t>(n));
    for (i64 g = 0; g < n; ++g) {
      map[static_cast<std::size_t>(g)] = dist::Entry{g % 2 == 0 ? 0 : 2, g / 2};
    }
    std::vector<i64> all(static_cast<std::size_t>(n));
    std::iota(all.begin(), all.end(), 0);
    for (const i64 page : {i64{1}, i64{4}, i64{64}}) {
      for (const bool repl : {false, true}) {
        auto tt = dist::TranslationTable::build(p, n, mine, page, repl);
        EXPECT_EQ(tt->local_count(0), n / 2);
        EXPECT_EQ(tt->local_count(1), 0);
        EXPECT_EQ(tt->local_count(2), n / 2);
        EXPECT_EQ(tt->local_count(3), 0);
        std::vector<dist::Entry> out;
        dist::DereferenceWorkspace ws;
        tt->dereference(p, all, out, ws);
        expect_answers(map, all, out);
        std::vector<i64> q;
        if (!mine.empty()) q = {0, n - 1, 0, 7};
        tt->dereference(p, q, out, ws);
        expect_answers(map, q, out);
      }
    }
  });
}

TEST(TranslationTable, AllLocalQueriesShipNothing) {
  // Each rank asks only about globals whose pages it hosts: the request CSR
  // is all-empty, the three collectives still run (they are collective), but
  // no request word travels.
  rt::Machine::run(4, [](rt::Process& p) {
    constexpr i64 n = 64;
    constexpr i64 page = 4;
    const auto map = shuffled_map(n, p.nprocs(), 5);
    auto tt = dist::TranslationTable::build(p, n, mine_of(map, p.rank()), page,
                                            false);
    std::vector<i64> q;
    for (i64 g = 0; g < n; ++g) {
      if ((g / page) % p.nprocs() == p.rank()) q.push_back(g);
    }
    std::vector<dist::Entry> out;
    dist::DereferenceWorkspace ws;
    tt->dereference(p, q, out, ws);
    expect_answers(map, q, out);
    EXPECT_EQ(tt->stats().wire_queries, 0);
    EXPECT_EQ(tt->stats().collectives, 3);
    EXPECT_EQ(p.stats().ttable_flat_wire_queries, 0);
  });
}

TEST(TranslationTable, SingleProcess) {
  rt::Machine::run(1, [](rt::Process& p) {
    constexpr i64 n = 33;
    std::vector<i64> mine(static_cast<std::size_t>(n));
    std::iota(mine.begin(), mine.end(), 0);
    std::reverse(mine.begin(), mine.end());  // local order != global order
    auto tt = dist::TranslationTable::build(p, n, mine, 8, false);
    const std::vector<i64> q = {0, 32, 5, 5, 17};
    std::vector<dist::Entry> out;
    dist::DereferenceWorkspace ws;
    tt->dereference(p, q, out, ws);
    ASSERT_EQ(out.size(), q.size());
    for (std::size_t k = 0; k < q.size(); ++k) {
      EXPECT_EQ(out[k].proc, 0);
      EXPECT_EQ(out[k].local, n - 1 - q[k]);
    }
    EXPECT_EQ(tt->stats().wire_queries, 0);  // everything self-homed
  });
}

TEST(TranslationTable, OutOfRangeQueryThrowsBeforeAnyCollective) {
  // Every rank passes the same bad query, so each throws locally before any
  // collective, with a message naming the index and the valid range.
  try {
    rt::Machine::run(2, [](rt::Process& p) {
      const auto map = shuffled_map(10, p.nprocs(), 3);
      auto tt = dist::TranslationTable::build(p, 10, mine_of(map, p.rank()), 4);
      const std::vector<i64> q = {10};
      std::vector<dist::Entry> out;
      dist::DereferenceWorkspace ws;
      tt->dereference(p, q, out, ws);
    });
    FAIL() << "dereference accepted an out-of-range query";
  } catch (const chaos::ChaosError& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "translation table: dereferenced index 10 outside [0, 10)"),
              std::string::npos);
  }
}

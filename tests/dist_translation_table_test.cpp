// Translation table: duplicate / coverage detection at build, and the
// dereference protocol — answers checked against the test's own ownership
// map on every layout, the 3-collective (paged) / 0-collective (replicated)
// budget, the edge shapes (empty rank, all-local, P=1), the out-of-range
// error text, a seeded differential check of the hashed remote dedup
// against a brute-force count of distinct remote globals, the division-free
// page arithmetic and its 2^32 reach, and the find-or-insert table that
// dedup runs on, in both its hashed and its direct-index passes.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <random>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "dist/dedup_table.hpp"
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
    tt->dereference(p, q, out);
    expect_answers(map, q, out);

    // Warm repeat on the same thread's scratch: same answers, and the stats
    // hold the collective budget — exactly 3 per paged call, 0 replicated.
    tt->dereference(p, q, out);
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
    tt->dereference(p, q, out);
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
    tt->dereference(p, q, out);
    expect_answers(map, q, out);
  });
}

TEST(TranslationTable, RejectsAnExtentBeyondThePageArithmetic) {
  // Page, home and slot come from 32-bit reciprocals, so a table covers
  // fewer than 2^32 globals; a larger extent throws at build, on every rank
  // before any collective, whichever organization it asks for.
  rt::Machine::run(2, [](rt::Process& p) {
    for (const bool replicated : {false, true}) {
      try {
        (void)dist::TranslationTable::build(p, i64{1} << 32, {}, 4096,
                                            replicated);
        ADD_FAILURE() << "build accepted 2^32 globals";
      } catch (const chaos::ChaosError& e) {
        EXPECT_NE(std::string(e.what()).find(
                      "4294967296 globals exceed the 2^32"),
                  std::string::npos)
            << e.what();
      }
    }
    // The largest legal extent still passes the check (and then fails on
    // coverage, since nobody claims anything).
    EXPECT_THROW((void)dist::TranslationTable::build(
                     p, (i64{1} << 32) - 1, {}, 4096),
                 chaos::ChaosError);
  });
}

TEST(Reciprocal, DividesExactlyAcrossTheThirtyTwoBitRange) {
  // floor(a / d) for a < 2^32 and 1 <= d < 2^32, at every quotient
  // boundary near 0, near a / d = 1 and at the top of the range, and on a
  // strided sweep in between.
  constexpr chaos::u64 top = (chaos::u64{1} << 32) - 1;
  for (const chaos::u64 d :
       {chaos::u64{1}, chaos::u64{2}, chaos::u64{3}, chaos::u64{7},
        chaos::u64{64}, chaos::u64{4095}, chaos::u64{4096}, chaos::u64{4097},
        chaos::u64{65521}, (chaos::u64{1} << 31) - 1, chaos::u64{1} << 31,
        top - 1, top}) {
    const dist::detail::Reciprocal r(d);
    const chaos::u64 last = top / d * d;  // the largest multiple of d
    for (const chaos::u64 a : {chaos::u64{0}, chaos::u64{1}, d - 1, d, d + 1,
                               2 * d - 1, last - 1, last, top - 1, top}) {
      if (a > top) continue;
      EXPECT_EQ(r.div(a), a / d) << a << " / " << d;
    }
    for (chaos::u64 a = 0; a <= top; a += 104729 * 97) {
      ASSERT_EQ(r.div(a), a / d) << a << " / " << d;
    }
  }
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
        tt->dereference(p, all, out);
        expect_answers(map, all, out);
        std::vector<i64> q;
        if (!mine.empty()) q = {0, n - 1, 0, 7};
        tt->dereference(p, q, out);
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
    tt->dereference(p, q, out);
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
    tt->dereference(p, q, out);
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
      tt->dereference(p, q, out);
    });
    FAIL() << "dereference accepted an out-of-range query";
  } catch (const chaos::ChaosError& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "translation table: dereferenced index 10 outside [0, 10)"),
              std::string::npos);
  }
}

namespace {

// Deals the shuffled [0, n) round-robin over the ranks r with r % 3 != 1,
// so at P >= 2 some ranks own nothing (rank 1 always among them).
std::vector<dist::Entry> map_with_empty_ranks(i64 n, int nprocs,
                                              unsigned seed) {
  std::vector<chaos::i32> owners;
  for (int r = 0; r < nprocs; ++r) {
    if (r % 3 != 1) owners.push_back(r);
  }
  std::vector<i64> all(static_cast<std::size_t>(n));
  std::iota(all.begin(), all.end(), 0);
  std::mt19937 rng(seed);
  std::shuffle(all.begin(), all.end(), rng);
  std::vector<dist::Entry> map(static_cast<std::size_t>(n));
  for (std::size_t k = 0; k < all.size(); ++k) {
    map[static_cast<std::size_t>(all[k])] =
        dist::Entry{owners[k % owners.size()],
                    static_cast<i64>(k / owners.size())};
  }
  return map;
}

}  // namespace

class TTableDifferential
    : public ::testing::TestWithParam<std::tuple<int, i64>> {};

INSTANTIATE_TEST_SUITE_P(
    ProcsPages, TTableDifferential,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 8),
                       ::testing::Values<i64>(1, 7, 64, 4096)),
    [](const auto& info) {
      return "P" + std::to_string(std::get<0>(info.param)) + "_pg" +
             std::to_string(std::get<1>(info.param));
    });

TEST_P(TTableDifferential, DedupedWireMatchesBruteForce) {
  // Every batch is answered against the ownership map, and the words it
  // puts on the wire must equal the number of distinct globals homed on
  // another rank — no more (a missed repeat) and no fewer (a false merge).
  const auto [P, page] = GetParam();
  rt::Machine::run(P, [&, page = page](rt::Process& p) {
    constexpr i64 n = 997;  // prime: the last page is ragged for every size
    const auto map = map_with_empty_ranks(n, p.nprocs(), 11);
    auto tt = dist::TranslationTable::build(p, n, mine_of(map, p.rank()),
                                            page, false);
    std::mt19937 rng(1234u + static_cast<unsigned>(p.rank()));

    std::vector<std::vector<i64>> batches;
    // Shuffled, heavily repeating: 3n draws from a pool of n/8 globals. The
    // last rank of a multi-rank machine asks nothing.
    std::vector<i64> pool(static_cast<std::size_t>(n / 8));
    std::uniform_int_distribution<i64> any(0, n - 1);
    for (auto& g : pool) g = any(rng);
    std::uniform_int_distribution<std::size_t> pick(0, pool.size() - 1);
    std::vector<i64> repeats;
    if (p.nprocs() == 1 || p.rank() != p.nprocs() - 1) {
      for (i64 k = 0; k < 3 * n; ++k) repeats.push_back(pool[pick(rng)]);
    }
    batches.push_back(repeats);
    // Strictly ascending (the build_remap shape): every third global from a
    // rank-dependent start.
    std::vector<i64> ascending;
    for (i64 g = p.rank() % 3; g < n; g += 3) ascending.push_back(g);
    batches.push_back(ascending);
    // Ascending but not strictly: repeats next to each other must still be
    // merged on the wire.
    std::vector<i64> plateaus;
    for (i64 g = 0; g < n; g += 5) plateaus.insert(plateaus.end(), 3, g);
    batches.push_back(plateaus);
    // A second, smaller shuffled call after the large ones: the thread's
    // scratch is bigger than this call needs and holds the old entries.
    std::vector<i64> small;
    for (int k = 0; k < 9; ++k) small.push_back(pool[pick(rng)]);
    small.push_back(small.front());
    batches.push_back(small);

    std::vector<dist::Entry> out;
    for (const auto& q : batches) {
      std::set<i64> remote;
      for (const i64 g : q) {
        if ((g / page) % p.nprocs() != p.rank()) remote.insert(g);
      }
      const i64 wire_before = tt->stats().wire_queries;
      const i64 flat_before = p.stats().ttable_flat_wire_queries;
      tt->dereference(p, q, out);
      expect_answers(map, q, out);
      EXPECT_EQ(tt->stats().wire_queries - wire_before,
                static_cast<i64>(remote.size()));
      EXPECT_EQ(p.stats().ttable_flat_wire_queries - flat_before,
                static_cast<i64>(remote.size()));
    }
    EXPECT_EQ(tt->stats().collectives, 3 * static_cast<i64>(batches.size()));
  });
}

TEST(DedupTable, KeepsTheCallersIdsForOnePass) {
  // The table never picks an id: a new key holds what the caller writes,
  // every repeat reads it back, and a new pass forgets the old keys.
  dist::DedupTable t;
  t.begin(100, 100 * 1009);
  for (i64 k = 0; k < 100; ++k) {
    auto [id, fresh] = t.find_or_insert(k * 1009);
    ASSERT_TRUE(fresh);
    id = static_cast<chaos::u32>(99 - k);
  }
  for (i64 k = 0; k < 100; ++k) {
    auto [id, fresh] = t.find_or_insert(k * 1009);
    EXPECT_FALSE(fresh);
    EXPECT_EQ(id, 99 - k);
    EXPECT_EQ(t.find(k * 1009), 99 - k);
  }
  EXPECT_EQ(t.find(1), -1);
  // A new pass forgets every key, whether it probes the whole table again
  // or a smaller prefix of it that still holds the older slots.
  t.begin(100, 100 * 1009);
  EXPECT_EQ(t.find(1009), -1);
  EXPECT_TRUE(t.find_or_insert(1009).second);
  t.begin(3, 100 * 1009);
  EXPECT_EQ(t.find(0), -1);
  EXPECT_EQ(t.find(1009), -1);
  EXPECT_TRUE(t.find_or_insert(0).second);
  EXPECT_FALSE(t.find_or_insert(0).second);
  EXPECT_THROW(t.begin(i64{1} << 33, i64{1} << 33), chaos::ChaosError);
}

TEST(DedupTable, DirectIndexAndHashedPassesShareOneStorage) {
  // A pass whose key range fits the table indexes each key's own slot; one
  // whose range does not hashes into the same slots. Alternating the two
  // must keep each pass's ids, miss every key the pass did not insert, and
  // forget every key of an older pass, of either kind.
  dist::DedupTable t;
  const auto direct_key = [](i64 k, int round) {
    return (k * 37 + round) % 100;  // 37 is coprime to 100: 40 distinct keys
  };
  const auto hashed_key = [](i64 k, int round) {
    return (k + 1) * 1000003 + round;
  };
  for (int round = 0; round < 4; ++round) {
    // 40 keys of [0, 100): the 128-slot table covers the range.
    t.begin(40, 100);
    std::set<i64> in;
    for (i64 k = 0; k < 40; ++k) {
      auto [id, fresh] = t.find_or_insert(direct_key(k, round));
      ASSERT_TRUE(fresh);
      id = static_cast<chaos::u32>(1000 * round + k);
      in.insert(direct_key(k, round));
    }
    for (i64 k = 0; k < 40; ++k) {
      auto [id, fresh] = t.find_or_insert(direct_key(k, round));
      EXPECT_FALSE(fresh);
      EXPECT_EQ(id, 1000 * round + k);
    }
    for (i64 g = 0; g < 100; ++g) {
      if (in.count(g) == 0) {
        EXPECT_EQ(t.find(g), -1) << g;
      }
    }
    for (i64 k = 0; k < 40; ++k) {
      EXPECT_EQ(t.find(hashed_key(k, round)), -1);
    }

    // The same 40-key bound over a range far larger than the table.
    t.begin(40, i64{1} << 40);
    for (i64 g = 0; g < 100; ++g) EXPECT_EQ(t.find(g), -1) << g;
    for (i64 k = 0; k < 40; ++k) {
      auto [id, fresh] = t.find_or_insert(hashed_key(k, round));
      ASSERT_TRUE(fresh);
      id = static_cast<chaos::u32>(k);
    }
    for (i64 k = 0; k < 40; ++k) {
      EXPECT_EQ(t.find(hashed_key(k, round)), k);
      EXPECT_FALSE(t.find_or_insert(hashed_key(k, round)).second);
    }
  }

  // After a pass grows the table to 2048 slots, a small pass over a range
  // of 2000 indexes the whole grown table directly: keys at both ends of
  // the range, and an earlier pass's keys forgotten.
  t.begin(1000, i64{1} << 40);
  for (i64 k = 0; k < 1000; ++k) t.find_or_insert(k * 7919).first = 1;
  t.begin(10, 2000);
  for (i64 k = 0; k < 10; ++k) {
    const i64 g = k % 2 == 0 ? k : 1999 - k;
    auto [id, fresh] = t.find_or_insert(g);
    ASSERT_TRUE(fresh) << g;
    id = static_cast<chaos::u32>(k + 7);
  }
  for (i64 k = 0; k < 10; ++k) {
    EXPECT_EQ(t.find(k % 2 == 0 ? k : 1999 - k), k + 7);
  }
  EXPECT_EQ(t.find(0 + 7919), -1);
  EXPECT_EQ(t.find(1), -1);
}

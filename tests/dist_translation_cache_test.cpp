// TranslationCache: bounded persistent global->(proc,local) caching with
// epoch-flush binding semantics. The dangerous direction is staleness — a
// cache surviving a REDISTRIBUTE must flush on rebind, and *using* one still
// bound to the pre-remap distribution must throw, never serve a stale hit.
#include <gtest/gtest.h>

#include <vector>

#include "core/inspector.hpp"
#include "core/reuse.hpp"
#include "dist/translation_cache.hpp"
#include "rt/collectives.hpp"

namespace rt = chaos::rt;
namespace dist = chaos::dist;
namespace core = chaos::core;
using chaos::i64;

namespace {

/// Deterministic irregular distribution: owner of global g is
/// (g * stride + shift) % P.
std::shared_ptr<const dist::Distribution> make_irregular(rt::Process& p, i64 n,
                                                         i64 stride,
                                                         i64 shift) {
  auto md = dist::Distribution::block(p, n);
  std::vector<i64> slice(static_cast<std::size_t>(md->my_local_size()));
  for (std::size_t l = 0; l < slice.size(); ++l) {
    const i64 g = md->global_of(p.rank(), static_cast<i64>(l));
    slice[l] = (g * stride + shift) % p.nprocs();
  }
  return dist::Distribution::irregular_from_map(p, slice, *md, 16);
}

}  // namespace

TEST(TranslationCache, PutGetRoundTripAndCounters) {
  dist::TranslationCache c(64);
  dist::Entry e;
  EXPECT_FALSE(c.try_get(7, e));
  EXPECT_EQ(c.stats().misses, 1);
  c.put(7, dist::Entry{3, 21});
  ASSERT_TRUE(c.try_get(7, e));
  EXPECT_EQ(e.proc, 3);
  EXPECT_EQ(e.local, 21);
  EXPECT_EQ(c.stats().hits, 1);
  EXPECT_EQ(c.size(), 1);
}

TEST(TranslationCache, CapacityIsBoundedByEviction) {
  dist::TranslationCache c(16);
  EXPECT_EQ(c.capacity(), 16);
  for (i64 g = 0; g < 1000; ++g) {
    c.put(g, dist::Entry{0, g});
  }
  // Never grows past the fixed capacity; the overflow shows up as evictions.
  EXPECT_LE(c.size(), c.capacity());
  EXPECT_GT(c.stats().evictions, 0);
  // Whatever is still cached answers correctly.
  i64 live = 0;
  for (i64 g = 0; g < 1000; ++g) {
    dist::Entry e;
    if (c.try_get(g, e)) {
      EXPECT_EQ(e.local, g);
      ++live;
    }
  }
  EXPECT_EQ(live, c.size());
}

TEST(TranslationCache, RebindSameInstanceKeepsEntries) {
  dist::TranslationCache c(64);
  dist::Dad dad{dist::DistKind::Irregular, 100, 4, 16, 42};
  c.bind(dad, 7);
  c.put(5, dist::Entry{1, 2});
  c.bind(dad, 7);  // identical binding: no flush
  dist::Entry e;
  EXPECT_TRUE(c.try_get(5, e));
  EXPECT_EQ(c.stats().flushes, 0);
}

TEST(TranslationCache, NewIncarnationOrStampFlushes) {
  dist::TranslationCache c(64);
  dist::Dad dad{dist::DistKind::Irregular, 100, 4, 16, 42};
  c.bind(dad, 7);
  c.put(5, dist::Entry{1, 2});

  dist::Dad remapped = dad;
  remapped.incarnation = 43;  // REDISTRIBUTE mints a fresh DAD
  c.bind(remapped, 7);
  dist::Entry e;
  EXPECT_FALSE(c.try_get(5, e));
  EXPECT_EQ(c.stats().flushes, 1);
  EXPECT_EQ(c.size(), 0);
  EXPECT_TRUE(c.accepts(remapped));
  EXPECT_FALSE(c.accepts(dad));

  c.put(5, dist::Entry{2, 9});
  c.bind(remapped, 8);  // same instance, newer nmod stamp: conservative flush
  EXPECT_FALSE(c.try_get(5, e));
  EXPECT_EQ(c.stats().flushes, 2);
}

TEST(TranslationCache, InvalidateDropsEntriesAndBinding) {
  dist::TranslationCache c(64);
  dist::Dad dad{dist::DistKind::Irregular, 100, 4, 16, 42};
  c.bind(dad, 0);
  c.put(5, dist::Entry{1, 2});
  c.invalidate();
  EXPECT_FALSE(c.bound());
  EXPECT_EQ(c.size(), 0);
  dist::Entry e;
  EXPECT_FALSE(c.try_get(5, e));
}

TEST(TranslationCache, WarmLocalizeHitsForEveryDistinctReference) {
  rt::Machine::run(4, [](rt::Process& p) {
    constexpr i64 n = 96;
    auto d = make_irregular(p, n, 11, 2);
    std::vector<i64> refs;
    for (i64 g = 0; g < n; ++g) {
      refs.push_back(g);
      refs.push_back(g);  // every global twice
    }

    dist::TranslationCache cache(1 << 10);
    core::InspectorWorkspace ws;
    ws.configure(core::PlanOptions{.translation_cache = &cache});
    core::Localized cold, warm;
    core::localize(p, *d, refs, ws, cold);
    const i64 cold_misses = cache.stats().misses;
    EXPECT_EQ(cold_misses, n);  // one miss per distinct global
    core::localize(p, *d, refs, ws, warm);
    EXPECT_EQ(cache.stats().misses, cold_misses);  // fully warm
    EXPECT_EQ(cache.stats().hits, n);
    EXPECT_EQ(warm.refs, cold.refs);
    EXPECT_EQ(warm.schedule.send_indices, cold.schedule.send_indices);

    // Machine-wide warm: the warm localize skipped the locate round.
    EXPECT_EQ(d->table()->stats().calls, 1);
    // Outcome counters surfaced through the process message stats.
    EXPECT_EQ(p.stats().tcache_hits, n);
    EXPECT_EQ(p.stats().tcache_misses, n);
  });
}

TEST(TranslationCache, RemapRebindFlushesAndAnswersFreshDistribution) {
  rt::Machine::run(4, [](rt::Process& p) {
    constexpr i64 n = 64;
    core::ReuseRegistry registry;
    auto a = make_irregular(p, n, 11, 2);
    std::vector<i64> refs;
    for (i64 g = 0; g < n; ++g) refs.push_back(g % (n / 2));

    dist::TranslationCache cache(1 << 10);
    core::InspectorWorkspace ws;
    ws.configure(core::PlanOptions{.translation_cache = &cache});
    core::Localized la;
    core::localize(p, *a, refs, ws, la);

    // REDISTRIBUTE: fresh ownership, fresh DAD, registry stamp bumped.
    auto b = make_irregular(p, n, 7, 3);
    registry.note_remap(b->dad());
    cache.bind(b->dad(), registry.last_mod(b->dad()));
    EXPECT_GE(cache.stats().flushes, 1);
    EXPECT_EQ(cache.size(), 0);

    // Cached localize over the new distribution matches the uncached path.
    core::Localized lb, plain;
    core::localize(p, *b, refs, ws, lb);
    core::InspectorWorkspace plain_ws;
    core::localize(p, *b, refs, plain_ws, plain);
    EXPECT_EQ(lb.refs, plain.refs);
    EXPECT_EQ(lb.schedule.send_indices, plain.schedule.send_indices);
    EXPECT_EQ(lb.schedule.recv_offsets, plain.schedule.recv_offsets);
  });
}

TEST(TranslationCacheDeathLike, StaleBindingAfterRemapThrows) {
  // The stale-hit guard: localizing distribution B through a cache still
  // bound to pre-remap distribution A must throw — under no circumstances
  // may a pre-remap (proc, local) pair be served for B.
  EXPECT_THROW(
      rt::Machine::run(4,
                       [](rt::Process& p) {
                         constexpr i64 n = 64;
                         auto a = make_irregular(p, n, 11, 2);
                         auto b = make_irregular(p, n, 7, 3);
                         std::vector<i64> refs{0, 5, 9, 13};
                         dist::TranslationCache cache(1 << 10);
                         core::InspectorWorkspace ws;
                         ws.configure(
                             core::PlanOptions{.translation_cache = &cache});
                         core::Localized la, lb;
                         core::localize(p, *a, refs, ws, la);
                         // Missing rebind: cache is still bound to a.
                         core::localize(p, *b, refs, ws, lb);
                       }),
      chaos::ChaosError);
}

// --- attempt quarantine (DESIGN.md §11) --------------------------------------

TEST(TranslationCache, StagedInsertionsAreInvisibleUntilCommitted) {
  dist::TranslationCache c(64);
  dist::Dad dad{dist::DistKind::Irregular, 100, 4, 16, 43};
  c.bind(dad);
  c.stage_put(7, dist::Entry{1, 3});
  c.stage_put(9, dist::Entry{2, 5});
  EXPECT_EQ(c.staged(), 2);
  dist::Entry e;
  EXPECT_FALSE(c.try_get(7, e));  // quarantined: a retry must still miss
  EXPECT_EQ(c.stats().insertions, 0);
  c.commit_staged();
  EXPECT_EQ(c.staged(), 0);
  EXPECT_TRUE(c.try_get(7, e));
  EXPECT_EQ(e.proc, 1);
  EXPECT_EQ(e.local, 3);
  EXPECT_TRUE(c.try_get(9, e));
  EXPECT_EQ(c.stats().staged_commits, 2);
  EXPECT_EQ(c.stats().insertions, 2);
}

TEST(TranslationCache, DiscardDropsTheAbortedAttempt) {
  dist::TranslationCache c(64);
  dist::Dad dad{dist::DistKind::Irregular, 100, 4, 16, 44};
  c.bind(dad);
  c.stage_put(7, dist::Entry{1, 3});
  c.discard_staged();
  EXPECT_EQ(c.staged(), 0);
  dist::Entry e;
  EXPECT_FALSE(c.try_get(7, e));
  EXPECT_EQ(c.stats().staged_discards, 1);
  EXPECT_EQ(c.stats().insertions, 0);
}

TEST(TranslationCache, RebindAndInvalidateDiscardStagedEntries) {
  dist::TranslationCache c(64);
  dist::Dad dad{dist::DistKind::Irregular, 100, 4, 16, 45};
  c.bind(dad);
  c.stage_put(7, dist::Entry{1, 3});
  c.bind(dad, /*stamp=*/9);  // staged entries were translated pre-rebind
  EXPECT_EQ(c.staged(), 0);
  EXPECT_EQ(c.stats().staged_discards, 1);
  c.stage_put(8, dist::Entry{0, 1});
  c.invalidate();
  EXPECT_EQ(c.staged(), 0);
  EXPECT_EQ(c.stats().staged_discards, 2);
}

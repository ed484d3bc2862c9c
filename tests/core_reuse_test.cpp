// Section 3 schedule-reuse machinery: nmod / last_mod semantics, the three
// validity conditions, cache behaviour, and a randomized property test that
// conservativeness never admits a stale plan.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/reuse.hpp"
#include "dist/distribution.hpp"
#include "rt/collectives.hpp"
#include "workload/rng.hpp"

namespace rt = chaos::rt;
namespace dist = chaos::dist;
namespace core = chaos::core;
using chaos::i64;
using chaos::u64;

namespace {

dist::Dad make_dad(u64 inc, i64 size = 100) {
  return dist::Dad{dist::DistKind::Block, size, 4, 25, inc};
}

}  // namespace

TEST(ReuseRegistry, NmodCountsModifyingBlocksNotElements) {
  core::ReuseRegistry reg;
  EXPECT_EQ(reg.nmod(), 0u);
  const auto a = make_dad(1);
  // One loop writing a million elements is ONE modification event.
  reg.note_write(a);
  EXPECT_EQ(reg.nmod(), 1u);
  EXPECT_EQ(reg.last_mod(a), 1u);
  reg.note_write(a);
  reg.note_write(a);
  EXPECT_EQ(reg.nmod(), 3u);
  EXPECT_EQ(reg.last_mod(a), 3u);
}

TEST(ReuseRegistry, DistinctDadsTrackIndependently) {
  core::ReuseRegistry reg;
  const auto a = make_dad(1);
  const auto b = make_dad(2);
  reg.note_write(a);
  reg.note_write(b);
  reg.note_write(b);
  EXPECT_EQ(reg.last_mod(a), 1u);
  EXPECT_EQ(reg.last_mod(b), 3u);
  EXPECT_EQ(reg.last_mod(make_dad(99)), 0u);  // never touched
}

TEST(ReuseRegistry, ArraysSharingADadShareTheSlot) {
  // The paper's conservative sharing: arrays aligned to one distribution
  // share a DAD, so writing either marks both.
  core::ReuseRegistry reg;
  const auto shared = make_dad(7);
  reg.note_write(shared);
  const auto again = make_dad(7);  // same value == same slot
  EXPECT_EQ(reg.last_mod(again), 1u);
}

TEST(ReuseConditions, AllThreeMustHold) {
  core::ReuseRegistry reg;
  const auto xdad = make_dad(1);
  const auto inddad = make_dad(2, 50);
  reg.note_write(inddad);  // indirection array initialized

  core::InspectorRecord rec;
  rec.data_dads = {xdad};
  rec.ind_dads = {inddad};
  rec.ind_last_mod = {reg.last_mod(inddad)};

  const std::vector<dist::Dad> data{xdad};
  const std::vector<dist::Dad> ind{inddad};
  EXPECT_TRUE(core::reuse_valid(reg, rec, data, ind));

  // Condition 1 broken: data array remapped (new DAD).
  const std::vector<dist::Dad> data2{make_dad(11)};
  EXPECT_FALSE(core::reuse_valid(reg, rec, data2, ind));

  // Condition 2 broken: indirection array remapped.
  const std::vector<dist::Dad> ind2{make_dad(12, 50)};
  EXPECT_FALSE(core::reuse_valid(reg, rec, data, ind2));

  // Condition 3 broken: indirection array possibly modified in place.
  reg.note_write(inddad);
  EXPECT_FALSE(core::reuse_valid(reg, rec, data, ind));
}

TEST(ReuseConditions, UnrelatedWritesDoNotInvalidate) {
  core::ReuseRegistry reg;
  const auto xdad = make_dad(1);
  const auto inddad = make_dad(2, 50);
  core::InspectorRecord rec;
  rec.data_dads = {xdad};
  rec.ind_dads = {inddad};
  rec.ind_last_mod = {reg.last_mod(inddad)};

  // Writes to the DATA array or to unrelated arrays bump nmod but must not
  // force a new inspector — only indirection-array changes matter.
  reg.note_write(xdad);
  reg.note_write(make_dad(42));
  const std::vector<dist::Dad> data{xdad};
  const std::vector<dist::Dad> ind{inddad};
  EXPECT_TRUE(core::reuse_valid(reg, rec, data, ind));
}

TEST(ReuseConditions, ArityMismatchIsInvalid) {
  core::ReuseRegistry reg;
  core::InspectorRecord rec;
  rec.data_dads = {make_dad(1)};
  rec.ind_dads = {make_dad(2)};
  rec.ind_last_mod = {0};
  const std::vector<dist::Dad> data{make_dad(1), make_dad(1)};
  const std::vector<dist::Dad> ind{make_dad(2)};
  EXPECT_FALSE(core::reuse_valid(reg, rec, data, ind));
}

TEST(InspectorCache, HitsWhileCleanMissesAfterIndirectionWrite) {
  core::ReuseRegistry reg;
  core::InspectorCache cache;
  const auto xdad = make_dad(1);
  const auto inddad = make_dad(2);
  int builds = 0;
  auto build = [&] {
    ++builds;
    return std::make_shared<int>(builds);
  };

  auto p1 = cache.get_or_build<int>(7, reg, {xdad}, {inddad}, build);
  auto p2 = cache.get_or_build<int>(7, reg, {xdad}, {inddad}, build);
  EXPECT_EQ(builds, 1);
  EXPECT_EQ(p1.get(), p2.get());
  EXPECT_EQ(cache.stats().hits, 1);
  EXPECT_EQ(cache.stats().misses, 1);

  reg.note_write(inddad);
  auto p3 = cache.get_or_build<int>(7, reg, {xdad}, {inddad}, build);
  EXPECT_EQ(builds, 2);
  EXPECT_NE(p3.get(), p2.get());

  // Settles again afterwards.
  auto p4 = cache.get_or_build<int>(7, reg, {xdad}, {inddad}, build);
  EXPECT_EQ(builds, 2);
  EXPECT_EQ(p4.get(), p3.get());
}

TEST(InspectorCache, LoopsAreIndependent) {
  core::ReuseRegistry reg;
  core::InspectorCache cache;
  int builds = 0;
  auto build = [&] { return std::make_shared<int>(++builds); };
  const auto x = make_dad(1);
  const auto ind1 = make_dad(2);
  const auto ind2 = make_dad(3);
  (void)cache.get_or_build<int>(1, reg, {x}, {ind1}, build);
  (void)cache.get_or_build<int>(2, reg, {x}, {ind2}, build);
  EXPECT_EQ(builds, 2);
  EXPECT_EQ(cache.size(), 2u);
  // A write that only loop 1 reads stales loop 1 alone.
  reg.note_write(ind1);
  (void)cache.get_or_build<int>(2, reg, {x}, {ind2}, build);
  EXPECT_EQ(builds, 2);  // loop 2 untouched by loop 1's indirection write
  (void)cache.get_or_build<int>(1, reg, {x}, {ind1}, build);
  EXPECT_EQ(builds, 3);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().hits, 1);
  EXPECT_EQ(cache.stats().misses, 3);
}

TEST(InspectorCache, RemapOfDataArrayForcesRebuild) {
  core::ReuseRegistry reg;
  core::InspectorCache cache;
  int builds = 0;
  auto build = [&] { return std::make_shared<int>(++builds); };
  const auto ind = make_dad(5);
  (void)cache.get_or_build<int>(3, reg, {make_dad(1)}, {ind}, build);
  // REDISTRIBUTE: the data array gets a fresh DAD incarnation.
  const auto fresh = make_dad(9);
  reg.note_remap(fresh);
  (void)cache.get_or_build<int>(3, reg, {fresh}, {ind}, build);
  EXPECT_EQ(builds, 2);
}

// Property test: against a random sequence of events, the cache must rebuild
// whenever (and only report reuse when) a rebuild would produce the same
// plan. We model the "plan" as a copy of the indirection array's version
// counter: reuse is stale iff the cached plan's version differs from the
// current version. Half the executions offer a repair that randomly either
// brings the cached plan to the current version or declines.
TEST(InspectorCache, PropertyNeverServesStalePlans) {
  chaos::wl::Rng rng(2024);
  i64 repairs = 0, fallbacks = 0;
  for (int trial = 0; trial < 50; ++trial) {
    core::ReuseRegistry reg;
    core::InspectorCache cache;
    // Three indirection arrays with independent versions and DADs.
    std::vector<dist::Dad> ind_dads{make_dad(100), make_dad(200),
                                    make_dad(300)};
    std::vector<int> version{0, 0, 0};
    dist::Dad data_dad = make_dad(1000);
    u64 next_inc = 5000;
    i64 executions = 0;

    for (int step = 0; step < 200; ++step) {
      const int action = static_cast<int>(rng.below(4));
      if (action == 0) {
        // Modify a random indirection array in place.
        const auto j = static_cast<std::size_t>(rng.below(3));
        ++version[j];
        reg.note_write(ind_dads[j]);
      } else if (action == 1) {
        // Remap the data array.
        data_dad = make_dad(next_inc++);
        reg.note_remap(data_dad);
      } else if (action == 2) {
        // Write an unrelated array: must not cause staleness nor rebuilds
        // beyond what the conservative rule allows.
        reg.note_write(make_dad(next_inc++ + 100000));
      } else {
        // Execute a random loop using one indirection array.
        const auto j = static_cast<std::size_t>(rng.below(3));
        const u64 loop_id = rng.below(2) == 0 ? 1 : 2;
        struct Plan {
          int built_from_version;
        };
        auto build = [&] { return std::make_shared<Plan>(Plan{version[j]}); };
        std::shared_ptr<Plan> plan;
        if (rng.below(2) == 0) {
          plan = cache.get_or_build<Plan>(loop_id * 10 + j, reg, {data_dad},
                                          {ind_dads[j]}, build);
        } else {
          plan = cache.get_or_build<Plan>(
              loop_id * 10 + j, reg, {data_dad}, {ind_dads[j]}, build,
              [&](const std::shared_ptr<Plan>& cached) {
                if (rng.below(2) == 0) return false;
                cached->built_from_version = version[j];
                return true;
              });
        }
        ++executions;
        // THE invariant: a served plan always matches the current state.
        ASSERT_EQ(plan->built_from_version, version[j])
            << "stale plan served at trial " << trial << " step " << step;
      }
    }
    // Every execution is exactly one hit, repair or miss; a fallback is
    // also a miss.
    const auto& st = cache.stats();
    EXPECT_EQ(st.hits + st.repairs + st.misses, executions);
    EXPECT_LE(st.repair_fallbacks, st.misses);
    repairs += st.repairs;
    fallbacks += st.repair_fallbacks;
  }
  // Both answers of the repair were exercised.
  EXPECT_GT(repairs, 0);
  EXPECT_GT(fallbacks, 0);
}

// The probe / note / store protocol the VM drives directly.

TEST(InspectorCache, ProbeHitsOnACleanSlot) {
  core::ReuseRegistry reg;
  core::InspectorCache cache;
  const std::vector<dist::Dad> data{make_dad(1)};
  const std::vector<dist::Dad> ind{make_dad(2)};
  reg.note_write(ind[0]);
  auto product = std::make_shared<int>(42);
  cache.store(5, reg, data, ind, product);
  EXPECT_EQ(cache.stats().misses, 0);  // store() counts nothing

  const auto pr = cache.probe(/*offer_repair=*/false, 5, reg, data, ind);
  EXPECT_EQ(pr.outcome, core::InspectorCache::ProbeOutcome::Hit);
  EXPECT_EQ(pr.product.get(), product.get());
  EXPECT_EQ(cache.stats().hits, 1);
  EXPECT_EQ(cache.stats().misses, 0);

  // An id never stored is a counted miss.
  const auto cold = cache.probe(/*offer_repair=*/true, 6, reg, data, ind);
  EXPECT_EQ(cold.outcome, core::InspectorCache::ProbeOutcome::Miss);
  EXPECT_EQ(cold.product, nullptr);
  EXPECT_EQ(cache.stats().misses, 1);
}

TEST(InspectorCache, StaleSlotIsACountedMissWithRepairOff) {
  core::ReuseRegistry reg;
  core::InspectorCache cache;
  const std::vector<dist::Dad> data{make_dad(1)};
  const std::vector<dist::Dad> ind{make_dad(2)};
  cache.store(5, reg, data, ind, std::make_shared<int>(1));
  reg.note_write(ind[0]);
  const auto pr = cache.probe(/*offer_repair=*/false, 5, reg, data, ind);
  EXPECT_EQ(pr.outcome, core::InspectorCache::ProbeOutcome::Miss);
  EXPECT_EQ(pr.product, nullptr);
  EXPECT_EQ(cache.stats().misses, 1);
  EXPECT_EQ(cache.stats().hits, 0);
  EXPECT_EQ(cache.stats().repairs, 0);
  EXPECT_EQ(cache.stats().repair_fallbacks, 0);
}

TEST(InspectorCache, StaleSlotWithMatchingDadsIsARepairCandidate) {
  core::ReuseRegistry reg;
  core::InspectorCache cache;
  const std::vector<dist::Dad> data{make_dad(1)};
  const std::vector<dist::Dad> ind{make_dad(2)};
  auto product = std::make_shared<int>(1);
  cache.store(5, reg, data, ind, product);
  reg.note_write(ind[0]);

  // Uncounted until the caller resolves it.
  auto pr = cache.probe(/*offer_repair=*/true, 5, reg, data, ind);
  EXPECT_EQ(pr.outcome, core::InspectorCache::ProbeOutcome::RepairCandidate);
  EXPECT_EQ(pr.product.get(), product.get());
  EXPECT_EQ(cache.stats().hits + cache.stats().misses, 0);

  // A successful splice advances the stamps: the next probe hits.
  cache.note_repaired(5, reg);
  EXPECT_EQ(cache.stats().repairs, 1);
  pr = cache.probe(/*offer_repair=*/true, 5, reg, data, ind);
  EXPECT_EQ(pr.outcome, core::InspectorCache::ProbeOutcome::Hit);
  EXPECT_EQ(cache.stats().hits, 1);

  // A declined splice is one fallback and one miss.
  reg.note_write(ind[0]);
  pr = cache.probe(/*offer_repair=*/true, 5, reg, data, ind);
  EXPECT_EQ(pr.outcome, core::InspectorCache::ProbeOutcome::RepairCandidate);
  cache.note_repair_fallback();
  EXPECT_EQ(cache.stats().repair_fallbacks, 1);
  EXPECT_EQ(cache.stats().misses, 1);
  EXPECT_EQ(cache.stats().repairs, 1);
  EXPECT_EQ(cache.stats().hits, 1);
}

TEST(InspectorCache, DadMismatchIsAMissEvenWithRepairOn) {
  core::ReuseRegistry reg;
  core::InspectorCache cache;
  const std::vector<dist::Dad> data{make_dad(1)};
  const std::vector<dist::Dad> ind{make_dad(2)};
  cache.store(5, reg, data, ind, std::make_shared<int>(1));
  reg.note_write(ind[0]);  // stale as well: only the DADs decide

  const std::vector<dist::Dad> remapped{make_dad(11)};
  auto pr = cache.probe(/*offer_repair=*/true, 5, reg, remapped, ind);
  EXPECT_EQ(pr.outcome, core::InspectorCache::ProbeOutcome::Miss);
  EXPECT_EQ(pr.product, nullptr);
  const std::vector<dist::Dad> ind_remapped{make_dad(12)};
  pr = cache.probe(/*offer_repair=*/true, 5, reg, data, ind_remapped);
  EXPECT_EQ(pr.outcome, core::InspectorCache::ProbeOutcome::Miss);
  EXPECT_EQ(cache.stats().misses, 2);
  EXPECT_EQ(cache.stats().repair_fallbacks, 0);
}

TEST(InspectorCache, StoreReplacesTheSlotAndReleasesItsProduct) {
  core::ReuseRegistry reg;
  core::InspectorCache cache;
  const std::vector<dist::Dad> ind{make_dad(2)};
  const std::vector<dist::Dad> first{make_dad(1)};
  auto old_product = std::make_shared<int>(1);
  const std::weak_ptr<int> old_ref = old_product;
  cache.store(5, reg, first, ind, std::move(old_product));

  // A REDISTRIBUTE mints a fresh DAD set: the loop re-inspects and stores.
  const std::vector<dist::Dad> second{make_dad(9)};
  reg.note_remap(second[0]);
  ASSERT_EQ(cache.probe(false, 5, reg, second, ind).outcome,
            core::InspectorCache::ProbeOutcome::Miss);
  cache.store(5, reg, second, ind, std::make_shared<int>(2));
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_TRUE(old_ref.expired());

  // One slot per loop: switching back to the first DAD set re-inspects.
  EXPECT_EQ(cache.probe(false, 5, reg, second, ind).outcome,
            core::InspectorCache::ProbeOutcome::Hit);
  EXPECT_EQ(cache.probe(false, 5, reg, first, ind).outcome,
            core::InspectorCache::ProbeOutcome::Miss);
}

TEST(ReuseRegistry, SpmdRegistriesStayIdentical) {
  // Every rank executes the same statement sequence; their registries must
  // agree without communication (the scheme's core assumption).
  rt::Machine::run(4, [](rt::Process& p) {
    core::ReuseRegistry reg;
    auto d1 = dist::Distribution::block(p, 50);
    auto d2 = dist::Distribution::cyclic(p, 60);
    reg.note_write(d1->dad());
    reg.note_write(d2->dad());
    reg.note_remap(d2->dad());
    auto nmods = rt::allgather(p, reg.nmod());
    auto lm = rt::allgather(p, reg.last_mod(d2->dad()));
    for (auto v : nmods) EXPECT_EQ(v, nmods[0]);
    for (auto v : lm) EXPECT_EQ(v, lm[0]);
  });
}

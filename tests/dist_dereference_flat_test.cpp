// The flat CSR dereference as the inspector drives it: localize against an
// IRREGULAR distribution runs its locate round through the table's
// dereference. The refs and CSR schedule it produces must follow the
// ownership map, a cold localize must cost exactly one table dereference,
// and a translation cache in front of the dereference must leave refs and
// schedule bit-identical while its warm pass skips the round. The protocol
// itself (answers on every layout, collective budget, edge shapes, error
// text) is covered by dist_translation_table_test.
#include <gtest/gtest.h>

#include <vector>

#include "core/inspector.hpp"
#include "dist/translation_cache.hpp"
#include "dist/translation_table.hpp"
#include "rt/collectives.hpp"

namespace rt = chaos::rt;
namespace dist = chaos::dist;
namespace core = chaos::core;
using chaos::i64;

namespace {

// An IRREGULAR distribution of [0, n) in which global g lives on rank
// (g * mul + add) % P, built from a block-distributed map array.
std::shared_ptr<const dist::Distribution> scattered(rt::Process& p, i64 n,
                                                    i64 mul, i64 add) {
  auto md = dist::Distribution::block(p, n);
  std::vector<i64> slice(static_cast<std::size_t>(md->my_local_size()));
  for (std::size_t l = 0; l < slice.size(); ++l) {
    const i64 g = md->global_of(p.rank(), static_cast<i64>(l));
    slice[l] = (g * mul + add) % p.nprocs();
  }
  return dist::Distribution::irregular_from_map(p, slice, *md, 8);
}

void expect_same(const core::Localized& a, const core::Localized& b) {
  EXPECT_EQ(a.refs, b.refs);
  EXPECT_EQ(a.off_process_refs, b.off_process_refs);
  EXPECT_EQ(a.schedule.send_indices, b.schedule.send_indices);
  EXPECT_EQ(a.schedule.send_offsets, b.schedule.send_offsets);
  EXPECT_EQ(a.schedule.recv_offsets, b.schedule.recv_offsets);
  EXPECT_EQ(a.schedule.nghost, b.schedule.nghost);
}

}  // namespace

TEST(FlatLocalize, RefsAndScheduleFollowTheOwnershipMap) {
  // Owned references become their local index; off-process ones land in the
  // ghost range of their owner's receive segment. One cold localize is one
  // dereference of the backing table.
  rt::Machine::run(4, [](rt::Process& p) {
    constexpr i64 n = 120;
    auto d = scattered(p, n, 7, 3);
    const i64 nlocal = d->my_local_size();

    std::vector<i64> refs;
    for (i64 k = 0; k < 60; ++k) refs.push_back((k * 31 + p.rank() * 17) % n);
    const auto owners = d->locate(p, refs);
    const i64 calls_before = d->table()->stats().calls;

    core::InspectorWorkspace ws;
    core::Localized out;
    core::localize(p, *d, refs, ws, out);
    EXPECT_EQ(d->table()->stats().calls, calls_before + 1);

    ASSERT_EQ(out.refs.size(), refs.size());
    i64 off = 0;
    for (std::size_t k = 0; k < refs.size(); ++k) {
      EXPECT_EQ(owners[k].proc, (refs[k] * 7 + 3) % p.nprocs());
      if (owners[k].proc == p.rank()) {
        EXPECT_EQ(out.refs[k], owners[k].local) << "global " << refs[k];
        continue;
      }
      ++off;
      const i64 slot = out.refs[k] - nlocal;
      EXPECT_GE(slot, out.schedule.recv_offset(owners[k].proc));
      EXPECT_LT(slot, out.schedule.recv_offset(owners[k].proc) +
                          out.schedule.recv_count(owners[k].proc));
    }
    EXPECT_EQ(out.off_process_refs, off);
    EXPECT_EQ(out.schedule.nghost, out.schedule.recv_offsets.back());
  });
}

TEST(FlatLocalize, ComposesWithTranslationCache) {
  // Cache misses go through the dereference, hits skip it: the first
  // localize misses and runs the round; the second hits for every distinct
  // global and skips the round entirely (the machine-wide vote). Results
  // stay identical to the cache-free localize throughout.
  rt::Machine::run(4, [](rt::Process& p) {
    constexpr i64 n = 96;
    auto d = scattered(p, n, 5, 1);

    std::vector<i64> refs;
    for (i64 k = 0; k < 48; ++k) refs.push_back((k * 13 + p.rank() * 29) % n);

    core::InspectorWorkspace plain_ws;
    core::Localized baseline;
    core::localize(p, *d, refs, plain_ws, baseline);

    dist::TranslationCache cache(1 << 10);
    core::PlanOptions opts;
    opts.translation_cache = &cache;
    core::InspectorWorkspace ws;
    ws.configure(opts);
    core::Localized out;
    const i64 calls_before = d->table()->stats().calls;
    core::localize(p, *d, refs, ws, out);  // cold: the round over misses
    expect_same(baseline, out);
    const i64 calls_after_cold = d->table()->stats().calls;
    EXPECT_EQ(calls_after_cold, calls_before + 1);

    core::localize(p, *d, refs, ws, out);  // warm: the vote skips the round
    expect_same(baseline, out);
    EXPECT_EQ(d->table()->stats().calls, calls_after_cold);
    EXPECT_GT(cache.stats().hits, 0);
  });
}

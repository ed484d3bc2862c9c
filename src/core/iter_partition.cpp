#include "core/iter_partition.hpp"

#include "rt/collectives.hpp"

namespace chaos::core {

namespace {

/// Votes per rank for the iteration being voted on: P counters, zero
/// between iterations. Grow-only and one per thread: a rank runs on one
/// thread, and partition_iterations never re-enters itself.
thread_local std::vector<i64> t_tally;

}  // namespace

IterationPartition partition_iterations(
    rt::Process& p, const dist::Distribution& iter_space,
    const dist::Distribution& data_dist,
    std::span<const std::span<const i64>> ref_batches, IterRule rule,
    i64 page_size) {
  const i64 niter = iter_space.my_local_size();
  for (const auto& b : ref_batches) {
    CHAOS_CHECK(static_cast<i64>(b.size()) == niter,
                "partition_iterations: reference batch not aligned with "
                "iteration space");
  }
  const auto nbatches = static_cast<i64>(ref_batches.size());
  CHAOS_CHECK(nbatches >= 1, "partition_iterations: need at least one batch");

  // Owners of every reference, in ONE locate over the batch-major layout
  // (reference of iteration i in batch b at position b*niter + i). The
  // dereference ships each distinct remote global once and charges one
  // table touch per reference. Then a vote per iteration: the rank holding
  // the most of its references, ties to the lowest rank. Each reference
  // bumps its owner's tally; one scan picks the winner and one more clears
  // the touched counters. The references and owners are freed before the
  // new distribution and remap plan are built.
  std::vector<i64> home(static_cast<std::size_t>(niter), 0);
  {
    std::vector<i64> flat;
    std::span<const i64> refs = ref_batches[0];
    if (nbatches > 1) {
      flat.reserve(static_cast<std::size_t>(niter * nbatches));
      for (const auto& b : ref_batches) {
        flat.insert(flat.end(), b.begin(), b.end());
      }
      refs = flat;
    }
    std::vector<dist::Entry> owners;
    data_dist.locate_into(p, refs, owners);

    if (rule == IterRule::OwnerComputes) {
      for (i64 i = 0; i < niter; ++i) {
        home[static_cast<std::size_t>(i)] =
            owners[static_cast<std::size_t>(i)].proc;
      }
    } else {
      std::vector<i64>& tally = t_tally;
      tally.assign(static_cast<std::size_t>(p.nprocs()), 0);
      const auto owner = [&](i64 b, i64 i) {
        return static_cast<std::size_t>(
            owners[static_cast<std::size_t>(b * niter + i)].proc);
      };
      for (i64 i = 0; i < niter; ++i) {
        for (i64 b = 0; b < nbatches; ++b) ++tally[owner(b, i)];
        std::size_t best = owner(0, i);
        for (i64 b = 1; b < nbatches; ++b) {
          const std::size_t r = owner(b, i);
          if (tally[r] > tally[best] ||
              (tally[r] == tally[best] && r < best)) {
            best = r;
          }
        }
        for (i64 b = 0; b < nbatches; ++b) tally[owner(b, i)] = 0;
        home[static_cast<std::size_t>(i)] = static_cast<i64>(best);
      }
    }
  }
  p.clock().charge_ops(niter * nbatches, p.params().mem_us_per_word);

  IterationPartition out;
  out.iter_dist = dist::Distribution::irregular_from_map(
      p, home, iter_space, page_size);
  out.remap = dist::build_remap(p, iter_space, *out.iter_dist);
  for (i64 i = 0; i < niter; ++i) {
    if (home[static_cast<std::size_t>(i)] != p.rank()) ++out.moved_iterations;
  }
  out.moved_iterations = rt::allreduce_sum(p, out.moved_iterations);
  return out;
}

}  // namespace chaos::core

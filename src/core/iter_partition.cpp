#include "core/iter_partition.hpp"

#include <algorithm>

#include "rt/collectives.hpp"

namespace chaos::core {

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
  // table touch per reference.
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

  // Vote per iteration.
  std::vector<i64> home(static_cast<std::size_t>(niter), 0);
  std::vector<i32> votes;  // scratch: owner per reference of one iteration
  votes.resize(static_cast<std::size_t>(nbatches));
  for (i64 i = 0; i < niter; ++i) {
    if (rule == IterRule::OwnerComputes) {
      home[static_cast<std::size_t>(i)] =
          owners[static_cast<std::size_t>(i)].proc;
      continue;
    }
    for (i64 b = 0; b < nbatches; ++b) {
      votes[static_cast<std::size_t>(b)] =
          owners[static_cast<std::size_t>(b * niter + i)].proc;
    }
    std::sort(votes.begin(), votes.end());
    // Longest run wins; ties resolve to the smallest rank because the runs
    // are scanned in ascending order with a strict improvement test.
    i32 best_proc = votes[0];
    i64 best_count = 0;
    i64 run = 0;
    for (std::size_t k = 0; k < votes.size(); ++k) {
      run = (k > 0 && votes[k] == votes[k - 1]) ? run + 1 : 1;
      if (run > best_count) {
        best_count = run;
        best_proc = votes[k];
      }
    }
    home[static_cast<std::size_t>(i)] = best_proc;
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

// Quickstart: the smallest complete CHAOS-RT program.
//
// Solves the paper's loop L2 (an edge sweep with reductions) over a random
// graph on 4 virtual processors:
//   1. distribute the node data (BLOCK) and the edge list (BLOCK),
//   2. run the INSPECTOR once (iteration partition + communication schedule),
//   3. run the EXECUTOR many times, reusing the schedule each time.
//
// Build & run:  ./examples/quickstart
#include <cstdio>
#include <vector>

#include "core/forall.hpp"
#include "rt/collectives.hpp"
#include "workload/rng.hpp"

namespace rt = chaos::rt;
namespace dist = chaos::dist;
namespace core = chaos::core;
using chaos::f64;
using chaos::i64;

int main() {
  constexpr i64 kNodes = 1000;
  constexpr i64 kEdges = 4000;
  constexpr int kProcs = 4;
  constexpr int kTimesteps = 10;

  // A reproducible random graph, generated identically on every process.
  chaos::wl::Rng rng(7);
  std::vector<i64> edge1(kEdges), edge2(kEdges);
  for (i64 e = 0; e < kEdges; ++e) {
    edge1[static_cast<std::size_t>(e)] = rng.below(kNodes);
    edge2[static_cast<std::size_t>(e)] = rng.below(kNodes);
  }

  rt::Machine machine(kProcs);
  machine.run([&](rt::Process& p) {
    // Phase 0: default BLOCK distributions for data and iterations.
    auto node_dist = dist::Distribution::block(p, kNodes);
    auto edge_dist = dist::Distribution::block(p, kEdges);

    dist::DistributedArray<f64> x(p, node_dist), y(p, node_dist, 0.0);
    x.fill_by_global([](i64 g) { return 1.0 / (1.0 + static_cast<f64>(g)); });

    // My slice of the edge arrays.
    std::vector<i64> e1, e2;
    for (i64 l = 0; l < edge_dist->my_local_size(); ++l) {
      const i64 e = edge_dist->global_of(p.rank(), l);
      e1.push_back(edge1[static_cast<std::size_t>(e)]);
      e2.push_back(edge2[static_cast<std::size_t>(e)]);
    }

    // INSPECTOR (collective, once): partitions iterations, builds the
    // communication schedule, assigns ghost-buffer slots. PlanOptions is the
    // unified construction surface (translation cache, repair policy) — the
    // defaults are right for a static mesh.
    const core::PlanOptions opts{};
    auto plan = core::EdgeReductionLoop::inspect(
        p, *edge_dist, e1, e2, *node_dist,
        core::IterRule::MostLocalReferences, opts);

    // EXECUTOR (collective, many times): the schedule is reused — this is
    // the paper's Section 3 payoff.
    for (int step = 0; step < kTimesteps; ++step) {
      core::EdgeReductionLoop::execute(
          p, *plan, x, y,
          [](f64 a, f64 b) { return a * b; },   // contribution to y(e1)
          [](f64 a, f64 b) { return a - b; });  // contribution to y(e2)
    }

    const f64 local_sum = [&] {
      f64 s = 0.0;
      for (f64 v : y.local()) s += v;
      return s;
    }();
    const f64 checksum = rt::allreduce_sum(p, local_sum);
    if (p.is_root()) {
      std::printf("quickstart: %d procs, %lld nodes, %lld edges\n", kProcs,
                  static_cast<long long>(kNodes),
                  static_cast<long long>(kEdges));
      std::printf("  iterations executed here: %lld (of %lld total)\n",
                  static_cast<long long>(plan->my_iterations()),
                  static_cast<long long>(kEdges));
      std::printf("  ghost slots on rank 0:    %lld\n",
                  static_cast<long long>(plan->loc.schedule.nghost));
      std::printf("  y checksum after %d steps: %.6f\n", kTimesteps,
                  checksum);
      std::printf("  modeled (virtual) time:   %.3f ms\n",
                  p.clock().now_us() / 1000.0);
    }
  });
  return 0;
}

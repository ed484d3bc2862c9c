// Unstructured-mesh Euler edge sweep: the paper's headline workload (a loop
// over the edges of a 3-D unstructured mesh, Mavriplis-style), run through
// the full five-phase pipeline of Figure 2:
//
//   A  CONSTRUCT the GeoCoL graph from the edge list
//   B  partition it (RCB / RSB / ... — pick on the command line)
//   C  REDISTRIBUTE the node arrays onto the new irregular distribution
//   D  inspector: partition iterations, build communication schedules
//   E  executor: sweep the edges for many timesteps, reusing the schedule
//
// Usage: ./examples/euler_sweep [partitioner] [procs] [steps]
//        partitioner in {BLOCK, CYCLIC, RANDOM, RCB, INERTIAL, RSB, RCB+KL}
#include <cstdio>
#include <cstdlib>
#include <cmath>
#include <string>
#include <vector>

#include "core/forall.hpp"
#include "core/mapper.hpp"
#include "partition/metrics.hpp"
#include "rt/collectives.hpp"
#include "workload/mesh.hpp"

namespace rt = chaos::rt;
namespace dist = chaos::dist;
namespace core = chaos::core;
namespace wl = chaos::wl;
using chaos::f64;
using chaos::i64;

int main(int argc, char** argv) {
  const std::string partitioner = argc > 1 ? argv[1] : "RCB";
  const int procs = argc > 2 ? std::atoi(argv[2]) : 8;
  const int steps = argc > 3 ? std::atoi(argv[3]) : 20;

  const wl::Mesh mesh = wl::mesh_10k();
  std::printf("euler_sweep: 10K mesh (%lld nodes, %lld edges), %s, %d procs, "
              "%d steps\n",
              static_cast<long long>(mesh.nnodes),
              static_cast<long long>(mesh.nedges), partitioner.c_str(), procs,
              steps);

  rt::Machine machine(procs);
  machine.run([&](rt::Process& p) {
    // Default decomposition (Figure 4, statements S1-S4).
    auto reg = dist::Distribution::block(p, mesh.nnodes);
    auto reg2 = dist::Distribution::block(p, mesh.nedges);
    dist::DistributedArray<f64> x(p, reg), y(p, reg, 0.0);
    x.fill_by_global([&](i64 g) {
      return std::sin(0.01 * static_cast<f64>(g));
    });

    std::vector<i64> e1, e2;
    std::vector<f64> xc, yc, zc;
    for (i64 l = 0; l < reg2->my_local_size(); ++l) {
      const i64 e = reg2->global_of(p.rank(), l);
      e1.push_back(mesh.edge1[static_cast<std::size_t>(e)]);
      e2.push_back(mesh.edge2[static_cast<std::size_t>(e)]);
    }
    for (i64 l = 0; l < reg->my_local_size(); ++l) {
      const i64 g = reg->global_of(p.rank(), l);
      xc.push_back(mesh.x[static_cast<std::size_t>(g)]);
      yc.push_back(mesh.y[static_cast<std::size_t>(g)]);
      zc.push_back(mesh.z[static_cast<std::size_t>(g)]);
    }

    // Phase A: CONSTRUCT G (nnode, GEOMETRY(3,...), LINK(nedge, e1, e2)).
    rt::ClockSection t_graph(p.clock());
    core::GeoColBuilder builder(p, reg);
    const std::span<const f64> coords[] = {xc, yc, zc};
    builder.geometry(coords).link(e1, e2);
    auto geocol = builder.build();
    const f64 graph_sec = t_graph.elapsed_sec();

    // Phase B: SET distfmt BY PARTITIONING G USING <partitioner>.
    rt::ClockSection t_part(p.clock());
    core::ReuseRegistry registry;
    auto distfmt = core::set_by_partitioning(p, *geocol, partitioner);
    const f64 part_sec = t_part.elapsed_sec();

    // Phase C: REDISTRIBUTE reg(distfmt).
    rt::ClockSection t_remap(p.clock());
    core::Redistributor rd(&registry);
    rd.add(x).add(y);
    rd.apply(p, distfmt);
    const f64 remap_sec = t_remap.elapsed_sec();

    // Phase D: inspector.
    rt::ClockSection t_insp(p.clock());
    auto plan = core::EdgeReductionLoop::inspect(
        p, *reg2, e1, e2, *distfmt, core::IterRule::MostLocalReferences);
    const f64 insp_sec = t_insp.elapsed_sec();

    // Phase E: executor (flux-like kernel, ~30 flops per edge).
    rt::ClockSection t_exec(p.clock());
    for (int s = 0; s < steps; ++s) {
      core::EdgeReductionLoop::execute(
          p, *plan, x, y,
          [](f64 a, f64 b) { return (a - b) * (a + b) * 0.5; },
          [](f64 a, f64 b) { return (b - a) * (a + b) * 0.5; });
    }
    const f64 exec_sec = t_exec.elapsed_sec();

    const f64 checksum = rt::allreduce_sum(p, [&] {
      f64 s = 0.0;
      for (f64 v : y.local()) s += v;
      return s;
    }());
    const auto msgs = rt::allreduce_sum(p, plan->loc.schedule.messages(p.rank()));
    if (p.is_root()) {
      std::printf("  modeled phase times (virtual seconds, max over procs):\n");
      std::printf("    graph generation : %8.3f\n", graph_sec);
      std::printf("    partitioner      : %8.3f\n", part_sec);
      std::printf("    remap            : %8.3f\n", remap_sec);
      std::printf("    inspector        : %8.3f\n", insp_sec);
      std::printf("    executor (%3d x) : %8.3f\n", steps, exec_sec);
      std::printf("  gather messages per sweep (machine total): %lld\n",
                  static_cast<long long>(msgs));
      std::printf("  y checksum: %.6e\n", checksum);
    }
  });
  return 0;
}

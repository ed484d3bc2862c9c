// Sparse iterative solver: the first application class the paper lists for
// CHAOS ("sparse matrix linear solvers"). Solves  A u = b  with conjugate
// gradients, where A is the graph Laplacian of an unstructured mesh plus a
// diagonal shift (symmetric positive definite). The sparse matrix-vector
// product is an inspector/executor kernel: the column indices of the local
// rows are localized ONCE, and every CG iteration reuses the same gather
// schedule — schedule reuse is what makes distributed CG viable.
//
// Usage: ./examples/sparse_cg [procs] [partitioner]
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/executor.hpp"
#include "core/inspector.hpp"
#include "core/mapper.hpp"
#include "rt/collectives.hpp"
#include "workload/mesh.hpp"

namespace rt = chaos::rt;
namespace dist = chaos::dist;
namespace core = chaos::core;
namespace wl = chaos::wl;
using chaos::f64;
using chaos::i64;

namespace {

/// Local CSR rows of A = L + I (Laplacian + identity), rows = owned nodes,
/// column ids global.
struct LocalMatrix {
  std::vector<i64> xadj;
  std::vector<i64> cols;    // global column ids (off-diagonal)
  std::vector<f64> vals;    // -1 per edge
  std::vector<f64> diag;    // degree + 1
};

LocalMatrix build_local_laplacian(rt::Process& p, const wl::Mesh& mesh,
                                  const dist::Distribution& d) {
  // Route each edge to both endpoint owners.
  struct Half {
    i64 u, v;
  };
  auto edist = dist::Distribution::block(p, mesh.nedges);
  std::vector<i64> endpoints;
  for (i64 l = 0; l < edist->my_local_size(); ++l) {
    const i64 e = edist->global_of(p.rank(), l);
    endpoints.push_back(mesh.edge1[static_cast<std::size_t>(e)]);
    endpoints.push_back(mesh.edge2[static_cast<std::size_t>(e)]);
  }
  auto owners = d.locate(p, endpoints);
  // Half-edge k goes to the owner of endpoints[k], paired with the edge's
  // other endpoint, endpoints[k ^ 1].
  std::vector<Half> outgoing(endpoints.size());
  std::vector<i64> send_offsets;
  rt::group_by_dest(
      p.nprocs(), endpoints.size(),
      [&](std::size_t k) { return owners[k].proc; }, send_offsets,
      [&](std::size_t k, std::size_t slot) {
        outgoing[slot] = {endpoints[k], endpoints[k ^ 1]};
      });
  std::vector<Half> incoming;
  std::vector<i64> incoming_offsets;
  rt::alltoallv<Half>(p, outgoing, send_offsets, incoming, incoming_offsets);

  const i64 nlocal = d.my_local_size();
  // Adjacency per local row.
  std::vector<std::vector<i64>> nb(static_cast<std::size_t>(nlocal));
  auto locals = d.my_globals();
  std::vector<std::pair<i64, i64>> gl;  // (global, local)
  for (std::size_t l = 0; l < locals.size(); ++l) {
    gl.emplace_back(locals[l], static_cast<i64>(l));
  }
  std::sort(gl.begin(), gl.end());
  auto local_of = [&](i64 g) {
    auto it = std::lower_bound(gl.begin(), gl.end(), std::make_pair(g, i64{0}));
    return it->second;
  };
  for (const auto& h : incoming) {
    nb[static_cast<std::size_t>(local_of(h.u))].push_back(h.v);
  }
  LocalMatrix m;
  m.xadj.assign(static_cast<std::size_t>(nlocal) + 1, 0);
  m.diag.assign(static_cast<std::size_t>(nlocal), 1.0);
  for (i64 r = 0; r < nlocal; ++r) {
    auto& row = nb[static_cast<std::size_t>(r)];
    std::sort(row.begin(), row.end());
    row.erase(std::unique(row.begin(), row.end()), row.end());
    m.xadj[static_cast<std::size_t>(r) + 1] =
        m.xadj[static_cast<std::size_t>(r)] + static_cast<i64>(row.size());
    m.diag[static_cast<std::size_t>(r)] += static_cast<f64>(row.size());
    for (i64 c : row) {
      m.cols.push_back(c);
      m.vals.push_back(-1.0);
    }
  }
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  const int procs = argc > 1 ? std::atoi(argv[1]) : 8;
  const std::string partitioner = argc > 2 ? argv[2] : "RCB";
  const auto mesh = wl::make_tet_mesh(16, 16, 16);
  std::printf("sparse_cg: A = Laplacian + I of a %lld-node tet mesh, "
              "%s partition, %d procs\n",
              static_cast<long long>(mesh.nnodes), partitioner.c_str(), procs);

  rt::Machine machine(procs);
  machine.run([&](rt::Process& p) {
    // Partition the nodes with the mapper coupler.
    auto reg = dist::Distribution::block(p, mesh.nnodes);
    std::vector<f64> xc, yc, zc;
    for (i64 l = 0; l < reg->my_local_size(); ++l) {
      const i64 g = reg->global_of(p.rank(), l);
      xc.push_back(mesh.x[static_cast<std::size_t>(g)]);
      yc.push_back(mesh.y[static_cast<std::size_t>(g)]);
      zc.push_back(mesh.z[static_cast<std::size_t>(g)]);
    }
    core::GeoColBuilder builder(p, reg);
    const std::span<const f64> coords[] = {xc, yc, zc};
    builder.geometry(coords);
    auto d = core::set_by_partitioning(p, *builder.build(), partitioner);

    // Assemble the local rows and localize the column indices ONCE, through
    // a workspace configured with the unified PlanOptions surface.
    const auto A = build_local_laplacian(p, mesh, *d);
    core::InspectorWorkspace iws;
    iws.configure(core::PlanOptions{});
    core::Localized loc;
    core::localize(p, *d, A.cols, iws, loc);
    const i64 nlocal = d->my_local_size();

    // SpMV through the reused schedule: ghost-gather x, then local rows.
    // One workspace hoisted above the solver loop keeps every gather after
    // the first allocation-free.
    std::vector<f64> ghost(static_cast<std::size_t>(loc.schedule.nghost));
    core::ExecutorWorkspace<f64> ws;
    auto spmv = [&](const std::vector<f64>& x, std::vector<f64>& y) {
      core::gather_ghosts<f64>(p, loc.schedule, std::span<const f64>(x),
                               ghost, ws);
      for (i64 r = 0; r < nlocal; ++r) {
        f64 acc = A.diag[static_cast<std::size_t>(r)] *
                  x[static_cast<std::size_t>(r)];
        for (i64 k = A.xadj[static_cast<std::size_t>(r)];
             k < A.xadj[static_cast<std::size_t>(r) + 1]; ++k) {
          const i64 ref = loc.refs[static_cast<std::size_t>(k)];
          const f64 xv = ref < nlocal
                             ? x[static_cast<std::size_t>(ref)]
                             : ghost[static_cast<std::size_t>(ref - nlocal)];
          acc += A.vals[static_cast<std::size_t>(k)] * xv;
        }
        y[static_cast<std::size_t>(r)] = acc;
      }
      p.clock().charge_ops(static_cast<i64>(A.vals.size()) * 2 + nlocal * 2,
                           p.params().flop_us);
    };
    auto dot = [&](const std::vector<f64>& a, const std::vector<f64>& b) {
      f64 s = 0.0;
      for (i64 r = 0; r < nlocal; ++r) {
        s += a[static_cast<std::size_t>(r)] * b[static_cast<std::size_t>(r)];
      }
      p.clock().charge_ops(nlocal * 2, p.params().flop_us);
      return rt::allreduce_sum(p, s);
    };

    // Manufactured solution: u*(g) = sin(g/100); b = A u*.
    std::vector<f64> u_star(static_cast<std::size_t>(nlocal));
    const auto globals = d->my_globals();
    for (i64 r = 0; r < nlocal; ++r) {
      u_star[static_cast<std::size_t>(r)] =
          std::sin(static_cast<f64>(globals[static_cast<std::size_t>(r)]) /
                   100.0);
    }
    std::vector<f64> b(static_cast<std::size_t>(nlocal));
    spmv(u_star, b);

    // Conjugate gradients.
    std::vector<f64> u(static_cast<std::size_t>(nlocal), 0.0);
    std::vector<f64> r = b, q(static_cast<std::size_t>(nlocal));
    std::vector<f64> pd = r;
    f64 rho = dot(r, r);
    const f64 rho0 = rho;
    int iters = 0;
    rt::ClockSection solve(p.clock());
    for (; iters < 200 && rho > 1e-20 * rho0; ++iters) {
      spmv(pd, q);
      const f64 alpha = rho / dot(pd, q);
      for (i64 k = 0; k < nlocal; ++k) {
        u[static_cast<std::size_t>(k)] += alpha * pd[static_cast<std::size_t>(k)];
        r[static_cast<std::size_t>(k)] -= alpha * q[static_cast<std::size_t>(k)];
      }
      const f64 rho_next = dot(r, r);
      const f64 beta = rho_next / rho;
      rho = rho_next;
      for (i64 k = 0; k < nlocal; ++k) {
        pd[static_cast<std::size_t>(k)] =
            r[static_cast<std::size_t>(k)] + beta * pd[static_cast<std::size_t>(k)];
      }
      p.clock().charge_ops(nlocal * 6, p.params().flop_us);
    }
    const f64 solve_sec = rt::allreduce_max(p, solve.elapsed_sec());

    f64 err = 0.0;
    for (i64 k = 0; k < nlocal; ++k) {
      const f64 e = u[static_cast<std::size_t>(k)] -
                    u_star[static_cast<std::size_t>(k)];
      err += e * e;
    }
    err = std::sqrt(rt::allreduce_sum(p, err));
    if (p.is_root()) {
      std::printf("  CG converged in %d iterations, ||u - u*|| = %.3e\n",
                  iters, err);
      std::printf("  one localize, %d schedule reuses (gathers), modeled "
                  "solve time %.3f s\n",
                  iters + 1, solve_sec);
      std::printf("  ghosts on rank 0: %lld of %lld local rows\n",
                  static_cast<long long>(loc.schedule.nghost),
                  static_cast<long long>(nlocal));
    }
  });
  return 0;
}

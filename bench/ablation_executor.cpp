// Ablation C: executor memory layout. The executor (Phase E of Figure 2)
// runs every timestep through a reused schedule, so its per-sweep cost is
// the whole point of the inspector/executor split. The gather +
// scatter-reduce sweep measured here drives the CSR-flattened CommSchedule
// through a reusable ExecutorWorkspace and rt::alltoallv_flat ("csr_ws").
// Measured per config: element throughput (machine-total gather+scatter
// elements per host wall second) and heap allocations per sweep per rank,
// counted by a global operator new hook — it must come out at exactly zero
// after the first (warmup) sweep. Results go to BENCH_executor.json so the
// perf trajectory is tracked from PR to PR. The nested-vector baseline this
// bench once carried is retired; its last numbers are the "nested" rows of
// BENCH_executor.json in git history.
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/alloc_hook.hpp"
#include "bench/common.hpp"
#include "workload/rng.hpp"

namespace bench = chaos::bench;
namespace rt = chaos::rt;
namespace dist = chaos::dist;
namespace core = chaos::core;
using chaos::f64;
using chaos::i64;

namespace {

// --- configs ----------------------------------------------------------------

struct ConfigResult {
  std::string workload;
  int procs = 0;
  int sweeps = 0;
  i64 ghost_total = 0;     // machine-total ghost slots (one gather's volume)
  i64 elements_total = 0;  // machine-total elements moved over all sweeps
  f64 wall_seconds = 0.0;  // barrier-fenced sweep loop only
  f64 elems_per_sec = 0.0;
  f64 allocs_per_sweep_per_rank = 0.0;
  f64 modeled_seconds = 0.0;
  i64 alltoallv_bytes = 0;  // modeled off-process payload over all sweeps
};

constexpr int kSweeps = 40;

/// One run: localize @p make_refs's references against a BLOCK distribution
/// of @p nnodes, warm up one sweep, then time kSweeps fenced gather+scatter
/// sweeps while counting heap allocations.
template <typename MakeRefs>
ConfigResult run_config(const std::string& workload, int procs, i64 nnodes,
                        MakeRefs&& make_refs) {
  ConfigResult r;
  r.workload = workload;
  r.procs = procs;
  r.sweeps = kSweeps;

  rt::Machine& machine = bench::pooled_machine(procs);
  machine.run([&](rt::Process& p) {
    auto d = dist::Distribution::block(p, nnodes);
    const std::vector<i64> refs = make_refs(p);
    core::InspectorWorkspace iws;
    core::Localized loc;
    core::localize(p, *d, refs, iws, loc);

    dist::DistributedArray<f64> x(p, d, 1.0);
    x.fill_by_global([](i64 g) { return static_cast<f64>(g % 97); });
    x.resize_ghost(loc.schedule.nghost);
    core::ExecutorWorkspace<f64> ws;
    std::vector<f64> acc(static_cast<std::size_t>(loc.schedule.nghost), 0.25);

    const i64 ghost_total = rt::allreduce_sum(p, loc.schedule.nghost);

    // Warmup sweep: sizes the workspace so the measured window is steady
    // state.
    core::gather_ghosts<f64>(p, loc.schedule, x.local(), x.ghost(), ws);
    core::scatter_reduce<f64>(p, loc.schedule, x.local(), acc,
                              core::ReduceOp::Add, ws);

    rt::barrier(p);
    const long long allocs0 = bench::heap_allocs();
    const auto w0 = std::chrono::steady_clock::now();
    rt::ClockSection section(p.clock());
    const i64 bytes0 = p.stats().alltoallv_bytes;
    for (int sweep = 0; sweep < kSweeps; ++sweep) {
      core::gather_ghosts<f64>(p, loc.schedule, x.local(), x.ghost(), ws);
      core::scatter_reduce<f64>(p, loc.schedule, x.local(), acc,
                                core::ReduceOp::Add, ws);
    }
    rt::barrier(p);
    const f64 modeled = rt::allreduce_max(p, section.elapsed_sec());
    const i64 my_bytes = p.stats().alltoallv_bytes - bytes0;
    const i64 bytes_total = rt::allreduce_sum(p, my_bytes);
    if (p.is_root()) {
      r.wall_seconds =
          std::chrono::duration<f64>(std::chrono::steady_clock::now() - w0)
              .count();
      const long long allocs1 = bench::heap_allocs();
      r.allocs_per_sweep_per_rank =
          static_cast<f64>(allocs1 - allocs0) /
          (static_cast<f64>(kSweeps) * static_cast<f64>(procs));
      r.ghost_total = ghost_total;
      // One sweep moves every ghost slot twice: out on the gather, back on
      // the scatter.
      r.elements_total = 2 * ghost_total * kSweeps;
      r.modeled_seconds = modeled;
      r.alltoallv_bytes = bytes_total;
    }
  });
  r.elems_per_sec = r.wall_seconds > 0
                        ? static_cast<f64>(r.elements_total) / r.wall_seconds
                        : 0.0;
  return r;
}

std::vector<i64> mesh_endpoint_refs(rt::Process& p, const bench::Workload& w) {
  // The executor's real reference stream: both endpoints of my block of
  // edges (same slicing as the hand pipeline's Phase D input).
  auto edist = dist::Distribution::block(p, w.nedges);
  std::vector<i64> refs;
  refs.reserve(static_cast<std::size_t>(2 * edist->my_local_size()));
  for (i64 l = 0; l < edist->my_local_size(); ++l) {
    const i64 e = edist->global_of(p.rank(), l);
    refs.push_back(w.e1[static_cast<std::size_t>(e)]);
    refs.push_back(w.e2[static_cast<std::size_t>(e)]);
  }
  return refs;
}

bool write_json(const std::vector<ConfigResult>& results) {
  std::FILE* f = std::fopen("BENCH_executor.json", "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open BENCH_executor.json for writing\n");
    return false;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"executor_gather_scatter\",\n");
  std::fprintf(f, "  \"sweeps\": %d,\n", kSweeps);
  std::fprintf(f, "  \"configs\": [\n");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    std::fprintf(f,
                 "    {\"workload\": \"%s\", \"layout\": \"csr_ws\", "
                 "\"procs\": %d, \"ghost_total\": %lld, "
                 "\"elements_total\": %lld, \"wall_seconds\": %.6f, "
                 "\"elems_per_sec_wall\": %.0f, "
                 "\"allocs_per_sweep_per_rank\": %.2f, "
                 "\"modeled_seconds\": %.6f, "
                 "\"alltoallv_bytes_modeled\": %lld}%s\n",
                 r.workload.c_str(), r.procs,
                 static_cast<long long>(r.ghost_total),
                 static_cast<long long>(r.elements_total), r.wall_seconds,
                 r.elems_per_sec, r.allocs_per_sweep_per_rank,
                 r.modeled_seconds,
                 static_cast<long long>(r.alltoallv_bytes),
                 i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  return true;
}

void print_result(const ConfigResult& r) {
  std::printf("%-18s P=%-3d %10lld ghosts %12.0f elems/s %8.2f "
              "allocs/sweep/rank %10.3f s wall\n",
              r.workload.c_str(), r.procs,
              static_cast<long long>(r.ghost_total), r.elems_per_sec,
              r.allocs_per_sweep_per_rank, r.wall_seconds);
  std::fflush(stdout);
}

}  // namespace

int main() {
  std::printf("Ablation C: executor layout — CSR schedule + reusable "
              "workspace\n");
  std::printf("%d gather+scatter sweeps per config, barrier-fenced; heap "
              "allocations counted globally\n\n",
              kSweeps);

  std::vector<ConfigResult> results;

  // 53K mesh at P=16: the paper's large workload, endpoints against the
  // BLOCK node distribution.
  {
    const auto w = bench::workload_mesh_53k();
    results.push_back(run_config("53k_mesh", 16, w.nnodes, [&](rt::Process& p) {
      return mesh_endpoint_refs(p, w);
    }));
    print_result(results.back());
  }

  // Synthetic P=64: uniform random references, ~63/64 off-process — the
  // high-rank-count stress the 53K mesh cannot produce at P=16.
  {
    constexpr i64 kNodes = 1 << 17;
    constexpr i64 kRefsPerRank = 24 * 1024;
    results.push_back(
        run_config("synthetic_p64", 64, kNodes, [&](rt::Process& p) {
          chaos::wl::Rng rng(911 + static_cast<chaos::u64>(p.rank()) * 131);
          std::vector<i64> refs(static_cast<std::size_t>(kRefsPerRank));
          for (auto& v : refs) v = rng.below(kNodes);
          return refs;
        }));
    print_result(results.back());
  }

  if (write_json(results)) std::printf("\nwrote BENCH_executor.json\n");

  // Hard gate (checked here so CI smoke fails loudly).
  int rc = 0;
  for (const auto& r : results) {
    if (r.allocs_per_sweep_per_rank != 0.0) {
      std::fprintf(stderr,
                   "FAIL: %s performed %.2f heap allocations per sweep per "
                   "rank (want 0)\n",
                   r.workload.c_str(), r.allocs_per_sweep_per_rank);
      rc = 1;
    }
  }
  if (rc == 0) {
    std::printf("\nPASS: the executor sweep is allocation-free at P=16 and "
                "P=64\n");
  }
  return rc;
}

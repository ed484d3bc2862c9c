// Ablation D: inspector memory layout + translation caching. The inspector
// is the cost that schedule reuse amortizes (Section 3) — but workloads that
// invalidate reuse (adaptive meshes) re-run it, so its own constant matters.
// The localize measured here collapses duplicate globals through the
// InspectorWorkspace's flat dedup table BEFORE the locate, lets a persistent
// dist::TranslationCache absorb warm locate rounds, and reuses every buffer.
// Measured per config: reference throughput (machine-total localized
// references per host wall second), heap allocations per warm re-inspection
// per rank (operator-new hook; must be exactly 0), translation-table locate
// queries (must not exceed distinct refs + cache misses), and locate wire
// bytes (request+reply words actually exchanged). Results go to
// BENCH_inspector.json. The translate-first unordered_map baseline this
// bench once carried is retired; its last numbers are the "seed" rows of
// BENCH_inspector.json in git history.
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/alloc_hook.hpp"
#include "bench/common.hpp"
#include "dist/translation_cache.hpp"
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
  i64 refs_total = 0;      // machine-total references per inspection
  i64 distinct_total = 0;  // machine-total distinct references
  i64 elements_total = 0;  // references localized over all measured sweeps
  f64 wall_seconds = 0.0;
  f64 refs_per_sec = 0.0;
  f64 allocs_per_inspection_per_rank = 0.0;  // warm sweeps only
  i64 locate_queries = 0;     // machine-total, warmup + measured window
  i64 locate_wire_bytes = 0;  // request+reply payload actually exchanged
  i64 tcache_hits = 0;
  i64 tcache_misses = 0;
  f64 modeled_seconds = 0.0;
};

constexpr int kWarmupSweeps = 2;
constexpr int kSweeps = 8;

/// One wire round trip per distinct remote target: 8-byte request global +
/// 16-byte (proc, local) reply entry.
constexpr i64 kWireBytesPerQuery =
    static_cast<i64>(sizeof(i64) + sizeof(dist::Entry));

template <typename MakeRefs>
ConfigResult run_config(const std::string& workload, int procs, i64 nnodes,
                        MakeRefs&& make_refs) {
  ConfigResult r;
  r.workload = workload;
  r.procs = procs;
  r.sweeps = kSweeps;

  rt::Machine& machine = bench::pooled_machine(procs);
  machine.run([&](rt::Process& p) {
    // Irregular (paged) node distribution: the locate is a real exchange
    // round, as after any partitioner-driven REDISTRIBUTE.
    auto md = dist::Distribution::block(p, nnodes);
    std::vector<i64> map_slice(static_cast<std::size_t>(md->my_local_size()));
    for (std::size_t l = 0; l < map_slice.size(); ++l) {
      const i64 g = md->global_of(p.rank(), static_cast<i64>(l));
      map_slice[l] = (g * 11 + 2) % p.nprocs();
    }
    auto d = dist::Distribution::irregular_from_map(p, map_slice, *md);
    const std::vector<i64> refs = make_refs(p);

    auto cache = std::make_unique<dist::TranslationCache>(1 << 18);
    core::InspectorWorkspace ws;
    ws.configure(core::PlanOptions{.translation_cache = cache.get()});
    core::Localized out;

    // Warmup: sizes every workspace buffer and fills the cache.
    for (int sweep = 0; sweep < kWarmupSweeps; ++sweep) {
      core::localize(p, *d, refs, ws, out);
    }
    const i64 distinct = ws.last_distinct_refs();
    const i64 refs_total = rt::allreduce_sum(p, static_cast<i64>(refs.size()));
    const i64 distinct_total = rt::allreduce_sum(p, distinct);

    rt::barrier(p);
    const long long allocs0 = bench::heap_allocs();
    const auto w0 = std::chrono::steady_clock::now();
    rt::ClockSection section(p.clock());
    for (int sweep = 0; sweep < kSweeps; ++sweep) {
      core::localize(p, *d, refs, ws, out);
    }
    rt::barrier(p);
    const f64 modeled = rt::allreduce_max(p, section.elapsed_sec());
    const auto& ts = d->table()->stats();
    const i64 queries_total = rt::allreduce_sum(p, ts.queries);
    const i64 wire_total = rt::allreduce_sum(p, ts.wire_queries);
    const i64 hits_total = rt::allreduce_sum(p, p.stats().tcache_hits);
    const i64 misses_total = rt::allreduce_sum(p, p.stats().tcache_misses);

    // Per-rank gate, checked where the per-rank numbers live: the
    // translation table must never see more than the distinct reference set
    // plus the cache misses that had to re-locate.
    CHAOS_CHECK(ts.queries <= distinct + cache->stats().misses,
                "inspector bench: locate query volume exceeds distinct "
                "refs + cache misses");

    if (p.is_root()) {
      r.wall_seconds =
          std::chrono::duration<f64>(std::chrono::steady_clock::now() - w0)
              .count();
      const long long allocs1 = bench::heap_allocs();
      r.allocs_per_inspection_per_rank =
          static_cast<f64>(allocs1 - allocs0) /
          (static_cast<f64>(kSweeps) * static_cast<f64>(procs));
      r.refs_total = refs_total;
      r.distinct_total = distinct_total;
      r.elements_total = refs_total * kSweeps;
      r.locate_queries = queries_total;
      r.locate_wire_bytes = wire_total * kWireBytesPerQuery;
      r.tcache_hits = hits_total;
      r.tcache_misses = misses_total;
      r.modeled_seconds = modeled;
    }
  });
  r.refs_per_sec = r.wall_seconds > 0
                       ? static_cast<f64>(r.elements_total) / r.wall_seconds
                       : 0.0;
  return r;
}

std::vector<i64> mesh_endpoint_refs(rt::Process& p, const bench::Workload& w) {
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
  std::FILE* f = std::fopen("BENCH_inspector.json", "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open BENCH_inspector.json for writing\n");
    return false;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"inspector_localize\",\n");
  std::fprintf(f, "  \"sweeps\": %d,\n", kSweeps);
  std::fprintf(f, "  \"configs\": [\n");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    std::fprintf(f,
                 "    {\"workload\": \"%s\", \"layout\": \"dedup_ws\", "
                 "\"procs\": %d, \"refs_total\": %lld, "
                 "\"distinct_total\": %lld, \"wall_seconds\": %.6f, "
                 "\"refs_per_sec_wall\": %.0f, "
                 "\"allocs_per_inspection_per_rank\": %.2f, "
                 "\"locate_queries\": %lld, \"locate_wire_bytes\": %lld, "
                 "\"tcache_hits\": %lld, \"tcache_misses\": %lld, "
                 "\"modeled_seconds\": %.6f}%s\n",
                 r.workload.c_str(), r.procs,
                 static_cast<long long>(r.refs_total),
                 static_cast<long long>(r.distinct_total), r.wall_seconds,
                 r.refs_per_sec, r.allocs_per_inspection_per_rank,
                 static_cast<long long>(r.locate_queries),
                 static_cast<long long>(r.locate_wire_bytes),
                 static_cast<long long>(r.tcache_hits),
                 static_cast<long long>(r.tcache_misses), r.modeled_seconds,
                 i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  return true;
}

void print_result(const ConfigResult& r) {
  std::printf("%-14s P=%-3d %11lld refs %12.0f refs/s %8.2f "
              "allocs/insp/rank %10lld locate-wire-B %8.3f s wall\n",
              r.workload.c_str(), r.procs,
              static_cast<long long>(r.refs_total), r.refs_per_sec,
              r.allocs_per_inspection_per_rank,
              static_cast<long long>(r.locate_wire_bytes), r.wall_seconds);
  std::fflush(stdout);
}

}  // namespace

int main() {
  std::printf("Ablation D: inspector layout — dedup-first workspace + "
              "translation cache\n");
  std::printf("%d warmup + %d measured re-inspections per config, "
              "barrier-fenced; heap allocations counted globally\n\n",
              kWarmupSweeps, kSweeps);

  std::vector<ConfigResult> results;

  // 53K mesh at P=16: the paper's large workload; endpoint references hit
  // each node with ~6.7x mean multiplicity.
  {
    const auto w = bench::workload_mesh_53k();
    results.push_back(run_config("53k_mesh", 16, w.nnodes, [&](rt::Process& p) {
      return mesh_endpoint_refs(p, w);
    }));
    print_result(results.back());
  }

  // Synthetic P=64: uniform random references at high rank count.
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

  if (write_json(results)) std::printf("\nwrote BENCH_inspector.json\n");

  // Hard gate (checked here so CI smoke fails loudly); the locate-volume
  // cap is a per-rank CHAOS_CHECK inside run_config.
  int rc = 0;
  for (const auto& r : results) {
    if (r.allocs_per_inspection_per_rank != 0.0) {
      std::fprintf(stderr,
                   "FAIL: %s performed %.2f heap allocations per warm "
                   "re-inspection per rank (want 0)\n",
                   r.workload.c_str(), r.allocs_per_inspection_per_rank);
      rc = 1;
    }
  }
  if (rc == 0) {
    std::printf("\nPASS: localize is allocation-free per warm re-inspection "
                "at P=16 and P=64, with locate volume capped at "
                "distinct+misses\n");
  }
  return rc;
}

// Ablation B: translation-table organization. PARTI/CHAOS distributes the
// global-to-local translation table page-wise; the alternative is full
// replication (O(N) memory per process, zero-communication dereference).
// Both answer through TranslationTable::dereference staged in a reusable
// DereferenceWorkspace: counts alltoall + two flat CSR exchanges
// (3 collectives) when paged, none when replicated, and ZERO heap
// allocations on a warm repeat call.
// Measurements per config: collectives per locate, heap allocations per warm
// locate (operator-new hook; must be exactly 0 — a hard gate), modeled
// seconds, and host wall throughput — written to BENCH_ttable.json so the
// perf trajectory of the hot path is tracked from PR to PR. The full RCB
// inspector pipeline page-size sweep rides along for context.
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/alloc_hook.hpp"
#include "bench/common.hpp"
#include "dist/dereference_workspace.hpp"

namespace bench = chaos::bench;
namespace rt = chaos::rt;
namespace dist = chaos::dist;
using chaos::f64;
using chaos::i64;

namespace {

struct ConfigResult {
  std::string mode;  // "paged" or "replicated"
  i64 page_size = 0;
  i64 locate_calls = 0;
  i64 collectives = 0;        // rank-0 collectives (3 per paged call)
  i64 queries_total = 0;      // machine-total queries over all locate calls
  f64 allocs_per_locate = 0;  // machine-wide heap allocations per warm call
  f64 modeled_seconds = 0.0;
  f64 wall_seconds = 0.0;         ///< whole run incl. machine + table build
  f64 locate_wall_seconds = 0.0;  ///< just the locate loop (barrier-fenced)
  f64 queries_per_sec_wall = 0.0;
};

constexpr int kProcs = 16;
constexpr int kLocateCalls = 4;

ConfigResult run_config(const bench::Workload& w, i64 page, bool repl) {
  ConfigResult r;
  r.mode = repl ? "replicated" : "paged";
  r.page_size = page;
  const auto t0 = std::chrono::steady_clock::now();
  rt::Machine machine(kProcs);
  machine.run([&](rt::Process& p) {
    // The inspector's real layout: an irregular map scattering nodes.
    auto md = dist::Distribution::block(p, w.nnodes);
    std::vector<i64> slice(static_cast<std::size_t>(md->my_local_size()));
    for (std::size_t l = 0; l < slice.size(); ++l) {
      const i64 g = md->global_of(p.rank(), static_cast<i64>(l));
      slice[l] = (g * 13 + 5) % p.nprocs();
    }
    auto d = dist::Distribution::irregular_from_map(p, slice, *md, page, repl);

    // The inspector's traffic: dereference every local edge endpoint.
    std::vector<i64> queries;
    auto edist = dist::Distribution::block(p, w.nedges);
    queries.reserve(static_cast<std::size_t>(2 * edist->my_local_size()));
    for (i64 l = 0; l < edist->my_local_size(); ++l) {
      const i64 e = edist->global_of(p.rank(), l);
      queries.push_back(w.e1[static_cast<std::size_t>(e)]);
      queries.push_back(w.e2[static_cast<std::size_t>(e)]);
    }

    // Caller-owned answers + scratch, warmed by one call that sizes every
    // workspace buffer and checks each answer's owner against the map.
    std::vector<dist::Entry> entries;
    dist::DereferenceWorkspace ws;
    d->locate_into(p, queries, entries, ws);
    for (std::size_t i = 0; i < queries.size(); ++i) {
      CHAOS_CHECK(entries[i].proc == (queries[i] * 13 + 5) % p.nprocs(),
                  "ablation_ttable: dereference disagrees with the map");
    }

    const auto& table = *d->table();
    const i64 collectives_before = table.stats().collectives;
    // Barrier-fence the loop so the wall measurement covers only the
    // dereference traffic, not machine construction or the table build —
    // and so the allocation window covers exactly the warm locate calls.
    rt::barrier(p);
    const long long allocs0 = bench::heap_allocs();
    const auto w0 = std::chrono::steady_clock::now();
    rt::ClockSection section(p.clock());
    for (int k = 0; k < kLocateCalls; ++k) {
      d->locate_into(p, queries, entries, ws);
    }
    rt::barrier(p);
    const long long allocs1 = bench::heap_allocs();
    const f64 modeled = rt::allreduce_max(p, section.elapsed_sec());
    if (p.is_root()) {
      r.modeled_seconds = modeled;
      r.locate_calls = kLocateCalls;
      r.collectives = table.stats().collectives - collectives_before;
      r.allocs_per_locate = static_cast<f64>(allocs1 - allocs0) /
                            static_cast<f64>(kLocateCalls);
      r.locate_wall_seconds =
          std::chrono::duration<f64>(std::chrono::steady_clock::now() - w0)
              .count();
    }
  });
  r.wall_seconds =
      std::chrono::duration<f64>(std::chrono::steady_clock::now() - t0)
          .count();
  r.queries_total = 2 * w.nedges * kLocateCalls;  // every endpoint, each call
  r.queries_per_sec_wall =
      r.locate_wall_seconds > 0
          ? static_cast<f64>(r.queries_total) / r.locate_wall_seconds
          : 0.0;  // under clock resolution: report 0, not a fake rate
  return r;
}

bool write_json(const bench::Workload& w,
                const std::vector<ConfigResult>& results) {
  std::FILE* f = std::fopen("BENCH_ttable.json", "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open BENCH_ttable.json for writing\n");
    return false;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"ttable_dereference\",\n");
  std::fprintf(f, "  \"workload\": \"%s\",\n", w.name.c_str());
  std::fprintf(f, "  \"nnodes\": %lld,\n", static_cast<long long>(w.nnodes));
  std::fprintf(f, "  \"nedges\": %lld,\n", static_cast<long long>(w.nedges));
  std::fprintf(f, "  \"procs\": %d,\n", kProcs);
  std::fprintf(f, "  \"locate_calls\": %d,\n", kLocateCalls);
  std::fprintf(f, "  \"configs\": [\n");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    std::fprintf(f,
                 "    {\"mode\": \"%s\", \"page_size\": %lld, "
                 "\"collectives\": %lld, "
                 "\"collectives_per_locate\": %.1f, "
                 "\"allocs_per_locate\": %.2f, "
                 "\"queries_total\": %lld, "
                 "\"modeled_seconds\": %.6f, "
                 "\"locate_wall_seconds\": %.6f, \"wall_seconds\": %.6f, "
                 "\"queries_per_sec_wall\": %.0f}%s\n",
                 r.mode.c_str(), static_cast<long long>(r.page_size),
                 static_cast<long long>(r.collectives),
                 static_cast<f64>(r.collectives) /
                     static_cast<f64>(r.locate_calls),
                 r.allocs_per_locate, static_cast<long long>(r.queries_total),
                 r.modeled_seconds, r.locate_wall_seconds, r.wall_seconds,
                 r.queries_per_sec_wall,
                 i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  return true;
}

}  // namespace

int main() {
  std::printf("Ablation B: translation-table page size / replication\n");
  std::printf("53K mesh @ %d procs (modeled seconds + host wall clock; heap "
              "allocations counted globally)\n\n",
              kProcs);

  const auto w = bench::workload_mesh_53k();

  // --- 1. dist-layer dereference microbench -> BENCH_ttable.json -----------
  std::printf("%-24s %11s %12s %12s %14s %12s %16s\n", "table organization",
              "collectives", "coll/loc", "allocs/loc", "modeled (s)", "loc wall (s)",
              "queries/s (wall)");
  std::vector<ConfigResult> results;
  for (const i64 page : {i64{1}, i64{64}, i64{4096}}) {
    results.push_back(run_config(w, page, /*repl=*/false));
  }
  // Page size is meaningless for a replicated table; report 0 in the JSON
  // so consumers never group it with the paged pg=4096 row. (The table
  // itself still needs a legal page_size >= 1 to build.)
  {
    auto repl = run_config(w, 4096, /*repl=*/true);
    repl.page_size = 0;
    results.push_back(std::move(repl));
  }
  for (const auto& r : results) {
    const std::string label =
        r.mode == "paged" ? "paged, pg=" + std::to_string(r.page_size)
                          : "replicated";
    std::printf("%-24s %11lld %12.1f %12.2f %14.3f %12.3f %16.0f\n",
                label.c_str(), static_cast<long long>(r.collectives),
                static_cast<f64>(r.collectives) /
                    static_cast<f64>(r.locate_calls),
                r.allocs_per_locate, r.modeled_seconds, r.locate_wall_seconds,
                r.queries_per_sec_wall);
    std::fflush(stdout);
  }
  if (write_json(w, results)) {
    std::printf("\nwrote BENCH_ttable.json\n");
  }

  // --- 2. pipeline context: inspector phase under the paged table ----------
  std::printf("\nRCB inspector pipeline, page-size sweep:\n");
  std::printf("%-24s %14s %14s %14s\n", "table organization",
              "inspector (s)", "remap (s)", "wall (s)");
  for (const i64 page : {i64{64}, i64{1024}, i64{4096}, i64{32768}}) {
    bench::PipelineConfig cfg;
    cfg.partitioner = "RCB";
    cfg.iterations = 1;
    cfg.ttable_page_size = page;
    const auto r = bench::run_hand_pipeline(kProcs, w, cfg);
    std::printf("%-24s %14.2f %14.2f %14.2f\n",
                ("distributed, page=" + std::to_string(page)).c_str(),
                r.inspector, r.remap, r.wall_seconds);
    std::fflush(stdout);
  }

  // Hard gates this PR claims (checked here so CI smoke fails loudly).
  int rc = 0;
  for (const auto& r : results) {
    if (r.allocs_per_locate != 0.0) {
      std::fprintf(stderr,
                   "FAIL: %s dereference performed %.2f heap allocations "
                   "per warm locate (want 0)\n",
                   r.mode.c_str(), r.allocs_per_locate);
      rc = 1;
    }
    const f64 per_call = static_cast<f64>(r.collectives) /
                         static_cast<f64>(r.locate_calls);
    const f64 want = r.mode == "paged" ? 3.0 : 0.0;
    if (per_call != want) {
      std::fprintf(stderr,
                   "FAIL: %s dereference spent %.1f collectives per "
                   "locate (want %.1f)\n",
                   r.mode.c_str(), per_call, want);
      rc = 1;
    }
  }
  if (rc == 0) {
    std::printf("\nPASS: dereference is allocation-free on warm locates "
                "(paged and replicated), at exactly 3 collectives per paged "
                "call and 0 replicated\n");
  }
  std::printf("\nshape check: page size barely matters (queries batch per "
              "home anyway); replication removes the dereference exchange at "
              "O(N) memory per process — the PARTI trade-off.\n");
  return rc;
}

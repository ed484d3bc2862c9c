// Ablation E: incremental schedule repair (DESIGN.md §14). An adaptive mesh
// rewires a small fraction of its edges per refinement epoch; the pre-§14
// runtime answered every rewire with a full re-inspection (iteration
// repartition + full remap + full localize). The repair path diffs the new
// indirection values against the plan's LocalizeSnapshot, ships only changed
// endpoints through the remap, locates only NOVEL globals (warm
// TranslationCache hits make that nearly free), and splices the CSR schedule
// in place — cost proportional to the delta, not the mesh.
//
// Measured per delta fraction (1% / 5% / 25% of edges rewired):
//   - bit-identicality: the repaired schedule + refs must equal a control
//     localize_many of the plan's own remapped endpoint values (the frozen
//     iteration partition is the repair contract; a fresh inspect() may
//     legally repartition);
//   - locate volume: translation-table queries across one repair must not
//     exceed the novel distinct globals plus the translation-cache misses;
//   - modeled cost: avg virtual seconds per warm repair, monotone in the
//     delta fraction and strictly under a full re-inspection at every
//     fraction;
//   - heap allocations per warm repair per rank (operator-new hook): 0.
// Results go to BENCH_repair.json; every gate failure exits nonzero.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>
#include <unordered_set>
#include <vector>

#include "bench/common.hpp"
#include "core/forall.hpp"
#include "dist/translation_cache.hpp"

// --- global allocation counter ----------------------------------------------

namespace {
std::atomic<long long> g_heap_allocs{0};
}  // namespace

void* operator new(std::size_t size) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::aligned_alloc(static_cast<std::size_t>(align),
                                   (size + static_cast<std::size_t>(align) - 1) &
                                       ~(static_cast<std::size_t>(align) - 1))) {
    return p;
  }
  throw std::bad_alloc{};
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace bench = chaos::bench;
namespace rt = chaos::rt;
namespace dist = chaos::dist;
namespace core = chaos::core;
using chaos::f64;
using chaos::i64;

namespace {

constexpr int kProcs = 16;
constexpr int kWarmupRepairs = 5;
constexpr int kRepairs = 6;

struct FractionResult {
  int delta_pct = 0;
  int procs = 0;
  i64 refs_total = 0;           // machine-total endpoint references
  i64 novel_total = 0;          // machine-total novel distinct, first repair
  i64 locate_queries = 0;       // machine-total table queries, first repair
  i64 cache_misses = 0;         // machine-total tcache misses, first repair
  f64 repair_modeled_sec = 0.0;   // avg per warm repair, max over ranks
  f64 rebuild_modeled_sec = 0.0;  // one full re-inspection, max over ranks
  f64 allocs_per_repair_per_rank = 0.0;  // warm window only
  f64 wall_seconds = 0.0;                // warm window, host wall
  bool bit_identical = false;
  bool gates_ok = false;  // per-rank CHAOS_CHECKs all passed (else throw)
};

/// Rewires every stride-th edge of the base slice: endpoint 1 on even
/// rewire ordinals, endpoint 2 on odd, to a value that depends on @p epoch
/// so distinct epochs give distinct reference sets. Deterministic in the
/// GLOBAL edge id, so the machine-wide reference multiset is independent of
/// the rank that holds the edge.
void rewire(const dist::Distribution& edist, int rank, i64 nnodes, i64 stride,
            int epoch, std::span<const i64> base1, std::span<const i64> base2,
            std::vector<i64>& out1, std::vector<i64>& out2) {
  out1.assign(base1.begin(), base1.end());
  out2.assign(base2.begin(), base2.end());
  for (i64 l = 0; l < static_cast<i64>(out1.size()); ++l) {
    const i64 g = edist.global_of(rank, l);
    if (g % stride != 0) continue;
    if ((g / stride) % 2 == 0) {
      out1[static_cast<std::size_t>(l)] =
          (base1[static_cast<std::size_t>(l)] + 1 + epoch) % nnodes;
    } else {
      out2[static_cast<std::size_t>(l)] =
          (base2[static_cast<std::size_t>(l)] + 1 + epoch) % nnodes;
    }
  }
}

/// Gate G1: the repaired plan must carry exactly the schedule + refs a full
/// localize of its own (post-repair) remapped endpoint values produces. The
/// iteration partition is frozen by repair, so the control localizes the
/// plan's end1/end2 — not a fresh inspect(), which may legally repartition.
bool schedule_bit_identical(rt::Process& p, const dist::Distribution& d,
                            const core::EdgeLoopPlan& plan) {
  const std::span<const i64> batches[] = {plan.end1, plan.end2};
  core::InspectorWorkspace ws;
  core::LocalizedMany control;
  core::localize_many(p, d, batches, ws, control);
  const auto& a = plan.loc.schedule;
  const auto& b = control.schedule;
  return a.send_indices == b.send_indices &&
         a.send_offsets == b.send_offsets &&
         a.recv_offsets == b.recv_offsets && a.nghost == b.nghost &&
         a.nlocal_at_build == b.nlocal_at_build &&
         plan.loc.refs[0] == control.refs[0] &&
         plan.loc.refs[1] == control.refs[1];
}

FractionResult run_fraction(const bench::Workload& w, int delta_pct) {
  FractionResult r;
  r.delta_pct = delta_pct;
  r.procs = kProcs;
  const i64 stride = 100 / delta_pct;

  rt::Machine& machine = bench::pooled_machine(kProcs);
  machine.run([&](rt::Process& p) {
    // Irregular (paged) node distribution, as after a partitioner-driven
    // REDISTRIBUTE: the locate is a real translation-table exchange and the
    // translation cache has something to absorb.
    auto md = dist::Distribution::block(p, w.nnodes);
    std::vector<i64> map_slice(static_cast<std::size_t>(md->my_local_size()));
    for (std::size_t l = 0; l < map_slice.size(); ++l) {
      const i64 g = md->global_of(p.rank(), static_cast<i64>(l));
      map_slice[l] = (g * 11 + 2) % p.nprocs();
    }
    auto d = dist::Distribution::irregular_from_map(p, map_slice, *md);
    auto edist = dist::Distribution::block(p, w.nedges);

    // This rank's endpoint slices: base mesh plus two rewired epochs. The
    // warm window alternates A <-> B so every repair carries a real delta.
    std::vector<i64> s1, s2;
    for (i64 l = 0; l < edist->my_local_size(); ++l) {
      const i64 e = edist->global_of(p.rank(), l);
      s1.push_back(w.e1[static_cast<std::size_t>(e)]);
      s2.push_back(w.e2[static_cast<std::size_t>(e)]);
    }
    std::vector<i64> a1, a2, b1, b2;
    rewire(*edist, p.rank(), w.nnodes, stride, 1, s1, s2, a1, a2);
    rewire(*edist, p.rank(), w.nnodes, stride, 2, s1, s2, b1, b2);

    // RepairMode::On pins the splice path (this bench measures the repair
    // mechanism; the Auto threshold policy is covered by core_repair_test).
    auto cache = std::make_unique<dist::TranslationCache>(1 << 18);
    const core::PlanOptions opts{.translation_cache = cache.get(),
                                 .repair = core::RepairMode::On};
    auto plan = core::EdgeReductionLoop::inspect(
        p, *edist, s1, s2, *d, core::IterRule::MostLocalReferences, opts);
    r.refs_total =
        rt::allreduce_sum(p, static_cast<i64>(s1.size() + s2.size()));

    // --- gate G2 on the first repair (cache still cold for novel globals):
    // table queries across the repair <= novel distinct + cache misses.
    std::unordered_set<i64> before;
    for (i64 v : plan->end1) before.insert(v);
    for (i64 v : plan->end2) before.insert(v);
    const i64 q0 = d->table()->stats().queries;
    const i64 m0 = cache->stats().misses;
    CHAOS_CHECK(core::EdgeReductionLoop::repair(p, *plan, a1, a2, *d),
                "repair bench: first repair unexpectedly fell back");
    const i64 queries = d->table()->stats().queries - q0;
    const i64 misses = cache->stats().misses - m0;
    std::unordered_set<i64> novel_set;
    for (i64 v : plan->end1) {
      if (!before.contains(v)) novel_set.insert(v);
    }
    for (i64 v : plan->end2) {
      if (!before.contains(v)) novel_set.insert(v);
    }
    const i64 novel = static_cast<i64>(novel_set.size());
    CHAOS_CHECK(queries <= novel + misses,
                "repair bench: repair locate volume exceeds novel distinct "
                "globals + cache misses");
    const i64 novel_total = rt::allreduce_sum(p, novel);
    const i64 queries_total = rt::allreduce_sum(p, queries);
    const i64 misses_total = rt::allreduce_sum(p, misses);

    // Warmup repairs: size every splice/remap buffer in both directions.
    // Plan state after the G2 repair is A; alternate B, A, B, A, B.
    for (int i = 0; i < kWarmupRepairs; ++i) {
      const bool to_b = i % 2 == 0;
      CHAOS_CHECK(core::EdgeReductionLoop::repair(p, *plan, to_b ? b1 : a1,
                                                  to_b ? b2 : a2, *d),
                  "repair bench: warmup repair unexpectedly fell back");
    }

    // --- warm measured window: gates G3 (modeled cost) and G4 (0 allocs).
    rt::barrier(p);
    const long long allocs0 = g_heap_allocs.load(std::memory_order_relaxed);
    const auto w0 = std::chrono::steady_clock::now();
    rt::ClockSection section(p.clock());
    for (int i = 0; i < kRepairs; ++i) {
      // Warmups ended at B (kWarmupRepairs odd), so start back at A.
      const bool to_a = i % 2 == 0;
      CHAOS_CHECK(core::EdgeReductionLoop::repair(p, *plan, to_a ? a1 : b1,
                                                  to_a ? a2 : b2, *d),
                  "repair bench: warm repair unexpectedly fell back");
    }
    rt::barrier(p);
    const long long allocs1 = g_heap_allocs.load(std::memory_order_relaxed);
    const f64 wall =
        std::chrono::duration<f64>(std::chrono::steady_clock::now() - w0)
            .count();
    const f64 repair_avg = rt::allreduce_max(
        p, section.elapsed_sec() / static_cast<f64>(kRepairs));

    // Full re-inspection of the same references: what every one of those
    // repairs would have cost before §14 (and still costs on fallback).
    // Same options, same warm cache — the comparison favors the rebuild.
    rt::ClockSection rebuild_section(p.clock());
    auto rebuilt = core::EdgeReductionLoop::inspect(
        p, *edist, b1, b2, *d, core::IterRule::MostLocalReferences, opts);
    const f64 rebuild_sec = rt::allreduce_max(p, rebuild_section.elapsed_sec());
    CHAOS_CHECK(rebuilt->build.ready(), "repair bench: rebuild failed");

    // --- gate G1: repaired == full localize of the same remapped refs.
    const bool identical = schedule_bit_identical(p, *d, *plan);
    CHAOS_CHECK(identical,
                "repair bench: repaired schedule differs from a full "
                "localize of the same references");

    if (p.is_root()) {
      r.novel_total = novel_total;
      r.locate_queries = queries_total;
      r.cache_misses = misses_total;
      r.repair_modeled_sec = repair_avg;
      r.rebuild_modeled_sec = rebuild_sec;
      r.allocs_per_repair_per_rank =
          static_cast<f64>(allocs1 - allocs0) /
          (static_cast<f64>(kRepairs) * static_cast<f64>(kProcs));
      r.wall_seconds = wall;
      r.bit_identical = identical;
      r.gates_ok = true;
    }
  });
  return r;
}

bool write_json(const std::vector<FractionResult>& results) {
  std::FILE* f = std::fopen("BENCH_repair.json", "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open BENCH_repair.json for writing\n");
    return false;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"schedule_repair\",\n");
  std::fprintf(f, "  \"procs\": %d,\n", kProcs);
  std::fprintf(f, "  \"warm_repairs\": %d,\n", kRepairs);
  std::fprintf(f, "  \"configs\": [\n");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    const f64 speedup = r.repair_modeled_sec > 0
                            ? r.rebuild_modeled_sec / r.repair_modeled_sec
                            : 0.0;
    std::fprintf(f,
                 "    {\"delta_pct\": %d, \"procs\": %d, "
                 "\"refs_total\": %lld, \"novel_distinct_total\": %lld, "
                 "\"locate_queries_first_repair\": %lld, "
                 "\"cache_misses_first_repair\": %lld, "
                 "\"repair_modeled_seconds\": %.6f, "
                 "\"rebuild_modeled_seconds\": %.6f, "
                 "\"repair_speedup_vs_rebuild\": %.2f, "
                 "\"allocs_per_warm_repair_per_rank\": %.2f, "
                 "\"wall_seconds\": %.6f, "
                 "\"bit_identical\": %s}%s\n",
                 r.delta_pct, r.procs, static_cast<long long>(r.refs_total),
                 static_cast<long long>(r.novel_total),
                 static_cast<long long>(r.locate_queries),
                 static_cast<long long>(r.cache_misses), r.repair_modeled_sec,
                 r.rebuild_modeled_sec, speedup,
                 r.allocs_per_repair_per_rank, r.wall_seconds,
                 r.bit_identical ? "true" : "false",
                 i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  return true;
}

}  // namespace

int main() {
  std::printf("Ablation E: incremental schedule repair vs full re-inspection "
              "(DESIGN.md §14)\n");
  std::printf("10K mesh, P=%d, %d warm repairs per delta fraction, "
              "barrier-fenced; heap allocations counted globally\n\n",
              kProcs, kRepairs);

  const auto w = bench::workload_mesh_10k();
  std::vector<FractionResult> results;
  for (const int pct : {1, 5, 25}) {
    results.push_back(run_fraction(w, pct));
    const auto& r = results.back();
    std::printf("delta %2d%%  %8lld novel  repair %8.4f s  rebuild %8.4f s  "
                "(%.1fx)  %6.2f allocs/repair/rank  %s\n",
                r.delta_pct, static_cast<long long>(r.novel_total),
                r.repair_modeled_sec, r.rebuild_modeled_sec,
                r.repair_modeled_sec > 0
                    ? r.rebuild_modeled_sec / r.repair_modeled_sec
                    : 0.0,
                r.allocs_per_repair_per_rank,
                r.bit_identical ? "bit-identical" : "DIVERGED");
    std::fflush(stdout);
  }

  if (write_json(results)) std::printf("\nwrote BENCH_repair.json\n");

  // Hard gates this PR claims (per-rank locate-volume and bit-identicality
  // gates already threw inside run_fraction if violated).
  int rc = 0;
  for (const auto& r : results) {
    if (!r.bit_identical) {
      std::fprintf(stderr,
                   "FAIL: delta %d%% repaired schedule is not bit-identical "
                   "to a full localize of the same references\n",
                   r.delta_pct);
      rc = 1;
    }
    if (r.allocs_per_repair_per_rank != 0.0) {
      std::fprintf(stderr,
                   "FAIL: delta %d%% performed %.2f heap allocations per "
                   "warm repair per rank (want 0)\n",
                   r.delta_pct, r.allocs_per_repair_per_rank);
      rc = 1;
    }
    if (r.repair_modeled_sec >= r.rebuild_modeled_sec) {
      std::fprintf(stderr,
                   "FAIL: delta %d%% modeled repair cost %.6f s is not under "
                   "the full re-inspection's %.6f s\n",
                   r.delta_pct, r.repair_modeled_sec, r.rebuild_modeled_sec);
      rc = 1;
    }
  }
  for (std::size_t i = 1; i < results.size(); ++i) {
    if (results[i].repair_modeled_sec + 1e-12 <
        results[i - 1].repair_modeled_sec) {
      std::fprintf(stderr,
                   "FAIL: modeled repair cost is not monotone in the delta "
                   "fraction (%d%%: %.6f s > %d%%: %.6f s)\n",
                   results[i - 1].delta_pct,
                   results[i - 1].repair_modeled_sec, results[i].delta_pct,
                   results[i].repair_modeled_sec);
      rc = 1;
    }
  }
  if (!results.empty() &&
      results.front().repair_modeled_sec * 1.5 >=
          results.back().repair_modeled_sec) {
    std::fprintf(stderr,
                 "FAIL: repair cost barely moves with the delta (1%%: %.6f s "
                 "vs 25%%: %.6f s) — cost is not delta-proportional\n",
                 results.front().repair_modeled_sec,
                 results.back().repair_modeled_sec);
    rc = 1;
  }
  if (rc == 0) {
    std::printf("\nPASS: repairs bit-identical to full localize, locate "
                "volume capped at novel+misses, modeled cost scaling with "
                "the delta and under a full re-inspection at every "
                "fraction, 0 heap allocations per warm repair\n");
  }
  return rc;
}

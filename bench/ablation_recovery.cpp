// Ablation R: chaos soak of the recovery stack (DESIGN.md §11).
//
// The recovery PR's contract, measured end to end: a supervised pipeline hit
// by a deterministic transient fault — Throw, Stall, or AllocFail at any of
// the four rt/ injection sites, on any rank, at a seeded visit — must
//   1. recover on EVERY seed within the retry budget (one fault == at most
//      one retry: FaultPlan visit counters are cumulative across attempts,
//      so a spec is single-shot and the retried attempt runs clean);
//   2. reproduce the clean run bit for bit: final y array AND the modeled
//      virtual clock of each phase's successful attempt (backoff burns
//      wall-clock only; recover() leaves no barrier or blackboard residue);
//   3. keep the clean path allocation-free where it was before: the warm
//      executor sweeps perform 0 heap allocations (global operator-new
//      counting hook, bench/alloc_hook.cpp).
// The pipeline is the paper's partition -> inspect -> execute sequence over
// the tiny mesh, each phase its own supervised unit with per-rank state
// carried across phases — exactly the shape the Supervisor exists for.
// Results go to BENCH_recovery.json; all gates are enforced in-binary.
#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench/alloc_hook.hpp"
#include "bench/common.hpp"
#include "dist/translation_cache.hpp"
#include "rt/fault.hpp"

namespace bench = chaos::bench;
namespace core = chaos::core;
namespace dist = chaos::dist;
namespace rt = chaos::rt;
using chaos::f64;
using chaos::i64;
using chaos::u64;

namespace {

constexpr int kProcs = 8;
constexpr int kSweeps = 6;
constexpr int kSeeds = 220;
constexpr i64 kPageSize = 4096;
constexpr f64 kStallDeadlineSec = 0.25;

u64 splitmix64(u64 x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Per-rank pipeline state carried ACROSS supervised phases. Each phase
/// body rebuilds its own products from the previous phase's (never from its
/// own partial state), which is what makes a retried attempt idempotent.
struct RankState {
  std::shared_ptr<const dist::Distribution> reg, reg2;
  std::shared_ptr<const dist::Distribution> data_dist;
  std::optional<dist::DistributedArray<f64>> x, y;  // not default-constructible
  std::vector<i64> e1, e2;
  core::EdgeLoopPlan plan;
  std::unique_ptr<dist::TranslationCache> tcache;
};

struct PipelineRun {
  f64 clock_us[3] = {0.0, 0.0, 0.0};  // partition / inspect / execute
  std::vector<f64> y;                 // rank-concatenated final array (root)
  long long warm_allocs = -1;         // heap allocs across warm sweeps
  core::SupervisorStats stats;
  bool ok = false;
  std::string error;
};

/// One full supervised pipeline on @p machine: three run_phase calls over
/// shared per-rank state. The bodies are IDENTICAL for clean and seeded
/// runs — the bitwise gates compare their modeled clocks directly.
PipelineRun run_pipeline(rt::Machine& machine, const bench::Workload& w,
                         const rt::RetryPolicy& policy) {
  PipelineRun out;
  core::Supervisor sup(machine, policy);
  std::vector<RankState> st(kProcs);
  long long warm_start = 0, warm_end = 0;  // written by rank 0 only
  std::vector<f64> y_final;

  auto partition_body = [&](rt::Process& p) {
    RankState& s = st[static_cast<std::size_t>(p.rank())];
    s.reg = dist::Distribution::block(p, w.nnodes);
    s.reg2 = dist::Distribution::block(p, w.nedges);
    s.x.emplace(p, s.reg);
    s.y.emplace(p, s.reg, 0.0);
    s.x->fill_by_global(
        [](i64 g) { return 1.0 + 1.0 / (1.0 + static_cast<f64>(g)); });
    s.e1.clear();
    s.e2.clear();
    for (i64 l = 0; l < s.reg2->my_local_size(); ++l) {
      const i64 e = s.reg2->global_of(p.rank(), l);
      s.e1.push_back(w.e1[static_cast<std::size_t>(e)]);
      s.e2.push_back(w.e2[static_cast<std::size_t>(e)]);
    }
    core::GeoColBuilder builder(p, s.reg);
    std::vector<f64> xc, yc, zc;
    for (i64 l = 0; l < s.reg->my_local_size(); ++l) {
      const i64 g = s.reg->global_of(p.rank(), l);
      xc.push_back(w.cx[static_cast<std::size_t>(g)]);
      yc.push_back(w.cy[static_cast<std::size_t>(g)]);
      zc.push_back(w.cz[static_cast<std::size_t>(g)]);
    }
    const std::span<const f64> coords[] = {xc, yc, zc};
    builder.geometry(coords);
    auto geocol = builder.build();
    s.data_dist = core::set_by_partitioning(p, *geocol, "RCB", kPageSize);
    core::ReuseRegistry registry;
    core::Redistributor rd(&registry);
    rd.add(*s.x).add(*s.y);
    rd.apply(p, s.data_dist);
  };

  auto inspect_body = [&](rt::Process& p) {
    RankState& s = st[static_cast<std::size_t>(p.rank())];
    if (!s.tcache) {
      s.tcache = std::make_unique<dist::TranslationCache>(1 << 16);
      s.plan.iws.configure(
          core::PlanOptions{.translation_cache = s.tcache.get()});
    }
    // A retried attempt rebuilds the plan in place through warm workspaces;
    // staged-but-uncommitted cache insertions from the aborted attempt are
    // discarded inside localize, so the retry's miss vote — and its modeled
    // clock — match a clean run.
    const std::span<const i64> slices[] = {s.e1, s.e2};
    s.plan.partition(p, *s.reg2, *s.data_dist, slices,
                     core::IterRule::MostLocalReferences, kPageSize);
    s.plan.localize(p, *s.data_dist);
    s.plan.build.mark_built();
  };

  auto execute_body = [&](rt::Process& p) {
    RankState& s = st[static_cast<std::size_t>(p.rank())];
    // Idempotent accumulation: every attempt restarts y from zero.
    std::fill(s.y->local().begin(), s.y->local().end(), 0.0);
    const f64 half = w.flops_per_edge / 2.0;
    for (int it = 0; it < kSweeps; ++it) {
      if (it == 1) {
        // Warm-sweep allocation window opens after the sizing sweep.
        rt::barrier(p);
        if (p.rank() == 0) {
          warm_start = bench::heap_allocs();
        }
      }
      core::EdgeReductionLoop::execute(
          p, s.plan, *s.x, *s.y,
          [half](f64 a, f64 b) { return (a - b) * (a + b) * half; },
          [half](f64 a, f64 b) { return (b - a) * (a + b) * half; },
          w.flops_per_edge);
    }
    rt::barrier(p);
    if (p.rank() == 0) {
      warm_end = bench::heap_allocs();
    }
    auto full = rt::gatherv<f64>(p, std::span<const f64>(s.y->local()), 0);
    if (p.rank() == 0) y_final = std::move(full);
  };

  try {
    sup.run_phase("partition", partition_body);
    out.clock_us[0] = machine.max_virtual_time_us();
    sup.run_phase("inspect", inspect_body);
    out.clock_us[1] = machine.max_virtual_time_us();
    sup.run_phase("execute", execute_body);
    out.clock_us[2] = machine.max_virtual_time_us();
    out.ok = true;
  } catch (const std::exception& e) {
    out.error = e.what();
  }
  out.stats = sup.stats();
  out.warm_allocs = warm_end - warm_start;
  out.y = std::move(y_final);
  return out;
}

bool bitwise_same(const PipelineRun& a, const PipelineRun& b) {
  return std::memcmp(a.clock_us, b.clock_us, sizeof(a.clock_us)) == 0 &&
         a.y.size() == b.y.size() &&
         std::memcmp(a.y.data(), b.y.data(), a.y.size() * sizeof(f64)) == 0;
}

struct SoakTotals {
  i64 fired_seeds = 0;
  i64 retries = 0;
  i64 recoveries = 0;
  f64 backoff_wall_ms = 0.0;
  i64 by_kind[3] = {0, 0, 0};            // Throw / Stall / AllocFail
  i64 by_site[rt::kFaultSiteCount] = {};  // fired seeds per site
  i64 failures = 0;                      // seeds violating any per-seed gate
};

}  // namespace

int main() {
  std::printf("Ablation R: chaos soak — recovery under seeded transient "
              "faults\n\n");

  const auto w = bench::workload_mesh_tiny();
  rt::Machine machine(kProcs);
  rt::RetryPolicy policy{.max_attempts = 4,
                         .base_backoff_ms = 0.25,
                         .multiplier = 2.0,
                         .max_backoff_ms = 2.0};

  // --- clean baseline --------------------------------------------------------
  const PipelineRun clean = run_pipeline(machine, w, policy);
  if (!clean.ok) {
    std::fprintf(stderr, "FAIL: clean run failed: %s\n", clean.error.c_str());
    return 1;
  }
  std::printf("clean: partition %.6f us  inspect %.6f us  execute %.6f us  "
              "warm-sweep allocs %lld\n\n",
              clean.clock_us[0], clean.clock_us[1], clean.clock_us[2],
              clean.warm_allocs);

  // --- the soak --------------------------------------------------------------
  // Seeded (site, kind, rank, nth-visit) tuples from a splitmix64 chain.
  // Visit ranges are sized per site so the spec usually lands inside a real
  // visit sequence; a seed whose visit is never reached simply runs clean
  // (and still must be bit-identical). Stall seeds arm the watchdog.
  static constexpr rt::FaultKind kKinds[3] = {
      rt::FaultKind::Throw, rt::FaultKind::Stall, rt::FaultKind::AllocFail};
  static constexpr u64 kNthRange[rt::kFaultSiteCount] = {
      40,  // BarrierArrive: every phase of every collective
      12,  // BlackboardPublish: pointer-mode collectives
      10,  // Alltoall: counts rounds (exchange_csr, redistribute, locate)
      8,   // AlltoallvFlat: payload rounds
  };

  SoakTotals totals;
  i64 max_attempts_seen = 0;
  for (int s = 0; s < kSeeds; ++s) {
    u64 z = 0xC0FFEEull + static_cast<u64>(s) * 0x9e3779b97f4a7c15ull;
    auto next = [&z] { return z = splitmix64(z); };
    const int site_i = static_cast<int>(next() % rt::kFaultSiteCount);
    const int kind_i = static_cast<int>(next() % 3);
    const int rank = static_cast<int>(next() % kProcs);
    const u64 nth = 1 + next() % kNthRange[site_i];

    rt::FaultPlan plan(kProcs, z);
    plan.add({static_cast<rt::FaultSite>(site_i), kKinds[kind_i], rank, nth,
              0.0});
    machine.install_fault_plan(&plan);
    if (kKinds[kind_i] == rt::FaultKind::Stall) {
      machine.set_deadline_sec(kStallDeadlineSec);
    }
    const PipelineRun r = run_pipeline(machine, w, policy);
    machine.install_fault_plan(nullptr);
    machine.set_deadline_sec(0.0);

    const i64 fired = plan.fired();
    const bool identical = bitwise_same(r, clean);
    // A single-shot fault fails exactly one attempt, so a fired seed must
    // show exactly one retry and one recovery; an unfired seed none.
    const bool bounded = r.stats.retries == (fired > 0 ? 1 : 0) &&
                         r.stats.recoveries == r.stats.retries &&
                         r.stats.gave_up == 0;
    const bool seed_ok = r.ok && identical && bounded;
    if (!seed_ok) {
      ++totals.failures;
      std::fprintf(stderr,
                   "FAIL seed %d: site=%s kind=%s rank=%d nth=%llu — ok=%d "
                   "identical=%d fired=%lld retries=%lld recoveries=%lld "
                   "gave_up=%lld%s%s\n",
                   s, rt::fault_site_name(static_cast<rt::FaultSite>(site_i)),
                   rt::fault_kind_name(kKinds[kind_i]), rank,
                   static_cast<unsigned long long>(nth), r.ok ? 1 : 0,
                   identical ? 1 : 0, static_cast<long long>(fired),
                   static_cast<long long>(r.stats.retries),
                   static_cast<long long>(r.stats.recoveries),
                   static_cast<long long>(r.stats.gave_up),
                   r.error.empty() ? "" : " error=",
                   r.error.empty() ? "" : r.error.c_str());
    }
    if (fired > 0) {
      ++totals.fired_seeds;
      ++totals.by_kind[kind_i];
      ++totals.by_site[site_i];
    }
    totals.retries += r.stats.retries;
    totals.recoveries += r.stats.recoveries;
    totals.backoff_wall_ms += r.stats.backoff_wall_ms;
    if (r.stats.attempts > max_attempts_seen) {
      max_attempts_seen = r.stats.attempts;
    }
    if ((s + 1) % 40 == 0) {
      std::printf("  soak %3d/%d: %lld fired, %lld recovered, 0 divergences "
                  "so far: %s\n",
                  s + 1, kSeeds, static_cast<long long>(totals.fired_seeds),
                  static_cast<long long>(totals.recoveries),
                  totals.failures == 0 ? "yes" : "NO");
    }
  }

  // --- post-soak health ------------------------------------------------------
  // The same machine, after every recovery of the soak, must still produce
  // the baseline bit for bit with zero warm-sweep allocations.
  const PipelineRun after = run_pipeline(machine, w, policy);

  std::printf("\nsoak: %lld/%d seeds fired (Throw %lld, Stall %lld, AllocFail "
              "%lld), %lld retries, %lld recoveries, %.1f ms backoff "
              "wall-clock\n",
              static_cast<long long>(totals.fired_seeds), kSeeds,
              static_cast<long long>(totals.by_kind[0]),
              static_cast<long long>(totals.by_kind[1]),
              static_cast<long long>(totals.by_kind[2]),
              static_cast<long long>(totals.retries),
              static_cast<long long>(totals.recoveries),
              totals.backoff_wall_ms);

  // --- JSON ------------------------------------------------------------------
  if (std::FILE* f = std::fopen("BENCH_recovery.json", "w")) {
    std::fprintf(f, "{\n  \"bench\": \"recovery\",\n");
    std::fprintf(f, "  \"procs\": %d,\n  \"sweeps\": %d,\n  \"seeds\": %d,\n",
                 kProcs, kSweeps, kSeeds);
    std::fprintf(f,
                 "  \"clean\": {\"partition_us\": %.17g, \"inspect_us\": "
                 "%.17g, \"execute_us\": %.17g, \"warm_sweep_allocs\": "
                 "%lld},\n",
                 clean.clock_us[0], clean.clock_us[1], clean.clock_us[2],
                 clean.warm_allocs);
    std::fprintf(f,
                 "  \"soak\": {\"fired_seeds\": %lld, \"retries\": %lld, "
                 "\"recoveries\": %lld, "
                 "\"backoff_wall_ms\": %.3f, \"max_attempts_per_seed\": %lld, "
                 "\"failures\": %lld,\n",
                 static_cast<long long>(totals.fired_seeds),
                 static_cast<long long>(totals.retries),
                 static_cast<long long>(totals.recoveries),
                 totals.backoff_wall_ms,
                 static_cast<long long>(max_attempts_seen),
                 static_cast<long long>(totals.failures));
    std::fprintf(f, "    \"fired_by_kind\": {\"Throw\": %lld, \"Stall\": "
                 "%lld, \"AllocFail\": %lld},\n",
                 static_cast<long long>(totals.by_kind[0]),
                 static_cast<long long>(totals.by_kind[1]),
                 static_cast<long long>(totals.by_kind[2]));
    std::fprintf(f, "    \"fired_by_site\": {");
    for (int i = 0; i < rt::kFaultSiteCount; ++i) {
      std::fprintf(f, "\"%s\": %lld%s",
                   rt::fault_site_name(static_cast<rt::FaultSite>(i)),
                   static_cast<long long>(totals.by_site[i]),
                   i + 1 < rt::kFaultSiteCount ? ", " : "");
    }
    std::fprintf(f, "}},\n");
    std::fprintf(f,
                 "  \"post_soak\": {\"bitwise_identical\": %s, "
                 "\"warm_sweep_allocs\": %lld}\n}\n",
                 (after.ok && bitwise_same(after, clean)) ? "true" : "false",
                 after.warm_allocs);
    std::fclose(f);
    std::printf("wrote BENCH_recovery.json\n");
  }

  // --- hard gates ------------------------------------------------------------
  int rc = 0;
  if (totals.failures > 0) {
    std::fprintf(stderr, "FAIL: %lld/%d seeds diverged from the clean run or "
                 "exceeded the retry bound\n",
                 static_cast<long long>(totals.failures), kSeeds);
    rc = 1;
  }
  // The soak must actually exercise the recovery path, not vacuously pass.
  if (totals.fired_seeds < kSeeds / 2) {
    std::fprintf(stderr, "FAIL: only %lld/%d seeds fired — visit ranges miss "
                 "the real visit sequences, the soak is vacuous\n",
                 static_cast<long long>(totals.fired_seeds), kSeeds);
    rc = 1;
  }
  for (int i = 0; i < 3; ++i) {
    if (totals.by_kind[i] == 0) {
      std::fprintf(stderr, "FAIL: no seed fired a %s fault\n",
                   rt::fault_kind_name(kKinds[i]));
      rc = 1;
    }
  }
  if (clean.warm_allocs != 0) {
    std::fprintf(stderr, "FAIL: clean warm sweeps performed %lld heap "
                 "allocations (want 0)\n",
                 clean.warm_allocs);
    rc = 1;
  }
  if (!after.ok || !bitwise_same(after, clean) || after.warm_allocs != 0) {
    std::fprintf(stderr, "FAIL: post-soak clean run diverged (ok=%d, "
                 "identical=%d, warm allocs %lld) — the soak corrupted the "
                 "machine\n",
                 after.ok ? 1 : 0, bitwise_same(after, clean) ? 1 : 0,
                 after.warm_allocs);
    rc = 1;
  }
  if (rc == 0) {
    std::printf("\nPASS: every fault recovered within one retry; final "
                "arrays and per-phase modeled clocks bit-identical to the "
                "clean run; warm sweeps allocation-free\n");
  }
  return rc;
}

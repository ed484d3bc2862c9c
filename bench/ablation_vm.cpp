// Ablation F: the PlanIR bytecode VM on the paper's 10K mesh. The lang/
// front end lowers every program to PlanIR once at Instance construction and
// executes it through a flat dispatch loop with a program-level plan cache.
// Gates, per configuration:
//   1. the fetched Y matches the serial reference evaluator (reference.hpp):
//      |vm - ref| <= 1e-12 * scale per element, the bound of a reordered
//      f64 sum;
//   2. a warm re-execution is a pure plan-cache hit: K timesteps cost
//      exactly 1 inspector miss and K-1 CHECK_INCARNATION hits;
//   3. a warm sweep performs ZERO heap allocations per rank (operator-new
//      hook, two-point delta over timestep counts);
//   4. without reuse, where every sweep re-partitions, remaps and
//      re-inspects, a sweep makes at most kNoReuseAllocCeiling allocations
//      per rank.
// Modeled virtual times are deterministic; host wall time per warm sweep is
// reported, not gated. Results go to BENCH_vm.json.
#include <chrono>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "bench/alloc_hook.hpp"
#include "bench/common.hpp"
#include "lang/interp.hpp"
#include "lang/parser.hpp"
#include "lang/reference.hpp"

namespace bench = chaos::bench;
namespace rt = chaos::rt;
namespace lang = chaos::lang;
using chaos::f64;
using chaos::i64;

namespace {

constexpr int kProcs = 8;
constexpr int kStepsCold = 4;    // lower point of the two-point delta
constexpr int kStepsWarm = 52;   // upper point; also the reported run
constexpr int kWallRepeats = 5;  // min-of-N for the wall-time figures
// A no-reuse sweep measures 75.50 allocations per rank, every exchange in
// it one flat CSR buffer; a per-destination list anywhere shows as
// P = 8 more per exchange, well past this ceiling.
constexpr f64 kNoReuseAllocCeiling = 80.0;

/// The Figure-4 timestep pipeline with a parameterized partitioner prologue
/// and NSTEP timesteps.
std::string pipeline_source(bool partitioned) {
  std::string s = R"(
      REAL*8 x(nnode), y(nnode)
      INTEGER end_pt1(nedge), end_pt2(nedge)
C$    DYNAMIC, DECOMPOSITION reg(nnode), reg2(nedge)
C$    DISTRIBUTE reg(BLOCK), reg2(BLOCK)
C$    ALIGN x, y WITH reg
C$    ALIGN end_pt1, end_pt2 WITH reg2
)";
  if (partitioned) {
    s += R"(      REAL*8 cx(nnode), cy(nnode), cz(nnode)
C$    ALIGN cx, cy, cz WITH reg
C$    CONSTRUCT G (nnode, GEOMETRY(3, cx, cy, cz), LINK(nedge, end_pt1, end_pt2))
C$    SET distfmt BY PARTITIONING G USING RCB
C$    REDISTRIBUTE reg(distfmt)
)";
  }
  s += R"(      DO step = 1, nstep
      FORALL i = 1, nedge
        REDUCE(ADD, y(end_pt1(i)), x(end_pt1(i)) * x(end_pt2(i)))
        REDUCE(ADD, y(end_pt2(i)), x(end_pt1(i)) - x(end_pt2(i)))
      END FORALL
      END DO
)";
  return s;
}

struct Config {
  std::string name;
  bool partitioned = true;
  bool reuse = true;
};

/// Host inputs, shared by every VM run (which sets its own NSTEP) and the
/// reference evaluation.
struct Inputs {
  std::map<std::string, i64> params;
  std::map<std::string, std::vector<f64>> reals;
  std::map<std::string, std::vector<i64>> ints;
};

Inputs make_inputs(const bench::Workload& w, const Config& cfg) {
  Inputs in;
  in.params = {{"NNODE", w.nnodes}, {"NEDGE", w.nedges}, {"NSTEP", kStepsWarm}};
  std::vector<f64> x0(static_cast<std::size_t>(w.nnodes));
  for (i64 i = 0; i < w.nnodes; ++i) {
    x0[static_cast<std::size_t>(i)] = 1.0 + static_cast<f64>(i % 17) * 0.25;
  }
  in.reals["X"] = std::move(x0);
  if (cfg.partitioned) {
    in.reals["CX"] = w.cx;
    in.reals["CY"] = w.cy;
    in.reals["CZ"] = w.cz;
  }
  auto to_1based = [](const std::vector<i64>& v) {
    std::vector<i64> r(v);
    for (auto& e : r) e += 1;
    return r;
  };
  in.ints["END_PT1"] = to_1based(w.e1);
  in.ints["END_PT2"] = to_1based(w.e2);
  return in;
}

struct Result {
  lang::PhaseTimes phases;
  std::vector<f64> y;  // fetched result at kStepsWarm
  i64 cache_hits = 0, cache_misses = 0;
  f64 per_sweep_wall_us = 0.0;
  f64 allocs_per_sweep_per_rank = 0.0;
  f64 wall_seconds = 0.0;  // whole kStepsWarm pipeline, min of N
  bool reference_match = false;
};

/// One full pipeline execution at @p nstep timesteps; returns the host wall
/// seconds of execute() itself (max over ranks, excluding worker-pool
/// dispatch) and fills the introspection fields when @p out is given.
f64 run_once(const lang::Program& prog, const Inputs& in, const Config& cfg,
             int nstep, Result* out) {
  rt::Machine& machine = bench::pooled_machine(kProcs);
  f64 exec_wall = 0.0;
  machine.run([&](rt::Process& p) {
    lang::Instance inst(prog);
    inst.set_schedule_reuse(cfg.reuse);
    for (const auto& [name, v] : in.params) inst.set_param(name, v);
    inst.set_param("NSTEP", nstep);
    for (const auto& [name, v] : in.reals) inst.bind_real(name, v);
    for (const auto& [name, v] : in.ints) inst.bind_int(name, v);
    rt::barrier(p);
    const auto w0 = std::chrono::steady_clock::now();
    inst.execute(p);
    const f64 mine =
        std::chrono::duration<f64>(std::chrono::steady_clock::now() - w0)
            .count();
    const f64 wall = rt::allreduce_max(p, mine);
    if (p.is_root()) exec_wall = wall;
    if (out != nullptr) {
      auto y = inst.fetch_real(p, "Y");
      if (p.is_root()) {
        out->phases = inst.phases();
        out->y = std::move(y);
        out->cache_hits = inst.cache_stats().hits;
        out->cache_misses = inst.cache_stats().misses;
      }
    }
  });
  return exec_wall;
}

Result run_config(const lang::Program& prog, const bench::Workload& w,
                  const Config& cfg) {
  Result r;
  const Inputs in = make_inputs(w, cfg);

  // Warmup: constructs the pooled machine and faults in allocator arenas so
  // neither shows up in the allocation delta below.
  run_once(prog, in, cfg, kStepsCold, nullptr);

  // Allocation delta: extra heap allocations of (kStepsWarm - kStepsCold)
  // warm sweeps; the cold build cancels out. One untimed run per point.
  const long long a0 = bench::heap_allocs();
  run_once(prog, in, cfg, kStepsCold, nullptr);
  const long long a1 = bench::heap_allocs();
  run_once(prog, in, cfg, kStepsWarm, nullptr);
  const long long a2 = bench::heap_allocs();
  r.allocs_per_sweep_per_rank =
      static_cast<f64>((a2 - a1) - (a1 - a0)) /
      (static_cast<f64>(kStepsWarm - kStepsCold) * static_cast<f64>(kProcs));

  // The reported run: phases, results, counters at kStepsWarm.
  run_once(prog, in, cfg, kStepsWarm, &r);

  // Wall time: both points inside each repetition, so slow host drift hits
  // them equally; the min over repetitions is the least disturbed run.
  f64 wall[2] = {0.0, 0.0};
  for (int rep = 0; rep < kWallRepeats; ++rep) {
    for (int point = 0; point < 2; ++point) {
      const f64 v = run_once(prog, in, cfg,
                             point == 0 ? kStepsCold : kStepsWarm, nullptr);
      if (rep == 0 || v < wall[point]) wall[point] = v;
    }
  }
  r.wall_seconds = wall[1];
  r.per_sweep_wall_us =
      (wall[1] - wall[0]) / static_cast<f64>(kStepsWarm - kStepsCold) * 1e6;

  const auto ref = lang::evaluate_reference(prog, in.params, in.reals, in.ints);
  r.reference_match = lang::first_reference_mismatch(r.y, ref.at("Y")) < 0;
  return r;
}

bool write_json(const std::vector<Config>& configs,
                const std::vector<Result>& results) {
  std::FILE* f = std::fopen("BENCH_vm.json", "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open BENCH_vm.json for writing\n");
    return false;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"lang_vm\",\n");
  std::fprintf(f, "  \"procs\": %d,\n", kProcs);
  std::fprintf(f, "  \"timesteps\": %d,\n", kStepsWarm);
  std::fprintf(f, "  \"configs\": [\n");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    std::fprintf(
        f,
        "    {\"config\": \"%s\", \"modeled_total_seconds\": %.6f, "
        "\"reference_match\": %s, \"per_sweep_wall_us\": %.2f, "
        "\"allocs_per_sweep_per_rank\": %.2f, \"wall_seconds\": %.6f, "
        "\"cache_hits\": %lld, \"cache_misses\": %lld}%s\n",
        configs[i].name.c_str(), r.phases.total(),
        r.reference_match ? "true" : "false", r.per_sweep_wall_us,
        r.allocs_per_sweep_per_rank, r.wall_seconds,
        static_cast<long long>(r.cache_hits),
        static_cast<long long>(r.cache_misses),
        i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  return true;
}

}  // namespace

int main() {
  std::printf("Ablation F: PlanIR bytecode VM against the serial reference "
              "(10K mesh, P=%d, %d timesteps)\n\n",
              kProcs, kStepsWarm);

  const auto w = bench::workload_mesh_10k();
  const std::vector<Config> configs = {
      {"rcb_reuse", /*partitioned=*/true, /*reuse=*/true},
      {"block_reuse", /*partitioned=*/false, /*reuse=*/true},
      {"block_noreuse", /*partitioned=*/false, /*reuse=*/false},
  };

  std::vector<Result> results;
  for (const auto& cfg : configs) {
    const auto prog = lang::compile(pipeline_source(cfg.partitioned));
    const Result& r = results.emplace_back(run_config(prog, w, cfg));
    std::printf("%-13s modeled %9.4f s  %s  %8.1f us/sweep  %6.2f allocs  "
                "%lld hits / %lld misses\n",
                cfg.name.c_str(), r.phases.total(),
                r.reference_match ? "reference=ok" : "reference=DIFF",
                r.per_sweep_wall_us, r.allocs_per_sweep_per_rank,
                static_cast<long long>(r.cache_hits),
                static_cast<long long>(r.cache_misses));
    std::fflush(stdout);
  }

  if (write_json(configs, results)) std::printf("\nwrote BENCH_vm.json\n");

  // Hard gates (checked here so CI smoke fails loudly).
  int rc = 0;
  for (std::size_t i = 0; i < results.size(); ++i) {
    const Config& cfg = configs[i];
    const Result& r = results[i];
    if (!r.reference_match) {
      std::fprintf(stderr, "FAIL: %s fetched Y differs from the serial "
                   "reference beyond 1e-12 of the sum scale\n",
                   cfg.name.c_str());
      rc = 1;
    }
    if (cfg.reuse &&
        (r.cache_misses != 1 || r.cache_hits != kStepsWarm - 1)) {
      std::fprintf(stderr,
                   "FAIL: %s VM warm path is not pure plan-cache hits "
                   "(%lld misses / %lld hits, want 1 / %d)\n",
                   cfg.name.c_str(), static_cast<long long>(r.cache_misses),
                   static_cast<long long>(r.cache_hits), kStepsWarm - 1);
      rc = 1;
    }
    if (cfg.reuse && r.allocs_per_sweep_per_rank != 0.0) {
      std::fprintf(stderr,
                   "FAIL: %s VM performed %.2f heap allocations per warm "
                   "sweep per rank (want 0)\n",
                   cfg.name.c_str(), r.allocs_per_sweep_per_rank);
      rc = 1;
    }
    if (!cfg.reuse && r.allocs_per_sweep_per_rank > kNoReuseAllocCeiling) {
      std::fprintf(stderr,
                   "FAIL: %s VM performed %.2f heap allocations per sweep "
                   "per rank (ceiling %.0f)\n",
                   cfg.name.c_str(), r.allocs_per_sweep_per_rank,
                   kNoReuseAllocCeiling);
      rc = 1;
    }
  }
  if (rc == 0) {
    std::printf("\nPASS: every configuration matches the serial reference; "
                "warm VM sweeps are pure plan-cache hits and "
                "allocation-free; no-reuse sweeps make at most %.0f "
                "allocations per rank\n",
                kNoReuseAllocCeiling);
  }
  return rc;
}

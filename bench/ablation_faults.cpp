// Ablation F: fault-injection overhead and detection latency (DESIGN.md §10).
//
// The robustness PR's contract has two measurable halves:
//   1. Zero overhead when dormant — an injection site is one relaxed pointer
//      load, and fault machinery never charges the virtual clock. So the
//      MODELED results of every existing bench must be byte-identical across
//      {no plan installed, armed-but-idle plan, firing delay plan}. Gated
//      bitwise here on a collective loop and on the full tiny-mesh hand
//      pipeline (the same code paths BENCH_inspector/BENCH_executor time).
//   2. Bounded detection — with a deadline armed, a rank stalled at its
//      barrier arrival is detected and surfaced as MachineTimeout within the
//      deadline plus scheduling slack.
// Results go to BENCH_faults.json; both gates are enforced in-binary so CI
// fails loudly.
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "rt/fault.hpp"

namespace rt = chaos::rt;
namespace bench = chaos::bench;
using chaos::f64;
using chaos::i64;
using chaos::u64;

namespace {

constexpr int kProcs = 8;

// --- half 1: modeled-time identity ------------------------------------------

struct IdentityResult {
  std::string config;       // "no_plan" / "armed_idle" / "delay_firing"
  f64 collective_us = 0.0;  // max virtual time of the collective loop
  f64 pipeline_total = 0.0; // modeled total of the tiny-mesh hand pipeline
  i64 faults_injected = 0;  // pipeline counter (delay config must be > 0)
};

/// The rt-level workload: a loop over every barrier-based primitive the
/// pipelines lean on. Deterministic modeled time; any clock charge sneaking
/// into the fault path shows up as a bitwise mismatch.
f64 collective_loop(rt::Machine& machine) {
  machine.run([](rt::Process& p) {
    const int P = p.nprocs();
    std::vector<i64> counts(static_cast<std::size_t>(P), 2);
    std::vector<i64> peers(static_cast<std::size_t>(P), 0);
    std::vector<i64> off(static_cast<std::size_t>(P) + 1);
    for (std::size_t i = 0; i < off.size(); ++i) {
      off[i] = static_cast<i64>(i) * 3;
    }
    std::vector<f64> payload(static_cast<std::size_t>(P) * 3, 1.0);
    std::vector<f64> ghost(static_cast<std::size_t>(P) * 3, 0.0);
    for (int iter = 0; iter < 50; ++iter) {
      rt::barrier(p);
      (void)rt::allreduce_sum(p, i64{p.rank()});
      rt::alltoall<i64>(p, counts, peers);
      rt::alltoallv_flat<f64>(p, payload, off, ghost, off);
    }
  });
  return machine.max_virtual_time_us();
}

IdentityResult run_identity(const std::string& config) {
  IdentityResult r;
  r.config = config;
  rt::FaultPlan plan(kProcs);
  if (config == "delay_firing") {
    // Fires for real (wall-clock sleeps on every rank's first barrier and a
    // seeded-duration delay at the alltoall), but never touches the clocks.
    plan.add({rt::FaultSite::BarrierArrive, rt::FaultKind::Delay, /*rank=*/-1,
              /*nth_visit=*/1, /*delay_ms=*/1.0});
    plan.add({rt::FaultSite::Alltoall, rt::FaultKind::Delay, /*rank=*/2,
              /*nth_visit=*/3, /*delay_ms=*/0.0});
  }
  const bool install = config != "no_plan";

  rt::Machine collective_machine(kProcs);
  if (install) collective_machine.install_fault_plan(&plan);
  r.collective_us = collective_loop(collective_machine);

  // The full hand pipeline runs on the pooled machine; arm it the same way
  // (and disarm after — other benches share the pool).
  rt::Machine& pooled = bench::pooled_machine(kProcs);
  plan.reset();
  if (install) pooled.install_fault_plan(&plan);
  const auto w = bench::workload_mesh_tiny();
  bench::PipelineConfig cfg;
  cfg.partitioner = "RCB";
  cfg.iterations = 10;
  const bench::PhaseResult pipe = bench::run_hand_pipeline(kProcs, w, cfg);
  pooled.install_fault_plan(nullptr);
  r.pipeline_total = pipe.total();
  r.faults_injected = pipe.faults_injected;
  return r;
}

// --- half 2: detection latency ----------------------------------------------

struct DetectionResult {
  std::string scenario;  // "barrier_stall"
  f64 deadline_sec = 0.0;
  f64 detect_sec = 0.0;  // run start -> MachineTimeout surfaced
  bool typed_timeout = false;
  int missing_rank = -1;
};

DetectionResult run_detection(f64 deadline_sec) {
  DetectionResult r;
  r.scenario = "barrier_stall";
  r.deadline_sec = deadline_sec;
  rt::Machine machine(kProcs);
  machine.set_deadline_sec(deadline_sec);
  rt::FaultPlan plan(kProcs);
  // The victim parks at its first barrier arrival; the peers' watchdog scans
  // the barrier epochs and names it.
  plan.add({rt::FaultSite::BarrierArrive, rt::FaultKind::Stall, /*rank=*/3});
  machine.install_fault_plan(&plan);

  const auto t0 = std::chrono::steady_clock::now();
  try {
    machine.run([](rt::Process& p) { rt::barrier(p); });
  } catch (const chaos::MachineTimeout& t) {
    r.typed_timeout = true;
    if (!t.missing_ranks.empty()) r.missing_rank = t.missing_ranks.front();
  } catch (...) {
  }
  r.detect_sec =
      std::chrono::duration<f64>(std::chrono::steady_clock::now() - t0)
          .count();
  return r;
}

bool write_json(const std::vector<IdentityResult>& ident,
                const std::vector<DetectionResult>& detect) {
  std::FILE* f = std::fopen("BENCH_faults.json", "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open BENCH_faults.json for writing\n");
    return false;
  }
  std::fprintf(f, "{\n  \"bench\": \"fault_injection\",\n");
  std::fprintf(f, "  \"procs\": %d,\n  \"identity\": [\n", kProcs);
  for (std::size_t i = 0; i < ident.size(); ++i) {
    const auto& r = ident[i];
    std::fprintf(f,
                 "    {\"config\": \"%s\", \"collective_virtual_us\": %.17g, "
                 "\"pipeline_modeled_total\": %.17g, "
                 "\"faults_injected\": %lld}%s\n",
                 r.config.c_str(), r.collective_us, r.pipeline_total,
                 static_cast<long long>(r.faults_injected),
                 i + 1 < ident.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"detection\": [\n");
  for (std::size_t i = 0; i < detect.size(); ++i) {
    const auto& r = detect[i];
    std::fprintf(f,
                 "    {\"scenario\": \"%s\", \"deadline_sec\": %.3f, "
                 "\"detect_sec\": %.3f, \"typed_timeout\": %s, "
                 "\"missing_rank\": %d}%s\n",
                 r.scenario.c_str(), r.deadline_sec, r.detect_sec,
                 r.typed_timeout ? "true" : "false", r.missing_rank,
                 i + 1 < detect.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  return true;
}

}  // namespace

int main() {
  std::printf("Ablation F: fault injection — dormant overhead and detection "
              "latency\n\n");

  std::vector<IdentityResult> ident;
  for (const char* config : {"no_plan", "armed_idle", "delay_firing"}) {
    ident.push_back(run_identity(config));
    const auto& r = ident.back();
    std::printf("%-14s collective %.6f us   pipeline %.6f s   "
                "faults_injected %lld\n",
                r.config.c_str(), r.collective_us, r.pipeline_total,
                static_cast<long long>(r.faults_injected));
  }

  constexpr f64 kDeadlineSec = 0.4;
  const std::vector<DetectionResult> detect = {run_detection(kDeadlineSec)};
  for (const auto& r : detect) {
    std::printf("%-14s deadline %.2fs -> detected in %.3fs (typed=%s, "
                "missing rank %d)\n",
                r.scenario.c_str(), r.deadline_sec, r.detect_sec,
                r.typed_timeout ? "yes" : "no", r.missing_rank);
  }

  if (write_json(ident, detect)) {
    std::printf("\nwrote BENCH_faults.json\n");
  }

  // Hard gates (checked here so CI smoke fails loudly).
  int rc = 0;
  // Gate 1: bitwise modeled-time identity across configurations, and the
  // delay config must actually have fired (otherwise the gate is vacuous).
  for (const auto& r : ident) {
    if (r.collective_us != ident[0].collective_us ||
        r.pipeline_total != ident[0].pipeline_total) {
      std::fprintf(stderr,
                   "FAIL: config %s changed modeled results (collective %.17g "
                   "vs %.17g, pipeline %.17g vs %.17g) — fault machinery "
                   "leaked into the virtual clock\n",
                   r.config.c_str(), r.collective_us, ident[0].collective_us,
                   r.pipeline_total, ident[0].pipeline_total);
      rc = 1;
    }
    const bool should_fire = r.config == "delay_firing";
    if (should_fire != (r.faults_injected > 0)) {
      std::fprintf(stderr, "FAIL: config %s injected %lld faults (want %s)\n",
                   r.config.c_str(),
                   static_cast<long long>(r.faults_injected),
                   should_fire ? "> 0" : "0");
      rc = 1;
    }
  }
  // Gate 2: bounded detection — within the deadline plus 1s of host
  // scheduling slack, with the typed error naming the stalled rank.
  for (const auto& r : detect) {
    if (!r.typed_timeout || r.missing_rank != 3 ||
        r.detect_sec > r.deadline_sec + 1.0) {
      std::fprintf(stderr,
                   "FAIL: %s detected in %.3fs (deadline %.2fs, typed=%s, "
                   "missing rank %d; want MachineTimeout naming rank 3 "
                   "within deadline + 1s)\n",
                   r.scenario.c_str(), r.detect_sec, r.deadline_sec,
                   r.typed_timeout ? "yes" : "no", r.missing_rank);
      rc = 1;
    }
  }
  if (rc == 0) {
    std::printf("\nPASS: dormant fault machinery is modeled-time invisible; "
                "stalls detected within the deadline\n");
  }
  return rc;
}

// Shared bench harness: workload construction, the hand-coded pipeline (the
// paper's "hand embedded" runtime calls), the compiler pipeline (through the
// chaos_lang front end), and paper-style table printing. All times reported
// are modeled virtual seconds on the simulated iPSC/860 (max over
// processes); see DESIGN.md §2 for the substitution argument.
#pragma once

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "core/forall.hpp"
#include "core/mapper.hpp"
#include "core/reuse.hpp"
#include "core/supervisor.hpp"
#include "lang/interp.hpp"
#include "lang/parser.hpp"
#include "rt/collectives.hpp"
#include "rt/retry.hpp"
#include "workload/md.hpp"
#include "workload/mesh.hpp"

namespace chaos::bench {

struct Workload {
  std::string name;
  i64 nnodes = 0;
  i64 nedges = 0;
  std::vector<i64> e1, e2;      // 0-based endpoint ids
  std::vector<f64> cx, cy, cz;  // node coordinates
  f64 flops_per_edge = 30.0;
};

[[nodiscard]] Workload workload_mesh_10k();
[[nodiscard]] Workload workload_mesh_53k();
[[nodiscard]] Workload workload_md_648();
[[nodiscard]] Workload workload_mesh_tiny();

struct PipelineConfig {
  /// Partitioner registry name, or "HPF-BLOCK" for the paper's naive
  /// baseline (keep the initial BLOCK distribution; no GeoCoL, no remap of
  /// the data arrays).
  std::string partitioner = "RCB";
  int iterations = 100;
  bool schedule_reuse = true;
  core::IterRule iter_rule = core::IterRule::MostLocalReferences;
  i64 ttable_page_size = 4096;
  bool ttable_replicated = false;
  /// Makes the pipeline construct and attach its own persistent
  /// dist::TranslationCache, one per rank (a pointer in this shared config
  /// could not serve P rank threads). Pays one allreduce vote per localize
  /// and absorbs warm locate rounds, so it (correctly) LOWERS modeled times
  /// on no-reuse configurations — keep rows using it separate from
  /// paper-comparison rows.
  bool translation_cache = false;
  /// Supervision policy for the pipeline run (DESIGN.md §11): the whole
  /// body is one supervised phase, recovered + retried on transient
  /// failures. The default (max_attempts = 1) never retries, so every
  /// existing configuration behaves — and models — exactly as before.
  rt::RetryPolicy retry{.max_attempts = 1};
};

struct PhaseResult {
  f64 graph_gen = 0.0;
  f64 partitioner = 0.0;
  f64 inspector = 0.0;
  f64 remap = 0.0;
  f64 executor = 0.0;
  f64 wall_seconds = 0.0;   ///< host wall clock of the whole pipeline
  i64 gather_messages = 0;  ///< machine-total messages per executor sweep
  i64 gather_volume = 0;    ///< machine-total off-process words per sweep
  /// Modeled all-to-all traffic of the whole run (machine-total exchanges
  /// and off-process payload bytes, from rt::MessageStats).
  i64 alltoallv_calls = 0;
  i64 alltoallv_bytes = 0;
  /// Robustness counters (machine-total, DESIGN.md §10). All three are 0 on
  /// a healthy bench run; nonzero means a fault plan fired, a watchdog
  /// tripped, or a waiter was released by poison mid-pipeline. The machine
  /// counters reflect the FINAL attempt only (run() resets them), so a
  /// recovered run reads clean here and reports its history through the
  /// supervisor counters below.
  i64 faults_injected = 0;
  i64 timeouts = 0;
  i64 poisoned_waits = 0;
  /// Supervision counters (DESIGN.md §11), from the pipeline's Supervisor:
  /// attempts beyond the first, wall-clock backoff between them, and
  /// whether the run ultimately recovered. All zero on a clean run.
  i64 retries = 0;
  i64 recoveries = 0;
  f64 backoff_wall_ms = 0.0;
  /// Degradation counters (DESIGN.md §13): partner-checkpoint captures and
  /// their payload, segments/bytes re-adopted by shrink-remap restores, and
  /// machine width narrowings. All zero on a clean run.
  i64 checkpoint_captures = 0;
  i64 checkpoint_bytes = 0;
  i64 restored_segments = 0;
  i64 restored_bytes = 0;
  i64 shrinks = 0;
  /// Incremental schedule-repair counters (DESIGN.md §14), machine-total.
  /// Both zero on any non-adaptive run — the pipelines assert it on clean
  /// runs, since their indirection arrays never change after inspection.
  i64 schedule_repairs = 0;
  i64 repair_fallbacks = 0;

  [[nodiscard]] f64 total() const {
    return graph_gen + partitioner + inspector + remap + executor;
  }
};

/// The hand-coded path: direct CHAOS runtime calls, phases timed separately
/// (partition_iterations + indirection remap count as "remap"; localize as
/// "inspector" — matching the paper's row labels).
[[nodiscard]] PhaseResult run_hand_pipeline(int procs, const Workload& w,
                                            const PipelineConfig& cfg);

/// The compiler path: the same pipeline expressed as a mini-Fortran-90D
/// program executed by chaos_lang (Figure 4 + DO timestep loop).
[[nodiscard]] PhaseResult run_compiler_pipeline(int procs, const Workload& w,
                                                const PipelineConfig& cfg);

/// Process-lifetime pooled machine, one per process count: benches sweeping
/// many data points at the same P dispatch into the machine's parked worker
/// pool instead of constructing (and thus spawning threads for) a Machine
/// per point. run() resets stats, clocks and barrier state, so results are
/// identical to a fresh machine.
[[nodiscard]] rt::Machine& pooled_machine(int procs);

// --- table printing ---------------------------------------------------------

/// Prints one table row: label then (measured, paper) column pairs.
void print_header(const std::string& title,
                  const std::vector<std::string>& columns);
void print_row(const std::string& label, const std::vector<f64>& measured,
               const std::vector<f64>& paper);
/// Table-wide robustness tally: fault/watchdog counters (§10) plus the
/// supervisor's retry counters (§11), aggregated over every run a table
/// made. All-zero is the healthy-bench signature.
struct RobustnessTally {
  i64 faults_injected = 0;
  i64 timeouts = 0;
  i64 poisoned_waits = 0;
  i64 retries = 0;
  i64 recoveries = 0;
  f64 backoff_wall_ms = 0.0;
  i64 checkpoint_captures = 0;
  i64 restored_segments = 0;
  i64 shrinks = 0;
  /// Schedule-repair activity (§14). Informational, not a health signal:
  /// adaptive benches repair on purpose, so clean() ignores these.
  i64 schedule_repairs = 0;
  i64 repair_fallbacks = 0;

  void add(const PhaseResult& r) {
    faults_injected += r.faults_injected;
    timeouts += r.timeouts;
    poisoned_waits += r.poisoned_waits;
    retries += r.retries;
    recoveries += r.recoveries;
    backoff_wall_ms += r.backoff_wall_ms;
    checkpoint_captures += r.checkpoint_captures;
    restored_segments += r.restored_segments;
    shrinks += r.shrinks;
    schedule_repairs += r.schedule_repairs;
    repair_fallbacks += r.repair_fallbacks;
  }
  [[nodiscard]] bool clean() const {
    return faults_injected == 0 && timeouts == 0 && poisoned_waits == 0 &&
           retries == 0 && recoveries == 0 && checkpoint_captures == 0 &&
           restored_segments == 0 && shrinks == 0;
  }
};

/// Prints the modeled-time note plus a robustness line (all-zero tally
/// prints as "clean run").
void print_footer(const RobustnessTally& tally = {});

}  // namespace chaos::bench

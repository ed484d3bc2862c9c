// Per-layer metrics from traced jobs. Spans are matched across ranks by
// (name, occurrence): SPMD ranks make the same calls in the same order, so
// the k-th inspector span of rank 0 and of rank 3 are the same call. Per call
// the wall time is the slowest rank's, and skew is the spread of the ranks'
// start times, which is how long the first arriver waits for the last.
#pragma once

#include <array>
#include <string>
#include <vector>

#include "trace.hpp"
#include "workloads.hpp"

namespace bench {

struct Metric {
  std::string name;
  f64 value = 0;
  std::string unit;
};

/// Values measured outside the traced jobs that the per-layer list reports.
struct LayerExtras {
  f64 dispatch_us = 0, barrier_us = 0, allreduce_us = 0;  // rt probe
  f64 stall_kicks = 0;        // see watchdog.hpp
  f64 overhead_us = 0;        // VM step minus hand step (md648_fig4_vm)
  f64 serial_sweep_us = 0;    // reference sweep
  f64 untraced_step_us = 0;   // step_us.p50 of the untraced jobs
  f64 untraced_job_s = 0;     // job_s.p50 of the untraced jobs
};

class LayerTrace {
 public:
  explicit LayerTrace(const WorkloadDef& w) : w_(w) {}

  /// Folds one traced job in. Returns false if the ranks' span sequences
  /// do not line up (a harness bug, reported as a failed check).
  bool add_job(const Tracer& t, const JobResult& r);

  [[nodiscard]] std::vector<Metric> metrics(const LayerExtras& x) const;

 private:
  struct Occurrence {
    f64 dur = 0;  // slowest rank, wall µs
    f64 begin_min = 0, begin_max = 0;
    f64 modeled = 0;  // slowest rank, modeled µs
    f64 self = 0;     // slowest rank, wall µs not covered by child spans
    bool has_child = false;
    int ranks = 0;
    Counters c;       // summed over ranks
  };
  struct NameAcc {
    std::vector<f64> dur, skew, modeled, a2a_bytes, messages;  // per call
    std::vector<f64> job_dur, job_modeled;                     // per job
  };
  /// Machine-total traffic of one timestep, averaged over a job's steps.
  struct PerStep {
    f64 barriers = 0, collectives = 0, alltoallv = 0, alltoallv_bytes = 0;
    f64 locate_calls = 0, wire_queries = 0;
  };
  static constexpr auto kNames = static_cast<std::size_t>(SpanName::kCount);

  const WorkloadDef& w_;
  std::array<std::vector<Occurrence>, kNames> occ_;  // scratch of one job
  std::array<NameAcc, kNames> acc_;
  std::vector<f64> guard_hit_us_;   // guard calls that hit (no inspector)
  std::vector<f64> harness_self_us_;
  std::vector<f64> job_s_;
  std::vector<f64> vm_execute_us_;  // the full program run, not set-up
  std::vector<PerStep> per_step_;
  std::vector<f64> tcache_ratio_;
  std::vector<chaos::core::InspectorCache::Stats> ledgers_, plans_;
  std::vector<chaos::lang::PhaseTimes> phases_;
};

}  // namespace bench

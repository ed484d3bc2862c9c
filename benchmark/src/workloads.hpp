// The five benchmark workloads: seeded inputs, one job of each (a whole
// user pipeline run on the pooled P=4 machine), and the serial reference the
// job's output is checked against.
#pragma once

#include <chrono>
#include <string>
#include <vector>

#include "core/reuse.hpp"
#include "core/supervisor.hpp"
#include "lang/interp.hpp"
#include "rt/machine.hpp"
#include "trace.hpp"

namespace bench {

using chaos::u64;

enum class Kind {
  Reuse,    // hand pipeline, InspectorCache reuse: one inspection per job
  NoReuse,  // hand pipeline re-inspecting every step (Table 1, no reuse)
  Adapt,    // hand pipeline with in-place rewires, repair + translation cache
  Vm,       // Figure-4 program through lang::compile and the bytecode VM
};

enum class Input { Mesh53k, Mesh10k, Md648 };

struct WorkloadDef {
  const char* name;
  Kind kind;
  Input input;
  const char* partitioner;
  int nsteps;
  /// Problem instances a run rotates through. A water box's RSB partition
  /// moves the wall step time by ±15% from one seed to the next (with
  /// modeled time within 2%), so the MD workloads average eight boxes per
  /// run; a mesh seed only jitters and renumbers one grid, so one suffices.
  int instances;
};

/// Why each workload is here: README.md, "Workloads".
inline constexpr WorkloadDef kWorkloads[] = {
    {"mesh53k_reuse", Kind::Reuse, Input::Mesh53k, "RCB", 100, 1},
    {"mesh10k_noreuse", Kind::NoReuse, Input::Mesh10k, "RCB", 20, 1},
    {"mesh10k_adapt", Kind::Adapt, Input::Mesh10k, "RCB", 100, 1},
    {"md648_fig4_vm", Kind::Vm, Input::Md648, "RSB", 100, 8},
    {"md648_rsb_hand", Kind::Reuse, Input::Md648, "RSB", 100, 8},
};

[[nodiscard]] const WorkloadDef* find_workload(const std::string& name);

/// Every adaptation rewires 2% of endpoints, the 5th rewires 60%.
inline constexpr int kAdaptEvery = 10;
inline constexpr int kBigAdaptation = 5;

/// Global inputs of one problem instance, generated from its seed;
/// identical for every job of that instance.
struct Inputs {
  chaos::i64 nnodes = 0;
  chaos::i64 nedges = 0;
  std::vector<chaos::i64> e1, e2;   // 0-based endpoints
  std::vector<f64> cx, cy, cz;      // coordinates (RCB only)
  std::vector<f64> x;               // x(g) = 1 + 1/(1+g)
  f64 flops_per_edge = 30.0;
  u64 seed = 0;
};
[[nodiscard]] Inputs make_inputs(const WorkloadDef& w, u64 seed);

/// Serial reference: direct global-index sweeps replaying the same rewires.
/// scale[g] is the sum of |terms| accumulated into y[g], the yardstick of
/// the f64 check (see check_against_reference).
struct Reference {
  std::vector<f64> y, scale;
};
[[nodiscard]] Reference serial_reference(const WorkloadDef& w,
                                         const Inputs& in);

/// Median wall µs of one bare serial sweep over the initial edge list: the
/// single-core baseline the P=4 step is compared with.
[[nodiscard]] f64 serial_sweep_us(const Inputs& in);

/// Relative tolerance of the f64 check: |y - y_ref| <= kRelTol * scale. The
/// worst-case recursive-summation error is n * eps * scale for n terms per
/// element; kRelTol covers n up to ~9e5, far above any element's count here.
inline constexpr f64 kRelTol = 1e-10;

/// What one job produced, as the host sees it after the run.
struct JobResult {
  f64 setup_s = 0;            // inputs -> first sweep ready
  f64 job_s = 0;              // inputs -> last sweep done
  std::vector<f64> step_us;   // wall per timestep after the first
  f64 modeled_s = 0;          // max over ranks of the virtual clock
  std::vector<f64> y;         // global result
  chaos::core::InspectorCache::Stats ledger;  // rank 0, hand workloads
  chaos::core::InspectorCache::Stats plan;    // rank 0, VM full run
  chaos::lang::PhaseTimes phases;             // max over ranks, VM full run
  chaos::rt::MessageStats totals;             // machine totals, last run
  std::string error;          // first failed check, empty if none
};

/// Runs jobs of one workload on one machine. Per-rank output buffers are
/// allocated once here and reused by every job.
class Runner {
 public:
  Runner(const WorkloadDef& w, const Inputs& in, chaos::rt::Machine& m);
  ~Runner();
  Runner(const Runner&) = delete;
  Runner& operator=(const Runner&) = delete;

  /// One whole job. With a tracer, spans are recorded around every layer
  /// call; the harness code is otherwise identical.
  JobResult run_job(Tracer* tracer);

 private:
  struct RankOut;
  void hand_body(chaos::rt::Process& p, RankOut& out, Tracer* tr);
  void vm_body(chaos::rt::Process& p, const chaos::lang::Program& prog,
               int nsteps, RankOut& out, Tracer* tr);
  JobResult run_hand(Tracer* tr);
  JobResult run_vm(Tracer* tr);
  void check_machine(JobResult& r);

  const WorkloadDef& w_;
  const Inputs& in_;
  chaos::rt::Machine& machine_;
  chaos::core::Supervisor supervisor_;
  std::vector<RankOut> out_;
  std::chrono::steady_clock::time_point t0_;  // start of the current run
  std::string source_;  // the Figure-4 program text (VM)
  std::vector<chaos::i64> e1_1based_, e2_1based_;
};

/// Checks @p r.y against the reference; returns an error message or "".
[[nodiscard]] std::string check_against_reference(const JobResult& r,
                                                  const Reference& ref);

}  // namespace bench

// SPMD interpreter for compiled mini-Fortran-90D programs: the stand-in for
// the paper's Fortran 90D compiler back end. Each directive lowers onto the
// same CHAOS runtime calls the compiler transformation of Figure 6 emits
// (K1..K4), and every FORALL is executed through the inspector/executor
// pipeline with the Section 3 schedule-reuse guard inserted automatically.
//
// Execution is a dispatch loop over PlanIR bytecode (bytecode.hpp): the AST
// is lowered once at Instance construction, and warm FORALL re-executions
// ride a program-level plan cache keyed by (statement id, DAD incarnation
// set) — zero AST visits, zero inspector invocations. Its oracle is the
// serial reference evaluator (reference.hpp), which shares no code with it.
//
// Usage (identical on every process):
//   auto prog = lang::compile(source);
//   lang::Instance inst(prog);
//   inst.set_param("NNODE", n); inst.bind_real("X", x0); ...
//   inst.execute(p);                       // collective
//   auto y = inst.fetch_real(p, "Y");      // collective
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/forall.hpp"
#include "core/geocol.hpp"
#include "core/mapper.hpp"
#include "core/reuse.hpp"
#include "lang/ast.hpp"

namespace chaos::lang {

struct ProgramPlan;  // lowered bytecode (bytecode.hpp)

/// Virtual-time spent per pipeline phase (seconds), matching the row labels
/// of the paper's Tables 2-4.
struct PhaseTimes {
  f64 graph_gen = 0.0;   ///< CONSTRUCT (GeoCoL assembly)
  f64 partition = 0.0;   ///< SET ... BY PARTITIONING
  f64 remap = 0.0;       ///< REDISTRIBUTE + iteration remaps
  f64 inspector = 0.0;   ///< FORALL preprocessing (localize, schedules)
  f64 executor = 0.0;    ///< FORALL sweeps + gathers/scatters

  [[nodiscard]] f64 total() const {
    return graph_gen + partition + remap + inspector + executor;
  }
};

class Instance {
 public:
  struct State;  // SPMD runtime state (internal; defined in interp.cpp)

  /// @p program must outlive the Instance (it is shared by every process's
  /// Instance, mirroring compiled code shared by all SPMD ranks).
  explicit Instance(const Program& program);
  ~Instance();

  Instance(const Instance&) = delete;
  Instance& operator=(const Instance&) = delete;

  // --- host bindings (set before execute; identical on every process) ------

  void set_param(const std::string& name, i64 value);
  /// Initial global contents of a REAL*8 array (picked up when the array is
  /// materialized by ALIGN).
  void bind_real(const std::string& array, std::vector<f64> global_values);
  /// Initial global contents of an INTEGER array. Values that are used as
  /// subscripts are 1-based, as in Fortran.
  void bind_int(const std::string& array, std::vector<i64> global_values);

  /// Disables schedule reuse (every FORALL re-runs its inspector) — the
  /// "without schedule reuse" configuration of Table 1.
  void set_schedule_reuse(bool enabled) { reuse_enabled_ = enabled; }

  /// Installs the plan-construction options every FORALL inspector
  /// workspace is configured with: the repair policy and threshold. Throws
  /// ChaosError if @p opts carries a translation cache — a cache binds to one
  /// distribution, and the FORALLs of one program localize against several.
  /// SPMD discipline: identical on every rank.
  void set_options(const core::PlanOptions& opts);
  [[nodiscard]] const core::PlanOptions& options() const { return plan_opts_; }

  // --- execution ------------------------------------------------------------

  /// Collective: runs the whole program.
  void execute(rt::Process& p);

  /// Collective: fetches a distributed REAL*8 array's full global contents.
  [[nodiscard]] std::vector<f64> fetch_real(rt::Process& p,
                                            const std::string& array);

  // --- introspection ---------------------------------------------------------

  [[nodiscard]] const PhaseTimes& phases() const { return phases_; }
  /// Hit/miss counts of the FORALL reuse guard (the plan cache). Safe before
  /// the first execute — returns zeroed stats.
  [[nodiscard]] const core::InspectorCache::Stats& cache_stats() const;
  /// Hit/miss counts of the mapper-coupler cache (CONSTRUCT / SET reuse).
  /// Safe before the first execute — returns zeroed stats.
  [[nodiscard]] const core::InspectorCache::Stats& mapper_cache_stats() const;
  /// Safe before the first execute — returns an empty registry.
  [[nodiscard]] const core::ReuseRegistry& reuse_registry() const;

 private:
  void run_directive(rt::Process& p, const Statement& s);
  void run_vm(rt::Process& p);

  const Program* program_;
  bool reuse_enabled_ = true;
  core::PlanOptions plan_opts_;
  PhaseTimes phases_;
  std::unique_ptr<const ProgramPlan> plan_;
  std::map<std::string, i64> host_params_;
  std::map<std::string, std::vector<f64>> real_bindings_;
  std::map<std::string, std::vector<i64>> int_bindings_;
  std::unique_ptr<State> state_;
};

}  // namespace chaos::lang

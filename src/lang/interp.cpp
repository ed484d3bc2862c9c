#include "lang/interp.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <span>
#include <unordered_map>
#include <utility>

#include "dist/remap.hpp"
#include "lang/bytecode.hpp"
#include "lang/token.hpp"
#include "rt/collectives.hpp"

namespace chaos::lang {

namespace {

/// Fails at @p at's source position: any AST or metadata node that records
/// a line and a column.
template <typename Node>
[[noreturn]] void sema_fail(const std::string& msg, const Node& at) {
  throw LangError(msg, at.line, at.column);
}

/// The position of a host call, which has none ("line 0").
struct HostCall {
  int line = 0;
  int column = 0;
};

/// Host-supplied names match the lexer's upper-case spelling. The cast keeps
/// bytes >= 0x80 out of toupper's undefined (negative) range.
std::string upper(std::string name) {
  for (char& c : name) {
    c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
  }
  return name;
}

/// Iterations per COMPUTE block: every stack instruction runs as one loop
/// over this many contiguous values.
constexpr i64 kBlock = 256;

}  // namespace

// ---------------------------------------------------------------------------
// Runtime state
// ---------------------------------------------------------------------------

struct ArrayInfo {
  ElemType type = ElemType::Real8;
  i64 size = -1;
  std::string decomp;
  int decl_line = 0;
  std::unique_ptr<dist::DistributedArray<f64>> real;
  std::unique_ptr<dist::DistributedArray<i64>> integer;

  [[nodiscard]] bool materialized() const {
    return real != nullptr || integer != nullptr;
  }
  [[nodiscard]] const dist::Distribution& dist() const {
    return real ? real->dist() : integer->dist();
  }
  [[nodiscard]] std::shared_ptr<const dist::Distribution> dist_ptr() const {
    return real ? real->dist_ptr() : integer->dist_ptr();
  }
  [[nodiscard]] const dist::Dad& dad() const { return dist().dad(); }
};

struct DecompInfo {
  i64 size = -1;
  int decl_line = 0;
  std::shared_ptr<const dist::Distribution> dist;
  std::vector<std::string> aligned;
};

/// Resolved runtime operand for the block evaluator: set up once per
/// executor invocation, gathered once per block.
struct RuntimeOperand {
  const i64* refs = nullptr;  // localized index per local iteration
  const f64* view = nullptr;  // the read array's [owned | ghost] buffer
};

/// Per-statement write routing, resolved against current storage at the top
/// of every COMPUTE (array storage can move between sweeps, the plan's
/// symbolic routing cannot).
struct WriteSlot {
  const std::vector<StackInstr>* code = nullptr;
  const i64* refs = nullptr;   // target localized indices
  f64* local = nullptr;        // assign: target local segment
  f64* staging = nullptr;      // assign: ghost staging / reduce: accumulator
  i64 nlocal = -1;             // assign boundary (-1 for reduces)
  core::ReduceOp rop = core::ReduceOp::Replace;  // Replace: assignment
  const f64* value = nullptr;  // the statement's values for the current block
};

/// Inspector product of one FORALL (cached under the Section 3 guard), built
/// from the statement's lowered ForallMeta — never from the AST. Its
/// indirection batches, their iteration partition and their shared data
/// schedule are the core::IrregularLoopPlan a hand-written loop builds too;
/// the rest is what the compiled loop adds: the direct and assign schedules
/// and the operand and write routing.
struct LoopPlan {
  explicit LoopPlan(const ForallMeta& m)
      : meta(&m), ind(m.ind_names.size() + (m.identity_batch ? 1 : 0)) {}

  const ForallMeta* meta = nullptr;  ///< borrowed from the ProgramPlan

  std::shared_ptr<const dist::Distribution> iter_space;
  std::shared_ptr<const dist::Distribution> data_dist;  // may be null
  /// One 0-based batch per indirection array, in ind_names order, then the
  /// identity batch if the meta has one, localized against data_dist. Its
  /// build stamp is the plan's.
  core::IrregularLoopPlan ind;
  std::vector<i64> iter_ids;  ///< my 0-based iteration ids, local order

  /// Repair baselines of the private assign schedules (unused entries stay
  /// invalid for direct assigns, whose iter_ids references never change
  /// under an indirection rewrite).
  std::vector<core::LocalizeSnapshot> assign_snaps;
  std::vector<int> assign_batch;  ///< ind batch per assign slot; -1 = direct
  /// Localizes against iter_space; ind.iws localizes against data_dist, so
  /// an attached translation cache binds to one DAD.
  core::InspectorWorkspace direct_iws;

  /// iter_ids against iter_space; built only for direct reads and direct
  /// REDUCEs (direct assigns localize their own schedules).
  core::Localized direct_loc;

  /// How each statement's target is addressed, ordered by write run. A run
  /// is the statements that write one storage, one accumulator or one
  /// assigned array, in source order; runs write disjoint storage.
  struct WriteInfo {
    int stmt = 0;     ///< index into the FORALL body
    int run_end = 0;  ///< on a run's first write: one past its last write
    LoopReduceOp op = LoopReduceOp::Assign;
    ArrayInfo* target = nullptr;
    int refs_group = 0;    ///< 0: ind.loc batch, 1: direct_loc, 2: own assign
    int batch = -1;        ///< ind.loc batch index (group 0)
    int assign_slot = -1;  ///< index into assign_loc (group 2)
    int acc_slot = -1;     ///< accumulator (reduce ops)
  };
  std::vector<WriteInfo> writes;
  std::vector<core::Localized> assign_loc;  ///< private schedules for assigns
  std::vector<ArrayInfo*> assign_targets;   ///< parallel to assign_loc

  struct AccInfo {
    ArrayInfo* target = nullptr;
    core::ReduceOp op = core::ReduceOp::Add;
    int refs_group = 0;  ///< 0 = data group, 1 = direct group
  };
  std::vector<AccInfo> accs;

  /// The meta's symbolic operand table resolved to runtime storage.
  struct OperandRt {
    int group = 0;  ///< 0: ind.loc batch, 1: direct_loc
    int batch = -1;
    const ArrayInfo* array = nullptr;
  };
  std::vector<OperandRt> operands;
  /// Scalar slots bound to std::map node storage (address-stable), in the
  /// meta's first-occurrence order.
  std::vector<const i64*> scalar_ptrs;

  std::vector<ArrayInfo*> reads_data;    ///< gathered via ind.loc
  std::vector<ArrayInfo*> reads_direct;  ///< gathered via direct_loc
  /// Executor staging shared by every gather/scatter through this plan
  /// (staging() re-slices per schedule), plus reusable accumulator scratch —
  /// all sized on the first sweep so later sweeps allocate nothing.
  core::ExecutorWorkspace<f64> ws;
  std::vector<std::vector<f64>> acc_scratch;     ///< parallel to accs
  std::vector<std::vector<f64>> assign_scratch;  ///< parallel to assign_loc
  std::vector<ArrayInfo*> written_targets;       ///< note_write order (sorted)

  /// Plan-owned per-sweep scratch: resize() keeps capacity, so every sweep
  /// after the first resolves its slots with zero heap allocations.
  std::vector<RuntimeOperand> runtime_ops;
  std::vector<WriteSlot> write_slots;  ///< parallel to writes

  i64 expr_flops_per_iter = 0;
  i64 mem_refs_per_iter = 0;
};

/// Scratch of the running FORALL. A FORALL's ops run back to back and none
/// is reentrant, so one set serves every plan: once grown, neither a warm
/// sweep nor a fresh plan (reuse off) allocates.
struct ExecScratch {
  /// The indirection slices converted to 0-based indices for a plan build
  /// or repair, and the spans that hand them over.
  std::vector<std::vector<i64>> slices;
  std::vector<std::span<const i64>> slice_spans;
  std::vector<f64> columns;  ///< COMPUTE's operand, result and stack columns
};

/// Per-FORALL VM register file: the live plan between CHECK_INCARNATION and
/// EXEC_END, the resolved trip count, and the guard-DAD scratch (vectors
/// retain capacity across sweeps, keeping the warm path allocation-free).
struct ForallRt {
  std::shared_ptr<LoopPlan> plan;
  i64 n = 0;  ///< iteration count this execution
  std::vector<dist::Dad> guard_data, guard_ind;
  std::optional<rt::ClockSection> exec_section;
};

struct Instance::State {
  std::map<std::string, ArrayInfo> arrays;
  std::map<std::string, DecompInfo> decomps;
  std::map<std::string, std::shared_ptr<const core::GeoCol>> geocols;
  std::map<std::string, std::shared_ptr<const dist::Distribution>> dists;
  std::map<std::string, i64> scalars;
  core::ReuseRegistry registry;
  /// Section 3 guard: one plan per FORALL statement, probed by
  /// CHECK_INCARNATION.
  core::InspectorCache plan_cache;
  std::vector<ForallRt> frt;  ///< indexed by ProgramPlan forall id
  /// Section 3 applied to the mapper coupler: cached GeoCoL graphs and
  /// partitioner outputs, guarded by the DADs / last_mod of their source
  /// arrays, so an unchanged CONSTRUCT + SET inside a time-step loop costs
  /// one guard check instead of a graph assembly and a repartition.
  core::InspectorCache mapper_cache;
  std::map<std::string, std::vector<dist::Dad>> geocol_sources;
  ExecScratch scratch;
};

namespace {
/// Cached products of the mapper-coupler directives.
struct GeoColProduct {
  std::shared_ptr<const core::GeoCol> geocol;
};
struct DistProduct {
  std::shared_ptr<const dist::Distribution> dist;
};
}  // namespace

// ---------------------------------------------------------------------------
// Instance plumbing
// ---------------------------------------------------------------------------

Instance::Instance(const Program& program)
    : program_(&program),
      plan_(std::make_unique<const ProgramPlan>(lower(program))) {}
Instance::~Instance() = default;

void Instance::set_param(const std::string& name, i64 value) {
  host_params_[upper(name)] = value;
}

void Instance::bind_real(const std::string& array,
                         std::vector<f64> global_values) {
  real_bindings_[upper(array)] = std::move(global_values);
}

void Instance::bind_int(const std::string& array,
                        std::vector<i64> global_values) {
  int_bindings_[upper(array)] = std::move(global_values);
}

void Instance::set_options(const core::PlanOptions& opts) {
  if (opts.translation_cache != nullptr) {
    throw ChaosError(
        "lang::Instance::set_options: the VM takes no translation cache (a "
        "cache binds to one distribution; a program's FORALLs localize "
        "against several)");
  }
  plan_opts_ = opts;
}

const core::InspectorCache::Stats& Instance::cache_stats() const {
  static const core::InspectorCache::Stats kZero{};
  if (!state_) return kZero;
  return state_->plan_cache.stats();
}

const core::InspectorCache::Stats& Instance::mapper_cache_stats() const {
  static const core::InspectorCache::Stats kZero{};
  if (!state_) return kZero;
  return state_->mapper_cache.stats();
}

const core::ReuseRegistry& Instance::reuse_registry() const {
  static const core::ReuseRegistry kEmpty;
  return state_ ? state_->registry : kEmpty;
}

namespace {

i64 resolve_size(const SizeExpr& s, const std::map<std::string, i64>& scalars) {
  if (s.literal >= 0) return s.literal;
  const auto it = scalars.find(s.param);
  if (it == scalars.end()) {
    sema_fail("unbound parameter '" + s.param +
                  "' (host must call set_param)",
              s);
  }
  return it->second;
}

template <typename Node>
ArrayInfo& lookup_array(Instance::State& st, const std::string& name,
                        const Node& at) {
  const auto it = st.arrays.find(name);
  if (it == st.arrays.end()) sema_fail("unknown array '" + name + "'", at);
  if (!it->second.materialized()) {
    sema_fail("array '" + name +
                  "' is not materialized (missing ALIGN or DISTRIBUTE)",
              at);
  }
  return it->second;
}

// ---------------------------------------------------------------------------
// FORALL: plan build (PARTITION + LOCALIZE)
// ---------------------------------------------------------------------------

/// The FORALL's indirection slices as 0-based data indices, in ind_names
/// order, each value checked against the data extent; then, for a meta with
/// an identity batch, this rank's 0-based iteration ids in local order.
/// Fills the state's slice scratch (grow-only) and returns it as spans.
std::span<const std::span<const i64>> zero_based_slices(Instance::State& st,
                                                        const LoopPlan& plan) {
  const ForallMeta& m = *plan.meta;
  const i64 extent = plan.data_dist->size();
  ExecScratch& scratch = st.scratch;
  scratch.slices.resize(plan.ind.batches.size());
  scratch.slice_spans.clear();
  for (std::size_t j = 0; j < m.ind_names.size(); ++j) {
    const auto seg = st.arrays.at(m.ind_names[j]).integer->local();
    std::vector<i64>& out = scratch.slices[j];
    out.resize(seg.size());
    for (std::size_t i = 0; i < seg.size(); ++i) {
      if (seg[i] < 1 || seg[i] > extent) {
        sema_fail("indirection array '" + m.ind_names[j] + "' holds index " +
                      std::to_string(seg[i]) + " outside 1.." +
                      std::to_string(extent),
                  m);
      }
      out[i] = seg[i] - 1;  // Fortran subscripts are 1-based
    }
    scratch.slice_spans.emplace_back(out);
  }
  if (m.identity_batch) {
    std::vector<i64>& ids = scratch.slices.back();
    ids.resize(static_cast<std::size_t>(plan.iter_space->my_local_size()));
    for (std::size_t l = 0; l < ids.size(); ++l) {
      ids[l] = plan.iter_space->my_global_of(static_cast<i64>(l));
    }
    scratch.slice_spans.emplace_back(ids);
  }
  return scratch.slice_spans;
}

/// PARTITION: semantic classification against current array state, then the
/// iteration partition + indirection remap (remap time). The checks run in a
/// fixed order: the read/write conflict, then indirection arrays in
/// first-occurrence order, then data and direct arrays sorted by name.
void plan_partition(rt::Process& p, Instance::State& st, const ForallMeta& m,
                    i64 n, LoopPlan& plan, PhaseTimes& phases) {
  if (!m.conflict_array.empty()) {
    sema_fail("array '" + m.conflict_array +
                  "' is both read and written in one FORALL; only "
                  "left-hand-side reductions may carry dependences",
              m);
  }
  plan.expr_flops_per_iter = m.expr_flops_per_iter;
  plan.mem_refs_per_iter = m.mem_refs_per_iter;

  // ---- classify arrays, find the two anchor distributions -------------------
  // Indirection arrays: INTEGER, aligned with the iteration space.
  for (const auto& name : m.ind_names) {
    ArrayInfo& a = lookup_array(st, name, m);
    if (a.type != ElemType::Integer) {
      sema_fail("indirection array '" + name + "' must be INTEGER", m);
    }
    if (!plan.iter_space) {
      plan.iter_space = a.dist_ptr();
    } else if (!(plan.iter_space->dad() == a.dad())) {
      sema_fail("indirection arrays of one FORALL must share a distribution",
                m);
    }
  }
  // Data arrays (via indirection): REAL*8, one common distribution.
  for (const auto& name : m.data_arrays) {
    ArrayInfo& a = lookup_array(st, name, m);
    if (a.type != ElemType::Real8) {
      sema_fail("data array '" + name + "' must be REAL*8", m);
    }
    if (!plan.data_dist) {
      plan.data_dist = a.dist_ptr();
    } else if (!(plan.data_dist->dad() == a.dad())) {
      sema_fail("data arrays of one FORALL must be aligned to one "
                "distribution",
                m);
    }
  }
  for (const auto& name : m.direct_arrays) {
    ArrayInfo& a = lookup_array(st, name, m);
    if (a.type != ElemType::Real8) {
      sema_fail("data array '" + name + "' must be REAL*8", m);
    }
    if (!plan.iter_space) {
      plan.iter_space = a.dist_ptr();
    } else if (!(plan.iter_space->dad() == a.dad())) {
      sema_fail("directly indexed arrays must be aligned with the "
                "iteration space",
                m);
    }
  }
  if (!plan.iter_space) {
    sema_fail("FORALL body references no distributed arrays", m);
  }
  if (plan.iter_space->size() != n) {
    sema_fail("FORALL bound does not match the iteration-space extent (" +
                  std::to_string(plan.iter_space->size()) + " vs " +
                  std::to_string(n) + ")",
              m);
  }

  // ---- phase B/C: iteration partition + indirection remap (remap time) -----
  rt::ClockSection section(p.clock());
  if (m.ind_names.empty()) {
    // No indirection: iterations stay home.
    plan.ind.iters.iter_dist = plan.iter_space;
    plan.ind.iters.remap =
        dist::build_remap(p, *plan.iter_space, *plan.iter_space);
  } else {
    plan.ind.partition(p, *plan.iter_space, *plan.data_dist,
                       zero_based_slices(st, plan));
  }
  plan.iter_ids = plan.ind.iters.iter_dist->my_globals();
  phases.remap += section.elapsed_sec();
}

/// LOCALIZE: builds the communication schedules and resolves the meta's
/// symbolic slot tables — operands, scalars, writes — against runtime state
/// (inspector time).
void plan_localize(rt::Process& p, Instance::State& st, const ForallMeta& m,
                   LoopPlan& plan, PhaseTimes& phases) {
  rt::ClockSection section(p.clock());
  if (!m.ind_names.empty()) plan.ind.localize(p, *plan.data_dist);
  const bool direct_reduce =
      std::any_of(m.body.begin(), m.body.end(), [](const BodySym& b) {
        return b.direct && b.op != LoopReduceOp::Assign;
      });
  if (!m.read_direct.empty() || direct_reduce) {
    core::localize(p, *plan.iter_space, plan.iter_ids, plan.direct_iws,
                   plan.direct_loc);
  }

  for (const auto& name : m.read_data) {
    plan.reads_data.push_back(&st.arrays.at(name));
  }
  for (const auto& name : m.read_direct) {
    plan.reads_direct.push_back(&st.arrays.at(name));
  }

  // Scalar slots, in the meta's first-occurrence order, so the unbound
  // scalar reported is the first one in source order. std::map nodes are
  // address-stable: bind storage directly.
  plan.scalar_ptrs.reserve(m.scalars.size());
  for (const auto& sym : m.scalars) {
    const auto it = st.scalars.find(sym.name);
    if (it == st.scalars.end()) {
      sema_fail("unbound scalar '" + sym.name + "'", sym);
    }
    plan.scalar_ptrs.push_back(&it->second);
  }
  plan.operands.reserve(m.operands.size());
  for (const auto& o : m.operands) {
    plan.operands.push_back(
        {o.group, o.batch, &st.arrays.at(o.array)});
  }
  CHAOS_CHECK(m.max_stack <= kMaxExprDepth,
              "internal: the parser's depth limit bounds the FORALL stack");

  // Resolve writes: reduces share the read groups' schedules; assigns get
  // private schedules so Replace never touches unwritten elements.
  const auto batch_index = [&m](const std::string& ind_array) {
    return static_cast<int>(
        std::find(m.ind_names.begin(), m.ind_names.end(), ind_array) -
        m.ind_names.begin());
  };
  std::map<std::pair<std::string, int>, int> acc_of;  // (array, group)
  for (std::size_t si = 0; si < m.body.size(); ++si) {
    const auto& stmt = m.body[si];
    LoopPlan::WriteInfo w;
    w.stmt = static_cast<int>(si);
    w.op = stmt.op;
    w.target = &st.arrays.at(stmt.target);
    const bool direct = stmt.direct;
    if (stmt.op == LoopReduceOp::Assign) {
      w.refs_group = 2;
      w.assign_slot = static_cast<int>(plan.assign_loc.size());
      plan.assign_targets.push_back(w.target);
      const dist::Distribution& target_dist =
          direct ? *plan.iter_space : *plan.data_dist;
      plan.assign_loc.emplace_back();
      plan.assign_snaps.emplace_back();
      if (direct) {
        plan.assign_batch.push_back(-1);
        core::localize(p, target_dist, plan.iter_ids, plan.direct_iws,
                       plan.assign_loc.back());
      } else {
        const int b = batch_index(stmt.ind_array);
        plan.assign_batch.push_back(b);
        core::localize(p, target_dist,
                       plan.ind.batches[static_cast<std::size_t>(b)],
                       plan.ind.iws, plan.assign_loc.back());
        plan.ind.iws.capture(plan.assign_snaps.back());
      }
    } else {
      w.refs_group = direct ? 1 : 0;
      if (!direct) w.batch = batch_index(stmt.ind_array);
      const core::ReduceOp rop = stmt.op == LoopReduceOp::Add
                                     ? core::ReduceOp::Add
                                     : stmt.op == LoopReduceOp::Max
                                           ? core::ReduceOp::Max
                                           : core::ReduceOp::Min;
      const auto key = std::make_pair(stmt.target, w.refs_group);
      auto it = acc_of.find(key);
      if (it == acc_of.end()) {
        it = acc_of.emplace(key, static_cast<int>(plan.accs.size())).first;
        plan.accs.push_back(LoopPlan::AccInfo{w.target, rop, w.refs_group});
      } else if (plan.accs[static_cast<std::size_t>(it->second)].op != rop) {
        sema_fail("mixed reduction operators on array '" + stmt.target +
                      "' in one FORALL",
                  stmt);
      }
      w.acc_slot = it->second;
    }
    plan.writes.push_back(std::move(w));
  }
  // Group the writes into runs in place; rotating a later member down to
  // the end of its run keeps source order within every run.
  const auto same_storage = [](const LoopPlan::WriteInfo& a,
                               const LoopPlan::WriteInfo& b) {
    return a.op == LoopReduceOp::Assign
               ? b.op == LoopReduceOp::Assign && a.target == b.target
               : b.op != LoopReduceOp::Assign && a.acc_slot == b.acc_slot;
  };
  auto& writes = plan.writes;
  for (std::size_t head = 0; head < writes.size();) {
    std::size_t end = head + 1;
    for (std::size_t j = end; j < writes.size(); ++j) {
      if (same_storage(writes[head], writes[j])) {
        std::rotate(writes.begin() + static_cast<std::ptrdiff_t>(end),
                    writes.begin() + static_cast<std::ptrdiff_t>(j),
                    writes.begin() + static_cast<std::ptrdiff_t>(j + 1));
        ++end;
      }
    }
    writes[head].run_end = static_cast<int>(end);
    head = end;
  }
  for (const auto& name : m.written) {
    plan.written_targets.push_back(&st.arrays.at(name));
  }
  phases.inspector += section.elapsed_sec();
}

/// Incremental repair of a cached LoopPlan whose guard failed ONLY the
/// last_mod stamp (an indirection array was rewritten in place; every DAD
/// unchanged): the core plan repairs the indirection batches and their data
/// schedule (an identity batch's delta is always empty), then each
/// non-direct assign schedule is spliced; direct schedules localize
/// iter_ids, which an indirection rewrite cannot change.
/// Collective, booked as inspector time. Returns false (machine-uniform)
/// when any vote rejects, leaving the plan NOT ready so the caller's full
/// rebuild path takes over (DESIGN.md §14).
bool repair_plan(rt::Process& p, Instance::State& st, i64 n, LoopPlan& plan,
                 PhaseTimes& phases) {
  if (plan.iter_space->size() != n) {
    ++p.stats().repair_fallbacks;  // the same on every rank: no vote
    return false;
  }
  rt::ClockSection section(p.clock());
  bool ok = plan.ind.repair(p, zero_based_slices(st, plan), *plan.data_dist);
  for (std::size_t slot = 0; ok && slot < plan.assign_loc.size(); ++slot) {
    const int b = plan.assign_batch[slot];
    if (b < 0) continue;  // direct assign: iter_ids references unchanged
    ok = core::repair_localize(p, *plan.data_dist,
                               plan.ind.batches[static_cast<std::size_t>(b)],
                               plan.ind.iws, plan.assign_snaps[slot],
                               plan.assign_loc[slot]);
    if (ok) plan.ind.iws.capture(plan.assign_snaps[slot]);
  }
  if (ok) plan.ind.build.mark_built();
  phases.inspector += section.elapsed_sec();
  return ok;
}

// ---------------------------------------------------------------------------
// FORALL: execution ops
// ---------------------------------------------------------------------------

/// Runs one statement's bytecode over a block of @p len local iterations on
/// a stack of columns and returns its result column. Stack position 0 is
/// @p result, position i > 0 is column i - 1 of @p scratch. Load pushes the
/// operand's gathered column without copying it, so a position holds either
/// an operand column or its own column: an op writing position i never
/// overwrites an input at position i + 1.
///
/// Pinned out of line at a 64-byte boundary: COMPUTE spends most of a VM
/// sweep in this loop, and its speed followed where the linker happened to
/// place it. Builds that differed only in dist/ and core/ put it at 32 or
/// 48 mod 64 and ran md648_fig4_vm's steps 8-20% slower than at 0 mod 64.
[[gnu::noinline, gnu::aligned(64)]] const f64* eval_block(
    const std::vector<StackInstr>& code, const f64* operand_cols,
    const std::vector<const i64*>& scalars, const i64* iter_ids, i64 len,
    f64* result, f64* scratch) {
  const f64* stack[kMaxExprDepth];
  int sp = 0;
  const auto column = [&](int pos) {
    return pos == 0 ? result : scratch + (pos - 1) * kBlock;
  };
  const auto fill = [&](f64 v) {
    f64* d = column(sp);
    std::fill_n(d, len, v);
    stack[sp++] = d;
  };
  const auto unary = [&](auto f) {
    f64* d = column(sp - 1);
    const f64* a = stack[sp - 1];
    for (i64 j = 0; j < len; ++j) d[j] = f(a[j]);
    stack[sp - 1] = d;
  };
  const auto binary = [&](auto f) {
    --sp;
    f64* d = column(sp - 1);
    const f64* a = stack[sp - 1];
    const f64* b = stack[sp];
    for (i64 j = 0; j < len; ++j) d[j] = f(a[j], b[j]);
    stack[sp - 1] = d;
  };
  for (const auto& ins : code) {
    switch (ins.op) {
      case StackOp::Imm: fill(ins.imm); break;
      case StackOp::Scalar:
        fill(static_cast<f64>(*scalars[static_cast<std::size_t>(ins.slot)]));
        break;
      case StackOp::IterVal: {
        f64* d = column(sp);
        for (i64 j = 0; j < len; ++j) d[j] = static_cast<f64>(iter_ids[j] + 1);
        stack[sp++] = d;
        break;
      }
      case StackOp::Load: stack[sp++] = operand_cols + ins.slot * kBlock; break;
      case StackOp::Neg: unary([](f64 a) { return -a; }); break;
      case StackOp::Add: binary([](f64 a, f64 b) { return a + b; }); break;
      case StackOp::Sub: binary([](f64 a, f64 b) { return a - b; }); break;
      case StackOp::Mul: binary([](f64 a, f64 b) { return a * b; }); break;
      case StackOp::Div: binary([](f64 a, f64 b) { return a / b; }); break;
      case StackOp::Pow:
        binary([](f64 a, f64 b) { return std::pow(a, b); });
        break;
      case StackOp::Sqrt: unary([](f64 a) { return std::sqrt(a); }); break;
      case StackOp::Abs: unary([](f64 a) { return std::abs(a); }); break;
      case StackOp::Sin: unary([](f64 a) { return std::sin(a); }); break;
      case StackOp::Cos: unary([](f64 a) { return std::cos(a); }); break;
      case StackOp::Exp: unary([](f64 a) { return std::exp(a); }); break;
      case StackOp::Min2:
        binary([](f64 a, f64 b) { return std::min(a, b); });
        break;
      case StackOp::Max2:
        binary([](f64 a, f64 b) { return std::max(a, b); });
        break;
      case StackOp::Mod2:
        binary([](f64 a, f64 b) { return std::fmod(a, b); });
        break;
    }
  }
  return stack[0];
}

/// Writes one run's values for the block at @p l0 in (iteration, statement)
/// order. @p Op is the run's reduction; Replace assigns, into the target's
/// local segment or its ghost staging.
template <core::ReduceOp Op>
void write_run(const WriteSlot* first, const WriteSlot* last, i64 l0,
               i64 len) {
  for (i64 j = 0; j < len; ++j) {
    for (const WriteSlot* s = first; s != last; ++s) {
      const f64 v = s->value[j];
      const i64 ref = s->refs[l0 + j];
      if constexpr (Op == core::ReduceOp::Replace) {
        if (ref < s->nlocal) {
          s->local[ref] = v;
        } else {
          s->staging[ref - s->nlocal] = v;
        }
      } else {
        s->staging[ref] = core::apply_reduce(Op, s->staging[ref], v);
      }
    }
  }
}

/// GATHER: fills one read array's ghost tail through its group's schedule.
void exec_gather(rt::Process& p, LoopPlan& plan, i32 group, i32 k) {
  const auto i = static_cast<std::size_t>(k);
  if (group == 0) {
    core::gather_ghosts<f64>(p, plan.ind.loc.schedule,
                             *plan.reads_data[i]->real, plan.ws);
  } else {
    core::gather_ghosts<f64>(p, plan.direct_loc.schedule,
                             *plan.reads_direct[i]->real, plan.ws);
  }
}

/// COMPUTE: resolves operand and write slots against current storage, runs
/// the sweep block by block, and charges the modeled per-iteration cost.
///
/// Kept out of line, as eval_block is, so COMPUTE's code does not move with
/// the rest of run_vm: GCC 12 inlines it there otherwise, and VM step times
/// have followed code placement (see eval_block). CI checks the symbol.
[[gnu::noinline]] void exec_compute(rt::Process& p, LoopPlan& plan,
                                    ExecScratch& scratch) {
  const ForallMeta& m = *plan.meta;

  // Reduction accumulators: [0, nlocal + nghost) of the group's schedule.
  // Plan-owned scratch: assign() keeps capacity, so sweeps after the first
  // reuse the same heap blocks.
  plan.acc_scratch.resize(plan.accs.size());
  for (std::size_t k = 0; k < plan.accs.size(); ++k) {
    const auto& info = plan.accs[k];
    const auto& sched = info.refs_group == 0 ? plan.ind.loc.schedule
                                             : plan.direct_loc.schedule;
    plan.acc_scratch[k].assign(
        static_cast<std::size_t>(sched.nlocal_at_build + sched.nghost),
        core::reduce_identity<f64>(info.op));
  }
  // Assign staging: ghost region of each private schedule.
  plan.assign_scratch.resize(plan.assign_loc.size());
  for (std::size_t k = 0; k < plan.assign_loc.size(); ++k) {
    plan.assign_scratch[k].assign(
        static_cast<std::size_t>(plan.assign_loc[k].schedule.nghost), 0.0);
  }

  // Resolve operand slots against current storage: each read array's
  // [owned | ghost] buffer, whose tail the GATHERs above filled (pointers
  // may move after a redistribute, but that invalidates the plan anyway).
  plan.runtime_ops.resize(plan.operands.size());
  for (std::size_t k = 0; k < plan.operands.size(); ++k) {
    const auto& spec = plan.operands[k];
    RuntimeOperand& o = plan.runtime_ops[k];
    o.refs = spec.group == 0
                 ? plan.ind.loc.refs[static_cast<std::size_t>(spec.batch)]
                       .data()
                 : plan.direct_loc.refs.data();
    o.view = spec.array->real->view().data();
  }
  plan.write_slots.resize(plan.writes.size());
  for (std::size_t k = 0; k < plan.writes.size(); ++k) {
    const auto& w = plan.writes[k];
    WriteSlot& slot = plan.write_slots[k];
    slot.code = &m.code[static_cast<std::size_t>(w.stmt)];
    slot.rop = core::ReduceOp::Replace;
    if (w.refs_group == 2) {
      const auto& loc =
          plan.assign_loc[static_cast<std::size_t>(w.assign_slot)];
      slot.refs = loc.refs.data();
      slot.local = w.target->real->local().data();
      slot.staging =
          plan.assign_scratch[static_cast<std::size_t>(w.assign_slot)].data();
      slot.nlocal = loc.schedule.nlocal_at_build;
    } else {
      slot.refs =
          w.refs_group == 0
              ? plan.ind.loc.refs[static_cast<std::size_t>(w.batch)].data()
              : plan.direct_loc.refs.data();
      slot.local = nullptr;
      slot.staging =
          plan.acc_scratch[static_cast<std::size_t>(w.acc_slot)].data();
      slot.rop = plan.accs[static_cast<std::size_t>(w.acc_slot)].op;
      slot.nlocal = -1;
    }
  }

  // Column scratch: one gathered column per operand, one result column per
  // statement (its stack position 0), then stack positions 1..max_stack-1,
  // which the statements share.
  const std::size_t nops = plan.runtime_ops.size();
  const std::size_t nstmt = plan.write_slots.size();
  constexpr auto kCol = static_cast<std::size_t>(kBlock);
  scratch.columns.resize(
      (nops + nstmt + static_cast<std::size_t>(m.max_stack) - 1) * kCol);
  f64* const operand_cols = scratch.columns.data();
  f64* const result_cols = operand_cols + nops * kCol;
  f64* const stack_cols = result_cols + nstmt * kCol;

  // The sweep, kBlock local iterations at a time.
  const i64 niter = static_cast<i64>(plan.iter_ids.size());
  for (i64 l0 = 0; l0 < niter; l0 += kBlock) {
    const i64 len = std::min(kBlock, niter - l0);
    for (std::size_t k = 0; k < nops; ++k) {
      const RuntimeOperand& o = plan.runtime_ops[k];
      const i64* refs = o.refs + l0;
      f64* col = operand_cols + k * kCol;
      for (i64 j = 0; j < len; ++j) col[j] = o.view[refs[j]];
    }
    for (std::size_t si = 0; si < nstmt; ++si) {
      WriteSlot& slot = plan.write_slots[si];
      slot.value = eval_block(*slot.code, operand_cols, plan.scalar_ptrs,
                              plan.iter_ids.data() + l0, len,
                              result_cols + si * kCol, stack_cols);
    }
    // Every statement's values for the block exist before the first write.
    // That is legal because plan build rejects a FORALL that reads an array
    // it writes (ForallMeta::conflict_array): no write can change a value
    // the block gathered. Runs write disjoint storage, and each run writes
    // in (iteration, statement) order, so every accumulator folds, and
    // every element is assigned, in the order of a sweep that evaluates one
    // iteration at a time.
    for (std::size_t k = 0; k < nstmt;) {
      const auto end = static_cast<std::size_t>(plan.writes[k].run_end);
      const WriteSlot* first = plan.write_slots.data() + k;
      const WriteSlot* last = plan.write_slots.data() + end;
      k = end;
      switch (first->rop) {
        case core::ReduceOp::Add:
          write_run<core::ReduceOp::Add>(first, last, l0, len);
          break;
        case core::ReduceOp::Max:
          write_run<core::ReduceOp::Max>(first, last, l0, len);
          break;
        case core::ReduceOp::Min:
          write_run<core::ReduceOp::Min>(first, last, l0, len);
          break;
        case core::ReduceOp::Replace:
          write_run<core::ReduceOp::Replace>(first, last, l0, len);
          break;
      }
    }
  }
  p.clock().charge_ops(niter,
                       p.params().flop_us *
                               static_cast<f64>(plan.expr_flops_per_iter) +
                           p.params().mem_us_per_word *
                               static_cast<f64>(plan.mem_refs_per_iter));
}

/// FOLD_SCATTER: folds one accumulator's local part with the op and pushes
/// its ghost part back to the owners.
void exec_fold_scatter(rt::Process& p, LoopPlan& plan, i32 k) {
  const auto& info = plan.accs[static_cast<std::size_t>(k)];
  const std::vector<f64>& acc = plan.acc_scratch[static_cast<std::size_t>(k)];
  const auto& sched = info.refs_group == 0 ? plan.ind.loc.schedule
                                           : plan.direct_loc.schedule;
  auto local = info.target->real->local();
  for (i64 j = 0; j < sched.nlocal_at_build; ++j) {
    local[static_cast<std::size_t>(j)] = core::apply_reduce(
        info.op, local[static_cast<std::size_t>(j)],
        acc[static_cast<std::size_t>(j)]);
  }
  p.clock().charge_ops(sched.nlocal_at_build, p.params().flop_us);
  core::scatter_reduce<f64>(
      p, sched, local,
      std::span<const f64>(acc).subspan(
          static_cast<std::size_t>(sched.nlocal_at_build)),
      info.op, plan.ws);
}

/// SCATTER_ASSIGN: writes one private schedule's ghost values into the
/// owners' elements.
void exec_scatter_assign(rt::Process& p, LoopPlan& plan, i32 k) {
  core::scatter_assign<f64>(
      p, plan.assign_loc[static_cast<std::size_t>(k)].schedule,
      plan.assign_targets[static_cast<std::size_t>(k)]->real->local(),
      plan.assign_scratch[static_cast<std::size_t>(k)], plan.ws);
}

/// NOTE_WRITES: the loop modified its targets — record it (once per written
/// array; this is the "once per loop, not per element" property of nmod).
void exec_note_writes(LoopPlan& plan, core::ReuseRegistry& reg) {
  for (ArrayInfo* target : plan.written_targets) {
    reg.note_write(target->dad());
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Directives (the VM's DIRECTIVE op)
// ---------------------------------------------------------------------------

void Instance::run_directive(rt::Process& p, const Statement& s) {
  State& st = *state_;

  if (const auto* d = std::get_if<DeclArrays>(&s.node)) {
    for (const auto& [name, size] : d->arrays) {
      if (st.arrays.count(name)) sema_fail("array '" + name + "' redeclared",
                                           size);
      ArrayInfo info;
      info.type = d->type;
      info.size = resolve_size(size, st.scalars);
      info.decl_line = size.line;
      st.arrays.emplace(name, std::move(info));
    }
    return;
  }
  if (const auto* d = std::get_if<DeclDecomps>(&s.node)) {
    for (const auto& [name, size] : d->decomps) {
      if (st.decomps.count(name)) {
        sema_fail("decomposition '" + name + "' redeclared", size);
      }
      DecompInfo info;
      info.size = resolve_size(size, st.scalars);
      info.decl_line = size.line;
      st.decomps.emplace(name, std::move(info));
    }
    return;
  }
  if (const auto* d = std::get_if<Distribute>(&s.node)) {
    auto it = st.decomps.find(d->decomp);
    if (it == st.decomps.end()) {
      sema_fail("DISTRIBUTE of unknown decomposition '" + d->decomp + "'",
                *d);
    }
    DecompInfo& dec = it->second;
    if (d->format == "BLOCK") {
      dec.dist = dist::Distribution::block(p, dec.size);
    } else if (d->format == "CYCLIC") {
      dec.dist = dist::Distribution::cyclic(p, dec.size);
    } else {
      const auto dit = st.dists.find(d->format);
      if (dit == st.dists.end()) {
        sema_fail("unknown distribution format '" + d->format + "'", *d);
      }
      dec.dist = dit->second;
    }
    return;
  }
  if (const auto* a = std::get_if<Align>(&s.node)) {
    auto dit = st.decomps.find(a->decomp);
    if (dit == st.decomps.end()) {
      sema_fail("ALIGN with unknown decomposition '" + a->decomp + "'",
                *a);
    }
    DecompInfo& dec = dit->second;
    if (!dec.dist) {
      sema_fail("ALIGN before DISTRIBUTE of '" + a->decomp + "'", *a);
    }
    for (const auto& name : a->arrays) {
      auto ait = st.arrays.find(name);
      if (ait == st.arrays.end()) {
        sema_fail("ALIGN of unknown array '" + name + "'", *a);
      }
      ArrayInfo& arr = ait->second;
      if (arr.size != dec.size) {
        sema_fail("array '" + name + "' and decomposition '" + a->decomp +
                      "' differ in extent",
                  *a);
      }
      arr.decomp = a->decomp;
      dec.aligned.push_back(name);
      // Materialize storage and pick up the host binding.
      if (arr.type == ElemType::Real8) {
        arr.real = std::make_unique<dist::DistributedArray<f64>>(p, dec.dist);
        const auto bit = real_bindings_.find(name);
        if (bit != real_bindings_.end()) {
          CHAOS_CHECK(static_cast<i64>(bit->second.size()) == arr.size,
                      "binding for " + name + " has wrong length");
          const auto& vals = bit->second;
          arr.real->fill_by_global(
              [&vals](i64 g) { return vals[static_cast<std::size_t>(g)]; });
        }
      } else {
        arr.integer =
            std::make_unique<dist::DistributedArray<i64>>(p, dec.dist);
        const auto bit = int_bindings_.find(name);
        if (bit != int_bindings_.end()) {
          CHAOS_CHECK(static_cast<i64>(bit->second.size()) == arr.size,
                      "binding for " + name + " has wrong length");
          const auto& vals = bit->second;
          arr.integer->fill_by_global(
              [&vals](i64 g) { return vals[static_cast<std::size_t>(g)]; });
        }
      }
      st.registry.note_write(arr.dad());  // initialization is a write
    }
    return;
  }
  if (const auto* c = std::get_if<Construct>(&s.node)) {
    rt::ClockSection section(p.clock());
    const i64 nverts = resolve_size(c->nverts, st.scalars);
    // The vertex distribution: the decomposition of the geometry/load
    // arrays if given, else any distributed decomposition of extent nverts.
    std::shared_ptr<const dist::Distribution> vdist;
    auto adopt = [&](const std::string& array_name) {
      ArrayInfo& a = lookup_array(st, array_name, *c);
      if (!vdist) {
        vdist = a.dist_ptr();
      } else if (!(vdist->dad() == a.dad())) {
        sema_fail("CONSTRUCT per-vertex arrays must share a distribution",
                  *c);
      }
    };
    for (const auto& g : c->geometry_arrays) adopt(g);
    if (!c->load_array.empty()) adopt(c->load_array);
    if (!vdist) {
      for (const auto& [name, dec] : st.decomps) {
        if (dec.size == nverts && dec.dist) {
          vdist = dec.dist;
          break;
        }
      }
    }
    if (!vdist) {
      sema_fail("CONSTRUCT: no distributed decomposition of extent " +
                    std::to_string(nverts),
                *c);
    }
    if (vdist->size() != nverts) {
      sema_fail("CONSTRUCT: vertex count mismatch", *c);
    }

    // Guard DADs: every array the GeoCoL is built from. If none changed
    // (and none may have been written) since the last CONSTRUCT here, the
    // cached graph is reused — the paper's mapper-level application of the
    // Section 3 method.
    std::vector<dist::Dad> source_dads;
    for (const auto& g : c->geometry_arrays) {
      source_dads.push_back(lookup_array(st, g, *c).dad());
    }
    if (!c->load_array.empty()) {
      source_dads.push_back(lookup_array(st, c->load_array, *c).dad());
    }
    for (const auto& [uname, vname] : c->links) {
      source_dads.push_back(lookup_array(st, uname, *c).dad());
      source_dads.push_back(lookup_array(st, vname, *c).dad());
    }
    st.geocol_sources[c->name] = source_dads;

    auto build_geocol = [&] {
      core::GeoColBuilder builder(p, vdist);
      std::vector<std::span<const f64>> coords;
      for (const auto& g : c->geometry_arrays) {
        ArrayInfo& a = lookup_array(st, g, *c);
        if (a.type != ElemType::Real8) {
          sema_fail("GEOMETRY array '" + g + "' must be REAL*8", *c);
        }
        coords.push_back(a.real->local());
      }
      if (!coords.empty()) builder.geometry(coords);
      if (!c->load_array.empty()) {
        ArrayInfo& a = lookup_array(st, c->load_array, *c);
        if (a.type != ElemType::Real8) {
          sema_fail("LOAD array must be REAL*8", *c);
        }
        builder.load(a.real->local());
      }
      for (const auto& [uname, vname] : c->links) {
        ArrayInfo& ua = lookup_array(st, uname, *c);
        ArrayInfo& va = lookup_array(st, vname, *c);
        if (ua.type != ElemType::Integer || va.type != ElemType::Integer) {
          sema_fail("LINK arrays must be INTEGER", *c);
        }
        const i64 declared = resolve_size(c->link_size, st.scalars);
        if (ua.size != declared || va.size != declared) {
          sema_fail("LINK arrays do not match the declared edge count",
                    *c);
        }
        // Convert the 1-based endpoints to 0-based vertex ids.
        std::vector<i64> u0(ua.integer->local().begin(),
                            ua.integer->local().end());
        std::vector<i64> v0(va.integer->local().begin(),
                            va.integer->local().end());
        for (auto& x : u0) x -= 1;
        for (auto& x : v0) x -= 1;
        builder.link(u0, v0);
      }
      return std::make_shared<GeoColProduct>(GeoColProduct{builder.build()});
    };
    if (reuse_enabled_) {
      const auto key = reinterpret_cast<chaos::u64>(c);
      auto product = st.mapper_cache.get_or_build<GeoColProduct>(
          key, st.registry, {}, source_dads, build_geocol);
      st.geocols[c->name] = product->geocol;
    } else {
      st.geocols[c->name] = build_geocol()->geocol;
    }
    phases_.graph_gen += section.elapsed_sec();
    return;
  }
  if (const auto* sp = std::get_if<SetPartition>(&s.node)) {
    rt::ClockSection section(p.clock());
    const auto git = st.geocols.find(sp->geocol);
    if (git == st.geocols.end()) {
      sema_fail("SET: unknown GeoCoL '" + sp->geocol + "'", *sp);
    }
    auto build_dist = [&] {
      return std::make_shared<DistProduct>(DistProduct{
          core::set_by_partitioning(p, *git->second, sp->partitioner)});
    };
    if (reuse_enabled_) {
      // Guarded by the same source arrays that fed the GeoCoL: unchanged
      // sources mean an unchanged graph, so the old partition stands.
      const auto sit = st.geocol_sources.find(sp->geocol);
      const std::vector<dist::Dad> guard =
          sit != st.geocol_sources.end() ? sit->second
                                         : std::vector<dist::Dad>{};
      const auto key = reinterpret_cast<chaos::u64>(sp);
      auto product = st.mapper_cache.get_or_build<DistProduct>(
          key, st.registry, {}, guard, build_dist);
      st.dists[sp->dist_name] = product->dist;
    } else {
      st.dists[sp->dist_name] = build_dist()->dist;
    }
    phases_.partition += section.elapsed_sec();
    return;
  }
  if (const auto* r = std::get_if<Redistribute>(&s.node)) {
    rt::ClockSection section(p.clock());
    auto dit = st.decomps.find(r->decomp);
    if (dit == st.decomps.end()) {
      sema_fail("REDISTRIBUTE of unknown decomposition '" + r->decomp + "'",
                *r);
    }
    const auto fit = st.dists.find(r->dist_name);
    if (fit == st.dists.end()) {
      sema_fail("REDISTRIBUTE with unknown distribution '" + r->dist_name +
                    "'",
                *r);
    }
    DecompInfo& dec = dit->second;
    if (dec.size != fit->second->size()) {
      sema_fail("REDISTRIBUTE: extent mismatch", *r);
    }
    core::Redistributor rd(&st.registry);
    for (const auto& name : dec.aligned) {
      ArrayInfo& a = st.arrays.at(name);
      if (a.real) rd.add(*a.real);
      if (a.integer) rd.add(*a.integer);
    }
    rd.apply(p, fit->second);
    dec.dist = fit->second;
    phases_.remap += section.elapsed_sec();
    return;
  }
  CHAOS_CHECK(false, "unhandled statement kind");
}

// ---------------------------------------------------------------------------
// The VM: a dispatch loop over PlanIR
// ---------------------------------------------------------------------------

void Instance::run_vm(rt::Process& p) {
  State& st = *state_;
  const ProgramPlan& prog = *plan_;
  st.frt.resize(prog.foralls.size());

  /// DO-loop activation record (bounds resolved once at LOOP_BEGIN).
  struct Frame {
    i64 cur;
    i64 hi;
    i32 body_pc;
    const std::string* var;
  };
  std::vector<Frame> frames;

  i32 pc = 0;
  const i32 end = static_cast<i32>(prog.code.size());
  while (pc < end) {
    const PlanInstr ins = prog.code[static_cast<std::size_t>(pc)];
    switch (ins.op) {
      case PlanOp::Directive: {
        run_directive(p, *prog.directives[static_cast<std::size_t>(ins.a)]);
        ++pc;
        break;
      }
      case PlanOp::LoopBegin: {
        const LoopMeta& lm = prog.loops[static_cast<std::size_t>(ins.a)];
        const i64 lo = resolve_size(lm.lo, st.scalars);
        const i64 hi = resolve_size(lm.hi, st.scalars);
        if (lo > hi) {
          pc = ins.b;  // empty loop: the variable is never assigned
          break;
        }
        st.scalars[lm.var] = lo;
        frames.push_back({lo, hi, pc + 1, &lm.var});
        ++pc;
        break;
      }
      case PlanOp::LoopEnd: {
        Frame& fr = frames.back();
        if (++fr.cur <= fr.hi) {
          st.scalars[*fr.var] = fr.cur;
          pc = fr.body_pc;
        } else {
          frames.pop_back();  // the variable keeps its final value
          ++pc;
        }
        break;
      }
      case PlanOp::CheckIncarnation: {
        const ForallMeta& m = prog.foralls[static_cast<std::size_t>(ins.a)];
        ForallRt& fx = st.frt[static_cast<std::size_t>(ins.a)];
        const i64 lo = resolve_size(m.lo, st.scalars);
        if (lo != 1) sema_fail("FORALL lower bound must be 1", m);
        fx.n = resolve_size(m.hi, st.scalars);
        fx.plan = nullptr;
        if (reuse_enabled_) {
          fx.guard_data.clear();
          for (const auto& name : m.guard_arrays) {
            fx.guard_data.push_back(lookup_array(st, name, m).dad());
          }
          fx.guard_ind.clear();
          for (const auto& name : m.ind_names) {
            fx.guard_ind.push_back(lookup_array(st, name, m).dad());
          }
          auto pr = st.plan_cache.probe(plan_opts_.repair_enabled(), m.loop_id,
                                        st.registry, fx.guard_data,
                                        fx.guard_ind);
          if (pr.outcome == core::InspectorCache::ProbeOutcome::Hit) {
            fx.plan = std::static_pointer_cast<LoopPlan>(std::move(pr.product));
            pc = ins.b;  // warm entry: straight to EXEC_BEGIN
            break;
          }
          if (pr.outcome ==
              core::InspectorCache::ProbeOutcome::RepairCandidate) {
            // DADs match and only the indirection stamp is stale: try the
            // splice before paying a full re-inspection (DESIGN.md §14).
            auto cand =
                std::static_pointer_cast<LoopPlan>(std::move(pr.product));
            if (repair_plan(p, st, fx.n, *cand, phases_)) {
              st.plan_cache.note_repaired(m.loop_id, st.registry);
              fx.plan = std::move(cand);
              pc = ins.b;  // repaired entry: straight to EXEC_BEGIN
              break;
            }
            st.plan_cache.note_repair_fallback();
          }
        }
        ++pc;  // cold: fall through to PARTITION / LOCALIZE / STORE_PLAN
        break;
      }
      case PlanOp::Partition: {
        const ForallMeta& m = prog.foralls[static_cast<std::size_t>(ins.a)];
        ForallRt& fx = st.frt[static_cast<std::size_t>(ins.a)];
        fx.plan = std::make_shared<LoopPlan>(m);
        fx.plan->ind.iws.configure(plan_opts_);
        fx.plan->direct_iws.configure(plan_opts_);
        plan_partition(p, st, m, fx.n, *fx.plan, phases_);
        ++pc;
        break;
      }
      case PlanOp::Localize: {
        const ForallMeta& m = prog.foralls[static_cast<std::size_t>(ins.a)];
        ForallRt& fx = st.frt[static_cast<std::size_t>(ins.a)];
        plan_localize(p, st, m, *fx.plan, phases_);
        fx.plan->ind.build.mark_built();
        ++pc;
        break;
      }
      case PlanOp::StorePlan: {
        const ForallMeta& m = prog.foralls[static_cast<std::size_t>(ins.a)];
        ForallRt& fx = st.frt[static_cast<std::size_t>(ins.a)];
        if (reuse_enabled_) {
          st.plan_cache.store(m.loop_id, st.registry, fx.guard_data,
                              fx.guard_ind, fx.plan);
        }
        ++pc;
        break;
      }
      case PlanOp::ExecBegin: {
        ForallRt& fx = st.frt[static_cast<std::size_t>(ins.a)];
        CHAOS_CHECK(fx.plan && fx.plan->ind.build.ready(),
                    "EXEC_BEGIN: plan build incomplete — a failed "
                    "inspection must be retried before executing");
        fx.exec_section.emplace(p.clock());
        ++pc;
        break;
      }
      case PlanOp::Gather: {
        ForallRt& fx = st.frt[static_cast<std::size_t>(ins.a)];
        exec_gather(p, *fx.plan, ins.b, ins.c);
        ++pc;
        break;
      }
      case PlanOp::Compute: {
        ForallRt& fx = st.frt[static_cast<std::size_t>(ins.a)];
        exec_compute(p, *fx.plan, st.scratch);
        ++pc;
        break;
      }
      case PlanOp::FoldScatter: {
        ForallRt& fx = st.frt[static_cast<std::size_t>(ins.a)];
        exec_fold_scatter(p, *fx.plan, ins.c);
        ++pc;
        break;
      }
      case PlanOp::ScatterAssign: {
        ForallRt& fx = st.frt[static_cast<std::size_t>(ins.a)];
        exec_scatter_assign(p, *fx.plan, ins.c);
        ++pc;
        break;
      }
      case PlanOp::NoteWrites: {
        ForallRt& fx = st.frt[static_cast<std::size_t>(ins.a)];
        exec_note_writes(*fx.plan, st.registry);
        ++pc;
        break;
      }
      case PlanOp::ExecEnd: {
        ForallRt& fx = st.frt[static_cast<std::size_t>(ins.a)];
        phases_.executor += fx.exec_section->elapsed_sec();
        fx.exec_section.reset();
        ++pc;
        break;
      }
    }
  }
}

void Instance::execute(rt::Process& p) {
  state_ = std::make_unique<State>();
  phases_ = PhaseTimes{};
  for (const auto& [name, value] : host_params_) {
    state_->scalars[name] = value;
  }
  // Every parameter the parser collected must be bound.
  for (const auto& name : program_->params) {
    if (!state_->scalars.count(name)) {
      throw LangError("parameter '" + name + "' is not bound by the host", 0);
    }
  }
  run_vm(p);
}

std::vector<f64> Instance::fetch_real(rt::Process& p,
                                      const std::string& array) {
  CHAOS_CHECK(state_ != nullptr, "fetch before execute");
  ArrayInfo& a = lookup_array(*state_, upper(array), HostCall{});
  CHAOS_CHECK(a.type == ElemType::Real8, "fetch_real of INTEGER array");
  return a.real->to_global(p);
}

}  // namespace chaos::lang

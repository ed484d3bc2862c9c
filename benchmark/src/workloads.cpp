#include "workloads.hpp"

#include <chrono>
#include <cmath>
#include <optional>
#include <string_view>

#include "core/forall.hpp"
#include "core/mapper.hpp"
#include "dist/translation_cache.hpp"
#include "lang/parser.hpp"
#include "stats.hpp"
#include "workload/md.hpp"
#include "workload/mesh.hpp"
#include "workload/rng.hpp"

namespace bench {

namespace core = chaos::core;
namespace dist = chaos::dist;
namespace lang = chaos::lang;
namespace rt = chaos::rt;
namespace wl = chaos::wl;
using chaos::i64;
using Clock = std::chrono::steady_clock;

namespace {

/// Turns on the flat locate protocol for as long as PlanOptions has the
/// switch; once the nested protocol is gone, flat is the only path and this
/// compiles to nothing.
template <typename Options>
Options with_flat_locate(Options o) {
  if constexpr (requires { o.flat_locate = true; }) o.flat_locate = true;
  return o;
}

constexpr u64 kLoopId = 1;

/// Endpoint (edge @p g, @p side) after adaptation @p k: a seeded hash picks
/// 2% of endpoints (60% at the big adaptation) and sends each to a random
/// node.
i64 rewired(u64 seed, int k, i64 g, int side, i64 current, i64 nnodes) {
  const u64 h = wl::splitmix64(
      seed ^ wl::splitmix64((static_cast<u64>(k) << 48) ^
                            (static_cast<u64>(g) << 1) ^
                            static_cast<u64>(side)));
  const u64 per_10k = k == kBigAdaptation ? 6000 : 200;
  if (h % 10000 >= per_10k) return current;
  return static_cast<i64>(wl::splitmix64(h) % static_cast<u64>(nnodes));
}

bool adapts_at(const WorkloadDef& w, int step) {
  return w.kind == Kind::Adapt && step > 0 && step % kAdaptEvery == 0;
}

f64 since(Clock::time_point t0) {
  return std::chrono::duration<f64>(Clock::now() - t0).count();
}

/// Figure 4 of the paper with a DO timestep loop around the FORALL; the
/// arithmetic matches the hand pipeline's kernels term for term.
std::string figure4_source(const WorkloadDef& w, f64 half) {
  const std::string h = std::to_string(half);
  std::string s;
  s += "      REAL*8 x(nnode), y(nnode)\n";
  s += "      INTEGER end_pt1(nedge), end_pt2(nedge)\n";
  s += "C$    DYNAMIC, DECOMPOSITION reg(nnode), reg2(nedge)\n";
  s += "C$    DISTRIBUTE reg(BLOCK), reg2(BLOCK)\n";
  s += "C$    ALIGN x, y WITH reg\n";
  s += "C$    ALIGN end_pt1, end_pt2 WITH reg2\n";
  s += "C$    CONSTRUCT G (nnode, LINK(nedge, end_pt1, end_pt2))\n";
  s += std::string("C$    SET distfmt BY PARTITIONING G USING ") +
       w.partitioner + "\n";
  s += "C$    REDISTRIBUTE reg(distfmt)\n";
  s += "      DO step = 1, nstep\n";
  s += "      FORALL i = 1, nedge\n";
  s += "        REDUCE(ADD, y(end_pt1(i)), (x(end_pt1(i)) - x(end_pt2(i))) "
       "* (x(end_pt1(i)) + x(end_pt2(i))) * " + h + ")\n";
  s += "        REDUCE(ADD, y(end_pt2(i)), (x(end_pt2(i)) - x(end_pt1(i))) "
       "* (x(end_pt1(i)) + x(end_pt2(i))) * " + h + ")\n";
  s += "      END FORALL\n";
  s += "      END DO\n";
  return s;
}

}  // namespace

const WorkloadDef* find_workload(const std::string& name) {
  for (const auto& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

Inputs make_inputs(const WorkloadDef& w, u64 seed) {
  Inputs in;
  in.seed = seed;
  if (w.input == Input::Md648) {
    // Cutoff 6 A gives ~90 neighbours per atom, the pair density the
    // repository's table benches use for the 648-atom system.
    const wl::MdSystem s = wl::make_water_box(6, 6.0, seed);
    in.nnodes = s.natoms;
    in.nedges = s.npairs;
    in.e1 = s.pair1;
    in.e2 = s.pair2;
    in.cx = s.x;
    in.cy = s.y;
    in.cz = s.z;
    in.flops_per_edge = 40.0;
  } else {
    const wl::Mesh m =
        w.input == Input::Mesh53k ? wl::mesh_53k(seed) : wl::mesh_10k(seed);
    in.nnodes = m.nnodes;
    in.nedges = m.nedges;
    in.e1 = m.edge1;
    in.e2 = m.edge2;
    in.cx = m.x;
    in.cy = m.y;
    in.cz = m.z;
    in.flops_per_edge = 30.0;
  }
  in.x.resize(static_cast<std::size_t>(in.nnodes));
  for (i64 g = 0; g < in.nnodes; ++g) {
    in.x[static_cast<std::size_t>(g)] = 1.0 + 1.0 / (1.0 + static_cast<f64>(g));
  }
  return in;
}

Reference serial_reference(const WorkloadDef& w, const Inputs& in) {
  const auto n = static_cast<std::size_t>(in.nnodes);
  Reference ref;
  ref.y.assign(n, 0.0);
  ref.scale.assign(n, 0.0);
  std::vector<i64> e1 = in.e1, e2 = in.e2;
  const f64 h = in.flops_per_edge / 2.0;
  for (int s = 0; s < w.nsteps; ++s) {
    if (adapts_at(w, s)) {
      const int k = s / kAdaptEvery;
      for (i64 g = 0; g < in.nedges; ++g) {
        const auto e = static_cast<std::size_t>(g);
        e1[e] = rewired(in.seed, k, g, 0, e1[e], in.nnodes);
        e2[e] = rewired(in.seed, k, g, 1, e2[e], in.nnodes);
      }
    }
    for (std::size_t e = 0; e < e1.size(); ++e) {
      const auto a = static_cast<std::size_t>(e1[e]);
      const auto b = static_cast<std::size_t>(e2[e]);
      const f64 xa = in.x[a], xb = in.x[b];
      const f64 f = (xa - xb) * (xa + xb) * h;
      const f64 g = (xb - xa) * (xa + xb) * h;
      ref.y[a] += f;
      ref.y[b] += g;
      ref.scale[a] += std::abs(f);
      ref.scale[b] += std::abs(g);
    }
  }
  return ref;
}

f64 serial_sweep_us(const Inputs& in) {
  // Timed after 50 ms of warm-up sweeps: a 40 µs sweep timed from a cold
  // core reads up to twice too slow.
  const f64 h = in.flops_per_edge / 2.0;
  std::vector<f64> acc(static_cast<std::size_t>(in.nnodes), 0.0), times;
  const auto start = Clock::now();
  while (times.size() < 21 || since(start) < 0.35) {
    const auto t0 = Clock::now();
    for (std::size_t e = 0; e < in.e1.size(); ++e) {
      const auto a = static_cast<std::size_t>(in.e1[e]);
      const auto b = static_cast<std::size_t>(in.e2[e]);
      const f64 xa = in.x[a], xb = in.x[b];
      acc[a] += (xa - xb) * (xa + xb) * h;
      acc[b] += (xb - xa) * (xa + xb) * h;
    }
    if (since(start) >= 0.05) times.push_back(since(t0) * 1e6);
  }
  volatile f64 sink = acc[0];
  (void)sink;
  return median(times);
}

std::string check_against_reference(const JobResult& r, const Reference& ref) {
  if (r.y.size() != ref.y.size()) return "result has the wrong length";
  for (std::size_t g = 0; g < ref.y.size(); ++g) {
    const f64 err = std::abs(r.y[g] - ref.y[g]);
    if (!(err <= kRelTol * ref.scale[g])) {
      return "y(" + std::to_string(g) + ") = " + std::to_string(r.y[g]) +
             " differs from the serial reference " + std::to_string(ref.y[g]);
    }
  }
  return "";
}

// --- Runner ------------------------------------------------------------------

struct Runner::RankOut {
  f64 setup_end = 0;  // seconds since the job's start
  f64 job_end = 0;
  std::vector<f64> step_end;
  f64 modeled_us = 0;
  std::vector<i64> globals;
  std::vector<f64> y;
  core::InspectorCache::Stats ledger;
  std::optional<lang::Instance> inst;  // VM: kept for the fetch run
};

Runner::Runner(const WorkloadDef& w, const Inputs& in, rt::Machine& m)
    : w_(w),
      in_(in),
      machine_(m),
      supervisor_(m, rt::RetryPolicy{.max_attempts = 1}),
      out_(static_cast<std::size_t>(m.nprocs())) {
  for (auto& o : out_) o.step_end.assign(static_cast<std::size_t>(w.nsteps), 0);
  if (w.kind == Kind::Vm) {
    source_ = figure4_source(w, in.flops_per_edge / 2.0);
    e1_1based_ = in.e1;
    e2_1based_ = in.e2;
    for (auto& v : e1_1based_) v += 1;
    for (auto& v : e2_1based_) v += 1;
  }
}

Runner::~Runner() = default;

JobResult Runner::run_job(Tracer* tracer) {
  return w_.kind == Kind::Vm ? run_vm(tracer) : run_hand(tracer);
}

void Runner::hand_body(rt::Process& p, RankOut& out, Tracer* tr) {
  const Inputs& in = in_;
  const int rank = p.rank();
  std::optional<Scope> root;
  root.emplace(tr, p, SpanName::Setup);

  std::optional<Scope> arrays;
  arrays.emplace(tr, p, SpanName::Arrays);
  auto reg = dist::Distribution::block(p, in.nnodes);
  auto reg2 = dist::Distribution::block(p, in.nedges);
  dist::DistributedArray<f64> x(p, reg), y(p, reg, 0.0);
  x.fill_by_global([&](i64 g) { return in.x[static_cast<std::size_t>(g)]; });
  dist::DistributedArray<i64> e1(p, reg2), e2(p, reg2);
  e1.fill_by_global([&](i64 g) { return in.e1[static_cast<std::size_t>(g)]; });
  e2.fill_by_global([&](i64 g) { return in.e2[static_cast<std::size_t>(g)]; });
  arrays.reset();
  core::ReuseRegistry registry;

  std::shared_ptr<const dist::Distribution> data_dist;
  {
    std::shared_ptr<const core::GeoCol> geocol;
    {
      Scope s(tr, p, SpanName::GeoCol);
      core::GeoColBuilder builder(p, reg);
      if (std::string_view(w_.partitioner) == "RCB") {
        std::vector<f64> xc, yc, zc;
        for (i64 l = 0; l < reg->my_local_size(); ++l) {
          const auto g = static_cast<std::size_t>(reg->global_of(rank, l));
          xc.push_back(in.cx[g]);
          yc.push_back(in.cy[g]);
          zc.push_back(in.cz[g]);
        }
        const std::span<const f64> coords[] = {xc, yc, zc};
        builder.geometry(coords);
      } else {
        builder.link(e1.local(), e2.local());
      }
      geocol = builder.build();
    }
    Scope s(tr, p, SpanName::Partition);
    data_dist = core::set_by_partitioning(p, *geocol, w_.partitioner);
  }
  {
    Scope s(tr, p, SpanName::Remap);
    core::Redistributor rd(&registry);
    rd.add(x).add(y);
    rd.apply(p, data_dist);
  }

  core::PlanOptions opts = with_flat_locate(core::PlanOptions{});
  std::optional<dist::TranslationCache> tcache;
  if (w_.kind == Kind::Adapt) {
    tcache.emplace(1 << 14);
    opts.translation_cache = &*tcache;
  }
  core::InspectorCache cache;
  std::shared_ptr<core::EdgeLoopPlan> cached;
  core::EdgeLoopPlan rebuilt;  // NoReuse: re-inspected in place every step
  rebuilt.iws.configure(opts);

  auto acquire = [&](int step) -> const core::EdgeLoopPlan& {
    if (w_.kind == Kind::NoReuse) {
      rebuilt.build.begin_build();
      const std::span<const i64> batches[] = {e1.local(), e2.local()};
      {
        Scope s(tr, p, SpanName::IterPartition, step);
        rebuilt.iters =
            core::partition_iterations(p, *reg2, *data_dist, batches);
      }
      {
        Scope s(tr, p, SpanName::Remap, step);
        rebuilt.end1 = dist::apply_remap<i64>(p, rebuilt.iters.remap, e1.local());
        rebuilt.end2 = dist::apply_remap<i64>(p, rebuilt.iters.remap, e2.local());
      }
      {
        Scope s(tr, p, SpanName::Inspector, step);
        const std::span<const i64> remapped[] = {rebuilt.end1, rebuilt.end2};
        core::localize_many(p, *data_dist, remapped, rebuilt.iws, rebuilt.loc);
      }
      rebuilt.build.mark_built();
      return rebuilt;
    }
    auto build = [&] {
      Scope s(tr, p, SpanName::Inspector, step);
      return core::EdgeReductionLoop::inspect(
          p, *reg2, e1.local(), e2.local(), *data_dist,
          core::IterRule::MostLocalReferences, opts);
    };
    Scope s(tr, p, SpanName::Guard, step);
    if (w_.kind == Kind::Adapt) {
      cached = cache.get_or_build<core::EdgeLoopPlan>(
          kLoopId, registry, {x.dad(), y.dad()}, {e1.dad()}, build,
          [&](const std::shared_ptr<core::EdgeLoopPlan>& plan) {
            Scope r(tr, p, SpanName::Repair, step);
            return core::EdgeReductionLoop::repair(p, *plan, e1.local(),
                                                   e2.local(), *data_dist);
          });
    } else {
      cached = cache.get_or_build<core::EdgeLoopPlan>(
          kLoopId, registry, {x.dad(), y.dad()}, {e1.dad()}, build);
    }
    return *cached;
  };

  const f64 h = in.flops_per_edge / 2.0;
  auto f = [h](f64 a, f64 b) { return (a - b) * (a + b) * h; };
  auto g = [h](f64 a, f64 b) { return (b - a) * (a + b) * h; };
  for (int s = 0; s < w_.nsteps; ++s) {
    std::optional<Scope> step_root;
    if (s > 0) step_root.emplace(tr, p, SpanName::Step, s);
    if (adapts_at(w_, s)) {
      const int k = s / kAdaptEvery;
      const std::span<i64> l1 = e1.local(), l2 = e2.local();
      for (std::size_t l = 0; l < l1.size(); ++l) {
        const i64 eg = reg2->global_of(rank, static_cast<i64>(l));
        l1[l] = rewired(in.seed, k, eg, 0, l1[l], in.nnodes);
        l2[l] = rewired(in.seed, k, eg, 1, l2[l], in.nnodes);
      }
      registry.note_write(e1.dad());
    }
    const core::EdgeLoopPlan& plan = acquire(s);
    if (s == 0) {  // the first inspector ends set-up
      root.reset();
      out.setup_end = since(t0_);
      step_root.emplace(tr, p, SpanName::Step, 0);
    }
    {
      Scope e(tr, p, SpanName::Executor, s);
      core::EdgeReductionLoop::execute(p, plan, x, y, f, g, in.flops_per_edge);
    }
    step_root.reset();
    out.step_end[static_cast<std::size_t>(s)] = since(t0_);
  }
  out.modeled_us = p.clock().now_us();
  out.job_end = out.step_end.back();

  // Outputs for the host-side checks; nothing below is timed.
  out.y.assign(y.local().begin(), y.local().end());
  out.globals = y.dist().my_globals();
  out.ledger = cache.stats();
}

JobResult Runner::run_hand(Tracer* tr) {
  t0_ = Clock::now();
  supervisor_.run_phase("benchmark job", [&](rt::Process& p) {
    hand_body(p, out_[static_cast<std::size_t>(p.rank())], tr);
  });
  JobResult r;
  f64 prev = 0;
  for (int s = 0; s < w_.nsteps; ++s) {
    f64 end = 0;
    for (const auto& o : out_) end = std::max(end, o.step_end[static_cast<std::size_t>(s)]);
    if (s > 0) r.step_us.push_back((end - prev) * 1e6);
    prev = end;
  }
  r.y.assign(static_cast<std::size_t>(in_.nnodes), std::nan(""));
  for (const auto& o : out_) {
    r.setup_s = std::max(r.setup_s, o.setup_end);
    r.job_s = std::max(r.job_s, o.job_end);
    r.modeled_s = std::max(r.modeled_s, o.modeled_us * 1e-6);
    for (std::size_t k = 0; k < o.globals.size(); ++k) {
      r.y[static_cast<std::size_t>(o.globals[k])] = o.y[k];
    }
    if (o.ledger.hits != out_[0].ledger.hits ||
        o.ledger.misses != out_[0].ledger.misses ||
        o.ledger.repairs != out_[0].ledger.repairs ||
        o.ledger.repair_fallbacks != out_[0].ledger.repair_fallbacks) {
      r.error = "ranks disagree on the reuse ledger";
    }
  }
  r.ledger = out_[0].ledger;
  check_machine(r);
  return r;
}

void Runner::vm_body(rt::Process& p, const lang::Program& prog, int nsteps,
                     RankOut& out, Tracer* tr) {
  {
    Scope s(tr, p, SpanName::Execute);
    out.inst.emplace(prog);
    lang::Instance& inst = *out.inst;
    inst.set_param("NNODE", in_.nnodes);
    inst.set_param("NEDGE", in_.nedges);
    inst.set_param("NSTEP", nsteps);
    inst.bind_real("X", in_.x);
    inst.bind_int("END_PT1", e1_1based_);
    inst.bind_int("END_PT2", e2_1based_);
    inst.set_options(with_flat_locate(core::PlanOptions{}));
    inst.execute(p);
  }
  out.modeled_us = p.clock().now_us();
  out.job_end = since(t0_);
}

JobResult Runner::run_vm(Tracer* tr) {
  JobResult r;
  std::optional<lang::Program> prog;  // outlives every Instance built from it
  // Pass 0 is set-up: compile + the program with NSTEP = 0 (the VM inspects
  // lazily, at the first sweep). Pass 1 is the whole job.
  for (int pass = 0; pass < 2; ++pass) {
    const int nsteps = pass == 0 ? 0 : w_.nsteps;
    t0_ = Clock::now();
    {
      Scope root(tr, pass == 0 ? SpanName::Setup : SpanName::Job);
      {
        Scope s(tr, SpanName::Compile);
        prog.emplace(lang::compile(source_));
      }
      supervisor_.run_phase("benchmark job", [&](rt::Process& p) {
        vm_body(p, *prog, nsteps, out_[static_cast<std::size_t>(p.rank())], tr);
      });
    }
    f64 end = 0, modeled = 0;
    for (const auto& o : out_) {
      end = std::max(end, o.job_end);
      modeled = std::max(modeled, o.modeled_us * 1e-6);
    }
    if (pass == 0) {
      r.setup_s = end;
      for (auto& o : out_) o.inst.reset();
      continue;
    }
    r.job_s = end;
    r.modeled_s = modeled;
    r.step_us.push_back((r.job_s - r.setup_s) / w_.nsteps * 1e6);
    r.plan = out_[0].inst->cache_stats();
    for (const auto& o : out_) {
      const lang::PhaseTimes& ph = o.inst->phases();
      r.phases.graph_gen = std::max(r.phases.graph_gen, ph.graph_gen);
      r.phases.partition = std::max(r.phases.partition, ph.partition);
      r.phases.remap = std::max(r.phases.remap, ph.remap);
      r.phases.inspector = std::max(r.phases.inspector, ph.inspector);
      r.phases.executor = std::max(r.phases.executor, ph.executor);
    }
    check_machine(r);
    // A separate run fetches Y, so the check's collectives never touch the
    // job's clocks or counters.
    supervisor_.run_phase("benchmark check", [&](rt::Process& p) {
      std::vector<f64> yv =
          out_[static_cast<std::size_t>(p.rank())].inst->fetch_real(p, "Y");
      if (p.is_root()) r.y = std::move(yv);
    });
    for (auto& o : out_) o.inst.reset();
  }
  return r;
}

void Runner::check_machine(JobResult& r) {
  r.totals = machine_.total_stats();
  const auto& t = r.totals;
  auto fail = [&](const std::string& msg) {
    if (r.error.empty()) r.error = msg;
  };
  if (t.faults_injected != 0 || t.timeouts != 0 || t.poisoned_waits != 0) {
    fail("fault, timeout or poison counters are nonzero");
  }
  const core::SupervisorStats& sv = supervisor_.stats();
  if (sv.retries != 0 || sv.recoveries != 0 || sv.gave_up != 0) {
    fail("the supervisor retried");
  }
  if (!machine_.recover_report().dirty_shards.empty()) {
    fail("the job left messages in mailbox shards");
  }
  if (w_.kind != Kind::Adapt &&
      (t.schedule_repairs != 0 || t.repair_fallbacks != 0)) {
    fail("schedule repair fired on a workload that never rewires");
  }

  const i64 n = w_.nsteps;
  core::InspectorCache::Stats want;
  const core::InspectorCache::Stats* got = &r.ledger;
  switch (w_.kind) {
    case Kind::Reuse:
      want = {.hits = n - 1, .misses = 1};
      break;
    case Kind::NoReuse:
      break;
    case Kind::Adapt: {
      // Every adaptation is a repair except the big one, which falls back
      // to a full rebuild (a second miss).
      const i64 adaptations = (n - 1) / kAdaptEvery;
      want = {.hits = n - 1 - adaptations,
              .misses = 2,
              .repairs = adaptations - 1,
              .repair_fallbacks = 1};
      break;
    }
    case Kind::Vm:
      want = {.hits = n - 1, .misses = 1};
      got = &r.plan;
      break;
  }
  if (got->hits != want.hits || got->misses != want.misses ||
      got->repairs != want.repairs ||
      got->repair_fallbacks != want.repair_fallbacks) {
    fail("reuse ledger " + std::to_string(got->hits) + " hits, " +
         std::to_string(got->repairs) + " repairs, " +
         std::to_string(got->repair_fallbacks) + " fallbacks, " +
         std::to_string(got->misses) + " misses; expected " +
         std::to_string(want.hits) + "/" + std::to_string(want.repairs) +
         "/" + std::to_string(want.repair_fallbacks) + "/" +
         std::to_string(want.misses));
  }
}

}  // namespace bench

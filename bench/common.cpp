#include "bench/common.hpp"

#include <map>
#include <memory>
#include <mutex>

#include "dist/translation_cache.hpp"

namespace chaos::bench {

namespace {

Workload from_mesh(const wl::Mesh& m, std::string name) {
  Workload w;
  w.name = std::move(name);
  w.nnodes = m.nnodes;
  w.nedges = m.nedges;
  w.e1 = m.edge1;
  w.e2 = m.edge2;
  w.cx = m.x;
  w.cy = m.y;
  w.cz = m.z;
  w.flops_per_edge = 30.0;
  return w;
}

bool needs_geometry(const std::string& partitioner) {
  return partitioner == "RCB" || partitioner == "INERTIAL" ||
         partitioner == "RCB+KL";
}
bool needs_link(const std::string& partitioner) {
  return partitioner == "RSB" || partitioner == "RSB+KL" ||
         partitioner == "RCB+KL";
}

}  // namespace

rt::Machine& pooled_machine(int procs) {
  static std::map<int, std::unique_ptr<rt::Machine>> machines;
  auto& slot = machines[procs];
  if (!slot) slot = std::make_unique<rt::Machine>(procs);
  return *slot;
}

Workload workload_mesh_10k() { return from_mesh(wl::mesh_10k(), "10K mesh"); }
Workload workload_mesh_53k() { return from_mesh(wl::mesh_53k(), "53K mesh"); }
Workload workload_mesh_tiny() { return from_mesh(wl::mesh_tiny(), "tiny mesh"); }

Workload workload_md_648() {
  // Cutoff chosen so the pair density (~90 neighbors/atom) matches the
  // per-iteration loop cost the paper's 648-atom timings imply; the paper
  // does not state the CHARMM cutoff it used.
  const wl::MdSystem s = wl::make_water_box(6, 6.0);
  Workload w;
  w.name = "648 atoms";
  w.nnodes = s.natoms;
  w.nedges = s.npairs;
  w.e1 = s.pair1;
  w.e2 = s.pair2;
  w.cx = s.x;
  w.cy = s.y;
  w.cz = s.z;
  w.flops_per_edge = 40.0;  // electrostatic kernel is a bit heavier
  return w;
}

PhaseResult run_hand_pipeline(int procs, const Workload& w,
                              const PipelineConfig& cfg) {
  PhaseResult result;
  const auto wall_start = std::chrono::steady_clock::now();

  // The whole pipeline is one supervised phase: each attempt rebuilds every
  // phase product from the workload inputs, so a retried transient replays
  // cleanly and the successful attempt's modeled clocks match a clean run.
  // The default policy (max_attempts = 1) makes this exactly machine.run.
  rt::Machine& machine = pooled_machine(procs);
  core::Supervisor supervisor(machine, cfg.retry);
  supervisor.run_phase("hand_pipeline", [&](rt::Process& p) {
    f64 t_graph = 0, t_part = 0, t_insp = 0, t_remap = 0, t_exec = 0;

    auto reg = dist::Distribution::block(p, w.nnodes);
    auto reg2 = dist::Distribution::block(p, w.nedges);
    dist::DistributedArray<f64> x(p, reg), y(p, reg, 0.0);
    x.fill_by_global([](i64 g) {
      return 1.0 + 1.0 / (1.0 + static_cast<f64>(g));
    });

    std::vector<i64> e1, e2;
    for (i64 l = 0; l < reg2->my_local_size(); ++l) {
      const i64 e = reg2->global_of(p.rank(), l);
      e1.push_back(w.e1[static_cast<std::size_t>(e)]);
      e2.push_back(w.e2[static_cast<std::size_t>(e)]);
    }

    std::shared_ptr<const dist::Distribution> data_dist = reg;
    core::ReuseRegistry registry;

    if (cfg.partitioner != "HPF-BLOCK") {
      // Phase A: GeoCoL construction with exactly the clauses the chosen
      // partitioner consumes.
      {
        rt::ClockSection t(p.clock());
        core::GeoColBuilder builder(p, reg);
        std::vector<f64> xc, yc, zc;
        if (needs_geometry(cfg.partitioner)) {
          for (i64 l = 0; l < reg->my_local_size(); ++l) {
            const i64 g = reg->global_of(p.rank(), l);
            xc.push_back(w.cx[static_cast<std::size_t>(g)]);
            yc.push_back(w.cy[static_cast<std::size_t>(g)]);
            zc.push_back(w.cz[static_cast<std::size_t>(g)]);
          }
          const std::span<const f64> coords[] = {xc, yc, zc};
          builder.geometry(coords);
        }
        if (needs_link(cfg.partitioner)) builder.link(e1, e2);
        auto geocol = builder.build();
        t_graph += t.elapsed_sec();

        // Phase B: partition.
        rt::ClockSection t2(p.clock());
        data_dist = core::set_by_partitioning(p, *geocol, cfg.partitioner,
                                              cfg.ttable_page_size);
        t_part += t2.elapsed_sec();
      }
      // Phase C: remap the data arrays.
      {
        rt::ClockSection t(p.clock());
        core::Redistributor rd(&registry);
        rd.add(x).add(y);
        rd.apply(p, data_dist);
        t_remap += t.elapsed_sec();
      }
    }

    // Phases B(iteration)/D inspector, re-run per sweep when reuse is off.
    // The optional translation cache outlives the plan's workspace that
    // probes it; it binds to data_dist's DAD on the first localize and stays
    // warm across the no-reuse rebuilds — exactly the CHAOS software-caching
    // configuration the flag exists to quantify.
    core::PlanOptions opts;
    std::unique_ptr<dist::TranslationCache> tcache;
    if (cfg.translation_cache) {
      tcache = std::make_unique<dist::TranslationCache>(1 << 18);
      opts.translation_cache = tcache.get();
    }
    core::EdgeLoopPlan plan;
    plan.iws.configure(opts);
    auto build_plan = [&] {
      plan.build.begin_build();
      {
        rt::ClockSection t(p.clock());
        const std::span<const i64> batches[] = {e1, e2};
        plan.iters = core::partition_iterations(
            p, *reg2, *data_dist, batches, cfg.iter_rule,
            cfg.ttable_page_size);
        plan.end1 = dist::apply_remap<i64>(p, plan.iters.remap, e1);
        plan.end2 = dist::apply_remap<i64>(p, plan.iters.remap, e2);
        t_remap += t.elapsed_sec();
      }
      {
        rt::ClockSection t(p.clock());
        const std::span<const i64> remapped[] = {plan.end1, plan.end2};
        // Workspace overload: when reuse is off and the plan is rebuilt
        // every iteration, the re-localize runs through warm buffers.
        core::localize_many(p, *data_dist, remapped, plan.iws, plan.loc);
        t_insp += t.elapsed_sec();
      }
      plan.build.mark_built();
    };

    const f64 half_flops = w.flops_per_edge / 2.0;
    for (int it = 0; it < cfg.iterations; ++it) {
      if (it == 0 || !cfg.schedule_reuse) build_plan();
      rt::ClockSection t(p.clock());
      core::EdgeReductionLoop::execute(
          p, plan, x, y,
          [half_flops](f64 a, f64 b) { return (a - b) * (a + b) * half_flops; },
          [half_flops](f64 a, f64 b) { return (b - a) * (a + b) * half_flops; },
          w.flops_per_edge);
      t_exec += t.elapsed_sec();
    }

    // Reduce to machine-level numbers.
    const f64 mg = rt::allreduce_max(p, t_graph);
    const f64 mp = rt::allreduce_max(p, t_part);
    const f64 mi = rt::allreduce_max(p, t_insp);
    const f64 mr = rt::allreduce_max(p, t_remap);
    const f64 me = rt::allreduce_max(p, t_exec);
    const i64 msgs =
        rt::allreduce_sum(p, plan.loc.schedule.messages(p.rank()));
    const i64 vol =
        rt::allreduce_sum(p, plan.loc.schedule.send_volume(p.rank()));
    if (p.is_root()) {
      result.graph_gen = mg;
      result.partitioner = mp;
      result.inspector = mi;
      result.remap = mr;
      result.executor = me;
      result.gather_messages = msgs;
      result.gather_volume = vol;
    }
  });
  const rt::MessageStats totals = machine.total_stats();
  result.alltoallv_calls = totals.alltoallv_calls;
  result.alltoallv_bytes = totals.alltoallv_bytes;
  result.faults_injected = totals.faults_injected;
  result.timeouts = totals.timeouts;
  result.poisoned_waits = totals.poisoned_waits;
  result.retries = supervisor.stats().retries;
  result.recoveries = supervisor.stats().recoveries;
  result.backoff_wall_ms = supervisor.stats().backoff_wall_ms;
  result.checkpoint_captures = totals.checkpoint_captures;
  result.checkpoint_bytes = totals.checkpoint_bytes;
  result.restored_segments = totals.restored_segments;
  result.restored_bytes = totals.restored_bytes;
  result.shrinks = machine.shrink_count();
  result.schedule_repairs = totals.schedule_repairs;
  result.repair_fallbacks = totals.repair_fallbacks;
  // A clean run must leave every mailbox shard empty: a nonzero per-shard
  // breakdown here means a phase leaked messages it claims it consumed (the
  // recover() footgun, DESIGN.md §12). recover_report() on a clean machine
  // is a cheap no-op probe.
  if (supervisor.stats().attempts == 1) {
    const rt::RecoverReport post = machine.recover_report();
    CHAOS_CHECK(post.dirty_shards.empty(),
                "clean bench run left messages in mailbox shards");
    // This pipeline never mutates an indirection array after inspection, so
    // the repair path must never fire (DESIGN.md §14).
    CHAOS_CHECK(totals.schedule_repairs == 0 && totals.repair_fallbacks == 0,
                "non-adaptive bench run triggered schedule repair");
  }

  result.wall_seconds =
      std::chrono::duration<f64>(std::chrono::steady_clock::now() - wall_start)
          .count();
  return result;
}

PhaseResult run_compiler_pipeline(int procs, const Workload& w,
                                  const PipelineConfig& cfg) {
  PhaseResult result;
  const auto wall_start = std::chrono::steady_clock::now();

  // Assemble the Figure 4 program for this configuration.
  std::string source;
  source += "      REAL*8 x(nnode), y(nnode)\n";
  source += "      INTEGER end_pt1(nedge), end_pt2(nedge)\n";
  const bool partitioned = cfg.partitioner != "HPF-BLOCK";
  const bool geom = partitioned && needs_geometry(cfg.partitioner);
  if (geom) source += "      REAL*8 xc(nnode), yc(nnode), zc(nnode)\n";
  source += "C$    DYNAMIC, DECOMPOSITION reg(nnode), reg2(nedge)\n";
  source += "C$    DISTRIBUTE reg(BLOCK), reg2(BLOCK)\n";
  source += geom ? "C$    ALIGN x, y, xc, yc, zc WITH reg\n"
                 : "C$    ALIGN x, y WITH reg\n";
  source += "C$    ALIGN end_pt1, end_pt2 WITH reg2\n";
  if (partitioned) {
    source += "C$    CONSTRUCT G (nnode";
    if (geom) source += ", GEOMETRY(3, xc, yc, zc)";
    if (needs_link(cfg.partitioner)) {
      source += ", LINK(nedge, end_pt1, end_pt2)";
    }
    source += ")\n";
    source += "C$    SET distfmt BY PARTITIONING G USING " + cfg.partitioner +
              "\n";
    source += "C$    REDISTRIBUTE reg(distfmt)\n";
  }
  source += "      DO step = 1, " + std::to_string(cfg.iterations) + "\n";
  source += "      FORALL i = 1, nedge\n";
  const std::string half = std::to_string(w.flops_per_edge / 2.0);
  source += "        REDUCE(ADD, y(end_pt1(i)), (x(end_pt1(i)) - "
            "x(end_pt2(i))) * (x(end_pt1(i)) + x(end_pt2(i))) * " +
            half + ")\n";
  source += "        REDUCE(ADD, y(end_pt2(i)), (x(end_pt2(i)) - "
            "x(end_pt1(i))) * (x(end_pt1(i)) + x(end_pt2(i))) * " +
            half + ")\n";
  source += "      END FORALL\n";
  source += "      END DO\n";

  const auto program = lang::compile(source);
  std::vector<i64> e1 = w.e1, e2 = w.e2;
  for (auto& v : e1) v += 1;
  for (auto& v : e2) v += 1;
  std::vector<f64> x0(static_cast<std::size_t>(w.nnodes));
  for (i64 g = 0; g < w.nnodes; ++g) {
    x0[static_cast<std::size_t>(g)] =
        1.0 + 1.0 / (1.0 + static_cast<f64>(g));
  }

  rt::Machine& machine = pooled_machine(procs);
  core::Supervisor supervisor(machine, cfg.retry);
  supervisor.run_phase("compiler_pipeline", [&](rt::Process& p) {
    lang::Instance inst(program);
    inst.set_param("NNODE", w.nnodes);
    inst.set_param("NEDGE", w.nedges);
    inst.bind_real("X", x0);
    inst.bind_int("END_PT1", e1);
    inst.bind_int("END_PT2", e2);
    if (geom) {
      inst.bind_real("XC", w.cx);
      inst.bind_real("YC", w.cy);
      inst.bind_real("ZC", w.cz);
    }
    inst.set_schedule_reuse(cfg.schedule_reuse);
    inst.execute(p);

    const auto& ph = inst.phases();
    const f64 mg = rt::allreduce_max(p, ph.graph_gen);
    const f64 mp = rt::allreduce_max(p, ph.partition);
    const f64 mi = rt::allreduce_max(p, ph.inspector);
    const f64 mr = rt::allreduce_max(p, ph.remap);
    const f64 me = rt::allreduce_max(p, ph.executor);
    if (p.is_root()) {
      result.graph_gen = mg;
      result.partitioner = mp;
      result.inspector = mi;
      result.remap = mr;
      result.executor = me;
    }
  });
  const rt::MessageStats totals = machine.total_stats();
  result.alltoallv_calls = totals.alltoallv_calls;
  result.alltoallv_bytes = totals.alltoallv_bytes;
  result.faults_injected = totals.faults_injected;
  result.timeouts = totals.timeouts;
  result.poisoned_waits = totals.poisoned_waits;
  result.retries = supervisor.stats().retries;
  result.recoveries = supervisor.stats().recoveries;
  result.backoff_wall_ms = supervisor.stats().backoff_wall_ms;
  result.checkpoint_captures = totals.checkpoint_captures;
  result.checkpoint_bytes = totals.checkpoint_bytes;
  result.restored_segments = totals.restored_segments;
  result.restored_bytes = totals.restored_bytes;
  result.shrinks = machine.shrink_count();
  result.schedule_repairs = totals.schedule_repairs;
  result.repair_fallbacks = totals.repair_fallbacks;
  // A clean run must leave every mailbox shard empty: a nonzero per-shard
  // breakdown here means a phase leaked messages it claims it consumed (the
  // recover() footgun, DESIGN.md §12). recover_report() on a clean machine
  // is a cheap no-op probe.
  if (supervisor.stats().attempts == 1) {
    const rt::RecoverReport post = machine.recover_report();
    CHAOS_CHECK(post.dirty_shards.empty(),
                "clean bench run left messages in mailbox shards");
    // The Figure 4 program never rewrites end_pt1/end_pt2 mid-run, so the
    // repair path must never fire (DESIGN.md §14).
    CHAOS_CHECK(totals.schedule_repairs == 0 && totals.repair_fallbacks == 0,
                "non-adaptive bench run triggered schedule repair");
  }

  result.wall_seconds =
      std::chrono::duration<f64>(std::chrono::steady_clock::now() - wall_start)
          .count();
  return result;
}

void print_header(const std::string& title,
                  const std::vector<std::string>& columns) {
  std::printf("\n%s\n", title.c_str());
  std::printf("%-28s", "");
  for (const auto& c : columns) std::printf(" | %18s", c.c_str());
  std::printf("\n%-28s", "(measured / paper, sec)");
  for (std::size_t i = 0; i < columns.size(); ++i) {
    std::printf(" | %8s  %8s", "measured", "paper");
  }
  std::printf("\n");
  for (int i = 0; i < 28 + static_cast<int>(columns.size()) * 21; ++i) {
    std::printf("-");
  }
  std::printf("\n");
}

void print_row(const std::string& label, const std::vector<f64>& measured,
               const std::vector<f64>& paper) {
  std::printf("%-28s", label.c_str());
  for (std::size_t i = 0; i < measured.size(); ++i) {
    if (i < paper.size() && paper[i] >= 0.0) {
      std::printf(" | %8.2f  %8.2f", measured[i], paper[i]);
    } else {
      std::printf(" | %8.2f  %8s", measured[i], "-");
    }
  }
  std::printf("\n");
}

void print_footer(const RobustnessTally& tally) {
  std::printf(
      "note: measured = modeled virtual seconds on the simulated iPSC/860 "
      "(max over processes).\n");
  if (tally.schedule_repairs > 0 || tally.repair_fallbacks > 0) {
    std::printf("repairs: %lld schedules repaired in place, %lld fallbacks "
                "to full re-inspection (DESIGN.md §14).\n",
                static_cast<long long>(tally.schedule_repairs),
                static_cast<long long>(tally.repair_fallbacks));
  }
  if (tally.clean()) {
    std::printf("robustness: clean run (0 faults injected, 0 timeouts, "
                "0 poisoned waits, 0 retries).\n");
    return;
  }
  if (tally.checkpoint_captures > 0 || tally.restored_segments > 0 ||
      tally.shrinks > 0) {
    std::printf("degradation: %lld checkpoint captures, %lld segments "
                "restored, %lld machine shrink%s survived.\n",
                static_cast<long long>(tally.checkpoint_captures),
                static_cast<long long>(tally.restored_segments),
                static_cast<long long>(tally.shrinks),
                tally.shrinks == 1 ? "" : "s");
  }
  if (tally.faults_injected == 0 && tally.timeouts == 0 &&
      tally.poisoned_waits == 0 && tally.retries == 0 &&
      tally.recoveries == 0) {
    // Only the degradation counters were nonzero: the machine itself never
    // misbehaved (e.g. a bench that checkpoints proactively).
    std::printf("robustness: clean machine (0 faults injected, 0 timeouts, "
                "0 poisoned waits, 0 retries).\n");
  } else if (tally.retries > 0 && tally.faults_injected == 0 &&
             tally.timeouts == 0 && tally.poisoned_waits == 0) {
    // Final attempts were clean: the numbers above are healthy-machine
    // measurements, they just cost extra wall-clock to obtain.
    std::printf("robustness: recovered — %lld retries (%lld runs recovered, "
                "%.1f ms backoff wall-clock); final attempts were clean.\n",
                static_cast<long long>(tally.retries),
                static_cast<long long>(tally.recoveries),
                tally.backoff_wall_ms);
  } else {
    std::printf("robustness: %lld faults injected, %lld timeouts, %lld "
                "poisoned waits, %lld retries (%lld recoveries, %.1f ms "
                "backoff) — results above are NOT a healthy-machine "
                "measurement.\n",
                static_cast<long long>(tally.faults_injected),
                static_cast<long long>(tally.timeouts),
                static_cast<long long>(tally.poisoned_waits),
                static_cast<long long>(tally.retries),
                static_cast<long long>(tally.recoveries),
                tally.backoff_wall_ms);
  }
}

}  // namespace chaos::bench

#include "layers.hpp"

#include <algorithm>

#include "stats.hpp"

namespace bench {

namespace {

bool is_harness(SpanName n) {
  return n == SpanName::Setup || n == SpanName::Step || n == SpanName::Job;
}

constexpr std::size_t idx(SpanName n) { return static_cast<std::size_t>(n); }

}  // namespace

bool LayerTrace::add_job(const Tracer& t, const JobResult& r) {
  for (auto& list : occ_) list.clear();
  std::vector<f64> child_dur;
  std::vector<char> has_child;
  for (int rank = 0; rank < t.nranks(); ++rank) {
    const RankTrace& rt = t.rank(rank);
    const Span* sp = rt.begin();
    const std::size_t n = rt.size();
    child_dur.assign(n, 0.0);
    has_child.assign(n, 0);
    for (std::size_t i = 0; i < n; ++i) {
      if (sp[i].parent < 0) continue;
      const auto parent = static_cast<std::size_t>(sp[i].parent);
      child_dur[parent] += sp[i].wall_e - sp[i].wall_b;
      has_child[parent] = 1;
    }
    std::array<std::size_t, kNames> seen{};
    for (std::size_t i = 0; i < n; ++i) {
      const Span& s = sp[i];
      const std::size_t k = seen[idx(s.name)]++;
      auto& list = occ_[idx(s.name)];
      if (list.size() <= k) list.resize(k + 1);
      Occurrence& o = list[k];
      const f64 dur = s.wall_e - s.wall_b;
      o.begin_min = o.ranks == 0 ? s.wall_b : std::min(o.begin_min, s.wall_b);
      o.begin_max = o.ranks == 0 ? s.wall_b : std::max(o.begin_max, s.wall_b);
      o.dur = std::max(o.dur, dur);
      o.modeled = std::max(o.modeled, s.mod_e - s.mod_b);
      o.self = std::max(o.self, dur - child_dur[i]);
      o.has_child = o.has_child || has_child[i] != 0;
      o.c += s.delta;
      ++o.ranks;
    }
  }

  f64 harness_self = 0;
  for (std::size_t ni = 0; ni < kNames; ++ni) {
    if (occ_[ni].empty()) continue;
    NameAcc& a = acc_[ni];
    f64 job_dur = 0, job_modeled = 0;
    for (const Occurrence& o : occ_[ni]) {
      // Rank-side spans appear on every rank, host-side ones on rank 0 only.
      if (o.ranks != t.nranks() && o.ranks != 1) return false;
      a.dur.push_back(o.dur);
      a.skew.push_back(o.begin_max - o.begin_min);
      a.modeled.push_back(o.modeled);
      a.a2a_bytes.push_back(static_cast<f64>(o.c.alltoallv_bytes));
      a.messages.push_back(static_cast<f64>(o.c.messages));
      job_dur += o.dur;
      job_modeled += o.modeled;
      if (ni == idx(SpanName::Guard) && !o.has_child) {
        guard_hit_us_.push_back(o.dur);
      }
      if (is_harness(static_cast<SpanName>(ni))) harness_self += o.self;
    }
    a.job_dur.push_back(job_dur);
    a.job_modeled.push_back(job_modeled);
  }
  harness_self_us_.push_back(harness_self);
  job_s_.push_back(r.job_s);

  // Per-step traffic. Hand workloads: the step spans after the first (step
  // 0's span covers only the sweep; its inspector belongs to set-up). VM:
  // the full run minus the set-up run, over NSTEP.
  Counters c;
  f64 steps = 0;
  if (w_.kind == Kind::Vm) {
    const auto& ex = occ_[idx(SpanName::Execute)];
    if (ex.size() == 2) {
      c = ex[1].c;
      c -= ex[0].c;
      steps = w_.nsteps;
      vm_execute_us_.push_back(ex[1].dur);
    }
  } else {
    const auto& st = occ_[idx(SpanName::Step)];
    for (std::size_t k = 1; k < st.size(); ++k) c += st[k].c;
    steps = st.empty() ? 0 : static_cast<f64>(st.size() - 1);
  }
  if (steps > 0) {
    per_step_.push_back({static_cast<f64>(c.barriers) / steps,
                         static_cast<f64>(c.collectives) / steps,
                         static_cast<f64>(c.alltoallv) / steps,
                         static_cast<f64>(c.alltoallv_bytes) / steps,
                         static_cast<f64>(c.locate_calls) / steps,
                         static_cast<f64>(c.wire_queries) / steps});
  }
  const i64 probes = r.totals.tcache_hits + r.totals.tcache_misses;
  tcache_ratio_.push_back(probes > 0 ? static_cast<f64>(r.totals.tcache_hits) /
                                           static_cast<f64>(probes)
                                     : 0.0);
  ledgers_.push_back(r.ledger);
  plans_.push_back(r.plan);
  phases_.push_back(r.phases);
  return true;
}

std::vector<Metric> LayerTrace::metrics(const LayerExtras& x) const {
  std::vector<Metric> m;
  auto add = [&](const char* name, f64 value, const char* unit) {
    m.push_back({name, value, unit});
  };
  auto acc = [&](SpanName n) -> const NameAcc& { return acc_[idx(n)]; };
  auto med_of = [](const auto& items, auto field) {
    std::vector<f64> v;
    for (const auto& it : items) v.push_back(static_cast<f64>(field(it)));
    return median(std::move(v));
  };
  auto step = [&](f64 PerStep::*f) {
    return med_of(per_step_, [f](const PerStep& s) { return s.*f; });
  };
  using Stats = chaos::core::InspectorCache::Stats;
  using Phases = chaos::lang::PhaseTimes;

  add("rt.dispatch_us", x.dispatch_us, "us");
  add("rt.barrier_us", x.barrier_us, "us");
  add("rt.allreduce_us", x.allreduce_us, "us");
  add("rt.stall_kicks", x.stall_kicks, "count");
  add("rt.barriers_per_step", step(&PerStep::barriers), "count");
  add("rt.collectives_per_step", step(&PerStep::collectives), "count");
  add("rt.alltoallv_per_step", step(&PerStep::alltoallv), "count");
  add("rt.alltoallv_bytes_per_step", step(&PerStep::alltoallv_bytes), "bytes");
  add("dist.locate_calls_per_step", step(&PerStep::locate_calls), "count");
  add("dist.wire_queries_per_step", step(&PerStep::wire_queries), "count");
  add("dist.tcache_hit_ratio", median(tcache_ratio_), "ratio");
  add("dist.remap_ms", median(acc(SpanName::Remap).job_dur) / 1e3, "ms");
  add("partition.ms", median(acc(SpanName::Partition).job_dur) / 1e3, "ms");
  add("partition.modeled_s",
      median(acc(SpanName::Partition).job_modeled) * 1e-6, "s");
  add("core.geocol.ms", median(acc(SpanName::GeoCol).job_dur) / 1e3, "ms");
  add("core.iter_partition.us", median(acc(SpanName::IterPartition).dur), "us");
  const NameAcc& insp = acc(SpanName::Inspector);
  add("core.inspector.us", median(insp.dur), "us");
  add("core.inspector.modeled_ms", median(insp.modeled) / 1e3, "ms");
  add("core.inspector.skew_us", median(insp.skew), "us");
  add("core.inspector.alltoallv_bytes", median(insp.a2a_bytes), "bytes");
  add("core.reuse.guard_us", median(guard_hit_us_), "us");
  add("core.reuse.hits", med_of(ledgers_, [](const Stats& s) { return s.hits; }),
      "count");
  add("core.reuse.misses",
      med_of(ledgers_, [](const Stats& s) { return s.misses; }), "count");
  add("core.repair.us", median(acc(SpanName::Repair).dur), "us");
  add("core.repair.count",
      med_of(ledgers_, [](const Stats& s) { return s.repairs; }), "count");
  add("core.repair.fallbacks",
      med_of(ledgers_, [](const Stats& s) { return s.repair_fallbacks; }),
      "count");
  add("core.repair.success_ratio",
      med_of(ledgers_,
             [](const Stats& s) {
               const i64 tried = s.repairs + s.repair_fallbacks;
               return tried > 0 ? static_cast<f64>(s.repairs) /
                                      static_cast<f64>(tried)
                                : 0.0;
             }),
      "ratio");
  add("core.repair.modeled_ms",
      median(acc(SpanName::Repair).job_modeled) / 1e3, "ms");
  const NameAcc& ex = acc(SpanName::Executor);
  add("core.executor.us", median(ex.dur), "us");
  add("core.executor.skew_us", median(ex.skew), "us");
  add("core.executor.modeled_ms", median(ex.modeled) / 1e3, "ms");
  // The gather and the scatter-add each move every ghost word once.
  add("core.executor.ghost_words", median(ex.a2a_bytes) / 16.0, "count");
  add("core.executor.messages", median(ex.messages), "count");
  add("core.executor.alltoallv_bytes", median(ex.a2a_bytes), "bytes");
  add("lang.compile_ms", median(acc(SpanName::Compile).dur) / 1e3, "ms");
  add("lang.execute_s", median(vm_execute_us_) * 1e-6, "s");
  add("lang.plan_hits", med_of(plans_, [](const Stats& s) { return s.hits; }),
      "count");
  add("lang.plan_misses",
      med_of(plans_, [](const Stats& s) { return s.misses; }), "count");
  add("lang.modeled.partition_s",
      med_of(phases_, [](const Phases& p) { return p.partition; }), "s");
  add("lang.modeled.inspector_s",
      med_of(phases_, [](const Phases& p) { return p.inspector; }), "s");
  add("lang.modeled.executor_s",
      med_of(phases_, [](const Phases& p) { return p.executor; }), "s");
  add("lang.overhead_us", x.overhead_us, "us");
  add("ref.serial_sweep_us", x.serial_sweep_us, "us");
  add("ref.speedup",
      x.untraced_step_us > 0 ? x.serial_sweep_us / x.untraced_step_us : 0.0,
      "ratio");
  add("harness.self_us", median(harness_self_us_), "us");
  add("trace.overhead_frac",
      x.untraced_job_s > 0 ? median(job_s_) / x.untraced_job_s - 1.0 : 0.0,
      "ratio");
  return m;
}

}  // namespace bench

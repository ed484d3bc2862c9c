// Ablation D: graceful degradation under PERMANENT rank failure
// (DESIGN.md §13).
//
// The degradation PR's contract, measured end to end: a chunked, partner-
// checkpointed edge-reduction pipeline hit by a seeded Permanent fault —
// which fires on EVERY visit once triggered, so retry can never outrun it —
// must
//   1. escalate through core::Supervisor to chaos::PermanentFault naming the
//      seeded rank, shrink the machine around it, restore the survivors'
//      state from the partner checkpoints (or restart from scratch when the
//      failure precedes the first commit), and COMPLETE on P-1 ranks — at
//      every injection site, for every victim rank;
//   2. reproduce the clean 8-rank run bit for bit: the data is integer-
//      valued, so every f64 sum is exact and the final array is independent
//      of machine width and summation order;
//   3. survive a second failure (8 -> 7 -> 6) by re-establishing partner
//      redundancy at the new width immediately after each restore, and
//      survive the 2 -> 1 collapse onto a lone survivor;
//   4. keep the degraded machine as cheap as the healthy one: warm executor
//      sweeps after the shrink perform 0 heap allocations (global
//      operator-new counting hook, bench/alloc_hook.cpp);
//   5. pay honest modeled charges: checkpoint captures and shrink-restores
//      are tallied in MessageStats, never free.
// Results go to BENCH_degrade.json; all gates are enforced in-binary.
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench/alloc_hook.hpp"
#include "bench/common.hpp"
#include "core/degrade.hpp"
#include "rt/checkpoint.hpp"
#include "rt/fault.hpp"

namespace bench = chaos::bench;
namespace core = chaos::core;
namespace dist = chaos::dist;
namespace rt = chaos::rt;
using chaos::f64;
using chaos::i64;
using chaos::u64;

namespace {

constexpr int kProcs = 8;
constexpr int kChunks = 4;       // checkpoint cadence: commit after each
constexpr int kChunkSweeps = 2;  // sweeps per chunk
constexpr i64 kPageSize = 1024;

u64 splitmix64(u64 x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// Integer-valued kernel: x holds small integers, each edge contributes
// 2*x(other) - x(self) to each endpoint. Every partial sum is an exactly
// representable f64, so the accumulated y is bit-identical at any machine
// width and any summation order — which is what makes "restored run ==
// clean run" a bitwise gate rather than a tolerance check.
f64 edge_f(f64 a, f64 b) { return 2.0 * b - a; }
f64 edge_g(f64 a, f64 b) { return 2.0 * a - b; }

/// Per-rank state, indexed by the CURRENT logical rank; rebuilt from scratch
/// or from the checkpoint whenever the machine changes width.
struct RankState {
  std::shared_ptr<const dist::Distribution> edges;
  std::shared_ptr<const dist::Distribution> data;
  std::optional<dist::DistributedArray<f64>> x, y;
  /// Working copy for the in-flight chunk: promoted into y only by the
  /// checkpoint phase, so a retried (or abandoned) chunk attempt never
  /// half-applies its sweeps.
  std::optional<dist::DistributedArray<f64>> y_work;
  std::vector<i64> e1, e2;
  std::vector<i64> globals;  // data->my_globals(), cached for capture
  std::shared_ptr<core::EdgeLoopPlan> plan;
};

struct RunOutcome {
  bool ok = false;
  bool completed = false;
  int final_width = 0;
  int restores = 0;   // shrink + restore-from-checkpoint recoveries
  int restarts = 0;   // shrink + restart-from-scratch recoveries
  std::vector<int> dead;  // culprit ranks in kill order (era-local numbering)
  std::vector<f64> y;     // final global array (root)
  long long warm_allocs = -1;
  rt::MessageStats charges;   // accumulated over every successful run
  core::SupervisorStats sup;
  std::string error;
};

/// One full degradation-supervised pipeline on @p machine, seeded with
/// @p faults (installed one at a time; the next arms only after the current
/// one's victim has been shrunk around). With no faults this is the clean
/// baseline.
RunOutcome run_app(rt::Machine& machine, const bench::Workload& w,
                   const std::vector<rt::FaultPlan*>& faults) {
  machine.restore_full_width();
  const int start_width = machine.active_nprocs();
  rt::CheckpointStore store(start_width);
  const rt::RetryPolicy policy{.max_attempts = 2,
                               .base_backoff_ms = 0.1,
                               .multiplier = 2.0,
                               .max_backoff_ms = 0.5};
  core::Supervisor sup(machine, policy);

  RunOutcome out;
  int width = start_width;
  std::vector<RankState> st(static_cast<std::size_t>(width));
  int done = 0;          // committed chunks
  bool fresh = true;     // next iteration must set up from scratch
  u64 capture_epoch = 0;
  long long warm_start = 0, warm_end = 0;  // written by rank 0 only

  std::size_t next_fault = 0;
  auto arm = [&] {
    machine.install_fault_plan(next_fault < faults.size()
                                   ? faults[next_fault]
                                   : nullptr);
  };
  arm();

  auto build_plan = [&](rt::Process& p, RankState& s) {
    s.e1.clear();
    s.e2.clear();
    for (i64 l = 0; l < s.edges->my_local_size(); ++l) {
      const i64 e = s.edges->global_of(p.rank(), l);
      s.e1.push_back(w.e1[static_cast<std::size_t>(e)]);
      s.e2.push_back(w.e2[static_cast<std::size_t>(e)]);
    }
    s.plan = core::EdgeReductionLoop::inspect(p, *s.edges, s.e1, s.e2,
                                              *s.data);
    s.globals = s.data->my_globals();
  };

  auto setup_body = [&](rt::Process& p) {
    RankState& s = st[static_cast<std::size_t>(p.rank())];
    s.data = dist::Distribution::block(p, w.nnodes);
    s.edges = dist::Distribution::block(p, w.nedges);
    s.x.emplace(p, s.data);
    s.y.emplace(p, s.data, 0.0);
    s.x->fill_by_global(
        [](i64 g) { return static_cast<f64>(g % 97 + 1); });
    s.y_work.reset();
    build_plan(p, s);
  };

  auto sweep_body = [&](rt::Process& p) {
    RankState& s = st[static_cast<std::size_t>(p.rank())];
    s.y_work = *s.y;  // fresh copy per attempt: idempotent accumulation
    for (int k = 0; k < kChunkSweeps; ++k) {
      core::EdgeReductionLoop::execute(p, *s.plan, *s.x, *s.y_work, edge_f,
                                       edge_g, 8.0);
    }
  };

  auto checkpoint_body = [&](rt::Process& p) {
    RankState& s = st[static_cast<std::size_t>(p.rank())];
    if (s.y_work) {  // idempotent promotion (a retried capture skips it)
      *s.y = std::move(*s.y_work);
      s.y_work.reset();
    }
    const std::vector<rt::SegmentView> views = {
        core::make_segment_view<f64>(0, *s.x, s.globals, 0),
        core::make_segment_view<f64>(1, *s.y, s.globals, 0),
    };
    store.capture(p, capture_epoch, views);
  };

  auto warm_body = [&](rt::Process& p) {
    RankState& s = st[static_cast<std::size_t>(p.rank())];
    if (!s.y_work) s.y_work.emplace(*s.y);  // scratch target, pre-window
    for (int it = 0; it < 3; ++it) {
      if (it == 1) {  // window opens after the sizing sweep
        rt::barrier(p);
        if (p.rank() == 0) {
          warm_start = bench::heap_allocs();
        }
      }
      core::EdgeReductionLoop::execute(p, *s.plan, *s.x, *s.y_work, edge_f,
                                       edge_g, 8.0);
    }
    rt::barrier(p);
    if (p.rank() == 0) {
      warm_end = bench::heap_allocs();
    }
  };

  // run_phase plus charge accounting (run() resets machine stats, so the
  // totals are folded in after every successful phase).
  auto phase = [&](const char* name,
                   const std::function<void(rt::Process&)>& body) {
    sup.run_phase(name, body);
    out.charges += machine.total_stats();
  };

  while (true) {
    try {
      if (fresh) {
        phase("setup", setup_body);
        fresh = false;
      }
      while (done < kChunks) {
        phase("sweep", sweep_body);
        capture_epoch = static_cast<u64>(done + 1);
        phase("checkpoint", checkpoint_body);
        store.commit();
        ++done;
      }
      phase("gather", [&](rt::Process& p) {
        RankState& s = st[static_cast<std::size_t>(p.rank())];
        auto g = s.y->to_global(p);
        if (p.rank() == 0) out.y = std::move(g);
      });
      phase("warm", warm_body);
      out.completed = true;
      break;
    } catch (const chaos::PermanentFault& pf) {
      if (width <= 1 || pf.rank < 0 || pf.rank >= width) {
        out.error = std::string("unrecoverable escalation: ") + pf.what();
        break;
      }
      out.dead.push_back(pf.rank);
      machine.install_fault_plan(nullptr);
      ++next_fault;  // this fault's victim is about to leave the machine
      machine.shrink_to(width - 1);
      const core::ShrinkMap map{.old_nprocs = width, .dead_rank = pf.rank};
      width -= 1;
      std::vector<RankState> nst(static_cast<std::size_t>(width));
      if (store.has_committed()) {
        // Shrink-remap restore, then immediately re-establish partner
        // redundancy at the new width (the restored state exists on exactly
        // one rank per element until the next capture commits).
        machine.run([&](rt::Process& p) {
          RankState& s = nst[static_cast<std::size_t>(p.rank())];
          const auto segs = core::restore_shrunk(p, store, map, kPageSize);
          s.data = segs[0].dist;
          s.x = core::restored_array<f64>(p, segs[0]);
          s.y = core::restored_array<f64>(p, segs[1]);
          s.edges = dist::Distribution::block(p, w.nedges);
          s.y_work.reset();
          build_plan(p, s);
        });
        out.charges += machine.total_stats();
        st = std::move(nst);
        done = static_cast<int>(store.epoch());
        capture_epoch = static_cast<u64>(done);
        machine.run(checkpoint_body);
        out.charges += machine.total_stats();
        store.commit();
        ++out.restores;
      } else {
        // Death before the first commit: nothing to restore, restart the
        // whole computation on the survivors.
        st = std::move(nst);
        done = 0;
        fresh = true;
        ++out.restarts;
      }
      arm();
    } catch (const std::exception& e) {
      out.error = e.what();
      break;
    }
  }

  out.final_width = machine.active_nprocs();
  out.warm_allocs = warm_end - warm_start;
  out.sup = sup.stats();
  out.ok = out.completed && out.error.empty();
  return out;
}

bool same_y(const RunOutcome& a, const RunOutcome& b) {
  return a.y.size() == b.y.size() &&
         std::memcmp(a.y.data(), b.y.data(), a.y.size() * sizeof(f64)) == 0;
}

}  // namespace

int main() {
  std::printf("Ablation D: graceful degradation — partner checkpoints + "
              "shrink-remap recovery\n\n");

  const auto w = bench::workload_mesh_tiny();
  rt::Machine machine(kProcs);

  // --- clean baseline --------------------------------------------------------
  const RunOutcome clean = run_app(machine, w, {});
  if (!clean.ok || clean.final_width != kProcs) {
    std::fprintf(stderr, "FAIL: clean run failed: %s\n", clean.error.c_str());
    return 1;
  }
  std::printf("clean: %d ranks, %d chunks, warm-sweep allocs %lld, "
              "%lld checkpoint captures (%lld bytes)\n\n",
              kProcs, kChunks, clean.warm_allocs,
              static_cast<long long>(clean.charges.checkpoint_captures),
              static_cast<long long>(clean.charges.checkpoint_bytes));

  int rc = 0;
  bench::RobustnessTally tally;

  // --- single-kill sweep: every site x every victim rank ---------------------
  // A Permanent fault armed at each of the four sites in turn, on every rank.
  // Visit ranges are sized per site so most seeds land inside a real visit
  // sequence; a seed whose visit is never reached runs clean at full width
  // (and still must be bit-identical).
  static constexpr u64 kNthRange[rt::kFaultSiteCount] = {
      40,  // BarrierArrive
      12,  // BlackboardPublish
      10,  // Alltoall
      24,  // AlltoallvFlat: 3 in setup, then 5 per chunk (see double kill)
  };
  i64 fired_scenarios = 0, restores = 0, restarts = 0, failures = 0;
  i64 sweep_retries = 0;
  i64 fired_by_site[rt::kFaultSiteCount] = {};
  i64 checkpoint_captures = 0, restored_segments = 0, shrinks = 0;
  i64 checkpoint_bytes = 0, restored_bytes = 0;
  const int scenarios = rt::kFaultSiteCount * kProcs;

  for (int site_i = 0; site_i < rt::kFaultSiteCount; ++site_i) {
    for (int rank = 0; rank < kProcs; ++rank) {
      u64 z = 0xDE6EADEull + static_cast<u64>(site_i * kProcs + rank);
      z = splitmix64(z);
      // Force one early detonation per site: rank 0 gets nth_visit = 1, so
      // at least one seed per site dies before the first commit and takes
      // the restart-from-scratch path.
      const u64 nth = rank == 0 ? 1 : 1 + z % kNthRange[site_i];
      rt::FaultPlan plan(kProcs, z);
      plan.add({static_cast<rt::FaultSite>(site_i),
                rt::FaultKind::Permanent, rank, nth, 0.0});
      const RunOutcome r = run_app(machine, w, {&plan});

      const bool fired = plan.fired() > 0;
      bool scenario_ok;
      if (fired) {
        scenario_ok = r.ok && r.final_width == kProcs - 1 &&
                      r.dead.size() == 1 && r.dead[0] == rank &&
                      same_y(r, clean) && r.warm_allocs == 0;
      } else {
        scenario_ok = r.ok && r.final_width == kProcs && same_y(r, clean);
      }
      if (!scenario_ok) {
        ++failures;
        std::fprintf(
            stderr,
            "FAIL seed site=%s rank=%d nth=%llu: ok=%d width=%d dead=%d "
            "identical=%d warm_allocs=%lld%s%s\n",
            rt::fault_site_name(static_cast<rt::FaultSite>(site_i)), rank,
            static_cast<unsigned long long>(nth), r.ok ? 1 : 0,
            r.final_width, r.dead.empty() ? -1 : r.dead[0],
            same_y(r, clean) ? 1 : 0, r.warm_allocs,
            r.error.empty() ? "" : " error=",
            r.error.empty() ? "" : r.error.c_str());
      }
      if (fired) {
        ++fired_scenarios;
        ++fired_by_site[site_i];
      }
      restores += r.restores;
      restarts += r.restarts;
      sweep_retries += r.sup.retries;
      checkpoint_captures += r.charges.checkpoint_captures;
      checkpoint_bytes += r.charges.checkpoint_bytes;
      restored_segments += r.charges.restored_segments;
      restored_bytes += r.charges.restored_bytes;
      shrinks += fired ? 1 : 0;
    }
    std::printf("  site %-17s: %lld/%d fired\n",
                rt::fault_site_name(static_cast<rt::FaultSite>(site_i)),
                static_cast<long long>(fired_by_site[site_i]), kProcs);
  }
  std::printf("\nsingle-kill sweep: %lld/%d fired, %lld restores, %lld "
              "restarts, %lld failures\n",
              static_cast<long long>(fired_scenarios), scenarios,
              static_cast<long long>(restores),
              static_cast<long long>(restarts),
              static_cast<long long>(failures));

  // --- double kill: 8 -> 7 -> 6 ----------------------------------------------
  // Each rank visits AlltoallvFlat 3 times in setup, 4 times per sweep
  // phase (a gather and a scatter per sweep) and once per checkpoint, at any
  // width. Kill 1's era starts at setup and kill 2's right after the width-7
  // restore and re-checkpoint, so nth = 3+4+1+1 = 9 and nth = 4+1+1 = 6
  // both land deterministically in the first sweep of the era's second
  // chunk: kill 1 after commit 1, restore at width 7, re-checkpoint, then
  // kill 2 after a width-7 commit — the second restore must come from the
  // width-7 checkpoint.
  rt::FaultPlan kill1(kProcs);
  kill1.add({rt::FaultSite::AlltoallvFlat, rt::FaultKind::Permanent, 5, 9,
             0.0});
  rt::FaultPlan kill2(kProcs);
  kill2.add({rt::FaultSite::AlltoallvFlat, rt::FaultKind::Permanent, 2, 6,
             0.0});
  const RunOutcome dbl = run_app(machine, w, {&kill1, &kill2});
  const bool dbl_ok = dbl.ok && dbl.final_width == kProcs - 2 &&
                      dbl.restores == 2 && dbl.dead.size() == 2 &&
                      dbl.dead[0] == 5 && dbl.dead[1] == 2 &&
                      same_y(dbl, clean) && dbl.warm_allocs == 0;
  if (!dbl_ok) {
    std::fprintf(stderr,
                 "FAIL double kill: ok=%d width=%d restores=%d identical=%d "
                 "warm_allocs=%lld %s\n",
                 dbl.ok ? 1 : 0, dbl.final_width, dbl.restores,
                 same_y(dbl, clean) ? 1 : 0, dbl.warm_allocs,
                 dbl.error.c_str());
    rc = 1;
  }
  std::printf("double kill: 8 -> 7 -> 6, dead ranks {%d, %d}, identical=%d\n",
              dbl.dead.size() > 0 ? dbl.dead[0] : -1,
              dbl.dead.size() > 1 ? dbl.dead[1] : -1,
              same_y(dbl, clean) ? 1 : 0);

  // --- 2 -> 1 collapse -------------------------------------------------------
  rt::Machine duo(2);
  const RunOutcome duo_clean = run_app(duo, w, {});
  rt::FaultPlan killc(2);  // the second chunk's first sweep, as for kill 1
  killc.add({rt::FaultSite::AlltoallvFlat, rt::FaultKind::Permanent, 0, 9,
             0.0});
  const RunOutcome solo = run_app(duo, w, {&killc});
  const bool collapse_ok = duo_clean.ok && same_y(duo_clean, clean) &&
                           solo.ok && solo.final_width == 1 &&
                           solo.restores == 1 && same_y(solo, clean) &&
                           solo.warm_allocs == 0;
  if (!collapse_ok) {
    std::fprintf(stderr,
                 "FAIL collapse: clean2_ok=%d solo_ok=%d width=%d "
                 "identical=%d warm_allocs=%lld %s\n",
                 duo_clean.ok ? 1 : 0, solo.ok ? 1 : 0, solo.final_width,
                 same_y(solo, clean) ? 1 : 0, solo.warm_allocs,
                 solo.error.c_str());
    rc = 1;
  }
  std::printf("collapse: 2 -> 1 on the lone survivor, identical=%d\n\n",
              same_y(solo, clean) ? 1 : 0);

  // --- robustness footer (satellite: degradation counters) -------------------
  tally.retries = sweep_retries + dbl.sup.retries + solo.sup.retries;
  tally.recoveries = 0;  // permanent faults never recover in place
  tally.checkpoint_captures = checkpoint_captures +
                              dbl.charges.checkpoint_captures +
                              solo.charges.checkpoint_captures;
  tally.restored_segments = restored_segments +
                            dbl.charges.restored_segments +
                            solo.charges.restored_segments;
  tally.shrinks = shrinks + 2 + 1;
  bench::print_footer(tally);

  // --- JSON ------------------------------------------------------------------
  if (std::FILE* f = std::fopen("BENCH_degrade.json", "w")) {
    std::fprintf(f, "{\n  \"bench\": \"degrade\",\n");
    std::fprintf(f,
                 "  \"procs\": %d,\n  \"chunks\": %d,\n  \"chunk_sweeps\": "
                 "%d,\n  \"scenarios\": %d,\n",
                 kProcs, kChunks, kChunkSweeps, scenarios);
    std::fprintf(f,
                 "  \"clean\": {\"warm_sweep_allocs\": %lld, "
                 "\"checkpoint_captures\": %lld, \"checkpoint_bytes\": "
                 "%lld},\n",
                 clean.warm_allocs,
                 static_cast<long long>(clean.charges.checkpoint_captures),
                 static_cast<long long>(clean.charges.checkpoint_bytes));
    std::fprintf(f,
                 "  \"single_kill\": {\"fired\": %lld, \"restores\": %lld, "
                 "\"restarts\": %lld, \"failures\": %lld,\n",
                 static_cast<long long>(fired_scenarios),
                 static_cast<long long>(restores),
                 static_cast<long long>(restarts),
                 static_cast<long long>(failures));
    std::fprintf(f, "    \"fired_by_site\": {");
    for (int i = 0; i < rt::kFaultSiteCount; ++i) {
      std::fprintf(f, "\"%s\": %lld%s",
                   rt::fault_site_name(static_cast<rt::FaultSite>(i)),
                   static_cast<long long>(fired_by_site[i]),
                   i + 1 < rt::kFaultSiteCount ? ", " : "");
    }
    std::fprintf(f, "},\n");
    std::fprintf(f,
                 "    \"checkpoint_captures\": %lld, \"checkpoint_bytes\": "
                 "%lld, \"restored_segments\": %lld, \"restored_bytes\": "
                 "%lld},\n",
                 static_cast<long long>(checkpoint_captures),
                 static_cast<long long>(checkpoint_bytes),
                 static_cast<long long>(restored_segments),
                 static_cast<long long>(restored_bytes));
    std::fprintf(f,
                 "  \"double_kill\": {\"ok\": %s, \"final_width\": %d, "
                 "\"warm_sweep_allocs\": %lld},\n",
                 dbl_ok ? "true" : "false", dbl.final_width,
                 dbl.warm_allocs);
    std::fprintf(f,
                 "  \"collapse\": {\"ok\": %s, \"final_width\": %d},\n",
                 collapse_ok ? "true" : "false", solo.final_width);
    std::fprintf(f, "  \"failures\": %lld\n}\n",
                 static_cast<long long>(failures));
    std::fclose(f);
    std::printf("wrote BENCH_degrade.json\n");
  }

  // --- hard gates ------------------------------------------------------------
  if (failures > 0) {
    std::fprintf(stderr, "FAIL: %lld/%d single-kill scenarios violated a "
                 "gate\n",
                 static_cast<long long>(failures), scenarios);
    rc = 1;
  }
  for (int i = 0; i < rt::kFaultSiteCount; ++i) {
    if (fired_by_site[i] == 0) {
      std::fprintf(stderr, "FAIL: no scenario fired at site %s — the sweep "
                   "is vacuous there\n",
                   rt::fault_site_name(static_cast<rt::FaultSite>(i)));
      rc = 1;
    }
  }
  if (restores == 0 || restarts == 0) {
    std::fprintf(stderr, "FAIL: sweep exercised restores=%lld restarts=%lld "
                 "— both recovery paths must run\n",
                 static_cast<long long>(restores),
                 static_cast<long long>(restarts));
    rc = 1;
  }
  if (checkpoint_captures <= 0 || checkpoint_bytes <= 0 ||
      restored_segments <= 0 || restored_bytes <= 0) {
    std::fprintf(stderr, "FAIL: checkpoint/restore ran without modeled "
                 "charges (captures=%lld bytes=%lld restored=%lld/%lld)\n",
                 static_cast<long long>(checkpoint_captures),
                 static_cast<long long>(checkpoint_bytes),
                 static_cast<long long>(restored_segments),
                 static_cast<long long>(restored_bytes));
    rc = 1;
  }
  if (clean.warm_allocs != 0) {
    std::fprintf(stderr, "FAIL: clean warm sweeps performed %lld heap "
                 "allocations (want 0)\n",
                 clean.warm_allocs);
    rc = 1;
  }
  if (rc == 0) {
    std::printf("\nPASS: every permanent fault shrank to P-1 and completed "
                "bit-identically; 8->7->6 and 2->1 survived; degraded warm "
                "sweeps allocation-free\n");
  }
  return rc;
}

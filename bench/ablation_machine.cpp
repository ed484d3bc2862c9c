// Ablation D: runtime substrate. Every locate round, remap, and reuse-guard
// check funnels through rt/ collectives, so the machine they run on has to
// scale. Two designs of the synchronization core:
//   central       — the seed's barrier: one mutex + condvar, sense-reversing,
//                   O(P) wakeups under a single contended lock (replicated
//                   here verbatim as the baseline);
//   fused_tree    — this PR: the atomics-based flat combining barrier with
//                   the clock max-reduction fused into its arrival fold and
//                   a spin/yield/futex waiting ladder.
// Measured: raw barrier phases per host wall second at P=16 and P=64, raw
// barrier phases consumed by each collective (the fused design must need at
// most 2 where the seed spent 3-5), and run() dispatch cost of the pooled
// worker threads vs a spawn/join per call. Results go to BENCH_machine.json;
// the two PR gates (>=2x barrier throughput at P=64, <=2 phases per
// collective) are enforced here so CI fails loudly.
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "rt/collectives.hpp"
#include "rt/machine.hpp"

namespace rt = chaos::rt;
using chaos::f64;
using chaos::i64;

namespace {

// --- the seed's central barrier, kept verbatim as the baseline --------------

class CentralBarrier {
 public:
  explicit CentralBarrier(int nprocs) : nprocs_(nprocs) {}

  void wait() {
    std::unique_lock lock(mutex_);
    const bool my_sense = sense_;
    if (++arrived_ == nprocs_) {
      arrived_ = 0;
      sense_ = !sense_;
      cv_.notify_all();
      return;
    }
    cv_.wait(lock, [&] { return sense_ != my_sense; });
  }

 private:
  int nprocs_;
  std::mutex mutex_;
  std::condition_variable cv_;
  int arrived_ = 0;
  bool sense_ = false;
};

// --- barrier throughput ------------------------------------------------------

struct BarrierResult {
  std::string design;  // "central" or "fused_tree"
  int procs = 0;
  int iters = 0;
  f64 wall_seconds = 0.0;
  f64 barriers_per_sec = 0.0;
};

/// @p iters fenced barrier phases on the seed's central design, driven by
/// raw threads exactly like the seed's Machine drove them.
BarrierResult bench_central(int procs, int iters) {
  CentralBarrier bar(procs);
  f64 wall = 0.0;
  auto body = [&](int rank) {
    bar.wait();  // line everyone up outside the timed window
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < iters; ++i) bar.wait();
    if (rank == 0) {
      wall = std::chrono::duration<f64>(std::chrono::steady_clock::now() - t0)
                 .count();
    }
  };
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(procs));
  for (int r = 0; r < procs; ++r) threads.emplace_back(body, r);
  for (auto& t : threads) t.join();
  return {"central", procs, iters, wall,
          wall > 0 ? static_cast<f64>(iters) / wall : 0.0};
}

BarrierResult bench_fused_tree(int procs, int iters) {
  rt::Machine machine(procs);
  f64 wall = 0.0;
  machine.run([&](rt::Process& p) {
    p.barrier_sync_only();
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < iters; ++i) p.barrier_sync_only();
    if (p.rank() == 0) {
      wall = std::chrono::duration<f64>(std::chrono::steady_clock::now() - t0)
                 .count();
    }
  });
  return {"fused_tree", procs, iters, wall,
          wall > 0 ? static_cast<f64>(iters) / wall : 0.0};
}

// --- raw phases per collective ----------------------------------------------

struct PhaseCount {
  std::string collective;
  i64 phases = 0;
};

std::vector<PhaseCount> measure_phases(int procs) {
  rt::Machine machine(procs);
  std::vector<PhaseCount> out;  // written by rank 0 only
  machine.run([&](rt::Process& p) {
    auto count = [&](const char* name, auto&& fn) {
      const i64 before = p.stats().barriers;
      fn();
      if (p.is_root()) out.push_back({name, p.stats().barriers - before});
    };
    const int P = p.nprocs();
    count("barrier", [&] { rt::barrier(p); });
    count("broadcast", [&] { (void)rt::broadcast(p, i64{7}); });
    count("broadcast_vec", [&] {
      std::vector<f64> v(8, 1.5);
      (void)rt::broadcast_vec(p, v);
    });
    count("allreduce", [&] { (void)rt::allreduce_sum(p, i64{1}); });
    count("allreduce_vec", [&] {
      std::vector<f64> v(4, static_cast<f64>(p.rank()));
      (void)rt::allreduce_vec(p, v, std::plus<>{});
    });
    count("allgather", [&] { (void)rt::allgather(p, i64{p.rank()}); });
    count("allgatherv", [&] {
      std::vector<i64> mine(2, p.rank());
      (void)rt::allgatherv<i64>(p, mine);
    });
    count("alltoallv", [&] {
      std::vector<i64> send(static_cast<std::size_t>(2 * P), 1);
      std::vector<i64> offsets(static_cast<std::size_t>(P) + 1, 0);
      for (int r = 1; r <= P; ++r) {
        offsets[static_cast<std::size_t>(r)] = 2 * r;
      }
      std::vector<i64> recv, recv_offsets;
      rt::alltoallv<i64>(p, send, offsets, recv, recv_offsets);
    });
    count("alltoall", [&] {
      std::vector<i64> send(static_cast<std::size_t>(P), 3);
      std::vector<i64> recv(static_cast<std::size_t>(P), 0);
      rt::alltoall<i64>(p, send, recv);
    });
    count("alltoallv_flat", [&] {
      std::vector<i64> offsets(static_cast<std::size_t>(P) + 1, 0);
      for (int r = 1; r <= P; ++r) {
        offsets[static_cast<std::size_t>(r)] = r;
      }
      std::vector<f64> send(static_cast<std::size_t>(P), 1.0);
      std::vector<f64> recv(static_cast<std::size_t>(P), 0.0);
      rt::alltoallv_flat<f64>(p, send, offsets, recv, offsets);
    });
    count("gatherv", [&] {
      std::vector<i64> mine(2, p.rank());
      (void)rt::gatherv<i64>(p, mine);
    });
  });
  return out;
}

// --- run() dispatch: pooled workers vs spawn/join per call ------------------

struct DispatchResult {
  f64 pooled_us_per_run = 0.0;
  f64 spawned_us_per_run = 0.0;
};

DispatchResult bench_dispatch(int procs, int runs) {
  DispatchResult r;
  {
    rt::Machine machine(procs);
    machine.run([](rt::Process&) {});  // warm the pool
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < runs; ++i) machine.run([](rt::Process&) {});
    r.pooled_us_per_run =
        std::chrono::duration<f64>(std::chrono::steady_clock::now() - t0)
            .count() *
        1e6 / runs;
  }
  {
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < runs; ++i) {
      std::vector<std::thread> threads;
      threads.reserve(static_cast<std::size_t>(procs));
      for (int t = 0; t < procs; ++t) threads.emplace_back([] {});
      for (auto& t : threads) t.join();
    }
    r.spawned_us_per_run =
        std::chrono::duration<f64>(std::chrono::steady_clock::now() - t0)
            .count() *
        1e6 / runs;
  }
  return r;
}

bool write_json(const std::vector<BarrierResult>& barriers,
                const std::vector<PhaseCount>& phases,
                const DispatchResult& dispatch, int dispatch_procs) {
  std::FILE* f = std::fopen("BENCH_machine.json", "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open BENCH_machine.json for writing\n");
    return false;
  }
  std::fprintf(f, "{\n  \"bench\": \"machine_substrate\",\n");
  std::fprintf(f, "  \"barrier\": [\n");
  for (std::size_t i = 0; i < barriers.size(); ++i) {
    const auto& b = barriers[i];
    f64 speedup = 0.0;
    for (const auto& base : barriers) {
      if (base.design == "central" && base.procs == b.procs &&
          base.barriers_per_sec > 0) {
        speedup = b.barriers_per_sec / base.barriers_per_sec;
      }
    }
    std::fprintf(f,
                 "    {\"design\": \"%s\", \"procs\": %d, \"iters\": %d, "
                 "\"wall_seconds\": %.6f, \"barriers_per_sec\": %.0f, "
                 "\"speedup_vs_central\": %.3f}%s\n",
                 b.design.c_str(), b.procs, b.iters, b.wall_seconds,
                 b.barriers_per_sec, speedup,
                 i + 1 < barriers.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"collective_phases\": [\n");
  for (std::size_t i = 0; i < phases.size(); ++i) {
    std::fprintf(f, "    {\"collective\": \"%s\", \"phases\": %lld}%s\n",
                 phases[i].collective.c_str(),
                 static_cast<long long>(phases[i].phases),
                 i + 1 < phases.size() ? "," : "");
  }
  std::fprintf(f,
               "  ],\n  \"dispatch\": {\"procs\": %d, "
               "\"pooled_us_per_run\": %.2f, \"spawned_us_per_run\": %.2f}\n",
               dispatch_procs, dispatch.pooled_us_per_run,
               dispatch.spawned_us_per_run);
  std::fprintf(f, "}\n");
  std::fclose(f);
  return true;
}

}  // namespace

int main() {
  std::printf("Ablation D: runtime substrate — central mutex/condvar barrier "
              "vs fused combining barrier\n\n");

  std::vector<BarrierResult> barriers;
  // Best of three repetitions per design: shared CI runners inject
  // scheduler noise, and the gate below should measure the barrier, not
  // the neighbors.
  constexpr int kReps = 3;
  auto best_of = [](auto&& bench, int procs, int iters) {
    auto best = bench(procs, iters);
    for (int rep = 1; rep < kReps; ++rep) {
      auto r = bench(procs, iters);
      if (r.barriers_per_sec > best.barriers_per_sec) best = r;
    }
    return best;
  };
  for (const int procs : {16, 64}) {
    const int iters = procs >= 64 ? 2000 : 10000;
    barriers.push_back(best_of(bench_central, procs, iters));
    barriers.push_back(best_of(bench_fused_tree, procs, iters));
    for (std::size_t i = barriers.size() - 2; i < barriers.size(); ++i) {
      const auto& b = barriers[i];
      std::printf("%-14s P=%-3d %9.0f barriers/s (%d iters, %.3f s)\n",
                  b.design.c_str(), b.procs, b.barriers_per_sec, b.iters,
                  b.wall_seconds);
    }
  }

  const auto phases = measure_phases(8);
  std::printf("\nraw barrier phases per collective (P=8):\n");
  for (const auto& pc : phases) {
    std::printf("  %-16s %lld\n", pc.collective.c_str(),
                static_cast<long long>(pc.phases));
  }

  const int dispatch_procs = 16;
  const auto dispatch = bench_dispatch(dispatch_procs, 200);
  std::printf("\nrun() dispatch at P=%d: pooled %.1f us/run, spawn/join "
              "%.1f us/run\n",
              dispatch_procs, dispatch.pooled_us_per_run,
              dispatch.spawned_us_per_run);

  if (write_json(barriers, phases, dispatch, dispatch_procs)) {
    std::printf("\nwrote BENCH_machine.json\n");
  }

  // Hard gates this PR claims (checked here so CI smoke fails loudly).
  int rc = 0;
  f64 central64 = 0.0, tree64 = 0.0;
  for (const auto& b : barriers) {
    if (b.procs != 64) continue;
    (b.design == "central" ? central64 : tree64) = b.barriers_per_sec;
  }
  if (central64 <= 0 || tree64 < 2.0 * central64) {
    std::fprintf(stderr,
                 "FAIL: fused-tree barrier at P=64 is %.0f/s, under 2x "
                 "the central baseline %.0f/s\n",
                 tree64, central64);
    rc = 1;
  }
  for (const auto& pc : phases) {
    if (pc.phases > 2) {
      std::fprintf(stderr,
                   "FAIL: collective %s consumed %lld raw barrier phases "
                   "(want <= 2)\n",
                   pc.collective.c_str(),
                   static_cast<long long>(pc.phases));
      rc = 1;
    }
  }
  if (rc == 0) {
    std::printf("\nPASS: >=2x barrier throughput at P=64 and <=2 phases per "
                "collective\n");
  }
  return rc;
}

// Google-benchmark micro suite for the CHAOS primitives: translation-table
// dereference, inspector localize (translate + dedup + schedule exchange),
// executor gather/scatter, and remap — host wall-clock throughput of the
// actual implementation (not modeled time).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <vector>

#include "core/executor.hpp"
#include "core/inspector.hpp"
#include "dist/remap.hpp"
#include "rt/collectives.hpp"
#include "workload/rng.hpp"

namespace rt = chaos::rt;
namespace dist = chaos::dist;
namespace core = chaos::core;
using chaos::f64;
using chaos::i64;

namespace {

constexpr int kProcs = 4;

std::vector<i64> random_refs(i64 n, i64 count, chaos::u64 seed) {
  chaos::wl::Rng rng(seed);
  std::vector<i64> refs(static_cast<std::size_t>(count));
  for (auto& r : refs) r = rng.below(n);
  return refs;
}

void BM_TranslationTableBuild(benchmark::State& state) {
  const i64 n = state.range(0);
  for (auto _ : state) {
    rt::Machine::run(kProcs, [&](rt::Process& p) {
      auto md = dist::Distribution::block(p, n);
      std::vector<i64> slice(static_cast<std::size_t>(md->my_local_size()));
      for (std::size_t l = 0; l < slice.size(); ++l) {
        const i64 g = md->global_of(p.rank(), static_cast<i64>(l));
        slice[l] = (g * 7 + 1) % p.nprocs();
      }
      auto d = dist::Distribution::irregular_from_map(p, slice, *md);
      benchmark::DoNotOptimize(d);
    });
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_TranslationTableBuild)->Arg(1 << 12)->Arg(1 << 16);

void BM_Dereference(benchmark::State& state) {
  const i64 n = 1 << 16;
  const i64 queries = state.range(0);
  for (auto _ : state) {
    state.PauseTiming();
    rt::Machine machine(kProcs);
    state.ResumeTiming();
    machine.run([&](rt::Process& p) {
      auto md = dist::Distribution::block(p, n);
      std::vector<i64> slice(static_cast<std::size_t>(md->my_local_size()));
      for (std::size_t l = 0; l < slice.size(); ++l) {
        const i64 g = md->global_of(p.rank(), static_cast<i64>(l));
        slice[l] = (g * 3 + 2) % p.nprocs();
      }
      auto d = dist::Distribution::irregular_from_map(p, slice, *md);
      const auto refs = random_refs(n, queries, 17 + p.rank());
      std::vector<dist::Entry> entries;
      d->locate_into(p, refs, entries);
      benchmark::DoNotOptimize(entries);
    });
  }
  state.SetItemsProcessed(state.iterations() * queries * kProcs);
}
BENCHMARK(BM_Dereference)->Arg(1 << 12)->Arg(1 << 15);

void BM_Localize(benchmark::State& state) {
  const i64 n = 1 << 16;
  const i64 refs_per_proc = state.range(0);
  for (auto _ : state) {
    rt::Machine::run(kProcs, [&](rt::Process& p) {
      auto d = dist::Distribution::block(p, n);
      const auto refs = random_refs(n, refs_per_proc, 99 + p.rank());
      core::InspectorWorkspace iws;
      core::Localized loc;
      core::localize(p, *d, refs, iws, loc);
      benchmark::DoNotOptimize(loc);
    });
  }
  state.SetItemsProcessed(state.iterations() * refs_per_proc * kProcs);
}
BENCHMARK(BM_Localize)->Arg(1 << 12)->Arg(1 << 15);

void BM_GatherScatter(benchmark::State& state) {
  const i64 n = 1 << 16;
  const i64 refs_per_proc = state.range(0);
  for (auto _ : state) {
    rt::Machine::run(kProcs, [&](rt::Process& p) {
      auto d = dist::Distribution::block(p, n);
      dist::DistributedArray<f64> x(p, d, 1.0);
      const auto refs = random_refs(n, refs_per_proc, 7 + p.rank());
      core::InspectorWorkspace iws;
      core::Localized loc;
      core::localize(p, *d, refs, iws, loc);
      // Steady-state executor idiom: one workspace reused across sweeps,
      // so everything after the first sweep is allocation-free.
      core::ExecutorWorkspace<f64> ws;
      for (int sweep = 0; sweep < 8; ++sweep) {
        core::gather_ghosts<f64>(p, loc.schedule, x, ws);
        // The gathered tail doubles as the accumulator scattered back.
        std::fill(x.ghost().begin(), x.ghost().end(), 0.5);
        core::scatter_reduce<f64>(p, loc.schedule, x.local(), x.ghost(),
                                  core::ReduceOp::Add, ws);
      }
    });
  }
  state.SetItemsProcessed(state.iterations() * refs_per_proc * kProcs * 8);
}
BENCHMARK(BM_GatherScatter)->Arg(1 << 12)->Arg(1 << 15);

void BM_Remap(benchmark::State& state) {
  const i64 n = state.range(0);
  for (auto _ : state) {
    rt::Machine::run(kProcs, [&](rt::Process& p) {
      auto a = dist::Distribution::block(p, n);
      auto b = dist::Distribution::cyclic(p, n);
      dist::DistributedArray<f64> x(p, a, 2.0);
      auto plan = dist::build_remap(p, *a, *b);
      auto fresh = dist::apply_remap<f64>(p, plan, x.local());
      benchmark::DoNotOptimize(fresh);
    });
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_Remap)->Arg(1 << 12)->Arg(1 << 16);

void BM_DedupHashing(benchmark::State& state) {
  // The inspector's duplicate-removal: many references, few targets.
  const i64 n = 1 << 16;
  const i64 refs_per_proc = state.range(0);
  for (auto _ : state) {
    rt::Machine::run(kProcs, [&](rt::Process& p) {
      auto d = dist::Distribution::block(p, n);
      // Every reference hits one of 64 hot targets: dedup collapses all.
      std::vector<i64> refs(static_cast<std::size_t>(refs_per_proc));
      for (std::size_t i = 0; i < refs.size(); ++i) {
        refs[i] = static_cast<i64>((i * 37) % 64);
      }
      core::InspectorWorkspace iws;
      core::Localized loc;
      core::localize(p, *d, refs, iws, loc);
      benchmark::DoNotOptimize(loc);
    });
  }
  state.SetItemsProcessed(state.iterations() * refs_per_proc * kProcs);
}
BENCHMARK(BM_DedupHashing)->Arg(1 << 15);

}  // namespace

BENCHMARK_MAIN();

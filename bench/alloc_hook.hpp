// Heap-allocation counter for the benches that gate allocations per warm
// sweep or locate: ablation_{ttable,executor,inspector,recovery,vm,degrade,
// repair}. Those binaries link bench/alloc_hook.cpp, which replaces the
// global operator new/delete; every other binary keeps the default
// allocator.
#pragma once

namespace chaos::bench {

/// Heap allocations made so far by every thread of the process. Read it only
/// while all ranks are quiescent (between barriers): the count is relaxed.
[[nodiscard]] long long heap_allocs();

}  // namespace chaos::bench

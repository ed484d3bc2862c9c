// Shrink-remap recovery from a permanent rank failure (DESIGN.md §13).
//
// When core::Supervisor escalates to chaos::PermanentFault, the driver
// declares the named rank dead, narrows the machine to the survivors
// (Machine::shrink_to), and calls restore_shrunk collectively on the
// shrunken machine. Each survivor re-adopts its own snapshot from the
// rt::CheckpointStore; the dead rank's snapshot is read by its BUDDY
// (partner placement guarantees the buddy survives any single failure), and
// the dead rank's elements are dealt round-robin across the survivors.
// Every restored array is then materialized under a FRESH irregular
// distribution built through Distribution::irregular_from_map and moved
// into place by the remap engine — so new DAD incarnations are minted as a
// side effect, which is exactly what makes the rest of the system correct
// for free: CHECK_INCARNATION guards, TranslationCache bindings, and the
// InspectorCache's Section-3 reuse records keyed to the dead-width
// distributions all invalidate themselves.
//
// Rank renumbering: the machine stays dense — surviving old rank r becomes
// new rank (r < dead ? r : r - 1); ShrinkMap holds the arithmetic.
#pragma once

#include <cstring>
#include <memory>
#include <span>
#include <vector>

#include "dist/darray.hpp"
#include "rt/checkpoint.hpp"

namespace chaos::core {

/// The old-width <-> new-width rank renumbering after one rank dies.
struct ShrinkMap {
  int old_nprocs = 0;
  int dead_rank = -1;

  [[nodiscard]] int new_nprocs() const { return old_nprocs - 1; }
  /// Old logical rank of surviving new rank @p nr.
  [[nodiscard]] int old_of(int nr) const {
    return nr < dead_rank ? nr : nr + 1;
  }
  /// New logical rank of old rank @p old (-1 for the dead rank).
  [[nodiscard]] int new_of(int old) const {
    if (old == dead_rank) return -1;
    return old < dead_rank ? old : old - 1;
  }
  /// Old rank of the buddy holding the dead rank's snapshot.
  [[nodiscard]] int buddy_old_rank() const {
    return rt::CheckpointStore::partner_of(dead_rank, old_nprocs);
  }
};

/// One array restored by restore_shrunk: the fresh survivor-width
/// distribution (a NEW incarnation) plus this rank's owned values in
/// distribution order, still as raw bytes (elem_size-wide each). Metadata
/// is carried through from the snapshot so callers can re-register and
/// re-stamp without any pre-failure state.
struct RestoredSegment {
  u64 array_id = 0;
  u64 old_incarnation = 0;  ///< dead-width incarnation (now invalid)
  u64 nmod = 0;             ///< ReuseRegistry stamp the snapshot carried
  i64 elem_size = 0;
  std::shared_ptr<const dist::Distribution> dist;
  std::vector<std::byte> values;
};

/// Collective on the SHRUNKEN machine (p.nprocs() == map.new_nprocs()).
/// Rebuilds every checkpointed array onto the survivors and returns the
/// segments in capture registration order. The store must hold a committed
/// checkpoint taken at map.old_nprocs width. Restore traffic (ownership
/// announcements, the irregular map build, and the remap exchange) all go
/// through charged collectives, and the adopted payload is tallied into
/// MessageStats::restored_segments / restored_bytes.
[[nodiscard]] std::vector<RestoredSegment> restore_shrunk(
    rt::Process& p, const rt::CheckpointStore& store, const ShrinkMap& map,
    i64 page_size = 4096);

/// Builds the capture-time view of one typed array for
/// rt::CheckpointStore::capture. @p globals must be the array's
/// dist().my_globals() (cached by the caller — capture happens every epoch
/// and my_globals() allocates) and must outlive the capture call.
template <typename T>
[[nodiscard]] rt::SegmentView make_segment_view(
    u64 array_id, const dist::DistributedArray<T>& a,
    std::span<const i64> globals, u64 nmod) {
  rt::SegmentView v;
  v.array_id = array_id;
  v.incarnation = a.dad().incarnation;
  v.nmod = nmod;
  v.global_size = a.dist().size();
  v.elem_size = static_cast<i64>(sizeof(T));
  v.globals = globals;
  v.values = std::as_bytes(a.local());
  return v;
}

/// Materializes a typed DistributedArray from one restored segment
/// (collective — the array constructor is). Bit-exact: the value bytes are
/// adopted verbatim.
template <typename T>
[[nodiscard]] dist::DistributedArray<T> restored_array(
    rt::Process& p, const RestoredSegment& seg) {
  CHAOS_CHECK(seg.elem_size == static_cast<i64>(sizeof(T)),
              "restored_array: element size does not match T");
  dist::DistributedArray<T> a(p, seg.dist);
  std::vector<T> vals(seg.values.size() / sizeof(T));
  if (!vals.empty()) {
    std::memcpy(vals.data(), seg.values.data(), seg.values.size());
  }
  a.assign_local(std::move(vals));
  return a;
}

}  // namespace chaos::core

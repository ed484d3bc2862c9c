// Communication schedule (PARTI/CHAOS): the inspector's central product. A
// CommSchedule records, for one (loop, distribution) pair, which of my local
// elements other processes need (send side) and how many ghost values arrive
// from each process (receive side). The ghost buffer is laid out by source
// rank ascending, within rank in request order — so the executor's gather is
// a pack / all-to-all / contiguous-unpack with no per-element addressing.
//
// Layout: both sides are CSR. The send side is one flat index array sliced
// by a P+1 prefix (no per-destination heap blocks, so the executor's pack
// loop streams through one contiguous buffer), and the receive side keeps
// its prefix precomputed, making recv_offset() O(1) in the hot path.
#pragma once

#include <algorithm>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "rt/types.hpp"

namespace chaos::core {

/// Typed outcome of CommSchedule validation. Schedules are long-lived and —
/// in the multi-tenant arc — may arrive from a cache or another tenant, so
/// a corrupted or stale plan must map to a named rejection rather than UB
/// in the executor's unchecked pack loop.
enum class ScheduleErrorCode : u8 {
  Ok = 0,
  PrefixShapeMismatch,  ///< send/recv prefixes disagree in length (P-consistency)
  PrefixNotZeroBased,   ///< a prefix does not start at 0
  PrefixNonMonotone,    ///< an offset decreases (negative segment count)
  GhostCountMismatch,   ///< cached nghost != receive prefix total
  IndexCountMismatch,   ///< send_indices length != send prefix total
  IndexOutOfBounds,     ///< a send index falls outside [0, nlocal_at_build)
  SpliceMismatch,       ///< a repair script disagrees with the live send side
};

[[nodiscard]] constexpr const char* to_string(ScheduleErrorCode code) {
  switch (code) {
    case ScheduleErrorCode::Ok: return "ok";
    case ScheduleErrorCode::PrefixShapeMismatch:
      return "send/recv offset prefixes disagree in length";
    case ScheduleErrorCode::PrefixNotZeroBased:
      return "offset prefix does not start at zero";
    case ScheduleErrorCode::PrefixNonMonotone:
      return "offset prefix is not monotone (negative segment count)";
    case ScheduleErrorCode::GhostCountMismatch:
      return "cached nghost does not match the receive prefix";
    case ScheduleErrorCode::IndexCountMismatch:
      return "send_indices length does not match the send prefix";
    case ScheduleErrorCode::IndexOutOfBounds:
      return "send index outside the local segment at build time";
    case ScheduleErrorCode::SpliceMismatch:
      return "repair splice script does not match the live send side";
  }
  return "unknown schedule error";
}

/// Thrown by CommSchedule::validate_or_throw on the first violated
/// invariant; carries the typed code plus where it tripped.
class ScheduleInvalid : public ChaosError {
 public:
  ScheduleInvalid(const std::string& what, ScheduleErrorCode code,
                  i64 position)
      : ChaosError(what), code(code), position(position) {}

  ScheduleErrorCode code;
  i64 position;  ///< offending rank for prefix errors, flat index otherwise
};

/// Generation/validity stamp carried by every inspector plan
/// (core::IrregularLoopPlan, which EdgeLoopPlan and the lang LoopPlan build
/// on). A build that throws partway — a fault mid-exchange, a timeout —
/// leaves the plan NOT ready: begin_build() clears the bit before any
/// schedule state is touched and only a completed build sets it back.
/// Executors refuse a not-ready plan with a typed error, so a recovered
/// attempt is forced to re-inspect instead of sweeping through a half-built
/// CommSchedule (DESIGN.md §11). The generation counter exists for
/// diagnostics and cache-coherency tests: it counts build ATTEMPTS, not
/// successes.
struct PlanBuildState {
  u64 generation = 0;
  bool complete = false;

  void begin_build() {
    complete = false;
    ++generation;
  }
  void mark_built() { complete = true; }
  [[nodiscard]] bool ready() const { return complete; }
};

struct CommSchedule {
  /// Flat CSR values: my local element indices peers asked for, grouped by
  /// destination rank ascending. Segment [send_offsets[d], send_offsets[d+1])
  /// is packed for rank d, in the order rank d requested.
  std::vector<i64> send_indices;
  /// P+1 prefix slicing send_indices by destination rank.
  std::vector<i64> send_offsets;
  /// P+1 prefix over ghost slots by source rank: source s fills ghost slots
  /// [recv_offsets[s], recv_offsets[s+1]).
  std::vector<i64> recv_offsets;
  /// Total ghost slots (== recv_offsets.back()).
  i64 nghost = 0;
  /// Local segment size when the schedule was built (staleness guard).
  i64 nlocal_at_build = 0;

  [[nodiscard]] int nprocs() const {
    return static_cast<int>(send_offsets.empty() ? 0 : send_offsets.size() - 1);
  }

  /// O(1): first ghost slot filled by @p src (was an O(P) prefix sum per
  /// call in the nested-vector layout).
  [[nodiscard]] i64 recv_offset(int src) const {
    return recv_offsets[static_cast<std::size_t>(src)];
  }
  [[nodiscard]] i64 recv_count(int src) const {
    return recv_offsets[static_cast<std::size_t>(src) + 1] -
           recv_offsets[static_cast<std::size_t>(src)];
  }
  [[nodiscard]] i64 send_count(int dest) const {
    return send_offsets[static_cast<std::size_t>(dest) + 1] -
           send_offsets[static_cast<std::size_t>(dest)];
  }
  /// The local indices packed for @p dest, as a view into the flat array.
  [[nodiscard]] std::span<const i64> send_to(int dest) const {
    return std::span<const i64>(send_indices)
        .subspan(static_cast<std::size_t>(
                     send_offsets[static_cast<std::size_t>(dest)]),
                 static_cast<std::size_t>(send_count(dest)));
  }
  /// Total elements this process packs per gather (all destinations).
  [[nodiscard]] i64 total_send() const {
    return send_offsets.empty() ? 0 : send_offsets[send_offsets.size() - 1];
  }

  /// Number of point-to-point messages a gather through this schedule costs
  /// this process (sends plus receives, self excluded by construction).
  /// One O(P) scan of the cached prefixes.
  [[nodiscard]] i64 messages(int my_rank) const {
    i64 m = 0;
    for (int r = 0; r < nprocs(); ++r) {
      if (r == my_rank) continue;
      if (send_count(r) > 0) ++m;
      if (recv_count(r) > 0) ++m;
    }
    return m;
  }

  /// Words moved off-process by one gather (send direction).
  [[nodiscard]] i64 send_volume(int my_rank) const {
    i64 v = total_send();
    if (my_rank >= 0 && my_rank < nprocs()) v -= send_count(my_rank);
    return v;
  }

  /// Outcome of check(): the first violated invariant plus where.
  struct CheckResult {
    ScheduleErrorCode code = ScheduleErrorCode::Ok;
    i64 position = -1;  ///< rank for prefix errors, flat index otherwise
    [[nodiscard]] bool ok() const { return code == ScheduleErrorCode::Ok; }
  };

  /// Full structural consistency check, always compiled in: offset
  /// monotonicity, zero-based prefixes, P-consistency of the two prefixes,
  /// cached nghost vs the receive prefix, and every send index inside the
  /// local segment at build time. O(P + total_send) — cheap enough to run
  /// once per plan build or on any schedule that crosses a trust boundary
  /// (cache hit, deserialized plan, another tenant); executors keep the
  /// per-sweep call debug-only so the hot path stays check-free in Release.
  [[nodiscard]] CheckResult check() const {
    if (send_offsets.size() != recv_offsets.size()) {
      return {ScheduleErrorCode::PrefixShapeMismatch, 0};
    }
    if (send_offsets.empty()) {
      if (nghost != 0) return {ScheduleErrorCode::GhostCountMismatch, 0};
      if (!send_indices.empty()) {
        return {ScheduleErrorCode::IndexCountMismatch, 0};
      }
      return {};
    }
    if (send_offsets[0] != 0 || recv_offsets[0] != 0) {
      return {ScheduleErrorCode::PrefixNotZeroBased, 0};
    }
    for (std::size_t r = 1; r < send_offsets.size(); ++r) {
      if (send_offsets[r] < send_offsets[r - 1] ||
          recv_offsets[r] < recv_offsets[r - 1]) {
        return {ScheduleErrorCode::PrefixNonMonotone,
                static_cast<i64>(r) - 1};
      }
    }
    if (nghost != recv_offsets[recv_offsets.size() - 1]) {
      return {ScheduleErrorCode::GhostCountMismatch, nghost};
    }
    if (static_cast<i64>(send_indices.size()) != total_send()) {
      return {ScheduleErrorCode::IndexCountMismatch,
              static_cast<i64>(send_indices.size())};
    }
    for (std::size_t k = 0; k < send_indices.size(); ++k) {
      if (send_indices[k] < 0 || send_indices[k] >= nlocal_at_build) {
        return {ScheduleErrorCode::IndexOutOfBounds, static_cast<i64>(k)};
      }
    }
    return {};
  }

  /// In-place send-side splice (incremental schedule repair, DESIGN.md §14).
  /// @p script_payload / @p script_offsets is one repair script per
  /// destination rank in flat CSR form — exactly what the repairing
  /// requester shipped through exchange_csr. Per destination the script is
  ///   [ntomb, tombstoned locals... , nins, (position, local) pairs...]
  /// where tombstones name departed ghost elements by VALUE (a request list
  /// holds distinct locals, so values identify entries) and insertions name
  /// the final position of each novel element in the destination's NEW
  /// request order. Because ghost order is per-owner canonical (sorted by
  /// global), surviving entries keep their relative order and the spliced
  /// segment reproduces a full rebuild bit for bit. The rebuild stages
  /// through @p scratch_indices / @p scratch_tombs (caller-owned, grow-only:
  /// warm repairs allocate nothing) and swaps into place; offsets are
  /// recomputed from the per-segment length deltas. Throws ScheduleInvalid
  /// (SpliceMismatch) if a script is malformed or disagrees with the live
  /// send side, always before reading outside @p script_payload; call
  /// validate_or_throw afterwards for the full structural re-check.
  void splice_send(std::span<const i64> script_payload,
                   std::span<const i64> script_offsets,
                   std::vector<i64>& scratch_indices,
                   std::vector<i64>& scratch_tombs) {
    const std::size_t np = send_offsets.empty() ? 0 : send_offsets.size() - 1;
    if (script_offsets.size() != np + 1) {
      throw ScheduleInvalid(
          "splice_send: script prefix does not match the schedule width",
          ScheduleErrorCode::SpliceMismatch, 0);
    }
    // The prefix arrives from peers: it must slice exactly the payload.
    if (script_offsets.front() != 0 ||
        script_offsets.back() != static_cast<i64>(script_payload.size()) ||
        !std::is_sorted(script_offsets.begin(), script_offsets.end())) {
      throw ScheduleInvalid(
          "splice_send: script prefix does not slice the payload",
          ScheduleErrorCode::SpliceMismatch, 0);
    }
    scratch_indices.clear();
    i64 old_begin = 0;  // offsets are rewritten in place; track the old ones
    for (std::size_t d = 0; d < np; ++d) {
      const i64* s = script_payload.data() + script_offsets[d];
      const i64* const s_end = script_payload.data() + script_offsets[d + 1];
      const i64 old_end = send_offsets[d + 1];
      const std::span<const i64> old_seg =
          std::span<const i64>(send_indices)
              .subspan(static_cast<std::size_t>(old_begin),
                       static_cast<std::size_t>(old_end - old_begin));
      old_begin = old_end;
      if (s == s_end) {  // untouched destination: segment copies through
        scratch_indices.insert(scratch_indices.end(), old_seg.begin(),
                               old_seg.end());
        send_offsets[d + 1] = static_cast<i64>(scratch_indices.size());
        continue;
      }
      // Each count is checked against the words left before anything it
      // sizes is read: [ntomb] [ntomb tombstones] [nins] [2*nins words].
      const i64 ntomb = *s++;
      if (ntomb < 0 || ntomb > s_end - s) {
        throw ScheduleInvalid("splice_send: truncated tombstone list",
                              ScheduleErrorCode::SpliceMismatch,
                              static_cast<i64>(d));
      }
      scratch_tombs.assign(s, s + ntomb);
      std::sort(scratch_tombs.begin(), scratch_tombs.end());
      s += ntomb;
      if (s == s_end) {
        throw ScheduleInvalid("splice_send: missing insertion count",
                              ScheduleErrorCode::SpliceMismatch,
                              static_cast<i64>(d));
      }
      const i64 nins = *s++;
      if (nins != (s_end - s) / 2 || (s_end - s) % 2 != 0) {
        throw ScheduleInvalid("splice_send: truncated insertion list",
                              ScheduleErrorCode::SpliceMismatch,
                              static_cast<i64>(d));
      }
      const i64 new_len = static_cast<i64>(old_seg.size()) - ntomb + nins;
      if (new_len < 0) {
        throw ScheduleInvalid(
            "splice_send: script removes more entries than the segment holds",
            ScheduleErrorCode::SpliceMismatch, static_cast<i64>(d));
      }
      const std::size_t base = scratch_indices.size();
      scratch_indices.resize(base + static_cast<std::size_t>(new_len));
      // One merge pass over final positions: take the next insertion when
      // its position matches, else the next surviving old entry.
      std::size_t old_k = 0;
      i64 ins_k = 0, removed = 0;
      for (i64 pos = 0; pos < new_len; ++pos) {
        if (ins_k < nins && s[2 * ins_k] == pos) {
          scratch_indices[base + static_cast<std::size_t>(pos)] =
              s[2 * ins_k + 1];
          ++ins_k;
          continue;
        }
        while (old_k < old_seg.size() &&
               std::binary_search(scratch_tombs.begin(), scratch_tombs.end(),
                                  old_seg[old_k])) {
          ++old_k;
          ++removed;
        }
        if (old_k >= old_seg.size()) {
          throw ScheduleInvalid(
              "splice_send: script consumed the old segment early",
              ScheduleErrorCode::SpliceMismatch, static_cast<i64>(d));
        }
        scratch_indices[base + static_cast<std::size_t>(pos)] =
            old_seg[old_k++];
      }
      while (old_k < old_seg.size() &&
             std::binary_search(scratch_tombs.begin(), scratch_tombs.end(),
                                old_seg[old_k])) {
        ++old_k;
        ++removed;
      }
      if (ins_k != nins || removed != ntomb || old_k != old_seg.size()) {
        throw ScheduleInvalid(
            "splice_send: script and segment disagree on the edit set",
            ScheduleErrorCode::SpliceMismatch, static_cast<i64>(d));
      }
      send_offsets[d + 1] = static_cast<i64>(scratch_indices.size());
    }
    send_indices.swap(scratch_indices);
  }

  /// Boolean convenience over check().
  [[nodiscard]] bool validate() const { return check().ok(); }

  /// Rejects an untrusted/corrupted schedule with a typed ScheduleInvalid
  /// naming the violated invariant; @p who labels the caller in the message.
  void validate_or_throw(const char* who) const {
    const CheckResult r = check();
    if (r.ok()) return;
    std::ostringstream os;
    os << who << ": invalid communication schedule — " << to_string(r.code)
       << " (at " << r.position << ")";
    throw ScheduleInvalid(os.str(), r.code, r.position);
  }
};

}  // namespace chaos::core

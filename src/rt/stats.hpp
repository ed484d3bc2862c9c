// Message-traffic counters, kept per logical process and aggregated by the
// Machine. Used by benches to report message counts / volumes alongside
// modeled times.
#pragma once

#include "rt/types.hpp"

namespace chaos::rt {

/// Plain per-process counters (each process only touches its own instance, so
/// no atomics are needed; aggregation happens after the SPMD region joins).
struct MessageStats {
  /// Messages and bytes a real hypercube would move for each collective,
  /// counted by rt/collectives.hpp beside its modeled charge.
  /// benchmark/src/trace.cpp reads the send pair.
  i64 messages_sent = 0;
  i64 bytes_sent = 0;
  i64 messages_received = 0;
  i64 bytes_received = 0;
  i64 collectives = 0;
  i64 barriers = 0;
  /// Personalized all-to-all exchanges (nested or flat) and the off-process
  /// payload they carried in the send direction. Lets BENCH files report the
  /// modeled volume of one executor sweep without re-deriving it from the
  /// schedule.
  i64 alltoallv_calls = 0;
  i64 alltoallv_bytes = 0;
  /// Inspector translation-cache outcome counters (dist::TranslationCache
  /// probes made by localize): hits resolve locally, misses go through the
  /// translation-table locate round.
  i64 tcache_hits = 0;
  i64 tcache_misses = 0;
  /// Dereference traffic (dist::TranslationTable::dereference): calls made
  /// and post-dedup request words shipped. The names predate the single
  /// locate protocol; external readers depend on them.
  i64 ttable_flat_calls = 0;
  i64 ttable_flat_wire_queries = 0;
  /// Robustness counters (DESIGN.md §10), machine-level: faults fired by an
  /// installed FaultPlan, deadline expiries that raised MachineTimeout, and
  /// blocked waits released by poison instead of completing. Table runs must
  /// show all three at zero by construction; the fault sweep shows them
  /// nonzero. Aggregated into total_stats() only (the events happen inside
  /// Machine waits, below the per-Process stats objects).
  i64 faults_injected = 0;
  i64 timeouts = 0;
  i64 poisoned_waits = 0;
  /// Degradation counters (DESIGN.md §13): partner-checkpoint captures made
  /// by rt::CheckpointStore (and the serialized snapshot bytes shipped to
  /// the buddy rank), plus segments adopted back — and their payload bytes —
  /// by core::restore_shrunk after a permanent rank failure. All zero on a
  /// healthy run; the table benches fold them into the robustness footer.
  i64 checkpoint_captures = 0;
  i64 checkpoint_bytes = 0;
  i64 restored_segments = 0;
  i64 restored_bytes = 0;
  /// Incremental schedule repair (DESIGN.md §14): schedules spliced in
  /// place by the delta path, and repair attempts that fell back to a full
  /// re-inspection (voted delta fraction over threshold, or a hard
  /// ineligibility). Both zero on any non-adaptive run — the bench footer
  /// asserts it.
  i64 schedule_repairs = 0;
  i64 repair_fallbacks = 0;

  void note_send(i64 bytes) {
    ++messages_sent;
    bytes_sent += bytes;
  }
  void note_recv(i64 bytes) {
    ++messages_received;
    bytes_received += bytes;
  }
  void note_alltoallv(i64 bytes_off_process) {
    ++alltoallv_calls;
    alltoallv_bytes += bytes_off_process;
  }
  void note_checkpoint(i64 snapshot_bytes) {
    ++checkpoint_captures;
    checkpoint_bytes += snapshot_bytes;
  }
  void note_restore(i64 segments, i64 bytes) {
    restored_segments += segments;
    restored_bytes += bytes;
  }

  MessageStats& operator+=(const MessageStats& o) {
    messages_sent += o.messages_sent;
    bytes_sent += o.bytes_sent;
    messages_received += o.messages_received;
    bytes_received += o.bytes_received;
    collectives += o.collectives;
    barriers += o.barriers;
    alltoallv_calls += o.alltoallv_calls;
    alltoallv_bytes += o.alltoallv_bytes;
    tcache_hits += o.tcache_hits;
    tcache_misses += o.tcache_misses;
    ttable_flat_calls += o.ttable_flat_calls;
    ttable_flat_wire_queries += o.ttable_flat_wire_queries;
    faults_injected += o.faults_injected;
    timeouts += o.timeouts;
    poisoned_waits += o.poisoned_waits;
    checkpoint_captures += o.checkpoint_captures;
    checkpoint_bytes += o.checkpoint_bytes;
    restored_segments += o.restored_segments;
    restored_bytes += o.restored_bytes;
    schedule_repairs += o.schedule_repairs;
    repair_fallbacks += o.repair_fallbacks;
    return *this;
  }
};

}  // namespace chaos::rt

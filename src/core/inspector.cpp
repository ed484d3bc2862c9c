#include "core/inspector.hpp"

#include <algorithm>
#include <limits>
#include <numeric>

namespace chaos::core {

namespace detail {

i64 dedup_batches(InspectorWorkspace& ws,
                  std::span<const std::span<const i64>> batches) {
  std::size_t total = 0;
  for (const auto& b : batches) total += b.size();
  ws.begin(total);
  std::size_t cursor = 0;
  for (const auto& b : batches) {
    for (const i64 g : b) {
      ws.pos_ids_[cursor++] = ws.dedup_id(g);
    }
  }
  ws.last_distinct_ = static_cast<i64>(ws.distinct_.size());
  return ws.last_distinct_;
}

// Ghost slots are per-owner contiguous, owners ascending, within an owner
// SORTED BY GLOBAL ascending — the canonical order that makes the schedule a
// pure function of the ghost set (DESIGN.md §14). Counting distinct
// off-process entries per owner and prefixing them yields the schedule's
// receive-side CSR; a cursor pass gathers each owner's ordinals, an in-place
// per-segment sort canonicalizes them, and one final pass assigns slots AND
// fills the flat request list. The sort adds no virtual-clock charge, so
// modeled times are unchanged from the first-occurrence era.
void assign_ghost_slots(InspectorWorkspace& ws, std::size_t np, i32 my_rank,
                        i64 nlocal, CommSchedule& schedule) {
  const i64 distinct = ws.last_distinct_;
  schedule.recv_offsets.resize(np + 1);
  std::fill(schedule.recv_offsets.begin(), schedule.recv_offsets.end(), 0);
  for (i64 k = 0; k < distinct; ++k) {
    const auto& e = ws.entries_[static_cast<std::size_t>(k)];
    if (e.proc != my_rank) {
      ++schedule.recv_offsets[static_cast<std::size_t>(e.proc) + 1];
    }
  }
  for (std::size_t r = 0; r < np; ++r) {
    schedule.recv_offsets[r + 1] += schedule.recv_offsets[r];
  }
  const i64 total_ghost = schedule.recv_offsets[np];
  ws.owner_cursor_.resize(np);
  std::copy(schedule.recv_offsets.begin(), schedule.recv_offsets.end() - 1,
            ws.owner_cursor_.begin());
  ws.ghost_ord_.resize(static_cast<std::size_t>(total_ghost));
  ws.loc_val_.resize(static_cast<std::size_t>(distinct));
  for (i64 k = 0; k < distinct; ++k) {
    const auto& e = ws.entries_[static_cast<std::size_t>(k)];
    if (e.proc == my_rank) {
      ws.loc_val_[static_cast<std::size_t>(k)] = e.local;
    } else {
      const i64 slot = ws.owner_cursor_[static_cast<std::size_t>(e.proc)]++;
      ws.ghost_ord_[static_cast<std::size_t>(slot)] = k;
    }
  }
  for (std::size_t r = 0; r < np; ++r) {
    std::sort(ws.ghost_ord_.begin() + schedule.recv_offsets[r],
              ws.ghost_ord_.begin() + schedule.recv_offsets[r + 1],
              [&ws](i64 a, i64 b) {
                return ws.distinct_[static_cast<std::size_t>(a)] <
                       ws.distinct_[static_cast<std::size_t>(b)];
              });
  }
  ws.req_local_.resize(static_cast<std::size_t>(total_ghost));
  for (i64 s = 0; s < total_ghost; ++s) {
    const auto k = static_cast<std::size_t>(ws.ghost_ord_[s]);
    ws.loc_val_[k] = nlocal + s;
    ws.req_local_[static_cast<std::size_t>(s)] = ws.entries_[k].local;
  }
}

// The dedup-first pipeline. Modeled virtual-clock charges are bit-identical
// to the historical translate-everything-first implementation when no cache
// is attached; the cached path replaces the saved locate traffic with one
// scalar allreduce vote, so its (smaller) modeled time reflects
// communication actually saved.
void localize_into(rt::Process& p, const dist::Distribution& d,
                   std::span<const std::span<const i64>> batches,
                   std::span<std::vector<i64>* const> refs_out,
                   CommSchedule& schedule, i64& off_process_refs,
                   InspectorWorkspace& ws) {
  const auto np = static_cast<std::size_t>(p.nprocs());
  const auto my_rank = static_cast<i32>(p.rank());
  const i64 nlocal = d.my_local_size();

  // Phase 1: collapse duplicate globals. Batches are walked directly — no
  // flattening copy for any batch count, single-batch included — and each
  // position records the distinct ordinal of its global.
  const i64 distinct = dedup_batches(ws, batches);
  const auto total = static_cast<std::size_t>(ws.last_total_);

  // Phase 2: resolve the distinct globals to (owner, local) entries — ONE
  // batched table dereference over distinct globals only. With a persistent
  // cache attached (irregular distributions), cached globals skip the locate
  // round; a machine-wide vote skips the round entirely when every rank is
  // fully warm.
  dist::TranslationCache* cache =
      (ws.opts_.translation_cache != nullptr &&
       d.kind() == dist::DistKind::Irregular)
          ? ws.opts_.translation_cache
          : nullptr;
  if (cache != nullptr) {
    if (!cache->bound()) {
      // Stamp 0 = "never modified"; callers tracking a ReuseRegistry bind
      // explicitly with reg.last_mod(dad) instead.
      cache->bind(d.dad(), 0);
    }
    CHAOS_CHECK(cache->accepts(d.dad()),
                "inspector: translation cache is bound to a different "
                "distribution instance — rebind after REDISTRIBUTE");
    // Attempt quarantine: insertions from a previous localize that threw
    // mid-exchange are still staged — drop them, so a retried attempt sees
    // exactly the committed (pre-failure) cache state and its miss vote,
    // locate round, and modeled clocks match a clean run bit for bit.
    cache->discard_staged();
    ws.entries_.resize(static_cast<std::size_t>(distinct));
    ws.all_ids_.resize(static_cast<std::size_t>(distinct));
    std::iota(ws.all_ids_.begin(), ws.all_ids_.end(), i64{0});
    const i64 nmiss =
        cache->probe_batch(ws.all_ids_, ws.distinct_, ws.entries_,
                           ws.miss_ids_, ws.miss_globals_);
    p.stats().tcache_hits += distinct - nmiss;
    p.stats().tcache_misses += nmiss;
    // One probe per distinct global.
    p.clock().charge_ops(distinct, p.params().mem_us_per_word);
    if (rt::allreduce_sum(p, nmiss) > 0) {
      d.locate_into(p, ws.miss_globals_, ws.miss_entries_, ws.deref_ws_);
      for (std::size_t j = 0; j < ws.miss_ids_.size(); ++j) {
        const auto k = static_cast<std::size_t>(ws.miss_ids_[j]);
        ws.entries_[k] = ws.miss_entries_[j];
        // Staged, not put: published only after the schedule validates at
        // the end of this localize (commit below), so an aborted attempt
        // cannot pre-warm the cache.
        cache->stage_put(ws.distinct_[k], ws.miss_entries_[j]);
      }
    }
  } else {
    // Model compensation: the translate-first pipeline dereferenced every
    // reference, duplicates included. The collapsed duplicates ride the
    // locate's own (single, fused) clock charge, so modeled times stay
    // bit-identical — same integer operand, same one rounding step — while
    // the host does ~1/multiplicity of the work.
    d.locate_into(p, ws.distinct_, ws.entries_, ws.deref_ws_,
                  static_cast<i64>(total) - distinct);
  }

  // Phase 3: canonical ghost-slot assignment (shared with the repair path).
  assign_ghost_slots(ws, np, my_rank, nlocal, schedule);
  const i64 total_ghost = schedule.recv_offsets[np];

  // Phase 4: write every batch's localized references through the distinct
  // ordinals, counting off-process references with multiplicity (a ghost
  // value is >= nlocal by construction).
  off_process_refs = 0;
  std::size_t cursor = 0;
  for (std::size_t b = 0; b < batches.size(); ++b) {
    std::vector<i64>& refs = *refs_out[b];
    refs.resize(batches[b].size());
    for (std::size_t i = 0; i < refs.size(); ++i) {
      const i64 v =
          ws.loc_val_[static_cast<std::size_t>(ws.pos_ids_[cursor++])];
      refs[i] = v;
      off_process_refs += static_cast<i64>(v >= nlocal);
    }
  }
  // Hash construction + lookups: ~2 memory ops per off-process reference,
  // plus one translate touch per reference — the historical dedup model.
  p.clock().charge_ops(static_cast<i64>(total) + 2 * off_process_refs,
                       p.params().mem_us_per_word);

  // Phase 5: exchange request lists; what arrives is my send side, built
  // directly in CSR form through the shared exchange (counts alltoall + one
  // flat payload alltoallv — no nested vectors anywhere).
  exchange_csr<i64>(p, ws.req_local_, schedule.recv_offsets,
                    schedule.send_indices, schedule.send_offsets,
                    ws.counts_scratch_);
  schedule.nghost = total_ghost;
  schedule.nlocal_at_build = nlocal;
  // Always-on structural validation of the freshly built plan: a peer
  // requesting an element outside my segment (or a broken prefix) surfaces
  // here as a typed ScheduleInvalid instead of UB in the executor.
  schedule.validate_or_throw("inspector");
  // The attempt is known-good: publish this localize's staged cache
  // insertions (no-op without a cache or when everything hit).
  if (cache != nullptr) cache->commit_staged();
  ws.last_dad_key_ = d.dad().key();
  ws.last_nlocal_ = nlocal;
}

// The delta path (DESIGN.md §14). Communication is proportional to the
// DELTA, not the mesh: one scalar vote, a locate over novel globals only
// (nothing at all when a warm cache absorbs them), and one splice-script
// exchange of two-ish words per changed ghost. Everything else — diff,
// slot assignment, refs rewrite — is local. The refs rewrite keeps the full
// Phase-4 charge (every position is re-resolved), an honest floor that still
// leaves repair far below a rebuild's locate + full request exchange.
bool repair_into(rt::Process& p, const dist::Distribution& d,
                 std::span<const std::span<const i64>> batches,
                 std::span<std::vector<i64>* const> refs_out,
                 CommSchedule& schedule, i64& off_process_refs,
                 InspectorWorkspace& ws, const LocalizeSnapshot& snap) {
  const auto np = static_cast<std::size_t>(p.nprocs());
  const auto my_rank = static_cast<i32>(p.rank());
  const i64 nlocal = d.my_local_size();

  // Phase R1: dedup the NEW reference set (identical front half).
  const i64 distinct = dedup_batches(ws, batches);
  const auto total = static_cast<std::size_t>(ws.last_total_);

  // Phase R2: hard eligibility, checked per rank. A snapshot from another
  // distribution instance (REDISTRIBUTE minted a fresh DAD), a resized
  // local segment, or a schedule of the wrong width can never be spliced —
  // the vote below turns any rank's ineligibility into a machine-wide
  // fallback, keeping every rank on the same path.
  const bool eligible = snap.valid && snap.dad_key == d.dad().key() &&
                        snap.nlocal == nlocal &&
                        schedule.nlocal_at_build == nlocal &&
                        static_cast<std::size_t>(schedule.nprocs()) == np;

  // Phase R3: diff the new distinct set against the snapshot. Retained
  // globals inherit their resolved entry for free; the rest are novel.
  i64 novel = 0;
  i64 departed = 0;
  if (eligible) {
    ws.build_prev_table(snap.distinct);
    ws.prev_matched_.assign(snap.distinct.size(), 0);
    ws.entries_.resize(static_cast<std::size_t>(distinct));
    ws.is_novel_.assign(static_cast<std::size_t>(distinct), 0);
    ws.novel_ids_.clear();
    for (i64 k = 0; k < distinct; ++k) {
      const i64 g = ws.distinct_[static_cast<std::size_t>(k)];
      const i64 q = ws.prev_lookup(g);
      if (q >= 0) {
        ws.entries_[static_cast<std::size_t>(k)] =
            snap.entries[static_cast<std::size_t>(q)];
        ws.prev_matched_[static_cast<std::size_t>(q)] = 1;
      } else {
        ws.is_novel_[static_cast<std::size_t>(k)] = 1;
        ws.novel_ids_.push_back(k);
      }
    }
    novel = static_cast<i64>(ws.novel_ids_.size());
    departed = static_cast<i64>(snap.distinct.size()) - (distinct - novel);
  }

  // Phase R4: the machine-wide repair vote — one scalar allreduce. Every
  // rank compares the worst delta fraction against the same threshold, so
  // all ranks take the same branch (repair or fallback) by construction.
  const f64 score =
      eligible ? static_cast<f64>(novel + departed) /
                     static_cast<f64>(std::max<i64>(i64{1}, distinct))
               : std::numeric_limits<f64>::infinity();
  if (rt::allreduce_max(p, score) > ws.opts_.effective_threshold()) {
    ++p.stats().repair_fallbacks;
    return false;
  }
  // Diff pass: one hash touch per distinct global (mirrors the cache-probe
  // charge of the full path).
  p.clock().charge_ops(distinct, p.params().mem_us_per_word);

  // Phase R5: locate the NOVEL globals only. Warm cache hits make this
  // free; misses (or the cache-free path) ship just the novel set through
  // the translation round, voted so empty machine-wide deltas skip it.
  dist::TranslationCache* cache =
      (ws.opts_.translation_cache != nullptr &&
       d.kind() == dist::DistKind::Irregular)
          ? ws.opts_.translation_cache
          : nullptr;
  if (cache != nullptr) {
    CHAOS_CHECK(cache->accepts(d.dad()),
                "repair: translation cache is bound to a different "
                "distribution instance — rebind after REDISTRIBUTE");
    cache->discard_staged();
    const i64 nmiss = cache->probe_batch(ws.novel_ids_, ws.distinct_,
                                         ws.entries_, ws.miss_ids_,
                                         ws.miss_globals_);
    p.stats().tcache_hits += novel - nmiss;
    p.stats().tcache_misses += nmiss;
    if (rt::allreduce_sum(p, nmiss) > 0) {
      d.locate_into(p, ws.miss_globals_, ws.miss_entries_, ws.deref_ws_);
      for (std::size_t j = 0; j < ws.miss_ids_.size(); ++j) {
        const auto k = static_cast<std::size_t>(ws.miss_ids_[j]);
        ws.entries_[k] = ws.miss_entries_[j];
        cache->stage_put(ws.distinct_[k], ws.miss_entries_[j]);
      }
    }
  } else if (rt::allreduce_sum(p, novel) > 0) {
    ws.novel_globals_.clear();
    for (const i64 k : ws.novel_ids_) {
      ws.novel_globals_.push_back(ws.distinct_[static_cast<std::size_t>(k)]);
    }
    d.locate_into(p, ws.novel_globals_, ws.novel_entries_, ws.deref_ws_);
    for (std::size_t j = 0; j < ws.novel_ids_.size(); ++j) {
      ws.entries_[static_cast<std::size_t>(ws.novel_ids_[j])] =
          ws.novel_entries_[j];
    }
  }

  // Phase R6: rebuild MY receive side from scratch, locally — canonical
  // sorted order makes it exactly what a full build would produce.
  assign_ghost_slots(ws, np, my_rank, nlocal, schedule);
  const i64 total_ghost = schedule.recv_offsets[np];

  // Phase R7: build one splice script per owner. Tombstones name departed
  // entries by owner-local index (request lists hold distinct locals, so
  // values identify entries); insertions carry (final position within the
  // owner's new segment, owner-local index), emitted position-ascending by
  // walking the sorted ghost order.
  ws.script_offsets_.assign(np + 1, 0);
  for (std::size_t q = 0; q < snap.distinct.size(); ++q) {
    if (ws.prev_matched_[q]) continue;
    const auto& e = snap.entries[q];
    if (e.proc != my_rank) {
      ws.script_offsets_[static_cast<std::size_t>(e.proc) + 1] += 1;
    }
  }
  for (const i64 k : ws.novel_ids_) {
    const auto& e = ws.entries_[static_cast<std::size_t>(k)];
    if (e.proc != my_rank) {
      ws.script_offsets_[static_cast<std::size_t>(e.proc) + 1] += 2;
    }
  }
  for (std::size_t r = 0; r < np; ++r) {
    // Two header words (ntomb, nins) for any owner with edits.
    if (ws.script_offsets_[r + 1] > 0) ws.script_offsets_[r + 1] += 2;
    ws.script_offsets_[r + 1] += ws.script_offsets_[r];
  }
  ws.script_payload_.resize(
      static_cast<std::size_t>(ws.script_offsets_[np]));
  ws.script_cursor_.assign(np, 0);
  // Tombstone sub-pass: count per owner first, then lay out each owner's
  // script as [ntomb, tombs..., nins, pairs...].
  for (std::size_t r = 0; r < np; ++r) {
    if (ws.script_offsets_[r + 1] > ws.script_offsets_[r]) {
      ws.script_cursor_[r] = ws.script_offsets_[r] + 1;  // after ntomb slot
    }
  }
  for (std::size_t q = 0; q < snap.distinct.size(); ++q) {
    if (ws.prev_matched_[q]) continue;
    const auto& e = snap.entries[q];
    if (e.proc == my_rank) continue;
    const auto r = static_cast<std::size_t>(e.proc);
    ws.script_payload_[static_cast<std::size_t>(ws.script_cursor_[r]++)] =
        e.local;
  }
  for (std::size_t r = 0; r < np; ++r) {
    if (ws.script_offsets_[r + 1] == ws.script_offsets_[r]) continue;
    const i64 base = ws.script_offsets_[r];
    ws.script_payload_[static_cast<std::size_t>(base)] =
        ws.script_cursor_[r] - base - 1;           // ntomb
    ++ws.script_cursor_[r];                        // reserve the nins slot
  }
  // Insertion sub-pass: slots ascending within each owner segment, so
  // positions arrive ascending as splice_send's merge requires.
  for (i64 s = 0; s < total_ghost; ++s) {
    const auto k = static_cast<std::size_t>(ws.ghost_ord_[s]);
    if (!ws.is_novel_[k]) continue;
    const auto& e = ws.entries_[k];
    const auto r = static_cast<std::size_t>(e.proc);
    const i64 pos = s - schedule.recv_offsets[r];
    ws.script_payload_[static_cast<std::size_t>(ws.script_cursor_[r]++)] =
        pos;
    ws.script_payload_[static_cast<std::size_t>(ws.script_cursor_[r]++)] =
        e.local;
  }
  for (std::size_t r = 0; r < np; ++r) {
    if (ws.script_offsets_[r + 1] == ws.script_offsets_[r]) continue;
    const i64 base = ws.script_offsets_[r];
    const i64 ntomb = ws.script_payload_[static_cast<std::size_t>(base)];
    const i64 nins_slot = base + 1 + ntomb;
    ws.script_payload_[static_cast<std::size_t>(nins_slot)] =
        (ws.script_cursor_[r] - nins_slot - 1) / 2;  // nins
  }

  // Phase R8: ship the scripts (requester d's script arrives as segment d
  // of my receive CSR — exactly the segment of my send side it edits) and
  // splice my send side in place. Then the full structural re-check.
  exchange_csr<i64>(p, ws.script_payload_, ws.script_offsets_,
                    ws.script_recv_, ws.script_recv_offsets_,
                    ws.counts_scratch_);
  schedule.splice_send(ws.script_recv_, ws.script_recv_offsets_,
                       ws.splice_scratch_, ws.tomb_scratch_);
  schedule.nghost = total_ghost;
  schedule.validate_or_throw("repair");

  // Phase R9: rewrite every batch's refs through the new localized values —
  // same shape and same charge as the full path's Phase 4.
  off_process_refs = 0;
  std::size_t cursor = 0;
  for (std::size_t b = 0; b < batches.size(); ++b) {
    std::vector<i64>& refs = *refs_out[b];
    refs.resize(batches[b].size());
    for (std::size_t i = 0; i < refs.size(); ++i) {
      const i64 v =
          ws.loc_val_[static_cast<std::size_t>(ws.pos_ids_[cursor++])];
      refs[i] = v;
      off_process_refs += static_cast<i64>(v >= nlocal);
    }
  }
  p.clock().charge_ops(static_cast<i64>(total) + 2 * off_process_refs,
                       p.params().mem_us_per_word);
  if (cache != nullptr) cache->commit_staged();
  ++p.stats().schedule_repairs;
  ws.last_dad_key_ = d.dad().key();
  ws.last_nlocal_ = nlocal;
  return true;
}

}  // namespace detail

void localize(rt::Process& p, const dist::Distribution& d,
              std::span<const i64> global_refs, InspectorWorkspace& ws,
              Localized& out) {
  const std::span<const i64> one[] = {global_refs};
  std::vector<i64>* const refs_out[] = {&out.refs};
  detail::localize_into(p, d, one, refs_out, out.schedule,
                        out.off_process_refs, ws);
}

void localize_many(rt::Process& p, const dist::Distribution& d,
                   std::span<const std::span<const i64>> batches,
                   InspectorWorkspace& ws, LocalizedMany& out) {
  out.refs.resize(batches.size());
  ws.refs_ptrs_.resize(batches.size());
  for (std::size_t b = 0; b < batches.size(); ++b) {
    ws.refs_ptrs_[b] = &out.refs[b];
  }
  detail::localize_into(p, d, batches, ws.refs_ptrs_, out.schedule,
                        out.off_process_refs, ws);
}

bool repair_localize(rt::Process& p, const dist::Distribution& d,
                     std::span<const i64> global_refs, InspectorWorkspace& ws,
                     const LocalizeSnapshot& snap, Localized& out) {
  const std::span<const i64> one[] = {global_refs};
  std::vector<i64>* const refs_out[] = {&out.refs};
  return detail::repair_into(p, d, one, refs_out, out.schedule,
                             out.off_process_refs, ws, snap);
}

bool repair_localize_many(rt::Process& p, const dist::Distribution& d,
                          std::span<const std::span<const i64>> batches,
                          InspectorWorkspace& ws, const LocalizeSnapshot& snap,
                          LocalizedMany& out) {
  out.refs.resize(batches.size());
  ws.refs_ptrs_.resize(batches.size());
  for (std::size_t b = 0; b < batches.size(); ++b) {
    ws.refs_ptrs_[b] = &out.refs[b];
  }
  return detail::repair_into(p, d, batches, ws.refs_ptrs_, out.schedule,
                             out.off_process_refs, ws, snap);
}

}  // namespace chaos::core

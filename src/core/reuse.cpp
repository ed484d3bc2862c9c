#include "core/reuse.hpp"

#include <algorithm>

namespace chaos::core {

namespace {

/// L.last_mod(DAD(ind_j)) := last_mod(DAD(ind_j)) for every indirection array.
void stamp(const ReuseRegistry& reg, InspectorRecord& rec) {
  rec.ind_last_mod.resize(rec.ind_dads.size());
  for (std::size_t j = 0; j < rec.ind_dads.size(); ++j) {
    rec.ind_last_mod[j] = reg.last_mod(rec.ind_dads[j]);
  }
}

}  // namespace

bool reuse_valid(const ReuseRegistry& reg, const InspectorRecord& rec,
                 std::span<const dist::Dad> cur_data_dads,
                 std::span<const dist::Dad> cur_ind_dads) {
  if (!dads_match(rec, cur_data_dads, cur_ind_dads)) return false;
  // Condition 3: last_mod(DAD(ind_j)) == L.last_mod(L.DAD(ind_j)).
  for (std::size_t j = 0; j < cur_ind_dads.size(); ++j) {
    if (reg.last_mod(cur_ind_dads[j]) != rec.ind_last_mod[j]) return false;
  }
  return true;
}

bool dads_match(const InspectorRecord& rec,
                std::span<const dist::Dad> cur_data_dads,
                std::span<const dist::Dad> cur_ind_dads) {
  // Condition 1: DAD(x_i) == L.DAD(x_i) for every data array.
  // Condition 2: DAD(ind_j) == L.DAD(ind_j) for every indirection array.
  return std::ranges::equal(cur_data_dads, rec.data_dads) &&
         std::ranges::equal(cur_ind_dads, rec.ind_dads);
}

InspectorCache::ProbeResult InspectorCache::probe(
    bool offer_repair, u64 loop_id, const ReuseRegistry& reg,
    std::span<const dist::Dad> data_dads,
    std::span<const dist::Dad> ind_dads) {
  const auto it = slots_.find(loop_id);
  if (it != slots_.end()) {
    if (reuse_valid(reg, it->second.record, data_dads, ind_dads)) {
      ++stats_.hits;
      return {ProbeOutcome::Hit, it->second.product};
    }
    if (offer_repair && dads_match(it->second.record, data_dads, ind_dads)) {
      return {ProbeOutcome::RepairCandidate, it->second.product};
    }
  }
  ++stats_.misses;
  return {};
}

void InspectorCache::note_repaired(u64 loop_id, const ReuseRegistry& reg) {
  ++stats_.repairs;
  stamp(reg, slots_.at(loop_id).record);
}

void InspectorCache::store(u64 loop_id, const ReuseRegistry& reg,
                           std::span<const dist::Dad> data_dads,
                           std::span<const dist::Dad> ind_dads,
                           std::shared_ptr<void> product) {
  // Built aside and moved in, so a failed allocation leaves the old slot
  // whole rather than a new guard over the old product.
  Slot slot;
  slot.record.data_dads.assign(data_dads.begin(), data_dads.end());
  slot.record.ind_dads.assign(ind_dads.begin(), ind_dads.end());
  stamp(reg, slot.record);
  slot.product = std::move(product);
  slots_[loop_id] = std::move(slot);
}

}  // namespace chaos::core

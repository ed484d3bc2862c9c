#include "core/mapper.hpp"

#include "dist/remap.hpp"

namespace chaos::core {

std::shared_ptr<const dist::Distribution> set_by_partitioning(
    rt::Process& p, const GeoCol& g, const std::string& partitioner,
    i64 page_size) {
  const auto fn = part::PartitionerRegistry::instance().get(partitioner);
  const std::vector<i64> parts = fn(p, g.view(), p.nprocs());
  CHAOS_CHECK(static_cast<i64>(parts.size()) == g.vdist()->my_local_size(),
              "partitioner returned misaligned part vector");
  return dist::Distribution::irregular_from_map(p, parts, *g.vdist(),
                                                page_size);
}

void Redistributor::apply(rt::Process& p,
                          std::shared_ptr<const dist::Distribution> to) {
  CHAOS_CHECK(to != nullptr, "REDISTRIBUTE: null target distribution");
  // Redistributing onto the distribution the arrays already have is a
  // no-op: nothing moves and no DAD changes, so inspectors stay valid.
  // This is what makes a REDISTRIBUTE inside a time-step loop free when the
  // partitioner's output did not change (Section 3 applied to the mapper).
  bool all_same = true;
  for (auto* a : arrays_f64_) all_same = all_same && a->dad() == to->dad();
  for (auto* a : arrays_i64_) all_same = all_same && a->dad() == to->dad();
  if (all_same && (!arrays_f64_.empty() || !arrays_i64_.empty())) {
    rt::barrier(p);
    return;
  }
  const dist::Distribution* from = nullptr;
  for (auto* a : arrays_f64_) from = from ? from : &a->dist();
  for (auto* a : arrays_i64_) from = from ? from : &a->dist();
  CHAOS_CHECK(from != nullptr, "REDISTRIBUTE: no arrays added");
  for (auto* a : arrays_f64_) {
    CHAOS_CHECK(a->dad() == from->dad(),
                "REDISTRIBUTE: arrays are not aligned to one distribution");
  }
  for (auto* a : arrays_i64_) {
    CHAOS_CHECK(a->dad() == from->dad(),
                "REDISTRIBUTE: arrays are not aligned to one distribution");
  }

  const auto plan = dist::build_remap(p, *from, *to);
  for (auto* a : arrays_f64_) a->redistribute(p, plan, to);
  for (auto* a : arrays_i64_) a->redistribute(p, plan, to);
  if (registry_ != nullptr) registry_->note_remap(to->dad());
}

}  // namespace chaos::core

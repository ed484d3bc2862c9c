#include "dist/remap.hpp"

namespace chaos::dist {

RemapPlan build_remap(rt::Process& p, const Distribution& from,
                      const Distribution& to) {
  CHAOS_CHECK(from.size() == to.size(),
              "REDISTRIBUTE: distributions differ in global size (" +
                  std::to_string(from.size()) + " vs " +
                  std::to_string(to.size()) + ")");
  RemapPlan plan;
  plan.size = from.size();
  plan.nlocal_from = from.my_local_size();
  plan.nlocal_to = to.my_local_size();
  plan.from_incarnation = from.dad().incarnation;
  plan.to_incarnation = to.dad().incarnation;
  plan.send_pos.resize(static_cast<std::size_t>(p.nprocs()));

  // One batched locate of every source global against the target layout.
  const auto globals = from.my_globals();
  const auto entries = to.locate(p, globals);

  // Sender side: source positions per destination (ascending by position, so
  // the receiver's placement list below is deterministically aligned). A
  // counting pass sizes both per-destination lists exactly.
  const auto np = static_cast<std::size_t>(p.nprocs());
  std::vector<std::vector<i64>> dest_local(np);
  {
    std::vector<std::size_t> counts(np, 0);
    for (const Entry& e : entries) ++counts[static_cast<std::size_t>(e.proc)];
    for (std::size_t r = 0; r < np; ++r) {
      plan.send_pos[r].reserve(counts[r]);
      dest_local[r].reserve(counts[r]);
    }
  }
  i64 moved = 0;
  for (std::size_t l = 0; l < entries.size(); ++l) {
    const auto dest = static_cast<std::size_t>(entries[l].proc);
    plan.send_pos[dest].push_back(static_cast<i64>(l));
    dest_local[dest].push_back(entries[l].local);
    if (static_cast<int>(dest) != p.rank()) ++moved;
  }
  p.clock().charge_ops(static_cast<i64>(entries.size()),
                       p.params().mem_us_per_word);

  // Receiver side: learn where each arriving value lands in my target
  // segment (the senders know the target local indices from locate).
  plan.place_pos = rt::alltoallv(p, dest_local);
  plan.moved_elements = rt::allreduce_sum(p, moved);
  return plan;
}

}  // namespace chaos::dist

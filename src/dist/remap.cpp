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

  // One batched locate of every source global against the target layout.
  const auto globals = from.my_globals();
  const auto entries = to.locate(p, globals);

  // Sender side: source positions grouped by destination, ascending within
  // each (so the receiver's placement list below is deterministically
  // aligned), beside the target local index each value will take.
  plan.send_pos.resize(entries.size());
  std::vector<i64> dest_local(entries.size());
  rt::group_by_dest(
      p.nprocs(), entries.size(),
      [&](std::size_t l) { return entries[l].proc; }, plan.send_offsets,
      [&](std::size_t l, std::size_t slot) {
        plan.send_pos[slot] = static_cast<i64>(l);
        dest_local[slot] = entries[l].local;
      });
  const auto me = static_cast<std::size_t>(p.rank());
  const i64 moved = static_cast<i64>(entries.size()) -
                    (plan.send_offsets[me + 1] - plan.send_offsets[me]);
  p.clock().charge_ops(static_cast<i64>(entries.size()),
                       p.params().mem_us_per_word);

  // Receiver side: learn where each arriving value lands in my target
  // segment (the senders know the target local indices from locate).
  rt::alltoallv<i64>(p, dest_local, plan.send_offsets, plan.place_pos,
                     plan.recv_offsets);
  plan.moved_elements = rt::allreduce_sum(p, moved);
  return plan;
}

}  // namespace chaos::dist

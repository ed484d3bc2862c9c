// Epoch-tagged open-addressing table of global indices, one u32 id per key.
// The inspector's reference dedup, its repair diff and the translation
// table's remote-query dedup all run on it: a pass opens with begin(), feeds
// indices through find_or_insert(), and the caller writes its own id into
// every slot that comes back new (a distinct ordinal, a snapshot ordinal, or
// a position in a home's request segment). The table never decides an id.
//
// Slots are 16 bytes {key, epoch, id}; a pass resets the table by bumping
// the epoch, so a warm pass performs no heap allocation and no clear.
#pragma once

#include <algorithm>
#include <bit>
#include <limits>
#include <utility>
#include <vector>

#include "dist/dad.hpp"

namespace chaos::dist {

class DedupTable {
 public:
  /// Opens a pass over at most @p bound distinct keys: the probed prefix of
  /// the table is a power of two of at least 16 slots and 2·bound, so the
  /// load factor stays <= 1/2, and every slot of an older pass reads as
  /// empty. The caller guarantees the bound; more distinct keys than that
  /// could fill the table. Allocates only on growth.
  void begin(i64 bound) {
    CHAOS_CHECK(bound >= 0 && bound <= i64{std::numeric_limits<u32>::max()},
                "dedup table: " + std::to_string(bound) +
                    " distinct keys do not fit one pass");
    const std::size_t cap = std::bit_ceil(
        std::max<std::size_t>(16, 2 * static_cast<std::size_t>(bound)));
    if (slots_.size() < cap) slots_.resize(cap);
    mask_ = cap - 1;
    if (++epoch_ == 0) {  // wrapped: retag every slot as empty
      for (auto& s : slots_) s.epoch = 0;
      epoch_ = 1;
    }
  }

  /// The id of @p g and whether this pass sees @p g for the first time. A
  /// new key's id is unset until the caller writes it through the returned
  /// reference, which stays valid until the next begin().
  std::pair<u32&, bool> find_or_insert(i64 g) {
    std::size_t k = home(g);
    while (slots_[k].epoch == epoch_) {
      if (slots_[k].key == g) return {slots_[k].id, false};
      k = (k + 1) & mask_;
    }
    slots_[k].key = g;
    slots_[k].epoch = epoch_;
    return {slots_[k].id, true};
  }

  /// The id of @p g if this pass has inserted it, else -1.
  [[nodiscard]] i64 find(i64 g) const {
    for (std::size_t k = home(g); slots_[k].epoch == epoch_;
         k = (k + 1) & mask_) {
      if (slots_[k].key == g) return slots_[k].id;
    }
    return -1;
  }

 private:
  struct Slot {
    i64 key = 0;
    u32 epoch = 0;  ///< the pass that wrote the slot; 0 = never written
    u32 id = 0;
  };
  static_assert(sizeof(Slot) == 16);

  [[nodiscard]] std::size_t home(i64 g) const {
    return static_cast<std::size_t>(detail::mix64(static_cast<u64>(g))) &
           mask_;
  }

  std::vector<Slot> slots_;
  std::size_t mask_ = 0;
  u32 epoch_ = 0;
};

}  // namespace chaos::dist

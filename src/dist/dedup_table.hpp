// Epoch-tagged open-addressing table of global indices, one u32 id per key.
// The inspector's reference dedup, its repair diff and the translation
// table's remote-query dedup all run on it: a pass opens with begin(), feeds
// indices through find_or_insert(), and the caller writes its own id into
// every slot that comes back new (a distinct ordinal or a snapshot ordinal).
// The table never decides an id.
//
// Slots are 16 bytes {key, epoch, id}; a pass resets the table by bumping
// the epoch, so a warm pass performs no heap allocation and no clear. Every
// caller knows its keys lie in [0, range) (a table extent or a distribution
// size); when that range fits the table, a key's slot is the key itself, so
// keys never collide and no hash is computed.
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
  /// Opens a pass over at most @p bound distinct keys, all in [0, @p range).
  /// The table grows to a power of two of at least 16 slots and 2·bound, so
  /// the load factor stays <= 1/2, and every slot of an older pass reads as
  /// empty. If the range fits the whole table, each key indexes its own slot
  /// (direct); otherwise keys hash into that power-of-two prefix. The caller
  /// guarantees the bound, and that keys lie in the range (a key outside it
  /// is still found or inserted correctly, but may probe). Allocates only on
  /// growth.
  void begin(i64 bound, i64 range) {
    CHAOS_CHECK(bound >= 0 && bound <= i64{std::numeric_limits<u32>::max()},
                "dedup table: " + std::to_string(bound) +
                    " distinct keys do not fit one pass");
    const std::size_t cap = std::bit_ceil(
        std::max<std::size_t>(16, 2 * static_cast<std::size_t>(bound)));
    if (slots_.size() < cap) slots_.resize(cap);
    direct_ = range <= static_cast<i64>(slots_.size());
    mask_ = (direct_ ? slots_.size() : cap) - 1;
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
    const auto k = static_cast<u64>(g);
    return static_cast<std::size_t>(direct_ ? k : detail::mix64(k)) & mask_;
  }

  std::vector<Slot> slots_;
  std::size_t mask_ = 0;
  bool direct_ = false;  ///< this pass indexes slots by key
  u32 epoch_ = 0;
};

}  // namespace chaos::dist

// A distributed data array: this process's owned segment of a 1-D global
// array followed by a ghost region sized by the current communication
// schedule, in one buffer laid out [owned | ghost]. Executors address
// elements through "localized" indices — [0, nlocal) hits the owned segment,
// [nlocal, nlocal+nghost) the gathered off-process copies — so a localized
// reference is one index: no branch, no hashing, no translation.
#pragma once

#include <algorithm>
#include <memory>
#include <span>
#include <type_traits>
#include <vector>

#include "dist/distribution.hpp"
#include "rt/collectives.hpp"

namespace chaos::dist {

struct RemapPlan;

template <typename T>
class DistributedArray {
  static_assert(std::is_trivially_copyable_v<T>);

 public:
  /// Collective (all processes construct together against one distribution).
  DistributedArray(rt::Process& p, std::shared_ptr<const Distribution> d,
                   T init = T{})
      : dist_(std::move(d)) {
    CHAOS_CHECK(dist_ != nullptr, "DistributedArray: null distribution");
    CHAOS_CHECK(dist_->nprocs() == p.nprocs(),
                "DistributedArray: distribution built for another machine");
    nlocal_ = dist_->my_local_size();
    data_.assign(static_cast<std::size_t>(nlocal_), init);
  }

  [[nodiscard]] const Distribution& dist() const { return *dist_; }
  [[nodiscard]] const std::shared_ptr<const Distribution>& dist_ptr() const {
    return dist_;
  }
  [[nodiscard]] const Dad& dad() const { return dist_->dad(); }

  [[nodiscard]] i64 nlocal() const { return nlocal_; }
  [[nodiscard]] i64 nghost() const {
    return static_cast<i64>(data_.size()) - nlocal_;
  }

  [[nodiscard]] std::span<T> local() { return view().first(owned()); }
  [[nodiscard]] std::span<const T> local() const {
    return view().first(owned());
  }
  [[nodiscard]] std::span<T> ghost() { return view().subspan(owned()); }
  [[nodiscard]] std::span<const T> ghost() const {
    return view().subspan(owned());
  }
  /// The whole [owned | ghost] buffer, indexed by localized references.
  [[nodiscard]] std::span<T> view() { return data_; }
  [[nodiscard]] std::span<const T> view() const { return data_; }

  /// Reads through a localized index (inspector output).
  [[nodiscard]] T localized(i64 ref) const {
    return data_[static_cast<std::size_t>(ref)];
  }

  /// Sizes the ghost tail to @p n elements, all T{}. Allocates only when
  /// the buffer grows past its capacity.
  void resize_ghost(i64 n) {
    CHAOS_CHECK(n >= 0, "resize_ghost: negative size");
    data_.resize(owned() + static_cast<std::size_t>(n));
    std::fill(data_.begin() + static_cast<std::ptrdiff_t>(owned()),
              data_.end(), T{});
  }

  /// Sets every owned element from its global index. Local-only.
  template <typename Fn>
  void fill_by_global(Fn&& fn) {
    for (std::size_t l = 0; l < owned(); ++l) {
      data_[l] = static_cast<T>(fn(dist_->my_global_of(static_cast<i64>(l))));
    }
  }

  /// Replaces the owned segment (e.g. with a remapped image of the array);
  /// the ghost tail is dropped.
  void assign_local(std::vector<T>&& values) {
    CHAOS_CHECK(static_cast<i64>(values.size()) == dist_->my_local_size(),
                "assign_local: segment size does not match the distribution");
    data_ = std::move(values);
  }

  /// Collective: reassembles the full global array on every process
  /// (test/debug path — O(N) everywhere by design).
  [[nodiscard]] std::vector<T> to_global(rt::Process& p) const {
    const auto globals = dist_->my_globals();
    const auto all_g = rt::allgatherv<i64>(p, globals);
    const auto all_v = rt::allgatherv<T>(p, local());
    std::vector<T> out(static_cast<std::size_t>(dist_->size()));
    for (std::size_t k = 0; k < all_g.size(); ++k) {
      out[static_cast<std::size_t>(all_g[k])] = all_v[k];
    }
    return out;
  }

  /// Collective: moves the owned segment onto @p to with a prebuilt plan
  /// (one plan moves every aligned array — the REDISTRIBUTE contract).
  void redistribute(rt::Process& p, const RemapPlan& plan,
                    std::shared_ptr<const Distribution> to);

 private:
  [[nodiscard]] std::size_t owned() const {
    return static_cast<std::size_t>(nlocal_);
  }

  std::shared_ptr<const Distribution> dist_;
  i64 nlocal_ = 0;
  std::vector<T> data_;  ///< [owned | ghost]
};

}  // namespace chaos::dist

#include "dist/remap.hpp"

namespace chaos::dist {

template <typename T>
void DistributedArray<T>::redistribute(rt::Process& p, const RemapPlan& plan,
                                       std::shared_ptr<const Distribution> to) {
  // Every guard fires BEFORE the exchange: a stale or mismatched plan must
  // not leave some ranks mid-collective (or the array half-mutated) while
  // others throw. Incarnations pin the plan to the exact distribution
  // instances it was built between.
  CHAOS_CHECK(to != nullptr, "redistribute: null target distribution");
  CHAOS_CHECK(plan.from_incarnation == dist_->dad().incarnation,
              "redistribute: plan was built from a different source "
              "distribution");
  CHAOS_CHECK(plan.to_incarnation == to->dad().incarnation,
              "redistribute: plan was built for a different target "
              "distribution");
  CHAOS_CHECK(plan.nlocal_to == to->my_local_size(),
              "redistribute: plan does not match the target distribution");
  // The ghost tail goes with the old layout: its schedules are void.
  data_ = apply_remap<T>(p, plan, local());
  nlocal_ = plan.nlocal_to;
  dist_ = std::move(to);
}

}  // namespace chaos::dist

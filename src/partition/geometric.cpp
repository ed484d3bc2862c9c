// Level-parallel recursive geometric bisection: the shared engine behind RCB
// (longest-axis cuts) and inertial bisection (principal-axis cuts). All
// active groups of one recursion level are processed together, so the number
// of collectives per level is constant regardless of how many groups exist.
#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <vector>

#include "partition/partitioner.hpp"
#include "rt/collectives.hpp"

namespace chaos::part {

namespace {

constexpr int kMedianIterations = 40;
constexpr f64 kDegenerateExtent = 1e-12;
// A group whose final bisection window still holds more than this fraction
// of its weight has a tie cluster sitting on the cut (coincident or
// duplicate coordinates); its window members are re-split by global id.
// Calibration: structured grids routinely park a whole coordinate plane
// (a few percent of the group) on the cut and have always been split
// whole-plane; the threshold only fires on macroscopic clusters, bounding
// the worst untreated imbalance at ~1.2 while leaving grid cuts untouched.
constexpr f64 kTieWeightFraction = 0.10;

struct Group {
  i64 part_lo;  // this group will end up holding parts [part_lo, part_hi)
  i64 part_hi;
};

/// Axis chooser: given per-group aggregate geometry, produce for each group a
/// unit direction; vertices are then ordered by their projection onto it.
/// `mins/maxs` are 3 values per group; `moments` carries [w, wx, wy, wz,
/// wxx, wyy, wzz, wxy, wxz, wyz] per group (only filled for inertial).
using AxisFn = std::function<std::array<f64, 3>(
    int dims, const std::array<f64, 3>& mins, const std::array<f64, 3>& maxs,
    std::span<const f64> moments)>;

std::array<f64, 3> longest_axis(int dims, const std::array<f64, 3>& mins,
                                const std::array<f64, 3>& maxs,
                                std::span<const f64> /*moments*/) {
  int best = 0;
  f64 best_extent = -1.0;
  for (int d = 0; d < dims; ++d) {
    const f64 e = maxs[static_cast<std::size_t>(d)] -
                  mins[static_cast<std::size_t>(d)];
    if (e > best_extent) {
      best_extent = e;
      best = d;
    }
  }
  std::array<f64, 3> axis{0.0, 0.0, 0.0};
  axis[static_cast<std::size_t>(best)] = 1.0;
  return axis;
}

std::array<f64, 3> principal_axis(int dims, const std::array<f64, 3>& mins,
                                  const std::array<f64, 3>& maxs,
                                  std::span<const f64> moments) {
  const f64 w = moments[0];
  if (w <= 0.0) return longest_axis(dims, mins, maxs, moments);
  const f64 cx = moments[1] / w, cy = moments[2] / w, cz = moments[3] / w;
  // Central second moments (covariance * w).
  f64 m[3][3] = {{moments[4] - w * cx * cx, moments[7] - w * cx * cy,
                  moments[8] - w * cx * cz},
                 {moments[7] - w * cx * cy, moments[5] - w * cy * cy,
                  moments[9] - w * cy * cz},
                 {moments[8] - w * cx * cz, moments[9] - w * cy * cz,
                  moments[6] - w * cz * cz}};
  // Deterministic power iteration for the dominant eigenvector.
  std::array<f64, 3> v{1.0, 0.577, 0.333};
  for (int d = dims; d < 3; ++d) v[static_cast<std::size_t>(d)] = 0.0;
  for (int it = 0; it < 64; ++it) {
    std::array<f64, 3> nv{0.0, 0.0, 0.0};
    for (int r = 0; r < dims; ++r) {
      for (int c = 0; c < dims; ++c) {
        nv[static_cast<std::size_t>(r)] +=
            m[r][c] * v[static_cast<std::size_t>(c)];
      }
    }
    f64 norm = std::sqrt(nv[0] * nv[0] + nv[1] * nv[1] + nv[2] * nv[2]);
    if (norm < 1e-30) return longest_axis(dims, mins, maxs, moments);
    for (auto& x : nv) x /= norm;
    v = nv;
  }
  return v;
}

/// The engine. Returns part ids aligned with g.vdist.
std::vector<i64> recursive_bisection(rt::Process& p, const GeoColView& g,
                                     int nparts, const AxisFn& choose_axis,
                                     bool need_moments) {
  CHAOS_CHECK(nparts >= 1, "partition: nparts must be positive");
  CHAOS_CHECK(g.has_geometry(),
              "geometric partitioner requires GEOMETRY in the GeoCoL");
  const i64 n = g.nlocal();
  const auto globals = g.vdist->my_globals();

  std::vector<i64> group_of(static_cast<std::size_t>(n), 0);
  std::vector<Group> groups{{0, nparts}};

  while (true) {
    // Collect the groups that still need splitting.
    std::vector<int> active;
    for (std::size_t gi = 0; gi < groups.size(); ++gi) {
      if (groups[gi].part_hi - groups[gi].part_lo > 1) {
        active.push_back(static_cast<int>(gi));
      }
    }
    if (active.empty()) break;
    const std::size_t na = active.size();
    std::vector<i64> slot_of_group(groups.size(), -1);
    for (std::size_t s = 0; s < na; ++s) {
      slot_of_group[static_cast<std::size_t>(active[s])] = static_cast<i64>(s);
    }

    // Aggregate geometry per active group: bounding box and, when the axis
    // chooser needs them, the first/second weighted moments.
    constexpr f64 kInf = std::numeric_limits<f64>::infinity();
    std::vector<f64> mins(3 * na, kInf), maxs(3 * na, -kInf);
    std::vector<f64> moments(need_moments ? 10 * na : 0, 0.0);
    for (i64 l = 0; l < n; ++l) {
      const i64 slot = slot_of_group[static_cast<std::size_t>(group_of[
          static_cast<std::size_t>(l)])];
      if (slot < 0) continue;
      const f64 w = g.weight_of(l);
      std::array<f64, 3> x{0.0, 0.0, 0.0};
      for (int d = 0; d < g.dims; ++d) {
        x[static_cast<std::size_t>(d)] =
            g.coords[static_cast<std::size_t>(d)][static_cast<std::size_t>(l)];
        auto& mn = mins[static_cast<std::size_t>(3 * slot + d)];
        auto& mx = maxs[static_cast<std::size_t>(3 * slot + d)];
        mn = std::min(mn, x[static_cast<std::size_t>(d)]);
        mx = std::max(mx, x[static_cast<std::size_t>(d)]);
      }
      if (need_moments) {
        f64* mo = &moments[static_cast<std::size_t>(10 * slot)];
        mo[0] += w;
        mo[1] += w * x[0];
        mo[2] += w * x[1];
        mo[3] += w * x[2];
        mo[4] += w * x[0] * x[0];
        mo[5] += w * x[1] * x[1];
        mo[6] += w * x[2] * x[2];
        mo[7] += w * x[0] * x[1];
        mo[8] += w * x[0] * x[2];
        mo[9] += w * x[1] * x[2];
      }
    }
    p.clock().charge_ops(n, p.params().mem_us_per_word);
    mins = rt::allreduce_vec(p, mins,
                             [](f64 a, f64 b) { return std::min(a, b); });
    maxs = rt::allreduce_vec(p, maxs,
                             [](f64 a, f64 b) { return std::max(a, b); });
    if (need_moments) moments = rt::allreduce_vec(p, moments, std::plus<>{});

    // Choose one axis per group and project every member onto it. Degenerate
    // groups (all points coincident) fall back to splitting by global id so
    // the recursion always terminates with balanced parts.
    std::vector<std::array<f64, 3>> axes(na);
    std::vector<bool> degenerate(na, false);
    for (std::size_t s = 0; s < na; ++s) {
      std::array<f64, 3> mn{}, mx{};
      f64 extent = 0.0;
      for (int d = 0; d < 3; ++d) {
        mn[static_cast<std::size_t>(d)] = mins[3 * s + static_cast<std::size_t>(d)];
        mx[static_cast<std::size_t>(d)] = maxs[3 * s + static_cast<std::size_t>(d)];
        if (d < g.dims && mx[static_cast<std::size_t>(d)] >= mn[static_cast<std::size_t>(d)]) {
          extent = std::max(
              extent, mx[static_cast<std::size_t>(d)] - mn[static_cast<std::size_t>(d)]);
        }
      }
      degenerate[s] = extent < kDegenerateExtent;
      std::span<const f64> mo =
          need_moments ? std::span<const f64>(&moments[10 * s], 10)
                       : std::span<const f64>{};
      axes[s] = choose_axis(g.dims, mn, mx, mo);
    }

    std::vector<f64> proj(static_cast<std::size_t>(n), 0.0);
    std::vector<f64> proj_min(na, kInf), proj_max(na, -kInf);
    for (i64 l = 0; l < n; ++l) {
      const i64 slot = slot_of_group[static_cast<std::size_t>(group_of[
          static_cast<std::size_t>(l)])];
      if (slot < 0) continue;
      const std::size_t s = static_cast<std::size_t>(slot);
      f64 t;
      if (degenerate[s]) {
        t = static_cast<f64>(globals[static_cast<std::size_t>(l)]);
      } else {
        t = 0.0;
        for (int d = 0; d < g.dims; ++d) {
          t += axes[s][static_cast<std::size_t>(d)] *
               g.coords[static_cast<std::size_t>(d)][static_cast<std::size_t>(l)];
        }
      }
      proj[static_cast<std::size_t>(l)] = t;
      proj_min[s] = std::min(proj_min[s], t);
      proj_max[s] = std::max(proj_max[s], t);
    }
    p.clock().charge_ops(n, p.params().flop_us * 3);
    proj_min = rt::allreduce_vec(p, proj_min,
                                 [](f64 a, f64 b) { return std::min(a, b); });
    proj_max = rt::allreduce_vec(p, proj_max,
                                 [](f64 a, f64 b) { return std::max(a, b); });

    // Total weight and target left-fraction per group.
    std::vector<f64> total_w(na, 0.0);
    for (i64 l = 0; l < n; ++l) {
      const i64 slot = slot_of_group[static_cast<std::size_t>(group_of[
          static_cast<std::size_t>(l)])];
      if (slot >= 0) total_w[static_cast<std::size_t>(slot)] += g.weight_of(l);
    }
    total_w = rt::allreduce_vec(p, total_w, std::plus<>{});
    std::vector<f64> target(na);
    for (std::size_t s = 0; s < na; ++s) {
      const Group& gr = groups[static_cast<std::size_t>(active[s])];
      const i64 mid = (gr.part_lo + gr.part_hi) / 2;
      target[s] = total_w[s] * static_cast<f64>(mid - gr.part_lo) /
                  static_cast<f64>(gr.part_hi - gr.part_lo);
    }

    // Weighted-median search: synchronized interval bisection, all groups at
    // once (one vector allreduce per iteration). w_lo/w_hi track the exact
    // weight strictly below each interval endpoint as it moves — free
    // byproducts of the loop's own reductions, consumed by tie detection.
    std::vector<f64> lo = proj_min, hi = proj_max, cut(na);
    std::vector<f64> w_lo(na, 0.0), w_hi = total_w;
    for (int it = 0; it < kMedianIterations; ++it) {
      for (std::size_t s = 0; s < na; ++s) cut[s] = 0.5 * (lo[s] + hi[s]);
      std::vector<f64> below(na, 0.0);
      for (i64 l = 0; l < n; ++l) {
        const i64 slot = slot_of_group[static_cast<std::size_t>(group_of[
            static_cast<std::size_t>(l)])];
        if (slot < 0) continue;
        const std::size_t s = static_cast<std::size_t>(slot);
        if (proj[static_cast<std::size_t>(l)] < cut[s]) {
          below[s] += g.weight_of(l);
        }
      }
      p.clock().charge_ops(n, p.params().flop_us);
      below = rt::allreduce_vec(p, below, std::plus<>{});
      for (std::size_t s = 0; s < na; ++s) {
        if (below[s] < target[s]) {
          lo[s] = cut[s];
          w_lo[s] = below[s];
        } else {
          hi[s] = cut[s];
          w_hi[s] = below[s];
        }
      }
    }

    // Tie-splitting: duplicate coordinates make the below-weight jump
    // discontinuously, so the bisection stalls with the whole tie cluster
    // inside the final window [lo, hi] — the plain "proj < cut" assignment
    // would dump all of it on one side, however unbalanced. For any group
    // whose window still holds a macroscopic share of its weight, bisect a
    // global-id threshold over the window members so that
    // weight{proj < lo} + weight{window, gid < id_cut} hits the target.
    // Global ids are unique, so this always lands within one point of the
    // target, deterministically and identically on every rank. Groups with
    // no tie skip this entirely (no extra collectives, bit-identical cuts).
    std::vector<char> tied(na, 0);
    std::vector<i64> id_cut(na, 0);
    bool any_tie = false;
    for (std::size_t s = 0; s < na; ++s) {
      if (total_w[s] > 0.0 &&
          w_hi[s] - w_lo[s] > kTieWeightFraction * total_w[s]) {
        tied[s] = 1;
        any_tie = true;  // replicated decision: inputs are allreduced values
      }
    }
    if (any_tie) {
      const i64 id_limit = g.nglobal();
      std::vector<i64> id_lo(na, 0), id_hi(na, id_limit);
      int id_iters = 1;
      while ((i64{1} << id_iters) < id_limit) ++id_iters;
      std::vector<f64> below_id(na, 0.0);
      for (int it = 0; it <= id_iters; ++it) {
        for (std::size_t s = 0; s < na; ++s) {
          id_cut[s] = id_lo[s] + (id_hi[s] - id_lo[s]) / 2;
        }
        std::fill(below_id.begin(), below_id.end(), 0.0);
        for (i64 l = 0; l < n; ++l) {
          const i64 slot = slot_of_group[static_cast<std::size_t>(group_of[
              static_cast<std::size_t>(l)])];
          if (slot < 0 || !tied[static_cast<std::size_t>(slot)]) continue;
          const std::size_t s = static_cast<std::size_t>(slot);
          const f64 t = proj[static_cast<std::size_t>(l)];
          if (t >= lo[s] && t <= hi[s] &&
              globals[static_cast<std::size_t>(l)] < id_cut[s]) {
            below_id[s] += g.weight_of(l);
          }
        }
        p.clock().charge_ops(n, p.params().flop_us);
        below_id = rt::allreduce_vec(p, below_id, std::plus<>{});
        for (std::size_t s = 0; s < na; ++s) {
          if (!tied[s]) continue;
          if (w_lo[s] + below_id[s] < target[s]) {
            id_lo[s] = id_cut[s];
          } else {
            id_hi[s] = id_cut[s];
          }
        }
      }
      // weight{left}(id_hi) >= target by invariant, overshoot <= one point.
      for (std::size_t s = 0; s < na; ++s) id_cut[s] = id_hi[s];
    }

    // Split the groups and reassign members.
    std::vector<i64> left_child(groups.size(), -1), right_child(groups.size(), -1);
    for (std::size_t s = 0; s < na; ++s) {
      const auto parent = static_cast<std::size_t>(active[s]);
      const i64 lo_part = groups[parent].part_lo;
      const i64 mid = (lo_part + groups[parent].part_hi) / 2;
      const Group left{lo_part, mid};
      const Group right{mid, groups[parent].part_hi};
      left_child[parent] = static_cast<i64>(groups.size());
      groups.push_back(left);
      right_child[parent] = static_cast<i64>(groups.size());
      groups.push_back(right);
      // Re-indexed, not through a reference taken above: the pushes may
      // have reallocated the vector.
      groups[parent].part_hi = lo_part;  // mark the parent as exhausted
    }
    for (i64 l = 0; l < n; ++l) {
      const i64 old = group_of[static_cast<std::size_t>(l)];
      const i64 slot = slot_of_group[static_cast<std::size_t>(old)];
      if (slot < 0) continue;
      const std::size_t s = static_cast<std::size_t>(slot);
      const f64 t = proj[static_cast<std::size_t>(l)];
      bool left;
      if (tied[s]) {
        left = t < lo[s] ||
               (t <= hi[s] && globals[static_cast<std::size_t>(l)] < id_cut[s]);
      } else {
        left = t < 0.5 * (lo[s] + hi[s]);
      }
      group_of[static_cast<std::size_t>(l)] =
          left ? left_child[static_cast<std::size_t>(old)]
               : right_child[static_cast<std::size_t>(old)];
    }
    p.clock().charge_ops(n, p.params().mem_us_per_word);
  }

  std::vector<i64> parts(static_cast<std::size_t>(n));
  for (i64 l = 0; l < n; ++l) {
    const Group& gr = groups[static_cast<std::size_t>(group_of[
        static_cast<std::size_t>(l)])];
    parts[static_cast<std::size_t>(l)] = gr.part_lo;
  }
  return parts;
}

}  // namespace

std::vector<i64> partition_rcb(rt::Process& p, const GeoColView& g,
                               int nparts) {
  return recursive_bisection(p, g, nparts, longest_axis,
                             /*need_moments=*/false);
}

std::vector<i64> partition_inertial(rt::Process& p, const GeoColView& g,
                                    int nparts) {
  return recursive_bisection(p, g, nparts, principal_axis,
                             /*need_moments=*/true);
}

}  // namespace chaos::part

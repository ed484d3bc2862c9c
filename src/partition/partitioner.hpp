// Partitioner registry: the paper's "library of commonly available
// partitioners" from which the SET ... USING <name> directive picks, plus
// the hook for user-supplied partitioners ("the user can link a customized
// partitioner as long as the calling sequence matches").
#pragma once

#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "partition/geocol_view.hpp"
#include "rt/machine.hpp"

namespace chaos::part {

/// A partitioner is a collective function: every process passes its local
/// GeoCoL view and receives the part id (0..nparts-1) of each owned vertex,
/// aligned with the view's vertex distribution.
using PartitionFn =
    std::function<std::vector<i64>(rt::Process&, const GeoColView&, int nparts)>;

class PartitionerRegistry {
 public:
  static PartitionerRegistry& instance();

  /// Registers (or replaces) a partitioner under @p name (case-sensitive,
  /// conventionally upper-case: "RCB", "RSB", ...). Safe to call from every
  /// process of a running Machine at once.
  void add(const std::string& name, PartitionFn fn);

  [[nodiscard]] bool contains(const std::string& name) const;
  /// Returns a copy, so a concurrent add() replacing @p name cannot pull the
  /// function out from under a caller that is running it.
  [[nodiscard]] PartitionFn get(const std::string& name) const;
  [[nodiscard]] std::vector<std::string> names() const;

 private:
  PartitionerRegistry();
  mutable std::mutex mu_;
  std::vector<std::pair<std::string, PartitionFn>> entries_;
};

// --- built-in partitioners (also self-registered in the registry) ----------

/// Naive baselines (need nothing from the GeoCoL beyond the vertex count).
std::vector<i64> partition_block(rt::Process& p, const GeoColView& g, int nparts);
std::vector<i64> partition_cyclic(rt::Process& p, const GeoColView& g, int nparts);
std::vector<i64> partition_random(rt::Process& p, const GeoColView& g, int nparts);

/// Recursive coordinate bisection (Berger–Bokhari): weighted median cuts
/// along the longest axis. Needs GEOMETRY (uses LOAD if present).
std::vector<i64> partition_rcb(rt::Process& p, const GeoColView& g, int nparts);

/// Inertial bisection: cuts along the principal axis of the point cloud.
/// Needs GEOMETRY (uses LOAD if present).
std::vector<i64> partition_inertial(rt::Process& p, const GeoColView& g,
                                    int nparts);

/// Recursive spectral bisection (Simon): Fiedler-vector median cuts.
/// Needs LINK connectivity (uses LOAD if present for balance).
std::vector<i64> partition_rsb(rt::Process& p, const GeoColView& g, int nparts);

/// Greedy/BFS partitioner (Farhat): grow parts breadth-first from peripheral
/// seeds until each reaches its weight target. Needs LINK connectivity.
std::vector<i64> partition_greedy(rt::Process& p, const GeoColView& g,
                                  int nparts);

/// Greedy KL/FM-style boundary refinement applied to an existing assignment;
/// needs LINK connectivity. Exposed as "RCB+KL" / "RSB+KL" in the registry.
std::vector<i64> refine_kl(rt::Process& p, const GeoColView& g, int nparts,
                           std::vector<i64> parts, int max_passes = 4);

}  // namespace chaos::part

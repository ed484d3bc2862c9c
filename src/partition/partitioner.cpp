#include "partition/partitioner.hpp"

#include <algorithm>

namespace chaos::part {

namespace {

u64 splitmix64(u64 x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

PartitionerRegistry& PartitionerRegistry::instance() {
  static PartitionerRegistry registry;
  return registry;
}

PartitionerRegistry::PartitionerRegistry() {
  add("BLOCK", partition_block);
  add("CYCLIC", partition_cyclic);
  add("RANDOM", partition_random);
  add("RCB", partition_rcb);
  add("INERTIAL", partition_inertial);
  add("RSB", partition_rsb);
  add("GREEDY", partition_greedy);
  add("RCB+KL", [](rt::Process& p, const GeoColView& g, int nparts) {
    return refine_kl(p, g, nparts, partition_rcb(p, g, nparts));
  });
  add("RSB+KL", [](rt::Process& p, const GeoColView& g, int nparts) {
    return refine_kl(p, g, nparts, partition_rsb(p, g, nparts));
  });
}

void PartitionerRegistry::add(const std::string& name, PartitionFn fn) {
  CHAOS_CHECK(!name.empty(), "partitioner name must not be empty");
  const std::lock_guard lock(mu_);
  for (auto& [n, f] : entries_) {
    if (n == name) {
      f = std::move(fn);
      return;
    }
  }
  entries_.emplace_back(name, std::move(fn));
}

bool PartitionerRegistry::contains(const std::string& name) const {
  const std::lock_guard lock(mu_);
  for (const auto& [n, f] : entries_) {
    if (n == name) return true;
  }
  return false;
}

PartitionFn PartitionerRegistry::get(const std::string& name) const {
  const std::lock_guard lock(mu_);
  for (const auto& [n, f] : entries_) {
    if (n == name) return f;
  }
  CHAOS_CHECK(false, "unknown partitioner: " + name +
                         " (register it via PartitionerRegistry::add)");
  return {};
}

std::vector<std::string> PartitionerRegistry::names() const {
  const std::lock_guard lock(mu_);
  std::vector<std::string> out;
  out.reserve(entries_.size());
  for (const auto& [n, f] : entries_) out.push_back(n);
  return out;
}

std::vector<i64> partition_block(rt::Process& p, const GeoColView& g,
                                 int nparts) {
  CHAOS_CHECK(nparts >= 1, "partition: nparts must be positive");
  const i64 b = std::max<i64>((g.nglobal() + nparts - 1) / nparts, 1);
  std::vector<i64> parts(static_cast<std::size_t>(g.nlocal()));
  const auto globals = g.vdist->my_globals();
  for (std::size_t l = 0; l < parts.size(); ++l) parts[l] = globals[l] / b;
  p.clock().charge_ops(g.nlocal(), p.params().mem_us_per_word * 0.25);
  return parts;
}

std::vector<i64> partition_cyclic(rt::Process& p, const GeoColView& g,
                                  int nparts) {
  CHAOS_CHECK(nparts >= 1, "partition: nparts must be positive");
  std::vector<i64> parts(static_cast<std::size_t>(g.nlocal()));
  const auto globals = g.vdist->my_globals();
  for (std::size_t l = 0; l < parts.size(); ++l) parts[l] = globals[l] % nparts;
  p.clock().charge_ops(g.nlocal(), p.params().mem_us_per_word * 0.25);
  return parts;
}

std::vector<i64> partition_random(rt::Process& p, const GeoColView& g,
                                  int nparts) {
  CHAOS_CHECK(nparts >= 1, "partition: nparts must be positive");
  std::vector<i64> parts(static_cast<std::size_t>(g.nlocal()));
  const auto globals = g.vdist->my_globals();
  for (std::size_t l = 0; l < parts.size(); ++l) {
    parts[l] = static_cast<i64>(splitmix64(static_cast<u64>(globals[l])) %
                                static_cast<u64>(nparts));
  }
  p.clock().charge_ops(g.nlocal(), p.params().mem_us_per_word * 0.5);
  return parts;
}

}  // namespace chaos::part

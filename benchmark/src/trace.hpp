// Span trace recorded by the benchmark from the outside: one span around each
// call the harness makes into a layer's public functions, plus the harness's
// own setup / step / job roots. Spans live in per-rank buffers preallocated
// before the first job, so recording never allocates; they are aggregated
// between jobs and written as Chrome trace-event JSON when the run ends.
#pragma once

#include <chrono>
#include <cstdint>
#include <iterator>
#include <string>
#include <vector>

#include "rt/machine.hpp"

namespace bench {

using chaos::f64;
using chaos::i64;

enum class SpanName : std::uint8_t {
  Setup,          // harness: inputs -> first sweep ready
  Step,           // harness: one timestep
  Job,            // harness: one whole VM program run
  Arrays,         // dist::Distribution::block, DistributedArray set-up
  GeoCol,         // core::GeoColBuilder::build
  Partition,      // core::set_by_partitioning
  Remap,          // core::Redistributor::apply, dist::apply_remap
  IterPartition,  // core::partition_iterations
  Inspector,      // core::localize_many, EdgeReductionLoop::inspect
  Guard,          // core::InspectorCache::get_or_build
  Repair,         // core::EdgeReductionLoop::repair
  Executor,       // core::EdgeReductionLoop::execute
  Compile,        // lang::compile
  Execute,        // lang::Instance::execute
  kCount
};

struct SpanInfo {
  const char* name;
  const char* layer;
};

inline constexpr SpanInfo kSpanInfo[] = {
    {"harness.setup", "harness"},
    {"harness.step", "harness"},
    {"harness.job", "harness"},
    {"dist.arrays", "dist"},
    {"core.geocol", "core.geocol"},
    {"partition", "partition"},
    {"dist.remap", "dist"},
    {"core.iter_partition", "core.inspector"},
    {"core.inspector", "core.inspector"},
    {"core.reuse.guard", "core.reuse"},
    {"core.repair", "core.repair"},
    {"core.executor", "core.executor"},
    {"lang.compile", "lang"},
    {"lang.execute", "lang"},
};
static_assert(std::size(kSpanInfo) == static_cast<std::size_t>(SpanName::kCount));

/// The rt::MessageStats fields a span carries as deltas (read by their
/// current field names; see README.md).
struct Counters {
  i64 messages = 0;         // messages_sent
  i64 bytes = 0;            // bytes_sent
  i64 collectives = 0;      // collectives
  i64 barriers = 0;         // barriers
  i64 alltoallv = 0;        // alltoallv_calls
  i64 alltoallv_bytes = 0;  // alltoallv_bytes
  i64 tcache_hits = 0;      // tcache_hits
  i64 tcache_misses = 0;    // tcache_misses
  i64 locate_calls = 0;     // ttable_flat_calls
  i64 wire_queries = 0;     // ttable_flat_wire_queries

  Counters& operator+=(const Counters& o);
  Counters& operator-=(const Counters& o);
};
[[nodiscard]] Counters counters_of(const chaos::rt::MessageStats& s);

struct Span {
  SpanName name = SpanName::Setup;
  int parent = -1;  // index of the enclosing span on the same rank, or -1
  int job = 0;
  int step = -1;    // timestep, -1 outside the step loop
  f64 wall_b = 0, wall_e = 0;  // wall µs since the tracer's epoch
  f64 mod_b = 0, mod_e = 0;    // modeled µs on the rank's virtual clock
  Counters delta;              // MessageStats change over the span
};

/// One rank's span buffer. Only its own rank (or the host thread between
/// runs) touches it.
class RankTrace {
 public:
  explicit RankTrace(std::size_t capacity) : buf_(capacity) {}

  [[nodiscard]] int open(SpanName name, int job, int step, f64 wall, f64 mod,
                         const Counters& at);
  void close(int index, f64 wall, f64 mod, const Counters& at);
  void clear() {
    n_ = 0;
    depth_ = 0;
  }
  [[nodiscard]] const Span* begin() const { return buf_.data(); }
  [[nodiscard]] const Span* end() const { return buf_.data() + n_; }
  [[nodiscard]] std::size_t size() const { return n_; }
  [[nodiscard]] bool overflowed() const { return overflowed_; }

 private:
  static constexpr int kMaxDepth = 16;
  std::vector<Span> buf_;
  std::size_t n_ = 0;
  int stack_[kMaxDepth] = {};
  int depth_ = 0;
  bool overflowed_ = false;
};

class Tracer {
 public:
  Tracer(int nranks, std::size_t capacity_per_rank);

  [[nodiscard]] f64 now_us() const {
    return std::chrono::duration<f64, std::micro>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }
  RankTrace& rank(int r) { return ranks_[static_cast<std::size_t>(r)]; }
  [[nodiscard]] const RankTrace& rank(int r) const {
    return ranks_[static_cast<std::size_t>(r)];
  }
  [[nodiscard]] int nranks() const { return static_cast<int>(ranks_.size()); }
  void clear() {
    for (auto& r : ranks_) r.clear();
  }

  int job = 0;  // stamped into every span opened; set between runs

 private:
  std::chrono::steady_clock::time_point epoch_;
  std::vector<RankTrace> ranks_;
};

/// RAII span around one layer call. A null tracer makes it a no-op, which is
/// how the untraced runs execute the same harness code.
class Scope {
 public:
  Scope(Tracer* t, chaos::rt::Process& p, SpanName name, int step = -1);
  /// Host-side span (no Process: before or between machine runs) recorded on
  /// rank 0's track, whose thread the host shares; modeled time reads 0.
  Scope(Tracer* t, SpanName name, int step = -1);
  ~Scope();

  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* t_;
  chaos::rt::Process* p_ = nullptr;
  int index_ = -1;
};

/// Appends every span of @p t as Chrome trace events to @p out: pid = rank,
/// tid 0 = wall clock, tid 1 = modeled clock.
void append_chrome_events(const Tracer& t, std::string& out, bool& first);

}  // namespace bench

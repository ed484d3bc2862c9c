// The virtual distributed-memory machine. A Machine owns a persistent pool
// of parked worker threads (one per logical process beyond rank 0);
// Machine::run dispatches the SPMD body into the pool and executes rank 0
// inline, so back-to-back runs reuse the same threads instead of paying a
// spawn/join per call. Each rank receives a Process& handle that exposes
// rank/size, a parity double-buffered blackboard used by the collective
// templates in rt/collectives.hpp (the only way ranks exchange data), a
// VirtualClock, and traffic statistics. Synchronization is an atomics-based
// combining barrier with the virtual-clock max-reduction fused into its
// arrival fold — no mutex anywhere on the fast path, spin-then-yield-then-
// futex waiting, and a single one-word release broadcast per pass. This
// substrate substitutes for the paper's Intel iPSC/860 hypercube
// (DESIGN.md §2, §7).
#pragma once

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "rt/cost_model.hpp"
#include "rt/fault.hpp"
#include "rt/stats.hpp"
#include "rt/types.hpp"

namespace chaos::rt {

class Process;

/// Vestigial: benchmark/src/workloads.cpp still checks
/// `recover_report().dirty_shards.empty()` after every job. The machine
/// holds no message queues, so nothing can be left dirty: always empty.
struct RecoverReport {
  std::vector<int> dirty_shards;
};

/// Owns the shared state of one SPMD execution: the worker pool, the
/// combining barrier, blackboard slots for collectives, and cost parameters.
/// Reusable: run() may be called any number of times; stats, clocks, and
/// poison state are reset between runs.
class Machine {
 public:
  explicit Machine(int nprocs, CostParams params = {});
  ~Machine();

  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  /// Runs @p body as rank 0..nprocs-1 concurrently; returns when all ranks
  /// finish. The first exception thrown by any rank is rethrown here; the
  /// machine poisons the barrier, so ranks blocked in collectives are
  /// released with MachinePoisoned instead of deadlocking.
  void run(const std::function<void(Process&)>& body);

  /// One-shot convenience: construct, run, tear down.
  static void run(int nprocs, const std::function<void(Process&)>& body,
                  CostParams params = {});

  /// Restores a poisoned or timed-out machine to a runnable state: resets
  /// barrier epochs, arrival cells, release words and blackboard bytes, and
  /// clears the poison flag plus the stored first error. Callable only
  /// between runs (workers parked). run() performs the same reset on entry;
  /// a supervisor calls recover() to hand back a clean machine after a
  /// failed attempt even when it does not retry. It does NOT touch the
  /// installed fault plan, the deadline, the monotonic counter, or the
  /// previous run's stats/clocks (still readable for post-mortem until the
  /// next run()).
  void recover();

  /// recover(), plus an always-empty report. Kept only for
  /// benchmark/src/workloads.cpp, which asserts the report is empty after
  /// every job; nothing in src/, bench/ or tests/ calls it.
  RecoverReport recover_report() {
    recover();
    return {};
  }

  [[nodiscard]] int nprocs() const { return nprocs_; }

  // --- graceful degradation: the shrunken active-rank view -----------------

  /// Number of ranks the next run() will execute. Starts at nprocs() and is
  /// narrowed by shrink_to() after a permanent rank failure; every Process
  /// reports this as its nprocs(), so collectives and barrier arithmetic
  /// operate on the dense surviving set [0, active_nprocs) without
  /// reconstructing the machine.
  [[nodiscard]] int active_nprocs() const {
    return active_nprocs_.load(std::memory_order_relaxed);
  }

  /// Declares ranks [n, active_nprocs) dead: subsequent runs execute only
  /// the n survivors (their worker threads stay parked; dispatch wakes them
  /// and inactive ranks immediately report done). Callable only between
  /// runs. Survivor state (blackboard, barrier cells) is indexed by logical
  /// rank and the surviving set stays dense, so nothing is reallocated.
  /// Does NOT touch the installed fault plan — a plan keyed to the old
  /// logical rank numbering is the caller's to uninstall first (the degrade
  /// drivers do exactly that on PermanentFault).
  void shrink_to(int n);

  /// Undoes every shrink: the next run executes all nprocs() ranks again.
  /// For pooled machines that outlive one degraded pipeline.
  void restore_full_width();

  /// Machine-lifetime count of width-narrowing shrink_to() calls (never
  /// reset by run()); the robustness footers report it.
  [[nodiscard]] i64 shrink_count() const {
    return shrink_count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] const CostParams& params() const { return params_; }

  /// Aggregated per-process statistics of the last run(), including the
  /// machine-level fault/timeout/poisoned-wait counters (DESIGN.md §10).
  [[nodiscard]] MessageStats total_stats() const;
  [[nodiscard]] const MessageStats& stats_of(int rank) const;
  /// Maximum virtual time over all processes at the end of the last run().
  [[nodiscard]] f64 max_virtual_time_us() const;

  // --- robustness: fault injection and deadlines ---------------------------

  /// Installs (or, with nullptr, removes) a fault plan. The plan must
  /// outlive its installation and must not be mutated while a run is
  /// active; it is NOT cleared between runs, so a multi-run bench can keep
  /// one armed plan. With no plan installed every injection site is a
  /// relaxed load + null test — modeled clocks are byte-identical either
  /// way, since faults never charge virtual time.
  void install_fault_plan(FaultPlan* plan) {
    fault_plan_.store(plan, std::memory_order_release);
  }
  [[nodiscard]] FaultPlan* fault_plan() const {
    return fault_plan_.load(std::memory_order_acquire);
  }

  /// The substrate's instrumentation hook: every named FaultSite funnels
  /// through here. No-op (one relaxed pointer load) unless a plan is
  /// installed; otherwise may throw, sleep, or stall per the plan.
  void inject_point(FaultSite site, int rank) {
    FaultPlan* plan = fault_plan_.load(std::memory_order_relaxed);
    if (plan == nullptr) [[likely]] return;
    plan->on_visit(*this, site, rank);
  }

  /// Arms the watchdog: a barrier arrival that waits longer than
  /// @p seconds of wall-clock throws MachineTimeout naming the missing
  /// ranks, barrier epoch, and virtual clock; the timeout then poisons the
  /// siblings exactly like MachinePoisoned.
  /// 0 (the default) disables all deadlines — the substrate waits forever
  /// and the futex fast path is byte-for-byte the pre-watchdog one.
  void set_deadline_sec(f64 seconds) {
    deadline_sec_.store(seconds, std::memory_order_relaxed);
  }
  [[nodiscard]] f64 deadline_sec() const {
    return deadline_sec_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] bool is_poisoned() const {
    return poisoned_.load(std::memory_order_acquire);
  }
  void note_fault_injected() {
    faults_injected_.fetch_add(1, std::memory_order_relaxed);
  }
  void note_timeout() { timeouts_.fetch_add(1, std::memory_order_relaxed); }
  void note_poisoned_wait() {
    poisoned_waits_.fetch_add(1, std::memory_order_relaxed);
  }

  // --- internals shared with Process / collectives -------------------------

  /// One fused combining pass: blocks until all ranks arrive, max-reduces
  /// @p value (non-negative, an IEEE trick folds it as integer bits) across
  /// them, and returns the global max on every rank. Arrivals CAS-fold the
  /// value into one cell and fetch_add one counter — a radix-P combining
  /// tree; a deeper tree would shed cacheline contention, but an arrival
  /// RMW costs ~100ns while every extra tree level costs a wakeup chain
  /// (a scheduler quantum when ranks outnumber cores), so flat wins for
  /// P <= 64. The last arriver publishes the fold through a single
  /// epoch-stamped release word — one notify_all per pass, with none of the
  /// condvar herd's serialized mutex re-acquisition. Doubles as the
  /// machine's memory fence — the release sequence through the counter's
  /// RMW chain into the release word orders every pre-barrier write
  /// (blackboard deposits included) before every post-barrier read on every
  /// rank, which is what lets the blackboard slots stay plain bytes and
  /// still run TSan-clean. Throws MachinePoisoned if a sibling rank failed,
  /// MachineTimeout if a deadline is set and peers fail to arrive in time.
  /// @p now_us is the caller's virtual clock, used only to stamp timeout
  /// reports (never to decide anything).
  f64 barrier_reduce_max(int rank, f64 value, f64 now_us = 0.0);

  /// Byte capacity of one inline blackboard slot; values up to this size are
  /// exchanged by copy (one barrier phase), larger payloads by pointer plus
  /// a read-done phase.
  static constexpr std::size_t kBlackboardBytes = 64;

  /// Blackboard slot of @p rank for collective sequence number @p seq. Slots
  /// are double-buffered on seq parity: a rank can be at most one collective
  /// ahead of a peer that is still reading (completing collective n+1
  /// requires every rank to have entered it, hence to have finished reading
  /// collective n), so the writer of seq+2 can never clobber an unread slot.
  void* bb_slot(int rank, u64 seq) {
    return bb_[static_cast<std::size_t>(rank) * 2 + (seq & 1)].buf;
  }
  [[nodiscard]] const void* bb_slot(int rank, u64 seq) const {
    return bb_[static_cast<std::size_t>(rank) * 2 + (seq & 1)].buf;
  }

  /// Monotonic counter advanced collectively (rank 0 bumps, all observe via
  /// broadcast); used to mint machine-wide unique ids such as DAD
  /// incarnations. Atomic so cross-run reuse needs no external ordering.
  u64 bump_counter() {
    return counter_.fetch_add(1, std::memory_order_relaxed) + 1;
  }

 private:
  /// Arrival state of one barrier pass: ranks CAS the bit pattern of their
  /// non-negative clock value into `max_bits` (IEEE doubles >= 0 order as
  /// unsigned integers) and then count themselves in with `arrived`.
  /// Parity-indexed (pass & 1): the last arriver of pass n resets the cells
  /// before publishing the release word, and no rank can reach pass n+2 —
  /// the next user of this parity — without having observed release n+1,
  /// hence the reset.
  struct alignas(64) ArrivalCell {
    std::atomic<u64> max_bits{0};
    std::atomic<int> arrived{0};
  };

  /// Release word of one barrier pass: the last arriver writes the folded
  /// max to `value`, release-stores the pass number to `epoch`, and wakes
  /// all waiters; everyone else acquire-waits on epoch >= n. The epoch is
  /// 32-bit on purpose: that is the size std::atomic::wait can hand to the
  /// futex directly, skipping the library's proxy-wait path. Pass numbers
  /// reset to 0 every run(), so wraparound would need 2^32 barriers in one
  /// SPMD region.
  struct alignas(64) BarrierSlot {
    std::atomic<u32> epoch{0};
    f64 value = 0.0;
  };

  struct alignas(64) BlackboardSlot {
    std::byte buf[kBlackboardBytes];
  };

  /// Per-rank barrier pass counter; only its owning rank advances it
  /// (relaxed — it carries no ordering), padded so neighbors do not
  /// false-share. Atomic so the watchdog of a timing-out peer can read
  /// every rank's arrival progress to name the stragglers.
  struct alignas(64) RankState {
    std::atomic<u32> barrier_epoch{0};
  };

  /// Acquire-waits until @p epoch reaches @p target: a short pause-spin for
  /// the runs-on-its-own-core case, a few yields, then a futex-backed
  /// atomic wait so oversubscribed hosts (64 logical ranks on a handful of
  /// cores) sleep instead of thrashing the scheduler. Checks the poison
  /// flag throughout. With a machine deadline set, the futex sleep becomes
  /// a bounded poll and expiry throws MachineTimeout naming every rank
  /// whose barrier_epoch has not reached @p target (@p rank / @p now_us
  /// stamp the report).
  void wait_epoch(std::atomic<u32>& epoch, u32 target, int rank, f64 now_us);

  void worker_loop(int rank);
  /// Runs @p body as @p rank, records stats/clock, and on exception stores
  /// the first error and poisons the barrier.
  void execute(int rank, const std::function<void(Process&)>& body);
  void poison();
  void reset_for_run();

  int nprocs_;
  int spin_limit_;   ///< pause-spins before yielding; 0 when oversubscribed
  int yield_limit_;  ///< yields before the futex sleep; 0 when oversubscribed
  CostParams params_;
  ArrivalCell arrival_[2];                   // combining cells, [parity]
  BarrierSlot release_[2];                   // broadcast words, [parity]
  std::vector<BlackboardSlot> bb_;           // [rank][parity]
  std::vector<RankState> rank_state_;        // [rank]
  std::vector<MessageStats> stats_;
  std::vector<f64> final_clock_us_;
  /// The degradation view (relaxed: written only between runs from the host
  /// thread; the run-dispatch pool_mutex_ handshake orders it against every
  /// worker read, and atomicity keeps concurrent relaxed reads from
  /// watchdog/timeout paths well-defined).
  std::atomic<int> active_nprocs_;
  std::atomic<i64> shrink_count_{0};
  std::atomic<u64> counter_{0};
  std::atomic<bool> poisoned_{false};
  std::atomic<FaultPlan*> fault_plan_{nullptr};
  std::atomic<f64> deadline_sec_{0.0};
  std::atomic<i64> faults_injected_{0};
  std::atomic<i64> timeouts_{0};
  std::atomic<i64> poisoned_waits_{0};

  std::exception_ptr first_error_;
  std::mutex error_mutex_;

  // Worker pool: parked threads for ranks 1..P-1 (rank 0 runs inline in
  // run()). The pool mutex/condvar are touched once per run() dispatch and
  // completion, never per barrier.
  std::vector<std::thread> workers_;
  std::mutex pool_mutex_;
  std::condition_variable pool_cv_;  ///< signals a new run (or shutdown)
  std::condition_variable done_cv_;  ///< signals all workers finished
  const std::function<void(Process&)>* body_ = nullptr;
  u64 run_generation_ = 0;
  int running_ = 0;
  bool stop_ = false;

  friend class Process;
};

/// Per-rank handle passed to SPMD bodies. Not thread-safe across ranks; each
/// rank uses only its own Process.
class Process {
 public:
  Process(Machine& machine, int rank)
      : machine_(&machine), rank_(rank) {}

  [[nodiscard]] int rank() const { return rank_; }
  /// The ACTIVE machine width: after a shrink this is the surviving count,
  /// so every collective and distribution built from this handle
  /// automatically spans only the dense surviving set.
  [[nodiscard]] int nprocs() const { return machine_->active_nprocs(); }
  [[nodiscard]] bool is_root() const { return rank_ == 0; }
  [[nodiscard]] Machine& machine() { return *machine_; }
  [[nodiscard]] const CostParams& params() const { return machine_->params(); }

  VirtualClock& clock() { return clock_; }
  [[nodiscard]] const VirtualClock& clock() const { return clock_; }
  MessageStats& stats() { return stats_; }

  /// Raw synchronization phase with no clock effect (building block for the
  /// collectives' read-done fences; user code should call
  /// collectives::barrier instead).
  void barrier_sync_only() {
    ++stats_.barriers;
    (void)machine_->barrier_reduce_max(rank_, 0.0, clock_.now_us());
  }

  /// Fused synchronization phase: publishes this rank's virtual clock into
  /// the barrier's reduction and returns the global maximum — the BSP
  /// "equalize entering clocks" step in a single combining pass.
  [[nodiscard]] f64 barrier_clock_max() {
    ++stats_.barriers;
    return machine_->barrier_reduce_max(rank_, clock_.now_us(),
                                        clock_.now_us());
  }

  /// Collective sequence number, advanced once per blackboard collective.
  /// All ranks execute the same collective sequence (SPMD), so the numbers
  /// agree machine-wide and index the parity double-buffered slots.
  u64 next_bb_seq() { return bb_seq_++; }

 private:
  Machine* machine_;
  int rank_;
  VirtualClock clock_;
  MessageStats stats_;
  u64 bb_seq_ = 0;
};

}  // namespace chaos::rt

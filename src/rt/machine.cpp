#include "rt/machine.hpp"

#include <bit>
#include <chrono>

namespace chaos::rt {

namespace {

/// Pause instruction for the short pre-yield spin window.
inline void cpu_pause() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__) || defined(__arm__)
  asm volatile("yield");
#endif
}


/// Sentinel stored into the release words by poison(): larger than any real
/// pass number, it releases every waiter regardless of its target epoch.
constexpr chaos::u32 kPoisonEpoch = 0xffffffffu;

}  // namespace

Machine::Machine(int nprocs, CostParams params)
    : nprocs_(nprocs),
      // With a core per rank, spinning rides out the whole barrier; when
      // oversubscribed the ranks we wait for are not even running, so every
      // spin or yield only delays them — go straight to the futex sleep.
      spin_limit_(static_cast<int>(std::thread::hardware_concurrency()) >=
                          nprocs
                      ? 4096
                      : 0),
      yield_limit_(static_cast<int>(std::thread::hardware_concurrency()) >=
                           nprocs
                       ? 32
                       : 0),
      params_(params),
      bb_(static_cast<std::size_t>(nprocs) * 2),
      rank_state_(static_cast<std::size_t>(nprocs)),
      stats_(static_cast<std::size_t>(nprocs)),
      final_clock_us_(static_cast<std::size_t>(nprocs), 0.0),
      active_nprocs_(nprocs) {
  CHAOS_CHECK(nprocs >= 1, "machine needs at least one process");
  mailboxes_.reserve(static_cast<std::size_t>(nprocs));
  for (int r = 0; r < nprocs; ++r) {
    mailboxes_.push_back(
        std::make_unique<Mailbox>(nprocs, poisoned_, poisoned_waits_));
  }
  workers_.reserve(static_cast<std::size_t>(nprocs > 1 ? nprocs - 1 : 0));
  for (int r = 1; r < nprocs; ++r) {
    workers_.emplace_back(&Machine::worker_loop, this, r);
  }
}

Machine::~Machine() {
  {
    std::lock_guard lock(pool_mutex_);
    stop_ = true;
  }
  pool_cv_.notify_all();
  for (auto& t : workers_) t.join();
}

void Machine::wait_epoch(std::atomic<u32>& epoch, u32 target, int rank,
                         f64 now_us) {
  // Snapshot the deadline once per wait: 0 keeps the futex fast path
  // byte-for-byte (no clock reads, no extra state); a positive deadline
  // swaps only the terminal futex sleep for a bounded poll — spins and
  // yields are unchanged, so the uncontended latency is identical.
  const f64 deadline = deadline_sec_.load(std::memory_order_relaxed);
  std::chrono::steady_clock::time_point wait_start{};
  bool timing = false;
  int spins = 0;
  int yields = 0;
  u32 seen;
  while ((seen = epoch.load(std::memory_order_acquire)) < target) {
    if (poisoned_.load(std::memory_order_acquire)) break;
    if (spins < spin_limit_) {
      ++spins;
      cpu_pause();
    } else if (yields < yield_limit_) {
      ++yields;
      std::this_thread::yield();
    } else if (deadline <= 0.0) {
      // Futex sleep until the cell changes. poison() cannot just notify —
      // a notify between our poison check and this wait would be missed —
      // so it also stores a sentinel epoch into the cell, changing the
      // waited-on value itself.
      epoch.wait(seen, std::memory_order_acquire);
    } else {
      // Watchdog mode: std::atomic::wait has no timeout, so poll on a
      // short sleep and raise the typed timeout when the deadline passes.
      const auto now = std::chrono::steady_clock::now();
      if (!timing) {
        wait_start = now;
        timing = true;
      } else if (std::chrono::duration<f64>(now - wait_start).count() >=
                 deadline) {
        // Name the stragglers: every ACTIVE rank whose own pass counter has
        // not reached this pass never arrived (arrivals bump the counter
        // before folding, so waiting peers all read >= target). Ranks
        // beyond the shrunken view never run, so scanning them would
        // accuse the already-declared-dead.
        std::vector<int> missing;
        const int active = active_nprocs_.load(std::memory_order_relaxed);
        for (int r = 0; r < active; ++r) {
          if (rank_state_[static_cast<std::size_t>(r)].barrier_epoch.load(
                  std::memory_order_relaxed) < target) {
            missing.push_back(r);
          }
        }
        note_timeout();
        std::ostringstream os;
        os << "barrier watchdog: rank " << rank << " waited " << deadline
           << "s at epoch " << target << " (virtual clock " << now_us
           << "us); missing ranks:";
        for (int r : missing) os << ' ' << r;
        throw MachineTimeout(os.str(), std::move(missing), target, now_us);
      }
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  }
  // Checked on EVERY exit, fast path included: the poison sentinel
  // satisfies any epoch target, and a rank must never mistake a poisoned
  // release for a completed reduction.
  if (poisoned_.load(std::memory_order_acquire)) {
    note_poisoned_wait();
    throw MachinePoisoned("machine poisoned: a sibling rank threw");
  }
}

f64 Machine::barrier_reduce_max(int rank, f64 value, f64 now_us) {
  inject_point(FaultSite::BarrierArrive, rank);
  // The barrier spans the ACTIVE view: after a shrink only the survivors
  // run, so they alone must arrive. Relaxed is safe — the value changes
  // only between runs, ordered by the dispatch handshake.
  const int active = active_nprocs_.load(std::memory_order_relaxed);
  if (active == 1) return value;
  if (poisoned_.load(std::memory_order_acquire)) {
    throw MachinePoisoned("machine poisoned: a sibling rank threw");
  }
  RankState& me = rank_state_[static_cast<std::size_t>(rank)];
  const u32 n = me.barrier_epoch.load(std::memory_order_relaxed) + 1;
  me.barrier_epoch.store(n, std::memory_order_relaxed);
  const std::size_t parity = n & 1;
  ArrivalCell& cell = arrival_[parity];
  BarrierSlot& rel = release_[parity];
  // Fold my value: non-negative IEEE doubles order as unsigned integers, so
  // a CAS-max over the bit pattern is the whole reduction. Relaxed is
  // enough — the counter's RMW chain below carries the ordering.
  const u64 bits = std::bit_cast<u64>(value);
  u64 seen = cell.max_bits.load(std::memory_order_relaxed);
  while (bits > seen && !cell.max_bits.compare_exchange_weak(
                            seen, bits, std::memory_order_relaxed,
                            std::memory_order_relaxed)) {
  }
  // Count myself in. acq_rel makes the chain of arrival RMWs a release
  // sequence: the last arriver's view includes every rank's pre-barrier
  // writes, and its release word hands that view to everyone.
  if (cell.arrived.fetch_add(1, std::memory_order_acq_rel) + 1 == active) {
    // Reset the cells for this parity's next user (pass n+2 — unreachable
    // until release n+1, hence until this release, has been observed).
    const u64 folded = cell.max_bits.exchange(0, std::memory_order_relaxed);
    cell.arrived.store(0, std::memory_order_relaxed);
    rel.value = std::bit_cast<f64>(folded);
    // seq_cst, not release: notify_all skips the futex wake when it reads no
    // registered waiter, and only a seq_cst store keeps that read from being
    // ordered before this store — else a waiter that registered and saw the
    // old epoch would sleep through the release.
    rel.epoch.store(n, std::memory_order_seq_cst);
    rel.epoch.notify_all();
    return rel.value;
  }
  wait_epoch(rel.epoch, n, rank, now_us);
  return rel.value;
}

void Machine::poison() {
  poisoned_.store(true, std::memory_order_release);
  // Wake every possible waiter so it can observe the flag. Barrier waiters
  // futex-sleep on the release words, so poison must change the waited-on
  // values themselves (a bare notify racing a waiter about to sleep would
  // be missed); the sentinel satisfies any epoch target and wait_epoch
  // rechecks the flag on return. The stores are seq_cst for the same
  // lost-wakeup reason as the barrier release. Mailbox waiters sit on
  // condvars.
  release_[0].epoch.store(kPoisonEpoch, std::memory_order_seq_cst);
  release_[1].epoch.store(kPoisonEpoch, std::memory_order_seq_cst);
  release_[0].epoch.notify_all();
  release_[1].epoch.notify_all();
  for (auto& mb : mailboxes_) mb->poison_wake();
}

void Machine::execute(int rank, const std::function<void(Process&)>& body) {
  Process proc(*this, rank);
  try {
    body(proc);
  } catch (...) {
    {
      std::lock_guard lock(error_mutex_);
      if (!first_error_) first_error_ = std::current_exception();
    }
    poison();
  }
  stats_[static_cast<std::size_t>(rank)] = proc.stats();
  final_clock_us_[static_cast<std::size_t>(rank)] = proc.clock().now_us();
}

void Machine::worker_loop(int rank) {
  u64 seen_generation = 0;
  while (true) {
    const std::function<void(Process&)>* body = nullptr;
    {
      std::unique_lock lock(pool_mutex_);
      pool_cv_.wait(lock, [&] {
        return stop_ || run_generation_ > seen_generation;
      });
      if (stop_) return;
      seen_generation = run_generation_;
      body = body_;
    }
    // Ranks beyond the shrunken active view are declared dead: they wake
    // with everyone (one pool condvar), skip the body, and report done.
    // Keeping them in the dispatch handshake (rather than special-casing
    // the wake) means shrink/restore never touches pool bookkeeping.
    if (rank < active_nprocs_.load(std::memory_order_relaxed)) {
      execute(rank, *body);
    }
    {
      std::lock_guard lock(pool_mutex_);
      if (--running_ == 0) done_cv_.notify_all();
    }
  }
}

RecoverReport Machine::recover_report() {
  // Workers are parked (the previous run's completion handshake went
  // through pool_mutex_), so plain writes here are ordered before their
  // next dispatch by the same mutex. Everything a failed run can leave
  // dirty is reset: mailbox shards (counted per (dest, source) — these are
  // the undelivered in-flight messages), barrier pass counters and cells
  // (a poisoned run abandons passes mid-fold), the sentinel-stamped
  // release words, the blackboard bytes (a thrower may have deposited into
  // a slot no one read), and the poison flag + stored first error.
  RecoverReport report;
  std::vector<i64> per_source(static_cast<std::size_t>(nprocs_), 0);
  for (int dest = 0; dest < nprocs_; ++dest) {
    report.messages_drained +=
        mailboxes_[static_cast<std::size_t>(dest)]->drain(per_source);
    for (int src = 0; src < nprocs_; ++src) {
      const i64 n = per_source[static_cast<std::size_t>(src)];
      if (n > 0) report.dirty_shards.push_back({dest, src, n});
    }
  }
  for (auto& rs : rank_state_) {
    rs.barrier_epoch.store(0, std::memory_order_relaxed);
  }
  for (auto& cell : arrival_) {
    cell.max_bits.store(0, std::memory_order_relaxed);
    cell.arrived.store(0, std::memory_order_relaxed);
  }
  release_[0].epoch.store(0, std::memory_order_relaxed);
  release_[1].epoch.store(0, std::memory_order_relaxed);
  release_[0].value = 0.0;
  release_[1].value = 0.0;
  for (auto& slot : bb_) std::memset(slot.buf, 0, sizeof(slot.buf));
  {
    std::lock_guard lock(error_mutex_);
    first_error_ = nullptr;
  }
  poisoned_.store(false, std::memory_order_relaxed);
  return report;
}

void Machine::shrink_to(int n) {
  const int active = active_nprocs_.load(std::memory_order_relaxed);
  CHAOS_CHECK(n >= 1 && n <= active,
              "shrink_to: target width must be in [1, active_nprocs]");
  if (n == active) return;
  active_nprocs_.store(n, std::memory_order_relaxed);
  shrink_count_.fetch_add(1, std::memory_order_relaxed);
}

void Machine::restore_full_width() {
  active_nprocs_.store(nprocs_, std::memory_order_relaxed);
}

void Machine::reset_for_run() {
  (void)recover();
  faults_injected_.store(0, std::memory_order_relaxed);
  timeouts_.store(0, std::memory_order_relaxed);
  poisoned_waits_.store(0, std::memory_order_relaxed);
  for (auto& s : stats_) s = MessageStats{};
  for (auto& c : final_clock_us_) c = 0.0;
}

void Machine::run(const std::function<void(Process&)>& body) {
  reset_for_run();
  if (active_nprocs_.load(std::memory_order_relaxed) == 1) {
    // Single active rank (P=1 machine, or a fleet shrunk to its last
    // survivor): no dispatch, no worker wakeups — rank 0 runs inline.
    execute(0, body);
  } else {
    {
      std::lock_guard lock(pool_mutex_);
      body_ = &body;
      running_ = nprocs_ - 1;
      ++run_generation_;
    }
    pool_cv_.notify_all();
    execute(0, body);
    std::unique_lock lock(pool_mutex_);
    done_cv_.wait(lock, [&] { return running_ == 0; });
    body_ = nullptr;
  }
  if (first_error_) {
    std::exception_ptr e = first_error_;
    first_error_ = nullptr;
    std::rethrow_exception(e);
  }
}

void Machine::run(int nprocs, const std::function<void(Process&)>& body,
                  CostParams params) {
  Machine machine(nprocs, params);
  machine.run(body);
}

MessageStats Machine::total_stats() const {
  MessageStats total;
  for (const auto& s : stats_) total += s;
  // The robustness events fire inside Machine/Mailbox waits, below the
  // per-Process stats objects, so they are tracked machine-wide and folded
  // into the aggregate here.
  total.faults_injected = faults_injected_.load(std::memory_order_relaxed);
  total.timeouts = timeouts_.load(std::memory_order_relaxed);
  total.poisoned_waits = poisoned_waits_.load(std::memory_order_relaxed);
  return total;
}

const MessageStats& Machine::stats_of(int rank) const {
  CHAOS_CHECK(rank >= 0 && rank < nprocs_, "stats_of: bad rank");
  return stats_[static_cast<std::size_t>(rank)];
}

f64 Machine::max_virtual_time_us() const {
  f64 t = 0.0;
  for (f64 c : final_clock_us_) t = std::max(t, c);
  return t;
}

}  // namespace chaos::rt

// Unsticks a job whose ranks stopped making progress, and counts it.
//
// The runtime's barrier sleeps in std::atomic<u32>::wait once it has spun and
// yielded. With libstdc++ 12 that sleep can miss its notify: the releasing
// rank stores the new epoch and calls notify_all, but the store is not fenced
// against notify's check for sleepers, so a rank that went to sleep in that
// window is never woken and the whole machine hangs (seen twice in about 300
// runs of 22 s; in the hang, every rank sat in futex_wait, one on a release
// word that already held the epoch it waited for). A signal interrupts the futex sleep; the
// waiter re-reads the word, sees the new epoch and goes on. The kicked job's
// results are still checked like any other, and the kick count is reported.
#pragma once

#include <pthread.h>
#include <signal.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <vector>

namespace bench {

class StallWatchdog {
 public:
  /// @p threads are the machine's rank threads; a job busy for longer than
  /// @p stall_s gets every one of them signalled, then again every
  /// @p stall_s / 4 until it finishes.
  StallWatchdog(std::vector<pthread_t> threads, double stall_s)
      : threads_(std::move(threads)),
        stall_(std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double>(stall_s))) {
    struct sigaction sa {};
    sa.sa_handler = [](int) {};
    sa.sa_flags = SA_RESTART;
    sigemptyset(&sa.sa_mask);
    sigaction(SIGUSR1, &sa, nullptr);
    thread_ = std::thread([this] { loop(); });
  }
  ~StallWatchdog() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }
  StallWatchdog(const StallWatchdog&) = delete;
  StallWatchdog& operator=(const StallWatchdog&) = delete;

  /// Marks the machine busy for the guard's lifetime.
  class Busy {
   public:
    explicit Busy(StallWatchdog& w) : w_(w) {
      w_.since_.store(Clock::now().time_since_epoch().count());
    }
    ~Busy() { w_.since_.store(0); }
    Busy(const Busy&) = delete;
    Busy& operator=(const Busy&) = delete;

   private:
    StallWatchdog& w_;
  };
  [[nodiscard]] Busy busy() { return Busy(*this); }

  [[nodiscard]] long long kicks() const { return kicks_.load(); }

 private:
  using Clock = std::chrono::steady_clock;

  void loop() {
    std::unique_lock<std::mutex> lock(mutex_);
    while (!cv_.wait_for(lock, stall_ / 4, [this] { return stop_; })) {
      const auto since = since_.load();
      if (since == 0 ||
          Clock::now().time_since_epoch().count() - since < stall_.count()) {
        continue;
      }
      for (const pthread_t t : threads_) pthread_kill(t, SIGUSR1);
      kicks_.fetch_add(1);
    }
  }

  std::vector<pthread_t> threads_;
  Clock::duration stall_;
  std::atomic<Clock::rep> since_{0};  // busy since (ticks), 0 when idle
  std::atomic<long long> kicks_{0};
  std::mutex mutex_;
  std::condition_variable cv_;  // wakes the loop early on stop
  bool stop_ = false;           // guarded by mutex_
  std::thread thread_;          // last: starts after the members it uses
};

}  // namespace bench

// chaos_bench: one workload of the end-to-end benchmark per process, on a
// P=4 machine. Times whole jobs with tracing off, checks every job's output
// against a serial reference and against the run's first job, and prints
// every metric by name and unit. The last line of standard output is one
// JSON object: {"correct", "attempted", "failed", "metrics"}; with
// --trace 1 every other job is traced and the metrics are the per-layer ones.
//
//   chaos_bench --workload W [--seed S] [--seconds T] [--trace 0|1]
//               [--trace-file PATH] [--out PATH] [--smoke]
#include <sys/resource.h>

#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "json.hpp"
#include "layers.hpp"
#include "rt/collectives.hpp"
#include "stats.hpp"
#include "watchdog.hpp"
#include "workload/rng.hpp"
#include "workloads.hpp"

namespace bench {
namespace {

namespace rt = chaos::rt;
using Clock = std::chrono::steady_clock;

constexpr int kProcs = 4;
/// Spans per rank per job stay under ~350 (setup + 3 per step + repairs).
constexpr std::size_t kSpanCapacity = 4096;
constexpr std::size_t kMaxErrors = 5;
/// No job comes near this; a job that does has hung (see watchdog.hpp).
constexpr f64 kStallSeconds = 2.0;

struct Options {
  std::string workload;
  u64 seed = 1234;
  f64 seconds = 22;  // run_seconds of BENCHMARK.json
  bool trace = false;
  std::string trace_file;
  std::string out_file;
  bool smoke = false;
};

std::string usage() {
  std::string s =
      "usage: chaos_bench --workload W [--seed S] [--seconds T] "
      "[--trace 0|1] [--trace-file PATH] [--out PATH] [--smoke]\nworkloads:";
  for (const auto& w : kWorkloads) s += std::string(" ") + w.name;
  return s + "\n";
}

bool parse_args(int argc, char** argv, Options& o) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (a == "--smoke") {
      o.smoke = true;
    } else if (a == "--workload" && (v = next())) {
      o.workload = v;
    } else if (a == "--seed" && (v = next())) {
      o.seed = std::strtoull(v, nullptr, 10);
    } else if (a == "--seconds" && (v = next())) {
      o.seconds = std::strtod(v, nullptr);
    } else if (a == "--trace" && (v = next()) &&
               (std::strcmp(v, "0") == 0 || std::strcmp(v, "1") == 0)) {
      o.trace = v[0] == '1';
    } else if (a == "--trace-file" && (v = next())) {
      o.trace_file = v;
    } else if (a == "--out" && (v = next())) {
      o.out_file = v;
    } else {
      return false;
    }
  }
  return o.smoke || (find_workload(o.workload) != nullptr && o.seconds > 0);
}

/// Shortest text that reads back as exactly @p v.
std::string num(f64 v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

u64 hash_bits(const std::vector<f64>& y) {
  u64 h = 1469598103934665603ull;
  for (const f64 v : y) {
    u64 bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    h = (h ^ bits) * 1099511628211ull;
  }
  return h;
}

f64 peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<f64>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

struct Outcome {
  bool correct = true;
  i64 attempted = 0;
  i64 failed = 0;
  std::vector<std::string> errors;
  std::vector<Metric> end_to_end, layers;
  std::size_t jobs = 0, steps = 0, traced_jobs = 0;
  long long stall_kicks = 0;
};

/// Counts jobs and checks each one: no exception, no failed machine or
/// ledger check, y within the f64 bound of the serial reference, and y and
/// modeled_s bit-identical to the first job of the same runner.
class Checker {
 public:
  Checker(const Reference& ref, StallWatchdog& watchdog, i64& attempted,
          i64& failed, std::vector<std::string>& errors)
      : ref_(ref),
        watchdog_(watchdog),
        attempted_(attempted),
        failed_(failed),
        errors_(errors) {}

  std::optional<JobResult> run(Runner& runner, Tracer* tr) {
    ++attempted_;
    JobResult r;
    try {
      const auto busy = watchdog_.busy();
      r = runner.run_job(tr);
    } catch (const std::exception& e) {
      return fail(std::string("job threw: ") + e.what());
    }
    if (!r.error.empty()) return fail(r.error);
    if (std::string err = check_against_reference(r, ref_); !err.empty()) {
      return fail(err);
    }
    const u64 h = hash_bits(r.y);
    if (!first_) {
      first_ = true;
      hash_ = h;
      modeled_ = r.modeled_s;
    } else if (h != hash_) {
      return fail("y differs bitwise from the first job on the same inputs");
    } else if (r.modeled_s != modeled_) {
      return fail("modeled_s differs from the first job on the same inputs");
    }
    return r;
  }

  /// modeled_s of every checked job of this runner (0 before the first).
  [[nodiscard]] f64 modeled() const { return modeled_; }

 private:
  std::nullopt_t fail(const std::string& msg) {
    ++failed_;
    if (errors_.size() < kMaxErrors) errors_.push_back(msg);
    return std::nullopt;
  }

  const Reference& ref_;
  StallWatchdog& watchdog_;
  i64& attempted_;
  i64& failed_;
  std::vector<std::string>& errors_;
  bool first_ = false;
  u64 hash_ = 0;
  f64 modeled_ = 0;
};

/// Seed of problem instance @p i of a run: the run's seed for the first.
u64 instance_seed(u64 seed, int i) {
  return i == 0 ? seed : chaos::wl::splitmix64(seed + static_cast<u64>(i));
}

/// One problem instance of a run, with the runner and checker of its jobs.
struct Problem {
  Problem(const WorkloadDef& w, u64 seed, rt::Machine& m, StallWatchdog& wd,
          Outcome& out)
      : in(make_inputs(w, seed)),
        ref(serial_reference(w, in)),
        runner(w, in, m),
        checker(ref, wd, out.attempted, out.failed, out.errors) {}

  const Inputs in;
  const Reference ref;
  Runner runner;
  Checker checker;
};

std::deque<Problem> make_problems(const WorkloadDef& w, u64 seed,
                                  rt::Machine& m, StallWatchdog& wd,
                                  Outcome& out) {
  std::deque<Problem> problems;
  for (int i = 0; i < w.instances; ++i) {
    problems.emplace_back(w, instance_seed(seed, i), m, wd, out);
  }
  return problems;
}

struct Timings {
  std::vector<f64> setup_s, job_s, step_us;
  void add(const JobResult& r) {
    setup_s.push_back(r.setup_s);
    job_s.push_back(r.job_s);
    step_us.insert(step_us.end(), r.step_us.begin(), r.step_us.end());
  }
};

/// Where traced jobs go: the span buffers, the per-layer aggregate, the
/// Chrome events of the first traced job, and whether every span was sound.
struct TraceSink {
  explicit TraceSink(const WorkloadDef& w) : layers(w) {}
  Tracer tracer{kProcs, kSpanCapacity};
  LayerTrace layers;
  std::string chrome;
  bool ok = true;
};

struct Measured {
  Timings plain, traced;
};

/// Runs jobs, rotating through @p problems, until @p seconds have passed (at
/// least two of each kind; exactly two when smoke testing). With @p sink,
/// every other job is traced, on the same problem as the job before it, so
/// traced and untraced jobs see the same inputs and host conditions and
/// their difference is the tracing overhead alone.
Measured measure(std::deque<Problem>& problems, f64 seconds, bool smoke,
                 TraceSink* sink = nullptr) {
  Measured m;
  const auto deadline = Clock::now() + std::chrono::duration<f64>(seconds);
  const int per_problem = sink != nullptr ? 2 : 1;
  bool first_event = true;
  for (int job = 0;
       job < 2 * per_problem || (!smoke && Clock::now() < deadline); ++job) {
    Problem& pb = problems[static_cast<std::size_t>(job / per_problem) %
                           problems.size()];
    Tracer* tr = sink != nullptr && job % 2 == 1 ? &sink->tracer : nullptr;
    if (tr != nullptr) {
      tr->clear();
      tr->job = job / 2;
    }
    std::optional<JobResult> r = pb.checker.run(pb.runner, tr);
    if (tr != nullptr) {
      for (int k = 0; k < tr->nranks(); ++k) {
        if (tr->rank(k).overflowed()) sink->ok = false;
      }
      if (job == 1) append_chrome_events(*tr, sink->chrome, first_event);
      if (r && !sink->layers.add_job(*tr, *r)) sink->ok = false;
    }
    if (r) (tr != nullptr ? m.traced : m.plain).add(*r);
  }
  return m;
}

/// Mean wall µs of @p reps calls of @p op on rank 0, inside one run.
template <typename Op>
f64 probe_collective(rt::Machine& m, int reps, Op op) {
  f64 us = 0;
  m.run([&](rt::Process& p) {
    for (int i = 0; i < 10; ++i) op(p);
    const auto t0 = Clock::now();
    for (int i = 0; i < reps; ++i) op(p);
    if (p.is_root()) {
      us = std::chrono::duration<f64, std::micro>(Clock::now() - t0).count() /
           reps;
    }
  });
  return us;
}

f64 probe_dispatch(rt::Machine& m, int reps) {
  for (int i = 0; i < 10; ++i) m.run([](rt::Process&) {});
  const auto t0 = Clock::now();
  for (int i = 0; i < reps; ++i) m.run([](rt::Process&) {});
  return std::chrono::duration<f64, std::micro>(Clock::now() - t0).count() /
         reps;
}

std::string default_trace_file(const char* argv0, const Options& o) {
  const std::filesystem::path dir =
      std::filesystem::path(argv0).parent_path() / "traces";
  return (dir / (o.workload + "-" + std::to_string(o.seed) + ".json"))
      .string();
}

bool write_and_validate_trace(const std::string& path,
                              const std::string& events) {
  const std::filesystem::path file(path);
  if (file.has_parent_path()) {
    std::filesystem::create_directories(file.parent_path());
  }
  const std::string text =
      "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n" + events + "\n]}\n";
  {
    std::ofstream out(path, std::ios::binary);
    out << text;
    if (!out) return false;
  }
  std::ifstream in(path, std::ios::binary);
  std::stringstream back;
  back << in.rdbuf();
  try {
    const json::Value v = json::parse(back.str());
    const json::Value* ev = v.find("traceEvents");
    return ev != nullptr && !ev->array.empty();
  } catch (const std::exception&) {
    return false;
  }
}

Outcome run_workload(const WorkloadDef& w, const Options& o,
                     const char* argv0) {
  Outcome out;
  rt::Machine machine(kProcs);
  std::vector<pthread_t> threads(kProcs);
  machine.run([&](rt::Process& p) {
    threads[static_cast<std::size_t>(p.rank())] = pthread_self();
  });
  StallWatchdog watchdog(std::move(threads), kStallSeconds);
  std::deque<Problem> problems =
      make_problems(w, o.seed, machine, watchdog, out);

  // Untraced jobs give the end-to-end metrics. One warm-up job per problem
  // first: it wakes the worker pool and faults in memory later jobs reuse.
  std::vector<f64> modeled;
  for (Problem& pb : problems) {
    (void)pb.checker.run(pb.runner, nullptr);
    modeled.push_back(pb.checker.modeled());
  }
  std::optional<TraceSink> sink;
  if (o.trace) sink.emplace(w);
  const Measured m =
      measure(problems, o.seconds, o.smoke, sink ? &*sink : nullptr);
  const Timings& t = m.plain;
  out.jobs = t.job_s.size();
  out.steps = t.step_us.size();
  const f64 step_p50 = median(t.step_us);
  const f64 job_p50 = median(t.job_s);
  out.end_to_end = {
      {"setup_s", median(t.setup_s), "s"},
      {"step_us.p50", step_p50, "us"},
      {"job_s.p50", job_p50, "s"},
      {"job_s.p90", percentile(t.job_s, 0.9), "s"},
      {"modeled_s", median(modeled), "s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };

  if (sink) {
    out.traced_jobs = m.traced.job_s.size();

    LayerExtras x;
    {
      const auto busy = watchdog.busy();
      x.dispatch_us = probe_dispatch(machine, 1000);
      x.barrier_us = probe_collective(machine, 1000,
                                      [](rt::Process& p) { rt::barrier(p); });
      x.allreduce_us = probe_collective(machine, 1000, [](rt::Process& p) {
        (void)rt::allreduce_sum(p, 1.0);
      });
    }
    x.serial_sweep_us = serial_sweep_us(problems.front().in);
    x.untraced_step_us = step_p50;
    x.untraced_job_s = job_p50;
    if (w.kind == Kind::Vm) {
      // The hand-coded twin on the same seeds, hence the same inputs: what
      // the compiler path costs per step beyond direct runtime calls.
      std::deque<Problem> twins = make_problems(
          *find_workload("md648_rsb_hand"), o.seed, machine, watchdog, out);
      for (Problem& pb : twins) (void)pb.checker.run(pb.runner, nullptr);
      const Timings th = measure(twins, 2.0, o.smoke).plain;
      x.overhead_us = step_p50 - median(th.step_us);
    }
    x.stall_kicks = static_cast<f64>(watchdog.kicks());
    out.layers = sink->layers.metrics(x);

    if (!sink->ok) {
      out.errors.push_back(
          "span buffers overflowed or spans did not line up across ranks");
    }
    const std::string path =
        o.trace_file.empty() ? default_trace_file(argv0, o) : o.trace_file;
    if (!write_and_validate_trace(path, sink->chrome)) {
      sink->ok = false;
      out.errors.push_back("trace file " + path + " did not write or parse");
    }
    out.correct = out.correct && sink->ok;
  }
  out.correct = out.correct && out.failed == 0;
  out.stall_kicks = watchdog.kicks();
  return out;
}

std::string metrics_json(const std::vector<Metric>& ms) {
  std::string s = "{";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    if (i > 0) s += ", ";
    s += "\"" + ms[i].name + "\": {\"value\": " + num(ms[i].value) +
         ", \"unit\": \"" + ms[i].unit + "\"}";
  }
  return s + "}";
}

void print_report(const WorkloadDef& w, const Options& o, const Outcome& r) {
  std::printf("workload %s  seed %llu  P=%d  %d problem instance(s)  %zu "
              "timed jobs (+%d warm-up), %zu step samples, %zu traced jobs\n",
              w.name, static_cast<unsigned long long>(o.seed), kProcs,
              w.instances, r.jobs, w.instances, r.steps, r.traced_jobs);
  auto table = [](const char* title, const std::vector<Metric>& ms) {
    std::printf("%s\n", title);
    for (const Metric& m : ms) {
      std::printf("  %-34s %16.6g %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
  };
  table("end to end (untraced jobs):", r.end_to_end);
  if (!r.layers.empty()) table("per layer (traced jobs):", r.layers);
  std::printf("checks: %lld of %lld jobs failed (failed_frac %s); %lld "
              "stall kicks\n",
              static_cast<long long>(r.failed),
              static_cast<long long>(r.attempted),
              num(r.attempted > 0 ? static_cast<f64>(r.failed) /
                                        static_cast<f64>(r.attempted)
                                  : 0.0)
                  .c_str(),
              r.stall_kicks);
  for (const auto& e : r.errors) std::printf("  check failed: %s\n", e.c_str());
}

void write_out_file(const WorkloadDef& w, const Options& o, const Outcome& r) {
  std::vector<Metric> all = r.end_to_end;
  all.insert(all.end(), r.layers.begin(), r.layers.end());
  const std::filesystem::path file(o.out_file);
  if (file.has_parent_path()) {
    std::filesystem::create_directories(file.parent_path());
  }
  std::ofstream f(file);
  f << "{\"workload\": \"" << w.name << "\", \"seed\": " << o.seed
    << ", \"trace\": " << (o.trace ? 1 : 0) << ", \"jobs\": " << r.jobs
    << ", \"correct\": " << (r.correct ? "true" : "false")
    << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
    << ", \"stall_kicks\": " << r.stall_kicks
    << ", \"metrics\": " << metrics_json(all) << "}\n";
}

}  // namespace
}  // namespace bench

int main(int argc, char** argv) {
  using namespace bench;
  Options o;
  if (!parse_args(argc, argv, o)) {
    std::fputs(usage().c_str(), stderr);
    return 2;
  }
  std::vector<const WorkloadDef*> todo;
  if (o.workload.empty()) {
    for (const auto& w : kWorkloads) todo.push_back(&w);
  } else if (const WorkloadDef* w = find_workload(o.workload)) {
    todo.push_back(w);
  } else {
    std::fputs(usage().c_str(), stderr);
    return 2;
  }

  bool all_correct = true;
  std::string last_line;
  for (const WorkloadDef* w : todo) {
    Options wo = o;
    wo.workload = w->name;
    const Outcome r = run_workload(*w, wo, argv[0]);
    print_report(*w, wo, r);
    if (!o.out_file.empty() && todo.size() == 1) write_out_file(*w, wo, r);
    all_correct = all_correct && r.correct;
    last_line = std::string("{\"correct\": ") + (r.correct ? "true" : "false") +
                ", \"attempted\": " + std::to_string(r.attempted) +
                ", \"failed\": " + std::to_string(r.failed) +
                ", \"metrics\": " +
                metrics_json(o.trace ? r.layers : r.end_to_end) + "}";
  }
  std::printf("%s\n", last_line.c_str());
  return all_correct ? 0 : 1;
}

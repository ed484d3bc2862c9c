// compare: reads two directories of chaos_bench --out result files (only the
// untraced ones) and prints, per workload and end-to-end metric of
// BENCHMARK.json, each side's median and quartiles, the metric's bound and a
// verdict:
//   within      the change's median is within the bound of the base median
//   worse       ... worse than the base median by more than the bound
//   better      ... better than the base median by more than the bound
//   unresolved  a side's quartile spread (as a share of its median) exceeds
//               the bound, and neither side's runs all beat the other's
// Exit status: 0 when nothing is worse and no job failed, 1 otherwise, 2 on
// unreadable input.
//
//   compare [--bench BENCHMARK.json] BASE_DIR CHANGE_DIR
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "json.hpp"
#include "stats.hpp"

namespace {

namespace fs = std::filesystem;
using bench::json::Value;

struct MetricDef {
  std::string name;
  bool lower_better = true;
  double bound = 0;
};

struct ResultSet {
  // workload -> metric -> one value per run
  std::map<std::string, std::map<std::string, std::vector<double>>> values;
  long long runs = 0, failed_jobs = 0, incorrect_runs = 0;
};

Value read_json(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path.string());
  std::stringstream text;
  text << in.rdbuf();
  try {
    return bench::json::parse(text.str());
  } catch (const std::exception& e) {
    throw std::runtime_error(path.string() + ": " + e.what());
  }
}

const Value& member(const Value& v, const char* key, const fs::path& where) {
  const Value* m = v.find(key);
  if (m == nullptr) {
    throw std::runtime_error(where.string() + ": missing \"" + key + "\"");
  }
  return *m;
}

ResultSet load(const fs::path& dir) {
  ResultSet set;
  std::vector<fs::path> files;
  for (const auto& e : fs::directory_iterator(dir)) {
    if (e.is_regular_file() && e.path().extension() == ".json") {
      files.push_back(e.path());
    }
  }
  std::sort(files.begin(), files.end());
  for (const auto& path : files) {
    const Value v = read_json(path);
    if (member(v, "trace", path).number != 0) continue;
    const std::string workload = member(v, "workload", path).string;
    ++set.runs;
    set.failed_jobs += static_cast<long long>(member(v, "failed", path).number);
    if (!member(v, "correct", path).boolean) ++set.incorrect_runs;
    for (const auto& [name, m] : member(v, "metrics", path).object) {
      set.values[workload][name].push_back(member(m, "value", path).number);
    }
  }
  if (set.runs == 0) {
    throw std::runtime_error("no untraced result files in " + dir.string());
  }
  return set;
}

std::string verdict(const MetricDef& m, const std::vector<double>& base,
                    const std::vector<double>& change, double& worse_by) {
  const double mb = bench::median(base), mc = bench::median(change);
  const auto qb = bench::quartiles(base), qc = bench::quartiles(change);
  auto share = [](double d, double of) {
    return of != 0 ? d / std::abs(of) : (d == 0 ? 0.0 : INFINITY);
  };
  worse_by = share(mc - mb, mb) * (m.lower_better ? 1 : -1);
  const double spread =
      std::max(share(qb[2] - qb[0], mb), share(qc[2] - qc[0], mc));
  const auto [bmin, bmax] = std::minmax_element(base.begin(), base.end());
  const auto [cmin, cmax] = std::minmax_element(change.begin(), change.end());
  const bool all_lower = *cmax < *bmin, all_higher = *cmin > *bmax;
  const bool all_better = m.lower_better ? all_lower : all_higher;
  const bool all_worse = m.lower_better ? all_higher : all_lower;
  if (spread > m.bound) {
    return all_better ? "better" : all_worse ? "worse" : "unresolved";
  }
  if (worse_by > m.bound) return "worse";
  if (-worse_by > m.bound) return "better";
  return "within";
}

}  // namespace

int main(int argc, char** argv) {
  fs::path bench_file = "BENCHMARK.json";
  std::vector<fs::path> dirs;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--bench" && i + 1 < argc) {
      bench_file = argv[++i];
    } else {
      dirs.emplace_back(a);
    }
  }
  if (dirs.size() != 2) {
    std::fputs("usage: compare [--bench BENCHMARK.json] BASE_DIR CHANGE_DIR\n",
               stderr);
    return 2;
  }

  std::vector<MetricDef> metrics;
  std::vector<std::string> workloads;
  ResultSet base, change;
  try {
    const Value spec = read_json(bench_file);
    for (const Value& w : member(spec, "workloads", bench_file).array) {
      workloads.push_back(member(w, "name", bench_file).string);
    }
    for (const Value& m : member(spec, "end_to_end", bench_file).array) {
      metrics.push_back({member(m, "name", bench_file).string,
                         member(m, "better", bench_file).string == "lower",
                         member(m, "bound", bench_file).number});
    }
    base = load(dirs[0]);
    change = load(dirs[1]);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "compare: %s\n", e.what());
    return 2;
  }

  bool bad = false;
  std::printf("%-16s %-12s %-36s %-36s %6s %8s  %s\n", "workload", "metric",
              "base median [q1, q3] (runs)", "change median [q1, q3] (runs)",
              "bound", "worse_by", "verdict");
  for (const std::string& w : workloads) {
    const auto bw = base.values.find(w), cw = change.values.find(w);
    if (bw == base.values.end() || cw == change.values.end()) {
      std::printf("%-16s missing from %s\n", w.c_str(),
                  bw == base.values.end() ? "base" : "change");
      bad = true;
      continue;
    }
    for (const MetricDef& m : metrics) {
      const auto bv = bw->second.find(m.name), cv = cw->second.find(m.name);
      if (bv == bw->second.end() || cv == cw->second.end()) {
        std::printf("%-16s %-12s missing\n", w.c_str(), m.name.c_str());
        bad = true;
        continue;
      }
      double worse_by = 0;
      const std::string v = verdict(m, bv->second, cv->second, worse_by);
      auto side = [](const std::vector<double>& x) {
        const auto q = bench::quartiles(x);
        char buf[96];
        std::snprintf(buf, sizeof buf, "%.5g [%.5g, %.5g] (%zu)",
                      bench::median(x), q[0], q[2], x.size());
        return std::string(buf);
      };
      std::printf("%-16s %-12s %-36s %-36s %6.3f %+8.4f  %s\n", w.c_str(),
                  m.name.c_str(), side(bv->second).c_str(),
                  side(cv->second).c_str(), m.bound, worse_by, v.c_str());
      if (v == "worse") bad = true;
    }
  }
  for (const auto* s : {&base, &change}) {
    if (s->failed_jobs > 0 || s->incorrect_runs > 0) {
      std::printf("%s: %lld failed jobs, %lld runs not correct\n",
                  s == &base ? "base" : "change", s->failed_jobs,
                  s->incorrect_runs);
      bad = true;
    }
  }
  return bad ? 1 : 0;
}

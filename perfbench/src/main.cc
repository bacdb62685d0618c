// dynbench: the end-to-end benchmark driver.
//
//   dynbench --workload NAME --seed N --seconds S --trace 0|1
//            [--tiny] [--fig7-csv PATH] [--out-dir DIR] [--commit SHA]
//
// Untraced (--trace 0): sets the workload up several times (setup_s is the
// median), then repeats the timed run for about S seconds (wall_s is the
// median) and reports the end-to-end metrics. Traced (--trace 1): one
// untraced run, then one traced run stepped in sim-time chunks with host
// spans and per-layer counter snapshots; reports the per-layer metrics and
// writes the trace, counter table and summary to --out-dir.
//
// The last stdout line is one JSON object: correct, attempted, failed,
// metrics. A failed correctness check prints the failure and no metrics,
// and exits 1.
#include <sys/resource.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "stats.h"
#include "tracer.h"
#include "workloads.h"

namespace {

using namespace perfbench;
using dynamoth::SimTime;
using dynamoth::to_seconds;
using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ---- build guard and metadata ----------------------------------------------

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif
#else
constexpr bool kSanitized = false;
#endif

#ifdef NDEBUG
constexpr bool kAssertsOn = false;
#else
constexpr bool kAssertsOn = true;
#endif

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(line.find_first_not_of(' ', colon + 1));
    }
  }
  return "unknown";
}

std::string metadata(const std::string& workload, std::uint64_t seed, const std::string& commit,
                     int trace) {
  std::ostringstream os;
  os << "{\"workload\":\"" << json_escape(workload) << "\",\"seed\":" << seed
     << ",\"trace\":" << trace << ",\"nproc\":" << std::thread::hardware_concurrency()
     << ",\"cpu\":\"" << json_escape(cpu_model()) << "\",\"compiler\":\""
     << json_escape(__VERSION__) << "\",\"build_type\":\"" << PERFBENCH_BUILD_TYPE
     << "\",\"cxx_flags\":\"" << json_escape(PERFBENCH_CXX_FLAGS) << "\",\"commit\":\""
     << json_escape(commit) << "\"}";
  return os.str();
}

// ---- result line -----------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                metrics[i].name.c_str(), metrics[i].value, metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

int report_failures(const std::vector<std::string>& failures, std::uint64_t attempted) {
  std::printf("CORRECTNESS CHECK FAILED:\n");
  for (const std::string& f : failures) std::printf("  - %s\n", f.c_str());
  print_result(false, attempted, failures.size(), {});
  return 1;
}

// ---- correctness gates -----------------------------------------------------

/// fig7 at seed 99 must reproduce the checked-in series byte for byte.
std::string fig7_gate(const std::string& csv_path) {
  std::ifstream in(csv_path, std::ios::binary);
  if (!in) return "fig7 gate: cannot read " + csv_path;
  std::ostringstream want;
  want << in.rdbuf();
  std::unique_ptr<Run> run = make_fig7_run(99);
  run->run_until(0);
  run->run_until(run->duration());
  const Outcome o = run->finish();
  if (o.series_csv == want.str()) return "";
  // Name the first differing line.
  std::istringstream a(o.series_csv), b(want.str());
  std::string la, lb;
  for (int line = 1;; ++line) {
    const bool ga = static_cast<bool>(std::getline(a, la));
    const bool gb = static_cast<bool>(std::getline(b, lb));
    if (!ga && !gb) break;
    if (!ga || !gb || la != lb) {
      return "fig7 gate: seed-99 series differs from " + csv_path + " at line " +
             std::to_string(line) + ": got '" + (ga ? la : "<eof>") + "', want '" +
             (gb ? lb : "<eof>") + "'";
    }
  }
  return "fig7 gate: series differs from " + csv_path;
}

/// Host time of one span's bookkeeping, timed on a scratch tracer.
double span_cost_s() {
  constexpr int kSpans = 100000;
  Tracer scratch;
  const auto t0 = Clock::now();
  for (int i = 0; i < kSpans; ++i) Tracer::Span span(&scratch, "calibrate");
  return since(t0) / kSpans;
}

void check_outcome(const Outcome& o, std::vector<std::string>& failures) {
  failures.insert(failures.end(), o.failures.begin(), o.failures.end());
  if (o.expected == 0) failures.push_back("no expected echoes/deliveries: nothing measured");
}

// ---- runs --------------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  bool tiny = false;
  std::string fig7_csv = "fig7_elasticity.csv";
  std::string out_dir = ".bench_build/perfbench-out";
  std::string commit = "unknown";
};

/// Setup: construction plus the events at t = 0 (players join, clients
/// subscribe). Returns the live run; `setup_s` receives its host time.
std::unique_ptr<Run> set_up(const WorkloadSpec& spec, const Options& opt, Tracer* tracer,
                            double* setup_s) {
  const auto t0 = Clock::now();
  std::unique_ptr<Run> run = spec.make(opt.seed, opt.tiny, tracer);
  run->run_until(0);
  *setup_s = since(t0);
  return run;
}

struct Timed {
  double wall_s;
  Outcome outcome;
};

/// One untraced run: set-up (not timed), the timed run, finish.
Timed timed_run(const WorkloadSpec& spec, const Options& opt) {
  std::unique_ptr<Run> run = spec.make(opt.seed, opt.tiny, nullptr);
  // An un-steppable run builds its deployment inside the timed call.
  if (run->chunk() > 0) run->run_until(0);
  const auto t0 = Clock::now();
  run->run_until(run->duration());
  const double wall = since(t0);
  return {wall, run->finish()};
}

int run_workload(const WorkloadSpec& spec, const Options& opt) {
  std::vector<std::string> failures;
  std::uint64_t attempted = 0;

  // Timed runs: repeat for about opt.seconds; every repeat must retrace
  // the same trajectory. The set-ups are timed after the first run.
  std::vector<double> walls, setups;
  Outcome first;
  double rss = 0;
  const auto timed_t0 = Clock::now();
  const int max_reps = opt.trace ? 1 : 1000;
  while (walls.empty() ||
         (static_cast<int>(walls.size()) < max_reps &&
          since(timed_t0) + 0.5 * median(walls) < opt.seconds)) {
    Timed t = timed_run(spec, opt);
    if (walls.empty()) {
      first = std::move(t.outcome);
      check_outcome(first, failures);
      // Peak memory of one set-up plus one run in a fresh process; the
      // set-ups and repeats would add allocator fragmentation that depends
      // on how many of them fit in the time.
      rss = peak_rss_mib();
      // Set-up time: median of several set-ups (teardown not timed).
      const auto setup_t0 = Clock::now();
      while (setups.size() < 7 ||
             (since(setup_t0) < 0.05 * opt.seconds && setups.size() < 501)) {
        double s = 0;
        std::unique_ptr<Run> run = set_up(spec, opt, nullptr, &s);
        setups.push_back(s);
      }
    } else if (!(t.outcome.fingerprint == first.fingerprint)) {
      failures.push_back("repeat " + std::to_string(walls.size()) +
                         " diverged: same seed, different event/RNG fingerprint");
    }
    attempted += first.publications;
    walls.push_back(t.wall_s);
  }
  const double wall_s = median(walls);
  if (!first.detail.empty()) std::fprintf(stderr, "%s", first.detail.c_str());

  if (spec.name == "elastic") {
    const std::string gate = fig7_gate(opt.fig7_csv);
    if (!gate.empty()) failures.push_back(gate);
  }

  std::vector<Metric> metrics;
  const auto check_finite = [&failures](const std::vector<Metric>& ms) {
    for (const Metric& m : ms) {
      if (!std::isfinite(m.value)) failures.push_back(m.name + " is not a finite number");
    }
  };
  if (opt.trace == 0) {
    metrics = {{"wall_s", wall_s, "s"},
               {"setup_s", median(setups), "s"},
               {"peak_rss_mib", rss, "MiB"},
               {"rt_p50_ms", first.rt_p50_ms, "ms"},
               {"players_ok", first.players_ok, "players"},
               {"rate_ok_per_s", first.rate_ok_per_s, "1/s"},
               {"server_hours", first.server_hours, "h"}};
    check_finite(metrics);
    if (!failures.empty()) return report_failures(failures, attempted);
    std::printf("%-14s %-22s %s\n", "metric", "value", "unit");
    for (const Metric& m : metrics) {
      std::printf("%-14s %-22.10g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
    print_result(true, attempted, 0, metrics);
    return 0;
  }

  // Traced run: spans around set-up, every chunk and finish; counters at
  // every chunk boundary.
  Tracer tracer;
  double host_run_s = 0;
  std::unique_ptr<Run> run;
  Outcome traced;
  Counters last;
  {
    Tracer::Span span(&tracer, "setup");
    run = spec.make(opt.seed, opt.tiny, &tracer);
    if (run->chunk() > 0) run->run_until(0);
  }
  const SimTime chunk = run->chunk() > 0 ? run->chunk() : run->duration();
  if (run->chunk() > 0) tracer.snapshot(0, run->counters(0));
  const auto steps_t0 = Clock::now();
  for (SimTime t = 0; t < run->duration();) {
    t = std::min(t + chunk, run->duration());
    const auto c0 = Clock::now();
    {
      Tracer::Span span(&tracer, "run_until");
      run->run_until(t);
    }
    host_run_s += since(c0);
    last = run->counters(host_run_s);
    tracer.snapshot(to_seconds(t), last);
  }
  const double traced_wall = since(steps_t0);
  {
    Tracer::Span span(&tracer, "finish");
    traced = run->finish();
  }
  run.reset();
  if (!(traced.fingerprint == first.fingerprint)) {
    failures.push_back("traced run diverged from the untraced run: events " +
                       std::to_string(traced.fingerprint.events) + " vs " +
                       std::to_string(first.fingerprint.events) + ", rng draws " +
                       std::to_string(traced.fingerprint.rng_draws) + " vs " +
                       std::to_string(first.fingerprint.rng_draws));
  }
  check_outcome(traced, failures);
  if (!failures.empty()) return report_failures(failures, attempted);

  // Every per-layer metric, in canonical order; layers a workload does not
  // expose read 0 and the summary says why.
  last.emplace_back("model.rt_p90_ms", traced.rt_p90_ms);
  last.emplace_back("model.rt_p99_ms", traced.rt_p99_ms);
  last.emplace_back("model.lost_frac", traced.lost_frac);
  last.emplace_back("model.slo_miss_frac", traced.slo_miss_frac);
  last.emplace_back("trace.overhead_s", traced_wall - wall_s);
  // The same cost measured inside the traced run, free of run-to-run host
  // noise: time between chunks (counter snapshots, chunk spans) plus every
  // span's bookkeeping.
  const double in_run_s = traced_wall - host_run_s +
                          static_cast<double>(tracer.span_count()) * span_cost_s();
  last.emplace_back("trace.in_run_s", in_run_s);
  std::ostringstream summary;
  summary << "# " << metadata(spec.name, opt.seed, opt.commit, 1) << "\n";
  summary << "# traced run: " << tracer.span_count() << " spans; untraced wall_s " << wall_s
          << ", traced " << traced_wall << ", tracing inside it " << in_run_s << "; fingerprint events " << first.fingerprint.events
          << ", rng draws " << first.fingerprint.rng_draws << " (equal)\n";
  char line[512];
  std::snprintf(line, sizeof line, "%-30s %-20s %-6s %s\n", "metric", "value", "unit", "note");
  summary << line;
  for (const LayerMetric& lm : layer_metrics()) {
    double value = 0;
    bool found = false;
    for (const auto& [name, v] : last) {
      if (name == lm.name) {
        value = v;
        found = true;
      }
    }
    const std::string why = not_applicable(spec.name, lm.name);
    if (!found && why.empty()) {
      failures.push_back(std::string("per-layer metric ") + lm.name + " was not reported");
    }
    metrics.push_back({lm.name, value, lm.unit});
    std::snprintf(line, sizeof line, "%-30s %-20.10g %-6s %s\n", lm.name, value, lm.unit,
                  why.empty() ? "" : ("n/a: " + why).c_str());
    summary << line;
  }
  check_finite(metrics);
  if (!failures.empty()) return report_failures(failures, attempted);

  std::error_code ec;
  std::filesystem::create_directories(opt.out_dir, ec);
  const std::string stem =
      opt.out_dir + "/" + spec.name + "-seed" + std::to_string(opt.seed);
  bool written = tracer.write_chrome_trace(stem + ".trace.json") &&
                 tracer.write_counter_table(stem + ".counters.csv");
  {
    std::ofstream os(stem + ".summary.txt");
    os << summary.str();
    written = written && static_cast<bool>(os);
  }
  std::printf("%s", summary.str().c_str());
  if (!written) {
    return report_failures({"cannot write the trace files under " + opt.out_dir}, attempted);
  }
  std::printf("trace files: %s.{trace.json,counters.csv,summary.txt}\n", stem.c_str());
  print_result(true, attempted, 0, metrics);
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: dynbench --workload NAME --seed N --seconds S --trace 0|1 [--tiny]\n"
               "                [--fig7-csv PATH] [--out-dir DIR] [--commit SHA]\n"
               "workloads:");
  for (const WorkloadSpec& w : workloads()) std::fprintf(stderr, " %s", w.name.c_str());
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--tiny") {
      opt.tiny = true;
    } else if (!has_value) {
      return usage();
    } else if (arg == "--workload") {
      opt.workload = argv[++i];
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds") {
      opt.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace") {
      opt.trace = std::atoi(argv[++i]);
    } else if (arg == "--fig7-csv") {
      opt.fig7_csv = argv[++i];
    } else if (arg == "--out-dir") {
      opt.out_dir = argv[++i];
    } else if (arg == "--commit") {
      opt.commit = argv[++i];
    } else {
      return usage();
    }
  }

  // Results from debug-assert or sanitizer builds are not performance
  // results; refuse them rather than report them.
  if (kAssertsOn || kSanitized) {
    std::fprintf(stderr, "dynbench: refusing to run a %s build (build type %s)\n",
                 kSanitized ? "sanitizer" : "debug-assert", PERFBENCH_BUILD_TYPE);
    return 2;
  }

  const WorkloadSpec* spec = nullptr;
  for (const WorkloadSpec& w : workloads()) {
    if (w.name == opt.workload) spec = &w;
  }
  if (spec == nullptr || opt.seconds <= 0 || (opt.trace != 0 && opt.trace != 1)) return usage();

  std::printf("# %s\n", metadata(spec->name, opt.seed, opt.commit, opt.trace).c_str());
  std::fflush(stdout);
  return run_workload(*spec, opt);
}

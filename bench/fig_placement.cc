// Placement-policy shoot-out: greedy and bounded-load (src/placement) replay
// the Figure-5 client ramp, the Figure-7 elasticity cycle, and a server-crash
// schedule, under otherwise identical configuration. The point is a
// like-for-like comparison of what each placement strategy trades:
//
//   greedy        the paper's Algorithm 2 — reactive, migrates on demand
//   bounded-load  CH with bounded loads — sticky placements, spill on cap
//
// Outputs:
//   fig_placement.csv            one row per (workload, policy), same columns
//   fig_placement.json           the same summary via the metrics registry
//   fig_placement_audit.txt      per-run rebalance audit timelines
//
// `--smoke` shortens every workload (CI); `--policy=<name>` restricts to one.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "harness/failover.h"
#include "mammoth/experiments.h"
#include "obs/metrics_registry.h"
#include "placement/policy.h"

namespace {

using namespace dynamoth;
namespace exp = mammoth::exp;

struct RunRow {
  std::string workload;
  std::string policy;
  double p99_ms = 0;
  double mean_ms = 0;
  std::uint64_t plans = 0;       // plans actually published
  std::uint64_t moves = 0;       // channel moves across all plans (churn)
  double peak_servers = 0;
  double server_hours = 0;
  std::uint64_t control_bytes = 0;
  std::uint64_t emergency = 0;
  std::uint64_t lost = 0;        // crash workload only
  std::uint64_t delivered = 0;
};

std::uint64_t count_plans(const obs::RebalanceAuditLog& audit) {
  std::uint64_t n = 0;
  for (const auto& rec : audit.records()) {
    if (rec.plan_id != 0) ++n;
  }
  return n;
}

std::uint64_t count_moves(const obs::RebalanceAuditLog& audit) {
  std::uint64_t n = 0;
  for (const auto& rec : audit.records()) n += rec.moves.size();
  return n;
}

RunRow run_game(const std::string& workload, placement::PolicyKind kind,
                exp::GameExperimentConfig config, std::ofstream& audit_out) {
  config.dynamoth.placement.kind = kind;
  const exp::GameExperimentResult r = run_game_experiment(config);

  RunRow row;
  row.workload = workload;
  row.policy = placement::to_string(kind);
  row.p99_ms = static_cast<double>(r.rtt_us.percentile(99)) / 1000.0;
  row.mean_ms = r.rtt_us.mean() / 1000.0;
  row.plans = count_plans(r.audit);
  row.moves = count_moves(r.audit);
  row.peak_servers = r.peak_servers;
  row.server_hours = r.server_hours;
  row.control_bytes = r.control_bytes;
  row.delivered = r.total_updates;

  audit_out << "==== " << workload << " / " << row.policy << " ====\n";
  r.audit.write_timeline(audit_out);
  audit_out << '\n';
  return row;
}

RunRow run_crash(placement::PolicyKind kind, bool smoke, std::ofstream& audit_out) {
  harness::FailoverConfig config;
  config.seed = 7;
  fault::FaultSchedule crash;
  crash.crash(seconds(20));
  config.schedule = crash;
  if (smoke) {
    config.duration = seconds(35);
    config.drain = seconds(15);
  }
  config.placement.kind = kind;
  const harness::FailoverResult r = run_failover(config);

  RunRow row;
  row.workload = "crash";
  row.policy = placement::to_string(kind);
  row.p99_ms = static_cast<double>(r.delivery_us.percentile(99)) / 1000.0;
  row.mean_ms = r.delivery_us.mean() / 1000.0;
  row.plans = r.lb_stats.plans_generated;
  row.moves = r.lb_stats.channels_migrated;
  row.peak_servers = static_cast<double>(harness::FailoverConfig::kServers);  // fixed fleet
  row.emergency = r.lb_stats.emergency_rebalances;
  row.lost = r.lost;
  row.delivered = r.delivered_unique;

  audit_out << "==== crash / " << row.policy << " ====\n"
            << r.audit_timeline << '\n';
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string only;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strncmp(argv[i], "--policy=", 9) == 0) only = argv[i] + 9;
  }

  std::vector<placement::PolicyKind> kinds;
  for (placement::PolicyKind kind :
       {placement::PolicyKind::kGreedy, placement::PolicyKind::kBoundedLoad}) {
    if (only.empty() || only == placement::to_string(kind)) kinds.push_back(kind);
  }
  if (kinds.empty()) {
    std::fprintf(stderr, "unknown --policy=%s\n", only.c_str());
    return 2;
  }

  // Figure-5 ramp (paper V-D): 120 players joining toward 1200.
  exp::GameExperimentConfig fig5 = exp::default_game_experiment();
  fig5.seed = 77;
  fig5.schedule = {{seconds(0), 120}, {seconds(60), 120}, {seconds(420), 1200}};
  fig5.duration = seconds(480);
  fig5.sample_interval = seconds(10);
  if (smoke) {
    fig5.schedule = {{seconds(0), 120}, {seconds(20), 120}, {seconds(90), 500}};
    fig5.duration = seconds(110);
  }

  // Figure-7 elasticity (paper V-E): ramp to 800, drop to 200, climb back.
  exp::GameExperimentConfig fig7 = exp::default_game_experiment();
  fig7.seed = 99;
  fig7.schedule = {{seconds(0), 50},   {seconds(240), 800}, {seconds(300), 800},
                   {seconds(330), 200}, {seconds(420), 200}, {seconds(540), 580},
                   {seconds(630), 580}};
  fig7.duration = seconds(630);
  fig7.sample_interval = seconds(10);
  if (smoke) {
    fig7.schedule = {{seconds(0), 50},  {seconds(40), 400}, {seconds(60), 400},
                     {seconds(70), 100}, {seconds(100), 100}, {seconds(130), 300}};
    fig7.duration = seconds(140);
  }

  std::ofstream audit("fig_placement_audit.txt");
  std::vector<RunRow> rows;
  for (placement::PolicyKind kind : kinds) {
    std::printf("-- fig5-ramp / %s --\n", placement::to_string(kind));
    rows.push_back(run_game("fig5-ramp", kind, fig5, audit));
    std::printf("-- fig7-elastic / %s --\n", placement::to_string(kind));
    rows.push_back(run_game("fig7-elastic", kind, fig7, audit));
    std::printf("-- crash / %s --\n", placement::to_string(kind));
    rows.push_back(run_crash(kind, smoke, audit));
  }

  std::ofstream csv("fig_placement.csv");
  csv << "workload,policy,p99_ms,mean_ms,plans,moves,peak_servers,server_hours,"
         "control_bytes,emergency_rebalances,lost,delivered\n";
  obs::MetricsRegistry reg;
  for (const RunRow& r : rows) {
    char line[256];
    std::snprintf(line, sizeof line, "%s,%s,%.3f,%.3f,%llu,%llu,%.0f,%.4f,%llu,%llu,%llu,%llu\n",
                  r.workload.c_str(), r.policy.c_str(), r.p99_ms, r.mean_ms,
                  static_cast<unsigned long long>(r.plans),
                  static_cast<unsigned long long>(r.moves), r.peak_servers, r.server_hours,
                  static_cast<unsigned long long>(r.control_bytes),
                  static_cast<unsigned long long>(r.emergency),
                  static_cast<unsigned long long>(r.lost),
                  static_cast<unsigned long long>(r.delivered));
    csv << line;
    const std::string prefix = r.workload + "." + r.policy + ".";
    reg.gauge(prefix + "p99_ms").set(r.p99_ms);
    reg.gauge(prefix + "mean_ms").set(r.mean_ms);
    reg.gauge(prefix + "plans").set(static_cast<double>(r.plans));
    reg.gauge(prefix + "moves").set(static_cast<double>(r.moves));
    reg.gauge(prefix + "peak_servers").set(r.peak_servers);
    reg.gauge(prefix + "server_hours").set(r.server_hours);
    reg.gauge(prefix + "lost").set(static_cast<double>(r.lost));
  }
  reg.save_json("fig_placement.json");

  std::printf("\n%-14s %-13s %9s %9s %7s %7s %6s %8s %6s\n", "workload", "policy", "p99_ms",
              "mean_ms", "plans", "moves", "peak", "srv_hrs", "lost");
  for (const RunRow& r : rows) {
    std::printf("%-14s %-13s %9.2f %9.2f %7llu %7llu %6.0f %8.3f %6llu\n", r.workload.c_str(),
                r.policy.c_str(), r.p99_ms, r.mean_ms,
                static_cast<unsigned long long>(r.plans),
                static_cast<unsigned long long>(r.moves), r.peak_servers, r.server_hours,
                static_cast<unsigned long long>(r.lost));
  }
  std::printf("(summary: fig_placement.csv / fig_placement.json | audits: "
              "fig_placement_audit.txt)\n");
  return 0;
}

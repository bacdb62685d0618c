// Flash-crowd figure: wildcard (PSUBSCRIBE) listeners under a popularity
// spike, with and without a server crash mid-spike.
//
// Eight "fc:<i>" channels publish at 10 Hz; wildcard clients psubscribe
// "fc:*" while plain clients subscribe to every channel explicitly. At
// t=15s one channel's publish rate ramps 50x in 3 seconds and a crowd of
// explicit joiners piles on, tripping Algorithm 1 replication and the
// system-level rebalancer; the crash arm kills a server at the spike's
// peak on top. A raw substrate PSUBSCRIBE pinned to one server (the
// pre-fix behaviour) runs alongside and counts its silent misses.
//
// Outputs:
//   fig_flashcrowd.csv             one summary row per scenario
//   fig_flashcrowd_<scenario>.csv  per-window metrics (rates, spike factor)
//   fig_flashcrowd_audit.txt       rebalance audit timelines
//
// Exit status is non-zero when a wildcard listener missed a publication
// every explicit subscriber received (the cross-server miss plan-aware
// pattern expansion prevents), when a handler on either arm saw the same
// message twice (delivery is exactly-once), or when pattern expansion never
// happened at all.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "harness/flashcrowd.h"

int main(int argc, char** argv) {
  using namespace dynamoth;

  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }

  struct Scenario {
    std::string name;
    harness::FlashCrowdSchedule spikes;
    fault::FaultSchedule faults;
  };
  std::vector<Scenario> scenarios;
  {
    Scenario spike;
    spike.name = "spike";
    // 50x: past the scaled Algorithm 1 thresholds (replication churn is the
    // point) but under the NIC line rate — a saturating spike would measure
    // best-effort drop luck, not pattern routing.
    spike.spikes.spike(seconds(15), 0, 50.0, seconds(3), seconds(10), seconds(8),
                       /*join=*/6);
    scenarios.push_back(spike);
  }
  if (!smoke) {
    // The crash lands at the spike's peak: the emergency re-home and the
    // replication entries churn while pattern fan-out is at its highest.
    Scenario crash;
    crash.name = "spike_crash";
    crash.spikes.spike(seconds(15), 0, 50.0, seconds(3), seconds(10), seconds(8),
                       /*join=*/6);
    crash.faults.crash(seconds(22));
    scenarios.push_back(crash);
  }

  std::ofstream summary("fig_flashcrowd.csv");
  summary << "scenario,published,pattern_delivered,explicit_delivered,crowd_delivered,"
             "pattern_missing,pattern_dups,explicit_dups,raw_received,raw_missed,"
             "patterns_expanded,replications,plans,emergency_rebalances,peak_servers,"
             "pass\n";
  std::ofstream audit("fig_flashcrowd_audit.txt");

  bool all_pass = true;
  for (const Scenario& scenario : scenarios) {
    harness::FlashCrowdConfig config;
    config.seed = 11;
    config.spikes = scenario.spikes;
    config.faults = scenario.faults;
    // Fixed WAN latency makes the wildcard and explicit clients timing-
    // identical, so the equivalence gate measures pattern routing, not
    // per-client King-latency jitter at reconfiguration edges (under churn,
    // clients with different RTTs re-place subscriptions at different
    // instants and their received sets diverge by a handful of messages in
    // both directions — explicit clients included).
    config.cluster.fixed_latency = true;
    if (smoke) {
      config.duration = seconds(45);
      config.drain = seconds(15);
    }
    const harness::FlashCrowdResult r = harness::run_flashcrowd(config);

    r.metrics.save_windows_csv("fig_flashcrowd_" + scenario.name + ".csv");

    const bool pass = r.pattern_missing == 0 && r.pattern_duplicates == 0 &&
                      r.explicit_duplicates == 0 && r.patterns_expanded > 0;
    all_pass = all_pass && pass;

    summary << scenario.name << ',' << r.published << ',' << r.pattern_delivered_unique
            << ',' << r.explicit_delivered_unique << ',' << r.crowd_delivered_unique
            << ',' << r.pattern_missing << ',' << r.pattern_duplicates << ','
            << r.explicit_duplicates << ',' << r.raw_received << ',' << r.raw_missed
            << ',' << r.patterns_expanded << ',' << r.lb_stats.replications_started
            << ',' << r.lb_stats.plans_generated << ','
            << r.lb_stats.emergency_rebalances << ',' << r.peak_servers << ','
            << (pass ? 1 : 0) << '\n';

    std::printf("== %s ==\n", scenario.name.c_str());
    std::printf("   published %llu  pattern %llu  explicit %llu  crowd %llu\n",
                static_cast<unsigned long long>(r.published),
                static_cast<unsigned long long>(r.pattern_delivered_unique),
                static_cast<unsigned long long>(r.explicit_delivered_unique),
                static_cast<unsigned long long>(r.crowd_delivered_unique));
    std::printf("   pattern_missing %llu  dups %llu/%llu  expanded %llu  %s\n",
                static_cast<unsigned long long>(r.pattern_missing),
                static_cast<unsigned long long>(r.pattern_duplicates),
                static_cast<unsigned long long>(r.explicit_duplicates),
                static_cast<unsigned long long>(r.patterns_expanded),
                pass ? "PASS" : "FAIL");
    std::printf("   raw arm: received %llu missed %llu (pre-fix single-server "
                "PSUBSCRIBE)\n",
                static_cast<unsigned long long>(r.raw_received),
                static_cast<unsigned long long>(r.raw_missed));
    std::printf("   replications %llu  plans %llu  emergency %llu  peak servers %llu\n\n",
                static_cast<unsigned long long>(r.lb_stats.replications_started),
                static_cast<unsigned long long>(r.lb_stats.plans_generated),
                static_cast<unsigned long long>(r.lb_stats.emergency_rebalances),
                static_cast<unsigned long long>(r.peak_servers));

    audit << "==== " << scenario.name << " ====\n" << r.audit_timeline << '\n';
  }

  std::printf("%s\n", all_pass ? "ALL PASS" : "SOME RUNS FAILED");
  return all_pass ? 0 : 1;
}

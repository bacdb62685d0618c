#include "fault/failure_detector.h"

#include <algorithm>
#include <cmath>

namespace dynamoth::fault {

namespace {
/// Inter-arrival samples kept per server for the phi estimate.
constexpr std::size_t kPhiWindow = 32;
/// Floor on the inter-arrival standard deviation, so a perfectly regular
/// heartbeat does not make phi explode on microscopic jitter.
constexpr SimTime kMinIntervalStd = millis(100);
}  // namespace

void FailureDetector::watch(ServerId server, SimTime now) {
  State& st = watched_[server];  // re-watching resets the grace period
  st.last = now;
  st.intervals.clear();
}

void FailureDetector::forget(ServerId server) { watched_.erase(server); }

void FailureDetector::heartbeat(ServerId server, SimTime now) {
  auto it = watched_.find(server);
  if (it == watched_.end()) return;
  State& st = it->second;
  const SimTime interval = now - st.last;
  if (interval > 0) {
    st.intervals.push_back(interval);
    while (st.intervals.size() > kPhiWindow) st.intervals.pop_front();
  }
  st.last = std::max(st.last, now);
}

SimTime FailureDetector::silence(ServerId server, SimTime now) const {
  auto it = watched_.find(server);
  if (it == watched_.end()) return 0;
  return std::max<SimTime>(0, now - it->second.last);
}

double FailureDetector::phi(ServerId server, SimTime now) const {
  auto it = watched_.find(server);
  if (it == watched_.end()) return 0;
  const State& st = it->second;
  const auto t = static_cast<double>(now - st.last);
  if (t <= 0 || st.intervals.size() < 3) return 0;

  double mean = 0;
  for (SimTime v : st.intervals) mean += static_cast<double>(v);
  mean /= static_cast<double>(st.intervals.size());
  double var = 0;
  for (SimTime v : st.intervals) {
    const double d = static_cast<double>(v) - mean;
    var += d * d;
  }
  var /= static_cast<double>(st.intervals.size());
  const double sigma = std::max(std::sqrt(var), static_cast<double>(kMinIntervalStd));

  // P(silence >= t) under the normal approximation of the inter-arrival
  // distribution; phi = -log10 of that tail probability.
  const double p = 0.5 * std::erfc((t - mean) / (sigma * std::sqrt(2.0)));
  if (p <= 1e-300) return 300.0;  // silence far beyond anything observed
  return -std::log10(p);
}

bool FailureDetector::suspected(ServerId server, SimTime now) const {
  auto it = watched_.find(server);
  if (it == watched_.end()) return false;
  if (config_.phi_accrual && it->second.intervals.size() >= 3) {
    return phi(server, now) >= config_.phi_threshold;
  }
  return silence(server, now) > config_.timeout;
}

std::vector<ServerId> FailureDetector::suspects(SimTime now) const {
  std::vector<ServerId> out;
  for (const auto& [id, _] : watched_) {
    if (suspected(id, now)) out.push_back(id);
  }
  return out;
}

}  // namespace dynamoth::fault

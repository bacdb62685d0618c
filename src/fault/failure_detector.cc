#include "fault/failure_detector.h"

#include <algorithm>

namespace dynamoth::fault {

void FailureDetector::watch(ServerId server, SimTime now) {
  watched_[server] = now;  // re-watching resets the grace period
}

void FailureDetector::forget(ServerId server) { watched_.erase(server); }

void FailureDetector::heartbeat(ServerId server, SimTime now) {
  auto it = watched_.find(server);
  if (it == watched_.end()) return;
  it->second = std::max(it->second, now);
}

SimTime FailureDetector::silence(ServerId server, SimTime now) const {
  auto it = watched_.find(server);
  if (it == watched_.end()) return 0;
  return std::max<SimTime>(0, now - it->second);
}

bool FailureDetector::suspected(ServerId server, SimTime now) const {
  auto it = watched_.find(server);
  if (it == watched_.end()) return false;
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

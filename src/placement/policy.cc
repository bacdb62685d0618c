#include "placement/policy.h"

#include "placement/bounded_load.h"
#include "placement/greedy.h"
#include "placement/hashing.h"

namespace dynamoth::placement {

const char* to_string(PolicyKind kind) {
  switch (kind) {
    case PolicyKind::kGreedy:
      return "greedy";
    case PolicyKind::kBoundedLoad:
      return "bounded-load";
    case PolicyKind::kHashing:
      return "hashing";
  }
  return "?";
}

ServerId PlacementPolicy::emergency_home(RoundOps& ops, const Channel& channel) {
  (void)channel;
  const std::vector<ServerId> order = ops.servers_by_load({});
  return order.empty() ? kInvalidServer : order.front();
}

std::unique_ptr<PlacementPolicy> make_policy(const PolicyConfig& config) {
  switch (config.kind) {
    case PolicyKind::kGreedy:
      return std::make_unique<GreedyPolicy>();
    case PolicyKind::kBoundedLoad:
      return std::make_unique<BoundedLoadPolicy>(config);
    case PolicyKind::kHashing:
      return std::make_unique<HashingPolicy>();
  }
  return std::make_unique<GreedyPolicy>();
}

}  // namespace dynamoth::placement

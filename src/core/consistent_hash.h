// Consistent-hash ring with virtual nodes.
//
// Dynamoth uses consistent hashing in two places:
//  - as the *fallback* mapping ("plan 0") for channels that no plan entry
//    covers — at bootstrap and for newly created channels (paper II-C);
//  - as the entire placement policy of the comparator (paper V-D), and as
//    the ring under bounded-load placement (src/placement/).
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/types.h"

namespace dynamoth::core {

class ConsistentHashRing {
 public:
  explicit ConsistentHashRing(int virtual_nodes_per_server = 64);

  void add_server(ServerId server);
  void remove_server(ServerId server);

  /// Server owning `channel`: nearest virtual identifier clockwise from the
  /// channel's hash. Aborts if the ring is empty.
  [[nodiscard]] ServerId lookup(const Channel& channel) const;

  /// Distinct servers clockwise from `channel`'s hash: the owner first, then
  /// each next-nearest distinct server — the forwarding chain bounded-load
  /// placement walks when the owner is at capacity. Aborts if the ring is
  /// empty; result has server_count() entries.
  [[nodiscard]] std::vector<ServerId> successors(const Channel& channel) const;

  [[nodiscard]] bool contains(ServerId server) const { return servers_.contains(server); }
  [[nodiscard]] std::size_t server_count() const { return servers_.size(); }
  [[nodiscard]] bool empty() const { return servers_.empty(); }
  [[nodiscard]] const std::set<ServerId>& servers() const { return servers_; }
  [[nodiscard]] int virtual_nodes_per_server() const { return virtual_nodes_; }

 private:
  int virtual_nodes_;
  std::map<std::uint64_t, ServerId> ring_;  // virtual identifier -> server
  std::set<ServerId> servers_;
};

}  // namespace dynamoth::core

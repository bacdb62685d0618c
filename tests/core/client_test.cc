// Unit tests for the Dynamoth client library: local plans, lazy entry
// adoption, dedup, publish fan-out per replication mode, entry expiry,
// reconnection after drops.
#include "core/client.h"

#include <gtest/gtest.h>

#include "harness/cluster.h"

namespace dynamoth::core {
namespace {

harness::ClusterConfig fixture_config(std::size_t servers = 2) {
  harness::ClusterConfig config;
  config.seed = 3;
  config.initial_servers = servers;
  config.fixed_latency = true;
  config.fixed_latency_value = millis(5);
  return config;
}

TEST(Client, InitialEntryComesFromConsistentHashing) {
  harness::Cluster cluster(fixture_config());
  auto& client = cluster.add_client();
  client.publish("c");
  const PlanEntry* entry = client.plan_entry("c");
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->version, 0u);
  EXPECT_EQ(entry->primary(), cluster.base_ring()->lookup("c"));
}

TEST(Client, PlanSizeTracksTouchedChannelsOnly) {
  harness::Cluster cluster(fixture_config());
  auto& client = cluster.add_client();
  EXPECT_EQ(client.plan_size(), 0u);
  client.publish("a");
  client.subscribe("b", [](const ps::EnvelopePtr&) {});
  EXPECT_EQ(client.plan_size(), 2u);
  EXPECT_EQ(client.plan_entry("never-used"), nullptr);
}

TEST(Client, SubscribedFlagTracksState) {
  harness::Cluster cluster(fixture_config());
  auto& client = cluster.add_client();
  EXPECT_FALSE(client.subscribed("c"));
  client.subscribe("c", [](const ps::EnvelopePtr&) {});
  EXPECT_TRUE(client.subscribed("c"));
  client.unsubscribe("c");
  EXPECT_FALSE(client.subscribed("c"));
}

TEST(Client, DedupSuppressesDuplicateIds) {
  harness::Cluster cluster(fixture_config(1));
  auto& sub = cluster.add_client();
  auto& pub = cluster.add_client();
  int got = 0;
  sub.subscribe("c", [&](const ps::EnvelopePtr&) { ++got; });
  cluster.sim().run_for(seconds(1));
  // Publish the same envelope twice through the raw path by publishing and
  // re-publishing with identical content: the client lib assigns fresh ids,
  // so instead simulate a duplicate by double-delivery through replication:
  // subscribe on a 2nd server via an all-subscribers plan would be complex
  // here; rely on the SeenIds unit tests (and the replayed-id test below)
  // for mechanics and check counter exposure instead.
  pub.publish("c");
  cluster.sim().run_for(seconds(1));
  EXPECT_EQ(got, 1);
  EXPECT_EQ(sub.stats().duplicates_suppressed, 0u);
}

TEST(Client, DedupRemembersAnIdAfterTenThousandOthers) {
  // A raw connection replays message id {99, 1} after 10 000 newer ids from
  // the same publisher. An id filter that only remembers the last 8192 ids
  // would hand the replay to the handler a second time.
  harness::Cluster cluster(fixture_config(1));
  auto& sub = cluster.add_client();
  std::uint64_t got = 0;
  std::uint64_t got_first = 0;
  sub.subscribe("c", [&](const ps::EnvelopePtr& env) {
    ++got;
    if (env->id.seq == 1) ++got_first;
  });
  cluster.sim().run_for(seconds(1));

  const NodeId node = cluster.network().add_node({net::NodeKind::kClient, 1e9});
  ps::RemoteConnection raw(cluster.sim(), cluster.network(), node,
                           cluster.server(cluster.server_ids().front()), nullptr, nullptr);
  auto send = [&](std::uint64_t seq) {
    auto env = ps::make_envelope();
    env->id = MessageId{99, seq};
    env->kind = ps::MsgKind::kData;
    env->channel = "c";
    env->payload_bytes = 50;
    env->publish_time = cluster.sim().now();
    env->publisher = 99;
    raw.publish(std::move(env));
  };
  constexpr std::uint64_t kOthers = 10'000;
  for (std::uint64_t seq = 1; seq <= kOthers + 1; ++seq) {
    send(seq);
    if (seq % 500 == 0) cluster.sim().run_for(seconds(1));
  }
  send(1);
  cluster.sim().run_for(seconds(2));

  EXPECT_EQ(got_first, 1u);
  EXPECT_EQ(got, kOthers + 1);
  EXPECT_EQ(sub.stats().duplicates_suppressed, 1u);
  EXPECT_EQ(sub.stats().dedup_gaps_closed, 0u);
}

TEST(Client, EntryExpiresAfterInactivity) {
  harness::Cluster cluster(fixture_config());
  core::DynamothClient::Config cc;
  cc.entry_timeout = seconds(10);
  cc.sweep_interval = seconds(1);
  auto& client = cluster.add_client(cc);
  client.publish("c");
  ASSERT_NE(client.plan_entry("c"), nullptr);
  cluster.sim().run_for(seconds(15));
  EXPECT_EQ(client.plan_entry("c"), nullptr);
  EXPECT_GE(client.stats().entries_expired, 1u);
}

TEST(Client, SubscribedEntryNeverExpires) {
  harness::Cluster cluster(fixture_config());
  core::DynamothClient::Config cc;
  cc.entry_timeout = seconds(5);
  cc.sweep_interval = seconds(1);
  auto& client = cluster.add_client(cc);
  client.subscribe("c", [](const ps::EnvelopePtr&) {});
  cluster.sim().run_for(seconds(30));
  EXPECT_NE(client.plan_entry("c"), nullptr);
  EXPECT_TRUE(client.subscribed("c"));
}

TEST(Client, ActiveChannelEntryIsRefreshedByTraffic) {
  harness::Cluster cluster(fixture_config());
  core::DynamothClient::Config cc;
  cc.entry_timeout = seconds(5);
  cc.sweep_interval = seconds(1);
  auto& client = cluster.add_client(cc);
  for (int i = 0; i < 10; ++i) {
    client.publish("c");
    cluster.sim().run_for(seconds(2));
  }
  EXPECT_NE(client.plan_entry("c"), nullptr);
}

TEST(Client, PublishStatsCountWireMessages) {
  harness::Cluster cluster(fixture_config(3));
  auto& client = cluster.add_client();
  client.publish("c");
  EXPECT_EQ(client.stats().published, 1u);
  EXPECT_EQ(client.stats().messages_sent, 1u);
}

TEST(Client, ConnectionsAreOpenedLazily) {
  harness::Cluster cluster(fixture_config(3));
  auto& client = cluster.add_client();
  const auto servers = cluster.server_ids();
  int connected = 0;
  for (ServerId s : servers) {
    if (client.connected_to(s)) ++connected;
  }
  EXPECT_EQ(connected, 0);
  client.publish("c");
  connected = 0;
  for (ServerId s : servers) {
    if (client.connected_to(s)) ++connected;
  }
  EXPECT_EQ(connected, 1);
}

TEST(Client, ShutdownClosesConnectionsAndStopsApi) {
  harness::Cluster cluster(fixture_config(1));
  auto& client = cluster.add_client();
  client.subscribe("c", [](const ps::EnvelopePtr&) {});
  cluster.sim().run_for(seconds(1));
  const ServerId s = cluster.server_ids()[0];
  EXPECT_EQ(cluster.server(s).subscriber_count("c"), 1u);
  client.shutdown();
  cluster.sim().run_for(seconds(1));
  EXPECT_EQ(cluster.server(s).subscriber_count("c"), 0u);
}

TEST(Client, ControlChannelsAreRejected) {
  harness::Cluster cluster(fixture_config(1));
  auto& client = cluster.add_client();
  EXPECT_DEATH(client.publish("@ctl:disp"), "CHECK");
}

TEST(Client, ResubscribesAfterServerDroppedConnection) {
  harness::ClusterConfig config = fixture_config(1);
  // Tiny buffers: overflow drops the subscriber, who must come back.
  config.pubsub.conn_drain_bytes_per_sec = 2000;
  config.pubsub.conn_output_buffer_limit = 2000;
  harness::Cluster cluster(config);
  core::DynamothClient::Config cc;
  cc.reconnect_delay = millis(200);
  auto& sub = cluster.add_client(cc);
  auto& pub = cluster.add_client();
  int got = 0;
  sub.subscribe("c", [&](const ps::EnvelopePtr&) { ++got; });
  cluster.sim().run_for(seconds(1));

  // Overload the subscriber's connection.
  for (int i = 0; i < 200; ++i) pub.publish("c", 400);
  cluster.sim().run_for(seconds(5));
  EXPECT_GE(sub.stats().connection_drops, 1u);

  // After the storm it reconnects and receives again.
  const ServerId s = cluster.server_ids()[0];
  EXPECT_EQ(cluster.server(s).subscriber_count("c"), 1u);
  const int before = got;
  pub.publish("c");
  cluster.sim().run_for(seconds(2));
  EXPECT_EQ(got, before + 1);
}

TEST(Client, UnsubscribeGraceKeepsOldSubscriptionBriefly) {
  harness::Cluster cluster(fixture_config(2));
  auto& sub = cluster.add_client();
  const Channel c = "graceful";
  const ServerId home = cluster.base_ring()->lookup(c);
  const auto servers = cluster.server_ids();
  const ServerId other = servers[0] == home ? servers[1] : servers[0];

  sub.subscribe(c, [](const ps::EnvelopePtr&) {});
  cluster.sim().run_for(seconds(1));
  ASSERT_EQ(cluster.server(home).subscriber_count(c), 1u);

  // Move the channel; the switch is only told to subscribers on the first
  // publication, so install + publish.
  core::Plan plan;
  PlanEntry entry;
  entry.servers = {other};
  entry.version = 1;
  plan.set_entry(c, entry);
  cluster.install_plan(plan);
  auto& pub = cluster.add_client();
  pub.publish(c);
  constexpr SimTime kGrace = core::DynamothClient::kUnsubscribeGrace;
  cluster.sim().run_for(kGrace / 2);

  // New subscription placed, old one still present during the grace window.
  EXPECT_EQ(cluster.server(other).subscriber_count(c), 1u);
  EXPECT_EQ(cluster.server(home).subscriber_count(c), 1u);
  // The switch reached the subscriber a few 5 ms hops after the publish, so
  // the grace has expired by 1.5 x kGrace.
  cluster.sim().run_for(kGrace);
  EXPECT_EQ(cluster.server(other).subscriber_count(c), 1u);
  EXPECT_EQ(cluster.server(home).subscriber_count(c), 0u);
}

// ---- the channel table: slot reuse, id learning, name-ordered commands ----

TEST(Client, ExpiredEntryContactedAgainFallsBackToRingVersionZero) {
  harness::Cluster cluster(fixture_config(2));
  core::DynamothClient::Config cc;
  cc.entry_timeout = seconds(2);
  cc.sweep_interval = seconds(1);
  auto& client = cluster.add_client(cc);
  const Channel c = "expiring";
  const ServerId home = cluster.base_ring()->lookup(c);
  const auto servers = cluster.server_ids();
  const ServerId other = servers[0] == home ? servers[1] : servers[0];

  client.publish(c);
  client.absorb_entry(c, PlanEntry{{other}, ReplicationMode::kNone, 4});
  ASSERT_EQ(client.plan_entry(c)->version, 4u);
  cluster.sim().run_for(seconds(5));
  ASSERT_EQ(client.plan_entry(c), nullptr);

  // The freed slot must not carry the learned entry into the next contact.
  client.publish(c);
  const PlanEntry* entry = client.plan_entry(c);
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->version, 0u);
  EXPECT_EQ(entry->servers, std::vector<ServerId>{home});
}

TEST(Client, DeliveryAfterUnsubscribeCountsStaleDrop) {
  harness::Cluster cluster(fixture_config(1));
  auto& sub = cluster.add_client();
  auto& pub = cluster.add_client();
  int got = 0;
  sub.subscribe("c", [&](const ps::EnvelopePtr&) { ++got; });
  cluster.sim().run_for(seconds(1));
  pub.publish("c");  // the first delivery teaches the slot its channel id
  cluster.sim().run_for(seconds(1));
  ASSERT_EQ(got, 1);

  // Publish, then unsubscribe while the fan-out is on the wire back to us
  // (5 ms per hop): the server still delivers it.
  pub.publish("c");
  cluster.sim().run_for(millis(7));
  sub.unsubscribe("c");
  cluster.sim().run_for(seconds(1));
  EXPECT_EQ(got, 1);
  EXPECT_EQ(sub.stats().stale_drops, 1u);
  EXPECT_EQ(sub.stats().received, 1u);
}

TEST(Client, ReusedSlotNeverReceivesTheOldChannelsMessages) {
  harness::Cluster cluster(fixture_config(1));
  core::DynamothClient::Config cc;
  cc.entry_timeout = 0;           // expire at the first sweep after the last use
  cc.sweep_interval = millis(1);
  auto& sub = cluster.add_client(cc);
  auto& pub = cluster.add_client();
  int got_old = 0;
  int got_new = 0;
  sub.subscribe("old", [&](const ps::EnvelopePtr&) { ++got_old; });
  cluster.sim().run_for(seconds(1));
  pub.publish("old");  // the slot learns "old"'s id
  cluster.sim().run_for(seconds(1));
  ASSERT_EQ(got_old, 1);

  // A second "old" message is on the wire back to us when "old" is dropped,
  // expires and hands its slot to "new".
  pub.publish("old");
  cluster.sim().run_for(millis(7));
  sub.unsubscribe("old");
  cluster.sim().run_for(millis(1) + millis(1) / 2);
  ASSERT_EQ(sub.plan_entry("old"), nullptr);
  sub.subscribe("new", [&](const ps::EnvelopePtr&) { ++got_new; });
  ASSERT_EQ(sub.plan_size(), 1u);
  cluster.sim().run_for(seconds(1));

  EXPECT_EQ(got_old, 1);
  EXPECT_EQ(got_new, 0);
  EXPECT_EQ(sub.stats().stale_drops, 1u);

  // The reused slot learns its own id and delivers normally.
  pub.publish("new");
  cluster.sim().run_for(seconds(1));
  EXPECT_EQ(got_new, 1);
}

/// Records the channels one client node subscribes to on a server, in the
/// order the server processes the SUBSCRIBE commands.
class SubscribeRecorder final : public ps::LocalObserver {
 public:
  explicit SubscribeRecorder(NodeId client) : client_(client) {}
  void on_publish(const ps::EnvelopePtr&, std::size_t, std::uint32_t) override {}
  void on_subscribe(ps::ConnId, const Channel& channel, NodeId client_node) override {
    if (client_node == client_ && !is_control_channel(channel)) channels.push_back(channel);
  }
  void on_unsubscribe(ps::ConnId, const Channel&, NodeId) override {}
  void on_disconnect(ps::ConnId, const std::vector<Channel>&, const std::vector<std::string>&,
                     ps::CloseReason) override {}
  std::vector<Channel> channels;

 private:
  NodeId client_;
};

const std::vector<Channel> kUnsortedNames = {"m", "b", "z", "a"};
const std::vector<Channel> kSortedNames = {"a", "b", "m", "z"};

TEST(Client, SweepReconciliationSubscribesInChannelNameOrder) {
  harness::Cluster cluster(fixture_config(1));
  const ServerId s = cluster.server_ids()[0];
  core::DynamothClient::Config cc;
  cc.sweep_interval = seconds(1);
  auto& sub = cluster.add_client(cc);
  cluster.crash_server(s);
  // Placement fails while the server is down: every sub_servers stays empty.
  for (const Channel& c : kUnsortedNames) sub.subscribe(c, [](const ps::EnvelopePtr&) {});
  cluster.sim().run_for(seconds(2));
  cluster.restart_server(s);
  SubscribeRecorder recorder(sub.node());
  cluster.server(s).add_observer(&recorder);
  cluster.sim().run_for(seconds(2));
  cluster.server(s).remove_observer(&recorder);

  EXPECT_GE(sub.stats().fallback_resubscribes, 4u);
  EXPECT_EQ(recorder.channels, kSortedNames);
}

TEST(Client, ReplacementAfterDropSubscribesInChannelNameOrder) {
  harness::ClusterConfig config = fixture_config(1);
  // Tiny buffers: the flood overflows the subscriber's connection.
  config.pubsub.conn_drain_bytes_per_sec = 2000;
  config.pubsub.conn_output_buffer_limit = 2000;
  harness::Cluster cluster(config);
  const ServerId s = cluster.server_ids()[0];
  core::DynamothClient::Config cc;
  cc.reconnect_delay = millis(200);
  auto& sub = cluster.add_client(cc);
  auto& pub = cluster.add_client();
  SubscribeRecorder recorder(sub.node());
  cluster.server(s).add_observer(&recorder);
  for (const Channel& c : kUnsortedNames) sub.subscribe(c, [](const ps::EnvelopePtr&) {});
  cluster.sim().run_for(seconds(1));
  ASSERT_EQ(recorder.channels, kUnsortedNames);  // first placement: call order

  for (int i = 0; i < 200; ++i) pub.publish("m", 400);
  cluster.sim().run_for(seconds(5));
  cluster.server(s).remove_observer(&recorder);
  ASSERT_GE(sub.stats().connection_drops, 1u);

  // Each re-placement round subscribes every channel again, by name.
  ASSERT_GE(recorder.channels.size(), 8u);
  ASSERT_EQ(recorder.channels.size() % 4, 0u);
  for (std::size_t i = 4; i < recorder.channels.size(); i += 4) {
    const std::vector<Channel> round(recorder.channels.begin() + static_cast<std::ptrdiff_t>(i),
                                     recorder.channels.begin() + static_cast<std::ptrdiff_t>(i + 4));
    EXPECT_EQ(round, kSortedNames) << "round starting at " << i;
  }
}

/// One client-table workout on channel names with `prefix`: subscriptions,
/// publishes, an unsubscribe, expiry and slot reuse. Returns what the
/// clients saw, in order, plus the event count.
std::vector<std::string> client_table_workout(const std::string& prefix) {
  harness::Cluster cluster(fixture_config(2));
  core::DynamothClient::Config cc;
  cc.entry_timeout = seconds(2);
  cc.sweep_interval = seconds(1);
  auto& sub = cluster.add_client(cc);
  auto& pub = cluster.add_client(cc);
  std::vector<std::string> seen;
  auto record = [&seen](const ps::EnvelopePtr& e) {
    seen.push_back(e->channel + "#" + std::to_string(e->id.seq));
  };
  for (int i = 0; i < 12; ++i) sub.subscribe(prefix + std::to_string(i), record);
  cluster.sim().run_for(seconds(1));
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 12; ++i) pub.publish(prefix + std::to_string((i * 5 + round) % 12));
    for (int i = 0; i < 4; ++i) pub.publish(prefix + "solo" + std::to_string(round * 4 + i));
    cluster.sim().run_for(millis(500));
  }
  for (int i = 0; i < 12; i += 3) sub.unsubscribe(prefix + std::to_string(i));
  cluster.sim().run_for(seconds(5));  // unused entries expire; slots free up
  for (int i = 0; i < 6; ++i) sub.subscribe(prefix + "late" + std::to_string(i), record);
  cluster.sim().run_for(seconds(1));
  for (int i = 0; i < 6; ++i) pub.publish(prefix + "late" + std::to_string(i));
  for (int i = 0; i < 12; ++i) pub.publish(prefix + std::to_string(i));
  cluster.sim().run_for(seconds(2));

  const auto& st = sub.stats();
  seen.push_back("received=" + std::to_string(st.received) +
                 " stale=" + std::to_string(st.stale_drops) +
                 " expired=" + std::to_string(st.entries_expired + pub.stats().entries_expired) +
                 " plan=" + std::to_string(sub.plan_size()) + "/" +
                 std::to_string(pub.plan_size()) +
                 " events=" + std::to_string(cluster.sim().executed_events()));
  return seen;
}

TEST(Client, TableWorkoutIsDeterministicOnAWarmChannelTable) {
  // The first run interns every name; the second finds them all interned,
  // so servers and dispatchers take their "known channel" branches from the
  // start. The client table never interns and must not care.
  const std::string prefix = "warm-table-test:";
  ASSERT_EQ(ChannelTable::instance().find(prefix + "0"), kInvalidChannelId);
  const std::vector<std::string> cold = client_table_workout(prefix);
  ASSERT_NE(ChannelTable::instance().find(prefix + "0"), kInvalidChannelId);
  const std::vector<std::string> warm = client_table_workout(prefix);
  EXPECT_EQ(cold, warm);
  EXPECT_GT(cold.size(), 36u);
}

TEST(ClientPattern, PsubscribeExpandsOverExistingChannels) {
  harness::Cluster cluster(fixture_config());
  auto& other = cluster.add_client();
  auto& sub = cluster.add_client();
  auto& pub = cluster.add_client();
  // Channels already known to the directory before the pattern registers.
  other.subscribe("cpa:1", [](const ps::EnvelopePtr&) {});
  other.subscribe("cpa:2", [](const ps::EnvelopePtr&) {});
  cluster.sim().run_for(seconds(1));

  std::vector<Channel> got;
  sub.psubscribe("cpa:*", [&](const ps::EnvelopePtr& e) { got.push_back(e->channel); });
  cluster.sim().run_for(seconds(1));
  EXPECT_TRUE(sub.pattern_subscribed("cpa:*"));
  EXPECT_EQ(sub.pattern_channels("cpa:*"),
            (std::set<Channel>{"cpa:1", "cpa:2"}));
  EXPECT_EQ(sub.stats().patterns_expanded, 2u);

  pub.publish("cpa:1");
  pub.publish("cpa:2");
  cluster.sim().run_for(seconds(1));
  EXPECT_EQ(got, (std::vector<Channel>{"cpa:1", "cpa:2"}));
  EXPECT_EQ(sub.stats().pattern_deliveries, 2u);
}

TEST(ClientPattern, PsubscribeExpandsIncrementallyOnNewChannels) {
  harness::Cluster cluster(fixture_config());
  auto& sub = cluster.add_client();
  auto& pub = cluster.add_client();
  int got = 0;
  sub.psubscribe("cpb:*", [&](const ps::EnvelopePtr&) { ++got; });
  cluster.sim().run_for(millis(100));
  EXPECT_TRUE(sub.pattern_channels("cpb:*").empty());

  // The first publish interns the name; the directory listener re-expands
  // the pattern and the subscription lands before the next publication.
  pub.publish("cpb:7");
  cluster.sim().run_for(seconds(1));
  EXPECT_EQ(sub.pattern_channels("cpb:*"), (std::set<Channel>{"cpb:7"}));
  pub.publish("cpb:7");
  cluster.sim().run_for(seconds(1));
  EXPECT_EQ(got, 1);
  // Control channels never expand, even though the clients interned several
  // "@ctl:" names by now.
  for (const Channel& c : sub.pattern_channels("cpb:*")) {
    EXPECT_EQ(c.rfind("@ctl:", 0), std::string::npos) << c;
  }
}

TEST(ClientPattern, PunsubscribeKeepsExplicitInterest) {
  harness::Cluster cluster(fixture_config());
  auto& sub = cluster.add_client();
  auto& pub = cluster.add_client();
  int explicit_got = 0;
  int pattern_got = 0;
  sub.subscribe("cpc:1", [&](const ps::EnvelopePtr&) { ++explicit_got; });
  sub.psubscribe("cpc:*", [&](const ps::EnvelopePtr&) { ++pattern_got; });
  cluster.sim().run_for(seconds(1));

  // Overlap: one delivery invokes both handlers, counted once in received.
  pub.publish("cpc:1");
  cluster.sim().run_for(seconds(1));
  EXPECT_EQ(explicit_got, 1);
  EXPECT_EQ(pattern_got, 1);
  EXPECT_EQ(sub.stats().received, 1u);

  sub.punsubscribe("cpc:*");
  EXPECT_FALSE(sub.pattern_subscribed("cpc:*"));
  EXPECT_TRUE(sub.subscribed("cpc:1"));
  pub.publish("cpc:1");
  cluster.sim().run_for(seconds(1));
  EXPECT_EQ(explicit_got, 2);
  EXPECT_EQ(pattern_got, 1);
}

TEST(ClientPattern, UnsubscribeKeepsPatternInterest) {
  harness::Cluster cluster(fixture_config());
  auto& sub = cluster.add_client();
  auto& pub = cluster.add_client();
  int explicit_got = 0;
  int pattern_got = 0;
  sub.subscribe("cpd:1", [&](const ps::EnvelopePtr&) { ++explicit_got; });
  sub.psubscribe("cpd:*", [&](const ps::EnvelopePtr&) { ++pattern_got; });
  cluster.sim().run_for(seconds(1));

  sub.unsubscribe("cpd:1");
  EXPECT_FALSE(sub.subscribed("cpd:1"));
  // The pattern still wants the channel: the subscription must survive.
  pub.publish("cpd:1");
  cluster.sim().run_for(seconds(1));
  EXPECT_EQ(explicit_got, 0);
  EXPECT_EQ(pattern_got, 1);

  sub.punsubscribe("cpd:*");
  pub.publish("cpd:1");
  cluster.sim().run_for(seconds(1));
  EXPECT_EQ(pattern_got, 1);
}

TEST(ClientPattern, PatternHeldChannelNeverExpires) {
  harness::Cluster cluster(fixture_config());
  core::DynamothClient::Config cc;
  cc.entry_timeout = seconds(5);
  cc.sweep_interval = seconds(1);
  auto& sub = cluster.add_client(cc);
  auto& pub = cluster.add_client();
  pub.publish("cpe:1");  // interns the name
  int got = 0;
  sub.psubscribe("cpe:*", [&](const ps::EnvelopePtr&) { ++got; });
  cluster.sim().run_for(seconds(12));  // well past entry_timeout, zero traffic

  pub.publish("cpe:1");
  cluster.sim().run_for(seconds(1));
  EXPECT_EQ(got, 1);
}

TEST(ClientPattern, PatternFollowsInstalledPlanChange) {
  harness::Cluster cluster(fixture_config());
  const auto servers = cluster.server_ids();
  const Channel c = "cpf:1";
  const ServerId home = cluster.base_ring()->lookup(c);
  const ServerId other = servers[0] == home ? servers[1] : servers[0];

  auto& sub = cluster.add_client();
  auto& pub = cluster.add_client();
  int got = 0;
  pub.publish(c);  // interns the name
  sub.psubscribe("cpf:*", [&](const ps::EnvelopePtr&) { ++got; });
  cluster.sim().run_for(seconds(1));
  ASSERT_TRUE(sub.subscription_servers(c).contains(home));

  // Re-home the channel; the switch rides the first publication after the
  // plan change, and the pattern-held subscription must follow it.
  core::Plan plan;
  PlanEntry entry;
  entry.servers = {other};
  entry.version = 1;
  plan.set_entry(c, entry);
  cluster.install_plan(plan);

  sim::PeriodicTask traffic(cluster.sim(), millis(100), [&] { pub.publish(c); });
  traffic.start();
  cluster.sim().run_for(seconds(5));
  traffic.stop();

  EXPECT_TRUE(sub.subscription_servers(c).contains(other));
  EXPECT_FALSE(sub.subscription_servers(c).contains(home));
  // Continuous delivery: everything published after the subscription was in
  // place arrived (first publish predates the pattern, so at most one miss).
  EXPECT_GE(got, 48);
}

TEST(ClientPattern, ShutdownClearsPatterns) {
  harness::Cluster cluster(fixture_config());
  auto& sub = cluster.add_client();
  sub.psubscribe("cpg:*", [](const ps::EnvelopePtr&) {});
  cluster.sim().run_for(millis(100));
  sub.shutdown();
  EXPECT_FALSE(sub.pattern_subscribed("cpg:*"));
  // Interning a matching name after shutdown must not resurrect anything.
  auto& pub = cluster.add_client();
  pub.publish("cpg:1");
  cluster.sim().run_for(seconds(1));
}

}  // namespace
}  // namespace dynamoth::core

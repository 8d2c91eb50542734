// Unit tests for fault injection: `FaultPlan` schedules (net/fault.h) and
// how `SimStarNetwork` applies them — fault semantics, crash/timeout
// behaviour, and exact CommStats metering under every fault kind.
#include <gtest/gtest.h>

#include "crypto/prg.h"
#include "net/fault.h"
#include "net/robust.h"
#include "net/sim.h"

namespace {

using spfe::Bytes;
using spfe::ProtocolError;
using spfe::ServerUnavailable;
using namespace spfe::net;

Bytes msg(std::initializer_list<std::uint8_t> bytes) { return Bytes(bytes); }

TEST(FaultPlanTest, EmptyPlanFindsNothing) {
  FaultPlan plan;
  EXPECT_TRUE(plan.empty());
  EXPECT_EQ(plan.find(Direction::kClientToServer, 0, 0), nullptr);
  EXPECT_FALSE(plan.crash_point(0).has_value());
}

TEST(FaultPlanTest, LookupIsPerDirectionServerOrdinal) {
  FaultPlan plan;
  plan.add(Direction::kClientToServer, 2, 1, Fault{FaultKind::kDrop, 0, 0x01, 0});
  EXPECT_FALSE(plan.empty());
  EXPECT_EQ(plan.num_faults(), 1u);
  ASSERT_NE(plan.find(Direction::kClientToServer, 2, 1), nullptr);
  EXPECT_EQ(plan.find(Direction::kClientToServer, 2, 1)->kind, FaultKind::kDrop);
  EXPECT_EQ(plan.find(Direction::kServerToClient, 2, 1), nullptr);
  EXPECT_EQ(plan.find(Direction::kClientToServer, 1, 1), nullptr);
  EXPECT_EQ(plan.find(Direction::kClientToServer, 2, 0), nullptr);
}

TEST(FaultPlanTest, RejectsNoneDirectionAndZeroMask) {
  FaultPlan plan;
  EXPECT_THROW(plan.add(Direction::kNone, 0, 0, Fault{}), spfe::InvalidArgument);
  Fault zero_mask{FaultKind::kCorruptByte, 0, 0x00, 0};
  EXPECT_THROW(plan.add(Direction::kClientToServer, 0, 0, zero_mask), spfe::InvalidArgument);
}

TEST(FaultPlanTest, RandomPlanDisjointSetsAndDeterministic) {
  spfe::crypto::Prg prg1("fault-plan-seed");
  spfe::crypto::Prg prg2("fault-plan-seed");
  const FaultPlan a = FaultPlan::random(prg1, 10, 2, 3);
  const FaultPlan b = FaultPlan::random(prg2, 10, 2, 3);
  EXPECT_EQ(a.byzantine_servers().size(), 2u);
  EXPECT_EQ(a.unavailable_servers().size(), 3u);
  EXPECT_EQ(a.byzantine_servers(), b.byzantine_servers());
  EXPECT_EQ(a.unavailable_servers(), b.unavailable_servers());
  EXPECT_EQ(a.num_faults(), b.num_faults());
  for (std::size_t bz : a.byzantine_servers()) {
    for (std::size_t un : a.unavailable_servers()) EXPECT_NE(bz, un);
  }
  spfe::crypto::Prg prg3("fault-plan-seed");
  EXPECT_THROW(FaultPlan::random(prg3, 3, 2, 2), spfe::InvalidArgument);
}

// ---------------------------------------------------------------------------
// FaultPlan applied by a zero-latency SimStarNetwork.

TEST(SimFaultTest, DropIsMeteredButNotDelivered) {
  FaultPlan plan;
  plan.add(Direction::kClientToServer, 0, 0, Fault{FaultKind::kDrop, 0, 0x01, 0});
  SimStarNetwork net(1, SimConfig{}, plan);
  net.client_send(0, msg({1, 2, 3, 4}));
  EXPECT_EQ(net.stats().client_to_server_bytes, 4u);
  EXPECT_EQ(net.stats().client_to_server_messages, 1u);
  EXPECT_FALSE(net.server_has_message(0));
  EXPECT_THROW(net.server_receive(0), ServerUnavailable);
  // Only the scheduled ordinal is affected.
  net.client_send(0, msg({5}));
  EXPECT_EQ(net.server_receive(0), msg({5}));
}

TEST(SimFaultTest, CorruptByteFlipsExactlyOneByte) {
  FaultPlan plan;
  plan.add(Direction::kServerToClient, 0, 0, Fault{FaultKind::kCorruptByte, 6, 0xFF, 0});
  SimStarNetwork net(1, SimConfig{}, plan);
  net.server_send(0, msg({10, 11, 12, 13}));
  // byte_index is reduced mod the message size: 6 % 4 = 2.
  EXPECT_EQ(net.client_receive(0), msg({10, 11, static_cast<std::uint8_t>(12 ^ 0xFF), 13}));
  EXPECT_EQ(net.stats().server_to_client_bytes, 4u);
}

TEST(SimFaultTest, TruncateDeliversPrefixButMetersFull) {
  FaultPlan plan;
  plan.add(Direction::kServerToClient, 0, 0, Fault{FaultKind::kTruncate, 0, 0x01, 2});
  SimStarNetwork net(1, SimConfig{}, plan);
  net.server_send(0, msg({1, 2, 3, 4, 5}));
  EXPECT_EQ(net.client_receive(0), msg({1, 2}));
  EXPECT_EQ(net.stats().server_to_client_bytes, 5u);
}

TEST(SimFaultTest, CrashAfterOpsCountsReceivesAndSends) {
  FaultPlan plan;
  plan.crash_after(0, 2);  // survives receive + send, then dies
  plan.crash_after(1, 0);  // dead on arrival
  SimStarNetwork net(2, SimConfig{}, plan);
  EXPECT_TRUE(net.server_crashed(1));
  EXPECT_FALSE(net.server_crashed(0));
  net.client_send(0, msg({1}));
  EXPECT_EQ(net.server_receive(0), msg({1}));  // op 1
  net.server_send(0, msg({2}));                // op 2 -> crashes after
  EXPECT_EQ(net.client_receive(0), msg({2}));
  EXPECT_TRUE(net.server_crashed(0));
  net.client_send(0, msg({3}));
  EXPECT_THROW(net.server_receive(0), ServerUnavailable);
  // The client pays for every send; a dead server's sends vanish unmetered.
  net.client_send(1, msg({4, 5}));
  net.server_send(1, msg({6, 7, 8}));
  EXPECT_EQ(net.stats().client_to_server_bytes, 4u);
  EXPECT_EQ(net.stats().server_to_client_bytes, 1u);
  EXPECT_TRUE(net.idle());
}

TEST(SimFaultTest, CrashedReceiveClearsBacklog) {
  FaultPlan plan;
  plan.crash_after(0, 1);
  SimStarNetwork net(1, SimConfig{}, plan);
  net.client_send(0, msg({1}));
  net.client_send(0, msg({2}));
  EXPECT_EQ(net.server_receive(0), msg({1}));  // op 1 -> now dead
  EXPECT_THROW(net.server_receive(0), ServerUnavailable);
  EXPECT_FALSE(net.server_has_message(0));  // backlog discarded
  EXPECT_TRUE(net.idle());
}

TEST(SimFaultTest, DroppedMessageStillAdvancesHalfRounds) {
  // A dropped message was transmitted: it must participate in half-round
  // direction accounting exactly like a delivered one, otherwise round
  // counts silently depend on the fault plan.
  FaultPlan plan;
  plan.add(Direction::kClientToServer, 0, 0, Fault{FaultKind::kDrop, 0, 0x01, 0});
  SimStarNetwork net(1, SimConfig{}, plan);
  net.client_send(0, msg({1, 2}));  // dropped, but metered
  EXPECT_EQ(net.stats().half_rounds, 1u);
  net.server_send(0, msg({3}));
  EXPECT_EQ(net.stats().half_rounds, 2u);
  StarNetwork perfect(1);
  perfect.client_send(0, msg({1, 2}));
  perfect.server_send(0, msg({3}));
  EXPECT_EQ(net.stats().half_rounds, perfect.stats().half_rounds);
}

TEST(SimFaultTest, DuplicateDoesNotDoubleCountHalfRounds) {
  // The duplicate is injected at the queue, not re-transmitted: bytes,
  // messages, AND half-rounds reflect a single send.
  FaultPlan plan;
  plan.add(Direction::kServerToClient, 0, 0, Fault{FaultKind::kDuplicate, 0, 0x01, 0});
  SimStarNetwork net(1, SimConfig{}, plan);
  net.client_send(0, msg({1}));
  net.server_send(0, msg({2, 3}));
  EXPECT_EQ(net.stats().half_rounds, 2u);
  EXPECT_EQ(net.stats().server_to_client_messages, 1u);
  EXPECT_EQ(net.stats().server_to_client_bytes, 2u);
  EXPECT_EQ(net.client_receive(0), msg({2, 3}));
  EXPECT_EQ(net.client_receive(0), msg({2, 3}));
  // Draining the duplicate changed nothing meter-side.
  EXPECT_EQ(net.stats().server_to_client_messages, 1u);
  EXPECT_EQ(net.stats().half_rounds, 2u);
}

TEST(SimFaultTest, ErrorMessagesNameServerAndState) {
  SimStarNetwork net(3, SimConfig{});
  try {
    net.client_receive(2);
    FAIL() << "expected ServerUnavailable";
  } catch (const ServerUnavailable& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("server 2"), std::string::npos) << what;
    EXPECT_NE(what.find("queue depth"), std::string::npos) << what;
    EXPECT_NE(what.find("direction"), std::string::npos) << what;
  }
}

TEST(SimFaultTest, DrainRestoresIdleUnderDelaysAndCrashes) {
  FaultPlan plan;
  plan.add(Direction::kServerToClient, 0, 0, Fault{FaultKind::kDelay, 0, 0x01, 0});
  plan.add(Direction::kClientToServer, 1, 0, Fault{FaultKind::kDuplicate, 0, 0x01, 0});
  plan.crash_after(2, 1);
  SimStarNetwork net(3, SimConfig{}, plan);
  net.server_send(0, msg({1}));
  net.client_send(1, msg({2}));
  net.client_send(2, msg({3}));
  net.client_send(2, msg({4}));
  EXPECT_EQ(net.server_receive(2), msg({3}));  // crashes after this op
  EXPECT_FALSE(net.idle());
  drain_star_network(net);
  EXPECT_TRUE(net.idle());
  EXPECT_EQ(net.clock().now_us(), 0u);  // abandoned, not waited for
}

// Base-class StarNetwork error messages carry the same diagnostics
// (server index + queue depth + direction state).
TEST(StarNetworkDiagnosticsTest, ReceiveErrorNamesServerAndState) {
  StarNetwork net(4);
  net.client_send(1, msg({1}));
  try {
    net.server_receive(3);
    FAIL() << "expected ProtocolError";
  } catch (const ProtocolError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("server 3"), std::string::npos) << what;
    EXPECT_NE(what.find("to-server queue depth 0"), std::string::npos) << what;
    EXPECT_NE(what.find("client->server"), std::string::npos) << what;
  }
}

}  // namespace

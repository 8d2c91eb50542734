// Virtual-time network layer: clock/latency/deadline semantics, the PR 6
// metering invariants re-asserted under the clocked path, the robust
// driver's policy helpers, and the session health tracker.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "crypto/prg.h"
#include "field/fp64.h"
#include "net/fault.h"
#include "net/health.h"
#include "net/robust.h"
#include "net/sim.h"
#include "spfe/multiserver.h"

namespace {

using spfe::Bytes;
using spfe::ServerUnavailable;
using spfe::crypto::Prg;
using spfe::field::Fp64;
using namespace spfe::net;

Prg::Seed seed_of(const std::string& label) { return Prg(label).fork_seed("seed"); }

// ---------------------------------------------------------------------------
// Clock + latency model.

TEST(SimClockTest, OnlyMovesForward) {
  SimClock clock;
  EXPECT_EQ(clock.now_us(), 0u);
  clock.advance_to(100);
  EXPECT_EQ(clock.now_us(), 100u);
  clock.advance_to(40);  // past: no-op
  EXPECT_EQ(clock.now_us(), 100u);
  clock.advance_by(10);
  EXPECT_EQ(clock.now_us(), 110u);
}

TEST(LatencyModelTest, ZeroProfileIsZeroLatency) {
  const LatencyModel model(SimConfig::uniform(3, ServerProfile{}, seed_of("lm-zero")));
  for (std::uint64_t ord = 0; ord < 4; ++ord) {
    EXPECT_EQ(model.sample_us(Direction::kClientToServer, 1, ord), 0u);
  }
}

TEST(LatencyModelTest, SamplesAreKeyedNotSequenced) {
  const SimConfig cfg = SimConfig::uniform(4, ServerProfile::typical(), seed_of("lm-keyed"));
  const LatencyModel a(cfg), b(cfg);
  // Query b in a scrambled order: samples must match a's, key by key.
  const std::uint64_t b_32 = b.sample_us(Direction::kServerToClient, 3, 2);
  const std::uint64_t b_00 = b.sample_us(Direction::kClientToServer, 0, 0);
  EXPECT_EQ(a.sample_us(Direction::kClientToServer, 0, 0), b_00);
  EXPECT_EQ(a.sample_us(Direction::kServerToClient, 3, 2), b_32);
  // Within the profile's range.
  const ServerProfile p = ServerProfile::typical();
  EXPECT_GE(b_00, p.base_us);
  EXPECT_LE(b_00, p.base_us + p.jitter_us);
  // Distinct keys give distinct streams (overwhelmingly).
  bool any_diff = false;
  for (std::uint64_t ord = 0; ord < 8; ++ord) {
    if (a.sample_us(Direction::kClientToServer, 1, ord) !=
        a.sample_us(Direction::kClientToServer, 2, ord)) {
      any_diff = true;
    }
  }
  EXPECT_TRUE(any_diff);
}

TEST(LatencyModelTest, StragglersMultiplyLatency) {
  ServerProfile p;
  p.base_us = 100;
  p.straggle_permille = 1000;  // always
  p.straggle_factor = 30;
  const LatencyModel model(SimConfig::uniform(1, p, seed_of("lm-straggle")));
  EXPECT_EQ(model.sample_us(Direction::kServerToClient, 0, 0), 3000u);
}

TEST(LatencyModelTest, QuantileBracketsTheDistribution) {
  const LatencyModel model(
      SimConfig::uniform(2, ServerProfile::typical(), seed_of("lm-quantile")));
  const ServerProfile p = ServerProfile::typical();
  const std::uint64_t q50 = model.quantile_us(0, 0.5);
  const std::uint64_t q99 = model.quantile_us(0, 0.99);
  EXPECT_GE(q50, p.base_us);
  EXPECT_LE(q99, p.base_us + p.jitter_us);
  EXPECT_LE(q50, q99);
  // Deterministic.
  EXPECT_EQ(q99, model.quantile_us(0, 0.99));
}

TEST(LatencyModelTest, RejectsInvertedOutage) {
  SimConfig cfg = SimConfig::uniform(1, ServerProfile{}, seed_of("lm-bad-outage"));
  cfg.outages = {{{50, 10}}};
  EXPECT_THROW(LatencyModel{cfg}, spfe::InvalidArgument);
}

// ---------------------------------------------------------------------------
// SimStarNetwork timeline semantics.

TEST(SimStarNetworkTest, LatencyAdvancesClockOnDelivery) {
  ServerProfile p;
  p.base_us = 250;
  SimStarNetwork net(2, SimConfig::uniform(2, p, seed_of("sim-lat")));
  net.client_send(0, Bytes{1});
  const Bytes q = net.server_receive(0);
  EXPECT_EQ(q, Bytes{1});
  EXPECT_EQ(net.clock().now_us(), 0u);  // server work never moves the client clock
  net.server_send(0, Bytes{2});
  const Bytes a = net.client_receive(0);
  EXPECT_EQ(a, Bytes{2});
  // c2s (250) departs at 0, lands at 250; answer departs at 250, lands 500.
  EXPECT_EQ(net.clock().now_us(), 500u);
  EXPECT_EQ(net.last_delivery_us(), 500u);
}

TEST(SimStarNetworkTest, ServersRunConcurrently) {
  std::vector<ServerProfile> profiles(2);
  profiles[0].base_us = 1000;
  profiles[1].base_us = 10;
  SimConfig cfg;
  cfg.seed = seed_of("sim-conc");
  cfg.profiles = profiles;
  SimStarNetwork net(2, cfg);
  for (std::size_t s = 0; s < 2; ++s) {
    net.client_send(s, Bytes{static_cast<std::uint8_t>(s)});
    net.server_receive(s);
    net.server_send(s, Bytes{7});
  }
  // Collect the slow server first, the fast one after: the fast answer was
  // ready long before the clock reached 2000, so the clock stays put.
  net.client_receive(0);
  EXPECT_EQ(net.clock().now_us(), 2000u);
  net.client_receive(1);
  EXPECT_EQ(net.clock().now_us(), 2000u);
  EXPECT_EQ(net.last_delivery_us(), 20u);  // the fast answer's own ready time
}

TEST(SimStarNetworkTest, DeadlineMissLeavesMessageInFlight) {
  ServerProfile p;
  p.base_us = 300;
  SimStarNetwork net(1, SimConfig::uniform(1, p, seed_of("sim-deadline")));
  net.client_send(0, Bytes{1});
  net.server_receive(0);
  net.server_send(0, Bytes{2});  // ready at the client at 600us

  net.set_deadline(500);
  EXPECT_THROW(net.client_receive(0), ServerUnavailable);
  EXPECT_EQ(net.clock().now_us(), 500u);  // the client waited out its deadline
  EXPECT_TRUE(net.client_has_message(0));  // still in flight, not lost

  net.set_deadline(SimStarNetwork::kNoDeadline);
  EXPECT_EQ(net.client_receive(0), Bytes{2});  // a longer wait still gets it
  EXPECT_EQ(net.clock().now_us(), 600u);
}

TEST(SimStarNetworkTest, DeadlineMissOnEmptyChannelWaitsOutTheDeadline) {
  SimStarNetwork net(1, SimConfig::uniform(1, ServerProfile{}, seed_of("sim-empty")));
  net.set_deadline(750);
  EXPECT_THROW(net.client_receive(0), ServerUnavailable);
  EXPECT_EQ(net.clock().now_us(), 750u);
}

TEST(SimStarNetworkTest, OutageDropsButMeters) {
  SimConfig cfg = SimConfig::uniform(1, ServerProfile{}, seed_of("sim-outage"));
  cfg.outages = {{{0, 100}}};  // link down at t=0
  SimStarNetwork net(1, cfg);
  net.client_send(0, Bytes{1, 2, 3});
  EXPECT_EQ(net.stats().client_to_server_bytes, 3u);  // sender pays
  EXPECT_EQ(net.stats().client_to_server_messages, 1u);
  EXPECT_FALSE(net.server_has_message(0));  // the wire ate it
  // After the window the link works again.
  net.clock().advance_to(100);
  net.client_send(0, Bytes{4});
  EXPECT_TRUE(net.server_has_message(0));
}

TEST(SimStarNetworkTest, DelayFaultBecomesConcreteLatency) {
  FaultPlan plan;
  plan.add(Direction::kServerToClient, 0, 0, Fault{FaultKind::kDelay, 0, 0x01, 0});
  SimConfig cfg = SimConfig::uniform(1, ServerProfile{}, seed_of("sim-delayfault"));
  cfg.delay_fault_penalty_us = 5000;
  SimStarNetwork net(1, cfg, plan);
  net.client_send(0, Bytes{1});
  net.server_receive(0);
  net.server_send(0, Bytes{2});
  const CommStats before = net.stats();
  net.set_deadline(4999);
  EXPECT_THROW(net.client_receive(0), ServerUnavailable);  // delayed past it
  // The miss is a receive-side event: metering is untouched by it.
  EXPECT_EQ(net.stats().server_to_client_bytes, before.server_to_client_bytes);
  EXPECT_EQ(net.stats().server_to_client_messages, before.server_to_client_messages);
  EXPECT_EQ(net.stats().half_rounds, before.half_rounds);
  net.set_deadline(SimStarNetwork::kNoDeadline);
  EXPECT_EQ(net.client_receive(0), Bytes{2});
  EXPECT_EQ(net.clock().now_us(), 5000u);
}

TEST(SimStarNetworkTest, DiscardInFlightClearsWithoutAdvancingClock) {
  ServerProfile p;
  p.base_us = 40;
  SimStarNetwork net(2, SimConfig::uniform(2, p, seed_of("sim-discard")));
  net.client_send(0, Bytes{1});
  net.client_send(1, Bytes{1});
  net.server_receive(1);
  net.server_send(1, Bytes{2});
  net.discard_in_flight();
  EXPECT_EQ(net.clock().now_us(), 0u);
  EXPECT_TRUE(net.idle());
}

TEST(SimStarNetworkTest, EarliestClientReadyPicksArrivalOrder) {
  SimConfig cfg;
  cfg.seed = seed_of("sim-select");
  cfg.profiles = {{900, 0, 0, 20}, {100, 0, 0, 20}, {500, 0, 0, 20}};
  SimStarNetwork net(3, cfg);
  EXPECT_FALSE(net.earliest_client_ready({0, 1, 2}).has_value());
  for (std::size_t s = 0; s < 3; ++s) {
    net.client_send(s, Bytes{1});
    net.server_receive(s);
    net.server_send(s, Bytes{static_cast<uint8_t>(s)});
  }
  // Answers become ready at 2*base: server 1 first, then 2, then 0 — and the
  // peek itself never moves the clock.
  EXPECT_EQ(net.earliest_client_ready({0, 1, 2}).value(), 1u);
  EXPECT_EQ(net.earliest_client_ready({0, 2}).value(), 1u);
  EXPECT_EQ(net.clock().now_us(), 0u);
  EXPECT_EQ(net.client_receive(1), Bytes{1});
  EXPECT_EQ(net.earliest_client_ready({0, 1, 2}).value(), 2u);
}

// ---------------------------------------------------------------------------
// PR 6 metering invariants, re-asserted under the clocked path.

TEST(SimMeteringTest, ZeroByteMessagesAreMeteredAsMessages) {
  // A corrupt fault on an empty payload has no byte to flip: it must not
  // crash and still delivers the empty message.
  FaultPlan plan;
  plan.add(Direction::kClientToServer, 0, 0, Fault{FaultKind::kCorruptByte, 3, 0xFF, 0});
  SimStarNetwork net(1, SimConfig::uniform(1, ServerProfile{}, seed_of("sim-zero")), plan);
  net.client_send(0, Bytes{});
  EXPECT_EQ(net.stats().client_to_server_messages, 1u);
  EXPECT_EQ(net.stats().client_to_server_bytes, 0u);
  EXPECT_EQ(net.stats().half_rounds, 1u);
  EXPECT_EQ(net.server_receive(0), Bytes{});
}

TEST(SimMeteringTest, DuplicatesAreDeliveredTwiceButMeteredOnce) {
  FaultPlan plan;
  plan.add(Direction::kClientToServer, 0, 0, Fault{FaultKind::kDuplicate, 0, 0x01, 0});
  SimStarNetwork net(1, SimConfig::uniform(1, ServerProfile{}, seed_of("sim-dup")), plan);
  net.client_send(0, Bytes{9, 9});
  EXPECT_EQ(net.stats().client_to_server_messages, 1u);  // sender paid once
  EXPECT_EQ(net.stats().client_to_server_bytes, 2u);
  EXPECT_EQ(net.server_receive(0), (Bytes{9, 9}));
  EXPECT_EQ(net.server_receive(0), (Bytes{9, 9}));  // the free copy
  EXPECT_FALSE(net.server_has_message(0));
}

TEST(SimMeteringTest, CrashedServerTransmitsNothing) {
  FaultPlan plan;
  plan.crash_after(0, 1);  // dies after receiving the query
  SimStarNetwork net(1, SimConfig::uniform(1, ServerProfile{}, seed_of("sim-crash")), plan);
  net.client_send(0, Bytes{1});
  EXPECT_FALSE(net.server_crashed(0));
  net.server_receive(0);
  EXPECT_TRUE(net.server_crashed(0));
  net.server_send(0, Bytes{2, 2, 2});  // dead: silently dropped, unmetered
  EXPECT_EQ(net.stats().server_to_client_messages, 0u);
  EXPECT_EQ(net.stats().server_to_client_bytes, 0u);
  EXPECT_FALSE(net.client_has_message(0));
}

TEST(SimMeteringTest, ZeroLatencySimMatchesPlainNetworkStats) {
  // The same exchange over a plain StarNetwork and a zero-latency sim must
  // meter identically (and the sim's clock must not move).
  StarNetwork plain(2);
  SimStarNetwork sim(2, SimConfig::uniform(2, ServerProfile{}, seed_of("sim-parity")));
  for (StarNetwork* net : {&plain, static_cast<StarNetwork*>(&sim)}) {
    for (std::size_t s = 0; s < 2; ++s) {
      net->client_send(s, Bytes{1, 2, 3});
      net->server_receive(s);
      net->server_send(s, Bytes{4, 5});
      net->client_receive(s);
    }
  }
  EXPECT_EQ(plain.stats().client_to_server_bytes, sim.stats().client_to_server_bytes);
  EXPECT_EQ(plain.stats().server_to_client_bytes, sim.stats().server_to_client_bytes);
  EXPECT_EQ(plain.stats().client_to_server_messages, sim.stats().client_to_server_messages);
  EXPECT_EQ(plain.stats().server_to_client_messages, sim.stats().server_to_client_messages);
  EXPECT_EQ(plain.stats().half_rounds, sim.stats().half_rounds);
  EXPECT_EQ(sim.clock().now_us(), 0u);
  EXPECT_TRUE(plain.idle());
  EXPECT_TRUE(sim.idle());
}

// ---------------------------------------------------------------------------
// Timed-policy helpers.

TEST(TimingPolicyTest, ProvisioningHelper) {
  // degree d needs d+1 points; a silent lie costs 2, a crash 1, spares ride
  // on top.
  EXPECT_EQ(provisioned_servers(6, 0, 0), 7u);
  EXPECT_EQ(provisioned_servers(6, 1, 2), 11u);
  EXPECT_EQ(provisioned_servers(6, 1, 1, 3), 13u);
  // A caught liar is an erasure: each one lowers the decode quorum by two,
  // never below the bare interpolation quorum d+1.
  EXPECT_EQ(decode_quorum(6, 0, 0), 7u);
  EXPECT_EQ(decode_quorum(6, 2, 0), 11u);
  EXPECT_EQ(decode_quorum(6, 2, 1), 9u);
  EXPECT_EQ(decode_quorum(6, 1, 3), 7u);
}

TEST(TimingPolicyTest, BackoffIsExponentialCappedAndJittered) {
  TimingPolicy tp;
  tp.backoff_base_us = 1000;
  tp.backoff_max_us = 8000;
  tp.backoff_jitter_permille = 500;
  tp.backoff_seed = seed_of("backoff");
  const std::uint64_t w1 = detail::backoff_wait_us(tp, 1);
  const std::uint64_t w2 = detail::backoff_wait_us(tp, 2);
  const std::uint64_t w5 = detail::backoff_wait_us(tp, 5);
  EXPECT_GE(w1, 1000u);
  EXPECT_LE(w1, 1500u);  // base + <=50% jitter
  EXPECT_GE(w2, 2000u);
  EXPECT_LE(w2, 3000u);
  EXPECT_GE(w5, 8000u);  // capped at max
  EXPECT_LE(w5, 12000u);
  // Deterministic in the seed.
  EXPECT_EQ(w2, detail::backoff_wait_us(tp, 2));
  tp.backoff_jitter_permille = 0;
  EXPECT_EQ(detail::backoff_wait_us(tp, 2), 2000u);
}

TEST(TimingPolicyTest, SendOrderValidation) {
  TimingPolicy tp;
  EXPECT_EQ(detail::resolve_send_order(tp, 3), (std::vector<std::size_t>{0, 1, 2}));
  tp.send_order = {2, 0, 1};
  EXPECT_EQ(detail::resolve_send_order(tp, 3), (std::vector<std::size_t>{2, 0, 1}));
  tp.send_order = {0, 1};
  EXPECT_THROW(detail::resolve_send_order(tp, 3), spfe::InvalidArgument);
  tp.send_order = {0, 0, 1};
  EXPECT_THROW(detail::resolve_send_order(tp, 3), spfe::InvalidArgument);
}

// ---------------------------------------------------------------------------
// Robust exchange over the sum SPFE (small smoke; the chaos sweep exercises
// the full schedule space).

TEST(TimedRobustTest, DeadlinesTurnStragglersIntoErasures) {
  const Fp64 field(Fp64::kMersenne61);
  std::vector<std::uint64_t> db(64);
  for (std::size_t i = 0; i < db.size(); ++i) db[i] = i * i + 3;
  const std::vector<std::size_t> indices = {5, 41};
  const std::size_t k = provisioned_servers(6, 0, 1);  // one erasure budgeted
  const spfe::protocols::MultiServerSumSpfe proto(field, 64, 2, k, 1);

  // Server 2 always straggles 30x; everyone else is fast and tight.
  ServerProfile fast;
  fast.base_us = 100;
  std::vector<ServerProfile> profiles(k, fast);
  profiles[2].base_us = 100;
  profiles[2].straggle_permille = 1000;
  profiles[2].straggle_factor = 30;
  SimConfig cfg;
  cfg.seed = seed_of("timed-straggler");
  cfg.profiles = profiles;
  SimStarNetwork net(k, cfg);

  RobustConfig rc;
  rc.timing.attempt_timeout_us = 1000;  // straggler needs 3100+
  Prg prg("timed-robust");
  const auto seed = prg.fork_seed("spir");
  const RobustResult res = proto.run_robust(net, db, indices, seed, prg, rc);
  EXPECT_EQ(res.value, field.add(db[5], db[41]));
  EXPECT_TRUE(res.report.success);
  EXPECT_EQ(res.report.attempts, 1u);
  EXPECT_EQ(res.report.erasures, 1u);
  EXPECT_EQ(res.report.verdicts[2].fate, ServerFate::kUnavailable);
  EXPECT_GT(res.report.completion_us, 0u);
  ASSERT_EQ(res.report.history.size(), 1u);
  EXPECT_EQ(res.report.history[0].verdicts[2].fate, ServerFate::kUnavailable);
  EXPECT_TRUE(net.idle());
}

TEST(TimedRobustTest, HedgeSparesRescueStragglers) {
  const Fp64 field(Fp64::kMersenne61);
  std::vector<std::uint64_t> db(64);
  for (std::size_t i = 0; i < db.size(); ++i) db[i] = i * 3 + 1;
  const std::vector<std::size_t> indices = {9, 30};
  const std::size_t spares = 2;
  const std::size_t k = provisioned_servers(6, 0, 0, spares);
  const spfe::protocols::MultiServerSumSpfe proto(field, 64, 2, k, 1);

  // Primaries 0 and 3 straggle past any sane deadline; the spares are fast.
  ServerProfile fast;
  fast.base_us = 100;
  std::vector<ServerProfile> profiles(k, fast);
  for (const std::size_t s : {std::size_t{0}, std::size_t{3}}) {
    profiles[s].straggle_permille = 1000;
    profiles[s].straggle_factor = 1000;  // 100ms: beyond the attempt deadline
  }
  SimConfig cfg;
  cfg.seed = seed_of("timed-hedge");
  cfg.profiles = profiles;
  SimStarNetwork net(k, cfg);

  RobustConfig rc;
  rc.timing.attempt_timeout_us = 20'000;
  rc.timing.hedge_timeout_us = 500;
  rc.timing.hedge_spares = spares;
  Prg prg("timed-hedge");
  const auto seed = prg.fork_seed("spir");
  const RobustResult res = proto.run_robust(net, db, indices, seed, prg, rc);
  EXPECT_EQ(res.value, field.add(db[9], db[30]));
  EXPECT_TRUE(res.report.success);
  EXPECT_EQ(res.report.attempts, 1u);
  // Both stragglers abandoned, both spares dispatched and used.
  EXPECT_EQ(res.report.verdicts[0].fate, ServerFate::kUnavailable);
  EXPECT_EQ(res.report.verdicts[3].fate, ServerFate::kUnavailable);
  EXPECT_EQ(res.report.verdicts[k - 1].fate, ServerFate::kOk);
  EXPECT_EQ(res.report.verdicts[k - 2].fate, ServerFate::kOk);
  // Hedging wins long before the stragglers' 100ms.
  EXPECT_LT(res.report.completion_us, 5'000u);
  EXPECT_TRUE(net.idle());
}

TEST(TimedRobustTest, UnusedSparesAreReportedAsSpares) {
  const Fp64 field(Fp64::kMersenne61);
  std::vector<std::uint64_t> db(64);
  for (std::size_t i = 0; i < db.size(); ++i) db[i] = i + 1;
  const std::vector<std::size_t> indices = {1, 2};
  const std::size_t k = provisioned_servers(6, 0, 0, 2);
  const spfe::protocols::MultiServerSumSpfe proto(field, 64, 2, k, 1);

  ServerProfile fast;
  fast.base_us = 50;
  SimStarNetwork net(k, SimConfig::uniform(k, fast, seed_of("timed-spare")));
  RobustConfig rc;
  rc.timing.attempt_timeout_us = 10'000;
  rc.timing.hedge_timeout_us = 500;
  rc.timing.hedge_spares = 2;
  Prg prg("timed-spare");
  const auto seed = prg.fork_seed("spir");
  const RobustResult res = proto.run_robust(net, db, indices, seed, prg, rc);
  EXPECT_EQ(res.value, field.add(db[1], db[2]));
  EXPECT_EQ(res.report.verdicts[k - 1].fate, ServerFate::kSpare);
  EXPECT_EQ(res.report.verdicts[k - 2].fate, ServerFate::kSpare);
  // Spares never queried: erasures count only queried servers.
  EXPECT_EQ(res.report.erasures, 0u);
}

// Regression: a Byzantine lie among the first answers must not survive an
// early decode. At the bare degree+1 quorum Berlekamp–Welch has zero
// correction margin, so any d+1 points (lie included) decode to a
// consistent wrong polynomial; byzantine_budget makes the driver wait for
// degree + 1 + 2e usable answers, where e lies are corrected.
TEST(TimedRobustTest, ByzantineLieCannotSurviveEarlyDecode) {
  const Fp64 field(Fp64::kMersenne61);
  std::vector<std::uint64_t> db(64);
  for (std::size_t i = 0; i < db.size(); ++i) db[i] = i * 11 + 2;
  const std::vector<std::size_t> indices = {7, 12};
  const std::size_t spares = 2;
  const std::size_t k = provisioned_servers(6, 1, 0, spares);  // 11

  // Server 0 lies (corrupted answer); server 3 straggles past the hedge
  // deadline. Without the budget, pass 1 would decode from exactly d+1 = 7
  // points including the lie.
  FaultPlan plan;
  plan.add(Direction::kServerToClient, 0, 0, Fault{FaultKind::kCorruptByte, 2, 0x5a, 0});
  ServerProfile fast;
  fast.base_us = 100;
  std::vector<ServerProfile> profiles(k, fast);
  profiles[3].straggle_permille = 1000;
  profiles[3].straggle_factor = 1000;
  SimConfig cfg;
  cfg.seed = seed_of("timed-lie");
  cfg.profiles = profiles;
  SimStarNetwork net(k, cfg, plan);

  RobustConfig rc;
  rc.timing.attempt_timeout_us = 20'000;
  rc.timing.hedge_timeout_us = 500;
  rc.timing.hedge_spares = spares;
  rc.byzantine_budget = 1;  // provisioned e
  const spfe::protocols::MultiServerSumSpfe proto(field, 64, 2, k, 1);
  Prg prg("timed-lie");
  const auto seed = prg.fork_seed("spir");
  const RobustResult res = proto.run_robust(net, db, indices, seed, prg, rc);
  EXPECT_EQ(res.value, field.add(db[7], db[12]));
  EXPECT_EQ(res.report.attempts, 1u);
  EXPECT_EQ(res.report.errors_corrected, 1u);
  EXPECT_EQ(res.report.verdicts[0].fate, ServerFate::kCorrected);
  EXPECT_EQ(res.report.verdicts[3].fate, ServerFate::kUnavailable);
  EXPECT_TRUE(net.idle());
}

TEST(TimedRobustTest, RetriesBackOffInVirtualTime) {
  const Fp64 field(Fp64::kMersenne61);
  std::vector<std::uint64_t> db(64, 7);
  const std::vector<std::size_t> indices = {0, 1};
  const std::size_t k = provisioned_servers(6, 0, 0);
  const spfe::protocols::MultiServerSumSpfe proto(field, 64, 2, k, 1);

  // Zero redundancy and one server's answers always dropped: every attempt
  // fails, each after waiting out its deadline plus the backoff.
  FaultPlan plan;
  for (std::size_t r = 0; r < 8; ++r) {
    plan.add(Direction::kServerToClient, 0, r, Fault{FaultKind::kDrop, 0, 0x01, 0});
  }
  ServerProfile fast;
  fast.base_us = 10;
  SimStarNetwork net(k, SimConfig::uniform(k, fast, seed_of("timed-retry")), plan);
  RobustConfig rc;
  rc.max_attempts = 3;
  rc.timing.attempt_timeout_us = 1'000;
  rc.timing.backoff_base_us = 2'000;
  rc.timing.backoff_max_us = 16'000;
  rc.timing.backoff_jitter_permille = 0;
  Prg prg("timed-retry");
  const auto seed = prg.fork_seed("spir");
  try {
    proto.run_robust(net, db, indices, seed, prg, rc);
    FAIL() << "undecodable run must throw";
  } catch (const RobustProtocolError& err) {
    const RobustnessReport& rep = err.report();
    EXPECT_EQ(rep.attempts, 3u);
    ASSERT_EQ(rep.history.size(), 3u);
    // Attempt i starts after attempt i-1's deadline plus the backoff.
    EXPECT_EQ(rep.history[0].started_us, 0u);
    EXPECT_EQ(rep.history[0].ended_us, 1'000u);
    EXPECT_EQ(rep.history[1].started_us, 3'000u);   // + 2ms backoff
    EXPECT_EQ(rep.history[2].started_us, 8'000u);   // + 4ms backoff
    // The terminal message carries the full per-attempt history.
    const std::string what = err.what();
    EXPECT_NE(what.find("attempt 0"), std::string::npos);
    EXPECT_NE(what.find("attempt 1"), std::string::npos);
  }
  EXPECT_TRUE(net.idle());
}

// ---------------------------------------------------------------------------
// Session health tracker.

TEST(ServerHealthTrackerTest, DemeritsRankAndRecover) {
  ServerHealthTracker health(3);
  RobustnessReport rep;
  rep.verdicts.assign(3, ServerReport{});
  rep.verdicts[1].fate = ServerFate::kUnavailable;
  rep.verdicts[2].fate = ServerFate::kCorrected;
  health.observe(rep);
  EXPECT_EQ(health.demerits(0), 0u);
  EXPECT_EQ(health.demerits(1), ServerHealthTracker::kUnavailableDemerit);
  EXPECT_EQ(health.demerits(2), ServerHealthTracker::kCorrectedDemerit);
  EXPECT_TRUE(health.demoted(2));  // a lie demotes immediately at threshold 8
  EXPECT_EQ(health.ranked_order(), (std::vector<std::size_t>{0, 1, 2}));

  // Clean rounds halve demerits: the flaky server works its way back.
  rep.verdicts.assign(3, ServerReport{});
  health.observe(rep);
  health.observe(rep);
  EXPECT_EQ(health.demerits(1), 1u);
  EXPECT_EQ(health.demerits(2), 2u);
  EXPECT_FALSE(health.demoted(2));
  EXPECT_EQ(health.queries_observed(), 3u);
}

TEST(ServerHealthTrackerTest, SpareVerdictsAreNeutral) {
  ServerHealthTracker health(2);
  RobustnessReport rep;
  rep.verdicts.assign(2, ServerReport{});
  rep.verdicts[1].fate = ServerFate::kSpare;
  health.observe(rep);
  EXPECT_EQ(health.demerits(1), 0u);
}

TEST(ServerHealthTrackerTest, LatencyQuantileTracksObservations) {
  ServerHealthTracker health(2);
  EXPECT_EQ(health.latency_quantile_us(0.95, 1234), 1234u);  // fallback
  RobustnessReport rep;
  rep.verdicts.assign(2, ServerReport{});
  for (std::uint64_t us = 1; us <= 100; ++us) {
    rep.verdicts[0].answer_us = us;
    rep.verdicts[1].answer_us = us;
    health.observe(rep);
  }
  const std::uint64_t q50 = health.latency_quantile_us(0.5, 0);
  const std::uint64_t q95 = health.latency_quantile_us(0.95, 0);
  EXPECT_GE(q50, 45u);
  EXPECT_LE(q50, 55u);
  EXPECT_GE(q95, 90u);
  EXPECT_LE(q95, 100u);
  EXPECT_THROW(health.latency_quantile_us(1.5, 0), spfe::InvalidArgument);
  RobustnessReport wrong;
  wrong.verdicts.assign(3, ServerReport{});
  EXPECT_THROW(health.observe(wrong), spfe::InvalidArgument);
}

}  // namespace

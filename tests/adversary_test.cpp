// Adaptive Byzantine adversary engine (ctest label: adversary).
//
// Three pillars:
//   1. Strategy/engine semantics — coalitions share views and scratch
//      state, every shipped strategy deviates exactly when documented, and
//      the network interposition honors the metering contract (a forged
//      answer is a metered transmission, byzantine silence is unmetered,
//      a delayed answer arrives late).
//   2. Soundness tightness — a within-budget adversary never extracts a
//      wrong value: every strategy across thousands of seeded schedules
//      yields the exact output or the typed RobustProtocolError. The
//      boundary is witnessed in both directions: with the byzantine-budget
//      quorum guard ablated (budget 0 against a live liar) a single
//      consistent lie at the bare d+1 interpolation quorum produces a
//      *silent wrong decode* the report cannot see, and an (e+1)-liar
//      coalition on the first abscissae at the d+1+2e provisioning forces
//      the typed error. Other e+1 positions can decode wrong (the code's
//      minimum distance is 2e+1); the packed §4 package meets them exactly
//      as a plain sum does.
//   3. Selective-failure privacy — the kill decisions of a content-aware
//      drop adversary are statistically independent of the client's secret
//      index, because every attempt re-randomizes the query curve; a
//      deliberately leaky (un-rerandomized) strawman protocol is flagged by
//      the same harness, and the harness transcript is SPFE_THREADS
//      invariant.
#include <gtest/gtest.h>

#include <bit>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/parallel.h"
#include "common/serialize.h"
#include "crypto/prg.h"
#include "field/fp64.h"
#include "net/adversary.h"
#include "net/fault.h"
#include "net/health.h"
#include "net/robust.h"
#include "net/sim.h"
#include "obs/obs.h"
#include "pir/itpir.h"
#include "spfe/multiserver.h"
#include "spfe/stats.h"

namespace {

using spfe::Bytes;
using spfe::BytesView;
using spfe::Reader;
using spfe::Writer;
using spfe::DeadlineMiss;
using spfe::ServerUnavailable;
using spfe::common::ThreadPool;
using spfe::crypto::Prg;
using spfe::field::Fp64;
using namespace spfe::net;
namespace obs = spfe::obs;

std::vector<std::uint64_t> test_database(std::size_t n) {
  std::vector<std::uint64_t> db(n);
  for (std::size_t i = 0; i < n; ++i) db[i] = i * i + 3;
  return db;
}

Bytes field_answer(std::uint64_t value) {
  Writer w;
  w.u64(value);
  return std::move(w).take();
}

std::uint64_t read_field_answer(const Bytes& answer) {
  Reader r(answer);
  const std::uint64_t v = r.u64();
  r.expect_done();
  return v;
}

// ---------------------------------------------------------------------------
// Strategy/engine unit semantics.

TEST(AdversaryEngineTest, ForgeFieldAnswerAddsDeltaModP) {
  const std::uint64_t p = Fp64::kMersenne61;
  const auto forged = forge_field_answer(field_answer(10), p, 7);
  ASSERT_TRUE(forged.has_value());
  EXPECT_EQ(read_field_answer(*forged), 17u);

  // Wraparound stays inside the field.
  const auto wrapped = forge_field_answer(field_answer(p - 1), p, 2);
  ASSERT_TRUE(wrapped.has_value());
  EXPECT_EQ(read_field_answer(*wrapped), 1u);

  // Trailing bytes survive the forgery untouched.
  Bytes long_answer = field_answer(5);
  long_answer.push_back(0xAB);
  long_answer.push_back(0xCD);
  const auto forged_long = forge_field_answer(long_answer, p, 1);
  ASSERT_TRUE(forged_long.has_value());
  EXPECT_EQ(forged_long->size(), long_answer.size());
  EXPECT_EQ((*forged_long)[8], 0xAB);
  EXPECT_EQ((*forged_long)[9], 0xCD);

  // Too short to carry a field element: unforgeable.
  EXPECT_FALSE(forge_field_answer(Bytes{1, 2, 3}, p, 1).has_value());
}

TEST(AdversaryEngineTest, EngineRecordsViewsOrdinalsAndStats) {
  const std::uint64_t p = Fp64::kMersenne61;
  AdversaryEngine engine(std::make_shared<ConsistentLieStrategy>(p, 5),
                         {2, 0, 2});  // duplicates and order normalize away

  ASSERT_EQ(engine.coalition().members(), (std::vector<std::size_t>{0, 2}));
  EXPECT_TRUE(engine.controls(0));
  EXPECT_FALSE(engine.controls(1));
  EXPECT_THROW((void)engine.view(1), spfe::InvalidArgument);

  engine.observe_query(0, Bytes{9, 9}, 100);
  engine.observe_query(0, Bytes{8}, 250);
  const AdversaryAction act = engine.intercept_answer(0, field_answer(4), 300);
  EXPECT_EQ(act.kind, AdversaryAction::Kind::kReplace);
  EXPECT_EQ(read_field_answer(act.replacement), 9u);

  const LinkView& view = engine.view(0);
  ASSERT_EQ(view.events.size(), 3u);
  EXPECT_EQ(view.events[0].dir, LinkEvent::Dir::kQueryIn);
  EXPECT_EQ(view.events[0].ordinal, 0u);
  EXPECT_EQ(view.events[1].ordinal, 1u);
  EXPECT_EQ(view.events[1].at_us, 250u);
  EXPECT_EQ(view.events[2].dir, LinkEvent::Dir::kAnswerOut);
  EXPECT_EQ(view.events[2].ordinal, 0u);
  ASSERT_NE(view.last_query(), nullptr);
  EXPECT_EQ(view.last_query()->payload, Bytes{8});

  EXPECT_EQ(engine.stats(0).queries_observed, 2u);
  EXPECT_EQ(engine.stats(0).answers_forged, 1u);
  EXPECT_EQ(engine.stats(2).queries_observed, 0u);
  EXPECT_EQ(engine.total_stats().answers_forged, 1u);
}

TEST(AdversaryEngineTest, CrashAtWorstTimeCrashesCoalitionInLockstep) {
  AdversaryEngine engine(std::make_shared<CrashAtWorstTimeStrategy>(1), {0, 1});

  // Attempt 0: both members honest.
  engine.observe_query(0, Bytes{1}, 0);
  engine.observe_query(1, Bytes{1}, 0);
  EXPECT_EQ(engine.intercept_answer(0, field_answer(1), 0).kind,
            AdversaryAction::Kind::kSendHonest);
  EXPECT_EQ(engine.intercept_answer(1, field_answer(1), 0).kind,
            AdversaryAction::Kind::kSendHonest);

  // Attempt 1 reaches only server 0 (server 1 was held back as a spare), yet
  // the coalition-wide trigger silences both.
  engine.observe_query(0, Bytes{2}, 0);
  EXPECT_EQ(engine.intercept_answer(0, field_answer(2), 0).kind,
            AdversaryAction::Kind::kDrop);
  EXPECT_EQ(engine.intercept_answer(1, field_answer(2), 0).kind,
            AdversaryAction::Kind::kDrop);
}

TEST(AdversaryEngineTest, EquivocateIsHonestFirstThenForges) {
  const std::uint64_t p = Fp64::kMersenne61;
  AdversaryEngine engine(std::make_shared<EquivocateAcrossRetriesStrategy>(p, 3), {0});

  engine.observe_query(0, Bytes{1}, 0);
  EXPECT_EQ(engine.intercept_answer(0, field_answer(10), 0).kind,
            AdversaryAction::Kind::kSendHonest);

  engine.observe_query(0, Bytes{2}, 0);
  const AdversaryAction retry = engine.intercept_answer(0, field_answer(10), 0);
  EXPECT_EQ(retry.kind, AdversaryAction::Kind::kReplace);
  EXPECT_EQ(read_field_answer(retry.replacement), 13u);
}

TEST(AdversaryEngineTest, TargetedStraggleDelaysOnlyHedgeDispatches) {
  AdversaryEngine engine(std::make_shared<TargetedStraggleStrategy>(500, 9000), {0, 1});

  // Server 0 is a primary (earliest query); server 1's query lands 800us
  // later — past the 500us gap, so it is recognized as a hedge dispatch.
  engine.observe_query(0, Bytes{1}, 1000);
  engine.observe_query(1, Bytes{1}, 1800);
  EXPECT_EQ(engine.intercept_answer(0, field_answer(1), 1000).kind,
            AdversaryAction::Kind::kSendHonest);
  const AdversaryAction hedge = engine.intercept_answer(1, field_answer(1), 1800);
  EXPECT_EQ(hedge.kind, AdversaryAction::Kind::kDelay);
  EXPECT_EQ(hedge.delay_us, 9000u);

  // Queries that land at the same instant leave no gap: no deviation ever.
  AdversaryEngine same_time(std::make_shared<TargetedStraggleStrategy>(500, 9000), {0, 1});
  same_time.observe_query(0, Bytes{1}, 0);
  same_time.observe_query(1, Bytes{1}, 0);
  EXPECT_EQ(same_time.intercept_answer(1, field_answer(1), 0).kind,
            AdversaryAction::Kind::kSendHonest);
}

TEST(AdversaryEngineTest, SelectiveFailureCountsMatchesAndMisses) {
  auto strategy = std::make_shared<SelectiveFailureStrategy>(
      SelectiveFailureStrategy::byte_mask(0, 0x01), AdversaryAction::drop());
  AdversaryEngine engine(strategy, {0});

  engine.observe_query(0, Bytes{0x01}, 0);  // low bit set: kill
  EXPECT_EQ(engine.intercept_answer(0, field_answer(1), 0).kind,
            AdversaryAction::Kind::kDrop);
  engine.observe_query(0, Bytes{0x02}, 0);  // low bit clear: honest
  EXPECT_EQ(engine.intercept_answer(0, field_answer(1), 0).kind,
            AdversaryAction::Kind::kSendHonest);

  EXPECT_EQ(strategy->matches(), 1u);
  EXPECT_EQ(strategy->misses(), 1u);
}

TEST(AdversaryEngineTest, MakeStrategyIsDeterministicPerSeed) {
  const std::uint64_t p = Fp64::kMersenne61;
  for (std::size_t i = 0; i < kNumStrategyKinds; ++i) {
    const auto kind = static_cast<StrategyKind>(i);
    Prg a("strategy-seed"), b("strategy-seed");
    const auto sa = make_strategy(kind, p, a);
    const auto sb = make_strategy(kind, p, b);
    ASSERT_NE(sa, nullptr);
    EXPECT_STREQ(sa->name(), strategy_kind_name(kind));

    // Same seed => identical decisions on an identical view.
    AdversaryEngine ea(sa, {0});
    AdversaryEngine eb(sb, {0});
    for (std::size_t q = 0; q < 3; ++q) {
      const Bytes query{static_cast<std::uint8_t>(0x35 + q)};
      ea.observe_query(0, query, 100 * q);
      eb.observe_query(0, query, 100 * q);
      const AdversaryAction aa = ea.intercept_answer(0, field_answer(77), 100 * q);
      const AdversaryAction ab = eb.intercept_answer(0, field_answer(77), 100 * q);
      EXPECT_EQ(aa.kind, ab.kind) << strategy_kind_name(kind) << " q=" << q;
      EXPECT_EQ(aa.replacement, ab.replacement);
      EXPECT_EQ(aa.delay_us, ab.delay_us);
    }
  }
}

TEST(AdversaryEngineTest, DeprioritizeBlamedSendsLiarsToTheBack) {
  std::vector<ServerReport> verdicts(5);
  verdicts[0].blame = Blame::kByzantine;
  verdicts[1].blame = Blame::kNone;
  verdicts[2].blame = Blame::kCrashed;
  verdicts[3].blame = Blame::kStraggler;
  verdicts[4].blame = Blame::kNone;

  const auto order = detail::deprioritize_blamed({0, 1, 2, 3, 4}, verdicts);
  EXPECT_EQ(order, (std::vector<std::size_t>{1, 4, 3, 2, 0}));

  // Stable within a blame class: the incoming healthy-first order survives.
  const auto rotated = detail::deprioritize_blamed({4, 3, 2, 1, 0}, verdicts);
  EXPECT_EQ(rotated, (std::vector<std::size_t>{4, 1, 3, 2, 0}));
}

// ---------------------------------------------------------------------------
// Network interposition and the metering contract.

TEST(AdversaryInterpositionTest, SimNetworkHonorsTheMeteringContract) {
  const std::uint64_t p = Fp64::kMersenne61;

  obs::Tracer::global().set_enabled(true);
  obs::Tracer::global().reset();

  // Forged answer: a real transmission, metered at the replacement's size.
  {
    AdversaryEngine engine(std::make_shared<ConsistentLieStrategy>(p, 5), {0});
    SimStarNetwork net(1, SimConfig{});
    net.set_adversary(&engine);
    net.client_send(0, Bytes{1, 2, 3});
    (void)net.server_receive(0);
    net.server_send(0, field_answer(40));
    EXPECT_EQ(read_field_answer(net.client_receive(0)), 45u);
    EXPECT_EQ(net.stats().server_to_client_bytes, 8u);
    EXPECT_EQ(engine.view(0).queries_seen, 1u);
  }

  // Dropped answer: byzantine silence — nothing transmitted, nothing
  // metered, and the client's receive times out like a crash.
  {
    auto strategy = std::make_shared<SelectiveFailureStrategy>(
        [](BytesView) { return true; }, AdversaryAction::drop());
    AdversaryEngine engine(strategy, {0});
    SimStarNetwork net(1, SimConfig{});
    net.set_adversary(&engine);
    net.client_send(0, Bytes{7});
    (void)net.server_receive(0);
    net.server_send(0, field_answer(40));
    EXPECT_EQ(net.stats().server_to_client_bytes, 0u);
    EXPECT_EQ(net.stats().server_to_client_messages, 0u);
    EXPECT_THROW((void)net.client_receive(0), ServerUnavailable);
    EXPECT_EQ(strategy->matches(), 1u);
  }

  // Delayed answer: metered normally, ready `delay_us` late — a tight
  // deadline misses it (DeadlineMiss, not a crash), a patient one lands it.
  {
    AdversaryEngine engine(std::make_shared<TargetedStraggleStrategy>(0, 5000), {0, 1});
    SimStarNetwork net(2, SimConfig{});
    net.set_adversary(&engine);
    // Server 1's query at t=0 primes the coalition's earliest-query clock;
    // server 0's query at t=100 then reads as a late (hedge) dispatch.
    net.client_send(1, Bytes{6});
    (void)net.server_receive(1);
    net.clock().advance_by(100);
    net.client_send(0, Bytes{7});
    (void)net.server_receive(0);
    net.server_send(0, field_answer(40));
    EXPECT_EQ(net.stats().server_to_client_bytes, 8u);
    net.set_deadline(net.clock().now_us() + 1000);
    EXPECT_THROW((void)net.client_receive(0), DeadlineMiss);
    net.set_deadline(SimStarNetwork::kNoDeadline);
    EXPECT_EQ(read_field_answer(net.client_receive(0)), 40u);
    EXPECT_GE(net.clock().now_us(), 5100u);
  }

  const obs::OpCounts totals = obs::Tracer::global().totals();
  obs::Tracer::global().set_enabled(false);
  EXPECT_EQ(totals[static_cast<std::size_t>(obs::Op::kAdvForgedAnswer)], 1u);
  EXPECT_EQ(totals[static_cast<std::size_t>(obs::Op::kAdvDroppedAnswer)], 1u);
  EXPECT_EQ(totals[static_cast<std::size_t>(obs::Op::kAdvDelayedAnswer)], 1u);
}

// ---------------------------------------------------------------------------
// Soundness tightness: the byzantine-budget quorum guard is exactly what
// stands between a consistent lie and a silent wrong decode.

TEST(AdversarySoundnessTest, AblatedQuorumGuardAdmitsASilentWrongDecode) {
  const Fp64 field(Fp64::kMersenne61);
  const auto db = test_database(64);
  const std::vector<std::size_t> indices = {5, 41};
  const std::uint64_t expected = field.add(db[5], db[41]);

  // k = 9 for the degree-6 sum polynomial: d+1+2e+spares with e = 1 lie and
  // 2 hedge spares. Server 0 lies consistently; servers 5 and 6 are slow
  // enough to miss the hedge window, so the hedged client tops its quorum
  // back up from the two fast spares.
  const std::size_t k = 9;
  const spfe::protocols::MultiServerSumSpfe proto(field, 64, 2, k, 1);
  SimConfig cfg;
  cfg.seed = Prg("ablation-witness").fork_seed("latency");
  cfg.profiles.assign(k, ServerProfile{100, 0, 0, 20});
  cfg.profiles[5] = ServerProfile{50'000, 0, 0, 20};
  cfg.profiles[6] = ServerProfile{50'000, 0, 0, 20};

  const auto run_with_budget = [&](std::size_t byzantine_budget) {
    AdversaryEngine engine(
        std::make_shared<ConsistentLieStrategy>(field.modulus(), 12345), {0});
    SimStarNetwork net(k, cfg);
    net.set_adversary(&engine);
    RobustConfig rc;
    rc.max_attempts = 2;
    rc.timing.attempt_timeout_us = 300'000;
    rc.timing.hedge_timeout_us = 2'000;
    rc.timing.hedge_spares = 2;
    rc.byzantine_budget = byzantine_budget;
    Prg prg("ablation-witness-proto");
    const auto seed = prg.fork_seed("spir");
    const RobustResult res = proto.run_robust(net, db, indices, seed, prg, rc);
    EXPECT_TRUE(net.idle());
    return res;
  };

  // Budget 0 (guard ablated): the early decode fires at the bare d+1 = 7
  // quorum, where Berlekamp-Welch has zero error capacity and interpolation
  // fits ANY seven points — including the liar's. The run "succeeds", the
  // report sees nothing wrong, and the value is silently incorrect: the
  // within-budget adversary extracted a wrong decode from an under-guarded
  // client.
  const RobustResult ablated = run_with_budget(0);
  EXPECT_TRUE(ablated.report.success);
  EXPECT_NE(ablated.value, expected) << "a consistent lie at the bare interpolation quorum "
                                        "must decode to a wrong-but-consistent polynomial";
  EXPECT_EQ(ablated.report.errors_corrected, 0u);
  EXPECT_EQ(ablated.report.verdicts[0].fate, ServerFate::kOk)
      << "the silent wrong decode leaves no evidence against the liar";

  // Budget 1 (guard on): the quorum rises to d+1+2 = 9, hedging is disabled
  // (no server can be spared), the client waits for all nine answers, and
  // Berlekamp-Welch corrects the lie exactly.
  const RobustResult guarded = run_with_budget(1);
  EXPECT_TRUE(guarded.report.success);
  EXPECT_EQ(guarded.value, expected);
  EXPECT_EQ(guarded.report.errors_corrected, 1u);
  EXPECT_EQ(guarded.report.verdicts[0].fate, ServerFate::kCorrected);
  EXPECT_EQ(guarded.report.verdicts[0].blame, Blame::kByzantine);
}

TEST(AdversarySoundnessTest, OverBudgetLiarCoalitionForcesTypedErrorNeverWrong) {
  const Fp64 field(Fp64::kMersenne61);
  const auto db = test_database(64);
  const std::vector<std::size_t> indices = {5, 41};
  const std::uint64_t expected = field.add(db[5], db[41]);

  // Provisioned for e = 1 lie (k = d+1+2 = 9) but facing an (e+1)-liar
  // coalition sharing one delta at servers 0 and 1 (abscissae 1 and 2): the
  // corrupted points lie on a consistent wrong polynomial, yet with s = 9
  // survivors neither P (distance 2) nor P + delta (distance 7) nor any
  // other degree-d polynomial is within the e_cap = 1 budget of them, so
  // every attempt fails closed into the typed error. This holds for these
  // positions only: other pairs decode to another codeword
  // (ConsistentLieTightness.SomeEPlusOneCoalitionsDecodeToAnotherCodeword in
  // tests/reed_solomon_test.cpp). The same provisioning with exactly e
  // liars corrects them (checked below).
  const std::size_t k = 9;
  const spfe::protocols::MultiServerSumSpfe proto(field, 64, 2, k, 1);

  {
    AdversaryEngine engine(
        std::make_shared<ConsistentLieStrategy>(field.modulus(), 987654321), {0, 1});
    SimStarNetwork net(k, SimConfig{});
    net.set_adversary(&engine);
    RobustConfig rc;
    rc.max_attempts = 3;
    Prg prg("two-liars");
    const auto seed = prg.fork_seed("spir");
    try {
      const RobustResult res = proto.run_robust(net, db, indices, seed, prg, rc);
      FAIL() << "an over-budget coalition must never produce a value, got " << res.value;
    } catch (const RobustProtocolError& err) {
      EXPECT_FALSE(err.report().success);
      EXPECT_EQ(err.report().attempts, 3u);
      EXPECT_FALSE(err.report().failure_reason.empty());
    }
    EXPECT_TRUE(net.idle());
    EXPECT_EQ(engine.total_stats().answers_forged, 2u * 3u);
  }

  // Exactly e liars at the same provisioning: corrected, exact, blamed.
  {
    AdversaryEngine engine(
        std::make_shared<ConsistentLieStrategy>(field.modulus(), 987654321), {0});
    SimStarNetwork net(k, SimConfig{});
    net.set_adversary(&engine);
    Prg prg("one-liar");
    const auto seed = prg.fork_seed("spir");
    const RobustResult res = proto.run_robust(net, db, indices, seed, prg);
    EXPECT_EQ(res.value, expected);
    EXPECT_EQ(res.report.errors_corrected, 1u);
    EXPECT_EQ(res.report.verdicts[0].fate, ServerFate::kCorrected);
    EXPECT_EQ(res.report.verdicts[0].blame, Blame::kByzantine);
    EXPECT_TRUE(net.idle());
  }
}

// The §4 package on k servers is one robust sum over the packed view
// y_i = x_i + x_i^2 * 2^L; a lie lands on that one field element.

// One seeded robust run of a 64-entry session against a coalition of
// `liars` servers playing a lying strategy, on weathered links, with k
// provisioned for byzantine budget e. `packed` runs the mean/variance
// package, otherwise a plain sum of the same x. `offset` is the decoded
// value minus the true one, mod p: 0 for an exact result.
struct PackedRunOutcome {
  bool ok = false;
  std::uint64_t offset = 0;
  std::size_t attempts = 0;
};

PackedRunOutcome run_liars_against_session(const std::string& label, std::size_t e,
                                           std::size_t liars, bool packed) {
  const Fp64 field(Fp64::kMersenne61);
  const std::uint64_t p = field.modulus();
  const std::size_t k = provisioned_servers(6, e, 0);
  Prg meta(label);
  const StrategyKind kind = meta.uniform(2) == 0 ? StrategyKind::kConsistentLie
                                                 : StrategyKind::kEquivocateAcrossRetries;
  std::vector<std::size_t> ids(k);
  for (std::size_t i = 0; i < k; ++i) ids[i] = i;
  for (std::size_t i = k; i > 1; --i) std::swap(ids[i - 1], ids[meta.uniform(i)]);
  Prg strat_prg = meta.fork("strategy");
  AdversaryEngine engine(
      make_strategy(kind, p, strat_prg),
      std::vector<std::size_t>(ids.begin(), ids.begin() + static_cast<std::ptrdiff_t>(liars)));

  SimConfig cfg;
  cfg.seed = meta.fork_seed("latency");
  cfg.profiles.resize(k);
  for (auto& profile : cfg.profiles) {
    profile.base_us = 50 + meta.uniform(200);
    profile.jitter_us = meta.uniform(150);
  }
  SimStarNetwork net(k, cfg);
  net.set_adversary(&engine);

  spfe::protocols::RobustStatsConfig sc;
  sc.byzantine_budget = e;
  spfe::protocols::RobustStatsSession session(field, 64, 2, k, 1, meta.fork_seed("session"), sc);
  const std::size_t value_bits = session.value_bits();
  const std::size_t lane = std::bit_width(2 * ((std::uint64_t{1} << value_bits) - 1));
  std::vector<std::uint64_t> db(64);
  for (auto& x : db) x = meta.uniform(std::uint64_t{1} << value_bits);
  const std::vector<std::size_t> indices = {meta.uniform(64), meta.uniform(64)};
  const std::uint64_t a = db[indices[0]], b = db[indices[1]];
  const auto spir = meta.fork_seed("spir");

  PackedRunOutcome out;
  try {
    std::uint64_t got = 0, want = 0;
    if (packed) {
      RobustnessReport report;
      const auto res = session.mean_variance(net, db, indices, spir, &report);
      got = res.sum + (res.sum_of_squares << lane);
      want = a + b + ((a * a + b * b) << lane);
      out.attempts = report.attempts;
    } else {
      const RobustResult res = session.sum(net, db, indices, spir);
      got = res.value;
      want = a + b;
      out.attempts = res.report.attempts;
    }
    out.ok = true;
    out.offset = field.sub(got, want);
  } catch (const RobustProtocolError& err) {
    EXPECT_FALSE(err.report().success) << label;
    EXPECT_FALSE(err.report().failure_reason.empty()) << label;
    out.attempts = err.report().attempts;
  }
  EXPECT_TRUE(net.idle()) << label;
  return out;
}

TEST(AdversarySoundnessTest, WithinBudgetLiarsOnThePackedPackageNeverYieldAWrongValue) {
  constexpr std::size_t kRuns = 200;
  std::size_t successes = 0;
  for (std::size_t run = 0; run < kRuns; ++run) {
    const std::string label = "packed-within-budget-" + std::to_string(run);
    const std::size_t e = 1 + run % 2;
    const PackedRunOutcome out = run_liars_against_session(label, e, 1 + (run / 2) % e, true);
    if (out.ok) {
      ASSERT_EQ(out.offset, 0u) << label;
      ++successes;
    }
  }
  EXPECT_GT(successes, (3 * kRuns) / 4);
}

TEST(AdversarySoundnessTest, EPlusOneLiarsHitThePackedPackageAsTheyHitAPlainSum) {
  // Over budget the k = d + 1 + 2e code promises nothing: its minimum
  // distance is 2e + 1, so e + 1 lies can sit within distance e of another
  // codeword. With constant-delta liars on servers {4, 5} of 9 (d = 6,
  // e = 1), P + delta * prod_{h in {2,3,4,7,8,9}} (x - h) / (-144) agrees
  // with 8 of the 9 answers, and Berlekamp–Welch returns it. Decoding is
  // translation-invariant, so whether a run fails closed or decodes wrong,
  // and by how much, depends on the liar positions and deltas only: the
  // packed package must behave exactly as a plain sum of the same run.
  constexpr std::size_t kRuns = 60;
  std::size_t typed_errors = 0, wrong = 0;
  for (std::size_t run = 0; run < kRuns; ++run) {
    const std::string label = "packed-over-budget-" + std::to_string(run);
    const PackedRunOutcome packed = run_liars_against_session(label, 1, 2, true);
    const PackedRunOutcome plain = run_liars_against_session(label, 1, 2, false);
    EXPECT_EQ(packed.ok, plain.ok) << label;
    EXPECT_EQ(packed.offset, plain.offset) << label;
    EXPECT_EQ(packed.attempts, plain.attempts) << label;
    if (!packed.ok) ++typed_errors;
    if (packed.ok && packed.offset != 0) ++wrong;
  }
  EXPECT_GT(typed_errors, 0u);
  EXPECT_GT(wrong, 0u);  // the coding bound is real, not hypothetical
}

// ---------------------------------------------------------------------------
// Soundness sweep: any within-budget strategy, thousands of schedules.

struct AdversaryOutcome {
  bool ok = false;
  std::uint64_t value = 0;
  std::string summary;
  StrategyKind kind = StrategyKind::kConsistentLie;
};

// One timed robust run against a seeded adversary: the label draws the
// strategy kind and parameters, the coalition, the weather, and the timing
// policy — always provisioning k so the coalition stays within budget
// (lying strategies consume the byzantine budget e, silent/slow ones the
// crash budget c).
AdversaryOutcome run_adversary_schedule(const std::string& label) {
  const Fp64 field(Fp64::kMersenne61);
  const auto db = test_database(64);
  const std::vector<std::size_t> indices = {5, 41};

  Prg meta(label);
  const auto kind = static_cast<StrategyKind>(meta.uniform(kNumStrategyKinds));
  const std::size_t coalition_size = 1 + meta.uniform(2);
  const bool lies = strategy_lies(kind);
  const std::size_t e = lies ? coalition_size : 0;
  const std::size_t c = lies ? 0 : coalition_size;
  const std::size_t spares = meta.uniform(3);
  const std::size_t k = provisioned_servers(6, e, c, spares);

  // Coalition membership: a uniform subset, not always the low indices.
  std::vector<std::size_t> ids(k);
  for (std::size_t i = 0; i < k; ++i) ids[i] = i;
  for (std::size_t i = k; i > 1; --i) std::swap(ids[i - 1], ids[meta.uniform(i)]);
  const std::vector<std::size_t> controlled(
      ids.begin(), ids.begin() + static_cast<std::ptrdiff_t>(coalition_size));

  SimConfig cfg;
  cfg.seed = meta.fork_seed("latency");
  cfg.profiles.resize(k);
  for (auto& p : cfg.profiles) {
    p.base_us = 50 + meta.uniform(200);
    p.jitter_us = meta.uniform(150);
    p.straggle_permille = meta.uniform(100);
    p.straggle_factor = 5 + meta.uniform(20);
  }

  Prg strat_prg = meta.fork("strategy");
  AdversaryEngine engine(make_strategy(kind, field.modulus(), strat_prg), controlled);

  RobustConfig rc;
  rc.max_attempts = 4;
  rc.timing.attempt_timeout_us = 30'000;
  rc.byzantine_budget = e;
  rc.timing.hedge_spares = spares;
  rc.timing.hedge_timeout_us = spares == 0 ? 0 : 300 + meta.uniform(700);
  rc.timing.backoff_seed = meta.fork_seed("backoff");

  const spfe::protocols::MultiServerSumSpfe proto(field, 64, 2, k, 1);
  SimStarNetwork net(k, cfg);
  net.set_adversary(&engine);
  Prg proto_prg = meta.fork("proto");
  const auto seed = proto_prg.fork_seed("spir");

  AdversaryOutcome out;
  out.kind = kind;
  const auto check_byzantine_blame = [&](const RobustnessReport& report) {
    // Blame soundness: with no wire faults in play, only coalition members
    // can ever be caught byzantine — on every attempt, not just the last.
    for (const AttemptRecord& rec : report.history) {
      for (std::size_t s = 0; s < rec.verdicts.size(); ++s) {
        if (rec.verdicts[s].blame == Blame::kByzantine) {
          EXPECT_TRUE(engine.controls(s))
              << label << ": honest server " << s << " blamed byzantine\n"
              << report.summary();
        }
      }
    }
  };
  try {
    const RobustResult res = proto.run_robust(net, db, indices, seed, proto_prg, rc);
    out.ok = true;
    out.value = res.value;
    out.summary = res.report.summary();
    check_byzantine_blame(res.report);
  } catch (const RobustProtocolError& err) {
    out.summary = err.report().summary();
    EXPECT_FALSE(err.report().success) << label;
    EXPECT_FALSE(err.report().failure_reason.empty()) << label;
    check_byzantine_blame(err.report());
  }
  EXPECT_TRUE(net.idle()) << label;
  return out;
}

TEST(AdversarySoundnessTest, ThousandsOfAdversarialSchedulesNeverYieldAWrongValue) {
  const Fp64 field(Fp64::kMersenne61);
  const auto db = test_database(64);
  const std::uint64_t expected = field.add(db[5], db[41]);
  constexpr std::size_t kSchedules = 2000;
  std::size_t successes = 0;
  std::vector<std::size_t> per_kind(kNumStrategyKinds, 0);
  for (std::size_t i = 0; i < kSchedules; ++i) {
    const std::string label = "adversary-" + std::to_string(i);
    const AdversaryOutcome out = run_adversary_schedule(label);
    per_kind[static_cast<std::size_t>(out.kind)]++;
    if (out.ok) {
      ASSERT_EQ(out.value, expected) << label << "\n" << out.summary;
      ++successes;
    }
  }
  // Every strategy kind must actually have been exercised.
  for (std::size_t i = 0; i < kNumStrategyKinds; ++i) {
    EXPECT_GT(per_kind[i], kSchedules / 20)
        << strategy_kind_name(static_cast<StrategyKind>(i)) << " undersampled";
  }
  // The adversary stays within the provisioned budget, so the overwhelming
  // majority of schedules must decode despite it (the rest fail closed).
  EXPECT_GT(successes, (3 * kSchedules) / 4)
      << "only " << successes << " of " << kSchedules << " schedules decoded";
}

// ---------------------------------------------------------------------------
// Selective-failure privacy harness.

struct KillTally {
  std::uint64_t matches = 0;  // attempts the adversary chose to kill
  std::uint64_t misses = 0;   // attempts it let through

  double kill_rate() const {
    const double total = static_cast<double>(matches + misses);
    return total == 0.0 ? 0.0 : static_cast<double>(matches) / total;
  }
};

// Runs `trials` robust PIR retrievals of `index` against a selective-failure
// adversary on server 0 that drops the answer whenever the observed query's
// first byte has its low bit set. Every kill forces a re-randomized retry
// (k = d+1 exactly, so one erasure is fatal to the attempt), handing the
// adversary a fresh observation — the classic amplification loop. Returns
// the adversary's complete decision tally.
KillTally selective_failure_tally(std::size_t index, std::size_t trials) {
  const Fp64 field(Fp64::kMersenne61);
  const spfe::pir::PolyItPir pir(field, 64, 7, 1);
  const auto db = test_database(64);
  KillTally tally;
  for (std::size_t t = 0; t < trials; ++t) {
    auto strategy = std::make_shared<SelectiveFailureStrategy>(
        SelectiveFailureStrategy::byte_mask(0, 0x01), AdversaryAction::drop());
    AdversaryEngine engine(strategy, {0});
    SimStarNetwork net(7, SimConfig{});
    net.set_adversary(&engine);
    RobustConfig rc;
    rc.max_attempts = 10;
    // Same per-trial seed for every index arm: any kill-rate difference is
    // attributable to the secret alone, not the randomness stream.
    Prg prg("sf-harness-" + std::to_string(t));
    try {
      const RobustResult res = pir.run_robust(net, db, index, std::nullopt, prg, rc);
      EXPECT_EQ(res.value, db[index]);
    } catch (const RobustProtocolError&) {
      // All attempts killed: fail-closed, acceptable (and rare).
    }
    tally.matches += strategy->matches();
    tally.misses += strategy->misses();
  }
  return tally;
}

TEST(SelectiveFailurePrivacyTest, KillDecisionsAreIndependentOfTheSecretIndex) {
  constexpr std::size_t kTrials = 300;
  // Indices chosen adversarially far apart in encoding: all-zero bits vs
  // all-ones bits of the 6-bit index space, plus the two chaos defaults.
  const KillTally t0 = selective_failure_tally(0, kTrials);
  const KillTally t63 = selective_failure_tally(63, kTrials);
  const KillTally t5 = selective_failure_tally(5, kTrials);
  const KillTally t41 = selective_failure_tally(41, kTrials);

  // The adversary did get to express its predicate in both directions.
  for (const KillTally* t : {&t0, &t63, &t5, &t41}) {
    EXPECT_GT(t->matches, 0u);
    EXPECT_GT(t->misses, 0u);
  }

  // Because every attempt's query curve is freshly randomized, the query
  // byte the predicate reads is uniform whatever the secret index is: all
  // kill rates sit near 1/2 and none is distinguishable from another.
  // (Deterministic seeds: these are exact replays, not flaky statistics.)
  const std::vector<double> rates = {t0.kill_rate(), t63.kill_rate(), t5.kill_rate(),
                                     t41.kill_rate()};
  for (double r : rates) {
    EXPECT_GT(r, 0.38) << "kill rate drifted from uniform";
    EXPECT_LT(r, 0.62) << "kill rate drifted from uniform";
  }
  for (double a : rates) {
    for (double b : rates) {
      EXPECT_LT(std::abs(a - b), 0.10)
          << "kill rates depend on the secret index: " << a << " vs " << b;
    }
  }
}

// Deliberately leaky strawman: the "query" carries the secret's low bit
// verbatim and retries never re-randomize. The same harness metric that
// clears the real protocol must flag this one loudly.
double leaky_protocol_kill_rate(std::uint64_t secret_bit, std::size_t trials) {
  const Fp64 field(Fp64::kMersenne61);
  KillTally tally;
  for (std::size_t t = 0; t < trials; ++t) {
    auto strategy = std::make_shared<SelectiveFailureStrategy>(
        SelectiveFailureStrategy::byte_mask(0, 0x01), AdversaryAction::drop());
    AdversaryEngine engine(strategy, {0});
    SimStarNetwork net(2, SimConfig{});
    net.set_adversary(&engine);
    RobustConfig rc;
    const auto make_queries = [&](std::size_t, std::vector<std::uint64_t>& abscissae) {
      abscissae = {1, 2};
      const Bytes leak{static_cast<std::uint8_t>(secret_bit)};
      return std::vector<Bytes>{leak, leak};
    };
    const auto server_eval = [&](std::size_t, std::size_t, Bytes) {
      return field_answer(42);
    };
    const auto parse = [&](const Bytes& a) { return read_field_answer(a); };
    const auto [value, report] =
        run_robust_star(field, net, /*degree=*/0, rc, make_queries, server_eval, parse);
    EXPECT_EQ(value, 42u);
    EXPECT_TRUE(report.success);
    tally.matches += strategy->matches();
    tally.misses += strategy->misses();
  }
  return tally.kill_rate();
}

TEST(SelectiveFailurePrivacyTest, LeakyProtocolIsFlaggedByTheSameHarness) {
  const double rate0 = leaky_protocol_kill_rate(0, 16);
  const double rate1 = leaky_protocol_kill_rate(1, 16);
  // The un-rerandomized query hands the adversary the secret bit: the kill
  // pattern separates the two secrets completely — far beyond the 0.10
  // independence threshold the real protocol satisfies above.
  EXPECT_DOUBLE_EQ(rate0, 0.0);
  EXPECT_DOUBLE_EQ(rate1, 1.0);
  EXPECT_GT(std::abs(rate1 - rate0), 0.10);
}

TEST(SelectiveFailurePrivacyTest, HarnessTalliesAreThreadCountInvariant) {
  constexpr std::size_t kTrials = 40;
  ThreadPool::set_global_threads(1);
  const KillTally base = selective_failure_tally(41, kTrials);
  for (const std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
    ThreadPool::set_global_threads(threads);
    const KillTally other = selective_failure_tally(41, kTrials);
    EXPECT_EQ(base.matches, other.matches) << "threads=" << threads;
    EXPECT_EQ(base.misses, other.misses) << "threads=" << threads;
  }
  ThreadPool::set_global_threads(0);  // back to the SPFE_THREADS default
}

// ---------------------------------------------------------------------------
// Session-level blame plumbing: RsDecoding::agrees -> Blame -> blame_tally.

TEST(AdversarySessionTest, SessionBlameTallyPinsTheLiar) {
  const Fp64 field(Fp64::kMersenne61);
  std::vector<std::uint64_t> db(64);
  for (std::size_t i = 0; i < db.size(); ++i) db[i] = i + 1;
  const std::size_t k = provisioned_servers(6, 1, 0);  // 9: room for one lie

  AdversaryEngine engine(std::make_shared<ConsistentLieStrategy>(field.modulus(), 77), {3});
  SimStarNetwork net(k, SimConfig{});
  net.set_adversary(&engine);

  spfe::protocols::RobustStatsSession session(field, 64, 2, k, 1,
                                              Prg("blame-session").fork_seed("session"));
  Prg seeder("blame-session-spir");
  for (std::size_t q = 0; q < 3; ++q) {
    const std::vector<std::size_t> indices = {(q * 3) % 64, (q * 5 + 7) % 64};
    const auto res =
        session.sum(net, db, indices, seeder.fork_seed("q" + std::to_string(q)));
    EXPECT_EQ(res.value, db[indices[0]] + db[indices[1]]) << "query " << q;
    EXPECT_EQ(res.report.verdicts[3].fate, ServerFate::kCorrected) << "query " << q;
  }

  // Every query caught server 3 lying; nobody else drew byzantine blame.
  const auto& tally = session.blame_tally();
  ASSERT_EQ(tally.size(), k);
  EXPECT_EQ(tally[3].byzantine, 3u);
  EXPECT_EQ(tally[3].total(), 3u);
  for (std::size_t s = 0; s < k; ++s) {
    if (s != 3) {
      EXPECT_EQ(tally[s].total(), 0u) << "server " << s;
    }
  }
  // And the health tracker turned the blame into demotion pressure.
  EXPECT_EQ(session.health().ranked_order().back(), 3u);
  EXPECT_GE(session.health().demerits(3), ServerHealthTracker::kCorrectedDemerit);
  EXPECT_TRUE(net.idle());
}

TEST(AdversarySessionTest, PackedMeanVarianceCorrectsTheLiarOncePerPackage) {
  // One robust run per package: the liar's delta lands on the one packed
  // value, is corrected there, and costs the liar one tally entry per
  // package.
  const Fp64 field(Fp64::kMersenne61);
  std::vector<std::uint64_t> db(64);
  for (std::size_t i = 0; i < db.size(); ++i) db[i] = 4099 * i + 17;
  const std::size_t k = provisioned_servers(6, 1, 0);  // 9: room for one lie

  AdversaryEngine engine(std::make_shared<ConsistentLieStrategy>(field.modulus(), 77), {3});
  SimStarNetwork net(k, SimConfig{});
  net.set_adversary(&engine);

  spfe::protocols::RobustStatsConfig sc;
  sc.byzantine_budget = 1;
  spfe::protocols::RobustStatsSession session(field, 64, 2, k, 1,
                                              Prg("packed-liar").fork_seed("session"), sc);
  Prg seeder("packed-liar-spir");
  for (std::size_t q = 0; q < 3; ++q) {
    const std::vector<std::size_t> indices = {(q * 3) % 64, (q * 5 + 7) % 64};
    const std::uint64_t a = db[indices[0]], b = db[indices[1]];
    RobustnessReport report;
    const auto res = session.mean_variance(net, db, indices,
                                           seeder.fork_seed("q" + std::to_string(q)), &report);
    EXPECT_EQ(res.sum, a + b) << "query " << q;
    EXPECT_EQ(res.sum_of_squares, a * a + b * b) << "query " << q;
    EXPECT_EQ(report.attempts, 1u) << "query " << q;
    EXPECT_EQ(report.errors_corrected, 1u) << "query " << q;
    EXPECT_EQ(report.verdicts[3].fate, ServerFate::kCorrected) << "query " << q;
    EXPECT_EQ(session.blame_tally()[3].byzantine, q + 1) << "query " << q;
  }
  EXPECT_EQ(session.queries_issued(), 3u);
  EXPECT_EQ(engine.total_stats().answers_forged, 3u);
  for (std::size_t s = 0; s < k; ++s) {
    if (s != 3) {
      EXPECT_EQ(session.blame_tally()[s].total(), 0u) << "server " << s;
    }
  }
  EXPECT_TRUE(net.idle());
}

}  // namespace

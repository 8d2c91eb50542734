#include "querybench.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <stdexcept>
#include <utility>

#include "circuits/boolean_circuit.h"
#include "common/minijson.h"
#include "common/parallel.h"
#include "crypto/prg.h"
#include "dbgen/census.h"
#include "field/fp64.h"
#include "he/paillier.h"
#include "he/precomp.h"
#include "net/adversary.h"
#include "net/network.h"
#include "net/robust.h"
#include "net/sim.h"
#include "obs/obs.h"
#include "ot/group.h"
#include "pir/batch_pir.h"
#include "pir/cpir.h"
#include "spfe/multiserver.h"
#include "spfe/stats.h"
#include "spfe/two_phase.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

using namespace spfe;
using SteadyClock = std::chrono::steady_clock;

constexpr std::uint32_t kMaxSalary = 200'000;
constexpr double kInf = std::numeric_limits<double>::infinity();

double seconds_since(SteadyClock::time_point t0) {
  return std::chrono::duration<double>(SteadyClock::now() - t0).count();
}

// Process user + system time, all threads (the SPFE_THREADS pool included).
double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

double median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const std::size_t mid = xs.size() / 2;
  return xs.size() % 2 == 1 ? xs[mid] : (xs[mid - 1] + xs[mid]) / 2.0;
}

struct Tail {
  double value = 0.0;
  double percentile = 100.0;
  std::size_t beyond = 0;
};

// The highest percentile with at least ten samples beyond it, but never
// below the median.
Tail tail_of(std::vector<double> xs) {
  Tail t;
  if (xs.empty()) return t;
  std::sort(xs.begin(), xs.end());
  // Below 21 samples that rank falls under the median; stop at the upper
  // middle sample, which is never below the median.
  const std::size_t idx = std::max(xs.size() > 10 ? xs.size() - 11 : 0, xs.size() / 2);
  t.value = xs[idx];
  t.percentile = 100.0 * static_cast<double>(idx + 1) / static_cast<double>(xs.size());
  t.beyond = xs.size() - 1 - idx;
  return t;
}

// ---------------------------------------------------------------------------
// Minimal JSON object writer (numbers keep all their digits).

class JsonObject {
 public:
  JsonObject& num(const std::string& key, double v) {
    // JSON has no infinity; a failed query's +inf latency prints as the
    // largest double so the line stays parseable.
    if (!std::isfinite(v)) v = std::numeric_limits<double>::max();
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return raw(key, buf);
  }
  JsonObject& num(const std::string& key, std::uint64_t v) { return raw(key, std::to_string(v)); }
  JsonObject& str(const std::string& key, const std::string& v) {
    return raw(key, "\"" + tools::json::escape(v) + "\"");
  }
  JsonObject& boolean(const std::string& key, bool v) { return raw(key, v ? "true" : "false"); }
  JsonObject& raw(const std::string& key, const std::string& json) {
    body_ += body_.empty() ? "" : ",";
    body_ += "\"" + key + "\":" + json;
    return *this;
  }
  std::string text() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

// ---------------------------------------------------------------------------
// Role split: the traced run's network forwards every send and receive to the
// real network unchanged and times the server role. A server window opens
// when server_receive returns and closes when that server's next
// server_send returns.

class RoleMeter {
 public:
  virtual ~RoleMeter() = default;
  virtual double server_seconds() const = 0;
};

template <class Base>
class RoleSplitNetwork final : public Base, public RoleMeter {
 public:
  template <class... Args>
  explicit RoleSplitNetwork(Args&&... args)
      : Base(std::forward<Args>(args)...), open_(this->num_servers()) {}

  double server_seconds() const override { return server_s_; }

  Bytes server_receive(std::size_t s) override {
    Bytes message = Base::server_receive(s);
    if (!open_[s].has_value()) open_[s] = SteadyClock::now();
    return message;
  }

  void server_send(std::size_t s, Bytes message) override {
    Base::server_send(s, std::move(message));
    if (open_[s].has_value()) {
      server_s_ += seconds_since(*open_[s]);
      open_[s].reset();
    }
  }

 private:
  std::vector<std::optional<SteadyClock::time_point>> open_;
  double server_s_ = 0.0;
};

template <class Net, class... Args>
std::unique_ptr<Net> make_network(bool role_split, Args&&... args) {
  if (role_split) return std::make_unique<RoleSplitNetwork<Net>>(std::forward<Args>(args)...);
  return std::make_unique<Net>(std::forward<Args>(args)...);
}

// ---------------------------------------------------------------------------
// Workloads.

struct SetupTimes {
  double keygen_s = 0.0;
  double dbgen_s = 0.0;
  double pool_fill_s = 0.0;
  double session_s = 0.0;
};

// Times one set-up step under its own root span, so that no counted op of
// the traced run falls outside every span.
void setup_step(const char* span_name, double& seconds, const std::function<void()>& step) {
  obs::Span span(span_name);
  const auto t0 = SteadyClock::now();
  step();
  seconds += seconds_since(t0);
}

struct Sizes {
  std::size_t n = 0;
  std::size_t m = 0;
  std::size_t key_bits = 0;  // 0: no public-key crypto
  std::size_t pir_depth = 0;
  // Exact figures (outputs, bytes, rounds, virtual time) are taken over this
  // fixed prefix of queries, which every run completes whatever its speed.
  std::size_t exact_queries = 0;
  // Robust k-server parameters.
  std::size_t t = 0, e = 0, c = 0, spares = 0;
};

struct QueryOutcome {
  bool ok = false;
  std::string output;  // canonical text of the protocol's answer
  std::uint64_t virtual_us = 0;
  std::uint64_t robust_attempts = 0;
  std::uint64_t robust_erasures = 0;
  std::uint64_t robust_corrected = 0;
};

class Workload {
 public:
  virtual ~Workload() = default;
  // Everything before the first query: keygen, database generation, pool
  // fill and session construction.
  virtual void setup(const crypto::Prg& prg, SetupTimes& times) = 0;
  // Generates query q's inputs and its plaintext answer (untimed).
  virtual void prepare(std::size_t q) = 0;
  // Runs the prepared query and checks it against the plaintext answer.
  virtual QueryOutcome query() = 0;
  // Client work while idle between queries (offline pool top-up).
  virtual void between_queries() {}
  virtual net::StarNetwork& network() = 0;
  // Number of servers the client talks to.
  virtual std::size_t servers() const { return 1; }
};

std::vector<std::size_t> distinct_indices(crypto::Prg& prg, std::size_t n, std::size_t m) {
  std::set<std::size_t> seen;
  std::vector<std::size_t> out;
  while (out.size() < m) {
    const std::size_t i = prg.uniform(n);
    if (seen.insert(i).second) out.push_back(i);
  }
  return out;
}

// Records of one age bracket above a zip-code floor: a public-attribute
// predicate that differs from query to query.
std::vector<std::size_t> census_sample(const dbgen::CensusDatabase& census, crypto::Prg& prg,
                                       std::size_t m) {
  const std::uint64_t bracket = prg.uniform(8);
  const std::uint64_t zip_floor = prg.uniform(50);
  return census.select_sample(
      [&](const dbgen::CensusRecord& r) {
        return r.age_bracket == bracket && r.zip_code >= zip_floor;
      },
      m);
}

struct MeanVarianceExpect {
  std::uint64_t sum = 0;
  std::uint64_t sum_of_squares = 0;
};

MeanVarianceExpect plaintext_mean_variance(const std::vector<std::uint64_t>& xs,
                                           const std::vector<std::size_t>& indices) {
  MeanVarianceExpect out;
  for (const std::size_t i : indices) {
    out.sum += xs[i];
    out.sum_of_squares += xs[i] * xs[i];
  }
  return out;
}

QueryOutcome check_mean_variance(const protocols::MeanVarianceResult& got,
                                 const MeanVarianceExpect& want, std::size_t m) {
  const double md = static_cast<double>(m);
  const double mean = static_cast<double>(want.sum) / md;
  const double variance = static_cast<double>(want.sum_of_squares) / md - mean * mean;
  QueryOutcome out;
  out.ok = got.sum == want.sum && got.sum_of_squares == want.sum_of_squares &&
           got.mean == mean && got.variance == variance;
  out.output = std::to_string(got.sum) + "," + std::to_string(got.sum_of_squares);
  return out;
}

// §4 mean+variance package, single server, pooled client encryptions.
class StatsOneServer final : public Workload {
 public:
  StatsOneServer(const Sizes& sizes, bool role_split) : z_(sizes), role_split_(role_split) {}

  void setup(const crypto::Prg& prg, SetupTimes& times) override {
    setup_step("bench.setup.keygen", times.keygen_s, [&] {
      crypto::Prg key_prg = prg.fork("client-key");
      sk_.emplace(he::paillier_keygen(key_prg, z_.key_bits));
    });
    setup_step("bench.setup.dbgen", times.dbgen_s, [&] {
      crypto::Prg data_prg = prg.fork("census");
      census_ = dbgen::generate_census({z_.n, 100, kMaxSalary}, data_prg);
      salaries_ = census_.private_column();
    });
    setup_step("bench.setup.session", times.session_s, [&] {
      const std::uint64_t max = kMaxSalary + 1ull;
      proto_.emplace(field::Fp64(field::smallest_prime_above(z_.m * max * max)), z_.n, z_.m,
                     z_.pir_depth);
      net_ = make_network<net::StarNetwork>(role_split_, 1);
      client_prg_.emplace(prg.fork("client"));
      server_prg_.emplace(prg.fork("server"));
      inputs_.emplace(prg.fork("inputs"));
    });
    setup_step("bench.setup.pool_fill", times.pool_fill_s, [&] {
      pool_ = std::make_unique<he::PaillierRandomnessPool>(
          sk_->public_key(), prg.fork("pool"), he::PoolConfig{factors_per_query()});
      pool_->refill();
    });
  }

  void prepare(std::size_t q) override {
    crypto::Prg qprg = inputs_->fork("query-" + std::to_string(q));
    indices_ = census_sample(census_, qprg, z_.m);
    want_ = plaintext_mean_variance(salaries_, indices_);
  }

  QueryOutcome query() override {
    he::ClientPrecomp precomp;
    precomp.paillier = pool_.get();
    const protocols::MeanVarianceResult got =
        proto_->run(*net_, 0, salaries_, indices_, *sk_, *client_prg_, *server_prg_, precomp);
    return check_mean_variance(got, want_, z_.m);
  }

  void between_queries() override { pool_->refill(); }

  net::StarNetwork& network() override { return *net_; }

 private:
  // One factor per selector ciphertext of the per-bucket PIR queries, plus
  // one per E(c_k). If the protocol's draw count drifts from this, the
  // traced run shows it as he.pool_hit_ratio < 1.
  std::size_t factors_per_query() const {
    const pir::CuckooBatchPir batch(sk_->public_key(), z_.n, z_.m, z_.pir_depth);
    pir::CuckooParams params;
    params.n = z_.n;
    params.num_buckets = batch.num_buckets();
    const pir::PaillierPir bucket(sk_->public_key(), params.bucket_capacity(), z_.pir_depth);
    std::size_t per_bucket = 0;
    for (const std::size_t d : bucket.dims()) per_bucket += d;
    return params.num_buckets * per_bucket + z_.m;
  }

  Sizes z_;
  bool role_split_;
  std::optional<he::PaillierPrivateKey> sk_;
  dbgen::CensusDatabase census_;
  std::vector<std::uint64_t> salaries_;
  std::optional<protocols::MeanVariancePackage> proto_;
  std::unique_ptr<net::StarNetwork> net_;
  std::optional<crypto::Prg> client_prg_, server_prg_, inputs_;
  std::unique_ptr<he::PaillierRandomnessPool> pool_;
  std::vector<std::size_t> indices_;
  MeanVarianceExpect want_;
};

// §4 mean/variance over the robust k-server sum: virtual-time links, hedge
// spares, and one server that lies consistently.
class StatsKServerRobust final : public Workload {
 public:
  StatsKServerRobust(const Sizes& sizes, bool role_split) : z_(sizes), role_split_(role_split) {}

  void setup(const crypto::Prg& prg, SetupTimes& times) override {
    setup_step("bench.setup.dbgen", times.dbgen_s, [&] {
      crypto::Prg data_prg = prg.fork("census");
      census_ = dbgen::generate_census({z_.n, 100, kMaxSalary}, data_prg);
      salaries_ = census_.private_column();
    });
    // The deployment (link latencies, the liar, the session's own
    // randomness) is the same for every seed; the seed picks the data and
    // the queries. Hedges, retries, rounds and virtual time follow the
    // deployment, so they do not vary from seed to seed.
    const crypto::Prg deployment("perfbench-kserver-deployment");
    setup_step("bench.setup.session", times.session_s, [&] {
      const field::Fp64 field(field::Fp64::kMersenne61);
      const std::size_t degree = protocols::MultiServerSumSpfe::min_servers(z_.n, z_.t) - 1;
      k_ = net::provisioned_servers(degree, z_.e, z_.c, z_.spares);
      protocols::RobustStatsConfig cfg;
      cfg.byzantine_budget = z_.e;
      cfg.hedge_spares = z_.spares;
      session_ = std::make_unique<protocols::RobustStatsSession>(
          field, z_.n, z_.m, k_, z_.t, deployment.fork_seed("session"), cfg);

      net::SimConfig links;
      links.seed = deployment.fork_seed("links");
      links.profiles.assign(k_, net::ServerProfile{200, 100, 10, 3});
      sim_ = make_network<net::SimStarNetwork>(role_split_, k_, links);
      crypto::Prg adv_prg = deployment.fork("adversary");
      const std::size_t liar = adv_prg.uniform(k_);
      const std::uint64_t delta = 1 + adv_prg.uniform(field.modulus() - 1);
      engine_ = std::make_unique<net::AdversaryEngine>(
          std::make_shared<net::ConsistentLieStrategy>(field.modulus(), delta),
          std::vector<std::size_t>{liar});
      sim_->set_adversary(engine_.get());
      inputs_.emplace(prg.fork("inputs"));
    });
  }

  void prepare(std::size_t q) override {
    crypto::Prg qprg = inputs_->fork("query-" + std::to_string(q));
    indices_ = census_sample(census_, qprg, z_.m);
    spir_seed_ = qprg.fork_seed("spir");
    want_ = plaintext_mean_variance(salaries_, indices_);
  }

  QueryOutcome query() override {
    const std::uint64_t start_us = sim_->clock().now_us();
    net::RobustnessReport sum_report, squares_report;
    const protocols::MeanVarianceResult got = session_->mean_variance(
        *sim_, salaries_, indices_, spir_seed_, &sum_report, &squares_report);
    QueryOutcome out = check_mean_variance(got, want_, z_.m);
    out.virtual_us = sim_->clock().now_us() - start_us;
    for (const net::RobustnessReport* r : {&sum_report, &squares_report}) {
      out.robust_attempts += r->attempts;
      out.robust_erasures += r->erasures;
      out.robust_corrected += r->errors_corrected;
    }
    return out;
  }

  net::StarNetwork& network() override { return *sim_; }
  std::size_t servers() const override { return k_; }

 private:
  Sizes z_;
  bool role_split_;
  std::size_t k_ = 0;
  dbgen::CensusDatabase census_;
  std::vector<std::uint64_t> salaries_;
  std::unique_ptr<protocols::RobustStatsSession> session_;
  std::unique_ptr<net::AdversaryEngine> engine_;  // outlives sim_, which points at it
  std::unique_ptr<net::SimStarNetwork> sim_;
  std::optional<crypto::Prg> inputs_;
  std::vector<std::size_t> indices_;
  std::optional<crypto::Prg::Seed> spir_seed_;
  MeanVarianceExpect want_;
};

// Table 1 §3.3.2 v1: poly-mask (client key) input selection + Yao over the
// equality count |{j : x_{i_j} == keyword}| of m 8-bit items.
class Table1Boolean final : public Workload {
 public:
  static constexpr std::size_t kItemBits = 8;

  Table1Boolean(const Sizes& sizes, bool role_split) : z_(sizes), role_split_(role_split) {}

  void setup(const crypto::Prg& prg, SetupTimes& times) override {
    setup_step("bench.setup.keygen", times.keygen_s, [&] {
      crypto::Prg client_key = prg.fork("client-key");
      crypto::Prg server_key = prg.fork("server-key");
      client_sk_.emplace(he::paillier_keygen(client_key, z_.key_bits));
      server_sk_.emplace(he::paillier_keygen(server_key, z_.key_bits));
      group_.emplace(ot::SchnorrGroup::rfc_like_512());
    });
    setup_step("bench.setup.dbgen", times.dbgen_s, [&] {
      crypto::Prg data_prg = prg.fork("items");
      db_.resize(z_.n);
      for (auto& x : db_) x = data_prg.uniform(std::uint64_t{1} << kItemBits);
    });
    setup_step("bench.setup.session", times.session_s, [&] {
      net_ = make_network<net::StarNetwork>(role_split_, 1);
      client_prg_.emplace(prg.fork("client"));
      server_prg_.emplace(prg.fork("server"));
      inputs_.emplace(prg.fork("inputs"));
    });
  }

  void prepare(std::size_t q) override {
    crypto::Prg qprg = inputs_->fork("query-" + std::to_string(q));
    indices_ = distinct_indices(qprg, z_.n, z_.m);
    // A keyword taken from the selection, so every count is at least 1.
    keyword_ = db_[indices_[qprg.uniform(z_.m)]];
    want_ = 0;
    for (const std::size_t i : indices_) want_ += db_[i] == keyword_ ? 1 : 0;
  }

  QueryOutcome query() override {
    const std::uint64_t keyword = keyword_;
    const auto body = [keyword](circuits::BooleanCircuit& c,
                                const std::vector<circuits::WireBundle>& items) {
      std::vector<circuits::WireId> matches;
      for (const auto& item : items) matches.push_back(circuits::build_eq_const(c, item, keyword));
      c.add_outputs(circuits::build_popcount(c, matches));
    };
    const std::vector<bool> bits = protocols::run_two_phase_boolean(
        *net_, 0, db_, indices_, kItemBits, protocols::SelectionMethod::kPolyMaskClientKey, body,
        *client_sk_, *server_sk_, *group_, z_.pir_depth, *client_prg_, *server_prg_);
    std::uint64_t count = 0;
    for (std::size_t i = 0; i < bits.size(); ++i) {
      if (bits[i]) count |= std::uint64_t{1} << i;
    }
    QueryOutcome out;
    out.ok = count == want_;
    out.output = std::to_string(count);
    return out;
  }

  net::StarNetwork& network() override { return *net_; }

 private:
  Sizes z_;
  bool role_split_;
  std::optional<he::PaillierPrivateKey> client_sk_, server_sk_;
  std::optional<ot::SchnorrGroup> group_;
  std::vector<std::uint64_t> db_;
  std::unique_ptr<net::StarNetwork> net_;
  std::optional<crypto::Prg> client_prg_, server_prg_, inputs_;
  std::vector<std::size_t> indices_;
  std::uint64_t keyword_ = 0;
  std::uint64_t want_ = 0;
};

Sizes sizes_for(const std::string& workload, bool tiny) {
  Sizes z;
  if (workload == "stats-1server") {
    z.n = tiny ? 256 : 4096;
    z.m = tiny ? 2 : 8;
    z.key_bits = tiny ? 256 : 512;
    z.pir_depth = 2;
    z.exact_queries = tiny ? 2 : 5;
  } else if (workload == "stats-kserver-robust") {
    z.n = tiny ? 256 : 65536;
    z.m = tiny ? 2 : 8;
    z.t = 1;
    z.e = 1;
    z.c = 1;
    z.spares = 2;
    // Enough queries for a virtual-time tail with ten samples beyond it.
    z.exact_queries = tiny ? 12 : 40;
  } else if (workload == "table1-boolean") {
    z.n = tiny ? 64 : 1024;
    z.m = tiny ? 2 : 8;
    z.key_bits = tiny ? 256 : 512;
    z.pir_depth = 2;
    z.exact_queries = tiny ? 2 : 5;
  } else {
    throw std::invalid_argument("unknown workload: " + workload);
  }
  return z;
}

std::unique_ptr<Workload> make_workload(const std::string& name, const Sizes& z,
                                        bool role_split) {
  if (name == "stats-1server") return std::make_unique<StatsOneServer>(z, role_split);
  if (name == "stats-kserver-robust") return std::make_unique<StatsKServerRobust>(z, role_split);
  return std::make_unique<Table1Boolean>(z, role_split);
}

// ---------------------------------------------------------------------------
// Closed loop.

struct Sample {
  bool ok = false;
  double wall_s = kInf;
  double cpu_s = 0.0;
  double server_s = 0.0;  // role-split runs only
  QueryOutcome outcome;
  net::CommStats comm;  // this query's share of the network's counters
};

struct Phase {
  SetupTimes setup;
  double setup_s = 0.0;
  std::vector<Sample> samples;
  double loop_s = 0.0;
  std::size_t servers = 1;
  std::vector<std::string> errors;
};

net::CommStats comm_delta(const net::CommStats& after, const net::CommStats& before) {
  net::CommStats d;
  d.client_to_server_bytes = after.client_to_server_bytes - before.client_to_server_bytes;
  d.server_to_client_bytes = after.server_to_client_bytes - before.server_to_client_bytes;
  d.client_to_server_messages =
      after.client_to_server_messages - before.client_to_server_messages;
  d.server_to_client_messages =
      after.server_to_client_messages - before.server_to_client_messages;
  d.half_rounds = after.half_rounds - before.half_rounds;
  return d;
}

// One client, one outstanding query: query q + 1 is sent only after query q
// has returned. Runs until the phase has spent `until_s` seconds in the loop
// and holds at least `min_queries` queries; a later call continues the
// phase's query sequence.
void run_loop(Workload& w, double until_s, std::size_t min_queries, Phase& phase) {
  net::StarNetwork& net = w.network();
  const auto* meter = dynamic_cast<const RoleMeter*>(&net);
  const auto t0 = SteadyClock::now();
  for (std::size_t q = phase.samples.size();
       q < min_queries || phase.loop_s + seconds_since(t0) < until_s; ++q) {
    if (q > 0) {
      obs::Span idle("bench.idle");
      w.between_queries();
    }
    w.prepare(q);
    Sample s;
    const net::CommStats comm0 = net.stats();
    const double server0 = meter != nullptr ? meter->server_seconds() : 0.0;
    const double cpu0 = cpu_seconds();
    const auto q0 = SteadyClock::now();
    try {
      obs::Span root("bench.query");
      s.outcome = w.query();
      s.ok = s.outcome.ok;
      if (!s.ok) phase.errors.push_back("query " + std::to_string(q) + ": wrong output");
    } catch (const std::exception& e) {
      phase.errors.push_back("query " + std::to_string(q) + ": " + e.what());
      net::drain_star_network(net);
    }
    if (s.ok) s.wall_s = seconds_since(q0);  // a failed query counts as +inf
    s.cpu_s = cpu_seconds() - cpu0;
    s.server_s = meter != nullptr ? meter->server_seconds() - server0 : 0.0;
    s.comm = comm_delta(net.stats(), comm0);
    phase.samples.push_back(std::move(s));
  }
  phase.loop_s += seconds_since(t0);
}

crypto::Prg base_prg(std::uint64_t seed) {
  return crypto::Prg("perfbench-seed-" + std::to_string(seed));
}

// Builds a workload with the canonical set-up seed (the one queries run on).
std::unique_ptr<Workload> set_up(const Options& o, const Sizes& z, bool role_split,
                                 Phase& phase) {
  std::unique_ptr<Workload> w = make_workload(o.workload, z, role_split);
  const auto t0 = SteadyClock::now();
  w->setup(base_prg(o.seed).fork("setup"), phase.setup);
  phase.setup_s = seconds_since(t0);
  phase.servers = w->servers();
  return w;
}

// ---------------------------------------------------------------------------
// Exact figures: identical for every run at one seed, traced or not.

struct Exact {
  std::size_t queries = 0;
  std::uint64_t digest = 1469598103934665603ull;  // FNV-1a over the records
  std::uint64_t bytes_up = 0, bytes_down = 0, msgs = 0, half_rounds = 0;
  std::vector<double> virtual_us;
  std::vector<std::string> records;
};

Exact exact_of(const Phase& phase, std::size_t prefix) {
  Exact x;
  for (std::size_t q = 0; q < prefix && q < phase.samples.size(); ++q) {
    const Sample& s = phase.samples[q];
    ++x.queries;
    x.bytes_up += s.comm.client_to_server_bytes;
    x.bytes_down += s.comm.server_to_client_bytes;
    x.msgs += s.comm.client_to_server_messages + s.comm.server_to_client_messages;
    x.half_rounds += s.comm.half_rounds;
    x.virtual_us.push_back(static_cast<double>(s.outcome.virtual_us));
    const std::string rec =
        s.outcome.output + "|" + std::to_string(s.comm.client_to_server_bytes) + "|" +
        std::to_string(s.comm.server_to_client_bytes) + "|" +
        std::to_string(s.comm.client_to_server_messages) + "|" +
        std::to_string(s.comm.server_to_client_messages) + "|" +
        std::to_string(s.comm.half_rounds) + "|" + std::to_string(s.outcome.virtual_us) + "|" +
        std::to_string(s.outcome.robust_attempts) + "|" +
        std::to_string(s.outcome.robust_corrected);
    for (const char c : rec + "\n") {
      x.digest = (x.digest ^ static_cast<unsigned char>(c)) * 1099511628211ull;
    }
    x.records.push_back(rec);
  }
  return x;
}

std::string exact_json(const Exact& x) {
  char digest[24];
  std::snprintf(digest, sizeof digest, "%016llx", static_cast<unsigned long long>(x.digest));
  std::uint64_t vtotal = 0;
  for (const double v : x.virtual_us) vtotal += static_cast<std::uint64_t>(v);
  return JsonObject()
      .num("queries", static_cast<std::uint64_t>(x.queries))
      .str("digest", digest)
      .num("bytes_up", x.bytes_up)
      .num("bytes_down", x.bytes_down)
      .num("msgs", x.msgs)
      .num("half_rounds", x.half_rounds)
      .num("virtual_us", vtotal)
      .text();
}

double per_query(double total, std::size_t queries) {
  return queries == 0 ? 0.0 : total / static_cast<double>(queries);
}

std::uint64_t count_failed(const Phase& phase) {
  std::uint64_t failed = 0;
  for (const Sample& s : phase.samples) failed += s.ok ? 0 : 1;
  return failed;
}

std::vector<double> latencies_ms(const Phase& phase) {
  std::vector<double> out;
  for (const Sample& s : phase.samples) out.push_back(s.wall_s * 1e3);
  return out;
}

JsonObject context_of(const Options& o, const Sizes& z, const Phase& phase) {
  const char* env_threads = std::getenv("SPFE_THREADS");
#if defined(__clang__)
  const std::string compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  const std::string compiler = std::string("gcc ") + __VERSION__;
#else
  const std::string compiler = "unknown";
#endif
  JsonObject ctx;
  ctx.str("workload", o.workload)
      .num("seed", o.seed)
      .boolean("trace", o.trace)
      .boolean("tiny", o.tiny)
      .str("loop", "closed, 1 client, 1 outstanding query")
      .num("nproc", static_cast<std::uint64_t>(sysconf(_SC_NPROCESSORS_ONLN)))
      .str("spfe_threads_env", env_threads != nullptr ? env_threads : "")
      .num("spfe_threads", static_cast<std::uint64_t>(common::ThreadPool::global().thread_count()))
      .str("build_type", PERFBENCH_BUILD_TYPE)
      .str("compiler", compiler)
      .num("key_bits", static_cast<std::uint64_t>(z.key_bits))
      .num("n", static_cast<std::uint64_t>(z.n))
      .num("m", static_cast<std::uint64_t>(z.m))
      .num("k", static_cast<std::uint64_t>(phase.servers))
      .num("pir_depth", static_cast<std::uint64_t>(z.pir_depth))
      .num("seconds", o.seconds)
      .num("exact_queries", static_cast<std::uint64_t>(z.exact_queries));
  return ctx;
}

// ---------------------------------------------------------------------------
// Untraced run: end-to-end metrics.

// Set-up is timed at this many points spread over the run (before the
// query loop, between its segments and after it), each time at least
// kSetupMinReps times and for at least kSetupMinSeconds.
constexpr std::size_t kSetupSnapshots = 4;
constexpr std::size_t kSetupMinReps = 1;
constexpr double kSetupMinSeconds = 0.5;

Report run_untraced(const Options& o, const Sizes& z) {
  Report rep;
  // Set-up runs many times; the reported figure is the median. Spreading
  // the repetitions over the run makes set-up time sample the machine over
  // the same span as the queries. The extra repetitions use their own seeds,
  // so the median also averages over key generation's random prime search;
  // the canonical set-up, which the queries run on, is one of them.
  std::vector<double> setup_times;
  const auto time_setups = [&] {
    if (o.tiny) return;
    const auto t0 = SteadyClock::now();
    for (std::size_t r = 0; r < kSetupMinReps || seconds_since(t0) < kSetupMinSeconds; ++r) {
      SetupTimes ignored;
      std::unique_ptr<Workload> w = make_workload(o.workload, z, false);
      const auto rep_t0 = SteadyClock::now();
      w->setup(base_prg(o.seed).fork("setup-rep-" + std::to_string(setup_times.size())), ignored);
      setup_times.push_back(seconds_since(rep_t0));
    }
  };
  time_setups();
  Phase phase;
  const std::unique_ptr<Workload> w = set_up(o, z, false, phase);
  setup_times.push_back(phase.setup_s);
  for (std::size_t segment = 1; segment < kSetupSnapshots; ++segment) {
    run_loop(*w, o.seconds * static_cast<double>(segment) / (kSetupSnapshots - 1),
             z.exact_queries, phase);
    time_setups();
  }
  const std::size_t reps = setup_times.size();

  const std::vector<double> lat = latencies_ms(phase);
  const Tail tail = tail_of(lat);
  std::vector<double> cpu_ms;
  for (const Sample& s : phase.samples) cpu_ms.push_back(s.cpu_s * 1e3);
  const Exact x = exact_of(phase, z.exact_queries);

  rep.attempted = phase.samples.size();
  rep.failed = count_failed(phase);
  rep.problems = phase.errors;
  rep.metrics = {
      {"setup_s", median(setup_times), "s"},
      {"query_ms_p50", median(lat), "ms"},
      {"query_ms_tail", tail.value, "ms"},
      {"queries_per_s", static_cast<double>(phase.samples.size()) / phase.loop_s, "1/s"},
      {"cpu_ms_per_query", median(cpu_ms), "ms"},
      {"comm_bytes_per_query", per_query(static_cast<double>(x.bytes_up + x.bytes_down), x.queries),
       "B"},
      {"rounds_per_query", per_query(static_cast<double>(x.half_rounds) / 2.0, x.queries),
       "count"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };
  rep.exact_json = exact_json(x);
  rep.context_json =
      context_of(o, z, phase)
          .num("queries", static_cast<std::uint64_t>(phase.samples.size()))
          .num("setup_reps", static_cast<std::uint64_t>(reps))
          .num("tail_percentile", tail.percentile)
          .num("tail_samples_beyond", static_cast<std::uint64_t>(tail.beyond))
          .num("error_rate", per_query(static_cast<double>(rep.failed), rep.attempted))
          .str("cpu_ms_per_query", "median of per-query process user+sys time")
          .str("queries_per_s", "queries / closed-loop wall time incl. idle pool top-ups")
          .str("comm_and_rounds", "mean over the exact_queries prefix")
          .text();
  return rep;
}

// ---------------------------------------------------------------------------
// Traced run: per-layer metrics.

std::uint64_t op(const obs::OpCounts& ops, obs::Op which) {
  return ops[static_cast<std::size_t>(which)];
}

// Span-tree views over the traced phase.
class Trace {
 public:
  explicit Trace(std::vector<obs::SpanRecord> spans) : spans_(std::move(spans)) {
    for (std::size_t i = 0; i < spans_.size(); ++i) index_[spans_[i].id] = i;
  }

  const std::vector<obs::SpanRecord>& spans() const { return spans_; }

  const obs::SpanRecord* parent(const obs::SpanRecord& s) const {
    if (s.parent == obs::SpanRecord::kNoParent) return nullptr;
    const auto it = index_.find(s.parent);
    return it == index_.end() ? nullptr : &spans_[it->second];
  }

  const obs::SpanRecord& root(const obs::SpanRecord& s) const {
    const obs::SpanRecord* cur = &s;
    while (const obs::SpanRecord* p = parent(*cur)) cur = p;
    return *cur;
  }

  // Total time of spans called `name` inside query roots, counting nested
  // spans of the same name once.
  double query_span_s(const std::string& name) const {
    std::uint64_t ns = 0;
    for (const obs::SpanRecord& s : spans_) {
      if (s.name != name || root(s).name != "bench.query") continue;
      bool nested = false;
      for (const obs::SpanRecord* p = parent(s); p != nullptr; p = parent(*p)) {
        nested = nested || p->name == name;
      }
      if (!nested) ns += s.duration_ns();
    }
    return static_cast<double>(ns) * 1e-9;
  }

  // Sum over query roots of (root duration - its direct children).
  double query_self_s() const {
    std::map<std::size_t, std::uint64_t> child_ns;
    for (const obs::SpanRecord& s : spans_) {
      const obs::SpanRecord* p = parent(s);
      if (p != nullptr && p->name == "bench.query" && p->parent == obs::SpanRecord::kNoParent) {
        child_ns[p->id] += s.duration_ns();
      }
    }
    std::uint64_t self = 0;
    for (const obs::SpanRecord& s : spans_) {
      if (s.name != "bench.query" || s.parent != obs::SpanRecord::kNoParent) continue;
      const std::uint64_t c = child_ns[s.id];
      self += s.duration_ns() > c ? s.duration_ns() - c : 0;
    }
    return static_cast<double>(self) * 1e-9;
  }

  obs::OpCounts query_ops() const {
    obs::OpCounts out{};
    for (const obs::SpanRecord& s : spans_) {
      if (s.name != "bench.query" || s.parent != obs::SpanRecord::kNoParent) continue;
      const obs::OpCounts d = s.delta();
      for (std::size_t i = 0; i < obs::kNumOps; ++i) out[i] += d[i];
    }
    return out;
  }

 private:
  std::vector<obs::SpanRecord> spans_;
  std::map<std::size_t, std::size_t> index_;
};

Report run_traced(const Options& o, const Sizes& z) {
  Report rep;
  // Untraced pass first: the reference for tracing overhead and for the
  // exactness check. Each pass gets half the run.
  Phase plain;
  {
    std::unique_ptr<Workload> w = set_up(o, z, false, plain);
    run_loop(*w, o.seconds / 2, z.exact_queries, plain);
  }

  obs::Tracer& tracer = obs::Tracer::global();
  tracer.set_enabled(true);
  tracer.reset();
  Phase traced;
  {
    std::unique_ptr<Workload> w = set_up(o, z, true, traced);
    run_loop(*w, o.seconds / 2, z.exact_queries, traced);
  }
  const Trace trace(tracer.spans());
  const obs::OpCounts totals = tracer.totals();
  const obs::OpCounts root_totals = tracer.root_totals();
  tracer.set_enabled(false);

  rep.problems = plain.errors;
  rep.problems.insert(rep.problems.end(), traced.errors.begin(), traced.errors.end());
  for (std::size_t i = 0; i < obs::kNumOps; ++i) {
    if (totals[i] != root_totals[i]) {
      rep.problems.push_back(std::string("ops outside every root span: ") +
                             obs::op_name(static_cast<obs::Op>(i)) +
                             " root=" + std::to_string(root_totals[i]) +
                             " global=" + std::to_string(totals[i]));
    }
  }
  const Exact x = exact_of(traced, z.exact_queries);
  const Exact x_plain = exact_of(plain, z.exact_queries);
  for (std::size_t q = 0; q < x.records.size() && q < x_plain.records.size(); ++q) {
    if (x.records[q] != x_plain.records[q]) {
      rep.problems.push_back("query " + std::to_string(q) + " differs traced vs untraced: " +
                             x.records[q] + " vs " + x_plain.records[q]);
    }
  }

  const std::size_t nq = traced.samples.size();
  double wall = 0.0, cpu = 0.0, server = 0.0;
  std::uint64_t attempts = 0, erasures = 0, corrected = 0;
  for (const Sample& s : traced.samples) {
    wall += s.wall_s;
    cpu += s.cpu_s;
    server += s.server_s;
    attempts += s.outcome.robust_attempts;
    erasures += s.outcome.robust_erasures;
    corrected += s.outcome.robust_corrected;
  }
  const obs::OpCounts ops = trace.query_ops();
  const auto per_q = [&](double total) { return per_query(total, nq); };
  const auto op_q = [&](obs::Op which) { return per_q(static_cast<double>(op(ops, which))); };
  const auto span_ms = [&](const char* name) { return per_q(trace.query_span_s(name) * 1e3); };
  const double draws =
      static_cast<double>(op(ops, obs::Op::kPoolHit) + op(ops, obs::Op::kPoolMiss));
  const double p50_traced = median(latencies_ms(traced));
  const double p50_plain = median(latencies_ms(plain));
  const Tail vtail = tail_of(x.virtual_us);

  rep.attempted = plain.samples.size() + traced.samples.size();
  rep.failed = count_failed(plain) + count_failed(traced);
  rep.metrics = {
      {"net.server_ms", per_q(server * 1e3), "ms"},
      {"net.client_ms", per_q((wall - server) * 1e3), "ms"},
      {"net.msgs", per_query(static_cast<double>(x.msgs), x.queries), "count"},
      {"net.bytes_up", per_query(static_cast<double>(x.bytes_up), x.queries), "B"},
      {"net.bytes_down", per_query(static_cast<double>(x.bytes_down), x.queries), "B"},
      {"pir.answer_ms", span_ms("cpir.answer"), "ms"},
      {"pir.make_query_ms", span_ms("cpir.make_query"), "ms"},
      {"pir.decode_ms", span_ms("cpir.decode"), "ms"},
      {"he.paillier_encrypt", op_q(obs::Op::kPaillierEncrypt), "count"},
      {"he.paillier_rerandomize", op_q(obs::Op::kPaillierRerandomize), "count"},
      {"he.paillier_decrypt", op_q(obs::Op::kPaillierDecrypt), "count"},
      {"he.pool_hit_ratio",
       draws > 0 ? static_cast<double>(op(ops, obs::Op::kPoolHit)) / draws : 0.0, "ratio"},
      {"bignum.modexp", op_q(obs::Op::kModExp), "count"},
      {"bignum.multiexp_straus", op_q(obs::Op::kMultiexpStraus), "count"},
      {"bignum.multiexp_pippenger", op_q(obs::Op::kMultiexpPippenger), "count"},
      {"bignum.multiexp_fixed_base", op_q(obs::Op::kMultiexpFixedBase), "count"},
      {"mpc.yao_ms", span_ms("yao.run"), "ms"},
      {"mpc.garbled_gates", op_q(obs::Op::kGarbledGates), "count"},
      {"ot.base", op_q(obs::Op::kOtBase), "count"},
      {"ot.extended", op_q(obs::Op::kOtExtended), "count"},
      {"spfe.input_selection_ms", span_ms("spfe.input_selection"), "ms"},
      {"field.bw_decodes", op_q(obs::Op::kBwDecode), "count"},
      {"net.robust.attempts", per_q(static_cast<double>(attempts)), "count"},
      {"net.robust.hedges_sent", op_q(obs::Op::kHedgeSent), "count"},
      {"net.robust.hedges_won", op_q(obs::Op::kHedgeWon), "count"},
      {"net.robust.deadline_misses", op_q(obs::Op::kDeadlineMiss), "count"},
      {"net.robust.errors_corrected", per_q(static_cast<double>(corrected)), "count"},
      {"net.robust.erasures", per_q(static_cast<double>(erasures)), "count"},
      {"net.robust.adv_forged", op_q(obs::Op::kAdvForgedAnswer), "count"},
      {"virtual_us_p50", median(x.virtual_us), "virtual_us"},
      {"virtual_us_tail", vtail.value, "virtual_us"},
      {"spfe.self_ms", per_q(trace.query_self_s() * 1e3), "ms"},
      {"common.cpu_per_wall", wall > 0 ? cpu / wall : 0.0, "ratio"},
      {"setup.keygen_s", traced.setup.keygen_s, "s"},
      {"setup.dbgen_s", traced.setup.dbgen_s, "s"},
      {"setup.pool_fill_s", traced.setup.pool_fill_s, "s"},
      {"setup.session_s", traced.setup.session_s, "s"},
      {"obs.tracing_overhead_pct", p50_plain > 0 ? (p50_traced / p50_plain - 1.0) * 100.0 : 0.0,
       "%"},
  };
  rep.exact_json = exact_json(x);
  rep.context_json = context_of(o, z, traced)
                         .num("queries_untraced", static_cast<std::uint64_t>(plain.samples.size()))
                         .num("queries_traced", static_cast<std::uint64_t>(nq))
                         .num("virtual_tail_percentile", vtail.percentile)
                         .num("virtual_tail_samples_beyond", static_cast<std::uint64_t>(vtail.beyond))
                         .num("error_rate", per_query(static_cast<double>(rep.failed), rep.attempted))
                         .str("per_layer", "means per traced query; exact figures over the "
                                           "exact_queries prefix")
                         .text();
  return rep;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"stats-1server", "stats-kserver-robust",
                                                 "table1-boolean"};
  return names;
}

Report run(const Options& options) {
  const Sizes z = sizes_for(options.workload, options.tiny);
  Report rep = options.trace ? run_traced(options, z) : run_untraced(options, z);
  rep.correct = rep.failed == 0 && rep.problems.empty();
  return rep;
}

std::string result_json(const Report& report) {
  JsonObject metrics;
  for (const Metric& m : report.metrics) {
    metrics.raw(m.name, JsonObject().num("value", m.value).str("unit", m.unit).text());
  }
  return JsonObject()
      .boolean("correct", report.correct)
      .num("attempted", report.attempted)
      .num("failed", report.failed)
      .raw("metrics", metrics.text())
      .text();
}

}  // namespace perfbench

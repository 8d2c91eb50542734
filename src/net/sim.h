// Deterministic virtual-time network simulation (discrete-event): the one
// fault-injecting network, and the one `run_robust_star` (net/robust.h)
// runs over.
//
// A `FaultPlan` (net/fault.h) says *what* goes wrong on the wire; this
// layer adds *when*. A `SimClock` is a seedless virtual microsecond
// counter that only ever moves forward; a `SimStarNetwork` is a StarNetwork
// whose messages carry per-message latencies drawn from seeded per-server
// distributions (base + jitter + occasional straggler multiplier), so
// stragglers, deadlines, retry policy, and hedged queries become concrete,
// testable virtual-time behaviours instead of abstract flags. With the
// default `SimConfig{}` every link has zero latency: byte- and
// metering-identical to a plain StarNetwork, and the clock moves only when
// the client waits out a deadline for an answer that never comes.
//
// Timeline model (one client timeline == the global clock, one timeline per
// server):
//   * client_send at client time T: the query arrives at the server at
//     T + latency(c2s). Sends during a link outage are dropped (metered at
//     the sender, like every transmission).
//   * server_receive: stamps the server's local time to the query's arrival
//     (never touches the global clock — server work is concurrent).
//   * server_send: departs at the server's local time; the answer is ready
//     at the client at departure + latency(s2c).
//   * client_receive: delivers the front message after advancing the global
//     clock to its ready time — unless a deadline is set and the message is
//     not ready by it, in which case the clock advances to the deadline and
//     the receive throws `ServerUnavailable` (a deadline miss; the message
//     stays in flight and a later receive with a longer deadline can still
//     get it — that is how stragglers eventually land and how hedging wins).
//
// Fault integration: the metering contract is the sender pays once per
// transmission (dropped, corrupted and truncated messages at full size),
// a crashed server transmits nothing, and duplicates are free. Receives on
// a dead or empty channel throw the typed `ServerUnavailable`, never
// `ProtocolError`, so robust clients can mark the server as an erasure.
// `kDelay` adds `SimConfig::delay_fault_penalty_us` of latency.
//
// Determinism: every latency is sampled by (direction, server, ordinal)
// from the SimConfig seed, independent of call interleaving and of
// SPFE_THREADS; a whole chaos schedule replays byte-identically from its
// seeds. All protocol-visible time must flow through `net::SimClock`
// (enforced tree-wide by the spfe-analyze `wall-clock` hygiene lint).
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <vector>

#include "crypto/prg.h"
#include "net/fault.h"
#include "net/network.h"

namespace spfe::net {

class AdversaryEngine;  // net/adversary.h

// Virtual microseconds since the simulation epoch; moves only forward.
// Protocol code outside src/net/ takes time from here (or not at all) —
// never from std::chrono wall clocks.
class SimClock {
 public:
  std::uint64_t now_us() const { return now_us_; }

  // No-op when `t_us` is in the past (a wait that already elapsed).
  void advance_to(std::uint64_t t_us) {
    if (t_us > now_us_) now_us_ = t_us;
  }
  void advance_by(std::uint64_t d_us) { now_us_ += d_us; }

 private:
  std::uint64_t now_us_ = 0;
};

// Per-server message-latency distribution. The default is a zero-latency
// perfect link, which makes `SimStarNetwork(k, SimConfig{})` byte- and
// time-identical to a plain StarNetwork.
struct ServerProfile {
  std::uint64_t base_us = 0;            // deterministic floor
  std::uint64_t jitter_us = 0;          // + uniform [0, jitter_us]
  std::uint32_t straggle_permille = 0;  // chance a message straggles
  std::uint64_t straggle_factor = 20;   // latency multiplier when it does

  // A plausible same-datacenter link for benches and chaos schedules.
  static ServerProfile typical() { return {200, 100, 0, 20}; }
};

// Half-open window [begin_us, end_us) during which the link to a server is
// down: transmissions in the window are metered at the sender and lost.
struct Outage {
  std::uint64_t begin_us = 0;
  std::uint64_t end_us = 0;
};

struct SimConfig {
  crypto::Prg::Seed seed{};                  // drives jitter + straggle coins
  std::vector<ServerProfile> profiles;       // size k, or empty = default all
  std::vector<std::vector<Outage>> outages;  // per server, or empty
  // Extra latency a FaultKind::kDelay adds — large enough to blow any
  // sane per-attempt deadline.
  std::uint64_t delay_fault_penalty_us = 1'000'000;

  // Same profile for every one of `k` servers.
  static SimConfig uniform(std::size_t k, ServerProfile profile, const crypto::Prg::Seed& seed);
};

// Seeded, order-independent latency sampler: the latency of the ordinal-th
// message towards/from a server depends only on (seed, direction, server,
// ordinal).
class LatencyModel {
 public:
  explicit LatencyModel(const SimConfig& config);

  std::uint64_t sample_us(Direction direction, std::size_t server,
                          std::uint64_t ordinal) const;
  bool in_outage(std::size_t server, std::uint64_t at_us) const;
  const ServerProfile& profile(std::size_t server) const;

  // Nearest-rank quantile of the single-message latency distribution of
  // `server` (by seeded sampling, not analytically) — a principled default
  // for hedge deadlines before any live observations exist.
  std::uint64_t quantile_us(std::size_t server, double q, std::size_t samples = 200) const;

 private:
  SimConfig config_;
  crypto::Prg base_;
};

class SimStarNetwork : public StarNetwork {
 public:
  static constexpr std::uint64_t kNoDeadline = ~std::uint64_t{0};

  SimStarNetwork(std::size_t num_servers, SimConfig config, FaultPlan plan = {});

  SimClock& clock() { return clock_; }
  const SimClock& clock() const { return clock_; }

  // Adaptive adversary interposition (net/adversary.h): controlled servers
  // see every query they receive and decide what to do with every answer
  // they are about to send (send / forge / drop / delay). Non-owning — the
  // engine must outlive the network. Nullptr disables interposition.
  void set_adversary(AdversaryEngine* engine) { adversary_ = engine; }

  // Deadline applied to subsequent client receives (kNoDeadline = block
  // until the message is ready). Deadlines only gate the client — the
  // driver of the star protocols — because that is where timeout policy
  // lives.
  void set_deadline(std::uint64_t at_us) { deadline_us_ = at_us; }

  // Virtual ready-time of the message most recently handed to the client
  // (for per-server latency observations).
  std::uint64_t last_delivery_us() const { return last_delivery_us_; }

  // Position in `candidates` of the server whose front client-bound message
  // becomes ready earliest — the channel an event-driven client's select()
  // would wake on first. Ties break to the earlier candidate; nullopt when
  // every candidate queue is empty. Purely a peek: no clock movement.
  std::optional<std::size_t> earliest_client_ready(
      const std::vector<std::size_t>& candidates) const;

  bool server_crashed(std::size_t s) const;

  // Clears every queue without advancing the clock: simulation teardown for
  // messages the client abandoned (their transmissions stay metered).
  void discard_in_flight();

  void client_send(std::size_t s, Bytes message) override;
  void server_send(std::size_t s, Bytes message) override;
  Bytes server_receive(std::size_t s) override;
  Bytes client_receive(std::size_t s) override;

 private:
  void enqueue(std::size_t s, Direction direction, const Fault* fault, Bytes message,
               std::uint64_t depart_us, std::uint64_t ordinal, std::uint64_t extra_us = 0);

  SimClock clock_;
  SimConfig config_;
  LatencyModel model_;
  FaultPlan plan_;
  AdversaryEngine* adversary_ = nullptr;
  std::uint64_t deadline_us_ = kNoDeadline;
  std::uint64_t last_delivery_us_ = 0;
  std::vector<std::uint64_t> server_now_us_;  // per-server local timelines
  std::vector<std::uint64_t> client_ordinal_;
  std::vector<std::uint64_t> server_ordinal_;
  std::vector<std::size_t> server_ops_;  // completed receives + sends per server
  // Ready stamps parallel to the base queues.
  std::vector<std::deque<std::uint64_t>> to_server_ready_;
  std::vector<std::deque<std::uint64_t>> to_client_ready_;
};

}  // namespace spfe::net

#include "net/sim.h"

#include <algorithm>
#include <string>
#include <utility>

#include "net/adversary.h"
#include "obs/obs.h"

namespace spfe::net {

SimConfig SimConfig::uniform(std::size_t k, ServerProfile profile,
                             const crypto::Prg::Seed& seed) {
  SimConfig cfg;
  cfg.seed = seed;
  cfg.profiles.assign(k, profile);
  return cfg;
}

LatencyModel::LatencyModel(const SimConfig& config) : config_(config), base_(config.seed) {
  for (const auto& windows : config_.outages) {
    for (const Outage& o : windows) {
      if (o.end_us < o.begin_us) {
        throw InvalidArgument("LatencyModel: outage window ends before it begins");
      }
    }
  }
}

const ServerProfile& LatencyModel::profile(std::size_t server) const {
  static const ServerProfile kPerfect{};
  if (server < config_.profiles.size()) return config_.profiles[server];
  return kPerfect;
}

std::uint64_t LatencyModel::sample_us(Direction direction, std::size_t server,
                                      std::uint64_t ordinal) const {
  const ServerProfile& p = profile(server);
  if (p.jitter_us == 0 && p.straggle_permille == 0) return p.base_us;
  // Keyed fork: the sample depends only on (seed, direction, server,
  // ordinal), never on sampling order — the bedrock of transcript
  // determinism at any thread count.
  crypto::Prg prg = base_.fork("lat-" + std::string(direction_name(direction)) + "-" +
                               std::to_string(server) + "-" + std::to_string(ordinal));
  std::uint64_t us = p.base_us + prg.uniform(p.jitter_us + 1);
  if (p.straggle_permille > 0 && prg.uniform(1000) < p.straggle_permille) {
    us *= p.straggle_factor;
  }
  return us;
}

bool LatencyModel::in_outage(std::size_t server, std::uint64_t at_us) const {
  if (server >= config_.outages.size()) return false;
  for (const Outage& o : config_.outages[server]) {
    if (at_us >= o.begin_us && at_us < o.end_us) return true;
  }
  return false;
}

std::uint64_t LatencyModel::quantile_us(std::size_t server, double q,
                                        std::size_t samples) const {
  if (q <= 0.0 || q > 1.0 || samples == 0) {
    throw InvalidArgument("LatencyModel::quantile_us: need q in (0, 1] and samples > 0");
  }
  // Sample the marginal distribution with a dedicated fork so the probe
  // never perturbs the per-message stream.
  crypto::Prg prg = base_.fork("quantile-" + std::to_string(server));
  const ServerProfile& p = profile(server);
  std::vector<std::uint64_t> draws(samples);
  for (auto& us : draws) {
    us = p.base_us + (p.jitter_us == 0 ? 0 : prg.uniform(p.jitter_us + 1));
    if (p.straggle_permille > 0 && prg.uniform(1000) < p.straggle_permille) {
      us *= p.straggle_factor;
    }
  }
  std::sort(draws.begin(), draws.end());
  std::size_t rank = static_cast<std::size_t>(q * static_cast<double>(samples));
  if (rank > 0) --rank;
  return draws[std::min(rank, samples - 1)];
}

SimStarNetwork::SimStarNetwork(std::size_t num_servers, SimConfig config, FaultPlan plan)
    : StarNetwork(num_servers),
      config_(std::move(config)),
      model_(config_),
      plan_(std::move(plan)),
      server_now_us_(num_servers, 0),
      client_ordinal_(num_servers, 0),
      server_ordinal_(num_servers, 0),
      server_ops_(num_servers, 0),
      to_server_ready_(num_servers),
      to_client_ready_(num_servers) {
  if (!config_.profiles.empty() && config_.profiles.size() != num_servers) {
    throw InvalidArgument("SimStarNetwork: profile count must match server count");
  }
  if (!config_.outages.empty() && config_.outages.size() != num_servers) {
    throw InvalidArgument("SimStarNetwork: outage schedule must match server count");
  }
}

bool SimStarNetwork::server_crashed(std::size_t s) const {
  check_server(s);
  auto point = plan_.crash_point(s);
  return point.has_value() && server_ops_[s] >= *point;
}

std::optional<std::size_t> SimStarNetwork::earliest_client_ready(
    const std::vector<std::size_t>& candidates) const {
  std::optional<std::size_t> best;
  std::uint64_t best_ready = 0;
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    const std::size_t s = candidates[i];
    check_server(s);
    if (to_client_ready_[s].empty()) continue;
    const std::uint64_t ready = to_client_ready_[s].front();
    if (!best.has_value() || ready < best_ready) {
      best = i;
      best_ready = ready;
    }
  }
  return best;
}

void SimStarNetwork::discard_in_flight() {
  for (std::size_t s = 0; s < num_servers(); ++s) {
    to_server_[s].clear();
    to_client_[s].clear();
    to_server_ready_[s].clear();
    to_client_ready_[s].clear();
  }
}

void SimStarNetwork::enqueue(std::size_t s, Direction direction, const Fault* fault,
                             Bytes message, std::uint64_t depart_us, std::uint64_t ordinal,
                             std::uint64_t extra_us) {
  // The sender already paid for the transmission; the fault only decides
  // what (if anything) arrives, and when.
  std::size_t copies = 1;
  if (fault != nullptr) {
    switch (fault->kind) {
      case FaultKind::kDrop:
        return;
      case FaultKind::kCorruptByte:
        if (!message.empty()) message[fault->byte_index % message.size()] ^= fault->xor_mask;
        break;
      case FaultKind::kTruncate:
        message.resize(std::min(fault->keep_bytes, message.size()));
        break;
      case FaultKind::kDuplicate:
        copies = 2;
        break;
      case FaultKind::kDelay:
        extra_us += config_.delay_fault_penalty_us;
        break;
    }
  }
  if (model_.in_outage(s, depart_us)) return;  // link down: transmission lost
  const std::uint64_t ready = depart_us + model_.sample_us(direction, s, ordinal) + extra_us;
  auto& queue = direction == Direction::kClientToServer ? to_server_[s] : to_client_[s];
  auto& stamps =
      direction == Direction::kClientToServer ? to_server_ready_[s] : to_client_ready_[s];
  for (std::size_t i = 0; i < copies; ++i) {
    queue.push_back(message);
    stamps.push_back(ready);
  }
}

void SimStarNetwork::client_send(std::size_t s, Bytes message) {
  check_server(s);
  // The client pays for the transmission even when the wire eats it or the
  // server is dead: metering counts what was sent, not what arrived.
  meter_send(Direction::kClientToServer, message.size());
  const std::uint64_t ordinal = client_ordinal_[s]++;
  if (server_crashed(s)) return;
  enqueue(s, Direction::kClientToServer, plan_.find(Direction::kClientToServer, s, ordinal),
          std::move(message), clock_.now_us(), ordinal);
}

void SimStarNetwork::server_send(std::size_t s, Bytes message) {
  check_server(s);
  if (server_crashed(s)) return;  // a dead server transmits nothing: unmetered
  std::uint64_t adv_extra_us = 0;
  if (adversary_ != nullptr && adversary_->controls(s)) {
    AdversaryAction action = adversary_->intercept_answer(s, message, server_now_us_[s]);
    switch (action.kind) {
      case AdversaryAction::Kind::kSendHonest:
        break;
      case AdversaryAction::Kind::kReplace:
        // A forged answer is a real transmission, metered at its own size.
        message = std::move(action.replacement);
        obs::count(obs::Op::kAdvForgedAnswer);
        break;
      case AdversaryAction::Kind::kDrop:
        // Byzantine silence: nothing transmitted, nothing metered — the wire
        // cannot distinguish it from a crash.
        obs::count(obs::Op::kAdvDroppedAnswer);
        return;
      case AdversaryAction::Kind::kDelay:
        adv_extra_us = action.delay_us;
        obs::count(obs::Op::kAdvDelayedAnswer);
        break;
    }
  }
  meter_send(Direction::kServerToClient, message.size());
  ++server_ops_[s];
  const std::uint64_t ordinal = server_ordinal_[s]++;
  enqueue(s, Direction::kServerToClient, plan_.find(Direction::kServerToClient, s, ordinal),
          std::move(message), server_now_us_[s], ordinal, adv_extra_us);
}

Bytes SimStarNetwork::server_receive(std::size_t s) {
  check_server(s);
  if (server_crashed(s)) {
    to_server_[s].clear();
    to_server_ready_[s].clear();
    throw ServerUnavailable("SimStarNetwork: server " + std::to_string(s) +
                            " crashed; receive timed out (" + channel_state(s) + ")");
  }
  if (to_server_[s].empty()) {
    throw ServerUnavailable("SimStarNetwork: server timed out waiting for a message (" +
                            channel_state(s) + ")");
  }
  Bytes m = std::move(to_server_[s].front());
  to_server_[s].pop_front();
  // Server work starts when the query lands on its local timeline; the
  // global (client) clock is untouched — servers run concurrently.
  server_now_us_[s] = std::max(server_now_us_[s], to_server_ready_[s].front());
  to_server_ready_[s].pop_front();
  ++server_ops_[s];
  if (adversary_ != nullptr && adversary_->controls(s)) {
    adversary_->observe_query(s, m, server_now_us_[s]);
  }
  return m;
}

Bytes SimStarNetwork::client_receive(std::size_t s) {
  check_server(s);
  if (to_client_[s].empty()) {
    // Nothing in flight: the client waits out its deadline for an answer
    // that will never come (a dropped or crashed transmission).
    if (deadline_us_ != kNoDeadline) clock_.advance_to(deadline_us_);
    throw ServerUnavailable("SimStarNetwork: client timed out waiting for server " +
                            std::to_string(s) + " (" + channel_state(s) + ")");
  }
  const std::uint64_t ready = to_client_ready_[s].front();
  if (ready > deadline_us_) {
    // A true straggler: the answer is in flight but missed the deadline.
    // Leave it queued — a later receive with a longer deadline gets it.
    clock_.advance_to(deadline_us_);
    obs::count(obs::Op::kDeadlineMiss);
    throw DeadlineMiss("SimStarNetwork: answer from server " + std::to_string(s) +
                       " missed the deadline (ready at " + std::to_string(ready) +
                       "us, deadline " + std::to_string(deadline_us_) + "us)");
  }
  clock_.advance_to(ready);
  last_delivery_us_ = ready;
  Bytes m = std::move(to_client_[s].front());
  to_client_[s].pop_front();
  to_client_ready_[s].pop_front();
  return m;
}

}  // namespace spfe::net

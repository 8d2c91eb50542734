#include "net/adversary.h"

#include <algorithm>
#include <utility>

#include "common/serialize.h"

namespace spfe::net {

const LinkEvent* LinkView::last_query() const {
  for (auto it = events.rbegin(); it != events.rend(); ++it) {
    if (it->dir == LinkEvent::Dir::kQueryIn) return &*it;
  }
  return nullptr;
}

Coalition::Coalition(std::vector<std::size_t> members) : members_(std::move(members)) {
  std::sort(members_.begin(), members_.end());
  members_.erase(std::unique(members_.begin(), members_.end()), members_.end());
  for (std::size_t s : members_) views_[s].server = s;
}

bool Coalition::contains(std::size_t server) const {
  return std::binary_search(members_.begin(), members_.end(), server);
}

const LinkView& Coalition::view_of(std::size_t server) const {
  auto it = views_.find(server);
  if (it == views_.end()) {
    throw InvalidArgument("Coalition::view_of: server " + std::to_string(server) +
                          " is not a coalition member");
  }
  return it->second;
}

std::optional<std::uint64_t> Coalition::earliest_last_query_us() const {
  std::optional<std::uint64_t> earliest;
  for (const auto& [s, view] : views_) {
    const LinkEvent* q = view.last_query();
    if (q != nullptr && (!earliest || q->at_us < *earliest)) earliest = q->at_us;
  }
  return earliest;
}

AdversaryAction AdversaryAction::replace(Bytes forged) {
  AdversaryAction a;
  a.kind = Kind::kReplace;
  a.replacement = std::move(forged);
  return a;
}

AdversaryAction AdversaryAction::drop() {
  AdversaryAction a;
  a.kind = Kind::kDrop;
  return a;
}

AdversaryAction AdversaryAction::delay(std::uint64_t delay_us) {
  AdversaryAction a;
  a.kind = Kind::kDelay;
  a.delay_us = delay_us;
  return a;
}

AdversaryEngine::AdversaryEngine(std::shared_ptr<AdversaryStrategy> strategy,
                                 std::vector<std::size_t> controlled)
    : strategy_(std::move(strategy)), coalition_(std::move(controlled)) {
  if (strategy_ == nullptr) throw InvalidArgument("AdversaryEngine: null strategy");
  for (std::size_t s : coalition_.members()) stats_[s] = AdversaryStats{};
}

const AdversaryStats& AdversaryEngine::stats(std::size_t server) const {
  auto it = stats_.find(server);
  if (it == stats_.end()) {
    throw InvalidArgument("AdversaryEngine::stats: server " + std::to_string(server) +
                          " is not controlled");
  }
  return it->second;
}

AdversaryStats AdversaryEngine::total_stats() const {
  AdversaryStats total;
  for (const auto& [s, st] : stats_) {
    total.queries_observed += st.queries_observed;
    total.answers_honest += st.answers_honest;
    total.answers_forged += st.answers_forged;
    total.answers_dropped += st.answers_dropped;
    total.answers_delayed += st.answers_delayed;
  }
  return total;
}

LinkView& AdversaryEngine::mutable_view(std::size_t server) {
  auto it = coalition_.views_.find(server);
  if (it == coalition_.views_.end()) {
    throw InvalidArgument("AdversaryEngine: server " + std::to_string(server) +
                          " is not controlled");
  }
  return it->second;
}

void AdversaryEngine::observe_query(std::size_t server, BytesView query, std::uint64_t at_us) {
  LinkView& view = mutable_view(server);
  LinkEvent ev;
  ev.dir = LinkEvent::Dir::kQueryIn;
  ev.payload.assign(query.begin(), query.end());
  ev.at_us = at_us;
  ev.ordinal = view.queries_seen++;
  view.events.push_back(std::move(ev));
  stats_[server].queries_observed++;
  strategy_->on_query(view, coalition_);
}

AdversaryAction AdversaryEngine::intercept_answer(std::size_t server, BytesView honest_answer,
                                                  std::uint64_t at_us) {
  LinkView& view = mutable_view(server);
  AdversaryAction action = strategy_->on_answer(view, honest_answer, coalition_);

  LinkEvent ev;
  ev.dir = LinkEvent::Dir::kAnswerOut;
  ev.at_us = at_us;
  ev.ordinal = view.answers_sent++;
  AdversaryStats& st = stats_[server];
  switch (action.kind) {
    case AdversaryAction::Kind::kSendHonest:
      ev.payload.assign(honest_answer.begin(), honest_answer.end());
      st.answers_honest++;
      break;
    case AdversaryAction::Kind::kReplace:
      ev.payload = action.replacement;
      st.answers_forged++;
      break;
    case AdversaryAction::Kind::kDrop:
      st.answers_dropped++;
      break;
    case AdversaryAction::Kind::kDelay:
      ev.payload.assign(honest_answer.begin(), honest_answer.end());
      st.answers_delayed++;
      break;
  }
  view.events.push_back(std::move(ev));
  return action;
}

// ---------------------------------------------------------------------------
// Strategy library.

std::optional<Bytes> forge_field_answer(BytesView honest, std::uint64_t modulus,
                                        std::uint64_t delta) {
  if (honest.size() < 8 || modulus == 0) return std::nullopt;
  Reader r(honest);
  std::uint64_t y = r.u64();
  // (y + delta) mod p without overflow: both operands already < p in honest
  // transcripts, but a malformed wire value may not be — reduce first.
  y %= modulus;
  delta %= modulus;
  std::uint64_t forged = y >= modulus - delta ? y - (modulus - delta) : y + delta;
  Writer w;
  w.u64(forged);
  Bytes out = std::move(w).take();
  out.insert(out.end(), honest.begin() + 8, honest.end());
  return out;
}

ConsistentLieStrategy::ConsistentLieStrategy(std::uint64_t modulus, std::uint64_t delta)
    : modulus_(modulus), delta_(delta % modulus) {
  if (modulus < 2) throw InvalidArgument("ConsistentLieStrategy: modulus must be >= 2");
  if (delta_ == 0) delta_ = 1;  // a zero offset would be honesty in disguise
}

AdversaryAction ConsistentLieStrategy::on_answer(const LinkView& link, BytesView honest_answer,
                                                 Coalition& coalition) {
  (void)link;
  (void)coalition;
  std::optional<Bytes> forged = forge_field_answer(honest_answer, modulus_, delta_);
  // An answer too short to carry a field element cannot be forged
  // consistently; silence is the next-best deviation.
  if (!forged) return AdversaryAction::drop();
  return AdversaryAction::replace(std::move(*forged));
}

CrashAtWorstTimeStrategy::CrashAtWorstTimeStrategy(std::size_t honest_attempts)
    : honest_attempts_(honest_attempts) {}

void CrashAtWorstTimeStrategy::on_query(const LinkView& link, Coalition& coalition) {
  // Arm the coalition-wide trigger on the *maximum* query ordinal any member
  // has seen: a member held back as a spare (fewer queries on its link) still
  // crashes in the same protocol attempt as the members that were queried
  // every round.
  std::uint64_t& armed = coalition.slot("crash-at-worst-time/max-ordinal");
  const LinkEvent* q = link.last_query();
  if (q != nullptr) armed = std::max(armed, static_cast<std::uint64_t>(q->ordinal));
}

AdversaryAction CrashAtWorstTimeStrategy::on_answer(const LinkView& link, BytesView honest_answer,
                                                    Coalition& coalition) {
  (void)honest_answer;
  (void)link;
  std::uint64_t armed = coalition.slot("crash-at-worst-time/max-ordinal");
  if (armed + 1 <= honest_attempts_) return AdversaryAction::honest();
  // The query was already swallowed; going silent now forces the client to
  // burn its full attempt deadline before it can blame anyone.
  return AdversaryAction::drop();
}

EquivocateAcrossRetriesStrategy::EquivocateAcrossRetriesStrategy(std::uint64_t modulus,
                                                                 std::uint64_t delta)
    : modulus_(modulus), delta_(delta % modulus) {
  if (modulus < 2) {
    throw InvalidArgument("EquivocateAcrossRetriesStrategy: modulus must be >= 2");
  }
  if (delta_ == 0) delta_ = 1;
}

AdversaryAction EquivocateAcrossRetriesStrategy::on_answer(const LinkView& link,
                                                           BytesView honest_answer,
                                                           Coalition& coalition) {
  (void)coalition;
  const LinkEvent* q = link.last_query();
  // Build trust on the first exchange this link sees, deviate afterwards.
  if (q == nullptr || q->ordinal == 0) return AdversaryAction::honest();
  std::optional<Bytes> forged = forge_field_answer(honest_answer, modulus_, delta_);
  if (!forged) return AdversaryAction::drop();
  return AdversaryAction::replace(std::move(*forged));
}

TargetedStraggleStrategy::TargetedStraggleStrategy(std::uint64_t spare_gap_us,
                                                   std::uint64_t straggle_us)
    : spare_gap_us_(spare_gap_us), straggle_us_(straggle_us) {}

AdversaryAction TargetedStraggleStrategy::on_answer(const LinkView& link, BytesView honest_answer,
                                                    Coalition& coalition) {
  (void)honest_answer;
  const LinkEvent* q = link.last_query();
  std::optional<std::uint64_t> earliest = coalition.earliest_last_query_us();
  if (q == nullptr || !earliest) return AdversaryAction::honest();
  // A query dispatched well after the coalition's earliest concurrent one is
  // a hedge spare sent to rescue the attempt; that rescue is what we stall.
  // (Queries that land at the same instant leave us honest.)
  if (q->at_us > *earliest && q->at_us - *earliest > spare_gap_us_) {
    return AdversaryAction::delay(straggle_us_);
  }
  return AdversaryAction::honest();
}

SelectiveFailureStrategy::SelectiveFailureStrategy(Predicate predicate, AdversaryAction on_match)
    : predicate_(std::move(predicate)), on_match_(std::move(on_match)) {
  if (!predicate_) throw InvalidArgument("SelectiveFailureStrategy: null predicate");
}

SelectiveFailureStrategy::Predicate SelectiveFailureStrategy::byte_mask(std::size_t byte_index,
                                                                        std::uint8_t mask) {
  return [byte_index, mask](BytesView query) {
    if (query.empty()) return false;
    return (query[byte_index % query.size()] & mask) != 0;
  };
}

AdversaryAction SelectiveFailureStrategy::on_answer(const LinkView& link, BytesView honest_answer,
                                                    Coalition& coalition) {
  (void)honest_answer;
  (void)coalition;
  const LinkEvent* q = link.last_query();
  bool match = q != nullptr && predicate_(BytesView(q->payload));
  if (!match) {
    misses_++;
    return AdversaryAction::honest();
  }
  matches_++;
  return on_match_;
}

// ---------------------------------------------------------------------------
// Seeded sampling.

const char* strategy_kind_name(StrategyKind kind) {
  switch (kind) {
    case StrategyKind::kConsistentLie:
      return "consistent-lie";
    case StrategyKind::kCrashAtWorstTime:
      return "crash-at-worst-time";
    case StrategyKind::kEquivocateAcrossRetries:
      return "equivocate-across-retries";
    case StrategyKind::kTargetedStraggle:
      return "targeted-straggle";
    case StrategyKind::kSelectiveFailure:
      return "selective-failure";
  }
  return "?";
}

std::shared_ptr<AdversaryStrategy> make_strategy(StrategyKind kind, std::uint64_t modulus,
                                                 crypto::Prg& prg) {
  switch (kind) {
    case StrategyKind::kConsistentLie:
      return std::make_shared<ConsistentLieStrategy>(modulus, 1 + prg.uniform(modulus - 1));
    case StrategyKind::kCrashAtWorstTime:
      return std::make_shared<CrashAtWorstTimeStrategy>(1 + prg.uniform(2));
    case StrategyKind::kEquivocateAcrossRetries:
      return std::make_shared<EquivocateAcrossRetriesStrategy>(modulus,
                                                               1 + prg.uniform(modulus - 1));
    case StrategyKind::kTargetedStraggle:
      return std::make_shared<TargetedStraggleStrategy>(100 + prg.uniform(400),
                                                        2000 + prg.uniform(8000));
    case StrategyKind::kSelectiveFailure: {
      std::size_t byte_index = prg.uniform(64);
      auto mask = static_cast<std::uint8_t>(1u << prg.uniform(8));
      // Kill by silence: a dropped answer is an erasure, the cheapest
      // misbehavior against the unit-budget accounting.
      return std::make_shared<SelectiveFailureStrategy>(
          SelectiveFailureStrategy::byte_mask(byte_index, mask), AdversaryAction::drop());
    }
  }
  throw InvalidArgument("make_strategy: unknown StrategyKind");
}

bool strategy_lies(StrategyKind kind) {
  switch (kind) {
    case StrategyKind::kConsistentLie:
    case StrategyKind::kEquivocateAcrossRetries:
      return true;
    case StrategyKind::kCrashAtWorstTime:
    case StrategyKind::kTargetedStraggle:
    case StrategyKind::kSelectiveFailure:
      return false;
  }
  return true;
}

}  // namespace spfe::net

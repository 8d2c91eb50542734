#include "net/health.h"

#include <algorithm>

namespace spfe::net {

ServerHealthTracker::ServerHealthTracker(std::size_t num_servers) : demerits_(num_servers, 0) {
  if (num_servers == 0) throw InvalidArgument("ServerHealthTracker: need at least one server");
}

void ServerHealthTracker::observe(const RobustnessReport& report) {
  if (report.verdicts.size() != demerits_.size()) {
    throw InvalidArgument("ServerHealthTracker: report covers a different server count");
  }
  ++queries_;
  // Penalties come from *every* attempt, not just the last one: a server
  // caught lying by Berlekamp–Welch on attempt 0 is still a liar when the
  // retry happens to succeed without exposing it, and must not keep its
  // healthy-first send priority. The final attempt is handled below (its
  // verdicts are `report.verdicts`), where recovery credit and latency
  // samples are also taken.
  for (std::size_t a = 0; a + 1 < report.history.size(); ++a) {
    const AttemptRecord& rec = report.history[a];
    if (rec.verdicts.size() != demerits_.size()) {
      throw InvalidArgument("ServerHealthTracker: attempt covers a different server count");
    }
    for (std::size_t s = 0; s < rec.verdicts.size(); ++s) {
      switch (rec.verdicts[s].fate) {
        case ServerFate::kOk:
        case ServerFate::kSpare:
          break;  // recovery is credited from the final verdicts only
        case ServerFate::kUnavailable:
          demerits_[s] += kUnavailableDemerit;
          break;
        case ServerFate::kMalformed:
          demerits_[s] += kMalformedDemerit;
          break;
        case ServerFate::kCorrected:
          demerits_[s] += kCorrectedDemerit;
          break;
      }
    }
  }
  for (std::size_t s = 0; s < report.verdicts.size(); ++s) {
    const ServerReport& v = report.verdicts[s];
    switch (v.fate) {
      case ServerFate::kOk:
        demerits_[s] /= 2;
        break;
      case ServerFate::kUnavailable:
        demerits_[s] += kUnavailableDemerit;
        break;
      case ServerFate::kMalformed:
        demerits_[s] += kMalformedDemerit;
        break;
      case ServerFate::kCorrected:
        demerits_[s] += kCorrectedDemerit;
        break;
      case ServerFate::kSpare:
        break;  // never queried: no evidence either way
    }
    if (v.answer_us > 0) {
      if (latencies_.size() < kLatencyWindow) {
        latencies_.push_back(v.answer_us);
      } else {
        latencies_[latency_next_] = v.answer_us;
        latency_next_ = (latency_next_ + 1) % kLatencyWindow;
      }
    }
  }
}

std::uint64_t ServerHealthTracker::demerits(std::size_t s) const {
  if (s >= demerits_.size()) throw InvalidArgument("ServerHealthTracker: server out of range");
  return demerits_[s];
}

bool ServerHealthTracker::demoted(std::size_t s) const {
  return demerits(s) >= kDemoteThreshold;
}

std::vector<std::size_t> ServerHealthTracker::ranked_order() const {
  std::vector<std::size_t> order(demerits_.size());
  for (std::size_t s = 0; s < order.size(); ++s) order[s] = s;
  std::stable_sort(order.begin(), order.end(), [this](std::size_t a, std::size_t b) {
    return demerits_[a] < demerits_[b];
  });
  return order;
}

std::uint64_t ServerHealthTracker::latency_quantile_us(double q,
                                                       std::uint64_t fallback_us) const {
  if (q <= 0.0 || q > 1.0) {
    throw InvalidArgument("ServerHealthTracker: quantile must be in (0, 1]");
  }
  if (latencies_.empty()) return fallback_us;
  std::vector<std::uint64_t> sorted = latencies_;
  std::sort(sorted.begin(), sorted.end());
  std::size_t rank = static_cast<std::size_t>(q * static_cast<double>(sorted.size()));
  if (rank > 0) --rank;
  return sorted[std::min(rank, sorted.size() - 1)];
}

}  // namespace spfe::net

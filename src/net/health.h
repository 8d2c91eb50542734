// Session-level server-health tracking for long-running query workloads.
//
// A production client doing millions of §4 statistics queries against the
// same k servers should not treat every query as the first: servers that
// keep straggling, crashing, or lying should be *demoted* — moved to the
// back of the send order, where the hedged robust driver (net/robust.h)
// uses them only as spares — and the hedge deadline should track the
// latency the healthy servers actually deliver, not a static guess.
//
// `ServerHealthTracker` consumes the `RobustnessReport` of every finished
// query: each non-ok verdict adds demerits (a corrected lie costs more
// than a crash — a liar is adversarial, a crash is weather), each ok
// verdict halves them (flaky-then-recovered servers work their way back),
// and each answered verdict contributes its virtual-time answer latency to
// a bounded sample window. Everything is deterministic: same report
// sequence, same ranking, same quantiles.
#pragma once

#include <cstdint>
#include <vector>

#include "net/robust.h"

namespace spfe::net {

class ServerHealthTracker {
 public:
  // Demerit tariff (see class comment for the rationale).
  static constexpr std::uint64_t kUnavailableDemerit = 4;
  static constexpr std::uint64_t kMalformedDemerit = 6;
  static constexpr std::uint64_t kCorrectedDemerit = 8;

  explicit ServerHealthTracker(std::size_t num_servers);

  std::size_t num_servers() const { return demerits_.size(); }

  // Folds one finished query's report into the session state: demerit
  // penalties from every attempt in `report.history` (a lie caught on an
  // early attempt counts even when the retry succeeded; reports without
  // history fall back to the final verdicts), recovery credit and latency
  // samples from the final-attempt verdicts. Reports for a different
  // server count are rejected.
  void observe(const RobustnessReport& report);

  std::uint64_t demerits(std::size_t s) const;
  bool demoted(std::size_t s) const;
  std::size_t queries_observed() const { return queries_; }

  // Healthy-first send order: ascending demerits, server index as the
  // deterministic tie-break. The robust driver sends queries to the first
  // k - h servers and holds the (least healthy) tail as hedge spares.
  std::vector<std::size_t> ranked_order() const;

  // Nearest-rank quantile of the observed answer latencies (virtual us),
  // or `fallback_us` while no answer has been observed yet. Feeds the
  // hedge deadline: dispatch spares once a straggler exceeds what the
  // q-quantile of past answers took.
  std::uint64_t latency_quantile_us(double q, std::uint64_t fallback_us) const;

 private:
  // Demerits at which a server counts as demoted.
  static constexpr std::uint64_t kDemoteThreshold = 8;
  // Answer-latency samples kept for the hedge-deadline quantile.
  static constexpr std::size_t kLatencyWindow = 1024;

  std::size_t queries_ = 0;
  std::vector<std::uint64_t> demerits_;
  std::vector<std::uint64_t> latencies_;  // ring buffer of answer_us samples
  std::size_t latency_next_ = 0;          // ring write cursor
};

}  // namespace spfe::net

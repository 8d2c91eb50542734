// Byzantine/crash-tolerant client driver for the one-round star protocols,
// clocked in virtual time over a net::SimStarNetwork (deadlines, seeded
// exponential backoff, hedged queries).
//
// All §3.1-style protocols share one shape: the client sends k independent
// queries, every server replies with one point of a degree-d polynomial, and
// the client interpolates at 0. `run_robust_star` runs that exchange against
// an unreliable network: servers that time out (`ServerUnavailable`) or send
// unparseable answers become *erasures*; the surviving points go through
// Berlekamp–Welch, which additionally corrects up to floor((s-d-1)/2) silent
// lies among s survivors. A client provisioned with k >= d + 1 + 2e + c
// servers therefore tolerates any mix of <= e corruptions and <= c crashes
// (a crash or a caught liar costs one point, a silent lie costs two).
//
// If an attempt is not decodable the client retries with *fresh randomness*
// (new curve, new SPIR mask seed — query points are never reused, so the
// privacy of the retrieved index is preserved across retries; see DESIGN.md
// "Fault model and robust reconstruction"). After `max_attempts` the driver
// throws `RobustProtocolError` carrying a `RobustnessReport` with the full
// per-attempt verdict history — never a wrong value, never a hang, as long
// as at most `RobustConfig::byzantine_budget` servers lie.
//
// Timing (`RobustConfig::timing`):
//   * every attempt gets a virtual-time deadline; answers still in flight
//     when it expires are deadline misses, not mystery hangs;
//   * retries wait out a seeded exponential backoff (with jitter) in
//     virtual time before re-querying;
//   * hedged queries: of the k provisioned servers only k - h *primaries*
//     are queried up front; when a primary straggles past the hedge
//     deadline (a latency quantile, see net/health.h), the driver
//     speculatively dispatches the *fresh, independent* query points it
//     already generated for up to h spare servers and decodes from
//     whichever answers land first. Every server still sees at most one
//     point of the attempt's degree-t curve, so t-privacy is untouched
//     (see DESIGN.md "Time, deadlines, and hedging").
// Over a fault-free zero-latency `SimStarNetwork(k, SimConfig{})` with
// hedging off, the exchange is byte-identical to the plain protocol run.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "common/error.h"
#include "crypto/prg.h"
#include "field/fp64.h"
#include "net/network.h"
#include "net/sim.h"

namespace spfe::net {

enum class ServerFate : std::uint8_t {
  kOk,           // answered; answer lay on the decoded polynomial
  kUnavailable,  // crashed / dropped / delayed past the deadline (erasure)
  kMalformed,    // rejected the query or sent an unparseable answer (erasure)
  kCorrected,    // answered in-field but off-polynomial (a corrected lie)
  kSpare,        // held in reserve as a hedge spare; never queried
};

const char* server_fate_name(ServerFate fate);

// *Why* a server earned its fate — the culpability axis the fate alone
// conflates: kUnavailable covers both a crashed channel (nothing will ever
// arrive) and a straggler (the answer is in flight but late), and both
// kMalformed and kCorrected are evidence of a lying server. Operators page
// on byzantine, wait out stragglers, and replace crashes; the health
// tracker (net/health.h) prices the three differently.
enum class Blame : std::uint8_t {
  kNone,       // ok, or held in reserve: no evidence against the server
  kByzantine,  // caught lying: off-polynomial answer, unparseable answer,
               // or a rejected query on a channel that delivered it
  kCrashed,    // silent: nothing in flight when the client gave up
  kStraggler,  // slow: an answer was in flight but missed a deadline
};

const char* blame_name(Blame blame);

struct ServerReport {
  ServerFate fate = ServerFate::kOk;
  std::string detail;
  // Virtual-time answer latency (receive - attempt start), 0 when the
  // answer never arrived.
  std::uint64_t answer_us = 0;
  Blame blame = Blame::kNone;
};

// One attempt's complete outcome, kept so a failed run is diagnosable from
// the terminal error alone: which servers failed *each* time, not just the
// last time.
struct AttemptRecord {
  std::size_t attempt = 0;
  std::vector<ServerReport> verdicts;
  std::string failure_reason;  // empty when the attempt decoded
  std::uint64_t started_us = 0;  // virtual time
  std::uint64_t ended_us = 0;

  std::string summary() const;
};

// Diagnostic attached to every robust run (and to the terminal error):
// which servers were excluded and why, what the decoding cost, and the
// verdicts of every attempt along the way.
struct RobustnessReport {
  bool success = false;
  std::size_t attempts = 0;
  std::size_t servers = 0;
  std::size_t erasures = 0;          // final attempt: queried but unusable
  std::size_t errors_corrected = 0;  // final attempt: off-polynomial answers
  std::vector<ServerReport> verdicts;  // final attempt, one per server
  std::string failure_reason;          // empty on success
  std::vector<AttemptRecord> history;  // one record per attempt, in order
  // Virtual time from the first attempt's start to the decode (or to the
  // terminal failure).
  std::uint64_t completion_us = 0;

  std::string summary() const;
};

// Virtual-time availability policy of one robust run.
struct TimingPolicy {
  // Per-attempt deadline: answers not decodable by then fail the attempt.
  std::uint64_t attempt_timeout_us = 20'000;
  // Hedge trigger: a primary that has not answered this long after the
  // queries went out is a straggler, and spares are dispatched. Set from a
  // latency quantile when history exists (ServerHealthTracker). 0 disables
  // hedging.
  std::uint64_t hedge_timeout_us = 0;
  // Servers held back as hedge spares (h of the k provisioned).
  std::size_t hedge_spares = 0;
  // Seeded exponential backoff between attempts: wait
  // min(base * 2^(attempt-1), max) plus uniform jitter of up to
  // jitter_permille/1000 of the wait.
  std::uint64_t backoff_base_us = 1'000;
  std::uint64_t backoff_max_us = 32'000;
  std::uint32_t backoff_jitter_permille = 500;
  crypto::Prg::Seed backoff_seed{};
  // Send order: the first k - h entries are primaries, the tail the hedge
  // spares (healthy-first from ServerHealthTracker::ranked_order()).
  // Empty = identity. Must be a permutation of 0..k-1.
  std::vector<std::size_t> send_order;
};

struct RobustConfig {
  // Query rounds before giving up (>= 1). Each retry re-randomizes.
  std::size_t max_attempts = 3;
  // Silent-lie budget e: a decode is trusted only at decode_quorum(d, e, b)
  // usable answers, because Berlekamp–Welch on s points corrects just
  // floor((s-d-1)/2) lies — at the bare d+1 quorum a single lie decodes to
  // a consistent wrong polynomial. The never-wrong guarantee holds only
  // when this is the e used to provision k = d + 1 + 2e + c + spares.
  std::size_t byzantine_budget = 0;
  TimingPolicy timing;
};

// Servers to provision so degree-`degree` decoding survives <= `byzantine`
// silent lies and <= `crashes` crash faults, with `spares` extra servers
// held back for hedging.
constexpr std::size_t provisioned_servers(std::size_t degree, std::size_t byzantine,
                                          std::size_t crashes, std::size_t spares = 0) {
  return degree + 1 + 2 * byzantine + crashes + spares;
}

// Usable answers an in-attempt decode waits for: d + 1 + 2(e - min(e, b))
// for the silent-lie budget e (`byzantine`) and the b (`caught`) servers
// already blamed kByzantine this attempt (a malformed answer or a rejected
// query). A caught liar is an erasure — it costs one point, not the two a
// silent lie costs — so each one frees two points of correction slack.
constexpr std::size_t decode_quorum(std::size_t degree, std::size_t byzantine,
                                    std::size_t caught) {
  return degree + 1 + 2 * (byzantine - std::min(byzantine, caught));
}

class RobustProtocolError : public ProtocolError {
 public:
  RobustProtocolError(const std::string& what, RobustnessReport report)
      : ProtocolError(what + "\n" + report.summary()), report_(std::move(report)) {}

  const RobustnessReport& report() const { return report_; }

 private:
  RobustnessReport report_;
};

// A robust run's result: the honest protocol output plus the diagnostic.
struct RobustResult {
  std::uint64_t value = 0;
  RobustnessReport report;
};

// Discards every queued message so `net.idle()` holds again. Over a
// SimStarNetwork the abandoned messages are discarded without moving the
// clock (the client does not wait for answers it no longer wants).
void drain_star_network(StarNetwork& net);

// The SPIR mask seed every server uses in `attempt`: attempt 0 keeps
// `spir_seed` itself (so a fault-free robust transcript matches the plain
// run byte for byte), and each retry forks a fresh one so masks are never
// reused across query curves. Nullopt when the run has no SPIR seed.
std::optional<crypto::Prg::Seed> attempt_spir_seed(
    const std::optional<crypto::Prg::Seed>& spir_seed, std::size_t attempt);

namespace detail {

// Backoff wait for retry `attempt` (>= 1): exponential with seeded jitter.
std::uint64_t backoff_wait_us(const TimingPolicy& tp, std::size_t attempt);

// Validated send order: identity when unset.
std::vector<std::size_t> resolve_send_order(const TimingPolicy& tp, std::size_t k);

// Re-ranks `order` by the blame a failed attempt assigned: unblamed servers
// first, then stragglers, then crashed, then caught liars — so a retry's
// primaries (the head of the order) and hedge spares are drawn from
// honest-looking replicas before servers with evidence against them. The
// sort is stable: within one blame class the incoming (healthy-first)
// order is preserved.
std::vector<std::size_t> deprioritize_blamed(const std::vector<std::size_t>& order,
                                             const std::vector<ServerReport>& verdicts);

}  // namespace detail

// Runs one robust exchange. Callbacks:
//   make_queries(attempt, abscissae_out) -> k query messages; must use fresh
//       randomness each attempt and record each server's abscissa;
//   server_eval(server, attempt, query) -> answer bytes; a thrown spfe::Error
//       means the server rejected the (possibly mangled) query;
//   parse_answer(answer) -> field value; a thrown spfe::Error marks the
//       answer malformed (an erasure, not a decoding input).
// Returns the polynomial's value at 0 and the report. Throws
// RobustProtocolError when no attempt decodes.
RobustResult run_robust_star(
    const field::Fp64& field, SimStarNetwork& net, std::size_t degree, const RobustConfig& cfg,
    const std::function<std::vector<Bytes>(std::size_t attempt,
                                           std::vector<std::uint64_t>& abscissae)>& make_queries,
    const std::function<Bytes(std::size_t server, std::size_t attempt, Bytes query)>& server_eval,
    const std::function<std::uint64_t(const Bytes& answer)>& parse_answer);

}  // namespace spfe::net

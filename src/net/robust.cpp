#include "net/robust.h"

#include <algorithm>

#include "field/reed_solomon.h"
#include "obs/obs.h"

namespace spfe::net {

const char* server_fate_name(ServerFate fate) {
  switch (fate) {
    case ServerFate::kOk:
      return "ok";
    case ServerFate::kUnavailable:
      return "unavailable";
    case ServerFate::kMalformed:
      return "malformed";
    case ServerFate::kCorrected:
      return "corrected";
    case ServerFate::kSpare:
      return "spare";
  }
  return "?";
}

const char* blame_name(Blame blame) {
  switch (blame) {
    case Blame::kNone:
      return "none";
    case Blame::kByzantine:
      return "byzantine";
    case Blame::kCrashed:
      return "crashed";
    case Blame::kStraggler:
      return "straggler";
  }
  return "?";
}

namespace {

void append_verdict_lines(std::string& out, const std::vector<ServerReport>& verdicts,
                          const char* indent) {
  for (std::size_t s = 0; s < verdicts.size(); ++s) {
    if (verdicts[s].fate == ServerFate::kOk) continue;
    out += "\n";
    out += indent;
    out += "server " + std::to_string(s) + ": " + server_fate_name(verdicts[s].fate);
    if (verdicts[s].blame != Blame::kNone) {
      out += " blame=" + std::string(blame_name(verdicts[s].blame));
    }
    if (!verdicts[s].detail.empty()) out += " (" + verdicts[s].detail + ")";
    if (verdicts[s].answer_us > 0) {
      out += " [answer at +" + std::to_string(verdicts[s].answer_us) + "us]";
    }
  }
}

}  // namespace

std::string AttemptRecord::summary() const {
  std::string out = "attempt " + std::to_string(attempt) + ": ";
  out += failure_reason.empty() ? "decoded" : failure_reason;
  if (ended_us > started_us) {
    out += " [" + std::to_string(started_us) + "us..+" + std::to_string(ended_us - started_us) +
           "us]";
  }
  append_verdict_lines(out, verdicts, "    ");
  return out;
}

std::string RobustnessReport::summary() const {
  std::string out = success ? "robust run succeeded" : "robust run FAILED";
  out += " after " + std::to_string(attempts) + " attempt(s): " + std::to_string(servers) +
         " servers, " + std::to_string(erasures) + " erasure(s), " +
         std::to_string(errors_corrected) + " corrected error(s)";
  if (completion_us > 0) out += ", " + std::to_string(completion_us) + "us virtual time";
  if (!failure_reason.empty()) out += "; " + failure_reason;
  append_verdict_lines(out, verdicts, "  ");
  // Earlier attempts (the final attempt's verdicts are already shown above).
  if (history.size() > 1) {
    for (std::size_t i = 0; i + 1 < history.size(); ++i) {
      out += "\n  " + history[i].summary();
    }
  }
  return out;
}

void drain_star_network(StarNetwork& net) {
  // A clocked network discards abandoned traffic without waiting for it —
  // flushing through timed receives would charge the client virtual time
  // for answers it no longer wants.
  if (auto* sim = dynamic_cast<SimStarNetwork*>(&net)) {
    sim->discard_in_flight();
    return;
  }
  for (std::size_t s = 0; s < net.num_servers(); ++s) {
    while (net.server_has_message(s)) net.server_receive(s);
    while (net.client_has_message(s)) net.client_receive(s);
  }
}

std::optional<crypto::Prg::Seed> attempt_spir_seed(
    const std::optional<crypto::Prg::Seed>& spir_seed, std::size_t attempt) {
  if (!spir_seed.has_value() || attempt == 0) return spir_seed;
  return crypto::Prg(*spir_seed).fork_seed("robust-retry-" + std::to_string(attempt));
}

namespace detail {

std::uint64_t backoff_wait_us(const TimingPolicy& tp, std::size_t attempt) {
  std::uint64_t wait = tp.backoff_base_us;
  for (std::size_t i = 1; i < attempt && wait < tp.backoff_max_us; ++i) {
    wait *= 2;
  }
  wait = std::min(wait, tp.backoff_max_us);
  const std::uint64_t jitter_cap =
      wait / 1000 * tp.backoff_jitter_permille +
      wait % 1000 * tp.backoff_jitter_permille / 1000;
  if (jitter_cap == 0) return wait;
  crypto::Prg prg(tp.backoff_seed);
  return wait + prg.fork("backoff-" + std::to_string(attempt)).uniform(jitter_cap + 1);
}

std::vector<std::size_t> resolve_send_order(const TimingPolicy& tp, std::size_t k) {
  if (tp.send_order.empty()) {
    std::vector<std::size_t> order(k);
    for (std::size_t s = 0; s < k; ++s) order[s] = s;
    return order;
  }
  if (tp.send_order.size() != k) {
    throw InvalidArgument("TimingPolicy: send_order must cover every server");
  }
  std::vector<char> seen(k, 0);
  for (const std::size_t s : tp.send_order) {
    if (s >= k || seen[s] != 0) {
      throw InvalidArgument("TimingPolicy: send_order must be a permutation of 0..k-1");
    }
    seen[s] = 1;
  }
  return tp.send_order;
}

std::vector<std::size_t> deprioritize_blamed(const std::vector<std::size_t>& order,
                                             const std::vector<ServerReport>& verdicts) {
  // Culpability rank: no evidence < slow < silent < caught lying. A liar is
  // the worst retry candidate — it *will* spend error budget again — while
  // a straggler may simply have been unlucky.
  const auto rank = [&](std::size_t s) -> int {
    if (s >= verdicts.size()) return 0;
    switch (verdicts[s].blame) {
      case Blame::kNone:
        return 0;
      case Blame::kStraggler:
        return 1;
      case Blame::kCrashed:
        return 2;
      case Blame::kByzantine:
        return 3;
    }
    return 0;
  };
  std::vector<std::size_t> out = order;
  std::stable_sort(out.begin(), out.end(),
                   [&](std::size_t a, std::size_t b) { return rank(a) < rank(b); });
  return out;
}

}  // namespace detail

RobustResult run_robust_star(
    const field::Fp64& field, SimStarNetwork& net, std::size_t degree, const RobustConfig& cfg,
    const std::function<std::vector<Bytes>(std::size_t attempt,
                                           std::vector<std::uint64_t>& abscissae)>& make_queries,
    const std::function<Bytes(std::size_t server, std::size_t attempt, Bytes query)>& server_eval,
    const std::function<std::uint64_t(const Bytes& answer)>& parse_answer) {
  if (cfg.max_attempts == 0) {
    throw InvalidArgument("run_robust_star: max_attempts must be >= 1");
  }
  const std::size_t k = net.num_servers();
  const TimingPolicy& tp = cfg.timing;
  const std::size_t full_quorum = decode_quorum(degree, cfg.byzantine_budget, 0);
  if (k < full_quorum) {
    throw InvalidArgument("run_robust_star: fewer servers than the decode quorum needs");
  }
  std::vector<std::size_t> order = detail::resolve_send_order(tp, k);
  // Hedging never cuts the primaries below the decode quorum.
  const std::size_t spares =
      tp.hedge_timeout_us == 0 ? 0 : std::min(tp.hedge_spares, k - full_quorum);
  const bool hedging = spares > 0;
  const std::size_t num_primaries = k - spares;
  const std::uint64_t session_start_us = net.clock().now_us();

  RobustnessReport report;
  report.servers = k;

  // One server's full exchange on the server side; failures become verdicts.
  const auto server_phase = [&](std::size_t s, std::size_t attempt) {
    try {
      Bytes query = net.server_receive(s);
      Bytes ans = server_eval(s, attempt, std::move(query));
      net.server_send(s, std::move(ans));
    } catch (const DeadlineMiss& e) {
      report.verdicts[s] = {ServerFate::kUnavailable, e.what(), 0, Blame::kStraggler};
    } catch (const ServerUnavailable& e) {
      report.verdicts[s] = {ServerFate::kUnavailable, e.what(), 0, Blame::kCrashed};
    } catch (const Error& e) {
      // The channel delivered a query this server refused: either the wire
      // corrupted it or the server is lying about it — blamed on the server,
      // matching how FaultPlan::random charges query corruption to its
      // byzantine set.
      report.verdicts[s] = {ServerFate::kMalformed,
                            std::string("server rejected query: ") + e.what(), 0,
                            Blame::kByzantine};
    }
    // A duplicated query is never read: it is discarded with everything
    // else still in flight when the attempt ends.
  };

  for (std::size_t attempt = 0; attempt < cfg.max_attempts; ++attempt) {
    obs::Span attempt_span("robust.attempt");
    attempt_span.note("attempt=" + std::to_string(attempt));
    if (attempt > 0) {
      obs::count(obs::Op::kRobustRetry);
      const std::uint64_t wait = detail::backoff_wait_us(tp, attempt);
      net.clock().advance_by(wait);
      obs::count(obs::Op::kBackoffWait);
      attempt_span.note("backoff_us=" + std::to_string(wait));
      // Stale in-flight answers from the previous attempt are abandoned
      // without waiting for them.
      net.discard_in_flight();
      // Retries learn from the failed attempt's blame: servers caught lying
      // or crashed go to the back of the order, so this attempt's primaries
      // and hedge spares come from honest-looking replicas first.
      order = detail::deprioritize_blamed(order, report.history.back().verdicts);
    }
    report.attempts = attempt + 1;
    report.verdicts.assign(k, ServerReport{});
    AttemptRecord rec;
    rec.attempt = attempt;
    rec.started_us = net.clock().now_us();
    const std::uint64_t attempt_deadline = rec.started_us + tp.attempt_timeout_us;

    std::vector<std::uint64_t> abscissae;
    const std::vector<Bytes> queries = make_queries(attempt, abscissae);
    if (queries.size() != k || abscissae.size() != k) {
      throw InvalidArgument("run_robust_star: make_queries must cover every server");
    }

    std::vector<std::uint64_t> xs, ys;
    std::vector<std::size_t> owners;
    std::vector<char> collected(k, 0);
    std::optional<std::uint64_t> value;

    // Collects one answer; on a parse failure sets the malformed verdict.
    // On a timeout, `timeout_blame` says whether the answer is merely late
    // (in flight past the deadline) or will never come (crashed channel).
    enum class Collect { kGot, kTimeout, kBad };
    const auto collect = [&](std::size_t s, std::string* timeout_detail,
                             Blame* timeout_blame) -> Collect {
      try {
        const Bytes answer = net.client_receive(s);
        const std::uint64_t y = parse_answer(answer);
        xs.push_back(abscissae[s]);
        ys.push_back(y);
        owners.push_back(s);
        collected[s] = 1;
        report.verdicts[s].answer_us = net.last_delivery_us() - rec.started_us;
        return Collect::kGot;
      } catch (const DeadlineMiss& e) {
        if (timeout_detail != nullptr) *timeout_detail = e.what();
        if (timeout_blame != nullptr) *timeout_blame = Blame::kStraggler;
        return Collect::kTimeout;
      } catch (const ServerUnavailable& e) {
        if (timeout_detail != nullptr) *timeout_detail = e.what();
        if (timeout_blame != nullptr) *timeout_blame = Blame::kCrashed;
        return Collect::kTimeout;
      } catch (const Error& e) {
        report.verdicts[s] = {ServerFate::kMalformed,
                              std::string("unparseable answer: ") + e.what(), 0,
                              Blame::kByzantine};
        return Collect::kBad;
      }
    };
    // The decode quorum so far: servers caught lying this attempt are
    // erasures and lower it (see decode_quorum).
    const auto quorum = [&]() {
      const auto caught = static_cast<std::size_t>(
          std::count_if(report.verdicts.begin(), report.verdicts.end(),
                        [](const ServerReport& v) { return v.blame == Blame::kByzantine; }));
      return decode_quorum(degree, cfg.byzantine_budget, caught);
    };
    const auto try_decode = [&]() {
      if (value.has_value() || xs.size() < quorum()) return;
      const auto decoding = field::decode_with_erasures(field, xs, ys, degree);
      if (!decoding.has_value()) return;
      for (const std::size_t i : decoding->error_positions()) {
        report.verdicts[owners[i]] = {ServerFate::kCorrected,
                                      "answer did not lie on the decoded polynomial",
                                      report.verdicts[owners[i]].answer_us, Blame::kByzantine};
      }
      report.errors_corrected = decoding->num_errors();
      value = decoding->eval(field, field.zero());
    };

    // Queries go to the primaries; spares keep their (already generated,
    // never reused) points in reserve.
    for (std::size_t i = 0; i < num_primaries; ++i) net.client_send(order[i], queries[order[i]]);
    for (std::size_t i = 0; i < num_primaries; ++i) server_phase(order[i], attempt);

    // Pass 1: primaries, against the hedge deadline (or the full attempt
    // deadline when hedging is off).
    const std::uint64_t hedge_deadline =
        hedging ? std::min(attempt_deadline, rec.started_us + tp.hedge_timeout_us)
                : attempt_deadline;
    net.set_deadline(hedge_deadline);
    std::vector<std::size_t> stragglers;
    for (std::size_t i = 0; i < num_primaries; ++i) {
      const std::size_t s = order[i];
      if (report.verdicts[s].fate != ServerFate::kOk) continue;
      std::string detail_msg;
      Blame timeout_blame = Blame::kCrashed;
      if (collect(s, &detail_msg, &timeout_blame) == Collect::kTimeout) {
        if (hedging) {
          stragglers.push_back(s);  // the hedge may still beat it
        } else {
          report.verdicts[s] = {ServerFate::kUnavailable, detail_msg, 0, timeout_blame};
        }
      }
    }
    try_decode();

    // Hedge dispatch: enough spares to cover the stragglers (or the quorum
    // deficit left by malformed primaries), spending the points already
    // generated for the spares (fresh and independent — never a reuse).
    std::vector<std::size_t> dispatched;
    const std::size_t need = quorum();
    const std::size_t quorum_deficit = xs.size() < need ? need - xs.size() : 0;
    const std::size_t hedges_wanted = std::max(stragglers.size(), quorum_deficit);
    if (!value.has_value() && hedging && hedges_wanted > 0) {
      for (std::size_t i = num_primaries; i < k && dispatched.size() < hedges_wanted;
           ++i) {
        const std::size_t s = order[i];
        net.client_send(s, queries[s]);
        obs::count(obs::Op::kHedgeSent);
        server_phase(s, attempt);
        dispatched.push_back(s);
      }
      attempt_span.note("hedged=" + std::to_string(dispatched.size()) +
                        " stragglers=" + std::to_string(stragglers.size()));

      // Wave A: the freshly dispatched spares get their own hedge window —
      // a straggling spare must not stall the quorum either.
      net.set_deadline(std::min(attempt_deadline, net.clock().now_us() + tp.hedge_timeout_us));
      std::vector<std::size_t> pending_spares;
      for (const std::size_t s : dispatched) {
        if (report.verdicts[s].fate != ServerFate::kOk) continue;
        if (value.has_value()) break;
        const Collect got = collect(s, nullptr, nullptr);
        if (got == Collect::kTimeout) {
          pending_spares.push_back(s);
          continue;
        }
        if (got == Collect::kGot) obs::count(obs::Op::kHedgeWon);
        try_decode();  // a malformed spare lowers the quorum too
      }

      // Wave B: still short of a decode — escalate to the attempt deadline,
      // draining the still-owed answers in arrival order (an event-driven
      // client wakes on whichever lands first; a fixed escalation order
      // would block head-of-line on one straggler while a faster answer
      // sits ready).
      net.set_deadline(attempt_deadline);
      std::vector<std::size_t> waiting = pending_spares;
      for (const std::size_t s : stragglers) {
        if (collected[s] == 0 && report.verdicts[s].fate == ServerFate::kOk) {
          waiting.push_back(s);
        }
      }
      while (!value.has_value() && !waiting.empty()) {
        const std::size_t pos = net.earliest_client_ready(waiting).value_or(0);
        const std::size_t s = waiting[pos];
        waiting.erase(waiting.begin() + static_cast<std::ptrdiff_t>(pos));
        std::string detail_msg;
        Blame timeout_blame = Blame::kCrashed;
        const Collect got = collect(s, &detail_msg, &timeout_blame);
        if (got == Collect::kTimeout) {
          report.verdicts[s] = {ServerFate::kUnavailable, detail_msg, 0, timeout_blame};
          continue;
        }
        if (got == Collect::kGot &&
            std::find(stragglers.begin(), stragglers.end(), s) == stragglers.end()) {
          obs::count(obs::Op::kHedgeWon);
        }
        try_decode();
      }
    }

    // Final bookkeeping for everything still unresolved. Servers abandoned
    // once the quorum was in were never observed crashed — their answers may
    // still be in flight, so the blame stays "straggler".
    for (const std::size_t s : stragglers) {
      if (collected[s] != 0 || report.verdicts[s].fate != ServerFate::kOk) continue;
      report.verdicts[s] = {ServerFate::kUnavailable,
                            value.has_value()
                                ? "straggler abandoned: quorum reached without it"
                                : "no usable answer before the attempt deadline",
                            0, Blame::kStraggler};
    }
    for (const std::size_t s : dispatched) {
      if (collected[s] != 0 || report.verdicts[s].fate != ServerFate::kOk) continue;
      report.verdicts[s] = {ServerFate::kUnavailable,
                            value.has_value()
                                ? "hedge answer abandoned: quorum reached without it"
                                : "hedge answer missed the attempt deadline",
                            0, Blame::kStraggler};
    }
    for (std::size_t i = num_primaries; i < k; ++i) {
      const std::size_t s = order[i];
      if (std::find(dispatched.begin(), dispatched.end(), s) == dispatched.end()) {
        report.verdicts[s] = {ServerFate::kSpare, "held in reserve; never queried"};
      }
    }
    net.set_deadline(SimStarNetwork::kNoDeadline);
    rec.ended_us = net.clock().now_us();

    const std::size_t queried = num_primaries + dispatched.size();
    if (value.has_value()) {
      report.success = true;
      report.erasures = queried - xs.size();
      report.failure_reason.clear();
      report.completion_us = rec.ended_us - session_start_us;
      rec.verdicts = report.verdicts;
      report.history.push_back(std::move(rec));
      attempt_span.note("ok erasures=" + std::to_string(report.erasures) +
                        " corrected=" + std::to_string(report.errors_corrected) +
                        " completion_us=" + std::to_string(report.completion_us));
      net.discard_in_flight();
      return RobustResult{*value, std::move(report)};
    }
    if (xs.size() >= quorum()) {
      report.failure_reason = "surviving answers not within the correctable error budget (" +
                              std::to_string(xs.size()) + " of " + std::to_string(queried) +
                              " queried usable, degree " + std::to_string(degree) + ")";
    } else {
      report.failure_reason = "only " + std::to_string(xs.size()) + " of " +
                              std::to_string(queried) +
                              " queried answers usable before the deadline; the decode "
                              "quorum needs " +
                              std::to_string(quorum());
    }
    rec.failure_reason = report.failure_reason;
    rec.verdicts = report.verdicts;
    report.history.push_back(std::move(rec));
    attempt_span.note("failed: " + report.failure_reason);
  }

  report.success = false;
  report.completion_us = net.clock().now_us() - session_start_us;
  net.discard_in_flight();
  RobustnessReport thrown = report;
  throw RobustProtocolError("robust protocol failed after " + std::to_string(report.attempts) +
                                " attempt(s)",
                            std::move(thrown));
}

}  // namespace spfe::net

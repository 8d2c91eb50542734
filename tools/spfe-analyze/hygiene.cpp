// Pass 3 — protocol-hygiene lints.
//
// (a) deser-unbounded-count: inside any function that parses wire data
// through `Reader`, an element count read from the wire (`varint()`,
// `u64()`, ...) is adversarial until it flows through
// `Reader::varint_count(min_item_bytes)` (which caps it against the
// remaining buffer) or an explicit comparison guard that throws. An
// unsanitized count reaching `resize` / `reserve` / `assign`, a
// container-size constructor, or a `for`/`while` loop bound is the PR 6
// regression class: a 2^60 count driving an allocation or spin before
// the truncated-buffer error surfaces.
//
// (b) unmetered-io: every byte on the wire must cross the CommStats-
// metered StarNetwork API. OS socket calls anywhere in the tree, and
// access to the network queue internals (`to_server_` / `to_client_` /
// `meter_send`) outside src/net/, bypass the meter (and the fault
// injector) and are rejected.
//
// (c) wall-clock: protocol code must take time from `net::SimClock` (or not
// at all) so that every run replays deterministically under the
// virtual-time simulation (net/sim.h). A `std::chrono::*_clock::now()`
// read or a free call into the POSIX time family outside src/net/ makes
// behaviour depend on the host scheduler — deadlines, backoff, and
// hedging decisions would stop being reproducible from the seeds.
#include <unordered_set>

#include "analyzer.h"

namespace spfe::analyze {

namespace {

// Wire-read accessors that yield adversarial counts.
const std::unordered_set<std::string>& wire_read_names() {
  static const std::unordered_set<std::string> kSet = {"varint", "u64", "u32", "u16", "u8"};
  return kSet;
}

// Sinks where an unbounded count controls allocation size.
const std::unordered_set<std::string>& alloc_sink_names() {
  static const std::unordered_set<std::string> kSet = {"resize", "reserve", "assign"};
  return kSet;
}

// Container types whose size-taking constructors are allocation sinks.
const std::unordered_set<std::string>& sized_container_names() {
  static const std::unordered_set<std::string> kSet = {
      "vector", "string", "basic_string", "deque", "list", "Bytes",
  };
  return kSet;
}

// POSIX socket family; `send`/`recv` count only as free calls — the
// metered API exposes them as methods.
const std::unordered_set<std::string>& socket_call_names() {
  static const std::unordered_set<std::string> kSet = {
      "socket", "connect", "bind", "listen", "accept",
      "send", "recv", "sendto", "recvfrom", "setsockopt", "getsockopt",
  };
  return kSet;
}

const std::unordered_set<std::string>& net_internal_names() {
  static const std::unordered_set<std::string> kSet = {"to_server_", "to_client_",
                                                       "meter_send"};
  return kSet;
}

// std::chrono clock types whose ::now() is a wall-clock read.
const std::unordered_set<std::string>& chrono_clock_names() {
  static const std::unordered_set<std::string> kSet = {
      "steady_clock", "system_clock", "high_resolution_clock",
  };
  return kSet;
}

// POSIX time family; free calls only (`clock` is omitted on purpose —
// `SimStarNetwork::clock()` accessors would collide).
const std::unordered_set<std::string>& time_call_names() {
  static const std::unordered_set<std::string> kSet = {
      "time", "gettimeofday", "clock_gettime", "timespec_get",
  };
  return kSet;
}

bool is_comparison(const Token& t) {
  if (t.kind != Token::Kind::kPunct) return false;
  static const std::unordered_set<std::string> kOps = {"==", "!=", "<", ">", "<=", ">="};
  return kOps.count(t.text) > 0;
}

// Per-function deserialization-bounds check.
class DeserChecker {
 public:
  DeserChecker(const SourceFile& sf, const FunctionInfo& fn)
      : t_(sf.toks), ub_(fn.begin), ue_(fn.end) {}

  struct Hit {
    int line;
    std::string message;
  };

  std::vector<Hit> run() {
    find_readers();
    if (readers_.empty()) return {};
    seed_counts();
    if (unbounded_.empty()) return {};
    propagate();
    apply_guards();
    if (unbounded_.empty()) return {};
    std::vector<Hit> hits;
    find_sinks(hits);
    return hits;
  }

 private:
  // `Reader r(...)` declarations and `Reader& r` parameters.
  void find_readers() {
    for (std::size_t i = ub_; i + 1 < ue_; ++i) {
      if (!is_ident(t_, i, "Reader")) continue;
      std::size_t j = i + 1;
      while (is_punct(t_, j, "&") || is_punct(t_, j, "*") || is_ident(t_, j, "const")) ++j;
      if (is_ident(t_, j)) readers_.insert(t_[j].text);
    }
  }

  // True when [b, e) contains `<reader>.<method>(` for any method in
  // `methods`.
  bool span_has_read(std::size_t b, std::size_t e,
                     const std::unordered_set<std::string>& methods) const {
    for (std::size_t i = std::max(b, ub_); i + 2 < e && i + 2 < ue_; ++i) {
      if (!is_ident(t_, i) || readers_.count(t_[i].text) == 0) continue;
      if (!is_punct(t_, i + 1, ".") && !is_punct(t_, i + 1, "->")) continue;
      if (is_ident(t_, i + 2) && methods.count(t_[i + 2].text) > 0 &&
          is_punct(t_, i + 3, "(")) {
        return true;
      }
    }
    return false;
  }

  bool span_has_unbounded(std::size_t b, std::size_t e, std::string& name) const {
    for (std::size_t i = std::max(b, ub_); i < e && i < ue_; ++i) {
      if (is_ident(t_, i) && unbounded_.count(t_[i].text) > 0) {
        name = t_[i].text;
        return true;
      }
    }
    return false;
  }

  std::string assigned_name(std::size_t op) const {
    std::size_t p = op;
    while (p > ub_) {
      --p;
      if (is_ident(t_, p)) return t_[p].text;
      if (is_punct(t_, p, ")") || is_punct(t_, p, "]")) {
        const std::size_t o = match_open(t_, p, ub_);
        if (o == p) return "";
        p = o;
        continue;
      }
      return "";
    }
    return "";
  }

  // Wire reads seed the unbounded set; varint_count reads are sanitized
  // at the source.
  void seed_counts() {
    static const std::unordered_set<std::string> kSanitized = {"varint_count"};
    for (std::size_t i = ub_; i < ue_; ++i) {
      if (!is_punct(t_, i, "=")) continue;
      const std::string lhs = assigned_name(i);
      if (lhs.empty()) continue;
      const std::size_t e = statement_end(t_, i, ue_);
      if (span_has_read(i + 1, e, kSanitized)) {
        bounded_.insert(lhs);
        unbounded_.erase(lhs);
      } else if (bounded_.count(lhs) == 0 && span_has_read(i + 1, e, wire_read_names())) {
        unbounded_.insert(lhs);
      }
    }
  }

  // Arithmetic on an unbounded count is still unbounded.
  void propagate() {
    bool changed = true;
    while (changed) {
      changed = false;
      for (std::size_t i = ub_; i < ue_; ++i) {
        if (!is_punct(t_, i, "=") && !is_punct(t_, i, "+=") && !is_punct(t_, i, "*=")) {
          continue;
        }
        const std::string lhs = assigned_name(i);
        if (lhs.empty() || unbounded_.count(lhs) > 0 || bounded_.count(lhs) > 0) continue;
        std::string src;
        if (span_has_unbounded(i + 1, statement_end(t_, i, ue_), src)) {
          unbounded_.insert(lhs);
          changed = true;
        }
      }
    }
  }

  // `if (count != expected) throw ...` validates the count: every
  // unbounded name compared inside an if-condition whose statement
  // throws becomes bounded.
  void apply_guards() {
    for (std::size_t i = ub_; i < ue_; ++i) {
      if (!is_ident(t_, i, "if") || !is_punct(t_, i + 1, "(")) continue;
      const std::size_t close = match_close(t_, i + 1, ue_);
      std::size_t k = close + 1;
      if (is_punct(t_, k, "{")) ++k;
      if (!is_ident(t_, k, "throw")) continue;
      bool compares = false;
      for (std::size_t p = i + 2; p < close; ++p) {
        if (is_comparison(t_[p])) compares = true;
      }
      if (!compares) continue;
      for (std::size_t p = i + 2; p < close; ++p) {
        if (is_ident(t_, p)) unbounded_.erase(t_[p].text);
      }
    }
  }

  void find_sinks(std::vector<Hit>& hits) {
    for (std::size_t i = ub_; i < ue_; ++i) {
      if (!is_ident(t_, i)) continue;
      const std::string& w = t_[i].text;
      std::string name;
      // resize/reserve/assign member calls.
      if (alloc_sink_names().count(w) > 0 && is_punct(t_, i + 1, "(") && i > ub_ &&
          (is_punct(t_, i - 1, ".") || is_punct(t_, i - 1, "->"))) {
        const std::size_t close = match_close(t_, i + 1, ue_);
        if (span_has_unbounded(i + 2, close, name)) {
          hits.push_back({t_[i].line, "wire-read count '" + name + "' reaches `" + w +
                                          "` without Reader::varint_count"});
        }
        continue;
      }
      // Container-size constructors: `std::vector<T> v(count)`.
      if (is_punct(t_, i + 1, "(") && i > ub_ &&
          (is_ident(t_, i - 1) || is_punct(t_, i - 1, ">") || is_punct(t_, i - 1, ">>"))) {
        std::string ty;
        if (is_ident(t_, i - 1)) {
          ty = t_[i - 1].text;
        } else {
          // Identifier before the matching '<' of the template list.
          int depth = is_punct(t_, i - 1, ">>") ? 2 : 1;
          std::size_t p = i - 1;
          while (p > ub_ && depth > 0) {
            --p;
            if (t_[p].kind != Token::Kind::kPunct) continue;
            if (t_[p].text == ">") ++depth;
            else if (t_[p].text == ">>") depth += 2;
            else if (t_[p].text == "<") --depth;
            else if (t_[p].text == "<<") depth -= 2;
          }
          if (depth <= 0 && p > ub_ && is_ident(t_, p - 1)) ty = t_[p - 1].text;
        }
        if (sized_container_names().count(ty) > 0) {
          const std::size_t close = match_close(t_, i + 1, ue_);
          if (span_has_unbounded(i + 2, close, name)) {
            hits.push_back({t_[i].line, "wire-read count '" + name + "' sizes a `" + ty +
                                            "` without Reader::varint_count"});
          }
        }
        continue;
      }
      // Loop bounds.
      if ((w == "while") && is_punct(t_, i + 1, "(")) {
        const std::size_t close = match_close(t_, i + 1, ue_);
        if (span_has_unbounded(i + 2, close, name)) {
          hits.push_back({t_[i].line, "wire-read count '" + name +
                                          "' bounds a `while` loop without "
                                          "Reader::varint_count"});
        }
        continue;
      }
      if (w == "for" && is_punct(t_, i + 1, "(")) {
        const std::size_t close = match_close(t_, i + 1, ue_);
        int depth = 0;
        std::size_t first_semi = 0, second_semi = 0;
        for (std::size_t p = i + 2; p < close; ++p) {
          if (t_[p].kind != Token::Kind::kPunct) continue;
          const std::string& s = t_[p].text;
          if (s == "(" || s == "[" || s == "{") ++depth;
          else if (s == ")" || s == "]" || s == "}") --depth;
          else if (s == ";" && depth == 0) {
            if (first_semi == 0) first_semi = p;
            else { second_semi = p; break; }
          }
        }
        if (first_semi != 0 && second_semi != 0 &&
            span_has_unbounded(first_semi + 1, second_semi, name)) {
          hits.push_back({t_[i].line, "wire-read count '" + name +
                                          "' bounds a `for` loop without "
                                          "Reader::varint_count"});
        }
        continue;
      }
    }
  }

  const std::vector<Token>& t_;
  std::size_t ub_;
  std::size_t ue_;
  std::unordered_set<std::string> readers_;
  std::unordered_set<std::string> unbounded_;
  std::unordered_set<std::string> bounded_;
};

}  // namespace

void Analyzer::pass_hygiene() {
  // (a) deserialization bounds, per function.
  for (const FunctionInfo& fn : fns_) {
    DeserChecker dc(files_[fn.file], fn);
    const std::string where = fn.qual.empty() ? "(unnamed)" : fn.qual;
    for (const auto& hit : dc.run()) {
      add_finding("deser-unbounded-count", files_[fn.file], hit.line, where, hit.message);
    }
  }

  // (b) unmetered I/O, per file.
  for (std::size_t f = 0; f < files_.size(); ++f) {
    const SourceFile& sf = files_[f];
    const bool in_net_layer = sf.display.find("src/net/") != std::string::npos ||
                              sf.display.rfind("net/", 0) == 0;
    const std::vector<Token>& t = sf.toks;
    for (std::size_t i = 0; i < t.size(); ++i) {
      if (!is_ident(t, i)) continue;
      const std::string& w = t[i].text;
      const FunctionInfo* fn = enclosing_function(f, i);
      const std::string where =
          fn == nullptr ? "(file scope)" : fn->qual.empty() ? "(unnamed)" : fn->qual;
      // Free calls into the POSIX socket family (method calls on our own
      // objects are the metered path).
      if (socket_call_names().count(w) > 0 && is_punct(t, i + 1, "(") &&
          (i == 0 || (!is_punct(t, i - 1, ".") && !is_punct(t, i - 1, "->") &&
                      !is_punct(t, i - 1, "::") && !is_ident(t, i - 1)))) {
        add_finding("unmetered-io", sf, t[i].line, where,
                    "raw socket call `" + w + "` bypasses the CommStats-metered "
                    "StarNetwork API");
        continue;
      }
      if (!in_net_layer && net_internal_names().count(w) > 0) {
        add_finding("unmetered-io", sf, t[i].line, where,
                    "network queue internal `" + w + "` referenced outside src/net/ "
                    "(unmetered channel)");
        continue;
      }
      // (c) wall-clock reads outside the simulation layer.
      if (in_net_layer) continue;
      if (chrono_clock_names().count(w) > 0 && is_punct(t, i + 1, "::") &&
          is_ident(t, i + 2, "now") && is_punct(t, i + 3, "(")) {
        add_finding("wall-clock", sf, t[i].line, where,
                    "wall-clock read `" + w + "::now` outside src/net/; protocol "
                    "time must come from net::SimClock so runs replay deterministically");
        continue;
      }
      if (time_call_names().count(w) > 0 && is_punct(t, i + 1, "(") &&
          (i == 0 || (!is_punct(t, i - 1, ".") && !is_punct(t, i - 1, "->") &&
                      !is_punct(t, i - 1, "::") && !is_ident(t, i - 1)))) {
        add_finding("wall-clock", sf, t[i].line, where,
                    "wall-clock call `" + w + "` outside src/net/; protocol time "
                    "must come from net::SimClock so runs replay deterministically");
      }
    }
  }
}

}  // namespace spfe::analyze

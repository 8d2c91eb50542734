// Protocol observability: span-based tracing plus named crypto-op counters.
//
// The paper's tables decompose cost per phase (SPIR vs MPC vs input
// selection); `CommStats` meters communication exactly, but says nothing
// about where wall time and compute go *inside* a run. This module adds
// that capability with two primitives:
//
//   * Op counters — thread-safe (relaxed-atomic) named totals for every
//     expensive operation the protocols reduce to: modexps, Paillier
//     enc/dec/rerandomize, GM bit ops, garbled gates, OT transfers,
//     Berlekamp–Welch decode attempts, robust retries, and which multi-exp
//     kernel the cost-model planner selected. Increments may come from any
//     worker thread; because `parallel_for` is fork-join, the totals at any
//     span boundary are identical at every SPFE_THREADS setting.
//   * Spans — RAII scopes (`SPFE_OBS_SPAN("name")`) with steady-clock
//     timing and a counter snapshot at open and close, nested via a
//     thread-local parent stack. A span therefore reports both its wall
//     time and exactly the crypto ops consumed while it was open
//     (including work fanned out to the pool, which joins before the span
//     closes). Spans must be opened on the protocol-driving thread — never
//     inside a `parallel_for` body — so the span tree is deterministic.
//
// Everything is disabled by default: the only cost compiled into the hot
// paths is one inlined relaxed atomic load and a predictable branch (the
// primitives bench pins this at well under 2% on the cheapest counted op).
// Enable programmatically via `Tracer::global().set_enabled(true)`, or for
// any binary by setting `SPFE_TRACE=/path/out.json` in the environment —
// that also registers an atexit hook exporting the whole run as a
// chrome://tracing-loadable JSON file.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace spfe::obs {

// One enumerator per metered operation. Keep op_name() in sync.
enum class Op : std::uint8_t {
  kModExp = 0,          // mod_pow / MontgomeryContext::pow invocations
  kPaillierEncrypt,     // Paillier E(m, r) (one modexp + cheap mults)
  kPaillierDecrypt,     // Paillier CRT (or reference) decryptions
  kPaillierRerandomize, // Paillier rerandomizations
  kGmEncrypt,           // Goldwasser–Micali bit encryptions
  kGmDecrypt,           // Goldwasser–Micali bit decryptions
  kGarbledGates,        // nonfree (AND/OR) gates garbled
  kOtBase,              // base-OT transfers prepared (public-key OTs)
  kOtExtended,          // extended OTs: no protocol path counts it, so the
                        // query benchmark's `ot.extended` reads 0
  kBwDecode,            // Berlekamp–Welch decode attempts
  kRobustRetry,         // robust-star attempts beyond the first
  kMultiexpStraus,      // multi-exp planner picked the Straus kernel
  kMultiexpPippenger,   // multi-exp planner picked the Pippenger kernel
  kMultiexpFixedBase,   // no multi-exp kernel counts it (the planner picks
                        // Straus or Pippenger), so `bignum.multiexp_fixed_base`
                        // reads 0
  kPoolHit,             // randomness pool draw served from stock
  kPoolMiss,            // pool draw computed synchronously (pool empty)
  kPoolRefill,          // offline pool refill batches completed
  kFbTableBuild,        // fixed-base table cache: tables built
  kFbTableHit,          // fixed-base table cache: lookups served from cache
  kDeadlineMiss,        // in-flight answers that missed a receive deadline
  kHedgeSent,           // hedge queries dispatched to spare servers
  kHedgeWon,            // hedge answers that arrived and were used
  kBackoffWait,         // retry backoff waits (virtual-time sleeps)
  kAdvForgedAnswer,     // answers replaced by an adversary strategy
  kAdvDroppedAnswer,    // answers suppressed (byzantine silence)
  kAdvDelayedAnswer,    // answers deliberately straggled
};
inline constexpr std::size_t kNumOps = 26;

const char* op_name(Op op);

// Per-span / global counter snapshot, indexed by Op.
using OpCounts = std::array<std::uint64_t, kNumOps>;

namespace detail {
// Defined in obs.cpp. Exposed only so count()/enabled() inline fully into
// the hot paths; do not touch these directly.
extern std::atomic<bool> g_enabled;
extern std::array<std::atomic<std::uint64_t>, kNumOps> g_counters;
}  // namespace detail

// True when metering is on. Inlined single relaxed load — this is the whole
// disabled-mode cost of every instrumentation site.
inline bool enabled() { return detail::g_enabled.load(std::memory_order_relaxed); }

// Adds `n` to the named counter; no-op (one load + branch) when disabled.
inline void count(Op op, std::uint64_t n = 1) {
  if (!enabled()) return;
  detail::g_counters[static_cast<std::size_t>(op)].fetch_add(n, std::memory_order_relaxed);
}

// A completed (or still-open) span as recorded by the tracer.
struct SpanRecord {
  static constexpr std::size_t kNoParent = static_cast<std::size_t>(-1);

  std::size_t id = 0;
  std::size_t parent = kNoParent;
  std::size_t depth = 0;
  std::string name;
  std::string note;             // free-form annotation, ';'-joined
  std::uint64_t start_ns = 0;   // steady-clock, relative to the trace epoch
  std::uint64_t end_ns = 0;     // 0 while the span is still open
  OpCounts begin{};             // global counters at open
  OpCounts end{};               // global counters at close

  // Ops consumed while the span was open (includes child spans).
  OpCounts delta() const;
  std::uint64_t duration_ns() const { return end_ns >= start_ns ? end_ns - start_ns : 0; }
  bool open() const { return end_ns == 0 && start_ns != 0; }
};

// Aggregation of every span sharing one name (for summary tables).
struct SpanSummary {
  std::string name;
  std::size_t calls = 0;
  std::uint64_t total_ns = 0;
  OpCounts ops{};
};

class Span;

// Process-global trace collector. Span open/close serializes on one mutex;
// spans sit on structural protocol paths (a handful per run), so this is
// never on a hot path. When disabled, nothing is recorded at all.
class Tracer {
 public:
  static Tracer& global();

  bool is_enabled() const { return enabled(); }
  // Turns metering + recording on/off (process-wide).
  void set_enabled(bool on);

  // Clears spans, zeroes every counter, restarts the trace epoch. Must not
  // be called while spans are open.
  void reset();

  // Copies of the recorded spans, in open order (== deterministic program
  // order when spans obey the driving-thread rule).
  std::vector<SpanRecord> spans() const;

  // Global counter totals since the last reset.
  OpCounts totals() const;

  // Sum of root-span deltas. When every counted op runs inside some span,
  // this equals totals() — the consistency invariant bench_table1 prints.
  OpCounts root_totals() const;

  // Per-name aggregation in first-seen order.
  std::vector<SpanSummary> summary() const;

  // Serializes the trace in chrome://tracing "traceEvents" format
  // (load via chrome://tracing or https://ui.perfetto.dev).
  std::string chrome_trace_json() const;
  // Atomically writes chrome_trace_json() to `path` (temp file + rename).
  // Returns false (with a note on stderr) on any I/O failure.
  bool write_chrome_trace(const std::string& path) const;

  // Path from $SPFE_TRACE at startup (empty when unset). The atexit hook
  // registered by the env initializer writes there.
  const std::string& env_trace_path() const { return env_path_; }

 private:
  friend class Span;
  friend struct EnvInit;

  std::size_t open_span(const char* name);
  void close_span(std::size_t idx);
  void annotate_span(std::size_t idx, const std::string& note);

  mutable std::mutex mu_;
  std::vector<SpanRecord> records_;
  std::uint64_t epoch_ns_ = 0;  // steady-clock origin of the current trace
  std::string env_path_;
};

// RAII span handle. Constructing is a no-op when tracing is disabled.
// Open/close must happen on the same thread (the protocol-driving thread).
class Span {
 public:
  explicit Span(const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  // Appends a short annotation (shown in the trace's args). No-op when the
  // span was created with tracing disabled.
  void note(const std::string& text);

 private:
  static constexpr std::size_t kInactive = static_cast<std::size_t>(-1);
  std::size_t idx_ = kInactive;
};

}  // namespace spfe::obs

// Convenience macro so call sites stay one line.
#define SPFE_OBS_SPAN_CONCAT2(a, b) a##b
#define SPFE_OBS_SPAN_CONCAT(a, b) SPFE_OBS_SPAN_CONCAT2(a, b)
#define SPFE_OBS_SPAN(name) \
  ::spfe::obs::Span SPFE_OBS_SPAN_CONCAT(spfe_obs_span_, __LINE__)(name)

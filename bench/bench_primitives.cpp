// Experiment E7 — substrate microbenchmarks (google-benchmark).
//
// Grounds the paper's "the underlying constants will typically be very
// small" remark and the MPC(m,s) = m * SPIR(2,1,kappa) + O(kappa*s) cost
// model: per-gate garbling cost, per-transfer base-OT cost, Paillier
// operation costs, and the bignum/field kernels everything reduces to.
#include <benchmark/benchmark.h>

#include <optional>

#include "bench_util.h"
#include "bignum/modarith.h"
#include "bignum/multiexp.h"
#include "bignum/primes.h"
#include "circuits/boolean_circuit.h"
#include "crypto/prg.h"
#include "crypto/sha256.h"
#include "field/fp64.h"
#include "he/goldwasser_micali.h"
#include "he/paillier.h"
#include "mpc/yao.h"
#include "ot/base_ot.h"
#include "pir/itpir.h"

namespace {

using namespace spfe;
using bignum::BigInt;

// --- bignum ------------------------------------------------------------------

void BM_BigIntMul(benchmark::State& state) {
  crypto::Prg prg("bm-mul");
  const std::size_t bits = static_cast<std::size_t>(state.range(0));
  const BigInt a = BigInt::random_bits(prg, bits);
  const BigInt b = BigInt::random_bits(prg, bits);
  for (auto _ : state) benchmark::DoNotOptimize(a * b);
}
BENCHMARK(BM_BigIntMul)->Arg(512)->Arg(1024)->Arg(4096);

void BM_BigIntDivMod(benchmark::State& state) {
  crypto::Prg prg("bm-div");
  const std::size_t bits = static_cast<std::size_t>(state.range(0));
  const BigInt a = BigInt::random_bits(prg, 2 * bits);
  const BigInt b = BigInt::random_bits(prg, bits);
  for (auto _ : state) {
    BigInt q, r;
    BigInt::divmod(a, b, q, r);
    benchmark::DoNotOptimize(q);
  }
}
BENCHMARK(BM_BigIntDivMod)->Arg(512)->Arg(1024);

void BM_ModPowMontgomery(benchmark::State& state) {
  crypto::Prg prg("bm-mont");
  const std::size_t bits = static_cast<std::size_t>(state.range(0));
  BigInt mod = BigInt::random_bits(prg, bits);
  if (!mod.is_odd()) mod += BigInt(1);
  const bignum::MontgomeryContext ctx(mod);
  const BigInt base = BigInt::random_below(prg, mod);
  const BigInt exp = BigInt::random_bits(prg, bits);
  for (auto _ : state) benchmark::DoNotOptimize(ctx.pow(base, exp));
}
BENCHMARK(BM_ModPowMontgomery)->Arg(512)->Arg(1024)->Arg(2048);

void BM_ModPowNaiveDivmod(benchmark::State& state) {
  // Ablation: square-and-multiply with Knuth-division reduction instead of
  // Montgomery (the design-choice ablation from DESIGN.md).
  crypto::Prg prg("bm-naive");
  const std::size_t bits = static_cast<std::size_t>(state.range(0));
  BigInt mod = BigInt::random_bits(prg, bits);
  if (!mod.is_odd()) mod += BigInt(1);
  const BigInt base = BigInt::random_below(prg, mod);
  const BigInt exp = BigInt::random_bits(prg, bits);
  for (auto _ : state) {
    BigInt result(1);
    for (std::size_t i = exp.bit_length(); i-- > 0;) {
      result = bignum::mod_mul(result, result, mod);
      if (exp.bit(i)) result = bignum::mod_mul(result, base, mod);
    }
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_ModPowNaiveDivmod)->Arg(512)->Arg(1024);

void BM_MontMulSelf(benchmark::State& state) {
  // Baseline for BM_MontSqr: the generic CIOS product of a with itself.
  crypto::Prg prg("bm-mont-mul");
  const std::size_t bits = static_cast<std::size_t>(state.range(0));
  BigInt mod = BigInt::random_bits(prg, bits);
  if (!mod.is_odd()) mod += BigInt(1);
  const bignum::MontgomeryContext ctx(mod);
  const auto a = ctx.to_mont(BigInt::random_below(prg, mod));
  for (auto _ : state) benchmark::DoNotOptimize(ctx.mont_mul(a, a));
}
BENCHMARK(BM_MontMulSelf)->Arg(512)->Arg(1024)->Arg(2048);

void BM_MontSqr(benchmark::State& state) {
  // The squaring fast path: each cross product computed once, SOS reduce.
  crypto::Prg prg("bm-mont-mul");  // same seed: identical operands as above
  const std::size_t bits = static_cast<std::size_t>(state.range(0));
  BigInt mod = BigInt::random_bits(prg, bits);
  if (!mod.is_odd()) mod += BigInt(1);
  const bignum::MontgomeryContext ctx(mod);
  const auto a = ctx.to_mont(BigInt::random_below(prg, mod));
  for (auto _ : state) benchmark::DoNotOptimize(ctx.mont_sqr(a));
}
BENCHMARK(BM_MontSqr)->Arg(512)->Arg(1024)->Arg(2048);

void BM_MultiPowCrossTerms(benchmark::State& state) {
  // The arith_protocol shape: 2 bases, full-width exponents, one column.
  crypto::Prg prg("bm-multipow2");
  const std::size_t bits = static_cast<std::size_t>(state.range(0));
  BigInt mod = BigInt::random_bits(prg, bits);
  if (!mod.is_odd()) mod += BigInt(1);
  const bignum::MontgomeryContext ctx(mod);
  std::vector<BigInt> bases(2), exps(2);
  for (auto& b : bases) b = BigInt::random_below(prg, mod);
  for (auto& e : exps) e = BigInt::random_bits(prg, bits);
  for (auto _ : state) benchmark::DoNotOptimize(bignum::multi_pow(ctx, bases, exps));
}
BENCHMARK(BM_MultiPowCrossTerms)->Arg(512)->Arg(1024);

void BM_MultiPowFoldCell(benchmark::State& state) {
  // The cPIR level-0 fold cell: many ciphertext bases, small data exponents.
  crypto::Prg prg("bm-multipow-fold");
  BigInt mod = BigInt::random_bits(prg, 1024);
  if (!mod.is_odd()) mod += BigInt(1);
  const bignum::MontgomeryContext ctx(mod);
  const std::size_t count = static_cast<std::size_t>(state.range(0));
  std::vector<BigInt> bases(count), exps(count);
  for (auto& b : bases) b = BigInt::random_below(prg, mod);
  for (auto& e : exps) e = BigInt::random_bits(prg, 17);
  for (auto _ : state) benchmark::DoNotOptimize(bignum::multi_pow(ctx, bases, exps));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_MultiPowFoldCell)->Arg(64)->Arg(256);

void BM_NaiveFoldCell(benchmark::State& state) {
  // Ablation baseline for BM_MultiPowFoldCell: independent ctx.pow per base.
  crypto::Prg prg("bm-multipow-fold");  // same operands as above
  BigInt mod = BigInt::random_bits(prg, 1024);
  if (!mod.is_odd()) mod += BigInt(1);
  const bignum::MontgomeryContext ctx(mod);
  const std::size_t count = static_cast<std::size_t>(state.range(0));
  std::vector<BigInt> bases(count), exps(count);
  for (auto& b : bases) b = BigInt::random_below(prg, mod);
  for (auto& e : exps) e = BigInt::random_bits(prg, 17);
  for (auto _ : state) {
    BigInt acc(1);
    for (std::size_t i = 0; i < count; ++i) {
      acc = bignum::mod_mul(acc, ctx.pow(bases[i], exps[i]), mod);
    }
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_NaiveFoldCell)->Arg(64)->Arg(256);

void BM_FixedBasePow(benchmark::State& state) {
  // The constant-time comb behind SchnorrGroup::exp_g vs ctx.pow
  // (BM_ModPowMontgomery) at the same width; the table build is outside the
  // timed loop, as FixedBaseCache builds it once per process.
  crypto::Prg prg("bm-fixed-base");
  const std::size_t bits = static_cast<std::size_t>(state.range(0));
  BigInt mod = BigInt::random_bits(prg, bits);
  if (!mod.is_odd()) mod += BigInt(1);
  const BigInt base = BigInt::random_below(prg, mod);
  const bignum::CtFixedBaseTable table(mod, base, bits);
  const BigInt exp = BigInt::random_bits(prg, bits);
  for (auto _ : state) benchmark::DoNotOptimize(table.pow(exp));
}
BENCHMARK(BM_FixedBasePow)->Arg(512)->Arg(1024)->Arg(2048);

void BM_MillerRabinPrime(benchmark::State& state) {
  crypto::Prg prg("bm-mr");
  const BigInt p = bignum::random_prime(prg, static_cast<std::size_t>(state.range(0)), 40);
  for (auto _ : state) benchmark::DoNotOptimize(bignum::is_probable_prime(p, prg, 16));
}
BENCHMARK(BM_MillerRabinPrime)->Arg(256)->Arg(512);

// --- symmetric crypto ----------------------------------------------------------

void BM_Sha256Throughput(benchmark::State& state) {
  const Bytes data(static_cast<std::size_t>(state.range(0)), 0xa5);
  for (auto _ : state) benchmark::DoNotOptimize(crypto::Sha256::hash(data));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_Sha256Throughput)->Arg(64)->Arg(4096)->Arg(1 << 16);

void BM_ChaChaPrgThroughput(benchmark::State& state) {
  crypto::Prg prg("bm-prg");
  Bytes out(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    prg.fill(out.data(), out.size());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_ChaChaPrgThroughput)->Arg(4096)->Arg(1 << 16);

// --- fields --------------------------------------------------------------------

void BM_Fp64Mul(benchmark::State& state) {
  const field::Fp64 f(field::Fp64::kMersenne61);
  crypto::Prg prg("bm-fp64");
  std::uint64_t a = f.random(prg), b = f.random(prg);
  for (auto _ : state) {
    a = f.mul(a, b);
    benchmark::DoNotOptimize(a);
  }
}
BENCHMARK(BM_Fp64Mul);

void BM_SelectionPolynomialEval(benchmark::State& state) {
  // The §3.1 / IT-PIR server kernel: P0 at a random point, n products
  // against two weight tables of about sqrt(n) entries each, one division
  // per pair of products.
  const field::Fp64 f(field::Fp64::kMersenne61);
  crypto::Prg prg("bm-selpoly");
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  std::vector<std::uint64_t> db(n);
  for (auto& v : db) v = f.random(prg);
  std::size_t l = 0;
  while ((std::size_t(1) << l) < n) ++l;
  std::vector<std::uint64_t> point(l);
  for (auto& v : point) v = f.random(prg);
  std::vector<std::uint64_t> scratch;
  for (auto _ : state) {
    benchmark::DoNotOptimize(pir::eval_selection_polynomial(f, db, point, scratch));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_SelectionPolynomialEval)->Arg(1024)->Arg(65536)->Arg(1 << 20);

// --- homomorphic encryption -----------------------------------------------------

class PaillierFixture : public benchmark::Fixture {
 public:
  void SetUp(const benchmark::State& state) override {
    if (!sk_ || sk_bits_ != static_cast<std::size_t>(state.range(0))) {
      sk_bits_ = static_cast<std::size_t>(state.range(0));
      crypto::Prg prg("bm-paillier-" + std::to_string(sk_bits_));
      sk_.emplace(he::paillier_keygen(prg, sk_bits_));
    }
  }

 protected:
  static std::optional<he::PaillierPrivateKey> sk_;
  static std::size_t sk_bits_;
};
std::optional<he::PaillierPrivateKey> PaillierFixture::sk_;
std::size_t PaillierFixture::sk_bits_ = 0;

BENCHMARK_DEFINE_F(PaillierFixture, Encrypt)(benchmark::State& state) {
  crypto::Prg prg("enc");
  for (auto _ : state) {
    benchmark::DoNotOptimize(sk_->public_key().encrypt(BigInt(123456), prg));
  }
}
BENCHMARK_REGISTER_F(PaillierFixture, Encrypt)->Arg(512)->Arg(1024)->Arg(2048);

BENCHMARK_DEFINE_F(PaillierFixture, EncryptKeyHolder)(benchmark::State& state) {
  // The same ciphertexts as Encrypt, with the factor r^N computed by CRT:
  // four modexps mod p, q, p^2 and q^2 with the half-size exponents q and p.
  crypto::Prg prg("enc");
  for (auto _ : state) benchmark::DoNotOptimize(sk_->encrypt(BigInt(123456), prg));
}
BENCHMARK_REGISTER_F(PaillierFixture, EncryptKeyHolder)->Arg(512)->Arg(1024)->Arg(2048);

BENCHMARK_DEFINE_F(PaillierFixture, Decrypt)(benchmark::State& state) {
  // The default CRT path: two half-size modexps with half-size exponents.
  crypto::Prg prg("dec");
  const BigInt c = sk_->public_key().encrypt(BigInt(123456), prg);
  for (auto _ : state) benchmark::DoNotOptimize(sk_->decrypt(c));
}
BENCHMARK_REGISTER_F(PaillierFixture, Decrypt)->Arg(512)->Arg(1024)->Arg(2048);

BENCHMARK_DEFINE_F(PaillierFixture, DecryptReference)(benchmark::State& state) {
  // Ablation: the CRT-free L(c^lambda mod N^2) * mu path; expect Decrypt to
  // beat this by ~4x at every modulus size.
  crypto::Prg prg("dec-ref");
  const BigInt c = sk_->public_key().encrypt(BigInt(123456), prg);
  for (auto _ : state) benchmark::DoNotOptimize(sk_->decrypt_reference(c));
}
BENCHMARK_REGISTER_F(PaillierFixture, DecryptReference)->Arg(512)->Arg(1024)->Arg(2048);

BENCHMARK_DEFINE_F(PaillierFixture, DecryptAllBatch)(benchmark::State& state) {
  // Batch decryption across the global thread pool (SPFE_THREADS).
  crypto::Prg prg("dec-all");
  std::vector<BigInt> cts;
  for (int i = 0; i < 64; ++i) cts.push_back(sk_->public_key().encrypt(BigInt(i), prg));
  for (auto _ : state) benchmark::DoNotOptimize(sk_->decrypt_all(cts));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 64);
}
BENCHMARK_REGISTER_F(PaillierFixture, DecryptAllBatch)->Arg(512)->Arg(1024);

BENCHMARK_DEFINE_F(PaillierFixture, ScalarMulSmall)(benchmark::State& state) {
  // The cPIR server kernel: exponent = small data value.
  crypto::Prg prg("scalar");
  const BigInt c = sk_->public_key().encrypt(BigInt(7), prg);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sk_->public_key().mul_scalar(c, BigInt(999983)));
  }
}
BENCHMARK_REGISTER_F(PaillierFixture, ScalarMulSmall)->Arg(512)->Arg(1024);

BENCHMARK_DEFINE_F(PaillierFixture, MulScalarSum64)(benchmark::State& state) {
  // One fold-cell weighted sum: 64 ciphertexts, small scalars, evaluated as
  // a single simultaneous multi-exp (compare 64 x ScalarMulSmall + adds).
  crypto::Prg prg("scalar-sum");
  const auto& pk = sk_->public_key();
  std::vector<BigInt> cts(64), scalars(64);
  for (std::size_t i = 0; i < cts.size(); ++i) {
    cts[i] = pk.encrypt(BigInt(i + 1), prg);
    scalars[i] = BigInt::random_bits(prg, 17);
  }
  for (auto _ : state) benchmark::DoNotOptimize(pk.mul_scalar_sum(cts, scalars));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 64);
}
BENCHMARK_REGISTER_F(PaillierFixture, MulScalarSum64)->Arg(512)->Arg(1024);

BENCHMARK_DEFINE_F(PaillierFixture, AddCiphertexts)(benchmark::State& state) {
  crypto::Prg prg("addct");
  const BigInt a = sk_->public_key().encrypt(BigInt(1), prg);
  const BigInt b = sk_->public_key().encrypt(BigInt(2), prg);
  for (auto _ : state) benchmark::DoNotOptimize(sk_->public_key().add(a, b));
}
BENCHMARK_REGISTER_F(PaillierFixture, AddCiphertexts)->Arg(512)->Arg(1024);

void BM_GoldwasserMicaliEncrypt(benchmark::State& state) {
  crypto::Prg prg("bm-gm");
  const he::GmPrivateKey sk = he::gm_keygen(prg, 512);
  for (auto _ : state) benchmark::DoNotOptimize(sk.public_key().encrypt(true, prg));
}
BENCHMARK(BM_GoldwasserMicaliEncrypt);

// --- garbling / OT ----------------------------------------------------------------

void BM_GarbleAddMod(benchmark::State& state) {
  const std::size_t width = static_cast<std::size_t>(state.range(0));
  circuits::BooleanCircuit c(2 * width);
  circuits::WireBundle a, b;
  for (std::size_t i = 0; i < width; ++i) a.push_back(c.input(i));
  for (std::size_t i = 0; i < width; ++i) b.push_back(c.input(width + i));
  c.add_outputs(circuits::build_add_mod(c, a, b));
  crypto::Prg prg("bm-garble");
  for (auto _ : state) benchmark::DoNotOptimize(mpc::garble(c, prg));
  state.counters["nonfree_gates"] =
      benchmark::Counter(static_cast<double>(c.nonfree_gate_count()));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(c.size()));
}
BENCHMARK(BM_GarbleAddMod)->Arg(32)->Arg(256);

void BM_EvaluateGarbled(benchmark::State& state) {
  const std::size_t width = static_cast<std::size_t>(state.range(0));
  circuits::BooleanCircuit c(2 * width);
  circuits::WireBundle a, b;
  for (std::size_t i = 0; i < width; ++i) a.push_back(c.input(i));
  for (std::size_t i = 0; i < width; ++i) b.push_back(c.input(width + i));
  c.add_outputs(circuits::build_add_mod(c, a, b));
  crypto::Prg prg("bm-eval");
  const mpc::GarblingResult g = mpc::garble(c, prg);
  std::vector<mpc::Label> active;
  for (std::size_t i = 0; i < 2 * width; ++i) active.push_back(g.input_labels[i].get(i % 2));
  for (auto _ : state) benchmark::DoNotOptimize(mpc::evaluate(c, g.garbled, active));
}
BENCHMARK(BM_EvaluateGarbled)->Arg(32)->Arg(256);

void BM_BaseOtPerTransfer(benchmark::State& state) {
  const ot::SchnorrGroup group = ot::SchnorrGroup::rfc_like_512();
  const ot::BaseOt ot(group);
  crypto::Prg prg("bm-base-ot");
  const std::size_t batch = static_cast<std::size_t>(state.range(0));
  const std::vector<bool> choices(batch, true);
  std::vector<std::pair<Bytes, Bytes>> msgs(batch, {Bytes(16, 1), Bytes(16, 2)});
  for (auto _ : state) {
    std::vector<ot::OtReceiverState> states;
    const Bytes q = ot.make_query(choices, states, prg);
    const Bytes a = ot.answer(q, msgs, prg);
    benchmark::DoNotOptimize(ot.decode(a, states));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch));
}
BENCHMARK(BM_BaseOtPerTransfer)->Arg(8);

// --- observability overhead -------------------------------------------------------

void BM_ObsCountDisabled(benchmark::State& state) {
  // The per-site cost compiled into every instrumented hot path when tracing
  // is off: one relaxed atomic load + a predicted branch. Compare against
  // BM_ModPowMontgomery/512 (~1e5 ns): the ratio is the real-world overhead
  // bound for the cheapest counted op, and must stay well under 2%.
  obs::Tracer::global().set_enabled(false);
  for (auto _ : state) {
    obs::count(obs::Op::kModExp);
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_ObsCountDisabled);

void BM_ObsCountEnabled(benchmark::State& state) {
  // Enabled-path cost: one relaxed fetch_add. Still orders of magnitude
  // below any counted crypto op.
  obs::Tracer::global().set_enabled(true);
  for (auto _ : state) {
    obs::count(obs::Op::kModExp);
    benchmark::ClobberMemory();
  }
  obs::Tracer::global().set_enabled(false);
  obs::Tracer::global().reset();
}
BENCHMARK(BM_ObsCountEnabled);

void BM_ModPowMontgomeryTracingEnabled(benchmark::State& state) {
  // End-to-end overhead check: same workload as BM_ModPowMontgomery/512 but
  // with tracing on; the delta between the two rows is the enabled-mode cost
  // on a real counted op (expected: lost in run-to-run noise).
  crypto::Prg prg("bm-mont");  // same seed: identical operands
  BigInt mod = BigInt::random_bits(prg, 512);
  if (!mod.is_odd()) mod += BigInt(1);
  const bignum::MontgomeryContext ctx(mod);
  const BigInt base = BigInt::random_below(prg, mod);
  const BigInt exp = BigInt::random_bits(prg, 512);
  obs::Tracer::global().set_enabled(true);
  for (auto _ : state) benchmark::DoNotOptimize(ctx.pow(base, exp));
  obs::Tracer::global().set_enabled(false);
  obs::Tracer::global().reset();
}
BENCHMARK(BM_ModPowMontgomeryTracingEnabled);

// Console output as usual, plus every run captured into BENCH_primitives.json
// (op = full benchmark name, size = trailing /arg when present).
class JsonCapturingReporter : public benchmark::ConsoleReporter {
 public:
  explicit JsonCapturingReporter(bench::JsonReport* json) : json_(json) {}

  void ReportRuns(const std::vector<Run>& reports) override {
    benchmark::ConsoleReporter::ReportRuns(reports);
    for (const Run& run : reports) {
      if (run.error_occurred || run.iterations == 0) continue;
      const std::string name = run.benchmark_name();
      const double ns = run.real_accumulated_time / static_cast<double>(run.iterations) * 1e9;
      std::uint64_t size = 0;
      const std::size_t slash = name.rfind('/');
      if (slash != std::string::npos) {
        size = std::strtoull(name.c_str() + slash + 1, nullptr, 10);
      }
      std::uint64_t bytes = 0;
      const auto bps = run.counters.find("bytes_per_second");
      if (bps != run.counters.end()) {
        bytes = static_cast<std::uint64_t>(bps->second.value * ns / 1e9);  // bytes per op
      }
      json_->add(name, size, ns, bytes);
    }
  }

 private:
  bench::JsonReport* json_;
};

}  // namespace

int main(int argc, char** argv) {
  std::vector<char*> args;
  args.reserve(static_cast<std::size_t>(argc) + 1);
  bool smoke = false;
  for (int i = 0; i < argc; ++i) {
    if (std::string(argv[i]) == "--smoke") {
      smoke = true;
      continue;
    }
    args.push_back(argv[i]);
  }
  // Smoke mode: one tiny timed interval per bench so CI exercises every
  // kernel in seconds; numbers are noisy and only the JSON shape matters.
  static char min_time_flag[] = "--benchmark_min_time=0.005";
  if (smoke) args.push_back(min_time_flag);
  int args_count = static_cast<int>(args.size());
  benchmark::Initialize(&args_count, args.data());
  if (benchmark::ReportUnrecognizedArguments(args_count, args.data())) return 1;
  spfe::bench::JsonReport json("primitives");
  JsonCapturingReporter reporter(&json);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  json.write();
  return 0;
}

// Dudect-style timing-distinguisher smoke checks for the constant-time
// kernels (the dynamic layer of the secret-taint discipline; see DESIGN.md
// "Constant-time policy" and the SPFE_CT region check of tools/spfe-analyze
// for the static layer).
//
// Method (Reparaz–Balasch–Verbauwhede, "dude, is my code constant time?"):
// time the operation under two input classes — a FIXED secret and a fresh
// RANDOM secret per sample — with the class order randomly interleaved and
// all input generation kept OUTSIDE the timed section, crop the upper tail
// of each class (scheduler noise), and compare the class means with
// Welch's t-test. A constant-time kernel gives |t| far below any honest
// threshold; a secret-dependent early exit or zero-limb skip gives |t| in
// the tens to hundreds.
//
// These are SMOKE checks, not a precision leak oracle: the threshold is
// deliberately generous so shared CI runners don't flake, and a pass is
// evidence of "no gross leak", nothing stronger. The harness validates its
// own sensitivity with a deliberately leaky early-exit comparison that
// must be flagged.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <functional>
#include <vector>

#include "bignum/bigint.h"
#include "bignum/modarith.h"
#include "common/secret.h"
#include "crypto/prg.h"
#include "he/paillier.h"

namespace spfe {
namespace {

using bignum::BigInt;

// Generous smoke threshold: dudect flags leaks at |t| > 4.5 on quiet
// hardware; we only claim to catch gross leaks (zero-limb skips, early
// exits), which show up far above this.
constexpr double kSmokeThreshold = 30.0;
// The sensitivity control must clear the classic dudect detection bar.
constexpr double kControlThreshold = 4.5;

constexpr std::size_t kSamplesPerClass = 300;

struct WelchResult {
  double t;
  double mean_fixed;
  double mean_random;
};

// Crops the slowest 15% of each class (interrupt/scheduler tail), then
// computes Welch's unequal-variance t statistic between the class means.
WelchResult welch_t(std::vector<double> fixed, std::vector<double> random) {
  auto crop = [](std::vector<double>& v) {
    std::sort(v.begin(), v.end());
    v.resize(std::max<std::size_t>(2, (v.size() * 85) / 100));
  };
  crop(fixed);
  crop(random);
  auto mean_var = [](const std::vector<double>& v, double& mean, double& var) {
    mean = 0;
    for (double x : v) mean += x;
    mean /= static_cast<double>(v.size());
    var = 0;
    for (double x : v) var += (x - mean) * (x - mean);
    var /= static_cast<double>(v.size() - 1);
  };
  double m0, v0, m1, v1;
  mean_var(fixed, m0, v0);
  mean_var(random, m1, v1);
  const double denom = std::sqrt(v0 / static_cast<double>(fixed.size()) +
                                 v1 / static_cast<double>(random.size()));
  const double t = denom > 0 ? (m0 - m1) / denom : 0.0;
  return {t, m0, m1};
}

// Runs the two-class experiment. `prepare(cls)` stages one sample's input
// for class `cls` (0 = fixed secret, 1 = fresh random secret) and is NOT
// timed; `run()` executes one batch of the operation on the staged input
// and returns a checksum so the work cannot be optimized away. Classes are
// interleaved in PRG-random order so environmental drift hits both
// equally.
WelchResult run_experiment(crypto::Prg& prg, const std::function<void(int)>& prepare,
                           const std::function<std::uint64_t()>& run) {
  std::vector<double> fixed, random;
  fixed.reserve(kSamplesPerClass);
  random.reserve(kSamplesPerClass);
  volatile std::uint64_t sink = 0;
  // Warm-up: touch both paths before measuring.
  prepare(0);
  sink = sink + run();
  prepare(1);
  sink = sink + run();
  while (fixed.size() < kSamplesPerClass || random.size() < kSamplesPerClass) {
    int cls = static_cast<int>(prg.u64() & 1);
    if (fixed.size() >= kSamplesPerClass) cls = 1;
    if (random.size() >= kSamplesPerClass) cls = 0;
    prepare(cls);
    const auto t0 = std::chrono::steady_clock::now();
    const std::uint64_t c = run();
    const auto t1 = std::chrono::steady_clock::now();
    sink = sink + c;
    const double ns =
        static_cast<double>(std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
    (cls == 0 ? fixed : random).push_back(ns);
  }
  (void)sink;
  return welch_t(std::move(fixed), std::move(random));
}

BigInt random_bigint_below(crypto::Prg& prg, const BigInt& bound) {
  const std::size_t bytes = (bound.bit_length() + 7) / 8;
  std::vector<std::uint8_t> buf(bytes);
  prg.fill(buf.data(), buf.size());
  return BigInt::from_bytes_be({buf.data(), buf.size()}).mod_floor(bound);
}

// Full-width odd modulus (256 bits unless asked) for the Montgomery
// experiments.
BigInt make_modulus(crypto::Prg& prg, std::size_t bits = 256) {
  std::vector<std::uint8_t> buf(bits / 8);
  prg.fill(buf.data(), buf.size());
  buf.front() |= 0x80;  // full width
  buf.back() |= 0x01;   // odd
  return BigInt::from_bytes_be({buf.data(), buf.size()});
}

// Uniform exponent with exactly `bits` bits (the top one set): the bit
// length is public by policy, so the experiments must not vary it between
// classes.
BigInt full_width_exponent(crypto::Prg& prg, std::size_t bits) {
  std::vector<std::uint8_t> buf(bits / 8);
  prg.fill(buf.data(), buf.size());
  buf[0] |= 0x80;
  return BigInt::from_bytes_be({buf.data(), buf.size()});
}

// k-limb operand with the given value in the low limb: the input class a
// zero-limb-skipping multiplier would race through.
std::vector<std::uint64_t> sparse_operand(std::size_t k, std::uint64_t low) {
  std::vector<std::uint64_t> v(k, 0);
  v[0] = low;
  return v;
}

std::vector<std::uint64_t> dense_operand(crypto::Prg& prg, const BigInt& n, std::size_t k) {
  std::vector<std::uint64_t> v = random_bigint_below(prg, n).limbs();
  v.resize(k, 0);
  return v;
}

TEST(CtHarness, MontMulFixedVsRandom) {
  crypto::Prg prg("ct-harness-mont-mul");
  const BigInt n = make_modulus(prg);
  const bignum::MontgomeryContext ctx(n);
  const std::size_t k = n.limbs().size();
  constexpr int kReps = 64;
  std::vector<std::uint64_t> a;
  std::vector<std::uint64_t> out(k), scratch(ctx.scratch_limbs());
  const auto result = run_experiment(
      prg,
      [&](int cls) {
        // Both classes draw a dense operand, so the untimed staging does the
        // same allocations and leaves the caches alike: under ASan, staging
        // only the random class read as |t| = 30-44 on these in-place kernels.
        const std::vector<std::uint64_t> dense = dense_operand(prg, n, k);
        a = cls == 0 ? sparse_operand(k, 3) : dense;
      },
      [&] {
        std::uint64_t acc = 0;
        for (int r = 0; r < kReps; ++r) {
          ctx.mont_mul(out, a, a, scratch);
          acc ^= out[0];
        }
        return acc;
      });
  EXPECT_LT(std::abs(result.t), kSmokeThreshold)
      << "mont_mul timing distinguishes sparse vs random operands: t=" << result.t
      << " fixed=" << result.mean_fixed << "ns random=" << result.mean_random << "ns";
}

TEST(CtHarness, MontSqrFixedVsRandom) {
  crypto::Prg prg("ct-harness-mont-sqr");
  const BigInt n = make_modulus(prg);
  const bignum::MontgomeryContext ctx(n);
  const std::size_t k = n.limbs().size();
  constexpr int kReps = 64;
  std::vector<std::uint64_t> a;
  std::vector<std::uint64_t> out(k), scratch(ctx.scratch_limbs());
  const auto result = run_experiment(
      prg,
      [&](int cls) {
        const std::vector<std::uint64_t> dense = dense_operand(prg, n, k);  // as above
        a = cls == 0 ? sparse_operand(k, 2) : dense;
      },
      [&] {
        std::uint64_t acc = 0;
        for (int r = 0; r < kReps; ++r) {
          ctx.mont_sqr(out, a, scratch);
          acc ^= out[0];
        }
        return acc;
      });
  EXPECT_LT(std::abs(result.t), kSmokeThreshold)
      << "mont_sqr timing distinguishes sparse vs random operands: t=" << result.t
      << " fixed=" << result.mean_fixed << "ns random=" << result.mean_random << "ns";
}

// MontgomeryContext::pow with a secret full-width exponent at the widths
// the workloads exponentiate at: the CRT halves mod p (256 bits) and mod p²
// (512 bits) of a 512-bit Paillier key, with 256-bit exponents. A fixed
// exponent and fresh random ones of the same bit length must be
// indistinguishable; a zero-digit skip or an unmasked window index would
// separate them.
TEST(CtHarness, MontgomeryPowFixedVsRandom) {
  crypto::Prg prg("ct-harness-mont-pow");
  constexpr std::size_t kExpBits = 256;
  for (const std::size_t mod_bits : {256u, 512u}) {
    const BigInt n = make_modulus(prg, mod_bits);
    const bignum::MontgomeryContext ctx(n);
    const BigInt base = random_bigint_below(prg, n);
    const BigInt fixed_exp = full_width_exponent(prg, kExpBits);
    constexpr int kReps = 4;
    BigInt e;
    const auto result = run_experiment(
        prg,
        [&](int cls) {
          const BigInt fresh = full_width_exponent(prg, kExpBits);  // staged alike
          e = cls == 0 ? fixed_exp : fresh;
        },
        [&] {
          std::uint64_t acc = 0;
          for (int r = 0; r < kReps; ++r) acc ^= ctx.pow(base, e).low_u64();
          return acc;
        });
    EXPECT_LT(std::abs(result.t), kSmokeThreshold)
        << "pow timing distinguishes fixed vs random exponents at " << mod_bits
        << " bits: t=" << result.t << " fixed=" << result.mean_fixed
        << "ns random=" << result.mean_random << "ns";
  }
}

TEST(CtHarness, CtEqBytesEqualVsRandom) {
  crypto::Prg prg("ct-harness-ct-eq");
  constexpr std::size_t kLen = 64;
  std::vector<std::uint8_t> ref(kLen);
  prg.fill(ref.data(), ref.size());
  constexpr int kReps = 512;
  std::vector<std::uint8_t> probe;
  const auto result = run_experiment(
      prg,
      [&](int cls) {
        // Fixed class: equal buffers (an early-exit memcmp would scan to
        // the end). Random class: differs in byte 0 with prob. 255/256.
        probe = ref;
        if (cls == 1) prg.fill(probe.data(), probe.size());
      },
      [&] {
        std::uint64_t acc = 0;
        for (int r = 0; r < kReps; ++r) {
          acc ^= common::ct_eq_bytes(ref.data(), probe.data(), kLen);
        }
        return acc;
      });
  EXPECT_LT(std::abs(result.t), kSmokeThreshold)
      << "ct_eq_bytes timing distinguishes equal vs random buffers: t=" << result.t
      << " fixed=" << result.mean_fixed << "ns random=" << result.mean_random << "ns";
}

TEST(CtHarness, PaillierCrtDecryptFixedVsRandom) {
  crypto::Prg prg("ct-harness-paillier");
  const he::PaillierPrivateKey sk = he::paillier_keygen(prg, 256);
  const he::PaillierPublicKey& pk = sk.public_key();
  const BigInt fixed_ct = pk.encrypt(BigInt(0), prg);
  constexpr int kReps = 4;
  BigInt c;
  const auto result = run_experiment(
      prg,
      [&](int cls) {
        c = cls == 0 ? fixed_ct : pk.encrypt(random_bigint_below(prg, pk.n()), prg);
      },
      [&] {
        std::uint64_t acc = 0;
        for (int r = 0; r < kReps; ++r) acc ^= sk.decrypt(c).low_u64();
        return acc;
      });
  EXPECT_LT(std::abs(result.t), kSmokeThreshold)
      << "CRT decrypt timing distinguishes fixed vs random ciphertexts: t=" << result.t
      << " fixed=" << result.mean_fixed << "ns random=" << result.mean_random << "ns";
}

// The key holder's CRT encryption factor runs the secret exponents p and q
// (and the residues of the secret randomness r) through the same
// constant-time pow as CRT decryption: a fixed r and fresh random ones must
// be indistinguishable.
TEST(CtHarness, PaillierKeyHolderEncryptFixedVsRandom) {
  crypto::Prg prg("ct-harness-paillier-encrypt");
  const he::PaillierPrivateKey sk = he::paillier_keygen(prg, 256);
  const he::PaillierPublicKey& pk = sk.public_key();
  const BigInt fixed_r = pk.random_unit(prg);
  constexpr int kReps = 4;
  BigInt r;
  const auto result = run_experiment(
      prg, [&](int cls) { r = cls == 0 ? fixed_r : pk.random_unit(prg); },
      [&] {
        std::uint64_t acc = 0;
        for (int i = 0; i < kReps; ++i) acc ^= sk.encryption_factor(r).low_u64();
        return acc;
      });
  EXPECT_LT(std::abs(result.t), kSmokeThreshold)
      << "CRT encryption timing distinguishes fixed vs random r: t=" << result.t
      << " fixed=" << result.mean_fixed << "ns random=" << result.mean_random << "ns";
}

// The comb-table exponentiation behind SchnorrGroup::exp_g: every
// window does a masked full-table scan plus an unconditional mont_mul, so
// a fixed exponent and a fresh random one of the same (policy-public) bit
// length must be indistinguishable. A zero-digit skip or an unmasked
// table index would separate the classes here.
TEST(CtHarness, FixedBaseTablePowFixedVsRandom) {
  crypto::Prg prg("ct-harness-fb-pow");
  const BigInt n = make_modulus(prg);
  constexpr std::size_t kExpBits = 256;
  const bignum::CtFixedBaseTable table(n, BigInt(5), kExpBits);
  const BigInt fixed_exp = full_width_exponent(prg, kExpBits);
  constexpr int kReps = 4;
  BigInt e;
  const auto result = run_experiment(
      prg, [&](int cls) { e = cls == 0 ? fixed_exp : full_width_exponent(prg, kExpBits); },
      [&] {
        std::uint64_t acc = 0;
        for (int r = 0; r < kReps; ++r) acc ^= table.pow(e).low_u64();
        return acc;
      });
  EXPECT_LT(std::abs(result.t), kSmokeThreshold)
      << "CtFixedBaseTable::pow timing distinguishes fixed vs random exponents: t=" << result.t
      << " fixed=" << result.mean_fixed << "ns random=" << result.mean_random << "ns";
}

// Sensitivity control: a deliberately leaky early-exit comparison must be
// detected, or the harness itself is vacuous. Equal buffers scan all 4 KiB;
// random buffers exit on byte 0 almost surely — the gap dwarfs any noise.
TEST(CtHarness, DetectsDeliberateEarlyExitLeak) {
  crypto::Prg prg("ct-harness-control");
  constexpr std::size_t kLen = 4096;
  std::vector<std::uint8_t> ref(kLen);
  prg.fill(ref.data(), ref.size());
  constexpr int kReps = 64;
  std::vector<std::uint8_t> probe;
  const auto result = run_experiment(
      prg,
      [&](int cls) {
        probe = ref;
        if (cls == 1) prg.fill(probe.data(), probe.size());
      },
      [&] {
        std::uint64_t acc = 0;
        for (int r = 0; r < kReps; ++r) {
          // Intentional early exit (the anti-pattern ct_eq_bytes replaces).
          std::size_t i = 0;
          while (i < kLen && ref[i] == probe[i]) ++i;
          acc += i + (probe[i % kLen] ^= 1);
        }
        return acc;
      });
  EXPECT_GT(std::abs(result.t), kControlThreshold)
      << "harness failed to detect a deliberate early-exit leak: t=" << result.t
      << " fixed=" << result.mean_fixed << "ns random=" << result.mean_random << "ns";
}

}  // namespace
}  // namespace spfe

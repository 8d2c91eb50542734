#include "bignum/modarith.h"

#include <array>

#include "common/error.h"
#include "common/secret.h"
#include "obs/obs.h"

namespace spfe::bignum {
namespace {

using u64 = std::uint64_t;
using u128 = unsigned __int128;

// Canonicalizing step shared by mont_mul and mont_reduce: t holds k+1 limbs
// (t[k] is the overflow limb) with value < 2n; subtract n iff t >= n. The
// decision comes from a full trial subtraction (no early exit) and the
// subtraction itself applies the mask-selected modulus, so neither the
// comparison nor the reduction branches on the secret residue.
// SPFE_CT_BEGIN(mont_cond_sub_modulus)
void ct_cond_sub_modulus(u64* /*secret*/ t, const u64* n, std::size_t k) {
  u64 borrow = 0;
  for (std::size_t i = 0; i < k; ++i) {
    const u128 d = static_cast<u128>(t[i]) - n[i] - borrow;
    borrow = static_cast<u64>(d >> 64) & 1;
  }
  const u64 ge = common::ct_is_nonzero_u64(t[k]) | common::ct_is_zero_u64(borrow);
  borrow = 0;
  for (std::size_t i = 0; i < k; ++i) {
    const u128 d = static_cast<u128>(t[i]) - (ge & n[i]) - borrow;
    t[i] = static_cast<u64>(d);
    borrow = static_cast<u64>(d >> 64) & 1;
  }
}
// SPFE_CT_END

// Masked 4-bit window lookup: scans all 16 table entries and accumulates the
// one matching `digit` under an equality mask, so the memory access pattern
// is independent of the secret exponent digit.
// SPFE_CT_BEGIN(mont_table_lookup)
void ct_lookup_window(const std::array<std::vector<u64>, 16>& table, u64 /*secret*/ digit,
                      std::vector<u64>& out) {
  const std::size_t k = out.size();
  for (std::size_t i = 0; i < k; ++i) out[i] = 0;
  for (std::size_t e = 0; e < 16; ++e) {
    const u64 m = common::ct_eq_u64(e, digit);
    const std::vector<u64>& entry = table[e];
    for (std::size_t i = 0; i < k; ++i) out[i] |= m & entry[i];
  }
}
// SPFE_CT_END

}  // namespace

BigInt gcd(const BigInt& a, const BigInt& b) {
  BigInt x = a.abs();
  BigInt y = b.abs();
  while (!y.is_zero()) {
    BigInt r = x % y;
    x = std::move(y);
    y = std::move(r);
  }
  return x;
}

ExtGcdResult ext_gcd(const BigInt& a, const BigInt& b) {
  BigInt old_r = a, r = b;
  BigInt old_x = 1, x = 0;
  BigInt old_y = 0, y = 1;
  while (!r.is_zero()) {
    BigInt q, rem;
    BigInt::divmod(old_r, r, q, rem);
    old_r = std::move(r);
    r = std::move(rem);
    BigInt nx = old_x - q * x;
    old_x = std::move(x);
    x = std::move(nx);
    BigInt ny = old_y - q * y;
    old_y = std::move(y);
    y = std::move(ny);
  }
  if (old_r.is_negative()) {
    old_r = -old_r;
    old_x = -old_x;
    old_y = -old_y;
  }
  return {std::move(old_r), std::move(old_x), std::move(old_y)};
}

BigInt mod_inverse(const BigInt& a, const BigInt& m) {
  if (m <= BigInt(1)) throw InvalidArgument("mod_inverse: modulus must exceed 1");
  const ExtGcdResult e = ext_gcd(a.mod_floor(m), m);
  if (!e.g.is_one()) throw CryptoError("mod_inverse: value not invertible");
  return e.x.mod_floor(m);
}

BigInt mod_sub(const BigInt& a, const BigInt& b, const BigInt& m) {
  return (a - b).mod_floor(m);
}

BigInt mod_mul(const BigInt& a, const BigInt& b, const BigInt& m) {
  return (a * b).mod_floor(m);
}

BigInt mod_pow(const BigInt& base, const BigInt& exp, const BigInt& m) {
  if (m.is_zero() || m.is_negative()) throw InvalidArgument("mod_pow: modulus must be positive");
  if (exp.is_negative()) throw InvalidArgument("mod_pow: negative exponent");
  if (m.is_one()) return BigInt();
  if (m.is_odd()) return MontgomeryContext(m).pow(base, exp);
  // Even modulus: plain left-to-right square-and-multiply. (The odd-modulus
  // path is counted inside MontgomeryContext::pow.)
  obs::count(obs::Op::kModExp);
  BigInt result(1);
  BigInt b = base.mod_floor(m);
  for (std::size_t i = exp.bit_length(); i-- > 0;) {
    result = mod_mul(result, result, m);
    if (exp.bit(i)) result = mod_mul(result, b, m);
  }
  return result;
}

int jacobi(const BigInt& a_in, const BigInt& n_in) {
  if (n_in.is_negative() || !n_in.is_odd()) {
    throw InvalidArgument("jacobi: n must be odd and positive");
  }
  BigInt a = a_in.mod_floor(n_in);
  BigInt n = n_in;
  int result = 1;
  while (!a.is_zero()) {
    while (!a.is_odd()) {
      a = a >> 1;
      const u64 n_mod_8 = n.low_u64() & 7;
      if (n_mod_8 == 3 || n_mod_8 == 5) result = -result;
    }
    std::swap(a, n);
    if ((a.low_u64() & 3) == 3 && (n.low_u64() & 3) == 3) result = -result;
    a = a.mod_floor(n);
  }
  return n.is_one() ? result : 0;
}

BigInt crt_combine(const BigInt& r1, const BigInt& m1, const BigInt& r2, const BigInt& m2) {
  return crt_combine(r1, m1, r2, m2, mod_inverse(m1, m2));
}

BigInt crt_combine(const BigInt& r1, const BigInt& m1, const BigInt& r2, const BigInt& m2,
                   const BigInt& m1_inv_mod_m2) {
  // x = r1 + m1 * ((r2 - r1) * m1^{-1} mod m2); with r1 reduced into
  // [0, m1) first, x lands in [0, m1*m2) directly — no wide final division.
  const BigInt r1r = r1.mod_floor(m1);
  const BigInt t = mod_mul(mod_sub(r2, r1r, m2), m1_inv_mod_m2, m2);
  return r1r + m1 * t;
}

MontgomeryContext::MontgomeryContext(const BigInt& modulus) : modulus_(modulus) {
  if (!modulus.is_odd() || modulus.is_negative() || modulus.is_one() || modulus.is_zero()) {
    throw InvalidArgument("MontgomeryContext: modulus must be odd and > 1");
  }
  n_ = modulus.limbs();
  // n0_inv = -n^{-1} mod 2^64 via Newton iteration (works for odd n).
  const u64 n0 = n_[0];
  u64 inv = n0;  // 3-bit correct start
  for (int i = 0; i < 6; ++i) inv *= 2 - n0 * inv;
  n0_inv_ = ~inv + 1;  // negate mod 2^64

  const std::size_t k = n_.size();
  // R^2 mod n where R = 2^(64k).
  const BigInt r2 = (BigInt(1) << (128 * k)).mod_floor(modulus);
  r2_ = r2.limbs();
  r2_.resize(k, 0);
  const BigInt one_m = (BigInt(1) << (64 * k)).mod_floor(modulus);
  one_ = one_m.limbs();
  one_.resize(k, 0);
}

// CIOS Montgomery multiplication: returns REDC(a * b) with a, b of size k.
// Branch-free over the operand values: carries and borrows are extracted
// arithmetically and the final canonicalization is mask-selected.
std::vector<u64> MontgomeryContext::mont_mul(const std::vector<u64>& /*secret*/ a,
                                             const std::vector<u64>& /*secret*/ b) const {
  const std::size_t k = n_.size();
  std::vector<u64> t(k + 2, 0);
  // SPFE_CT_BEGIN(mont_mul)
  for (std::size_t i = 0; i < k; ++i) {
    // t += a[i] * b
    u64 carry = 0;
    for (std::size_t j = 0; j < k; ++j) {
      const u128 s = static_cast<u128>(a[i]) * b[j] + t[j] + carry;
      t[j] = static_cast<u64>(s);
      carry = static_cast<u64>(s >> 64);
    }
    u128 s = static_cast<u128>(t[k]) + carry;
    t[k] = static_cast<u64>(s);
    t[k + 1] = static_cast<u64>(s >> 64);

    // m = t[0] * n0_inv mod 2^64; t += m * n; t >>= 64
    const u64 m = t[0] * n0_inv_;
    carry = 0;
    {
      const u128 s0 = static_cast<u128>(m) * n_[0] + t[0];
      carry = static_cast<u64>(s0 >> 64);
    }
    for (std::size_t j = 1; j < k; ++j) {
      const u128 sj = static_cast<u128>(m) * n_[j] + t[j] + carry;
      t[j - 1] = static_cast<u64>(sj);
      carry = static_cast<u64>(sj >> 64);
    }
    s = static_cast<u128>(t[k]) + carry;
    t[k - 1] = static_cast<u64>(s);
    t[k] = t[k + 1] + static_cast<u64>(s >> 64);
    t[k + 1] = 0;
  }
  ct_cond_sub_modulus(t.data(), n_.data(), k);
  // SPFE_CT_END
  t.resize(k);
  return t;
}

// SOS Montgomery reduction: t is the 2k-limb product; k rounds each zero the
// lowest remaining limb by adding m * n, then the top k limbs are the result.
// The per-round carry is always propagated to the top of the buffer (adding
// zero where it has died out), so the round cost never depends on how far a
// secret-value-dependent carry happens to travel.
std::vector<u64> MontgomeryContext::mont_reduce(std::vector<u64> /*secret*/ t) const {
  const std::size_t k = n_.size();
  t.resize(2 * k + 1, 0);  // slack limb for the propagated carries
  // SPFE_CT_BEGIN(mont_reduce)
  for (std::size_t i = 0; i < k; ++i) {
    const u64 m = t[i] * n0_inv_;
    u64 carry = 0;
    for (std::size_t j = 0; j < k; ++j) {
      const u128 s = static_cast<u128>(m) * n_[j] + t[i + j] + carry;
      t[i + j] = static_cast<u64>(s);
      carry = static_cast<u64>(s >> 64);
    }
    for (std::size_t idx = i + k; idx < 2 * k + 1; ++idx) {
      const u128 s = static_cast<u128>(t[idx]) + carry;
      t[idx] = static_cast<u64>(s);
      carry = static_cast<u64>(s >> 64);
    }
  }
  std::vector<u64> out(t.begin() + static_cast<std::ptrdiff_t>(k),
                       t.begin() + static_cast<std::ptrdiff_t>(2 * k + 1));
  ct_cond_sub_modulus(out.data(), n_.data(), k);
  // SPFE_CT_END
  out.resize(k);
  return out;
}

std::vector<u64> MontgomeryContext::mont_sqr(const std::vector<u64>& /*secret*/ a) const {
  const std::size_t k = n_.size();
  // Square with each cross product computed once and doubled. Zero limbs are
  // NOT skipped: the row cost must not depend on the secret operand value.
  std::vector<u64> t(2 * k, 0);
  // SPFE_CT_BEGIN(mont_sqr)
  for (std::size_t i = 0; i < k; ++i) {
    const u64 ai = a[i];
    u64 carry = 0;
    for (std::size_t j = i + 1; j < k; ++j) {
      const u128 s = static_cast<u128>(ai) * a[j] + t[i + j] + carry;
      t[i + j] = static_cast<u64>(s);
      carry = static_cast<u64>(s >> 64);
    }
    t[i + k] = carry;
  }
  u64 carry = 0;
  for (std::size_t i = 0; i < 2 * k; ++i) {
    const u64 v = t[i];
    t[i] = (v << 1) | carry;
    carry = v >> 63;
  }
  carry = 0;
  for (std::size_t i = 0; i < k; ++i) {
    const u128 sq = static_cast<u128>(a[i]) * a[i];
    u128 s = static_cast<u128>(t[2 * i]) + static_cast<u64>(sq) + carry;
    t[2 * i] = static_cast<u64>(s);
    carry = static_cast<u64>(s >> 64);
    s = static_cast<u128>(t[2 * i + 1]) + static_cast<u64>(sq >> 64) + carry;
    t[2 * i + 1] = static_cast<u64>(s);
    carry = static_cast<u64>(s >> 64);
  }
  const std::vector<u64> red = mont_reduce(std::move(t));
  // SPFE_CT_END
  return red;
}

std::vector<u64> MontgomeryContext::to_mont(const BigInt& a) const {
  std::vector<u64> al = a.mod_floor(modulus_).limbs();
  al.resize(n_.size(), 0);
  return mont_mul(al, r2_);
}

BigInt MontgomeryContext::from_mont(const std::vector<u64>& a) const {
  std::vector<u64> one(n_.size(), 0);
  one[0] = 1;
  const std::vector<u64> res = mont_mul(a, one);
  BigInt out;
  // Reconstruct via bytes to reuse normalization.
  Bytes be(res.size() * 8);
  for (std::size_t i = 0; i < res.size(); ++i) {
    for (int b = 0; b < 8; ++b) {
      be[be.size() - 1 - (8 * i + b)] = static_cast<std::uint8_t>(res[i] >> (8 * b));
    }
  }
  return BigInt::from_bytes_be(be);
}

// base^exp via a 4-bit fixed window. Constant time in the exponent *value*:
// every window pays four squarings plus one multiplication (zero digits
// multiply by the Montgomery identity), and the table entry is fetched with
// a masked full-table scan. The exponent's bit length is public by policy
// (it is a key/modulus size, fixed per context — see DESIGN.md), so the
// window count may depend on it.
BigInt MontgomeryContext::pow(const BigInt& base, const BigInt& /*secret*/ exp) const {
  if (exp.is_negative()) throw InvalidArgument("MontgomeryContext::pow: negative exponent");
  obs::count(obs::Op::kModExp);
  if (exp.is_zero()) return BigInt(1).mod_floor(modulus_);

  const std::vector<u64> b = to_mont(base);
  // Precompute b^0..b^15 in Montgomery form (even entries by squaring, odd
  // ones by a multiply); b itself is not secret (ciphertexts, generators).
  std::array<std::vector<u64>, 16> table;
  table[0] = one_;
  table[1] = b;
  for (int i = 2; i < 16; ++i) {
    table[i] = (i % 2 == 0) ? mont_sqr(table[i / 2]) : mont_mul(table[i - 1], b);
  }

  const std::size_t bits = exp.bit_length();
  const std::size_t windows = (bits + 3) / 4;
  const std::vector<u64>& el = exp.limbs();
  std::vector<u64> acc = one_;
  std::vector<u64> entry(n_.size());
  // SPFE_CT_BEGIN(mont_pow)
  for (std::size_t w = windows; w-- > 0;) {
    if (w + 1 != windows) {  // window position is public, not the digit
      acc = mont_sqr(acc);
      acc = mont_sqr(acc);
      acc = mont_sqr(acc);
      acc = mont_sqr(acc);
    }
    // 4-bit windows never straddle a 64-bit limb; the limb index depends
    // only on the public window position.
    const u64 digit = (el[(4 * w) / 64] >> ((4 * w) % 64)) & 0xf;
    ct_lookup_window(table, digit, entry);
    acc = mont_mul(acc, entry);
  }
  // SPFE_CT_END
  return from_mont(acc);
}

}  // namespace spfe::bignum

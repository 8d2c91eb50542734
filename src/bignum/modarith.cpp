#include "bignum/modarith.h"

#include <algorithm>
#include <string>

#include "common/error.h"
#include "common/parallel.h"
#include "common/secret.h"
#include "obs/obs.h"

namespace spfe::bignum {
namespace {

using u64 = std::uint64_t;
using u128 = unsigned __int128;

// Canonicalizing step of mont_mul and mont_sqr: (top, t) is a (k+1)-limb
// value below 2n, t its low k limbs and top (0 or 1) its overflow limb;
// writes it mod n to out (which may alias t). The decision comes from a
// full trial subtraction (no early exit) and the subtraction itself applies
// the mask-selected modulus, so neither the comparison nor the reduction
// branches on the secret residue.
// SPFE_CT_BEGIN(mont_cond_sub_modulus)
void ct_cond_sub_modulus(std::span<u64> out, std::span<const u64> /*secret*/ t,
                         u64 /*secret*/ top, std::span<const u64> n) {
  const std::size_t k = n.size();
  u64 borrow = 0;
  for (std::size_t i = 0; i < k; ++i) {
    const u128 d = static_cast<u128>(t[i]) - n[i] - borrow;
    borrow = static_cast<u64>(d >> 64) & 1;
  }
  const u64 ge = common::ct_is_nonzero_u64(top) | common::ct_is_zero_u64(borrow);
  borrow = 0;
  for (std::size_t i = 0; i < k; ++i) {
    const u128 d = static_cast<u128>(t[i]) - (ge & n[i]) - borrow;
    out[i] = static_cast<u64>(d);
    borrow = static_cast<u64>(d >> 64) & 1;
  }
}
// SPFE_CT_END

// Masked 4-bit window lookup from a 16-entry table of k-limb values (entry
// e at limbs [e * k, (e + 1) * k)): scans all 16 entries and accumulates the
// one matching `digit` under an equality mask, so the memory access pattern
// is independent of the secret exponent digit.
// SPFE_CT_BEGIN(mont_table_lookup)
void ct_lookup_window(std::span<const u64> table, u64 /*secret*/ digit, std::span<u64> out) {
  const std::size_t k = out.size();
  for (std::size_t i = 0; i < k; ++i) out[i] = 0;
  for (std::size_t e = 0; e < 16; ++e) {
    const u64 m = common::ct_eq_u64(e, digit);
    for (std::size_t i = 0; i < k; ++i) out[i] |= m & table[e * k + i];
  }
}
// SPFE_CT_END

// b^0..b^15 in Montgomery form (even entries by squaring, odd ones by a
// multiply) into the 16 k-limb entries of `table`: the window table of
// MontgomeryContext::pow and each window of CtFixedBaseTable. b itself is
// not secret (ciphertexts, generators).
void build_window(const MontgomeryContext& ctx, std::span<const u64> b, std::span<u64> table,
                  std::span<u64> scratch) {
  const std::size_t k = ctx.limbs();
  const auto entry = [&](std::size_t i) { return table.subspan(i * k, k); };
  std::copy(ctx.mont_one().begin(), ctx.mont_one().end(), entry(0).begin());
  std::copy(b.begin(), b.end(), entry(1).begin());
  for (std::size_t i = 2; i < 16; ++i) {
    if (i % 2 == 0) {
      ctx.mont_sqr(entry(i), entry(i / 2), scratch);
    } else {
      ctx.mont_mul(entry(i), entry(i - 1), b, scratch);
    }
  }
}

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

BigInt mod_mul(const BigInt& a, const BigInt& b, const BigInt& m) {
  return (a * b).mod_floor(m);
}

BigInt mod_pow(const BigInt& base, const BigInt& exp, const BigInt& m) {
  if (m.is_zero() || m.is_negative()) throw InvalidArgument("mod_pow: modulus must be positive");
  if (!m.is_odd()) throw InvalidArgument("mod_pow: modulus must be odd");
  if (exp.is_negative()) throw InvalidArgument("mod_pow: negative exponent");
  if (m.is_one()) return BigInt();
  return MontgomeryContext(m).pow(base, exp);
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

// Garner: x = r1 + m1 * t with t = (r2 - r1) * m1^{-1} mod m2 in [0, m2).
// BigInt multiplies and divides a zero operand by an early exit, which
// would time a zero residue (a zero plaintext in CRT decryption) apart from
// every other, so no operand here is zero: a shifted k * m2 > m1 keeps the
// difference positive, and m1 * (t + 1) - m1 stands for m1 * t. The shift
// depends only on the widths of the public moduli.
BigInt crt_combine(const BigInt& r1, const BigInt& m1, const BigInt& r2, const BigInt& m2,
                   const BigInt& m1_inv_mod_m2) {
  const std::size_t b1 = m1.bit_length() + 1;
  const std::size_t b2 = m2.bit_length();
  const BigInt km2 = m2 << (b1 > b2 ? b1 - b2 : 0);
  const BigInt t = mod_mul(r2 + km2 - r1, m1_inv_mod_m2, m2);
  return r1 + m1 * (t + BigInt(1)) - m1;
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
  unit_.assign(k, 0);
  unit_[0] = 1;
}

// CIOS Montgomery multiplication: r = REDC(a * b) with a, b of k limbs.
// Each row adds a[i] * b and then m * n, shifting one limb out; the row's
// two top limbs live in locals and the other k in scratch, and r is written
// only by the final subtraction, so it may alias a or b. Branch-free over
// the operand values: carries and borrows are extracted arithmetically and
// the final canonicalization is mask-selected.
void MontgomeryContext::mont_mul(std::span<u64> r, std::span<const u64> /*secret*/ a,
                                 std::span<const u64> /*secret*/ b,
                                 std::span<u64> scratch) const {
  const std::size_t k = n_.size();
  const std::span<u64> t = scratch.first(k);
  // SPFE_CT_BEGIN(mont_mul)
  for (std::size_t j = 0; j < k; ++j) t[j] = 0;
  u64 t_k = 0;  // limb k of the running value; its limb k + 1 is t_k1
  for (std::size_t i = 0; i < k; ++i) {
    // t += a[i] * b
    const u64 ai = a[i];
    u64 carry = 0;
    for (std::size_t j = 0; j < k; ++j) {
      const u128 s = static_cast<u128>(ai) * b[j] + t[j] + carry;
      t[j] = static_cast<u64>(s);
      carry = static_cast<u64>(s >> 64);
    }
    u128 s = static_cast<u128>(t_k) + carry;
    t_k = static_cast<u64>(s);
    const u64 t_k1 = static_cast<u64>(s >> 64);

    // m = t[0] * n0_inv mod 2^64; t += m * n; t >>= 64
    const u64 m = t[0] * n0_inv_;
    {
      const u128 s0 = static_cast<u128>(m) * n_[0] + t[0];
      carry = static_cast<u64>(s0 >> 64);
    }
    for (std::size_t j = 1; j < k; ++j) {
      const u128 sj = static_cast<u128>(m) * n_[j] + t[j] + carry;
      t[j - 1] = static_cast<u64>(sj);
      carry = static_cast<u64>(sj >> 64);
    }
    s = static_cast<u128>(t_k) + carry;
    t[k - 1] = static_cast<u64>(s);
    t_k = t_k1 + static_cast<u64>(s >> 64);
  }
  ct_cond_sub_modulus(r, t, t_k, n_);
  // SPFE_CT_END
}

// Squares with each cross product computed once and doubled, then reduces
// the 2k-limb square by SOS: k rounds each zero the lowest remaining limb by
// adding m * n. A round's carry out of its top limb is held in one running
// word and added in the next round, one limb higher, so no round carries to
// the top of the buffer. Zero limbs are NOT skipped and every loop count is
// fixed by k: the cost must not depend on the secret operand value. r is
// written only by the final subtraction, so it may alias a.
void MontgomeryContext::mont_sqr(std::span<u64> r, std::span<const u64> /*secret*/ a,
                                 std::span<u64> scratch) const {
  const std::size_t k = n_.size();
  const std::span<u64> t = scratch.first(2 * k);
  const std::span<const u64> t_high = t.subspan(k);
  // SPFE_CT_BEGIN(mont_sqr)
  for (std::size_t i = 0; i < 2 * k; ++i) t[i] = 0;
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
  u64 top = 0;  // carry into limb i + k, held over from round i - 1
  for (std::size_t i = 0; i < k; ++i) {
    const u64 m = t[i] * n0_inv_;
    carry = 0;
    for (std::size_t j = 0; j < k; ++j) {
      const u128 s = static_cast<u128>(m) * n_[j] + t[i + j] + carry;
      t[i + j] = static_cast<u64>(s);
      carry = static_cast<u64>(s >> 64);
    }
    const u128 s = static_cast<u128>(t[i + k]) + carry + top;
    t[i + k] = static_cast<u64>(s);
    top = static_cast<u64>(s >> 64);
  }
  ct_cond_sub_modulus(r, t_high, top, n_);
  // SPFE_CT_END
}

std::vector<u64> MontgomeryContext::to_mont(const BigInt& a) const {
  const BigInt reduced = a.mod_floor(modulus_);
  std::vector<u64> out(n_.size(), 0);  // exactly k limbs, as every stored value
  std::copy(reduced.limbs().begin(), reduced.limbs().end(), out.begin());
  std::vector<u64> scratch(scratch_limbs());
  mont_mul(out, out, r2_, scratch);
  return out;
}

BigInt MontgomeryContext::from_mont(std::span<const u64> a, std::span<u64> scratch) const {
  std::vector<u64> out(n_.size());
  mont_mul(out, a, unit_, scratch);
  return BigInt::from_limbs(std::move(out), false);
}

// base^exp via a 4-bit fixed window. Constant time in the exponent *value*:
// every window pays four squarings plus one multiplication (zero digits
// multiply by the Montgomery identity), and the table entry is fetched with
// a masked full-table scan. The exponent's bit length is public by policy
// (it is a key/modulus size, fixed per context — see DESIGN.md), so the
// window count may depend on it. The window table, the accumulator, the
// looked-up entry and the kernels' scratch share one buffer.
BigInt MontgomeryContext::pow(const BigInt& base, const BigInt& /*secret*/ exp) const {
  if (exp.is_negative()) throw InvalidArgument("MontgomeryContext::pow: negative exponent");
  obs::count(obs::Op::kModExp);
  if (exp.is_zero()) return BigInt(1).mod_floor(modulus_);

  const std::size_t k = n_.size();
  std::vector<u64> buf(18 * k + scratch_limbs());
  const std::span<u64> table = std::span(buf).first(16 * k);
  const std::span<u64> acc = std::span(buf).subspan(16 * k, k);
  const std::span<u64> entry = std::span(buf).subspan(17 * k, k);
  const std::span<u64> scratch = std::span(buf).subspan(18 * k);
  build_window(*this, to_mont(base), table, scratch);
  std::copy(one_.begin(), one_.end(), acc.begin());

  const std::size_t bits = exp.bit_length();
  const std::size_t windows = (bits + 3) / 4;
  const std::vector<u64>& el = exp.limbs();
  // SPFE_CT_BEGIN(mont_pow)
  for (std::size_t w = windows; w-- > 0;) {
    if (w + 1 != windows) {  // window position is public, not the digit
      mont_sqr(acc, acc, scratch);
      mont_sqr(acc, acc, scratch);
      mont_sqr(acc, acc, scratch);
      mont_sqr(acc, acc, scratch);
    }
    // 4-bit windows never straddle a 64-bit limb; the limb index depends
    // only on the public window position.
    const u64 digit = (el[(4 * w) / 64] >> ((4 * w) % 64)) & 0xf;
    ct_lookup_window(table, digit, entry);
    mont_mul(acc, acc, entry, scratch);
  }
  // SPFE_CT_END
  return from_mont(acc, scratch);
}

// --- CtFixedBaseTable --------------------------------------------------------

CtFixedBaseTable::CtFixedBaseTable(const BigInt& modulus, const BigInt& base,
                                   std::size_t max_exp_bits)
    : ctx_(modulus) {
  const std::size_t k = ctx_.limbs();
  const std::size_t count = (std::max<std::size_t>(max_exp_bits, 1) + 3) / 4;
  windows_.resize(count * 16 * k);
  // Comb anchors g_j = base^(16^j): a serial squaring chain, then each
  // window's 16 entries g_j^d fill independently across the thread pool.
  std::vector<u64> anchors = ctx_.to_mont(base);
  anchors.resize(count * k);
  {
    std::vector<u64> scratch(ctx_.scratch_limbs());
    const std::span<u64> all(anchors);
    for (std::size_t j = 1; j < count; ++j) {
      const std::span<u64> g = all.subspan(j * k, k);
      ctx_.mont_sqr(g, all.subspan((j - 1) * k, k), scratch);
      for (int s = 1; s < 4; ++s) ctx_.mont_sqr(g, g, scratch);
    }
  }
  common::parallel_for(count, [&](std::size_t j) {
    std::vector<u64> scratch(ctx_.scratch_limbs());
    build_window(ctx_, std::span<const u64>(anchors).subspan(j * k, k),
                 std::span(windows_).subspan(j * 16 * k, 16 * k), scratch);
  });
}

BigInt CtFixedBaseTable::pow(const BigInt& /*secret*/ exp) const {
  if (exp.is_negative()) throw InvalidArgument("CtFixedBaseTable: negative exponent");
  const std::size_t bits = exp.bit_length();
  if (bits > max_exp_bits()) {
    throw InvalidArgument("CtFixedBaseTable: exponent exceeds table capacity");
  }
  // The cached comb is still one modular exponentiation to the caller, so
  // it meters like MontgomeryContext::pow (whose result it reproduces).
  obs::count(obs::Op::kModExp);
  if (exp.is_zero()) return BigInt(1).mod_floor(ctx_.modulus());
  const std::size_t used = (bits + 3) / 4;  // public, as in pow
  const std::size_t k = ctx_.limbs();
  const std::vector<u64>& el = exp.limbs();
  std::vector<u64> buf(2 * k + ctx_.scratch_limbs());
  const std::span<u64> acc = std::span(buf).first(k);
  const std::span<u64> entry = std::span(buf).subspan(k, k);
  const std::span<u64> scratch = std::span(buf).subspan(2 * k);
  std::copy(ctx_.mont_one().begin(), ctx_.mont_one().end(), acc.begin());
  const std::span<const u64> windows(windows_);
  // Every window pays one masked full-table scan and one unconditional
  // multiply (digit 0 multiplies by the Montgomery identity) — no squarings
  // and no value-dependent skips.
  // SPFE_CT_BEGIN(fbtable_pow)
  for (std::size_t j = 0; j < used; ++j) {
    // 4-bit windows never straddle a limb; the limb index is the public
    // window position.
    const u64 digit = (el[(4 * j) / 64] >> ((4 * j) % 64)) & 0xf;
    ct_lookup_window(windows.subspan(j * 16 * k, 16 * k), digit, entry);
    ctx_.mont_mul(acc, acc, entry, scratch);
  }
  // SPFE_CT_END
  return ctx_.from_mont(acc, scratch);
}

// --- FixedBaseCache ----------------------------------------------------------

FixedBaseCache& FixedBaseCache::global() {
  static FixedBaseCache cache;
  return cache;
}

std::shared_ptr<const CtFixedBaseTable> FixedBaseCache::get(const BigInt& modulus,
                                                            const BigInt& base,
                                                            std::size_t max_exp_bits) {
  // Key on the window count so requests within the same 4-bit round-up
  // share one table.
  const std::size_t windows = (std::max<std::size_t>(max_exp_bits, 1) + 3) / 4;
  const auto key = std::make_tuple(modulus, base, windows);
  {
    std::lock_guard<std::mutex> lk(mu_);
    const auto it = tables_.find(key);
    if (it != tables_.end()) {
      obs::count(obs::Op::kFbTableHit);
      return it->second;
    }
  }
  // Build outside the lock: a long build must not serialize unrelated keys.
  // A racing build of the same key keeps the first insertion.
  obs::Span span("precomp.fbtable_build");
  span.note("bits=" + std::to_string(windows * 4));
  auto table = std::make_shared<const CtFixedBaseTable>(modulus, base, windows * 4);
  std::lock_guard<std::mutex> lk(mu_);
  const auto [it, inserted] = tables_.emplace(key, std::move(table));
  obs::count(inserted ? obs::Op::kFbTableBuild : obs::Op::kFbTableHit);
  return it->second;
}

void FixedBaseCache::clear() {
  std::lock_guard<std::mutex> lk(mu_);
  tables_.clear();
}

}  // namespace spfe::bignum

#include "bignum/bigint.h"

#include <bit>
#include <compare>

#include "common/error.h"
#include "common/secret.h"
#include "crypto/prg.h"

namespace spfe::bignum {
namespace {

using u64 = std::uint64_t;
using u128 = unsigned __int128;

}  // namespace

BigInt::BigInt(std::int64_t v) {
  if (v == 0) return;
  negative_ = v < 0;
  // Careful with INT64_MIN: negate in unsigned domain.
  const u64 mag = negative_ ? (~static_cast<u64>(v) + 1) : static_cast<u64>(v);
  mag_.push_back(mag);
}

BigInt::BigInt(std::uint64_t v) {
  if (v != 0) mag_.push_back(v);
}

BigInt BigInt::from_limbs(std::vector<std::uint64_t> limbs, bool negative) {
  BigInt r;
  r.mag_ = std::move(limbs);
  r.negative_ = negative;
  r.normalize();
  return r;
}

void BigInt::normalize() {
  while (!mag_.empty() && mag_.back() == 0) mag_.pop_back();
  if (mag_.empty()) negative_ = false;
}

// Limb counts are public by policy (normalized representation), so unequal
// sizes are decided directly. Equal-size magnitudes are compared without an
// early exit: every limb is visited and the verdict accumulates in masks, so
// the scan time does not reveal where the operands first differ.
int BigInt::cmp_mag(const BigInt& /*secret*/ a, const BigInt& /*secret*/ b) {
  if (a.mag_.size() != b.mag_.size()) return a.mag_.size() < b.mag_.size() ? -1 : 1;
  // SPFE_CT_BEGIN(cmp_mag)
  common::SecretBool lt;
  common::SecretBool gt;
  for (std::size_t i = a.mag_.size(); i-- > 0;) {
    const common::SecretBool limb_lt =
        common::SecretBool::from_mask(common::ct_lt_u64(a.mag_[i], b.mag_[i]));
    const common::SecretBool limb_gt =
        common::SecretBool::from_mask(common::ct_lt_u64(b.mag_[i], a.mag_[i]));
    const common::SecretBool undecided = ~(lt | gt);
    lt = lt | (undecided & limb_lt);
    gt = gt | (undecided & limb_gt);
  }
  const std::uint64_t verdict = common::ct_select_u64(
      gt.mask(), 1, common::ct_select_u64(lt.mask(), static_cast<u64>(-1), 0));
  // SPFE_CT_END
  // The ordering itself is declassified: callers (sign logic, divmod) branch
  // on it, which is the documented public-by-policy exit of this region.
  return static_cast<int>(static_cast<std::int64_t>(verdict));
}

std::strong_ordering BigInt::operator<=>(const BigInt& o) const {
  if (negative_ != o.negative_) {
    return negative_ ? std::strong_ordering::less : std::strong_ordering::greater;
  }
  const int c = cmp_mag(*this, o);
  const int signed_c = negative_ ? -c : c;
  if (signed_c < 0) return std::strong_ordering::less;
  if (signed_c > 0) return std::strong_ordering::greater;
  return std::strong_ordering::equal;
}

std::vector<u64> BigInt::add_mag(const std::vector<u64>& a, const std::vector<u64>& b) {
  const auto& big = a.size() >= b.size() ? a : b;
  const auto& small = a.size() >= b.size() ? b : a;
  std::vector<u64> out(big.size() + 1, 0);
  u64 carry = 0;
  std::size_t i = 0;
  for (; i < small.size(); ++i) {
    const u128 s = static_cast<u128>(big[i]) + small[i] + carry;
    out[i] = static_cast<u64>(s);
    carry = static_cast<u64>(s >> 64);
  }
  for (; i < big.size(); ++i) {
    const u128 s = static_cast<u128>(big[i]) + carry;
    out[i] = static_cast<u64>(s);
    carry = static_cast<u64>(s >> 64);
  }
  out[big.size()] = carry;
  while (!out.empty() && out.back() == 0) out.pop_back();
  return out;
}

std::vector<u64> BigInt::sub_mag(const std::vector<u64>& /*secret*/ a,
                                 const std::vector<u64>& /*secret*/ b) {
  std::vector<u64> out(a.size(), 0);
  // SPFE_CT_BEGIN(sub_mag)
  // Borrow chain over secret limb values: the borrow bit is extracted
  // arithmetically from the wide difference (the high half of `d` is all
  // ones exactly when the subtraction wrapped), never via a branch.
  u64 borrow = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const u64 bi = i < b.size() ? b[i] : 0;  // index vs size: public shape
    const u128 d = static_cast<u128>(a[i]) - bi - borrow;
    out[i] = static_cast<u64>(d);
    borrow = static_cast<u64>(d >> 64) & 1;
  }
  // SPFE_CT_END
  // Normalization (public-by-policy limb count) happens outside the region.
  while (!out.empty() && out.back() == 0) out.pop_back();
  return out;
}

BigInt BigInt::operator-() const {
  BigInt r = *this;
  if (!r.is_zero()) r.negative_ = !r.negative_;
  return r;
}

BigInt BigInt::abs() const {
  BigInt r = *this;
  r.negative_ = false;
  return r;
}

// a + (-1)^b_negative * |b|. Equal magnitudes subtract through sub_mag like
// any others, and subtraction negates no copy of its operand, so a zero
// operand or a zero result costs what any value of its width costs.
BigInt BigInt::add_signed(const BigInt& a, const BigInt& b, bool b_negative) {
  if (a.negative_ == b_negative) return from_limbs(add_mag(a.mag_, b.mag_), a.negative_);
  if (cmp_mag(a, b) >= 0) return from_limbs(sub_mag(a.mag_, b.mag_), a.negative_);
  return from_limbs(sub_mag(b.mag_, a.mag_), b_negative);
}

BigInt BigInt::operator+(const BigInt& o) const { return add_signed(*this, o, o.negative_); }

BigInt BigInt::operator-(const BigInt& o) const { return add_signed(*this, o, !o.negative_); }

// Schoolbook product; operator* has already returned for a zero operand.
std::vector<u64> BigInt::mul_mag(const std::vector<u64>& a, const std::vector<u64>& b) {
  std::vector<u64> out(a.size() + b.size(), 0);
  for (std::size_t i = 0; i < a.size(); ++i) {
    u64 carry = 0;
    const u64 ai = a[i];
    if (ai == 0) continue;
    for (std::size_t j = 0; j < b.size(); ++j) {
      const u128 t = static_cast<u128>(ai) * b[j] + out[i + j] + carry;
      out[i + j] = static_cast<u64>(t);
      carry = static_cast<u64>(t >> 64);
    }
    out[i + b.size()] = carry;
  }
  while (!out.empty() && out.back() == 0) out.pop_back();
  return out;
}

BigInt BigInt::operator*(const BigInt& o) const {
  if (is_zero() || o.is_zero()) return BigInt();
  return from_limbs(mul_mag(mag_, o.mag_), negative_ != o.negative_);
}

// Knuth Algorithm D on 64-bit limbs (magnitudes only).
void BigInt::divmod_mag(const BigInt& a, const BigInt& b, BigInt& q, BigInt& r) {
  if (b.is_zero()) throw InvalidArgument("BigInt: division by zero");
  if (cmp_mag(a, b) < 0) {
    q = BigInt();
    r = a.abs();
    return;
  }
  if (b.mag_.size() == 1) {
    // Single-limb fast path.
    const u64 d = b.mag_[0];
    std::vector<u64> qm(a.mag_.size(), 0);
    u64 rem = 0;
    for (std::size_t i = a.mag_.size(); i-- > 0;) {
      const u128 cur = (static_cast<u128>(rem) << 64) | a.mag_[i];
      qm[i] = static_cast<u64>(cur / d);
      rem = static_cast<u64>(cur % d);
    }
    q = from_limbs(std::move(qm), false);
    r = BigInt(rem);
    return;
  }

  // Normalize so the divisor's top limb has its MSB set.
  const int shift = std::countl_zero(b.mag_.back());
  const BigInt u = a.abs() << static_cast<std::size_t>(shift);
  const BigInt v = b.abs() << static_cast<std::size_t>(shift);
  const std::size_t n = v.mag_.size();
  const std::size_t m = u.mag_.size() - n;

  std::vector<u64> un = u.mag_;
  un.push_back(0);  // extra high limb
  const std::vector<u64>& vn = v.mag_;
  std::vector<u64> qm(m + 1, 0);

  const u64 v_hi = vn[n - 1];
  const u64 v_lo = vn[n - 2];

  for (std::size_t j = m + 1; j-- > 0;) {
    const u128 num = (static_cast<u128>(un[j + n]) << 64) | un[j + n - 1];
    u128 qhat = num / v_hi;
    u128 rhat = num % v_hi;
    if (qhat > ~u64(0)) {
      qhat = ~u64(0);
      rhat = num - qhat * v_hi;
    }
    while (rhat <= ~u64(0) &&
           qhat * v_lo > ((rhat << 64) | un[j + n - 2])) {
      --qhat;
      rhat += v_hi;
    }
    // Multiply-subtract qhat * v from un[j .. j+n].
    u64 borrow = 0;
    u64 carry = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const u128 p = static_cast<u128>(static_cast<u64>(qhat)) * vn[i] + carry;
      carry = static_cast<u64>(p >> 64);
      const u128 d = static_cast<u128>(un[j + i]) - static_cast<u64>(p) - borrow;
      un[j + i] = static_cast<u64>(d);
      borrow = (d >> 64) != 0 ? 1 : 0;
    }
    const u128 d = static_cast<u128>(un[j + n]) - carry - borrow;
    un[j + n] = static_cast<u64>(d);
    if ((d >> 64) != 0) {
      // qhat was one too large: add back.
      --qhat;
      u64 c = 0;
      for (std::size_t i = 0; i < n; ++i) {
        const u128 s = static_cast<u128>(un[j + i]) + vn[i] + c;
        un[j + i] = static_cast<u64>(s);
        c = static_cast<u64>(s >> 64);
      }
      un[j + n] += c;
    }
    qm[j] = static_cast<u64>(qhat);
  }

  // Undo the normalization shift in place.
  un.resize(n);
  if (shift != 0) {
    for (std::size_t i = 0; i + 1 < n; ++i) un[i] = (un[i] >> shift) | (un[i + 1] << (64 - shift));
    un[n - 1] >>= shift;
  }
  q = from_limbs(std::move(qm), false);
  r = from_limbs(std::move(un), false);
}

void BigInt::divmod(const BigInt& a, const BigInt& b, BigInt& q, BigInt& r) {
  divmod_mag(a, b, q, r);
  // Truncated semantics: quotient sign = sign(a)*sign(b), remainder sign = sign(a).
  if (!q.is_zero()) q.negative_ = a.negative_ != b.negative_;
  if (!r.is_zero()) r.negative_ = a.negative_;
}

BigInt BigInt::operator/(const BigInt& o) const {
  BigInt q, r;
  divmod(*this, o, q, r);
  return q;
}

BigInt BigInt::operator%(const BigInt& o) const {
  BigInt q, r;
  divmod(*this, o, q, r);
  return r;
}

BigInt BigInt::mod_floor(const BigInt& m) const {
  if (m.is_zero() || m.is_negative()) {
    throw InvalidArgument("BigInt::mod_floor: modulus must be positive");
  }
  BigInt r = *this % m;
  if (r.is_negative()) r += m;
  return r;
}

BigInt BigInt::operator<<(std::size_t bits) const {
  if (is_zero() || bits == 0) return *this;
  const std::size_t limb_shift = bits / 64;
  const std::size_t bit_shift = bits % 64;
  std::vector<u64> out(mag_.size() + limb_shift + 1, 0);
  for (std::size_t i = 0; i < mag_.size(); ++i) {
    out[i + limb_shift] |= bit_shift == 0 ? mag_[i] : (mag_[i] << bit_shift);
    if (bit_shift != 0) out[i + limb_shift + 1] |= mag_[i] >> (64 - bit_shift);
  }
  return from_limbs(std::move(out), negative_);
}

BigInt BigInt::operator>>(std::size_t bits) const {
  if (is_zero() || bits == 0) return *this;
  const std::size_t limb_shift = bits / 64;
  if (limb_shift >= mag_.size()) return BigInt();
  const std::size_t bit_shift = bits % 64;
  std::vector<u64> out(mag_.size() - limb_shift, 0);
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = bit_shift == 0 ? mag_[i + limb_shift] : (mag_[i + limb_shift] >> bit_shift);
    if (bit_shift != 0 && i + limb_shift + 1 < mag_.size()) {
      out[i] |= mag_[i + limb_shift + 1] << (64 - bit_shift);
    }
  }
  return from_limbs(std::move(out), negative_);
}

std::size_t BigInt::bit_length() const {
  if (mag_.empty()) return 0;
  return 64 * (mag_.size() - 1) + (64 - static_cast<std::size_t>(std::countl_zero(mag_.back())));
}

bool BigInt::bit(std::size_t i) const {
  const std::size_t limb = i / 64;
  if (limb >= mag_.size()) return false;
  return ((mag_[limb] >> (i % 64)) & 1) != 0;
}

std::uint64_t BigInt::to_u64() const {
  if (negative_) throw InvalidArgument("BigInt::to_u64: negative value");
  if (mag_.size() > 1) throw InvalidArgument("BigInt::to_u64: value exceeds 64 bits");
  return mag_.empty() ? 0 : mag_[0];
}

BigInt BigInt::from_string(const std::string& s) {
  if (s.empty()) throw InvalidArgument("BigInt::from_string: empty string");
  std::size_t pos = 0;
  bool neg = false;
  if (s[pos] == '-') {
    neg = true;
    ++pos;
  }
  if (s.size() >= pos + 2 && s[pos] == '0' && (s[pos + 1] == 'x' || s[pos + 1] == 'X')) {
    BigInt r = from_hex(s.substr(pos + 2));
    if (neg && !r.is_zero()) r.negative_ = true;
    return r;
  }
  if (pos == s.size()) throw InvalidArgument("BigInt::from_string: no digits");
  BigInt r;
  for (; pos < s.size(); ++pos) {
    const char c = s[pos];
    if (c < '0' || c > '9') throw InvalidArgument("BigInt::from_string: bad digit");
    r = r * BigInt(std::uint64_t(10)) + BigInt(std::uint64_t(c - '0'));
  }
  if (neg && !r.is_zero()) r.negative_ = true;
  return r;
}

BigInt BigInt::from_hex(const std::string& hex) {
  if (hex.empty()) throw InvalidArgument("BigInt::from_hex: empty string");
  BigInt r;
  std::vector<u64> limbs((hex.size() + 15) / 16, 0);
  for (std::size_t i = 0; i < hex.size(); ++i) {
    const char c = hex[hex.size() - 1 - i];
    u64 d;
    if (c >= '0' && c <= '9') {
      d = static_cast<u64>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      d = static_cast<u64>(c - 'a' + 10);
    } else if (c >= 'A' && c <= 'F') {
      d = static_cast<u64>(c - 'A' + 10);
    } else {
      throw InvalidArgument("BigInt::from_hex: bad digit");
    }
    limbs[i / 16] |= d << (4 * (i % 16));
  }
  return from_limbs(std::move(limbs), false);
}

BigInt BigInt::from_bytes_be(BytesView data) {
  std::vector<u64> limbs((data.size() + 7) / 8, 0);
  for (std::size_t i = 0; i < data.size(); ++i) {
    const std::size_t bit_pos = 8 * (data.size() - 1 - i);
    limbs[bit_pos / 64] |= static_cast<u64>(data[i]) << (bit_pos % 64);
  }
  return from_limbs(std::move(limbs), false);
}

Bytes BigInt::to_bytes_be() const {
  if (is_zero()) return {};
  const std::size_t nbytes = (bit_length() + 7) / 8;
  return to_bytes_be_padded(nbytes);
}

Bytes BigInt::to_bytes_be_padded(std::size_t width) const {
  const std::size_t nbytes = is_zero() ? 0 : (bit_length() + 7) / 8;
  if (nbytes > width) throw InvalidArgument("BigInt::to_bytes_be_padded: value too wide");
  Bytes out(width, 0);
  for (std::size_t i = 0; i < nbytes; ++i) {
    const std::size_t bit_pos = 8 * i;
    out[width - 1 - i] = static_cast<std::uint8_t>(mag_[bit_pos / 64] >> (bit_pos % 64));
  }
  return out;
}

std::string BigInt::to_hex() const {
  if (is_zero()) return "0";
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (std::size_t i = mag_.size(); i-- > 0;) {
    for (int nib = 15; nib >= 0; --nib) {
      const unsigned d = static_cast<unsigned>((mag_[i] >> (4 * nib)) & 0xf);
      if (out.empty() && d == 0) continue;
      out.push_back(kDigits[d]);
    }
  }
  return out;
}

std::string BigInt::to_string() const {
  if (is_zero()) return "0";
  // Repeated division by 10^19 (largest power of 10 in a u64).
  constexpr u64 kChunk = 10'000'000'000'000'000'000ULL;
  BigInt v = abs();
  std::vector<u64> chunks;
  const BigInt chunk_div(kChunk);
  while (!v.is_zero()) {
    BigInt q, r;
    divmod(v, chunk_div, q, r);
    chunks.push_back(r.low_u64());
    v = std::move(q);
  }
  std::string out = negative_ ? "-" : "";
  out += std::to_string(chunks.back());
  for (std::size_t i = chunks.size() - 1; i-- > 0;) {
    std::string part = std::to_string(chunks[i]);
    out += std::string(19 - part.size(), '0') + part;
  }
  return out;
}

BigInt BigInt::random_below(crypto::Prg& prg, const BigInt& bound) {
  if (bound.is_zero() || bound.is_negative()) {
    throw InvalidArgument("BigInt::random_below: bound must be positive");
  }
  const std::size_t bits = bound.bit_length();
  const std::size_t nbytes = (bits + 7) / 8;
  const unsigned top_mask =
      bits % 8 == 0 ? 0xff : static_cast<unsigned>((1u << (bits % 8)) - 1);
  for (;;) {
    Bytes raw = prg.bytes(nbytes);
    raw[0] &= static_cast<std::uint8_t>(top_mask);
    BigInt candidate = from_bytes_be(raw);
    if (candidate < bound) return candidate;
  }
}

BigInt BigInt::random_bits(crypto::Prg& prg, std::size_t bits) {
  if (bits == 0) throw InvalidArgument("BigInt::random_bits: bits must be >= 1");
  const std::size_t nbytes = (bits + 7) / 8;
  Bytes raw = prg.bytes(nbytes);
  const unsigned top_bit = (bits - 1) % 8;
  raw[0] &= static_cast<std::uint8_t>((1u << (top_bit + 1)) - 1);
  raw[0] |= static_cast<std::uint8_t>(1u << top_bit);
  return from_bytes_be(raw);
}

}  // namespace spfe::bignum

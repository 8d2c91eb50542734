// Arbitrary-precision signed integers, implemented from scratch.
//
// Sign-magnitude representation over 64-bit limbs (little-endian, always
// normalized: no trailing zero limbs, zero is non-negative). Multiplication
// is schoolbook (the operands of every protocol stay far below where a
// subquadratic method would pay); division is Knuth's Algorithm D. This is
// the substrate for the homomorphic encryption (Paillier, Goldwasser–Micali),
// the Naor–Pinkas OT group, and the bignum prime field.
#pragma once

#include <compare>
#include <cstdint>
#include <string>
#include <vector>

#include "common/bytes.h"

namespace spfe::crypto {
class Prg;
}

namespace spfe::bignum {

class BigInt {
 public:
  BigInt() = default;
  BigInt(std::int64_t v);   // NOLINT(google-explicit-constructor): numeric literal convenience
  BigInt(std::uint64_t v);  // NOLINT(google-explicit-constructor)
  BigInt(int v) : BigInt(static_cast<std::int64_t>(v)) {}  // NOLINT

  // Parses decimal (default) or hex with "0x" prefix; optional leading '-'.
  static BigInt from_string(const std::string& s);
  static BigInt from_hex(const std::string& hex);
  // Big-endian unsigned bytes.
  static BigInt from_bytes_be(BytesView data);

  std::string to_string() const;  // decimal
  std::string to_hex() const;     // lowercase, no 0x prefix, "0" for zero
  // Minimal-length big-endian magnitude (sign is not encoded; see serialize.h
  // in this directory for signed wire encoding). Zero encodes as empty.
  Bytes to_bytes_be() const;
  // Fixed-width big-endian magnitude, left-padded with zeros; throws
  // InvalidArgument if the value does not fit.
  Bytes to_bytes_be_padded(std::size_t width) const;

  bool is_zero() const { return mag_.empty(); }
  bool is_negative() const { return negative_; }
  bool is_odd() const { return !mag_.empty() && (mag_[0] & 1) != 0; }
  bool is_one() const { return !negative_ && mag_.size() == 1 && mag_[0] == 1; }

  // Number of significant bits of the magnitude (0 for zero).
  std::size_t bit_length() const;
  // i-th bit of the magnitude (LSB = 0).
  bool bit(std::size_t i) const;
  // Value as uint64; throws InvalidArgument if negative or too large.
  std::uint64_t to_u64() const;
  // Low 64 bits of the magnitude (0 for zero).
  std::uint64_t low_u64() const { return mag_.empty() ? 0 : mag_[0]; }

  BigInt operator-() const;
  BigInt abs() const;

  BigInt operator+(const BigInt& o) const;
  BigInt operator-(const BigInt& o) const;
  BigInt operator*(const BigInt& o) const;
  // Truncated division (C++ semantics): quotient rounds toward zero.
  BigInt operator/(const BigInt& o) const;
  // Remainder with the sign of the dividend (C++ semantics).
  BigInt operator%(const BigInt& o) const;
  BigInt& operator+=(const BigInt& o) { return *this = *this + o; }
  BigInt& operator-=(const BigInt& o) { return *this = *this - o; }
  BigInt& operator*=(const BigInt& o) { return *this = *this * o; }

  // Quotient and remainder in one pass (truncated semantics).
  static void divmod(const BigInt& a, const BigInt& b, BigInt& q, BigInt& r);

  // Non-negative remainder for positive modulus m: result in [0, m).
  BigInt mod_floor(const BigInt& m) const;

  BigInt operator<<(std::size_t bits) const;
  BigInt operator>>(std::size_t bits) const;

  std::strong_ordering operator<=>(const BigInt& o) const;
  bool operator==(const BigInt& o) const = default;

  // Uniform value in [0, bound); bound must be positive.
  static BigInt random_below(crypto::Prg& prg, const BigInt& bound);
  // Uniform value with exactly `bits` bits (MSB set); bits >= 1.
  static BigInt random_bits(crypto::Prg& prg, std::size_t bits);

  // Limb access for algorithms layered on top (Montgomery, field ops).
  const std::vector<std::uint64_t>& limbs() const { return mag_; }
  // Value from little-endian magnitude limbs (trailing zero limbs dropped).
  static BigInt from_limbs(std::vector<std::uint64_t> limbs, bool negative);

 private:
  void normalize();
  // Magnitude comparison helpers ignore sign.
  static int cmp_mag(const BigInt& a, const BigInt& b);
  static std::vector<std::uint64_t> add_mag(const std::vector<std::uint64_t>& a,
                                            const std::vector<std::uint64_t>& b);
  // Requires |a| >= |b|.
  static std::vector<std::uint64_t> sub_mag(const std::vector<std::uint64_t>& a,
                                            const std::vector<std::uint64_t>& b);
  static std::vector<std::uint64_t> mul_mag(const std::vector<std::uint64_t>& a,
                                            const std::vector<std::uint64_t>& b);
  // a + b with b's sign replaced by b_negative: operator+ and operator-.
  static BigInt add_signed(const BigInt& a, const BigInt& b, bool b_negative);
  static void divmod_mag(const BigInt& a, const BigInt& b, BigInt& q, BigInt& r);

  std::vector<std::uint64_t> mag_;
  bool negative_ = false;
};

}  // namespace spfe::bignum

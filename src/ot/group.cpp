#include "ot/group.h"

#include "common/error.h"
#include "crypto/kdf.h"

namespace spfe::ot {

using bignum::BigInt;

namespace {

// Safe primes found with this library's own random_safe_prime search
// (seed "spfe-safe-prime-params-v1"); primality of p and (p-1)/2 is
// re-verified by the test suite. The generator 4 = 2^2 is a quadratic
// residue and therefore generates the full order-q subgroup.
constexpr const char* kSafePrime512 =
    "9098966ce2c4aa7634325f5726fc855cc75d882818e11ed612178ce6707f361f"
    "0f1a590cb27fe14a6443fca690864e8f21bf480d2715ab6458b84ac89ad3ae53";
constexpr const char* kSafePrime1024 =
    "f48790ef8b185181709d7d84c42f22e1f82a6bb685eb1ecf43318fbded9c101c"
    "a368a2a9a26d39f4a1db56c73233b1a86719e4d21349d77b823d3ed3a8e51cb8"
    "b71d3884bd8b0790911855f26b91ff3fba68165a4ae6574bdff783535db03c9c"
    "648d673f3f87ae799205df683fbc7f94dd645f85251d8bc116da27c2cf428d83";

}  // namespace

SchnorrGroup::SchnorrGroup(BigInt p, BigInt g)
    : p_(std::move(p)), q_((p_ - BigInt(1)) >> 1), g_(std::move(g)), mont_(p_) {
  if (p_ < BigInt(7)) throw InvalidArgument("SchnorrGroup: modulus too small");
  if (g_ <= BigInt(1) || g_ >= p_) throw InvalidArgument("SchnorrGroup: bad generator");
  // g must lie in the QR subgroup and not be the identity.
  if (bignum::jacobi(g_, p_) != 1) {
    throw InvalidArgument("SchnorrGroup: generator not a quadratic residue");
  }
  // Exponents are drawn from [0, q); the cached comb covers that width.
  g_table_ = he::FixedBaseCache::global().get(p_, g_, q_.bit_length());
}

BigInt SchnorrGroup::exp(const BigInt& base, const BigInt& e) const { return mont_.pow(base, e); }

BigInt SchnorrGroup::exp_g(const BigInt& e) const {
  if (!e.is_negative() && e.bit_length() <= g_table_->max_exp_bits()) {
    return g_table_->pow(e);
  }
  return mont_.pow(g_, e);
}

BigInt SchnorrGroup::mul(const BigInt& a, const BigInt& b) const {
  return bignum::mod_mul(a, b, p_);
}

BigInt SchnorrGroup::inv(const BigInt& a) const { return bignum::mod_inverse(a, p_); }

bool SchnorrGroup::is_element(const BigInt& a) const {
  if (a <= BigInt(0) || a >= p_) return false;
  return bignum::jacobi(a, p_) == 1;
}

BigInt SchnorrGroup::random_exponent(crypto::Prg& prg) const {
  return BigInt::random_below(prg, q_);
}

BigInt SchnorrGroup::hash_to_group(const std::string& label) const {
  // Expand the label to modulus width, reduce, then square into the QR
  // subgroup. Nobody knows the discrete log of the result.
  Bytes material = crypto::kdf_expand(
      BytesView(reinterpret_cast<const std::uint8_t*>(label.data()), label.size()),
      "spfe-hash-to-group", element_bytes() + 16);
  const BigInt raw = BigInt::from_bytes_be(material).mod_floor(p_ - BigInt(3)) + BigInt(2);
  return mul(raw, raw);
}

SchnorrGroup SchnorrGroup::rfc_like_512() {
  return SchnorrGroup(BigInt::from_hex(kSafePrime512), BigInt(4));
}

SchnorrGroup SchnorrGroup::rfc_like_1024() {
  return SchnorrGroup(BigInt::from_hex(kSafePrime1024), BigInt(4));
}

}  // namespace spfe::ot

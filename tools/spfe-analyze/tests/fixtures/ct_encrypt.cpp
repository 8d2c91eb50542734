// Fixture: a secret passed to an encryption call inside a region. Outside
// regions a ciphertext of a secret is public (IND-CPA), so encryption
// sanitizes taint; inside a region the call itself must be constant time,
// and encryption is not a reviewed kernel. The region pass must reject it.
#include <cstdint>

struct PublicKey {
  std::uint64_t encrypt(std::uint64_t m) const;
};

std::uint64_t seal(const PublicKey& pk, std::uint64_t /*secret*/ secret) {
  // SPFE_CT_BEGIN(fixture_encrypt)
  const std::uint64_t c = pk.encrypt(secret);  // flagged: not CT-audited
  // SPFE_CT_END
  return c;
}

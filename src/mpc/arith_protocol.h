// The paper's §3.3.4 light-weight secure MPC protocol for arithmetic
// circuits over Z_u, built on Paillier encryption under the *client's* key.
//
// The server walks the circuit holding E(value) for every node:
//   - addition / subtraction / multiplication-by-constant: local homomorphic
//     operations (one ciphertext multiplication or exponentiation);
//   - multiplication: one interaction — server sends statistically blinded
//     E(v1 + r1), E(v2 + r2); client decrypts, returns E((d1 mod u)(d2 mod u));
//     server strips the cross terms homomorphically.
// Multiplications at the same multiplicative depth are batched into one
// round, so round complexity is proportional to the circuit's mult-depth,
// exactly as stated in §3.3.4.
//
// Plaintexts live in Z_N but represent values of Z_u (u << N). Every node
// carries a bound B with plaintext < B and plaintext = value (mod u); all
// operations keep plaintexts positive (no mod-N wraparound, which would
// break the mod-u congruence since u does not divide N). Blinding uses a
// 2^-40 statistical-hiding margin; the protocol throws CryptoError if the
// key is too small for the circuit's depth.
//
// Security: weak against a malicious client (a deviating client can only
// shift the inputs / substitute a same-output-size function, per §3.3);
// the client learns only statistically blinded values plus the output.
#pragma once

#include <cstdint>
#include <vector>

#include "bignum/bigint.h"
#include "circuits/arith_circuit.h"
#include "crypto/prg.h"
#include "he/paillier.h"
#include "net/network.h"

namespace spfe::mpc {

inline constexpr std::size_t kStatSecurityBits = 40;

// Runs §3.3.4 where the server already holds ciphertexts of the circuit
// inputs under the client's key (plaintexts < `input_bound`, congruent to
// the true inputs mod circuit.modulus()). The client holds `sk` and ends
// with the outputs reduced mod u. Rounds: 1 per mult-depth level + 1 for
// output disclosure.
std::vector<std::uint64_t> run_arith_mpc_on_ciphertexts(
    net::StarNetwork& net, std::size_t server_id, const circuits::ArithCircuit& circuit,
    const he::PaillierPrivateKey& sk, const std::vector<bignum::BigInt>& input_ciphertexts,
    const bignum::BigInt& input_bound, crypto::Prg& client_prg, crypto::Prg& server_prg);

// Shares entry point: client and server hold additive shares of each input
// mod u (the output format of the §3.3 input-selection protocols). The
// client first sends its public key and encrypted shares (one extra
// half-round folded into the first round of the mult phase).
std::vector<std::uint64_t> run_arith_mpc_shared(
    net::StarNetwork& net, std::size_t server_id, const circuits::ArithCircuit& circuit,
    const he::PaillierPrivateKey& sk, const std::vector<std::uint64_t>& client_shares,
    const std::vector<std::uint64_t>& server_shares, crypto::Prg& client_prg,
    crypto::Prg& server_prg);

}  // namespace spfe::mpc

// §3.3 — input-selection protocols: client and server end with additive
// shares of the m selected items, revealing nothing to either side.
//
// Three constructions (Table 1 rows 2-4; see DESIGN.md for the map):
//
//   §3.3.1 input_selection_per_item:
//     m independent SPIR(n,1,D) retrievals from masked virtual databases
//     V_j = (x_1 - a_j, ..., x_n - a_j). Provably weak-secure; server
//     computation Omega(mn).
//
//   §3.3.2 input_selection_poly_mask_client_key (variant 1):
//     one SPIR(n,m,F) over x'_i = x_i + P_s(i) for a random degree-(m-1)
//     polynomial P_s, plus a secure evaluation of P_s(I) via homomorphic
//     encryption under the *client's* key: the client ships E(i_j^k) (m^2
//     ciphertexts — the kappa*m^2 term), the server returns blinded
//     E(P_s(i_j) + r_j). One round; weak security.
//
//   §3.3.2 input_selection_poly_mask_server_key (variant 2):
//     dual matrix-vector orientation: the *server* ships E(s_0..s_{m-1})
//     (m ciphertexts) first and the client evaluates the linear map.
//     1.5 rounds; kappa*m communication; only semi-honest-provable
//     ("None*" in Table 1).
//
//   §3.3.3 input_selection_encrypted_db:
//     the server keeps E_srv(x_i) for the whole database; the client
//     retrieves m ciphertexts with one SPIR(n,m,kappa) over byte items,
//     re-blinds them homomorphically, and returns them for decryption.
//     Linear-in-m communication, cheapest computation; "None*" security.
//
// All shares are over Z_u for a caller-chosen modulus u (a prime field for
// §3.3.2, any u >= 2 otherwise), ready for the §3.3.4 / Yao MPC phase.
#pragma once

#include <cstdint>
#include <vector>

#include "common/bytes.h"
#include "crypto/prg.h"
#include "field/fp64.h"
#include "he/goldwasser_micali.h"
#include "he/paillier.h"
#include "net/network.h"

namespace spfe::protocols {

// Every client encryption draws its randomness online from `client_prg`.
// No caller of these protocols keeps a randomness pool warm between
// queries, so none takes one; the one pooled protocol is the §4 package
// (spfe/stats.h).

struct SelectedShares {
  std::vector<std::uint64_t> client_shares;
  std::vector<std::uint64_t> server_shares;
  std::uint64_t modulus = 0;
};

// §3.3.1. Shares over Z_u (any u >= 2). `sk` is the client's Paillier key
// (used for the SPIR instances). Database values must be < u.
SelectedShares input_selection_per_item(net::StarNetwork& net, std::size_t server_id,
                                        std::span<const std::uint64_t> database,
                                        const std::vector<std::size_t>& indices,
                                        std::uint64_t modulus,
                                        const he::PaillierPrivateKey& client_sk,
                                        std::size_t pir_depth, crypto::Prg& client_prg,
                                        crypto::Prg& server_prg);

// §3.3.2 variant 1. Shares over the prime field (u = field.modulus());
// database values must be < u, and u must exceed the database size n (the
// mask P_s takes one field point per index), else InvalidArgument before
// any message. One round.
SelectedShares input_selection_poly_mask_client_key(
    net::StarNetwork& net, std::size_t server_id, std::span<const std::uint64_t> database,
    const std::vector<std::size_t>& indices, const field::Fp64& field,
    const he::PaillierPrivateKey& client_sk, std::size_t pir_depth, crypto::Prg& client_prg,
    crypto::Prg& server_prg);

// §3.3.2 variant 2, with variant 1's field requirements. Server-side
// homomorphic key (`server_sk`) for the coefficient encryptions; client key
// for the SPIR. 1.5 rounds.
SelectedShares input_selection_poly_mask_server_key(
    net::StarNetwork& net, std::size_t server_id, std::span<const std::uint64_t> database,
    const std::vector<std::size_t>& indices, const field::Fp64& field,
    const he::PaillierPrivateKey& server_sk, const he::PaillierPrivateKey& client_sk,
    std::size_t pir_depth, crypto::Prg& client_prg, crypto::Prg& server_prg);

// §3.3.3. Shares over Z_u; SPIR retrieves server-side ciphertexts (byte
// items) under the client's PIR key. 1.5 rounds for the selection phase.
SelectedShares input_selection_encrypted_db(net::StarNetwork& net, std::size_t server_id,
                                            std::span<const std::uint64_t> database,
                                            const std::vector<std::size_t>& indices,
                                            std::uint64_t modulus,
                                            const he::PaillierPrivateKey& server_sk,
                                            const he::PaillierPrivateKey& client_sk,
                                            std::size_t pir_depth, crypto::Prg& client_prg,
                                            crypto::Prg& server_prg);

// XOR-share pair: client ^ server = item, bit-wise over `item_bits` bits.
struct SelectedXorShares {
  std::vector<std::uint64_t> client_shares;
  std::vector<std::uint64_t> server_shares;
  std::size_t item_bits = 0;
};

// §3.3.3, Boolean-data specialization with Goldwasser–Micali ([29], the
// paper's default homomorphic scheme for the Boolean domain): the server
// holds E_GM(bit) per data bit; the client retrieves the item's bit
// ciphertexts via SPIR, XOR-blinds them (E(b) * E(r) = E(b ^ r)), and the
// server decrypts its XOR share. XOR shares reconstruct for free inside a
// garbled circuit (free-XOR), eliminating the §3.3.2 "Boolean case" adder
// overhead. 1.5 rounds.
SelectedXorShares input_selection_encrypted_db_gm(
    net::StarNetwork& net, std::size_t server_id, std::span<const std::uint64_t> database,
    const std::vector<std::size_t>& indices, std::size_t item_bits,
    const he::GmPrivateKey& server_sk, const he::PaillierPrivateKey& client_sk,
    std::size_t pir_depth, crypto::Prg& client_prg, crypto::Prg& server_prg);

}  // namespace spfe::protocols

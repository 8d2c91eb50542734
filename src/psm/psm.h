// Private simultaneous messages (PSM) protocols — the §3.2 building block.
//
// In the PSM model, m players share a common random input r (unknown to the
// referee); player j sends a single message p_j determined by its input y_j
// and r; an extra input-less player P0 sends a message determined by r
// alone. The referee reconstructs f(y_1..y_m) from the m+1 messages and
// learns nothing else. The paper measures a PSM protocol by (alpha, beta):
// per-player message length alpha and extra-message length beta.
//
// Two instantiations:
//   - SumPsm (the paper's Example 1): f = sum over Z_u; p_j = y_j + r_j with
//     the r_j summing to zero. (alpha, beta) = (item length, 0), perfectly
//     secure.
//   - YaoPsm ([23, 46]): any Boolean circuit f. All players derive the same
//     garbling from r; player j sends the active labels of its input wires;
//     P0 sends the garbled circuit. (alpha, beta) = (kappa * bits_per_player,
//     O(kappa * C_f)), computationally secure.
//
// The §3.2 SPFE construction (spfe/psm_spfe.h) puts a SPIR protocol on top:
// each server materializes the *virtual database* of player-j messages over
// all possible data items, and the client retrieves the message matching its
// selected index.
#pragma once

#include <cstdint>
#include <vector>

#include "circuits/boolean_circuit.h"
#include "common/bytes.h"
#include "crypto/prg.h"

namespace spfe::psm {

class SumPsm {
 public:
  SumPsm(std::size_t num_players, std::uint64_t modulus);

  std::size_t num_players() const { return m_; }
  std::uint64_t modulus() const { return u_; }
  // alpha: fixed per-player message length (8 bytes; a Z_u element).
  std::size_t message_bytes() const { return 8; }

  // Player j's messages on each input y under common randomness `seed` (the
  // §3.2 virtual database; shares the randomness derivation across items).
  std::vector<Bytes> player_messages(std::size_t j, std::span<const std::uint64_t> ys,
                                     const crypto::Prg::Seed& seed) const;
  // P0's message (empty: beta = 0).
  Bytes referee_extra(const crypto::Prg::Seed& seed) const;
  std::uint64_t reconstruct(const std::vector<Bytes>& messages, const Bytes& extra) const;

  // The player-j mask r_j (used by tests to verify the zero-sum property).
  std::uint64_t mask_of(std::size_t j, const crypto::Prg::Seed& seed) const;

 private:
  std::size_t m_;
  std::uint64_t u_;
};

class YaoPsm {
 public:
  // `circuit` has num_players * bits_per_player inputs; player j owns wires
  // [j * bits_per_player, (j+1) * bits_per_player).
  YaoPsm(const circuits::BooleanCircuit& circuit, std::size_t num_players,
         std::size_t bits_per_player);

  std::size_t num_players() const { return m_; }
  std::size_t bits_per_player() const { return bits_; }
  std::size_t message_bytes() const;  // alpha

  // Garbles once and emits one message per input value.
  std::vector<Bytes> player_messages(std::size_t j, std::span<const std::uint64_t> ys,
                                     const crypto::Prg::Seed& seed) const;
  Bytes referee_extra(const crypto::Prg::Seed& seed) const;  // the garbled circuit
  std::vector<bool> reconstruct(const std::vector<Bytes>& messages, const Bytes& extra) const;

 private:
  const circuits::BooleanCircuit& circuit_;
  std::size_t m_;
  std::size_t bits_;
};

}  // namespace spfe::psm

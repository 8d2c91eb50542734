// §3.2 — one-round SPFE from PSM protocols + SPIR over virtual databases
// (Theorem 3 / Corollary 4).
//
// The servers simulate the m+1 PSM players: for each argument slot j, a
// server materializes the virtual database V_j[i] = (player j's PSM message
// on input x_i) and the client retrieves V_j[i_j] with SPIR; the extra
// message p0 travels in the clear. The client reconstructs f from the m+1
// PSM messages. Communication: m * SPIR(n, 1, alpha) + beta — the first row
// of Table 1.
//
// Strong security against a malicious client follows from the PSM privacy
// plus the SPIR guarantee: the client obtains one message per player, hence
// exactly one evaluation of f.
//
// One exchange per SPIR family, for any PSM (psm::SumPsm, psm::YaoPsm,
// psm::BpPsm):
//   - PsmSpfeOneServer<Psm>   : Paillier SPIR (Corollary 4(1)); m queries in
//     one message, one answer per virtual database, then p0.
//   - PsmSpfeMultiServer<Psm> : t-private k-server IT SPIR (Corollary 4(2));
//     one query per (slot, field element), one bundle per server, p0 from
//     server 0. A sum-PSM message is one field element; any other message
//     travels as 7-byte chunks.
// Both are defined in psm_spfe.cpp and instantiated there for the five
// classes below. Each run opens one span, psm.single_server or
// psm.multi_server.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "circuits/boolean_circuit.h"
#include "circuits/branching_program.h"
#include "common/bytes.h"
#include "crypto/prg.h"
#include "field/fp64.h"
#include "he/paillier.h"
#include "net/network.h"
#include "pir/cpir.h"
#include "pir/itpir.h"
#include "psm/psm.h"
#include "psm/psm_bp.h"

namespace spfe::protocols {

// The value a PSM's referee reconstructs (u64 sum, circuit outputs, BP bit).
template <typename Psm>
using PsmOutput = decltype(std::declval<const Psm&>().reconstruct(
    std::declval<const std::vector<Bytes>&>(), std::declval<const Bytes&>()));

template <typename Psm>
class PsmSpfeOneServer {
 public:
  // One-round exchange over `net` (server 0 holds the database).
  PsmOutput<Psm> run(net::StarNetwork& net, std::span<const std::uint64_t> database,
                     const std::vector<std::size_t>& indices, const he::PaillierPrivateKey& sk,
                     crypto::Prg& client_prg, crypto::Prg& server_prg) const;

 protected:
  PsmSpfeOneServer(he::PaillierPublicKey pk, std::size_t n, Psm psm, std::size_t pir_depth);

 private:
  he::PaillierPublicKey pk_;
  std::size_t n_;
  Psm psm_;
  std::size_t pir_depth_;
};

template <typename Psm>
class PsmSpfeMultiServer {
 public:
  std::size_t num_servers() const { return k_; }

  PsmOutput<Psm> run(net::StarNetwork& net, std::span<const std::uint64_t> database,
                     const std::vector<std::size_t>& indices, crypto::Prg& client_prg,
                     crypto::Prg& server_prg) const;

 protected:
  PsmSpfeMultiServer(field::Fp64 field, std::size_t n, Psm psm, std::size_t num_servers,
                     std::size_t threshold)
      : field_(field), n_(n), psm_(std::move(psm)), k_(num_servers), t_(threshold) {}

 private:
  field::Fp64 field_;
  std::size_t n_;
  Psm psm_;
  std::size_t k_;
  std::size_t t_;
};

// Sum of m selected items mod `modulus` (sum PSM + Paillier SPIR at
// `pir_depth`).
class PsmSumSpfeSingleServer : public PsmSpfeOneServer<psm::SumPsm> {
 public:
  PsmSumSpfeSingleServer(he::PaillierPublicKey pk, std::size_t n, std::size_t m,
                         std::uint64_t modulus, std::size_t pir_depth)
      : PsmSpfeOneServer(std::move(pk), n, psm::SumPsm(m, modulus), pir_depth) {}
};

// f given as a Boolean circuit over m items of `bits_per_item` bits; the
// circuit input layout matches psm::YaoPsm.
class PsmYaoSpfeSingleServer : public PsmSpfeOneServer<psm::YaoPsm> {
 public:
  PsmYaoSpfeSingleServer(he::PaillierPublicKey pk, const circuits::BooleanCircuit& circuit,
                         std::size_t n, std::size_t m, std::size_t bits_per_item,
                         std::size_t pir_depth)
      : PsmSpfeOneServer(std::move(pk), n, psm::YaoPsm(circuit, m, bits_per_item),
                         pir_depth) {}
};

// f given as a mod-2 branching program whose argument j is the j-th
// selected item (item values must fit the BP's literal bit indices).
// Computational SPIR, *perfectly* secure PSM layer.
class PsmBpSpfeSingleServer : public PsmSpfeOneServer<psm::BpPsm> {
 public:
  PsmBpSpfeSingleServer(he::PaillierPublicKey pk, circuits::BranchingProgram bp, std::size_t n,
                        std::size_t pir_depth)
      : PsmSpfeOneServer(std::move(pk), n, psm::BpPsm(std::move(bp)), pir_depth) {}
};

// The fully information-theoretic instantiation of Corollary 4(2):
// perfectly secure BP-PSM + t-private IT SPIR. Both client privacy and
// database secrecy are unconditional. Requires a field of at least 2^56
// (7-byte chunks).
class PsmBpSpfeMultiServer : public PsmSpfeMultiServer<psm::BpPsm> {
 public:
  PsmBpSpfeMultiServer(field::Fp64 field, circuits::BranchingProgram bp, std::size_t n,
                       std::size_t num_servers, std::size_t threshold);
};

// t-private k-server sum with information-theoretic SPIR; requires
// modulus <= field order and k > t * ceil(log2 n).
class PsmSumSpfeMultiServer : public PsmSpfeMultiServer<psm::SumPsm> {
 public:
  PsmSumSpfeMultiServer(field::Fp64 field, std::size_t n, std::size_t m, std::uint64_t modulus,
                        std::size_t num_servers, std::size_t threshold);
};

}  // namespace spfe::protocols

// §3.3 — two-phase SPFE: input selection, then generic secure MPC on the
// shares ("function evaluation" phase).
//
// Arithmetic path: the function is an ArithCircuit over the share modulus
// and the MPC phase is the §3.3.4 homomorphic protocol — this is the
// "efficient scalability to arithmetic circuits" column of Table 1.
//
// Boolean path: the function is a Boolean circuit over the m selected
// items; the MPC phase is Yao. Share reconstruction (x_j = a_j + b_j mod u)
// is folded into the garbled circuit: mod-2^l shares cost one adder per
// item, prime-field shares one adder + compare + conditional subtract (the
// O(m log n) reconstruction overhead discussed in §3.3.2's "Boolean case").
//
// Security (Table 1): per-item and poly-mask-v1 selections give weak
// security against a malicious client; poly-mask-v2 and encrypted-db are
// provable only for semi-honest clients.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "circuits/arith_circuit.h"
#include "circuits/boolean_circuit.h"
#include "ot/group.h"
#include "spfe/input_selection.h"

namespace spfe::protocols {

enum class SelectionMethod {
  kPerItem,            // §3.3.1
  kPolyMaskClientKey,  // §3.3.2 variant 1
  kPolyMaskServerKey,  // §3.3.2 variant 2
  kEncryptedDb,        // §3.3.3
};

const char* selection_method_name(SelectionMethod m);

// Runs the chosen input selection. Poly-mask methods require `modulus` to
// be a prime above the database size (they work over the field
// Z_modulus).
SelectedShares run_input_selection(net::StarNetwork& net, std::size_t server_id,
                                   std::span<const std::uint64_t> database,
                                   const std::vector<std::size_t>& indices,
                                   std::uint64_t modulus, SelectionMethod method,
                                   const he::PaillierPrivateKey& client_sk,
                                   const he::PaillierPrivateKey& server_sk,
                                   std::size_t pir_depth, crypto::Prg& client_prg,
                                   crypto::Prg& server_prg);

// Arithmetic two-phase SPFE. `circuit` has m inputs (the selected items)
// over Z_u where u = circuit.modulus(); returns the circuit outputs.
std::vector<std::uint64_t> run_two_phase_arith(
    net::StarNetwork& net, std::size_t server_id, std::span<const std::uint64_t> database,
    const std::vector<std::size_t>& indices, const circuits::ArithCircuit& circuit,
    SelectionMethod method, const he::PaillierPrivateKey& client_sk,
    const he::PaillierPrivateKey& server_sk, std::size_t pir_depth, crypto::Prg& client_prg,
    crypto::Prg& server_prg);

// Boolean two-phase SPFE with a *private function parameter*: the paper
// notes (§1, §4) that the client's function — or a parameter of it, like
// the keyword being counted — can itself be hidden by feeding it as an
// additional private input. `param_bits` extra client-private wires are
// appended to the Yao circuit; `body` receives them after the m item
// bundles. The server learns only the shape of the circuit, not the
// parameter (and a malicious client can at worst substitute a different
// same-shape parameter — the paper's closing weak-security remark).
std::vector<bool> run_two_phase_boolean_private_param(
    net::StarNetwork& net, std::size_t server_id, std::span<const std::uint64_t> database,
    const std::vector<std::size_t>& indices, std::size_t item_bits, SelectionMethod method,
    std::uint64_t private_param, std::size_t param_bits,
    const std::function<void(circuits::BooleanCircuit&,
                             const std::vector<circuits::WireBundle>& items,
                             const circuits::WireBundle& param)>& body,
    const he::PaillierPrivateKey& client_sk, const he::PaillierPrivateKey& server_sk,
    const ot::SchnorrGroup& ot_group, std::size_t pir_depth, crypto::Prg& client_prg,
    crypto::Prg& server_prg);

// Boolean two-phase SPFE over *XOR* shares from the Goldwasser–Micali
// §3.3.3 variant: share reconstruction is pure XOR, hence free under
// free-XOR garbling — the optimization the paper alludes to in §3.3.2's
// "Boolean case" paragraph. Ablated against the additive path in
// bench_table1/bench_stats.
std::vector<bool> run_two_phase_boolean_gm(
    net::StarNetwork& net, std::size_t server_id, std::span<const std::uint64_t> database,
    const std::vector<std::size_t>& indices, std::size_t item_bits,
    const std::function<void(circuits::BooleanCircuit&,
                             const std::vector<circuits::WireBundle>&)>& body,
    const he::GmPrivateKey& server_gm_sk, const he::PaillierPrivateKey& client_sk,
    const ot::SchnorrGroup& ot_group, std::size_t pir_depth, crypto::Prg& client_prg,
    crypto::Prg& server_prg);

// Boolean two-phase SPFE: selection produces shares mod `share_modulus`
// (2^item_bits, or a prime for the poly-mask methods), Yao evaluates a
// circuit that reconstructs the m items from the share bundles and hands
// them to `body`, which must register the outputs. The same body as
// run_two_phase_boolean_private_param with no parameter wires.
std::vector<bool> run_two_phase_boolean(
    net::StarNetwork& net, std::size_t server_id, std::span<const std::uint64_t> database,
    const std::vector<std::size_t>& indices, std::size_t item_bits, SelectionMethod method,
    const std::function<void(circuits::BooleanCircuit&,
                             const std::vector<circuits::WireBundle>&)>& body,
    const he::PaillierPrivateKey& client_sk, const he::PaillierPrivateKey& server_sk,
    const ot::SchnorrGroup& ot_group, std::size_t pir_depth, crypto::Prg& client_prg,
    crypto::Prg& server_prg);

}  // namespace spfe::protocols

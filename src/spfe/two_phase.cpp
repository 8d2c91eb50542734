#include "spfe/two_phase.h"

#include "common/error.h"
#include "field/fp64.h"
#include "mpc/arith_protocol.h"
#include "mpc/yao_protocol.h"
#include "obs/obs.h"

namespace spfe::protocols {
namespace {

bool is_power_of_two(std::uint64_t v) { return v != 0 && (v & (v - 1)) == 0; }

// Appends the low `bits` bits of each value to `out`, least significant
// first (the Yao input order of one share bundle).
void append_share_bits(std::vector<bool>& out, const std::vector<std::uint64_t>& values,
                       std::size_t bits) {
  for (const std::uint64_t v : values) {
    for (std::size_t i = 0; i < bits; ++i) out.push_back(((v >> i) & 1) != 0);
  }
}

using ItemsBody = std::function<void(circuits::BooleanCircuit&,
                                     const std::vector<circuits::WireBundle>&)>;
using ParamBody = std::function<void(circuits::BooleanCircuit&,
                                     const std::vector<circuits::WireBundle>&,
                                     const circuits::WireBundle&)>;

// The §3.3 Boolean body behind run_two_phase_boolean (param_bits = 0) and
// _private_param: input selection mod the share modulus, then Yao on a
// circuit that adds each share pair back into an item and hands the m items
// and the `param_bits` client-private parameter wires to `body`.
std::vector<bool> run_boolean(
    net::StarNetwork& net, std::size_t server_id, std::span<const std::uint64_t> database,
    const std::vector<std::size_t>& indices, std::size_t item_bits, SelectionMethod method,
    std::uint64_t private_param, std::size_t param_bits, const ParamBody& body,
    const he::PaillierPrivateKey& client_sk, const he::PaillierPrivateKey& server_sk,
    const ot::SchnorrGroup& ot_group, std::size_t pir_depth, crypto::Prg& client_prg,
    crypto::Prg& server_prg) {
  if (item_bits == 0 || item_bits >= 63) {
    throw InvalidArgument("run_two_phase_boolean: item_bits must be in [1, 62]");
  }
  // Poly-mask selections need a prime share modulus covering the data range
  // and the database size (the mask polynomial is evaluated on index
  // points); the others use 2^item_bits (XOR-cheap reconstruction).
  const bool needs_prime = method == SelectionMethod::kPolyMaskClientKey ||
                           method == SelectionMethod::kPolyMaskServerKey;
  std::uint64_t share_modulus = std::uint64_t(1) << item_bits;
  if (needs_prime) {
    share_modulus = field::smallest_prime_above(
        std::max<std::uint64_t>(share_modulus, database.size() + 1));
  }

  const SelectedShares shares =
      run_input_selection(net, server_id, database, indices, share_modulus, method, client_sk,
                          server_sk, pir_depth, client_prg, server_prg);

  // Shares may need more bits than the items (prime modulus > 2^item_bits).
  const std::size_t m = indices.size();
  std::size_t share_bits = 0;
  while ((std::uint64_t(1) << share_bits) < share_modulus) ++share_bits;

  // Client wires: m share bundles then the private parameter; server wires
  // follow. (Yao's input-wire convention: client block first.)
  circuits::BooleanCircuit circuit(2 * m * share_bits + param_bits);
  const std::size_t server_base = m * share_bits + param_bits;
  std::vector<circuits::WireBundle> items;
  items.reserve(m);
  for (std::size_t j = 0; j < m; ++j) {
    circuits::WireBundle client, server;
    for (std::size_t b = 0; b < share_bits; ++b) {
      client.push_back(circuit.input(j * share_bits + b));
      server.push_back(circuit.input(server_base + j * share_bits + b));
    }
    circuits::WireBundle item =
        is_power_of_two(share_modulus)
            ? circuits::build_add_mod(circuit, client, server)
            : circuits::build_add_mod_const(circuit, client, server, share_modulus);
    item.resize(item_bits);  // data values fit in item_bits
    items.push_back(std::move(item));
  }
  circuits::WireBundle param;
  for (std::size_t b = 0; b < param_bits; ++b) {
    param.push_back(circuit.input(m * share_bits + b));
  }
  body(circuit, items, param);
  if (circuit.outputs().empty()) {
    throw InvalidArgument("run_two_phase_boolean: body registered no outputs");
  }

  std::vector<bool> client_bits, server_bits;
  append_share_bits(client_bits, shares.client_shares, share_bits);
  append_share_bits(client_bits, {private_param}, param_bits);
  append_share_bits(server_bits, shares.server_shares, share_bits);
  return mpc::run_yao(net, server_id, circuit, client_bits, server_bits, ot_group, client_prg,
                      server_prg);
}

}  // namespace

const char* selection_method_name(SelectionMethod m) {
  switch (m) {
    case SelectionMethod::kPerItem:
      return "per-item (3.3.1)";
    case SelectionMethod::kPolyMaskClientKey:
      return "poly-mask/client-key (3.3.2v1)";
    case SelectionMethod::kPolyMaskServerKey:
      return "poly-mask/server-key (3.3.2v2)";
    case SelectionMethod::kEncryptedDb:
      return "encrypted-db (3.3.3)";
  }
  return "?";
}

SelectedShares run_input_selection(net::StarNetwork& net, std::size_t server_id,
                                   std::span<const std::uint64_t> database,
                                   const std::vector<std::size_t>& indices,
                                   std::uint64_t modulus, SelectionMethod method,
                                   const he::PaillierPrivateKey& client_sk,
                                   const he::PaillierPrivateKey& server_sk,
                                   std::size_t pir_depth, crypto::Prg& client_prg,
                                   crypto::Prg& server_prg) {
  obs::Span span("spfe.input_selection");
  span.note(selection_method_name(method));
  switch (method) {
    case SelectionMethod::kPerItem:
      return input_selection_per_item(net, server_id, database, indices, modulus, client_sk,
                                      pir_depth, client_prg, server_prg);
    case SelectionMethod::kPolyMaskClientKey:
      return input_selection_poly_mask_client_key(net, server_id, database, indices,
                                                  field::Fp64(modulus), client_sk, pir_depth,
                                                  client_prg, server_prg);
    case SelectionMethod::kPolyMaskServerKey:
      return input_selection_poly_mask_server_key(net, server_id, database, indices,
                                                  field::Fp64(modulus), server_sk, client_sk,
                                                  pir_depth, client_prg, server_prg);
    case SelectionMethod::kEncryptedDb:
      return input_selection_encrypted_db(net, server_id, database, indices, modulus, server_sk,
                                          client_sk, pir_depth, client_prg, server_prg);
  }
  throw InvalidArgument("run_input_selection: bad method");
}

std::vector<std::uint64_t> run_two_phase_arith(
    net::StarNetwork& net, std::size_t server_id, std::span<const std::uint64_t> database,
    const std::vector<std::size_t>& indices, const circuits::ArithCircuit& circuit,
    SelectionMethod method, const he::PaillierPrivateKey& client_sk,
    const he::PaillierPrivateKey& server_sk, std::size_t pir_depth, crypto::Prg& client_prg,
    crypto::Prg& server_prg) {
  if (circuit.num_inputs() != indices.size()) {
    throw InvalidArgument("run_two_phase_arith: circuit arity != m");
  }
  SPFE_OBS_SPAN("spfe.two_phase_arith");
  const SelectedShares shares =
      run_input_selection(net, server_id, database, indices, circuit.modulus(), method,
                          client_sk, server_sk, pir_depth, client_prg, server_prg);
  SPFE_OBS_SPAN("spfe.mpc_arith");
  return mpc::run_arith_mpc_shared(net, server_id, circuit, client_sk, shares.client_shares,
                                   shares.server_shares, client_prg, server_prg);
}

std::vector<bool> run_two_phase_boolean_private_param(
    net::StarNetwork& net, std::size_t server_id, std::span<const std::uint64_t> database,
    const std::vector<std::size_t>& indices, std::size_t item_bits, SelectionMethod method,
    std::uint64_t private_param, std::size_t param_bits, const ParamBody& body,
    const he::PaillierPrivateKey& client_sk, const he::PaillierPrivateKey& server_sk,
    const ot::SchnorrGroup& ot_group, std::size_t pir_depth, crypto::Prg& client_prg,
    crypto::Prg& server_prg) {
  SPFE_OBS_SPAN("spfe.two_phase_boolean_private_param");
  if (param_bits == 0 || param_bits > 63) {
    throw InvalidArgument("run_two_phase_boolean_private_param: param_bits in [1, 63]");
  }
  return run_boolean(net, server_id, database, indices, item_bits, method, private_param,
                     param_bits, body, client_sk, server_sk, ot_group, pir_depth, client_prg,
                     server_prg);
}

std::vector<bool> run_two_phase_boolean(
    net::StarNetwork& net, std::size_t server_id, std::span<const std::uint64_t> database,
    const std::vector<std::size_t>& indices, std::size_t item_bits, SelectionMethod method,
    const ItemsBody& body, const he::PaillierPrivateKey& client_sk,
    const he::PaillierPrivateKey& server_sk, const ot::SchnorrGroup& ot_group,
    std::size_t pir_depth, crypto::Prg& client_prg, crypto::Prg& server_prg) {
  SPFE_OBS_SPAN("spfe.two_phase_boolean");
  const auto items_only = [&body](circuits::BooleanCircuit& circuit,
                                  const std::vector<circuits::WireBundle>& items,
                                  const circuits::WireBundle&) { body(circuit, items); };
  return run_boolean(net, server_id, database, indices, item_bits, method, 0, 0, items_only,
                     client_sk, server_sk, ot_group, pir_depth, client_prg, server_prg);
}

std::vector<bool> run_two_phase_boolean_gm(
    net::StarNetwork& net, std::size_t server_id, std::span<const std::uint64_t> database,
    const std::vector<std::size_t>& indices, std::size_t item_bits, const ItemsBody& body,
    const he::GmPrivateKey& server_gm_sk, const he::PaillierPrivateKey& client_sk,
    const ot::SchnorrGroup& ot_group, std::size_t pir_depth, crypto::Prg& client_prg,
    crypto::Prg& server_prg) {
  SPFE_OBS_SPAN("spfe.two_phase_boolean_gm");
  const SelectedXorShares shares =
      input_selection_encrypted_db_gm(net, server_id, database, indices, item_bits,
                                      server_gm_sk, client_sk, pir_depth, client_prg,
                                      server_prg);
  const std::size_t m = indices.size();

  // Reconstruction is bitwise XOR — free gates only.
  circuits::BooleanCircuit circuit(2 * m * item_bits);
  std::vector<circuits::WireBundle> items;
  items.reserve(m);
  for (std::size_t j = 0; j < m; ++j) {
    circuits::WireBundle item;
    for (std::size_t b = 0; b < item_bits; ++b) {
      item.push_back(circuit.xor_gate(circuit.input(j * item_bits + b),
                                      circuit.input((m + j) * item_bits + b)));
    }
    items.push_back(std::move(item));
  }
  body(circuit, items);
  if (circuit.outputs().empty()) {
    throw InvalidArgument("run_two_phase_boolean_gm: body registered no outputs");
  }

  std::vector<bool> client_bits, server_bits;
  append_share_bits(client_bits, shares.client_shares, item_bits);
  append_share_bits(server_bits, shares.server_shares, item_bits);
  return mpc::run_yao(net, server_id, circuit, client_bits, server_bits, ot_group, client_prg,
                      server_prg);
}

}  // namespace spfe::protocols

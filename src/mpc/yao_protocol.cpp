#include "mpc/yao_protocol.h"

#include "common/error.h"
#include "common/serialize.h"
#include "mpc/yao.h"
#include "obs/obs.h"

namespace spfe::mpc {
namespace {

void check_split(const circuits::BooleanCircuit& circuit, std::size_t client_bits,
                 std::size_t server_bits) {
  if (client_bits + server_bits != circuit.num_inputs()) {
    throw InvalidArgument("yao protocol: input split does not cover circuit inputs");
  }
}

// Serializes the garbled circuit plus the server's active input labels.
Bytes pack_server_payload(const GarblingResult& garbling,
                          const std::vector<bool>& server_bits, std::size_t client_count) {
  Writer w;
  w.bytes(garbling.garbled.serialize());
  w.varint(server_bits.size());
  for (std::size_t i = 0; i < server_bits.size(); ++i) {
    const LabelPair& pair = garbling.input_labels[client_count + i];
    // ct_get: server_bits is the server's private input — selecting the
    // active label must not branch or index on it.
    w.raw(label_to_bytes(pair.ct_get(server_bits[i])));
  }
  return w.take();
}

struct ServerPayload {
  GarbledCircuit gc;
  std::vector<Label> server_labels;
};

ServerPayload unpack_server_payload(Reader& r) {
  ServerPayload p;
  p.gc = GarbledCircuit::deserialize(r.bytes());
  const std::uint64_t n = r.varint_count(kLabelBytes);
  p.server_labels.resize(n);
  for (auto& l : p.server_labels) l = label_from_bytes(r.raw(kLabelBytes));
  return p;
}

std::vector<Label> assemble_inputs(std::vector<Bytes> client_label_bytes,
                                   const std::vector<Label>& server_labels) {
  std::vector<Label> active;
  active.reserve(client_label_bytes.size() + server_labels.size());
  for (const Bytes& b : client_label_bytes) active.push_back(label_from_bytes(b));
  active.insert(active.end(), server_labels.begin(), server_labels.end());
  return active;
}

std::vector<std::pair<Bytes, Bytes>> client_label_pairs(const GarblingResult& garbling,
                                                        std::size_t client_count) {
  std::vector<std::pair<Bytes, Bytes>> pairs;
  pairs.reserve(client_count);
  for (std::size_t i = 0; i < client_count; ++i) {
    pairs.push_back({label_to_bytes(garbling.input_labels[i].l0),
                     label_to_bytes(garbling.input_labels[i].l1)});
  }
  return pairs;
}

}  // namespace

YaoEvaluatorClient::YaoEvaluatorClient(const circuits::BooleanCircuit& circuit,
                                       std::vector<bool> client_bits,
                                       const ot::SchnorrGroup& group)
    : circuit_(circuit), client_bits_(std::move(client_bits)), ot_(group) {}

Bytes YaoEvaluatorClient::query(crypto::Prg& prg) {
  return ot_.make_query(client_bits_, ot_states_, prg);
}

std::vector<bool> YaoEvaluatorClient::decode(BytesView response) {
  Reader r(response);
  const Bytes ot_answer = r.bytes();
  const ServerPayload payload = unpack_server_payload(r);
  r.expect_done();
  std::vector<Bytes> my_labels = ot_.decode(ot_answer, ot_states_);
  return evaluate(circuit_, payload.gc,
                  assemble_inputs(std::move(my_labels), payload.server_labels));
}

YaoGarblerServer::YaoGarblerServer(const circuits::BooleanCircuit& circuit,
                                   std::vector<bool> server_bits, const ot::SchnorrGroup& group)
    : circuit_(circuit), server_bits_(std::move(server_bits)), ot_(group) {}

Bytes YaoGarblerServer::respond(BytesView client_query, crypto::Prg& prg) {
  const std::size_t client_count = circuit_.num_inputs() - server_bits_.size();
  check_split(circuit_, client_count, server_bits_.size());
  const GarblingResult garbling = garble(circuit_, prg);
  const Bytes ot_answer = ot_.answer(client_query, client_label_pairs(garbling, client_count), prg);
  Writer w;
  w.bytes(ot_answer);
  w.raw(pack_server_payload(garbling, server_bits_, client_count));
  return w.take();
}

std::vector<bool> run_yao(net::StarNetwork& net, std::size_t server_id,
                          const circuits::BooleanCircuit& circuit,
                          const std::vector<bool>& client_bits,
                          const std::vector<bool>& server_bits, const ot::SchnorrGroup& group,
                          crypto::Prg& client_prg, crypto::Prg& server_prg) {
  SPFE_OBS_SPAN("yao.run");
  check_split(circuit, client_bits.size(), server_bits.size());
  YaoEvaluatorClient client(circuit, client_bits, group);
  YaoGarblerServer server(circuit, server_bits, group);

  net.client_send(server_id, client.query(client_prg));
  net.server_send(server_id, server.respond(net.server_receive(server_id), server_prg));
  return client.decode(net.client_receive(server_id));
}

}  // namespace spfe::mpc

// Two-party secure function evaluation from Yao garbled circuits.
//
// Roles follow the paper: the *server* garbles (it holds the database-derived
// shares), the *client* evaluates and learns the output. Client input labels
// travel via 1-of-2 OT — the m x SPIR(2,1,kappa) term of Table 1.
//
// Input-wire convention: circuit wires [0, #client bits) belong to the
// client, the following [#client, #client + #server) to the server. This is
// a 1-round protocol (client query -> server response), matching the paper's
// relaxed secure-MPC definition (no correctness guarantee against a
// malicious server, weak security against a malicious client).
#pragma once

#include <vector>

#include "circuits/boolean_circuit.h"
#include "common/bytes.h"
#include "crypto/prg.h"
#include "net/network.h"
#include "ot/base_ot.h"

namespace spfe::mpc {

class YaoEvaluatorClient {
 public:
  YaoEvaluatorClient(const circuits::BooleanCircuit& circuit, std::vector<bool> client_bits,
                     const ot::SchnorrGroup& group);

  // Round 1 message: OT query for the client's input labels.
  Bytes query(crypto::Prg& prg);
  // Consumes the server response, evaluates, returns output bits.
  std::vector<bool> decode(BytesView response);

 private:
  const circuits::BooleanCircuit& circuit_;
  std::vector<bool> client_bits_;
  ot::BaseOt ot_;
  std::vector<ot::OtReceiverState> ot_states_;
};

class YaoGarblerServer {
 public:
  YaoGarblerServer(const circuits::BooleanCircuit& circuit, std::vector<bool> server_bits,
                   const ot::SchnorrGroup& group);

  // Garbles and answers the client's OT query in one message.
  Bytes respond(BytesView client_query, crypto::Prg& prg);

 private:
  const circuits::BooleanCircuit& circuit_;
  std::vector<bool> server_bits_;
  ot::BaseOt ot_;
};

// Drives a full exchange over `net` (client <-> server `server_id`).
std::vector<bool> run_yao(net::StarNetwork& net, std::size_t server_id,
                          const circuits::BooleanCircuit& circuit,
                          const std::vector<bool>& client_bits,
                          const std::vector<bool>& server_bits, const ot::SchnorrGroup& group,
                          crypto::Prg& client_prg, crypto::Prg& server_prg);

}  // namespace spfe::mpc

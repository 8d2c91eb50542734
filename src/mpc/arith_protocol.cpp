#include "mpc/arith_protocol.h"

#include <array>
#include <optional>

#include "bignum/serialize.h"
#include "common/error.h"
#include "common/serialize.h"

namespace spfe::mpc {
namespace {

using bignum::BigInt;
using circuits::ArithCircuit;
using circuits::ArithGate;
using circuits::ArithOp;

struct NodeState {
  std::optional<BigInt> ct;  // ciphertext under the client's key
  BigInt bound;              // plaintext < bound
};

// Guard: blinding with margin 2^sigma must stay far below N.
void check_headroom(const BigInt& bound, const he::PaillierPublicKey& pk, std::size_t sigma) {
  if ((bound << (sigma + 2)) >= pk.n()) {
    throw CryptoError(
        "arith MPC: circuit too deep for the Paillier modulus (blinded plaintext "
        "would wrap mod N)");
  }
}

}  // namespace

std::vector<std::uint64_t> run_arith_mpc_on_ciphertexts(
    net::StarNetwork& net, std::size_t server_id, const ArithCircuit& circuit,
    const he::PaillierPrivateKey& sk, const std::vector<BigInt>& input_ciphertexts,
    const BigInt& input_bound, crypto::Prg& client_prg, crypto::Prg& server_prg) {
  if (input_ciphertexts.size() != circuit.num_inputs()) {
    throw InvalidArgument("arith MPC: wrong number of input ciphertexts");
  }
  const he::PaillierPublicKey& pk = sk.public_key();
  const BigInt u(circuit.modulus());
  const std::size_t sigma = kStatSecurityBits;

  const std::size_t total_nodes = circuit.num_inputs() + circuit.gates().size();
  std::vector<NodeState> nodes(total_nodes);
  for (std::size_t i = 0; i < circuit.num_inputs(); ++i) {
    nodes[i] = {input_ciphertexts[i], input_bound};
  }

  // Sweeps: local gates resolve eagerly; ready mult gates batch into one
  // interaction per sweep. Number of sweeps = multiplicative depth.
  std::size_t resolved_gates = 0;
  std::vector<bool> done(circuit.gates().size(), false);
  while (resolved_gates < circuit.gates().size()) {
    std::vector<std::size_t> ready_mults;
    for (std::size_t g = 0; g < circuit.gates().size(); ++g) {
      if (done[g]) continue;
      const ArithGate& gate = circuit.gates()[g];
      const std::size_t out = circuit.num_inputs() + g;
      auto have = [&](std::uint32_t n) { return nodes[n].ct.has_value(); };
      switch (gate.op) {
        case ArithOp::kInput:
          throw InvalidArgument("arith MPC: stray input gate");
        case ArithOp::kConst:
          nodes[out] = {pk.encrypt(BigInt(gate.constant), server_prg), u};
          done[g] = true;
          ++resolved_gates;
          break;
        case ArithOp::kAdd:
          if (have(gate.a) && have(gate.b)) {
            nodes[out] = {pk.add(*nodes[gate.a].ct, *nodes[gate.b].ct),
                          nodes[gate.a].bound + nodes[gate.b].bound};
            check_headroom(nodes[out].bound, pk, sigma);
            done[g] = true;
            ++resolved_gates;
          }
          break;
        case ArithOp::kSub:
          if (have(gate.a) && have(gate.b)) {
            // a - b + k*u with k*u >= bound(b), keeping the plaintext
            // positive while preserving the value mod u.
            const BigInt k_u = ((nodes[gate.b].bound / u) + BigInt(1)) * u;
            BigInt ct = pk.add(*nodes[gate.a].ct, pk.negate(*nodes[gate.b].ct));
            ct = pk.add(ct, pk.encrypt(k_u, server_prg));
            nodes[out] = {ct, nodes[gate.a].bound + k_u};
            check_headroom(nodes[out].bound, pk, sigma);
            done[g] = true;
            ++resolved_gates;
          }
          break;
        case ArithOp::kMulConst:
          if (have(gate.a)) {
            const BigInt c(gate.constant);
            nodes[out] = {pk.mul_scalar(*nodes[gate.a].ct, c),
                          nodes[gate.a].bound * (c.is_zero() ? BigInt(1) : c)};
            check_headroom(nodes[out].bound, pk, sigma);
            done[g] = true;
            ++resolved_gates;
          }
          break;
        case ArithOp::kMul:
          if (have(gate.a) && have(gate.b)) ready_mults.push_back(g);
          break;
      }
    }
    if (ready_mults.empty()) {
      if (resolved_gates < circuit.gates().size()) {
        throw InvalidArgument("arith MPC: circuit is not topologically ordered");
      }
      break;
    }

    // --- One interaction for this batch of mult gates ----------------------
    // Server -> client: blinded operand pairs.
    Writer blinded;
    blinded.varint(ready_mults.size());
    std::vector<std::pair<BigInt, BigInt>> blinds;  // (r1, r2) per gate
    blinds.reserve(ready_mults.size());
    for (const std::size_t g : ready_mults) {
      const ArithGate& gate = circuit.gates()[g];
      const NodeState& na = nodes[gate.a];
      const NodeState& nb = nodes[gate.b];
      check_headroom(na.bound, pk, sigma);
      check_headroom(nb.bound, pk, sigma);
      const BigInt r1 = BigInt::random_below(server_prg, na.bound << sigma);
      const BigInt r2 = BigInt::random_below(server_prg, nb.bound << sigma);
      bignum::write_bigint(blinded, pk.add(*na.ct, pk.encrypt(r1, server_prg)));
      bignum::write_bigint(blinded, pk.add(*nb.ct, pk.encrypt(r2, server_prg)));
      blinds.push_back({r1, r2});
    }
    net.server_send(server_id, blinded.take());

    // Client: decrypt, reduce mod u, return encrypted products.
    {
      Reader r(net.client_receive(server_id));
      // Two ciphertexts per entry, each at least a 1-byte length prefix.
      const std::uint64_t count = r.varint_count(2);
      Writer products;
      products.varint(count);
      for (std::uint64_t i = 0; i < count; ++i) {
        const BigInt d1 = sk.decrypt(bignum::read_bigint(r)).mod_floor(u);
        const BigInt d2 = sk.decrypt(bignum::read_bigint(r)).mod_floor(u);
        bignum::write_bigint(products, sk.encrypt(d1 * d2, client_prg));
      }
      r.expect_done();
      net.client_send(server_id, products.take());
    }

    // Server: strip cross terms. d1'd2' = v1v2 + v1 r2 + v2 r1 + r1 r2 (mod u),
    // so out = e + v1*(u - r2 mod u) + v2*(u - r1 mod u) + ((-r1 r2) mod u),
    // all additions positive.
    {
      Reader r(net.server_receive(server_id));
      if (r.varint() != ready_mults.size()) {
        throw ProtocolError("arith MPC: product count mismatch");
      }
      for (std::size_t idx = 0; idx < ready_mults.size(); ++idx) {
        const std::size_t g = ready_mults[idx];
        const ArithGate& gate = circuit.gates()[g];
        const std::size_t out = circuit.num_inputs() + g;
        const BigInt e = bignum::read_bigint(r);
        const auto& [r1, r2] = blinds[idx];
        const BigInt c2 = (u - r2.mod_floor(u)).mod_floor(u);
        const BigInt c1 = (u - r1.mod_floor(u)).mod_floor(u);
        const BigInt c3 = (u - (r1 * r2).mod_floor(u)).mod_floor(u);
        // Both cross terms in one simultaneous multi-exp (shared squaring
        // chain) rather than two independent modexps.
        const std::array<BigInt, 2> mx_bases = {*nodes[gate.a].ct, *nodes[gate.b].ct};
        const std::array<BigInt, 2> mx_exps = {c2, c1};
        BigInt ct = pk.add(e, pk.mul_scalar_sum(mx_bases, mx_exps));
        ct = pk.add(ct, pk.encrypt(c3, server_prg));
        const BigInt bound =
            u * u + nodes[gate.a].bound * u + nodes[gate.b].bound * u + u;
        nodes[out] = {ct, bound};
        check_headroom(bound, pk, sigma);
        done[g] = true;
        ++resolved_gates;
      }
      r.expect_done();
    }
  }

  // --- Output disclosure ----------------------------------------------------
  // Server re-blinds each output with a random multiple of u so the client
  // learns nothing beyond the value mod u.
  Writer out_msg;
  out_msg.varint(circuit.outputs().size());
  for (const std::uint32_t node : circuit.outputs()) {
    const NodeState& ns = nodes[node];
    if (!ns.ct.has_value()) throw InvalidArgument("arith MPC: unresolved output node");
    check_headroom(ns.bound, pk, sigma);
    const BigInt rho = BigInt::random_below(server_prg, (ns.bound << sigma) / u + BigInt(1));
    const BigInt ct = pk.add(*ns.ct, pk.encrypt(rho * u, server_prg));
    bignum::write_bigint(out_msg, pk.rerandomize(ct, server_prg));
  }
  net.server_send(server_id, out_msg.take());

  Reader r(net.client_receive(server_id));
  const std::uint64_t n_out = r.varint_count(1);
  std::vector<std::uint64_t> outputs;
  outputs.reserve(n_out);
  for (std::uint64_t i = 0; i < n_out; ++i) {
    outputs.push_back(sk.decrypt(bignum::read_bigint(r)).mod_floor(u).to_u64());
  }
  r.expect_done();
  return outputs;
}

std::vector<std::uint64_t> run_arith_mpc_shared(
    net::StarNetwork& net, std::size_t server_id, const ArithCircuit& circuit,
    const he::PaillierPrivateKey& sk, const std::vector<std::uint64_t>& client_shares,
    const std::vector<std::uint64_t>& server_shares, crypto::Prg& client_prg,
    crypto::Prg& server_prg) {
  if (client_shares.size() != circuit.num_inputs() ||
      server_shares.size() != circuit.num_inputs()) {
    throw InvalidArgument("arith MPC: share count mismatch");
  }
  const he::PaillierPublicKey& pk = sk.public_key();
  const BigInt u(circuit.modulus());

  // Client -> server: public key + encrypted client shares.
  Writer w;
  pk.serialize(w);
  w.varint(client_shares.size());
  for (const std::uint64_t b : client_shares) {
    bignum::write_bigint(w, sk.encrypt(BigInt(b % circuit.modulus()), client_prg));
  }
  net.client_send(server_id, w.take());

  // Server: E(x_j) = E(b_j) + a_j; plaintext < 2u.
  Reader r(net.server_receive(server_id));
  const he::PaillierPublicKey server_pk = he::PaillierPublicKey::deserialize(r);
  const std::uint64_t count = r.varint();
  if (count != server_shares.size()) throw ProtocolError("arith MPC: share count mismatch");
  std::vector<BigInt> input_cts;
  input_cts.reserve(count);
  for (std::size_t j = 0; j < count; ++j) {
    const BigInt eb = bignum::read_bigint(r);
    input_cts.push_back(
        server_pk.add(eb, server_pk.encrypt(BigInt(server_shares[j] % circuit.modulus()),
                                            server_prg)));
  }
  r.expect_done();

  return run_arith_mpc_on_ciphertexts(net, server_id, circuit, sk, input_cts, u + u, client_prg,
                                      server_prg);
}

}  // namespace spfe::mpc

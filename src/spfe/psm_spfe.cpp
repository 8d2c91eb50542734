#include "spfe/psm_spfe.h"

#include <algorithm>
#include <string>

#include "common/error.h"
#include "common/serialize.h"
#include "obs/obs.h"

namespace spfe::protocols {
namespace {

void check_run(const std::vector<std::size_t>& indices, std::size_t m,
               std::span<const std::uint64_t> database, std::size_t n) {
  if (indices.size() != m) throw InvalidArgument("PSM SPFE: need exactly m indices");
  for (const std::size_t i : indices) {
    if (i >= n) throw InvalidArgument("PSM SPFE: index out of range");
  }
  if (database.size() != n) throw InvalidArgument("PSM SPFE: database size");
}

// The PSM common random input, drawn from the server's randomness.
crypto::Prg::Seed draw_seed(crypto::Prg& prg) {
  crypto::Prg::Seed seed{};
  prg.fill(seed.data(), seed.size());
  return seed;
}

// How a k-server message travels as field elements. A sum-PSM message is
// one element, its u64 (value < u <= p); any other message is split into
// 7-byte big-endian chunks (< 2^56 <= p).
constexpr std::size_t kItChunkBytes = 7;

std::size_t elements_per_message(const psm::SumPsm&) { return 1; }

template <typename Psm>
std::size_t elements_per_message(const Psm& psm) {
  return (psm.message_bytes() + kItChunkBytes - 1) / kItChunkBytes;
}

std::uint64_t message_element(const psm::SumPsm&, const Bytes& message, std::size_t) {
  Reader r(message);
  return r.u64();
}

template <typename Psm>
std::uint64_t message_element(const Psm&, const Bytes& message, std::size_t c) {
  const std::size_t begin = c * kItChunkBytes;
  const std::size_t end = std::min(begin + kItChunkBytes, message.size());
  std::uint64_t v = 0;
  for (std::size_t b = begin; b < end; ++b) v = (v << 8) | message[b];
  return v;
}

Bytes message_of(const psm::SumPsm&, const std::vector<std::uint64_t>& elements) {
  Writer w;
  w.u64(elements[0]);
  return w.take();
}

template <typename Psm>
Bytes message_of(const Psm& psm, const std::vector<std::uint64_t>& elements) {
  Bytes out(psm.message_bytes(), 0);
  for (std::size_t c = 0; c < elements.size(); ++c) {
    const std::size_t begin = c * kItChunkBytes;
    std::uint64_t v = elements[c];
    for (std::size_t b = std::min(begin + kItChunkBytes, out.size()); b-- > begin;) {
      out[b] = static_cast<std::uint8_t>(v);
      v >>= 8;
    }
  }
  return out;
}

}  // namespace

template <typename Psm>
PsmSpfeOneServer<Psm>::PsmSpfeOneServer(he::PaillierPublicKey pk, std::size_t n, Psm psm,
                                        std::size_t pir_depth)
    : pk_(std::move(pk)), n_(n), psm_(std::move(psm)), pir_depth_(pir_depth) {
  if (n == 0) throw InvalidArgument("PSM SPFE: empty database");
}

template <typename Psm>
PsmOutput<Psm> PsmSpfeOneServer<Psm>::run(net::StarNetwork& net,
                                          std::span<const std::uint64_t> database,
                                          const std::vector<std::size_t>& indices,
                                          const he::PaillierPrivateKey& sk,
                                          crypto::Prg& client_prg,
                                          crypto::Prg& server_prg) const {
  SPFE_OBS_SPAN("psm.single_server");
  const std::size_t m = psm_.num_players();
  check_run(indices, m, database, n_);
  const pir::PaillierPir spir(pk_, n_, pir_depth_);
  const std::size_t alpha = psm_.message_bytes();

  // Client round-1 message: m independent SPIR queries.
  std::vector<pir::PaillierPir::ClientState> states(m);
  {
    Writer w;
    for (std::size_t j = 0; j < m; ++j) {
      w.bytes(spir.make_query(sk, indices[j], states[j], client_prg));
    }
    net.client_send(0, w.take());
  }

  // Server: virtual databases of player messages, one SPIR answer each,
  // plus p0 in the clear.
  {
    Reader r(net.server_receive(0));
    const crypto::Prg::Seed psm_seed = draw_seed(server_prg);
    Writer w;
    for (std::size_t j = 0; j < m; ++j) {
      const Bytes query = r.bytes();
      w.bytes(spir.answer_bytes(psm_.player_messages(j, database, psm_seed), alpha, query,
                                server_prg));
    }
    r.expect_done();
    w.bytes(psm_.referee_extra(psm_seed));
    net.server_send(0, w.take());
  }

  // Client: decode the m PSM messages and reconstruct.
  Reader r(net.client_receive(0));
  std::vector<Bytes> messages(m);
  for (std::size_t j = 0; j < m; ++j) messages[j] = spir.decode_bytes(sk, alpha, r.bytes());
  const Bytes extra = r.bytes();
  r.expect_done();
  return psm_.reconstruct(messages, extra);
}

template <typename Psm>
PsmOutput<Psm> PsmSpfeMultiServer<Psm>::run(net::StarNetwork& net,
                                            std::span<const std::uint64_t> database,
                                            const std::vector<std::size_t>& indices,
                                            crypto::Prg& client_prg,
                                            crypto::Prg& server_prg) const {
  SPFE_OBS_SPAN("psm.multi_server");
  const std::size_t m = psm_.num_players();
  check_run(indices, m, database, n_);
  if (net.num_servers() != k_) throw InvalidArgument("PSM SPFE: server count");
  const pir::PolyItPir spir(field_, n_, k_, t_);
  const std::size_t elements = elements_per_message(psm_);

  // Servers' common randomness: PSM seed + per-(slot, element) SPIR masking
  // seeds. (Derived here once; in deployment this is the replicated
  // servers' shared random input.)
  const crypto::Prg common_prg(draw_seed(server_prg));
  const crypto::Prg::Seed psm_seed = common_prg.fork_seed("psm");

  // Client: one IT-SPIR query per (argument slot, element), one bundle per
  // server.
  std::vector<std::vector<pir::PolyItPir::ClientState>> states(
      m, std::vector<pir::PolyItPir::ClientState>(elements));
  std::vector<Writer> per_server(k_);
  for (std::size_t j = 0; j < m; ++j) {
    for (std::size_t c = 0; c < elements; ++c) {
      const auto queries = spir.make_queries(indices[j], states[j][c], client_prg);
      for (std::size_t h = 0; h < k_; ++h) per_server[h].bytes(queries[h]);
    }
  }
  for (std::size_t h = 0; h < k_; ++h) net.client_send(h, per_server[h].take());

  // The element columns of the virtual databases (identical at every server).
  std::vector<std::vector<std::uint64_t>> columns(m * elements,
                                                  std::vector<std::uint64_t>(n_));
  for (std::size_t j = 0; j < m; ++j) {
    const std::vector<Bytes> virtual_db = psm_.player_messages(j, database, psm_seed);
    for (std::size_t c = 0; c < elements; ++c) {
      for (std::size_t i = 0; i < n_; ++i) {
        columns[j * elements + c][i] = message_element(psm_, virtual_db[i], c);
      }
    }
  }

  // Each server: one masked answer per query; server 0 also sends p0.
  for (std::size_t h = 0; h < k_; ++h) {
    Reader r(net.server_receive(h));
    Writer w;
    for (std::size_t j = 0; j < m; ++j) {
      for (std::size_t c = 0; c < elements; ++c) {
        const crypto::Prg::Seed slot_seed = common_prg.fork_seed(
            "spir-slot-" + std::to_string(j) + "-" + std::to_string(c));
        w.bytes(spir.answer(h, columns[j * elements + c], r.bytes(), &slot_seed));
      }
    }
    r.expect_done();
    if (h == 0) w.bytes(psm_.referee_extra(psm_seed));
    net.server_send(h, w.take());
  }

  // Client: decode every element, reassemble the messages, reconstruct.
  std::vector<std::vector<Bytes>> answers(m * elements, std::vector<Bytes>(k_));
  Bytes extra;
  for (std::size_t h = 0; h < k_; ++h) {
    Reader r(net.client_receive(h));
    for (std::vector<Bytes>& answer : answers) answer[h] = r.bytes();
    if (h == 0) extra = r.bytes();
    r.expect_done();
  }
  std::vector<Bytes> messages(m);
  for (std::size_t j = 0; j < m; ++j) {
    std::vector<std::uint64_t> values(elements);
    for (std::size_t c = 0; c < elements; ++c) {
      values[c] = spir.decode(answers[j * elements + c], states[j][c]);
    }
    messages[j] = message_of(psm_, values);
  }
  return psm_.reconstruct(messages, extra);
}

template class PsmSpfeOneServer<psm::SumPsm>;
template class PsmSpfeOneServer<psm::YaoPsm>;
template class PsmSpfeOneServer<psm::BpPsm>;
template class PsmSpfeMultiServer<psm::SumPsm>;
template class PsmSpfeMultiServer<psm::BpPsm>;

PsmSumSpfeMultiServer::PsmSumSpfeMultiServer(field::Fp64 field, std::size_t n, std::size_t m,
                                             std::uint64_t modulus, std::size_t num_servers,
                                             std::size_t threshold)
    : PsmSpfeMultiServer(field, n, psm::SumPsm(m, modulus), num_servers, threshold) {
  if (modulus > field.modulus()) {
    throw InvalidArgument("PsmSumSpfeMultiServer: modulus must fit in the field");
  }
}

PsmBpSpfeMultiServer::PsmBpSpfeMultiServer(field::Fp64 field, circuits::BranchingProgram bp,
                                           std::size_t n, std::size_t num_servers,
                                           std::size_t threshold)
    : PsmSpfeMultiServer(field, n, psm::BpPsm(std::move(bp)), num_servers, threshold) {
  if (field.modulus() < (std::uint64_t(1) << (8 * kItChunkBytes))) {
    throw InvalidArgument("PsmBpSpfeMultiServer: field too small for 7-byte chunks");
  }
}

}  // namespace spfe::protocols

#include "spfe/input_selection.h"

#include "bignum/serialize.h"
#include "common/error.h"
#include "common/serialize.h"
#include "obs/obs.h"
#include "pir/batch_pir.h"
#include "pir/cpir.h"
#include "spfe/detail.h"

namespace spfe::protocols {
namespace {

using bignum::BigInt;
using detail::check_blinding_headroom;
using detail::kStatBits;
using detail::mask_database;
using detail::read_ct;
using detail::write_ct;

void check_inputs(std::span<const std::uint64_t> database,
                  const std::vector<std::size_t>& indices, std::uint64_t modulus) {
  if (database.empty()) throw InvalidArgument("input selection: empty database");
  if (indices.empty()) throw InvalidArgument("input selection: empty index list");
  if (modulus < 2) throw InvalidArgument("input selection: modulus must be >= 2");
  for (const std::size_t i : indices) {
    if (i >= database.size()) throw InvalidArgument("input selection: index out of range");
  }
  for (const std::uint64_t x : database) {
    if (x >= modulus) {
      throw InvalidArgument("input selection: database value exceeds share modulus");
    }
  }
}

// §3.3.2 evaluates P_s at i + 1 for every index i < n. With p <= n two
// indices share a mask point, and the client would read x_i - x_i' off
// its two SPIR items.
void check_mask_points(std::uint64_t p, std::size_t n) {
  if (p <= n) throw InvalidArgument("input selection: poly-mask field must exceed n");
}

// a - b mod u for §3.3.1's share modulus, which need not be prime.
std::uint64_t sub_mod(std::uint64_t a, std::uint64_t b, std::uint64_t u) {
  return static_cast<std::uint64_t>((static_cast<unsigned __int128>(a % u) + (u - b % u)) % u);
}

}  // namespace

SelectedShares input_selection_per_item(net::StarNetwork& net, std::size_t server_id,
                                        std::span<const std::uint64_t> database,
                                        const std::vector<std::size_t>& indices,
                                        std::uint64_t modulus,
                                        const he::PaillierPrivateKey& client_sk,
                                        std::size_t pir_depth, crypto::Prg& client_prg,
                                        crypto::Prg& server_prg) {
  SPFE_OBS_SPAN("input_selection.per_item");
  check_inputs(database, indices, modulus);
  const std::size_t m = indices.size();
  const std::size_t n = database.size();
  const pir::PaillierPir spir(client_sk.public_key(), n, pir_depth);

  // Client: m independent SPIR queries in one message.
  std::vector<pir::PaillierPir::ClientState> states(m);
  {
    Writer w;
    for (std::size_t j = 0; j < m; ++j) {
      w.bytes(spir.make_query(indices[j], states[j], client_prg));
    }
    net.client_send(server_id, w.take());
  }

  // Server: per slot j, mask the whole database with a fresh a_j and answer.
  SelectedShares shares;
  shares.modulus = modulus;
  shares.server_shares.resize(m);
  {
    Reader r(net.server_receive(server_id));
    Writer w;
    std::vector<std::uint64_t> masked(n);
    for (std::size_t j = 0; j < m; ++j) {
      const Bytes query = r.bytes();
      const std::uint64_t a_j = server_prg.uniform(modulus);
      shares.server_shares[j] = a_j;
      for (std::size_t i = 0; i < n; ++i) masked[i] = sub_mod(database[i], a_j, modulus);
      w.bytes(spir.answer_u64(masked, query, server_prg));
    }
    r.expect_done();
    net.server_send(server_id, w.take());
  }

  // Client: b_j = x_{i_j} - a_j.
  shares.client_shares.resize(m);
  Reader r(net.client_receive(server_id));
  for (std::size_t j = 0; j < m; ++j) {
    shares.client_shares[j] = spir.decode_u64(client_sk, r.bytes()) % modulus;
  }
  r.expect_done();
  return shares;
}

SelectedShares input_selection_poly_mask_client_key(
    net::StarNetwork& net, std::size_t server_id, std::span<const std::uint64_t> database,
    const std::vector<std::size_t>& indices, const field::Fp64& field,
    const he::PaillierPrivateKey& client_sk, std::size_t pir_depth, crypto::Prg& client_prg,
    crypto::Prg& server_prg) {
  SPFE_OBS_SPAN("input_selection.poly_mask_client_key");
  const std::uint64_t p = field.modulus();
  check_inputs(database, indices, p);
  const std::size_t m = indices.size();
  const std::size_t n = database.size();
  check_mask_points(p, n);
  const he::PaillierPublicKey& pk = client_sk.public_key();
  check_blinding_headroom(pk, BigInt(m) * BigInt(p) * BigInt(p));
  const pir::CuckooBatchPir spir(pk, n, m, pir_depth);

  // Client: E(i_j^k) for all j, k plus one batched SPIR query.
  pir::CuckooBatchPir::ClientState pir_state;
  {
    Writer w;
    for (std::size_t j = 0; j < m; ++j) {
      for (std::size_t k = 0; k < m; ++k) {
        const BigInt power(field.pow(field.from_u64(indices[j] + 1), k));
        write_ct(w, pk, pk.encrypt(power, client_prg));
      }
    }
    w.bytes(spir.make_query(indices, pir_state, client_prg));
    net.client_send(server_id, w.take());
  }

  // Server: random P_s, masked database, blinded E(P_s(i_j) + r_j).
  SelectedShares shares;
  shares.modulus = p;
  shares.server_shares.resize(m);
  {
    Reader r(net.server_receive(server_id));
    std::vector<std::vector<BigInt>> powers(m, std::vector<BigInt>(m));
    for (std::size_t j = 0; j < m; ++j) {
      for (std::size_t k = 0; k < m; ++k) powers[j][k] = read_ct(r, pk);
    }
    const Bytes pir_query = r.bytes();
    r.expect_done();

    // s_0..s_{m-1} and the masked database x'_i = x_i + P_s(i+1) mod p.
    std::vector<std::uint64_t> s(m);
    for (auto& c : s) c = server_prg.uniform(p);

    Writer w;
    w.bytes(spir.answer_u64(mask_database(database, s, field), pir_query, server_prg));
    const BigInt blind_bound = (BigInt(m) * BigInt(p) * BigInt(p)) << kStatBits;
    std::vector<BigInt> s_big(m);
    for (std::size_t k = 0; k < m; ++k) s_big[k] = BigInt(s[k]);
    for (std::size_t j = 0; j < m; ++j) {
      // E(sum_k s_k * i_j^k + r_j); all plaintext terms positive. The m
      // scalar products collapse into one simultaneous multi-exp.
      BigInt acc = pk.add(pk.encrypt(BigInt(0), server_prg), pk.mul_scalar_sum(powers[j], s_big));
      const BigInt r_j = BigInt::random_below(server_prg, blind_bound);
      shares.server_shares[j] = r_j.mod_floor(BigInt(p)).to_u64();
      acc = pk.add(acc, pk.encrypt(r_j, server_prg));
      write_ct(w, pk, acc);
    }
    net.server_send(server_id, w.take());
  }

  // Client: x'_{i_j} from SPIR, d_j = D_j mod p, b_j = x' - d_j.
  shares.client_shares.resize(m);
  Reader r(net.client_receive(server_id));
  const std::vector<std::uint64_t> masked_items =
      spir.decode_u64(client_sk, r.bytes(), pir_state);
  for (std::size_t j = 0; j < m; ++j) {
    const std::uint64_t d_j = client_sk.decrypt(read_ct(r, pk)).mod_floor(BigInt(p)).to_u64();
    shares.client_shares[j] = field.sub(field.from_u64(masked_items[j]), d_j);
  }
  r.expect_done();
  return shares;
}

SelectedShares input_selection_poly_mask_server_key(
    net::StarNetwork& net, std::size_t server_id, std::span<const std::uint64_t> database,
    const std::vector<std::size_t>& indices, const field::Fp64& field,
    const he::PaillierPrivateKey& server_sk, const he::PaillierPrivateKey& client_sk,
    std::size_t pir_depth, crypto::Prg& client_prg, crypto::Prg& server_prg) {
  SPFE_OBS_SPAN("input_selection.poly_mask_server_key");
  const std::uint64_t p = field.modulus();
  check_inputs(database, indices, p);
  const std::size_t m = indices.size();
  const std::size_t n = database.size();
  check_mask_points(p, n);
  const he::PaillierPublicKey& server_pk = server_sk.public_key();
  check_blinding_headroom(server_pk, BigInt(m) * BigInt(p) * BigInt(p));
  const pir::CuckooBatchPir spir(client_sk.public_key(), n, m, pir_depth);

  // Server speaks first: E_srv(s_0..s_{m-1}). The masked database is fixed
  // by the same coefficients.
  std::vector<std::uint64_t> s(m);
  {
    Writer w;
    server_pk.serialize(w);
    for (std::size_t k = 0; k < m; ++k) {
      s[k] = server_prg.uniform(p);
      write_ct(w, server_pk, server_pk.encrypt(BigInt(s[k]), server_prg));
    }
    net.server_send(server_id, w.take());
  }

  // Client: homomorphically evaluate E_srv(P_s(i_j) + rho_j), plus SPIR query.
  pir::CuckooBatchPir::ClientState pir_state;
  std::vector<std::uint64_t> rho_mod_p(m);
  {
    Reader r(net.client_receive(server_id));
    const he::PaillierPublicKey pk2 = he::PaillierPublicKey::deserialize(r);
    std::vector<BigInt> coeff_cts(m);
    for (auto& c : coeff_cts) c = read_ct(r, pk2);
    r.expect_done();

    const BigInt blind_bound = (BigInt(m) * BigInt(p) * BigInt(p)) << kStatBits;
    // The coefficient ciphertexts are fixed across j, so all m evaluations
    // form one base-major matrix multi-exp (comb tables shared across j).
    // The sums consume no PRG, so drawing them up front leaves the per-j
    // E(0)/rho/E(rho) draw order untouched.
    std::vector<std::vector<BigInt>> exps(m, std::vector<BigInt>(m));
    for (std::size_t j = 0; j < m; ++j) {
      for (std::size_t k = 0; k < m; ++k) {
        exps[k][j] = BigInt(field.pow(field.from_u64(indices[j] + 1), k));
      }
    }
    const std::vector<BigInt> sums = pk2.mul_scalar_sum_matrix(coeff_cts, exps);
    Writer w;
    for (std::size_t j = 0; j < m; ++j) {
      BigInt acc = pk2.add(pk2.encrypt(BigInt(0), client_prg), sums[j]);
      const BigInt rho = BigInt::random_below(client_prg, blind_bound);
      rho_mod_p[j] = rho.mod_floor(BigInt(p)).to_u64();
      acc = pk2.add(acc, pk2.encrypt(rho, client_prg));
      write_ct(w, pk2, acc);
    }
    w.bytes(spir.make_query(indices, pir_state, client_prg));
    net.client_send(server_id, w.take());
  }

  // Server: decrypt the blinded evaluations, answer SPIR over x'.
  SelectedShares shares;
  shares.modulus = p;
  shares.server_shares.resize(m);
  {
    Reader r(net.server_receive(server_id));
    for (std::size_t j = 0; j < m; ++j) {
      const std::uint64_t e_j =
          server_sk.decrypt(read_ct(r, server_pk)).mod_floor(BigInt(p)).to_u64();
      shares.server_shares[j] = field.neg(e_j);
    }
    const Bytes pir_query = r.bytes();
    r.expect_done();

    net.server_send(server_id,
                    spir.answer_u64(mask_database(database, s, field), pir_query, server_prg));
  }

  // Client: b_j = x'_{i_j} + rho_j.
  shares.client_shares.resize(m);
  const std::vector<std::uint64_t> masked_items =
      spir.decode_u64(client_sk, net.client_receive(server_id), pir_state);
  for (std::size_t j = 0; j < m; ++j) {
    shares.client_shares[j] = field.add(field.from_u64(masked_items[j]), rho_mod_p[j]);
  }
  return shares;
}

SelectedShares input_selection_encrypted_db(net::StarNetwork& net, std::size_t server_id,
                                            std::span<const std::uint64_t> database,
                                            const std::vector<std::size_t>& indices,
                                            std::uint64_t modulus,
                                            const he::PaillierPrivateKey& server_sk,
                                            const he::PaillierPrivateKey& client_sk,
                                            std::size_t pir_depth, crypto::Prg& client_prg,
                                            crypto::Prg& server_prg) {
  SPFE_OBS_SPAN("input_selection.encrypted_db");
  check_inputs(database, indices, modulus);
  const std::size_t m = indices.size();
  const std::size_t n = database.size();
  const he::PaillierPublicKey& server_pk = server_sk.public_key();
  check_blinding_headroom(server_pk, BigInt(modulus));
  const std::size_t item_bytes = server_pk.ciphertext_bytes();
  // A *single* SPIR(n, m, kappa) invocation over the encrypted database --
  // exactly the paper's 3.3.3 structure ("the client uses SPIR(n,m,D) to
  // retrieve E(x_i1),...,E(x_im)"); cuckoo batching gives the almost-linear
  // server computation of [8].
  const pir::CuckooBatchPir spir(client_sk.public_key(), n, m, pir_depth);

  pir::CuckooBatchPir::ClientState pir_state;
  net.client_send(server_id, spir.make_query(indices, pir_state, client_prg));

  // Server: encrypted database (prepared once), one batched SPIR answer.
  {
    const Bytes query = net.server_receive(server_id);
    std::vector<Bytes> enc_db(n);
    for (std::size_t i = 0; i < n; ++i) {
      enc_db[i] = server_pk.encrypt(BigInt(database[i]), server_prg)
                      .to_bytes_be_padded(item_bytes);
    }
    Writer w;
    server_pk.serialize(w);
    w.bytes(spir.answer_bytes(enc_db, item_bytes, query, server_prg));
    net.server_send(server_id, w.take());
  }

  // Client: recover E_srv(x_{i_j}), re-blind, send back.
  SelectedShares shares;
  shares.modulus = modulus;
  shares.client_shares.resize(m);
  {
    Reader r(net.client_receive(server_id));
    const he::PaillierPublicKey pk2 = he::PaillierPublicKey::deserialize(r);
    const std::vector<Bytes> items =
        spir.decode_bytes(client_sk, pk2.ciphertext_bytes(), r.bytes(), pir_state);
    r.expect_done();
    Writer w;
    const BigInt u(modulus);
    for (std::size_t j = 0; j < m; ++j) {
      const BigInt ct = BigInt::from_bytes_be(items[j]);
      const std::uint64_t r_j = client_prg.uniform(modulus);
      shares.client_shares[j] = r_j;
      // plaintext: x + u*rho + (u - r_j); mod u this is x - r_j, and the
      // rho term statistically hides the carry.
      const BigInt rho = BigInt::random_below(client_prg, BigInt(1) << kStatBits);
      const BigInt blind = u * rho + (u - BigInt(r_j));
      write_ct(w, pk2, pk2.add(ct, pk2.encrypt(blind, client_prg)));
    }
    net.client_send(server_id, w.take());
  }

  // Server: decrypt and reduce.
  shares.server_shares.resize(m);
  Reader r(net.server_receive(server_id));
  for (std::size_t j = 0; j < m; ++j) {
    shares.server_shares[j] =
        server_sk.decrypt(read_ct(r, server_pk)).mod_floor(BigInt(modulus)).to_u64();
  }
  r.expect_done();
  return shares;
}


SelectedXorShares input_selection_encrypted_db_gm(
    net::StarNetwork& net, std::size_t server_id, std::span<const std::uint64_t> database,
    const std::vector<std::size_t>& indices, std::size_t item_bits,
    const he::GmPrivateKey& server_sk, const he::PaillierPrivateKey& client_sk,
    std::size_t pir_depth, crypto::Prg& client_prg, crypto::Prg& server_prg) {
  SPFE_OBS_SPAN("input_selection.encrypted_db_gm");
  if (item_bits == 0 || item_bits > 63) {
    throw InvalidArgument("GM input selection: item_bits must be in [1, 63]");
  }
  check_inputs(database, indices, std::uint64_t(1) << item_bits);
  const std::size_t m = indices.size();
  const std::size_t n = database.size();
  const he::GmPublicKey& gm_pk = server_sk.public_key();
  const std::size_t ct_bytes = gm_pk.ciphertext_bytes();
  const std::size_t item_bytes = item_bits * ct_bytes;  // one GM ct per bit
  const pir::PaillierPir spir(client_sk.public_key(), n, pir_depth);

  // Client: one SPIR query per selected item.
  std::vector<pir::PaillierPir::ClientState> states(m);
  {
    Writer w;
    for (std::size_t j = 0; j < m; ++j) {
      w.bytes(spir.make_query(indices[j], states[j], client_prg));
    }
    net.client_send(server_id, w.take());
  }

  // Server: bit-encrypted database (GM ciphertext per bit), SPIR answers.
  {
    Reader r(net.server_receive(server_id));
    std::vector<Bytes> enc_db(n);
    for (std::size_t i = 0; i < n; ++i) {
      Writer item;
      for (std::size_t b = 0; b < item_bits; ++b) {
        const bool bit = ((database[i] >> b) & 1) != 0;
        item.raw(gm_pk.encrypt(bit, server_prg).to_bytes_be_padded(ct_bytes));
      }
      enc_db[i] = item.take();
    }
    Writer w;
    gm_pk.serialize(w);
    for (std::size_t j = 0; j < m; ++j) {
      w.bytes(spir.answer_bytes(enc_db, item_bytes, r.bytes(), server_prg));
    }
    r.expect_done();
    net.server_send(server_id, w.take());
  }

  // Client: recover the GM bit ciphertexts, XOR-blind, send back.
  SelectedXorShares shares;
  shares.item_bits = item_bits;
  shares.client_shares.resize(m);
  {
    Reader r(net.client_receive(server_id));
    const he::GmPublicKey pk2 = he::GmPublicKey::deserialize(r);
    Writer w;
    for (std::size_t j = 0; j < m; ++j) {
      const Bytes item = spir.decode_bytes(client_sk, item_bytes, r.bytes());
      Reader ir(item);
      std::uint64_t r_j = 0;
      for (std::size_t b = 0; b < item_bits; ++b) {
        const BigInt ct = BigInt::from_bytes_be(ir.raw(pk2.ciphertext_bytes()));
        const bool blind = client_prg.coin();
        if (blind) r_j |= std::uint64_t(1) << b;
        // E(x_bit) * E(blind) = E(x_bit ^ blind); rerandomize so the server
        // cannot link the returned ciphertext to a database position.
        const BigInt blinded =
            pk2.rerandomize(pk2.xor_ct(ct, pk2.encrypt(blind, client_prg)), client_prg);
        w.raw(blinded.to_bytes_be_padded(pk2.ciphertext_bytes()));
      }
      shares.client_shares[j] = r_j;
    }
    r.expect_done();
    net.client_send(server_id, w.take());
  }

  // Server: decrypt bitwise XOR shares.
  shares.server_shares.resize(m);
  Reader r(net.server_receive(server_id));
  for (std::size_t j = 0; j < m; ++j) {
    std::uint64_t a_j = 0;
    for (std::size_t b = 0; b < item_bits; ++b) {
      const BigInt ct = BigInt::from_bytes_be(r.raw(ct_bytes));
      if (server_sk.decrypt(ct)) a_j |= std::uint64_t(1) << b;
    }
    shares.server_shares[j] = a_j;
  }
  r.expect_done();
  return shares;
}
}  // namespace spfe::protocols

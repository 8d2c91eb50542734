#include "psm/psm.h"

#include "common/error.h"
#include "common/serialize.h"
#include "mpc/yao.h"

namespace spfe::psm {
namespace {

std::uint64_t add_mod(std::uint64_t a, std::uint64_t b, std::uint64_t u) {
  return static_cast<std::uint64_t>((static_cast<unsigned __int128>(a) + b) % u);
}

}  // namespace

SumPsm::SumPsm(std::size_t num_players, std::uint64_t modulus) : m_(num_players), u_(modulus) {
  if (num_players == 0) throw InvalidArgument("SumPsm: need at least one player");
  if (modulus < 2) throw InvalidArgument("SumPsm: modulus must be >= 2");
}

std::uint64_t SumPsm::mask_of(std::size_t j, const crypto::Prg::Seed& seed) const {
  if (j >= m_) throw InvalidArgument("SumPsm: player index out of range");
  // r_1..r_{m-1} are uniform; r_m = -(r_1 + ... + r_{m-1}).
  crypto::Prg prg(seed);
  crypto::Prg masks = prg.fork("sum-psm-masks");
  std::uint64_t sum = 0;
  std::uint64_t r_j = 0;
  for (std::size_t i = 0; i + 1 < m_; ++i) {
    const std::uint64_t r = masks.uniform(u_);
    if (i == j) r_j = r;
    sum = add_mod(sum, r, u_);
  }
  if (j + 1 == m_) r_j = (u_ - sum) % u_;
  return r_j;
}

std::vector<Bytes> SumPsm::player_messages(std::size_t j, std::span<const std::uint64_t> ys,
                                           const crypto::Prg::Seed& seed) const {
  const std::uint64_t r_j = mask_of(j, seed);
  std::vector<Bytes> out;
  out.reserve(ys.size());
  for (const std::uint64_t y : ys) {
    Writer w;
    w.u64(add_mod(y % u_, r_j, u_));
    out.push_back(w.take());
  }
  return out;
}

Bytes SumPsm::referee_extra(const crypto::Prg::Seed&) const { return {}; }

std::uint64_t SumPsm::reconstruct(const std::vector<Bytes>& messages, const Bytes& extra) const {
  if (messages.size() != m_) throw InvalidArgument("SumPsm: wrong message count");
  if (!extra.empty()) throw InvalidArgument("SumPsm: unexpected extra message");
  std::uint64_t acc = 0;
  for (const Bytes& msg : messages) {
    Reader r(msg);
    acc = add_mod(acc, r.u64() % u_, u_);
    r.expect_done();
  }
  return acc;
}

YaoPsm::YaoPsm(const circuits::BooleanCircuit& circuit, std::size_t num_players,
               std::size_t bits_per_player)
    : circuit_(circuit), m_(num_players), bits_(bits_per_player) {
  if (num_players == 0 || bits_per_player == 0) {
    throw InvalidArgument("YaoPsm: need players and bits");
  }
  if (circuit.num_inputs() != num_players * bits_per_player) {
    throw InvalidArgument("YaoPsm: circuit inputs must equal players * bits");
  }
}

std::size_t YaoPsm::message_bytes() const { return bits_ * mpc::kLabelBytes; }

std::vector<Bytes> YaoPsm::player_messages(std::size_t j, std::span<const std::uint64_t> ys,
                                           const crypto::Prg::Seed& seed) const {
  if (j >= m_) throw InvalidArgument("YaoPsm: player index out of range");
  // All players derive the identical garbling from the shared seed; the
  // message is the active label of each owned wire.
  crypto::Prg prg(crypto::Prg(seed).fork_seed("yao-psm-garble"));
  const mpc::GarblingResult g = mpc::garble(circuit_, prg);
  std::vector<Bytes> out;
  out.reserve(ys.size());
  for (const std::uint64_t y : ys) {
    Writer w;
    for (std::size_t b = 0; b < bits_; ++b) {
      // ct_get: y is the player's private input — the active-label
      // selection must not branch on its bits.
      const bool bit = ((y >> b) & 1) != 0;
      w.raw(mpc::label_to_bytes(g.input_labels[j * bits_ + b].ct_get(bit)));
    }
    out.push_back(w.take());
  }
  return out;
}

Bytes YaoPsm::referee_extra(const crypto::Prg::Seed& seed) const {
  crypto::Prg prg(crypto::Prg(seed).fork_seed("yao-psm-garble"));
  const mpc::GarblingResult g = mpc::garble(circuit_, prg);
  return g.garbled.serialize();
}

std::vector<bool> YaoPsm::reconstruct(const std::vector<Bytes>& messages,
                                      const Bytes& extra) const {
  if (messages.size() != m_) throw InvalidArgument("YaoPsm: wrong message count");
  const mpc::GarbledCircuit gc = mpc::GarbledCircuit::deserialize(extra);
  std::vector<mpc::Label> active;
  active.reserve(m_ * bits_);
  for (const Bytes& msg : messages) {
    Reader r(msg);
    for (std::size_t b = 0; b < bits_; ++b) {
      active.push_back(mpc::label_from_bytes(r.raw(mpc::kLabelBytes)));
    }
    r.expect_done();
  }
  return mpc::evaluate(circuit_, gc, active);
}

}  // namespace spfe::psm

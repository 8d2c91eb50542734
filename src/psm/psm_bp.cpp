#include "psm/psm_bp.h"

#include "common/error.h"

namespace spfe::psm {

using circuits::BpEdge;
using field::Gf2Matrix;

BpPsm::BpPsm(circuits::BranchingProgram bp) : bp_(std::move(bp)), m_(bp_.arity()) {
  if (m_ == 0) throw InvalidArgument("BpPsm: branching program reads no inputs");
  if (bp_.matrix_dim() > 64) {
    throw InvalidArgument("BpPsm: branching program too large (matrix dim > 64)");
  }
}

Gf2Matrix BpPsm::m_const() const {
  const std::size_t dim = bp_.matrix_dim();
  Gf2Matrix m(dim);
  // Subdiagonal 1s from the -I part of (A - I).
  for (std::size_t c = 0; c + 1 < dim; ++c) m.set(c + 1, c, true);
  for (const BpEdge& e : bp_.edges()) {
    // M[r][c] = (A - I)[r][c+1] with r = from, c = to - 1.
    const std::size_t r = e.from;
    const std::size_t c = e.to - 1;
    if (e.guard.is_const || e.guard.negated) m.flip(r, c);
  }
  return m;
}

Gf2Matrix BpPsm::m_player(std::size_t j, std::uint64_t y) const {
  const std::size_t dim = bp_.matrix_dim();
  Gf2Matrix m(dim);
  for (const BpEdge& e : bp_.edges()) {
    if (e.guard.is_const || e.guard.arg_index != j) continue;
    if (((y >> e.guard.bit_index) & 1) != 0) m.flip(e.from, e.to - 1);
  }
  return m;
}

BpPsm::Randomness BpPsm::derive(const crypto::Prg::Seed& seed) const {
  const std::size_t dim = bp_.matrix_dim();
  crypto::Prg root(seed);
  crypto::Prg lr = root.fork("bp-psm-lr");
  Randomness rnd{Gf2Matrix::random_unit_upper(dim, lr),
                 Gf2Matrix::random_unit_upper(dim, lr),
                 {}};
  crypto::Prg masks = root.fork("bp-psm-masks");
  Gf2Matrix acc(dim);
  for (std::size_t j = 0; j < m_; ++j) {
    rnd.masks.push_back(Gf2Matrix::random(dim, masks));
    acc += rnd.masks.back();
  }
  rnd.masks.push_back(acc);  // the extra player's balancing mask
  return rnd;
}

std::vector<Bytes> BpPsm::player_messages(std::size_t j, std::span<const std::uint64_t> ys,
                                          const crypto::Prg::Seed& seed) const {
  if (j >= m_) throw InvalidArgument("BpPsm: player index out of range");
  const Randomness rnd = derive(seed);
  std::vector<Bytes> out;
  out.reserve(ys.size());
  for (const std::uint64_t y : ys) {
    out.push_back((rnd.l * m_player(j, y) * rnd.r + rnd.masks[j]).to_bytes());
  }
  return out;
}

Bytes BpPsm::referee_extra(const crypto::Prg::Seed& seed) const {
  const Randomness rnd = derive(seed);
  return (rnd.l * m_const() * rnd.r + rnd.masks[m_]).to_bytes();
}

bool BpPsm::reconstruct(const std::vector<Bytes>& messages, const Bytes& extra) const {
  if (messages.size() != m_) throw InvalidArgument("BpPsm: wrong message count");
  const std::size_t dim = bp_.matrix_dim();
  Gf2Matrix acc = Gf2Matrix::from_bytes(dim, extra);
  for (const Bytes& msg : messages) acc += Gf2Matrix::from_bytes(dim, msg);
  return acc.determinant();
}

Gf2Matrix BpPsm::encode(const std::vector<std::uint64_t>& args,
                        const crypto::Prg::Seed& seed) const {
  if (args.size() != m_) throw InvalidArgument("BpPsm: wrong argument count");
  const Randomness rnd = derive(seed);
  Gf2Matrix m = m_const();
  for (std::size_t j = 0; j < m_; ++j) m += m_player(j, args[j]);
  return rnd.l * m * rnd.r;
}

}  // namespace spfe::psm

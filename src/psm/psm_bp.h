// Perfectly secure PSM from mod-2 branching programs ([30] in the paper —
// the instantiation behind Corollary 4(2) for general functions).
//
// Construction (Ishai–Kushilevitz randomizing polynomials, determinant
// form): the BP's path matrix M(x) over GF(2) has unit subdiagonal, zeros
// below, det(M(x)) = f(x), and decomposes affinely by player:
//     M(x) = M_const + sum_j M_j(x_j).
// The common randomness is a pair (L, R) of uniform *unit upper-triangular*
// matrices plus zero-sum masks Z_j. Player j sends L*M_j(x_j)*R + Z_j; the
// extra player sends L*M_const*R + Z_0; the referee sums and takes the
// determinant. The group action L*M*R is transitive on each determinant
// class of such matrices (Gaussian reduction by the subdiagonal pivots uses
// exactly row operations r_i += c*r_j (j > i) and column operations
// c_j += c*c_i (i < j)), so the encoding's distribution depends only on
// f(x): *perfect* privacy. Verified exhaustively for small dimensions in
// tests/psm_bp_test.cpp.
//
// (alpha, beta) = (dim^2 bits, dim^2 bits) where dim = #BP vertices - 1.
#pragma once

#include <cstdint>
#include <vector>

#include "circuits/branching_program.h"
#include "common/bytes.h"
#include "crypto/prg.h"
#include "field/gf2.h"

namespace spfe::psm {

class BpPsm {
 public:
  // One player per BP argument slot (player j holds argument j).
  explicit BpPsm(circuits::BranchingProgram bp);

  std::size_t num_players() const { return m_; }
  std::size_t matrix_dim() const { return bp_.matrix_dim(); }
  std::size_t message_bytes() const { return field::Gf2Matrix::byte_size(matrix_dim()); }

  std::vector<Bytes> player_messages(std::size_t j, std::span<const std::uint64_t> ys,
                                     const crypto::Prg::Seed& seed) const;
  Bytes referee_extra(const crypto::Prg::Seed& seed) const;
  bool reconstruct(const std::vector<Bytes>& messages, const Bytes& extra) const;

  // Exposed for the privacy tests: the encoded matrix L*M(x)*R.
  field::Gf2Matrix encode(const std::vector<std::uint64_t>& args,
                          const crypto::Prg::Seed& seed) const;

 private:
  struct Randomness {
    field::Gf2Matrix l;
    field::Gf2Matrix r;
    std::vector<field::Gf2Matrix> masks;  // m player masks + 1 extra, XOR = 0
  };
  Randomness derive(const crypto::Prg::Seed& seed) const;
  field::Gf2Matrix m_const() const;
  field::Gf2Matrix m_player(std::size_t j, std::uint64_t y) const;

  circuits::BranchingProgram bp_;
  std::size_t m_;
};

}  // namespace spfe::psm

// §3.1 — one-round multi-server SPFE from multivariate polynomial
// evaluation (instance hiding, Lemma 1 / Theorem 2).
//
// Both classes are parameterizations of the one §3.1 engine,
// pir::InstanceHiding (pir/itpir.h), which owns the wire format and every
// step of the exchange: query encoding, server evaluation, the SPIR mask,
// decode, `run` and `run_robust`. Each selected index contributes
// l = ceil(log2 n) curve coordinates (its bits), and the answer polynomial
// P applies the selection polynomial P0 to each coordinate block:
//
// MultiServerFormulaSpfe: f is a Boolean formula phi over the m selected
// data bits; P is phi's arithmetization with leaf j replaced by P0 on
// block j, so deg(P) <= l * s for formula size s (leaf count), and
// k > deg(P) * t servers are needed.
//
// MultiServerSumSpfe: f = sum (the paper's s = 1 case): deg(P) = l, so
// k = t*l + 1 servers suffice and the data may be arbitrary field elements
// rather than bits.
#pragma once

#include "circuits/formula.h"
#include "pir/itpir.h"

namespace spfe::protocols {

class MultiServerFormulaSpfe : public pir::InstanceHiding {
 public:
  // Database entries must be bits (0/1 as field elements).
  MultiServerFormulaSpfe(field::Fp64 field, circuits::Formula formula, std::size_t n,
                         std::size_t num_servers, std::size_t threshold);

  static std::size_t min_servers(const circuits::Formula& formula, std::size_t n,
                                 std::size_t threshold);
};

class MultiServerSumSpfe : public pir::InstanceHiding {
 public:
  // f = sum of the m selected items over the field. Data: any field values.
  MultiServerSumSpfe(field::Fp64 field, std::size_t n, std::size_t m, std::size_t num_servers,
                     std::size_t threshold);

  static std::size_t min_servers(std::size_t n, std::size_t threshold);
};

}  // namespace spfe::protocols

#include "spfe/multiserver.h"

namespace spfe::protocols {

MultiServerFormulaSpfe::MultiServerFormulaSpfe(field::Fp64 field, circuits::Formula formula,
                                               std::size_t n, std::size_t num_servers,
                                               std::size_t threshold)
    : InstanceHiding(field, n, formula.arity(), num_servers, threshold, formula) {}

std::size_t MultiServerFormulaSpfe::min_servers(const circuits::Formula& formula, std::size_t n,
                                                std::size_t threshold) {
  return formula.arith_degree(pir::selection_bits(n)) * threshold + 1;
}

MultiServerSumSpfe::MultiServerSumSpfe(field::Fp64 field, std::size_t n, std::size_t m,
                                       std::size_t num_servers, std::size_t threshold)
    : InstanceHiding(field, n, m, num_servers, threshold, std::nullopt) {}

std::size_t MultiServerSumSpfe::min_servers(std::size_t n, std::size_t threshold) {
  return pir::selection_bits(n) * threshold + 1;
}

}  // namespace spfe::protocols

// Probabilistic primality testing and prime generation.
//
// Miller–Rabin with PRG-supplied bases (plus fixed small-prime trial
// division). Key generation for Paillier / Goldwasser–Micali uses
// `random_prime`; the OT group uses a fixed published safe prime instead of
// generating one (see ot/group.h), since safe-prime generation is expensive.
#pragma once

#include <cstddef>

#include "bignum/bigint.h"
#include "crypto/prg.h"

namespace spfe::bignum {

// Miller–Rabin with `rounds` random bases (error <= 4^-rounds).
bool is_probable_prime(const BigInt& n, crypto::Prg& prg, int rounds = 32);

// Uniform prime with exactly `bits` bits (MSB and LSB set before testing).
BigInt random_prime(crypto::Prg& prg, std::size_t bits, int rounds = 32);

// Safe prime p = 2q + 1 with q prime; exponential-time search, intended for
// small test parameters only (<= ~128 bits).
BigInt random_safe_prime(crypto::Prg& prg, std::size_t bits, int rounds = 20);

}  // namespace spfe::bignum

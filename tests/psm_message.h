// One-item view of a PSM's batch message path, for tests that need a single
// player's message on a single input.
#pragma once

#include <cstdint>

#include "common/bytes.h"
#include "crypto/prg.h"

namespace spfe::psm {

template <typename Psm>
Bytes player_message(const Psm& psm, std::size_t j, std::uint64_t y,
                     const crypto::Prg::Seed& seed) {
  const std::uint64_t ys[] = {y};
  return psm.player_messages(j, ys, seed).at(0);
}

}  // namespace spfe::psm

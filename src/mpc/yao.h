// Yao garbled circuits ([46] in the paper) — garbling and evaluation.
//
// Implementation notes:
//   - 128-bit wire labels; free-XOR (labels differ by a global offset R) so
//     XOR/NOT/constant gates cost no table rows and no crypto;
//   - point-and-permute: the low bit of each label is its permute bit
//     (lsb(R) = 1 keeps the two labels of a wire distinguishable), so the
//     evaluator decrypts exactly one of the four rows of an AND/OR table;
//   - row encryption is KDF(La || Lb || gate-id) XOR label.
// The garbled-circuit size is 4 * 16 bytes per nonfree gate — the concrete
// O(kappa * C_f) term of Table 1.
//
// This module is pure (no networking): mpc/yao_protocol.h drives it over a
// StarNetwork with OT, and psm/psm_yao.h reuses it with *shared* randomness
// to build the computational PSM protocol of §3.2.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "circuits/boolean_circuit.h"
#include "common/bytes.h"
#include "common/secret.h"
#include "common/serialize.h"
#include "crypto/prg.h"

namespace spfe::mpc {

inline constexpr std::size_t kLabelBytes = 16;
using Label = std::array<std::uint8_t, kLabelBytes>;

Label xor_labels(const Label& a, const Label& b);
bool label_lsb(const Label& l);

// One wire's label pair; `l1 = l0 XOR R` under free-XOR.
struct LabelPair {
  Label l0;
  Label l1;
  // Reference select for PUBLIC truth values only (garbling enumerates all
  // four rows of a table, so `v` there is a loop constant). For a party's
  // private input bit, use ct_get.
  const Label& get(bool v) const { return v ? l1 : l0; }
  // Branch-free select for secret truth values: reads both labels and mixes
  // them with a full-width mask, so neither the branch predictor nor the
  // data cache learns which label became active.
  Label ct_get(bool /*secret*/ v) const {
    const std::uint8_t m =
        static_cast<std::uint8_t>(common::ct_mask_from_bit(static_cast<std::uint64_t>(v)));
    Label out;
    // SPFE_CT_BEGIN(label_ct_get)
    for (std::size_t i = 0; i < kLabelBytes; ++i) {
      out[i] = static_cast<std::uint8_t>(l0[i] ^ (m & (l0[i] ^ l1[i])));
    }
    // SPFE_CT_END
    return out;
  }
};

// Everything the evaluator needs except its own input labels.
struct GarbledCircuit {
  // 4 rows per nonfree (AND/OR) gate, in gate order.
  std::vector<std::array<Label, 4>> tables;
  // Active labels for constant wires, in constant-gate order.
  std::vector<Label> const_labels;
  // Per output wire: permute bit of the false label (output bit =
  // lsb(active label) XOR decode bit).
  std::vector<bool> output_decode;

  Bytes serialize() const;
  static GarbledCircuit deserialize(BytesView data);
};

struct GarblingResult {
  GarbledCircuit garbled;
  std::vector<LabelPair> input_labels;  // one per circuit input wire
};

// Garbles `circuit` with randomness from `prg`. Garbling is deterministic
// given the PRG stream — the property the PSM construction exploits.
GarblingResult garble(const circuits::BooleanCircuit& circuit, crypto::Prg& prg);

// Evaluates with one active label per input wire; returns the output bits.
std::vector<bool> evaluate(const circuits::BooleanCircuit& circuit, const GarbledCircuit& gc,
                           const std::vector<Label>& active_inputs);

Bytes label_to_bytes(const Label& l);
Label label_from_bytes(BytesView b);

}  // namespace spfe::mpc

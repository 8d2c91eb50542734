#include "mpc/yao.h"

#include "common/error.h"
#include "crypto/kdf.h"
#include "obs/obs.h"

namespace spfe::mpc {
namespace {

using circuits::BooleanCircuit;
using circuits::Gate;
using circuits::GateKind;

Label random_label(crypto::Prg& prg) {
  Label l;
  prg.fill(l.data(), l.size());
  return l;
}

// Row pad for gate `gate_id` keyed by the two active labels.
Label row_pad(const Label& la, const Label& lb, std::uint64_t gate_id) {
  Writer key;
  key.raw(BytesView(la.data(), la.size()));
  key.raw(BytesView(lb.data(), lb.size()));
  key.u64(gate_id);
  const Bytes pad = crypto::kdf_expand(key.data(), "spfe-yao-row", kLabelBytes);
  Label out{};
  std::copy(pad.begin(), pad.end(), out.begin());
  return out;
}

// Bitwise (not short-circuit) combination: garbling enumerates all four
// truth-table rows, but the operands trace back to secret permute bits, so
// the evaluation must not branch on them.
bool gate_fn(GateKind kind, bool a, bool b) {
  switch (kind) {
    case GateKind::kAnd:
      return a & b;
    case GateKind::kOr:
      return a | b;
    default:
      throw InvalidArgument("gate_fn: not a table gate");
  }
}

}  // namespace

Label xor_labels(const Label& a, const Label& b) {
  Label out;
  for (std::size_t i = 0; i < kLabelBytes; ++i) out[i] = a[i] ^ b[i];
  return out;
}

bool label_lsb(const Label& l) { return (l[kLabelBytes - 1] & 1) != 0; }

Bytes label_to_bytes(const Label& l) { return Bytes(l.begin(), l.end()); }

Label label_from_bytes(BytesView b) {
  if (b.size() != kLabelBytes) throw SerializationError("label_from_bytes: bad size");
  Label l;
  std::copy(b.begin(), b.end(), l.begin());
  return l;
}

GarblingResult garble(const BooleanCircuit& circuit, crypto::Prg& prg) {
  // Global free-XOR offset with permute bit forced on.
  Label offset = random_label(prg);
  offset[kLabelBytes - 1] |= 1;

  const auto fresh_pair = [&]() {
    LabelPair p;
    p.l0 = random_label(prg);
    p.l1 = xor_labels(p.l0, offset);
    return p;
  };

  std::vector<LabelPair> wires(circuit.num_wires());
  GarblingResult result;
  result.input_labels.resize(circuit.num_inputs());
  for (std::size_t i = 0; i < circuit.num_inputs(); ++i) {
    wires[i] = fresh_pair();
    result.input_labels[i] = wires[i];
  }

  GarbledCircuit& gc = result.garbled;
  const auto& gates = circuit.gates();
  for (std::size_t g = 0; g < gates.size(); ++g) {
    const Gate& gate = gates[g];
    const std::size_t out = circuit.num_inputs() + g;
    switch (gate.kind) {
      case GateKind::kXor:
        // Free-XOR: l0_out = l0_a ^ l0_b (offsets cancel pairwise).
        wires[out].l0 = xor_labels(wires[gate.a].l0, wires[gate.b].l0);
        wires[out].l1 = xor_labels(wires[out].l0, offset);
        break;
      case GateKind::kNot:
        // Swap semantics: false label of the output is the true label of
        // the input; the evaluator passes the active label through.
        wires[out].l0 = wires[gate.a].l1;
        wires[out].l1 = wires[gate.a].l0;
        break;
      case GateKind::kConstZero:
      case GateKind::kConstOne: {
        wires[out] = fresh_pair();
        const bool v = gate.kind == GateKind::kConstOne;
        gc.const_labels.push_back(wires[out].get(v));
        break;
      }
      case GateKind::kAnd:
      case GateKind::kOr: {
        wires[out] = fresh_pair();
        // The row index is built from the labels' permute bits, which are
        // secret — a direct `table[row] = ...` store would leak them through
        // the garbler's write pattern. Instead each encrypted row is
        // OR-scattered into all four slots under an equality mask; the four
        // (va, vb) combinations hit distinct rows, so the accumulation is
        // byte-identical to the direct store.
        std::array<Label, 4> table{};
        for (int va = 0; va <= 1; ++va) {
          for (int vb = 0; vb <= 1; ++vb) {
            const Label& la = wires[gate.a].get(va != 0);
            const Label& lb = wires[gate.b].get(vb != 0);
            const bool vo = gate_fn(gate.kind, va != 0, vb != 0);
            const Label enc = xor_labels(row_pad(la, lb, g), wires[out].get(vo));
            const std::uint64_t /*secret*/ row =
                (static_cast<std::uint64_t>(la[kLabelBytes - 1] & 1) << 1) |
                static_cast<std::uint64_t>(lb[kLabelBytes - 1] & 1);
            // SPFE_CT_BEGIN(yao_garble_scatter)
            for (std::size_t r = 0; r < 4; ++r) {
              const std::uint8_t m =
                  static_cast<std::uint8_t>(common::ct_eq_u64(r, row));
              for (std::size_t i = 0; i < kLabelBytes; ++i) {
                table[r][i] |= static_cast<std::uint8_t>(m & enc[i]);
              }
            }
            // SPFE_CT_END
          }
        }
        gc.tables.push_back(table);
        obs::count(obs::Op::kGarbledGates);
        break;
      }
    }
  }

  for (const circuits::WireId w : circuit.outputs()) {
    gc.output_decode.push_back(label_lsb(wires[w].l0));
  }
  return result;
}

std::vector<bool> evaluate(const BooleanCircuit& circuit, const GarbledCircuit& gc,
                           const std::vector<Label>& active_inputs) {
  if (active_inputs.size() != circuit.num_inputs()) {
    throw InvalidArgument("yao evaluate: wrong number of input labels");
  }
  std::vector<Label> active(circuit.num_wires());
  for (std::size_t i = 0; i < circuit.num_inputs(); ++i) active[i] = active_inputs[i];

  std::size_t table_idx = 0;
  std::size_t const_idx = 0;
  const auto& gates = circuit.gates();
  for (std::size_t g = 0; g < gates.size(); ++g) {
    const Gate& gate = gates[g];
    const std::size_t out = circuit.num_inputs() + g;
    switch (gate.kind) {
      case GateKind::kXor:
        active[out] = xor_labels(active[gate.a], active[gate.b]);
        break;
      case GateKind::kNot:
        active[out] = active[gate.a];
        break;
      case GateKind::kConstZero:
      case GateKind::kConstOne:
        if (const_idx >= gc.const_labels.size()) {
          throw ProtocolError("yao evaluate: missing constant label");
        }
        active[out] = gc.const_labels[const_idx++];
        break;
      case GateKind::kAnd:
      case GateKind::kOr: {
        if (table_idx >= gc.tables.size()) {
          throw ProtocolError("yao evaluate: missing garbled table");
        }
        const auto& table = gc.tables[table_idx++];
        const Label& la = active[gate.a];
        const Label& lb = active[gate.b];
        const std::size_t row = (static_cast<std::size_t>(label_lsb(la)) << 1) |
                                static_cast<std::size_t>(label_lsb(lb));
        active[out] = xor_labels(table[row], row_pad(la, lb, g));
        break;
      }
    }
  }

  if (gc.output_decode.size() != circuit.outputs().size()) {
    throw ProtocolError("yao evaluate: output decode size mismatch");
  }
  std::vector<bool> out;
  out.reserve(circuit.outputs().size());
  for (std::size_t i = 0; i < circuit.outputs().size(); ++i) {
    out.push_back(label_lsb(active[circuit.outputs()[i]]) != gc.output_decode[i]);
  }
  return out;
}

Bytes GarbledCircuit::serialize() const {
  Writer w;
  w.varint(tables.size());
  for (const auto& t : tables) {
    for (const Label& row : t) w.raw(BytesView(row.data(), row.size()));
  }
  w.varint(const_labels.size());
  for (const Label& l : const_labels) w.raw(BytesView(l.data(), l.size()));
  w.varint(output_decode.size());
  for (const bool b : output_decode) w.u8(b ? 1 : 0);
  return w.take();
}

GarbledCircuit GarbledCircuit::deserialize(BytesView data) {
  Reader r(data);
  GarbledCircuit gc;
  const std::uint64_t n_tables = r.varint_count(4 * kLabelBytes);
  gc.tables.resize(n_tables);
  for (auto& t : gc.tables) {
    for (Label& row : t) row = label_from_bytes(r.raw(kLabelBytes));
  }
  const std::uint64_t n_consts = r.varint_count(kLabelBytes);
  gc.const_labels.resize(n_consts);
  for (Label& l : gc.const_labels) l = label_from_bytes(r.raw(kLabelBytes));
  const std::uint64_t n_out = r.varint_count(1);
  gc.output_decode.resize(n_out);
  for (std::uint64_t i = 0; i < n_out; ++i) gc.output_decode[i] = r.u8() != 0;
  r.expect_done();
  return gc;
}

}  // namespace spfe::mpc

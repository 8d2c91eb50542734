// Experiment E3 — Theorem 3 / Corollary 4: PSM-based SPFE.
//
// The theorem states comm = m * SPIR(n, 1, alpha) + beta where (alpha, beta)
// is the PSM protocol's communication. This bench decomposes the measured
// traffic for both instantiations:
//   - sum-PSM: (alpha, beta) = (8 B, 0)       [perfectly secure PSM]
//   - Yao-PSM: (alpha, beta) = (16*bits B, |GC|) [computational PSM]
// and shows the multi-server IT variant (Corollary 4(2)) next to the
// single-server computational one (Corollary 4(1)). Exits nonzero if any
// row's `ok` cell is not `yes`.
#include <cstdio>

#include "bench_util.h"
#include "circuits/boolean_circuit.h"
#include "circuits/branching_program.h"
#include "field/gf2.h"
#include "he/paillier.h"
#include "mpc/yao.h"
#include "spfe/psm_spfe.h"

namespace {

using namespace spfe;

constexpr std::size_t kItemBits = 8;

circuits::BooleanCircuit make_parity_circuit(std::size_t m) {
  // Parity of the low bits of the m items — a tiny all-XOR circuit (beta is
  // dominated by decode info), good for isolating the alpha term.
  circuits::BooleanCircuit c(m * kItemBits);
  circuits::WireId acc = c.input(0);
  for (std::size_t j = 1; j < m; ++j) acc = c.xor_gate(acc, c.input(j * kItemBits));
  c.add_output(acc);
  return c;
}

circuits::BooleanCircuit make_sum_circuit(std::size_t m) {
  // Full adder tree over the m items — beta = O(kappa * C_f) is visible.
  circuits::BooleanCircuit c(m * kItemBits);
  std::vector<circuits::WireBundle> items;
  for (std::size_t j = 0; j < m; ++j) {
    circuits::WireBundle item;
    for (std::size_t b = 0; b < kItemBits; ++b) item.push_back(c.input(j * kItemBits + b));
    items.push_back(item);
  }
  c.add_outputs(circuits::build_sum_tree(c, items));
  return c;
}

}  // namespace

int main() {
  std::printf("== E3: PSM-based SPFE (Theorem 3 / Corollary 4) ==\n\n");
  crypto::Prg client_prg("e3-client"), server_prg("e3-server");
  const he::PaillierPrivateKey client_sk = he::paillier_keygen(client_prg, 512);
  const field::Fp64 field(field::Fp64::kMersenne61);
  // Every row's `ok` cell; the exit code fails if any was wrong.
  bool all_ok = true;
  const auto ok_cell = [&all_ok](bool ok) {
    all_ok = all_ok && ok;
    return ok ? "yes" : "WRONG";
  };

  std::printf("--- single server (Corollary 4(1)), sum-PSM, f = sum mod 2^16 ---\n");
  bench::Table sum_table({"n", "m", "alpha (B)", "up", "down", "total", "rounds", "wall ms",
                          "ok"});
  for (const std::size_t n : {256u, 1024u, 4096u}) {
    for (const std::size_t m : {2u, 4u, 8u}) {
      constexpr std::uint64_t kU = 1 << 16;
      std::vector<std::uint64_t> db(n);
      for (std::size_t i = 0; i < n; ++i) db[i] = (i * 37) % kU;
      std::vector<std::size_t> indices;
      for (std::size_t j = 0; j < m; ++j) indices.push_back((j * 211 + 9) % n);
      std::uint64_t expect = 0;
      for (const std::size_t i : indices) expect = (expect + db[i]) % kU;

      const protocols::PsmSumSpfeSingleServer proto(client_sk.public_key(), n, m, kU, 2);
      net::StarNetwork net(1);
      bench::Stopwatch sw;
      const std::uint64_t got = proto.run(net, db, indices, client_sk, client_prg, server_prg);
      sum_table.add({std::to_string(n), std::to_string(m), "8",
                     bench::human_bytes(net.stats().client_to_server_bytes),
                     bench::human_bytes(net.stats().server_to_client_bytes),
                     bench::human_bytes(net.stats().total_bytes()),
                     bench::rounds_str(net.stats()), bench::fmt("%.0f", sw.ms()),
                     ok_cell(got == expect)});
    }
  }
  sum_table.print();

  std::printf("\n--- single server, Yao-PSM: alpha = 16*bits, beta = |garbled circuit| ---\n");
  bench::Table yao_table({"n", "m", "f", "alpha (B)", "beta = |GC| (B)", "up", "down", "total",
                          "wall ms", "ok"});
  for (const std::size_t m : {2u, 4u}) {
    for (const bool heavy : {false, true}) {
      const std::size_t n = 256;
      std::vector<std::uint64_t> db(n);
      for (std::size_t i = 0; i < n; ++i) db[i] = i % 256;
      std::vector<std::size_t> indices;
      for (std::size_t j = 0; j < m; ++j) indices.push_back((j * 67 + 3) % n);

      const circuits::BooleanCircuit circuit =
          heavy ? make_sum_circuit(m) : make_parity_circuit(m);
      // beta: size of the garbled circuit (referee message p0).
      crypto::Prg gprg("e3-beta");
      const std::size_t beta = mpc::garble(circuit, gprg).garbled.serialize().size();

      const protocols::PsmYaoSpfeSingleServer proto(client_sk.public_key(), circuit, n, m,
                                                    kItemBits, 2);
      net::StarNetwork net(1);
      bench::Stopwatch sw;
      const auto out = proto.run(net, db, indices, client_sk, client_prg, server_prg);
      // Correctness vs plain eval.
      std::vector<bool> args;
      for (const std::size_t i : indices) {
        for (std::size_t b = 0; b < kItemBits; ++b) args.push_back(((db[i] >> b) & 1) != 0);
      }
      const bool ok = out == circuit.eval(args);
      yao_table.add({std::to_string(n), std::to_string(m), heavy ? "sum tree" : "parity",
                     std::to_string(kItemBits * 16), std::to_string(beta),
                     bench::human_bytes(net.stats().client_to_server_bytes),
                     bench::human_bytes(net.stats().server_to_client_bytes),
                     bench::human_bytes(net.stats().total_bytes()), bench::fmt("%.0f", sw.ms()),
                     ok_cell(ok)});
    }
  }
  yao_table.print();

  std::printf("\n--- BP-PSM (perfectly secure PSM, [30]): keyword match f = (x_i == w) ---\n");
  {
    bench::Table bp_table({"n", "bits", "dim", "alpha (B)", "total comm", "wall ms",
                           "security", "ok"});
    for (const std::size_t n : {256u, 1024u}) {
      constexpr std::size_t kBits = 8;
      std::vector<std::uint64_t> db(n);
      for (std::size_t i = 0; i < n; ++i) db[i] = i % 200;
      const auto bp = circuits::BranchingProgram::equals_constant(kBits, 42);
      {  // single server: computational SPIR + perfect PSM
        const protocols::PsmBpSpfeSingleServer proto(client_sk.public_key(), bp, n, 2);
        net::StarNetwork net(1);
        bench::Stopwatch sw;
        const bool got = proto.run(net, db, {42}, client_sk, client_prg, server_prg);
        bp_table.add({std::to_string(n), std::to_string(kBits), std::to_string(kBits),
                      std::to_string(field::Gf2Matrix::byte_size(kBits)),
                      bench::human_bytes(net.stats().total_bytes()),
                      bench::fmt("%.0f", sw.ms()), "perfect PSM + cSPIR",
                      ok_cell(got == (db[42] == 42))});
      }
      {  // multi server: fully information-theoretic
        const std::size_t k = pir::PolyItPir::min_servers(n, 1);
        const protocols::PsmBpSpfeMultiServer proto(field, bp, n, k, 1);
        net::StarNetwork net(k);
        bench::Stopwatch sw;
        const bool got = proto.run(net, db, {42}, client_prg, server_prg);
        bp_table.add({std::to_string(n), std::to_string(kBits), std::to_string(kBits),
                      std::to_string(field::Gf2Matrix::byte_size(kBits)),
                      bench::human_bytes(net.stats().total_bytes()),
                      bench::fmt("%.0f", sw.ms()),
                      "fully IT (k=" + std::to_string(k) + ")",
                      ok_cell(got == (db[42] == 42))});
      }
    }
    bp_table.print();
  }

  std::printf("\n--- multi-server IT variant (Corollary 4(2)), sum-PSM + t-private SPIR ---\n");
  bench::Table ms_table({"n", "m", "t", "k", "total comm", "wall ms", "rounds", "ok"});
  for (const std::size_t n : {1024u, 16384u}) {
    for (const std::size_t t : {1u, 2u}) {
      const std::size_t m = 4;
      constexpr std::uint64_t kU = 1 << 20;
      const std::size_t k = pir::PolyItPir::min_servers(n, t);
      const protocols::PsmSumSpfeMultiServer proto(field, n, m, kU, k, t);
      std::vector<std::uint64_t> db(n);
      for (std::size_t i = 0; i < n; ++i) db[i] = (i * 7 + 1) % kU;
      std::vector<std::size_t> indices = {1, n / 3, n / 2, n - 1};
      std::uint64_t expect = 0;
      for (const std::size_t i : indices) expect = (expect + db[i]) % kU;

      net::StarNetwork net(k);
      bench::Stopwatch sw;
      const std::uint64_t got = proto.run(net, db, indices, client_prg, server_prg);
      ms_table.add({std::to_string(n), std::to_string(m), std::to_string(t), std::to_string(k),
                    bench::human_bytes(net.stats().total_bytes()), bench::fmt("%.0f", sw.ms()),
                    bench::rounds_str(net.stats()), ok_cell(got == expect)});
    }
  }
  ms_table.print();
  std::printf("\nShape check: up-traffic scales with m (one SPIR query per argument);\n"
              "Yao-PSM down-traffic = m*alpha-term + beta where beta tracks C_f.\n");
  if (!all_ok) std::printf("\nFAIL: a row's ok cell is not yes\n");
  return all_ok ? 0 : 1;
}

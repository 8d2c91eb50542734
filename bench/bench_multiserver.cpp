// Experiment E2 — Theorem 2: the §3.1 multi-server protocol.
//
// Measures, across database size n, formula size s, and privacy threshold t:
//   - the required server count k = t * s * ceil(log2 n) + 1;
//   - total communication, against the theorem's
//     k * (m log n + 1) field-element bound;
//   - client/server wall time (server work is O(s * n) field mults).
#include <cstdio>

#include "bench_util.h"
#include "spfe/multiserver.h"

namespace {

using namespace spfe;
using circuits::Formula;

Formula formula_of_size(std::size_t s) {
  // Balanced OR tree over s leaves (size = s, arity = s).
  return Formula::or_tree(s);
}

}  // namespace

int main() {
  std::printf("== E2: multi-server SPFE (Theorem 2) ==\n\n");
  const field::Fp64 field(field::Fp64::kMersenne61);
  crypto::Prg prg("e2");
  const auto spir_seed = prg.fork_seed("spir");
  // Every row's `ok` cell; the exit code fails if any was wrong.
  bool all_ok = true;
  const auto ok_cell = [&all_ok](bool ok) {
    all_ok = all_ok && ok;
    return ok ? "yes" : "WRONG";
  };

  std::printf("--- formula f = OR over s selected bits (database of bits) ---\n");
  bench::Table table({"n", "s", "t", "k servers", "comm (meas)", "comm bound (fields)",
                      "wall ms", "rounds", "ok"});
  for (const std::size_t n : {256u, 4096u, 65536u}) {
    for (const std::size_t s : {2u, 4u}) {
      for (const std::size_t t : {1u, 2u}) {
        const Formula f = formula_of_size(s);
        const std::size_t k = protocols::MultiServerFormulaSpfe::min_servers(f, n, t);
        const protocols::MultiServerFormulaSpfe proto(field, f, n, k, t);
        std::vector<std::uint64_t> db(n);
        for (std::size_t i = 0; i < n; ++i) db[i] = (i % 7 == 0) ? 1 : 0;
        std::vector<std::size_t> indices;
        for (std::size_t j = 0; j < s; ++j) indices.push_back((j * 131 + 1) % n);
        bool expect = false;
        for (const std::size_t i : indices) expect = expect || db[i] != 0;

        net::StarNetwork net(k);
        bench::Stopwatch sw;
        const std::uint64_t got = proto.run(net, db, indices, spir_seed, prg);
        const double ms = sw.ms();

        std::size_t l = 0;
        while ((std::size_t(1) << l) < n) ++l;
        const std::uint64_t bound_fields = k * (s * l + 1);
        table.add({std::to_string(n), std::to_string(s), std::to_string(t), std::to_string(k),
                   bench::human_bytes(net.stats().total_bytes()),
                   std::to_string(bound_fields) + " (" + bench::human_bytes(bound_fields * 8) +
                       ")",
                   bench::fmt("%.1f", ms), bench::rounds_str(net.stats()),
                   ok_cell(got == (expect ? 1u : 0u))});
      }
    }
  }
  table.print();

  std::printf("\n--- f = sum (s = 1): k = t log n + 1 servers (§4 'efficiency of previous "
              "constructions') ---\n");
  bench::Table sum_table(
      {"n", "m", "t", "k servers", "comm", "wall ms", "per-server answer", "ok"});
  crypto::Prg data_prg("e2-data");
  for (const std::size_t n : {1024u, 16384u, 262144u}) {
    for (const std::size_t m : {4u, 16u}) {
      const std::size_t t = 1;
      const std::size_t k = protocols::MultiServerSumSpfe::min_servers(n, t);
      const protocols::MultiServerSumSpfe proto(field, n, m, k, t);
      std::vector<std::uint64_t> db(n);
      for (auto& v : db) v = data_prg.uniform(1u << 20);
      std::vector<std::size_t> indices;
      for (std::size_t j = 0; j < m; ++j) indices.push_back((j * 7919 + 13) % n);
      std::uint64_t expect = 0;
      for (const std::size_t i : indices) expect += db[i];

      net::StarNetwork net(k);
      bench::Stopwatch sw;
      const std::uint64_t got = proto.run(net, db, indices, spir_seed, prg);
      sum_table.add({std::to_string(n), std::to_string(m), std::to_string(t),
                     std::to_string(k), bench::human_bytes(net.stats().total_bytes()),
                     bench::fmt("%.1f", sw.ms()),
                     bench::human_bytes(net.stats().server_to_client_bytes / k),
                     ok_cell(got == expect)});
    }
  }
  sum_table.print();
  std::printf("\nShape check: k grows with t*s*log n; answers are single field elements, so\n"
              "repeated statistics over the same data cost one extra answer each (§3.1).\n");
  if (!all_ok) std::printf("\nFAIL: a row's ok cell is not yes\n");
  return all_ok ? 0 : 1;
}

// Experiment E6 — §4's statistics protocols on the census workload.
//
// Claims measured:
//   - the dedicated 1-round weighted-sum protocol beats the generic
//     two-phase constructions for f = sum (rounds and communication);
//   - the average+variance "package" costs one weighted sum plus one
//     ciphertext: its one SPIR answer packs the masked x and x^2 values
//     side by side, so only the squares view's mask ciphertext is extra;
//   - frequency counting adds exactly one round after input selection.
#include <cstdio>

#include "bench_util.h"
#include "circuits/arith_circuit.h"
#include "dbgen/census.h"
#include "he/paillier.h"
#include "spfe/multiserver.h"
#include "spfe/stats.h"
#include "spfe/two_phase.h"

int main() {
  using namespace spfe;
  using protocols::SelectionMethod;

  std::printf("== E6: private statistics (§4) on the census workload ==\n\n");
  crypto::Prg client_prg("e6-client"), server_prg("e6-server"), data_prg("e6-data");
  const he::PaillierPrivateKey client_sk = he::paillier_keygen(client_prg, 512);
  const he::PaillierPrivateKey server_sk = he::paillier_keygen(server_prg, 512);

  dbgen::CensusOptions options;
  options.num_records = 4096;
  options.max_salary = 100'000;
  const dbgen::CensusDatabase census = dbgen::generate_census(options, data_prg);
  const std::vector<std::uint64_t> salaries = census.private_column();
  const std::size_t n = salaries.size();

  std::printf("--- f = sum of m selected salaries: §4 weighted-sum vs generic (n = %zu) ---\n",
              n);
  bench::Table table({"m", "protocol", "rounds", "total comm", "wall ms", "ok"});
  for (const std::size_t m : {8u, 16u}) {
    const auto indices = census.select_sample(
        [](const dbgen::CensusRecord& r) { return r.zip_code < 30; }, m);
    std::uint64_t expect = 0;
    for (const std::size_t i : indices) expect += salaries[i];

    // Field big enough for the sum (and > n).
    const field::Fp64 field(
        field::smallest_prime_above(std::max<std::uint64_t>(n + 1, m * 100'001ull)));

    {  // §4 one-round weighted sum (unit weights).
      const protocols::WeightedSumProtocol proto(field, n, m, 2);
      net::StarNetwork net(1);
      bench::Stopwatch sw;
      const std::uint64_t got = proto.run(net, 0, salaries, indices,
                                          std::vector<std::uint64_t>(m, 1), client_sk,
                                          client_prg, server_prg);
      table.add({std::to_string(m), "§4 weighted-sum", bench::rounds_str(net.stats()),
                 bench::human_bytes(net.stats().total_bytes()), bench::fmt("%.0f", sw.ms()),
                 got == expect ? "yes" : "WRONG"});
    }
    for (const SelectionMethod method :
         {SelectionMethod::kPolyMaskClientKey, SelectionMethod::kEncryptedDb}) {
      const auto circuit = circuits::ArithCircuit::sum(m, field.modulus());
      net::StarNetwork net(1);
      bench::Stopwatch sw;
      const auto out =
          protocols::run_two_phase_arith(net, 0, salaries, indices, circuit, method, client_sk,
                                         server_sk, 2, client_prg, server_prg);
      table.add({std::to_string(m),
                 std::string("two-phase ") + protocols::selection_method_name(method),
                 bench::rounds_str(net.stats()), bench::human_bytes(net.stats().total_bytes()),
                 bench::fmt("%.0f", sw.ms()), out[0] == expect ? "yes" : "WRONG"});
    }
    {  // multi-server sum (§3.1 / §4 "efficiency of previous constructions").
      const field::Fp64 f61(field::Fp64::kMersenne61);
      const std::size_t k = protocols::MultiServerSumSpfe::min_servers(n, 1);
      const protocols::MultiServerSumSpfe proto(f61, n, m, k, 1);
      net::StarNetwork net(k);
      bench::Stopwatch sw;
      const std::uint64_t got =
          proto.run(net, salaries, indices, crypto::Prg::random_seed(), client_prg);
      table.add({std::to_string(m), "multi-server sum (k=" + std::to_string(k) + ")",
                 bench::rounds_str(net.stats()), bench::human_bytes(net.stats().total_bytes()),
                 bench::fmt("%.0f", sw.ms()), got == expect ? "yes" : "WRONG"});
    }
  }
  table.print();

  std::printf("\n--- §4 average + variance package vs two separate weighted sums ---\n");
  {
    constexpr std::size_t kM = 8;
    const auto indices = census.select_sample(
        [](const dbgen::CensusRecord& r) { return r.age_bracket >= 5; }, kM);
    const field::Fp64 field(field::smallest_prime_above(
        kM * 100'001ull * 100'001ull));
    bench::Table pkg({"protocol", "rounds", "total comm", "wall ms"});
    {
      const protocols::MeanVariancePackage proto(field, n, kM, 2);
      net::StarNetwork net(1);
      bench::Stopwatch sw;
      (void)proto.run(net, 0, salaries, indices, client_sk, client_prg, server_prg);
      pkg.add({"mean+variance package", bench::rounds_str(net.stats()),
               bench::human_bytes(net.stats().total_bytes()), bench::fmt("%.0f", sw.ms())});
    }
    {
      const protocols::WeightedSumProtocol proto(field, n, kM, 2);
      std::vector<std::uint64_t> squares(n);
      for (std::size_t i = 0; i < n; ++i) squares[i] = salaries[i] * salaries[i];
      net::StarNetwork net(1);
      bench::Stopwatch sw;
      (void)proto.run(net, 0, salaries, indices, std::vector<std::uint64_t>(kM, 1), client_sk,
                      client_prg, server_prg);
      (void)proto.run(net, 0, squares, indices, std::vector<std::uint64_t>(kM, 1), client_sk,
                      client_prg, server_prg);
      pkg.add({"2 x weighted-sum (sum, sum sq)", bench::rounds_str(net.stats()),
               bench::human_bytes(net.stats().total_bytes()), bench::fmt("%.0f", sw.ms())});
    }
    pkg.print();
  }

  std::printf("\n--- §4 frequency counting (keyword = age bracket) ---\n");
  {
    std::vector<std::uint64_t> brackets;
    brackets.reserve(n);
    for (const auto& r : census.records) brackets.push_back(r.age_bracket);
    const field::Fp64 field(field::smallest_prime_above(n + 16));
    bench::Table freq({"m", "selection", "rounds", "total comm", "wall ms", "ok"});
    for (const std::size_t m : {8u, 16u}) {
      const auto indices = census.select_sample(
          [](const dbgen::CensusRecord& r) { return r.zip_code % 2 == 0; }, m);
      std::size_t expect = 0;
      for (const std::size_t i : indices) expect += brackets[i] == 3 ? 1 : 0;
      for (const SelectionMethod method :
           {SelectionMethod::kPolyMaskClientKey, SelectionMethod::kEncryptedDb}) {
        const protocols::FrequencyProtocol proto(field, n, m, method, 2);
        net::StarNetwork net(1);
        bench::Stopwatch sw;
        const std::size_t got = proto.run(net, 0, brackets, indices, 3, client_sk, server_sk,
                                          client_prg, server_prg);
        freq.add({std::to_string(m), protocols::selection_method_name(method),
                  bench::rounds_str(net.stats()),
                  bench::human_bytes(net.stats().total_bytes()), bench::fmt("%.0f", sw.ms()),
                  got == expect ? "yes" : "WRONG"});
      }
    }
    freq.print();
  }
  std::printf("\nShape check: §4 weighted-sum wins on rounds (1.0) and communication vs the\n"
              "two-phase constructions; the package costs one weighted sum plus one\n"
              "ciphertext; frequency = selection rounds + 1.\n");
  return 0;
}

// Private salary survey — the paper's §1 motivating application.
//
// A market-research client wants the average and variance of salaries for a
// cohort selected by *public* attributes (zip code + age bracket), without
// revealing the cohort to the database owner, and without the owner
// revealing anything beyond the two paid-for statistics. Uses the §4
// mean+variance "package" (one round, one SPIR query answered once over
// items that carry both the salary and its square).
//
// Build & run:  ./examples/private_salary_survey
#include <cstdio>

#include "dbgen/census.h"
#include "field/fp64.h"
#include "he/paillier.h"
#include "net/network.h"
#include "spfe/stats.h"

int main() {
  using namespace spfe;

  // --- The server's census database -------------------------------------------
  crypto::Prg data_prg("census-2026");
  dbgen::CensusOptions options;
  options.num_records = 4096;
  options.num_zip_codes = 50;
  options.max_salary = 200'000;
  const dbgen::CensusDatabase census = dbgen::generate_census(options, data_prg);
  const std::vector<std::uint64_t> salaries = census.private_column();

  // --- The client's secret cohort: zip 17, age bracket >= 4 (40+) -------------
  constexpr std::size_t kSampleSize = 16;
  const auto cohort = census.select_sample(
      [](const dbgen::CensusRecord& r) { return r.zip_code == 17 && r.age_bracket >= 4; },
      kSampleSize);

  // Field must hold m * max_salary^2 (for the sum of squares).
  const field::Fp64 field(field::smallest_prime_above(
      kSampleSize * static_cast<std::uint64_t>(options.max_salary) * options.max_salary));

  crypto::Prg client_prg("survey-client");
  crypto::Prg server_prg("survey-server");
  const he::PaillierPrivateKey client_key = he::paillier_keygen(client_prg, 768);

  // --- One-round private mean + variance ---------------------------------------
  const protocols::MeanVariancePackage protocol(field, salaries.size(), kSampleSize,
                                           /*pir_depth=*/2);
  net::StarNetwork net(1);
  const protocols::MeanVarianceResult res =
      protocol.run(net, 0, salaries, cohort, client_key, client_prg, server_prg);

  // --- Plaintext cross-check ----------------------------------------------------
  double mean = 0, var = 0;
  for (const std::size_t i : cohort) mean += static_cast<double>(salaries[i]);
  mean /= kSampleSize;
  for (const std::size_t i : cohort) {
    const double d = static_cast<double>(salaries[i]) - mean;
    var += d * d;
  }
  var /= kSampleSize;

  std::printf("cohort                 : zip=17, age 40+, first %zu matches\n", kSampleSize);
  std::printf("private mean salary    : %.2f   (plaintext %.2f)\n", res.mean, mean);
  std::printf("private variance       : %.2f   (plaintext %.2f)\n", res.variance, var);
  std::printf("rounds                 : %.1f\n", net.stats().rounds());
  std::printf("total communication    : %llu bytes for %zu records\n",
              static_cast<unsigned long long>(net.stats().total_bytes()), salaries.size());
  std::printf("full-database transfer : %zu bytes (what 'buy the database' would cost)\n",
              salaries.size() * sizeof(std::uint32_t));

  const bool ok = res.mean == mean && res.variance >= 0;
  return ok ? 0 : 1;
}

// Failure drill: inject server outages into a closed-loop simulation (the
// §3 client model on sim/engine) and watch the quorum system route around
// them — the fault-tolerance argument for quorums over the singleton (§6's
// closing point), made concrete.
//
//   ./failure_drill [t]
#include <cstdlib>
#include <iomanip>
#include <iostream>
#include <vector>

#include "core/placement.hpp"
#include "net/synthetic.hpp"
#include "quorum/majority.hpp"
#include "quorum/singleton.hpp"
#include "sim/client_sites.hpp"
#include "sim/engine.hpp"

namespace {

void report(const char* label, const qp::sim::EngineResult& result) {
  std::cout << "  " << std::left << std::setw(26) << label << std::right
            << " completed " << std::setw(6) << result.completed
            << "  failed " << std::setw(4) << result.failed + result.abandoned
            << "  retries " << std::setw(5) << result.retries
            << "  avg response " << std::fixed << std::setprecision(1)
            << result.mean_response_ms << " ms\n";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace qp;
  const std::size_t t = argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 1;

  const net::LatencyMatrix matrix = net::planetlab50_synth();
  const quorum::MajorityQuorum system =
      quorum::make_majority(quorum::MajorityFamily::SimpleMajority, t);
  const auto placed = core::best_majority_placement(matrix, system);
  const std::vector<double> clients = sim::client_site_mask(
      matrix.size(), sim::representative_client_sites(matrix, system, placed.placement, 10));

  std::cout << "Drill: " << system.name() << " (tolerates t = " << t
            << " failures) on " << matrix.size() << " sites\n\n";

  // Immediate retries on a fresh uniformly random quorum: a timed-out
  // attempt re-draws from the balanced strategy with no backoff.
  sim::EngineConfig config;
  config.duration_ms = 8000.0;
  config.warmup_ms = 1000.0;
  config.closed_loop_clients = 2;
  config.retry.timeout_ms = 500.0;
  config.retry.max_attempts = 10;
  config.replications = 1;
  config.master_seed = 7;

  // Healthy baseline.
  report("healthy", sim::run_engine(matrix, system, placed.placement, clients, config));

  // Kill exactly t servers mid-run: the system must keep serving.
  config.outages.clear();
  for (std::size_t i = 0; i < t; ++i) {
    config.outages.push_back({placed.placement.site_of[i], 2000.0, 6000.0});
  }
  report("t servers down (4 s)",
         sim::run_engine(matrix, system, placed.placement, clients, config));

  // Kill t+1 servers: quorums of size t+1 out of 2t+1 can still form from
  // the t surviving servers... no — only t survive forming no quorum, so
  // requests issued in the outage stall until recovery.
  config.outages.clear();
  for (std::size_t i = 0; i < t + 1; ++i) {
    config.outages.push_back({placed.placement.site_of[i], 2000.0, 6000.0});
  }
  report("t+1 servers down (4 s)",
         sim::run_engine(matrix, system, placed.placement, clients, config));

  // The singleton under the same drill: one outage removes the service.
  const quorum::SingletonQuorum singleton;
  const core::Placement median = core::singleton_placement(matrix);
  const std::vector<double> single_clients = sim::client_site_mask(
      matrix.size(), sim::representative_client_sites(matrix, singleton, median, 10));
  config.outages = {{median.site_of[0], 2000.0, 6000.0}};
  report("singleton, its node down",
         sim::run_engine(matrix, singleton, median, single_clients, config));

  std::cout << "\nReading: with <= t failures the majority quorum system keeps its\n"
               "throughput (retries route around dead servers); the singleton loses\n"
               "the full outage window. That resilience is what the paper's Figure 6.3\n"
               "prices: a few ms of extra response time at small universe sizes.\n";
  return 0;
}

// Degraded-mode experiment: modeled times for Queries 2 and 5 on an
// 8-node cluster, fault-free versus three failure scenarios driven by the
// seeded fault injector:
//
//   transient  — disk read errors + torn pages at the configured rates,
//                healed by checksum-verified retries (modeled backoff);
//   recover    — one recoverable node crash at the first phase barrier
//                (detection timeout + the misses of the node's cold
//                pool; the restart itself reads nothing);
//   degraded   — one permanent node loss at query start: the dead node's
//                fragments are redeclustered over the survivors and the
//                query completes at N-1.
//
// Every run delivers the same rows; the table shows what each failure
// honestly costs in modeled seconds.

#include <cstdio>

#include "bench/bench_util.h"
#include "sim/fault_injector.h"

namespace {

using paradise::bench::BenchConfig;
using paradise::bench::LoadDb;
using paradise::bench::LoadedDb;
using paradise::bench::RunQuerySeconds;
using paradise::sim::FaultInjector;

constexpr int kNodes = 8;
constexpr int kCrashNode = 3;

enum class Scenario { kFaultFree, kTransient, kRecover, kDegraded };

double RunScenario(const BenchConfig& cfg, int query, Scenario s) {
  // Each scenario gets a fresh load: a permanent loss mutates the tables,
  // and even a recoverable crash leaves the pools cold.
  LoadedDb l = LoadDb(cfg, kNodes, /*scale=*/1);
  FaultInjector inj(cfg.seed);
  switch (s) {
    case Scenario::kFaultFree:
      return RunQuerySeconds(l.db.get(), query);
    case Scenario::kTransient:
      inj.set_transient_read_rate(0.02);
      inj.set_torn_read_rate(0.01);
      break;
    case Scenario::kRecover:
      inj.ScheduleCrash(/*barrier=*/1, kCrashNode, /*permanent=*/false);
      break;
    case Scenario::kDegraded:
      inj.ScheduleCrash(/*barrier=*/0, kCrashNode, /*permanent=*/true);
      break;
  }
  l.cluster->SetFaultInjector(&inj);
  double seconds = RunQuerySeconds(l.db.get(), query);
  l.cluster->SetFaultInjector(nullptr);
  return seconds;
}

}  // namespace

int main(int argc, char** argv) {
  BenchConfig cfg = BenchConfig::FromArgs(argc, argv);
  const int queries[2] = {2, 5};
  const Scenario scenarios[4] = {Scenario::kFaultFree, Scenario::kTransient,
                                 Scenario::kRecover, Scenario::kDegraded};
  double results[2][4];

  for (int q = 0; q < 2; ++q) {
    for (int s = 0; s < 4; ++s) {
      std::fprintf(stderr, "query %d scenario %d...\n", queries[q], s);
      results[q][s] = RunScenario(cfg, queries[q], scenarios[s]);
    }
  }

  std::printf(
      "== Degraded-mode execution (modeled seconds, %d nodes) ==\n"
      "   transient: 2%% disk errors + 1%% torn pages, retried\n"
      "   recover:   node %d crashes after phase 1, node restart\n"
      "   degraded:  node %d lost for good, fragments redeclustered,\n"
      "              query completes on %d survivors\n\n",
      kNodes, kCrashNode, kCrashNode, kNodes - 1);
  std::printf("%-10s %12s %12s %12s %12s\n", "query", "fault-free",
              "transient", "recover", "degraded");
  for (int q = 0; q < 2; ++q) {
    std::printf("Query %-4d %12.3f %12.3f %12.3f %12.3f\n", queries[q],
                results[q][0], results[q][1], results[q][2], results[q][3]);
  }
  std::printf("\noverhead vs fault-free (x):\n");
  for (int q = 0; q < 2; ++q) {
    std::printf("Query %-4d %12s %12.2f %12.2f %12.2f\n", queries[q], "1.00",
                results[q][1] / results[q][0], results[q][2] / results[q][0],
                results[q][3] / results[q][0]);
  }
  return 0;
}

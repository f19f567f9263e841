// Developer tool: run one benchmark query and print its phase breakdown.
#include <chrono>
#include <cstdio>
#include <cstring>
#include "bench/bench_util.h"

using namespace paradise;

int main(int argc, char** argv) {
  bench::BenchConfig cfg = bench::BenchConfig::FromArgs(argc, argv);
  int nodes = 4, scale = 1, query = 2;
  bool decluster = false;
  for (int i = 1; i < argc; ++i) {
    if (strncmp(argv[i], "--nodes=", 8) == 0) nodes = atoi(argv[i] + 8);
    if (strncmp(argv[i], "--scale=", 8) == 0) scale = atoi(argv[i] + 8);
    if (strncmp(argv[i], "--query=", 8) == 0) query = atoi(argv[i] + 8);
    if (strcmp(argv[i], "--decluster") == 0) decluster = true;
  }
  bench::LoadedDb l = bench::LoadDb(cfg, nodes, scale, decluster);
  auto wall_start = std::chrono::steady_clock::now();
  auto r = benchmark::RunQueryByNumber(l.db.get(), query);
  auto wall_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                     std::chrono::steady_clock::now() - wall_start)
                     .count();
  if (!r.ok()) {
    fprintf(stderr, "failed: %s\n", r.status().ToString().c_str());
    return 1;
  }
  printf("query %d on %d nodes (S=%d): %.4f s, %zu rows (wall %lld ms)\n",
         query, nodes, scale, r->seconds, r->rows.size(),
         static_cast<long long>(wall_ms));
  for (const auto& p : r->phases) {
    printf("  %-24s %s  contributes %.4f s (max-node %.4f, total-work %.4f)"
           "  wall %.3f ms\n",
           p.name.c_str(), p.sequential ? "[seq]" : "     ", p.seconds,
           p.max_node_seconds, p.total_node_seconds, p.wall_seconds * 1e3);
  }
  return 0;
}

// Churn/chaos harness: foreground query streams running *through* planned
// cluster membership changes, with the TopologyManager's throttled online
// tile migration pumped at every quiescent point. Three scenarios:
//
//   rolling-restart  drain -> remove -> reinstate every original node in
//                    turn while a query mix keeps running (zero failed
//                    queries, join answers bit-equal to the churn-free run)
//   flash-crowd      every node sheds its hottest tiles while a
//                    point/region-heavy mix hammers the cluster
//   scale-out        two nodes join mid-workload and the fair-share
//                    rebalance streams behind the foreground queries
//
// All latencies are modeled seconds (bit-identical at any PARADISE_THREADS;
// the digest line makes cross-thread-count comparison a one-line diff).
// The non-chaos run asserts that migration throttling keeps foreground p99
// within 2x the churn-free baseline.
//
// Chaos mode (--chaos) arms a fault injector with migration crashes
// (source/target, transient/permanent) on top of the same scenarios; the
// acceptance checks (no failed queries, exactly-once ownership, join
// equality) still hold because crashed moves roll back or degrade into a
// salvage migration. On failure the exact seed and a repro command are
// printed.
//
// Flags: --rounds=N       query-mix rounds per churn phase (default 2)
//        --threads=N      host threads (digest must not change; default 1)
//        --chaos          inject migration crashes
//        --two-layer      decluster the vector tables as kTwoLayer: stored
//                         like replicate-and-dedup, but joined with the
//                         dedup-free two-layer class plan
//        --fault-seed=N   chaos seed (default 1; nightly uses the date)
//        --json <path>    machine-readable report
//        plus the usual sizing flags of BenchConfig (--quick etc.)

#include <chrono>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "core/coordinator.h"
#include "core/table.h"
#include "core/topology.h"
#include "sim/fault_injector.h"

namespace {

using paradise::Status;
using paradise::bench::BenchConfig;
using paradise::bench::QueryPerfSample;
using paradise::core::Cluster;
using paradise::core::NodeTopologyState;
using paradise::core::ParallelTable;
using paradise::core::TopologyManager;
using paradise::core::WorkloadSession;

struct ChurnArgs {
  int rounds = 2;
  int threads = 1;
  bool chaos = false;
  bool two_layer = false;
  uint64_t fault_seed = 1;

  static ChurnArgs FromArgs(int argc, char** argv) {
    ChurnArgs a;
    for (int i = 1; i < argc; ++i) {
      const char* arg = argv[i];
      if (std::strncmp(arg, "--rounds=", 9) == 0) {
        a.rounds = std::atoi(arg + 9);
      } else if (std::strncmp(arg, "--threads=", 10) == 0) {
        a.threads = std::atoi(arg + 10);
      } else if (std::strcmp(arg, "--chaos") == 0) {
        a.chaos = true;
      } else if (std::strcmp(arg, "--two-layer") == 0) {
        a.two_layer = true;
      } else if (std::strncmp(arg, "--fault-seed=", 13) == 0) {
        a.fault_seed = static_cast<uint64_t>(std::atoll(arg + 13));
      }
    }
    return a;
  }
};

ChurnArgs g_args;

/// Failure = print the scenario, the seed, and the exact repro command.
void Check(bool ok, const char* scenario, const char* what) {
  if (ok) return;
  std::fprintf(stderr, "FAILED [%s]: %s\n", scenario, what);
  std::fprintf(stderr, "  fault seed: %llu\n",
               static_cast<unsigned long long>(g_args.fault_seed));
  std::fprintf(stderr, "  repro: ./bench/bench_churn%s%s --fault-seed=%llu\n",
               g_args.chaos ? " --chaos" : "",
               g_args.two_layer ? " --two-layer" : "",
               static_cast<unsigned long long>(g_args.fault_seed));
  std::exit(1);
}

struct ChurnDb {
  std::unique_ptr<Cluster> cluster;
  std::unique_ptr<paradise::benchmark::BenchmarkDatabase> db;
  std::unique_ptr<paradise::sim::FaultInjector> injector;
};

ChurnDb LoadChurnDb(const BenchConfig& cfg) {
  ChurnDb out;
  Cluster::Options copts;
  copts.buffer_pool_frames = 4096;
  out.cluster = std::make_unique<Cluster>(4, copts);
  out.cluster->SetNumThreads(g_args.threads);
  paradise::datagen::GlobalDataSet ds =
      paradise::datagen::GenerateGlobalDataSet(cfg.MakeOptions(1));
  paradise::benchmark::LoadOptions lopts;
  lopts.tile_bytes = cfg.tile_bytes;
  lopts.two_layer_vectors = g_args.two_layer;
  auto db = paradise::benchmark::BenchmarkDatabase::Load(out.cluster.get(),
                                                         ds, lopts);
  if (!db.ok()) {
    std::fprintf(stderr, "load failed: %s\n", db.status().ToString().c_str());
    std::exit(1);
  }
  out.db = std::move(*db);
  if (g_args.chaos) {
    // Loaded (bulk, unlogged) data must be durable before any crash.
    out.cluster->ResetForQuery();
    out.injector =
        std::make_unique<paradise::sim::FaultInjector>(g_args.fault_seed);
    out.injector->set_migration_crash_rate(0.02);
    out.cluster->SetFaultInjector(out.injector.get());
  }
  return out;
}

uint64_t HashRows(const paradise::exec::TupleVec& rows) {
  std::vector<std::string> rendered;
  rendered.reserve(rows.size());
  for (const paradise::exec::Tuple& t : rows) {
    std::string s;
    for (const paradise::exec::Value& v : t.values) {
      s += v.type() == paradise::exec::ValueType::kRaster ? "raster"
                                                          : v.ToString();
      s += "|";
    }
    rendered.push_back(std::move(s));
  }
  std::sort(rendered.begin(), rendered.end());
  uint64_t h = 1469598103934665603ull;
  for (const std::string& s : rendered) {
    for (char c : s) h = (h ^ static_cast<uint8_t>(c)) * 1099511628211ull;
    h = (h ^ 0xffu) * 1099511628211ull;
  }
  return h;
}

/// Single-stream foreground driver: admit / run / finish, with the
/// migration pump advanced to the query's completion time at every
/// quiescent gap — exactly where a production system would steal idle
/// bandwidth for rebalancing.
struct ChurnDriver {
  ChurnDb* loaded;
  TopologyManager* topo;
  WorkloadSession session;
  double now = 0.0;
  int failed_queries = 0;
  std::vector<double> latencies;

  static WorkloadSession::Options MakeOptions() {
    WorkloadSession::Options o;
    o.num_streams = 1;
    return o;
  }

  explicit ChurnDriver(ChurnDb* l)
      : loaded(l),
        topo(l->cluster->topology()),
        session(l->cluster.get(), MakeOptions()) {
    loaded->cluster->set_workload_session(&session);
    session.BindStream(0);
  }
  ~ChurnDriver() {
    session.EndStream();
    loaded->cluster->set_workload_session(nullptr);
  }

  void RunOne(int query) {
    WorkloadSession::Ticket* t = session.AwaitAdmission(now);
    auto r = paradise::benchmark::RunQueryByNumber(loaded->db.get(), query);
    if (!r.ok()) {
      std::fprintf(stderr, "query %d failed: %s\n", query,
                   r.status().ToString().c_str());
      ++failed_queries;
      session.FinishQuery(0.0);
      return;
    }
    now = t->admit_seconds + r->seconds;
    latencies.push_back(now - t->submit_seconds);
    session.FinishQuery(r->seconds);
    // Quiescent gap after completion: pump the throttled migration
    // streams up to the current modeled instant.
    Status s = topo->PumpMigration(now);
    if (!s.ok()) {
      std::fprintf(stderr, "pump failed: %s\n", s.ToString().c_str());
      std::exit(1);
    }
  }

  void RunMixRounds(const std::vector<int>& mix, int rounds) {
    for (int i = 0; i < rounds; ++i) {
      for (int q : mix) RunOne(q);
    }
  }

  /// Runs foreground rounds until migration drains (bounded), then forces
  /// the remainder through at full bandwidth.
  void RunUntilIdle(const std::vector<int>& mix) {
    for (int guard = 0; guard < 1000 && !topo->migration_idle(); ++guard) {
      RunMixRounds(mix, 1);
    }
    Status s = topo->DrainMigration(now);
    if (!s.ok()) {
      std::fprintf(stderr, "drain failed: %s\n", s.ToString().c_str());
      std::exit(1);
    }
  }

  double P99() const {
    if (latencies.empty()) return 0.0;
    std::vector<double> v = latencies;
    std::sort(v.begin(), v.end());
    size_t rank = static_cast<size_t>(0.99 * static_cast<double>(v.size()));
    if (rank >= v.size()) rank = v.size() - 1;
    return v[rank];
  }
};

void ValidateAll(ChurnDb* loaded, const char* scenario) {
  ParallelTable* tables[] = {&loaded->db->places(), &loaded->db->roads(),
                             &loaded->db->drainage(),
                             &loaded->db->land_cover(), &loaded->db->raster()};
  for (ParallelTable* t : tables) {
    Status s = t->ValidateOwnership(loaded->cluster.get());
    if (!s.ok()) {
      std::fprintf(stderr, "[%s] %s: %s\n", scenario, t->def().name.c_str(),
                   s.ToString().c_str());
      Check(false, scenario, "exactly-once ownership audit failed");
    }
  }
}

uint64_t JoinFingerprint(ChurnDb* loaded, const char* scenario) {
  auto r = paradise::benchmark::RunQueryByNumber(loaded->db.get(), 13);
  Check(r.ok(), scenario, "join query failed");
  return HashRows(r->rows);
}

struct ScenarioResult {
  double p99 = 0.0;
  double wall_seconds = 0.0;
  int64_t migration_bytes = 0;
  int64_t tiles_moved = 0;
  int64_t crashes = 0;
};

uint64_t MixDigest(const ChurnDriver& d) {
  uint64_t h = 1469598103934665603ull;
  for (double lat : d.latencies) {
    uint64_t bits;
    std::memcpy(&bits, &lat, sizeof(bits));
    for (int i = 0; i < 8; ++i) {
      h = (h ^ ((bits >> (8 * i)) & 0xffu)) * 1099511628211ull;
    }
  }
  return h;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path = paradise::bench::ExtractJsonPathArg(&argc, argv);
  g_args = ChurnArgs::FromArgs(argc, argv);
  BenchConfig cfg = BenchConfig::FromArgs(argc, argv);
  // Churn sizing: small enough that a full rolling restart runs in
  // seconds, large enough that every tile move actually ships rows.
  bool fraction_given = false, dates_given = false, raster_given = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--fraction=", 11) == 0) fraction_given = true;
    if (std::strncmp(argv[i], "--dates=", 8) == 0) dates_given = true;
    if (std::strncmp(argv[i], "--raster=", 9) == 0) raster_given = true;
  }
  if (!fraction_given) cfg.fraction = 1.0 / 256;
  if (!dates_given) cfg.dates = 24;
  if (!raster_given) cfg.raster_size = 128;

  const std::vector<int> mix = {5, 13, 7};
  std::printf(
      "churn harness: 4 nodes, %d rounds/phase, threads=%d, chaos=%s, "
      "decluster=%s, fault seed %llu\n",
      g_args.rounds, g_args.threads, g_args.chaos ? "on" : "off",
      g_args.two_layer ? "two-layer" : "replicate",
      static_cast<unsigned long long>(g_args.fault_seed));

  std::vector<QueryPerfSample> samples;
  uint64_t digest = 1469598103934665603ull;
  auto fold = [&digest](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      digest = (digest ^ ((v >> (8 * i)) & 0xffu)) * 1099511628211ull;
    }
  };

  // ---- Churn-free baseline ------------------------------------------------
  double baseline_p99 = 0.0;
  uint64_t join_fp = 0;
  {
    ChurnDb loaded = LoadChurnDb(cfg);
    join_fp = JoinFingerprint(&loaded, "baseline");
    auto t0 = std::chrono::steady_clock::now();
    {
      ChurnDriver d(&loaded);
      d.RunMixRounds(mix, 4 * g_args.rounds);
      Check(d.failed_queries == 0, "baseline", "queries failed");
      baseline_p99 = d.P99();
      fold(MixDigest(d));
    }
    double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    std::printf("%-16s p99 %10.4fs  join %016llx\n", "baseline",
                baseline_p99, static_cast<unsigned long long>(join_fp));
    samples.push_back({"baseline_p99", wall, baseline_p99});
  }

  // ---- Scenario 1: rolling restart ---------------------------------------
  ScenarioResult rolling;
  {
    ChurnDb loaded = LoadChurnDb(cfg);
    TopologyManager* topo = loaded.cluster->topology();
    Check(JoinFingerprint(&loaded, "rolling-restart") == join_fp,
          "rolling-restart", "pre-churn join fingerprint drifted");
    auto t0 = std::chrono::steady_clock::now();
    {
      ChurnDriver d(&loaded);
      for (int n = 0; n < 4; ++n) {
        if (topo->node_state(n) != NodeTopologyState::kActive) {
          continue;  // chaos killed it already; salvage re-homed its data
        }
        int actives = 0;
        for (int i = 0; i < loaded.cluster->num_nodes(); ++i) {
          if (topo->node_state(i) == NodeTopologyState::kActive) ++actives;
        }
        if (actives <= 1) break;  // chaos shrank the cluster to one node
        topo->DrainNode(n);
        d.RunUntilIdle(mix);
        if (topo->node_state(n) == NodeTopologyState::kDraining) {
          topo->RemoveNode(n);
          d.RunMixRounds(mix, g_args.rounds);  // degraded interval
        }
        if (topo->node_state(n) == NodeTopologyState::kRemoved) {
          topo->ReinstateNode(n);
          d.RunUntilIdle(mix);
        }
      }
      Check(d.failed_queries == 0, "rolling-restart",
            "foreground queries failed during restart");
      rolling.p99 = d.P99();
      fold(MixDigest(d));
    }
    rolling.wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    rolling.migration_bytes = topo->stats().migration_bytes;
    rolling.tiles_moved = topo->stats().tiles_moved;
    if (loaded.injector != nullptr) {
      rolling.crashes = loaded.injector->stats().migration_crashes;
    }
    ValidateAll(&loaded, "rolling-restart");
    Check(JoinFingerprint(&loaded, "rolling-restart") == join_fp,
          "rolling-restart", "join pairs lost or duplicated");
    if (!g_args.chaos) {
      Check(rolling.p99 <= 2.0 * baseline_p99, "rolling-restart",
            "throttled migration inflated foreground p99 beyond 2x");
    }
    loaded.cluster->SetFaultInjector(nullptr);
    std::printf(
        "%-16s p99 %10.4fs  tiles %5lld  %8.2f MB shipped  crashes %lld\n",
        "rolling-restart", rolling.p99,
        static_cast<long long>(rolling.tiles_moved),
        static_cast<double>(rolling.migration_bytes) / (1024.0 * 1024.0),
        static_cast<long long>(rolling.crashes));
    samples.push_back(
        {"rolling_restart_p99", rolling.wall_seconds, rolling.p99});
  }

  // ---- Scenario 2: flash crowd with hot-tile shedding ---------------------
  ScenarioResult flash;
  {
    ChurnDb loaded = LoadChurnDb(cfg);
    TopologyManager* topo = loaded.cluster->topology();
    auto t0 = std::chrono::steady_clock::now();
    {
      ChurnDriver d(&loaded);
      d.RunMixRounds(mix, g_args.rounds);  // warm the hot-tile statistics
      for (int n = 0; n < 4; ++n) {
        if (topo->node_state(n) == NodeTopologyState::kActive) {
          topo->ShedHotTiles(n, 4);
        }
      }
      d.RunUntilIdle(mix);
      d.RunMixRounds(mix, g_args.rounds);
      Check(d.failed_queries == 0, "flash-crowd", "queries failed");
      flash.p99 = d.P99();
      fold(MixDigest(d));
    }
    flash.wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    flash.migration_bytes = topo->stats().migration_bytes;
    flash.tiles_moved = topo->stats().tiles_moved;
    if (loaded.injector != nullptr) {
      flash.crashes = loaded.injector->stats().migration_crashes;
    }
    ValidateAll(&loaded, "flash-crowd");
    Check(JoinFingerprint(&loaded, "flash-crowd") == join_fp, "flash-crowd",
          "join pairs lost or duplicated");
    loaded.cluster->SetFaultInjector(nullptr);
    std::printf(
        "%-16s p99 %10.4fs  tiles %5lld  %8.2f MB shipped  crashes %lld\n",
        "flash-crowd", flash.p99, static_cast<long long>(flash.tiles_moved),
        static_cast<double>(flash.migration_bytes) / (1024.0 * 1024.0),
        static_cast<long long>(flash.crashes));
    samples.push_back({"flash_crowd_p99", flash.wall_seconds, flash.p99});
  }

  // ---- Scenario 3: scale-out 4 -> 6 mid-workload --------------------------
  ScenarioResult scaleout;
  {
    ChurnDb loaded = LoadChurnDb(cfg);
    TopologyManager* topo = loaded.cluster->topology();
    auto t0 = std::chrono::steady_clock::now();
    {
      ChurnDriver d(&loaded);
      d.RunMixRounds(mix, g_args.rounds);
      topo->AddNode();
      topo->AddNode();
      d.RunUntilIdle(mix);
      d.RunMixRounds(mix, g_args.rounds);
      Check(d.failed_queries == 0, "scale-out", "queries failed");
      scaleout.p99 = d.P99();
      fold(MixDigest(d));
    }
    scaleout.wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    scaleout.migration_bytes = topo->stats().migration_bytes;
    scaleout.tiles_moved = topo->stats().tiles_moved;
    if (loaded.injector != nullptr) {
      scaleout.crashes = loaded.injector->stats().migration_crashes;
    }
    ValidateAll(&loaded, "scale-out");
    Check(JoinFingerprint(&loaded, "scale-out") == join_fp, "scale-out",
          "join pairs lost or duplicated");
    loaded.cluster->SetFaultInjector(nullptr);
    std::printf(
        "%-16s p99 %10.4fs  tiles %5lld  %8.2f MB shipped  crashes %lld\n",
        "scale-out", scaleout.p99,
        static_cast<long long>(scaleout.tiles_moved),
        static_cast<double>(scaleout.migration_bytes) / (1024.0 * 1024.0),
        static_cast<long long>(scaleout.crashes));
    samples.push_back({"scaleout_p99", scaleout.wall_seconds, scaleout.p99});
  }

  std::printf("digest %016llx\n", static_cast<unsigned long long>(digest));
  std::printf("churn harness PASSED\n");

  if (!json_path.empty()) {
    samples.push_back({"migration_mb", 0.0,
                       static_cast<double>(rolling.migration_bytes +
                                           flash.migration_bytes +
                                           scaleout.migration_bytes) /
                           (1024.0 * 1024.0)});
    paradise::bench::WriteBenchJson(json_path, "bench_churn", samples);
    std::printf("wrote %s\n", json_path.c_str());
  }
  return 0;
}

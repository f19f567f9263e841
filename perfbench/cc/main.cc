// End-to-end benchmark program. One process, one closed-loop client with no
// think time, a simulated 4-node cluster at S=1 and the default ~1/64 data
// scale. Usage:
//
//   paradise_perfbench --workload=<name> --seed=<n> --seconds=<s>
//                      --trace=<0|1> [--trace-out=<path>]
//
// The worker pool has PARADISE_THREADS threads when that is set, else
// min(nproc, 4).
//
// Workloads: interactive_select, paper_raster, paper_vector, two_layer_join.
// Prints an environment/size block, then one JSON line (the last line of
// stdout) with the metrics, the request count, the failures and the
// reference pass's per-request records. With --trace=0 the metrics are the
// end-to-end ones; with --trace=1 the run alternates untraced and traced
// passes and reports per-layer metrics computed from the spans recorded
// around the benchmark's own calls into each module, plus replays of the
// join kernel, codec and index layers on the same inputs.

#include <algorithm>
#include <bit>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench.h"
#include "codec/lzw.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/coordinator.h"
#include "datagen/datagen.h"
#include "exec/join_kernel.h"
#include "exec/spatial_join.h"
#include "index/r_star_tree.h"
#include "opt/partition_tuner.h"
#include "sql/engine.h"
#include "trace.h"

namespace perfbench {
namespace {

using paradise::Status;
using paradise::StatusOr;
using paradise::benchmark::BenchmarkDatabase;
using paradise::benchmark::QueryResult;
using paradise::exec::TupleVec;
using Clock = std::chrono::steady_clock;

namespace core = paradise::core;
namespace exec = paradise::exec;
namespace col = paradise::datagen::col;

constexpr int kNodes = 4;
/// Generator seed of the data set every workload loads (the table
/// benchmarks' default); the workload seed only reorders it.
constexpr uint64_t kDataSeed = 42;
constexpr int kScale = 1;
constexpr size_t kTileBytes = 2048;  // as the table benchmarks load rasters
constexpr int kStatementsPerPass = 1000;
/// Set-ups per run; setup_s is their median.
constexpr int kSetups = 3;
/// interactive_select's per-node pool: below the vector tables' per-node
/// footprint, so statements evict one another's pages.
constexpr size_t kSmallPoolFrames = (1 << 20) / paradise::storage::kPageSize;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Sum(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return s;
}

/// Peak resident set of this process, from /proc/self/status.
double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

enum class Workload { kInteractive, kPaperRaster, kPaperVector, kTwoLayer };

struct Args {
  std::string workload_name;
  Workload workload = Workload::kPaperVector;
  uint64_t seed = 42;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value = [&](const char* key) -> const char* {
      size_t n = std::strlen(key);
      return arg.compare(0, n, key) == 0 ? argv[i] + n : nullptr;
    };
    if (const char* v = value("--workload=")) {
      a->workload_name = v;
    } else if (const char* v = value("--seed=")) {
      a->seed = std::strtoull(v, nullptr, 10);
    } else if (const char* v = value("--seconds=")) {
      a->seconds = std::atof(v);
    } else if (const char* v = value("--trace=")) {
      a->trace = std::atoi(v) != 0;
    } else if (const char* v = value("--trace-out=")) {
      a->trace_out = v;
    } else {
      std::fprintf(stderr, "unknown argument %s\n", argv[i]);
      return false;
    }
  }
  static const std::map<std::string, Workload> kNames = {
      {"interactive_select", Workload::kInteractive},
      {"paper_raster", Workload::kPaperRaster},
      {"paper_vector", Workload::kPaperVector},
      {"two_layer_join", Workload::kTwoLayer}};
  auto it = kNames.find(a->workload_name);
  if (it == kNames.end()) {
    std::fprintf(stderr, "unknown workload '%s'\n", a->workload_name.c_str());
    return false;
  }
  a->workload = it->second;
  return a->seconds > 0;
}

/// What the correctness checks compare for one executed query.
struct Record {
  std::string name;
  std::string error;  // the query's error status; empty if it succeeded
  int64_t rows = 0;
  uint64_t fingerprint = 0;
  double modeled = 0.0;

  bool SameAs(const Record& o) const {
    return name == o.name && rows == o.rows && fingerprint == o.fingerprint &&
           std::bit_cast<uint64_t>(modeled) == std::bit_cast<uint64_t>(o.modeled);
  }
};

/// Model-side shape of one query (deterministic per seed).
struct QueryShape {
  int64_t phases = 0;
  double max_node_s = 0.0;   // summed over parallel phases
  double mean_node_s = 0.0;  // summed over parallel phases
  exec::PbsmJoinStats pbsm;
};

struct Request {
  double wall_ms = 0.0;
  std::vector<Record> records;
  std::vector<QueryShape> shapes;
  paradise::storage::BufferPool::Stats pool;  // delta over the request
  int64_t tiles_read = 0;
  int64_t bytes_pulled = 0;
  int64_t trace_id = 0;  // span request id (traced passes)
};

paradise::storage::BufferPool::Stats PoolStats(core::Cluster* cluster) {
  paradise::storage::BufferPool::Stats total;
  for (int n = 0; n < cluster->num_nodes(); ++n) {
    total.Add(cluster->node(n).pool()->stats());
  }
  return total;
}

paradise::storage::BufferPool::Stats Delta(
    const paradise::storage::BufferPool::Stats& after,
    const paradise::storage::BufferPool::Stats& before) {
  paradise::storage::BufferPool::Stats d;
  d.hits = after.hits - before.hits;
  d.misses = after.misses - before.misses;
  d.evictions = after.evictions - before.evictions;
  d.readahead_pages = after.readahead_pages - before.readahead_pages;
  d.writeback_pages = after.writeback_pages - before.writeback_pages;
  return d;
}

class Bench {
 public:
  Bench(const Args& args, const paradise::datagen::GlobalDataSet& ds,
        int threads)
      : args_(args), ds_(ds), threads_(threads) {
    switch (args.workload) {
      case Workload::kPaperRaster: queries_ = {2, 3, 4, 9, 10, 14}; break;
      case Workload::kPaperVector: queries_ = {5, 6, 7, 8, 11, 12, 13}; break;
      default: break;
    }
    if (args.workload == Workload::kInteractive) {
      statements_ = GenerateStatements(ds, args.seed, kStatementsPerPass);
    }
  }

  /// Query 1 plus warm-up, kSetups times from scratch; the last database
  /// stays loaded. Returns false if a load fails.
  bool Setup() {
    for (int i = 0; i < kSetups; ++i) {
      db_.reset();
      cluster_.reset();
      core::Cluster::Options copts;
      if (args_.workload == Workload::kInteractive) {
        copts.buffer_pool_frames = kSmallPoolFrames;
      }
      Clock::time_point t0 = Clock::now();
      cluster_ = std::make_unique<core::Cluster>(kNodes, copts);
      cluster_->SetNumThreads(threads_);
      paradise::benchmark::LoadOptions lopts;
      lopts.tile_bytes = kTileBytes;
      lopts.two_layer_vectors = args_.workload == Workload::kTwoLayer;
      auto db = BenchmarkDatabase::Load(cluster_.get(), ds_, lopts);
      if (!db.ok()) {
        std::fprintf(stderr, "load failed: %s\n", db.status().ToString().c_str());
        return false;
      }
      db_ = std::move(*db);
      query1_s_.push_back(SecondsSince(t0));
      Clock::time_point r0 = Clock::now();
      cluster_->ResetForQuery();
      first_reset_ms_.push_back(SecondsSince(r0) * 1e3);
      if (args_.workload == Workload::kInteractive) {
        engine_ = std::make_unique<paradise::sql::SqlEngine>();
        engine_->Register(&db_->places());
        engine_->Register(&db_->roads());
        engine_->Register(&db_->drainage());
        engine_->Register(&db_->land_cover());
      }
      // Warm-up: one full pass, so lazy set-up lands here and not in the
      // first timed request.
      warmup_ = RunPass(false);
      setup_s_.push_back(SecondsSince(t0));
    }
    return true;
  }

  /// One pass over the workload's request list.
  std::vector<Request> RunPass(bool traced) {
    std::vector<Request> out;
    if (args_.workload == Workload::kInteractive) {
      RunStatements(traced, &out);
      return out;
    }
    Request req;
    BeginRequest(traced, &req);
    std::vector<std::pair<std::string, StatusOr<QueryResult>>> results;
    Clock::time_point t0 = Clock::now();
    {
      Span span("request");
      if (args_.workload == Workload::kTwoLayer) {
        results.emplace_back(
            "join", RunDrainageRoadsJoin(db_.get(), traced, &join_inputs_));
      } else {
        for (int q : queries_) {
          results.emplace_back(
              "Q" + std::to_string(q),
              traced ? RunDecomposedQuery(db_.get(), q, &counters_, &join_inputs_)
                     : paradise::benchmark::RunQueryByNumber(db_.get(), q));
        }
      }
    }
    req.wall_ms = SecondsSince(t0) * 1e3;
    EndRequest(traced, &req);
    for (auto& [name, r] : results) Collect(name, r, &req);
    out.push_back(std::move(req));
    return out;
  }

  /// The first timed pass: every later pass, traced or not, must repeat
  /// its records exactly.
  void SetReference(const std::vector<Request>& pass) { reference_ = pass; }

  /// Compares a pass with the reference pass; returns one message per
  /// failing record (an error, or a result that differs) and one per
  /// missing or extra record. The warm-up pass is compared without modeled
  /// seconds: the simulated disk heads start it where the load left them,
  /// not where a pass leaves them, which can cost it one extra seek.
  std::vector<std::string> Check(const std::vector<Request>& pass,
                                 const char* what,
                                 bool compare_modeled = true) const {
    std::vector<std::string> bad;
    std::vector<const Record*> got, want;
    for (const Request& r : pass) {
      for (const Record& rec : r.records) got.push_back(&rec);
    }
    for (const Request& r : reference_) {
      for (const Record& rec : r.records) want.push_back(&rec);
    }
    for (size_t i = std::min(got.size(), want.size());
         i < std::max(got.size(), want.size()); ++i) {
      bad.push_back(std::string(what) + ": record count differs");
    }
    for (size_t i = 0; i < std::min(got.size(), want.size()); ++i) {
      if (!got[i]->error.empty()) {
        bad.push_back(std::string(what) + ": " + got[i]->name + ": " +
                      got[i]->error);
        continue;
      }
      Record g = *got[i];
      if (!compare_modeled) g.modeled = want[i]->modeled;
      if (!g.SameAs(*want[i])) {
        char buf[256];
        std::snprintf(buf, sizeof(buf),
                      "%s: %s differs (rows %" PRId64 " vs %" PRId64
                      ", modeled %.17g vs %.17g)",
                      what, got[i]->name.c_str(), got[i]->rows, want[i]->rows,
                      got[i]->modeled, want[i]->modeled);
        bad.push_back(buf);
      }
    }
    return bad;
  }

  core::Cluster* cluster() { return cluster_.get(); }
  BenchmarkDatabase* db() { return db_.get(); }
  const std::vector<Request>& warmup() const { return warmup_; }
  const std::vector<Request>& reference() const { return reference_; }
  const std::vector<Statement>& statements() const { return statements_; }
  /// The last traced pass's partition-join inputs (empty if none ran).
  const JoinInputs& join_inputs() const { return join_inputs_; }
  const std::vector<double>& setup_s() const { return setup_s_; }
  const std::vector<double>& query1_s() const { return query1_s_; }
  const std::vector<double>& first_reset_ms() const { return first_reset_ms_; }
  /// Region statements the optimizer planned as sequential scans, and
  /// region statements (from the traced passes' Explain output).
  int64_t seqscan_regions() const { return seqscan_regions_; }
  int64_t traced_regions() const { return traced_regions_; }

 private:
  void BeginRequest(bool traced, Request* req) {
    if (!traced) return;
    req->trace_id = ++next_trace_id_;
    Tracer::Get().set_request(req->trace_id);
    pool_before_ = PoolStats(cluster_.get());
    counters_.tiles_read = 0;
    counters_.bytes_pulled = 0;
  }

  void EndRequest(bool traced, Request* req) {
    if (!traced) return;
    req->pool = Delta(PoolStats(cluster_.get()), pool_before_);
    req->tiles_read = counters_.tiles_read.load();
    req->bytes_pulled = counters_.bytes_pulled.load();
    Tracer& t = Tracer::Get();
    t.Count("storage.pool_misses", static_cast<double>(req->pool.misses));
    t.Count("storage.readahead_pages",
            static_cast<double>(req->pool.readahead_pages));
    t.Count("array.tiles_read", static_cast<double>(req->tiles_read));
  }

  /// Fingerprints one query's result into the request's records (outside
  /// the timed interval).
  void Collect(const std::string& name, const StatusOr<QueryResult>& r,
               Request* req) {
    Record rec;
    rec.name = name;
    QueryShape shape;
    if (!r.ok()) {
      rec.error = r.status().ToString();
    } else {
      rec.rows = static_cast<int64_t>(r->rows.size());
      rec.fingerprint = Fingerprint(r->rows);
      rec.modeled = r->seconds;
      shape.phases = static_cast<int64_t>(r->phases.size());
      for (const core::QueryCoordinator::PhaseReport& p : r->phases) {
        if (p.sequential) continue;
        shape.max_node_s += p.max_node_seconds;
        shape.mean_node_s += p.total_node_seconds / kNodes;
      }
      shape.pbsm = r->pbsm;
    }
    req->records.push_back(std::move(rec));
    req->shapes.push_back(shape);
  }

  /// interactive_select pass: a cold reset, then every statement through
  /// SqlEngine::Execute on one bound WorkloadSession stream (result cache
  /// off, so every statement executes and pools stay warm in between).
  void RunStatements(bool traced, std::vector<Request>* out) {
    core::Cluster* cluster = cluster_.get();
    cluster->ResetForQuery();
    core::WorkloadSession::Options sopts;
    sopts.num_streams = 1;
    sopts.result_cache = false;
    core::WorkloadSession session(cluster, sopts);
    cluster->set_workload_session(&session);
    session.BindStream(0);
    double now = 0.0;
    for (size_t i = 0; i < statements_.size(); ++i) {
      const Statement& st = statements_[i];
      Request req;
      BeginRequest(traced, &req);
      if (traced) {
        // Parse, bind and optimize once more, outside the timed request.
        Span span("sql.plan");
        StatusOr<std::string> plan = engine_->Explain(st.sql);
        if (plan.ok() && st.is_region()) {
          ++traced_regions_;
          if (plan->find("sequential scan") != std::string::npos) {
            ++seqscan_regions_;
          }
        }
      }
      StatusOr<QueryResult> result = Status::OK();
      Clock::time_point t0 = Clock::now();
      {
        Span span("request");
        core::WorkloadSession::Ticket* ticket = session.AwaitAdmission(now);
        core::QueryCoordinator coord(cluster);
        StatusOr<TupleVec> rows = engine_->Execute(st.sql, &coord);
        const double secs = coord.query_seconds();
        now = ticket->admit_seconds + secs;
        session.FinishQuery(secs);
        if (rows.ok()) {
          QueryResult r;
          r.rows = std::move(*rows);
          r.seconds = secs;
          r.phases = coord.phases();
          r.pbsm = coord.pbsm_stats();
          result = std::move(r);
        } else {
          result = rows.status();
        }
        coord.EndQuery();
      }
      req.wall_ms = SecondsSince(t0) * 1e3;
      EndRequest(traced, &req);
      Collect("stmt" + std::to_string(i), result, &req);
      out->push_back(std::move(req));
    }
    session.EndStream();
    cluster->set_workload_session(nullptr);
  }

  const Args& args_;
  const paradise::datagen::GlobalDataSet& ds_;
  const int threads_;
  std::vector<int> queries_;
  std::vector<Statement> statements_;
  std::unique_ptr<core::Cluster> cluster_;
  std::unique_ptr<BenchmarkDatabase> db_;
  std::unique_ptr<paradise::sql::SqlEngine> engine_;
  std::vector<Request> warmup_, reference_;
  std::vector<double> setup_s_, query1_s_, first_reset_ms_;
  TileCounters counters_;
  JoinInputs join_inputs_;
  paradise::storage::BufferPool::Stats pool_before_;
  int64_t next_trace_id_ = 0;
  int64_t seqscan_regions_ = 0;
  int64_t traced_regions_ = 0;
};

/// The highest percentile with at least ten samples beyond it (nearest
/// rank): with n samples sorted ascending, the value at rank n-10.
struct Tail {
  double value = 0.0;
  double percentile = 0.0;
  size_t samples = 0;
};
Tail TailOf(std::vector<double> v) {
  Tail t;
  t.samples = v.size();
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  const size_t rank = n > 10 ? n - 10 : n;  // 1-based; the maximum if n <= 10
  t.value = v[rank - 1];
  t.percentile = 100.0 * static_cast<double>(rank) / static_cast<double>(n);
  return t;
}

// ---------------------------------------------------------------------------
// Replays: module calls on the run's inputs, outside any query's accounting
// (no clock is charged and no stored state is touched).

struct KernelReplay {
  double join_local_ms = 0, mbr_ms = 0, argsort_ms = 0, sweep_ms = 0,
         exact_ms = 0;
  int64_t local_rows = 0, kernel_rows = 0;
};

/// Replays the local phase of the traced pass's partition join, node by
/// node and serially, on the per-node inputs the phase received: the
/// PbsmSpatialJoin call with ParallelSpatialJoin's default options and its
/// reference-point filter (legacy), or the TwoLayerSpatialJoin call over
/// the node's owned tiles with the same task packing (two-layer). Then the
/// join_kernel.h stages one by one over each node's inputs, as one
/// unpartitioned sweep per node. `grid` is the join's routing grid. Times
/// are summed over nodes, medians of `reps` repetitions; both row counts
/// are the pairs the nodes keep, which must add up to the query's rows.
KernelReplay ReplayJoinKernel(const JoinInputs& in,
                              const core::SpatialGrid& grid, bool two_layer,
                              int reps) {
  namespace jk = exec::join_kernel;
  const size_t c = col::kLineShape;
  exec::ExecContext ctx;  // no clock, no pool: serial wall time only
  size_t left_width = 0;
  for (const TupleVec& v : in.left) {
    if (!v.empty()) left_width = v[0].size();
  }
  // ParallelSpatialJoin's cross-node filter: node n keeps a pair only if
  // the reference point of the two MBRs' intersection lies in its tiles.
  auto keep = [&](const paradise::exec::Tuple& t, int n) {
    const paradise::geom::Box lb = t.at(c).Mbr();
    const paradise::geom::Box rb = t.at(left_width + c).Mbr();
    return grid.NodeOfPoint(grid.ClampToUniverse(paradise::geom::Point{
               std::max(lb.xmin, rb.xmin), std::max(lb.ymin, rb.ymin)})) ==
           static_cast<uint32_t>(n);
  };
  std::vector<double> local, mbr, argsort, sweep, exact;
  KernelReplay out;
  for (int rep = 0; rep < reps; ++rep) {
    double local_ms = 0, mbr_ms = 0, argsort_ms = 0, sweep_ms = 0, exact_ms = 0;
    int64_t local_rows = 0, kernel_rows = 0;
    bool ok = true;
    for (int n = 0; n < static_cast<int>(in.left.size()); ++n) {
      const TupleVec& left = in.left[static_cast<size_t>(n)];
      const TupleVec& right = in.right[static_cast<size_t>(n)];
      Clock::time_point t0 = Clock::now();
      if (two_layer) {
        std::vector<uint8_t> owned(grid.num_tiles(), 0);
        for (uint32_t t = 0; t < grid.num_tiles(); ++t) {
          owned[t] = grid.NodeOfTile(t) == static_cast<uint32_t>(n) ? 1 : 0;
        }
        exec::TwoLayerOptions o;
        o.tiles_per_axis = grid.tiles_per_axis();
        o.universe = grid.universe();
        o.owned = &owned;
        o.num_tasks = exec::PbsmOptions().num_partitions;
        o.group_packer = &paradise::opt::PackTileGroups;
        StatusOr<TupleVec> joined =
            exec::TwoLayerSpatialJoin(left, c, right, c, ctx, o);
        ok = ok && joined.ok();
        if (joined.ok()) local_rows += static_cast<int64_t>(joined->size());
      } else {
        StatusOr<TupleVec> joined =
            exec::PbsmSpatialJoin(left, c, right, c, ctx, exec::PbsmOptions());
        ok = ok && joined.ok();
        if (joined.ok()) {
          for (const paradise::exec::Tuple& t : *joined) local_rows += keep(t, n);
        }
      }
      local_ms += SecondsSince(t0) * 1e3;

      t0 = Clock::now();
      jk::MbrColumns lc, rc;
      lc.Resize(left.size());
      rc.Resize(right.size());
      for (size_t i = 0; i < left.size(); ++i) lc.Set(i, left[i].at(c).Mbr());
      for (size_t i = 0; i < right.size(); ++i) rc.Set(i, right[i].at(c).Mbr());
      mbr_ms += SecondsSince(t0) * 1e3;

      t0 = Clock::now();
      std::vector<uint32_t> lo = jk::ArgsortByXlo(lc);
      std::vector<uint32_t> ro = jk::ArgsortByXlo(rc);
      argsort_ms += SecondsSince(t0) * 1e3;

      t0 = Clock::now();
      jk::SweepSide ls, rs;
      ls.GatherPresorted(lc, lo.data(), lo.size());
      rs.GatherPresorted(rc, ro.data(), ro.size());
      std::vector<jk::OrdinalPair> pairs;
      jk::CandidateBatch batch(
          jk::kCandidateBatchSize, [&](const jk::Candidate* cand, size_t k) {
            for (size_t i = 0; i < k; ++i) {
              pairs.push_back({ls.ordinal(cand[i].left_pos),
                               rs.ordinal(cand[i].right_pos)});
            }
          });
      jk::SweepForCandidates(ls, rs, &batch);
      batch.Flush();
      sweep_ms += SecondsSince(t0) * 1e3;

      t0 = Clock::now();
      TupleVec hits;
      Status st = jk::ExactJoinBatch(left, c, right, c, pairs.data(),
                                     pairs.size(), ctx, &hits);
      exact_ms += SecondsSince(t0) * 1e3;
      ok = ok && st.ok();
      for (const paradise::exec::Tuple& t : hits) kernel_rows += keep(t, n);
    }
    local.push_back(local_ms);
    mbr.push_back(mbr_ms);
    argsort.push_back(argsort_ms);
    sweep.push_back(sweep_ms);
    exact.push_back(exact_ms);
    out.local_rows = ok ? local_rows : -1;
    out.kernel_rows = ok ? kernel_rows : -1;
  }
  out.join_local_ms = Median(local);
  out.mbr_ms = Median(mbr);
  out.argsort_ms = Median(argsort);
  out.sweep_ms = Median(sweep);
  out.exact_ms = Median(exact);
  return out;
}

struct CodecReplay {
  double compress_ms = 0, decompress_ms = 0, ratio = 0;
  bool roundtrip_ok = true;
};

/// LZW over the tiles of the channel-5 rasters (the ones Queries 2, 4, 9,
/// 10 and 14 read), cut with the loader's tile shape.
CodecReplay ReplayCodec(const paradise::datagen::GlobalDataSet& ds,
                        int64_t channel) {
  CodecReplay out;
  std::vector<std::vector<uint8_t>> raw_tiles;
  for (const paradise::datagen::RasterSpec& r : ds.rasters) {
    if (r.channel != channel) continue;
    std::vector<uint32_t> td =
        paradise::array::ChooseTileDims({r.height, r.width}, 2, kTileBytes);
    for (uint32_t y0 = 0; y0 < r.height; y0 += td[0]) {
      for (uint32_t x0 = 0; x0 < r.width; x0 += td[1]) {
        std::vector<uint8_t> tile;
        for (uint32_t y = y0; y < std::min(r.height, y0 + td[0]); ++y) {
          const uint16_t* row = r.pixels.data() + static_cast<size_t>(y) * r.width;
          const uint32_t x1 = std::min(r.width, x0 + td[1]);
          const uint8_t* b = reinterpret_cast<const uint8_t*>(row + x0);
          tile.insert(tile.end(), b, b + 2 * static_cast<size_t>(x1 - x0));
        }
        raw_tiles.push_back(std::move(tile));
      }
    }
  }
  std::vector<std::vector<uint8_t>> packed(raw_tiles.size());
  Clock::time_point t0 = Clock::now();
  for (size_t i = 0; i < raw_tiles.size(); ++i) {
    packed[i] = paradise::codec::LzwCompress(raw_tiles[i]);
  }
  out.compress_ms = SecondsSince(t0) * 1e3;
  double raw_bytes = 0, stored_bytes = 0;
  for (size_t i = 0; i < raw_tiles.size(); ++i) {
    raw_bytes += static_cast<double>(raw_tiles[i].size());
    stored_bytes += static_cast<double>(
        std::min(packed[i].size(), raw_tiles[i].size()));
  }
  out.ratio = stored_bytes > 0 ? raw_bytes / stored_bytes : 0.0;
  t0 = Clock::now();
  for (size_t i = 0; i < packed.size(); ++i) {
    auto back = paradise::codec::LzwDecompress(packed[i]);
    if (!back.ok() || *back != raw_tiles[i]) out.roundtrip_ok = false;
  }
  out.decompress_ms = SecondsSince(t0) * 1e3;
  return out;
}

/// STR bulk loads of the three vector tables' R*-trees.
double ReplayBulkLoad(const paradise::datagen::GlobalDataSet& ds) {
  Clock::time_point t0 = Clock::now();
  const std::pair<const TupleVec*, size_t> tables[] = {
      {&ds.roads, col::kLineShape},
      {&ds.drainage, col::kLineShape},
      {&ds.land_cover, col::kLcShape}};
  size_t total = 0;
  for (const auto& [rows, c] : tables) {
    std::vector<std::pair<paradise::geom::Box, uint64_t>> entries;
    entries.reserve(rows->size());
    for (size_t i = 0; i < rows->size(); ++i) {
      entries.emplace_back((*rows)[i].at(c).Mbr(), i);
    }
    total += paradise::index::RStarTree::BulkLoadStr(std::move(entries))->size();
  }
  return total > 0 ? SecondsSince(t0) * 1e3 : 0.0;
}

struct ProbeReplay {
  double rtree_us = 0, btree_us = 0, nodes_per_probe = 0;
};

/// Probes the loaded fragments' indexes with the workload's own probe
/// keys (every node's fragment per key), repeated until each index kind has
/// run for at least ~20 ms.
ProbeReplay ReplayProbes(BenchmarkDatabase* db,
                         const std::vector<std::pair<const core::ParallelTable*,
                                                     paradise::geom::Box>>& boxes,
                         const std::vector<std::string>& names) {
  ProbeReplay out;
  const double kMinSeconds = 0.02;
  if (!boxes.empty()) {
    int64_t probes = 0, visited_total = 0, hits = 0;
    Clock::time_point t0 = Clock::now();
    do {
      for (const auto& [table, box] : boxes) {
        for (int n = 0; n < table->num_fragments(); ++n) {
          const auto& tree = table->fragment(n).rtree;
          if (tree == nullptr) continue;
          int64_t visited = 0;
          tree->SearchOverlap(
              box, [&](const paradise::geom::Box&, uint64_t) { ++hits; return true; },
              &visited);
          visited_total += visited;
          ++probes;
        }
      }
    } while (SecondsSince(t0) < kMinSeconds);
    out.rtree_us = SecondsSince(t0) * 1e6 / static_cast<double>(probes);
    out.nodes_per_probe =
        static_cast<double>(visited_total) / static_cast<double>(probes);
  }
  if (!names.empty()) {
    const core::ParallelTable& places = db->places();
    int64_t probes = 0, found = 0;
    Clock::time_point t0 = Clock::now();
    do {
      for (const std::string& name : names) {
        for (int n = 0; n < places.num_fragments(); ++n) {
          const auto& idx = places.fragment(n).string_indexes;
          auto it = idx.find(col::kPlaceName);
          if (it == idx.end()) continue;
          found += static_cast<int64_t>(it->second.Find(name).size());
          ++probes;
        }
      }
    } while (SecondsSince(t0) < kMinSeconds);
    out.btree_us = SecondsSince(t0) * 1e6 / static_cast<double>(probes);
  }
  return out;
}

// ---------------------------------------------------------------------------

void PrintEnvironment(const Args& args, int threads, Bench& bench,
                      const paradise::datagen::GlobalDataSet& ds,
                      double datagen_s) {
  core::Cluster* cluster = bench.cluster();
  const unsigned hw = std::thread::hardware_concurrency();
  std::printf("== environment ==\n");
  std::printf("workload %s  seed %" PRIu64 "  trace %d  seconds %.1f\n",
              args.workload_name.c_str(), args.seed, args.trace ? 1 : 0,
              args.seconds);
  std::printf("nproc %u  worker threads %d (PARADISE_THREADS, else min(nproc, 4))"
              "  nodes %d  scale S=%d  "
              "pool shards/node %d\n",
              hw, threads, cluster->num_nodes(), kScale,
              cluster->node(0).pool()->num_shards());
  std::printf("datagen %.3f s (outside setup_s)\n", datagen_s);
  std::printf("%-16s %10s %10s %14s\n", "table", "tuples", "copies",
              "bytes");
  BenchmarkDatabase* db = bench.db();
  const std::pair<const char*, const core::ParallelTable*> tables[] = {
      {"populatedPlaces", &db->places()},
      {"roads", &db->roads()},
      {"drainage", &db->drainage()},
      {"landCover", &db->land_cover()}};
  double vector_bytes = 0;  // heap-file pages of all fragments
  for (const auto& [name, t] : tables) {
    double bytes = 0;
    for (int n = 0; n < t->num_fragments(); ++n) {
      bytes += static_cast<double>(t->fragment(n).file->num_pages() *
                                   paradise::storage::kPageSize);
    }
    std::printf("%-16s %10" PRId64 " %10" PRId64 " %14.0f\n", name,
                t->num_rows(), t->num_stored(), bytes);
    vector_bytes += bytes;
  }
  std::printf("%-16s %10" PRId64 " %10" PRId64 " %14" PRId64 " (pixels)\n",
              "raster", db->raster().num_rows(), db->raster().num_stored(),
              ds.RasterBytes());
  const size_t frames = cluster->node(0).pool()->capacity();
  std::printf("pool %zu frames/node (%.2f MB) vs vector footprint %.2f MB/node\n",
              frames, frames * paradise::storage::kPageSize / 1048576.0,
              vector_bytes / cluster->num_nodes() / 1048576.0);
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) return 2;
  const int threads =
      std::getenv("PARADISE_THREADS") != nullptr
          ? paradise::common::ThreadPool::DefaultNumThreads()
          : static_cast<int>(
                std::clamp(std::thread::hardware_concurrency(), 1u, 4u));

  Clock::time_point g0 = Clock::now();
  paradise::datagen::DataSetOptions dopt;
  dopt.seed = kDataSeed;
  dopt.scale = kScale;
  dopt.size_fraction = 1.0 / 64;
  dopt.num_dates = 90;  // x4 channels = 360 rasters
  dopt.base_raster_size = 256;
  paradise::datagen::GlobalDataSet ds =
      paradise::datagen::GenerateGlobalDataSet(dopt);
  // The workload seed permutes the vector tables' load order: the logical
  // database is the same for all seeds, its physical layout (heap pages,
  // index shapes) is the seed's. Rasters keep the generator's order, so
  // the loader's raster-to-node placement (and with it the node balance of
  // the raster queries) is the same for every seed.
  paradise::Rng order(args.seed);
  auto permute = [&order](auto* v) {
    for (size_t i = v->size(); i > 1; --i) {
      std::swap((*v)[i - 1], (*v)[order.NextUint(i)]);
    }
  };
  permute(&ds.populated_places);
  permute(&ds.roads);
  permute(&ds.drainage);
  permute(&ds.land_cover);
  const double datagen_s = SecondsSince(g0);

  Bench bench(args, ds, threads);
  if (!bench.Setup()) return 1;
  PrintEnvironment(args, threads, bench, ds, datagen_s);

  std::vector<std::string> failures;
  int64_t attempted = 0;
  auto account = [&](const std::vector<Request>& pass, const char* what,
                     bool compare_modeled = true) {
    for (const Request& r : pass) {
      attempted += static_cast<int64_t>(r.records.size());
    }
    for (std::string& m : bench.Check(pass, what, compare_modeled)) {
      failures.push_back(std::move(m));
    }
  };

  std::map<std::string, double> metrics;
  std::vector<double> untraced_ms;
  // interactive_select: untraced latencies by Statement::Kind.
  std::map<int, std::vector<double>> kind_ms;
  std::vector<Request> traced;
  int64_t queries = 0;
  Tracer& tracer = Tracer::Get();
  Clock::time_point loop0 = Clock::now();
  bool next_traced = false;
  while (SecondsSince(loop0) < args.seconds) {
    const bool t = args.trace && next_traced;
    tracer.SetEnabled(t);
    std::vector<Request> pass = bench.RunPass(t);
    tracer.SetEnabled(false);
    if (bench.reference().empty()) {
      bench.SetReference(pass);
      account(bench.warmup(), "warm-up pass", false);
    }
    account(pass, t ? "traced pass" : "timed pass");
    for (size_t i = 0; i < pass.size(); ++i) {
      Request& r = pass[i];
      queries += static_cast<int64_t>(r.records.size());
      if (t) {
        traced.push_back(std::move(r));
        continue;
      }
      untraced_ms.push_back(r.wall_ms);
      if (args.workload == Workload::kInteractive) {
        kind_ms[bench.statements()[i].kind].push_back(r.wall_ms);
      }
    }
    next_traced = !next_traced;
  }
  const double loop_s = SecondsSince(loop0);
  const Tail tail = TailOf(untraced_ms);

  double modeled_s = 0;
  QueryShape pass_shape;
  int64_t pass_queries = 0, join_rows = 0;
  for (const Request& r : bench.reference()) {
    for (size_t i = 0; i < r.records.size(); ++i) {
      modeled_s += r.records[i].modeled;
      const QueryShape& s = r.shapes[i];
      ++pass_queries;
      pass_shape.phases += s.phases;
      pass_shape.max_node_s += s.max_node_s;
      pass_shape.mean_node_s += s.mean_node_s;
      const exec::PbsmJoinStats& p = s.pbsm;
      if (p.exact_tests > 0) join_rows += r.records[i].rows;
      exec::PbsmJoinStats& a = pass_shape.pbsm;
      a.sweep_pair_compares += p.sweep_pair_compares;
      a.exact_tests += p.exact_tests;
      a.dedup_tests += p.dedup_tests;
      a.left_tuples += p.left_tuples;
      a.right_tuples += p.right_tuples;
      a.left_items += p.left_items;
      a.right_items += p.right_items;
      a.max_partition_items = std::max(a.max_partition_items, p.max_partition_items);
    }
  }

  if (!args.trace) {
    metrics["setup_s"] = Median(bench.setup_s());
    metrics["queries_per_s"] = static_cast<double>(queries) / loop_s;
    metrics["latency_p50_ms"] = Median(untraced_ms);
    metrics["latency_tail_ms"] = tail.value;
    metrics["modeled_s"] = modeled_s;
    metrics["rss_mb"] = PeakRssMb();
  } else {
    // Per-request self time of each layer, from the traced passes' spans.
    std::map<std::string, std::vector<double>> per_layer;
    const char* kLayers[] = {"sql.plan",         "core.begin_query",
                             "core.scan",        "core.index_select",
                             "core.exchange",    "core.store",
                             "core.spatial_join", "core.closest",
                             "array.clip"};
    std::vector<double> traced_ms, misses, evictions, readahead, writeback,
        tiles, pulled;
    paradise::storage::BufferPool::Stats pool_total;
    for (const Request& r : traced) {
      traced_ms.push_back(r.wall_ms);
      std::map<std::string, double> self =
          Tracer::SelfNsByName(tracer.SpansOfRequest(r.trace_id));
      for (const char* layer : kLayers) {
        per_layer[layer].push_back(self[layer] / 1e6);
      }
      misses.push_back(static_cast<double>(r.pool.misses));
      evictions.push_back(static_cast<double>(r.pool.evictions));
      readahead.push_back(static_cast<double>(r.pool.readahead_pages));
      writeback.push_back(static_cast<double>(r.pool.writeback_pages));
      tiles.push_back(static_cast<double>(r.tiles_read));
      pulled.push_back(static_cast<double>(r.bytes_pulled));
      pool_total.hits += r.pool.hits;
      pool_total.misses += r.pool.misses;
      pool_total.readahead_pages += r.pool.readahead_pages;
    }
    for (const char* layer : kLayers) {
      metrics[std::string(layer) + "_ms"] = Median(per_layer[layer]);
    }
    const double n_traced = std::max<double>(1.0, static_cast<double>(traced.size()));
    metrics["sql.seqscan_frac"] =
        bench.traced_regions() > 0
            ? static_cast<double>(bench.seqscan_regions()) /
                  static_cast<double>(bench.traced_regions())
            : 0.0;
    metrics["core.phases_per_query"] =
        static_cast<double>(pass_shape.phases) / std::max<int64_t>(1, pass_queries);
    metrics["core.modeled_node_skew"] =
        pass_shape.mean_node_s > 0 ? pass_shape.max_node_s / pass_shape.mean_node_s
                                   : 0.0;
    const exec::PbsmJoinStats& p = pass_shape.pbsm;
    metrics["exec.sweep_pair_compares"] = static_cast<double>(p.sweep_pair_compares);
    metrics["exec.exact_tests"] = static_cast<double>(p.exact_tests);
    metrics["exec.exact_hit_ratio"] =
        p.exact_tests > 0 ? static_cast<double>(join_rows) / p.exact_tests : 0.0;
    metrics["exec.replication"] = p.replication();
    metrics["exec.dedup_tests"] = static_cast<double>(p.dedup_tests);
    metrics["exec.max_partition_items"] = static_cast<double>(p.max_partition_items);

    KernelReplay k;
    if (!bench.join_inputs().left.empty()) {
      const bool two_layer = args.workload == Workload::kTwoLayer;
      // Q13 joins on drainage's grid; the two-layer join on the inner's.
      k = ReplayJoinKernel(bench.join_inputs(),
                           two_layer ? bench.db()->roads().grid()
                                     : bench.db()->drainage().grid(),
                           two_layer, 3);
      const std::string join_name = two_layer ? "join" : "Q13";
      for (const Request& r : bench.reference()) {
        for (const Record& rec : r.records) {
          if (rec.name != join_name) continue;
          ++attempted;
          if (k.local_rows != rec.rows || k.kernel_rows != rec.rows) {
            failures.push_back("join replay rows differ from " + join_name);
          }
        }
      }
    }
    metrics["exec.join_local_ms"] = k.join_local_ms;
    metrics["exec.kernel.mbr_ms"] = k.mbr_ms;
    metrics["exec.kernel.argsort_ms"] = k.argsort_ms;
    metrics["exec.kernel.sweep_ms"] = k.sweep_ms;
    metrics["exec.kernel.exact_ms"] = k.exact_ms;

    metrics["array.tiles_read"] = Median(tiles);
    metrics["core.pull.bytes_pulled"] = Median(pulled);
    CodecReplay codec = ReplayCodec(ds, bench.db()->constants().channel);
    ++attempted;
    if (!codec.roundtrip_ok) failures.push_back("LZW round trip differs");
    metrics["codec.compress_ms"] = codec.compress_ms;
    metrics["codec.decompress_ms"] = codec.decompress_ms;
    metrics["codec.compress_ratio"] = codec.ratio;

    std::vector<std::pair<const core::ParallelTable*, paradise::geom::Box>> boxes;
    std::vector<std::string> names;
    BenchmarkDatabase* db = bench.db();
    switch (args.workload) {
      case Workload::kInteractive:
        for (const Statement& s : bench.statements()) {
          if (!s.is_region()) {
            names.push_back(s.name);
            continue;
          }
          const core::ParallelTable* t =
              s.table == "roads" ? &db->roads()
              : s.table == "drainage" ? &db->drainage()
                                      : &db->land_cover();
          boxes.emplace_back(t, s.region);
        }
        break;
      case Workload::kPaperVector:
        names = {"Phoenix", "Louisville"};
        boxes.emplace_back(&db->land_cover(), db->constants().clip_polygon->Mbr());
        boxes.emplace_back(&db->land_cover(),
                           paradise::geom::Circle(db->constants().point,
                                                  db->constants().radius)
                               .Mbr());
        break;
      default:
        break;
    }
    ProbeReplay probes = ReplayProbes(db, boxes, names);
    metrics["index.rtree_probe_us"] = probes.rtree_us;
    metrics["index.btree_probe_us"] = probes.btree_us;
    metrics["index.nodes_visited_per_probe"] = probes.nodes_per_probe;

    const double denom = static_cast<double>(
        pool_total.hits + pool_total.misses + pool_total.readahead_pages);
    metrics["storage.pool_hit_rate"] =
        denom > 0 ? static_cast<double>(pool_total.hits) / denom : 0.0;
    metrics["storage.pool_misses"] = Sum(misses) / n_traced;
    metrics["storage.evictions"] = Sum(evictions) / n_traced;
    metrics["storage.readahead_pages"] = Sum(readahead) / n_traced;
    metrics["storage.writeback_pages"] = Sum(writeback) / n_traced;

    metrics["load.datagen_s"] = datagen_s;
    metrics["load.query1_s"] = Median(bench.query1_s());
    metrics["load.first_reset_ms"] = Median(bench.first_reset_ms());
    metrics["index.bulk_load_ms"] = ReplayBulkLoad(ds);

    const double untraced_med = Median(untraced_ms);
    metrics["trace.overhead_frac"] =
        untraced_med > 0 ? (Median(traced_ms) - untraced_med) / untraced_med : 0.0;

    if (!args.trace_out.empty()) {
      ++attempted;
      if (tracer.WriteChromeTrace(args.trace_out)) {
        std::printf("trace: %zu spans (%" PRId64 " dropped) -> %s\n",
                    tracer.num_spans(), tracer.dropped(), args.trace_out.c_str());
      } else {
        failures.push_back("cannot write trace " + args.trace_out);
      }
    }
  }

  std::printf("== run ==\n");
  std::printf("requests %zu untraced, %zu traced in %.2f s; %" PRId64
              " queries; setup runs %zu\n",
              untraced_ms.size(), traced.size(), loop_s, queries,
              bench.setup_s().size());
  std::printf("latency_tail_ms is p%.2f over %zu samples (10 beyond it)\n",
              tail.percentile, tail.samples);
  std::printf("failed_frac %.6f (%zu of %" PRId64 ")\n",
              attempted > 0 ? static_cast<double>(failures.size()) / attempted : 0.0,
              failures.size(), attempted);
  for (size_t i = 0; i < failures.size() && i < 10; ++i) {
    std::printf("  failure: %s\n", failures[i].c_str());
  }
  if (!kind_ms.empty()) {
    // Which statement kinds set the median, the tail and the throughput.
    static const char* kKindNames[] = {"name",  "polygon", "circle",
                                       "box",   "count",   "closest"};
    const double total_ms = Sum(untraced_ms);
    std::printf("%-10s %8s %10s %10s %12s\n", "kind", "count", "p50 ms",
                "max ms", "time share");
    for (const auto& [kind, ms] : kind_ms) {
      std::printf("%-10s %8zu %10.3f %10.3f %12.3f\n", kKindNames[kind],
                  ms.size(), Median(ms), *std::max_element(ms.begin(), ms.end()),
                  Sum(ms) / total_ms);
    }
  }

  std::ostringstream js;
  js.precision(17);
  js << "{\"attempted\": " << attempted << ", \"failed\": " << failures.size()
     << ", \"tail_percentile\": " << tail.percentile
     << ", \"tail_samples\": " << tail.samples << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, value] : metrics) {
    js << (first ? "" : ", ") << "\"" << name << "\": " << value;
    first = false;
  }
  js << "}, \"reference\": [";
  first = true;
  for (const Request& r : bench.reference()) {
    for (const Record& rec : r.records) {
      char fp[32];
      std::snprintf(fp, sizeof(fp), "%016" PRIx64, rec.fingerprint);
      js << (first ? "" : ", ") << "{\"name\": \"" << rec.name
         << "\", \"rows\": " << rec.rows << ", \"fingerprint\": \"" << fp
         << "\", \"modeled\": " << rec.modeled
         << (rec.error.empty() ? "}" : ", \"failed\": true}");
      first = false;
    }
  }
  js << "]}";
  std::printf("%s\n", js.str().c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }

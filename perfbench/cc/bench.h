#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

// Shared pieces of the benchmark program: per-request records (what the
// correctness checks compare), the order-independent row fingerprint, the
// traced decompositions of the paper queries, and the interactive SQL
// statement generator.

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "benchmark/database.h"
#include "benchmark/queries.h"
#include "core/parallel_ops.h"

namespace perfbench {

/// Order-independent fingerprint of a result: the wrapping sum of one hash
/// per row. Raster values hash their extent, shape and inline pixels, not
/// their storage ids, so a result re-created in temporary storage on a
/// later pass hashes the same.
uint64_t Fingerprint(const paradise::exec::TupleVec& rows);

/// Tile traffic seen by the benchmark's own operator closures in a traced
/// pass (they run on worker threads, hence atomics).
struct TileCounters {
  std::atomic<int64_t> tiles_read{0};
  std::atomic<int64_t> bytes_pulled{0};
};

/// Per-node inputs of a partition join exactly as ParallelSpatialJoin's
/// local join phase receives them (after any redistribution). A traced
/// pass keeps them for the join kernel replay.
struct JoinInputs {
  paradise::core::PerNode left, right;
};

/// Runs paper query `number` the way RunQueryByNumber does, but as the
/// sequence of public core/array/index calls it is made of, each wrapped
/// in a span: e.g. Query 13 is ParallelScanAll x2 -> ParallelSpatialJoin ->
/// Gather. Rows and modeled seconds must equal the untraced query's.
/// Query 13 moves its join inputs into `join`.
paradise::StatusOr<paradise::benchmark::QueryResult> RunDecomposedQuery(
    paradise::benchmark::BenchmarkDatabase* db, int number,
    TileCounters* counters, JoinInputs* join);

/// drainage JOIN roads through core::Query::SpatialJoinWith (the
/// two_layer_join request). `decomposed` runs the same plan as the
/// optimizer's public pieces, with spans, and moves the join inputs into
/// `join`.
paradise::StatusOr<paradise::benchmark::QueryResult> RunDrainageRoadsJoin(
    paradise::benchmark::BenchmarkDatabase* db, bool decomposed,
    JoinInputs* join);

/// One generated interactive statement, plus what the probe replays need.
struct Statement {
  enum Kind { kName, kPolygon, kCircle, kBox, kCount, kClosest };
  Kind kind = kName;
  std::string sql;
  std::string table;          // catalog name of the target table
  paradise::geom::Box region;  // region MBR (region statements)
  std::string name;            // looked-up name (kName)
  bool is_region() const { return kind != kName; }
};

/// Seeded interactive mix over the loaded database: point-name lookups,
/// POLYGON/CIRCLE/BOX OVERLAPS selections and count/closest aggregates
/// with log-uniform region sizes and centres drawn partly from a small hot
/// set. Names are drawn from the generated places.
std::vector<Statement> GenerateStatements(
    const paradise::datagen::GlobalDataSet& ds, uint64_t seed, int count);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_

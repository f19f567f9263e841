#ifndef PARADISE_SIM_COST_MODEL_H_
#define PARADISE_SIM_COST_MODEL_H_

#include <cstdint>

namespace paradise::sim {

/// Counters for the physical resources a node consumes. The executor runs
/// the real algorithms on real bytes; these counters are the *only* source
/// of reported time, which is what makes speedup/scaleup experiments
/// deterministic and runnable on a single-core host.
struct ResourceUsage {
  int64_t disk_seeks = 0;          // random positioning operations
  int64_t disk_bytes_read = 0;     // bytes transferred from disk
  int64_t disk_bytes_written = 0;  // bytes transferred to disk
  int64_t net_messages = 0;        // point-to-point messages
  int64_t net_bytes = 0;           // bytes sent on this node's link
  double cpu_ops = 0.0;            // elementary CPU operations
  double idle_seconds = 0.0;       // modeled waiting: backoff, timeouts

  void Add(const ResourceUsage& other) {
    disk_seeks += other.disk_seeks;
    disk_bytes_read += other.disk_bytes_read;
    disk_bytes_written += other.disk_bytes_written;
    net_messages += other.net_messages;
    net_bytes += other.net_bytes;
    cpu_ops += other.cpu_ops;
    idle_seconds += other.idle_seconds;
  }

  void Clear() { *this = ResourceUsage(); }
};

/// Converts resource counters to seconds. Defaults are calibrated to the
/// paper's testbed (Section 3.2): dual 133 MHz Pentiums, Seagate Barracuda
/// 2.1 GB SCSI disks, 100 Mbit switched Ethernet.
///
/// Disk and network on a node overlap poorly in 1997-era systems (blocking
/// UNIX I/O through a separate I/O process, single link), so a node's time
/// is modeled additively: disk + net + cpu.
struct CostModel {
  /// Average positioning time (seek + rotational latency) per random access.
  double disk_seek_seconds = 0.011;
  /// Sustained media transfer rate (the Barracuda family did ~6-9 MB/s).
  double disk_bytes_per_second = 8.0e6;
  /// Per-message software + switch latency.
  double net_message_latency_seconds = 0.0006;
  /// Per-node link bandwidth: 100 Mbit/s full duplex ~ 12.5 MB/s.
  double net_bytes_per_second = 12.5e6;
  /// Useful work rate of one node on database code. Two 133 MHz CPUs
  /// sustaining well under 1 op/cycle on pointer-chasing DB code.
  double cpu_ops_per_second = 90.0e6;

  /// Component costs, exposed separately so a contention model can scale
  /// the shared resources (disk arms, the node's link) without touching
  /// CPU or modeled idle time. Seconds() is exactly their sum.
  double DiskSeconds(const ResourceUsage& u) const {
    return static_cast<double>(u.disk_seeks) * disk_seek_seconds +
           static_cast<double>(u.disk_bytes_read + u.disk_bytes_written) /
               disk_bytes_per_second;
  }
  double NetSeconds(const ResourceUsage& u) const {
    return static_cast<double>(u.net_messages) * net_message_latency_seconds +
           static_cast<double>(u.net_bytes) / net_bytes_per_second;
  }
  double CpuSeconds(const ResourceUsage& u) const {
    return u.cpu_ops / cpu_ops_per_second;
  }

  double Seconds(const ResourceUsage& u) const {
    return DiskSeconds(u) + NetSeconds(u) + CpuSeconds(u) + u.idle_seconds;
  }
};

/// Conventional CPU charges, in elementary operations. Operators use these
/// so that CPU-heavy geo-spatial work (distance tests, compression, pixel
/// math) dominates where the paper says it does (e.g. Query 11).
namespace cpu_cost {
inline constexpr double kTupleOverhead = 250;      // per tuple through an operator
inline constexpr double kCompare = 12;             // scalar compare
inline constexpr double kHash = 40;                // hash a key
inline constexpr double kPerByteCopied = 0.6;      // memcpy-style movement
inline constexpr double kPerByteCompressed = 24;   // LZW encode
inline constexpr double kPerByteDecompressed = 10; // LZW decode
inline constexpr double kPerPixel = 5;             // raster pixel op (clip/avg)
inline constexpr double kPerSegmentTest = 60;      // segment intersection test
inline constexpr double kPerPointDistance = 45;    // point-segment distance
inline constexpr double kIndexProbe = 900;         // descend one index level set
inline constexpr double kIndexNodeVisit = 500;     // touch one memory-resident index node
}  // namespace cpu_cost

}  // namespace paradise::sim

#endif  // PARADISE_SIM_COST_MODEL_H_

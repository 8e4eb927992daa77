// Shared declarations of the end-to-end benchmark: workload definitions, the
// seed-derived data set, the closed-loop client, the correctness audits, the
// per-layer probe and the span recorder.

#ifndef GEOBENCH_BENCH_H_
#define GEOBENCH_BENCH_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/common/metrics.h"
#include "src/common/rng.h"
#include "src/common/status.h"

namespace geobench {

using globaldb::Cluster;
using globaldb::ClusterOptions;
using globaldb::CoordinatorNode;
using globaldb::Histogram;
using globaldb::Row;
using globaldb::SimDuration;
using globaldb::SimTime;
using globaldb::Status;

// --- Workloads -------------------------------------------------------------

enum class Mix {
  kReadWrite,  // 10 point selects in one MultiGet + 4 locked updates
  kReadOnly,   // alternating point select / four 100-row range selects
};

struct WorkloadSpec {
  const char* name;
  bool three_city;  // Three-City topology, else One-Region
  Mix mix;
  int terminals;
  /// Simulated time the terminals run before the measured window opens.
  SimDuration warmup;
  /// Simulated seconds measured per requested wall-clock second. The run's
  /// simulated window is `--seconds` times this, so a run is deterministic
  /// for a seed and takes about `--seconds` of wall-clock time on a 4-core
  /// x86 server (see README.md).
  double sim_seconds_per_second;
  /// Lower bound on the simulated window, whatever `--seconds` asks.
  SimDuration min_window;
};

/// Returns the workload named `name`, or nullptr.
const WorkloadSpec* FindWorkload(const std::string& name);
std::vector<std::string> WorkloadNames();

/// The paper's GlobalDB configuration (GClock, async LZ redo shipping, BBR,
/// Nagle off, read-on-replica) on 3 CNs, 6 primary DNs and 2 replicas per
/// shard.
ClusterOptions MakeClusterOptions(const WorkloadSpec& spec);

// --- Data set ----------------------------------------------------------------

/// Sysbench-shaped tables sbtest1..sbtestN(id, k, c, pad), hash-distributed
/// by id. Every loaded row is a pure function of (seed, table, id), so the
/// audits recompute expected values without trusting the program.
struct DataSet {
  static constexpr int kTables = 25;
  static constexpr int64_t kRowsPerTable = 10000;

  uint64_t seed = 0;

  static std::string TableName(int table) {
    return "sbtest" + std::to_string(table + 1);
  }
  Row LoadedRow(int table, int64_t id) const;
  int64_t LoadedK(int table, int64_t id) const;
  /// Sum of column k over every loaded row of every table.
  int64_t LoadedKSum() const;
};

/// Creates the tables through CN 0 and bulk-loads every row straight into
/// the primary and replica stores (as a restored backup would).
Status LoadDataSet(Cluster* cluster, const DataSet& data);

// --- Span recording ------------------------------------------------------------

enum SpanName : int32_t {
  kSpanTxnReadWrite,
  kSpanTxnPointSelect,
  kSpanTxnRangeSelect,
  kSpanBegin,
  kSpanMultiGet,
  kSpanGetForUpdate,
  kSpanUpdate,
  kSpanScanBatch,
  kSpanCommit,
  kSpanAbort,
  kSpanCount,
};
const char* SpanNameString(int32_t name);

/// One timed call. Spans of a transaction share `txn`; the transaction's
/// root span has parent -1 and its calls point at the root.
struct Span {
  int32_t name = 0;
  int64_t parent = -1;
  uint64_t txn = 0;
  SimTime start = 0;
  SimTime end = 0;
};

// --- Closed-loop client --------------------------------------------------------

/// Everything the terminals share: the measured window, the outcome tallies
/// and the (optional) spans.
struct RunState {
  Cluster* cluster = nullptr;
  const DataSet* data = nullptr;
  Mix mix = Mix::kReadWrite;
  bool trace = false;
  SimTime measure_start = 0;
  SimTime measure_end = 0;
  bool stop = false;
  int active_terminals = 0;

  // Transactions that ended inside the measured window.
  int64_t attempted = 0;
  int64_t failed = 0;
  Histogram latency;  // successful transactions, simulated ns
  std::map<std::string, int64_t> failure_reasons;
  /// Simulated time at Begin minus the snapshot, per read-only transaction.
  std::vector<int64_t> staleness_ns;
  /// Rows the client received from ScanBatch.
  int64_t scan_rows_received = 0;
  std::vector<Span> spans;

  // Whole run (warm-up and drain included), for the audits.
  int64_t acked_increments = 0;
  int64_t reads_checked = 0;
  int64_t check_failures = 0;
  std::string first_check_failure;
  uint64_t next_txn = 0;

  void CheckFailed(const std::string& what);
};

/// Spawns `terminals` closed-loop terminals, bound round-robin to the CNs.
void StartTerminals(RunState* state, int terminals, uint64_t seed);

/// Checks a row read by a read-write transaction: same id, c and pad as
/// loaded, k never below its loaded value. Empty on success.
std::string CheckUpdatedRow(const DataSet& data, int table, int64_t id,
                            const Row& row);
/// Checks a row read by a read-only transaction: exactly the loaded row.
std::string CheckLoadedRow(const DataSet& data, int table, int64_t id,
                           const Row& row);

// --- Audits --------------------------------------------------------------------

struct AuditResult {
  bool ok = true;
  std::vector<std::string> lines;  // one per audit, "ok" or the mismatch
  void Add(bool pass, const std::string& line);
};

/// Stops the terminals, drains the cluster and runs every audit.
AuditResult RunAudits(RunState* state);

/// Plants faults in a short run and shows that each audit catches them.
int SelfTest();

// --- Per-layer probe -------------------------------------------------------------

/// Captures the nodes' counters and histogram positions at the start of the
/// measured window and turns them into per-layer metrics at its end.
class LayerProbe {
 public:
  void Start(Cluster* cluster);
  /// Per-layer metrics over the window; `txns` is the number of successful
  /// transactions in it.
  std::map<std::string, double> Finish(Cluster* cluster,
                                       const RunState& state, int64_t txns,
                                       double window_s);

 private:
  std::map<std::string, int64_t> start_counters_;
  std::map<const Histogram*, size_t> start_marks_;
};

struct MetricInfo {
  std::string name;
  const char* unit;
};
/// The per-layer metrics the traced run reports, in output order.
const std::vector<MetricInfo>& LayerMetricInfo();

// --- Machine speed -----------------------------------------------------------------

/// Wall-clock seconds one pass of the fixed reference loop takes now.
double ReferenceLoopSeconds();
/// Its time on an otherwise idle 4-core x86 server (see README.md).
constexpr double kNominalReferenceSeconds = 0.020;

}  // namespace geobench

#endif  // GEOBENCH_BENCH_H_

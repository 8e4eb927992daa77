// Per-layer metrics of the traced run: counters and histograms the nodes
// already expose, taken as deltas over the measured window, plus the spans
// the client records around each CoordinatorNode call. Layers are named
// after the src/ modules.

#include <algorithm>
#include <functional>

#include "bench.h"

namespace geobench {

using globaldb::ShardId;

namespace {

/// RPC methods whose latency the traced run reports.
const char* const kRpcMethods[] = {
    "dn.read_batch",  "dn.lock_read",    "dn.precommit", "dn.commit",
    "ror.read_batch", "ror.scan_batch",  "dn.write_batch", "repl.append",
};

/// Client spans reported as cluster.<call>_us (p50, simulated us).
const std::pair<int32_t, const char*> kCallSpans[] = {
    {kSpanBegin, "cluster.begin_us"},
    {kSpanMultiGet, "cluster.multiget_us"},
    {kSpanGetForUpdate, "cluster.get_for_update_us"},
    {kSpanUpdate, "cluster.update_us"},
    {kSpanCommit, "cluster.commit_us"},
    {kSpanScanBatch, "cluster.scan_batch_us"},
};

void ForEachRpcClient(Cluster* cluster,
                      const std::function<void(globaldb::rpc::RpcClient&)>& f) {
  for (size_t i = 0; i < cluster->num_cns(); ++i) {
    CoordinatorNode& cn = cluster->cn(i);
    f(cn.rpc_client());
    f(cn.timestamp_source().rpc_client());
    f(cn.rcp_service().rpc_client());
  }
  for (ShardId shard = 0; shard < cluster->num_shards(); ++shard) {
    globaldb::LogShipper* shipper = cluster->data_node(shard).shipper();
    if (shipper != nullptr) f(shipper->rpc_client());
  }
}

/// Every histogram a per-layer metric reads, tagged with the group it is
/// merged into.
void ForEachHistogram(
    Cluster* cluster,
    const std::function<void(const std::string&, Histogram*)>& f) {
  ForEachRpcClient(cluster, [&f](globaldb::rpc::RpcClient& client) {
    for (const char* method : kRpcMethods) {
      const std::string name = std::string("rpc.") + method + ".latency";
      auto it = client.metrics().histograms().find(name);
      if (it != client.metrics().histograms().end()) {
        f(std::string("rpc.") + method, &it->second);
      }
    }
  });
  for (size_t i = 0; i < cluster->num_cns(); ++i) {
    globaldb::Metrics& m = cluster->cn(i).metrics();
    for (const char* name :
         {"cn.multiget_fanout", "cn.scan_fanout", "cn.precommit_us",
          "cn.commit_ts_us", "cn.commit_phase2_us"}) {
      f(name, &m.Hist(name));
    }
  }
  for (ShardId shard = 0; shard < cluster->num_shards(); ++shard) {
    globaldb::DataNode& dn = cluster->data_node(shard);
    f("durability.snapshot_bytes",
      &dn.metrics().Hist("durability.snapshot_bytes"));
    if (dn.shipper() == nullptr) continue;
    for (auto& [name, hist] : dn.shipper()->metrics().histograms()) {
      if (name.rfind("ship.lag.", 0) == 0) f("ship.lag", &hist);
    }
  }
}

std::map<std::string, int64_t> ReadCounters(Cluster* cluster) {
  std::map<std::string, int64_t> c;
  c["events"] = static_cast<int64_t>(cluster->simulator()->events_executed());
  globaldb::Metrics& net = cluster->network().metrics();
  c["msgs"] = net.Get("rpc.calls") + net.Get("send.messages");
  c["wan_bytes"] =
      net.Get("rpc.cross_region_bytes") + net.Get("send.cross_region_bytes");
  for (ShardId shard = 0; shard < cluster->num_shards(); ++shard) {
    globaldb::DataNode& dn = cluster->data_node(shard);
    globaldb::Metrics& m = dn.metrics();
    c["dn_busy_ns"] += dn.cpu().busy_ns();
    c["dn_queue_ns"] += dn.cpu().queue_delay_ns();
    c["lock_waits"] += dn.locks().metrics().Get("lock.waits");
    c["scan_rows_served"] +=
        m.Get("dn.scan_rows_returned") + m.Get("dn.scan_rows_filtered");
    c["versions_gced"] += m.Get("storage.versions_gced");
    const auto log_bytes = static_cast<int64_t>(dn.log().total_bytes());
    const auto replicas =
        static_cast<int64_t>(cluster->replicas_of(shard).size());
    c["log_bytes"] += log_bytes;
    c["redo_bytes_to_ship"] += log_bytes * replicas;
    if (dn.shipper() != nullptr) {
      c["ship_bytes"] += dn.shipper()->metrics().Get("ship.bytes");
    }
    for (globaldb::ReplicaNode* replica : cluster->replicas_of(shard)) {
      globaldb::Metrics& r = replica->metrics();
      c["replica_queue_ns"] += replica->cpu().queue_delay_ns();
      c["scan_rows_served"] +=
          r.Get("ror.scan_rows_returned") + r.Get("ror.scan_rows_filtered");
      c["versions_gced"] +=
          replica->applier().metrics().Get("storage.versions_gced");
    }
  }
  for (size_t i = 0; i < cluster->num_cns(); ++i) {
    CoordinatorNode& cn = cluster->cn(i);
    globaldb::Metrics& m = cn.metrics();
    c["cn_rpc_calls"] +=
        cn.rpc_client().metrics().Get("rpc.calls") +
        cn.timestamp_source().rpc_client().metrics().Get("rpc.calls");
    c["replica_read_batches"] +=
        m.Get("cn.read_batch_replica") + m.Get("cn.scan_batch_replica");
    c["primary_read_batches"] +=
        m.Get("cn.read_batch_primary") + m.Get("cn.scan_batch_primary");
  }
  ForEachRpcClient(cluster, [&c](globaldb::rpc::RpcClient& client) {
    c["rpc_retries"] += client.metrics().Get("rpc.retries");
    c["rpc_errors"] += client.metrics().Get("rpc.errors");
  });
  return c;
}

/// Nearest-rank percentile, as Histogram::Percentile computes it.
double Percentile(std::vector<int64_t> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto idx = static_cast<size_t>(p / 100.0 * (v.size() - 1));
  return static_cast<double>(v[std::min(idx, v.size() - 1)]);
}

double Mean(const std::vector<int64_t>& v) {
  if (v.empty()) return 0;
  double sum = 0;
  for (int64_t x : v) sum += static_cast<double>(x);
  return sum / static_cast<double>(v.size());
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

}  // namespace

void LayerProbe::Start(Cluster* cluster) {
  start_counters_ = ReadCounters(cluster);
  start_marks_.clear();
  ForEachHistogram(cluster, [this](const std::string&, Histogram* h) {
    start_marks_[h] = h->count();
  });
}

std::map<std::string, double> LayerProbe::Finish(Cluster* cluster,
                                                 const RunState& state,
                                                 int64_t txns,
                                                 double window_s) {
  std::map<std::string, int64_t> d = ReadCounters(cluster);
  for (auto& [name, value] : d) value -= start_counters_[name];
  // Samples recorded inside the window: histogram values are kept in
  // insertion order, so the window's samples sit past the start mark.
  std::map<std::string, std::vector<int64_t>> window;
  ForEachHistogram(cluster, [&](const std::string& group, Histogram* h) {
    auto it = start_marks_.find(h);
    const size_t from = it == start_marks_.end() ? 0 : it->second;
    const std::vector<int64_t>& values = h->values();
    std::vector<int64_t>& out = window[group];
    out.insert(out.end(), values.begin() + static_cast<ptrdiff_t>(from),
               values.end());
  });

  const double n = static_cast<double>(txns);
  auto per_txn = [&](const char* counter) {
    return Ratio(static_cast<double>(d[counter]), n);
  };
  std::map<std::string, double> m;
  m["sim.events_per_txn"] = per_txn("events");
  m["sim.msgs_per_txn"] = per_txn("msgs");
  m["sim.wan_bytes_per_txn"] = per_txn("wan_bytes");
  m["sim.dn_cpu_busy_us_per_txn"] = per_txn("dn_busy_ns") / 1e3;
  m["sim.dn_cpu_queue_us_per_txn"] = per_txn("dn_queue_ns") / 1e3;
  m["sim.replica_cpu_queue_us_per_txn"] = per_txn("replica_queue_ns") / 1e3;

  m["rpc.calls_per_txn"] = per_txn("cn_rpc_calls");
  for (const char* method : kRpcMethods) {
    const std::string group = std::string("rpc.") + method;
    m[group + ".p50_us"] = Percentile(window[group], 50) / 1e3;
    m[group + ".p99_us"] = Percentile(window[group], 99) / 1e3;
  }
  m["rpc.retries"] = static_cast<double>(d["rpc_retries"]);
  m["rpc.errors"] = static_cast<double>(d["rpc_errors"]);

  std::vector<std::vector<int64_t>> span_ns(kSpanCount);
  for (const Span& span : state.spans) {
    span_ns[span.name].push_back(span.end - span.start);
  }
  for (const auto& [name, metric] : kCallSpans) {
    m[metric] = Percentile(span_ns[name], 50) / 1e3;
  }
  m["cluster.multiget_fanout"] = Mean(window["cn.multiget_fanout"]);
  m["cluster.scan_fanout"] = Mean(window["cn.scan_fanout"]);
  m["cluster.ror_share"] = Ratio(
      static_cast<double>(d["replica_read_batches"]),
      static_cast<double>(d["replica_read_batches"] +
                          d["primary_read_batches"]));
  m["cluster.ror_staleness_ms"] = Percentile(state.staleness_ns, 50) / 1e6;

  m["txn.precommit_us"] = Percentile(window["cn.precommit_us"], 50);
  m["txn.commit_ts_us"] = Percentile(window["cn.commit_ts_us"], 50);
  m["txn.phase2_us"] = Percentile(window["cn.commit_phase2_us"], 50);
  m["txn.lock_waits_per_ktxn"] = per_txn("lock_waits") * 1e3;

  m["storage.rows_examined_per_row_returned"] =
      Ratio(static_cast<double>(d["scan_rows_served"]),
            static_cast<double>(state.scan_rows_received));
  size_t versions = 0;
  for (ShardId shard = 0; shard < cluster->num_shards(); ++shard) {
    versions += cluster->data_node(shard).store().VersionCount();
    for (globaldb::ReplicaNode* replica : cluster->replicas_of(shard)) {
      versions += replica->store().VersionCount();
    }
  }
  m["storage.versions_live"] = static_cast<double>(versions);
  m["storage.versions_gced_per_txn"] = per_txn("versions_gced");

  m["log.bytes_per_txn"] = per_txn("log_bytes");
  m["compression.ratio"] =
      Ratio(static_cast<double>(d["redo_bytes_to_ship"]),
            static_cast<double>(d["ship_bytes"]));

  m["replication.ship_bytes_per_txn"] = per_txn("ship_bytes");
  m["replication.lag_records_p99"] = Percentile(window["ship.lag"], 99);
  double checkpoint_bytes = 0;
  for (int64_t b : window["durability.snapshot_bytes"]) {
    checkpoint_bytes += static_cast<double>(b);
  }
  m["replication.checkpoint_mb_per_sim_s"] =
      Ratio(checkpoint_bytes / 1e6, window_s);
  return m;
}

const std::vector<MetricInfo>& LayerMetricInfo() {
  static const std::vector<MetricInfo> info = [] {
    std::vector<MetricInfo> v = {
        {"sim.events_per_txn", "count"},
        {"sim.msgs_per_txn", "count"},
        {"sim.wan_bytes_per_txn", "bytes"},
        {"sim.dn_cpu_busy_us_per_txn", "us"},
        {"sim.dn_cpu_queue_us_per_txn", "us"},
        {"sim.replica_cpu_queue_us_per_txn", "us"},
        {"rpc.calls_per_txn", "count"},
    };
    for (const char* method : kRpcMethods) {
      v.push_back({std::string("rpc.") + method + ".p50_us", "us"});
      v.push_back({std::string("rpc.") + method + ".p99_us", "us"});
    }
    v.push_back({"rpc.retries", "count"});
    v.push_back({"rpc.errors", "count"});
    for (const auto& [span, metric] : kCallSpans) v.push_back({metric, "us"});
    v.insert(v.end(), {
        {"cluster.multiget_fanout", "count"},
        {"cluster.scan_fanout", "count"},
        {"cluster.ror_share", "ratio"},
        {"cluster.ror_staleness_ms", "ms"},
        {"txn.precommit_us", "us"},
        {"txn.commit_ts_us", "us"},
        {"txn.phase2_us", "us"},
        {"txn.lock_waits_per_ktxn", "count"},
        {"storage.rows_examined_per_row_returned", "ratio"},
        {"storage.versions_live", "count"},
        {"storage.versions_gced_per_txn", "count"},
        {"log.bytes_per_txn", "bytes"},
        {"compression.ratio", "ratio"},
        {"replication.ship_bytes_per_txn", "bytes"},
        {"replication.lag_records_p99", "count"},
        {"replication.checkpoint_mb_per_sim_s", "MB/sim-s"},
    });
    return v;
  }();
  return info;
}

}  // namespace geobench

// Workload definitions, the seed-derived data set and the closed-loop
// terminals. Every transaction is issued here through CoordinatorNode's
// public calls; nothing goes through src/workload.

#include <algorithm>
#include <utility>

#include "bench.h"
#include "src/storage/schema.h"

namespace geobench {

using globaldb::kMillisecond;
using globaldb::kSecond;
using globaldb::Rng;
using globaldb::ScanSpec;
using globaldb::TxnHandle;
namespace sim = globaldb::sim;

namespace {

constexpr int kSelectsPerTxn = 10;
constexpr int kUpdatesPerTxn = 4;
constexpr int kRangesPerTxn = 4;
constexpr int64_t kRangeRows = 100;

// The simulated-window calibration (sim_seconds_per_second) was measured on
// a 4-core x86 server; README.md lists the wall-clock cost per workload.
const WorkloadSpec kWorkloads[] = {
    {"geo-rw", true, Mix::kReadWrite, 120, 1 * kSecond, 3.0, 10 * kSecond},
    {"geo-ro", true, Mix::kReadOnly, 48, 50 * kMillisecond, 0.036,
     500 * kMillisecond},
    {"local-rw", false, Mix::kReadWrite, 240, 100 * kMillisecond, 0.08,
     1500 * kMillisecond},
};

uint64_t MixBits(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

globaldb::TableSchema SbtestSchema(const std::string& name) {
  globaldb::TableSchema s;
  s.name = name;
  s.columns = {{"id", globaldb::ColumnType::kInt64},
               {"k", globaldb::ColumnType::kInt64},
               {"c", globaldb::ColumnType::kString},
               {"pad", globaldb::ColumnType::kString}};
  s.key_columns = {0};
  s.distribution_column = 0;
  return s;
}

sim::Task<void> CreateTables(CoordinatorNode* cn, Status* out, bool* done) {
  for (int t = 0; t < DataSet::kTables; ++t) {
    Status s = co_await cn->CreateTable(SbtestSchema(DataSet::TableName(t)));
    if (!s.ok()) {
      *out = s;
      break;
    }
  }
  *done = true;
}

const int64_t* IntAt(const Row& row, size_t i) {
  return i < row.size() ? std::get_if<int64_t>(&row[i]) : nullptr;
}
const std::string* StrAt(const Row& row, size_t i) {
  return i < row.size() ? std::get_if<std::string>(&row[i]) : nullptr;
}

std::string Where(int table, int64_t id) {
  return DataSet::TableName(table) + " id=" + std::to_string(id);
}

int64_t DrawId(Rng* rng) { return rng->UniformRange(1, DataSet::kRowsPerTable); }

/// One transaction's timing and spans, committed to the run state only when
/// the transaction ends inside the measured window.
class TxnRecord {
 public:
  TxnRecord(RunState* state, int32_t root)
      : state_(state),
        sim_(state->cluster->simulator()),
        root_(root),
        txn_(++state->next_txn),
        start_(sim_->now()) {}

  SimTime now() const { return sim_->now(); }

  void Call(int32_t name, SimTime start) {
    if (state_->trace) calls_.push_back({name, -1, txn_, start, now()});
  }
  void set_staleness(int64_t ns) { staleness_ns_ = ns; }
  void add_scan_rows(int64_t rows) { scan_rows_ += rows; }

  void Finish(const Status& status) {
    const SimTime end = now();
    RunState& s = *state_;
    if (end < s.measure_start || end >= s.measure_end) return;
    ++s.attempted;
    if (!status.ok()) {
      ++s.failed;
      ++s.failure_reasons[status.ToString()];
      return;
    }
    s.latency.Record(end - start_);
    if (staleness_ns_ != kNoStaleness) s.staleness_ns.push_back(staleness_ns_);
    s.scan_rows_received += scan_rows_;
    if (!s.trace) return;
    const int64_t root = static_cast<int64_t>(s.spans.size());
    s.spans.push_back({root_, -1, txn_, start_, end});
    for (Span span : calls_) {
      span.parent = root;
      s.spans.push_back(span);
    }
  }

 private:
  static constexpr int64_t kNoStaleness = INT64_MIN;

  RunState* state_;
  sim::Simulator* sim_;
  int32_t root_;
  uint64_t txn_;
  SimTime start_;
  std::vector<Span> calls_;
  int64_t staleness_ns_ = kNoStaleness;
  int64_t scan_rows_ = 0;
};

/// Reads and updates of one read-write transaction, up to (not including)
/// its commit. Returns the first error; the caller aborts on it.
sim::Task<Status> ReadWriteBody(RunState* state, CoordinatorNode* cn,
                                TxnHandle* txn, int table,
                                std::vector<int64_t> select_ids,
                                std::vector<int64_t> update_ids,
                                TxnRecord* record) {
  const DataSet& data = *state->data;
  const std::string name = DataSet::TableName(table);
  std::vector<Row> keys;
  keys.reserve(select_ids.size());
  for (int64_t id : select_ids) keys.push_back({id});

  SimTime t0 = record->now();
  auto rows = co_await cn->MultiGet(txn, name, keys);
  record->Call(kSpanMultiGet, t0);
  if (!rows.ok()) co_return rows.status();
  for (size_t i = 0; i < select_ids.size(); ++i) {
    ++state->reads_checked;
    const auto& row = (*rows)[i];
    if (!row.has_value()) {
      state->CheckFailed("MultiGet missed " + Where(table, select_ids[i]));
      continue;
    }
    const std::string bad = CheckUpdatedRow(data, table, select_ids[i], *row);
    if (!bad.empty()) state->CheckFailed(bad);
  }

  for (int64_t id : update_ids) {
    const Row key = {id};
    t0 = record->now();
    auto row = co_await cn->GetForUpdate(txn, name, key);
    record->Call(kSpanGetForUpdate, t0);
    if (!row.ok()) co_return row.status();
    ++state->reads_checked;
    if (!row->has_value()) {
      state->CheckFailed("GetForUpdate missed " + Where(table, id));
      co_return Status::NotFound("row to update is missing");
    }
    const std::string bad = CheckUpdatedRow(data, table, id, **row);
    if (!bad.empty()) {
      state->CheckFailed(bad);
      co_return Status::Corruption("row to update is wrong");
    }
    Row updated = **row;
    std::get<int64_t>(updated[1]) += 1;
    t0 = record->now();
    Status s = co_await cn->Update(txn, name, updated);
    record->Call(kSpanUpdate, t0);
    if (!s.ok()) co_return s;
  }
  co_return Status::OK();
}

sim::Task<void> ReadWriteTxn(RunState* state, CoordinatorNode* cn, Rng* rng) {
  const int table = static_cast<int>(rng->Uniform(DataSet::kTables));
  std::vector<int64_t> select_ids;
  for (int i = 0; i < kSelectsPerTxn; ++i) select_ids.push_back(DrawId(rng));
  // Distinct keys locked in ascending order, so terminals never deadlock.
  std::vector<int64_t> update_ids;
  while (update_ids.size() < kUpdatesPerTxn) {
    const int64_t id = DrawId(rng);
    if (std::find(update_ids.begin(), update_ids.end(), id) ==
        update_ids.end()) {
      update_ids.push_back(id);
    }
  }
  std::sort(update_ids.begin(), update_ids.end());

  TxnRecord record(state, kSpanTxnReadWrite);
  SimTime t0 = record.now();
  auto txn_or = co_await cn->Begin();
  record.Call(kSpanBegin, t0);
  if (!txn_or.ok()) {
    record.Finish(txn_or.status());
    co_return;
  }
  TxnHandle txn = std::move(*txn_or);
  Status s = co_await ReadWriteBody(state, cn, &txn, table,
                                    std::move(select_ids), update_ids,
                                    &record);
  t0 = record.now();
  if (s.ok()) {
    s = co_await cn->Commit(&txn);
    record.Call(kSpanCommit, t0);
    if (s.ok()) {
      state->acked_increments += static_cast<int64_t>(update_ids.size());
    }
  } else {
    (void)co_await cn->Abort(&txn);
    record.Call(kSpanAbort, t0);
  }
  record.Finish(s);
}

/// Ends a read-only transaction. Abort is the read-only close: it releases
/// the snapshot's pin on the GC horizon and commits nothing.
sim::Task<void> CloseReadOnly(CoordinatorNode* cn, TxnHandle* txn,
                              TxnRecord* record) {
  const SimTime t0 = record->now();
  (void)co_await cn->Abort(txn);
  record->Call(kSpanAbort, t0);
}

sim::Task<void> PointSelectTxn(RunState* state, CoordinatorNode* cn,
                               Rng* rng) {
  const int table = static_cast<int>(rng->Uniform(DataSet::kTables));
  const int64_t id = DrawId(rng);

  TxnRecord record(state, kSpanTxnPointSelect);
  SimTime t0 = record.now();
  auto txn_or = co_await cn->Begin(/*read_only=*/true, /*single_shard=*/true);
  record.Call(kSpanBegin, t0);
  if (!txn_or.ok()) {
    record.Finish(txn_or.status());
    co_return;
  }
  TxnHandle txn = std::move(*txn_or);
  record.set_staleness(record.now() - static_cast<int64_t>(txn.snapshot));
  const std::vector<Row> keys = {{id}};
  t0 = record.now();
  auto rows = co_await cn->MultiGet(&txn, DataSet::TableName(table), keys);
  record.Call(kSpanMultiGet, t0);
  Status s = rows.status();
  if (s.ok()) {
    ++state->reads_checked;
    if (rows->size() != 1 || !(*rows)[0].has_value()) {
      state->CheckFailed("point select missed " + Where(table, id));
    } else {
      const std::string bad =
          CheckLoadedRow(*state->data, table, id, *(*rows)[0]);
      if (!bad.empty()) state->CheckFailed(bad);
    }
  }
  co_await CloseReadOnly(cn, &txn, &record);
  record.Finish(s);
}

sim::Task<void> RangeSelectTxn(RunState* state, CoordinatorNode* cn,
                               Rng* rng) {
  std::vector<ScanSpec> specs(kRangesPerTxn);
  std::vector<std::pair<int, int64_t>> ranges;  // (table, first id)
  for (ScanSpec& spec : specs) {
    const int table = static_cast<int>(rng->Uniform(DataSet::kTables));
    const int64_t first =
        rng->UniformRange(1, DataSet::kRowsPerTable - kRangeRows + 1);
    spec.table = DataSet::TableName(table);
    globaldb::EncodeKeyPart(globaldb::Value(first), &spec.start);
    globaldb::EncodeKeyPart(globaldb::Value(first + kRangeRows), &spec.end);
    spec.limit = static_cast<uint32_t>(kRangeRows);
    ranges.emplace_back(table, first);
  }

  TxnRecord record(state, kSpanTxnRangeSelect);
  SimTime t0 = record.now();
  auto txn_or = co_await cn->Begin(/*read_only=*/true, /*single_shard=*/false);
  record.Call(kSpanBegin, t0);
  if (!txn_or.ok()) {
    record.Finish(txn_or.status());
    co_return;
  }
  TxnHandle txn = std::move(*txn_or);
  record.set_staleness(record.now() - static_cast<int64_t>(txn.snapshot));
  t0 = record.now();
  auto results = co_await cn->ScanBatch(&txn, std::move(specs));
  record.Call(kSpanScanBatch, t0);
  Status s = results.status();
  if (s.ok()) {
    for (size_t r = 0; r < ranges.size(); ++r) {
      const auto [table, first] = ranges[r];
      const std::vector<Row>& rows = (*results)[r].rows;
      record.add_scan_rows(static_cast<int64_t>(rows.size()));
      state->reads_checked += static_cast<int64_t>(rows.size());
      if (rows.size() != static_cast<size_t>(kRangeRows)) {
        state->CheckFailed("range at " + Where(table, first) + " returned " +
                           std::to_string(rows.size()) + " rows");
        continue;
      }
      for (int64_t i = 0; i < kRangeRows; ++i) {
        const std::string bad =
            CheckLoadedRow(*state->data, table, first + i, rows[i]);
        if (!bad.empty()) {
          state->CheckFailed("range row " + std::to_string(i) + ": " + bad);
          break;
        }
      }
    }
  }
  co_await CloseReadOnly(cn, &txn, &record);
  record.Finish(s);
}

sim::Task<void> Terminal(RunState* state, CoordinatorNode* cn, uint64_t seed,
                         int phase) {
  Rng rng(seed);
  for (int n = phase; !state->stop; ++n) {
    if (state->mix == Mix::kReadWrite) {
      co_await ReadWriteTxn(state, cn, &rng);
    } else if (n % 2 == 0) {
      co_await PointSelectTxn(state, cn, &rng);
    } else {
      co_await RangeSelectTxn(state, cn, &rng);
    }
  }
  --state->active_terminals;
}

}  // namespace

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : kWorkloads) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

std::vector<std::string> WorkloadNames() {
  std::vector<std::string> names;
  for (const WorkloadSpec& spec : kWorkloads) names.push_back(spec.name);
  return names;
}

ClusterOptions MakeClusterOptions(const WorkloadSpec& spec) {
  ClusterOptions o;
  o.topology = spec.three_city ? globaldb::sim::Topology::ThreeCity()
                               : globaldb::sim::Topology::SingleRegion();
  o.num_shards = 6;
  o.cns_per_region = spec.three_city ? 1 : 3;
  o.replicas_per_shard = 2;

  // CPU model of the repository's figure benches: the One-Region cluster is
  // CPU-bound at a few hundred terminals, geo latency dominates cross-city.
  o.data_node.cores = 2;
  o.data_node.read_cost = 25 * globaldb::kMicrosecond;
  o.data_node.write_cost = 35 * globaldb::kMicrosecond;
  o.data_node.commit_cost = 20 * globaldb::kMicrosecond;
  // Every transaction here locks its rows in ascending key order, so no
  // deadlock can form and the lock wait limit only cuts off legitimate
  // waits. Geo-rw transactions hold their locks for up to ~0.7 simulated s
  // (waits reach ~0.4 s), so the limit sits well above that.
  o.data_node.lock_timeout = 1 * kSecond;
  o.replica_node.cores = 2;
  o.replica_node.read_cost = 25 * globaldb::kMicrosecond;
  o.coordinator.cores = 4;
  o.coordinator.statement_cost = 5 * globaldb::kMicrosecond;

  // GlobalDB: GClock, async LZ-compressed redo shipping, BBR, Nagle off,
  // read-on-replica.
  o.initial_mode = globaldb::TimestampMode::kGclock;
  o.shipper.mode = globaldb::ReplicationMode::kAsync;
  o.shipper.compression = globaldb::CompressionType::kLz;
  o.network.nagle_enabled = false;
  o.network.bbr_enabled = true;
  o.coordinator.enable_ror = true;
  return o;
}

Row DataSet::LoadedRow(int table, int64_t id) const {
  Rng rng(MixBits(seed ^ MixBits((static_cast<uint64_t>(table) << 32) ^
                                 static_cast<uint64_t>(id))));
  const int64_t k = rng.UniformRange(1, kRowsPerTable);
  std::string c = rng.AlphaString(30, 60);
  std::string pad = rng.AlphaString(20, 40);
  return {id, k, std::move(c), std::move(pad)};
}

int64_t DataSet::LoadedK(int table, int64_t id) const {
  return std::get<int64_t>(LoadedRow(table, id)[1]);
}

int64_t DataSet::LoadedKSum() const {
  int64_t sum = 0;
  for (int t = 0; t < kTables; ++t) {
    for (int64_t id = 1; id <= kRowsPerTable; ++id) sum += LoadedK(t, id);
  }
  return sum;
}

Status LoadDataSet(Cluster* cluster, const DataSet& data) {
  constexpr globaldb::TxnId kLoadTxn = 1;
  constexpr globaldb::Timestamp kLoadTs = 1;
  sim::Simulator* sim = cluster->simulator();
  CoordinatorNode& cn = cluster->cn(0);
  Status ddl = Status::OK();
  bool done = false;
  sim->Spawn(CreateTables(&cn, &ddl, &done));
  while (!done) sim->RunFor(10 * kMillisecond);
  GDB_RETURN_IF_ERROR(ddl);

  const uint32_t shards = static_cast<uint32_t>(cluster->num_shards());
  for (int t = 0; t < DataSet::kTables; ++t) {
    const globaldb::TableSchema* schema =
        cn.catalog().FindTable(DataSet::TableName(t));
    if (schema == nullptr) return Status::Internal("table not in catalog");
    for (int64_t id = 1; id <= DataSet::kRowsPerTable; ++id) {
      const Row row = data.LoadedRow(t, id);
      const globaldb::RowKey key = schema->PrimaryKeyOf(row);
      std::string value;
      globaldb::EncodeRow(row, &value);
      const globaldb::ShardId shard =
          globaldb::RouteRowToShard(*schema, row, shards);
      for (globaldb::ReplicaNode* replica : cluster->replicas_of(shard)) {
        replica->store().GetOrCreateTable(schema->id)->ApplyInsert(
            key, value, kLoadTxn);
      }
      cluster->data_node(shard).store().GetOrCreateTable(schema->id)
          ->ApplyInsert(key, std::move(value), kLoadTxn);
    }
  }
  for (globaldb::ShardId shard = 0; shard < shards; ++shard) {
    cluster->data_node(shard).store().CommitTxn(kLoadTxn, kLoadTs);
    for (globaldb::ReplicaNode* replica : cluster->replicas_of(shard)) {
      replica->store().CommitTxn(kLoadTxn, kLoadTs);
    }
  }
  return Status::OK();
}

void RunState::CheckFailed(const std::string& what) {
  if (check_failures++ == 0) first_check_failure = what;
}

void StartTerminals(RunState* state, int terminals, uint64_t seed) {
  Cluster* cluster = state->cluster;
  Rng seeder(MixBits(seed ^ 0x7465726d696e616cULL));
  for (int c = 0; c < terminals; ++c) {
    CoordinatorNode* cn = &cluster->cn(static_cast<size_t>(c) %
                                       cluster->num_cns());
    ++state->active_terminals;
    cluster->simulator()->Spawn(Terminal(state, cn, seeder.Next(), c % 2));
  }
}

std::string CheckUpdatedRow(const DataSet& data, int table, int64_t id,
                            const Row& row) {
  const Row loaded = data.LoadedRow(table, id);
  const int64_t* got_id = IntAt(row, 0);
  const int64_t* got_k = IntAt(row, 1);
  const std::string* got_c = StrAt(row, 2);
  const std::string* got_pad = StrAt(row, 3);
  if (row.size() != 4 || got_id == nullptr || got_k == nullptr ||
      got_c == nullptr || got_pad == nullptr) {
    return "malformed row at " + Where(table, id);
  }
  if (*got_id != id) return "wrong id at " + Where(table, id);
  if (*got_c != std::get<std::string>(loaded[2]) ||
      *got_pad != std::get<std::string>(loaded[3])) {
    return "wrong c/pad at " + Where(table, id);
  }
  if (*got_k < std::get<int64_t>(loaded[1])) {
    return "k below its loaded value at " + Where(table, id);
  }
  return "";
}

std::string CheckLoadedRow(const DataSet& data, int table, int64_t id,
                           const Row& row) {
  if (row != data.LoadedRow(table, id)) {
    return "row differs from the loaded row at " + Where(table, id);
  }
  return "";
}

}  // namespace geobench

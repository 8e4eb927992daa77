// Correctness audits run at the end of every workload, and a self-test that
// plants faults to show each audit can fail.

#include <cstdio>

#include "bench.h"
#include "src/storage/value.h"

namespace geobench {

using globaldb::kMillisecond;
using globaldb::kSecond;
using globaldb::Lsn;
using globaldb::ShardId;
using globaldb::ShardStore;
namespace sim = globaldb::sim;

namespace {

/// Latest committed state: every live version is visible at this snapshot.
constexpr globaldb::Timestamp kLatest = globaldb::kTimestampMax - 1;

uint64_t Fnv(uint64_t h, const void* data, size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

struct StoreDigest {
  uint64_t hash = 0xcbf29ce484222325ULL;
  int64_t rows = 0;
  bool operator==(const StoreDigest&) const = default;
};

/// Order-sensitive digest of every visible row (table id, key, value).
StoreDigest DigestStore(const ShardStore& store) {
  StoreDigest d;
  for (const auto& [id, table] : store.tables()) {
    for (const auto& entry :
         table->Scan("", "", kLatest, globaldb::kInvalidTxnId, SIZE_MAX,
                     nullptr)) {
      d.hash = Fnv(d.hash, &id, sizeof(id));
      d.hash = Fnv(d.hash, entry.key.data(), entry.key.size());
      d.hash = Fnv(d.hash, entry.value.data(), entry.value.size());
      ++d.rows;
    }
  }
  return d;
}

/// Runs the simulator until every terminal has returned and every replica
/// has applied its primary's redo tail. False when either does not happen
/// within the simulated deadline.
bool Drain(RunState* state, std::string* why) {
  Cluster* cluster = state->cluster;
  sim::Simulator* sim = cluster->simulator();
  state->stop = true;
  SimTime deadline = sim->now() + 30 * kSecond;
  while (state->active_terminals > 0 && sim->now() < deadline) {
    sim->RunFor(10 * kMillisecond);
  }
  if (state->active_terminals > 0) {
    *why = std::to_string(state->active_terminals) +
           " terminals still running 30 simulated s after the window";
    return false;
  }
  // Let background phase-2 rounds land before fixing the redo targets.
  sim->RunFor(1 * kSecond);
  std::vector<Lsn> target;
  for (ShardId shard = 0; shard < cluster->num_shards(); ++shard) {
    target.push_back(cluster->data_node(shard).log().next_lsn() - 1);
  }
  deadline = sim->now() + 30 * kSecond;
  while (true) {
    bool caught_up = true;
    for (ShardId shard = 0; shard < cluster->num_shards(); ++shard) {
      for (globaldb::ReplicaNode* replica : cluster->replicas_of(shard)) {
        caught_up =
            caught_up && replica->applier().applied_lsn() >= target[shard];
      }
    }
    if (caught_up) return true;
    if (sim->now() >= deadline) break;
    sim->RunFor(10 * kMillisecond);
  }
  *why = "replicas did not apply their primary's redo tail within 30 "
         "simulated s";
  return false;
}

/// Sum of column k over every row, read from the primaries' stores.
int64_t PrimaryKSum(Cluster* cluster) {
  int64_t sum = 0;
  for (ShardId shard = 0; shard < cluster->num_shards(); ++shard) {
    const ShardStore& store = cluster->data_node(shard).store();
    for (const auto& [id, table] : store.tables()) {
      for (const auto& entry :
           table->Scan("", "", kLatest, globaldb::kInvalidTxnId, SIZE_MAX,
                       nullptr)) {
        Row row;
        if (!globaldb::DecodeRow(entry.value, &row).ok() || row.size() < 2 ||
            !std::holds_alternative<int64_t>(row[1])) {
          return INT64_MIN;  // cannot match any expected sum
        }
        sum += std::get<int64_t>(row[1]);
      }
    }
  }
  return sum;
}

/// Compares an order-sensitive digest of each replica's visible rows with one
/// computed, separately, over its primary's rows.
void AuditReplicas(Cluster* cluster, AuditResult* result) {
  int replicas = 0;
  int matching = 0;
  std::string first_mismatch;
  for (ShardId shard = 0; shard < cluster->num_shards(); ++shard) {
    const StoreDigest primary = DigestStore(cluster->data_node(shard).store());
    for (globaldb::ReplicaNode* replica : cluster->replicas_of(shard)) {
      ++replicas;
      const StoreDigest copy = DigestStore(replica->store());
      if (copy == primary) {
        ++matching;
      } else if (first_mismatch.empty()) {
        first_mismatch = " (first: replica " +
                         std::to_string(replica->node_id()) + " has " +
                         std::to_string(copy.rows) + " rows vs " +
                         std::to_string(primary.rows) + " on its primary)";
      }
    }
  }
  result->Add(matching == replicas,
              std::to_string(matching) + "/" + std::to_string(replicas) +
                  " replicas hold exactly their primary's rows" +
                  first_mismatch);
}

void AuditSum(RunState* state, AuditResult* result) {
  const int64_t expected =
      state->data->LoadedKSum() + state->acked_increments;
  const int64_t actual = PrimaryKSum(state->cluster);
  result->Add(actual == expected,
              "sum(k) on primaries " + std::to_string(actual) +
                  (actual == expected ? " == " : " != ") +
                  "loaded sum + acknowledged increments " +
                  std::to_string(expected));
}

void AuditReads(const RunState& state, AuditResult* result) {
  result->Add(state.check_failures == 0,
              std::to_string(state.reads_checked) + " rows read, " +
                  std::to_string(state.check_failures) + " wrong" +
                  (state.check_failures == 0
                       ? ""
                       : " (first: " + state.first_check_failure + ")"));
}

void AuditResolved(Cluster* cluster, AuditResult* result) {
  size_t provisional = 0;
  for (ShardId shard = 0; shard < cluster->num_shards(); ++shard) {
    provisional += cluster->data_node(shard).store().ProvisionalTxns().size();
  }
  result->Add(provisional == 0,
              std::to_string(provisional) +
                  " unresolved transactions on the primaries after drain");
}

}  // namespace

void AuditResult::Add(bool pass, const std::string& line) {
  ok = ok && pass;
  lines.push_back(std::string(pass ? "ok   " : "FAIL ") + line);
}

AuditResult RunAudits(RunState* state) {
  AuditResult result;
  std::string why;
  const bool drained = Drain(state, &why);
  result.Add(drained, drained ? "terminals and replication drained" : why);
  AuditReads(*state, &result);
  AuditResolved(state->cluster, &result);
  AuditSum(state, &result);
  AuditReplicas(state->cluster, &result);
  return result;
}

int SelfTest() {
  const WorkloadSpec* spec = FindWorkload("local-rw");
  sim::Simulator simulator(7);
  Cluster cluster(&simulator, MakeClusterOptions(*spec));
  cluster.Start();
  DataSet data;
  data.seed = 7;
  Status s = LoadDataSet(&cluster, data);
  if (!s.ok()) {
    printf("selftest: load failed: %s\n", s.ToString().c_str());
    return 1;
  }
  cluster.WaitForRcp();
  RunState state;
  state.cluster = &cluster;
  state.data = &data;
  state.mix = spec->mix;
  state.measure_start = simulator.now();
  state.measure_end = simulator.now() + 300 * kMillisecond;
  StartTerminals(&state, 24, 7);
  simulator.RunUntil(state.measure_end);

  bool pass = true;
  auto expect = [&pass](const char* what, const AuditResult& r, bool ok) {
    pass = pass && r.ok == ok;
    printf("selftest: %-32s %s\n", what,
           r.ok == ok ? (ok ? "passes" : "fails as it must") : "WRONG");
    for (const std::string& line : r.lines) printf("    %s\n", line.c_str());
  };
  const AuditResult clean = RunAudits(&state);
  expect("clean run", clean, true);
  if (state.acked_increments == 0) {
    printf("selftest: no transaction committed\n");
    pass = false;
  }

  // Fault 1: one replica row altered behind replication's back.
  globaldb::ReplicaNode* replica = cluster.replicas_of(0)[0];
  globaldb::MvccTable* table = replica->store().tables().begin()->second.get();
  const auto first =
      table->Scan("", "", kLatest, globaldb::kInvalidTxnId, 1, nullptr);
  constexpr globaldb::TxnId kFaultTxn = 2;
  table->ApplyUpdate(first.at(0).key, first.at(0).value + "x", kFaultTxn);
  replica->store().CommitTxn(kFaultTxn, kLatest - 1);
  AuditResult altered;
  AuditReplicas(&cluster, &altered);
  expect("one replica row altered", altered, false);

  // Fault 2: one acknowledged increment dropped from the client's tally.
  --state.acked_increments;
  AuditResult dropped;
  AuditSum(&state, &dropped);
  expect("one increment dropped", dropped, false);
  ++state.acked_increments;

  // Fault 3: wrong rows handed to the read checks.
  Row row = data.LoadedRow(0, 1);
  std::get<std::string>(row[2]) += "x";
  const bool ro_caught = !CheckLoadedRow(data, 0, 1, row).empty();
  row = data.LoadedRow(0, 1);
  std::get<int64_t>(row[1]) -= 1;
  const bool rw_caught = !CheckUpdatedRow(data, 0, 1, row).empty();
  printf("selftest: %-32s %s\n", "wrong rows read",
         ro_caught && rw_caught ? "fails as it must" : "WRONG");
  pass = pass && ro_caught && rw_caught;

  printf("selftest: %s\n", pass ? "PASS" : "FAIL");
  return pass ? 0 : 1;
}

}  // namespace geobench

// Batched multi-get on the CN (DESIGN.md §11): MultiGet dedups its key
// set, runs the read-your-writes check with at most one flush barrier,
// groups keys by shard, and fans the groups out as parallel
// kDnReadBatch/kRorReadBatch RPCs. These tests pin down duplicate-key
// dedup, partial misses, the single flush barrier over buffered writes,
// mixed replica/primary routing, per-group failover when a replica dies
// mid-batch, and byte-identical equivalence with serial Get/GetForUpdate.

#include "src/cluster/cluster.h"

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "src/chaos/fault_scheduler.h"

namespace globaldb {
namespace {

TableSchema AccountsSchema() {
  TableSchema s;
  s.name = "accounts";
  s.columns = {{"id", ColumnType::kInt64},
               {"owner", ColumnType::kString},
               {"balance", ColumnType::kInt64}};
  s.key_columns = {0};
  s.distribution_column = 0;
  return s;
}

class MultiGetTest : public ::testing::Test {
 public:  // accessed from coroutine lambdas in tests
  MultiGetTest() : sim_(71) {}

  void Build(ClusterOptions options) {
    cluster_ = std::make_unique<Cluster>(&sim_, std::move(options));
    cluster_->Start();
  }

  static ClusterOptions ThreeCityOptions() {
    ClusterOptions o;
    o.topology = sim::Topology::ThreeCity();
    o.network.nagle_enabled = false;
    // Calls into a dead node fail in 200 ms instead of the 5 s default.
    o.network.rpc_timeout = 200 * kMillisecond;
    o.num_shards = 6;
    o.replicas_per_shard = 2;
    o.initial_mode = TimestampMode::kGclock;
    return o;
  }

  template <typename T>
  T RunTask(sim::Task<T> task) {
    std::optional<T> result;
    auto wrapper = [](sim::Task<T> t, std::optional<T>* out) -> sim::Task<void> {
      *out = co_await std::move(t);
    };
    sim_.Spawn(wrapper(std::move(task), &result));
    while (!result.has_value()) {
      sim_.RunFor(1 * kMillisecond);
    }
    return std::move(*result);
  }

  /// Sum of a metric across every primary data node.
  int64_t DnTotal(const std::string& name) {
    int64_t total = 0;
    for (size_t s = 0; s < cluster_->num_shards(); ++s) {
      total += cluster_->data_node(s).metrics().Get(name);
    }
    return total;
  }

  /// Every sample of a histogram, concatenated across the primaries.
  std::vector<int64_t> DnHistValues(const std::string& name) {
    std::vector<int64_t> all;
    for (size_t s = 0; s < cluster_->num_shards(); ++s) {
      const auto& values =
          cluster_->data_node(s).metrics().Hist(name).values();
      all.insert(all.end(), values.begin(), values.end());
    }
    return all;
  }

  size_t TotalLocksHeld() {
    size_t total = 0;
    for (size_t s = 0; s < cluster_->num_shards(); ++s) {
      total += cluster_->data_node(s).locks().TotalHeld();
    }
    return total;
  }

  /// First `n` account ids (starting at `from`) that route to `shard`.
  std::vector<int64_t> IdsOnShard(ShardId shard, int n, int64_t from = 1) {
    TableSchema schema = AccountsSchema();
    std::vector<int64_t> ids;
    for (int64_t id = from; ids.size() < static_cast<size_t>(n); ++id) {
      Row row = {id, std::string("o"), int64_t{0}};
      if (RouteRowToShard(schema, row, cluster_->num_shards()) == shard) {
        ids.push_back(id);
      }
    }
    return ids;
  }

  /// Inserts and commits one account row per id (balance = id * 10).
  sim::Task<Status> WriteIds(CoordinatorNode* cn, std::vector<int64_t> ids) {
    auto txn = co_await cn->Begin();
    if (!txn.ok()) co_return txn.status();
    for (int64_t id : ids) {
      Row row = {id, std::string("owner"), id * 10};
      Status s = co_await cn->Insert(&*txn, "accounts", row);
      if (!s.ok()) {
        (void)co_await cn->Abort(&*txn);
        co_return s;
      }
    }
    co_return co_await cn->Commit(&*txn);
  }

  sim::Simulator sim_;
  std::unique_ptr<Cluster> cluster_;
};

// Duplicate keys are fetched once and fanned back to every requesting
// slot; missing keys come back as nullopt without failing the batch.
TEST_F(MultiGetTest, DedupsDuplicatesAndReportsPartialMisses) {
  Build(ThreeCityOptions());
  auto& cn = cluster_->cn(0);
  ASSERT_TRUE(RunTask(cn.CreateTable(AccountsSchema())).ok());
  ASSERT_TRUE(RunTask(WriteIds(&cn, {1, 2, 3})).ok());

  auto work = [this, &cn]() -> sim::Task<StatusOr<std::vector<std::optional<Row>>>> {
    auto txn = co_await cn.Begin();  // read-write: all groups go to primaries
    if (!txn.ok()) co_return txn.status();
    std::vector<Row> keys = {{int64_t{1}}, {int64_t{3}}, {int64_t{999}},
                             {int64_t{3}}, {int64_t{1}}};
    auto rows = co_await cn.MultiGet(&*txn, "accounts", keys);
    Status done = co_await cn.Commit(&*txn);
    if (!done.ok()) co_return done;
    co_return rows;
  };
  auto rows = RunTask(work());
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 5u);
  // 5 requested slots, 3 unique keys: the data nodes saw exactly 3 reads.
  EXPECT_EQ(DnTotal("dn.batched_reads"), 3);
  EXPECT_EQ(cn.metrics().Hist("cn.read_batch_size").values().back(), 3);
  // Misses are nullopt; duplicates got identical rows.
  ASSERT_TRUE((*rows)[0].has_value());
  ASSERT_TRUE((*rows)[1].has_value());
  EXPECT_FALSE((*rows)[2].has_value());
  EXPECT_EQ((*rows)[3], (*rows)[1]);
  EXPECT_EQ((*rows)[4], (*rows)[0]);
  EXPECT_EQ(std::get<int64_t>((*(*rows)[0])[2]), 10);
  EXPECT_EQ(std::get<int64_t>((*(*rows)[1])[2]), 30);
}

// A MultiGet overlapping the transaction's own buffered writes flushes
// exactly once for the whole key set — not once per overlapping key — and
// then observes every buffered write.
TEST_F(MultiGetTest, ReadYourBufferedWritesWithOneFlushBarrier) {
  Build(ThreeCityOptions());
  auto& cn = cluster_->cn(0);
  ASSERT_TRUE(RunTask(cn.CreateTable(AccountsSchema())).ok());
  ASSERT_TRUE(RunTask(WriteIds(&cn, {50, 51})).ok());

  auto work = [this, &cn]() -> sim::Task<Status> {
    auto txn = co_await cn.Begin();
    if (!txn.ok()) co_return txn.status();
    // Four buffered inserts (threshold 16: nothing departs on its own).
    for (int64_t id = 1; id <= 4; ++id) {
      Row row = {id, std::string("owner"), id * 100};
      Status s = co_await cn.Insert(&*txn, "accounts", row);
      if (!s.ok()) co_return s;
    }
    // All four buffered keys plus two committed ones in one MultiGet.
    std::vector<Row> keys = {{int64_t{1}}, {int64_t{2}}, {int64_t{3}},
                             {int64_t{4}}, {int64_t{50}}, {int64_t{51}}};
    auto rows = co_await cn.MultiGet(&*txn, "accounts", keys);
    if (!rows.ok()) co_return rows.status();
    for (int64_t id = 1; id <= 4; ++id) {
      EXPECT_TRUE((*rows)[id - 1].has_value()) << id;
      if ((*rows)[id - 1].has_value()) {
        EXPECT_EQ(std::get<int64_t>((*(*rows)[id - 1])[2]), id * 100);
      }
    }
    EXPECT_TRUE((*rows)[4].has_value());
    EXPECT_TRUE((*rows)[5].has_value());
    co_return co_await cn.Commit(&*txn);
  };
  ASSERT_TRUE(RunTask(work()).ok());
  EXPECT_EQ(cn.metrics().Get("cn.multiget_flush_barriers"), 1);
  EXPECT_EQ(TotalLocksHeld(), 0u);
}

// A ROR transaction whose key set spans a shard with healthy replicas and
// a shard whose replicas are all down routes the two groups differently:
// one batch to a replica, one to the primary, in the same fan-out.
TEST_F(MultiGetTest, MixedReplicaAndPrimaryRouting) {
  Build(ThreeCityOptions());
  auto& cn = cluster_->cn(0);
  ASSERT_TRUE(RunTask(cn.CreateTable(AccountsSchema())).ok());

  // Both shards are mastered in a remote region, so with healthy replicas
  // the local-region replica wins the routing cost comparison. Killing
  // shard A's replicas forces only that group back to its remote primary.
  const ShardId shard_a = 1;
  const ShardId shard_b = 4;
  std::vector<int64_t> a_ids = IdsOnShard(shard_a, 2);
  std::vector<int64_t> b_ids = IdsOnShard(shard_b, 2);
  std::vector<int64_t> all = a_ids;
  all.insert(all.end(), b_ids.begin(), b_ids.end());
  ASSERT_TRUE(RunTask(WriteIds(&cn, all)).ok());
  cluster_->WaitForRcp();
  sim_.RunFor(500 * kMillisecond);  // RCP covers the commits above

  // Kill every replica of shard A and let the RCP poller notice: the
  // selector marks them unhealthy, so shard A's group must go primary.
  for (ReplicaNode* replica : cluster_->replicas_of(shard_a)) {
    cluster_->network().SetNodeUp(replica->node_id(), false);
  }
  sim_.RunFor(600 * kMillisecond);

  auto work = [this, &cn, all]() -> sim::Task<StatusOr<std::vector<std::optional<Row>>>> {
    auto txn = co_await cn.Begin(/*read_only=*/true);
    if (!txn.ok()) co_return txn.status();
    EXPECT_TRUE(txn->use_ror);
    std::vector<Row> keys;
    for (int64_t id : all) keys.push_back({id});
    co_return co_await cn.MultiGet(&*txn, "accounts", keys);
  };
  auto rows = RunTask(work());
  ASSERT_TRUE(rows.ok());
  for (size_t i = 0; i < all.size(); ++i) {
    ASSERT_TRUE((*rows)[i].has_value()) << all[i];
    EXPECT_EQ(std::get<int64_t>((*(*rows)[i])[2]), all[i] * 10);
  }
  EXPECT_GE(cn.metrics().Get("cn.read_batch_primary"), 1);
  EXPECT_GE(cn.metrics().Get("cn.read_batch_replica"), 1);
  EXPECT_GE(DnTotal("dn.batched_reads"), 2);  // shard A's group on primary
}

// A replica that dies between routing and delivery fails over only its own
// group to the shard primary (cn.replica_failovers), and the MultiGet
// still returns exactly the rows a serial Get sequence sees.
TEST_F(MultiGetTest, ReplicaCrashMidBatchFailsOverOneGroup) {
  Build(ThreeCityOptions());
  auto& cn = cluster_->cn(0);
  ASSERT_TRUE(RunTask(cn.CreateTable(AccountsSchema())).ok());

  const ShardId shard_a = 1;
  const ShardId shard_b = 4;
  std::vector<int64_t> a_ids = IdsOnShard(shard_a, 2);
  std::vector<int64_t> b_ids = IdsOnShard(shard_b, 2);
  std::vector<int64_t> all = a_ids;
  all.insert(all.end(), b_ids.begin(), b_ids.end());
  ASSERT_TRUE(RunTask(WriteIds(&cn, all)).ok());
  cluster_->WaitForRcp();
  sim_.RunFor(500 * kMillisecond);

  // Freeze the RCP poller so the crash below goes unnoticed by the
  // selector: the MultiGet must discover the dead replica itself, on the
  // wire, and fail over mid-batch (the serial path's failover semantics).
  for (size_t c = 0; c < cluster_->num_cns(); ++c) {
    cluster_->cn(c).rcp_service().Deactivate();
  }

  // Chaos-style scripted crash of both shard A replicas just before the
  // read fires.
  const SimTime base = sim_.now();
  chaos::FaultScheduler faults(cluster_.get());
  for (ReplicaNode* replica : cluster_->replicas_of(shard_a)) {
    chaos::FaultEvent e;
    e.kind = chaos::FaultKind::kNodeCrash;
    e.at = base + 50 * kMillisecond;
    e.node = replica->node_id();
    faults.AddEvent(e);
  }
  faults.Start();

  auto work = [this, &cn, all]() -> sim::Task<Status> {
    co_await sim_.Sleep(60 * kMillisecond);  // crash has happened
    auto txn = co_await cn.Begin(/*read_only=*/true);
    if (!txn.ok()) co_return txn.status();
    EXPECT_TRUE(txn->use_ror);
    std::vector<Row> keys;
    for (int64_t id : all) keys.push_back({id});
    auto batched = co_await cn.MultiGet(&*txn, "accounts", keys);
    if (!batched.ok()) co_return batched.status();

    // Serial Gets in the same transaction (same snapshot) must agree
    // byte for byte, failover or not.
    for (size_t i = 0; i < all.size(); ++i) {
      Row key = {all[i]};
      auto serial = co_await cn.Get(&*txn, "accounts", key);
      if (!serial.ok()) co_return serial.status();
      EXPECT_EQ((*batched)[i], *serial) << all[i];
      EXPECT_TRUE((*batched)[i].has_value()) << all[i];
      if ((*batched)[i].has_value()) {
        EXPECT_EQ(std::get<int64_t>((*(*batched)[i])[2]), all[i] * 10);
      }
    }
    co_return Status::OK();
  };
  ASSERT_TRUE(RunTask(work()).ok());
  EXPECT_GE(cn.metrics().Get("cn.replica_failovers"), 1);
}

// In one read-write transaction, MultiGet (including a locked key) returns
// exactly what the equivalent serial Get/GetForUpdate calls return, and
// the for_update entry really holds its lock until commit.
TEST_F(MultiGetTest, MatchesSerialReadsByteForByte) {
  Build(ThreeCityOptions());
  auto& cn = cluster_->cn(0);
  ASSERT_TRUE(RunTask(cn.CreateTable(AccountsSchema())).ok());
  ASSERT_TRUE(RunTask(WriteIds(&cn, {1, 2, 3, 4, 5, 6, 7, 8})).ok());

  auto work = [this, &cn]() -> sim::Task<Status> {
    auto txn = co_await cn.Begin();
    if (!txn.ok()) co_return txn.status();
    std::vector<MultiGetKey> keys;
    for (int64_t id = 1; id <= 8; ++id) {
      keys.push_back({"accounts", {id}, /*for_update=*/id == 5});
    }
    keys.push_back({"accounts", {int64_t{777}}, false});  // a miss
    auto batched = co_await cn.MultiGet(&*txn, keys);
    if (!batched.ok()) co_return batched.status();

    // The locked entry took its row lock on the primary.
    EXPECT_GE(TotalLocksHeld(), 1u);

    for (size_t i = 0; i < keys.size(); ++i) {
      if (keys[i].for_update) {
        auto serial =
            co_await cn.GetForUpdate(&*txn, "accounts", keys[i].key_values);
        if (!serial.ok()) co_return serial.status();
        EXPECT_EQ((*batched)[i], *serial) << i;
      } else {
        auto serial = co_await cn.Get(&*txn, "accounts", keys[i].key_values);
        if (!serial.ok()) co_return serial.status();
        EXPECT_EQ((*batched)[i], *serial) << i;
      }
    }
    EXPECT_FALSE((*batched)[8].has_value());
    co_return co_await cn.Commit(&*txn);
  };
  ASSERT_TRUE(RunTask(work()).ok());
  EXPECT_EQ(TotalLocksHeld(), 0u);
}

// Disabling read batching degrades MultiGet to the serial path with
// identical results — the ablation baseline stays correct. Each key is its
// own round trip: a one-entry read batch.
TEST_F(MultiGetTest, DisabledBatchingFallsBackToSerialWithSameRows) {
  ClusterOptions options = ThreeCityOptions();
  options.coordinator.enable_read_batching = false;
  Build(options);
  auto& cn = cluster_->cn(0);
  ASSERT_TRUE(RunTask(cn.CreateTable(AccountsSchema())).ok());
  ASSERT_TRUE(RunTask(WriteIds(&cn, {1, 2, 3})).ok());

  auto work = [this, &cn]() -> sim::Task<StatusOr<std::vector<std::optional<Row>>>> {
    auto txn = co_await cn.Begin();
    if (!txn.ok()) co_return txn.status();
    std::vector<Row> keys = {{int64_t{1}}, {int64_t{404}}, {int64_t{3}}};
    auto rows = co_await cn.MultiGet(&*txn, "accounts", keys);
    Status done = co_await cn.Commit(&*txn);
    if (!done.ok()) co_return done;
    co_return rows;
  };
  auto rows = RunTask(work());
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 3u);
  EXPECT_TRUE((*rows)[0].has_value());
  EXPECT_FALSE((*rows)[1].has_value());
  EXPECT_TRUE((*rows)[2].has_value());
  // No MultiGet statement ran: the serial path sent one one-entry batch
  // per key.
  EXPECT_EQ(cn.metrics().Get("cn.multigets"), 0);
  EXPECT_EQ(DnTotal("dn.read_batches"), 3);
  for (int64_t entries : DnHistValues("dn.read_batch_entries")) {
    EXPECT_EQ(entries, 1);
  }
}

// Get and GetForUpdate ride MultiGet's batched path with one key: each
// costs exactly one RPC, a one-entry read batch, and neither records the
// MultiGet statement stats.
TEST_F(MultiGetTest, GetAndGetForUpdateEachCostOneOneEntryBatch) {
  Build(ThreeCityOptions());
  auto& cn = cluster_->cn(0);
  ASSERT_TRUE(RunTask(cn.CreateTable(AccountsSchema())).ok());
  ASSERT_TRUE(RunTask(WriteIds(&cn, {1, 2})).ok());

  auto work = [this, &cn]() -> sim::Task<Status> {
    auto txn = co_await cn.Begin();
    if (!txn.ok()) co_return txn.status();
    // The CN's client also carries background traffic (horizon polls), so
    // count the read-batch calls by their latency samples.
    auto& calls =
        cn.rpc_client().metrics().Hist("rpc.dn.read_batch.latency");
    const size_t before = calls.count();

    Row key1 = {int64_t{1}};
    auto plain = co_await cn.Get(&*txn, "accounts", key1);
    if (!plain.ok()) co_return plain.status();
    EXPECT_TRUE(plain->has_value());
    EXPECT_EQ(calls.count(), before + 1);
    EXPECT_EQ(DnTotal("dn.read_batches"), 1);
    EXPECT_EQ(DnTotal("dn.batched_reads"), 1);
    EXPECT_EQ(TotalLocksHeld(), 0u);

    Row key2 = {int64_t{2}};
    auto locked = co_await cn.GetForUpdate(&*txn, "accounts", key2);
    if (!locked.ok()) co_return locked.status();
    EXPECT_TRUE(locked->has_value());
    EXPECT_EQ(calls.count(), before + 2);
    EXPECT_EQ(DnTotal("dn.read_batches"), 2);
    EXPECT_EQ(DnTotal("dn.batched_reads"), 2);
    EXPECT_EQ(TotalLocksHeld(), 1u);
    co_return co_await cn.Commit(&*txn);
  };
  ASSERT_TRUE(RunTask(work()).ok());
  for (int64_t entries : DnHistValues("dn.read_batch_entries")) {
    EXPECT_EQ(entries, 1);
  }
  EXPECT_EQ(cn.metrics().Get("cn.multigets"), 0);
  EXPECT_EQ(cn.metrics().Hist("cn.read_batch_size").count(), 0u);
  EXPECT_EQ(cn.metrics().Hist("cn.multiget_fanout").count(), 0u);
  EXPECT_EQ(TotalLocksHeld(), 0u);
}

// A GetForUpdate whose lock wait times out fails the statement, but its
// shard already joined the write set when the RPC departed: the abort
// reaches that shard, and once the holder ends no lock is left behind.
TEST_F(MultiGetTest, TimedOutGetForUpdateLeavesNoLocksAfterAbort) {
  ClusterOptions options = ThreeCityOptions();
  // The lock wait gives up well inside the 200 ms RPC timeout, so the
  // timeout comes back as the entry's status rather than a lost reply.
  options.data_node.lock_timeout = 50 * kMillisecond;
  Build(options);
  auto& cn = cluster_->cn(0);
  ASSERT_TRUE(RunTask(cn.CreateTable(AccountsSchema())).ok());
  ASSERT_TRUE(RunTask(WriteIds(&cn, {1})).ok());

  auto work = [this, &cn]() -> sim::Task<Status> {
    auto holder = co_await cn.Begin();
    if (!holder.ok()) co_return holder.status();
    Row key = {int64_t{1}};
    auto held = co_await cn.GetForUpdate(&*holder, "accounts", key);
    if (!held.ok()) co_return held.status();
    EXPECT_EQ(TotalLocksHeld(), 1u);

    auto waiter = co_await cn.Begin();
    if (!waiter.ok()) co_return waiter.status();
    auto blocked = co_await cn.GetForUpdate(&*waiter, "accounts", key);
    EXPECT_EQ(blocked.status().code(), StatusCode::kTimedOut);
    EXPECT_EQ(waiter->write_shards.size(), 1u);
    const int64_t aborts = DnTotal("dn.aborts");
    Status aborted = co_await cn.Abort(&*waiter);
    if (!aborted.ok()) co_return aborted;
    EXPECT_EQ(DnTotal("dn.aborts"), aborts + 1);
    // The waiter's abort released nothing of the holder's.
    EXPECT_EQ(TotalLocksHeld(), 1u);
    co_return co_await cn.Abort(&*holder);
  };
  ASSERT_TRUE(RunTask(work()).ok());
  EXPECT_EQ(TotalLocksHeld(), 0u);
}

}  // namespace
}  // namespace globaldb

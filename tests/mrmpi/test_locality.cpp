// Tests for the location-aware master-worker scheduler (the paper's
// Section V first improvement).
#include <gtest/gtest.h>

#include <map>
#include <mutex>
#include <set>

#include "common/error.hpp"
#include "mrmpi/mapreduce.hpp"
#include "sim/engine.hpp"

namespace mrbio::mrmpi {
namespace {

struct LocalityTrace {
  std::multiset<std::uint64_t> tasks_run;
  std::map<int, std::vector<std::uint64_t>> keys_by_rank;  ///< affinity keys in run order
  double elapsed = 0.0;
};

LocalityTrace run_locality(int nprocs, std::uint64_t ntasks, std::uint64_t nkeys,
                           double task_seconds = 0.01, bool ft = false) {
  sim::EngineConfig ec;
  ec.nprocs = nprocs;
  ec.stack_bytes = 256 * 1024;
  sim::Engine engine(ec);
  LocalityTrace trace;
  std::mutex mu;
  engine.run([&](sim::Process& p) {
    mpi::Comm comm(p);
    MapReduceConfig cfg;
    cfg.ft.enabled = ft;
    MapReduce mr(comm, cfg);
    mr.map_locality(
        ntasks, [&](std::uint64_t t) { return t % nkeys; },
        [&](std::uint64_t t, KeyValue&) {
          comm.compute(task_seconds);
          std::lock_guard<std::mutex> lock(mu);
          trace.tasks_run.insert(t);
          trace.keys_by_rank[comm.rank()].push_back(t % nkeys);
        });
  });
  trace.elapsed = engine.elapsed();
  return trace;
}

TEST(MapLocality, EveryTaskRunsExactlyOnce) {
  const auto trace = run_locality(5, 37, 7);
  EXPECT_EQ(trace.tasks_run.size(), 37u);
  for (std::uint64_t t = 0; t < 37; ++t) EXPECT_EQ(trace.tasks_run.count(t), 1u) << t;
}

TEST(MapLocality, SingleRankRunsAllLocally) {
  const auto trace = run_locality(1, 12, 3);
  EXPECT_EQ(trace.tasks_run.size(), 12u);
  EXPECT_EQ(trace.keys_by_rank.at(0).size(), 12u);
}

TEST(MapLocality, WorkersStayOnTheirKey) {
  // 4 keys x 25 tasks over 4 workers: each worker should see very few key
  // switches compared to the ~24 a round-robin hand-out would cause.
  const auto trace = run_locality(5, 100, 4);
  std::size_t switches = 0;
  std::size_t runs = 0;
  for (const auto& [rank, keys] : trace.keys_by_rank) {
    for (std::size_t i = 1; i < keys.size(); ++i) {
      if (keys[i] != keys[i - 1]) ++switches;
    }
    runs += keys.size();
  }
  EXPECT_EQ(runs, 100u);
  EXPECT_LE(switches, 8u);  // near-perfect locality
}

TEST(MapLocality, MasterRunsNoTasks) {
  const auto trace = run_locality(4, 30, 3);
  EXPECT_EQ(trace.keys_by_rank.count(0), 0u);
}

TEST(MapLocality, MoreKeysThanTasksStillTerminates) {
  const auto trace = run_locality(3, 5, 100);
  EXPECT_EQ(trace.tasks_run.size(), 5u);
}

TEST(MapLocality, KeepsLoadBalanced) {
  // Uniform task costs: despite the affinity preference, no worker may be
  // starved -- the largest-remaining-key fallback keeps everyone busy.
  const auto trace = run_locality(5, 80, 4, 0.01);
  for (const auto& [rank, keys] : trace.keys_by_rank) {
    EXPECT_GE(keys.size(), 15u) << "rank " << rank << " starved";
  }
  // Elapsed close to ideal: 80 x 0.01 s over 4 workers = 0.2 s.
  EXPECT_LT(trace.elapsed, 0.25);
}

TEST(MapLocality, FtLedgerKeepsEachWorkerOnItsKey) {
  // Known answer for the master-ft ledger's grant pick: 3 keys x 10
  // equal-cost tasks over 3 workers. Each first request drains the
  // largest bucket (keys 0, 1, 2 in turn), and every later grant keeps
  // the worker on its key while that key has pending tasks, so each
  // worker runs exactly one key's ten tasks and rank 0 runs none.
  const auto trace = run_locality(4, 30, 3, 0.01, /*ft=*/true);
  EXPECT_EQ(trace.tasks_run.size(), 30u);
  EXPECT_EQ(trace.keys_by_rank.count(0), 0u);
  std::set<std::uint64_t> keys_seen;
  for (const auto& [rank, keys] : trace.keys_by_rank) {
    ASSERT_EQ(keys.size(), 10u) << "rank " << rank;
    for (const std::uint64_t k : keys) EXPECT_EQ(k, keys.front()) << "rank " << rank;
    keys_seen.insert(keys.front());
  }
  EXPECT_EQ(keys_seen, (std::set<std::uint64_t>{0, 1, 2}));
}

TEST(MapLocality, NullAffinityRejected) {
  sim::EngineConfig ec;
  ec.nprocs = 2;
  sim::Engine engine(ec);
  EXPECT_THROW(engine.run([&](sim::Process& p) {
                 mpi::Comm comm(p);
                 MapReduce mr(comm);
                 mr.map_locality(5, nullptr, [](std::uint64_t, KeyValue&) {});
               }),
               InputError);
}

TEST(MapLocality, EmitsFlowIntoPipeline) {
  // map_locality output must feed collate/reduce like a normal map.
  sim::EngineConfig ec;
  ec.nprocs = 4;
  ec.stack_bytes = 256 * 1024;
  sim::Engine engine(ec);
  std::mutex mu;
  std::size_t groups = 0;
  engine.run([&](sim::Process& p) {
    mpi::Comm comm(p);
    MapReduce mr(comm);
    mr.map_locality(
        12, [](std::uint64_t t) { return t % 3; },
        [](std::uint64_t t, KeyValue& kv) {
          kv.add("key" + std::to_string(t % 3), std::to_string(t));
        });
    const auto unique = mr.collate();
    EXPECT_EQ(unique, 3u);
    mr.reduce([&](const KmvGroup& g, KeyValue&) {
      std::lock_guard<std::mutex> lock(mu);
      ++groups;
      EXPECT_EQ(g.values.size(), 4u);
    });
  });
  EXPECT_EQ(groups, 3u);
}

}  // namespace
}  // namespace mrbio::mrmpi

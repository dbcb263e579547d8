// Backend equivalence under faults: the same FaultPlan injected into the
// discrete-event simulator and the native multithreaded backend must
// leave the application results byte-identical — recovery may cost
// different (virtual vs wall-clock) time on each, but never change what
// is computed. Runs under TSan when the build enables MRBIO_SANITIZE.
#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <thread>

#include "common/rng.hpp"
#include "fault/fault.hpp"
#include "mpi/comm.hpp"
#include "mrmpi/mapreduce.hpp"
#include "mrsom/mrsom.hpp"
#include "rt/backend.hpp"
#include "som/som.hpp"

namespace mrbio::rt {
namespace {

/// Runs `body` on `nranks` ranks of `backend` with a fresh Injector built
/// from `plan` (empty = no injector).
void run_faulted(Backend backend, int nranks, const std::string& plan,
                 const std::function<void(mpi::Comm&)>& body) {
  std::unique_ptr<fault::Injector> injector;
  LaunchConfig lc;
  lc.backend = backend;
  lc.nranks = nranks;
  if (!plan.empty()) {
    injector = std::make_unique<fault::Injector>(fault::FaultPlan::parse(plan));
    lc.injector = injector.get();
  }
  launch(lc, [&](Rank& rank) {
    mpi::Comm comm(rank);
    body(comm);
  });
}

/// Fault-tolerant map over `ntasks`; returns the multiset of task ids in
/// the final KV, gathered on rank 0.
std::multiset<std::uint64_t> ft_map(Backend backend, int nranks,
                                    const std::string& plan) {
  mrmpi::MapReduceConfig cfg;
  cfg.ft.enabled = true;
  cfg.ft.task_timeout = 2.0;
  std::multiset<std::uint64_t> tasks;
  std::mutex mu;
  run_faulted(backend, nranks, plan, [&](mpi::Comm& comm) {
    mrmpi::MapReduce mr(comm, cfg);
    mr.map(20, [](std::uint64_t t, mrmpi::KeyValue& kv) {
      kv.add("task", std::to_string(t));
    });
    mr.gather();
    if (comm.rank() == 0) {
      std::lock_guard<std::mutex> lock(mu);
      mr.kv().for_each([&](const mrmpi::KvPair& pair) {
        const std::string v(reinterpret_cast<const char*>(pair.value.data()),
                            pair.value.size());
        tasks.insert(std::stoull(v));
      });
    }
  });
  return tasks;
}

TEST(FaultEquivalence, CrashRecoveryExactlyOnceOnBothBackends) {
  // Task-count triggers fire at the same per-rank points on both
  // backends; either way every task must land exactly once.
  const std::string plan = "crash:rank=1,task=1; crash:rank=2,task=0,mode=permanent";
  for (const Backend backend : {Backend::Sim, Backend::Native}) {
    const auto tasks = ft_map(backend, 4, plan);
    EXPECT_EQ(tasks.size(), 20u) << backend_name(backend);
    for (std::uint64_t t = 0; t < 20; ++t) {
      EXPECT_EQ(tasks.count(t), 1u) << backend_name(backend) << " task " << t;
    }
  }
}

TEST(FaultEquivalence, MessageFaultsAbsorbedOnBothBackends) {
  const std::string plan =
      "drop:src=1,dst=0,count=2; dup:src=0,dst=2,count=2; "
      "delay:src=3,dst=0,by=0.05,count=2";
  const auto sim = ft_map(Backend::Sim, 4, plan);
  const auto native = ft_map(Backend::Native, 4, plan);
  EXPECT_EQ(sim.size(), 20u);
  EXPECT_EQ(sim, native);
}

TEST(FaultEquivalence, NativeTimeTriggeredCrashCompletes) {
  // Wall-clock triggers are scheduling-dependent on the native backend;
  // the output must stay exactly-once regardless of when the crash lands.
  const auto tasks = ft_map(Backend::Native, 4, "crash:rank=2@t=0.001");
  EXPECT_EQ(tasks.size(), 20u);
}

/// Master-ft map of 24 tasks of 10 ms each (virtual on sim, slept on
/// native, where compute charges are free) on 4 ranks with rank-0 crashes
/// allowed. Returns the task ids gathered on rank 0; `crashes` receives
/// the number of crashes that fired.
std::multiset<std::uint64_t> master_ft_map(Backend backend, const std::string& plan,
                                          std::uint64_t* crashes) {
  fault::Injector injector(fault::FaultPlan::parse(plan));
  LaunchConfig lc;
  lc.backend = backend;
  lc.nranks = 4;
  lc.injector = &injector;
  lc.master_failover = true;
  mrmpi::MapReduceConfig cfg;
  cfg.map_style = mrmpi::MapStyle::MasterWorker;
  cfg.ft.enabled = true;
  std::multiset<std::uint64_t> tasks;
  std::mutex mu;
  launch(lc, [&](Rank& rank) {
    mpi::Comm comm(rank);
    mrmpi::MapReduce mr(comm, cfg);
    mr.map(24, [&](std::uint64_t t, mrmpi::KeyValue& kv) {
      if (backend == Backend::Native) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      } else {
        comm.compute(0.01);
      }
      kv.add("task", std::to_string(t));
    });
    mr.gather();
    if (comm.rank() == 0) {
      std::lock_guard<std::mutex> lock(mu);
      mr.kv().for_each([&](const mrmpi::KvPair& pair) {
        const std::string v(reinterpret_cast<const char*>(pair.value.data()),
                            pair.value.size());
        tasks.insert(std::stoull(v));
      });
    }
  });
  *crashes = injector.stats().crashes_fired;
  return tasks;
}

TEST(FaultEquivalence, MasterFtSurvivesPermanentRank0Crash) {
  // Rank 0 owns the master-ft ledger and runs no tasks, so only its own
  // crash poll can fire a time-triggered crash there. The successor
  // adopts the shard; the output stays exactly the fault-free one.
  for (const Backend backend : {Backend::Sim, Backend::Native}) {
    std::uint64_t crashes = 0;
    const auto clean = master_ft_map(backend, "", &crashes);
    ASSERT_EQ(clean.size(), 24u) << backend_name(backend);
    const auto faulted =
        master_ft_map(backend, "crash:rank=0@t=0.02,mode=permanent", &crashes);
    EXPECT_EQ(crashes, 1u) << backend_name(backend);
    EXPECT_EQ(faulted, clean) << backend_name(backend);
  }
}

TEST(FaultEquivalence, SomCodebookIdenticalAcrossBackendsUnderFaults) {
  // The deterministic KV reduce makes the trained codebook a pure
  // function of the input: equal on sim and native, with and without
  // injected crashes and a slow rank.
  Rng rng(41);
  Matrix data(96, 6);
  for (std::size_t r = 0; r < data.rows(); ++r)
    for (std::size_t c = 0; c < data.cols(); ++c)
      data(r, c) = static_cast<float>(rng.uniform());
  som::Codebook initial(som::SomGrid{5, 5}, data.cols());
  initial.init_pca(data.view());

  mrsom::ParallelSomConfig config;
  config.params.epochs = 3;
  config.block_vectors = 8;
  config.map_style = mrmpi::MapStyle::MasterWorker;
  config.deterministic_reduce = true;

  const std::string plan = "crash:rank=1,task=2; slow:rank=3,factor=2";
  std::vector<Matrix> weights;
  for (const Backend backend : {Backend::Sim, Backend::Native}) {
    for (const std::string& p : {std::string(), plan}) {
      mrsom::ParallelSomConfig cfg = config;
      cfg.ft.enabled = !p.empty();
      som::Codebook cb;
      run_faulted(backend, 4, p, [&](mpi::Comm& comm) {
        som::Codebook trained = mrsom::train_som_mr(comm, data.view(), initial, cfg);
        if (comm.rank() == 0) cb = std::move(trained);
      });
      weights.push_back(cb.weights());
    }
  }
  ASSERT_EQ(weights.size(), 4u);
  const Matrix& base = weights[0];
  ASSERT_GT(base.rows() * base.cols(), 0u);
  for (std::size_t i = 1; i < weights.size(); ++i) {
    ASSERT_EQ(weights[i].rows(), base.rows());
    EXPECT_EQ(std::memcmp(weights[i].row(0).data(), base.row(0).data(),
                          base.rows() * base.cols() * sizeof(float)),
              0)
        << "variant " << i;
  }
}

}  // namespace
}  // namespace mrbio::rt

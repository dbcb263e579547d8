// The master-worker strategy (Sandia mapstyle 2): rank 0 grants task ids
// to idle workers, optionally preferring locality-key affinity. The
// fault-tolerant variant is the exactly-once ledger's master shape
// (sharded.cpp); this file holds the plain protocol and the strategy
// object that picks between them.
#include <algorithm>
#include <set>

#include "common/error.hpp"
#include "obs/timeseries.hpp"
#include "sched/internal.hpp"

namespace mrbio::sched {

namespace {

/// Plain master loop: workers announce readiness on kTagDone, the master
/// answers with the next task id or -1 when exhausted.
void run_plain_master(MapContext& ctx) {
  mpi::Comm& comm = ctx.comm;
  trace::Recorder* rec = ctx.rec;
  const int workers = comm.size() - 1;
  const std::uint64_t ntasks = ctx.ntasks;
  // Restored tasks were already replayed on their owners; never hand
  // them out again.
  std::set<std::uint64_t> ckpt_done;
  if (ctx.restored != nullptr) {
    for (const DoneTask& d : *ctx.restored) ckpt_done.insert(d.task);
  }
  std::uint64_t next = 0;
  int stopped = 0;
  auto skip_done = [&] {
    while (next < ntasks && ckpt_done.count(next) != 0) ++next;
  };
  skip_done();
  while (stopped < workers) {
    int src = -1;
    comm.recv_value<std::uint8_t>(mpi::kAnySource, kTagDone, &src);
    const double t0 = comm.now();
    if (next < ntasks) {
      comm.send_value<std::int64_t>(src, kTagTask, static_cast<std::int64_t>(next));
      ++next;
      skip_done();
    } else {
      comm.send_value<std::int64_t>(src, kTagTask, -1);
      ++stopped;
    }
    if (rec != nullptr) {
      // Master service latency: request handled -> reply sent.
      rec->add(comm.rank(), trace::Category::Phase, "mw_service", t0, comm.now());
    }
    if (obs::Registry* reg = comm.metrics(); reg != nullptr) {
      reg->histogram("mrmpi.master_service_seconds").observe(comm.now() - t0);
    }
    if (obs::TimeSeries* ts = comm.runtime().timeseries(); ts != nullptr) {
      ts->sample(comm.rank(), "mrmpi.pending_tasks", comm.now(),
                 static_cast<double>(ntasks - std::min(next, ntasks)));
    }
  }
}

/// Locality-aware master: prefer the worker's current key, else drain the
/// key with the most remaining tasks.
void run_locality_master(MapContext& ctx) {
  mpi::Comm& comm = ctx.comm;
  trace::Recorder* rec = ctx.rec;
  // Pending tasks grouped by locality key; within a key, FIFO by task id.
  // Tasks restored from a checkpoint are already accounted for on their
  // owners and never enter the queue.
  std::set<std::uint64_t> ckpt_done;
  if (ctx.restored != nullptr) {
    for (const DoneTask& d : *ctx.restored) ckpt_done.insert(d.task);
  }
  LocalityQueue pending(ctx.affinity);
  std::uint64_t remaining = 0;
  for (std::uint64_t t = 0; t < ctx.ntasks; ++t) {
    if (ckpt_done.count(t) != 0) continue;
    pending.push(t);
    ++remaining;
  }

  const int workers = comm.size() - 1;
  int stopped = 0;
  while (stopped < workers) {
    int src = -1;
    comm.recv_value<std::uint8_t>(mpi::kAnySource, kTagDone, &src);
    const double t0 = comm.now();
    if (remaining == 0) {
      comm.send_value<std::int64_t>(src, kTagTask, -1);
      ++stopped;
      if (rec != nullptr) {
        rec->add(comm.rank(), trace::Category::Phase, "mw_service", t0, comm.now());
      }
      continue;
    }
    const std::int64_t task = pending.pop(src, [](std::uint64_t) { return true; });
    MRBIO_CHECK(task >= 0, "locality scheduler lost tasks: worker ", src, " asked with ",
                remaining, " tasks still pending but no bucket is drainable");
    comm.send_value<std::int64_t>(src, kTagTask, task);
    --remaining;
    if (rec != nullptr) {
      rec->add(comm.rank(), trace::Category::Phase, "mw_service", t0, comm.now());
    }
    if (obs::Registry* reg = comm.metrics(); reg != nullptr) {
      reg->histogram("mrmpi.master_service_seconds").observe(comm.now() - t0);
    }
    if (obs::TimeSeries* ts = comm.runtime().timeseries(); ts != nullptr) {
      ts->sample(comm.rank(), "mrmpi.pending_tasks", comm.now(),
                 static_cast<double>(remaining));
    }
  }
}

void run_plain_worker(MapContext& ctx) {
  mpi::Comm& comm = ctx.comm;
  for (;;) {
    comm.send_value<std::uint8_t>(0, kTagDone, 1);
    const auto task = comm.recv_value<std::int64_t>(0, kTagTask);
    if (task < 0) break;
    ctx.exec->run_direct(static_cast<std::uint64_t>(task), /*retry=*/false);
  }
}

class MasterScheduler final : public Scheduler {
 public:
  explicit MasterScheduler(bool force_ft) : force_ft_(force_ft) {}
  const char* name() const override { return force_ft_ ? "master-ft" : "master"; }

  void execute(MapContext& ctx) override {
    if (ctx.comm.size() == 1) {
      run_all_local(ctx);
      return;
    }
    if (force_ft_ || ctx.ft.enabled) {
      // The epoch moves in lockstep on all ranks: execute() is collective.
      run_ledger(ctx, ++ctx.proto->epoch, /*master_shape=*/true);
    } else if (ctx.comm.rank() != 0) {
      run_plain_worker(ctx);
    } else if (ctx.affinity != nullptr) {
      run_locality_master(ctx);
    } else {
      run_plain_master(ctx);
    }
  }

 private:
  bool force_ft_;
};

}  // namespace

std::unique_ptr<Scheduler> make_master_scheduler(bool force_ft) {
  return std::make_unique<MasterScheduler>(force_ft);
}

}  // namespace mrbio::sched

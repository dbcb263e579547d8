#include "sched/sched.hpp"

#include "common/error.hpp"
#include "fault/fault.hpp"
#include "sched/internal.hpp"

namespace mrbio::sched {

Policy parse_policy(const std::string& name) {
  if (name == "auto") return Policy::Auto;
  if (name == "chunk") return Policy::Chunk;
  if (name == "stride") return Policy::Stride;
  if (name == "master") return Policy::Master;
  if (name == "master-ft") return Policy::MasterFt;
  if (name == "steal") return Policy::Steal;
  throw InputError(format_msg("unknown scheduler '", name,
                              "' (expected auto|chunk|stride|master|master-ft|steal)"));
}

const char* policy_name(Policy policy) {
  switch (policy) {
    case Policy::Auto: return "auto";
    case Policy::Chunk: return "chunk";
    case Policy::Stride: return "stride";
    case Policy::Master: return "master";
    case Policy::MasterFt: return "master-ft";
    case Policy::Steal: return "steal";
  }
  return "?";
}

bool requires_ft(const fault::FaultPlan& plan, Policy policy) {
  if (!plan.crashes.empty()) return true;
  for (const fault::MessageFault& m : plan.messages) {
    if (m.kind == fault::MessageFault::Kind::Drop) return true;
    if (m.kind == fault::MessageFault::Kind::Duplicate && is_remote(policy)) return true;
  }
  return false;
}

void run_all_local(MapContext& ctx) {
  for (std::uint64_t t = 0; t < ctx.ntasks; ++t) {
    ctx.exec->run_direct(t, /*retry=*/false);
  }
}

namespace {

/// Static partitions: no communication, no termination protocol — every
/// rank runs its slice and leaves. Checkpoint-restored tasks are skipped
/// inside the executor (they were replayed into the output already).
class StaticScheduler final : public Scheduler {
 public:
  explicit StaticScheduler(bool stride) : stride_(stride) {}
  const char* name() const override { return stride_ ? "stride" : "chunk"; }

  void execute(MapContext& ctx) override {
    const int rank = ctx.comm.rank();
    const int p = ctx.comm.size();
    if (stride_) {
      for (std::uint64_t t = static_cast<std::uint64_t>(rank); t < ctx.ntasks;
           t += static_cast<std::uint64_t>(p)) {
        ctx.exec->run_direct(t, /*retry=*/false);
      }
    } else {
      const std::uint64_t hi = chunk_hi(ctx.ntasks, rank, p);
      for (std::uint64_t t = chunk_lo(ctx.ntasks, rank, p); t < hi; ++t) {
        ctx.exec->run_direct(t, /*retry=*/false);
      }
    }
  }

 private:
  bool stride_;
};

}  // namespace

std::unique_ptr<Scheduler> make_scheduler(Policy policy) {
  switch (policy) {
    case Policy::Chunk: return std::make_unique<StaticScheduler>(false);
    case Policy::Stride: return std::make_unique<StaticScheduler>(true);
    case Policy::Master: return make_master_scheduler(/*force_ft=*/false);
    case Policy::MasterFt: return make_master_scheduler(/*force_ft=*/true);
    case Policy::Steal: return make_steal_scheduler();
    case Policy::Auto: break;
  }
  throw LogicError("make_scheduler: Policy::Auto must be resolved by the host");
}

}  // namespace mrbio::sched

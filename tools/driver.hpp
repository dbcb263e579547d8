// Driver harness: the plumbing shared by the three MapReduce drivers
// (mrblast_search, mrsom_train, mrgraph_build). It declares the run flags
// every driver takes, sets up logging and the SIMD level, turns --faults
// into an injector and a fault-tolerance config, opens the checkpoint,
// attaches the observers, writes the --obs-dir bundle and maps the outcome
// to an exit code. A driver declares its own flags and keeps its
// fingerprint, its rank body and its result lines:
//
//   Options opts("mrfoo: ...");
//   opts.add("input", "", "...");            // driver flags
//   driver::Harness harness("mrfoo", opts);  // shared flags
//   return harness.run(argc, argv, [&] {
//     config.ft = harness.fault_tolerance(policy);
//     config.checkpointer = harness.checkpoint(fingerprint);
//     const rt::LaunchResult run = harness.launch(body);
//     std::printf(...);                      // result lines
//   });
//
// --obs-dir DIR writes trace.json (Full level), report.json, metrics.json,
// timeseries.jsonl and events.jsonl (every log line as a JSONL event).
// --report prints the same analysis. Observers only read the backend's
// clock, so they never change outputs or measured times.
//
// Exit codes: 0 success (or --help), 1 error, 3 job killed by a kill:
// fault (restart with --resume to continue from the last checkpoint). A
// killed run still writes its bundle, so its metrics count the work the
// attempt did.
#pragma once

#include <functional>
#include <memory>
#include <string>

#include "ckpt/ckpt.hpp"
#include "common/options.hpp"
#include "fault/fault.hpp"
#include "obs/metrics.hpp"
#include "obs/timeseries.hpp"
#include "rt/backend.hpp"
#include "sched/sched.hpp"
#include "trace/trace.hpp"

namespace mrbio::obs {
struct Report;
}

namespace mrbio::driver {

class Harness {
 public:
  /// Declares the shared flags on `opts`; `name` prefixes error lines.
  Harness(std::string name, Options& opts);
  ~Harness();

  Harness(const Harness&) = delete;
  Harness& operator=(const Harness&) = delete;

  /// Parses the command line, runs `body`, prints the fault and checkpoint
  /// statistics, removes the checkpoint dir and writes the observer
  /// outputs. Returns the exit code.
  int run(int argc, char** argv, const std::function<void()>& body);

  rt::Backend backend() const { return lc_.backend; }
  int ranks() const { return lc_.nranks; }
  /// "virtual" on the simulator, "wall-clock" on native threads.
  const char* clock_name() const;
  /// The parsed --scheduler (possibly Auto).
  sched::Policy scheduler() const;

  /// Gates the --faults plan against the scheduler the run uses
  /// (sched::requires_ft) — --scheduler, or `auto_policy`, the driver's
  /// map style, for auto — and returns the fault-tolerance config:
  /// enabled, with the --ft-* / --ledger-ranks / --heartbeat settings,
  /// exactly when the plan needs it. Call before launch().
  sched::FtConfig fault_tolerance(sched::Policy auto_policy);

  /// Opens --checkpoint-dir bound to `fingerprint`, the driver's run
  /// configuration (a resume with a different one is rejected). Returns
  /// nullptr when the run has no checkpoint dir.
  ckpt::Checkpointer* checkpoint(const std::string& fingerprint);

  /// Runs `body` on every rank with the injector and observers attached.
  rt::LaunchResult launch(const std::function<void(rt::Rank&)>& body);

 private:
  void setup();
  void finish();
  void write_bundle(const obs::Report& report) const;
  int killed(const std::string& what);

  std::string name_;
  Options& opts_;
  std::string obs_dir_;
  rt::LaunchConfig lc_;
  std::unique_ptr<obs::EventLog> eventlog_;
  std::unique_ptr<fault::Injector> injector_;
  std::unique_ptr<ckpt::Checkpointer> checkpointer_;
  std::unique_ptr<trace::Recorder> recorder_;
  std::unique_ptr<obs::Registry> registry_;
  std::unique_ptr<obs::TimeSeries> timeseries_;
  bool launched_ = false;
};

}  // namespace mrbio::driver

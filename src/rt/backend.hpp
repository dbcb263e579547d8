// Backend launcher: one entry point that runs a rank body on either the
// discrete-event simulator or the native multithreaded backend, so tools
// and tests select the machine with a flag instead of a different code
// path.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "rt/native.hpp"
#include "rt/runtime.hpp"
#include "sim/engine.hpp"

namespace mrbio::rt {

enum class Backend { Sim, Native };

/// Parses "sim" or "native"; throws mrbio::InputError otherwise.
Backend backend_from_name(std::string_view name);

const char* backend_name(Backend backend);

/// Backend-appropriate default rank count: the DES defaults to the
/// harness's traditional 8 virtual ranks; the native backend defaults to
/// the host's hardware concurrency.
int default_ranks(Backend backend);

struct LaunchConfig {
  Backend backend = Backend::Sim;
  int nranks = 0;  ///< 0 = default_ranks(backend)
  sim::NetworkModel net{};            ///< sim only
  std::size_t stack_bytes = 1 << 20;  ///< sim only: stack per virtual rank
  double native_recv_timeout = 300.0;  ///< native only: 0 = wait forever
  trace::Recorder* recorder = nullptr;
  obs::Registry* metrics = nullptr;
  /// Optional fault injector, forwarded to the selected backend. The plan
  /// is validated against the resolved rank count at launch.
  fault::Injector* injector = nullptr;
  /// True when the run has a checkpoint dir configured; corrupt-checkpoint
  /// faults are rejected at launch without it.
  bool checkpointing = false;
  /// True when the selected scheduler survives the loss of rank 0 (the
  /// exactly-once ledger of master-ft and steal-ft elects a successor);
  /// rank-0 crash plans are rejected at launch without it.
  bool master_failover = false;
  /// Optional time-series sampler, forwarded to the selected backend and
  /// reachable via Rank::timeseries().
  obs::TimeSeries* timeseries = nullptr;
  /// Optional structured event log, reachable via Rank::eventlog().
  obs::EventLog* eventlog = nullptr;
};

struct LaunchResult {
  /// Virtual seconds (sim) or wall-clock seconds (native).
  double elapsed = 0.0;
  std::vector<double> final_times;
  std::uint64_t messages = 0;
  std::uint64_t payload_bytes = 0;
  std::uint64_t nominal_bytes = 0;
};

/// Runs `body` on every rank of the selected backend and returns the
/// run's timing and traffic counters.
LaunchResult launch(const LaunchConfig& config, const std::function<void(Rank&)>& body);

}  // namespace mrbio::rt

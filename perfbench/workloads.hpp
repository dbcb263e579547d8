// The benchmark's workloads. Each one generates its inputs from a seed,
// runs one public entry point of the library (the timed run), checks the
// outputs against a reference it computed itself, and reports the
// per-layer metrics of the layers it is the home workload of.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.hpp"
#include "trace/trace.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Median of `v`, which must not be empty.
double median(std::vector<double> v);

/// Host cost of one timed section: wall-clock seconds plus the process's
/// user and system CPU seconds (all threads) over the same interval.
struct HostCost {
  double wall_s = 0.0;
  double user_s = 0.0;
  double sys_s = 0.0;
  double cpu_s() const { return user_s + sys_s; }
};

/// Output checks: every checked item counts as attempted, every wrong one
/// as failed.
struct Checks {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  void expect(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
};

/// Instruments attached to a traced run: a Phases-level span recorder and
/// a metrics registry, both passed to the program through rt::LaunchConfig.
struct Instruments {
  mrbio::trace::Recorder* recorder = nullptr;
  mrbio::obs::Registry* registry = nullptr;
};

/// Per-layer metric values by name.
using LayerMetrics = std::map<std::string, double>;

class Workload {
 public:
  virtual ~Workload() = default;

  /// Generates the inputs from `seed` and prepares everything the program
  /// needs before it runs (formatted DB, initial codebook, ...). Timed as
  /// setup_s; may be called again to set up afresh.
  virtual void setup(std::uint64_t seed) = 0;
  /// Builds what only the output checks need (a serial reference run).
  /// Called once after setup(); not part of setup_s.
  virtual void prepare_checks() {}
  /// Ranks of the run (sizes the trace recorder).
  virtual int ranks() const = 0;
  /// One run of the program. `inst` is null for an untraced run.
  virtual void run(const Instruments* inst) = 0;
  /// Checks the last run's outputs.
  virtual void check(Checks& checks) = 0;
  /// Damages the last run's outputs, so that check() must count a failure
  /// (the self-test).
  virtual void corrupt() = 0;
  /// Metrics of the layers this workload is home to, from the last run,
  /// which was traced with `inst` and cost `cost`.
  virtual void layer_metrics(const Instruments& inst, const HostCost& cost,
                             LayerMetrics& out) = 0;
};

/// Names of all workloads, in BENCHMARK.json order.
const std::vector<std::string>& workload_names();

/// Throws mrbio::InputError on an unknown name. Files go under `workdir`;
/// native runs use `native_ranks` ranks.
std::unique_ptr<Workload> make_workload(std::string_view name, const std::string& workdir,
                                        int native_ranks);

}  // namespace perfbench

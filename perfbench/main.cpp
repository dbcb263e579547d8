// perfbench: host wall-clock and CPU cost of the library's canonical
// workloads, end to end (untraced runs) and per layer (traced runs).
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace 0|1 --workdir <dir>
//   perfbench --self-test --workdir <dir>
//
// Prints one environment line ({"env": ...}) and, as the last line, the
// result object {"correct", "attempted", "failed", "values"}, which
// run.py turns into the benchmark's result format. See README.md in this
// directory for the workloads and metrics.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "common/error.hpp"
#include "common/options.hpp"
#include "simd/simd.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

/// Seed kept out of every run made while the benchmark and the changes
/// measured by it are written; later gain claims must also hold on it.
constexpr std::uint64_t kHeldOutSeed = 20110516;

/// An untraced run sets up at least kSetups times and for at least
/// kSetupSeconds; setup_s is the median. One set-up takes from under a
/// millisecond (blast_paper_sim) to 0.3 s (som_tetra), so even the
/// slowest gets about ten samples.
constexpr std::size_t kSetups = 5;
constexpr double kSetupSeconds = 3.0;

double to_seconds(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
}

template <class Fn>
HostCost measure(Fn&& fn) {
  rusage before{};
  rusage after{};
  getrusage(RUSAGE_SELF, &before);
  const auto t0 = Clock::now();
  fn();
  const double wall = std::chrono::duration<double>(Clock::now() - t0).count();
  getrusage(RUSAGE_SELF, &after);
  return {wall, to_seconds(after.ru_utime) - to_seconds(before.ru_utime),
          to_seconds(after.ru_stime) - to_seconds(before.ru_stime)};
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  if (__get_cpuid_max(0x80000000u, nullptr) >= 0x80000004u) {
    for (unsigned i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1], &regs[4 * i + 2],
                  &regs[4 * i + 3]);
    }
    std::string s(reinterpret_cast<const char*>(regs), sizeof(regs));
    s.erase(s.find_last_not_of(std::string(" \0", 2)) + 1);
    s.erase(0, s.find_first_not_of(' '));
    return s;
  }
#endif
  return "unknown";
}

/// Sanitizers named by the build's compiler flags or reported by the
/// compiler through predefined macros.
std::string sanitizers() {
  std::string s;
  const std::string_view flags = PERFBENCH_CXX_FLAGS;
  for (std::size_t at = flags.find("-fsanitize="); at != std::string_view::npos;
       at = flags.find("-fsanitize=", at + 1)) {
    const std::size_t begin = at + std::string_view("-fsanitize=").size();
    s += std::string(flags.substr(begin, flags.find(' ', begin) - begin)) + " ";
  }
  if (!s.empty()) return s.substr(0, s.size() - 1);
#if defined(__SANITIZE_ADDRESS__)
  s += "address ";
#endif
#if defined(__SANITIZE_THREAD__)
  s += "thread ";
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) && !defined(__SANITIZE_ADDRESS__)
  s += "address ";
#endif
#if __has_feature(thread_sanitizer) && !defined(__SANITIZE_THREAD__)
  s += "thread ";
#endif
#endif
  if (!s.empty()) s.pop_back();
  return s;
}

/// Numbers from sanitizer, Debug or unoptimized builds cannot be compared
/// with anything; such builds are refused.
std::string why_not_comparable() {
  if (!sanitizers().empty()) return "built with sanitizers (" + sanitizers() + ")";
  if (std::string_view(PERFBENCH_BUILD_TYPE) == "Debug") return "Debug build";
#if !defined(NDEBUG)
  return "assertions enabled (NDEBUG unset)";
#elif !defined(__OPTIMIZE__)
  return "built without optimization";
#else
  return "";
#endif
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string json_number(double v) {
  MRBIO_CHECK(std::isfinite(v), "metric value is not finite");
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void print_env(const std::string& workload, std::uint64_t seed, int ranks, int trace,
               double seconds) {
#if defined(__clang__)
  const std::string compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  const std::string compiler = std::string("gcc ") + __VERSION__;
#else
  const std::string compiler = "unknown";
#endif
  std::printf(
      "{\"env\": {\"workload\": %s, \"seed\": %llu, \"heldout_seed\": %llu, \"trace\": %d, "
      "\"seconds\": %s, \"native_ranks\": %d, \"nproc\": %u, \"cpu_model\": %s, "
      "\"simd_isa\": %s, \"build_type\": %s, \"cxx_flags\": %s, \"compiler\": %s, "
      "\"sanitize\": %s}}\n",
      json_string(workload).c_str(), static_cast<unsigned long long>(seed),
      static_cast<unsigned long long>(kHeldOutSeed), trace, json_number(seconds).c_str(), ranks,
      std::thread::hardware_concurrency(), json_string(cpu_model()).c_str(),
      json_string(mrbio::simd::isa_name(mrbio::simd::active_isa())).c_str(),
      json_string(PERFBENCH_BUILD_TYPE).c_str(), json_string(PERFBENCH_CXX_FLAGS).c_str(),
      json_string(compiler).c_str(),
      json_string(sanitizers()).c_str());
}

/// The result line. run.py attaches each metric's unit from
/// BENCHMARK.json and checks that the names match it exactly.
void print_result(const Checks& checks, const LayerMetrics& values) {
  std::string metrics;
  for (const auto& [name, value] : values) {
    if (!metrics.empty()) metrics += ", ";
    metrics += json_string(name) + ": " + json_number(value);
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"values\": {%s}}\n",
              checks.failed == 0 && checks.attempted > 0 ? "true" : "false",
              static_cast<unsigned long long>(checks.attempted),
              static_cast<unsigned long long>(checks.failed), metrics.c_str());
}

/// End-to-end metrics: set up repeatedly, then run untraced until
/// `seconds` of runs have been timed; times are medians over runs.
void run_untraced(const std::string& name, std::uint64_t seed, double seconds,
                  const std::string& workdir, int ranks) {
  std::unique_ptr<Workload> w;
  std::vector<double> setups;
  double setup_total = 0.0;
  while (setups.size() < kSetups || setup_total < kSetupSeconds) {
    w = make_workload(name, workdir, ranks);
    setups.push_back(measure([&] { w->setup(seed); }).wall_s);
    setup_total += setups.back();
  }
  w->prepare_checks();
  Checks checks;
  std::vector<double> walls;
  std::vector<double> cpus;
  double peak_mb = 0.0;
  double timed = 0.0;
  do {
    const HostCost c = measure([&] { w->run(nullptr); });
    w->check(checks);
    // The peak through set-up and the first run. Later runs only add heap
    // fragmentation and the chance that the ranks' peaks line up, which
    // made the process peak jump by 15% from run to run on kmer_count.
    if (walls.empty()) peak_mb = peak_rss_mb();
    walls.push_back(c.wall_s);
    cpus.push_back(c.cpu_s());
    timed += c.wall_s;
  } while (timed < seconds);
  LayerMetrics m;
  m["wall_s"] = median(walls);
  m["cpu_s"] = median(cpus);
  m["setup_s"] = median(setups);
  m["peak_rss_mb"] = peak_mb;
  m["ok_frac"] = static_cast<double>(checks.attempted - checks.failed) /
                 static_cast<double>(std::max<std::uint64_t>(1, checks.attempted));
  print_result(checks, m);
}

/// A traced run: Phases-level recorder plus registry, kept alive until
/// its metrics are read. Not movable (the registry holds a mutex), so
/// `inst` never dangles.
struct TracedRun {
  explicit TracedRun(int ranks) : recorder(ranks, mrbio::trace::Level::Phases) {}

  mrbio::trace::Recorder recorder;
  mrbio::obs::Registry registry;
  Instruments inst{&recorder, &registry};
  HostCost cost;
};

/// Per-layer metrics: untraced and traced runs of `name` alternate for
/// `seconds` (their median ratio is the tracing overhead), then every
/// other workload runs traced once, so each layer is read on its home
/// workload whichever workload is named.
void run_traced(const std::string& name, std::uint64_t seed, double seconds,
                const std::string& workdir, int ranks) {
  Checks checks;
  LayerMetrics layers;
  {
    const std::unique_ptr<Workload> w = make_workload(name, workdir, ranks);
    w->setup(seed);
    w->prepare_checks();
    std::vector<double> plain;
    std::vector<double> traced;
    std::unique_ptr<TracedRun> last;
    double timed = 0.0;
    do {
      const HostCost c = measure([&] { w->run(nullptr); });
      w->check(checks);
      plain.push_back(c.wall_s);
      last = std::make_unique<TracedRun>(w->ranks());
      last->cost = measure([&] { w->run(&last->inst); });
      w->check(checks);
      traced.push_back(last->cost.wall_s);
      timed += c.wall_s + last->cost.wall_s;
    } while (timed < seconds);
    w->layer_metrics(last->inst, last->cost, layers);
    layers["trace.overhead_frac"] = median(traced) / median(plain) - 1.0;
  }
  for (const std::string& other : workload_names()) {
    if (other == name) continue;
    const std::unique_ptr<Workload> w = make_workload(other, workdir, ranks);
    w->setup(seed);
    w->prepare_checks();
    TracedRun run(w->ranks());
    run.cost = measure([&] { w->run(&run.inst); });
    w->check(checks);
    w->layer_metrics(run.inst, run.cost, layers);
  }
  print_result(checks, layers);
}

/// Shows that every workload's check passes a clean run and counts a
/// failure once the run's output is damaged.
int self_test(std::uint64_t seed, const std::string& workdir, int ranks) {
  bool ok = true;
  for (const std::string& name : workload_names()) {
    const std::unique_ptr<Workload> w = make_workload(name, workdir, ranks);
    w->setup(seed);
    w->prepare_checks();
    w->run(nullptr);
    Checks clean;
    w->check(clean);
    w->corrupt();
    Checks damaged;
    w->check(damaged);
    const bool pass = clean.attempted > 0 && clean.failed == 0 && damaged.failed > 0;
    std::printf("self-test %-16s clean %llu/%llu failed, corrupted %llu/%llu failed: %s\n",
                name.c_str(), static_cast<unsigned long long>(clean.failed),
                static_cast<unsigned long long>(clean.attempted),
                static_cast<unsigned long long>(damaged.failed),
                static_cast<unsigned long long>(damaged.attempted), pass ? "ok" : "FAIL");
    ok = ok && pass;
  }
  std::printf("self-test: %s\n", ok ? "ok" : "FAILED");
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  mrbio::Options opts("perfbench: host wall-clock and CPU cost of the canonical workloads");
  opts.add("workload", "", "blast_reads | blast_paper_sim | som_tetra | kmer_count");
  opts.add("seed", "1", "input seed; the same seed gives the same inputs");
  opts.add("seconds", "10", "timed run length; runs repeat until it is reached");
  opts.add("trace", "0", "0: end-to-end metrics, untraced; 1: per-layer metrics, traced");
  opts.add("workdir", "perfbench-work", "directory for the formatted DB and hit files");
  opts.add_flag("self-test", "check that damaged outputs are counted as failed, then exit");
  try {
    if (!opts.parse(argc, argv)) return 0;
    const std::string refused = why_not_comparable();
    if (!refused.empty()) {
      std::fprintf(stderr, "perfbench: refusing to measure: %s\n", refused.c_str());
      return 2;
    }
    const auto seed = static_cast<std::uint64_t>(opts.integer("seed"));
    const int ranks = static_cast<int>(std::clamp(std::thread::hardware_concurrency(), 1u, 4u));
    const std::string workdir = opts.str("workdir");
    if (opts.flag("self-test")) {
      print_env("self-test", seed, ranks, 0, 0.0);
      return self_test(seed, workdir, ranks);
    }
    const std::string name = opts.str("workload");
    const auto trace = opts.integer("trace");
    const double seconds = opts.real("seconds");
    MRBIO_REQUIRE(trace == 0 || trace == 1, "--trace must be 0 or 1");
    MRBIO_REQUIRE(seconds > 0.0, "--seconds must be positive");
    make_workload(name, workdir, ranks);  // rejects unknown names before any output
    print_env(name, seed, ranks, static_cast<int>(trace), seconds);
    if (trace == 0) {
      run_untraced(name, seed, seconds, workdir, ranks);
    } else {
      run_traced(name, seed, seconds, workdir, ranks);
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}

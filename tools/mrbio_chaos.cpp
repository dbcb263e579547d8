// mrbio_chaos: randomized fault-schedule soak harness for the
// fault-tolerance stack (sharded commit ledger, failover, checkpoint
// restart). For each seed it
//
//   1. runs the similarity-graph driver fault-free to capture the
//      baseline output bytes, edge checksum, elapsed time and task count,
//   2. derives a deterministic randomized fault plan from the seed
//      (crashes — including rank 0 — job kills, shard corruption, slow
//      ranks, message drop/dup/delay), scaled to the
//      measured baseline duration,
//   3. replays the same workload under that plan, restarting with
//      --resume while the driver reports a job kill (exit 3),
//   4. gates on byte-identity of every per-rank edge file against the
//      baseline and on a recovery-cost budget (total map tasks executed
//      across every attempt, as a multiple of the fault-free count; each
//      attempt, killed ones included, writes its own --obs-dir bundle and
//      the budget sums their metrics.json).
//
//   mrbio_chaos --seeds 8 --scheduler steal --ckpt
//   mrbio_chaos --seeds 3 --scheduler master --style master --no-crash
//
// Exit codes: 0 every seed passed; 1 usage/infrastructure error;
// 2 at least one seed diverged or blew the recovery budget.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/log.hpp"
#include "common/options.hpp"
#include "common/rng.hpp"

using namespace mrbio;

namespace {

namespace fs = std::filesystem;

struct RunOutcome {
  int exit_code = 0;
  std::string stdout_text;
};

// Runs `cmd`, capturing stdout+stderr to `log_path` and returning the
// decoded exit status plus the captured text.
RunOutcome run_command(const std::string& cmd, const std::string& log_path) {
  const std::string full = cmd + " > " + log_path + " 2>&1";
  const int raw = std::system(full.c_str());
  RunOutcome out;
#if defined(WIFEXITED)
  out.exit_code = WIFEXITED(raw) ? WEXITSTATUS(raw) : 128;
#else
  out.exit_code = raw;
#endif
  std::ifstream in(log_path);
  std::ostringstream text;
  text << in.rdbuf();
  out.stdout_text = text.str();
  return out;
}

// Extracts the first number following `key` in `text` (e.g. key
// "checksum " or "\"mrmpi.map_tasks\":"). Returns `fallback` if absent.
std::string token_after(const std::string& text, const std::string& key) {
  const auto at = text.find(key);
  if (at == std::string::npos) return "";
  auto begin = at + key.size();
  while (begin < text.size() && (text[begin] == ' ' || text[begin] == ':')) ++begin;
  auto end = begin;
  while (end < text.size() && text[end] != ' ' && text[end] != '\n' &&
         text[end] != ',' && text[end] != '}') {
    ++end;
  }
  return text.substr(begin, end - begin);
}

double number_after(const std::string& text, const std::string& key, double fallback) {
  const std::string tok = token_after(text, key);
  if (tok.empty()) return fallback;
  try {
    return std::stod(tok);
  } catch (const std::exception&) {
    return fallback;
  }
}

std::string slurp(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

struct ChaosConfig {
  std::string driver;      ///< path to mrgraph_build
  std::string work_dir;
  std::string scheduler;
  std::string style;
  std::string backend;
  std::string heartbeat;
  int ledger_ranks = 0;
  int ranks = 4;
  int nseq = 32;
  int block = 4;
  double compute_cell = 1e-7;
  bool ckpt = false;
  bool allow_crash = true;
  double budget = 6.0;
  bool verbose = false;
};

std::string workload_flags(const ChaosConfig& cfg) {
  std::ostringstream os;
  os << " --nseq " << cfg.nseq << " --family 8 --block " << cfg.block
     << " --ranks " << cfg.ranks << " --backend " << cfg.backend
     << " --style " << cfg.style << " --scheduler " << cfg.scheduler
     << " --compute-cell " << cfg.compute_cell;
  return os.str();
}

// Derives a deterministic fault plan from the seed, scaled to the
// fault-free elapsed time so triggers land mid-map regardless of the
// workload shape. Fault classes respect the sweep leg's capabilities:
// crashes need a remote scheduler (whose ledger elects a successor for a
// dead rank 0), kills and corruption need a checkpoint dir, and message
// faults need a remote scheduler's messages — a static leg draws a slow
// rank instead, since its map sends none a fault could hit.
std::string make_plan(const ChaosConfig& cfg, std::uint64_t seed, double elapsed) {
  Rng rng(mix64(seed ^ 0xc8a05f1ULL));
  std::ostringstream plan;
  const char* sep = "";
  auto emit = [&](const std::string& s) {
    plan << sep << s;
    sep = "; ";
  };
  auto at = [&](double lo, double hi) {
    return elapsed * (lo + (hi - lo) * rng.uniform());
  };
  const bool remote = cfg.scheduler == "steal" || cfg.scheduler == "master" ||
                      cfg.scheduler == "master-ft" || cfg.style == "master";

  const int nfaults = 1 + static_cast<int>(rng.uniform() * 2.0);  // 1..2
  for (int i = 0; i < nfaults; ++i) {
    const double pick = rng.uniform();
    if (cfg.allow_crash && remote && pick < 0.35) {
      const int rank = static_cast<int>(rng.uniform() * cfg.ranks);
      std::ostringstream f;
      f << "crash:rank=" << rank << ",t=" << at(0.05, 0.6);
      if (rng.uniform() < 0.5) f << ",mode=permanent";
      emit(f.str());
    } else if (cfg.ckpt && pick < 0.55) {
      std::ostringstream f;
      f << "kill:t=" << at(0.2, 0.7);
      emit(f.str());
    } else if (cfg.ckpt && remote && pick < 0.65) {
      emit("corrupt:target=shard,count=1");
    } else if (pick < 0.8 || !remote) {
      const int rank = static_cast<int>(rng.uniform() * cfg.ranks);
      std::ostringstream f;
      f << "slow:rank=" << rank << ",factor=" << (2 + static_cast<int>(rng.uniform() * 14));
      emit(f.str());
    } else if (rng.uniform() < 0.5) {
      emit("drop:src=-1,dst=-1,count=1");
    } else {
      emit("delay:src=-1,dst=-1,by=0.05,count=3");
    }
  }
  return plan.str();
}

struct SeedResult {
  bool passed = false;
  std::string reason;
};

SeedResult run_seed(const ChaosConfig& cfg, std::uint64_t seed) {
  const fs::path dir = fs::path(cfg.work_dir) / ("seed." + std::to_string(seed));
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string base_out = (dir / "base").string();
  const std::string chaos_out = (dir / "chaos").string();

  auto map_tasks = [&](const std::string& obs) {
    return number_after(slurp(dir / obs / "metrics.json"), "\"mrmpi.map_tasks\"", 0.0);
  };

  // 1. Fault-free baseline.
  const std::string base_cmd = cfg.driver + workload_flags(cfg) + " --out-dir " +
                               base_out + " --obs-dir " + (dir / "base.obs").string();
  const RunOutcome base = run_command(base_cmd, (dir / "base.log").string());
  if (base.exit_code != 0) {
    return {false, "baseline failed with exit " + std::to_string(base.exit_code)};
  }
  const double elapsed = number_after(base.stdout_text, "elapsed", 0.0);
  const std::string base_sum = token_after(base.stdout_text, "checksum");
  const double base_tasks = map_tasks("base.obs");
  if (elapsed <= 0.0 || base_sum.empty() || base_tasks <= 0.0) {
    return {false, "could not parse the baseline run"};
  }

  // 2. Seeded fault schedule.
  const std::string plan = make_plan(cfg, seed, elapsed);
  std::ofstream(dir / "plan.txt") << plan << '\n';
  if (cfg.verbose) std::printf("  seed %llu plan: %s\n",
                               static_cast<unsigned long long>(seed), plan.c_str());

  // 3. Chaos run; --resume after every job kill (exit 3).
  double chaos_tasks = 0.0;
  std::string last_text;
  const int max_attempts = 6;
  int attempt = 0;
  for (; attempt < max_attempts; ++attempt) {
    const std::string obs = "chaos." + std::to_string(attempt) + ".obs";
    std::ostringstream cmd;
    cmd << cfg.driver << workload_flags(cfg) << " --out-dir " << chaos_out
        << " --obs-dir " << (dir / obs).string();
    if (cfg.scheduler == "steal") {
      cmd << " --ledger-ranks " << cfg.ledger_ranks;
      if (!cfg.heartbeat.empty()) cmd << " --heartbeat " << cfg.heartbeat;
    }
    if (cfg.ckpt) {
      cmd << " --checkpoint-dir " << (dir / "ckpt").string()
          << " --checkpoint-interval 0";
      if (attempt > 0) cmd << " --resume";
    }
    if (attempt == 0) cmd << " --faults \"" << plan << '"';
    const RunOutcome run = run_command(
        cmd.str(), (dir / ("chaos." + std::to_string(attempt) + ".log")).string());
    last_text = run.stdout_text;
    chaos_tasks += map_tasks(obs);
    if (run.exit_code == 0) break;
    if (run.exit_code != 3 || !cfg.ckpt) {
      return {false, "chaos run failed with exit " + std::to_string(run.exit_code) +
                         " (attempt " + std::to_string(attempt) + ")"};
    }
  }
  if (attempt == max_attempts) {
    return {false, "job still killed after " + std::to_string(max_attempts) + " attempts"};
  }

  // 4a. Byte-identity of the printed checksum and every edge file.
  const std::string chaos_sum = token_after(last_text, "checksum");
  if (chaos_sum != base_sum) {
    return {false, "edge checksum diverged: " + base_sum + " vs " + chaos_sum};
  }
  for (int r = 0; r < cfg.ranks; ++r) {
    const fs::path b = fs::path(base_out) / ("edges." + std::to_string(r) + ".tsv");
    const fs::path c = fs::path(chaos_out) / ("edges." + std::to_string(r) + ".tsv");
    if (fs::exists(b) != fs::exists(c)) {
      return {false, "edge file presence diverged for rank " + std::to_string(r)};
    }
    if (fs::exists(b) && slurp(b) != slurp(c)) {
      return {false, "edge bytes diverged for rank " + std::to_string(r)};
    }
  }

  // 4b. Recovery-cost budget: total work executed across every attempt.
  const double ratio = chaos_tasks / base_tasks;
  if (ratio > cfg.budget) {
    std::ostringstream os;
    os << "recovery cost " << ratio << "x exceeds budget " << cfg.budget << "x";
    return {false, os.str()};
  }
  return {true, ""};
}

}  // namespace

int main(int argc, char** argv) {
  Options opts("mrbio_chaos: randomized fault-schedule soak for the FT stack");
  opts.add("driver", "", "path to mrgraph_build (default: beside this binary)");
  opts.add("seeds", "4", "number of seeds to sweep");
  opts.add("seed0", "1", "first seed");
  opts.add("scheduler", "steal", "driver scheduler: chunk|stride|master|master-ft|steal");
  opts.add("style", "chunk", "driver map style: chunk or master");
  opts.add("backend", "sim", "driver backend: sim or native");
  opts.add_flag("ckpt", "give every chaos run a checkpoint dir; enables "
                        "kill/corrupt faults in the schedules");
  opts.add_flag("no-crash", "exclude crash faults (for legs without a "
                            "fault-tolerant scheduler)");
  opts.add("ledger-ranks", "0", "steal only: forwarded to the driver");
  opts.add("heartbeat", "", "steal only: forwarded to the driver");
  opts.add("ranks", "4", "ranks per run");
  opts.add("nseq", "32", "synthetic sequences per run");
  opts.add("block", "4", "sequences per block");
  opts.add("compute-cell", "1e-7", "virtual seconds per alignment cell");
  opts.add("budget", "6",
           "max total executed map tasks across attempts, as a multiple of "
           "the fault-free count");
  opts.add("work-dir", "", "artifact directory (default /tmp/mrbio_chaos.<pid>)");
  opts.add_flag("keep", "keep artifacts of passing seeds too");
  opts.add_flag("verbose", "print fault plans as they run");
  try {
    if (!opts.parse(argc, argv)) return 0;
    ChaosConfig cfg;
    cfg.driver = opts.str("driver");
    if (cfg.driver.empty()) {
      cfg.driver = (fs::path(argv[0]).parent_path() / "mrgraph_build").string();
    }
    MRBIO_REQUIRE(fs::exists(cfg.driver), "driver not found: ", cfg.driver,
                  " (pass --driver)");
    cfg.scheduler = opts.str("scheduler");
    cfg.style = opts.str("style");
    cfg.backend = opts.str("backend");
    cfg.ckpt = opts.flag("ckpt");
    cfg.allow_crash = !opts.flag("no-crash");
    cfg.ledger_ranks = static_cast<int>(opts.integer("ledger-ranks"));
    cfg.heartbeat = opts.str("heartbeat");
    cfg.ranks = static_cast<int>(opts.integer("ranks"));
    cfg.nseq = static_cast<int>(opts.integer("nseq"));
    cfg.block = static_cast<int>(opts.integer("block"));
    cfg.compute_cell = opts.real("compute-cell");
    cfg.budget = opts.real("budget");
    cfg.verbose = opts.flag("verbose");
    cfg.work_dir = opts.str("work-dir");
    if (cfg.work_dir.empty()) {
      cfg.work_dir = "/tmp/mrbio_chaos." + std::to_string(::getpid());
    }
    fs::create_directories(cfg.work_dir);

    const auto nseeds = opts.integer("seeds");
    const auto seed0 = static_cast<std::uint64_t>(opts.integer("seed0"));
    int failed = 0;
    for (std::int64_t i = 0; i < nseeds; ++i) {
      const std::uint64_t seed = seed0 + static_cast<std::uint64_t>(i);
      const SeedResult res = run_seed(cfg, seed);
      std::printf("seed %llu [%s/%s/%s%s]: %s%s%s\n",
                  static_cast<unsigned long long>(seed), cfg.scheduler.c_str(),
                  cfg.style.c_str(), cfg.backend.c_str(),
                  cfg.ckpt ? "/ckpt" : "", res.passed ? "PASS" : "FAIL",
                  res.passed ? "" : " — ", res.reason.c_str());
      if (res.passed && !opts.flag("keep")) {
        fs::remove_all(fs::path(cfg.work_dir) / ("seed." + std::to_string(seed)));
      }
      if (!res.passed) ++failed;
    }
    if (failed > 0) {
      std::printf("%d/%lld seeds FAILED; artifacts kept under %s\n", failed,
                  static_cast<long long>(nseeds), cfg.work_dir.c_str());
      return 2;
    }
    std::printf("all %lld seeds passed\n", static_cast<long long>(nseeds));
    if (!opts.flag("keep")) {
      std::error_code ec;
      fs::remove(cfg.work_dir, ec);  // only if now empty
    }
    return 0;
  } catch (const Error& e) {
    std::fprintf(stderr, "mrbio_chaos: %s\n", e.what());
    return 1;
  }
}

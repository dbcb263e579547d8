#include "driver.hpp"

#include <cstdio>
#include <filesystem>

#include "common/log.hpp"
#include "obs/analysis.hpp"
#include "simd/simd.hpp"

namespace mrbio::driver {

namespace {

namespace fs = std::filesystem;

void write_file(const fs::path& path, const std::function<void(std::FILE*)>& write) {
  std::FILE* f = std::fopen(path.string().c_str(), "w");
  MRBIO_REQUIRE(f != nullptr, "cannot open ", path.string());
  write(f);
  std::fclose(f);
}

}  // namespace

Harness::Harness(std::string name, Options& opts) : name_(std::move(name)), opts_(opts) {
  opts.add("backend", "sim", "runtime backend: sim (discrete-event) or native (threads)");
  opts.add("ranks", "0", "MPI ranks; 0 = backend default (sim: 8, native: hardware threads)");
  opts.add("scheduler", "auto",
           "map scheduler: auto|chunk|stride|master|master-ft|steal "
           "(auto follows the driver's map style)");
  opts.add("faults", "",
           "fault plan: spec/JSON string, or a path to a plan file; crash, "
           "drop, and dup-under-a-remote-scheduler plans enable the "
           "fault-tolerant scheduler");
  opts.add("ft-timeout", "auto",
           "with --faults: seconds before an outstanding task is retried; "
           "auto adapts to ~4x the p99 of observed task cost (5 s until "
           "enough tasks have completed)");
  opts.add("ft-retries", "3", "with --faults: retries per task before it is abandoned");
  opts.add("ledger-ranks", "0",
           "with --scheduler steal faults: ranks owning a commit-ledger "
           "shard (0 = every rank owns its seeded range); master pins "
           "it to 1, one shard owned by rank 0");
  opts.add("heartbeat", "",
           "phi-accrual failure detection piggybacked on scheduler traffic, "
           "e.g. \"interval=0.5,phi=6,samples=4\" or \"on\" (empty = off)");
  opts.add("checkpoint-dir", "", "durable checkpoint directory; enables checkpoint/restart");
  opts.add("checkpoint-interval", "5",
           "min virtual seconds between map-log flushes (0 = flush every task)");
  opts.add_flag("resume", "continue from the checkpoint in --checkpoint-dir");
  opts.add("simd", "auto",
           "SIMD level of the compute kernels: scalar|sse|avx2|auto (auto = "
           "best this CPU supports; results are bit-identical across levels)");
  opts.add("log", "", "log level: debug/info/warn/error/off (default $MRBIO_LOG or warn)");
  opts.add_flag("report", "print a critical-path / idle-time performance report");
  opts.add("obs-dir", "",
           "write trace.json, report.json, metrics.json, timeseries.jsonl and "
           "events.jsonl (every log line as JSONL) into this directory");
}

Harness::~Harness() {
  if (eventlog_) set_log_sink(nullptr, nullptr);
}

const char* Harness::clock_name() const {
  return lc_.backend == rt::Backend::Sim ? "virtual" : "wall-clock";
}

sched::Policy Harness::scheduler() const {
  return sched::parse_policy(opts_.str("scheduler"));
}

int Harness::run(int argc, char** argv, const std::function<void()>& body) {
  try {
    if (!opts_.parse(argc, argv)) return 0;
    setup();
    body();
    finish();
    return 0;
  } catch (const fault::JobKillSignal& e) {
    return killed(e.what());
  } catch (const std::exception& e) {
    // A kill can surface as a secondary error (e.g. the sim engine reports
    // the surviving ranks' deadlock before the kill signal itself).
    if (injector_ && injector_->stats().kills_fired > 0) {
      return killed(std::string(e.what()) + " (restart with --resume to continue)");
    }
    MRBIO_LOG(ErrorLevel, name_, ": ", e.what());
    return 1;
  }
}

void Harness::setup() {
  // The sink goes in first so events.jsonl holds every log line of the
  // run, the log-level and SIMD lines included.
  obs_dir_ = opts_.str("obs-dir");
  if (!obs_dir_.empty()) {
    fs::create_directories(obs_dir_);
    eventlog_ = std::make_unique<obs::EventLog>((fs::path(obs_dir_) / "events.jsonl").string());
    set_log_sink(&obs::EventLog::log_sink, eventlog_.get());
  }
  if (!opts_.str("log").empty()) set_log_level(parse_log_level(opts_.str("log")));
  simd::set_isa(simd::parse_isa(opts_.str("simd")));
  MRBIO_LOG(Info, "simd level: ", simd::isa_name(simd::active_isa()));

  lc_.backend = rt::backend_from_name(opts_.str("backend"));
  lc_.nranks = opts_.integer("ranks") > 0 ? static_cast<int>(opts_.integer("ranks"))
                                          : rt::default_ranks(lc_.backend);
  lc_.eventlog = eventlog_.get();
  if (!opts_.str("faults").empty()) {
    const std::string& spec = opts_.str("faults");
    injector_ = std::make_unique<fault::Injector>(fs::exists(spec)
                                                      ? fault::FaultPlan::from_file(spec)
                                                      : fault::FaultPlan::parse(spec));
    lc_.injector = injector_.get();
  }
  // The report's critical-path walk needs per-message events, hence Full.
  if (opts_.flag("report") || !obs_dir_.empty()) {
    recorder_ = std::make_unique<trace::Recorder>(lc_.nranks, trace::Level::Full);
    registry_ = std::make_unique<obs::Registry>();
    timeseries_ = std::make_unique<obs::TimeSeries>(lc_.nranks);
    lc_.recorder = recorder_.get();
    lc_.metrics = registry_.get();
    lc_.timeseries = timeseries_.get();
  }
}

sched::FtConfig Harness::fault_tolerance(sched::Policy auto_policy) {
  sched::Policy policy = scheduler();
  if (policy == sched::Policy::Auto) policy = auto_policy;
  sched::FtConfig ft;
  if (!injector_ || !sched::requires_ft(injector_->plan(), policy)) return ft;
  MRBIO_REQUIRE(sched::is_remote(policy), "this fault plan needs the fault-tolerant ",
                "protocol, which runs under a remote scheduler (--scheduler ",
                "master/master-ft/steal, or --style master), not under ",
                sched::policy_name(policy));
  MRBIO_LOG(Info, "fault plan needs the fault-tolerant protocol: enabled under ",
            sched::policy_name(policy));
  ft.enabled = true;
  // "auto" (task_timeout <= 0) tracks ~4x the p99 of observed
  // grant-to-commit service times instead of a fixed guess.
  ft.task_timeout = opts_.str("ft-timeout") == "auto" ? 0.0 : opts_.real("ft-timeout");
  ft.max_retries = static_cast<int>(opts_.integer("ft-retries"));
  ft.ledger_ranks = static_cast<int>(opts_.integer("ledger-ranks"));
  if (!opts_.str("heartbeat").empty()) {
    ft.heartbeat = fault::HeartbeatConfig::parse(opts_.str("heartbeat"));
  }
  // The ledger elects a deterministic successor for a dead shard owner,
  // so rank-0 crash plans are legal under every remote policy.
  lc_.master_failover = true;
  return ft;
}

ckpt::Checkpointer* Harness::checkpoint(const std::string& fingerprint) {
  ckpt::CheckpointConfig config;
  config.dir = opts_.str("checkpoint-dir");
  config.interval = opts_.real("checkpoint-interval");
  config.resume = opts_.flag("resume");
  MRBIO_REQUIRE(!config.resume || !config.dir.empty(), "--resume requires --checkpoint-dir");
  if (config.dir.empty()) return nullptr;
  checkpointer_ = std::make_unique<ckpt::Checkpointer>(config, injector_.get());
  checkpointer_->open(fingerprint);
  lc_.checkpointing = true;
  return checkpointer_.get();
}

rt::LaunchResult Harness::launch(const std::function<void(rt::Rank&)>& body) {
  launched_ = true;
  return rt::launch(lc_, body);
}

void Harness::finish() {
  if (injector_) {
    const fault::InjectorStats stats = injector_->stats();
    std::printf("faults fired: %llu crashes, %llu drops, %llu duplicates, "
                "%llu delays, %llu kills, %llu corruptions\n",
                static_cast<unsigned long long>(stats.crashes_fired),
                static_cast<unsigned long long>(stats.messages_dropped),
                static_cast<unsigned long long>(stats.messages_duplicated),
                static_cast<unsigned long long>(stats.messages_delayed),
                static_cast<unsigned long long>(stats.kills_fired),
                static_cast<unsigned long long>(stats.checkpoints_corrupted));
  }
  if (checkpointer_) {
    const ckpt::CheckpointStats cs = checkpointer_->stats();
    std::printf("checkpoint: %llu records (%llu bytes) written, "
                "%llu records (%llu bytes) replayed, %llu corrupt dropped",
                static_cast<unsigned long long>(cs.records_written),
                static_cast<unsigned long long>(cs.bytes_written),
                static_cast<unsigned long long>(cs.records_replayed),
                static_cast<unsigned long long>(cs.bytes_replayed),
                static_cast<unsigned long long>(cs.corrupt_records));
    if (cs.snapshots_saved > 0) {
      std::printf(", %llu snapshots", static_cast<unsigned long long>(cs.snapshots_saved));
    }
    std::printf("\n");
    checkpointer_->cleanup_on_success();
  }
  if (!recorder_) return;
  const obs::Report report = obs::analyze(*recorder_);
  if (opts_.flag("report")) {
    trace::print_summary(stdout, trace::summarize(*recorder_));
    obs::print_report(stdout, report);
    std::printf("\n-- metrics --\n");
    registry_->print(stdout);
  }
  write_bundle(report);
}

void Harness::write_bundle(const obs::Report& report) const {
  if (obs_dir_.empty()) return;
  const fs::path dir(obs_dir_);
  trace::write_chrome_trace((dir / "trace.json").string(), *recorder_);
  write_file(dir / "report.json", [&](std::FILE* f) {
    obs::write_report_json(f, report, registry_.get(), timeseries_.get());
    std::fputc('\n', f);
  });
  write_file(dir / "metrics.json", [&](std::FILE* f) {
    registry_->write_json(f);
    std::fputc('\n', f);
  });
  write_file(dir / "timeseries.jsonl", [&](std::FILE* f) { timeseries_->write_jsonl(f); });
  std::printf("obs: %s\n", obs_dir_.c_str());
}

int Harness::killed(const std::string& what) {
  MRBIO_LOG(Warn, name_, ": job killed: ", what);
  // Every rank has joined once launch() is left, so the attempt's
  // observers are complete up to the kill.
  if (launched_ && !obs_dir_.empty()) {
    try {
      write_bundle(obs::analyze(*recorder_));
    } catch (const std::exception& e) {
      MRBIO_LOG(Warn, name_, ": obs bundle of the killed run not written: ", e.what());
    }
  }
  return 3;
}

}  // namespace mrbio::driver

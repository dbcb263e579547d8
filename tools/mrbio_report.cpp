// mrbio_report: offline performance-report generator. Reads the trace of
// a driver's --obs-dir bundle (mrblast_search / mrsom_train /
// mrgraph_build), reconstructs the span stream plus its happens-before
// edges, and prints the critical-path and idle-time analysis from
// src/obs. The same analysis runs in-process via --report and lands in
// the bundle's report.json; this tool exists so saved runs can be
// re-analyzed with other settings.
//
//   mrbio_report --obs-dir run/ [--json report.json]
//                [--straggler-k 1.5] [--rank-rows 16]
#include <cstdio>
#include <filesystem>

#include "common/log.hpp"
#include "common/options.hpp"
#include "obs/analysis.hpp"
#include "trace/trace.hpp"

using namespace mrbio;

int main(int argc, char** argv) {
  Options opts("mrbio_report: critical-path / idle-time report from a run's --obs-dir");
  opts.add("obs-dir", "", "bundle written by a driver's --obs-dir; reads its trace.json "
                          "(required)");
  opts.add("json", "", "also write the report as machine-readable JSON to this path");
  opts.add("straggler-k", "1.5", "flag ranks with busy time > k x median");
  opts.add("skew-top-k", "3", "slowest ranks listed per phase in the skew table");
  opts.add("rank-rows", "16", "per-rank table rows to print");
  opts.add("log", "", "log level: debug/info/warn/error/off (default $MRBIO_LOG or warn)");
  try {
    if (!opts.parse(argc, argv)) return 0;
    if (!opts.str("log").empty()) set_log_level(parse_log_level(opts.str("log")));
    MRBIO_REQUIRE(!opts.str("obs-dir").empty(), "--obs-dir is required\n", opts.usage());

    const trace::LoadedTrace loaded = trace::read_chrome_trace(
        (std::filesystem::path(opts.str("obs-dir")) / "trace.json").string());
    obs::AnalyzeOptions aopts;
    aopts.straggler_k = opts.real("straggler-k");
    aopts.skew_top_k = static_cast<std::size_t>(opts.integer("skew-top-k"));
    const obs::Report report = obs::analyze(loaded.recorder, aopts);
    obs::print_report(stdout, report,
                      static_cast<std::size_t>(opts.integer("rank-rows")));
    if (!opts.str("json").empty()) {
      std::FILE* f = std::fopen(opts.str("json").c_str(), "w");
      MRBIO_REQUIRE(f != nullptr, "cannot open ", opts.str("json"));
      obs::write_report_json(f, report);
      std::fputc('\n', f);
      std::fclose(f);
      std::printf("report: %s\n", opts.str("json").c_str());
    }
    return 0;
  } catch (const std::exception& e) {
    MRBIO_LOG(ErrorLevel, "mrbio_report: ", e.what());
    return 1;
  }
}

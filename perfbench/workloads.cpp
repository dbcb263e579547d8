#include "workloads.hpp"

#include <sched.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <limits>
#include <optional>
#include <sstream>
#include <unordered_map>

#include "blast/dbformat.hpp"
#include "blast/composition.hpp"
#include "blast/lookup.hpp"
#include "blast/search.hpp"
#include "blast/sequence.hpp"
#include "common/error.hpp"
#include "common/matrix.hpp"
#include "common/rng.hpp"
#include "mpi/comm.hpp"
#include "mrblast/mrblast.hpp"
#include "mrmpi/mapreduce.hpp"
#include "mrsom/mrsom.hpp"
#include "rt/backend.hpp"
#include "simd/simd.hpp"
#include "som/som.hpp"
#include "workload/blast_model.hpp"

namespace perfbench {
namespace {

using namespace mrbio;
namespace fs = std::filesystem;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Independent input streams per workload from one benchmark seed.
std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t stream) {
  return mix64(seed * 0x100000001b3ULL + stream);
}

rt::LaunchResult launch(rt::LaunchConfig lc, const Instruments* inst,
                        const std::function<void(mpi::Comm&)>& body) {
  if (inst != nullptr) {
    lc.recorder = inst->recorder;
    lc.metrics = inst->registry;
  }
  return rt::launch(lc, [&](rt::Rank& rank) {
    mpi::Comm comm(rank);
    body(comm);
  });
}

rt::LaunchConfig native_config(int ranks) {
  rt::LaunchConfig lc;
  lc.backend = rt::Backend::Native;
  lc.nranks = ranks;
  return lc;
}

double histogram_sum(const obs::Registry& reg, std::string_view name) {
  const obs::Histogram* h = reg.find_histogram(name);
  return h == nullptr ? 0.0 : h->sum();
}

double counter_value(const obs::Registry& reg, std::string_view name) {
  const obs::Counter* c = reg.find_counter(name);
  return c == nullptr ? 0.0 : static_cast<double>(c->value());
}

// ---------------------------------------------------------------------------
// blast_reads: mutated reads searched against a random-genome DB with the
// real engine on the native backend (master-worker scheduling). Home of the
// blast and sched layers.

class BlastReads final : public Workload {
 public:
  static constexpr std::size_t kContigs = 8;
  static constexpr std::size_t kContigLen = 250'000;  // 2 Mbp DB
  static constexpr std::uint64_t kVolumeResidues = 500'000;  // 4 volumes
  static constexpr std::size_t kReads = 640;
  static constexpr std::size_t kReadLen = 400;
  static constexpr std::size_t kBlock = 20;  // 32 blocks x 4 volumes = 128 tasks
  static constexpr double kSubRate = 0.03;
  /// A top hit may start or end this far outside its read's origin.
  static constexpr std::uint64_t kSlack = 20;

  BlastReads(std::string dir, int ranks) : dir_(std::move(dir)), ranks_(ranks) {}

  int ranks() const override { return ranks_; }

  void setup(std::uint64_t seed) override {
    Rng rng(stream_seed(seed, 1));
    std::vector<blast::Sequence> contigs;
    for (std::size_t c = 0; c < kContigs; ++c) {
      contigs.push_back(blast::random_sequence(rng, "c" + std::to_string(c), kContigLen,
                                               blast::SeqType::Dna));
    }
    origins_.clear();
    blocks_.assign((kReads + kBlock - 1) / kBlock, {});
    for (std::size_t i = 0; i < kReads; ++i) {
      Origin o;
      o.contig = rng.below(kContigs);
      o.pos = rng.below(kContigLen - kReadLen + 1);
      o.minus = rng.below(2) == 1;
      blast::Sequence frag;
      const auto& src = contigs[o.contig].data;
      frag.data.assign(src.begin() + static_cast<std::ptrdiff_t>(o.pos),
                       src.begin() + static_cast<std::ptrdiff_t>(o.pos + kReadLen));
      blast::Sequence read =
          blast::mutate(rng, frag, "r" + std::to_string(i), kSubRate, blast::SeqType::Dna);
      if (o.minus) read.data = blast::reverse_complement(read.data);
      blocks_[i / kBlock].push_back(std::move(read));
      origins_.push_back(o);
    }
    fs::create_directories(dir_);
    const blast::DbInfo db =
        blast::build_db(contigs, (fs::path(dir_) / "db").string(), blast::SeqType::Dna,
                        kVolumeResidues);
    volume_paths_ = db.volume_paths;
    db_residues_ = db.total_residues;
    db_seqs_ = db.total_seqs;
    volumes_.clear();
    for (const auto& path : volume_paths_) {
      volumes_.push_back(std::make_shared<const blast::DbVolume>(blast::DbVolume::load(path)));
    }
  }

  void run(const Instruments* inst) override {
    const fs::path out = fs::path(dir_) / "hits";
    fs::remove_all(out);
    mrblast::RealRunConfig config;
    config.query_blocks = blocks_;
    config.partition_paths = volume_paths_;
    config.output_dir = out.string();
    launch(native_config(ranks_), inst, [&](mpi::Comm& comm) {
      const auto result = mrblast::run_blast_mr(comm, config);
      if (comm.rank() == 0) failed_tasks_ = result.failed_tasks;
    });
    top_hits_.reset();
  }

  void check(Checks& checks) override {
    load_top_hits();
    checks.expect(failed_tasks_ == 0);
    for (std::size_t i = 0; i < origins_.size(); ++i) {
      const auto it = top_hits_->find("r" + std::to_string(i));
      checks.expect(it != top_hits_->end() && is_origin(it->second, origins_[i]));
    }
  }

  void corrupt() override {
    load_top_hits();
    auto& hit = top_hits_->at("r0");
    hit.subject = "c" + std::to_string((origins_[0].contig + 1) % kContigs);
  }

  void layer_metrics(const Instruments& inst, const HostCost&, LayerMetrics& out) override {
    const obs::Registry& reg = *inst.registry;
    const trace::Recorder& rec = *inst.recorder;
    out["blast.search_s"] = histogram_sum(reg, "blast.search_seconds");
    out["blast.db_load_s"] = histogram_sum(reg, "blast.db_load_seconds");
    out["blast.db_loads"] = counter_value(reg, "blast.db_loads");

    // Per-task search seconds from the App "search" spans. pmax is the
    // highest percentile with at least 10 tasks beyond it: the 11th
    // largest task.
    std::vector<double> tasks;
    for (int r = 0; r < rec.nranks(); ++r) {
      for (const auto& e : rec.rank_events(r)) {
        if (e.cat == trace::Category::App && std::string_view(e.name) == "search") {
          tasks.push_back(e.t1 - e.t0);
        }
      }
    }
    std::sort(tasks.begin(), tasks.end());
    out["blast.tasks"] = static_cast<double>(tasks.size());
    out["blast.task_p50_s"] = tasks.empty() ? 0.0 : median(tasks);
    out["blast.task_pmax_s"] =
        tasks.empty() ? 0.0 : tasks[tasks.size() > 10 ? tasks.size() - 11 : tasks.size() - 1];

    probe(out);
    sched_metrics(reg, rec, out);
  }

 private:
  struct Origin {
    std::size_t contig = 0;
    std::uint64_t pos = 0;
    bool minus = false;
  };
  struct TopHit {
    std::string subject;
    std::uint64_t s_lo = 0;  ///< 0-based, half-open on the plus strand
    std::uint64_t s_hi = 0;
    bool minus = false;
  };

  /// Reads the first (best) line per query of every rank's tabular hit
  /// file, once per run.
  void load_top_hits() {
    if (top_hits_) return;
    const fs::path dir = fs::path(dir_) / "hits";
    auto& top = top_hits_.emplace();
    if (!fs::exists(dir)) return;
    for (const auto& entry : fs::directory_iterator(dir)) {
      std::ifstream in(entry.path());
      std::string line;
      while (std::getline(in, line)) {
        std::istringstream fields(line);
        std::string qid, sid, skip;
        std::uint64_t ss = 0, se = 0;
        fields >> qid >> sid;
        for (int i = 0; i < 6; ++i) fields >> skip;  // pident .. qend
        fields >> ss >> se;
        if (!fields || top.count(qid) != 0) continue;
        TopHit h;
        h.subject = sid;
        h.minus = ss > se;
        h.s_lo = std::min(ss, se) - 1;
        h.s_hi = std::max(ss, se);
        top.emplace(qid, h);
      }
    }
  }

  static bool is_origin(const TopHit& h, const Origin& o) {
    return h.subject == "c" + std::to_string(o.contig) && h.minus == o.minus &&
           h.s_lo + kSlack >= o.pos && h.s_hi <= o.pos + kReadLen + kSlack &&
           h.s_hi - h.s_lo >= kReadLen / 2;
  }

  /// Single-threaded probe: lookup-table build and search of the first
  /// query block against every volume, with the run's whole-DB statistics.
  void probe(LayerMetrics& out) const {
    const auto& block = blocks_.front();
    std::vector<std::uint8_t> concat{blast::kSentinel};
    std::uint64_t query_residues = 0;
    for (const auto& q : block) {
      query_residues += q.length();
      concat.insert(concat.end(), q.data.begin(), q.data.end());
      concat.push_back(blast::kSentinel);
      const auto rc = blast::reverse_complement(q.data);
      concat.insert(concat.end(), rc.begin(), rc.end());
      concat.push_back(blast::kSentinel);
    }
    blast::SearchOptions options;
    options.effective_db_length = db_residues_;
    options.effective_db_seqs = db_seqs_;

    double lookup_s = 0.0;
    double search_s = 0.0;
    std::uint64_t subject_residues = 0;
    blast::SearchStats total;
    std::uint64_t positions = 0;
    for (const auto& vol : volumes_) {
      auto t0 = Clock::now();
      const blast::NucLookup lookup(concat, options.word_size);
      lookup_s += seconds_since(t0);
      positions += lookup.total_positions();

      const blast::BlastSearcher searcher(vol, options);
      t0 = Clock::now();
      searcher.search(block);
      search_s += seconds_since(t0);
      subject_residues += vol->residues();
      const blast::SearchStats& s = searcher.last_stats();
      total.word_hits += s.word_hits;
      total.ungapped_extensions += s.ungapped_extensions;
      total.gapped_extensions += s.gapped_extensions;
      total.hsps_reported += s.hsps_reported;
    }
    MRBIO_CHECK(positions > 0, "probe lookup table is empty");
    out["blast.lookup_build_s"] = lookup_s;
    out["blast.probe_search_s"] = search_s;
    out["blast.cells_per_s"] =
        static_cast<double>(query_residues) * static_cast<double>(subject_residues) / search_s;
    out["blast.word_hits"] = static_cast<double>(total.word_hits);
    out["blast.ungapped_ext"] = static_cast<double>(total.ungapped_extensions);
    out["blast.gapped_ext"] = static_cast<double>(total.gapped_extensions);
    out["blast.hsps"] = static_cast<double>(total.hsps_reported);
    out["blast.hsps_per_gapped_ext"] =
        static_cast<double>(total.hsps_reported) /
        static_cast<double>(std::max<std::uint64_t>(1, total.gapped_extensions));
    out["blast.ungapped_per_word_hit"] =
        static_cast<double>(total.ungapped_extensions) /
        static_cast<double>(std::max<std::uint64_t>(1, total.word_hits));
  }

  /// The master's busy share: seconds rank 0 spent serving task requests
  /// over its whole run. (obs::analyze's decomposition counts no Phase span
  /// as busy, so at Phases level it reads 0 for the master.) And the map
  /// tail: how long the first worker to run out of tasks waited for the
  /// last task to finish.
  static void sched_metrics(const obs::Registry& reg, const trace::Recorder& rec,
                            LayerMetrics& out) {
    const double master_time = rec.final_times().at(0);
    out["sched.rank0_busy_frac"] =
        master_time > 0.0 ? histogram_sum(reg, "mrmpi.master_service_seconds") / master_time
                          : 0.0;

    double last_end = 0.0;
    double first_idle = std::numeric_limits<double>::infinity();
    for (int r = 0; r < rec.nranks(); ++r) {
      double rank_last = -1.0;
      for (const auto& e : rec.rank_events(r)) {
        if (e.cat == trace::Category::Task) rank_last = std::max(rank_last, e.t1);
      }
      if (rank_last < 0.0) continue;  // the master runs no tasks
      last_end = std::max(last_end, rank_last);
      first_idle = std::min(first_idle, rank_last);
    }
    out["sched.tail_s"] = std::isfinite(first_idle) ? last_end - first_idle : 0.0;
  }

  std::string dir_;
  int ranks_;
  std::vector<std::vector<blast::Sequence>> blocks_;
  std::vector<Origin> origins_;
  std::vector<std::string> volume_paths_;
  std::vector<std::shared_ptr<const blast::DbVolume>> volumes_;
  std::uint64_t db_residues_ = 0;
  std::uint64_t db_seqs_ = 0;
  std::uint64_t failed_tasks_ = 0;
  std::optional<std::unordered_map<std::string, TopHit>> top_hits_;
};

// ---------------------------------------------------------------------------
// blast_paper_sim: a Fig. 3 point through the workload oracle on the
// discrete-event simulator. No real alignment: the host cost is the engine
// handing control between simulated ranks. Home of the sim layer.
//
// The simulator runs one rank at a time, so the run is pinned to one CPU:
// a handoff then costs a same-CPU thread switch instead of a wake-up on
// another virtual CPU, whose latency depends on the VM host's other load
// (see README.md for the measurements).

/// Restricts the calling thread, and so the threads it starts, to the CPU
/// it is running on, until destroyed.
class PinToOneCpu {
 public:
  PinToOneCpu() {
    MRBIO_CHECK(sched_getaffinity(0, sizeof(saved_), &saved_) == 0, "sched_getaffinity failed");
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(sched_getcpu(), &one);
    MRBIO_CHECK(sched_setaffinity(0, sizeof(one), &one) == 0, "sched_setaffinity failed");
  }
  ~PinToOneCpu() { sched_setaffinity(0, sizeof(saved_), &saved_); }
  PinToOneCpu(const PinToOneCpu&) = delete;
  PinToOneCpu& operator=(const PinToOneCpu&) = delete;

 private:
  cpu_set_t saved_;
};

class BlastPaperSim final : public Workload {
 public:
  static constexpr int kRanks = 512;

  int ranks() const override { return kRanks; }

  void setup(std::uint64_t seed) override {
    config_ = mrblast::SimRunConfig{};  // Fig. 3: 80K queries x 1000/block x 109 partitions
    config_.workload.seed = stream_seed(seed, 2);
    const workload::BlastWorkload oracle(config_.workload);
    expected_hits_ = 0;
    for (std::uint64_t u = 0; u < oracle.num_units(); ++u) expected_hits_ += oracle.unit_hits(u);
    first_ = Outcome{};
  }

  void run(const Instruments* inst) override {
    rt::LaunchConfig lc;
    lc.backend = rt::Backend::Sim;
    lc.nranks = kRanks;
    lc.net.latency = 2.3e-6;  // the figure benches' Infiniband model
    lc.net.byte_time = 6.7e-10;
    lc.stack_bytes = 256 * 1024;
    mrblast::SimRunStats stats;
    const PinToOneCpu pin;
    const rt::LaunchResult result = launch(lc, inst, [&](mpi::Comm& comm) {
      const auto s = mrblast::run_blast_sim(comm, config_);
      if (comm.rank() == 0) stats = s;
    });
    last_.makespan = result.elapsed;
    last_.messages = result.messages;
    last_.hits = stats.total_hits;
    last_.failed_tasks = stats.failed_tasks;
  }

  /// Hits must match the oracle; the virtual makespan and message count
  /// must equal those of the first run in this process (traced or not).
  void check(Checks& checks) override {
    checks.expect(last_.failed_tasks == 0 && last_.hits == expected_hits_);
    if (first_.messages == 0) {
      first_ = last_;
    } else {
      checks.expect(last_.makespan == first_.makespan && last_.messages == first_.messages);
    }
  }

  void corrupt() override {
    last_.hits += 1;
    last_.messages += 1;
  }

  void layer_metrics(const Instruments&, const HostCost& cost, LayerMetrics& out) override {
    out["sim.messages"] = static_cast<double>(last_.messages);
    out["sim.host_us_per_msg"] = 1e6 * cost.wall_s / static_cast<double>(last_.messages);
    out["sim.sys_frac"] = cost.cpu_s() > 0.0 ? cost.sys_s / cost.cpu_s() : 0.0;
    out["sim.virtual_makespan_s"] = last_.makespan;
  }

 private:
  struct Outcome {
    double makespan = 0.0;
    std::uint64_t messages = 0;
    std::uint64_t hits = 0;
    std::uint64_t failed_tasks = 0;
  };

  mrblast::SimRunConfig config_;
  std::uint64_t expected_hits_ = 0;
  Outcome first_;
  Outcome last_;
};

// ---------------------------------------------------------------------------
// som_tetra: batch SOM over tetranucleotide vectors on the native backend
// with mrsom_train's defaults: chunk map, accumulators summed by a direct
// MPI reduce (no KV shuffle). Home of the som and mpi layers.
//
// A static schedule fixes every summation order, and every SIMD level
// gives bit-identical results, so the codebook must equal the same run
// with the scalar kernels (the oracle of the vector ones), which is the
// reference. (On the simulator the scalar run takes 25 s; the backends'
// byte-identity is the repository's own tests' job.) Serial train_batch
// sums in another order; the last-bit differences flip near-tie BMUs and
// grow over the epochs (up to 7% of the largest weight after 10 epochs),
// so no tolerance would separate rounding from a bug.

class SomTetra final : public Workload {
 public:
  static constexpr std::size_t kVectors = 4000;
  static constexpr std::size_t kFragmentLen = 2000;
  static constexpr std::size_t kSources = 6;
  static constexpr std::size_t kRows = 30;
  static constexpr std::size_t kCols = 30;
  static constexpr std::size_t kEpochs = 10;
  static constexpr std::size_t kBlock = 40;
  static constexpr std::size_t kProbeVectors = 500;

  explicit SomTetra(int ranks) : ranks_(ranks) {}

  int ranks() const override { return ranks_; }

  void setup(std::uint64_t seed) override {
    Rng rng(stream_seed(seed, 3));
    // Each source genome has its own base composition, so the vectors form
    // clusters the map has to separate.
    std::vector<std::array<double, 4>> cdf(kSources);
    for (auto& c : cdf) {
      double acc = 0.0;
      std::array<double, 4> w{};
      for (auto& x : w) x = 0.5 + rng.uniform();
      const double sum = w[0] + w[1] + w[2] + w[3];
      for (std::size_t b = 0; b < 4; ++b) c[b] = (acc += w[b] / sum);
    }
    data_ = Matrix(kVectors, blast::kmer_dims(4));
    std::vector<std::uint8_t> frag(kFragmentLen);
    for (std::size_t v = 0; v < kVectors; ++v) {
      const auto& c = cdf[v % kSources];
      for (auto& base : frag) {
        const double u = rng.uniform();
        base = static_cast<std::uint8_t>(u < c[0] ? 0 : u < c[1] ? 1 : u < c[2] ? 2 : 3);
      }
      const auto freq = blast::tetranucleotide_frequencies(frag);
      std::copy(freq.begin(), freq.end(), data_.row(v).begin());
    }
    initial_ = som::Codebook(som::SomGrid{kRows, kCols}, data_.cols());
    initial_.init_pca(data_.view());
  }

  void prepare_checks() override {
    const simd::Isa active = simd::active_isa();
    simd::set_isa(simd::Isa::Scalar);
    try {
      reference_ = train(nullptr);
    } catch (...) {
      simd::set_isa(active);
      throw;
    }
    simd::set_isa(active);
  }

  void run(const Instruments* inst) override { result_ = train(inst); }

  void check(Checks& checks) override {
    checks.expect(epoch_ends_.size() == kEpochs);
    const bool shaped = result_.grid().cells() == reference_.grid().cells() &&
                        result_.dim() == reference_.dim();
    for (std::size_t c = 0; c < reference_.grid().cells(); ++c) {
      checks.expect(shaped && std::equal(reference_.vector(c).begin(),
                                         reference_.vector(c).end(),
                                         result_.vector(c).begin()));
    }
  }

  void corrupt() override { result_.vector(0)[0] += 1.0f; }

  void layer_metrics(const Instruments& inst, const HostCost&, LayerMetrics& out) override {
    const obs::Registry& reg = *inst.registry;
    std::vector<double> epochs;
    auto prev = start_;
    for (const auto t : epoch_ends_) {
      epochs.push_back(std::chrono::duration<double>(t - prev).count());
      prev = t;
    }
    out["som.epoch_p50_s"] = epochs.empty() ? 0.0 : median(epochs);
    out["som.bcast_s"] = histogram_sum(reg, "som.epoch_bcast_seconds");
    out["som.reduce_s"] = histogram_sum(reg, "som.epoch_reduce_seconds");
    out["mpi.collective_s"] = histogram_sum(reg, "mpi.collective_seconds");
    out["mpi.collectives"] = counter_value(reg, "mpi.collectives");

    // Single-threaded BMU probe against the initial codebook.
    const std::size_t n = std::min(kProbeVectors, data_.rows());
    std::size_t sink = 0;
    const auto t0 = Clock::now();
    for (std::size_t v = 0; v < n; ++v) sink += som::find_bmu(initial_, data_.row(v));
    const double secs = seconds_since(t0);
    MRBIO_CHECK(sink < n * initial_.grid().cells(), "BMU out of range");
    out["som.bmu_cells_per_s"] = static_cast<double>(n) *
                                 static_cast<double>(initial_.grid().cells()) *
                                 static_cast<double>(initial_.dim()) / secs;
  }

 private:
  som::Codebook train(const Instruments* inst) {
    mrsom::ParallelSomConfig config;
    config.params.epochs = kEpochs;
    config.block_vectors = kBlock;
    config.map_style = mrmpi::MapStyle::Chunk;
    epoch_ends_.clear();
    config.on_epoch = [&](std::size_t, double, double) { epoch_ends_.push_back(Clock::now()); };
    som::Codebook out;
    launch(native_config(ranks_), inst, [&](mpi::Comm& comm) {
      if (comm.rank() == 0) start_ = Clock::now();
      som::Codebook cb = mrsom::train_som_mr(comm, data_.view(), initial_, config);
      if (comm.rank() == 0) out = std::move(cb);
    });
    return out;
  }

  int ranks_;
  Matrix data_;
  som::Codebook initial_;
  som::Codebook reference_;
  som::Codebook result_;
  Clock::time_point start_;
  std::vector<Clock::time_point> epoch_ends_;
};

// ---------------------------------------------------------------------------
// kmer_count: 11-mer counting over shredded reads through the MapReduce
// API (map -> aggregate -> convert -> reduce) on the native backend. Many
// tiny pairs, under a resident budget of a fifth of each rank's KV data,
// so the stores page to disk (the library's out-of-core mode) while the
// shuffle moves them. Home of the mrmpi layer.

class KmerCount final : public Workload {
 public:
  static constexpr int kK = 11;
  static constexpr std::uint32_t kMask = (1u << (2 * kK)) - 1;
  static constexpr std::size_t kGenomeLen = 2'400'000;
  static constexpr std::size_t kReadLen = 400;
  static constexpr std::size_t kOverlap = 200;  // 12K reads
  static constexpr std::size_t kReadsPerTask = 100;
  /// Per-rank resident KV budget and page size: about 1.2M 4-byte keys per
  /// rank, so most pages of every store go to the spill file.
  static constexpr std::uint64_t kMemsizeBytes = 1ull << 20;
  static constexpr std::uint64_t kPageBytes = 256ull << 10;

  explicit KmerCount(int ranks) : ranks_(ranks) {}

  int ranks() const override { return ranks_; }

  /// Calls fn(code) for every k-mer of `seq` (no ambiguity codes occur).
  template <class Fn>
  static void for_each_kmer(const std::vector<std::uint8_t>& seq, Fn&& fn) {
    std::uint32_t code = 0;
    for (std::size_t i = 0; i < seq.size(); ++i) {
      code = ((code << 2) | seq[i]) & kMask;
      if (i + 1 >= static_cast<std::size_t>(kK)) fn(code);
    }
  }

  void setup(std::uint64_t seed) override {
    Rng rng(stream_seed(seed, 4));
    const std::vector<blast::Sequence> genome{
        blast::random_sequence(rng, "g", kGenomeLen, blast::SeqType::Dna)};
    reads_ = blast::shred(genome, kReadLen, kOverlap, kReadLen);
    // Single-threaded reference count, direct-addressed by k-mer code.
    reference_.assign(std::size_t{kMask} + 1, 0);
    distinct_ = 0;
    for (const auto& read : reads_) {
      for_each_kmer(read.data, [&](std::uint32_t code) {
        if (reference_[code]++ == 0) ++distinct_;
      });
    }
  }

  void run(const Instruments* inst) override {
    const std::uint64_t ntasks = (reads_.size() + kReadsPerTask - 1) / kReadsPerTask;
    times_.assign(static_cast<std::size_t>(ranks_), {});
    groups_.assign(static_cast<std::size_t>(ranks_), {});
    mrmpi::MapReduceConfig config;
    config.map_style = mrmpi::MapStyle::Chunk;
    config.memsize_bytes = kMemsizeBytes;
    config.page_bytes = kPageBytes;
    config.page_to_disk = true;
    launch(native_config(ranks_), inst, [&](mpi::Comm& comm) {
      const auto r = static_cast<std::size_t>(comm.rank());
      auto& t = times_[r];
      auto& groups = groups_[r];
      mrmpi::MapReduce mr(comm, config);
      auto t0 = Clock::now();
      const std::uint64_t pairs = mr.map(ntasks, [&](std::uint64_t task, mrmpi::KeyValue& kv) {
        const std::size_t end = std::min(reads_.size(), (task + 1) * kReadsPerTask);
        for (std::size_t i = task * kReadsPerTask; i < end; ++i) {
          for_each_kmer(reads_[i].data, [&](std::uint32_t code) {
            kv.add(std::as_bytes(std::span(&code, 1)), {});
          });
        }
      });
      t[0] = seconds_since(t0);
      t0 = Clock::now();
      mr.aggregate();
      t[1] = seconds_since(t0);
      t0 = Clock::now();
      const std::uint64_t keys = mr.convert();
      t[2] = seconds_since(t0);
      t0 = Clock::now();
      mr.reduce([&](const mrmpi::KmvGroup& group, mrmpi::KeyValue&) {
        std::uint32_t code = 0;
        if (group.key.size() == sizeof(code)) std::memcpy(&code, group.key.data(), sizeof(code));
        groups.push_back({code, group.values.size()});
      });
      t[3] = seconds_since(t0);
      if (comm.rank() == 0) {
        kv_pairs_ = pairs;
        kmv_groups_ = keys;
      }
    });
  }

  /// Every group's count must equal the reference count, and every
  /// distinct k-mer must appear as exactly one group.
  void check(Checks& checks) override {
    std::uint64_t groups = 0;
    for (const auto& rank_groups : groups_) {
      for (const auto& g : rank_groups) {
        checks.expect(g.code <= kMask && reference_[g.code] == g.count);
        ++groups;
      }
    }
    checks.expect(groups == distinct_);
  }

  void corrupt() override {
    for (auto& rank_groups : groups_) {
      if (!rank_groups.empty()) {
        rank_groups.front().count += 1;
        return;
      }
    }
  }

  void layer_metrics(const Instruments& inst, const HostCost&, LayerMetrics& out) override {
    const obs::Registry& reg = *inst.registry;
    static constexpr std::array<const char*, 4> kCalls = {"mrmpi.map_s", "mrmpi.aggregate_s",
                                                          "mrmpi.convert_s", "mrmpi.reduce_s"};
    for (std::size_t c = 0; c < kCalls.size(); ++c) {
      double worst = 0.0;
      for (const auto& t : times_) worst = std::max(worst, t[c]);
      out[kCalls[c]] = worst;
    }
    out["mrmpi.kv_pairs"] = static_cast<double>(kv_pairs_);
    out["mrmpi.kmv_groups"] = static_cast<double>(kmv_groups_);
    out["mrmpi.aggregate_bytes"] = counter_value(reg, "mrmpi.aggregate_bytes");
    out["mrmpi.spill_bytes"] = counter_value(reg, "mrmpi.spill_bytes");
    out["mrmpi.shuffle_pairs_per_s"] =
        static_cast<double>(kv_pairs_) / out["mrmpi.aggregate_s"];
  }

 private:
  struct Group {
    std::uint32_t code = 0;
    std::uint64_t count = 0;
  };

  int ranks_;
  std::vector<blast::Sequence> reads_;
  std::vector<std::uint32_t> reference_;
  std::uint64_t distinct_ = 0;
  std::vector<std::array<double, 4>> times_;  ///< per rank: map/aggregate/convert/reduce
  std::vector<std::vector<Group>> groups_;    ///< per rank: reduce() output
  std::uint64_t kv_pairs_ = 0;
  std::uint64_t kmv_groups_ = 0;
};

}  // namespace

double median(std::vector<double> v) {
  MRBIO_CHECK(!v.empty(), "median of nothing");
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"blast_reads", "blast_paper_sim", "som_tetra",
                                                 "kmer_count"};
  return names;
}

std::unique_ptr<Workload> make_workload(std::string_view name, const std::string& workdir,
                                        int native_ranks) {
  if (name == "blast_reads") return std::make_unique<BlastReads>(workdir, native_ranks);
  if (name == "blast_paper_sim") return std::make_unique<BlastPaperSim>();
  if (name == "som_tetra") return std::make_unique<SomTetra>(native_ranks);
  if (name == "kmer_count") return std::make_unique<KmerCount>(native_ranks);
  throw InputError("unknown workload '" + std::string(name) +
                   "' (blast_reads, blast_paper_sim, som_tetra, kmer_count)");
}

}  // namespace perfbench

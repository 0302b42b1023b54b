// fuzz_farm: differential fuzzing campaigns (fuzz::Farm::run), each from
// an empty corpus with forks on and a fixed candidate budget. The items
// are kCampaigns campaigns whose seeds derive from the benchmark seed,
// plus one replay of the checked-in corpus (tests/fuzz_corpus) through
// the public calls the oracle makes (assemble, the reference-board
// grid, digest, bare ISS, rtlsim, translate + platform). A campaign
// retires no instructions the benchmark can count, so the replay item
// carries fuzz_farm's host_mips and modeled_mips; the campaigns' own
// corpora differ by seed in how many instructions their programs
// retire, the checked-in one does not.
//
// Farm::run is one call, so the traced run cuts it open differently:
// it replays the corpora the campaigns left behind the same way and
// scales each layer's cost per oracle execution to the campaign's
// execution count.
#include <filesystem>
#include <random>

#include "bench.h"
#include "fi/fi.h"
#include "fuzz/corpus.h"
#include "fuzz/farm.h"
#include "iss/iss.h"
#include "platform/platform.h"
#include "rtlsim/rtlsim.h"
#include "snap/snapshot.h"
#include "trc/assembler.h"
#include "xlat/translator.h"

namespace perfbench {
namespace {

using namespace cabt;
namespace fs = std::filesystem;

constexpr size_t kCampaigns = 4;
constexpr uint64_t kCandidates = 40;
/// Index of the replay item, after the campaigns.
constexpr size_t kReplayItem = kCampaigns;

const xlat::DetailLevel kLevels[] = {
    xlat::DetailLevel::kFunctional, xlat::DetailLevel::kStatic,
    xlat::DetailLevel::kBranchPredict, xlat::DetailLevel::kICache};
const iss::DispatchMode kModes[] = {
    iss::DispatchMode::kLookup, iss::DispatchMode::kChained,
    iss::DispatchMode::kChainedTraces, iss::DispatchMode::kThreaded};

/// What one replay of corpus entries did, and its host time per layer.
struct Replay {
  double instrs = 0;  ///< retired over every engine run
  double execs = 0;   ///< engine runs, counted as the oracle counts them
  bool halted = true;  ///< every reference-board run halted
  double bare_iss_instrs = 0;
  double bare_iss_runs = 0;
  double icache_instrs = 0;       ///< translated runs at the cache level
  double icache_vliw_cycles = 0;
  std::map<std::string, double> layer_ms;
};

class FuzzFarm : public Workload {
 public:
  FuzzFarm(const std::string& work_dir, std::string corpus)
      : root_(fs::path(work_dir) / "fuzz"), corpus_(std::move(corpus)) {}

  ~FuzzFarm() override {
    std::error_code ec;
    fs::remove_all(root_, ec);
  }

  void setup(uint32_t seed) override {
    fs::remove_all(root_);
    fs::create_directories(root_);
    dirs_.assign(kCampaigns, "");
    std::mt19937 rng(seed);
    seeds_.clear();
    for (size_t k = 0; k < kCampaigns; ++k) {
      seeds_.push_back(static_cast<uint32_t>(rng()));
    }
    // Warm-up: a few candidates of the first campaign.
    fuzz::FarmConfig cfg = config(seeds_.front(), freshDir());
    cfg.max_candidates = 2;
    fuzz::Farm(cfg).run();
  }

  [[nodiscard]] size_t numItems() const override { return kCampaigns + 1; }
  [[nodiscard]] std::string itemName(size_t i) const override {
    return i == kReplayItem ? "replay/tests/fuzz_corpus"
                            : "campaign/" + std::to_string(seeds_[i]);
  }

  Outcome run(size_t i, Tracer& tracer) override {
    if (i == kReplayItem) {
      return runReplay(tracer);
    }
    const std::string dir = freshDir();
    if (dirs_[i].empty()) {
      dirs_[i] = dir;  // the corpus the replay reads
    }
    fuzz::Farm farm(config(seeds_[i], dir));
    const auto before = core::ProgramArtifactCache::instance().stats();
    fuzz::FarmStats st;
    {
      const Tracer::Scope s = tracer.span("fuzz::Farm::run", "fuzz");
      st = farm.run();
      if (s.id() >= 0) {
        campaign_spans_.emplace_back(s.id(),
                                     static_cast<double>(st.oracle_execs));
      }
    }
    const auto after = core::ProgramArtifactCache::instance().stats();
    Outcome o;
    if (st.findings != 0) {
      o.fail(std::to_string(st.findings) + " findings: " +
             st.finding_mismatches.front());
    }
    o.sim = {st.candidates,     st.invalid,       st.oracle_execs,
             st.corpus_entries, st.corpus_adds,   st.findings,
             st.coverage_bits,  st.fork_hits,     st.fork_misses};
    o.counters = {
        {"fuzz.candidates", static_cast<double>(st.candidates)},
        {"fuzz.invalid", static_cast<double>(st.invalid)},
        {"fuzz.oracle_execs", static_cast<double>(st.oracle_execs)},
        {"fuzz.corpus_adds", static_cast<double>(st.corpus_adds)},
        {"fuzz.coverage_bits", static_cast<double>(st.coverage_bits)},
        {"fuzz.fork_hits", static_cast<double>(st.fork_hits)},
        {"fuzz.fork_misses", static_cast<double>(st.fork_misses)},
        {"core.artifact.decodes",
         static_cast<double>(after.decodes - before.decodes)},
        {"core.artifact.hits", static_cast<double>(after.hits - before.hits)},
    };
    return o;
  }

  /// The translated path on the checked-in corpus, cache level: source
  /// instructions over VLIW time at 200 MHz.
  Modeled modeled(const std::vector<Outcome>& first) const override {
    const Outcome& o = first[kReplayItem];
    if (!o.ok) {
      return {};
    }
    const auto hz =
        static_cast<double>(platform::PlatformConfig{}.vliw_clock_hz);
    return {static_cast<double>(o.sim[2]), static_cast<double>(o.sim[3]) / hz};
  }

  std::map<std::string, double> layerMetrics(
      Tracer& tracer, const std::map<std::string, double>& /*c*/) override {
    const Replay r = replay(dirs_, tracer);
    for (const auto& [id, execs] : campaign_spans_) {
      for (const auto& [layer, ms] : r.layer_ms) {
        tracer.split(id, layer, ms / r.execs * execs);
      }
    }
    std::map<std::string, double> m = {
        {"iss.run_ms", meanSpanMs(tracer, "iss::Iss::run")},
        {"rtlsim.run_ms", meanSpanMs(tracer, "rtlsim::RtlCore::run")},
        {"trc.assemble_ms", meanSpanMs(tracer, "trc::assemble")},
        {"xlat.translate_ms", meanSpanMs(tracer, "xlat::translate")},
        {"platform.load_ms",
         meanSpanMs(tracer, "EmulationPlatform::EmulationPlatform")},
        {"vliw.run_ms", meanSpanMs(tracer, "EmulationPlatform::run")},
        {"platform.board_ctor_ms",
         meanSpanMs(tracer, "ReferenceBoard::ReferenceBoard")},
        {"platform.board_run_ms", meanSpanMs(tracer, "ReferenceBoard::run")},
        {"snap.digest_ms", meanSpanMs(tracer, "snap::digest")},
    };
    m["iss.ns_per_instr"] =
        r.bare_iss_runs > 0
            ? m["iss.run_ms"] * 1e6 / (r.bare_iss_instrs / r.bare_iss_runs)
            : 0.0;
    return m;
  }

 private:
  fuzz::FarmConfig config(uint32_t seed, const std::string& dir) const {
    fuzz::FarmConfig cfg;
    cfg.corpus_dir = dir;
    cfg.seed = seed;
    cfg.max_candidates = kCandidates;
    cfg.use_forks = true;
    return cfg;
  }

  Outcome runReplay(Tracer& tracer) {
    const Replay r = replay({corpus_}, tracer);
    Outcome o;
    if (!r.halted) {
      o.fail("a checked-in corpus entry did not halt");
    }
    o.src_instrs = static_cast<uint64_t>(r.instrs);
    o.sim = {static_cast<uint64_t>(r.instrs), static_cast<uint64_t>(r.execs),
             static_cast<uint64_t>(r.icache_instrs),
             static_cast<uint64_t>(r.icache_vliw_cycles)};
    return o;
  }

  std::string freshDir() {
    return (root_ / ("c" + std::to_string(next_dir_++))).string();
  }

  template <typename F>
  auto timed(Tracer& tracer, Replay& r, const char* name, const char* layer,
             F&& fn) {
    const Tracer::Scope s = tracer.span(name, layer);
    const auto t0 = Clock::now();
    struct Add {
      Replay& r;
      const char* layer;
      Clock::time_point t0;
      ~Add() { r.layer_ms[layer] += msSince(t0); }
    } add{r, layer, t0};
    return fn();
  }

  /// Runs every entry of the corpora in `dirs` through the oracle's
  /// public calls, from reset (no forks), once.
  Replay replay(const std::vector<std::string>& dirs, Tracer& tracer) {
    Replay r;
    const arch::ArchDescription desc = arch::ArchDescription::defaultTc10gp();
    const fuzz::OracleOptions opts;
    for (const std::string& dir : dirs) {
      const fuzz::Corpus corpus(dir);
      for (const std::string& path : corpus.paths()) {
        const fuzz::SeedCase c = fuzz::loadSeedFile(path);
        std::vector<elf::Object> images;
        for (const std::string& p : c.programs) {
          images.push_back(timed(tracer, r, "trc::assemble", "trc",
                                 [&] { return trc::assemble(p); }));
        }
        std::vector<const elf::Object*> ptrs;
        for (const elf::Object& obj : images) {
          ptrs.push_back(&obj);
        }
        bool halted = true;
        for (const xlat::DetailLevel level : kLevels) {
          for (const iss::DispatchMode mode : kModes) {
            for (const bool par : {false, true}) {
              platform::BoardConfig cfg;
              cfg.iss = platform::issConfigFor(level);
              cfg.iss.dispatch_mode = mode;
              cfg.iss.trace_threshold = 2;
              cfg.iss.threaded_threshold = 2;
              cfg.iss.max_instructions = opts.max_instructions;
              cfg.quantum = c.quantum;
              cfg.parallel.enabled = par;
              cfg.parallel.workers = 2;
              auto board = timed(
                  tracer, r, "ReferenceBoard::ReferenceBoard", "platform", [&] {
                    return std::make_unique<platform::ReferenceBoard>(
                        desc, ptrs, cfg);
                  });
              fi::Campaign campaign;
              for (const std::string& f : c.faults) {
                campaign.add(fi::parseFaultSpec(f));
              }
              if (!c.faults.empty()) {
                campaign.arm(*board);
              }
              const iss::StopReason stop = timed(
                  tracer, r, "ReferenceBoard::run", "sim",
                  [&] { return board->run(); });
              halted = halted && stop == iss::StopReason::kHalted;
              timed(tracer, r, "snap::digest", "snap",
                    [&] { return snap::digest(*board); });
              r.instrs += static_cast<double>(board->instructionsRetired());
              r.execs += 1;
            }
          }
        }
        r.halted = r.halted && halted;
        if (!halted || c.programs.size() != 1 || !c.faults.empty() ||
            c.hasSharedTraffic()) {
          continue;
        }
        const elf::Object& obj = images.front();
        iss::IssConfig iss_cfg;
        iss_cfg.max_instructions = opts.max_instructions;
        iss::Iss iss(desc, obj, nullptr, iss_cfg);
        timed(tracer, r, "iss::Iss::run", "iss", [&] { return iss.run(); });
        const double instrs = static_cast<double>(iss.stats().instructions);
        r.bare_iss_instrs += instrs;
        r.bare_iss_runs += 1;
        rtlsim::RtlCore rtl(desc, obj);
        timed(tracer, r, "rtlsim::RtlCore::run", "rtlsim", [&] {
          rtl.run(opts.max_instructions * 8);
          return 0;
        });
        r.instrs += instrs * 2;
        r.execs += 2;
        for (const xlat::DetailLevel level : kLevels) {
          xlat::TranslateOptions xopts;
          xopts.level = level;
          const xlat::TranslationResult t = timed(
              tracer, r, "xlat::translate", "xlat",
              [&] { return xlat::translate(desc, obj, xopts); });
          platform::PlatformConfig pcfg;
          pcfg.max_cycles = opts.max_vliw_cycles;
          auto plat = timed(tracer, r, "EmulationPlatform::EmulationPlatform",
                            "platform", [&] {
                              return std::make_unique<
                                  platform::EmulationPlatform>(desc, t.image,
                                                               pcfg);
                            });
          const platform::RunResult run = timed(
              tracer, r, "EmulationPlatform::run", "vliw",
              [&] { return plat->run(); });
          r.instrs += instrs;
          r.execs += 1;
          if (level == xlat::DetailLevel::kICache) {
            r.icache_instrs += instrs;
            r.icache_vliw_cycles += static_cast<double>(run.vliw_cycles);
          }
        }
      }
    }
    return r;
  }

  fs::path root_;
  std::string corpus_;
  size_t next_dir_ = 0;
  std::vector<uint32_t> seeds_;
  std::vector<std::string> dirs_;
  std::vector<std::pair<int64_t, double>> campaign_spans_;
};

}  // namespace

std::unique_ptr<Workload> makeFuzzFarm(const std::string& work_dir,
                                       const std::string& corpus_dir) {
  return std::make_unique<FuzzFarm>(work_dir, corpus_dir);
}

}  // namespace perfbench

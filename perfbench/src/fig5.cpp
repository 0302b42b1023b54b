// The two Figure-5 workloads: the paper's translated path (xlat_fig5)
// and the reference path (ref_fig5) over the same fixed programs. Both
// take their reference results (ISS cycles, instructions, checksums)
// from a bare iss::Iss run per (program, level) made during set-up.
#include <algorithm>
#include <cmath>
#include <optional>
#include <random>
#include <stdexcept>

#include "bench.h"
#include "fuzz/program_gen.h"
#include "iss/iss.h"
#include "platform/platform.h"
#include "snap/snapshot.h"
#include "trc/assembler.h"
#include "workloads/workloads.h"
#include "xlat/translator.h"

namespace perfbench {
namespace {

using namespace cabt;

const xlat::DetailLevel kLevels[] = {
    xlat::DetailLevel::kFunctional, xlat::DetailLevel::kStatic,
    xlat::DetailLevel::kBranchPredict, xlat::DetailLevel::kICache};

/// Generated programs per seed in xlat_fig5: held back from tuning, they
/// are the accuracy check's unseen data.
constexpr uint32_t kGeneratedPrograms = 3;

/// Generated programs fold their state into d9 instead of storing a
/// `result` word.
constexpr int kFoldRegister = 9;

struct Program {
  std::string name;
  elf::Object object;
  bool generated = false;
};

/// Reference result of one (program, level) pair.
struct Reference {
  uint64_t instructions = 0;
  uint64_t cycles = 0;
  uint32_t checksum = 0;
  std::vector<double> bare_ms;  ///< one per set-up repetition
};

struct Item {
  size_t program = 0;
  xlat::DetailLevel level = xlat::DetailLevel::kFunctional;
  Reference ref;
};

/// The shared half: programs, items and their references.
class Fig5Base : public Workload {
 public:
  explicit Fig5Base(bool with_generated) : with_generated_(with_generated) {}

  void setup(uint32_t seed) override {
    struct Source {
      std::string name;
      std::string text;
      std::optional<uint32_t> expected;
      bool generated = false;
    };
    std::vector<Source> sources;
    std::vector<std::string> names = workloads::figure5Names();
    names.push_back("fibonacci");
    for (const std::string& name : names) {
      const workloads::Workload& w = workloads::get(name);
      sources.push_back({name, w.source, w.expected_checksum, false});
    }
    if (with_generated_) {
      std::mt19937 rng(seed);
      for (uint32_t k = 0; k < kGeneratedPrograms; ++k) {
        const auto gen_seed = static_cast<uint32_t>(rng());
        sources.push_back({"gen" + std::to_string(gen_seed),
                           fuzz::ProgramGenerator(gen_seed).generate(),
                           std::nullopt, true});
      }
    }

    programs_.clear();
    double assemble_ms = 0;
    for (const Source& src : sources) {
      const auto t0 = Clock::now();
      elf::Object obj = trc::assemble(src.text);
      assemble_ms += msSince(t0);
      programs_.push_back({src.name, std::move(obj), src.generated});
    }
    assemble_ms_.push_back(assemble_ms / static_cast<double>(sources.size()));

    std::vector<Item> items;
    for (size_t p = 0; p < programs_.size(); ++p) {
      for (const xlat::DetailLevel level : kLevels) {
        Item item{p, level, {}};
        iss::Iss iss(desc_, programs_[p].object, nullptr,
                     platform::issConfigFor(level));
        const auto t0 = Clock::now();
        const iss::StopReason stop = iss.run();
        const double ms = msSince(t0);
        if (stop != iss::StopReason::kHalted) {
          throw std::runtime_error(programs_[p].name +
                                   ": reference ISS did not halt");
        }
        item.ref.instructions = iss.stats().instructions;
        item.ref.cycles = iss.stats().cycles;
        item.ref.checksum =
            checksum(programs_[p], iss.memory(), iss.d(kFoldRegister), 0);
        if (sources[p].expected.has_value() &&
            *sources[p].expected != item.ref.checksum) {
          throw std::runtime_error(programs_[p].name +
                                   ": reference checksum differs from the "
                                   "workload's expected value");
        }
        // Keep the bare-ISS timings of earlier set-up repetitions (the
        // items are identical for one seed).
        const size_t index = items.size();
        if (index < items_.size()) {
          item.ref.bare_ms = items_[index].ref.bare_ms;
        }
        item.ref.bare_ms.push_back(ms);
        items.push_back(std::move(item));
      }
    }
    items_ = std::move(items);
  }

  [[nodiscard]] size_t numItems() const override { return items_.size(); }
  [[nodiscard]] std::string itemName(size_t i) const override {
    return programs_[items_[i].program].name + "/" +
           xlat::detailLevelName(items_[i].level);
  }

 protected:
  /// The program's checksum: the `result` word for the paper's
  /// workloads (read through `remap_delta` for translated memory), the
  /// fold register for generated programs.
  static uint32_t checksum(const Program& p, const SparseMemory& memory,
                           uint32_t fold_register, uint32_t remap_delta) {
    return p.generated ? fold_register
                       : workloads::readChecksum(p.object, memory,
                                                 remap_delta);
  }

  [[nodiscard]] double assembleMs() const { return median(assemble_ms_); }

  const arch::ArchDescription desc_ = arch::ArchDescription::defaultTc10gp();
  const bool with_generated_;
  std::vector<Program> programs_;
  std::vector<Item> items_;
  std::vector<double> assemble_ms_;
};

// ---------------------------------------------------------------------
// xlat_fig5: ELF -> xlat::translate -> EmulationPlatform -> run to HALT.

class XlatFig5 : public Fig5Base {
 public:
  XlatFig5() : Fig5Base(/*with_generated=*/true) {}

  Outcome run(size_t i, Tracer& tracer) override {
    const Item& item = items_[i];
    const Program& prog = programs_[item.program];
    Outcome o;
    xlat::TranslateOptions opts;
    opts.level = item.level;
    xlat::TranslationResult t;
    {
      const Tracer::Scope s = tracer.span("xlat::translate", "xlat");
      t = xlat::translate(desc_, prog.object, opts);
    }
    std::optional<platform::EmulationPlatform> plat;
    {
      const Tracer::Scope s =
          tracer.span("EmulationPlatform::EmulationPlatform", "platform");
      plat.emplace(desc_, t.image);
    }
    platform::RunResult r;
    {
      // One call drives V6X issue and the sync device's cycle hook; the
      // benchmark cannot separate the two, so the span counts as vliw.
      const Tracer::Scope s = tracer.span("EmulationPlatform::run", "vliw");
      r = plat->run();
    }
    if (r.state != vliw::RunState::kHalted) {
      o.fail("translated run did not halt");
      return o;
    }
    uint32_t remap_delta = 0;
    if (!prog.generated) {
      const uint32_t addr = prog.object.findSymbol("result")->value;
      const MemRegion* region = desc_.memory_map.find(addr);
      remap_delta = region != nullptr ? region->remap(addr) - addr : 0;
    }
    const uint32_t sum = checksum(prog, plat->sim().memory(),
                                  plat->srcD(kFoldRegister), remap_delta);
    if (sum != item.ref.checksum) {
      o.fail("checksum " + std::to_string(sum) + " != reference " +
             std::to_string(item.ref.checksum));
    }
    if (item.level == xlat::DetailLevel::kICache &&
        r.generated_cycles != item.ref.cycles) {
      o.fail("generated cycles " + std::to_string(r.generated_cycles) +
             " != ISS cycles " + std::to_string(item.ref.cycles));
    }
    const vliw::SimStats& vs = plat->sim().stats();
    o.src_instrs = item.ref.instructions;
    o.sim = {r.vliw_cycles, r.generated_cycles, r.sync_stall_cycles,
             r.correction_cycles, vs.packets, t.stats.code_bytes, sum};
    o.counters = {
        {"vliw.runs", 1},
        {"vliw.cycles", static_cast<double>(vs.cycles)},
        {"vliw.packets", static_cast<double>(vs.packets)},
        {"vliw.nop_cycles", static_cast<double>(vs.nop_cycles)},
        {"vliw.stall_cycles", static_cast<double>(vs.stall_cycles)},
        {"soc.sync.starts", static_cast<double>(plat->sync().numStarts())},
        {"soc.sync.corrections",
         static_cast<double>(plat->sync().numCorrections())},
        {"soc.sync.generated_cycles",
         static_cast<double>(plat->sync().totalGenerated())},
        {"soc.sync.stall_cycles", static_cast<double>(r.sync_stall_cycles)},
        {"soc.bus.transactions",
         static_cast<double>(busTransactions(plat->board().bus))},
        {"xlat.calls", 1},
        {"xlat.src_instrs",
         static_cast<double>(t.stats.source_instructions)},
        {"xlat.packets", static_cast<double>(t.stats.packets)},
        {"xlat.code_bytes", static_cast<double>(t.stats.code_bytes)},
    };
    return o;
  }

  /// Paper Fig. 5: source instructions over VLIW time at 200 MHz.
  Modeled modeled(const std::vector<Outcome>& first) const override {
    Modeled m;
    const auto hz =
        static_cast<double>(platform::PlatformConfig{}.vliw_clock_hz);
    for (size_t i = 0; i < items_.size(); ++i) {
      if (first[i].ok) {
        m.instrs += static_cast<double>(items_[i].ref.instructions);
        m.seconds += static_cast<double>(first[i].sim[0]) / hz;
      }
    }
    return m;
  }

  double deviationPct(const std::vector<Outcome>& first) const override {
    double worst = 0;
    for (size_t i = 0; i < items_.size(); ++i) {
      if (items_[i].level != xlat::DetailLevel::kICache) {
        continue;
      }
      if (first[i].sim.empty()) {
        return 100.0;  // the item never produced cycles
      }
      const double iss = static_cast<double>(items_[i].ref.cycles);
      const double gen = static_cast<double>(first[i].sim[1]);
      worst = std::max(worst, std::abs(gen - iss) / iss * 100.0);
    }
    return worst;
  }

  std::map<std::string, double> layerMetrics(
      Tracer& tracer, const std::map<std::string, double>& c) override {
    const double run_ms = meanSpanMs(tracer, "EmulationPlatform::run");
    const double translate_ms = meanSpanMs(tracer, "xlat::translate");
    return {
        {"vliw.run_ms", run_ms},
        {"vliw.ns_per_cycle",
         run_ms * 1e6 / (c.at("vliw.cycles") / c.at("vliw.runs"))},
        {"xlat.translate_ms", translate_ms},
        {"xlat.ns_per_src_instr",
         translate_ms * 1e6 / (c.at("xlat.src_instrs") / c.at("xlat.calls"))},
        {"platform.load_ms",
         meanSpanMs(tracer, "EmulationPlatform::EmulationPlatform")},
        {"trc.assemble_ms", assembleMs()},
    };
  }
};

// ---------------------------------------------------------------------
// ref_fig5: ELF -> ReferenceBoard (artifact, ISS dispatch, kernel, bus)
// -> run to halt -> snap::digest.

class RefFig5 : public Fig5Base {
 public:
  RefFig5() : Fig5Base(/*with_generated=*/false) {}

  Outcome run(size_t i, Tracer& tracer) override {
    const Item& item = items_[i];
    const Program& prog = programs_[item.program];
    Outcome o;
    const auto before = core::ProgramArtifactCache::instance().stats();
    std::optional<platform::ReferenceBoard> board;
    {
      const Tracer::Scope s =
          tracer.span("ReferenceBoard::ReferenceBoard", "platform");
      board.emplace(desc_, prog.object, platform::issConfigFor(item.level));
    }
    iss::StopReason stop;
    {
      // Kernel rounds and ISS dispatch are one call. The bare ISS run of
      // the same image and config (timed in set-up) is split off as iss.
      const Tracer::Scope s = tracer.span("ReferenceBoard::run", "sim");
      stop = board->run();
      tracer.split(s.id(), "iss", median(item.ref.bare_ms));
    }
    uint64_t digest;
    {
      const Tracer::Scope s = tracer.span("snap::digest", "snap");
      digest = snap::digest(*board);
    }
    const auto after = core::ProgramArtifactCache::instance().stats();
    if (stop != iss::StopReason::kHalted) {
      o.fail("board did not halt");
      return o;
    }
    const uint32_t sum = checksum(prog, board->iss().memory(),
                                  board->iss().d(kFoldRegister), 0);
    if (sum != item.ref.checksum) {
      o.fail("checksum " + std::to_string(sum) + " != reference " +
             std::to_string(item.ref.checksum));
    }
    const iss::IssStats& st = board->iss().stats();
    o.src_instrs = st.instructions;
    o.sim = {st.instructions, st.cycles, digest, sum};
    o.counters = {
        {"iss.instructions", static_cast<double>(st.instructions)},
        {"iss.chain_hits", static_cast<double>(st.chain_hits)},
        {"iss.trace_dispatches", static_cast<double>(st.trace_dispatches)},
        {"iss.guard_bails", static_cast<double>(st.guard_bails)},
        {"iss.threaded_dispatches",
         static_cast<double>(st.threaded_dispatches)},
        {"iss.threaded_declined", static_cast<double>(st.threaded_declined)},
        {"sim.kernel.events",
         static_cast<double>(board->kernel().eventsDispatched())},
        {"soc.bus.transactions",
         static_cast<double>(busTransactions(board->board().bus))},
        {"core.artifact.decodes",
         static_cast<double>(after.decodes - before.decodes)},
        {"core.artifact.hits", static_cast<double>(after.hits - before.hits)},
    };
    return o;
  }

  /// The modelled TRC32 board: instructions over ISS cycles at the
  /// architecture's clock, at the cycle-accurate (cache) level.
  Modeled modeled(const std::vector<Outcome>& first) const override {
    Modeled m;
    for (size_t i = 0; i < items_.size(); ++i) {
      if (items_[i].level == xlat::DetailLevel::kICache && first[i].ok) {
        m.instrs += static_cast<double>(first[i].sim[0]);
        m.seconds += static_cast<double>(first[i].sim[1]) /
                     static_cast<double>(desc_.clock_hz);
      }
    }
    return m;
  }

  std::map<std::string, double> layerMetrics(
      Tracer& tracer, const std::map<std::string, double>& /*c*/) override {
    double bare_ms = 0;
    double instrs = 0;
    for (const Item& item : items_) {
      bare_ms += median(item.ref.bare_ms);
      instrs += static_cast<double>(item.ref.instructions);
    }
    const double n = static_cast<double>(items_.size());
    const double board_run_ms = meanSpanMs(tracer, "ReferenceBoard::run");
    return {
        {"iss.run_ms", bare_ms / n},
        {"iss.ns_per_instr", bare_ms * 1e6 / instrs},
        {"platform.board_ctor_ms",
         meanSpanMs(tracer, "ReferenceBoard::ReferenceBoard")},
        {"platform.board_run_ms", board_run_ms},
        {"sim.kernel_overhead_ms", board_run_ms - bare_ms / n},
        {"snap.digest_ms", meanSpanMs(tracer, "snap::digest")},
        {"trc.assemble_ms", assembleMs()},
    };
  }
};

}  // namespace

std::unique_ptr<Workload> makeXlatFig5() {
  return std::make_unique<XlatFig5>();
}
std::unique_ptr<Workload> makeRefFig5() {
  return std::make_unique<RefFig5>();
}

}  // namespace perfbench

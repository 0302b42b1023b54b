// Emulation-platform tests: synchronization handshake, bus bridge
// behaviour, state comparison helpers, and architecture-description
// variants driven through the whole translate-and-run flow (the paper's
// retargetability claim: the translator adapts to the processor via the
// description, not via code changes).
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "fuzz/program_gen.h"
#include "iss/iss.h"
#include "platform/platform.h"
#include "trc/assembler.h"
#include "workloads/workloads.h"
#include "xlat/translator.h"

namespace cabt::platform {
namespace {

arch::ArchDescription defaultArch() {
  return arch::ArchDescription::defaultTc10gp();
}

TEST(Platform, SyncWaitStallsUntilGenerationDone) {
  // At a slow generation rate the block executes faster than its cycles
  // are generated: the wait instruction must stall.
  const elf::Object obj = trc::assemble(R"(
_start: movi d1, 1
        movi d2, 2
        movi d3, 3
        halt
)");
  const arch::ArchDescription desc = defaultArch();
  xlat::TranslateOptions opts;
  opts.level = xlat::DetailLevel::kStatic;
  const xlat::TranslationResult t = xlat::translate(desc, obj, opts);

  PlatformConfig fast;
  fast.vliw_cycles_per_soc_cycle = 1;
  EmulationPlatform p1(desc, t.image, fast);
  const RunResult r1 = p1.run();

  PlatformConfig slow;
  slow.vliw_cycles_per_soc_cycle = 8;
  EmulationPlatform p2(desc, t.image, slow);
  const RunResult r2 = p2.run();

  EXPECT_EQ(r1.generated_cycles, r2.generated_cycles);
  EXPECT_GT(r2.sync_stall_cycles, r1.sync_stall_cycles);
  EXPECT_GT(r2.vliw_cycles, r1.vliw_cycles);
}

TEST(Platform, PeripheralsSeeOnlyGeneratedCycles) {
  // The timer is clocked by the synchronization device: at the functional
  // level nothing generates cycles, so the timer never advances.
  const elf::Object obj = trc::assemble(R"(
_start: movha a0, 0xf000
        movi d0, 20
loop:   addi16 d0, -1
        jnz16 d0, loop
        ldw d1, [a0]0x100
        halt
)");
  const arch::ArchDescription desc = [] {
    arch::ArchDescription d = defaultArch();
    d.icache.enabled = false;
    return d;
  }();
  for (const xlat::DetailLevel level :
       {xlat::DetailLevel::kFunctional, xlat::DetailLevel::kBranchPredict}) {
    xlat::TranslateOptions opts;
    opts.level = level;
    const xlat::TranslationResult t = xlat::translate(desc, obj, opts);
    EmulationPlatform plat(desc, t.image);
    EXPECT_EQ(plat.run().state, vliw::RunState::kHalted);
    if (level == xlat::DetailLevel::kFunctional) {
      EXPECT_EQ(plat.srcD(1), 0u);  // timer frozen without cycle generation
    } else {
      EXPECT_GT(plat.srcD(1), 0u);
      EXPECT_LE(plat.srcD(1), plat.sync().totalGenerated());
    }
  }
}

TEST(Platform, BridgeTransactionsLandWithinGeneratedTime) {
  const elf::Object obj = trc::assemble(R"(
_start: movha a0, 0xf000
        movi d1, 65
        stw d1, [a0]0x200
        movi d1, 66
        stw d1, [a0]0x200
        halt
)");
  const arch::ArchDescription desc = defaultArch();
  xlat::TranslateOptions opts;
  opts.level = xlat::DetailLevel::kICache;
  const xlat::TranslationResult t = xlat::translate(desc, obj, opts);
  EmulationPlatform plat(desc, t.image);
  EXPECT_EQ(plat.run().state, vliw::RunState::kHalted);
  EXPECT_EQ(plat.board().chardev.output(), "AB");
  // Every transaction timestamp lies within the generated cycle stream.
  for (const soc::Transaction& tr : plat.board().bus.log()) {
    EXPECT_LE(tr.soc_cycle, plat.sync().totalGenerated());
  }
  // The probe property: the peripheral clock equals the generated count.
  EXPECT_EQ(plat.board().timer.count(), plat.sync().totalGenerated());
}

TEST(Platform, ValuesMatchIsRemapAware) {
  const arch::ArchDescription desc = defaultArch();
  EXPECT_TRUE(valuesMatch(desc, 42, 42));
  // 0xd0000010 remaps to 0x00800010.
  EXPECT_TRUE(valuesMatch(desc, 0xd0000010, 0x00800010));
  EXPECT_FALSE(valuesMatch(desc, 0xd0000010, 0x00800014));
  EXPECT_FALSE(valuesMatch(desc, 41, 42));
}

TEST(Platform, CompareFinalStateFindsDifferences) {
  const elf::Object obj = trc::assemble(R"(
_start: movi d5, 7
        halt
)");
  const arch::ArchDescription desc = defaultArch();
  iss::Iss ref(desc, obj);
  EXPECT_EQ(ref.run(), iss::StopReason::kHalted);
  const xlat::TranslationResult t = xlat::translate(desc, obj, {});
  EmulationPlatform plat(desc, t.image);
  EXPECT_EQ(plat.run().state, vliw::RunState::kHalted);
  EXPECT_EQ(compareFinalState(desc, ref, plat, obj), "");
  // Perturb one register: the comparison reports it.
  plat.sim().setReg(xlat::srcD(5), 8);
  EXPECT_NE(compareFinalState(desc, ref, plat, obj).find("d5"),
            std::string::npos);
}

// ---- translated-path golden counters --------------------------------------
//
// Every observable of one translated run, pinned per (program, level):
// the Figure-5 programs, fibonacci and three fixed-seed generated programs
// at all four detail levels. A change to the V6X simulator, the sync
// device or the bus bridge that moves a single cycle shows up here.

struct GoldenRow {
  const char* program;
  const char* level;
  uint64_t vliw_cycles;
  uint64_t generated_cycles;
  uint64_t stall_cycles;
  uint64_t correction_cycles;
  uint64_t timer_count;
  uint32_t checksum;
};

std::string formatRow(const GoldenRow& r) {
  return "{\"" + std::string(r.program) + "\", \"" + r.level + "\", " +
         std::to_string(r.vliw_cycles) + ", " +
         std::to_string(r.generated_cycles) + ", " +
         std::to_string(r.stall_cycles) + ", " +
         std::to_string(r.correction_cycles) + ", " +
         std::to_string(r.timer_count) + ", " + std::to_string(r.checksum) +
         "u},";
}

const GoldenRow kGoldenRows[] = {
    {"gcd", "functional", 2032, 0, 0, 0, 0, 214u},
    {"gcd", "static", 2712, 584, 281, 0, 584, 214u},
    {"gcd", "branch-predict", 3035, 661, 212, 77, 661, 214u},
    {"gcd", "icache", 14517, 701, 71, 117, 701, 214u},
    {"dpcm", "functional", 28768, 0, 0, 0, 0, 5953u},
    {"dpcm", "static", 42086, 18364, 6405, 0, 18364, 5953u},
    {"dpcm", "branch-predict", 45336, 20863, 4055, 2499, 20863, 5953u},
    {"dpcm", "icache", 232798, 20927, 911, 2563, 20927, 5953u},
    {"fir", "functional", 28343, 0, 0, 0, 0, 439072u},
    {"fir", "static", 32935, 15313, 724, 0, 15313, 439072u},
    {"fir", "branch-predict", 37849, 17155, 406, 1842, 17155, 439072u},
    {"fir", "icache", 194748, 17235, 174, 1922, 17235, 439072u},
    {"ellip", "functional", 13842, 0, 0, 0, 0, 972866456u},
    {"ellip", "static", 19487, 15375, 5126, 0, 15375, 972866456u},
    {"ellip", "branch-predict", 20000, 15888, 4103, 513, 15888, 972866456u},
    {"ellip", "icache", 122115, 15968, 79, 593, 15968, 972866456u},
    {"sieve", "functional", 43948, 0, 0, 0, 0, 125u},
    {"sieve", "static", 60559, 20793, 8961, 0, 20793, 125u},
    {"sieve", "branch-predict", 66198, 23589, 6116, 2796, 23589, 125u},
    {"sieve", "icache", 314610, 23653, 759, 2860, 23653, 125u},
    {"subband", "functional", 10357, 0, 0, 0, 0, 1467904u},
    {"subband", "static", 14726, 10800, 3709, 0, 10800, 1467904u},
    {"subband", "branch-predict", 15216, 11290, 2735, 490, 11290, 1467904u},
    {"subband", "icache", 96556, 11426, 135, 626, 11426, 1467904u},
    {"fibonacci", "functional", 76333, 0, 0, 0, 0, 2242768436u},
    {"fibonacci", "static", 111262, 42486, 25561, 0, 42486, 2242768436u},
    {"fibonacci", "branch-predict", 119903, 51127, 8822, 8641, 51127, 2242768436u},
    {"fibonacci", "icache", 376345, 51159, 210, 8673, 51159, 2242768436u},
    {"gen11", "functional", 65, 0, 0, 0, 0, 0u},
    {"gen11", "static", 112, 57, 36, 0, 57, 0u},
    {"gen11", "branch-predict", 115, 60, 33, 3, 60, 0u},
    {"gen11", "icache", 688, 148, 86, 91, 148, 0u},
    {"gen22", "functional", 292, 0, 0, 0, 0, 4294965930u},
    {"gen22", "static", 445, 194, 110, 0, 194, 4294965930u},
    {"gen22", "branch-predict", 470, 219, 66, 25, 219, 4294965930u},
    {"gen22", "icache", 2298, 283, 64, 89, 283, 4294965930u},
    {"gen33", "functional", 78, 0, 0, 0, 0, 1173u},
    {"gen33", "static", 110, 33, 22, 0, 33, 1173u},
    {"gen33", "branch-predict", 110, 33, 22, 0, 33, 1173u},
    {"gen33", "icache", 504, 81, 45, 48, 81, 1173u},
};

struct GoldenProgram {
  std::string name;
  elf::Object object;
  bool generated = false;  ///< folds its state into d9, no `result` word
};

const std::vector<GoldenProgram>& goldenPrograms() {
  static const std::vector<GoldenProgram> programs = [] {
    std::vector<GoldenProgram> out;
    std::vector<std::string> names = workloads::figure5Names();
    names.push_back("fibonacci");
    for (const std::string& name : names) {
      out.push_back({name, workloads::assemble(workloads::get(name)), false});
    }
    for (const uint32_t seed : {11u, 22u, 33u}) {
      out.push_back({"gen" + std::to_string(seed),
                     trc::assemble(fuzz::ProgramGenerator(seed).generate()),
                     true});
    }
    return out;
  }();
  return programs;
}

constexpr xlat::DetailLevel kGoldenLevels[] = {
    xlat::DetailLevel::kFunctional, xlat::DetailLevel::kStatic,
    xlat::DetailLevel::kBranchPredict, xlat::DetailLevel::kICache};

/// Translates `p` at `level` and runs it; `slice` > 0 drives the V6X
/// through repeated sim().run(slice) calls before the final run().
GoldenRow goldenRun(const GoldenProgram& p, xlat::DetailLevel level,
                    uint64_t slice) {
  const arch::ArchDescription desc = defaultArch();
  xlat::TranslateOptions opts;
  opts.level = level;
  const xlat::TranslationResult t = xlat::translate(desc, p.object, opts);
  EmulationPlatform plat(desc, t.image);
  if (slice > 0) {
    while (plat.sim().run(slice) == vliw::RunState::kMaxCycles) {
    }
  }
  const RunResult r = plat.run();
  EXPECT_EQ(r.state, vliw::RunState::kHalted) << p.name;
  uint32_t checksum = plat.srcD(9);
  if (!p.generated) {
    const uint32_t addr = p.object.findSymbol("result")->value;
    const MemRegion* region = desc.memory_map.find(addr);
    const uint32_t delta = region != nullptr ? region->remap(addr) - addr : 0;
    checksum = workloads::readChecksum(p.object, plat.sim().memory(), delta);
  }
  return {p.name.c_str(),         xlat::detailLevelName(level),
          r.vliw_cycles,          r.generated_cycles,
          r.sync_stall_cycles,    r.correction_cycles,
          plat.board().timer.count(), checksum};
}

TEST(TranslatedPathGolden, CountersMatchTable) {
  std::vector<std::string> actual;
  for (const GoldenProgram& p : goldenPrograms()) {
    for (const xlat::DetailLevel level : kGoldenLevels) {
      actual.push_back(formatRow(goldenRun(p, level, 0)));
    }
  }
  std::vector<std::string> golden;
  for (const GoldenRow& row : kGoldenRows) {
    golden.push_back(formatRow(row));
  }
  std::string table;  // the actual rows, pasteable into kGoldenRows
  for (const std::string& row : actual) {
    table += row + "\n";
  }
  ASSERT_EQ(actual.size(), golden.size()) << table;
  for (size_t i = 0; i < actual.size(); ++i) {
    EXPECT_EQ(actual[i], golden[i]);
  }
}

TEST(TranslatedPathGolden, RunSlicingDoesNotChangeTheRow) {
  for (const GoldenProgram& p : goldenPrograms()) {
    for (const xlat::DetailLevel level : kGoldenLevels) {
      const std::string whole = formatRow(goldenRun(p, level, 0));
      for (const uint64_t slice : {1u, 7u, 4096u}) {
        EXPECT_EQ(formatRow(goldenRun(p, level, slice)), whole)
            << "slice " << slice;
      }
    }
  }
}

// A timer-polling program uses the bus bridge while generation is active, so
// its accesses wait for generated SoC edges. The bus log (SoC cycle and
// value per access) and the VLIW-side cycles are pinned per level and
// generation rate.
TEST(TranslatedPathGolden, BridgeHandshakeTimingMatchesTable) {
  const elf::Object obj = trc::assemble(R"(
_start: movha a0, 0xf000
        movi d3, 50
wait:   ldw d1, [a0]0x100
        lt d2, d1, d3
        jnz16 d2, wait
        movi d4, 79
        stw d4, [a0]0x200
        ldw d5, [a0]0x204
        halt
)");
  struct Row {
    xlat::DetailLevel level;
    unsigned rate;
    uint64_t vliw_cycles;
    uint64_t stall_cycles;
    const char* bus_log;  ///< "soc_cycle:value" per transaction
  };
  const Row rows[] = {
      {xlat::DetailLevel::kStatic, 1, 231, 1,
       "4:4 8:8 12:12 16:16 20:20 24:24 28:28 32:32 36:36 40:40 44:44 "
       "48:48 52:52 56:79 58:1"},
      {xlat::DetailLevel::kStatic, 3, 294, 64,
       "3:3 7:7 11:11 15:15 19:19 23:23 27:27 31:31 35:35 39:39 43:43 "
       "47:47 51:51 55:79 56:1"},
      {xlat::DetailLevel::kICache, 1, 649, 16,
       "14:14 27:27 32:32 37:37 42:42 47:47 52:52 58:79 58:1"},
      {xlat::DetailLevel::kICache, 3, 697, 64,
       "14:14 27:27 32:32 37:37 42:42 47:47 52:52 58:79 58:1"},
  };
  const arch::ArchDescription desc = defaultArch();
  for (const Row& row : rows) {
    xlat::TranslateOptions opts;
    opts.level = row.level;
    const xlat::TranslationResult t = xlat::translate(desc, obj, opts);
    PlatformConfig config;
    config.vliw_cycles_per_soc_cycle = row.rate;
    EmulationPlatform plat(desc, t.image, config);
    const RunResult r = plat.run();
    ASSERT_EQ(r.state, vliw::RunState::kHalted);
    std::string log;
    for (const soc::Transaction& tr : plat.board().bus.log()) {
      log += (log.empty() ? "" : " ") + std::to_string(tr.soc_cycle) + ":" +
             std::to_string(tr.value);
    }
    EXPECT_EQ(r.vliw_cycles, row.vliw_cycles) << row.rate;
    EXPECT_EQ(r.sync_stall_cycles, row.stall_cycles) << row.rate;
    EXPECT_EQ(log, row.bus_log) << row.rate;
  }
}

// ---- packet runs against per-packet issue ---------------------------------
//
// The V6X issues straight-line packet runs in one loop and falls back to
// per-packet issue for budget slices, breakpoints and device stalls
// (DESIGN.md section 5.5). Every way of running a translated image must
// end in the state that plain per-packet issue reaches.

/// Base added to the generated-program seeds, from the CABT_TEST_SEED
/// environment variable (default 0), as in random_program_test.
uint32_t seedBase() {
  const char* env = std::getenv("CABT_TEST_SEED");
  return env != nullptr
             ? static_cast<uint32_t>(std::strtoul(env, nullptr, 0))
             : 0;
}

uint64_t mix(uint64_t x) {  // splitmix64 finalizer
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Any breakpoint makes the V6X issue packet by packet; this address holds
/// no packet, so the breakpoint is never hit.
constexpr uint32_t kNeverHit = 0xfffffff0;

/// Serves the V6X data memory below the io region and refuses accesses in
/// the cycles a seeded hash picks, so that stalls land inside packet runs.
class SeededStalls : public vliw::IoHandler {
 public:
  SeededStalls(vliw::V6xSim& sim, uint32_t limit, uint64_t seed)
      : IoHandler(0, limit), sim_(sim), seed_(seed) {}
  bool ready(uint32_t, bool) override {
    return mix(seed_ ^ sim_.stats().cycles) % 5 != 0;
  }
  uint32_t load(uint32_t addr, unsigned size) override {
    return sim_.memory().read(addr, size);
  }
  void store(uint32_t addr, uint32_t value, unsigned size) override {
    sim_.memory().write(addr, value, size);
  }

 private:
  vliw::V6xSim& sim_;
  uint64_t seed_;
};

enum class Way { kPerPacket, kWhole, kSliced, kBreakpoint };

const char* wayName(Way way) {
  switch (way) {
    case Way::kPerPacket:
      return "per packet";
    case Way::kWhole:
      return "one run()";
    case Way::kSliced:
      return "run(k) slices";
    case Way::kBreakpoint:
      return "breakpoint";
  }
  return "?";
}

struct RunEnd {
  vliw::RunState state = vliw::RunState::kRunning;
  std::vector<uint64_t> stats;  ///< every SimStats counter
  uint32_t pc = 0;
  std::vector<uint32_t> regs;
  uint64_t generated = 0;
  uint64_t corrections = 0;
  uint64_t starts = 0;
  SparseMemory memory;
};

/// True when the six packets before packets[i] hold no NOP and no control
/// transfer: then packets[i] lies inside a packet run, not at its start.
bool insideRun(const std::vector<vliw::Packet>& packets, size_t i) {
  if (i < 6) {
    return false;
  }
  for (size_t k = i - 6; k < i; ++k) {
    for (const vliw::MachineOp& op : packets[k].ops) {
      if (op.opc == vliw::VOpc::kNop || vliw::isBranch(op.opc) ||
          op.opc == vliw::VOpc::kHalt || op.opc == vliw::VOpc::kYield) {
        return false;
      }
    }
  }
  return true;
}

RunEnd runOneWay(const elf::Object& image, Way way, bool stalls,
                 uint64_t seed) {
  const arch::ArchDescription desc = defaultArch();
  EmulationPlatform plat(desc, image);
  vliw::V6xSim& sim = plat.sim();
  SeededStalls stall(sim, desc.memory_map.findNamed("io")->base, seed);
  if (stalls) {
    sim.addIoHandler(&stall);
  }
  uint64_t rng = seed;
  const auto next = [&rng] { return mix(++rng); };
  switch (way) {
    case Way::kPerPacket:
      sim.addBreakpoint(kNeverHit);
      break;
    case Way::kWhole:
      break;
    case Way::kSliced:
      while (sim.stats().cycles < plat.config().max_cycles) {
        const uint64_t k = 1 + next() % 64;
        const uint64_t before = sim.stats().cycles;
        const vliw::RunState s = sim.run(k);
        const uint64_t used = sim.stats().cycles - before;
        if (s != vliw::RunState::kMaxCycles) {
          EXPECT_LE(used, k) << "a slice overran its budget";
          break;
        }
        EXPECT_EQ(used, k) << "a slice stopped short of its budget";
      }
      break;
    case Way::kBreakpoint: {
      // Stop three times before a packet inside a run, then remove the
      // breakpoint, so that the last resume enters the run in its middle.
      const std::vector<vliw::Packet>& packets = sim.packets();
      size_t i = next() % packets.size();
      while (i + 1 < packets.size() && !insideRun(packets, i)) {
        ++i;
      }
      const uint32_t addr = packets[i].addr;
      sim.addBreakpoint(addr);
      vliw::RunState s = sim.run(plat.config().max_cycles);
      for (int hits = 1; s == vliw::RunState::kBreakpoint; ++hits) {
        if (hits == 3) {
          sim.removeBreakpoint(addr);
        }
        s = sim.resume(plat.config().max_cycles);
      }
      break;
    }
  }
  RunEnd end;
  end.state = plat.run().state;
  const vliw::SimStats& st = sim.stats();
  end.stats = {st.cycles,       st.issue_cycles, st.packets,
               st.ops,          st.nop_cycles,   st.stall_cycles,
               st.branches_taken};
  end.pc = sim.pc();
  for (uint8_t r = 0; r < 64; ++r) {
    end.regs.push_back(sim.reg(r));
  }
  end.generated = plat.sync().totalGenerated();
  end.corrections = plat.sync().correctionTotal();
  end.starts = plat.sync().numStarts();
  end.memory = sim.memory();
  return end;
}

void expectSameEnd(const RunEnd& want, const RunEnd& got) {
  EXPECT_EQ(got.state, want.state);
  EXPECT_EQ(got.stats, want.stats)
      << "cycles, issue_cycles, packets, ops, nop_cycles, stall_cycles, "
         "branches_taken";
  EXPECT_EQ(got.pc, want.pc);
  EXPECT_EQ(got.regs, want.regs);
  EXPECT_EQ(got.generated, want.generated);
  EXPECT_EQ(got.corrections, want.corrections);
  EXPECT_EQ(got.starts, want.starts);
  EXPECT_TRUE(got.memory.contentEquals(want.memory));
}

TEST(PacketRuns, EveryWayOfRunningEndsInThePerPacketState) {
  std::vector<GoldenProgram> programs = goldenPrograms();
  for (uint32_t k = 1; k <= 20; ++k) {
    const uint32_t seed = seedBase() + k;
    programs.push_back(
        {"seed " + std::to_string(seed),
         trc::assemble(fuzz::ProgramGenerator(seed).generate()), true});
  }
  const arch::ArchDescription desc = defaultArch();
  int perturbed = 0;  // images whose stats the seeded stalls changed
  for (size_t p = 0; p < programs.size(); ++p) {
    for (const xlat::DetailLevel level : kGoldenLevels) {
      SCOPED_TRACE(programs[p].name + " at " +
                   xlat::detailLevelName(level) + " (CABT_TEST_SEED base " +
                   std::to_string(seedBase()) + ")");
      xlat::TranslateOptions opts;
      opts.level = level;
      const elf::Object image =
          xlat::translate(desc, programs[p].object, opts).image;
      const uint64_t seed =
          mix(seedBase() * 1000003ull + p * 4 + static_cast<uint64_t>(level));
      const RunEnd plain = runOneWay(image, Way::kPerPacket, false, seed);
      const RunEnd stalled = runOneWay(image, Way::kPerPacket, true, seed);
      ASSERT_EQ(plain.state, vliw::RunState::kHalted);
      ASSERT_EQ(stalled.state, vliw::RunState::kHalted);
      perturbed += stalled.stats != plain.stats ? 1 : 0;
      for (const Way way : {Way::kWhole, Way::kSliced, Way::kBreakpoint}) {
        SCOPED_TRACE(wayName(way));
        expectSameEnd(plain, runOneWay(image, way, false, seed));
        SCOPED_TRACE("with seeded stalls");
        expectSameEnd(stalled, runOneWay(image, way, true, seed));
      }
    }
  }
  EXPECT_GT(perturbed, 0) << "the seeded stalls never fired";
}

// ---- architecture variants (retargetability via the description) --------

struct ArchVariant {
  const char* name;
  const char* xml;
};

class ArchVariants : public ::testing::TestWithParam<ArchVariant> {};

TEST_P(ArchVariants, TranslationTracksTheDescription) {
  // The same workload, translated for differently-described source
  // processors, must reproduce each description's cycle count exactly at
  // the icache level (or branch-predict level when the cache is off).
  const arch::ArchDescription desc = arch::parseArchXml(GetParam().xml);
  const elf::Object obj =
      workloads::assemble(workloads::get("gcd"));

  iss::Iss ref(desc, obj);
  ASSERT_EQ(ref.run(), iss::StopReason::kHalted);

  xlat::TranslateOptions opts;
  opts.level = desc.icache.enabled ? xlat::DetailLevel::kICache
                                   : xlat::DetailLevel::kBranchPredict;
  const xlat::TranslationResult t = xlat::translate(desc, obj, opts);
  EmulationPlatform plat(desc, t.image);
  const RunResult run = plat.run();
  ASSERT_EQ(run.state, vliw::RunState::kHalted);
  EXPECT_EQ(run.generated_cycles, ref.stats().cycles);
  EXPECT_EQ(compareFinalState(desc, ref, plat, obj), "");
}

const ArchVariant kVariants[] = {
    {"single_issue", R"(
<processor name="single-issue" clock_hz="48000000">
  <pipeline dual_issue="0"/>
  <icache enabled="1" sets="16" ways="2" line_bytes="16" miss_penalty="4"/>
  <memorymap>
    <region name="flash" base="0x80000000" size="0x00100000" kind="rom"/>
    <region name="ram" base="0xd0000000" size="0x00100000" kind="ram"
            remap="0x00800000"/>
    <region name="io" base="0xf0000000" size="0x00010000" kind="io"/>
  </memorymap>
</processor>)"},
    {"slow_multiplier", R"(
<processor name="slow-mul" clock_hz="48000000">
  <pipeline dual_issue="1">
    <latency class="mul" cycles="6"/>
    <latency class="load" cycles="3"/>
  </pipeline>
  <branch taken_predicted_extra="2" mispredict_extra="4" indirect_extra="5"/>
  <icache enabled="0"/>
  <memorymap>
    <region name="flash" base="0x80000000" size="0x00100000" kind="rom"/>
    <region name="ram" base="0xd0000000" size="0x00100000" kind="ram"/>
    <region name="io" base="0xf0000000" size="0x00010000" kind="io"/>
  </memorymap>
</processor>)"},
    {"tiny_cache_big_penalty", R"(
<processor name="tiny-cache" clock_hz="48000000">
  <pipeline dual_issue="1"/>
  <icache enabled="1" sets="2" ways="2" line_bytes="32" miss_penalty="17"/>
  <memorymap>
    <region name="flash" base="0x80000000" size="0x00100000" kind="rom"/>
    <region name="ram" base="0xd0000000" size="0x00100000" kind="ram"
            remap="0x00800000"/>
    <region name="io" base="0xf0000000" size="0x00010000" kind="io"/>
  </memorymap>
</processor>)"},
    {"identity_ram_mapping", R"(
<processor name="identity" clock_hz="48000000">
  <pipeline dual_issue="1"/>
  <icache enabled="1" sets="64" ways="2" line_bytes="16" miss_penalty="8"/>
  <memorymap>
    <region name="flash" base="0x80000000" size="0x00100000" kind="rom"/>
    <region name="ram" base="0xd0000000" size="0x00100000" kind="ram"/>
    <region name="io" base="0xf0000000" size="0x00010000" kind="io"/>
  </memorymap>
</processor>)"},
};

INSTANTIATE_TEST_SUITE_P(Descriptions, ArchVariants,
                         ::testing::ValuesIn(kVariants),
                         [](const ::testing::TestParamInfo<ArchVariant>& i) {
                           return i.param.name;
                         });

}  // namespace
}  // namespace cabt::platform

// Differential conformance fleet for the fault-injection & recovery
// subsystem (src/fi, DESIGN.md section 12).
//
// The claims under test:
//
//   * Non-perturbation: an armed campaign whose faults never fire leaves
//     every observable — registers, memory checksums, IRQ timestamps,
//     the full bus transaction log and the rolling state digest — byte-
//     identical to an FI-off run, across all four dispatch engines and
//     both kernels.
//   * Engine equivalence under fire: a firing fault lands at the same
//     block-boundary epoch in every engine (lookup, chained, traces,
//     threaded, per-instruction stepping, sequential and parallel
//     rounds), so the post-fault timeline is bit-identical everywhere.
//   * Guest-visible consequences: bus-error windows raise the precise
//     bus-error interrupt at block boundaries; the watchdog peripheral
//     fires when the guest stops petting it.
//   * Graceful degradation: recover() walks the snapshot ring newest to
//     oldest past corrupt, unreadable and trail-divergent entries, and
//     deterministic replay from the restored entry converges on the
//     digest of an uninterrupted clean run (one-shot faults never
//     re-fire after a rewind).
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "fi/fault_proxy.h"
#include "fi/fi.h"
#include "fi/inject.h"
#include "fi/watchdog.h"
#include "obs/metrics.h"
#include "platform/platform.h"
#include "snap/snapshot.h"
#include "soc/bus.h"
#include "soc/peripherals.h"
#include "workloads/workloads.h"

namespace cabt {
namespace {

constexpr uint64_t kNever = fi::CoreInjector::kNever;

// ---- board plumbing (same idiom as tests/snap_test.cpp) ---------------

struct GridBoard {
  std::vector<workloads::Workload> programs;
  std::vector<elf::Object> images;
  std::vector<const elf::Object*> image_ptrs;
  std::vector<uint32_t> extra_leaders;
};

GridBoard makeBoard(const std::vector<workloads::Workload>& programs) {
  GridBoard b;
  b.programs = programs;
  for (const workloads::Workload& w : b.programs) {
    b.images.push_back(workloads::assemble(w));
    if (!w.irq_handler.empty()) {
      b.extra_leaders.push_back(
          platform::symbolAddr(b.images.back(), w.irq_handler));
    }
  }
  for (const elf::Object& obj : b.images) {
    b.image_ptrs.push_back(&obj);
  }
  return b;
}

GridBoard makeBoard(const std::vector<std::string>& names) {
  std::vector<workloads::Workload> programs;
  for (const std::string& name : names) {
    programs.push_back(workloads::get(name));
  }
  return makeBoard(programs);
}

struct RunConfig {
  xlat::DetailLevel level = xlat::DetailLevel::kICache;
  iss::DispatchMode mode = iss::DispatchMode::kChainedTraces;
  bool use_block_cache = true;
  bool parallel = false;
  sim::Cycle quantum = 1024;
  bool watchdog = false;
};

std::unique_ptr<platform::ReferenceBoard> buildBoard(const GridBoard& grid,
                                                     const RunConfig& rc) {
  const arch::ArchDescription desc = arch::ArchDescription::defaultTc10gp();
  platform::BoardConfig cfg;
  cfg.iss = platform::issConfigFor(rc.level);
  cfg.iss.dispatch_mode = rc.mode;
  cfg.iss.use_block_cache = rc.use_block_cache;
  cfg.iss.extra_leaders = grid.extra_leaders;
  cfg.quantum = rc.quantum;
  cfg.parallel.enabled = rc.parallel;
  cfg.parallel.workers = 2;  // real threads even on 1-core hosts
  cfg.watchdog = rc.watchdog;
  return std::make_unique<platform::ReferenceBoard>(desc, grid.image_ptrs,
                                                    cfg);
}

/// Every observable the acceptance criteria name, plus the digest.
struct BoardObs {
  std::vector<uint64_t> instructions;
  std::vector<iss::StopReason> stop;
  std::vector<uint32_t> pc;
  std::vector<std::array<uint32_t, 16>> d;
  std::vector<std::array<uint32_t, 16>> a;
  std::vector<uint32_t> checksum;
  std::vector<std::vector<uint64_t>> irq_times;
  std::vector<uint32_t> intc_pending;
  std::vector<uint64_t> irqs_taken;
  uint64_t bus_cycle = 0;
  std::array<uint32_t, 16> scratch{};
  std::vector<soc::Transaction> bus_log;
  uint64_t kernel_events = 0;
  uint64_t digest = 0;
};

BoardObs capture(platform::ReferenceBoard& board, const GridBoard& grid) {
  BoardObs s;
  for (size_t i = 0; i < board.numCores(); ++i) {
    s.instructions.push_back(board.core(i).stats().instructions);
    s.stop.push_back(board.core(i).stopReason());
    s.pc.push_back(board.core(i).pc());
    std::array<uint32_t, 16> d{};
    std::array<uint32_t, 16> a{};
    for (int r = 0; r < 16; ++r) {
      d[static_cast<size_t>(r)] = board.core(i).d(r);
      a[static_cast<size_t>(r)] = board.core(i).a(r);
    }
    s.d.push_back(d);
    s.a.push_back(a);
    s.checksum.push_back(
        workloads::readChecksum(grid.images[i], board.core(i).memory()));
    s.irq_times.push_back(board.intc(i).deliveryTimes());
    s.intc_pending.push_back(board.intc(i).pending());
    s.irqs_taken.push_back(board.core(i).stats().irqs_taken);
  }
  s.bus_cycle = board.board().bus.socCycle();
  for (size_t r = 0; r < 16; ++r) {
    s.scratch[r] = board.board().scratch.reg(r);
  }
  s.bus_log = board.board().bus.log();
  s.kernel_events = board.kernel().eventsDispatched();
  s.digest = snap::digest(board);
  return s;
}

void expectIdentical(const BoardObs& got, const BoardObs& want,
                     const platform::ReferenceBoard& got_board,
                     const platform::ReferenceBoard& want_board) {
  ASSERT_EQ(got.instructions.size(), want.instructions.size());
  for (size_t i = 0; i < got.instructions.size(); ++i) {
    SCOPED_TRACE("core " + std::to_string(i));
    EXPECT_EQ(got.instructions[i], want.instructions[i]);
    EXPECT_EQ(got.stop[i], want.stop[i]);
    EXPECT_EQ(got.pc[i], want.pc[i]);
    EXPECT_EQ(got.d[i], want.d[i]);
    EXPECT_EQ(got.a[i], want.a[i]);
    EXPECT_EQ(got.checksum[i], want.checksum[i]);
    EXPECT_EQ(got.irq_times[i], want.irq_times[i])
        << "IRQ delivery timestamps";
    EXPECT_EQ(got.intc_pending[i], want.intc_pending[i]);
    EXPECT_EQ(got.irqs_taken[i], want.irqs_taken[i]);
  }
  EXPECT_EQ(got.bus_cycle, want.bus_cycle);
  EXPECT_EQ(got.scratch, want.scratch);
  EXPECT_EQ(got.kernel_events, want.kernel_events);
  EXPECT_EQ(got.digest, want.digest)
      << "rolling state digest: "
      << snap::firstDifference(want_board, got_board);
  ASSERT_EQ(got.bus_log.size(), want.bus_log.size());
  for (size_t i = 0; i < got.bus_log.size(); ++i) {
    const soc::Transaction& a = got.bus_log[i];
    const soc::Transaction& b = want.bus_log[i];
    EXPECT_EQ(a.soc_cycle, b.soc_cycle) << "transaction " << i;
    EXPECT_EQ(a.addr, b.addr) << "transaction " << i;
    EXPECT_EQ(a.value, b.value) << "transaction " << i;
    EXPECT_EQ(a.size, b.size) << "transaction " << i;
    EXPECT_EQ(a.is_write, b.is_write) << "transaction " << i;
  }
}

const std::vector<RunConfig>& engineGrid() {
  static const std::vector<RunConfig>* grid = [] {
    auto* g = new std::vector<RunConfig>;
    for (const bool parallel : {false, true}) {
      for (const iss::DispatchMode mode :
           {iss::DispatchMode::kLookup, iss::DispatchMode::kChained,
            iss::DispatchMode::kChainedTraces,
            iss::DispatchMode::kThreaded}) {
        RunConfig rc;
        rc.mode = mode;
        rc.parallel = parallel;
        g->push_back(rc);
      }
    }
    RunConfig stepping;  // per-instruction engine (no block cache)
    stepping.mode = iss::DispatchMode::kLookup;
    stepping.use_block_cache = false;
    g->push_back(stepping);
    return g;
  }();
  return *grid;
}

std::string configName(const RunConfig& rc) {
  std::string name = !rc.use_block_cache ? "stepping"
                     : rc.mode == iss::DispatchMode::kLookup ? "lookup"
                     : rc.mode == iss::DispatchMode::kChained ? "chained"
                     : rc.mode == iss::DispatchMode::kChainedTraces
                         ? "traces"
                         : "threaded";
  return name + (rc.parallel ? "_par" : "_seq");
}

// ---- spec parsing and injector validation -----------------------------

TEST(FaultSpecParse, RoundTripsFieldsAndRejectsGarbage) {
  const fi::FaultSpec f =
      fi::parseFaultSpec("dreg@2000:core=1,index=14,mask=255");
  EXPECT_EQ(f.kind, fi::FaultKind::kDataRegFlip);
  EXPECT_EQ(f.cycle, 2000u);
  EXPECT_EQ(f.core, 1u);
  EXPECT_EQ(f.index, 14u);
  EXPECT_EQ(f.mask, 255u);

  const fi::FaultSpec b = fi::parseFaultSpec(
      "buserr@100:addr=4026532608,hi=4026532611,count=2,until=5000");
  EXPECT_EQ(b.kind, fi::FaultKind::kBusError);
  EXPECT_EQ(b.addr, 0xf0000300u);
  EXPECT_EQ(b.addr_hi, 0xf0000303u);
  EXPECT_EQ(b.count, 2u);
  EXPECT_EQ(b.until, 5000u);

  const fi::FaultSpec s = fi::parseFaultSpec("stall@10:device=scratch");
  EXPECT_EQ(s.kind, fi::FaultKind::kDeviceStall);
  EXPECT_EQ(s.device, "scratch");

  EXPECT_THROW(fi::parseFaultSpec("dreg"), Error);            // no @cycle
  EXPECT_THROW(fi::parseFaultSpec("zap@100"), Error);         // unknown kind
  EXPECT_THROW(fi::parseFaultSpec("pc@100:bogus=1"), Error);  // unknown key
  EXPECT_THROW(fi::parseFaultSpec("pc@100:mask"), Error);     // no '='
  EXPECT_THROW(fi::parseFaultSpec("pc@x"), Error);            // bad number
}

TEST(CoreInjector, ValidatesSchedulesAndConsumesInOrder) {
  fi::CoreInjector inj;
  EXPECT_FALSE(inj.due(~0ull - 1));         // empty ladder never fires
  EXPECT_EQ(inj.take(~0ull), nullptr);      // ...and never hands out faults

  fi::CoreFault bad;
  bad.kind = fi::CoreFaultKind::kDataReg;
  bad.index = 16;
  bad.mask = 1;
  EXPECT_THROW(inj.schedule(bad), Error);
  bad.index = 0;
  bad.mask = 0;
  EXPECT_THROW(inj.schedule(bad), Error);
  fi::CoreFault unaligned;
  unaligned.kind = fi::CoreFaultKind::kMemWord;
  unaligned.addr = 2;
  unaligned.mask = 1;
  EXPECT_THROW(inj.schedule(unaligned), Error);

  fi::CoreFault late;
  late.kind = fi::CoreFaultKind::kDataReg;
  late.cycle = 300;
  late.index = 1;
  late.mask = 2;
  fi::CoreFault early = late;
  early.cycle = 100;
  early.index = 2;
  inj.schedule(late);
  inj.schedule(early);  // inserted before `late` despite schedule order
  EXPECT_EQ(inj.scheduled(), 2u);
  EXPECT_FALSE(inj.due(99));
  EXPECT_TRUE(inj.due(100));
  const fi::CoreFault* f = inj.take(100);
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->index, 2u);
  EXPECT_EQ(inj.take(100), nullptr);  // `late` not due yet
  EXPECT_EQ(inj.pending(), 1u);
  // Both due at once drain in cycle order; consumed faults never return.
  const fi::CoreFault* g = inj.take(500);
  ASSERT_NE(g, nullptr);
  EXPECT_EQ(g->index, 1u);
  EXPECT_EQ(inj.take(500), nullptr);
  EXPECT_FALSE(inj.due(~0ull - 1));
}

TEST(CampaignArm, RejectsRegisterIndicesPastD15) {
  // The spec's index is range-checked before it narrows to the injector's
  // byte: 256 must not wrap to d0. Every field rejects a value that does
  // not fit it (2^32 must not truncate to 0), and a spec naming a core
  // the board does not have fails as cabt::Error, not out_of_range.
  const GridBoard grid = makeBoard(std::vector<std::string>{"mc_worker"});
  for (const char* spec : {"dreg@200:index=16,mask=1",
                           "dreg@200:index=256,mask=1",
                           "areg@200:index=272,mask=1",
                           "dreg@200:index=4294967296,mask=1",
                           "ring@200:mask=4294967296",
                           "mem@200:addr=4294967296,mask=1",
                           "buserr@200:addr=0xf0000000,hi=4294967296",
                           "buserr@200:addr=0xf0000000,count=4294967296",
                           "dreg@10:core=3,index=1,mask=1",
                           "buserr@10:core=3,addr=0xf0000000"}) {
    auto board = buildBoard(grid, RunConfig{});
    fi::Campaign camp;
    EXPECT_THROW(
        {
          camp.add(fi::parseFaultSpec(spec));
          camp.arm(*board);
        },
        Error)
        << spec;
  }
}

// ---- device-level units -----------------------------------------------

TEST(WatchdogUnit, FiresOnceWhenNotPetted) {
  fi::WatchdogDevice wd;
  uint64_t fired_at = 0;
  wd.setOnFire([&fired_at](uint64_t at) { fired_at = at; });
  wd.write(fi::WatchdogDevice::kLoadOffset, 100, 4, 10);
  EXPECT_THROW(  // arming with LOAD = 0 is a guest bug
      [] {
        fi::WatchdogDevice zero;
        zero.write(fi::WatchdogDevice::kCtrlOffset, 1, 4, 0);
      }(),
      Error);
  wd.write(fi::WatchdogDevice::kCtrlOffset, 1, 4, 10);  // deadline = 110
  EXPECT_TRUE(wd.enabled());
  wd.advanceTo(10, 50);
  EXPECT_EQ(wd.fired(), 0u);
  wd.write(fi::WatchdogDevice::kPetOffset, 1, 4, 50);  // deadline = 150
  wd.advanceTo(50, 120);
  EXPECT_EQ(wd.fired(), 0u);
  EXPECT_EQ(wd.read(fi::WatchdogDevice::kPetOffset, 4, 120), 30u);
  wd.advanceTo(120, 200);  // not petted: expires at 150
  EXPECT_EQ(wd.fired(), 1u);
  EXPECT_EQ(fired_at, 150u);
  EXPECT_FALSE(wd.enabled());  // one-shot
  wd.advanceTo(200, 400);
  EXPECT_EQ(wd.fired(), 1u);
}

TEST(FaultProxyUnit, StallsOnlyInsideTheWindow) {
  soc::ScratchDevice scratch;
  fi::FaultProxy proxy(&scratch);
  EXPECT_EQ(proxy.name(), "scratch");
  proxy.write(0, 7, 4, 10);
  EXPECT_EQ(proxy.read(0, 4, 11), 7u);
  proxy.armStall(100, 200, 0xffffffffu);
  EXPECT_EQ(proxy.read(0, 4, 99), 7u);
  EXPECT_EQ(proxy.read(0, 4, 100), 0xffffffffu);  // stalled read
  proxy.write(0, 9, 4, 150);                      // dropped write
  EXPECT_EQ(proxy.read(0, 4, 200), 7u);  // window over, value kept
  EXPECT_EQ(proxy.stalledReads(), 1u);
  EXPECT_EQ(proxy.stalledWrites(), 1u);
  proxy.clearStall();
  EXPECT_FALSE(proxy.stalledAt(150));
}

// ---- non-perturbation -------------------------------------------------

// An armed campaign whose faults never fire is invisible: digest and the
// full bus log match an FI-off run on every engine and both kernels.
TEST(NonPerturbation, ArmedIdleCampaignIsByteIdentical) {
  const GridBoard grid =
      makeBoard(std::vector<std::string>{"mc_producer", "mc_consumer"});
  for (const RunConfig& rc : engineGrid()) {
    SCOPED_TRACE(configName(rc));
    auto ref = buildBoard(grid, rc);
    ref->run();
    const BoardObs want = capture(*ref, grid);

    auto board = buildBoard(grid, rc);
    fi::Campaign camp;
    for (size_t core = 0; core < 2; ++core) {
      fi::FaultSpec f;
      f.kind = fi::FaultKind::kDataRegFlip;
      f.cycle = kNever;  // armed, never due
      f.core = core;
      f.index = 15;
      f.mask = 1;
      camp.add(f);
    }
    fi::FaultSpec bus;
    bus.kind = fi::FaultKind::kBusError;
    bus.cycle = kNever;  // window never opens
    bus.addr = 0xf0000300u;
    camp.add(bus);
    fi::FaultSpec stall;
    stall.kind = fi::FaultKind::kDeviceStall;
    stall.cycle = kNever;
    stall.device = "scratch";
    camp.add(stall);
    camp.arm(*board);
    board->run();
    expectIdentical(capture(*board, grid), want, *board, *ref);
    EXPECT_EQ(camp.firedCount(), 0u);
    EXPECT_EQ(board->board().bus.busFaultFires(), 0u);

    obs::MetricsRegistry reg;
    camp.publishMetrics(reg);
    EXPECT_EQ(reg.counterOr("fi.faults_scheduled"), 4u);
    EXPECT_EQ(reg.counterOr("fi.core_faults_fired"), 0u);
    EXPECT_EQ(reg.counterOr("fi.device_stall_hits"), 0u);
    camp.disarm();
  }
}

// ---- engine equivalence under fire ------------------------------------

// A register flip and a private-memory word flip at fixed cycles land at
// the same boundary epoch in every engine: the post-fault timeline is
// bit-identical everywhere, and differs from the clean run.
TEST(FaultEquivalence, RegisterAndMemoryFlipsMatchAcrossEngines) {
  const GridBoard grid = makeBoard(std::vector<std::string>{"mc_worker"});
  const uint32_t x_addr = platform::symbolAddr(grid.images[0], "x");

  RunConfig clean_rc;
  auto clean = buildBoard(grid, clean_rc);
  clean->run();
  const uint64_t clean_digest = snap::digest(*clean);

  bool have_want = false;
  BoardObs want;
  std::unique_ptr<platform::ReferenceBoard> want_board;
  for (const RunConfig& rc : engineGrid()) {
    SCOPED_TRACE(configName(rc));
    auto board = buildBoard(grid, rc);
    fi::Campaign camp;
    fi::FaultSpec reg;
    reg.kind = fi::FaultKind::kDataRegFlip;
    reg.cycle = 2000;
    reg.index = 14;  // mc_worker never writes d14: the flip survives
    reg.mask = 0x00ff00ffu;
    camp.add(reg);
    fi::FaultSpec mem;
    mem.kind = fi::FaultKind::kMemFlip;
    mem.cycle = 3000;
    mem.addr = x_addr + 64;  // inside the LCG-initialised input array
    mem.mask = 0xa5u;
    camp.add(mem);
    camp.arm(*board);
    board->run();
    const BoardObs got = capture(*board, grid);
    EXPECT_EQ(camp.firedCount(), 2u);
    const std::vector<fi::FiredFault>& fired = camp.fired(0);
    ASSERT_EQ(fired.size(), 2u);
    EXPECT_EQ(fired[0].after, fired[0].before ^ 0x00ff00ffu);
    EXPECT_GE(fired[0].at, 2000u);
    EXPECT_EQ(fired[1].after, fired[1].before ^ 0xa5u);
    EXPECT_GE(fired[1].at, 3000u);
    if (!have_want) {
      want = got;
      have_want = true;
      // The faults really happened: the fault run's digest differs from
      // the clean run's.
      EXPECT_NE(got.digest, clean_digest);
      camp.disarm();
      want_board = std::move(board);
    } else {
      expectIdentical(got, want, *board, *want_board);
    }
  }
}

// ---- guest-visible consequences ---------------------------------------

// Probes the scratch device while a bus-error window covers it: the
// first two reads return the poison word and raise the precise bus-error
// line; the guest's ISR counts both deliveries. Identical on every
// engine.
const char* kBusErrProbe = R"(
; buserr_probe - count precise bus-error traps from a faulted window
_start: movha a6, 0xf000
        movi d14, 0           ; bus-error count, ISR-owned
        movi d12, 2
        movh d0, hi(isr)
        addi d0, d0, lo(isr)
        stw d0, [a6]0x410     ; intc VECTOR = isr
        movi d0, 4
        stw d0, [a6]0x404     ; intc ENABLE line 2 (bus error)
        movi d0, 1
        stw d0, [a6]0x414     ; intc CTRL master enable
        movi d8, 6
        movi d9, 0
probe:  ldw d5, [a6]0x300     ; scratch register 0 (faulted window)
        add d9, d9, d5
        addi16 d8, -1
        jnz16 d8, probe
ewait:  lt d1, d14, d12
        jnz16 d1, ewait       ; wait for both trap deliveries
        movi d0, 0
        stw d0, [a6]0x414     ; master disable
        movha a1, hi(result)
        lea a1, a1, lo(result)
        stw d9, [a1]0
        halt
isr:    addi16 d14, 1
        movi d15, 4
        stw d15, [a6]0x40c    ; ACK line 2 (write-1-to-clear)
        movi d15, 1
        stw d15, [a6]0x41c    ; EOI
        ji a14
        .data
result: .word 0
)";

TEST(BusError, WindowPoisonsReadsAndRaisesThePreciseTrap) {
  workloads::Workload probe;
  probe.name = "buserr_probe";
  probe.description = "bus-error trap counter";
  probe.source = kBusErrProbe;
  probe.irq_handler = "isr";
  const GridBoard grid = makeBoard(std::vector<workloads::Workload>{probe});

  bool have_want = false;
  BoardObs want;
  std::unique_ptr<platform::ReferenceBoard> want_board;
  for (const RunConfig& rc : engineGrid()) {
    SCOPED_TRACE(configName(rc));
    auto board = buildBoard(grid, rc);
    fi::Campaign camp;
    fi::FaultSpec f;
    f.kind = fi::FaultKind::kBusError;
    f.cycle = 0;  // window open from the start...
    f.addr = 0xf0000300u;
    f.count = 2;  // ...but only the first two accesses fault
    camp.add(f);
    camp.arm(*board);
    board->run();
    const BoardObs got = capture(*board, grid);
    EXPECT_EQ(board->board().bus.busFaultFires(), 2u);
    EXPECT_EQ(got.stop[0], iss::StopReason::kHalted);
    EXPECT_EQ(got.d[0][14], 2u) << "ISR bus-error count";
    // checksum = 2 poison reads + 4 real reads of scratch register 0 (0)
    EXPECT_EQ(got.checksum[0], static_cast<uint32_t>(2 * 0xdeadbeefull));
    EXPECT_GE(got.irqs_taken[0], 2u);
    if (!have_want) {
      want = got;
      have_want = true;
      camp.disarm();
      want_board = std::move(board);
    } else {
      expectIdentical(got, want, *board, *want_board);
    }
  }
}

// ---- watchdog + recovery ----------------------------------------------

// Pets the watchdog from a compute loop, then disables it before
// halting. The fault campaigns below redirect pc to `hang`, simulating a
// crashed guest that stops petting.
const char* kWdPet = R"(
; wd_pet - watchdog-petting compute loop
_start: movha a6, 0xf000
        movi d0, 600
        stw d0, [a6]0x700     ; watchdog LOAD = 600 SoC cycles
        movi d0, 1
        stw d0, [a6]0x708     ; watchdog CTRL enable
        movi d8, 40
        movi d9, 0
loop:   movi d7, 20
inner:  add d9, d9, d7
        addi16 d7, -1
        jnz16 d7, inner
        movi d1, 1
        stw d1, [a6]0x704     ; PET
        addi16 d8, -1
        jnz16 d8, loop
        movi d0, 0
        stw d0, [a6]0x708     ; disable before halting
        movha a1, hi(result)
        lea a1, a1, lo(result)
        stw d9, [a1]0
        halt
hang:   j16 hang              ; fault target: stops petting
        .data
result: .word 0
)";

GridBoard makeWdBoard() {
  workloads::Workload pet;
  pet.name = "wd_pet";
  pet.description = "watchdog-petting compute loop";
  pet.source = kWdPet;
  GridBoard grid = makeBoard(std::vector<workloads::Workload>{pet});
  // The fault redirects pc into `hang`, which static control flow never
  // reaches — make it a known block leader like an interrupt handler.
  grid.extra_leaders.push_back(platform::symbolAddr(grid.images[0], "hang"));
  return grid;
}

TEST(Watchdog, FiresOnHungGuestAndRecoveryRewindsPastTheFault) {
  GridBoard grid = makeWdBoard();
  RunConfig rc;
  rc.watchdog = true;

  auto clean = buildBoard(grid, rc);
  clean->setCheckpointing({512, 4, ""});
  clean->run();
  const BoardObs want = capture(*clean, grid);
  const std::vector<std::pair<sim::Cycle, uint64_t>> trail =
      clean->digestTrail();
  ASSERT_GE(trail.size(), 3u);
  EXPECT_EQ(clean->watchdog().fired(), 0u);  // a petted dog never fires

  auto board = buildBoard(grid, rc);
  board->setCheckpointing({512, 4, ""});
  board->setExpectedTrail(trail);
  fi::Campaign camp;
  fi::FaultSpec f;
  f.kind = fi::FaultKind::kPcSet;
  f.cycle = 1500;
  f.addr = platform::symbolAddr(grid.images[0], "hang");
  camp.add(f);
  camp.arm(*board);
  board->runTo(4000);
  EXPECT_EQ(camp.firedCount(), 1u);
  EXPECT_EQ(board->watchdog().fired(), 1u) << "unpetted watchdog fires";
  EXPECT_TRUE(board->watchdogFirePending());
  EXPECT_GE(board->divergences(), 1u);

  const platform::RecoveryReport rep = board->recover();
  ASSERT_TRUE(rep.recovered) << rep.detail;
  // With a 1024-cycle quantum the chunk ending at 1024 already contains
  // the core slice [1024, 2048) where the fault fired, so the newest
  // trail-certified entry is the one at 512.
  EXPECT_EQ(rep.resume_cycle, 512u);
  EXPECT_FALSE(board->watchdogFirePending());
  EXPECT_EQ(board->recoveries(), 1u);
  // The pcset fault was consumed before the rewind: replay runs clean
  // and converges on the uninterrupted run.
  board->run();
  expectIdentical(capture(*board, grid), want, *board, *clean);
  EXPECT_EQ(board->watchdog().fired(), 0u) << "rewound watchdog state";

  obs::MetricsRegistry reg;
  board->publishMetrics(reg);
  EXPECT_EQ(reg.counterOr("board.fi.recoveries"), 1u);
  EXPECT_GE(reg.counterOr("board.fi.divergences"), 1u);
  EXPECT_EQ(reg.counterOr("board.fi.watchdog_fired"), 0u);
}

TEST(Recovery, AutoRecoverRewindsOnTrailDivergence) {
  GridBoard grid = makeWdBoard();
  RunConfig rc;
  rc.watchdog = true;

  auto clean = buildBoard(grid, rc);
  clean->setCheckpointing({512, 4, ""});
  clean->run();
  const BoardObs want = capture(*clean, grid);

  auto board = buildBoard(grid, rc);
  board->setCheckpointing({512, 4, ""});
  board->setExpectedTrail(clean->digestTrail());
  platform::RecoveryConfig recovery;
  recovery.auto_recover = true;
  board->setRecovery(recovery);
  fi::Campaign camp;
  fi::FaultSpec f;
  f.kind = fi::FaultKind::kPcSet;
  f.cycle = 1500;
  f.addr = platform::symbolAddr(grid.images[0], "hang");
  camp.add(f);
  camp.arm(*board);
  // run() crosses the divergent checkpoint, auto-recovers to the newest
  // certified entry, and replays to a clean completion in one call.
  board->run();
  EXPECT_EQ(board->recoveries(), 1u);
  EXPECT_EQ(board->divergences(), 1u);
  EXPECT_EQ(board->watchdog().fired(), 0u)
      << "divergence detection recovered before the watchdog expired";
  expectIdentical(capture(*board, grid), want, *board, *clean);
}

// ---- snapshot-ring corruption and graceful degradation ----------------

TEST(Recovery, CorruptRingEntriesFallBackToTheNewestIntactOne) {
  const GridBoard grid = makeBoard(std::vector<std::string>{"irq_ticks"});
  const RunConfig rc;
  auto clean = buildBoard(grid, rc);
  clean->run();
  const BoardObs want = capture(*clean, grid);

  auto board = buildBoard(grid, rc);
  board->setCheckpointing({512, 4, ""});
  fi::Campaign camp;
  fi::FaultSpec f;
  f.kind = fi::FaultKind::kRingCorrupt;
  f.cycle = 1000;  // entries checkpointed from cycle 1000 on are corrupted
  f.addr = 100;    // byte offset to flip (mod entry size)
  camp.add(f);
  camp.arm(*board);
  board->run();
  // Corrupting ring copies never touches live state: the run itself is
  // still byte-identical to the clean one. irq_ticks checkpoints at 512,
  // 1024 and 2560; the campaign corrupted the newer two.
  expectIdentical(capture(*board, grid), want, *board, *clean);
  ASSERT_EQ(board->checkpoints().size(), 3u);
  EXPECT_EQ(camp.ringCorruptions(), 2u);
  obs::MetricsRegistry reg;
  camp.publishMetrics(reg);
  EXPECT_EQ(reg.counterOr("fi.ring_corruptions"), 2u);

  // recover() walks past the two corrupt entries (their integrity
  // footer fails before any state is mutated) to the newest intact one.
  const platform::RecoveryReport rep = board->recover();
  ASSERT_TRUE(rep.recovered) << rep.detail;
  EXPECT_EQ(rep.entries_tried, 3u);
  EXPECT_EQ(rep.entries_corrupt, 2u);
  EXPECT_EQ(rep.resume_cycle, 512u);
  board->run();
  expectIdentical(capture(*board, grid), want, *board, *clean);
}

TEST(Recovery, SpilledRingRetriesUnreadableFilesThenFallsBack) {
  const GridBoard grid = makeBoard(std::vector<std::string>{"irq_ticks"});
  const RunConfig rc;
  auto clean = buildBoard(grid, rc);
  clean->run();
  const BoardObs want = capture(*clean, grid);

  const std::string dir =
      (std::filesystem::path(::testing::TempDir()) / "fi_ring").string();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  auto board = buildBoard(grid, rc);
  board->setCheckpointing({512, 4, dir});
  platform::RecoveryConfig recovery;
  recovery.io_attempts = 3;
  recovery.backoff_ms = 0;
  board->setRecovery(recovery);
  board->run();
  ASSERT_EQ(board->checkpoints().size(), 3u);
  for (const platform::Checkpoint& cp : board->checkpoints()) {
    ASSERT_FALSE(cp.path.empty());
    EXPECT_TRUE(cp.data.empty()) << "spilled entries hold no bytes";
  }
  // Newest entry: gone from disk (exhausts the bounded I/O retries).
  std::filesystem::remove(board->checkpoints().back().path);
  // Second newest: one flipped byte (fails the integrity footer).
  {
    const std::string& path =
        board->checkpoints()[board->checkpoints().size() - 2].path;
    std::fstream fs(path, std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(fs.good());
    fs.seekg(64);
    char b = 0;
    fs.read(&b, 1);
    b = static_cast<char>(b ^ 0x10);
    fs.seekp(64);
    fs.write(&b, 1);
  }
  const platform::RecoveryReport rep = board->recover();
  ASSERT_TRUE(rep.recovered) << rep.detail;
  EXPECT_EQ(rep.entries_tried, 3u);
  EXPECT_EQ(rep.entries_corrupt, 2u);
  EXPECT_EQ(rep.io_retries, 2u) << "3 attempts on the deleted file";
  board->run();
  expectIdentical(capture(*board, grid), want, *board, *clean);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace cabt

// Tests of the discrete-event kernel (sim/), the interrupt path
// (interrupt controller + programmable timer + mailbox) and the
// temporally decoupled multi-core reference board.
//
// The two load-bearing invariants of the design:
//   * single-initiator simulation is *exactly* quantum-invariant — the
//     quantum only slices host execution, never behaviour, because all
//     shared state advances lazily to transaction/sample timestamps;
//   * the block-dispatch engine and per-instruction stepping take every
//     interrupt at the identical cycle count (IRQ sampling happens only
//     at basic-block boundaries, which both engines share).
#include <gtest/gtest.h>

#include <vector>

#include "common/serial.h"
#include "platform/platform.h"
#include "sim/kernel.h"
#include "soc/interrupts.h"
#include "trc/assembler.h"
#include "workloads/workloads.h"

namespace cabt {
namespace {

// ---- kernel ---------------------------------------------------------

TEST(Kernel, DispatchesInTimeOrderWithStableTies) {
  sim::Kernel k;
  std::vector<int> order;
  k.schedule(10, [&] { order.push_back(1); });
  k.schedule(5, [&] { order.push_back(2); });
  k.schedule(10, [&] { order.push_back(3); });
  EXPECT_EQ(k.run(), 10u);
  EXPECT_EQ(order, (std::vector<int>{2, 1, 3}));
  EXPECT_EQ(k.eventsDispatched(), 3u);
  EXPECT_TRUE(k.idle());
}

TEST(Kernel, RunLimitLeavesLaterEventsQueued) {
  sim::Kernel k;
  int fired = 0;
  k.schedule(10, [&] { ++fired; });
  k.schedule(20, [&] { ++fired; });
  k.run(15);
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(k.idle());
  k.run();
  EXPECT_EQ(fired, 2);
}

class CountingClock : public sim::ClockedProcess {
 public:
  CountingClock(sim::Cycle period, int limit)
      : sim::ClockedProcess("clock", period), limit_(limit) {}
  void tick(sim::Kernel& kernel) override {
    stamps.push_back(kernel.now());
    if (static_cast<int>(stamps.size()) == limit_) {
      stop();
    }
  }
  std::vector<sim::Cycle> stamps;

 private:
  int limit_;
};

TEST(Kernel, ClockedProcessTicksAtItsPeriod) {
  sim::Kernel k;
  CountingClock clock(7, 4);
  k.addProcess(&clock, 7);
  k.run();
  EXPECT_EQ(clock.stamps, (std::vector<sim::Cycle>{7, 14, 21, 28}));
}

class Waiter : public sim::Process {
 public:
  explicit Waiter(sim::Event* event)
      : sim::Process("waiter"), event_(event) {}
  void activate(sim::Kernel& kernel) override {
    if (!woken) {
      woken = true;
      wake_time = kernel.now();
      return;  // first activation is the notify itself in this test
    }
  }
  sim::Event* event_;
  bool woken = false;
  sim::Cycle wake_time = 0;
};

TEST(Kernel, EventNotifyWakesParkedProcesses) {
  sim::Kernel k;
  sim::Event event(&k, "done");
  Waiter w(&event);
  event.wait(&w);
  EXPECT_EQ(event.numWaiting(), 1u);
  k.schedule(50, [&] { event.notify(60); });
  k.run();
  EXPECT_TRUE(w.woken);
  EXPECT_EQ(w.wake_time, 60u);
  EXPECT_EQ(event.numWaiting(), 0u);
}

// ---- interrupt-path devices -----------------------------------------

TEST(ProgrammableTimer, ExpiriesAreAPureFunctionOfTime) {
  // The same interval advanced in one jump or in ragged slices produces
  // the same expiry count and pending state — the property behind exact
  // quantum invariance.
  soc::InterruptController intc_a;
  soc::ProgrammableTimer a;
  a.setIrqTarget(&intc_a, 0);
  a.write(soc::ProgrammableTimer::kLoadOffset, 100, 4, 0);
  a.write(soc::ProgrammableTimer::kCtrlOffset, 3, 4, 0);  // enable|periodic
  a.advanceTo(0, 1005);

  soc::InterruptController intc_b;
  soc::ProgrammableTimer b;
  b.setIrqTarget(&intc_b, 0);
  b.write(soc::ProgrammableTimer::kLoadOffset, 100, 4, 0);
  b.write(soc::ProgrammableTimer::kCtrlOffset, 3, 4, 0);
  uint64_t t = 0;
  for (const uint64_t step : {1, 7, 99, 100, 101, 250, 447}) {
    b.advanceTo(t, t + step);
    t += step;
  }
  b.advanceTo(t, 1005);

  EXPECT_EQ(a.expiries(), 10u);
  EXPECT_EQ(b.expiries(), a.expiries());
  EXPECT_EQ(intc_a.pending(), intc_b.pending());
}

TEST(ProgrammableTimer, ClearingLoadWhileArmedStopsInsteadOfSpinning) {
  soc::ProgrammableTimer t;
  t.write(soc::ProgrammableTimer::kLoadOffset, 100, 4, 0);
  t.write(soc::ProgrammableTimer::kCtrlOffset, 3, 4, 0);  // enable|periodic
  t.advanceTo(0, 150);
  EXPECT_EQ(t.expiries(), 1u);
  // A reload value of 0 must stop the timer at its next expiry, not spin
  // forever on a zero period.
  t.write(soc::ProgrammableTimer::kLoadOffset, 0, 4, 150);
  t.advanceTo(150, 100000);
  EXPECT_EQ(t.expiries(), 2u);
  EXPECT_FALSE(t.enabled());
}

TEST(ProgrammableTimer, OneShotDisablesAfterExpiry) {
  soc::ProgrammableTimer t;
  t.write(soc::ProgrammableTimer::kLoadOffset, 50, 4, 0);
  t.write(soc::ProgrammableTimer::kCtrlOffset, 1, 4, 0);  // enable only
  EXPECT_EQ(t.read(soc::ProgrammableTimer::kCountOffset, 4, 20), 30u);
  t.advanceTo(0, 500);
  EXPECT_EQ(t.expiries(), 1u);
  EXPECT_FALSE(t.enabled());
}

TEST(InterruptController, TakeMaskAckEoiprotocol) {
  soc::InterruptController intc;
  intc.write(soc::InterruptController::kVectorOffset, 0x8000'0040, 4, 0);
  intc.write(soc::InterruptController::kEnableOffset, 0x1, 4, 0);
  EXPECT_FALSE(intc.takeIrq(0).has_value());  // master disabled
  intc.write(soc::InterruptController::kCtrlOffset, 1, 4, 0);
  EXPECT_FALSE(intc.takeIrq(0).has_value());  // nothing pending
  intc.raise(0);
  intc.raise(5);  // line 5 is not enabled
  const auto taken = intc.takeIrq(0);
  ASSERT_TRUE(taken.has_value());
  EXPECT_EQ(*taken, 0x8000'0040u);
  EXPECT_TRUE(intc.inService());
  EXPECT_FALSE(intc.takeIrq(0).has_value());  // masked while in service
  intc.write(soc::InterruptController::kAckOffset, 0x1, 4, 0);
  intc.write(soc::InterruptController::kEoiOffset, 0, 4, 0);
  EXPECT_FALSE(intc.takeIrq(0).has_value());  // line 0 acked, 5 disabled
  intc.write(soc::InterruptController::kEnableOffset, 0x21, 4, 0);
  EXPECT_TRUE(intc.takeIrq(0).has_value());  // line 5 now deliverable
}

// The delivery log is capped at 65536 entries while running; a restored
// one may not exceed the cap either.
TEST(InterruptController, RestoreRejectsDeliveryLogBeyondTheCap) {
  const auto section = [](size_t entries) {
    serial::Writer w;
    w.u32(0);  // raw
    w.u32(0);  // enable
    w.u32(0);  // vector
    w.b(false);  // master enable
    w.b(false);  // in service
    w.u64(entries);  // irqs taken
    w.seq("delivery_times", std::vector<uint64_t>(entries, 7),
          [&w](uint64_t t) { w.u64(t); });
    return w.take();
  };
  soc::InterruptController intc;
  const std::vector<uint8_t> at_cap = section(65536);
  serial::Reader ok(at_cap);
  intc.restoreState(ok);
  EXPECT_EQ(intc.deliveryTimes().size(), 65536u);
  const std::vector<uint8_t> over = section(65537);
  serial::Reader bad(over);
  EXPECT_THROW(intc.restoreState(bad), Error);
}

TEST(Mailbox, FifoOrderStatusAndDoorbell) {
  soc::MailboxDevice mb;
  int rings = 0;
  mb.setDoorbell(0, [&] { ++rings; });
  EXPECT_EQ(mb.read(0x4, 4, 0), 0u);  // empty
  mb.write(0x0, 11, 4, 0);
  mb.write(0x0, 22, 4, 0);
  EXPECT_EQ(mb.read(0x4, 4, 0), 1u);  // has data, not full
  mb.write(0x0, 33, 4, 0);
  mb.write(0x0, 44, 4, 0);
  EXPECT_EQ(mb.read(0x4, 4, 0), 3u);  // has data | full
  mb.write(0x0, 55, 4, 0);            // dropped
  EXPECT_EQ(mb.dropped(), 1u);
  EXPECT_EQ(mb.read(0x0, 4, 0), 11u);
  EXPECT_EQ(mb.read(0x0, 4, 0), 22u);
  EXPECT_EQ(mb.read(0x0, 4, 0), 33u);
  EXPECT_EQ(mb.read(0x0, 4, 0), 44u);
  EXPECT_EQ(mb.read(0x4, 4, 0), 0u);
  mb.write(0x8, 0, 4, 0);  // doorbell 0
  EXPECT_EQ(rings, 1);
}

// ---- interrupt-driven execution on the reference board --------------

struct ScenarioRun {
  iss::IssStats stats;
  uint32_t checksum = 0;
  uint64_t bus_cycle = 0;
  uint64_t timer_expiries = 0;
  uint64_t irqs_delivered = 0;
  uint32_t d14 = 0;
};

/// Engine variants crossed with the IRQ scenario: stepping, the lookup
/// and chained block engines, and the trace engine with a threshold low
/// enough that the spin-wait loop forms superblocks almost immediately
/// (so interrupts routinely arrive at trace-internal boundaries and
/// redirect control off a speculated guard).
struct EngineVariant {
  const char* name;
  bool use_block_cache;
  iss::DispatchMode mode;
  uint32_t trace_threshold;
};

constexpr EngineVariant kEngineVariants[] = {
    {"stepping", false, iss::DispatchMode::kLookup, 64},
    {"lookup", true, iss::DispatchMode::kLookup, 64},
    {"chained", true, iss::DispatchMode::kChained, 64},
    {"traces", true, iss::DispatchMode::kChainedTraces, 2},
};

ScenarioRun runIrqTicks(const EngineVariant& engine, sim::Cycle quantum,
                        xlat::DetailLevel level = xlat::DetailLevel::kICache) {
  const arch::ArchDescription desc = arch::ArchDescription::defaultTc10gp();
  const workloads::Workload& w = workloads::get("irq_ticks");
  const elf::Object obj = workloads::assemble(w);
  platform::BoardConfig cfg;
  cfg.iss = platform::issConfigFor(level);
  cfg.iss.use_block_cache = engine.use_block_cache;
  cfg.iss.dispatch_mode = engine.mode;
  cfg.iss.trace_threshold = engine.trace_threshold;
  cfg.iss.extra_leaders = {platform::symbolAddr(obj, w.irq_handler)};
  cfg.quantum = quantum;
  platform::ReferenceBoard board(desc, {&obj}, cfg);
  EXPECT_EQ(board.run(), iss::StopReason::kHalted);
  ScenarioRun r;
  r.stats = board.iss().stats();
  r.checksum = workloads::readChecksum(obj, board.iss().memory());
  r.bus_cycle = board.board().bus.socCycle();
  r.timer_expiries = board.ptimer().expiries();
  r.irqs_delivered = board.intc(0).irqsTaken();
  r.d14 = board.iss().d(14);
  return r;
}

void expectIdentical(const ScenarioRun& a, const ScenarioRun& b) {
  EXPECT_EQ(a.stats.instructions, b.stats.instructions);
  EXPECT_EQ(a.stats.cycles, b.stats.cycles);
  EXPECT_EQ(a.stats.pipeline_cycles, b.stats.pipeline_cycles);
  EXPECT_EQ(a.stats.branch_extra, b.stats.branch_extra);
  EXPECT_EQ(a.stats.cache_penalty, b.stats.cache_penalty);
  EXPECT_EQ(a.stats.blocks, b.stats.blocks);
  EXPECT_EQ(a.stats.irqs_taken, b.stats.irqs_taken);
  EXPECT_EQ(a.stats.irq_entry_cycles, b.stats.irq_entry_cycles);
  EXPECT_EQ(a.stats.io_reads, b.stats.io_reads);
  EXPECT_EQ(a.stats.io_writes, b.stats.io_writes);
  EXPECT_EQ(a.checksum, b.checksum);
  EXPECT_EQ(a.bus_cycle, b.bus_cycle);
  EXPECT_EQ(a.timer_expiries, b.timer_expiries);
  EXPECT_EQ(a.irqs_delivered, b.irqs_delivered);
  EXPECT_EQ(a.d14, b.d14);
}

TEST(InterruptDriven, WorkloadRetiresWithExpectedChecksum) {
  const ScenarioRun r = runIrqTicks(kEngineVariants[3], 1024);
  EXPECT_EQ(r.checksum, 164u);
  EXPECT_EQ(r.d14, 8u);
  EXPECT_EQ(r.stats.irqs_taken, 8u);
  EXPECT_EQ(r.irqs_delivered, 8u);
  EXPECT_GE(r.timer_expiries, 8u);
  EXPECT_GT(r.stats.irq_entry_cycles, 0u);
  // The spin-wait loop really did run as guarded superblocks, and
  // interrupts really did bail traces at internal boundaries.
  EXPECT_GT(r.stats.trace_dispatches, 0u);
  EXPECT_GT(r.stats.guard_bails, 0u);
}

// The step()-fallback proof: every dispatch engine — lookup, chained and
// the trace engine included — and pure per-instruction execution take
// all 8 interrupts at identical cycle counts and retire identically.
TEST(InterruptDriven, AllDispatchEnginesTakeIrqsIdentically) {
  for (const xlat::DetailLevel level :
       {xlat::DetailLevel::kFunctional, xlat::DetailLevel::kStatic,
        xlat::DetailLevel::kBranchPredict, xlat::DetailLevel::kICache}) {
    SCOPED_TRACE(xlat::detailLevelName(level));
    const ScenarioRun slow = runIrqTicks(kEngineVariants[0], 1024, level);
    EXPECT_EQ(slow.checksum, 164u);
    for (size_t v = 1; v < std::size(kEngineVariants); ++v) {
      SCOPED_TRACE(kEngineVariants[v].name);
      expectIdentical(runIrqTicks(kEngineVariants[v], 1024, level), slow);
    }
  }
}

// Exact temporal-decoupling invariance: with one initiator, the quantum
// slices host execution but never behaviour — final SoC cycle and all
// state are bit-identical for quantum 1, 16, 256 and 4096, for the
// chained and trace engines alike (a quantum boundary may now fall on a
// trace-internal block boundary and must yield there).
TEST(InterruptDriven, GeneratedCyclesAreQuantumInvariant) {
  const ScenarioRun base = runIrqTicks(kEngineVariants[2], 1);
  EXPECT_EQ(base.checksum, 164u);
  for (const sim::Cycle quantum : {16u, 256u, 4096u}) {
    SCOPED_TRACE("quantum " + std::to_string(quantum));
    expectIdentical(base, runIrqTicks(kEngineVariants[2], quantum));
  }
  for (const sim::Cycle quantum : {1u, 16u, 256u, 4096u}) {
    SCOPED_TRACE("trace engine, quantum " + std::to_string(quantum));
    expectIdentical(base, runIrqTicks(kEngineVariants[3], quantum));
  }
  // The stepping engine is quantum-invariant too, and agrees.
  expectIdentical(base, runIrqTicks(kEngineVariants[0], 4096));
}

// A breakpoint on the interrupt handler entry must hit on every
// delivery, even when the core is resumed from another breakpoint at the
// very boundary where the interrupt redirects the pc — the resume's
// step-over is keyed to the stop address, not consumed blindly.
TEST(InterruptDriven, HandlerBreakpointHitsOnEveryDelivery) {
  const arch::ArchDescription desc = arch::ArchDescription::defaultTc10gp();
  const workloads::Workload& w = workloads::get("irq_ticks");
  const elf::Object obj = workloads::assemble(w);
  platform::BoardConfig cfg;
  cfg.iss.extra_leaders = {platform::symbolAddr(obj, w.irq_handler)};
  platform::ReferenceBoard board(desc, {&obj}, cfg);
  iss::Iss& core = board.iss();
  const uint32_t wait_addr = platform::symbolAddr(obj, "wait");
  const uint32_t isr_addr = platform::symbolAddr(obj, "isr");
  core.addBreakpoint(wait_addr);  // hit on every spin iteration
  core.addBreakpoint(isr_addr);
  uint64_t isr_stops = 0;
  uint64_t other_stops = 0;
  while (core.run() == iss::StopReason::kDebugBreak) {
    if (core.pc() == isr_addr) {
      ++isr_stops;
    } else {
      ASSERT_EQ(core.pc(), wait_addr);
      ++other_stops;
    }
    ASSERT_LT(other_stops, 100000u) << "spin without progress";
  }
  EXPECT_EQ(core.stopReason(), iss::StopReason::kHalted);
  EXPECT_EQ(isr_stops, 8u);  // one stop per delivered interrupt
  EXPECT_EQ(workloads::readChecksum(obj, core.memory()), 164u);
}

// ---- golden-trace snapshots -----------------------------------------
//
// Committed expected values for the stock scenario workloads at one
// pinned configuration (kICache detail, quantum 1024, default engine).
// The simulation is a pure function of the architecture description, so
// these are stable across hosts and compilers; any engine change that
// shifts a cycle count, an IRQ delivery timestamp or the bus traffic
// regresses loudly here instead of silently drifting.

TEST(GoldenTrace, IrqTicks) {
  const ScenarioRun r = runIrqTicks(kEngineVariants[3], 1024);
  EXPECT_EQ(r.stats.instructions, 2126u);
  EXPECT_EQ(r.stats.cycles, 3279u);
  EXPECT_EQ(r.stats.irqs_taken, 8u);
  EXPECT_EQ(r.stats.irq_entry_cycles, 48u);
  EXPECT_EQ(r.checksum, 164u);
  EXPECT_EQ(r.bus_cycle, 3279u);
  EXPECT_EQ(r.timer_expiries, 8u);
}

TEST(GoldenTrace, IrqTicksDeliveryTimestamps) {
  const arch::ArchDescription desc = arch::ArchDescription::defaultTc10gp();
  const workloads::Workload& w = workloads::get("irq_ticks");
  const elf::Object obj = workloads::assemble(w);
  platform::BoardConfig cfg;
  cfg.iss = platform::issConfigFor(xlat::DetailLevel::kICache);
  cfg.iss.extra_leaders = {platform::symbolAddr(obj, w.irq_handler)};
  cfg.quantum = 1024;
  platform::ReferenceBoard board(desc, {&obj}, cfg);
  ASSERT_EQ(board.run(), iss::StopReason::kHalted);
  const std::vector<uint64_t> expected = {447,  845,  1245, 1645,
                                          2045, 2445, 2845, 3245};
  EXPECT_EQ(board.intc(0).deliveryTimes(), expected);
  EXPECT_EQ(board.board().bus.log().size(), 23u);
}

TEST(GoldenTrace, ProducerConsumerPair) {
  const arch::ArchDescription desc = arch::ArchDescription::defaultTc10gp();
  const workloads::Workload& wp = workloads::get("mc_producer");
  const elf::Object producer = workloads::assemble(wp);
  const elf::Object consumer =
      workloads::assemble(workloads::get("mc_consumer"));
  platform::BoardConfig cfg;
  cfg.iss = platform::issConfigFor(xlat::DetailLevel::kICache);
  cfg.iss.extra_leaders = {platform::symbolAddr(producer, wp.irq_handler)};
  cfg.quantum = 1024;
  platform::ReferenceBoard board(desc, {&producer, &consumer}, cfg);
  ASSERT_EQ(board.run(), iss::StopReason::kHalted);
  EXPECT_EQ(board.core(0).stats().instructions, 3171u);
  EXPECT_EQ(board.core(0).stats().cycles, 4891u);
  EXPECT_EQ(board.core(0).stats().irqs_taken, 16u);
  EXPECT_EQ(board.core(0).stats().irq_entry_cycles, 96u);
  EXPECT_EQ(board.core(1).stats().instructions, 3275u);
  EXPECT_EQ(board.core(1).stats().cycles, 4157u);
  EXPECT_EQ(workloads::readChecksum(producer, board.core(0).memory()),
            1544u);
  EXPECT_EQ(workloads::readChecksum(consumer, board.core(1).memory()),
            1544u);
  EXPECT_EQ(board.board().bus.socCycle(), 4891u);
  EXPECT_EQ(board.ptimer().expiries(), 16u);
  EXPECT_EQ(board.mailbox().pushes(), 16u);
  EXPECT_EQ(board.board().bus.log().size(), 888u);
  std::vector<uint64_t> expected = {346};
  for (uint64_t t = 648; t <= 4848; t += 300) {
    expected.push_back(t);
  }
  EXPECT_EQ(board.intc(0).deliveryTimes(), expected);
}

TEST(GoldenTrace, McWorkerSoloRun) {
  const arch::ArchDescription desc = arch::ArchDescription::defaultTc10gp();
  const elf::Object obj = workloads::assemble(workloads::get("mc_worker"));
  platform::BoardConfig cfg;
  cfg.iss = platform::issConfigFor(xlat::DetailLevel::kICache);
  cfg.quantum = 1024;
  platform::ReferenceBoard board(desc, {&obj}, cfg);
  ASSERT_EQ(board.run(), iss::StopReason::kHalted);
  EXPECT_EQ(board.core(0).stats().instructions, 618606u);
  EXPECT_EQ(board.core(0).stats().cycles, 824784u);
  EXPECT_EQ(workloads::readChecksum(obj, board.core(0).memory()),
            1644595200u);
  // One progress beacon per outer iteration, all on the shared bus.
  EXPECT_EQ(board.board().bus.log().size(), 400u);
  EXPECT_EQ(board.board().scratch.reg(7), 1644595200u);
}

// ---- multi-core board -----------------------------------------------

TEST(MultiCore, ProducerConsumerCompletesAtEveryDetailLevelAndQuantum) {
  const arch::ArchDescription desc = arch::ArchDescription::defaultTc10gp();
  const workloads::Workload& wp = workloads::get("mc_producer");
  const workloads::Workload& wc = workloads::get("mc_consumer");
  const elf::Object producer = workloads::assemble(wp);
  const elf::Object consumer = workloads::assemble(wc);
  for (const xlat::DetailLevel level :
       {xlat::DetailLevel::kFunctional, xlat::DetailLevel::kStatic,
        xlat::DetailLevel::kBranchPredict, xlat::DetailLevel::kICache}) {
    for (const sim::Cycle quantum : {1u, 16u, 256u, 4096u}) {
      SCOPED_TRACE(std::string(xlat::detailLevelName(level)) + ", quantum " +
                   std::to_string(quantum));
      platform::BoardConfig cfg;
      cfg.iss = platform::issConfigFor(level);
      cfg.iss.extra_leaders = {platform::symbolAddr(producer, wp.irq_handler)};
      cfg.quantum = quantum;
      platform::ReferenceBoard board(desc, {&producer, &consumer}, cfg);
      ASSERT_EQ(board.run(), iss::StopReason::kHalted);
      ASSERT_EQ(board.numCores(), 2u);
      // The handshake is interleaving-robust: both sides agree on the
      // checksum whatever the quantum or detail level.
      EXPECT_EQ(workloads::readChecksum(producer, board.core(0).memory()),
                1544u);
      EXPECT_EQ(workloads::readChecksum(consumer, board.core(1).memory()),
                1544u);
      EXPECT_EQ(board.mailbox().pushes(), 16u);
      EXPECT_EQ(board.mailbox().dropped(), 0u);
      EXPECT_EQ(board.mailbox().depth(), 0u);
      EXPECT_EQ(board.core(0).stats().irqs_taken, 16u);
      if (level != xlat::DetailLevel::kFunctional) {
        EXPECT_GT(board.core(0).stats().cycles, 0u);
        EXPECT_GT(board.core(1).stats().cycles, 0u);
      }
    }
  }
}

// A core that runs ahead only ever sees the shared bus at or after its
// own local time; with quantum q the skew between the two cores' local
// clocks at any shared access is bounded by one quantum plus one block.
TEST(MultiCore, CoresStayTemporallyDecoupledButOrdered) {
  const arch::ArchDescription desc = arch::ArchDescription::defaultTc10gp();
  const workloads::Workload& wp = workloads::get("mc_producer");
  const elf::Object producer = workloads::assemble(wp);
  const elf::Object consumer =
      workloads::assemble(workloads::get("mc_consumer"));
  platform::BoardConfig cfg;
  cfg.iss.extra_leaders = {platform::symbolAddr(producer, wp.irq_handler)};
  cfg.quantum = 64;
  platform::ReferenceBoard board(desc, {&producer, &consumer}, cfg);
  ASSERT_EQ(board.run(), iss::StopReason::kHalted);
  // The bus clock ends at the maximum of the cores' local times.
  const uint64_t t0 = board.core(0).stats().cycles;
  const uint64_t t1 = board.core(1).stats().cycles;
  EXPECT_EQ(board.board().bus.socCycle(), std::max(t0, t1));
}

}  // namespace
}  // namespace cabt

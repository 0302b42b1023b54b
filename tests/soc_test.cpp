// SoC bus, peripheral and synchronization-device tests.
#include <gtest/gtest.h>

#include <random>
#include <string>

#include "common/error.h"
#include "soc/bus.h"
#include "soc/peripherals.h"
#include "soc/standard_board.h"
#include "soc/sync_device.h"

namespace cabt::soc {
namespace {

TEST(SocBus, RoutesToAttachedDevices) {
  SocBus bus;
  ScratchDevice scratch;
  bus.attach(&scratch, 0xf0000300, 0x40);
  EXPECT_TRUE(bus.covers(0xf0000300));
  EXPECT_TRUE(bus.covers(0xf000033c));
  EXPECT_FALSE(bus.covers(0xf0000340));
  bus.write(0xf0000304, 77, 4);
  EXPECT_EQ(bus.read(0xf0000304, 4), 77u);
  EXPECT_EQ(scratch.reg(1), 77u);
}

TEST(SocBus, UnmappedAccessThrows) {
  SocBus bus;
  EXPECT_THROW(bus.read(0x1000, 4), Error);
  EXPECT_THROW(bus.write(0x1000, 0, 4), Error);
}

TEST(SocBus, RejectsOverlappingWindows) {
  SocBus bus;
  ScratchDevice a;
  ScratchDevice b;
  bus.attach(&a, 0x100, 0x40);
  EXPECT_THROW(bus.attach(&b, 0x13c, 0x40), Error);
}

TEST(SocBus, LogsTransactionsWithCycleStamps) {
  SocBus bus;
  ScratchDevice scratch;
  bus.attach(&scratch, 0x0, 0x40);
  bus.advanceTo(bus.socCycle() + 1);
  bus.advanceTo(bus.socCycle() + 1);
  bus.write(0x0, 5, 4);
  bus.advanceTo(bus.socCycle() + 1);
  bus.read(0x0, 4);
  ASSERT_EQ(bus.log().size(), 2u);
  EXPECT_EQ(bus.log()[0].soc_cycle, 2u);
  EXPECT_TRUE(bus.log()[0].is_write);
  EXPECT_EQ(bus.log()[1].soc_cycle, 3u);
  EXPECT_FALSE(bus.log()[1].is_write);
}

TEST(SocBus, LogLimitKeepsMostRecentTransactions) {
  SocBus bus;
  ScratchDevice scratch;
  bus.attach(&scratch, 0x0, 0x40);
  bus.setLogLimit(4);
  for (uint32_t i = 0; i < 100; ++i) {
    bus.advanceTo(bus.socCycle() + 1);
    bus.write(0x0, i, 4);
  }
  // The cap bounds memory (below 2x the limit) while always retaining at
  // least the most recent `limit` entries, newest last.
  ASSERT_GE(bus.log().size(), 4u);
  ASSERT_LT(bus.log().size(), 8u);
  EXPECT_EQ(bus.droppedTransactions() + bus.log().size(), 100u);
  EXPECT_EQ(bus.log().back().value, 99u);
  const size_t n = bus.log().size();
  for (size_t i = 0; i < n; ++i) {
    EXPECT_EQ(bus.log()[i].value, 100 - n + i);
  }
  // Tightening the cap trims immediately; clearing resets the counter.
  bus.setLogLimit(2);
  EXPECT_EQ(bus.log().size(), 2u);
  EXPECT_EQ(bus.log().back().value, 99u);
  bus.clearLog();
  EXPECT_EQ(bus.droppedTransactions(), 0u);
  EXPECT_TRUE(bus.log().empty());
}

TEST(SocBus, UnlimitedLogIsTheDefault) {
  SocBus bus;
  ScratchDevice scratch;
  bus.attach(&scratch, 0x0, 0x40);
  for (uint32_t i = 0; i < 1000; ++i) {
    bus.write(0x0, i, 4);
  }
  EXPECT_EQ(bus.log().size(), 1000u);
  EXPECT_EQ(bus.droppedTransactions(), 0u);
}

TEST(Timer, CountsOnlyClockedCycles) {
  SocBus bus;
  TimerDevice timer;
  bus.attach(&timer, 0x0, 0x10);
  EXPECT_EQ(bus.read(0x0, 4), 0u);
  for (int i = 0; i < 5; ++i) {
    bus.advanceTo(bus.socCycle() + 1);
  }
  EXPECT_EQ(bus.read(0x0, 4), 5u);
  bus.write(0x8, 0, 4);  // reset
  EXPECT_EQ(bus.read(0x0, 4), 0u);
}

TEST(CharDev, CollectsOutputWithStamps) {
  SocBus bus;
  CharDevice chardev;
  bus.attach(&chardev, 0x0, 0x10);
  bus.advanceTo(bus.socCycle() + 1);
  bus.write(0x0, 'h', 4);
  bus.advanceTo(bus.socCycle() + 1);
  bus.write(0x0, 'i', 4);
  EXPECT_EQ(chardev.output(), "hi");
  EXPECT_EQ(chardev.stamps(), (std::vector<uint64_t>{1, 2}));
  EXPECT_EQ(bus.read(0x4, 4), 2u);
}

TEST(SyncDevice, GeneratesExactlyRequestedCycles) {
  SocBus bus;
  TimerDevice timer;
  bus.attach(&timer, 0x0, 0x10);
  uint64_t cycle = 0;
  SyncDevice sync(&bus, /*rate=*/1, &cycle);
  sync.start(5);
  EXPECT_TRUE(sync.busy());
  unsigned emitted = 0;
  for (int i = 0; i < 10; ++i) {
    ++cycle;
    emitted += sync.edge() ? 1 : 0;
  }
  EXPECT_EQ(emitted, 5u);
  EXPECT_FALSE(sync.busy());
  EXPECT_EQ(sync.totalGenerated(), 5u);
  EXPECT_EQ(timer.count(), 0u);  // nothing observed the SoC side yet
  sync.advanceBus();
  EXPECT_EQ(timer.count(), 5u);  // the attached hardware saw every cycle
}

TEST(SyncDevice, RateDividesVliwClock) {
  SocBus bus;
  uint64_t cycle = 0;
  SyncDevice sync(&bus, /*rate=*/4, &cycle);
  sync.start(2);
  EXPECT_EQ(sync.remaining(), 2u);
  while (sync.busy()) {
    ++cycle;
  }
  EXPECT_EQ(cycle, 8u);  // 2 SoC cycles at 4 VLIW cycles each
  EXPECT_EQ(sync.remaining(), 0u);
}

TEST(SyncDevice, CorrectionAccumulates) {
  SocBus bus;
  uint64_t cycle = 0;
  SyncDevice sync(&bus, 1, &cycle);
  sync.start(3);
  sync.correct(2);
  unsigned emitted = 0;
  while (sync.busy()) {
    ++cycle;
    emitted += sync.edge() ? 1 : 0;
  }
  EXPECT_EQ(emitted, 5u);
  EXPECT_EQ(sync.correctionTotal(), 2u);
  EXPECT_EQ(sync.numStarts(), 1u);
  EXPECT_EQ(sync.numCorrections(), 1u);
}

TEST(SyncDevice, IdleCyclesEmitNothing) {
  SocBus bus;
  uint64_t cycle = 0;
  SyncDevice sync(&bus, 1, &cycle);
  for (int i = 0; i < 100; ++i) {
    ++cycle;
    EXPECT_FALSE(sync.edge());
  }
  sync.advanceBus();
  EXPECT_EQ(sync.totalGenerated(), 0u);
  EXPECT_EQ(bus.socCycle(), 0u);
}

/// The per-cycle model the lazy SyncDevice replaced, kept as its
/// reference: tick() once per VLIW cycle emits one SoC cycle every
/// `rate` ticks while requested cycles are pending.
class TickedSyncDevice {
 public:
  TickedSyncDevice(SocBus* bus, unsigned rate) : bus_(bus), rate_(rate) {}

  void request(uint32_t n) { remaining_ += n; }
  [[nodiscard]] bool busy() const { return remaining_ > 0; }
  [[nodiscard]] uint64_t remaining() const { return remaining_; }
  [[nodiscard]] uint64_t totalGenerated() const { return total_generated_; }

  /// One VLIW cycle; true when it emitted an SoC cycle.
  bool tick() {
    if (remaining_ == 0) {
      return false;
    }
    if (++subcycle_ < rate_) {
      return false;
    }
    subcycle_ = 0;
    --remaining_;
    ++total_generated_;
    bus_->advanceTo(bus_->socCycle() + 1);
    return true;
  }

 private:
  SocBus* bus_;
  unsigned rate_;
  unsigned subcycle_ = 0;
  uint64_t remaining_ = 0;
  uint64_t total_generated_ = 0;
};

TEST(SyncDevice, MatchesTheTickedModelEveryCycle) {
  uint64_t starts_while_busy = 0;
  uint64_t starts_at_run_end = 0;
  for (uint32_t seed = 1; seed <= 48; ++seed) {
    const unsigned rate = 1 + seed % 8;
    std::mt19937 rng(seed);
    SocBus ref_bus;
    TimerDevice ref_timer;
    ref_bus.attach(&ref_timer, 0x0, 0x10);
    TickedSyncDevice ref(&ref_bus, rate);
    SocBus bus;
    TimerDevice timer;
    bus.attach(&timer, 0x0, 0x10);
    uint64_t cycle = 0;
    SyncDevice sync(&bus, rate, &cycle);

    for (int i = 0; i < 3000; ++i) {
      ++cycle;
      const bool ref_edge = ref.tick();
      sync.advanceBus();
      const auto where = [&] {
        return "seed " + std::to_string(seed) + " cycle " +
               std::to_string(cycle);
      };
      ASSERT_EQ(sync.edge(), ref_edge) << where();
      ASSERT_EQ(sync.busy(), ref.busy()) << where();
      ASSERT_EQ(sync.remaining(), ref.remaining()) << where();
      ASSERT_EQ(sync.totalGenerated(), ref.totalGenerated()) << where();
      ASSERT_EQ(bus.socCycle(), ref_bus.socCycle()) << where();
      ASSERT_EQ(timer.count(), ref_timer.count()) << where();

      // Requests land after the cycle's edge, as a packet's stores do.
      // Bias toward the cycle a run ends in, the boundary between
      // extending a run and starting a new one.
      const bool run_ends_now = ref_edge && !ref.busy();
      const unsigned roll = rng() % 16;
      if (roll < 2 || (run_ends_now && roll < 8)) {
        starts_while_busy += ref.busy() ? 1 : 0;
        starts_at_run_end += run_ends_now ? 1 : 0;
        const auto n = static_cast<uint32_t>(rng() % 12);
        ref.request(n);
        sync.start(n);
      }
      if (rng() % 16 == 0) {
        const auto n = static_cast<uint32_t>(rng() % 4);
        ref.request(n);
        sync.correct(n);
      }
      // A request never changes what the current cycle generated.
      ASSERT_EQ(sync.edge(), ref_edge) << where();
      ASSERT_EQ(sync.totalGenerated(), ref.totalGenerated()) << where();
    }
  }
  EXPECT_GT(starts_while_busy, 100u);
  EXPECT_GT(starts_at_run_end, 100u);
}

TEST(StandardBoard, AttachesPeripheralsAtStandardOffsets) {
  StandardPeripherals board(0xf0000000);
  board.bus.write(0xf0000200, 'x', 4);
  EXPECT_EQ(board.chardev.output(), "x");
  board.bus.advanceTo(board.bus.socCycle() + 1);
  EXPECT_EQ(board.bus.read(0xf0000100, 4), 1u);  // timer
  board.bus.write(0xf0000300, 9, 4);
  EXPECT_EQ(board.scratch.reg(0), 9u);
}

}  // namespace
}  // namespace cabt::soc

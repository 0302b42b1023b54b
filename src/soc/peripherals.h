// Standard peripherals attached to the SoC bus in tests, examples and
// benchmarks: a free-running timer, a character output device and a
// scratch-register block. They are deliberately simple — their purpose is
// to make cycle-accurate I/O behaviour observable.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/error.h"
#include "soc/device.h"

namespace cabt::soc {

/// Free-running SoC-cycle counter. Offset 0x0: low 32 bits; 0x4: high 32
/// bits; 0x8 (write): reset.
class TimerDevice : public Device {
 public:
  TimerDevice() : Device("timer") {}

  uint32_t read(uint32_t offset, unsigned size, uint64_t) override {
    CABT_CHECK(size == 4, "timer supports word access only");
    switch (offset) {
      case 0x0:
        return static_cast<uint32_t>(count_);
      case 0x4:
        return static_cast<uint32_t>(count_ >> 32);
      default:
        CABT_FAIL("timer read at bad offset " << offset);
    }
  }

  void write(uint32_t offset, uint32_t, unsigned size, uint64_t) override {
    CABT_CHECK(size == 4 && offset == 0x8, "timer write only at offset 8");
    count_ = 0;
  }

  /// Free-running count is a pure function of elapsed time.
  void advanceTo(uint64_t from, uint64_t to) override { count_ += to - from; }

  void saveState(serial::Writer& w) const override { io(*this, w); }
  void restoreState(serial::Reader& r) override { io(*this, r); }

  [[nodiscard]] uint64_t count() const { return count_; }

 private:
  template <class Self, class Ar>
  static void io(Self& self, Ar& ar) {
    ar.field("count", self.count_);
  }

  uint64_t count_ = 0;
};

/// Character output. Offset 0x0 (write): emit one character; offset 0x4
/// (read): number of characters emitted so far.
class CharDevice : public Device {
 public:
  CharDevice() : Device("chardev") {}

  uint32_t read(uint32_t offset, unsigned size, uint64_t) override {
    CABT_CHECK(size == 4 && offset == 0x4, "chardev read only at offset 4");
    return static_cast<uint32_t>(output_.size());
  }

  void write(uint32_t offset, uint32_t value, unsigned, uint64_t soc_cycle)
      override {
    CABT_CHECK(offset == 0x0, "chardev write only at offset 0");
    output_.push_back(static_cast<char>(value & 0xff));
    stamps_.push_back(soc_cycle);
  }

  void advanceTo(uint64_t, uint64_t) override {}  // no per-cycle state

  void saveState(serial::Writer& w) const override { io(*this, w); }
  void restoreState(serial::Reader& r) override { io(*this, r); }

  [[nodiscard]] const std::string& output() const { return output_; }
  /// SoC cycle at which each character was written.
  [[nodiscard]] const std::vector<uint64_t>& stamps() const { return stamps_; }

 private:
  template <class Self, class Ar>
  static void io(Self& self, Ar& ar) {
    ar.field("output", self.output_);
    ar.seq("stamps", self.stamps_, [&ar](auto& t) { ar.field(t); });
  }

  std::string output_;
  std::vector<uint64_t> stamps_;
};

/// Sixteen general-purpose 32-bit scratch registers (offsets 0x0..0x3c).
class ScratchDevice : public Device {
 public:
  ScratchDevice() : Device("scratch") {}

  uint32_t read(uint32_t offset, unsigned size, uint64_t) override {
    CABT_CHECK(size == 4 && offset % 4 == 0 && offset / 4 < regs_.size(),
               "bad scratch read at offset " << offset);
    return regs_[offset / 4];
  }

  void write(uint32_t offset, uint32_t value, unsigned size,
             uint64_t) override {
    CABT_CHECK(size == 4 && offset % 4 == 0 && offset / 4 < regs_.size(),
               "bad scratch write at offset " << offset);
    regs_[offset / 4] = value;
  }

  void advanceTo(uint64_t, uint64_t) override {}  // no per-cycle state

  void saveState(serial::Writer& w) const override { io(*this, w); }
  void restoreState(serial::Reader& r) override { io(*this, r); }

  [[nodiscard]] uint32_t reg(size_t i) const { return regs_.at(i); }

 private:
  template <class Self, class Ar>
  static void io(Self& self, Ar& ar) {
    ar.fixed("regs", self.regs_);
  }

  std::array<uint32_t, 16> regs_{};
};

/// Shared inter-core mailbox: a four-entry word FIFO plus a doorbell that
/// rings an interrupt line on a chosen core's interrupt controller.
/// Offset 0x0 (write): push a word (dropped when full — software must
/// check STATUS first); offset 0x0 (read): pop the oldest word (0 when
/// empty); offset 0x4 (read): STATUS, bit0 = has data, bit1 = full;
/// offset 0x8 (write): ring doorbell `value` (see setDoorbell).
class MailboxDevice : public Device {
 public:
  static constexpr size_t kDepth = 4;

  MailboxDevice() : Device("mailbox") {}

  uint32_t read(uint32_t offset, unsigned size, uint64_t) override {
    CABT_CHECK(size == 4, "mailbox supports word access only");
    switch (offset) {
      case 0x0: {
        if (count_ == 0) {
          return 0;
        }
        const uint32_t v = fifo_[head_];
        head_ = (head_ + 1) % kDepth;
        --count_;
        return v;
      }
      case 0x4:
        return (count_ > 0 ? 1u : 0u) | (count_ == kDepth ? 2u : 0u);
      default:
        CABT_FAIL("mailbox read at bad offset " << offset);
    }
  }

  void write(uint32_t offset, uint32_t value, unsigned size,
             uint64_t) override {
    CABT_CHECK(size == 4, "mailbox supports word access only");
    switch (offset) {
      case 0x0:
        if (count_ < kDepth) {
          fifo_[(head_ + count_) % kDepth] = value;
          ++count_;
          ++pushes_;
        } else {
          ++dropped_;
        }
        break;
      case 0x8:
        CABT_CHECK(value < doorbells_.size() && doorbells_[value],
                   "mailbox doorbell " << value << " is not connected");
        doorbells_[value]();
        break;
      default:
        CABT_FAIL("mailbox write at bad offset " << offset);
    }
  }

  void advanceTo(uint64_t, uint64_t) override {}  // no per-cycle state

  /// Doorbell wiring is construction-time; only the FIFO and its
  /// counters are run-time state. A restored head or fill count must
  /// stay inside the FIFO, since reads index it with them.
  void saveState(serial::Writer& w) const override { io(*this, w); }
  void restoreState(serial::Reader& r) override {
    io(*this, r);
    CABT_CHECK(head_ < kDepth && count_ <= kDepth,
               "snapshot mailbox head " << head_ << " / depth " << count_
                                        << " out of range");
  }

  /// Connects doorbell index `bell` (the value software writes to offset
  /// 0x8) to `ring` — typically InterruptController::raise of a core.
  void setDoorbell(size_t bell, std::function<void()> ring) {
    if (doorbells_.size() <= bell) {
      doorbells_.resize(bell + 1);
    }
    doorbells_[bell] = std::move(ring);
  }

  [[nodiscard]] size_t depth() const { return count_; }
  [[nodiscard]] uint64_t pushes() const { return pushes_; }
  [[nodiscard]] uint64_t dropped() const { return dropped_; }

 private:
  template <class Self, class Ar>
  static void io(Self& self, Ar& ar) {
    ar.fixed("fifo", self.fifo_);
    ar.fields("head count pushes dropped", self.head_, self.count_,
              self.pushes_, self.dropped_);
  }

  std::array<uint32_t, kDepth> fifo_{};
  uint32_t head_ = 0;
  uint32_t count_ = 0;
  uint64_t pushes_ = 0;
  uint64_t dropped_ = 0;
  std::vector<std::function<void()>> doorbells_;
};

/// Byte offsets of the standard peripherals within the I/O region; shared
/// by the reference board and the emulation platform so that translated
/// I/O accesses land on the same devices.
struct StandardIoMap {
  static constexpr uint32_t kTimerOffset = 0x100;
  static constexpr uint32_t kTimerSize = 0x10;
  static constexpr uint32_t kCharOffset = 0x200;
  static constexpr uint32_t kCharSize = 0x10;
  static constexpr uint32_t kScratchOffset = 0x300;
  static constexpr uint32_t kScratchSize = 0x40;
  /// Per-core interrupt controllers: core i at kIntcOffset + i*kIntcStride.
  static constexpr uint32_t kIntcOffset = 0x400;
  static constexpr uint32_t kIntcStride = 0x20;
  static constexpr uint32_t kPTimerOffset = 0x500;
  static constexpr uint32_t kPTimerSize = 0x10;
  static constexpr uint32_t kMailboxOffset = 0x600;
  static constexpr uint32_t kMailboxSize = 0x10;
  /// Watchdog (fi::WatchdogDevice) — attached only on boards that opt in
  /// via platform::BoardConfig::watchdog.
  static constexpr uint32_t kWatchdogOffset = 0x700;
  static constexpr uint32_t kWatchdogSize = 0x10;
};

}  // namespace cabt::soc

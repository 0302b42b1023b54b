// The interrupt path: a per-core interrupt controller and a programmable
// interval timer, both SoC-bus devices.
//
// Delivery model (see DESIGN.md, "IRQ-at-block-boundary rule"): the ISS
// samples its interrupt controller at basic-block boundaries only — the
// same points where the paper's translated code synchronises cycle
// generation — so the block-dispatch engine and per-instruction stepping
// take every interrupt at the identical cycle count. The controller owns
// all interrupt state (pending lines, master enable, vector, in-service
// flag); the core contributes only the IRQ link register (A14) and the
// fixed entry latency (iss::IssConfig::irq_entry_cycles).
//
// Both devices advance lazily (Device::advanceTo): the timer computes its
// expiries in the jumped-over interval arithmetically, so interrupt
// behaviour is a pure function of transaction/sample timestamps — which
// is what makes single-initiator simulation exactly quantum-invariant
// under the event kernel (tests/sim_test.cpp).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/error.h"
#include "soc/device.h"

namespace cabt::soc {

/// Core-facing side of an interrupt controller. The ISS polls this at
/// basic-block boundaries.
class IrqSource {
 public:
  virtual ~IrqSource() = default;

  /// Returns the handler address when an interrupt is to be taken at SoC
  /// cycle `soc_cycle` (devices are already advanced to that time), and
  /// commits to the delivery: further interrupts are masked until
  /// software signals end-of-interrupt. Returns nullopt otherwise.
  virtual std::optional<uint32_t> takeIrq(uint64_t soc_cycle) = 0;

  /// Certificate for the parallel kernel's private slices (DESIGN.md
  /// section 7): true when takeIrq() is guaranteed to return nullopt for
  /// *any* sample in the near future, whatever lines get raised
  /// meanwhile, and only register writes issued by the sampling core
  /// itself (which bail a private slice before they happen) can change
  /// that. Sources that cannot give this guarantee return false — their
  /// core then simply runs its whole slice on the sequential drain.
  [[nodiscard]] virtual bool quiescent() const { return false; }
};

/// A simple per-core interrupt controller with 32 level/latch lines.
///
/// Register window (word access):
///   0x00 RAW        (r)  latched raised lines
///   0x04 ENABLE     (rw) line enable mask
///   0x08 PENDING    (r)  RAW & ENABLE
///   0x0c ACK        (w)  write-1-to-clear RAW bits
///   0x10 VECTOR     (rw) handler entry address
///   0x14 CTRL       (rw) bit0 = master enable
///   0x18 SOFT       (w)  raise line `value` (software interrupt)
///   0x1c STATUS/EOI (r)  bit0 = in service; (w) clear in-service
class InterruptController : public Device, public IrqSource {
 public:
  static constexpr uint32_t kRawOffset = 0x00;
  static constexpr uint32_t kEnableOffset = 0x04;
  static constexpr uint32_t kPendingOffset = 0x08;
  static constexpr uint32_t kAckOffset = 0x0c;
  static constexpr uint32_t kVectorOffset = 0x10;
  static constexpr uint32_t kCtrlOffset = 0x14;
  static constexpr uint32_t kSoftOffset = 0x18;
  static constexpr uint32_t kEoiOffset = 0x1c;
  static constexpr uint32_t kWindowSize = 0x20;

  explicit InterruptController(std::string name = "intc")
      : Device(std::move(name)) {}

  /// Raises (latches) line `line`. Called by devices (timer expiry,
  /// mailbox doorbell) or via the SOFT register.
  void raise(unsigned line) {
    CABT_CHECK(line < 32, "interrupt line out of range: " << line);
    raw_ |= 1u << line;
  }

  [[nodiscard]] uint32_t pending() const { return raw_ & enable_; }
  [[nodiscard]] bool inService() const { return in_service_; }
  [[nodiscard]] uint32_t vector() const { return vector_; }
  [[nodiscard]] uint64_t irqsTaken() const { return irqs_taken_; }
  /// SoC-cycle timestamp of every delivery, in order (capped at
  /// kMaxDeliveryLog entries — enough for every scenario/test; golden-
  /// trace and differential tests compare these lists verbatim).
  [[nodiscard]] const std::vector<uint64_t>& deliveryTimes() const {
    return delivery_times_;
  }

  // -- IrqSource ------------------------------------------------------
  std::optional<uint32_t> takeIrq(uint64_t soc_cycle) override {
    if (!master_enable_ || in_service_ || pending() == 0) {
      return std::nullopt;
    }
    in_service_ = true;
    ++irqs_taken_;
    if (delivery_times_.size() < kMaxDeliveryLog) {
      delivery_times_.push_back(soc_cycle);
    }
    return vector_;
  }

  /// While masked or in service, no raise can make takeIrq() deliver,
  /// and only the owning core's own register writes (CTRL/EOI — bus
  /// writes, which bail a private slice) can lift that state.
  [[nodiscard]] bool quiescent() const override {
    return !master_enable_ || in_service_;
  }

  // -- Device ---------------------------------------------------------
  uint32_t read(uint32_t offset, unsigned size, uint64_t) override {
    CABT_CHECK(size == 4, "intc supports word access only");
    switch (offset) {
      case kRawOffset:
        return raw_;
      case kEnableOffset:
        return enable_;
      case kPendingOffset:
        return pending();
      case kVectorOffset:
        return vector_;
      case kCtrlOffset:
        return master_enable_ ? 1u : 0u;
      case kEoiOffset:
        return in_service_ ? 1u : 0u;
      default:
        CABT_FAIL("intc read at bad offset " << offset);
    }
  }

  void write(uint32_t offset, uint32_t value, unsigned size,
             uint64_t) override {
    CABT_CHECK(size == 4, "intc supports word access only");
    switch (offset) {
      case kEnableOffset:
        enable_ = value;
        break;
      case kAckOffset:
        raw_ &= ~value;
        break;
      case kVectorOffset:
        vector_ = value;
        break;
      case kCtrlOffset:
        master_enable_ = (value & 1u) != 0;
        break;
      case kSoftOffset:
        raise(value);
        break;
      case kEoiOffset:
        in_service_ = false;
        break;
      default:
        CABT_FAIL("intc write at bad offset " << offset);
    }
  }

  void advanceTo(uint64_t, uint64_t) override {}  // no per-cycle state

  /// All interrupt state is architectural: a restored controller must
  /// deliver (or mask) exactly as the live one would, and the delivery
  /// timestamps are a compared observable of the differential fleets.
  void saveState(serial::Writer& w) const override { io(*this, w); }
  void restoreState(serial::Reader& r) override {
    io(*this, r);
    CABT_CHECK(delivery_times_.size() <= kMaxDeliveryLog,
               "snapshot intc delivery log of " << delivery_times_.size()
                                                << " entries exceeds the cap");
  }

 private:
  static constexpr size_t kMaxDeliveryLog = 65536;

  template <class Self, class Ar>
  static void io(Self& self, Ar& ar) {
    ar.fields("raw enable vector master_enable in_service irqs_taken",
              self.raw_, self.enable_, self.vector_, self.master_enable_,
              self.in_service_, self.irqs_taken_);
    ar.seq("delivery_times", self.delivery_times_,
           [&ar](auto& t) { ar.field(t); });
  }

  uint32_t raw_ = 0;
  uint32_t enable_ = 0;
  uint32_t vector_ = 0;
  bool master_enable_ = false;
  bool in_service_ = false;
  uint64_t irqs_taken_ = 0;
  std::vector<uint64_t> delivery_times_;
};

/// Programmable interval timer: a down-counter over SoC cycles that
/// raises an interrupt line on expiry, one-shot or periodic.
///
/// Register window (word access):
///   0x0 LOAD     (rw) period in SoC cycles (>= 1 to run)
///   0x4 CTRL     (rw) bit0 = enable, bit1 = periodic; writing bit0
///                     (re)arms the counter LOAD cycles from now
///   0x8 COUNT    (r)  cycles until the next expiry (0 when idle)
///   0xc EXPIRIES (r)  total expiries since reset
class ProgrammableTimer : public Device {
 public:
  static constexpr uint32_t kLoadOffset = 0x0;
  static constexpr uint32_t kCtrlOffset = 0x4;
  static constexpr uint32_t kCountOffset = 0x8;
  static constexpr uint32_t kExpiriesOffset = 0xc;
  static constexpr uint32_t kWindowSize = 0x10;

  explicit ProgrammableTimer(std::string name = "ptimer")
      : Device(std::move(name)) {}

  /// Routes expiries to `intc` line `line`.
  void setIrqTarget(InterruptController* intc, unsigned line) {
    intc_ = intc;
    line_ = line;
  }

  [[nodiscard]] bool enabled() const { return enabled_; }
  [[nodiscard]] uint64_t expiries() const { return expiries_; }

  // -- Device ---------------------------------------------------------
  uint32_t read(uint32_t offset, unsigned size, uint64_t soc_cycle) override {
    CABT_CHECK(size == 4, "ptimer supports word access only");
    switch (offset) {
      case kLoadOffset:
        return load_;
      case kCtrlOffset:
        return (enabled_ ? 1u : 0u) | (periodic_ ? 2u : 0u);
      case kCountOffset:
        return enabled_ && next_expiry_ > soc_cycle
                   ? static_cast<uint32_t>(next_expiry_ - soc_cycle)
                   : 0;
      case kExpiriesOffset:
        return static_cast<uint32_t>(expiries_);
      default:
        CABT_FAIL("ptimer read at bad offset " << offset);
    }
  }

  void write(uint32_t offset, uint32_t value, unsigned size,
             uint64_t soc_cycle) override {
    CABT_CHECK(size == 4, "ptimer supports word access only");
    switch (offset) {
      case kLoadOffset:
        load_ = value;
        break;
      case kCtrlOffset:
        periodic_ = (value & 2u) != 0;
        enabled_ = (value & 1u) != 0;
        if (enabled_) {
          CABT_CHECK(load_ >= 1, "ptimer armed with LOAD = 0");
          next_expiry_ = soc_cycle + load_;
        }
        break;
      default:
        CABT_FAIL("ptimer write at bad offset " << offset);
    }
  }

  /// Expiries in the jumped-over interval are computed arithmetically, so
  /// timer behaviour depends only on timestamps, never on slice shape.
  void advanceTo(uint64_t, uint64_t to) override {
    while (enabled_ && next_expiry_ <= to) {
      ++expiries_;
      if (intc_ != nullptr) {
        intc_->raise(line_);
      }
      if (periodic_ && load_ >= 1) {
        next_expiry_ += load_;
      } else {
        // One-shot, or LOAD was cleared while armed: a reload of 0
        // stops the timer instead of spinning on a zero period.
        enabled_ = false;
      }
    }
  }

  /// IRQ routing is construction-time wiring; the counter phase
  /// (next_expiry_) is what makes restored timer behaviour a pure
  /// function of timestamps again.
  void saveState(serial::Writer& w) const override { io(*this, w); }
  void restoreState(serial::Reader& r) override { io(*this, r); }

 private:
  template <class Self, class Ar>
  static void io(Self& self, Ar& ar) {
    ar.fields("load enabled periodic next_expiry expiries", self.load_,
              self.enabled_, self.periodic_, self.next_expiry_,
              self.expiries_);
  }

  InterruptController* intc_ = nullptr;
  unsigned line_ = 0;
  uint32_t load_ = 0;
  bool enabled_ = false;
  bool periodic_ = false;
  uint64_t next_expiry_ = 0;
  uint64_t expiries_ = 0;
};

}  // namespace cabt::soc

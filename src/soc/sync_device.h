// The synchronization device (paper section 3.1).
//
// In the paper this device lives in the FPGAs next to the VLIW processor:
// a write with the predicted cycle count n of a basic block starts the
// generation of n SoC clock cycles for the attached hardware, which then
// runs in parallel with the execution of the translated block; a read
// from the status register waits until the generation has finished.
// A second write port adds dynamically computed correction cycles
// (branch prediction, instruction cache — paper section 3.4).
//
// Here nothing ticks the device: its state is arithmetic on the VLIW
// cycle counter, and advanceBus() clocks the SoC bus up to the generated
// count when the SoC side is observed (DESIGN.md section 5.4).
#pragma once

#include <cstdint>

#include "common/error.h"
#include "soc/bus.h"

namespace cabt::soc {

class SyncDevice {
 public:
  /// Register offsets within the device window (VLIW address space).
  static constexpr uint32_t kStartOffset = 0x0;    ///< write: start n cycles
  static constexpr uint32_t kStatusOffset = 0x4;   ///< read: 0 when idle
  static constexpr uint32_t kCorrectOffset = 0x8;  ///< write: n extra cycles
  static constexpr uint32_t kTotalOffset = 0xc;    ///< read: cycles emitted
  static constexpr uint32_t kWindowSize = 0x10;

  /// `vliw_cycles_per_soc_cycle` is the generation rate: how many VLIW
  /// clock cycles one generated SoC cycle takes (>= 1). `vliw_cycle` is
  /// the VLIW machine's wall-cycle counter.
  SyncDevice(SocBus* bus, unsigned vliw_cycles_per_soc_cycle,
             const uint64_t* vliw_cycle)
      : bus_(bus), rate_(vliw_cycles_per_soc_cycle), now_(vliw_cycle) {
    CABT_CHECK(bus_ != nullptr, "sync device needs a bus");
    CABT_CHECK(rate_ >= 1, "generation rate must be >= 1");
  }

  /// Starts generation of `n` further cycles (accumulates; the translated
  /// code's wait instruction is what enforces block-level synchrony).
  void start(uint32_t n) {
    request(n);
    ++num_starts_;
  }

  /// Adds dynamically computed correction cycles.
  void correct(uint32_t n) {
    request(n);
    correction_total_ += n;
    ++num_corrections_;
  }

  [[nodiscard]] bool busy() const { return *now_ < end_; }

  /// True when an SoC cycle is generated in the current VLIW cycle.
  [[nodiscard]] bool edge() const {
    return *now_ > run_start_ && *now_ <= end_ && (end_ - *now_) % rate_ == 0;
  }

  [[nodiscard]] uint64_t remaining() const {
    return busy() ? (end_ - *now_ + rate_ - 1) / rate_ : 0;
  }

  [[nodiscard]] uint64_t totalGenerated() const {
    return requested_ - remaining();
  }

  /// Clocks the SoC bus up to the cycles generated so far.
  void advanceBus() { bus_->advanceTo(totalGenerated()); }

  [[nodiscard]] uint64_t numStarts() const { return num_starts_; }
  [[nodiscard]] uint64_t numCorrections() const { return num_corrections_; }
  [[nodiscard]] uint64_t correctionTotal() const { return correction_total_; }

 private:
  void request(uint32_t n) {
    // A request in or before the cycle of the last emission extends the
    // current run at its cadence; a later one starts a new run now.
    if (*now_ > end_) {
      run_start_ = end_ = *now_;
    }
    end_ += uint64_t{n} * rate_;
    requested_ += n;
  }

  SocBus* bus_;
  unsigned rate_;
  const uint64_t* now_;
  // SoC cycle j of a run started at VLIW cycle run_start_ is generated at
  // run_start_ + j * rate_; end_ is the cycle of its last requested one.
  uint64_t run_start_ = 0;
  uint64_t end_ = 0;
  uint64_t requested_ = 0;
  uint64_t num_starts_ = 0;
  uint64_t num_corrections_ = 0;
  uint64_t correction_total_ = 0;
};

}  // namespace cabt::soc

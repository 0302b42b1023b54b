// SoC-bus device interface.
//
// Devices are clocked exclusively by SoC clock cycles. On the reference
// board those are processor cycles; on the emulation platform they are the
// cycles produced by the synchronization device — which is exactly the
// paper's point: the attached hardware cannot tell the difference as long
// as the generated cycle stream is accurate.
#pragma once

#include <cstdint>
#include <string>

#include "common/serial.h"

namespace cabt::soc {

class Device {
 public:
  explicit Device(std::string name) : name_(std::move(name)) {}
  virtual ~Device() = default;
  Device(const Device&) = delete;
  Device& operator=(const Device&) = delete;

  [[nodiscard]] const std::string& name() const { return name_; }

  /// Read `size` bytes (1, 2 or 4) at byte offset `offset` within the
  /// device window. `soc_cycle` is the bus timestamp of the transaction.
  virtual uint32_t read(uint32_t offset, unsigned size, uint64_t soc_cycle) = 0;

  /// Write access, same conventions as read().
  virtual void write(uint32_t offset, uint32_t value, unsigned size,
                     uint64_t soc_cycle) = 0;

  /// Advances the device from SoC cycle `from` (exclusive) to `to`
  /// (inclusive) in one jump — the only way time reaches a device.
  /// Implementations compute the jump in O(1)/O(events), so the event
  /// kernel's lazy time advancement (sim/kernel.h) costs O(work) instead
  /// of O(cycles); a single clock edge is advanceTo(c - 1, c). Like every
  /// mutating device entry point, advanceTo runs only on the kernel's
  /// sequential drain — never concurrently — under the parallel-round
  /// kernel (see the threading contract in soc/bus.h); implementations
  /// need no locking.
  virtual void advanceTo(uint64_t from, uint64_t to) = 0;

  // -- snapshot support (src/snap, DESIGN.md section 9) -----------------
  //
  // SocBus::saveState serializes every attached device through these, in
  // window-attachment order, each section framed with the device's name
  // and a byte length and restored from exactly those bytes (so a device
  // whose format drifts fails loudly on restore). The defaults serialize
  // nothing — correct for genuinely stateless devices; every stock
  // device with observable state (peripherals.h, interrupts.h,
  // fi/watchdog.h) overrides both as one-line calls into its one field
  // list (common/serial.h). A device that keeps state but skips the
  // override silently diverges after restore, which is why
  // tests/snap_test.cpp compares full device state.

  virtual void saveState(serial::Writer& w) const { (void)w; }
  virtual void restoreState(serial::Reader& r) { (void)r; }

 private:
  std::string name_;
};

}  // namespace cabt::soc

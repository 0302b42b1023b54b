// Cycle-accurate V6X simulator.
//
// Models the VLIW target exactly as the translator's scheduler assumes it:
// one execute packet per cycle, no interlocks (ALU results next cycle,
// multiply +1, loads +4, branches redirect after 5 delay slots), reads see
// the committed register state of the current cycle, predicated ops read
// their condition register in the same cycle. Memory-mapped hardware
// (synchronization device, bus bridge) is plugged in via IoHandler; a
// handler can refuse an access, which stalls the whole machine for that
// cycle (this is how "wait for end of cycle generation" behaves).
#pragma once

#include <array>
#include <cstdint>
#include <set>
#include <vector>

#include "common/sparse_mem.h"
#include "elf/elf.h"
#include "vliw/isa.h"

namespace cabt::vliw {

/// Memory-mapped hardware hook. ready() may be polled once per stall
/// cycle; load()/store() are called exactly once, in the cycle the access
/// completes.
class IoHandler {
 public:
  virtual ~IoHandler() = default;
  [[nodiscard]] virtual bool covers(uint32_t addr) const = 0;
  virtual bool ready(uint32_t addr, bool is_write) = 0;
  virtual uint32_t load(uint32_t addr, unsigned size) = 0;
  virtual void store(uint32_t addr, uint32_t value, unsigned size) = 0;
};

enum class RunState {
  kRunning,
  kHalted,
  kYielded,     ///< YIELD executed; resumable
  kBreakpoint,  ///< stopped before a breakpointed packet; resumable
  kMaxCycles,
};

struct SimStats {
  uint64_t cycles = 0;        ///< wall cycles including stalls
  uint64_t issue_cycles = 0;  ///< packet-issue slots (incl. NOP padding)
  uint64_t packets = 0;
  uint64_t ops = 0;           ///< machine ops issued (predicated-false incl.)
  uint64_t nop_cycles = 0;
  uint64_t stall_cycles = 0;
  uint64_t branches_taken = 0;
};

class V6xSim {
 public:
  V6xSim();

  /// Loads a V6X ELF image: .text is decoded into execute packets, all
  /// other PROGBITS sections are copied to memory.
  void loadProgram(const elf::Object& image);

  /// Registers a memory-mapped hardware window (not owned).
  void addIoHandler(IoHandler* handler);

  /// Runs until HALT / YIELD / breakpoint / cycle limit.
  RunState run(uint64_t max_cycles = UINT64_MAX);

  /// Resumes over a breakpoint (issues the breakpointed packet).
  RunState resume(uint64_t max_cycles = UINT64_MAX);

  void addBreakpoint(uint32_t addr) { breakpoints_.insert(addr); }
  void removeBreakpoint(uint32_t addr) { breakpoints_.erase(addr); }

  [[nodiscard]] uint32_t reg(uint8_t r) const { return regs_.at(r); }
  void setReg(uint8_t r, uint32_t v) { regs_.at(r) = v; }
  [[nodiscard]] uint32_t pc() const { return pc_; }
  void setPc(uint32_t pc);
  [[nodiscard]] RunState state() const { return state_; }

  [[nodiscard]] SparseMemory& memory() { return mem_; }
  [[nodiscard]] const SparseMemory& memory() const { return mem_; }
  [[nodiscard]] const SimStats& stats() const { return stats_; }
  [[nodiscard]] const std::vector<Packet>& packets() const { return packets_; }

 private:
  struct PendingWrite {
    uint64_t due = 0;  ///< issue-slot index when the value commits
    uint8_t reg = 0;
    uint32_t value = 0;
  };

  /// Packet starting at `addr`, or null.
  [[nodiscard]] const Packet* packetAt(uint32_t addr) const;
  [[nodiscard]] const Packet& fetch(uint32_t addr) const;
  [[nodiscard]] IoHandler* handlerFor(uint32_t addr) const;
  /// True when every device access in the packet can complete this cycle.
  bool devicesReady(const Packet& packet);
  void commitDueWrites();
  void drainPipeline();
  void scheduleWrite(uint8_t reg, uint32_t value, unsigned extra_slots);
  void issuePacket(const Packet& packet);
  void postIssueSlot();

  std::vector<Packet> packets_;
  /// Per code word from code_base_: index into packets_ + 1, 0 = none.
  std::vector<uint32_t> packet_at_;
  uint32_t code_base_ = 0;
  std::vector<IoHandler*> handlers_;
  SparseMemory mem_;

  std::array<uint32_t, 64> regs_{};
  uint32_t pc_ = 0;
  RunState state_ = RunState::kRunning;

  std::vector<PendingWrite> pending_;
  bool branch_pending_ = false;
  uint32_t branch_target_ = 0;
  unsigned branch_remaining_ = 0;
  unsigned idle_cycles_ = 0;  ///< remaining cycles of a multi-cycle NOP

  std::set<uint32_t> breakpoints_;
  bool step_over_breakpoint_ = false;

  SimStats stats_;
};

}  // namespace cabt::vliw

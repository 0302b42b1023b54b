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

/// Memory-mapped hardware hook for the window [base, base + size).
/// ready() may be polled once per stall cycle; load()/store() are called
/// exactly once, in the cycle the access completes.
class IoHandler {
 public:
  IoHandler(uint32_t base, uint32_t size) : base_(base), size_(size) {}
  virtual ~IoHandler() = default;
  [[nodiscard]] bool covers(uint32_t addr) const {
    return addr - base_ < size_;
  }
  virtual bool ready(uint32_t addr, bool is_write) = 0;
  virtual uint32_t load(uint32_t addr, unsigned size) = 0;
  virtual void store(uint32_t addr, uint32_t value, unsigned size) = 0;

 private:
  uint32_t base_;
  uint32_t size_;
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

  [[nodiscard]] uint32_t reg(uint8_t r) const { return regs_[checked(r)]; }
  void setReg(uint8_t r, uint32_t v) { regs_[checked(r)] = v; }
  [[nodiscard]] uint32_t pc() const { return pc_; }
  void setPc(uint32_t pc);
  [[nodiscard]] RunState state() const { return state_; }

  [[nodiscard]] SparseMemory& memory() { return mem_; }
  [[nodiscard]] const SparseMemory& memory() const { return mem_; }
  [[nodiscard]] const SimStats& stats() const { return stats_; }
  [[nodiscard]] const std::vector<Packet>& packets() const { return packets_; }

 private:
  /// A regs_ slot that always reads 0. Unused operands point at it, and an
  /// unpredicated op is predicated on it being zero.
  static constexpr uint8_t kZeroReg = 64;
  /// An op with everything issue needs resolved at load (DESIGN.md 5.5).
  struct Op {
    VOpc opc;
    uint8_t dst, src1, src2;  ///< kZeroReg when unused
    uint8_t pred;             ///< executes when (regs_[pred] == 0) == pred_z
    bool pred_z;
    uint8_t mem_size;  ///< bytes; 0 = not a memory op
    bool sign;         ///< sign-extending load
    uint8_t delay;     ///< delay slots
    int32_t imm;
  };
  struct DecodedPacket {
    uint32_t addr;
    uint32_t first;  ///< index into ops_
    uint32_t count;
    bool has_mem;
    uint32_t run_end = 0;     ///< last packet of its run (DESIGN.md 5.5)
    uint32_t run_cycles = 1;  ///< issue cycles from here to run_end
  };
  /// Register writes committing in one issue slot: at most one per
  /// register, so `mask` is also the double-write check.
  struct WriteSlot {
    uint64_t mask = 0;
    std::array<uint32_t, 64> value{};
  };
  /// Longest write latency (load: 1 + 4 delay slots) plus the slot being
  /// committed fits, so a slot is always empty when it is reused.
  static constexpr unsigned kRingSlots = 8;

  /// `r` if it names a register (A0..B31); throws cabt::Error otherwise.
  static uint8_t checked(uint8_t r);
  /// Index of the packet starting at `addr` plus one, or 0.
  [[nodiscard]] uint32_t packetSlot(uint32_t addr) const;
  [[nodiscard]] const DecodedPacket& fetch(uint32_t addr) const;
  [[nodiscard]] IoHandler* handlerFor(uint32_t addr) const;
  /// True when every device access in the packet can complete this cycle.
  bool devicesReady(const DecodedPacket& packet);
  void commitSlot(uint64_t slot);
  void drainPipeline();
  void scheduleWrite(uint8_t reg, uint32_t value, unsigned extra_slots);
  void issuePacket(const DecodedPacket& packet);
  void advanceIssueSlots(uint64_t n);
  void idle(uint64_t n);  ///< n issue slots of a multi-cycle NOP's tail
  /// Issues the packet at pc_ or its whole run, up to a device stall.
  void issue(bool whole_run, uint64_t budget);

  std::vector<Packet> packets_;
  std::vector<DecodedPacket> decoded_;  ///< parallel to packets_
  std::vector<Op> ops_;
  /// Per code word from code_base_: index into packets_ + 1, 0 = none.
  std::vector<uint32_t> packet_at_;
  uint32_t code_base_ = 0;
  std::vector<IoHandler*> handlers_;
  SparseMemory mem_;

  std::array<uint32_t, kZeroReg + 1> regs_{};
  uint32_t pc_ = 0;
  RunState state_ = RunState::kRunning;

  std::array<WriteSlot, kRingSlots> ring_{};  ///< indexed by due slot % 8
  bool branch_pending_ = false;
  uint32_t branch_target_ = 0;
  unsigned branch_remaining_ = 0;
  unsigned idle_cycles_ = 0;  ///< remaining cycles of a multi-cycle NOP

  std::set<uint32_t> breakpoints_;
  bool step_over_breakpoint_ = false;

  SimStats stats_;
};

}  // namespace cabt::vliw

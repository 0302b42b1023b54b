// Shared pipeline timing model.
//
// PipelineTimer computes the issue schedule of a sequence of instructions
// on the dual-pipeline in-order TRC32 core. It is used in two places with
// the same semantics:
//   * the translator's static cycle calculation of a basic block
//     (paper section 3.3 — "modeling the pipeline per basic block"), and
//   * the reference ISS, which feeds it the dynamic instruction stream
//     and resets it at basic-block boundaries (the TRC32 pipeline drains
//     at every control transfer and at every static branch target; see
//     DESIGN.md).
// Because both consumers share this definition, a level-3 translation can
// reproduce the reference cycle count exactly.
#pragma once

#include <cstdint>
#include <vector>

#include "arch/arch.h"
#include "common/serial.h"

namespace cabt::arch {

/// Register operands of a timed instruction, in a unified register
/// numbering: 0..15 = D0..D15, 16..31 = A0..A31. kNoReg marks unused slots.
struct TimedOp {
  static constexpr int kNoReg = -1;

  OpClass cls = OpClass::kIpAlu;
  int dst = kNoReg;
  int src1 = kNoReg;
  int src2 = kNoReg;
};

/// In-order dual-issue scoreboard.
class PipelineTimer {
 public:
  explicit PipelineTimer(const PipelineModel& model) : model_(model) {
    reset();
  }

  /// Forgets all in-flight results (pipeline drain at a block boundary).
  void reset();

  /// Issues one instruction; returns the cycle (0-based since reset) in
  /// which it issues.
  uint64_t issue(const TimedOp& op);

  /// Total cycles consumed since reset(): issue cycle of the last
  /// instruction + 1, or 0 when nothing was issued.
  [[nodiscard]] uint64_t cycles() const { return cycles_; }

  // -- snapshot support (src/snap): the mid-block scoreboard is
  //    micro-architectural state — a core saved between two instructions
  //    of an open block must resume with the identical issue schedule.
  void saveState(serial::Writer& w) const;
  void restoreState(serial::Reader& r);

 private:
  static constexpr int kNumRegs = 32;

  template <class Self, class Ar>
  static void io(Self& self, Ar& ar);

  const PipelineModel& model_;
  uint64_t ready_[kNumRegs] = {};  ///< cycle when each register is usable
  uint64_t next_issue_ = 0;        ///< earliest cycle for the next instruction
  uint64_t cycles_ = 0;
  bool pair_open_ = false;         ///< an IP instr issued at next_issue_-1 and
                                   ///< may still pair with an LS instr
  uint64_t pair_cycle_ = 0;
  int pair_dst_ = TimedOp::kNoReg;
};

/// Convenience: cycles of a whole straight-line sequence from a fresh
/// pipeline (what the static calculator uses per basic block).
uint64_t sequenceCycles(const PipelineModel& model,
                        const std::vector<TimedOp>& ops);

}  // namespace cabt::arch

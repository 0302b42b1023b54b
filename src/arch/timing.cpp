#include "arch/timing.h"

#include <algorithm>

#include "common/error.h"

namespace cabt::arch {

void PipelineTimer::reset() {
  std::fill(std::begin(ready_), std::end(ready_), 0);
  next_issue_ = 0;
  cycles_ = 0;
  pair_open_ = false;
  pair_cycle_ = 0;
  pair_dst_ = TimedOp::kNoReg;
}

template <class Self, class Ar>
void PipelineTimer::io(Self& self, Ar& ar) {
  ar.tag("pipe");
  ar.fixed(self.ready_);
  ar.fields(self.next_issue_, self.cycles_, self.pair_open_, self.pair_cycle_,
            self.pair_dst_);
}

void PipelineTimer::saveState(serial::Writer& w) const { io(*this, w); }
void PipelineTimer::restoreState(serial::Reader& r) { io(*this, r); }

uint64_t PipelineTimer::issue(const TimedOp& op) {
  const auto readyAt = [this](int reg) -> uint64_t {
    if (reg == TimedOp::kNoReg) {
      return 0;
    }
    CABT_ASSERT(reg >= 0 && reg < kNumRegs, "register id out of range");
    return ready_[reg];
  };
  const uint64_t src_ready = std::max(readyAt(op.src1), readyAt(op.src2));

  // Dual-issue: an LS instruction may join the immediately preceding IP
  // instruction's cycle when its operands are ready and it neither reads
  // nor overwrites the IP result (no same-cycle forwarding, no same-cycle
  // double write).
  if (pair_open_ && model_.dual_issue && pipeOf(op.cls) == Pipe::kLs) {
    const bool reads_pair_dst =
        pair_dst_ != TimedOp::kNoReg &&
        (op.src1 == pair_dst_ || op.src2 == pair_dst_);
    const bool waw = pair_dst_ != TimedOp::kNoReg && op.dst == pair_dst_;
    if (!reads_pair_dst && !waw && src_ready <= pair_cycle_) {
      pair_open_ = false;
      if (op.dst != TimedOp::kNoReg) {
        ready_[op.dst] = pair_cycle_ + model_.resultLatency(op.cls);
      }
      cycles_ = std::max(cycles_, pair_cycle_ + 1);
      return pair_cycle_;
    }
  }

  const uint64_t t = std::max(next_issue_, src_ready);
  if (op.dst != TimedOp::kNoReg) {
    ready_[op.dst] = t + model_.resultLatency(op.cls);
  }
  next_issue_ = t + 1;
  pair_open_ = pipeOf(op.cls) == Pipe::kIp;
  pair_cycle_ = t;
  pair_dst_ = op.dst;
  cycles_ = t + 1;
  return t;
}

uint64_t sequenceCycles(const PipelineModel& model,
                        const std::vector<TimedOp>& ops) {
  PipelineTimer timer(model);
  for (const TimedOp& op : ops) {
    timer.issue(op);
  }
  return timer.cycles();
}

}  // namespace cabt::arch

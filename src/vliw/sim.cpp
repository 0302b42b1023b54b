#include "vliw/sim.h"

#include <algorithm>

#include "common/bits.h"
#include "common/strutil.h"

namespace cabt::vliw {

/// Bound on the address range the code may span: the pc->packet index
/// holds one entry per word of it.
constexpr uint32_t kMaxCodeSpan = 16u << 20;

V6xSim::V6xSim() = default;

void V6xSim::loadProgram(const elf::Object& image) {
  CABT_CHECK(image.machine == elf::Machine::kV6x,
             "not a V6X image (wrong e_machine)");
  packets_.clear();
  for (const elf::Section& s : image.sections) {
    if (s.executable && s.kind == elf::SectionKind::kProgbits) {
      for (Packet& p : decodeProgram(s.data, s.addr)) {
        packets_.push_back(std::move(p));
      }
    } else if (s.kind == elf::SectionKind::kProgbits) {
      mem_.writeBlock(s.addr, s.data.data(), s.data.size());
    }
  }
  CABT_CHECK(!packets_.empty(), "V6X image has no code");
  uint32_t lo = UINT32_MAX;
  uint32_t hi = 0;
  for (const Packet& p : packets_) {
    lo = std::min(lo, p.addr);
    hi = std::max(hi, p.addr);
  }
  CABT_CHECK(hi - lo < kMaxCodeSpan, "V6X code spans more than 16 MiB");
  code_base_ = lo;
  packet_at_.assign((hi - lo) / 4 + 1, 0);
  for (size_t i = packets_.size(); i-- > 0;) {  // the first of duplicates wins
    packet_at_[(packets_[i].addr - lo) / 4] = static_cast<uint32_t>(i + 1);
  }
  pc_ = image.entry;
  state_ = RunState::kRunning;
}

void V6xSim::addIoHandler(IoHandler* handler) {
  CABT_CHECK(handler != nullptr, "null IoHandler");
  handlers_.push_back(handler);
}

void V6xSim::setPc(uint32_t pc) {
  CABT_CHECK(packetAt(pc) != nullptr,
             "PC " << hex32(pc) << " is not a packet start");
  pc_ = pc;
  // A debugger PC change abandons in-flight control state.
  branch_pending_ = false;
  idle_cycles_ = 0;
}

const Packet* V6xSim::packetAt(uint32_t addr) const {
  const uint32_t word = (addr - code_base_) / 4;
  const uint32_t i = word < packet_at_.size() ? packet_at_[word] : 0;
  return i != 0 && packets_[i - 1].addr == addr ? &packets_[i - 1] : nullptr;
}

const Packet& V6xSim::fetch(uint32_t addr) const {
  const Packet* packet = packetAt(addr);
  CABT_CHECK(packet != nullptr,
             "fetch from " << hex32(addr) << ": not a packet start");
  return *packet;
}

IoHandler* V6xSim::handlerFor(uint32_t addr) const {
  for (IoHandler* h : handlers_) {
    if (h->covers(addr)) {
      return h;
    }
  }
  return nullptr;
}

bool V6xSim::devicesReady(const Packet& packet) {
  for (const MachineOp& op : packet.ops) {
    if (!isMem(op.opc)) {
      continue;
    }
    if (!op.pred.always()) {
      const uint32_t p = regs_[op.pred.regId()];
      const bool execute = op.pred.z ? p == 0 : p != 0;
      if (!execute) {
        continue;
      }
    }
    const uint32_t addr = regs_[op.src1] + static_cast<uint32_t>(op.imm);
    IoHandler* h = handlerFor(addr);
    if (h != nullptr && !h->ready(addr, isStore(op.opc))) {
      return false;
    }
  }
  return true;
}

void V6xSim::commitDueWrites() {
  for (size_t i = 0; i < pending_.size();) {
    if (pending_[i].due <= stats_.issue_cycles) {
      regs_[pending_[i].reg] = pending_[i].value;
      pending_[i] = pending_.back();
      pending_.pop_back();
    } else {
      ++i;
    }
  }
}

void V6xSim::drainPipeline() {
  // Architecturally-due writes commit lazily; flush them so a stopped
  // machine presents a consistent register state. At halt everything in
  // flight lands as well.
  commitDueWrites();
  if (state_ == RunState::kHalted) {
    std::sort(pending_.begin(), pending_.end(),
              [](const PendingWrite& a, const PendingWrite& b) {
                return a.due < b.due;
              });
    for (const PendingWrite& w : pending_) {
      regs_[w.reg] = w.value;
    }
    pending_.clear();
  }
}

void V6xSim::scheduleWrite(uint8_t reg, uint32_t value,
                           unsigned extra_slots) {
  const uint64_t due = stats_.issue_cycles + 1 + extra_slots;
  for (const PendingWrite& w : pending_) {
    CABT_CHECK(!(w.reg == reg && w.due == due),
               "two in-flight writes to " << regName(reg)
                                          << " commit in the same cycle");
  }
  pending_.push_back({due, reg, value});
}

void V6xSim::issuePacket(const Packet& packet) {
  ++stats_.packets;
  stats_.ops += packet.ops.size();

  // Every register write lands through scheduleWrite in a later issue
  // slot, so reading regs_ in place sees the state as of the start of
  // this cycle for every op in the packet.
  for (const MachineOp& op : packet.ops) {
    if (!op.pred.always()) {
      const uint32_t p = regs_[op.pred.regId()];
      if (op.pred.z ? p != 0 : p == 0) {
        continue;
      }
    }
    const uint32_t s1 = op.src1 != kNoReg ? regs_[op.src1] : 0;
    const uint32_t s2 = op.src2 != kNoReg ? regs_[op.src2] : 0;
    const uint32_t dstv = op.dst != kNoReg ? regs_[op.dst] : 0;
    const uint32_t ea = s1 + static_cast<uint32_t>(op.imm);
    const auto aluResult = [&](uint32_t v) {
      scheduleWrite(op.dst, v, 0);
    };
    switch (op.opc) {
      case VOpc::kAdd:
        aluResult(s1 + s2);
        break;
      case VOpc::kSub:
        aluResult(s1 - s2);
        break;
      case VOpc::kAnd:
        aluResult(s1 & s2);
        break;
      case VOpc::kOr:
        aluResult(s1 | s2);
        break;
      case VOpc::kXor:
        aluResult(s1 ^ s2);
        break;
      case VOpc::kCmpEq:
        aluResult(s1 == s2 ? 1 : 0);
        break;
      case VOpc::kCmpNe:
        aluResult(s1 != s2 ? 1 : 0);
        break;
      case VOpc::kCmpLt:
        aluResult(static_cast<int32_t>(s1) < static_cast<int32_t>(s2)
                      ? 1
                      : 0);
        break;
      case VOpc::kCmpLtu:
        aluResult(s1 < s2 ? 1 : 0);
        break;
      case VOpc::kCmpGt:
        aluResult(static_cast<int32_t>(s1) > static_cast<int32_t>(s2)
                      ? 1
                      : 0);
        break;
      case VOpc::kCmpGtu:
        aluResult(s1 > s2 ? 1 : 0);
        break;
      case VOpc::kCmpGe:
        aluResult(static_cast<int32_t>(s1) >= static_cast<int32_t>(s2)
                      ? 1
                      : 0);
        break;
      case VOpc::kCmpGeu:
        aluResult(s1 >= s2 ? 1 : 0);
        break;
      case VOpc::kMv:
        aluResult(s1);
        break;
      case VOpc::kShl:
        aluResult(s1 << (s2 & 31));
        break;
      case VOpc::kShr:
        aluResult(s1 >> (s2 & 31));
        break;
      case VOpc::kSar:
        aluResult(static_cast<uint32_t>(static_cast<int32_t>(s1) >>
                                        (s2 & 31)));
        break;
      case VOpc::kMpy:
        scheduleWrite(op.dst, s1 * s2, 1);
        break;
      case VOpc::kLdw:
      case VOpc::kLdh:
      case VOpc::kLdhu:
      case VOpc::kLdb:
      case VOpc::kLdbu: {
        const unsigned size = memAccessSize(op.opc);
        IoHandler* h = handlerFor(ea);
        uint32_t v = h != nullptr ? h->load(ea, size) : mem_.read(ea, size);
        if ((op.opc == VOpc::kLdh || op.opc == VOpc::kLdb) && size < 4) {
          v = static_cast<uint32_t>(signExtend(v, size * 8));
        }
        scheduleWrite(op.dst, v, 4);
        break;
      }
      case VOpc::kStw:
      case VOpc::kSth:
      case VOpc::kStb: {
        const unsigned size = memAccessSize(op.opc);
        IoHandler* h = handlerFor(ea);
        if (h != nullptr) {
          h->store(ea, dstv, size);
        } else {
          mem_.write(ea, dstv, size);
        }
        break;
      }
      case VOpc::kB:
      case VOpc::kBr: {
        CABT_CHECK(!branch_pending_,
                   "branch issued while another branch is in flight");
        branch_pending_ = true;
        branch_target_ =
            op.opc == VOpc::kB ? static_cast<uint32_t>(op.imm) : s1;
        branch_remaining_ = delaySlots(op.opc);
        ++stats_.branches_taken;
        break;
      }
      case VOpc::kMvk:
        scheduleWrite(op.dst, static_cast<uint32_t>(op.imm), 0);
        break;
      case VOpc::kMvkh:
        scheduleWrite(op.dst, (dstv & 0xffffu) |
                                  (static_cast<uint32_t>(op.imm) << 16),
                      0);
        break;
      case VOpc::kAddk:
        scheduleWrite(op.dst, dstv + static_cast<uint32_t>(op.imm), 0);
        break;
      case VOpc::kNop:
        CABT_ASSERT(op.imm >= 1, "NOP with zero count");
        idle_cycles_ = static_cast<unsigned>(op.imm) - 1;
        stats_.nop_cycles += static_cast<unsigned>(op.imm);
        break;
      case VOpc::kHalt:
        state_ = RunState::kHalted;
        break;
      case VOpc::kYield:
        state_ = RunState::kYielded;
        break;
      default:
        CABT_FAIL("unhandled V6X opcode");
    }
  }
  pc_ = packet.addr + packet.sizeBytes();
}

void V6xSim::postIssueSlot() {
  ++stats_.issue_cycles;
  if (branch_pending_) {
    if (branch_remaining_ == 0) {
      pc_ = branch_target_;
      branch_pending_ = false;
    } else {
      --branch_remaining_;
    }
  }
}

RunState V6xSim::resume(uint64_t max_cycles) {
  step_over_breakpoint_ = true;
  return run(max_cycles);
}

RunState V6xSim::run(uint64_t max_cycles) {
  CABT_CHECK(!packets_.empty(), "no program loaded");
  if (state_ == RunState::kYielded || state_ == RunState::kBreakpoint) {
    state_ = RunState::kRunning;
  }
  uint64_t budget = max_cycles;
  while (state_ == RunState::kRunning) {
    if (budget-- == 0) {
      return RunState::kMaxCycles;
    }
    ++stats_.cycles;

    if (idle_cycles_ > 0) {
      // Tail cycles of a multi-cycle NOP: issue slots without a packet.
      --idle_cycles_;
      commitDueWrites();
      postIssueSlot();
      continue;
    }

    // Commit the writes due in this issue slot before anything reads the
    // register state (including the device-readiness pre-check).
    commitDueWrites();

    if (breakpoints_.count(pc_) != 0 && !step_over_breakpoint_) {
      // Stop *before* issuing the breakpointed packet; undo this cycle.
      --stats_.cycles;
      state_ = RunState::kBreakpoint;
      drainPipeline();
      return state_;
    }
    step_over_breakpoint_ = false;

    const Packet& packet = fetch(pc_);
    if (!devicesReady(packet)) {
      ++stats_.stall_cycles;
      continue;  // whole-machine stall
    }
    issuePacket(packet);
    postIssueSlot();
  }
  drainPipeline();
  return state_;
}

}  // namespace cabt::vliw

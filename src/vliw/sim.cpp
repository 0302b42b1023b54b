#include "vliw/sim.h"

#include <algorithm>
#include <bit>

#include "common/bits.h"
#include "common/strutil.h"

namespace cabt::vliw {

/// Bound on the address range the code may span: the pc->packet index
/// holds one entry per word of it.
constexpr uint32_t kMaxCodeSpan = 16u << 20;
constexpr uint32_t kMaxRunPackets = 64;  ///< outside a branch's delay slots

namespace {  // errors thrown out of line keep the issue loop's frame small
[[noreturn, gnu::cold, gnu::noinline]] void fail(const char* what) {
  detail::throwError("V6xSim::run", what);
}
[[noreturn, gnu::cold, gnu::noinline]] void doubleWrite(uint8_t reg) {
  CABT_FAIL("two in-flight writes to " << regName(reg)
                                       << " commit in the same cycle");
}
}  // namespace

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
  decoded_.clear();
  ops_.clear();
  for (const Packet& p : packets_) {
    lo = std::min(lo, p.addr);
    hi = std::max(hi, p.addr);
    DecodedPacket& d = decoded_.emplace_back(
        DecodedPacket{p.addr, static_cast<uint32_t>(ops_.size()),
                      static_cast<uint32_t>(p.ops.size()), false});
    for (const MachineOp& m : p.ops) {
      CABT_CHECK(m.opc != VOpc::kNop || m.imm >= 1, "NOP with zero count");
      const auto slot = [](uint8_t r) { return r == kNoReg ? kZeroReg : r; };
      const bool always = m.pred.always();
      const Op& op = ops_.emplace_back(Op{
          m.opc, slot(m.dst), slot(m.src1), slot(m.src2),
          always ? kZeroReg : m.pred.regId(), always || m.pred.z,
          static_cast<uint8_t>(isMem(m.opc) ? memAccessSize(m.opc) : 0),
          m.opc == VOpc::kLdh || m.opc == VOpc::kLdb,
          static_cast<uint8_t>(delaySlots(m.opc)), m.imm});
      d.has_mem = d.has_mem || op.mem_size != 0;
    }
  }
  CABT_CHECK(hi - lo < kMaxCodeSpan, "V6X code spans more than 16 MiB");
  code_base_ = lo;
  packet_at_.assign((hi - lo) / 4 + 1, 0);
  for (size_t i = packets_.size(); i-- > 0;) {  // the first of duplicates wins
    packet_at_[(packets_[i].addr - lo) / 4] = static_cast<uint32_t>(i + 1);
  }
  // Packet runs (DESIGN.md 5.5): run_end = i where a run ends, else i + 1.
  uint32_t len = 0;
  uint64_t left = 0;  // slots until an in-run branch redirects; 0 = none
  for (uint32_t i = 0; i < decoded_.size(); ++i) {
    DecodedPacket& d = decoded_[i];
    bool end = ++len >= kMaxRunPackets && left == 0;
    for (const Op* op = &ops_[d.first]; op != &ops_[d.first] + d.count; ++op) {
      d.run_cycles = op->opc == VOpc::kNop ? op->imm : d.run_cycles;
      end = end || op->opc == VOpc::kHalt || op->opc == VOpc::kYield ||
            (op->opc == VOpc::kNop && op->pred != kZeroReg);
      left = isBranch(op->opc) && left == 0 ? op->delay + 1u : left;
    }
    end = end || (left != 0 && left <= d.run_cycles) ||
          packetSlot(d.addr + d.count * 4) != i + 2;
    left = left > d.run_cycles ? left - d.run_cycles : 0;
    len = end ? 0 : len;
    d.run_end = end ? i : i + 1;
  }
  // Backward: suffix sums, so that a run can be entered at any packet.
  for (auto i = static_cast<uint32_t>(decoded_.size()); i-- > 0;) {
    if (decoded_[i].run_end != i) {
      decoded_[i].run_end = decoded_[i + 1].run_end;
      decoded_[i].run_cycles += decoded_[i + 1].run_cycles;
    }
  }
  pc_ = image.entry;
  state_ = RunState::kRunning;
}

void V6xSim::addIoHandler(IoHandler* handler) {
  CABT_CHECK(handler != nullptr, "null IoHandler");
  handlers_.push_back(handler);
}

uint8_t V6xSim::checked(uint8_t r) {
  CABT_CHECK(r < kZeroReg, "no V6X register " << int{r});
  return r;
}

void V6xSim::setPc(uint32_t pc) {
  CABT_CHECK(packetSlot(pc) != 0,
             "PC " << hex32(pc) << " is not a packet start");
  pc_ = pc;
  // A debugger PC change abandons in-flight control state.
  branch_pending_ = false;
  idle_cycles_ = 0;
}

uint32_t V6xSim::packetSlot(uint32_t addr) const {
  const uint32_t word = (addr - code_base_) / 4;
  const uint32_t i = word < packet_at_.size() ? packet_at_[word] : 0;
  return i != 0 && decoded_[i - 1].addr == addr ? i : 0;
}

const V6xSim::DecodedPacket& V6xSim::fetch(uint32_t addr) const {
  const uint32_t i = packetSlot(addr);
  CABT_CHECK(i != 0, "fetch from " << hex32(addr) << ": not a packet start");
  return decoded_[i - 1];
}

IoHandler* V6xSim::handlerFor(uint32_t addr) const {
  for (IoHandler* h : handlers_) {
    if (h->covers(addr)) {
      return h;
    }
  }
  return nullptr;
}

bool V6xSim::devicesReady(const DecodedPacket& packet) {
  for (uint32_t i = packet.first; i < packet.first + packet.count; ++i) {
    const Op& op = ops_[i];
    if (op.mem_size == 0 || (regs_[op.pred] == 0) != op.pred_z) {
      continue;
    }
    const uint32_t addr = regs_[op.src1] + static_cast<uint32_t>(op.imm);
    IoHandler* h = handlerFor(addr);
    if (h != nullptr && !h->ready(addr, op.opc >= VOpc::kStw)) {
      return false;
    }
  }
  return true;
}

void V6xSim::commitSlot(uint64_t slot) {
  WriteSlot& s = ring_[slot % kRingSlots];
  for (uint64_t m = s.mask; m != 0; m &= m - 1) {
    const int r = std::countr_zero(m);
    regs_[r] = s.value[r];
  }
  s.mask = 0;
}

void V6xSim::drainPipeline() {
  // Architecturally-due writes commit lazily; flush them so a stopped
  // machine presents a consistent register state. At halt everything in
  // flight lands as well, in due order.
  const unsigned slots = state_ == RunState::kHalted ? kRingSlots : 1;
  for (unsigned i = 0; i < slots; ++i) {
    commitSlot(stats_.issue_cycles + i);
  }
}

void V6xSim::scheduleWrite(uint8_t reg, uint32_t value,
                           unsigned extra_slots) {
  WriteSlot& s = ring_[(stats_.issue_cycles + 1 + extra_slots) % kRingSlots];
  const uint64_t bit = uint64_t{1} << reg;
  if ((s.mask & bit) != 0) {
    doubleWrite(reg);
  }
  s.mask |= bit;
  s.value[reg] = value;
}

[[gnu::always_inline]] inline void V6xSim::issuePacket(
    const DecodedPacket& packet) {
  ++stats_.packets;
  stats_.ops += packet.count;

  // Every register write lands through scheduleWrite in a later issue
  // slot, so reading regs_ in place sees the state as of the start of
  // this cycle for every op in the packet.
  for (uint32_t i = packet.first; i < packet.first + packet.count; ++i) {
    const Op& op = ops_[i];
    if ((regs_[op.pred] == 0) != op.pred_z) {
      continue;
    }
    const uint32_t s1 = regs_[op.src1];
    const uint32_t s2 = regs_[op.src2];
    const uint32_t dstv = regs_[op.dst];
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
        scheduleWrite(op.dst, s1 * s2, op.delay);
        break;
      case VOpc::kLdw:
      case VOpc::kLdh:
      case VOpc::kLdhu:
      case VOpc::kLdb:
      case VOpc::kLdbu: {
        IoHandler* h = handlerFor(ea);
        uint32_t v = h != nullptr ? h->load(ea, op.mem_size)
                                  : mem_.read(ea, op.mem_size);
        if (op.sign) {
          v = static_cast<uint32_t>(signExtend(v, op.mem_size * 8u));
        }
        scheduleWrite(op.dst, v, op.delay);
        break;
      }
      case VOpc::kStw:
      case VOpc::kSth:
      case VOpc::kStb: {
        IoHandler* h = handlerFor(ea);
        if (h != nullptr) {
          h->store(ea, dstv, op.mem_size);
        } else {
          mem_.write(ea, dstv, op.mem_size);
        }
        break;
      }
      case VOpc::kB:
      case VOpc::kBr: {
        if (branch_pending_) {
          fail("branch issued while another branch is in flight");
        }
        branch_pending_ = true;
        branch_target_ =
            op.opc == VOpc::kB ? static_cast<uint32_t>(op.imm) : s1;
        branch_remaining_ = op.delay;
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
        fail("unhandled V6X opcode");
    }
  }
  pc_ = packet.addr + packet.count * 4;
}

void V6xSim::idle(uint64_t n) {
  stats_.cycles += n;  // slots past the ring's reach commit nothing
  idle_cycles_ -= static_cast<unsigned>(n);
  for (uint64_t i = 0; i < std::min<uint64_t>(n, kRingSlots); ++i) {
    commitSlot(stats_.issue_cycles + i);
  }
  advanceIssueSlots(n);
}

void V6xSim::issue(bool whole_run, uint64_t budget) {
  // Commit the writes due in this issue slot before anything reads the
  // register state (including the device-readiness pre-check).
  ++stats_.cycles;
  commitSlot(stats_.issue_cycles);
  const DecodedPacket& first = fetch(pc_);
  auto k = static_cast<uint32_t>(&first - decoded_.data());
  // The whole run if it fits the budget and a branch in flight redirects
  // no earlier than in its last packet.
  whole_run = whole_run && first.run_cycles <= budget &&
              (!branch_pending_ ||
               branch_remaining_ + decoded_[first.run_end].run_cycles >=
                   first.run_cycles);
  for (const uint32_t end = whole_run ? first.run_end : k;; ++k) {
    const DecodedPacket& packet = decoded_[k];
    if (packet.has_mem && !devicesReady(packet)) {
      ++stats_.stall_cycles;  // whole-machine stall
      return;
    }
    issuePacket(packet);
    advanceIssueSlots(1);
    if (k == end) {  // HALT and YIELD end their runs
      return;  // run() idles the last packet's NOP tail
    }
    if (idle_cycles_ > 0) {
      idle(idle_cycles_);
    }
    ++stats_.cycles;
    commitSlot(stats_.issue_cycles);
  }
}

void V6xSim::advanceIssueSlots(uint64_t n) {
  stats_.issue_cycles += n;
  if (branch_pending_ && branch_remaining_ < n) {
    pc_ = branch_target_;
    branch_pending_ = false;
  } else if (branch_pending_) {
    branch_remaining_ -= static_cast<unsigned>(n);
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
    if (budget == 0) {
      return RunState::kMaxCycles;
    }
    if (idle_cycles_ > 0) {  // as much of a NOP tail as the budget allows
      const uint64_t n = std::min<uint64_t>(idle_cycles_, budget);
      budget -= n;
      idle(n);
      continue;
    }
    if (!step_over_breakpoint_ && breakpoints_.count(pc_) != 0) {
      // Stop *before* issuing the breakpointed packet.
      state_ = RunState::kBreakpoint;
      drainPipeline();
      return state_;
    }
    const uint64_t before = stats_.cycles;
    issue(breakpoints_.empty() && !step_over_breakpoint_, budget);
    step_over_breakpoint_ = false;
    budget -= stats_.cycles - before;
  }
  drainPipeline();
  return state_;
}

}  // namespace cabt::vliw

// V6X ISA and simulator tests: packet encoding round trips, validation
// rules, delay-slot timing, predication, device stalls.
#include <gtest/gtest.h>

#include "common/error.h"
#include "vliw/isa.h"
#include "vliw/sim.h"

namespace cabt::vliw {
namespace {

MachineOp op(VOpc opc, Unit unit, uint8_t dst, uint8_t s1 = kNoReg,
             uint8_t s2 = kNoReg, int32_t imm = 0) {
  MachineOp m;
  m.opc = opc;
  m.unit = unit;
  m.dst = dst;
  m.src1 = s1;
  m.src2 = s2;
  m.imm = imm;
  return m;
}

constexpr Unit L1{UnitKind::kL, 0};
constexpr Unit L2{UnitKind::kL, 1};
constexpr Unit S1{UnitKind::kS, 0};
constexpr Unit S2{UnitKind::kS, 1};
constexpr Unit M1{UnitKind::kM, 0};
constexpr Unit D1{UnitKind::kD, 0};
constexpr Unit D2{UnitKind::kD, 1};

MachineOp mvk(uint8_t dst, int32_t imm, Unit u = S1) {
  return op(VOpc::kMvk, u, dst, kNoReg, kNoReg, imm);
}
MachineOp nop(int n) { return op(VOpc::kNop, {}, kNoReg, kNoReg, kNoReg, n); }
MachineOp halt() { return op(VOpc::kHalt, S1, kNoReg); }

/// Builds an image at 0x100000 from packets and loads it into a sim.
elf::Object makeImage(std::vector<Packet> packets) {
  elf::Object obj;
  obj.machine = elf::Machine::kV6x;
  obj.entry = 0x100000;
  elf::Section text;
  text.name = ".text";
  text.addr = 0x100000;
  text.executable = true;
  text.data = encodeProgram(packets, 0x100000);
  obj.sections.push_back(std::move(text));
  return obj;
}

V6xSim runPackets(std::vector<Packet> packets) {
  V6xSim sim;
  sim.loadProgram(makeImage(std::move(packets)));
  EXPECT_EQ(sim.run(100000), RunState::kHalted);
  return sim;
}

// ---- encoding -----------------------------------------------------------

TEST(V6xEncoding, RoundTripRegisterFormat) {
  std::vector<Packet> packets;
  packets.push_back({0, {op(VOpc::kAdd, L1, regA(3), regA(4), regB(17)),
                         op(VOpc::kMpy, M1, regB(2), regA(1), regA(2))}});
  packets.push_back({0, {op(VOpc::kLdw, D2, regA(5), regB(16), kNoReg, -8)}});
  packets.push_back({0, {op(VOpc::kStb, D1, regB(7), regA(9), kNoReg, 31)}});
  packets.push_back({0, {halt()}});
  const auto bytes = encodeProgram(packets, 0x1000);
  const auto back = decodeProgram(bytes, 0x1000);
  ASSERT_EQ(back.size(), packets.size());
  for (size_t p = 0; p < packets.size(); ++p) {
    ASSERT_EQ(back[p].ops.size(), packets[p].ops.size()) << "packet " << p;
    EXPECT_EQ(back[p].addr, packets[p].addr);
    for (size_t i = 0; i < packets[p].ops.size(); ++i) {
      const MachineOp& a = packets[p].ops[i];
      const MachineOp& b = back[p].ops[i];
      EXPECT_EQ(a.opc, b.opc);
      EXPECT_EQ(a.unit, b.unit);
      EXPECT_EQ(a.dst, b.dst);
      EXPECT_EQ(a.imm, b.imm);
      EXPECT_EQ(a.pred, b.pred);
    }
  }
}

TEST(V6xEncoding, RoundTripImmediateAndPredication) {
  MachineOp m = mvk(regB(12), -30000, S2);
  m.pred = {PredReg::kA1, true};
  MachineOp k = op(VOpc::kMvkh, S1, regA(30), kNoReg, kNoReg, 0xd000);
  MachineOp a = op(VOpc::kAddk, S2, regB(1), kNoReg, kNoReg, 0x7fff);
  a.pred = {PredReg::kB0, false};
  std::vector<Packet> packets{{0, {m}}, {0, {k, a}}, {0, {halt()}}};
  const auto back = decodeProgram(encodeProgram(packets, 0x2000), 0x2000);
  EXPECT_EQ(back[0].ops[0].imm, -30000);
  EXPECT_EQ(back[0].ops[0].pred, (Pred{PredReg::kA1, true}));
  EXPECT_EQ(back[1].ops[0].imm, 0xd000);
  EXPECT_EQ(back[1].ops[1].pred, (Pred{PredReg::kB0, false}));
}

TEST(V6xEncoding, BranchTargetsAreAbsoluteAfterDecode) {
  std::vector<Packet> packets;
  packets.push_back({0, {op(VOpc::kB, S1, kNoReg, kNoReg, kNoReg, 0x3010)}});
  packets.push_back({0, {nop(5)}});
  packets.push_back({0, {halt()}});
  packets.push_back({0, {mvk(regA(0), 1)}});  // 0x300c
  packets.push_back({0, {halt()}});           // 0x3010
  const auto back = decodeProgram(encodeProgram(packets, 0x3000), 0x3000);
  EXPECT_EQ(back[0].ops[0].imm, 0x3010);
}

TEST(V6xEncoding, MemOffsetScalingAndRange) {
  // Word offsets scale by 4: +-124 encodable.
  std::vector<Packet> ok{{0, {op(VOpc::kLdw, D1, regA(1), regA(2), kNoReg,
                                 124)}}};
  EXPECT_NO_THROW(encodeProgram(ok, 0));
  std::vector<Packet> unaligned{{0, {op(VOpc::kLdw, D1, regA(1), regA(2),
                                        kNoReg, 6)}}};
  EXPECT_THROW(encodeProgram(unaligned, 0), Error);
  std::vector<Packet> toobig{{0, {op(VOpc::kLdw, D1, regA(1), regA(2),
                                     kNoReg, 128)}}};
  EXPECT_THROW(encodeProgram(toobig, 0), Error);
  // Byte ops scale by 1.
  std::vector<Packet> byte{{0, {op(VOpc::kLdb, D1, regA(1), regA(2), kNoReg,
                                   -31)}}};
  EXPECT_NO_THROW(encodeProgram(byte, 0));
}

// ---- packet validation ---------------------------------------------------

TEST(V6xValidate, UnitConflictRejected) {
  Packet p{0, {op(VOpc::kAdd, L1, regA(1), regA(2), regA(3)),
               op(VOpc::kSub, L1, regA(4), regA(5), regA(6))}};
  EXPECT_THROW(validatePacket(p), Error);
  p.ops[1].unit = L2;
  EXPECT_NO_THROW(validatePacket(p));
}

TEST(V6xValidate, WrongUnitKindRejected) {
  Packet p{0, {op(VOpc::kShl, L1, regA(1), regA(2), regA(3))}};
  EXPECT_THROW(validatePacket(p), Error);  // shifts are S-unit only
  Packet q{0, {op(VOpc::kMpy, S1, regA(1), regA(2), regA(3))}};
  EXPECT_THROW(validatePacket(q), Error);
}

TEST(V6xValidate, MemUnitSideMustMatchBase) {
  Packet p{0, {op(VOpc::kLdw, D1, regA(1), regB(16), kNoReg, 0)}};
  EXPECT_THROW(validatePacket(p), Error);
  p.ops[0].unit = D2;
  EXPECT_NO_THROW(validatePacket(p));
}

TEST(V6xValidate, TwoBranchesRejected) {
  Packet p{0, {op(VOpc::kB, S1, kNoReg, kNoReg, kNoReg, 0),
               op(VOpc::kBr, S2, kNoReg, regA(5))}};
  EXPECT_THROW(validatePacket(p), Error);
}

TEST(V6xValidate, SameDestOnlyWithComplementaryPreds) {
  MachineOp x = mvk(regA(3), 1, S1);
  MachineOp y = mvk(regA(3), 2, S2);
  Packet p{0, {x, y}};
  EXPECT_THROW(validatePacket(p), Error);
  p.ops[0].pred = {PredReg::kA1, false};
  p.ops[1].pred = {PredReg::kA1, true};
  EXPECT_NO_THROW(validatePacket(p));
}

TEST(V6xValidate, NopMustBeAlone) {
  Packet p{0, {nop(2), mvk(regA(1), 5)}};
  EXPECT_THROW(validatePacket(p), Error);
}

// ---- simulator semantics --------------------------------------------------

TEST(V6xSimTest, MvkMvkhMaterialiseConstants) {
  const V6xSim sim = runPackets({
      {0, {mvk(regA(4), 0x5678)}},
      {0, {op(VOpc::kMvkh, S1, regA(4), kNoReg, kNoReg, 0x1234)}},
      {0, {halt()}},
  });
  EXPECT_EQ(sim.reg(regA(4)), 0x12345678u);
}

TEST(V6xSimTest, SamePacketReadsOldValues) {
  // add reads a4 before the parallel mvk writes it.
  const V6xSim sim = runPackets({
      {0, {mvk(regA(4), 10)}},
      {0, {mvk(regA(4), 99), op(VOpc::kAdd, L1, regA(5), regA(4), regA(4))}},
      {0, {halt()}},
  });
  EXPECT_EQ(sim.reg(regA(5)), 20u);
  EXPECT_EQ(sim.reg(regA(4)), 99u);
}

TEST(V6xSimTest, MpyHasOneDelaySlot) {
  const V6xSim sim = runPackets({
      {0, {mvk(regA(1), 6)}},
      {0, {mvk(regA(2), 7)}},
      {0, {op(VOpc::kMpy, M1, regA(3), regA(1), regA(2))}},
      {0, {op(VOpc::kMv, L1, regA(4), regA(3))}},  // delay slot: old value
      {0, {op(VOpc::kMv, L2, regA(5), regA(3))}},  // now 42
      {0, {halt()}},
  });
  EXPECT_EQ(sim.reg(regA(4)), 0u);
  EXPECT_EQ(sim.reg(regA(5)), 42u);
}

TEST(V6xSimTest, LoadHasFourDelaySlots) {
  std::vector<Packet> packets;
  packets.push_back({0, {mvk(regA(8), 0x7000)}});
  packets.push_back({0, {mvk(regA(9), 0x1234)}});
  packets.push_back(
      {0, {op(VOpc::kStw, D1, regA(9), regA(8), kNoReg, 0)}});
  packets.push_back({0, {op(VOpc::kLdw, D1, regA(3), regA(8), kNoReg, 0)}});
  for (int i = 0; i < 4; ++i) {  // 4 delay slots read the old a3
    packets.push_back({0, {op(VOpc::kMv, L1, regA(10 + i), regA(3))}});
  }
  packets.push_back({0, {op(VOpc::kMv, L1, regA(14), regA(3))}});
  packets.push_back({0, {halt()}});
  const V6xSim sim = runPackets(std::move(packets));
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(sim.reg(regA(10 + i)), 0u) << "delay slot " << i;
  }
  EXPECT_EQ(sim.reg(regA(14)), 0x1234u);
}

TEST(V6xSimTest, SignExtendingLoads) {
  const V6xSim sim = runPackets({
      {0, {mvk(regA(8), 0x7100)}},
      {0, {mvk(regA(9), 0x80)}},
      {0, {op(VOpc::kStb, D1, regA(9), regA(8), kNoReg, 0)}},
      {0, {op(VOpc::kLdb, D1, regA(1), regA(8), kNoReg, 0)}},
      {0, {op(VOpc::kLdbu, D1, regA(2), regA(8), kNoReg, 0)}},
      {0, {nop(5)}},
      {0, {halt()}},
  });
  EXPECT_EQ(sim.reg(regA(1)), 0xffffff80u);
  EXPECT_EQ(sim.reg(regA(2)), 0x80u);
}

TEST(V6xSimTest, BranchHasFiveDelaySlots) {
  // Branch to the final halt; the five delay-slot packets still execute,
  // the one after them does not.
  std::vector<Packet> packets;
  const uint32_t base = 0x100000;
  // Packet layout (all single-op => 4 bytes each):
  // 0: B +? (computed below)  1..5: mvk a1..a5 = 1  6: mvk a6 = 1  7: halt
  packets.push_back({0, {op(VOpc::kB, S1, kNoReg, kNoReg, kNoReg,
                            static_cast<int32_t>(base + 7 * 4))}});
  for (int i = 1; i <= 6; ++i) {
    packets.push_back({0, {mvk(regA(i), 1)}});
  }
  packets.push_back({0, {halt()}});
  const V6xSim sim = runPackets(std::move(packets));
  for (int i = 1; i <= 5; ++i) {
    EXPECT_EQ(sim.reg(regA(i)), 1u) << "delay slot " << i;
  }
  EXPECT_EQ(sim.reg(regA(6)), 0u) << "skipped by the branch";
}

TEST(V6xSimTest, MultiCycleNopCoversDelaySlots) {
  // B followed by NOP 5 lands at the target with no extra packets.
  const uint32_t base = 0x100000;
  const V6xSim sim = runPackets({
      {0, {op(VOpc::kB, S1, kNoReg, kNoReg, kNoReg,
              static_cast<int32_t>(base + 3 * 4))}},
      {0, {nop(5)}},
      {0, {mvk(regA(1), 1)}},  // skipped
      {0, {mvk(regA(2), 1)}},  // branch target
      {0, {halt()}},
  });
  EXPECT_EQ(sim.reg(regA(1)), 0u);
  EXPECT_EQ(sim.reg(regA(2)), 1u);
  // Cycles: B(1) + NOP 5 (5) + target(1) + halt(1) = 8.
  EXPECT_EQ(sim.stats().cycles, 8u);
}

TEST(V6xSimTest, IndirectBranch) {
  const uint32_t base = 0x100000;
  // Target = base + 5*4 (the final halt); materialised with mvk/mvkh.
  const uint32_t target = base + 5 * 4;
  const V6xSim sim = runPackets({
      {0, {mvk(regA(5), static_cast<int32_t>(target & 0xffff))}},
      {0, {op(VOpc::kMvkh, S1, regA(5), kNoReg, kNoReg,
              static_cast<int32_t>(target >> 16))}},
      {0, {op(VOpc::kBr, S1, kNoReg, regA(5))}},
      {0, {nop(5)}},
      {0, {mvk(regA(1), 1)}},  // skipped
      {0, {halt()}},           // target
  });
  EXPECT_EQ(sim.reg(regA(1)), 0u);
  EXPECT_EQ(sim.state(), RunState::kHalted);
}

TEST(V6xSimTest, PredicationControlsExecution) {
  const V6xSim sim = runPackets({
      {0, {mvk(regA(1), 1)}},   // A1 = true
      {0, {mvk(regB(0), 0)}},   // B0 = false
      {0, {[] {
         MachineOp m = mvk(regA(5), 11);
         m.pred = {PredReg::kA1, false};
         return m;
       }()}},
      {0, {[] {
         MachineOp m = mvk(regA(6), 22);
         m.pred = {PredReg::kA1, true};  // [!A1]: skipped
         return m;
       }()}},
      {0, {[] {
         MachineOp m = mvk(regA(7), 33);
         m.pred = {PredReg::kB0, true};  // [!B0]: executes
         return m;
       }()}},
      {0, {halt()}},
  });
  EXPECT_EQ(sim.reg(regA(5)), 11u);
  EXPECT_EQ(sim.reg(regA(6)), 0u);
  EXPECT_EQ(sim.reg(regA(7)), 33u);
}

TEST(V6xSimTest, PredicatedFalseBranchDoesNotRedirect) {
  const uint32_t base = 0x100000;
  std::vector<Packet> packets;
  packets.push_back({0, {mvk(regA(1), 0)}});
  MachineOp b = op(VOpc::kB, S1, kNoReg, kNoReg, kNoReg,
                   static_cast<int32_t>(base + 100));
  b.pred = {PredReg::kA1, false};  // [A1], A1 == 0: not taken
  packets.push_back({0, {b}});
  packets.push_back({0, {mvk(regA(2), 7)}});
  packets.push_back({0, {halt()}});
  const V6xSim sim = runPackets(std::move(packets));
  EXPECT_EQ(sim.reg(regA(2)), 7u);
  EXPECT_EQ(sim.stats().branches_taken, 0u);
}

TEST(V6xSimTest, OneCyclePerPacket) {
  const V6xSim sim = runPackets({
      {0, {mvk(regA(1), 1), mvk(regB(1), 2, S2),
           op(VOpc::kAdd, L1, regA(3), regA(4), regA(5)),
           op(VOpc::kSub, L2, regB(3), regB(4), regB(5))}},
      {0, {halt()}},
  });
  EXPECT_EQ(sim.stats().cycles, 2u);
  EXPECT_EQ(sim.stats().packets, 2u);
  EXPECT_EQ(sim.stats().ops, 5u);
}

TEST(V6xSimTest, CodeSectionsIndexAcrossTheirWholeSpan) {
  // The pc->packet index spans every code section: sections 2 MiB apart
  // (the debugger's two images) are both fetchable; code spread over
  // more than 16 MiB is rejected at load.
  const auto twoSections = [](uint32_t second) {
    elf::Object obj = makeImage({{0, {halt()}}});
    elf::Section text = obj.sections[0];
    text.name = ".text.far";
    text.addr = second;
    std::vector<Packet> packets{{0, {mvk(regA(1), 7)}}, {0, {halt()}}};
    text.data = encodeProgram(packets, second);
    obj.sections.push_back(std::move(text));
    return obj;
  };
  V6xSim sim;
  sim.loadProgram(twoSections(0x300000));
  sim.setPc(0x300000);
  EXPECT_EQ(sim.run(100), RunState::kHalted);
  EXPECT_EQ(sim.reg(regA(1)), 7u);
  EXPECT_THROW(sim.setPc(0x300002), Error);
  EXPECT_THROW(sim.setPc(0x200000), Error);
  V6xSim far;
  EXPECT_THROW(far.loadProgram(twoSections(0x100000 + (16u << 20))), Error);
}

TEST(V6xSimTest, DoubleWriteSameCycleTrapped) {
  // An MPY and an ALU op writing the same reg issued 1 cycle apart
  // collide; with a cycle between them they commit in different cycles.
  // Fillers that write the same reg every cycle put the collision in each
  // phase of the 8-slot write ring.
  for (int filler = 0; filler < 8; ++filler) {
    const auto image = [filler](bool gap) {
      std::vector<Packet> packets;
      for (int i = 0; i < filler; ++i) {
        packets.push_back({0, {mvk(regA(3), i)}});
      }
      packets.push_back({0, {op(VOpc::kMpy, M1, regA(3), regA(1), regA(2))}});
      if (gap) {
        packets.push_back({0, {nop(1)}});
      }
      packets.push_back({0, {op(VOpc::kAdd, L1, regA(3), regA(1), regA(2))}});
      packets.push_back({0, {halt()}});
      return makeImage(std::move(packets));
    };
    V6xSim collide;
    collide.loadProgram(image(false));
    EXPECT_THROW(collide.run(1000), Error) << "filler " << filler;
    V6xSim apart;
    apart.loadProgram(image(true));
    EXPECT_EQ(apart.run(1000), RunState::kHalted) << "filler " << filler;
  }
}

TEST(V6xSimTest, BranchWhileBranchPendingTrapped) {
  const uint32_t base = 0x100000;
  std::vector<Packet> packets{
      {0, {op(VOpc::kB, S1, kNoReg, kNoReg, kNoReg,
              static_cast<int32_t>(base))}},
      {0, {op(VOpc::kB, S1, kNoReg, kNoReg, kNoReg,
              static_cast<int32_t>(base))}},
      {0, {halt()}},
  };
  V6xSim sim;
  sim.loadProgram(makeImage(std::move(packets)));
  EXPECT_THROW(sim.run(1000), Error);
}

// ---- device stalls ---------------------------------------------------------

/// Handler that refuses the first `stall_cycles` attempts.
class StallingHandler : public IoHandler {
 public:
  StallingHandler(uint32_t base, unsigned stall_cycles)
      : IoHandler(base, 0x10), remaining_(stall_cycles) {}
  bool ready(uint32_t, bool) override {
    if (remaining_ > 0) {
      --remaining_;
      return false;
    }
    return true;
  }
  uint32_t load(uint32_t, unsigned) override {
    ++loads_;
    return 0xabcd;
  }
  void store(uint32_t, uint32_t value, unsigned) override { last_ = value; }

  unsigned loads_ = 0;
  uint32_t last_ = 0;

 private:
  unsigned remaining_;
};

TEST(V6xSimTest, DeviceStallFreezesMachine) {
  StallingHandler handler(0xfe000000, 3);
  std::vector<Packet> packets{
      {0, {mvk(regA(8), 0)}},
      {0, {op(VOpc::kMvkh, S1, regA(8), kNoReg, kNoReg, 0xfe00)}},
      {0, {op(VOpc::kLdw, D1, regA(3), regA(8), kNoReg, 0)}},
      {0, {nop(5)}},
      {0, {halt()}},
  };
  V6xSim sim;
  sim.loadProgram(makeImage(std::move(packets)));
  sim.addIoHandler(&handler);
  EXPECT_EQ(sim.run(1000), RunState::kHalted);
  EXPECT_EQ(sim.reg(regA(3)), 0xabcdu);
  EXPECT_EQ(handler.loads_, 1u);  // performed exactly once
  EXPECT_EQ(sim.stats().stall_cycles, 3u);
  // mvk + mvkh + (3 stalls + ld) + nop5 + halt = 2 + 4 + 5 + 1 = 12.
  EXPECT_EQ(sim.stats().cycles, 12u);
}

TEST(V6xSimTest, YieldStopsAndResumes) {
  std::vector<Packet> packets{
      {0, {mvk(regA(1), 5)}},
      {0, {op(VOpc::kYield, S1, kNoReg)}},
      {0, {mvk(regA(2), 6)}},
      {0, {halt()}},
  };
  V6xSim sim;
  sim.loadProgram(makeImage(std::move(packets)));
  EXPECT_EQ(sim.run(1000), RunState::kYielded);
  EXPECT_EQ(sim.reg(regA(1)), 5u);
  EXPECT_EQ(sim.reg(regA(2)), 0u);
  EXPECT_EQ(sim.run(1000), RunState::kHalted);
  EXPECT_EQ(sim.reg(regA(2)), 6u);
}

TEST(V6xSimTest, BreakpointsStopBeforePacket) {
  std::vector<Packet> packets{
      {0, {mvk(regA(1), 5)}},
      {0, {mvk(regA(2), 6)}},
      {0, {halt()}},
  };
  const elf::Object image = makeImage(std::move(packets));
  V6xSim sim;
  sim.loadProgram(image);
  sim.addBreakpoint(0x100004);
  EXPECT_EQ(sim.run(1000), RunState::kBreakpoint);
  EXPECT_EQ(sim.pc(), 0x100004u);
  EXPECT_EQ(sim.reg(regA(1)), 5u);
  EXPECT_EQ(sim.reg(regA(2)), 0u);
  EXPECT_EQ(sim.resume(1000), RunState::kHalted);
  EXPECT_EQ(sim.reg(regA(2)), 6u);
}

// ---- issue engine edge cases ------------------------------------------------

TEST(V6xSimTest, RegisterIndexOutOfRangeIsAnError) {
  V6xSim sim;
  sim.setReg(regB(31), 9);
  EXPECT_EQ(sim.reg(regB(31)), 9u);
  EXPECT_THROW((void)sim.reg(64), Error);
  EXPECT_THROW(sim.setReg(64, 1), Error);
  EXPECT_THROW((void)sim.reg(kNoReg), Error);
}

struct Observed {
  uint64_t cycles;
  uint32_t pc;
  std::vector<uint32_t> regs;
  bool operator==(const Observed&) const = default;
};

Observed observe(const V6xSim& sim) {
  Observed o{sim.stats().cycles, sim.pc(), {}};
  for (uint8_t r = 0; r < 64; ++r) {
    o.regs.push_back(sim.reg(r));
  }
  return o;
}

TEST(V6xSimTest, NopTailSlicingIsExact) {
  // A nop 9 whose tail holds a load landing (its 4th cycle) and a branch
  // redirect (its 5th): any run() slicing stops at the same states.
  const uint32_t base = 0x100000;
  const std::vector<Packet> packets{
      {0, {mvk(regA(8), 0x2000)}},
      {0, {op(VOpc::kLdw, D1, regA(3), regA(8), kNoReg, 0),
           op(VOpc::kB, S1, kNoReg, kNoReg, kNoReg,
              static_cast<int32_t>(base + 5 * 4))}},  // the add
      {0, {nop(9)}},
      {0, {mvk(regA(1), 1)}},  // skipped
      {0, {op(VOpc::kAdd, L1, regA(4), regA(3), regA(3))}},  // target
      {0, {halt()}},
  };
  const auto sliced = [&packets](uint64_t k) {
    V6xSim sim;
    sim.loadProgram(makeImage(packets));
    sim.memory().write32(0x2000, 0x01020304);
    std::vector<Observed> stops;
    while (sim.run(k) == RunState::kMaxCycles) {
      stops.push_back(observe(sim));
    }
    stops.push_back(observe(sim));
    return stops;
  };
  const std::vector<Observed> by1 = sliced(1);
  const std::vector<Observed> by3 = sliced(3);
  const std::vector<Observed> whole = sliced(UINT64_MAX);
  ASSERT_EQ(whole.size(), 1u);
  const Observed& end = whole[0];
  EXPECT_EQ(end.cycles, 13u);  // mvk + ld||b + nop 9 + add + halt
  EXPECT_EQ(end.regs[regA(3)], 0x01020304u);
  EXPECT_EQ(end.regs[regA(4)], 0x02040608u);
  EXPECT_EQ(end.regs[regA(1)], 0u);
  EXPECT_EQ(by1.back(), end);
  EXPECT_EQ(by3.back(), end);
  // Every stop of the 3-cycle slicing matches the 1-cycle stop taken at
  // the same cycle, including the ones inside the tail.
  for (const Observed& o : by3) {
    ASSERT_LE(o.cycles, by1.size());
    EXPECT_EQ(o, by1[o.cycles - 1]) << "cycle " << o.cycles;
  }
  EXPECT_EQ(by1[5].regs[regA(3)], 0u) << "load not yet landed";
  EXPECT_EQ(by1[6].regs[regA(3)], 0x01020304u) << "load landed in the tail";
}

TEST(V6xSimTest, HaltLandsInFlightWritesInDueOrder) {
  // ldw a3 issues one slot before a halt packet that also writes a3. The
  // load is due later, so it wins, whatever ring phase the halt is in.
  for (int filler = 0; filler < 8; ++filler) {
    std::vector<Packet> packets{{0, {mvk(regA(8), 0x2000)}}};
    for (int i = 0; i < filler; ++i) {
      packets.push_back({0, {mvk(regA(9), i)}});
    }
    packets.push_back(
        {0, {op(VOpc::kLdw, D1, regA(3), regA(8), kNoReg, 0)}});
    packets.push_back({0, {mvk(regA(3), 7, S2), halt()}});
    V6xSim sim;
    sim.loadProgram(makeImage(std::move(packets)));
    sim.memory().write32(0x2000, 0xcafe);
    EXPECT_EQ(sim.run(1000), RunState::kHalted);
    EXPECT_EQ(sim.reg(regA(3)), 0xcafeu) << "filler " << filler;
  }
}

TEST(V6xSimTest, HostileImagesOnlyRaiseErrors) {
  // Byte flips over a program that exercises every op class: loading and
  // running a mutant either works or throws cabt::Error, nothing else.
  const uint32_t base = 0x100000;
  MachineOp pred_b = op(VOpc::kB, S1, kNoReg, kNoReg, kNoReg,
                        static_cast<int32_t>(base + 4 * 4));
  pred_b.pred = {PredReg::kA1, false};
  std::vector<Packet> packets{
      {0, {mvk(regA(8), 0x2000), mvk(regB(8), 0x40, S2)}},
      {0, {op(VOpc::kMvkh, S1, regA(7), kNoReg, kNoReg, 0xfe00),
           mvk(regA(1), 12, S2)}},
      {0, {op(VOpc::kStw, D1, regA(1), regA(8), kNoReg, 4),
           op(VOpc::kLdh, D2, regB(3), regB(8), kNoReg, -2)}},
      {0, {op(VOpc::kLdw, D1, regA(3), regA(7), kNoReg, 0)}},
      {0, {op(VOpc::kMpy, M1, regA(4), regA(1), regA(1)),
           op(VOpc::kAddk, S1, regA(1), kNoReg, kNoReg, -1),
           op(VOpc::kCmpGt, L1, regA(2), regA(1), regA(5)),
           op(VOpc::kStb, D1, regA(4), regA(8), kNoReg, 1)}},
      {0, {pred_b, op(VOpc::kSar, S2, regB(4), regB(3), regA(1))}},
      {0, {nop(5)}},
      {0, {op(VOpc::kBr, S1, kNoReg, regB(8))}},
      {0, {op(VOpc::kYield, S1, kNoReg)}},
      {0, {halt()}},
  };
  const elf::Object original = makeImage(std::move(packets));
  uint64_t state = 0x9e3779b97f4a7c15ull;
  const auto next = [&state] {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  int loaded = 0;
  for (int mutant = 0; mutant < 3000; ++mutant) {
    elf::Object image = original;
    std::vector<uint8_t>& text = image.sections[0].data;
    for (uint64_t flips = 1 + next() % 4; flips > 0; --flips) {
      text[next() % text.size()] ^= static_cast<uint8_t>(1 + next() % 255);
    }
    StallingHandler handler(0xfe000000, 2);
    V6xSim sim;
    sim.addIoHandler(&handler);
    try {
      sim.loadProgram(image);
      ++loaded;
      for (int resumes = 0; resumes < 4; ++resumes) {
        if (sim.run(10000) != RunState::kYielded) {
          break;
        }
      }
    } catch (const Error&) {
      // Rejected: the contract for bad input.
    }
  }
  EXPECT_GT(loaded, 0);
}

TEST(V6xSimTest, ToStringIsReadable) {
  MachineOp m = op(VOpc::kLdw, D2, regA(5), regB(16), kNoReg, -8);
  m.pred = {PredReg::kB0, true};
  EXPECT_EQ(m.toString(), "[!b0] ldw.d2 a5, [b16]-8");
  EXPECT_EQ(mvk(regA(1), 7).toString(), "mvk.s1 a1, 7");
  EXPECT_EQ(nop(3).toString(), "nop 3");
}

}  // namespace
}  // namespace cabt::vliw

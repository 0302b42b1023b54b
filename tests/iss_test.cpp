// Reference ISS tests: functional semantics of every instruction family,
// and the cycle-accounting model (pipeline, branch prediction, I-cache).
#include <gtest/gtest.h>

#include "arch/arch.h"
#include "iss/iss.h"
#include "soc/standard_board.h"
#include "trc/assembler.h"

namespace cabt::iss {
namespace {

arch::ArchDescription archNoCache() {
  arch::ArchDescription d = arch::ArchDescription::defaultTc10gp();
  d.icache.enabled = false;
  return d;
}

Iss runProgram(std::string_view src,
               const arch::ArchDescription& desc = archNoCache()) {
  const elf::Object obj = trc::assemble(src);
  Iss iss(desc, obj);
  EXPECT_EQ(iss.run(), StopReason::kHalted);
  return iss;
}

TEST(IssFunctional, DataAluOps) {
  const Iss iss = runProgram(R"(
_start: movi d1, 6
        movi d2, 7
        add d3, d1, d2
        sub d4, d1, d2
        mul d5, d1, d2
        and d6, d1, d2
        or d7, d1, d2
        xor d8, d1, d2
        halt
)");
  EXPECT_EQ(iss.d(3), 13u);
  EXPECT_EQ(iss.d(4), static_cast<uint32_t>(-1));
  EXPECT_EQ(iss.d(5), 42u);
  EXPECT_EQ(iss.d(6), 6u);
  EXPECT_EQ(iss.d(7), 7u);
  EXPECT_EQ(iss.d(8), 1u);
}

TEST(IssFunctional, ShiftsAndCompares) {
  const Iss iss = runProgram(R"(
_start: movi d1, -8
        movi d2, 2
        shl d3, d1, d2
        shr d4, d1, d2
        sar d5, d1, d2
        lt d6, d1, d2
        ltu d7, d1, d2
        ge d8, d2, d1
        geu d9, d2, d1
        eq d10, d1, d1
        ne d11, d1, d1
        halt
)");
  EXPECT_EQ(iss.d(3), static_cast<uint32_t>(-32));
  EXPECT_EQ(iss.d(4), 0xfffffff8u >> 2);
  EXPECT_EQ(iss.d(5), static_cast<uint32_t>(-2));
  EXPECT_EQ(iss.d(6), 1u);   // -8 < 2 signed
  EXPECT_EQ(iss.d(7), 0u);   // 0xfffffff8 < 2 unsigned is false
  EXPECT_EQ(iss.d(8), 1u);
  EXPECT_EQ(iss.d(9), 0u);
  EXPECT_EQ(iss.d(10), 1u);
  EXPECT_EQ(iss.d(11), 0u);
}

TEST(IssFunctional, AddressOpsAndMemory) {
  const Iss iss = runProgram(R"(
_start: movha a0, hi(buf)
        lea a0, a0, lo(buf)
        movi d1, 0x1234
        stw d1, [a0]0
        sth d1, [a0]4
        stb d1, [a0]6
        ldw d2, [a0]0
        ldh d3, [a0]4
        ldhu d4, [a0]4
        ldb d5, [a0]6
        lda a2, [a0]8
        mova a3, d1
        movd d6, a3
        adda a4, a0, a3
        suba a5, a4, a3
        halt
        .data
buf:    .word 0, 0
        .word buf
)");
  EXPECT_EQ(iss.d(2), 0x1234u);
  EXPECT_EQ(iss.d(3), 0x1234u);
  EXPECT_EQ(iss.d(4), 0x1234u);
  EXPECT_EQ(iss.d(5), 0x34u);
  EXPECT_EQ(iss.a(2), 0xd0000000u);
  EXPECT_EQ(iss.d(6), 0x1234u);
  EXPECT_EQ(iss.a(5), 0xd0000000u);
}

TEST(IssFunctional, SignExtendingLoads) {
  const Iss iss = runProgram(R"(
_start: movha a0, hi(buf)
        lea a0, a0, lo(buf)
        ldh d1, [a0]0
        ldhu d2, [a0]0
        ldb d3, [a0]0
        ldbu d4, [a0]0
        halt
        .data
buf:    .half 0x8080, 0
)");
  EXPECT_EQ(iss.d(1), 0xffff8080u);
  EXPECT_EQ(iss.d(2), 0x8080u);
  EXPECT_EQ(iss.d(3), 0xffffff80u);
  EXPECT_EQ(iss.d(4), 0x80u);
}

TEST(IssFunctional, LoopAndConditionals) {
  // Sum 1..10 with a backward loop.
  const Iss iss = runProgram(R"(
_start: movi d0, 10
        movi d1, 0
loop:   add d1, d1, d0
        addi16 d0, -1
        jnz16 d0, loop
        halt
)");
  EXPECT_EQ(iss.d(1), 55u);
  EXPECT_EQ(iss.stats().cond_branches, 10u);
  EXPECT_EQ(iss.stats().cond_taken, 9u);
  // Backward branch predicted taken: one mispredict at loop exit.
  EXPECT_EQ(iss.stats().mispredicts, 1u);
}

TEST(IssFunctional, CallAndReturn) {
  const Iss iss = runProgram(R"(
_start: movi d0, 5
        jl double
        jl double
        halt
double: add d0, d0, d0
        ret16
)");
  EXPECT_EQ(iss.d(0), 20u);
}

TEST(IssFunctional, IndirectJump) {
  const Iss iss = runProgram(R"(
_start: movha a1, hi(target)
        lea a1, a1, lo(target)
        ji a1
        movi d9, 111     ; skipped
target: movi d9, 222
        halt
)");
  EXPECT_EQ(iss.d(9), 222u);
}

TEST(IssFunctional, SixteenBitOps) {
  const Iss iss = runProgram(R"(
_start: movi16 d1, 40
        movi16 d2, 2
        add16 d1, d2
        sub16 d1, d2
        mov16 d3, d1
        addi16 d3, 2
        halt
)");
  EXPECT_EQ(iss.d(1), 40u);
  EXPECT_EQ(iss.d(3), 42u);
}

TEST(IssFunctional, BkptStopsAndResumes) {
  const elf::Object obj = trc::assemble(R"(
_start: movi d1, 1
        bkpt
        movi d1, 2
        halt
)");
  Iss iss(archNoCache(), obj);
  EXPECT_EQ(iss.run(), StopReason::kBreakpoint);
  EXPECT_EQ(iss.d(1), 1u);
}

TEST(IssFunctional, MaxInstructionsGuard) {
  const elf::Object obj = trc::assemble(R"(
_start: j _start
)");
  IssConfig cfg;
  cfg.max_instructions = 100;
  Iss iss(archNoCache(), obj, nullptr, cfg);
  EXPECT_EQ(iss.run(), StopReason::kMaxInstructions);
  EXPECT_EQ(iss.stats().instructions, 100u);
}

// ---- timing -------------------------------------------------------------

TEST(IssTiming, StraightLineDualIssue) {
  // movi (IP) + movha (LS) pair; lea depends on movha -> next cycle;
  // add (IP) pairs are not possible (lea is LS, add is IP after it).
  const Iss iss = runProgram(R"(
_start: movi d1, 1
        movha a0, 0xd000
        lea a0, a0, 8
        add d2, d1, d1
        halt
)");
  // Block: movi+movha pair (cycle 0), lea (cycle 1), add (cycle 2, IP
  // after LS does not pair), halt (cycle 3) -> 4 pipeline cycles.
  EXPECT_EQ(iss.stats().pipeline_cycles, 4u);
  EXPECT_EQ(iss.stats().cycles, 4u);
  EXPECT_EQ(iss.stats().blocks, 1u);
}

TEST(IssTiming, LoadUseStallCounted) {
  const Iss a = runProgram(R"(
_start: movha a0, 0xd000
        ldw d1, [a0]0
        add d2, d1, d1
        halt
)");
  const Iss b = runProgram(R"(
_start: movha a0, 0xd000
        ldw d1, [a0]0
        add d2, d3, d3
        halt
)");
  // The dependent version pays exactly the one-cycle load-use stall.
  EXPECT_EQ(a.stats().pipeline_cycles, b.stats().pipeline_cycles + 1);
}

TEST(IssTiming, BranchExtrasFollowPrediction) {
  // Forward branch not taken: predicted correctly, no extra.
  const Iss nt = runProgram(R"(
_start: movi d1, 1
        movi d2, 2
        jeq d1, d2, skip
        nop
skip:   halt
)");
  EXPECT_EQ(nt.stats().branch_extra, 0u);
  // Forward branch taken: mispredicted (+2).
  const Iss t = runProgram(R"(
_start: movi d1, 2
        movi d2, 2
        jeq d1, d2, skip
        nop
skip:   halt
)");
  EXPECT_EQ(t.stats().branch_extra, 2u);
  EXPECT_EQ(t.stats().mispredicts, 1u);
}

TEST(IssTiming, UnconditionalBranchExtras) {
  const Iss iss = runProgram(R"(
_start: j next
next:   jl f
        halt
f:      ret16
)");
  // j: +1, jl: +1, ret16 (indirect): +2.
  EXPECT_EQ(iss.stats().branch_extra, 4u);
}

TEST(IssTiming, BlocksDrainPipeline) {
  // The mul result latency does not leak into the next block: the branch
  // ends the block and the pipeline drains.
  const Iss iss = runProgram(R"(
_start: movi d1, 3
        mul d2, d1, d1
        j next
next:   add d3, d2, d2
        halt
)");
  // Block 1: movi(0) mul(1) j(2) = 3 cycles; +1 taken extra.
  // Block 2: add(0) halt(1) = 2 cycles.
  EXPECT_EQ(iss.stats().pipeline_cycles, 5u);
  EXPECT_EQ(iss.stats().cycles, 6u);
  EXPECT_EQ(iss.stats().blocks, 2u);
}

TEST(IssTiming, ICacheMissPenaltyPerLine) {
  arch::ArchDescription desc = arch::ArchDescription::defaultTc10gp();
  ASSERT_TRUE(desc.icache.enabled);
  const Iss iss = runProgram(R"(
_start: nop
        nop
        nop
        nop
        nop
        nop
        nop
        halt
)", desc);
  // 8 x 4-byte instructions = 32 bytes = 2 lines of 16 bytes, both cold
  // misses.
  EXPECT_EQ(iss.stats().icache_accesses, 2u);
  EXPECT_EQ(iss.stats().icache_misses, 2u);
  EXPECT_EQ(iss.stats().cache_penalty, 2u * desc.icache.miss_penalty);
  EXPECT_EQ(iss.stats().cycles,
            iss.stats().pipeline_cycles + 2u * desc.icache.miss_penalty);
}

TEST(IssTiming, LoopWarmsTheICache) {
  arch::ArchDescription desc = arch::ArchDescription::defaultTc10gp();
  const Iss iss = runProgram(R"(
_start: movi d0, 50
loop:   addi16 d0, -1
        jnz16 d0, loop
        halt
)", desc);
  // The loop body lives in one line (entry block shares it): only cold
  // misses, every iteration hits.
  EXPECT_LE(iss.stats().icache_misses, 2u);
  EXPECT_GE(iss.stats().icache_accesses, 50u);
}

TEST(IssTiming, BlockBoundaryRestartsLineTracking) {
  // Two consecutive blocks in the same cache line: the second block's
  // fetch re-accesses the line (hit), by the block-boundary rule.
  arch::ArchDescription desc = arch::ArchDescription::defaultTc10gp();
  const Iss iss = runProgram(R"(
_start: j b2
b2:     halt
)", desc);
  EXPECT_EQ(iss.stats().icache_accesses, 2u);
  EXPECT_EQ(iss.stats().icache_misses, 1u);
}

TEST(IssTiming, FunctionalModeCountsNoCycles) {
  const elf::Object obj = trc::assemble(R"(
_start: movi d1, 1
        halt
)");
  IssConfig cfg;
  cfg.model_timing = false;
  Iss iss(archNoCache(), obj, nullptr, cfg);
  EXPECT_EQ(iss.run(), StopReason::kHalted);
  EXPECT_EQ(iss.stats().cycles, 0u);
  EXPECT_EQ(iss.d(1), 1u);
}

// ---- I/O ---------------------------------------------------------------

TEST(IssIo, TimerReadsModelledCycles) {
  arch::ArchDescription desc = archNoCache();
  const elf::Object obj = trc::assemble(R"(
_start: movha a0, 0xf000
        movi d0, 10
loop:   addi16 d0, -1
        jnz16 d0, loop
        ldw d1, [a0]0x100   ; timer low word
        halt
)");
  soc::StandardPeripherals board(soc::StandardPeripherals::ioBase(desc));
  Iss iss(desc, obj, &board.bus);
  EXPECT_EQ(iss.run(), StopReason::kHalted);
  // The timer value equals the modelled cycle count at the load.
  EXPECT_GT(iss.d(1), 0u);
  EXPECT_LE(iss.d(1), iss.stats().cycles);
  EXPECT_EQ(iss.stats().io_reads, 1u);
  // After halt the bus has been clocked to the final cycle count.
  EXPECT_EQ(board.bus.socCycle(), iss.stats().cycles);
}

TEST(IssIo, CharDeviceOutput) {
  arch::ArchDescription desc = archNoCache();
  const elf::Object obj = trc::assemble(R"(
_start: movha a0, 0xf000
        movi d1, 72          ; 'H'
        stw d1, [a0]0x200
        movi d1, 105         ; 'i'
        stw d1, [a0]0x200
        halt
)");
  soc::StandardPeripherals board(soc::StandardPeripherals::ioBase(desc));
  Iss iss(desc, obj, &board.bus);
  EXPECT_EQ(iss.run(), StopReason::kHalted);
  EXPECT_EQ(board.chardev.output(), "Hi");
  EXPECT_EQ(iss.stats().io_writes, 2u);
  // Stamps are monotonically increasing.
  ASSERT_EQ(board.chardev.stamps().size(), 2u);
  EXPECT_LE(board.chardev.stamps()[0], board.chardev.stamps()[1]);
}

TEST(IssIo, BlockTraceRecordsPerBlockCycles) {
  const elf::Object obj = trc::assemble(R"(
_start: movi d0, 2
loop:   addi16 d0, -1
        jnz16 d0, loop
        halt
)");
  Iss iss(archNoCache(), obj);
  iss.enableBlockTrace(true);
  EXPECT_EQ(iss.run(), StopReason::kHalted);
  // Blocks: _start (1), loop (2 iterations), halt-block (1).
  ASSERT_EQ(iss.blockTrace().size(), 4u);
  uint64_t sum = 0;
  for (const BlockRecord& r : iss.blockTrace()) {
    sum += r.pipeline_cycles + r.branch_extra + r.cache_penalty;
  }
  EXPECT_EQ(sum, iss.stats().cycles);
}

// The IssStats field table: the 15 architectural counters lead, in the
// order the rolling digest writes them.
TEST(IssStatsTable, ArchitecturalCountersLead) {
  size_t architectural = 0;
  bool past_architectural = false;
  for (const IssStatsField& f : kIssStatsFields) {
    if (f.architectural) {
      EXPECT_FALSE(past_architectural) << f.name;
      ++architectural;
    } else {
      past_architectural = true;
    }
  }
  EXPECT_EQ(architectural, 15u);
}

}  // namespace
}  // namespace cabt::iss

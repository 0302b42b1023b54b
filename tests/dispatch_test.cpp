// Targeted tests of the chained / trace block-dispatch engine: successor
// chaining, superblock formation and guarded dispatch, guard-failure
// bails, indirect jumps into trace interiors and block middles,
// instruction-limit stops inside hot traces, quantum slicing, and the
// per-block breakpoint flags. The broad equivalence sweep lives in
// random_program_test.cpp; these are the corner cases with a known
// shape.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "iss/iss.h"
#include "platform/platform.h"
#include "soc/peripherals.h"
#include "trc/assembler.h"

namespace cabt {
namespace {

arch::ArchDescription defaultArch() {
  return arch::ArchDescription::defaultTc10gp();
}

iss::IssConfig traceConfig(uint32_t threshold = 2) {
  iss::IssConfig cfg;
  cfg.dispatch_mode = iss::DispatchMode::kChainedTraces;
  cfg.trace_threshold = threshold;
  return cfg;
}

iss::IssConfig steppingConfig() {
  iss::IssConfig cfg;
  cfg.use_block_cache = false;
  return cfg;
}

/// Threaded-code backend with aggressive lowering: blocks lower after
/// two executions, traces form after two dispatches, so even short
/// programs run mostly as host handler arrays.
iss::IssConfig threadedConfig() {
  iss::IssConfig cfg;
  cfg.dispatch_mode = iss::DispatchMode::kThreaded;
  cfg.trace_threshold = 2;
  cfg.threaded_threshold = 2;
  return cfg;
}

// A hot nested loop: the inner block re-enters itself 20 times per outer
// iteration, so a low-threshold trace engine unrolls it into a
// superblock whose guards fail exactly once per inner-loop exit.
const char* kNestedLoops = R"(
_start: movi d5, 10
        movi d1, 0
outer:  movi d0, 20
inner:  add d1, d1, d0
        xor d2, d1, d5
        addi16 d0, -1
        jnz16 d0, inner
        addi16 d5, -1
        jnz16 d5, outer
        movi d3, 99
        halt
)";

void expectSameState(iss::Iss& a, iss::Iss& b) {
  EXPECT_EQ(a.pc(), b.pc());
  EXPECT_EQ(a.stats().instructions, b.stats().instructions);
  EXPECT_EQ(a.stats().cycles, b.stats().cycles);
  EXPECT_EQ(a.stats().pipeline_cycles, b.stats().pipeline_cycles);
  EXPECT_EQ(a.stats().branch_extra, b.stats().branch_extra);
  EXPECT_EQ(a.stats().cache_penalty, b.stats().cache_penalty);
  EXPECT_EQ(a.stats().blocks, b.stats().blocks);
  EXPECT_EQ(a.stats().icache_accesses, b.stats().icache_accesses);
  EXPECT_EQ(a.stats().icache_misses, b.stats().icache_misses);
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(a.d(i), b.d(i)) << "d" << i;
    EXPECT_EQ(a.a(i), b.a(i)) << "a" << i;
  }
}

TEST(ChainedDispatch, ChainsSuccessorsWithoutLookups) {
  const elf::Object obj = trc::assemble(kNestedLoops);
  iss::IssConfig cfg;
  cfg.dispatch_mode = iss::DispatchMode::kChained;
  iss::Iss iss(defaultArch(), obj, nullptr, cfg);
  ASSERT_EQ(iss.run(), iss::StopReason::kHalted);
  // 10 outer x 20 inner iterations: nearly every dispatch resolves
  // through a chained edge; no traces in kChained mode.
  EXPECT_GT(iss.stats().chain_hits, 200u);
  EXPECT_EQ(iss.stats().trace_dispatches, 0u);
  EXPECT_EQ(iss.stats().cached_blocks, iss.stats().blocks);

  iss::Iss slow(defaultArch(), obj, nullptr, steppingConfig());
  ASSERT_EQ(slow.run(), iss::StopReason::kHalted);
  expectSameState(iss, slow);
}

TEST(TraceDispatch, FormsHotTracesAndStaysExact) {
  const elf::Object obj = trc::assemble(kNestedLoops);
  iss::Iss iss(defaultArch(), obj, nullptr, traceConfig());
  ASSERT_EQ(iss.run(), iss::StopReason::kHalted);
  EXPECT_GT(iss.stats().trace_dispatches, 0u);
  EXPECT_GT(iss.stats().trace_blocks, iss.stats().trace_dispatches);
  // Every inner-loop exit leaves the unrolled trace through a failing
  // guard (the backedge finally falls through).
  EXPECT_GT(iss.stats().guard_bails, 0u);

  iss::Iss slow(defaultArch(), obj, nullptr, steppingConfig());
  ASSERT_EQ(slow.run(), iss::StopReason::kHalted);
  expectSameState(iss, slow);

  // Hot-block accounting attributes the inner block's dispatches to
  // trace execution.
  const auto hot = iss.hotBlocks(1);
  ASSERT_EQ(hot.size(), 1u);
  EXPECT_EQ(hot[0].exec_count, 200u);
  EXPECT_GT(hot[0].trace_execs, 0u);
}

TEST(TraceDispatch, NearBalancedBranchesDoNotSpliceButStayExact) {
  // The branch alternates taken/not-taken, so neither outcome ever
  // dominates 4:1 and the trace must not speculate through it; the run
  // still has to be bit-exact whatever the builder decides.
  const char* kAlternating = R"(
_start: movi d0, 200
        movi d1, 0
        movi d2, 0
loop:   xor d1, d1, d0
        and d3, d1, d0
        jnz16 d3, skip
        addi16 d2, 1
skip:   addi16 d0, -1
        jnz16 d0, loop
        halt
)";
  const elf::Object obj = trc::assemble(kAlternating);
  iss::Iss iss(defaultArch(), obj, nullptr, traceConfig());
  ASSERT_EQ(iss.run(), iss::StopReason::kHalted);
  iss::Iss slow(defaultArch(), obj, nullptr, steppingConfig());
  ASSERT_EQ(slow.run(), iss::StopReason::kHalted);
  expectSameState(iss, slow);
}

TEST(TraceDispatch, IndirectJumpIntoTraceInteriorLeader) {
  // After the loop gets hot (trace formed over [body, body, ...]), an
  // indirect jump re-enters the loop body — an interior trace segment —
  // through the plain lookup path.
  const char* kProgram = R"(
_start: movi d5, 3
again:  movi d0, 30
body:   add d1, d1, d0
        addi16 d0, -1
        jnz16 d0, body
        addi16 d5, -1
        jz16 d5, done
        movha a2, hi(body)
        lea a2, a2, lo(body)
        movi d0, 15
        ji a2
done:   halt
)";
  const elf::Object obj = trc::assemble(kProgram);
  iss::Iss iss(defaultArch(), obj, nullptr, traceConfig());
  ASSERT_EQ(iss.run(), iss::StopReason::kHalted);
  EXPECT_GT(iss.stats().trace_dispatches, 0u);
  iss::Iss slow(defaultArch(), obj, nullptr, steppingConfig());
  ASSERT_EQ(slow.run(), iss::StopReason::kHalted);
  expectSameState(iss, slow);
}

TEST(TraceDispatch, IndirectJumpIntoBlockMiddleFallsBack) {
  // The indirect target is *not* a leader: per-instruction semantics
  // keep the open block across the jump, so the dispatcher must re-warm
  // the stepping engine even while the containing block is part of a
  // hot trace.
  const char* kProgram = R"(
_start: movi d5, 3
again:  movi d0, 30
body:   add d1, d1, d0
mid:    xor d2, d1, d5
        addi16 d0, -1
        jnz16 d0, body
        addi16 d5, -1
        jz16 d5, done
        movha a2, hi(mid)
        lea a2, a2, lo(mid)
        movi d0, 1
        ji a2
done:   halt
)";
  const elf::Object obj = trc::assemble(kProgram);
  iss::Iss iss(defaultArch(), obj, nullptr, traceConfig());
  ASSERT_EQ(iss.run(), iss::StopReason::kHalted);
  EXPECT_GT(iss.stats().trace_dispatches, 0u);
  iss::Iss slow(defaultArch(), obj, nullptr, steppingConfig());
  ASSERT_EQ(slow.run(), iss::StopReason::kHalted);
  expectSameState(iss, slow);
}

TEST(TraceDispatch, InstructionLimitStopsExactlyInsideHotTrace) {
  // The limit falls mid-way through what the trace engine executes as
  // superblocks: the engine must refuse whole traces/blocks that would
  // overshoot and step up to the precise instruction, like the
  // stepping engine.
  const elf::Object obj = trc::assemble(kNestedLoops);
  for (const uint64_t limit : {57u, 100u, 333u, 801u}) {
    SCOPED_TRACE("limit " + std::to_string(limit));
    iss::IssConfig fast_cfg = traceConfig();
    fast_cfg.max_instructions = limit;
    iss::Iss fast(defaultArch(), obj, nullptr, fast_cfg);
    EXPECT_EQ(fast.run(), iss::StopReason::kMaxInstructions);
    iss::IssConfig slow_cfg = steppingConfig();
    slow_cfg.max_instructions = limit;
    iss::Iss slow(defaultArch(), obj, nullptr, slow_cfg);
    EXPECT_EQ(slow.run(), iss::StopReason::kMaxInstructions);
    EXPECT_EQ(fast.stats().instructions, limit);
    expectSameState(fast, slow);
  }
}

TEST(TraceDispatch, QuantumSlicesYieldAtIdenticalBoundaries) {
  // runUntil must yield at the same block boundaries with the same
  // local time whether blocks run stepped, chained or inside traces —
  // including yields at trace-internal boundaries.
  const elf::Object obj = trc::assemble(kNestedLoops);
  iss::Iss fast(defaultArch(), obj, nullptr, traceConfig());
  iss::Iss slow(defaultArch(), obj, nullptr, steppingConfig());
  std::vector<std::pair<uint64_t, uint32_t>> fast_yields;
  std::vector<std::pair<uint64_t, uint32_t>> slow_yields;
  for (uint64_t t = 25;; t += 25) {
    const iss::StopReason r = fast.runUntil(t);
    if (r != iss::StopReason::kCycleLimit) {
      ASSERT_EQ(r, iss::StopReason::kHalted);
      break;
    }
    fast_yields.push_back({fast.localTime(), fast.pc()});
  }
  for (uint64_t t = 25;; t += 25) {
    const iss::StopReason r = slow.runUntil(t);
    if (r != iss::StopReason::kCycleLimit) {
      ASSERT_EQ(r, iss::StopReason::kHalted);
      break;
    }
    slow_yields.push_back({slow.localTime(), slow.pc()});
  }
  EXPECT_GT(fast.stats().trace_dispatches, 0u);
  EXPECT_EQ(fast_yields, slow_yields);
  expectSameState(fast, slow);
}

TEST(BreakpointFlags, BreakpointInTraceInteriorStopsExactly) {
  const elf::Object obj = trc::assemble(kNestedLoops);
  iss::Iss iss(defaultArch(), obj, nullptr, traceConfig());
  // Heat the loop until traces dominate, then plant a breakpoint
  // mid-way inside the (trace-interior) inner block.
  iss::IssConfig probe_cfg = traceConfig();
  iss::Iss counter(defaultArch(), obj, nullptr, probe_cfg);
  ASSERT_EQ(counter.run(), iss::StopReason::kHalted);
  ASSERT_GT(counter.stats().trace_dispatches, 0u);

  const uint32_t bp = 0x80000010;  // 'xor' inside the inner block
  iss.addBreakpoint(bp);
  uint64_t stops = 0;
  while (iss.run() == iss::StopReason::kDebugBreak) {
    EXPECT_EQ(iss.pc(), bp);
    ++stops;
    ASSERT_LT(stops, 1000u);
  }
  EXPECT_EQ(iss.stopReason(), iss::StopReason::kHalted);
  EXPECT_EQ(stops, 200u);  // every inner iteration crosses it

  // Breakpoints perturb nothing: final state equals an unbroken run.
  iss::Iss ref(defaultArch(), obj, nullptr, traceConfig());
  ASSERT_EQ(ref.run(), iss::StopReason::kHalted);
  expectSameState(iss, ref);
}

TEST(BreakpointFlags, DeclinedFormationRetriesAfterBreakpointRemoval) {
  // The hot block's dominant successor carries a breakpoint when the
  // head first crosses the trace threshold, so formation is declined.
  // A decline must not be permanent: after the breakpoint is removed,
  // the geometric-backoff retry forms the trace and the rest of the
  // run dispatches superblocks.
  const char* kProgram = R"(
_start: movi d5, 400
        movi d4, 0
loop:   add d1, d1, d5
        jnz16 d4, off
body:   addi16 d5, -1
        jnz16 d5, loop
        halt
off:    halt
)";
  const elf::Object obj = trc::assemble(kProgram);
  iss::Iss iss(defaultArch(), obj, nullptr, traceConfig());
  ASSERT_NE(obj.findSymbol("body"), nullptr);
  const uint32_t body = obj.findSymbol("body")->value;
  iss.addBreakpoint(body);
  for (int stops = 0; stops < 20; ++stops) {
    ASSERT_EQ(iss.run(), iss::StopReason::kDebugBreak);
    ASSERT_EQ(iss.pc(), body);
  }
  EXPECT_EQ(iss.stats().trace_dispatches, 0u);
  iss.removeBreakpoint(body);
  ASSERT_EQ(iss.run(), iss::StopReason::kHalted);
  EXPECT_GT(iss.stats().trace_dispatches, 0u);

  iss::Iss slow(defaultArch(), obj, nullptr, steppingConfig());
  ASSERT_EQ(slow.run(), iss::StopReason::kHalted);
  expectSameState(iss, slow);
}

// ---- threaded-code backend corner cases ------------------------------

TEST(ThreadedDispatch, LowersHotBlocksAndTracesAndStaysExact) {
  const elf::Object obj = trc::assemble(kNestedLoops);
  iss::Iss fast(defaultArch(), obj, nullptr, threadedConfig());
  ASSERT_EQ(fast.run(), iss::StopReason::kHalted);
  // The hot loop really ran through lowered programs — both the block
  // and trace flavours — not the interpreted fallback.
  EXPECT_GT(fast.stats().threaded_lowerings, 0u);
  EXPECT_GT(fast.stats().threaded_dispatches, 0u);
  EXPECT_GT(fast.stats().trace_dispatches, 0u);
  EXPECT_GT(fast.stats().threaded_instrs, fast.stats().instructions / 2);
  EXPECT_EQ(fast.stats().threaded_declined, 0u);

  iss::Iss slow(defaultArch(), obj, nullptr, steppingConfig());
  ASSERT_EQ(slow.run(), iss::StopReason::kHalted);
  expectSameState(fast, slow);
}

TEST(ThreadedDispatch, BreakpointOnLoweredBlockForcesFallback) {
  // The inner block is already lowered to a threaded program when the
  // breakpoint lands on it: the dispatch-time flag test must refuse the
  // lowered program (and the trace containing it) and fall back to the
  // stepping engine, without invalidating the lowering — removal
  // restores full threaded dispatch.
  const elf::Object obj = trc::assemble(kNestedLoops);
  iss::Iss iss(defaultArch(), obj, nullptr, threadedConfig());
  iss::IssConfig limit_cfg = threadedConfig();
  limit_cfg.max_instructions = 300;
  iss::Iss probe(defaultArch(), obj, nullptr, limit_cfg);
  EXPECT_EQ(probe.run(), iss::StopReason::kMaxInstructions);
  EXPECT_GT(probe.stats().threaded_dispatches, 0u);

  const uint32_t bp = 0x80000010;  // 'xor' inside the lowered inner block
  iss::Iss broken(defaultArch(), obj, nullptr, threadedConfig());
  broken.addBreakpoint(bp);
  uint64_t stops = 0;
  while (broken.run() == iss::StopReason::kDebugBreak) {
    EXPECT_EQ(broken.pc(), bp);
    if (++stops == 5 && broken.stats().threaded_dispatches > 0) {
      // Heated past the threshold mid-phase: the flagged block must
      // still never dispatch through its threaded program.
      break;
    }
    ASSERT_LT(stops, 1000u);
  }
  if (broken.stopReason() == iss::StopReason::kDebugBreak) {
    broken.removeBreakpoint(bp);
    const uint64_t threaded_before = broken.stats().threaded_dispatches;
    ASSERT_EQ(broken.run(), iss::StopReason::kHalted);
    EXPECT_GT(broken.stats().threaded_dispatches, threaded_before);
  } else {
    ASSERT_EQ(broken.stopReason(), iss::StopReason::kHalted);
    EXPECT_EQ(stops, 200u);  // every inner iteration crossed it
  }

  ASSERT_EQ(iss.run(), iss::StopReason::kHalted);
  expectSameState(broken, iss);
}

TEST(ThreadedDispatch, QuantumSliceExpiryMidProgramYieldsExactly) {
  // runUntil limits fall between the original block boundaries inside
  // lowered trace programs: the threaded dispatcher must yield at the
  // identical boundary, with the identical local time and pc, as the
  // stepping engine.
  const elf::Object obj = trc::assemble(kNestedLoops);
  iss::Iss fast(defaultArch(), obj, nullptr, threadedConfig());
  iss::Iss slow(defaultArch(), obj, nullptr, steppingConfig());
  std::vector<std::pair<uint64_t, uint32_t>> fast_yields;
  std::vector<std::pair<uint64_t, uint32_t>> slow_yields;
  for (uint64_t t = 25;; t += 25) {
    const iss::StopReason r = fast.runUntil(t);
    if (r != iss::StopReason::kCycleLimit) {
      ASSERT_EQ(r, iss::StopReason::kHalted);
      break;
    }
    fast_yields.push_back({fast.localTime(), fast.pc()});
  }
  for (uint64_t t = 25;; t += 25) {
    const iss::StopReason r = slow.runUntil(t);
    if (r != iss::StopReason::kCycleLimit) {
      ASSERT_EQ(r, iss::StopReason::kHalted);
      break;
    }
    slow_yields.push_back({slow.localTime(), slow.pc()});
  }
  EXPECT_GT(fast.stats().threaded_dispatches, 0u);
  EXPECT_EQ(fast_yields, slow_yields);
  expectSameState(fast, slow);
}

TEST(ThreadedDispatch, InstructionLimitTruncatesExactly) {
  // The admission check refuses whole lowered programs that would
  // overshoot max_instructions, stepping the remainder — the stop lands
  // on the precise instruction for every limit.
  const elf::Object obj = trc::assemble(kNestedLoops);
  for (const uint64_t limit : {57u, 100u, 333u, 801u}) {
    SCOPED_TRACE("limit " + std::to_string(limit));
    iss::IssConfig fast_cfg = threadedConfig();
    fast_cfg.max_instructions = limit;
    iss::Iss fast(defaultArch(), obj, nullptr, fast_cfg);
    EXPECT_EQ(fast.run(), iss::StopReason::kMaxInstructions);
    iss::IssConfig slow_cfg = steppingConfig();
    slow_cfg.max_instructions = limit;
    iss::Iss slow(defaultArch(), obj, nullptr, slow_cfg);
    EXPECT_EQ(slow.run(), iss::StopReason::kMaxInstructions);
    EXPECT_EQ(fast.stats().instructions, limit);
    expectSameState(fast, slow);
  }
}

TEST(ThreadedDispatch, IndirectJumpLeavesLoweredRegionExactly) {
  // An indirect jump lands in the middle of a block whose region is
  // already lowered: the landing is not a leader, so the dispatcher
  // must re-warm the stepping engine mid-block — with the pipeline
  // timer and icache line tracking replayed — before threaded dispatch
  // resumes at the next leader.
  const char* kProgram = R"(
_start: movi d5, 3
again:  movi d0, 30
body:   add d1, d1, d0
mid:    xor d2, d1, d5
        addi16 d0, -1
        jnz16 d0, body
        addi16 d5, -1
        jz16 d5, done
        movha a2, hi(mid)
        lea a2, a2, lo(mid)
        movi d0, 1
        ji a2
done:   halt
)";
  const elf::Object obj = trc::assemble(kProgram);
  iss::Iss fast(defaultArch(), obj, nullptr, threadedConfig());
  ASSERT_EQ(fast.run(), iss::StopReason::kHalted);
  EXPECT_GT(fast.stats().threaded_dispatches, 0u);
  iss::Iss slow(defaultArch(), obj, nullptr, steppingConfig());
  ASSERT_EQ(slow.run(), iss::StopReason::kHalted);
  expectSameState(fast, slow);
}

// ---- opcode coverage: every TRC32 opcode through every engine --------

// A looped program whose body executes every opcode except BKPT (which
// ends a run, so it gets its own program below). Results fold into a
// d0 checksum, memory and two bus devices — a free-running timer, whose
// value depends on the exact bus time of the read, and a scratch
// register file — so an opcode whose semantics, timing or bus
// interaction drifts in any engine shows up in the final state. The
// iteration counter d15 steers every conditional branch both ways, and
// the indirect jump lands on a leader (the fall-through of the `ji`), so
// no instruction is left to the mid-block stepping fallback.
const char* kEveryOpcode = R"(
_start: movi d15, 5
        movi d0, 0
        movha a0, hi(buf)
        lea a0, a0, lo(buf)
        movha a5, 0xf000
        lea a6, a5, 0x100
loop:   movi d1, -7
        add16 d1, d15
        movh d2, 0x8001
        add d3, d1, d2
        sub d4, d3, d0
        and d5, d3, d4
        or d6, d1, d5
        xor d7, d6, d3
        movi d8, 35
        shl d9, d1, d8
        shr d10, d1, d8
        sar d11, d1, d8
        mul d12, d3, d1
        eq d13, d1, d1
        ne d14, d1, d2
        add16 d0, d4
        add16 d0, d5
        add16 d0, d7
        add16 d0, d9
        add16 d0, d10
        add16 d0, d11
        add16 d0, d12
        add16 d0, d13
        add16 d0, d14
        lt d13, d1, d2
        ge d14, d1, d2
        add16 d0, d13
        add16 d0, d14
        ltu d13, d1, d2
        geu d14, d1, d2
        add16 d0, d13
        add16 d0, d14
        addi d5, d0, -300
        movi16 d6, -5
        addi16 d6, 7
        mov16 d7, d6
        sub16 d7, d1
        add16 d0, d5
        add16 d0, d7
        nop
        nop16
        mova a1, d7
        movd d8, a1
        adda a2, a0, a1
        suba a3, a2, a1
        stw d0, [a3]0
        sth d1, [a3]4
        stb d1, [a3]6
        ldw d9, [a0]0
        ldh d10, [a0]4
        ldhu d11, [a0]4
        ldb d12, [a0]6
        ldbu d13, [a0]6
        sta a2, [a0]8
        lda a4, [a0]8
        movd d14, a4
        add16 d0, d8
        add16 d0, d10
        add16 d0, d11
        add16 d0, d12
        add16 d0, d13
        add16 d0, d14
        ldw d9, [a5]0
        stw d0, [a6]4
        ldw d10, [a6]4
        add16 d0, d9
        sub16 d0, d10
        movi d13, 3
        jlt d15, d13, b1
        addi16 d0, 1
b1:     jge d15, d13, b2
        addi16 d0, 2
b2:     jltu d1, d13, b3
        addi16 d0, 3
b3:     jgeu d15, d13, b4
        addi16 d0, 4
b4:     jeq d15, d13, b5
        addi16 d0, 5
b5:     jne d15, d13, b6
        addi16 d0, 6
b6:     movi16 d12, 1
        and d12, d15, d12
        jz16 d12, b7
        addi16 d0, 7
b7:     jnz16 d12, b8
        addi16 d0, 8
b8:     jl sub1
        movha a7, hi(b9)
        lea a7, a7, lo(b9)
        ji a7
b9:     j b10
        addi16 d0, 10
b10:    j16 b11
        addi16 d0, 11
b11:    addi16 d15, -1
        movi d13, 0
        jne d15, d13, loop
        halt
sub1:   addi16 d0, 12
        ret16
        .data
buf:    .word 0, 0, 0
)";

const char* kBreakpointOpcode = R"(
_start: movi d0, 3
loop:   addi16 d1, 5
        addi16 d0, -1
        jnz16 d0, loop
        movi d2, 7
        bkpt
        movi d3, 9
        halt
)";

constexpr uint32_t kTimerBase = 0xf0000000;
constexpr uint32_t kScratchBase = 0xf0000100;

/// One core on a bus carrying the timer and scratch devices the
/// coverage program addresses.
struct CoverageRig {
  soc::SocBus bus;
  soc::TimerDevice timer;
  soc::ScratchDevice scratch;
  std::unique_ptr<iss::Iss> iss;

  CoverageRig(const elf::Object& obj, const iss::IssConfig& cfg) {
    bus.attach(&timer, kTimerBase, 0x10);
    bus.attach(&scratch, kScratchBase, 0x40);
    iss = std::make_unique<iss::Iss>(defaultArch(), obj, &bus, cfg);
    iss->enableBlockTrace(true);
  }
};

void expectSameArchitecture(const CoverageRig& got, const CoverageRig& ref) {
  const iss::Iss& a = *got.iss;
  const iss::Iss& b = *ref.iss;
  EXPECT_EQ(a.stopReason(), b.stopReason());
  EXPECT_EQ(a.pc(), b.pc());
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(a.d(i), b.d(i)) << "d" << i;
    EXPECT_EQ(a.a(i), b.a(i)) << "a" << i;
  }
  EXPECT_TRUE(a.memory().contentEquals(b.memory()));
  const iss::IssStats& s = a.stats();
  const iss::IssStats& r = b.stats();
  EXPECT_EQ(s.instructions, r.instructions);
  EXPECT_EQ(s.cycles, r.cycles);
  EXPECT_EQ(s.pipeline_cycles, r.pipeline_cycles);
  EXPECT_EQ(s.branch_extra, r.branch_extra);
  EXPECT_EQ(s.cache_penalty, r.cache_penalty);
  EXPECT_EQ(s.blocks, r.blocks);
  EXPECT_EQ(s.icache_accesses, r.icache_accesses);
  EXPECT_EQ(s.icache_misses, r.icache_misses);
  EXPECT_EQ(s.cond_branches, r.cond_branches);
  EXPECT_EQ(s.cond_taken, r.cond_taken);
  EXPECT_EQ(s.mispredicts, r.mispredicts);
  EXPECT_EQ(s.io_reads, r.io_reads);
  EXPECT_EQ(s.io_writes, r.io_writes);
  EXPECT_EQ(s.irqs_taken, r.irqs_taken);
  EXPECT_EQ(s.irq_entry_cycles, r.irq_entry_cycles);
  ASSERT_EQ(a.blockTrace().size(), b.blockTrace().size());
  for (size_t i = 0; i < a.blockTrace().size(); ++i) {
    const iss::BlockRecord& x = a.blockTrace()[i];
    const iss::BlockRecord& y = b.blockTrace()[i];
    EXPECT_EQ(x.addr, y.addr) << "block " << i;
    EXPECT_EQ(x.pipeline_cycles, y.pipeline_cycles) << "block " << i;
    EXPECT_EQ(x.branch_extra, y.branch_extra) << "block " << i;
    EXPECT_EQ(x.cache_penalty, y.cache_penalty) << "block " << i;
  }
  EXPECT_EQ(got.scratch.reg(1), ref.scratch.reg(1));
  ASSERT_EQ(got.bus.log().size(), ref.bus.log().size());
  for (size_t i = 0; i < got.bus.log().size(); ++i) {
    EXPECT_EQ(got.bus.log()[i].soc_cycle, ref.bus.log()[i].soc_cycle)
        << "transaction " << i;
    EXPECT_EQ(got.bus.log()[i].value, ref.bus.log()[i].value)
        << "transaction " << i;
  }
}

TEST(OpcodeCoverage, EveryOpcodeRunsBitIdenticallyOnEveryEngine) {
  const elf::Object main_obj = trc::assemble(kEveryOpcode);
  const elf::Object bkpt_obj = trc::assemble(kBreakpointOpcode);
  const struct {
    const elf::Object* obj;
    iss::StopReason stop;
  } programs[] = {{&main_obj, iss::StopReason::kHalted},
                  {&bkpt_obj, iss::StopReason::kBreakpoint}};

  // Executed-opcode set, collected by single-stepping the programs on
  // the per-instruction engine.
  std::set<trc::Opc> executed;
  for (const auto& p : programs) {
    iss::IssConfig cfg;
    cfg.use_block_cache = false;
    CoverageRig rig(*p.obj, cfg);
    std::map<uint32_t, trc::Opc> opc_at;
    for (const trc::Instr& in : rig.iss->blockGraph().instrs()) {
      opc_at[in.addr] = in.opc;
    }
    while (rig.iss->stopReason() == iss::StopReason::kRunning) {
      executed.insert(opc_at.at(rig.iss->pc()));
      rig.iss->step();
    }
    EXPECT_EQ(rig.iss->stopReason(), p.stop);
  }
  for (int o = static_cast<int>(trc::Opc::kAdd);
       o < static_cast<int>(trc::Opc::kOpcCount); ++o) {
    EXPECT_EQ(executed.count(static_cast<trc::Opc>(o)), 1u)
        << "opcode never executed: "
        << trc::opInfo(static_cast<trc::Opc>(o)).mnemonic;
  }

  const xlat::DetailLevel levels[] = {
      xlat::DetailLevel::kFunctional, xlat::DetailLevel::kStatic,
      xlat::DetailLevel::kBranchPredict, xlat::DetailLevel::kICache};
  const struct {
    iss::DispatchMode mode;
    const char* name;
  } modes[] = {{iss::DispatchMode::kLookup, "lookup"},
               {iss::DispatchMode::kChained, "chained"},
               {iss::DispatchMode::kChainedTraces, "traces"},
               {iss::DispatchMode::kThreaded, "threaded"}};
  for (const auto& p : programs) {
    for (const xlat::DetailLevel level : levels) {
      SCOPED_TRACE(std::string("level ") + xlat::detailLevelName(level) +
                   (p.obj == &bkpt_obj ? ", bkpt program" : ", main program"));
      iss::IssConfig ref_cfg;
      ref_cfg.use_block_cache = false;
      CoverageRig ref(*p.obj, platform::issConfigFor(level, ref_cfg));
      ASSERT_EQ(ref.iss->run(), p.stop);
      for (const auto& m : modes) {
        SCOPED_TRACE(m.name);
        iss::IssConfig cfg;
        cfg.dispatch_mode = m.mode;
        cfg.trace_threshold = 2;
        cfg.threaded_threshold = 2;
        CoverageRig rig(*p.obj, platform::issConfigFor(level, cfg));
        ASSERT_EQ(rig.iss->run(), p.stop);
        expectSameArchitecture(rig, ref);
        if (m.mode == iss::DispatchMode::kThreaded && p.obj == &main_obj) {
          // The loop body runs five times and lowers after two
          // dispatches: most of it retires inside threaded programs.
          EXPECT_GT(rig.iss->stats().threaded_instrs,
                    rig.iss->stats().instructions / 2);
        }
      }
      {
        // Thresholds of 0 lower every block on its first dispatch, so
        // the run-once tails — HALT, and the BKPT block that ends its
        // run — retire through their threaded handlers too.
        SCOPED_TRACE("threaded, thresholds 0");
        iss::IssConfig cfg;
        cfg.dispatch_mode = iss::DispatchMode::kThreaded;
        cfg.trace_threshold = 0;
        cfg.threaded_threshold = 0;
        CoverageRig rig(*p.obj, platform::issConfigFor(level, cfg));
        ASSERT_EQ(rig.iss->run(), p.stop);
        expectSameArchitecture(rig, ref);
        EXPECT_EQ(rig.iss->stats().threaded_instrs,
                  rig.iss->stats().instructions);
      }
    }
  }
}

TEST(BreakpointFlags, AddAndRemoveMidRunTogglesTraceUse) {
  const elf::Object obj = trc::assemble(kNestedLoops);
  iss::Iss iss(defaultArch(), obj, nullptr, traceConfig());
  const uint32_t bp = 0x80000010;

  // Phase 1: hot, traces active.
  iss::IssConfig limit_cfg = traceConfig();
  limit_cfg.max_instructions = 300;
  iss::Iss probe(defaultArch(), obj, nullptr, limit_cfg);
  EXPECT_EQ(probe.run(), iss::StopReason::kMaxInstructions);
  EXPECT_GT(probe.stats().trace_dispatches, 0u);

  // Phase 2: planting the breakpoint stops trace/block dispatch of the
  // flagged block; removing it restores full-speed dispatch and the
  // run completes identically to the never-broken reference.
  ASSERT_EQ(iss.run() == iss::StopReason::kHalted, true);
  iss::Iss broken(defaultArch(), obj, nullptr, traceConfig());
  broken.addBreakpoint(bp);
  ASSERT_EQ(broken.run(), iss::StopReason::kDebugBreak);
  EXPECT_EQ(broken.pc(), bp);
  broken.removeBreakpoint(bp);
  const uint64_t traces_before = broken.stats().trace_dispatches;
  ASSERT_EQ(broken.run(), iss::StopReason::kHalted);
  EXPECT_GT(broken.stats().trace_dispatches, traces_before);
  expectSameState(broken, iss);
}

}  // namespace
}  // namespace cabt

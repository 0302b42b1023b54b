// Cycle-accurate instruction-set simulator for TRC32.
//
// Plays the role of the paper's TriCore TC10GP evaluation board: the
// ground truth for both instruction counts and cycle counts that the
// translated code is compared against (paper section 4). The timing model
// is the architecture description's: dual-issue in-order pipeline that
// drains at basic-block boundaries, static backward-taken branch
// prediction, and a set-associative instruction cache (see DESIGN.md for
// the precise fetch rule).
//
// The engines: run() dispatches predecoded blocks from a core::BlockCache
// under one of four DispatchModes (address lookup, successor chaining,
// superblock traces, threaded code — see DESIGN.md sections 6 and 10),
// with the inner loops specialized by template on the timing/icache/
// branch-extra knobs; step() executes one instruction at a time and serves
// single stepping, the fallback for addresses that are not block leaders,
// the exact stop at the instruction limit, and the oracle every block
// engine is tested against. Whatever the engine, each decision is written
// once:
//   * an opcode's architectural effect is one semantics template
//     (Iss::semantics), instantiated by the interpreter's switch over
//     trc::Instr operands and by the threaded handlers over the
//     predecoded core::ThreadedOp operands; and
//   * the block-boundary epoch — lazy commit, observers, quantum yield,
//     fault poll, interrupt sample — is one member, boundaryEpoch(),
//     called by step(), every dispatch loop and the one trace walker.
// Block boundaries come from the same core::BlockGraph the translator
// consumes, so the reference and the translated image can never disagree
// about block structure. The engines are bit-identical in both
// architectural state and every architectural IssStats counter (checked
// by tests/random_program_test.cpp and by the every-opcode differential
// in tests/dispatch_test.cpp).
//
// Interrupts (soc::IrqSource, attached via attachIrq) are sampled at
// basic-block boundaries only, and debug breakpoints force the block
// engine back onto the stepping engine for the containing block — both
// rules keep the engines bit-identical under interrupts and debugging
// (see DESIGN.md, "IRQ-at-block-boundary rule"). runUntil() yields at
// boundaries once a local-time limit is reached; the event kernel
// (sim/kernel.h) uses it to run cores in quantum-bounded slices.
#pragma once

#include <cstdint>
#include <functional>
#include <iterator>
#include <memory>
#include <optional>
#include <set>
#include <unordered_map>
#include <utility>
#include <vector>

#include "arch/arch.h"
#include "arch/icache_model.h"
#include "arch/timing.h"
#include "common/serial.h"
#include "common/sparse_mem.h"
#include "core/block_cache.h"
#include "core/block_graph.h"
#include "core/coverage.h"
#include "elf/elf.h"
#include "fi/inject.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/trace.h"
#include "soc/bus.h"
#include "soc/interrupts.h"
#include "trc/isa.h"

namespace cabt::iss {

/// Total ThreadedOp records one core may lower (DispatchMode::kThreaded).
/// Exhaustion declines further lowerings permanently: hot code lowers
/// first, cold tails stay on the chained engine.
constexpr uint32_t kThreadedBudgetOps = 1u << 16;

/// A14 receives the return address on interrupt entry (the handler
/// returns with `ji a14` after signalling end-of-interrupt); programs
/// that take interrupts must keep A14 free.
constexpr int kIrqLinkRegister = 14;

enum class StopReason {
  kRunning,
  kHalted,
  kBreakpoint,      ///< BKPT instruction executed
  kMaxInstructions,
  kDebugBreak,      ///< stopped *at* a debug breakpoint; resumable
  kCycleLimit,      ///< runUntil() reached its local-time limit; resumable
};

struct IssStats {
  uint64_t instructions = 0;
  uint64_t cycles = 0;
  uint64_t pipeline_cycles = 0;   ///< cycles from the issue schedule alone
  uint64_t branch_extra = 0;      ///< branch-outcome extra cycles
  uint64_t cache_penalty = 0;     ///< instruction-cache miss cycles
  uint64_t blocks = 0;            ///< executed basic blocks
  uint64_t icache_accesses = 0;
  uint64_t icache_misses = 0;
  uint64_t cond_branches = 0;
  uint64_t cond_taken = 0;
  uint64_t mispredicts = 0;
  uint64_t io_reads = 0;
  uint64_t io_writes = 0;
  uint64_t irqs_taken = 0;        ///< interrupts accepted at block boundaries
  uint64_t irq_entry_cycles = 0;  ///< cycles charged for interrupt entry
  /// Blocks dispatched through the predecoded block cache (the rest ran
  /// on the per-instruction fallback engine). Not part of the
  /// architectural comparison between the two engines — nor are the
  /// dispatch-path counters below, which record *how* blocks were
  /// reached so the perf trajectory can explain why speed changed.
  uint64_t cached_blocks = 0;
  /// Dispatches whose block was resolved through a chained successor
  /// edge (no address lookup).
  uint64_t chain_hits = 0;
  /// Superblock (trace) entries, and blocks retired inside traces.
  uint64_t trace_dispatches = 0;
  uint64_t trace_blocks = 0;
  /// Early trace exits: the pc observed at an internal block boundary
  /// did not match the speculated next segment (branch went the
  /// non-dominant way, or an interrupt redirected control).
  uint64_t guard_bails = 0;
  /// Parallel-round accounting (also non-architectural): private slices
  /// run as worker-thread prefixes, and how many of them bailed to the
  /// sequential drain on a shared-bus touch before the quantum expired.
  uint64_t private_slices = 0;
  uint64_t private_bails = 0;
  /// Threaded-code backend accounting (DispatchMode::kThreaded, also
  /// non-architectural): programs entered (a lowered block or whole
  /// trace each count one), instructions retired inside them, lowerings
  /// performed, and lowerings declined by the op budget.
  uint64_t threaded_dispatches = 0;
  uint64_t threaded_instrs = 0;
  uint64_t threaded_lowerings = 0;
  uint64_t threaded_declined = 0;
};

/// One IssStats counter: its name (the metrics leaf, the snapshot path),
/// the member, and whether it is architectural — identical across
/// dispatch engines and kernels, so the rolling digest covers it. The
/// table is in declaration order, which is the snapshot order (a new
/// counter extends the end and bumps the snapshot format version); the
/// architectural counters come first.
struct IssStatsField {
  const char* name;
  uint64_t IssStats::*member;
  bool architectural;
};

inline constexpr IssStatsField kIssStatsFields[] = {
    {"instructions", &IssStats::instructions, true},
    {"cycles", &IssStats::cycles, true},
    {"pipeline_cycles", &IssStats::pipeline_cycles, true},
    {"branch_extra", &IssStats::branch_extra, true},
    {"cache_penalty", &IssStats::cache_penalty, true},
    {"blocks", &IssStats::blocks, true},
    {"icache_accesses", &IssStats::icache_accesses, true},
    {"icache_misses", &IssStats::icache_misses, true},
    {"cond_branches", &IssStats::cond_branches, true},
    {"cond_taken", &IssStats::cond_taken, true},
    {"mispredicts", &IssStats::mispredicts, true},
    {"io_reads", &IssStats::io_reads, true},
    {"io_writes", &IssStats::io_writes, true},
    {"irqs_taken", &IssStats::irqs_taken, true},
    {"irq_entry_cycles", &IssStats::irq_entry_cycles, true},
    {"cached_blocks", &IssStats::cached_blocks, false},
    {"chain_hits", &IssStats::chain_hits, false},
    {"trace_dispatches", &IssStats::trace_dispatches, false},
    {"trace_blocks", &IssStats::trace_blocks, false},
    {"guard_bails", &IssStats::guard_bails, false},
    {"private_slices", &IssStats::private_slices, false},
    {"private_bails", &IssStats::private_bails, false},
    {"threaded_dispatches", &IssStats::threaded_dispatches, false},
    {"threaded_instrs", &IssStats::threaded_instrs, false},
    {"threaded_lowerings", &IssStats::threaded_lowerings, false},
    {"threaded_declined", &IssStats::threaded_declined, false},
};
static_assert(std::size(kIssStatsFields) * sizeof(uint64_t) ==
                  sizeof(IssStats),
              "every IssStats counter needs a kIssStatsFields entry");

/// Block-dispatch strategy of the run()/runUntil() engine (only
/// meaningful while `use_block_cache` is true).
enum class DispatchMode {
  /// Address lookup per dispatched block (hash map + ordered-set leader
  /// probes) — the pre-chaining engine, kept verbatim as the measured
  /// baseline of bench_ablation_dispatch.
  kLookup,
  /// Successor chaining over the precomputed target/fall-through edges
  /// with an O(1) leader bitmap and template-specialized inner loops.
  kChained,
  /// kChained plus superblock trace formation for hot blocks.
  kChainedTraces,
  /// kChainedTraces plus threaded-code lowering: hot blocks and formed
  /// traces are lowered once into flat arrays of pre-bound host handler
  /// records (core/threaded.h) — zero per-instruction decode, no switch,
  /// no operand extraction on the hot path. All corrections stay at the
  /// original block boundaries, so the backend is bit-identical to
  /// step() at every detail level (DESIGN.md section 10).
  kThreaded,
};

struct IssConfig {
  bool model_timing = true;  ///< false = functional-only (no cycle counts)
  /// Detail-level knobs mirroring the translator's levels (see
  /// platform::issConfigFor); ignored when model_timing is false.
  /// model_branch_extras = false drops the dynamic branch-outcome cycles
  /// while keeping the outcome counters (cond_branches/mispredicts);
  /// model_icache = false disables the cache model entirely — no
  /// accesses, misses or penalty cycles are recorded.
  bool model_branch_extras = true;
  bool model_icache = true;
  /// false = force the per-instruction engine even in run() (the
  /// pre-block-cache behaviour; kept for differential testing and for
  /// debugger-style consumers that want stepping semantics throughout).
  bool use_block_cache = true;
  /// Block-dispatch strategy: threaded code, the fastest engine.
  /// kLookup/kChained/kChainedTraces exist for differential testing, the
  /// dispatch ablation and perfbench's fuzz_farm grid.
  DispatchMode dispatch_mode = DispatchMode::kThreaded;
  /// A block heads a superblock trace once dispatched this many times
  /// (kChainedTraces only). The formation limits are fixed: see
  /// core::TraceOptions.
  uint32_t trace_threshold = 64;
  /// A block is lowered into a threaded-code program once dispatched
  /// this many times (kThreaded only); formed traces are lowered on
  /// their next dispatch (they are already past trace_threshold). The
  /// per-core op budget is fixed: see kThreadedBudgetOps.
  uint32_t threaded_threshold = 16;
  uint64_t max_instructions = 500'000'000;
  /// Cycles charged when an interrupt is accepted (pipeline flush + the
  /// vector fetch), at the block boundary where it is taken.
  unsigned irq_entry_cycles = 6;
  /// Additional block leaders (interrupt handler entries — reached only
  /// through the vector register, invisible to static control flow).
  std::vector<uint32_t> extra_leaders;
};

/// Per-executed-block timing record (enabled on demand; used by accuracy
/// tests to localise any deviation).
struct BlockRecord {
  uint32_t addr = 0;
  uint32_t pipeline_cycles = 0;
  uint32_t branch_extra = 0;
  uint32_t cache_penalty = 0;
};

/// Hot-count entry: how often one basic block was dispatched, and how
/// it was reached (through a chained successor edge / inside a trace).
struct HotBlock {
  uint32_t addr = 0;
  uint32_t instr_count = 0;
  uint64_t exec_count = 0;
  uint64_t chain_entries = 0;
  uint64_t trace_execs = 0;
  /// Enclosing function ("wait", "mac+0x8", ...) resolved through the
  /// image's symbol table; "0x...." when the image carries no symbol
  /// covering the address.
  std::string symbol;
};

/// The threaded-code handler set (defined in iss.cpp), specialized per
/// (timing, branch-extras) with the icache touch baked per op at
/// lowering time; befriended so handlers mutate ISS state directly.
template <bool Timing, bool BranchX>
struct ThreadedHandlers;

class Iss {
 public:
  /// `bus` may be null when the program performs no I/O; the bus is
  /// clocked in lockstep with the modelled cycle count.
  Iss(const arch::ArchDescription& desc, const elf::Object& object,
      soc::SocBus* bus = nullptr, IssConfig config = {});

  /// Runs until HALT/BKPT, a debug breakpoint or the instruction limit,
  /// dispatching whole cached blocks when possible.
  StopReason run();
  /// Runs like run() but additionally yields with kCycleLimit once
  /// localTime() reaches `time_limit`, checked at basic-block boundaries
  /// (a slice may overshoot by the open block). This is the temporal-
  /// decoupling hook: a kernel-hosted core runs one quantum per
  /// activation and stays resumable.
  StopReason runUntil(uint64_t time_limit);
  /// Executes a single instruction (the per-instruction engine).
  StopReason step();

  /// Local time of this core: the modelled cycle count, or the retired
  /// instruction count in functional mode (model_timing = false), so
  /// functional cores still interleave and clock the bus deterministically.
  [[nodiscard]] uint64_t localTime() const;

  // -- private-footprint slices (the parallel kernel's worker-thread
  //    prefixes; see sim/kernel.h ParallelConfig and DESIGN.md §7) ------
  //
  // Between beginPrivateSlice() and commitPrivateSlice() the core runs
  // touching nothing outside itself: any instruction whose effective
  // address lands on the SoC bus yields *before* executing
  // (runUntil/step return kCycleLimit with bailedOnShared() true and the
  // pc resting on that instruction), and the block-boundary interrupt
  // samples — provably inert under the IrqSource::quiescent certificate
  // that privateSliceReady() requires — are skipped, with the bus-clock
  // advance each one would have made recorded instead. The slice is
  // therefore safe on a worker thread, and bit-identical to what the
  // sequential kernel would have executed up to the same point.

  /// True when the next quantum slice may start as a private prefix: the
  /// core is resumable and its interrupt input (if any) holds the
  /// quiescence certificate. Kernel-side: Process::parallelReady().
  [[nodiscard]] bool privateSliceReady() const {
    return stop_ == StopReason::kRunning &&
           (irq_ == nullptr || irq_->quiescent());
  }
  /// Enters private-slice mode (call privateSliceReady() first).
  void beginPrivateSlice();
  /// Leaves private-slice mode at the core's sequential dispatch slot:
  /// re-checks the certificate, then replays the recorded bus-clock
  /// advance — so the shared clock sees exactly the advanceTo() calls
  /// the sequential kernel would have issued, in dispatch order.
  /// Returns true when the slice bailed and the remainder must be run
  /// (sequentially) with another runUntil() to the same slice end.
  bool commitPrivateSlice();
  /// True after a private slice stopped on a would-be shared access.
  [[nodiscard]] bool bailedOnShared() const { return bailed_shared_; }

  /// Connects the core's interrupt input; sampled at every basic-block
  /// boundary (after the bus has been advanced to localTime()). On
  /// delivery: A14 = return PC, PC = vector, irq_entry_cycles charged.
  void attachIrq(soc::IrqSource* irq) { irq_ = irq; }

  /// Connects a fault injector (src/fi, DESIGN.md section 12), polled at
  /// basic-block boundaries through pollFaults() — the same due-time-
  /// ladder discipline as the interrupt sample and the PC sampler, so a
  /// scheduled fault lands at the identical boundary epoch across every
  /// dispatch engine, stepping, and the seq/par kernels. The injector is
  /// harness state: never serialized, never digested; nullptr detaches.
  void setInjector(fi::CoreInjector* injector) { injector_ = injector; }

  // -- observability hooks (src/obs, DESIGN.md section 11) --------------
  //
  // Observers are strictly read-only: enabling any of them cannot
  // change architectural state, IssStats, snap::digest, or bus traffic
  // — they record what happened, they never feed back. Disabled cost is
  // one null test per block boundary. Threading: under the parallel
  // kernel a core (and with it its sampler) runs on exactly one thread
  // at a time; the trace sink is only written from sequential-path code
  // — trace formation, guard bails and IRQ delivery cannot occur inside
  // a private slice (traces/threaded are off there and the interrupt
  // sample is skipped under the quiescence certificate).

  /// Routes this core's timeline events (IRQ delivery instants, trace
  /// formation, guard bails) to `sink` on lane `lane` (obs::coreLane).
  void setTraceSink(obs::TraceSink* sink, uint32_t lane) {
    trace_sink_ = sink;
    trace_lane_ = lane;
  }
  /// Attaches a guest PC sampler, polled at basic-block boundaries.
  void setSampler(obs::PcSampler* sampler) { sampler_ = sampler; }
  /// Attaches an edge-coverage map (core/coverage.h): every block-
  /// boundary epoch folds the (previous boundary pc, current pc)
  /// transfer into the map. Same observer contract as the sampler —
  /// read-only, never serialized, never digested; nullptr detaches and
  /// resets the edge chain.
  void setEdgeCoverage(core::EdgeCoverage* cov) {
    edge_cov_ = cov;
    cov_have_last_ = false;
  }
  /// Publishes every IssStats counter (plus a hot-block dispatch-count
  /// histogram) under `prefix` ("board.core0.iss").
  void publishMetrics(obs::MetricsRegistry& reg,
                      const std::string& prefix) const;
  /// The image's code-symbol index (always built; empty for symbol-less
  /// images). hotBlocks() and the profiler attribute through it.
  [[nodiscard]] const elf::SymbolIndex& symbols() const {
    return artifact_->symbols();
  }

  /// Debugger-style breakpoints: run()/step() stop with kDebugBreak
  /// *before* executing the instruction at `addr` (pc() == addr). The
  /// block engine refuses to dispatch any cached block — or any trace
  /// with a constituent block — containing a breakpoint and falls back
  /// to stepping, no matter how hot the block is. Both calls maintain
  /// the per-block `has_breakpoint` flags the dispatcher tests.
  /// Resuming (the next run()/step()) executes the instruction.
  void addBreakpoint(uint32_t addr);
  void removeBreakpoint(uint32_t addr);
  [[nodiscard]] const std::set<uint32_t>& breakpoints() const {
    return breakpoints_;
  }

  [[nodiscard]] uint32_t pc() const { return pc_; }
  /// Stop state of the last run()/runUntil()/step() (kRunning while the
  /// core is resumable, including after a kCycleLimit yield).
  [[nodiscard]] StopReason stopReason() const { return stop_; }
  [[nodiscard]] uint32_t d(int i) const { return d_.at(i); }
  [[nodiscard]] uint32_t a(int i) const { return a_.at(i); }
  void setPc(uint32_t pc) { pc_ = pc; }
  void setD(int i, uint32_t v) { d_.at(i) = v; }
  void setA(int i, uint32_t v) { a_.at(i) = v; }

  [[nodiscard]] const IssStats& stats() const { return stats_; }
  [[nodiscard]] SparseMemory& memory() { return mem_; }
  [[nodiscard]] const SparseMemory& memory() const { return mem_; }
  [[nodiscard]] const std::set<uint32_t>& leaders() const {
    return graph_.leaders();
  }
  [[nodiscard]] const core::BlockGraph& blockGraph() const { return graph_; }
  [[nodiscard]] const arch::ICacheState& icache() const { return icache_; }

  /// The `n` hottest blocks by dispatch count (block-cache engine only).
  [[nodiscard]] std::vector<HotBlock> hotBlocks(size_t n) const;

  /// Forces construction of the predecoded block cache now instead of
  /// lazily on the first run() dispatch. Decode-once cost is one-time
  /// per program; benchmarks call this to keep it out of the measured
  /// execution window.
  void prebuildBlockCache() { blockCache(); }

  void enableBlockTrace(bool on) { trace_blocks_ = on; }
  [[nodiscard]] const std::vector<BlockRecord>& blockTrace() const {
    return block_trace_;
  }

  // -- snapshot support (src/snap, DESIGN.md section 9) -----------------
  //
  // saveState captures everything the next instruction can observe:
  // architectural state (registers, pc, stop reason, memory) plus the
  // micro-architectural residue of the open block (pipeline scoreboard,
  // lazy-commit cycle accounting, icache tags/LRU, line tracking), the
  // full IssStats record and the debug state (breakpoint set, pending
  // step-over). The block graph, predecoded block cache and superblock
  // traces are host-side *derived* state — a pure function of the
  // immutable program image — and are never serialized: restoreState
  // revalidates what exists (per-block breakpoint flags recomputed from
  // the restored set) and anything missing rebuilds lazily, so a restore
  // into a cold process (no warm cache, no traces) reaches the same
  // architectural observables as the live core (tests/snap_test.cpp).
  // Not restorable mid-private-slice: saveState refuses while a parallel
  // prefix is open (the kernel never exposes that window between runs).

  void saveState(serial::Writer& w) const;
  void restoreState(serial::Reader& r);

 private:
  template <bool Timing, bool BranchX>
  friend struct ThreadedHandlers;

  /// The section body shared by saveState (snapshot and digest walks)
  /// and restoreState.
  template <class Self, class Ar>
  static void io(Self& self, Ar& ar);

  /// walkTrace() result meaning "yield with kCycleLimit now";
  /// non-negative results chain into the next block, -1 falls back to
  /// lookup/stepping.
  static constexpr int32_t kDispatchYield = -3;
  /// Time limit of run() and step(): never reached.
  static constexpr uint64_t kNoTimeLimit = ~static_cast<uint64_t>(0);

  const trc::Instr& fetch(uint32_t addr) const;
  void commitBlock();
  void finishBlock();
  /// Opens the timing record of a block starting at `addr`.
  void openBlock(uint32_t addr) {
    current_block_ = BlockRecord{};
    current_block_.addr = addr;
    in_block_ = true;
    ++stats_.blocks;
  }
  /// Block-entry bookkeeping of every cached dispatch (plain, trace
  /// segment, threaded): hot counts, plus the timing record when timed.
  void enterBlock(core::ExecBlock& block, bool timing) {
    ++block.exec_count;
    ++stats_.cached_blocks;
    if (timing) {
      openBlock(block.addr());
    }
  }
  /// The halt tail: HALT retires the open block and brings the bus clock
  /// to the final local time.
  void finishIfHalted() {
    if (stop_ == StopReason::kHalted) {
      finishBlock();
      syncBusClock();
    }
  }
  /// The block-boundary epoch, the one place its order is written down:
  /// lazy commit of the open block, the observers, the quantum-yield
  /// check, the fault poll, the interrupt sample. Returns false — pc_ on
  /// the leader, nothing after the observers done — when localTime()
  /// reached `time_limit`: the engine yields with kCycleLimit and runs
  /// the epoch again on resume, where the idempotent observers record
  /// nothing twice. Faults therefore land only at an epoch that does not
  /// yield (DESIGN.md section 12.2), and interrupts are accepted at the
  /// identical cycle count in every engine (section 5.2). Either may
  /// redirect pc_; callers holding a chained block re-check it.
  bool boundaryEpoch(uint64_t time_limit) {
    if (in_block_) {
      finishBlock();
    }
    observeBoundary();
    if (localTime() >= time_limit) {
      return false;
    }
    pollFaults();
    if (irq_ != nullptr) {
      maybeTakeIrq();
    }
    return true;
  }
  void dispatchBlock(core::ExecBlock& block);
  uint32_t loadMem(uint32_t addr, unsigned size, bool sign);
  void storeMem(uint32_t addr, uint32_t value, unsigned size);
  void syncBusClock();
  [[nodiscard]] uint64_t currentCycle() const;
  void execute(const trc::Instr& instr);
  /// The interpreter: a switch over the opcode into semantics<>, with
  /// the branch-extra config test resolved at compile time (BranchX =
  /// model_timing && model_branch_extras).
  template <bool BranchX>
  void executeT(const trc::Instr& instr);
  /// The architectural effect of opcode O, written once for every
  /// engine. `View` supplies the operands: decoded at run time from a
  /// trc::Instr (the interpreter) or precomputed at lowering in a
  /// core::ThreadedOp (the threaded handlers). Returns true when the
  /// instruction set pc_ itself (control transfer, HALT, BKPT); on false
  /// the caller owns the fall-through.
  template <trc::Opc O, bool BranchX, class View>
  bool semantics(const View& v);
  /// Conditional-branch outcome: counters, prediction check, the
  /// outcome extra (BranchX only) and the new pc.
  template <bool BranchX, class View>
  bool condBranch(const View& v, bool taken);
  /// Charges branch-outcome extra cycles to the open block.
  void chargeBranchExtra(unsigned extra) {
    committed_cycles_ += extra;
    stats_.branch_extra += extra;
    current_block_.branch_extra += extra;
  }
  /// One icache line-group touch: access + miss accounting. The tagged
  /// form takes the set/tag the block cache precomputed per line group.
  void icacheAccess(uint32_t addr);
  void icacheAccessTagged(uint32_t set, uint32_t want);
  StopReason runLoop(uint64_t time_limit);
  /// Resolves the (model_timing, icache-on, model_branch_extras) knobs
  /// into the matching runChainedT instantiation — the single dispatch
  /// ladder shared by normal runs (Bail=false) and private slices
  /// (Bail=true), so the two modes cannot drift apart.
  template <bool Bail>
  StopReason selectChainedT(uint64_t time_limit, bool traces,
                            bool threaded);
  /// The pre-chaining dispatch loop (DispatchMode::kLookup): address
  /// hash lookup + ordered-set leader probes per block. Kept verbatim as
  /// the measured baseline of the dispatch ablation.
  StopReason runLoopLookup(uint64_t time_limit);
  /// The chained engine, specialized on (model_timing, icache-on,
  /// model_branch_extras); `traces` enables superblock formation and
  /// `threaded` additionally lowers hot blocks/traces into threaded-code
  /// programs (DispatchMode::kThreaded; tested per block dispatch, never
  /// per instruction). `Bail` compiles in the private-slice shared-touch
  /// tests (the parallel prefix path); normal runs use the Bail=false
  /// instantiations, so no new test reaches the sequential hot path —
  /// and private slices never run threaded programs.
  template <bool Timing, bool ICache, bool BranchX, bool Bail = false>
  StopReason runChainedT(uint64_t time_limit, bool traces, bool threaded);
  /// dispatchBlock with the per-instruction config tests hoisted into
  /// template parameters.
  template <bool Timing, bool ICache, bool BranchX, bool Bail = false>
  void dispatchBlockT(core::ExecBlock& block);
  /// Interprets instructions [first, first + n) of a block's or trace's
  /// predecoded arrays: line-group touch, live pipeline cost, semantics,
  /// retirement; stops after HALT/BKPT. Under Bail, stops *before* an
  /// interior instruction that would touch the SoC bus, sets
  /// bailed_shared_ and returns its offset.
  template <bool Timing, bool ICache, bool BranchX, bool Bail>
  uint32_t interpretT(const core::Predecoded& code, uint32_t first,
                      uint32_t n);
  /// Runs segment `s` of a lowered program: back-to-back handler
  /// dispatches up to the record that ends the segment.
  void runThreaded(const core::ThreadedProgram& prog, size_t s) {
    const core::ThreadedOp* op = prog.ops.data() + prog.segs[s].first;
    while (op != nullptr) {
      op = op->fn(this, op);
    }
  }
  /// True when executing `in` right now would touch the SoC bus (its
  /// effective address — computable without side effects for every TRC32
  /// memory instruction — lands on a device window).
  [[nodiscard]] bool touchesShared(const trc::Instr& in) const;
  /// Rebuilds the stepping engine's warm view of the open block after
  /// its instructions [0, n) ran on a block engine: replayed issue
  /// schedule, live_pipe_ at their cost, line tracking at instruction
  /// n-1. Used when control leaves the block engine mid-block — an
  /// indirect jump into a block middle, a private-slice bail — so the
  /// per-instruction fallback resumes bit-exactly.
  void rewarmStepping(const core::ExecBlock& block, size_t n);
  /// Executes a superblock, one segment per constituent block through
  /// `run_segment(s)` (interpreted or threaded), with the boundary epoch
  /// and the guard between segments. Returns the chained next-block
  /// index, -1 (resolve via lookup/stepping) or kDispatchYield (quantum
  /// expired at an internal boundary). Sets *epoch_done when it bailed
  /// *after* running a boundary's epoch, so the caller runs each epoch
  /// exactly once.
  template <bool Timing, class RunSegment>
  int32_t walkTrace(core::Trace& trace, uint64_t time_limit,
                    bool* epoch_done, RunSegment run_segment);
  /// The handler table matching this core's configured detail level
  /// (handlers are bound per (timing, branch-extras) with the icache
  /// touch decided per op at lowering).
  [[nodiscard]] core::ThreadedBinder threadedBinder() const;
  /// Resolves the retired block's successor through its precomputed
  /// edges by comparing pc_ (no lookup); updates the outcome counters.
  int32_t resolveNext(core::ExecBlock& block);
  /// resolveNext plus the stepping-engine re-warm for indirect jumps
  /// landing mid-block.
  template <bool Timing>
  int32_t afterBlock(core::ExecBlock& block);
  /// True when any constituent block of `trace` holds a breakpoint.
  [[nodiscard]] bool traceHasBreakpoint(const core::Trace& trace) const;
  /// Recomputes the has_breakpoint flag of the block containing `addr`
  /// (no-op before the cache exists; the cache build replays the set).
  void refreshBreakpointFlag(uint32_t addr);
  /// Samples the interrupt input at a block boundary; may redirect pc_.
  void maybeTakeIrq();
  /// Block-boundary observability poll (part of boundaryEpoch()); the
  /// sampler's due-time ladder makes repeated calls at one local time
  /// idempotent, so yields and private-slice bails cannot double-count.
  void observeBoundary() {
    if (sampler_ != nullptr) {
      sampler_->sample(localTime(), pc_);
    }
    if (edge_cov_ != nullptr) {
      recordCoverage();
    }
  }
  /// The cold half of the coverage poll. localTime() strictly increases
  /// across retired blocks, so re-observing one epoch (quantum-yield
  /// resume, private-slice bail) sees an unchanged time and records
  /// nothing — the same idempotency the sampler gets from its due-time
  /// ladder.
  void recordCoverage() {
    const uint64_t now = localTime();
    if (cov_have_last_ && now == cov_last_time_) {
      return;
    }
    if (cov_have_last_) {
      edge_cov_->recordEdge(cov_last_pc_, pc_);
    }
    cov_have_last_ = true;
    cov_last_time_ = now;
    cov_last_pc_ = pc_;
  }
  /// Block-boundary fault-injection poll, run by boundaryEpoch() after
  /// the quantum-yield check. The ladder makes re-observation of one
  /// epoch idempotent — consumed faults never re-apply. Safe inside
  /// private slices: core faults touch only core-private state, and
  /// prefixes are real committed execution, so skipping them there would
  /// diverge seq/par.
  void pollFaults() {
    if (injector_ != nullptr && injector_->due(localTime())) {
      applyDueFaults();
    }
  }
  /// Applies every fault with cycle <= localTime(); the cold half of
  /// pollFaults().
  void applyDueFaults();
  /// Stops with kDebugBreak when pc_ sits on a breakpoint (once per
  /// arrival: a resume steps over it). Returns true when stopped.
  bool checkDebugBreak();
  [[nodiscard]] bool isLeader(uint32_t addr) const {
    return graph_.isLeaderFast(addr);
  }
  [[nodiscard]] bool icacheOn() const {
    return desc_.icache.enabled && config_.model_icache;
  }
  [[nodiscard]] bool blockHasBreakpoint(const core::ExecBlock& block) const;

  /// Builds the predecoded cache on first block-engine dispatch, so
  /// stepping-only and forced-per-instruction configurations never pay
  /// for it.
  core::BlockCache& blockCache();

  arch::ArchDescription desc_;
  IssConfig config_;
  soc::SocBus* bus_;
  soc::IrqSource* irq_ = nullptr;
  SparseMemory mem_;
  /// The shared, immutable decode of this core's image (held alive for
  /// the core's lifetime; every other core on the same image+config
  /// shares the same object through the ProgramArtifactCache).
  std::shared_ptr<const core::ProgramArtifact> artifact_;
  /// Alias for artifact_->graph(): the hot paths read block structure
  /// through it with zero indirection changes.
  const core::BlockGraph& graph_;
  std::unique_ptr<core::BlockCache> cache_;
  std::set<uint32_t> breakpoints_;
  /// Address whose breakpoint the next arrival skips (a resume must
  /// execute the instruction it stopped at; keyed by address so an
  /// interrupt redirect in between cannot consume the skip elsewhere).
  std::optional<uint32_t> skip_breakpoint_at_;

  std::array<uint32_t, 16> d_{};
  std::array<uint32_t, 16> a_{};
  uint32_t pc_ = 0;
  StopReason stop_ = StopReason::kRunning;

  // Timing state. Both engines keep `live_pipe_` equal to the issue-
  // schedule cycles of the currently open block: the stepping engine
  // mirrors its PipelineTimer, the block engine assigns the precomputed
  // cumulative cycles directly.
  arch::PipelineTimer timer_;
  arch::ICacheState icache_;
  uint64_t committed_cycles_ = 0;  ///< includes finished blocks + penalties
  uint64_t live_pipe_ = 0;         ///< pipeline cycles of the open block
  bool have_line_ = false;
  uint32_t last_line_ = 0;
  BlockRecord current_block_{};
  bool in_block_ = false;
  bool trace_blocks_ = false;
  std::vector<BlockRecord> block_trace_;

  // Private-slice (parallel prefix) state. `deferred_advance_` is the
  // local time of the latest bus-clock advance the slice *would* have
  // made (skipped interrupt samples, the halt-time sync); it is replayed
  // by commitPrivateSlice() at the core's sequential dispatch slot.
  bool private_mode_ = false;
  bool bailed_shared_ = false;
  uint64_t deferred_advance_ = 0;
  uint64_t skipped_samples_ = 0;

  // Fault injection (never serialized, never digested — harness state,
  // like the observability hooks below). `exec_ranges_` guards kMemWord
  // faults away from code: the predecoded block graph is built from the
  // image at construction and flipping instruction bytes would desync it
  // from memory.
  fi::CoreInjector* injector_ = nullptr;
  std::vector<std::pair<uint32_t, uint32_t>> exec_ranges_;  ///< [lo, hi)

  // Observability (never serialized, never digested — see the hook
  // comment above).
  obs::TraceSink* trace_sink_ = nullptr;
  uint32_t trace_lane_ = 0;
  obs::PcSampler* sampler_ = nullptr;
  core::EdgeCoverage* edge_cov_ = nullptr;
  uint64_t cov_last_time_ = 0;
  uint32_t cov_last_pc_ = 0;
  bool cov_have_last_ = false;

  IssStats stats_;
};

}  // namespace cabt::iss

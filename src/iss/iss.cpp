#include "iss/iss.h"

#include "common/bits.h"
#include "common/strutil.h"
#include "trc/program.h"

namespace cabt::iss {

using arch::OpClass;
using trc::Instr;
using trc::Opc;

Iss::Iss(const arch::ArchDescription& desc, const elf::Object& object,
         soc::SocBus* bus, IssConfig config)
    : desc_(desc),
      config_(config),
      bus_(bus),
      artifact_(core::ProgramArtifactCache::instance().acquire(
          desc, object, config.extra_leaders)),
      graph_(artifact_->graph()),
      timer_(desc_.pipeline),
      icache_(desc_.icache) {
  for (const elf::Section& s : object.sections) {
    if (s.kind == elf::SectionKind::kProgbits) {
      mem_.writeBlock(s.addr, s.data.data(), s.data.size());
    }
    // NOBITS sections read as zero in SparseMemory already.
    if (s.executable && s.sizeInMemory() > 0) {
      // Code ranges, so memory-word fault injection can refuse to flip
      // instruction bytes out from under the predecoded block graph.
      exec_ranges_.emplace_back(s.addr, s.addr + s.sizeInMemory());
    }
  }
  pc_ = object.entry;
}

core::BlockCache& Iss::blockCache() {
  if (cache_ == nullptr) {
    cache_ = std::make_unique<core::BlockCache>(artifact_);
    // Breakpoints planted before the first dispatch: replay them into
    // the per-block flags the dispatcher tests.
    for (const uint32_t addr : breakpoints_) {
      refreshBreakpointFlag(addr);
    }
  }
  return *cache_;
}

void Iss::refreshBreakpointFlag(uint32_t addr) {
  if (cache_ == nullptr) {
    return;  // the lazy cache build replays the whole set
  }
  const int32_t idx = graph_.blockIndexContaining(addr);
  if (idx < 0) {
    return;
  }
  core::ExecBlock& block = cache_->blocks()[static_cast<size_t>(idx)];
  block.has_breakpoint = blockHasBreakpoint(block) ? 1 : 0;
}

void Iss::addBreakpoint(uint32_t addr) {
  breakpoints_.insert(addr);
  refreshBreakpointFlag(addr);
}

void Iss::removeBreakpoint(uint32_t addr) {
  breakpoints_.erase(addr);
  refreshBreakpointFlag(addr);
}

bool Iss::traceHasBreakpoint(const core::Trace& trace) const {
  for (const core::TraceSegment& seg : trace.segs) {
    if (cache_->blocks()[static_cast<size_t>(seg.block)].has_breakpoint !=
        0) {
      return true;
    }
  }
  return false;
}

const Instr& Iss::fetch(uint32_t addr) const {
  const auto& by_addr = artifact_->instrByAddr();
  const auto it = by_addr.find(addr);
  CABT_CHECK(it != by_addr.end(),
             "PC " << hex32(addr) << " is not at an instruction boundary");
  return graph_.instrs()[it->second];
}

uint64_t Iss::currentCycle() const {
  return committed_cycles_ + live_pipe_;
}

uint64_t Iss::localTime() const {
  return config_.model_timing ? currentCycle() : stats_.instructions;
}

void Iss::syncBusClock() {
  if (bus_ == nullptr) {
    return;
  }
  if (private_mode_) {
    // Private slice: the advance is recorded, not performed — the shared
    // clock must only move at this core's sequential dispatch slot.
    // Monotone per core, so the latest time subsumes the earlier ones.
    deferred_advance_ = localTime();
    return;
  }
  // Lazy time advancement: devices jump to this core's local time in one
  // call. With decoupled initiators sharing the bus the call is a no-op
  // when another core already advanced it further (LT skew, bounded by
  // the kernel quantum).
  bus_->advanceTo(localTime());
}

void Iss::beginPrivateSlice() {
  CABT_CHECK(!private_mode_, "private slice already open");
  private_mode_ = true;
  bailed_shared_ = false;
  skipped_samples_ = 0;
  deferred_advance_ = 0;
  ++stats_.private_slices;
}

bool Iss::commitPrivateSlice() {
  CABT_CHECK(private_mode_, "no private slice open");
  private_mode_ = false;
  // The certificate (IrqSource::quiescent) justified skipping the
  // boundary samples; only a cross-core write to *this* core's interrupt
  // controller could have revoked it since — an access pattern the
  // parallel contract forbids. Fail loudly rather than diverge silently.
  if (skipped_samples_ > 0) {
    CABT_CHECK(irq_ != nullptr && irq_->quiescent(),
               "private-slice certificate revoked mid-round (cross-core "
               "interrupt-controller write?)");
  }
  if (bus_ != nullptr && deferred_advance_ > 0) {
    bus_->advanceTo(deferred_advance_);
  }
  const bool bailed = bailed_shared_;
  bailed_shared_ = false;
  if (bailed) {
    ++stats_.private_bails;
  }
  return bailed;
}

bool Iss::touchesShared(const trc::Instr& in) const {
  if (bus_ == nullptr) {
    return false;
  }
  switch (in.opc) {
    case Opc::kLdw:
    case Opc::kLdh:
    case Opc::kLdhu:
    case Opc::kLdb:
    case Opc::kLdbu:
    case Opc::kLda:
    case Opc::kStw:
    case Opc::kSth:
    case Opc::kStb:
    case Opc::kSta:
      // Every TRC32 memory instruction addresses a_[ra] + imm, so the
      // effective address is computable without executing anything.
      return bus_->covers(a_[in.ra] + static_cast<uint32_t>(in.imm));
    default:
      return false;
  }
}

void Iss::maybeTakeIrq() {
  if (irq_ == nullptr || stop_ != StopReason::kRunning) {
    return;
  }
  if (private_mode_) {
    // The quiescence certificate taken at privateSliceReady() guarantees
    // this sample returns nullopt whatever was raised meanwhile, and
    // stays valid until one of this core's own (bailing) bus writes.
    // Only its bus-clock advance is observable — record it for replay at
    // the sequential dispatch slot.
    ++skipped_samples_;
    syncBusClock();  // records the deferred advance in private mode
    return;
  }
  syncBusClock();  // interrupt state is sampled at this core's local time
  const std::optional<uint32_t> vector = irq_->takeIrq(localTime());
  if (!vector.has_value()) {
    return;
  }
  a_[kIrqLinkRegister] = pc_;
  pc_ = *vector;
  ++stats_.irqs_taken;
  if (config_.model_timing) {
    committed_cycles_ += config_.irq_entry_cycles;
    stats_.irq_entry_cycles += config_.irq_entry_cycles;
  }
  if (trace_sink_ != nullptr) {
    // Sequential path only: private slices returned above, so this
    // never runs on a worker thread.
    trace_sink_->instant(trace_lane_, "irq", localTime(), "vector", *vector);
  }
}

void Iss::applyDueFaults() {
  // Runs in private slices too: worker-thread prefixes are real committed
  // execution, so core-private faults must land there as well. Everything
  // below touches only core-private state (the kMemWord bus check is
  // covers(), which private mode may call); no trace-sink writes — the
  // campaign emits the timeline instants post-run from the fired log.
  const uint64_t now = localTime();
  while (const fi::CoreFault* f = injector_->take(now)) {
    fi::FiredFault rec;
    rec.fault = *f;
    rec.at = now;
    rec.pc = pc_;
    switch (f->kind) {
      case fi::CoreFaultKind::kDataReg:
        rec.before = d_[f->index];
        d_[f->index] ^= f->mask;
        rec.after = d_[f->index];
        break;
      case fi::CoreFaultKind::kAddrReg:
        rec.before = a_[f->index];
        a_[f->index] ^= f->mask;
        rec.after = a_[f->index];
        break;
      case fi::CoreFaultKind::kPc:
        rec.before = pc_;
        pc_ = f->mask != 0 ? pc_ ^ f->mask : f->addr;
        rec.after = pc_;
        break;
      case fi::CoreFaultKind::kMemWord: {
        CABT_CHECK(bus_ == nullptr || !bus_->covers(f->addr),
                   "memory fault at " << hex32(f->addr)
                                      << " targets a device window; use a "
                                         "bus-error or stall fault instead");
        for (const auto& [lo, hi] : exec_ranges_) {
          CABT_CHECK(f->addr < lo || f->addr >= hi,
                     "memory fault at " << hex32(f->addr)
                                        << " would corrupt code (executable "
                                           "range "
                                        << hex32(lo) << ".." << hex32(hi)
                                        << "); the block graph is immutable");
        }
        rec.before = mem_.read(f->addr, 4);
        rec.after = rec.before ^ f->mask;
        mem_.write(f->addr, rec.after, 4);
        break;
      }
    }
    injector_->recordFired(rec);
  }
}

bool Iss::checkDebugBreak() {
  if (skip_breakpoint_at_.has_value() && *skip_breakpoint_at_ == pc_) {
    // Resume over the breakpoint we stopped at: this call is immediately
    // followed by the instruction's execution. The skip is keyed to the
    // stop address so an interrupt redirecting pc_ to the handler first
    // (with its own breakpoint) still stops there, and the skip survives
    // until control returns to the original instruction.
    skip_breakpoint_at_.reset();
    return false;
  }
  if (breakpoints_.count(pc_) == 0) {
    return false;
  }
  stop_ = StopReason::kDebugBreak;
  skip_breakpoint_at_ = pc_;  // the resume executes this instruction
  return true;
}

bool Iss::blockHasBreakpoint(const core::ExecBlock& block) const {
  const auto it = breakpoints_.lower_bound(block.addr());
  return it != breakpoints_.end() && *it <= block.instrs().back().addr;
}

void Iss::icacheAccess(uint32_t addr) {
  ++stats_.icache_accesses;
  if (!icache_.access(addr)) {
    ++stats_.icache_misses;
    committed_cycles_ += desc_.icache.miss_penalty;
    stats_.cache_penalty += desc_.icache.miss_penalty;
    current_block_.cache_penalty += desc_.icache.miss_penalty;
  }
}

void Iss::icacheAccessTagged(uint32_t set, uint32_t want) {
  ++stats_.icache_accesses;
  if (!icache_.accessTagged(set, want)) {
    ++stats_.icache_misses;
    committed_cycles_ += desc_.icache.miss_penalty;
    stats_.cache_penalty += desc_.icache.miss_penalty;
    current_block_.cache_penalty += desc_.icache.miss_penalty;
  }
}

void Iss::commitBlock() {
  const uint64_t pipeline = live_pipe_;
  committed_cycles_ += pipeline;
  stats_.pipeline_cycles += pipeline;
  current_block_.pipeline_cycles = static_cast<uint32_t>(pipeline);
  if (trace_blocks_) {
    block_trace_.push_back(current_block_);
  }
  live_pipe_ = 0;
  in_block_ = false;
  stats_.cycles = committed_cycles_;
}

void Iss::finishBlock() {
  if (!in_block_) {
    return;
  }
  commitBlock();
  timer_.reset();
  have_line_ = false;
}

StopReason Iss::step() {
  if (stop_ == StopReason::kDebugBreak) {
    stop_ = StopReason::kRunning;  // resume over the breakpoint
  }
  if (stop_ != StopReason::kRunning) {
    return stop_;
  }
  if (stats_.instructions >= config_.max_instructions) {
    stop_ = StopReason::kMaxInstructions;
    return stop_;
  }
  // Basic-block boundary: the epoch runs here, so the stepping engine and
  // the block engines accept every interrupt and fault at the identical
  // cycle count. The stepping loop's quantum-yield check runs before
  // step() (before the lazy commit), so this epoch never yields.
  if (isLeader(pc_)) {
    boundaryEpoch(kNoTimeLimit);
  }
  if (checkDebugBreak()) {
    return stop_;
  }
  const Instr& instr = fetch(pc_);
  if (private_mode_ && touchesShared(instr)) {
    // Private-slice bail, before any of this step's state changes: the
    // pc rests on the offending instruction and the sequential drain
    // re-enters step() with a bit-identical core.
    bailed_shared_ = true;
    return StopReason::kCycleLimit;  // stop_ stays kRunning: resumable
  }

  if (config_.model_timing) {
    if (!in_block_ || isLeader(pc_)) {
      finishBlock();
      openBlock(pc_);
    }
    // Instruction fetch: one cache access per distinct consecutive line
    // within the block (the cache-analysis-block rule).
    if (icacheOn()) {
      const uint32_t line = desc_.icache.lineOf(pc_);
      if (!have_line_ || line != last_line_) {
        have_line_ = true;
        last_line_ = line;
        icacheAccess(pc_);
      }
    }
    timer_.issue(instr.timedOp());
    live_pipe_ = timer_.cycles();
  }

  execute(instr);
  ++stats_.instructions;
  finishIfHalted();
  return stop_;
}

void Iss::dispatchBlock(core::ExecBlock& block) {
  const bool timing = config_.model_timing;
  enterBlock(block, timing);
  const size_t n = block.instrs().size();
  for (size_t i = 0; i < n; ++i) {
    const Instr& instr = block.instrs()[i];
    if (timing) {
      if (icacheOn() && block.new_line()[i] != 0) {
        icacheAccess(instr.addr);
      }
      live_pipe_ = block.cum_cycles()[i];
    }
    execute(instr);
    ++stats_.instructions;
    if (stop_ != StopReason::kRunning) {
      break;  // HALT or BKPT mid-block; live_pipe_ holds the partial cost
    }
  }
  finishIfHalted();
}

void Iss::rewarmStepping(const core::ExecBlock& block, size_t n) {
  timer_.reset();
  for (size_t j = 0; j < n; ++j) {
    timer_.issue(block.instrs()[j].timedOp());
  }
  live_pipe_ = timer_.cycles();
  if (icacheOn()) {
    have_line_ = true;
    last_line_ = desc_.icache.lineOf(block.instrs()[n - 1].addr);
  }
}

template <bool Timing, bool ICache, bool BranchX, bool Bail>
uint32_t Iss::interpretT(const core::Predecoded& code, uint32_t first,
                         uint32_t n) {
  for (uint32_t i = 0; i < n; ++i) {
    const uint32_t k = first + i;
    if constexpr (Bail) {
      // i == 0 was tested by the caller before the block bookkeeping.
      if (i > 0 && touchesShared(code.instrs[k])) {
        bailed_shared_ = true;
        return i;
      }
    }
    if constexpr (ICache) {
      if (code.new_line[k] != 0) {
        icacheAccessTagged(code.line_set[k], code.line_tag[k]);
      }
    }
    if constexpr (Timing) {
      live_pipe_ = code.cum[k];
    }
    executeT<BranchX>(code.instrs[k]);
    ++stats_.instructions;
    if (stop_ != StopReason::kRunning) {
      break;  // HALT or BKPT mid-block; live_pipe_ holds the partial cost
    }
  }
  return n;
}

template <bool Timing, bool ICache, bool BranchX, bool Bail>
void Iss::dispatchBlockT(core::ExecBlock& block) {
  enterBlock(block, Timing);
  const uint32_t ran = interpretT<Timing, ICache, BranchX, Bail>(
      block.predecoded(), 0, static_cast<uint32_t>(block.instrs().size()));
  if constexpr (Bail) {
    if (bailed_shared_) {
      // Instructions [0, ran) executed and pc_ rests on the next one
      // (interior instructions are straight-line by block construction).
      // The icache touch of that instruction has not happened: step()
      // performs it iff it starts a new line — the block cache's
      // new_line rule — so the drain resumes mid-block bit-exactly.
      if constexpr (Timing) {
        rewarmStepping(block, ran);
      }
      return;
    }
  }
  finishIfHalted();
}

int32_t Iss::resolveNext(core::ExecBlock& block) {
  if (stop_ != StopReason::kRunning) {
    return -1;
  }
  const std::vector<core::ExecBlock>& blocks = cache_->blocks();
  if (block.target() >= 0 &&
      pc_ == blocks[static_cast<size_t>(block.target())].addr()) {
    ++block.taken_count;
    return block.target();
  }
  if (block.fall_through() >= 0 &&
      pc_ == blocks[static_cast<size_t>(block.fall_through())].addr()) {
    ++block.ft_count;
    return block.fall_through();
  }
  return -1;  // indirect target (or a transfer out of .text)
}

template <bool Timing>
int32_t Iss::afterBlock(core::ExecBlock& block) {
  const int32_t next = resolveNext(block);
  if constexpr (Timing) {
    if (next < 0 && stop_ == StopReason::kRunning &&
        !graph_.isLeaderFast(pc_)) {
      // Indirect transfer into the middle of a block: per-instruction
      // semantics keep the current block open across the jump.
      rewarmStepping(block, block.instrs().size());
    }
  }
  return next;
}

template <bool Timing, class RunSegment>
int32_t Iss::walkTrace(core::Trace& trace, uint64_t time_limit,
                       bool* epoch_done, RunSegment run_segment) {
  // Admission (runChainedT) guaranteed the whole trace fits the
  // instruction budget, so no budget test survives inside the trace.
  ++trace.dispatches;
  ++stats_.trace_dispatches;
  std::vector<core::ExecBlock>& blocks = cache_->blocks();
  const core::TraceSegment* segs = trace.segs.data();
  const size_t num_segs = trace.segs.size();
  for (size_t s = 0;; ++s) {
    core::ExecBlock& block = blocks[static_cast<size_t>(segs[s].block)];
    ++block.trace_execs;
    ++stats_.trace_blocks;
    enterBlock(block, Timing);
    run_segment(s);
    if (stop_ != StopReason::kRunning) {
      finishIfHalted();
      return -1;  // HALT or BKPT mid-block
    }
    if (s + 1 == num_segs) {
      return afterBlock<Timing>(block);  // chain off the trace end
    }
    // Original block boundary inside the trace: the epoch the outer loop
    // runs between two chained blocks, then the guard.
    if (!boundaryEpoch(time_limit)) {
      return kDispatchYield;  // resumable: pc_ rests on the next leader
    }
    if (pc_ != segs[s + 1].entry_addr) {
      // Guard failure: the branch went the non-dominant way, or a fault
      // or an interrupt redirected control. Bail to block granularity;
      // the actual successor may still chain. This boundary's epoch has
      // already run — the outer loop must not repeat it.
      ++stats_.guard_bails;
      if (trace_sink_ != nullptr) {
        trace_sink_->instant(trace_lane_, "guard_bail", localTime(), "addr",
                             block.addr());
      }
      *epoch_done = true;
      return resolveNext(block);
    }
  }
}

template <bool Timing, bool ICache, bool BranchX, bool Bail>
StopReason Iss::runChainedT(uint64_t time_limit, bool traces,
                            bool threaded) {
  core::BlockCache& cache = blockCache();
  std::vector<core::ExecBlock>& blocks = cache.blocks();
  const core::ThreadedBinder binder =
      threaded ? threadedBinder() : core::ThreadedBinder{};
  int32_t next_idx = -1;
  bool epoch_done = false;
  while (stop_ == StopReason::kRunning) {
    if (stats_.instructions >= config_.max_instructions) {
      stop_ = StopReason::kMaxInstructions;
      break;
    }
    if constexpr (Bail) {
      if (bailed_shared_) {
        return StopReason::kCycleLimit;  // set by the step() fallback
      }
    }
    core::ExecBlock* block =
        next_idx >= 0 ? &blocks[static_cast<size_t>(next_idx)] : nullptr;
    next_idx = -1;
    bool via_chain = block != nullptr;
    if (epoch_done) {
      // A trace bailed *after* running this boundary's epoch: resolve
      // the block and dispatch directly, the way the epoch branch below
      // would have continued.
      epoch_done = false;
      if (block == nullptr && !in_block_) {
        block = cache.lookup(pc_);
      }
    } else if (block != nullptr || graph_.isLeaderFast(pc_)) {
      // A chained successor is by construction a leader the pc has
      // already reached; otherwise one bitmap probe decides whether this
      // is a block boundary.
      if (!boundaryEpoch(time_limit)) {
        return StopReason::kCycleLimit;  // resumable: stop_ stays running
      }
      if (block != nullptr && pc_ != block->addr()) {
        // A fault or an interrupt redirected pc_ (the vector is a
        // leader too): the chained edge no longer holds.
        block = nullptr;
        via_chain = false;
      }
      if (block == nullptr && !in_block_) {
        block = cache.lookup(pc_);
      }
    }
    if (block != nullptr && !breakpoints_.empty() &&
        block->has_breakpoint != 0) {
      // Never dispatch a cached block containing a breakpoint, however
      // hot: the stepping fallback stops exactly on the breakpoint.
      block = nullptr;
    }
    if (block == nullptr || stats_.instructions + block->instrs().size() >
                                config_.max_instructions) {
      // Per-instruction fallback: mid-block landing addresses, blocks
      // with breakpoints and the final instructions before the
      // instruction limit.
      step();
      continue;
    }
    if constexpr (Bail) {
      // First instruction of the block, tested before any block-entry
      // bookkeeping: on a bail here the drain re-dispatches the whole
      // block from scratch. Interior instructions are tested inside
      // interpretT, and dispatchBlockT repairs the half-executed block.
      if (touchesShared(block->instrs()[0])) {
        bailed_shared_ = true;
        return StopReason::kCycleLimit;
      }
    }
    if (via_chain) {
      // Counted only for dispatches that actually go through the cache
      // (not chained arrivals refused for breakpoints or budget), so
      // chain_entries never exceeds exec_count.
      ++stats_.chain_hits;
      ++block->chain_entries;
    }
    if (traces) {
      if (block->trace == core::kTraceUnformed &&
          block->exec_count >= config_.trace_threshold &&
          block->exec_count >= block->trace_retry_at) {
        block->trace = cache.formTrace(
            static_cast<int32_t>(block - blocks.data()), core::TraceOptions{});
        if (trace_sink_ != nullptr && block->trace >= 0) {
          // Sequential path only: private slices run with traces off.
          trace_sink_->instant(trace_lane_, "trace_form", localTime(),
                               "addr", block->addr());
        }
        if (block->trace == core::kTraceDeclined) {
          // A refusal can be transient (breakpointed successor, not yet
          // skewed branch statistics): re-attempt with geometric
          // backoff instead of declining forever.
          block->trace = core::kTraceUnformed;
          block->trace_retry_at = block->exec_count * 2;
        }
      }
      if (block->trace >= 0) {
        core::Trace& trace =
            cache.traces()[static_cast<size_t>(block->trace)];
        if ((breakpoints_.empty() || !traceHasBreakpoint(trace)) &&
            stats_.instructions + trace.total_instrs <=
                config_.max_instructions) {
          if (threaded && trace.threaded == core::kTraceUnformed) {
            // A formed trace is hot by definition (it is past
            // trace_threshold dispatches): lower it on this entry.
            trace.threaded = cache.lowerTraceThreaded(block->trace, binder,
                                                      kThreadedBudgetOps);
            if (trace.threaded >= 0) {
              ++stats_.threaded_lowerings;
            } else {
              ++stats_.threaded_declined;
            }
          }
          const uint64_t before = stats_.instructions;
          if (threaded && trace.threaded >= 0) {
            const core::ThreadedProgram& prog = cache.threaded(trace.threaded);
            ++stats_.threaded_dispatches;
            next_idx = walkTrace<Timing>(trace, time_limit, &epoch_done,
                                         [&](size_t s) { runThreaded(prog, s); });
            stats_.threaded_instrs += stats_.instructions - before;
          } else {
            const core::Predecoded code = trace.predecoded();
            next_idx = walkTrace<Timing>(
                trace, time_limit, &epoch_done, [&](size_t s) {
                  interpretT<Timing, ICache, BranchX, false>(
                      code, trace.segs[s].first, trace.segs[s].count);
                });
          }
          if (next_idx == kDispatchYield) {
            return StopReason::kCycleLimit;
          }
          continue;
        }
      }
    }
    if (threaded) {
      if (block->threaded == core::kTraceUnformed &&
          block->exec_count >= config_.threaded_threshold) {
        block->threaded = cache.lowerBlockThreaded(
            static_cast<int32_t>(block - blocks.data()), binder,
            kThreadedBudgetOps);
        if (block->threaded >= 0) {
          ++stats_.threaded_lowerings;
        } else {
          ++stats_.threaded_declined;
        }
      }
      if (block->threaded >= 0) {
        const uint64_t before = stats_.instructions;
        ++stats_.threaded_dispatches;
        enterBlock(*block, Timing);
        runThreaded(cache.threaded(block->threaded), 0);
        finishIfHalted();
        stats_.threaded_instrs += stats_.instructions - before;
        next_idx = afterBlock<Timing>(*block);
        continue;
      }
    }
    dispatchBlockT<Timing, ICache, BranchX, Bail>(*block);
    if constexpr (Bail) {
      if (bailed_shared_) {
        // Mid-block bail: the block did not retire — the stepping view
        // is warm (dispatchBlockT) and the drain resumes via step().
        return StopReason::kCycleLimit;
      }
    }
    next_idx = afterBlock<Timing>(*block);
  }
  return stop_;
}

StopReason Iss::run() { return runLoop(kNoTimeLimit); }

StopReason Iss::runUntil(uint64_t time_limit) { return runLoop(time_limit); }

StopReason Iss::runLoop(uint64_t time_limit) {
  if (stop_ == StopReason::kDebugBreak) {
    stop_ = StopReason::kRunning;  // resume over the breakpoint
  }
  if (!config_.use_block_cache) {
    while (stop_ == StopReason::kRunning) {
      if (stats_.instructions >= config_.max_instructions) {
        stop_ = StopReason::kMaxInstructions;
        break;
      }
      // Quantum yields happen at the same boundaries as in the block
      // engines; step() then runs the rest of the boundary epoch. (The
      // stepping engine yields before the lazy commit, the block engines
      // after it: resumed runs are identical either way.)
      if (isLeader(pc_) && localTime() >= time_limit) {
        return StopReason::kCycleLimit;
      }
      step();
      if (bailed_shared_) {
        return StopReason::kCycleLimit;  // private-slice shared touch
      }
    }
    return stop_;
  }
  if (private_mode_) {
    // Private slices always run the Bail-instrumented chained engine
    // (without trace formation or threaded programs), whatever
    // dispatch_mode says: all engines are architecturally bit-identical,
    // and the sequential drain finishes the slice on the configured
    // engine.
    return selectChainedT<true>(time_limit, /*traces=*/false,
                                /*threaded=*/false);
  }
  if (config_.dispatch_mode == DispatchMode::kLookup) {
    return runLoopLookup(time_limit);
  }
  return selectChainedT<false>(
      time_limit, config_.dispatch_mode != DispatchMode::kChained,
      config_.dispatch_mode == DispatchMode::kThreaded);
}

template <bool Bail>
StopReason Iss::selectChainedT(uint64_t time_limit, bool traces,
                               bool threaded) {
  if (!config_.model_timing) {
    return runChainedT<false, false, false, Bail>(time_limit, traces,
                                                  threaded);
  }
  const bool with_extras = config_.model_branch_extras;
  if (icacheOn()) {
    return with_extras ? runChainedT<true, true, true, Bail>(
                             time_limit, traces, threaded)
                       : runChainedT<true, true, false, Bail>(
                             time_limit, traces, threaded);
  }
  return with_extras ? runChainedT<true, false, true, Bail>(
                           time_limit, traces, threaded)
                     : runChainedT<true, false, false, Bail>(
                           time_limit, traces, threaded);
}

StopReason Iss::runLoopLookup(uint64_t time_limit) {
  while (stop_ == StopReason::kRunning) {
    if (stats_.instructions >= config_.max_instructions) {
      stop_ = StopReason::kMaxInstructions;
      break;
    }
    // Deliberately the pre-chaining ordered-set probe, not the bitmap:
    // this loop is the dispatch ablation's measured baseline.
    const bool boundary = graph_.leaders().count(pc_) != 0;
    if (boundary && !boundaryEpoch(time_limit)) {
      return StopReason::kCycleLimit;  // resumable: stop_ stays running
    }
    core::ExecBlock* block = in_block_ ? nullptr : blockCache().lookup(pc_);
    if (block != nullptr && !breakpoints_.empty() &&
        block->has_breakpoint != 0) {
      // Never dispatch a cached block containing a breakpoint, however
      // hot: the stepping fallback stops exactly on the breakpoint.
      block = nullptr;
    }
    if (block == nullptr ||
        stats_.instructions + block->instrs().size() >
            config_.max_instructions) {
      // Per-instruction fallback: mid-block landing addresses, blocks
      // with breakpoints and the final instructions before the
      // instruction limit.
      step();
      continue;
    }
    dispatchBlock(*block);
    if (stop_ == StopReason::kRunning && config_.model_timing &&
        graph_.leaders().count(pc_) == 0) {
      // Indirect transfer into the middle of a block: per-instruction
      // semantics keep the current block open across the jump.
      rewarmStepping(*block, block->instrs().size());
    }
  }
  return stop_;
}

template <class Self, class Ar>
void Iss::io(Self& self, Ar& ar) {
  ar.hostOnly([&] {
    ar.tag("iss");
    // Compatibility record: the architectural configuration and a program
    // fingerprint. Restore requires an identical pair — a snapshot taken
    // at one detail level or of one program must not restore into another.
    // Dispatch mode / block-cache knobs are deliberately absent: they are
    // host-side strategy, and a snapshot moves freely between them.
    ar.expect(self.config_.model_timing, "detail level (timing)");
    ar.expect(self.config_.model_branch_extras,
              "detail level (branch extras)");
    ar.expect(self.icacheOn(), "detail level (icache)");
    ar.expect(self.config_.irq_entry_cycles, "irq entry cycles");
    ar.expect(self.config_.max_instructions, "instruction limit");
    // The artifact caches the fingerprint (same bytes as the
    // historical per-save computation, see program_artifact.cpp).
    ar.expect(self.artifact_->fingerprint(), "program fingerprint");
  });
  // Architectural core state.
  ar.field("pc", self.pc_);
  ar.enumeration("stop", self.stop_, StopReason::kCycleLimit);
  ar.fixed("d", self.d_);
  ar.fixed("a", self.a_);
  // Lazy-commit cycle accounting and the open block's residue.
  ar.fields("committed_cycles live_pipe in_block have_line",
            self.committed_cycles_, self.live_pipe_, self.in_block_,
            self.have_line_);
  // Untracked, the engines leave different stale residue behind.
  ar.liveField("last_line", self.last_line_, self.have_line_);
  auto& block = self.current_block_;
  ar.hostOnly([&] {
    ar.fields("block.addr block.pipeline_cycles block.branch_extra "
              "block.cache_penalty",
              block.addr, block.pipeline_cycles, block.branch_extra,
              block.cache_penalty);
  });
  ar.state(self.timer_);
  ar.state(self.icache_);
  for (const IssStatsField& f : kIssStatsFields) {
    if (f.architectural) {
      ar.field(f.name, self.stats_.*f.member);
    } else {
      ar.hostOnly([&] { ar.field(f.name, self.stats_.*f.member); });
    }
  }
  // Debug state: the breakpoint set and a pending step-over.
  ar.hostOnly([&] {
    ar.seq("breakpoints", self.breakpoints_,
           [&ar](auto& addr) { ar.field(addr); });
    ar.field("skip_breakpoint_at", self.skip_breakpoint_at_);
  });
  ar.state(self.mem_);
}

void Iss::saveState(serial::Writer& w) const {
  CABT_CHECK(!private_mode_,
             "cannot snapshot a core inside an open private slice");
  io(*this, w);
}

void Iss::restoreState(serial::Reader& r) {
  CABT_CHECK(!private_mode_,
             "cannot restore a core inside an open private slice");
  io(*this, r);
  // Derived-state revalidation: the predecoded cache (if one exists) is
  // still a valid decode of the immutable image, but its per-block
  // breakpoint flags mirror the old breakpoint set — recompute every one
  // from the restored set. Trace formation state (exec counts, formed
  // superblocks) and lowered threaded-code programs stay warm: neither
  // traces nor threaded programs ever dispatch through a flagged block
  // (the refusal is a dispatch-time flag test, not a lowering-time
  // decision), so correctness needs only the flags. A cold restore has
  // no cache at all and re-lowers lazily once blocks re-heat.
  if (cache_ != nullptr) {
    for (core::ExecBlock& block : cache_->blocks()) {
      block.has_breakpoint = blockHasBreakpoint(block) ? 1 : 0;
    }
  }
  // No private slice survives a snapshot boundary.
  bailed_shared_ = false;
  deferred_advance_ = 0;
  skipped_samples_ = 0;
}

std::vector<HotBlock> Iss::hotBlocks(size_t n) const {
  std::vector<HotBlock> out;
  if (cache_ == nullptr) {
    return out;  // the block engine never ran
  }
  for (const core::ExecBlock* b : cache_->hottest(n)) {
    out.push_back({b->addr(), static_cast<uint32_t>(b->instrs().size()),
                   b->exec_count, b->chain_entries, b->trace_execs,
                   artifact_->symbols().describe(b->addr())});
  }
  return out;
}

void Iss::publishMetrics(obs::MetricsRegistry& reg,
                         const std::string& prefix) const {
  auto set = [&](const char* leaf, uint64_t v) {
    reg.setCounter(prefix + leaf, v);
  };
  for (const IssStatsField& f : kIssStatsFields) {
    set(f.name, stats_.*f.member);
  }
  reg.setGauge(prefix + "local_time", static_cast<double>(localTime()));
  if (cache_ != nullptr) {
    for (const core::ExecBlock* b : cache_->hottest(SIZE_MAX)) {
      reg.observe(prefix + "block_exec_counts", b->exec_count);
    }
  }
}

uint32_t Iss::loadMem(uint32_t addr, unsigned size, bool sign) {
  uint32_t v;
  if (bus_ != nullptr && bus_->covers(addr)) {
    // Safety net: a private slice must have bailed before reaching here
    // (the engines test touchesShared() pre-execution).
    CABT_CHECK(!private_mode_, "bus read escaped the private-slice bail");
    syncBusClock();
    v = bus_->read(addr, size);
    ++stats_.io_reads;
  } else {
    v = mem_.read(addr, size);
  }
  if (sign && size < 4) {
    v = static_cast<uint32_t>(signExtend(v, size * 8));
  }
  return v;
}

void Iss::storeMem(uint32_t addr, uint32_t value, unsigned size) {
  if (bus_ != nullptr && bus_->covers(addr)) {
    CABT_CHECK(!private_mode_, "bus write escaped the private-slice bail");
    syncBusClock();
    bus_->write(addr, value, size);
    ++stats_.io_writes;
  } else {
    mem_.write(addr, value, size);
  }
}

void Iss::execute(const Instr& in) {
  // The stepping engine resolves the branch-extra knob per call; the
  // templated dispatch loops bind executeT<BranchX> directly so the test
  // is hoisted out of the per-instruction path entirely.
  if (config_.model_timing && config_.model_branch_extras) {
    executeT<true>(in);
  } else {
    executeT<false>(in);
  }
}

// ---- instruction semantics -------------------------------------------
//
// Every TRC32 opcode's architectural effect is written once, in
// Iss::semantics<O>. Two operand views feed it:
//   * InstrView reads a trc::Instr as decoded (the interpreter): MOVH/
//     MOVHA shift at run time, branch targets and outcome extras come
//     from the instruction and the arch::BranchModel per execution;
//   * OpView reads a core::ThreadedOp (the threaded handlers): the
//     pre-shifted immediate, the precomputed target and fall-through/
//     link address, and the outcome extras in x0/x1 — the same values,
//     computed once at lowering (core/threaded.cpp).
// The engines around it differ only in plumbing: the interpreter
// advances the pc after every fall-through instruction, the threaded
// handlers leave interior pcs unset (nothing observes them) and end the
// segment on every instruction that sets the pc.

/// Every opcode with semantics, in trc::Opc order. The interpreter's
/// switch and the threaded handler table are both expanded from it; the
/// static_assert below makes a new opcode without an entry a build error.
#define CABT_ISS_OPCODES(X)                                               \
  X(kAdd) X(kSub) X(kAnd) X(kOr) X(kXor) X(kShl) X(kShr) X(kSar) X(kMul)  \
  X(kEq) X(kNe) X(kLt) X(kGe) X(kLtu) X(kGeu) X(kAddi) X(kMovi) X(kMovh)  \
  X(kMova) X(kMovd) X(kLea) X(kMovha) X(kAdda) X(kSuba) X(kLdw) X(kLdh)   \
  X(kLdhu) X(kLdb) X(kLdbu) X(kLda) X(kStw) X(kSth) X(kStb) X(kSta)       \
  X(kJ) X(kJl) X(kJi) X(kJeq) X(kJne) X(kJlt) X(kJge) X(kJltu) X(kJgeu)   \
  X(kNop) X(kHalt) X(kBkpt) X(kNop16) X(kMov16) X(kAdd16) X(kSub16)       \
  X(kMovi16) X(kAddi16) X(kJnz16) X(kJz16) X(kJ16) X(kRet16)

#define CABT_ISS_COUNT(O) +1
static_assert(0 CABT_ISS_OPCODES(CABT_ISS_COUNT) ==
                  static_cast<int>(Opc::kOpcCount) - 1,
              "every TRC32 opcode needs an entry in CABT_ISS_OPCODES");
#undef CABT_ISS_COUNT

namespace {

struct InstrView {
  const Instr& in;
  const arch::BranchModel& bm;

  [[nodiscard]] uint8_t rd() const { return in.rd; }
  [[nodiscard]] uint8_t ra() const { return in.ra; }
  [[nodiscard]] uint8_t rb() const { return in.rb; }
  [[nodiscard]] uint32_t imm() const { return static_cast<uint32_t>(in.imm); }
  [[nodiscard]] uint32_t immHi() const { return imm() << 16; }
  [[nodiscard]] uint32_t target() const { return in.branchTarget(); }
  /// Fall-through, link and BKPT-continuation address.
  [[nodiscard]] uint32_t next() const { return in.addr + in.size; }
  /// Where HALT leaves the pc: on itself.
  [[nodiscard]] uint32_t self() const { return in.addr; }
  [[nodiscard]] bool predictedTaken() const {
    return arch::BranchModel::predictsTaken(in.imm);
  }
  [[nodiscard]] unsigned condExtra(bool taken) const {
    return bm.conditionalExtra(predictedTaken(), taken);
  }
  [[nodiscard]] unsigned uncondExtra() const {
    return bm.unconditionalExtra(in.cls());
  }
};

struct OpView {
  const core::ThreadedOp* op;

  [[nodiscard]] uint8_t rd() const { return op->rd; }
  [[nodiscard]] uint8_t ra() const { return op->ra; }
  [[nodiscard]] uint8_t rb() const { return op->rb; }
  [[nodiscard]] uint32_t imm() const { return op->a; }
  [[nodiscard]] uint32_t immHi() const { return op->a; }  // pre-shifted
  [[nodiscard]] uint32_t target() const { return op->b; }
  [[nodiscard]] uint32_t next() const { return op->a; }
  [[nodiscard]] uint32_t self() const { return op->a; }
  [[nodiscard]] bool predictedTaken() const {
    return (op->flags & core::ThreadedOp::kPredictedTaken) != 0;
  }
  [[nodiscard]] unsigned condExtra(bool taken) const {
    return taken ? op->x0 : op->x1;
  }
  [[nodiscard]] unsigned uncondExtra() const { return op->x0; }
};

}  // namespace

template <bool BranchX, class View>
inline bool Iss::condBranch(const View& v, bool taken) {
  ++stats_.cond_branches;
  const bool predicted = v.predictedTaken();
  if (taken) {
    ++stats_.cond_taken;
  }
  if (predicted != taken) {
    ++stats_.mispredicts;
  }
  if constexpr (BranchX) {
    chargeBranchExtra(v.condExtra(taken));
  }
  pc_ = taken ? v.target() : v.next();
  return true;
}

template <Opc O, bool BranchX, class View>
[[gnu::always_inline]] inline bool Iss::semantics(const View& v) {
  const auto sd = [](uint32_t x) { return static_cast<int32_t>(x); };
  if constexpr (O == Opc::kAdd) {
    d_[v.rd()] = d_[v.ra()] + d_[v.rb()];
  } else if constexpr (O == Opc::kSub) {
    d_[v.rd()] = d_[v.ra()] - d_[v.rb()];
  } else if constexpr (O == Opc::kAnd) {
    d_[v.rd()] = d_[v.ra()] & d_[v.rb()];
  } else if constexpr (O == Opc::kOr) {
    d_[v.rd()] = d_[v.ra()] | d_[v.rb()];
  } else if constexpr (O == Opc::kXor) {
    d_[v.rd()] = d_[v.ra()] ^ d_[v.rb()];
  } else if constexpr (O == Opc::kShl) {
    d_[v.rd()] = d_[v.ra()] << (d_[v.rb()] & 31);
  } else if constexpr (O == Opc::kShr) {
    d_[v.rd()] = d_[v.ra()] >> (d_[v.rb()] & 31);
  } else if constexpr (O == Opc::kSar) {
    d_[v.rd()] = static_cast<uint32_t>(sd(d_[v.ra()]) >> (d_[v.rb()] & 31));
  } else if constexpr (O == Opc::kMul) {
    d_[v.rd()] = d_[v.ra()] * d_[v.rb()];
  } else if constexpr (O == Opc::kEq) {
    d_[v.rd()] = d_[v.ra()] == d_[v.rb()] ? 1 : 0;
  } else if constexpr (O == Opc::kNe) {
    d_[v.rd()] = d_[v.ra()] != d_[v.rb()] ? 1 : 0;
  } else if constexpr (O == Opc::kLt) {
    d_[v.rd()] = sd(d_[v.ra()]) < sd(d_[v.rb()]) ? 1 : 0;
  } else if constexpr (O == Opc::kGe) {
    d_[v.rd()] = sd(d_[v.ra()]) >= sd(d_[v.rb()]) ? 1 : 0;
  } else if constexpr (O == Opc::kLtu) {
    d_[v.rd()] = d_[v.ra()] < d_[v.rb()] ? 1 : 0;
  } else if constexpr (O == Opc::kGeu) {
    d_[v.rd()] = d_[v.ra()] >= d_[v.rb()] ? 1 : 0;
  } else if constexpr (O == Opc::kAddi) {
    d_[v.rd()] = d_[v.ra()] + v.imm();
  } else if constexpr (O == Opc::kMovi || O == Opc::kMovi16) {
    d_[v.rd()] = v.imm();
  } else if constexpr (O == Opc::kMovh) {
    d_[v.rd()] = v.immHi();
  } else if constexpr (O == Opc::kMova) {
    a_[v.rd()] = d_[v.ra()];
  } else if constexpr (O == Opc::kMovd) {
    d_[v.rd()] = a_[v.ra()];
  } else if constexpr (O == Opc::kLea) {
    a_[v.rd()] = a_[v.ra()] + v.imm();
  } else if constexpr (O == Opc::kMovha) {
    a_[v.rd()] = v.immHi();
  } else if constexpr (O == Opc::kAdda) {
    a_[v.rd()] = a_[v.ra()] + a_[v.rb()];
  } else if constexpr (O == Opc::kSuba) {
    a_[v.rd()] = a_[v.ra()] - a_[v.rb()];
  } else if constexpr (O == Opc::kLdw) {
    d_[v.rd()] = loadMem(a_[v.ra()] + v.imm(), 4, false);
  } else if constexpr (O == Opc::kLdh) {
    d_[v.rd()] = loadMem(a_[v.ra()] + v.imm(), 2, true);
  } else if constexpr (O == Opc::kLdhu) {
    d_[v.rd()] = loadMem(a_[v.ra()] + v.imm(), 2, false);
  } else if constexpr (O == Opc::kLdb) {
    d_[v.rd()] = loadMem(a_[v.ra()] + v.imm(), 1, true);
  } else if constexpr (O == Opc::kLdbu) {
    d_[v.rd()] = loadMem(a_[v.ra()] + v.imm(), 1, false);
  } else if constexpr (O == Opc::kLda) {
    a_[v.rd()] = loadMem(a_[v.ra()] + v.imm(), 4, false);
  } else if constexpr (O == Opc::kStw) {
    storeMem(a_[v.ra()] + v.imm(), d_[v.rd()], 4);
  } else if constexpr (O == Opc::kSth) {
    storeMem(a_[v.ra()] + v.imm(), d_[v.rd()], 2);
  } else if constexpr (O == Opc::kStb) {
    storeMem(a_[v.ra()] + v.imm(), d_[v.rd()], 1);
  } else if constexpr (O == Opc::kSta) {
    storeMem(a_[v.ra()] + v.imm(), a_[v.rd()], 4);
  } else if constexpr (O == Opc::kJ || O == Opc::kJ16 || O == Opc::kJl ||
                       O == Opc::kJi || O == Opc::kRet16) {
    if constexpr (BranchX) {
      chargeBranchExtra(v.uncondExtra());
    }
    if constexpr (O == Opc::kJi) {
      pc_ = a_[v.ra()];
    } else if constexpr (O == Opc::kRet16) {
      pc_ = a_[trc::kLinkRegister];
    } else {
      if constexpr (O == Opc::kJl) {
        a_[trc::kLinkRegister] = v.next();
      }
      pc_ = v.target();
    }
    return true;
  } else if constexpr (O == Opc::kJeq) {
    return condBranch<BranchX>(v, d_[v.ra()] == d_[v.rb()]);
  } else if constexpr (O == Opc::kJne) {
    return condBranch<BranchX>(v, d_[v.ra()] != d_[v.rb()]);
  } else if constexpr (O == Opc::kJlt) {
    return condBranch<BranchX>(v, sd(d_[v.ra()]) < sd(d_[v.rb()]));
  } else if constexpr (O == Opc::kJge) {
    return condBranch<BranchX>(v, sd(d_[v.ra()]) >= sd(d_[v.rb()]));
  } else if constexpr (O == Opc::kJltu) {
    return condBranch<BranchX>(v, d_[v.ra()] < d_[v.rb()]);
  } else if constexpr (O == Opc::kJgeu) {
    return condBranch<BranchX>(v, d_[v.ra()] >= d_[v.rb()]);
  } else if constexpr (O == Opc::kJnz16) {
    return condBranch<BranchX>(v, d_[v.rd()] != 0);
  } else if constexpr (O == Opc::kJz16) {
    return condBranch<BranchX>(v, d_[v.rd()] == 0);
  } else if constexpr (O == Opc::kHalt) {
    stop_ = StopReason::kHalted;
    pc_ = v.self();
    return true;
  } else if constexpr (O == Opc::kBkpt) {
    stop_ = StopReason::kBreakpoint;
    pc_ = v.next();
    return true;
  } else if constexpr (O == Opc::kMov16) {
    d_[v.rd()] = d_[v.rb()];
  } else if constexpr (O == Opc::kAdd16) {
    d_[v.rd()] += d_[v.rb()];
  } else if constexpr (O == Opc::kSub16) {
    d_[v.rd()] -= d_[v.rb()];
  } else if constexpr (O == Opc::kAddi16) {
    d_[v.rd()] += v.imm();
  } else {
    static_assert(O == Opc::kNop || O == Opc::kNop16,
                  "opcode without semantics");
  }
  return false;
}

template <bool BranchX>
void Iss::executeT(const Instr& in) {
  const InstrView v{in, desc_.branch};
  bool transfer = false;
  switch (in.opc) {
#define CABT_ISS_INTERPRET(O)                 \
  case Opc::O:                                \
    transfer = semantics<Opc::O, BranchX>(v); \
    break;
    CABT_ISS_OPCODES(CABT_ISS_INTERPRET)
#undef CABT_ISS_INTERPRET
    default:
      CABT_FAIL("unhandled opcode in ISS: " << in.info().mnemonic);
  }
  if (!transfer) {
    pc_ = v.next();
  }
}

// ---- threaded-code backend (DispatchMode::kThreaded) -----------------
//
// One specialized host handler per opcode, in (Timing, BranchX) handler
// sets mirroring the runChainedT specialization ladder, with the icache
// line-group touch baked in per op at lowering (`Touch`: the block
// cache's new_line decision, so no runtime test survives). A handler is
// plumbing around semantics<O>: the per-instruction prologue of
// interpretT (line-group touch, live pipeline cost), the semantics over
// the op's predecoded operands, the retirement count; it returns the
// next record, or nullptr when the instruction set the pc (control
// transfer, HALT/BKPT) — which both ends the dispatch loop (no per-op
// stop-flag poll) and marks the original block boundary where the
// dispatcher applies every correction. The fall-through terminator
// returns nullptr too. Mid-block observables are preserved exactly:
// memory handlers see live_pipe_ already at this op's cumulative cost
// (the bus clock advances to localTime() on device access), the
// retirement count increments after the access (functional mode clocks
// the bus by instruction count), and icache penalties and branch extras
// go to committed_cycles_ as they accrue.

template <bool Timing, bool BranchX>
struct ThreadedHandlers {
  using Op = core::ThreadedOp;

  static Iss& cpu(void* p) { return *static_cast<Iss*>(p); }

  template <Opc O, bool Touch>
  static const Op* exec(void* p, const Op* op) {
    Iss& c = cpu(p);
    if constexpr (Touch) {
      c.icacheAccessTagged(op->line_set, op->line_tag);
    }
    if constexpr (Timing) {
      c.live_pipe_ = op->cum;
    }
    const bool transfer = c.semantics<O, BranchX>(OpView{op});
    ++c.stats_.instructions;
    return transfer ? nullptr : op + 1;
  }

  /// Fall-through terminator of a leader-split segment: no control
  /// transfer set the pc, so establish the precomputed continuation.
  static const Op* end(void* p, const Op* op) {
    cpu(p).pc_ = op->a;
    return nullptr;
  }

  template <bool Touch>
  static core::ThreadedFn selectT(Opc o) {
    switch (o) {
#define CABT_ISS_HANDLER(O) \
  case Opc::O:              \
    return &exec<Opc::O, Touch>;
      CABT_ISS_OPCODES(CABT_ISS_HANDLER)
#undef CABT_ISS_HANDLER
      default:
        CABT_FAIL("unhandled opcode in threaded lowering: "
                  << static_cast<int>(o));
    }
  }

  static core::ThreadedFn select(const trc::Instr& in, bool touch) {
    return touch ? selectT<true>(in.opc) : selectT<false>(in.opc);
  }
};

#undef CABT_ISS_OPCODES

core::ThreadedBinder Iss::threadedBinder() const {
  core::ThreadedBinder binder;
  // The same knob resolution as selectChainedT: functional mode never
  // touches the icache (and needs no extras), so the touch and the
  // handler set collapse together.
  if (!config_.model_timing) {
    binder.select = &ThreadedHandlers<false, false>::select;
    binder.end = &ThreadedHandlers<false, false>::end;
    binder.icache_on = false;
  } else if (config_.model_branch_extras) {
    binder.select = &ThreadedHandlers<true, true>::select;
    binder.end = &ThreadedHandlers<true, true>::end;
    binder.icache_on = icacheOn();
  } else {
    binder.select = &ThreadedHandlers<true, false>::select;
    binder.end = &ThreadedHandlers<true, false>::end;
    binder.icache_on = icacheOn();
  }
  return binder;
}

}  // namespace cabt::iss

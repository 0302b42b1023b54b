#include "platform/platform.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <thread>

#include "common/strutil.h"
#include "snap/snapshot.h"

namespace cabt::platform {

EmulationPlatform::EmulationPlatform(const arch::ArchDescription& desc,
                                     const elf::Object& image,
                                     PlatformConfig config)
    : config_(config) {
  const MemRegion* io = desc.memory_map.findNamed("io");
  CABT_CHECK(io != nullptr, "architecture has no 'io' region");
  board_ = std::make_unique<soc::StandardPeripherals>(io->base);
  sync_ = std::make_unique<soc::SyncDevice>(
      &board_->bus, config_.vliw_cycles_per_soc_cycle, &sim_.stats().cycles);
  sync_handler_ = std::make_unique<SyncHandler>(sync_.get());
  bridge_ = std::make_unique<BridgeHandler>(&board_->bus, sync_.get(),
                                            io->base, io->size);
  sim_.loadProgram(image);
  sim_.addIoHandler(sync_handler_.get());
  sim_.addIoHandler(bridge_.get());
}

RunResult EmulationPlatform::run() {
  RunResult r;
  r.state = sim_.run(config_.max_cycles);
  sync_->advanceBus();
  r.vliw_cycles = sim_.stats().cycles;
  r.generated_cycles = sync_->totalGenerated();
  r.sync_stall_cycles = sim_.stats().stall_cycles;
  r.correction_cycles = sync_->correctionTotal();
  return r;
}

iss::IssConfig issConfigFor(xlat::DetailLevel level, iss::IssConfig base) {
  switch (level) {
    case xlat::DetailLevel::kFunctional:
      base.model_timing = false;
      break;
    case xlat::DetailLevel::kStatic:
      base.model_branch_extras = false;
      base.model_icache = false;
      break;
    case xlat::DetailLevel::kBranchPredict:
      base.model_icache = false;
      break;
    case xlat::DetailLevel::kICache:
      break;
  }
  return base;
}

uint32_t symbolAddr(const elf::Object& object, std::string_view symbol) {
  const elf::Symbol* sym = object.findSymbol(symbol);
  CABT_CHECK(sym != nullptr, "no symbol '" << std::string(symbol) << "'");
  return sym->value;
}

/// One ISS core as an event-kernel process: runs until its local time
/// reaches the next quantum boundary, then syncs; finishes (and stops
/// rescheduling) on any non-resumable stop.
///
/// Under the parallel-round kernel the core additionally offers its
/// quantum slice as a private prefix (Iss::beginPrivateSlice): the
/// worker thread runs the slice until it would touch the shared bus,
/// and activate() — at the core's unchanged sequential dispatch slot —
/// commits the prefix (replaying the recorded bus-clock advance) and
/// finishes any bailed remainder in normal mode. Either way the
/// sequence of shared-state accesses is exactly the sequential one.
class ReferenceBoard::CoreProcess : public sim::Process {
 public:
  CoreProcess(iss::Iss* core, std::string name)
      : sim::Process(std::move(name)), core_(core) {}

  /// Wire before run(): the sink pointer is read from worker threads
  /// during prefixes, so it must not change while the kernel runs.
  void setTraceSink(obs::TraceSink* sink, uint32_t lane) {
    sink_ = sink;
    lane_ = lane;
  }

  void activate(sim::Kernel& kernel) override {
    const uint64_t t0 = core_->localTime();
    iss::StopReason r;
    if (prefix_ran_) {
      prefix_ran_ = false;
      if (sink_ != nullptr && !prefix_buf_.empty()) {
        // Sequential slot: the merge rides the same happens-before edge
        // (the pool's round barrier) that already publishes the
        // prefix's architectural state.
        sink_->setThreadName(prefix_lane_, prefix_lane_name_);
        sink_->merge(prefix_buf_);
      }
      r = prefix_result_;
      if (core_->commitPrivateSlice()) {
        r = core_->runUntil(slice_end_);  // finish the bailed remainder
      }
    } else {
      r = core_->runUntil(core_->localTime() + kernel.quantum());
    }
    if (sink_ != nullptr) {
      // With a prefix, t0 is the prefix's end point: the worker lane
      // shows the speculative part, this span the committed remainder.
      sink_->complete(lane_, "slice", t0, core_->localTime() - t0);
    }
    if (r == iss::StopReason::kCycleLimit) {
      kernel.sync(this, core_->localTime());
    }
  }

  [[nodiscard]] bool parallelReady() const override {
    return core_->privateSliceReady();
  }

  void parallelPrefix(sim::Cycle quantum) override {
    // The same slice-end formula activate() uses, so the prefix and a
    // sequential activation run the identical slice.
    slice_end_ = core_->localTime() + quantum;
    const uint64_t t0 = core_->localTime();
    core_->beginPrivateSlice();
    prefix_result_ = core_->runUntil(slice_end_);
    prefix_ran_ = true;
    if (sink_ != nullptr) {
      // Worker thread: everything below is process-private scratch; the
      // shared sink is only touched at the sequential merge above.
      const unsigned worker = sim::currentWorkerId();
      prefix_lane_ = obs::workerLane(worker);
      prefix_lane_name_ = "prefix runner " + std::to_string(worker);
      prefix_buf_.complete(prefix_lane_, "prefix", t0,
                           core_->localTime() - t0, "core", lane_);
    }
  }

 private:
  iss::Iss* core_;
  bool prefix_ran_ = false;
  iss::StopReason prefix_result_ = iss::StopReason::kRunning;
  uint64_t slice_end_ = 0;
  obs::TraceSink* sink_ = nullptr;
  uint32_t lane_ = 0;
  obs::TraceSink::Buffer prefix_buf_;
  uint32_t prefix_lane_ = 0;
  std::string prefix_lane_name_;
};

ReferenceBoard::ReferenceBoard(const arch::ArchDescription& desc,
                               const elf::Object& object,
                               iss::IssConfig config) {
  BoardConfig cfg;
  cfg.iss = std::move(config);
  // A lone initiator is exactly quantum-invariant; a large quantum just
  // minimises kernel overhead.
  cfg.quantum = 65'536;
  init(desc, {&object}, cfg);
}

ReferenceBoard::ReferenceBoard(const arch::ArchDescription& desc,
                               const std::vector<const elf::Object*>& images,
                               BoardConfig config) {
  init(desc, images, config);
}

void ReferenceBoard::init(const arch::ArchDescription& desc,
                          const std::vector<const elf::Object*>& images,
                          const BoardConfig& config) {
  CABT_CHECK(!images.empty(), "reference board needs at least one core");
  const MemRegion* io = desc.memory_map.findNamed("io");
  CABT_CHECK(io != nullptr, "architecture has no 'io' region");
  kernel_.setQuantum(config.quantum);
  kernel_.setParallel(config.parallel);
  board_ = std::make_unique<soc::StandardPeripherals>(io->base);
  ptimer_ = std::make_unique<soc::ProgrammableTimer>();
  mailbox_ = std::make_unique<soc::MailboxDevice>();
  // Board-level devices go onto the bus through fault proxies, like the
  // StandardPeripherals ports. The proxies forward everything (name,
  // registers, snapshot bytes); internal wiring — doorbells, IRQ routing,
  // attachIrq — deliberately stays on the raw devices: a stall models a
  // hung *bus interface*, not a dead device.
  ptimer_port_ = std::make_unique<fi::FaultProxy>(ptimer_.get());
  mailbox_port_ = std::make_unique<fi::FaultProxy>(mailbox_.get());
  board_->bus.attach(ptimer_port_.get(),
                     io->base + soc::StandardIoMap::kPTimerOffset,
                     soc::StandardIoMap::kPTimerSize);
  board_->bus.attach(mailbox_port_.get(),
                     io->base + soc::StandardIoMap::kMailboxOffset,
                     soc::StandardIoMap::kMailboxSize);
  if (config.watchdog) {
    watchdog_ = std::make_unique<fi::WatchdogDevice>();
    watchdog_port_ = std::make_unique<fi::FaultProxy>(watchdog_.get());
    board_->bus.attach(watchdog_port_.get(),
                       io->base + soc::StandardIoMap::kWatchdogOffset,
                       soc::StandardIoMap::kWatchdogSize);
    // The fire callback only flags; runTo() acts on the flag between
    // chunks (it runs inside a bus advance, mid-kernel-run).
    watchdog_->setOnFire([this](uint64_t) { watchdog_fire_pending_ = true; });
  }
  for (size_t i = 0; i < images.size(); ++i) {
    auto intc = std::make_unique<soc::InterruptController>(
        "intc" + std::to_string(i));
    board_->bus.attach(intc.get(),
                       io->base + soc::StandardIoMap::kIntcOffset +
                           static_cast<uint32_t>(i) *
                               soc::StandardIoMap::kIntcStride,
                       soc::InterruptController::kWindowSize);
    mailbox_->setDoorbell(i,
                          [raw = intc.get()] { raw->raise(kMailboxIrqLine); });
    auto core =
        std::make_unique<iss::Iss>(desc, *images[i], &board_->bus, config.iss);
    core->attachIrq(intc.get());
    intcs_.push_back(std::move(intc));
    cores_.push_back(std::move(core));
  }
  ptimer_->setIrqTarget(intcs_.front().get(), kPTimerIrqLine);
  if (watchdog_ != nullptr) {
    watchdog_->setIrqTarget(intcs_.front().get(), kWatchdogIrqLine);
  }
  proxies_ = {&board_->timer_port, &board_->chardev_port,
              &board_->scratch_port, ptimer_port_.get(), mailbox_port_.get()};
  if (watchdog_port_ != nullptr) {
    proxies_.push_back(watchdog_port_.get());
  }
  for (size_t i = 0; i < cores_.size(); ++i) {
    procs_.push_back(std::make_unique<CoreProcess>(
        cores_[i].get(), "core" + std::to_string(i)));
    kernel_.addProcess(procs_.back().get());
  }
}

ReferenceBoard::~ReferenceBoard() = default;

sim::Process* ReferenceBoard::process(size_t i) const {
  return procs_.at(i).get();
}

void ReferenceBoard::attachInjector(size_t i, fi::CoreInjector* injector) {
  cores_.at(i)->setInjector(injector);
}

fi::FaultProxy* ReferenceBoard::faultProxy(const std::string& name) {
  for (fi::FaultProxy* p : proxies_) {
    if (p->name() == name) {
      return p;
    }
  }
  CABT_FAIL("no fault-proxied device named '" << name << "'");
}

fi::WatchdogDevice& ReferenceBoard::watchdog() {
  CABT_CHECK(watchdog_ != nullptr,
             "board built without a watchdog (BoardConfig::watchdog)");
  return *watchdog_;
}

void ReferenceBoard::setExpectedTrail(
    std::vector<std::pair<sim::Cycle, uint64_t>> trail) {
  expected_trail_ = std::move(trail);
}

void ReferenceBoard::setTraceSink(obs::TraceSink* sink) {
  trace_sink_ = sink;
  kernel_.setTraceSink(sink);
  for (size_t i = 0; i < cores_.size(); ++i) {
    cores_[i]->setTraceSink(sink, obs::coreLane(i));
    procs_[i]->setTraceSink(sink, obs::coreLane(i));
  }
  if (sink != nullptr) {
    for (size_t i = 0; i < cores_.size(); ++i) {
      sink->setThreadName(obs::coreLane(i), "core" + std::to_string(i));
    }
    sink->setThreadName(obs::kKernelLane, "kernel rounds");
    sink->setThreadName(obs::kSnapLane, "snapshots");
  }
}

void ReferenceBoard::attachSampler(size_t i, obs::PcSampler* sampler) {
  cores_.at(i)->setSampler(sampler);
}

void ReferenceBoard::attachEdgeCoverage(size_t i, core::EdgeCoverage* cov) {
  cores_.at(i)->setEdgeCoverage(cov);
}

uint64_t ReferenceBoard::instructionsRetired() const {
  uint64_t total = 0;
  for (const auto& core : cores_) {
    total += core->stats().instructions;
  }
  return total;
}

void ReferenceBoard::publishMetrics(obs::MetricsRegistry& reg,
                                    const std::string& prefix) const {
  for (size_t i = 0; i < cores_.size(); ++i) {
    cores_[i]->publishMetrics(reg,
                              prefix + "core" + std::to_string(i) + ".iss.");
  }
  kernel_.publishMetrics(reg, prefix + "kernel.");
  board_->bus.publishMetrics(reg, prefix + "bus.");
  reg.setCounter(prefix + "snap.checkpoints_retained", checkpoints_.size());
  reg.setCounter(prefix + "snap.trail_length", digest_trail_.size());
  if (!digest_trail_.empty()) {
    reg.setGauge(prefix + "snap.last_checkpoint_cycle",
                 static_cast<double>(digest_trail_.back().first));
  }
  reg.setCounter(prefix + "fi.recoveries", recoveries_);
  reg.setCounter(prefix + "fi.divergences", divergences_);
  reg.setCounter(prefix + "fi.bus_fault_fires", board_->bus.busFaultFires());
  uint64_t stalled_reads = 0;
  uint64_t stalled_writes = 0;
  for (const fi::FaultProxy* p : proxies_) {
    stalled_reads += p->stalledReads();
    stalled_writes += p->stalledWrites();
  }
  reg.setCounter(prefix + "fi.device_stalled_reads", stalled_reads);
  reg.setCounter(prefix + "fi.device_stalled_writes", stalled_writes);
  if (watchdog_ != nullptr) {
    reg.setCounter(prefix + "fi.watchdog_fired", watchdog_->fired());
  }
}

void ReferenceBoard::setCheckpointing(const CheckpointConfig& config) {
  CABT_CHECK(config.interval == 0 || config.ring >= 1,
             "checkpoint ring must retain at least one snapshot");
  checkpoint_ = config;
  checkpoints_.clear();
  digest_trail_.clear();
}

bool ReferenceBoard::takeCheckpoint(sim::Cycle cycle) {
  const uint64_t digest = snap::digest(*this);
  if (!expected_trail_.empty()) {
    // Divergence detection: the entry a known-good run recorded at this
    // cycle must match. A cycle with no trail entry at all (the run kept
    // going past the certified horizon, e.g. a hung guest) counts as
    // diverged too. A diverged snapshot is not retained — keeping it
    // would hand recover() a poisoned fallback.
    const auto it = std::lower_bound(
        expected_trail_.begin(), expected_trail_.end(), cycle,
        [](const auto& e, sim::Cycle c) { return e.first < c; });
    if (it == expected_trail_.end() || it->first != cycle ||
        it->second != digest) {
      ++divergences_;
      if (trace_sink_ != nullptr) {
        trace_sink_->instant(obs::kSnapLane, "divergence", cycle, "trail",
                             digest_trail_.size());
      }
      return true;
    }
  }
  Checkpoint cp;
  cp.cycle = cycle;
  cp.digest = digest;
  if (checkpoint_.dir.empty()) {
    cp.data = snap::save(*this);
  } else {
    cp.path = checkpoint_.dir + "/cp_" + std::to_string(cycle) + ".snap";
    snap::saveFile(*this, cp.path);
  }
  checkpoints_.push_back(std::move(cp));
  while (checkpoints_.size() > checkpoint_.ring) {
    if (!checkpoints_.front().path.empty()) {
      std::remove(checkpoints_.front().path.c_str());
    }
    checkpoints_.pop_front();
  }
  digest_trail_.emplace_back(cycle, checkpoints_.back().digest);
  if (checkpoint_hook_) {
    checkpoint_hook_(checkpoints_.back());
  }
  if (trace_sink_ != nullptr) {
    // Between run() chunks, so the sequential path the sink requires.
    trace_sink_->instant(obs::kSnapLane, "checkpoint", cycle, "trail",
                         digest_trail_.size());
  }
  return false;
}

sim::Cycle ReferenceBoard::runTo(sim::Cycle limit) {
  if (checkpoint_.interval == 0) {
    return kernel_.run(limit);
  }
  // Interval-sized chunks. Chunking is behaviour-neutral: the kernel
  // dispatches the identical (time, insertion) order whether run() is
  // called once or per chunk (sequential trivially; parallel rounds
  // because every shared access drains at its sequential slot anyway).
  // Each chunk boundary lies strictly above the earliest pending event,
  // so every iteration dispatches at least one event.
  while (!kernel_.idle() && kernel_.nextEventAt() <= limit) {
    const sim::Cycle base = std::max(kernel_.now(), kernel_.nextEventAt());
    sim::Cycle next =
        base - base % checkpoint_.interval + checkpoint_.interval;
    if (next < base) {  // overflow near the end of the timebase
      next = limit;
    }
    const sim::Cycle chunk = std::min(next, limit);
    kernel_.run(chunk);
    bool diverged = false;
    if (!kernel_.idle()) {
      diverged = takeCheckpoint(chunk);
    }
    if ((diverged || watchdog_fire_pending_) && recovery_.auto_recover &&
        recoveries_ < recovery_.max_recoveries) {
      // Graceful degradation between chunks: rewind to the newest intact
      // ring entry and replay. A consumed one-shot fault does not
      // re-fire, so the replayed timeline converges on the clean run; a
      // deterministic hang recovers identically every time, which is why
      // max_recoveries bounds the loop (beyond it the board runs on
      // degraded).
      const RecoveryReport rep = recover();
      CABT_CHECK(rep.recovered,
                 "auto-recovery exhausted the snapshot ring: " << rep.detail);
      continue;  // resume from the restored (earlier) time
    }
    if (chunk >= limit) {
      break;
    }
  }
  return kernel_.now();
}

RecoveryReport ReferenceBoard::recover() {
  RecoveryReport rep;
  for (auto it = checkpoints_.rbegin(); it != checkpoints_.rend(); ++it) {
    ++rep.entries_tried;
    // Load the bytes: spilled entries get bounded I/O retries with
    // doubling backoff; an unreadable file counts as corrupt and falls
    // through to the next-older entry.
    std::vector<uint8_t> data;
    if (it->path.empty()) {
      data = it->data;
    } else {
      bool read_ok = false;
      unsigned backoff = recovery_.backoff_ms;
      for (size_t attempt = 0; attempt < recovery_.io_attempts; ++attempt) {
        if (attempt > 0) {
          ++rep.io_retries;
          if (backoff > 0) {
            std::this_thread::sleep_for(std::chrono::milliseconds(backoff));
            backoff *= 2;
          }
        }
        std::ifstream in(it->path, std::ios::binary);
        if (!in.good()) {
          continue;
        }
        data.assign(std::istreambuf_iterator<char>(in),
                    std::istreambuf_iterator<char>());
        if (in.good() || in.eof()) {
          read_ok = true;
          break;
        }
      }
      if (!read_ok) {
        ++rep.entries_corrupt;
        rep.detail += "cp@" + std::to_string(it->cycle) + ": unreadable; ";
        continue;
      }
    }
    // snap::restore is transactional: an entry it rejects (a bad footer,
    // or a footer-valid image a layer refuses) leaves the board as it was.
    try {
      snap::restore(*this, data);
    } catch (const Error& e) {
      ++rep.entries_corrupt;
      rep.detail += "cp@" + std::to_string(it->cycle) + ": " + e.what() + "; ";
      continue;
    }
    const uint64_t digest = snap::digest(*this);
    if (digest != it->digest) {
      ++rep.entries_diverged;
      rep.detail += "cp@" + std::to_string(it->cycle) + ": digest mismatch; ";
      continue;
    }
    if (!expected_trail_.empty()) {
      // When divergence detection is armed, only rewind to a point the
      // known-good trail certifies: an entry checkpointed after the run
      // left the certified timeline restores fine and reproduces its own
      // recorded digest, but resuming there would replay the failure.
      const auto t = std::lower_bound(
          expected_trail_.begin(), expected_trail_.end(), it->cycle,
          [](const auto& e, sim::Cycle c) { return e.first < c; });
      if (t == expected_trail_.end() || t->first != it->cycle ||
          t->second != digest) {
        ++rep.entries_diverged;
        rep.detail +=
            "cp@" + std::to_string(it->cycle) + ": off the expected trail; ";
        continue;
      }
    }
    // Restored and verified: discard the invalidated newer timeline.
    const sim::Cycle cycle = it->cycle;  // erase invalidates `it`
    checkpoints_.erase(it.base(), checkpoints_.end());
    while (!digest_trail_.empty() && digest_trail_.back().first > cycle) {
      digest_trail_.pop_back();
    }
    watchdog_fire_pending_ = false;
    ++recoveries_;
    rep.recovered = true;
    rep.resume_cycle = cycle;
    rep.digest = digest;
    if (trace_sink_ != nullptr) {
      trace_sink_->instant(obs::kSnapLane, "recover", cycle, "tried",
                           rep.entries_tried);
    }
    return rep;
  }
  if (rep.detail.empty()) {
    rep.detail = "snapshot ring is empty";
  }
  return rep;
}

iss::StopReason ReferenceBoard::run() {
  runTo(sim::kForever);
  for (const std::unique_ptr<iss::Iss>& core : cores_) {
    if (core->stopReason() != iss::StopReason::kHalted) {
      return core->stopReason();
    }
  }
  return iss::StopReason::kHalted;
}

bool valuesMatch(const arch::ArchDescription& desc, uint32_t iss_value,
                 uint32_t platform_value) {
  if (iss_value == platform_value) {
    return true;
  }
  const MemRegion* region = desc.memory_map.find(iss_value);
  return region != nullptr && region->remap(iss_value) == platform_value;
}

std::string compareFinalState(const arch::ArchDescription& desc,
                              const iss::Iss& reference,
                              const EmulationPlatform& platform,
                              const elf::Object& source_object) {
  for (int i = 0; i < 16; ++i) {
    const uint32_t want = reference.d(i);
    const uint32_t got = platform.srcD(i);
    if (!valuesMatch(desc, want, got)) {
      return "d" + std::to_string(i) + ": reference " + hex32(want) +
             " vs platform " + hex32(got);
    }
  }
  for (int i = 0; i < 16; ++i) {
    const uint32_t want = reference.a(i);
    const uint32_t got = platform.srcA(i);
    if (!valuesMatch(desc, want, got)) {
      return "a" + std::to_string(i) + ": reference " + hex32(want) +
             " vs platform " + hex32(got);
    }
  }
  // Compare writable memory over the source image's data/bss sections, at
  // their remapped target locations.
  for (const elf::Section& s : source_object.sections) {
    if (!s.writable) {
      continue;
    }
    const MemRegion* region = desc.memory_map.find(s.addr);
    for (uint32_t off = 0; off < s.sizeInMemory(); ++off) {
      const uint32_t src_addr = s.addr + off;
      const uint32_t tgt_addr =
          region != nullptr ? region->remap(src_addr) : src_addr;
      const uint8_t want = reference.memory().read8(src_addr);
      const uint8_t got = platform.sim().memory().read8(tgt_addr);
      if (want != got) {
        return "memory " + s.name + "+" + std::to_string(off) +
               " (src " + hex32(src_addr) + "): reference " +
               std::to_string(want) + " vs platform " + std::to_string(got);
      }
    }
  }
  return {};
}

}  // namespace cabt::platform

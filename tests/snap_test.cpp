// Differential conformance fleet for the checkpoint/restore subsystem
// (src/snap, DESIGN.md section 9).
//
// The claim under test: a snapshot is the *complete* observable state of
// the platform. For every detail level, every dispatch mode and both
// kernels (sequential and parallel rounds),
//
//   run-to-T, save, continue          (the saved board)
//   fresh board, restore, continue    (a cold process: no warm block
//                                      cache, no superblock traces)
//   halted board, restore, continue   (a warm process re-restored)
//
// all reach observables bit-identical to one uninterrupted run: cycles,
// registers, memory checksums, IRQ delivery timestamps, the full bus
// transaction log, device state and the rolling state digest. The cold
// path is the hard part — it proves the predecoded block caches and
// traces really are derived state that rebuilds to the same
// architectural behaviour.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/serial.h"
#include "platform/platform.h"
#include "snap/snapshot.h"
#include "soc/bus.h"
#include "workloads/workloads.h"

namespace cabt {
namespace {

struct GridBoard {
  std::vector<const workloads::Workload*> programs;
  std::vector<elf::Object> images;
  std::vector<const elf::Object*> image_ptrs;
  std::vector<uint32_t> extra_leaders;
};

GridBoard makeBoard(const std::vector<std::string>& names) {
  GridBoard b;
  for (const std::string& name : names) {
    b.programs.push_back(&workloads::get(name));
  }
  for (const workloads::Workload* w : b.programs) {
    b.images.push_back(workloads::assemble(*w));
    if (!w->irq_handler.empty()) {
      b.extra_leaders.push_back(
          platform::symbolAddr(b.images.back(), w->irq_handler));
    }
  }
  for (const elf::Object& obj : b.images) {
    b.image_ptrs.push_back(&obj);
  }
  return b;
}

struct RunConfig {
  xlat::DetailLevel level = xlat::DetailLevel::kICache;
  iss::DispatchMode mode = iss::DispatchMode::kChainedTraces;
  bool use_block_cache = true;
  bool parallel = false;
  sim::Cycle quantum = 1024;
  bool watchdog = false;
};

std::unique_ptr<platform::ReferenceBoard> buildBoard(const GridBoard& grid,
                                                     const RunConfig& rc) {
  const arch::ArchDescription desc = arch::ArchDescription::defaultTc10gp();
  platform::BoardConfig cfg;
  cfg.iss = platform::issConfigFor(rc.level);
  cfg.iss.dispatch_mode = rc.mode;
  cfg.iss.use_block_cache = rc.use_block_cache;
  cfg.iss.extra_leaders = grid.extra_leaders;
  cfg.quantum = rc.quantum;
  cfg.parallel.enabled = rc.parallel;
  cfg.parallel.workers = 2;  // real threads even on 1-core hosts
  cfg.watchdog = rc.watchdog;
  return std::make_unique<platform::ReferenceBoard>(desc, grid.image_ptrs,
                                                    cfg);
}

/// Every observable the acceptance criteria name, plus the digest.
struct BoardObs {
  std::vector<iss::IssStats> stats;
  std::vector<iss::StopReason> stop;
  std::vector<uint32_t> pc;
  std::vector<std::array<uint32_t, 16>> d;
  std::vector<std::array<uint32_t, 16>> a;
  std::vector<uint32_t> checksum;
  std::vector<std::vector<uint64_t>> irq_times;
  std::vector<uint32_t> intc_pending;
  uint64_t bus_cycle = 0;
  uint64_t timer_expiries = 0;
  uint64_t mailbox_pushes = 0;
  uint64_t mailbox_dropped = 0;
  size_t mailbox_depth = 0;
  std::array<uint32_t, 16> scratch{};
  std::vector<soc::Transaction> bus_log;
  uint64_t kernel_events = 0;
  uint64_t digest = 0;
};

BoardObs capture(platform::ReferenceBoard& board, const GridBoard& grid) {
  BoardObs s;
  for (size_t i = 0; i < board.numCores(); ++i) {
    s.stats.push_back(board.core(i).stats());
    s.stop.push_back(board.core(i).stopReason());
    s.pc.push_back(board.core(i).pc());
    std::array<uint32_t, 16> d{};
    std::array<uint32_t, 16> a{};
    for (int r = 0; r < 16; ++r) {
      d[static_cast<size_t>(r)] = board.core(i).d(r);
      a[static_cast<size_t>(r)] = board.core(i).a(r);
    }
    s.d.push_back(d);
    s.a.push_back(a);
    s.checksum.push_back(
        workloads::readChecksum(grid.images[i], board.core(i).memory()));
    s.irq_times.push_back(board.intc(i).deliveryTimes());
    s.intc_pending.push_back(board.intc(i).pending());
  }
  s.bus_cycle = board.board().bus.socCycle();
  s.timer_expiries = board.ptimer().expiries();
  s.mailbox_pushes = board.mailbox().pushes();
  s.mailbox_dropped = board.mailbox().dropped();
  s.mailbox_depth = board.mailbox().depth();
  for (size_t r = 0; r < 16; ++r) {
    s.scratch[r] = board.board().scratch.reg(r);
  }
  s.bus_log = board.board().bus.log();
  s.kernel_events = board.kernel().eventsDispatched();
  s.digest = snap::digest(board);
  return s;
}

/// Architectural equality only: the dispatch-path counters (cached_
/// blocks, chain_hits, trace_*, guard_bails, private_*) legitimately
/// differ between a warm continuation and a cold restore.
void expectIdentical(const BoardObs& got, const BoardObs& want,
                     const platform::ReferenceBoard& got_board,
                     const platform::ReferenceBoard& want_board) {
  ASSERT_EQ(got.stats.size(), want.stats.size());
  for (size_t i = 0; i < got.stats.size(); ++i) {
    SCOPED_TRACE("core " + std::to_string(i));
    const iss::IssStats& g = got.stats[i];
    const iss::IssStats& w = want.stats[i];
    EXPECT_EQ(g.instructions, w.instructions);
    EXPECT_EQ(g.cycles, w.cycles);
    EXPECT_EQ(g.pipeline_cycles, w.pipeline_cycles);
    EXPECT_EQ(g.branch_extra, w.branch_extra);
    EXPECT_EQ(g.cache_penalty, w.cache_penalty);
    EXPECT_EQ(g.blocks, w.blocks);
    EXPECT_EQ(g.icache_accesses, w.icache_accesses);
    EXPECT_EQ(g.icache_misses, w.icache_misses);
    EXPECT_EQ(g.cond_branches, w.cond_branches);
    EXPECT_EQ(g.cond_taken, w.cond_taken);
    EXPECT_EQ(g.mispredicts, w.mispredicts);
    EXPECT_EQ(g.io_reads, w.io_reads);
    EXPECT_EQ(g.io_writes, w.io_writes);
    EXPECT_EQ(g.irqs_taken, w.irqs_taken);
    EXPECT_EQ(g.irq_entry_cycles, w.irq_entry_cycles);
    EXPECT_EQ(got.stop[i], want.stop[i]);
    EXPECT_EQ(got.pc[i], want.pc[i]);
    EXPECT_EQ(got.d[i], want.d[i]);
    EXPECT_EQ(got.a[i], want.a[i]);
    EXPECT_EQ(got.checksum[i], want.checksum[i]);
    EXPECT_EQ(got.irq_times[i], want.irq_times[i])
        << "IRQ delivery timestamps";
    EXPECT_EQ(got.intc_pending[i], want.intc_pending[i]);
  }
  EXPECT_EQ(got.bus_cycle, want.bus_cycle);
  EXPECT_EQ(got.timer_expiries, want.timer_expiries);
  EXPECT_EQ(got.mailbox_pushes, want.mailbox_pushes);
  EXPECT_EQ(got.mailbox_dropped, want.mailbox_dropped);
  EXPECT_EQ(got.mailbox_depth, want.mailbox_depth);
  EXPECT_EQ(got.scratch, want.scratch);
  EXPECT_EQ(got.kernel_events, want.kernel_events);
  EXPECT_EQ(got.digest, want.digest)
      << "rolling state digest: "
      << snap::firstDifference(want_board, got_board);
  ASSERT_EQ(got.bus_log.size(), want.bus_log.size());
  for (size_t i = 0; i < got.bus_log.size(); ++i) {
    const soc::Transaction& a = got.bus_log[i];
    const soc::Transaction& b = want.bus_log[i];
    EXPECT_EQ(a.soc_cycle, b.soc_cycle) << "transaction " << i;
    EXPECT_EQ(a.addr, b.addr) << "transaction " << i;
    EXPECT_EQ(a.value, b.value) << "transaction " << i;
    EXPECT_EQ(a.size, b.size) << "transaction " << i;
    EXPECT_EQ(a.is_write, b.is_write) << "transaction " << i;
  }
}

constexpr sim::Cycle kSaveAt = 1500;  // mid-run at every detail level

/// One configuration's full round trip: uninterrupted reference vs
/// (a) the saved board continuing after save (save has no side effects,
///     and a split kernel run is behaviour-neutral),
/// (b) a cold fresh board restored from the snapshot, and
/// (c) the halted saved board re-restored and re-run (a warm process
///     with stale block-cache statistics, re-winding time).
void roundTrip(const GridBoard& grid, const RunConfig& rc) {
  auto ref = buildBoard(grid, rc);
  ref->run();
  const BoardObs want = capture(*ref, grid);

  auto saved = buildBoard(grid, rc);
  saved->runTo(kSaveAt);
  const std::vector<uint8_t> snapshot = snap::save(*saved);
  saved->run();
  {
    SCOPED_TRACE("continue after save");
    expectIdentical(capture(*saved, grid), want, *saved, *ref);
  }

  auto cold = buildBoard(grid, rc);
  snap::restore(*cold, snapshot);
  cold->run();
  {
    SCOPED_TRACE("cold restore");
    expectIdentical(capture(*cold, grid), want, *cold, *ref);
  }

  snap::restore(*saved, snapshot);  // rewind the halted warm board
  saved->run();
  {
    SCOPED_TRACE("warm re-restore");
    expectIdentical(capture(*saved, grid), want, *saved, *ref);
  }
}

// ---- the differential grid -------------------------------------------

struct GridParam {
  iss::DispatchMode mode;
  bool parallel;
};

class SnapshotGrid : public ::testing::TestWithParam<GridParam> {};

TEST_P(SnapshotGrid, SaveRestoreRunIsBitIdentical) {
  const auto [mode, parallel] = GetParam();
  const GridBoard grid = makeBoard({"mc_producer", "mc_consumer"});
  for (const xlat::DetailLevel level :
       {xlat::DetailLevel::kFunctional, xlat::DetailLevel::kStatic,
        xlat::DetailLevel::kBranchPredict, xlat::DetailLevel::kICache}) {
    SCOPED_TRACE(xlat::detailLevelName(level));
    RunConfig rc;
    rc.level = level;
    rc.mode = mode;
    rc.parallel = parallel;
    roundTrip(grid, rc);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Modes, SnapshotGrid,
    ::testing::Values(GridParam{iss::DispatchMode::kLookup, false},
                      GridParam{iss::DispatchMode::kChained, false},
                      GridParam{iss::DispatchMode::kChainedTraces, false},
                      GridParam{iss::DispatchMode::kThreaded, false},
                      GridParam{iss::DispatchMode::kLookup, true},
                      GridParam{iss::DispatchMode::kChained, true},
                      GridParam{iss::DispatchMode::kChainedTraces, true},
                      GridParam{iss::DispatchMode::kThreaded, true}),
    [](const ::testing::TestParamInfo<GridParam>& info) {
      const char* mode =
          info.param.mode == iss::DispatchMode::kLookup ? "lookup"
          : info.param.mode == iss::DispatchMode::kChained ? "chained"
          : info.param.mode == iss::DispatchMode::kChainedTraces
              ? "traces"
              : "threaded";
      return std::string(mode) + (info.param.parallel ? "_par" : "_seq");
    });

// The stepping engine can carry an *open block* across a quantum yield
// (the commit is lazy, so the pipeline scoreboard and line tracking are
// live at the save point) — the snapshot must capture that residue.
TEST(SnapshotGrid, SteppingEngineSavesOpenBlockResidue) {
  const GridBoard grid = makeBoard({"mc_producer", "mc_consumer"});
  RunConfig rc;
  rc.use_block_cache = false;
  rc.mode = iss::DispatchMode::kLookup;
  for (const sim::Cycle quantum : {16u, 1024u}) {
    SCOPED_TRACE("quantum " + std::to_string(quantum));
    RunConfig q = rc;
    q.quantum = quantum;
    roundTrip(grid, q);
  }
}

// The single-core interrupt scenario: a snapshot taken between two of
// the eight timer deliveries must preserve the interrupt phase exactly
// (in-service flag, pending lines, timer next-expiry).
TEST(SnapshotGrid, InterruptPhaseSurvivesRestore) {
  const GridBoard grid = makeBoard({"irq_ticks"});
  for (const bool parallel : {false, true}) {
    SCOPED_TRACE(parallel ? "parallel" : "sequential");
    RunConfig rc;
    rc.parallel = parallel;
    roundTrip(grid, rc);
  }
}

// ---- deterministic replay --------------------------------------------

TEST(Replay, RunToIsChunkInvariant) {
  const GridBoard grid = makeBoard({"irq_ticks"});
  const RunConfig rc;
  auto whole = buildBoard(grid, rc);
  whole->run();
  const BoardObs want = capture(*whole, grid);

  auto chunked = buildBoard(grid, rc);
  chunked->runTo(700);
  chunked->runTo(1900);
  chunked->runTo(sim::kForever);
  expectIdentical(capture(*chunked, grid), want, *chunked, *whole);
}

TEST(Replay, AutoSnapshotRingRetainsAndReplays) {
  const GridBoard grid = makeBoard({"irq_ticks"});
  const RunConfig rc;
  auto ref = buildBoard(grid, rc);
  ref->run();
  const BoardObs want = capture(*ref, grid);

  auto board = buildBoard(grid, rc);
  board->setCheckpointing({512, 2, ""});
  board->run();
  // Checkpointed execution is behaviour-neutral.
  expectIdentical(capture(*board, grid), want, *board, *ref);
  // The ring dropped down to the 2 most recent snapshots while the
  // trail recorded every boundary, strictly increasing.
  EXPECT_EQ(board->checkpoints().size(), 2u);
  EXPECT_GT(board->digestTrail().size(), board->checkpoints().size());
  for (size_t i = 1; i < board->digestTrail().size(); ++i) {
    EXPECT_LT(board->digestTrail()[i - 1].first,
              board->digestTrail()[i].first);
  }
  // Fast-forward replay: restore the oldest retained snapshot into a
  // cold board and run to completion — same observables again.
  auto replay = buildBoard(grid, rc);
  snap::restore(*replay, board->checkpoints().front().data);
  replay->run();
  expectIdentical(capture(*replay, grid), want, *replay, *ref);
  // And the digest recorded at that checkpoint matches the restored
  // board's digest before it runs (restore is digest-preserving).
  auto replay2 = buildBoard(grid, rc);
  snap::restore(*replay2, board->checkpoints().back().data);
  EXPECT_EQ(snap::digest(*replay2), board->checkpoints().back().digest);
}

// The digest excludes host-side dispatch-path state by design: every
// engine — and the parallel kernel — produces the identical value.
TEST(Replay, DigestIsDispatchModeIndependent) {
  const GridBoard grid = makeBoard({"irq_ticks"});
  RunConfig base;
  auto ref = buildBoard(grid, base);
  ref->run();
  const uint64_t want = snap::digest(*ref);
  for (const iss::DispatchMode mode :
       {iss::DispatchMode::kLookup, iss::DispatchMode::kChained,
        iss::DispatchMode::kThreaded}) {
    RunConfig rc;
    rc.mode = mode;
    auto board = buildBoard(grid, rc);
    board->run();
    EXPECT_EQ(snap::digest(*board), want)
        << snap::firstDifference(*ref, *board);
  }
  RunConfig stepping;
  stepping.use_block_cache = false;
  auto board = buildBoard(grid, stepping);
  board->run();
  EXPECT_EQ(snap::digest(*board), want) << snap::firstDifference(*ref, *board);
  RunConfig par;
  par.parallel = true;
  auto pboard = buildBoard(grid, par);
  pboard->run();
  EXPECT_EQ(snap::digest(*pboard), want)
      << snap::firstDifference(*ref, *pboard);
}

// ---- first difference -------------------------------------------------

const std::vector<std::string> kQuad = {"mc_producer", "mc_consumer",
                                        "mc_worker", "mc_worker"};

std::string hexPair(uint64_t a, uint64_t b) {
  std::ostringstream out;
  out << std::hex << "0x" << a << " vs 0x" << b;
  return out.str();
}

TEST(FirstDifference, NamesTheFieldThatDiffers) {
  const GridBoard grid = makeBoard(kQuad);
  auto a = buildBoard(grid, RunConfig{});
  auto b = buildBoard(grid, RunConfig{});
  a->runTo(3000);
  b->runTo(3000);
  EXPECT_EQ(snap::firstDifference(*a, *b), "");

  const uint32_t d4 = a->core(1).d(4);
  b->core(1).setD(4, d4 ^ 0x10);
  EXPECT_EQ(snap::firstDifference(*a, *b),
            "core1.iss.d[4]: " + hexPair(d4, d4 ^ 0x10));
  b->core(1).setD(4, d4);
  EXPECT_EQ(snap::firstDifference(*a, *b), "");

  // A bus-visible change: the scratch device's first register.
  const uint32_t r0 = a->board().scratch.reg(0);
  b->board().scratch.write(0, r0 + 1, 4, b->board().bus.socCycle());
  EXPECT_EQ(snap::firstDifference(*a, *b),
            "bus.scratch.regs[0]: " + hexPair(r0, r0 + 1));

  // A memory byte (cores come before the bus): its address.
  const uint32_t at = a->core(0).pc() + 1;
  const uint8_t byte = a->core(0).memory().read8(at);
  b->core(0).memory().write8(at, byte ^ 0x5a);
  std::ostringstream where;
  where << "core0.iss.mem[0x" << std::hex << at << "]: ";
  EXPECT_EQ(snap::firstDifference(*a, *b),
            where.str() + hexPair(byte, byte ^ 0x5a));
}

// On every golden scenario at every detail level, firstDifference finds
// a difference exactly when the digests differ: between two boards of
// different dispatch engines (equal) and between a finished board and
// one stopped halfway (different).
TEST(FirstDifference, EmptyExactlyWhenTheDigestsAgree) {
  const std::vector<std::vector<std::string>> scenarios = {
      {"irq_ticks"}, {"mc_producer", "mc_consumer"}, {"mc_worker"}, kQuad};
  for (const std::vector<std::string>& programs : scenarios) {
    const GridBoard grid = makeBoard(programs);
    for (const xlat::DetailLevel level :
         {xlat::DetailLevel::kFunctional, xlat::DetailLevel::kStatic,
          xlat::DetailLevel::kBranchPredict, xlat::DetailLevel::kICache}) {
      SCOPED_TRACE(programs.front() + " at " + xlat::detailLevelName(level));
      RunConfig rc;
      rc.level = level;
      auto done = buildBoard(grid, rc);
      done->run();
      rc.mode = iss::DispatchMode::kThreaded;
      auto threaded = buildBoard(grid, rc);
      threaded->run();
      auto half = buildBoard(grid, rc);
      half->runTo(done->board().bus.socCycle() / 2);
      for (const auto* other : {threaded.get(), half.get()}) {
        EXPECT_EQ(snap::firstDifference(*done, *other).empty(),
                  snap::digest(*done) == snap::digest(*other))
            << snap::firstDifference(*done, *other);
      }
      EXPECT_FALSE(snap::firstDifference(*done, *half).empty());
    }
  }
}

// ---- format safety ----------------------------------------------------

TEST(SnapshotFormat, RejectsCorruptionTruncationAndMismatch) {
  const GridBoard grid = makeBoard({"irq_ticks"});
  const RunConfig rc;
  auto board = buildBoard(grid, rc);
  board->runTo(kSaveAt);
  const std::vector<uint8_t> good = snap::save(*board);

  {  // bit flip in the middle fails the integrity footer
    std::vector<uint8_t> bad = good;
    bad[bad.size() / 2] ^= 0x40;
    auto target = buildBoard(grid, rc);
    EXPECT_THROW(snap::restore(*target, bad), Error);
  }
  {  // truncation
    std::vector<uint8_t> bad(good.begin(), good.end() - 9);
    auto target = buildBoard(grid, rc);
    EXPECT_THROW(snap::restore(*target, bad), Error);
  }
  {  // wrong board shape (core count)
    const GridBoard pair = makeBoard({"mc_producer", "mc_consumer"});
    auto target = buildBoard(pair, rc);
    EXPECT_THROW(snap::restore(*target, good), Error);
  }
  {  // wrong detail level (architectural config mismatch)
    RunConfig functional;
    functional.level = xlat::DetailLevel::kFunctional;
    auto target = buildBoard(grid, functional);
    EXPECT_THROW(snap::restore(*target, good), Error);
  }
  {  // wrong program image
    const GridBoard other = makeBoard({"mc_worker"});
    auto target = buildBoard(other, rc);
    EXPECT_THROW(snap::restore(*target, good), Error);
  }
  {  // the good snapshot still restores after all those rejections
    auto target = buildBoard(grid, rc);
    snap::restore(*target, good);
    target->run();
    auto ref = buildBoard(grid, rc);
    ref->run();
    EXPECT_EQ(snap::digest(*target), snap::digest(*ref))
        << snap::firstDifference(*ref, *target);
  }
}

/// Recomputes the FNV footer over everything before it, so a mutation
/// survives the integrity check and has to be caught by the layer it
/// actually corrupts (version gate, shape gate, reader bounds).
void refootSnapshot(std::vector<uint8_t>& snap) {
  ASSERT_GT(snap.size(), 8u);
  const uint64_t sum = serial::fnv1a(snap.data(), snap.size() - 8);
  for (size_t i = 0; i < 8; ++i) {
    snap[snap.size() - 8 + i] = static_cast<uint8_t>(sum >> (8 * i));
  }
}

/// Offset of the first byte after the `nth` (0-based) occurrence of the
/// section tag `tag` (u32 length + name) in a snapshot image.
size_t afterTag(const std::vector<uint8_t>& snap, const std::string& tag,
                size_t nth = 0) {
  std::vector<uint8_t> needle(4, 0);
  needle[0] = static_cast<uint8_t>(tag.size());
  needle.insert(needle.end(), tag.begin(), tag.end());
  auto it = snap.begin();
  for (size_t i = 0;; ++i) {
    it = std::search(it, snap.end(), needle.begin(), needle.end());
    if (it == snap.end()) {
      ADD_FAILURE() << "no section tag '" << tag << "' #" << nth;
      return 0;
    }
    if (i == nth) {
      return static_cast<size_t>(it - snap.begin()) + needle.size();
    }
    ++it;
  }
}

/// Core-section layout after the "iss" tag: the compatibility record
/// (3 flags, irq_entry_cycles u32, max_instructions u64, fingerprint
/// u64), then pc u32, stop u8, d[16], a[16], committed u64, live_pipe
/// u64, in_block flag.
constexpr size_t kIssStopOffset = 3 + 4 + 8 + 8 + 4;
constexpr size_t kIssInBlockOffset = kIssStopOffset + 1 + 64 + 64 + 8 + 8;

// The exact bytes of snap::save, pinned (size + FNV-1a) for three
// boards that between them reach every section writer: the interrupt
// scenario at icache level (intc, ptimer, chardev, bus log), the
// four-core board with the watchdog attached (watchdog and fault-proxy
// sections, four core sections, a four-entry kernel queue), and a
// stepping-engine core saved mid-block (the open-block residue). The
// golden digests skip the kernel queue, the dispatch-path counters and
// the raw page images; this test does not, so a section writer that
// drifts by one byte fails here.
TEST(SnapshotFormat, SnapshotBytesArePinned) {
  struct Pin {
    const char* name;
    std::vector<std::string> programs;
    RunConfig rc;
    size_t size;
    uint64_t fnv;
  };
  RunConfig quad;
  quad.watchdog = true;
  RunConfig stepping;
  stepping.use_block_cache = false;
  stepping.mode = iss::DispatchMode::kLookup;
  stepping.quantum = 16;
  const std::vector<Pin> pins = {
      {"irq_ticks", {"irq_ticks"}, RunConfig{}, 10424, 0xf4e7c6d44225ce16ull},
      {"mc_quad+watchdog",
       {"mc_producer", "mc_consumer", "mc_worker", "mc_worker"},
       quad,
       47324,
       0x11ac0544ec20c002ull},
      {"stepping mid-block",
       {"mc_producer", "mc_consumer"},
       stepping,
       25635,
       0x62f897d27dccfd1full},
  };
  for (const Pin& pin : pins) {
    SCOPED_TRACE(pin.name);
    const GridBoard grid = makeBoard(pin.programs);
    auto board = buildBoard(grid, pin.rc);
    board->runTo(kSaveAt);
    const std::vector<uint8_t> snap = snap::save(*board);
    if (!pin.rc.use_block_cache) {
      bool open = false;
      for (size_t i = 0; i < board->numCores(); ++i) {
        open = open || snap[afterTag(snap, "iss", i) + kIssInBlockOffset] == 1;
      }
      EXPECT_TRUE(open) << "no core is mid-block at the save point";
    }
    EXPECT_EQ(snap.size(), pin.size);
    EXPECT_EQ(serial::fnv1a(snap), pin.fnv)
        << "0x" << std::hex << serial::fnv1a(snap);
  }
}

/// Little-endian u32 at `at` of a snapshot image, read and written in
/// place by the hostile-input cases below.
uint32_t peek32(const std::vector<uint8_t>& s, size_t at) {
  return static_cast<uint32_t>(s[at]) | static_cast<uint32_t>(s[at + 1]) << 8 |
         static_cast<uint32_t>(s[at + 2]) << 16 |
         static_cast<uint32_t>(s[at + 3]) << 24;
}
void poke32(std::vector<uint8_t>& s, size_t at, uint32_t v) {
  for (size_t i = 0; i < 4; ++i) {
    s[at + i] = static_cast<uint8_t>(v >> (8 * i));
  }
}

// Every corruption class the recovery path can meet in a ring entry,
// table-driven. Layout under attack: magic[8] | version u32 | cores u32
// | kernel section | bus section | per-core sections | FNV footer u64.
// Mutations that leave the footer stale are caught by the integrity
// check; mutations that *recompute* the footer must be caught by the
// specific gate they target — restore() must throw either way, the
// target board must be left unchanged and must remain usable.
TEST(SnapshotFormat, TableDrivenCorruptionIsAlwaysRejected) {
  const GridBoard grid = makeBoard({"irq_ticks"});
  const RunConfig rc;
  auto board = buildBoard(grid, rc);
  board->runTo(kSaveAt);
  const std::vector<uint8_t> good = snap::save(*board);
  ASSERT_GT(good.size(), 64u);

  using Mutate = std::function<void(std::vector<uint8_t>&)>;
  const std::vector<std::pair<std::string, Mutate>> kCases = {
      {"truncated mid-kernel-section",
       [](std::vector<uint8_t>& s) { s.resize(24); }},
      {"truncated mid-core-section",
       [](std::vector<uint8_t>& s) { s.resize(s.size() * 3 / 4); }},
      {"truncated mid-core-section, footer recomputed",  // reader bounds
       [](std::vector<uint8_t>& s) {
         s.resize(s.size() * 3 / 4);
         refootSnapshot(s);
       }},
      {"flipped magic byte", [](std::vector<uint8_t>& s) { s[0] ^= 0x20; }},
      {"flipped version byte", [](std::vector<uint8_t>& s) { s[8] ^= 0x01; }},
      {"wrong version, footer recomputed",  // version gate
       [](std::vector<uint8_t>& s) {
         s[8] ^= 0x01;
         refootSnapshot(s);
       }},
      {"wrong core count, footer recomputed",  // shape gate
       [](std::vector<uint8_t>& s) {
         s[12] ^= 0x01;
         refootSnapshot(s);
       }},
      {"flipped kernel-section byte",
       [](std::vector<uint8_t>& s) { s[20] ^= 0x40; }},
      {"flipped bus-section byte",
       [](std::vector<uint8_t>& s) { s[s.size() / 3] ^= 0x40; }},
      {"flipped core-section byte",
       [](std::vector<uint8_t>& s) { s[s.size() * 3 / 4] ^= 0x40; }},
      {"zeroed footer",
       [](std::vector<uint8_t>& s) {
         std::fill(s.end() - 8, s.end(), uint8_t{0});
       }},
      {"flipped footer byte",
       [](std::vector<uint8_t>& s) { s[s.size() - 3] ^= 0x04; }},
      // Hostile images: the footer is recomputed, so each value must be
      // rejected by the layer that reads it, before it can index,
      // allocate or escape as an exit code.
      {"icache LRU words naming no way, footer recomputed",
       [](std::vector<uint8_t>& s) {
         const size_t geo = afterTag(s, "icache");
         const uint32_t sets = peek32(s, geo);
         const size_t lru = geo + 8 + size_t{4} * sets * peek32(s, geo + 4);
         for (uint32_t i = 0; i < sets; ++i) {
           poke32(s, lru + 4 * i, 0x7f);
         }
         refootSnapshot(s);
       }},
      {"bus-log count 0xfffffff0, footer recomputed",
       [](std::vector<uint8_t>& s) {
         poke32(s, afterTag(s, "bus") + 16, 0xfffffff0u);
         refootSnapshot(s);
       }},
      {"intc delivery-log count 0xfffffff0, footer recomputed",
       [](std::vector<uint8_t>& s) {
         // name | section length u32 | raw, enable, vector u32 | master,
         // in-service flags | irqs_taken u64 | delivery-log count
         poke32(s, afterTag(s, "intc0") + 4 + 12 + 2 + 8, 0xfffffff0u);
         refootSnapshot(s);
       }},
      {"chardev stamp count 0xfffffff0, footer recomputed",
       [](std::vector<uint8_t>& s) {
         // name | section length u32 | output string | stamp count
         const size_t out = afterTag(s, "chardev") + 4;
         poke32(s, out + 4 + peek32(s, out), 0xfffffff0u);
         refootSnapshot(s);
       }},
      {"mailbox head outside the FIFO, footer recomputed",
       [](std::vector<uint8_t>& s) {
         // name | section length u32 | fifo[4] u32 | head
         poke32(s, afterTag(s, "mailbox") + 4 + 16, 9);
         refootSnapshot(s);
       }},
      {"stop reason 0x77, footer recomputed",
       [](std::vector<uint8_t>& s) {
         s[afterTag(s, "iss") + kIssStopOffset] = 0x77;
         refootSnapshot(s);
       }},
      {"in-block flag byte 2, footer recomputed",
       [](std::vector<uint8_t>& s) {
         s[afterTag(s, "iss") + kIssInBlockOffset] = 2;
         refootSnapshot(s);
       }},
      {"memory page base not page-aligned, footer recomputed",
       [](std::vector<uint8_t>& s) {
         const size_t first = afterTag(s, "mem") + 4;
         poke32(s, first, peek32(s, first) + 0x10);
         refootSnapshot(s);
       }},
      {"memory page base repeated, footer recomputed",
       [](std::vector<uint8_t>& s) {
         const size_t pages = afterTag(s, "mem");
         ASSERT_GE(peek32(s, pages), 2u);
         const size_t first = pages + 4;
         poke32(s, first + 4 + 4096, peek32(s, first));
         refootSnapshot(s);
       }},
  };

  // Restore is transactional: a rejected image leaves the live board's
  // digest, bus log and bus cycle exactly as they were.
  const auto expectRejected = [](platform::ReferenceBoard& target,
                                 const std::vector<uint8_t>& bad) {
    const uint64_t digest = snap::digest(target);
    const std::vector<soc::Transaction> log = target.board().bus.log();
    const uint64_t cycle = target.board().bus.socCycle();
    EXPECT_THROW(snap::restore(target, bad), Error);
    EXPECT_EQ(snap::digest(target), digest);
    EXPECT_EQ(target.board().bus.socCycle(), cycle);
    const std::vector<soc::Transaction>& now = target.board().bus.log();
    ASSERT_EQ(now.size(), log.size());
    for (size_t i = 0; i < log.size(); ++i) {
      EXPECT_TRUE(now[i].soc_cycle == log[i].soc_cycle &&
                  now[i].addr == log[i].addr &&
                  now[i].value == log[i].value &&
                  now[i].size == log[i].size &&
                  now[i].is_write == log[i].is_write)
          << "transaction " << i;
    }
  };

  // Each image is offered to a cold board (what every fork and resume
  // restores into) and to one run halfway to the save point.
  auto ref = buildBoard(grid, rc);
  ref->run();
  for (const auto& [name, mutate] : kCases) {
    std::vector<uint8_t> bad = good;
    mutate(bad);
    for (const sim::Cycle warm_to : {sim::Cycle{0}, kSaveAt / 2}) {
      SCOPED_TRACE(name + " into a board at cycle " +
                   std::to_string(warm_to));
      auto target = buildBoard(grid, rc);
      if (warm_to > 0) {
        target->runTo(warm_to);
      }
      expectRejected(*target, bad);
      // The board still accepts the intact snapshot and replays to the
      // clean end state.
      snap::restore(*target, good);
      target->run();
      EXPECT_EQ(snap::digest(*target), snap::digest(*ref))
          << snap::firstDifference(*ref, *target);
    }
  }

  // Footer-valid but for another detail level: the kernel and bus
  // sections load before the first core section rejects it.
  const GridBoard quad = makeBoard(kQuad);
  auto donor = buildBoard(quad, rc);
  donor->runTo(6000);
  const std::vector<uint8_t> icache_image = snap::save(*donor);
  RunConfig functional;
  functional.level = xlat::DetailLevel::kFunctional;
  for (const sim::Cycle warm_to : {sim::Cycle{0}, sim::Cycle{3000}}) {
    SCOPED_TRACE("icache-level mc_quad image into a functional-level board "
                 "at cycle " + std::to_string(warm_to));
    auto target = buildBoard(quad, functional);
    if (warm_to > 0) {
      target->runTo(warm_to);
    }
    expectRejected(*target, icache_image);
  }
}

// Graceful degradation through the ring (DESIGN.md section 12): when
// the newest ring entries are corrupted in place, recover() walks past
// them to the newest intact one and deterministic replay from there
// converges on the clean run.
TEST(SnapshotFormat, RecoverFallsThroughCorruptRingEntries) {
  const GridBoard grid = makeBoard({"irq_ticks"});
  const RunConfig rc;
  auto ref = buildBoard(grid, rc);
  ref->run();
  const BoardObs want = capture(*ref, grid);

  auto board = buildBoard(grid, rc);
  board->setCheckpointing({512, 4, ""});
  // Corrupt every ring entry recorded after cycle 600 as it is pushed
  // (same mechanism fi::Campaign ring faults use).
  size_t corrupted = 0;
  board->setCheckpointHook([&corrupted](platform::Checkpoint& cp) {
    if (cp.cycle > 600) {
      cp.data[cp.data.size() / 2] ^= 0x40;
      ++corrupted;
    }
  });
  board->run();
  ASSERT_GE(board->checkpoints().size(), 2u);
  ASSERT_GE(corrupted, 1u);

  const platform::RecoveryReport rep = board->recover();
  ASSERT_TRUE(rep.recovered) << rep.detail;
  EXPECT_EQ(rep.entries_corrupt, corrupted);
  EXPECT_LE(rep.resume_cycle, 600u);
  board->run();
  expectIdentical(capture(*board, grid), want, *board, *ref);
}

}  // namespace
}  // namespace cabt

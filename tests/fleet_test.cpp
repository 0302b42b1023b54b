// Differential tests for the board-fleet driver (src/fleet, DESIGN.md
// section 14).
//
// The claims under test mirror the parallel-kernel grid one level up:
// (1) scheduling M boards over host threads is bit-identical to running
// the same M boards one after another — same snap digests and the same
// per-board bus transaction logs; (2) the whole fleet shares one
// program artifact per distinct image (one decode, M-1 cache hits),
// even under batch activation; (3) snapshot-forked fleets start
// bit-identical to the warm prototype and only diverge where the
// scenario hook diverges them.
#include <gtest/gtest.h>

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/program_artifact.h"
#include "fleet/fleet.h"
#include "platform/platform.h"
#include "snap/snapshot.h"
#include "soc/bus.h"
#include "workloads/workloads.h"

namespace cabt {
namespace {

struct Grid {
  std::vector<const workloads::Workload*> programs;
  std::vector<elf::Object> images;
  std::vector<const elf::Object*> image_ptrs;
  std::vector<uint32_t> extra_leaders;
};

/// Same board family as the parallel grid: the interrupt-driven tick
/// counter (1 core) or the producer/consumer pair plus workers.
Grid makeGrid(size_t cores) {
  Grid g;
  if (cores == 1) {
    g.programs = {&workloads::get("irq_ticks")};
  } else {
    g.programs = {&workloads::get("mc_producer"),
                  &workloads::get("mc_consumer")};
    while (g.programs.size() < cores) {
      g.programs.push_back(&workloads::get("mc_worker"));
    }
  }
  for (const workloads::Workload* w : g.programs) {
    g.images.push_back(workloads::assemble(*w));
    if (!w->irq_handler.empty()) {
      g.extra_leaders.push_back(
          platform::symbolAddr(g.images.back(), w->irq_handler));
    }
  }
  for (const elf::Object& obj : g.images) {
    g.image_ptrs.push_back(&obj);
  }
  return g;
}

platform::BoardConfig boardConfig(const Grid& grid) {
  platform::BoardConfig cfg;
  cfg.iss = platform::issConfigFor(xlat::DetailLevel::kICache);
  cfg.iss.extra_leaders = grid.extra_leaders;
  cfg.iss.max_instructions = 30'000;
  cfg.quantum = 256;
  return cfg;
}

fleet::FleetConfig fleetConfig(const Grid& grid, size_t boards) {
  fleet::FleetConfig cfg;
  cfg.desc = arch::ArchDescription::defaultTc10gp();
  cfg.board = boardConfig(grid);
  cfg.boards = boards;
  cfg.host_threads = 4;  // force real cross-thread scheduling
  return cfg;
}

/// What the inspect hook captures per board for the differential.
struct Observed {
  uint64_t digest = 0;
  std::vector<uint32_t> checksums;
  std::vector<soc::Transaction> bus_log;
  /// snap::firstDifference against the board it is compared with.
  std::string diff;
};

Observed observe(const Grid& grid, platform::ReferenceBoard& board) {
  Observed o;
  o.digest = snap::digest(board);
  for (size_t i = 0; i < board.numCores(); ++i) {
    o.checksums.push_back(
        workloads::readChecksum(grid.images[i], board.core(i).memory()));
  }
  o.bus_log = board.board().bus.log();
  return o;
}

void expectIdentical(const Observed& a, const Observed& b) {
  EXPECT_EQ(a.digest, b.digest) << a.diff;
  EXPECT_EQ(a.checksums, b.checksums);
  ASSERT_EQ(a.bus_log.size(), b.bus_log.size());
  for (size_t i = 0; i < a.bus_log.size(); ++i) {
    EXPECT_EQ(a.bus_log[i].soc_cycle, b.bus_log[i].soc_cycle)
        << "transaction " << i;
    EXPECT_EQ(a.bus_log[i].addr, b.bus_log[i].addr) << "transaction " << i;
    EXPECT_EQ(a.bus_log[i].value, b.bus_log[i].value) << "transaction " << i;
    EXPECT_EQ(a.bus_log[i].size, b.bus_log[i].size) << "transaction " << i;
    EXPECT_EQ(a.bus_log[i].is_write, b.bus_log[i].is_write)
        << "transaction " << i;
  }
}

// M identical multi-core boards scheduled concurrently over the fleet
// driver are bit-identical — digests, memory checksums and the full bus
// transaction log — to the same M boards run sequentially, one by one,
// without the driver.
TEST(Fleet, ConcurrentBoardsMatchSequentialRuns) {
  const Grid grid = makeGrid(2);
  constexpr size_t kBoards = 4;

  fleet::FleetConfig cfg = fleetConfig(grid, kBoards);
  std::vector<std::unique_ptr<platform::ReferenceBoard>> seq_boards;
  std::vector<Observed> seq_obs;
  for (size_t i = 0; i < kBoards; ++i) {
    seq_boards.push_back(std::make_unique<platform::ReferenceBoard>(
        cfg.desc, grid.image_ptrs, boardConfig(grid)));
    seq_boards.back()->run();
    seq_obs.push_back(observe(grid, *seq_boards.back()));
  }

  // Each host thread reads only its own sequential board.
  std::vector<Observed> fleet_obs(kBoards);
  cfg.inspect = [&](size_t i, platform::ReferenceBoard& b) {
    fleet_obs[i] = observe(grid, b);
    fleet_obs[i].diff = snap::firstDifference(*seq_boards[i], b);
  };
  fleet::Driver driver(cfg);
  const fleet::FleetResult result = driver.run(grid.image_ptrs);

  ASSERT_EQ(result.boards.size(), kBoards);
  EXPECT_TRUE(result.digestsAgree());
  EXPECT_GT(result.totalInstructions(), 0u);

  for (size_t i = 0; i < kBoards; ++i) {
    SCOPED_TRACE("board " + std::to_string(i));
    EXPECT_EQ(result.boards[i].digest, fleet_obs[i].digest);
    expectIdentical(fleet_obs[i], seq_obs[i]);
  }
}

// Batch activation bounds how many boards are live at once, yet the
// whole fleet still pays exactly one decode per distinct image: the
// driver pins the shared artifacts for the duration of the run, so a
// wave boundary cannot expire them.
TEST(Fleet, BatchedFleetDecodesEachImageOnce) {
  const Grid grid = makeGrid(1);
  constexpr size_t kBoards = 6;

  core::ProgramArtifactCache::instance().clear();
  fleet::FleetConfig cfg = fleetConfig(grid, kBoards);
  cfg.batch = 2;  // three activation waves
  fleet::Driver driver(cfg);
  const fleet::FleetResult result = driver.run(grid.image_ptrs);

  EXPECT_TRUE(result.digestsAgree());
  EXPECT_EQ(result.artifact.decodes, 1u);
  // The pin plus every board's core resolve to the same live artifact.
  EXPECT_GE(result.artifact.hits, kBoards);
}

// Snapshot-forked fleet, no divergence hook: every fork resumes from
// the warm prototype's state and finishes bit-identical to a board that
// simply ran the whole way through.
TEST(Fleet, UndivergedForksMatchStraightRun) {
  const Grid grid = makeGrid(1);
  constexpr size_t kForks = 3;

  platform::ReferenceBoard straight(arch::ArchDescription::defaultTc10gp(),
                                    grid.image_ptrs, boardConfig(grid));
  straight.run();
  const uint64_t straight_digest = snap::digest(straight);

  fleet::FleetConfig cfg = fleetConfig(grid, kForks);
  std::mutex diffs_mutex;  // the forks read `straight` from host threads
  std::vector<std::string> diffs(kForks);
  cfg.inspect = [&](size_t i, platform::ReferenceBoard& b) {
    const std::lock_guard<std::mutex> lock(diffs_mutex);
    diffs[i] = snap::firstDifference(straight, b);
  };
  fleet::Driver driver(cfg);
  const fleet::FleetResult result =
      driver.runForked(grid.image_ptrs, 512, nullptr);

  ASSERT_EQ(result.boards.size(), kForks);
  for (size_t i = 0; i < kForks; ++i) {
    EXPECT_EQ(result.boards[i].digest, straight_digest)
        << "fork " << i << " diverged from the straight run: " << diffs[i];
  }
}

// With a divergence hook, each fork becomes a distinct scenario: the
// per-fork state poke lands in the digest, so all forks differ from the
// undiverged run and from each other, deterministically run-to-run.
TEST(Fleet, DivergedForksDifferDeterministically) {
  const Grid grid = makeGrid(1);
  constexpr size_t kForks = 3;
  constexpr sim::Cycle kWarm = 512;

  const auto diverge = [](size_t index, platform::ReferenceBoard& board) {
    // A nonzero poke into an otherwise untouched page: architectural
    // state, so it must show up in the digest.
    board.core(0).memory().write(
        0x000F'F000u, 0xD1000000u + static_cast<uint32_t>(index + 1), 4);
  };

  fleet::Driver driver(fleetConfig(grid, kForks));
  const fleet::FleetResult first =
      driver.runForked(grid.image_ptrs, kWarm, diverge);
  const fleet::FleetResult second =
      driver.runForked(grid.image_ptrs, kWarm, diverge);
  const fleet::FleetResult baseline =
      driver.runForked(grid.image_ptrs, kWarm, nullptr);

  ASSERT_EQ(first.boards.size(), kForks);
  for (size_t i = 0; i < kForks; ++i) {
    EXPECT_NE(first.boards[i].digest, baseline.boards[i].digest)
        << "fork " << i << " ignored the divergence hook";
    EXPECT_EQ(first.boards[i].digest, second.boards[i].digest)
        << "fork " << i << " is not reproducible";
    for (size_t j = i + 1; j < kForks; ++j) {
      EXPECT_NE(first.boards[i].digest, first.boards[j].digest)
          << "forks " << i << " and " << j << " collided";
    }
  }
}

// The artifact cache itself: same image + config shares, different
// config (extra leaders) decodes separately, and clear() forgets.
TEST(Fleet, ArtifactCacheHitAndMissAccounting) {
  const Grid grid = makeGrid(1);
  const arch::ArchDescription desc = arch::ArchDescription::defaultTc10gp();
  auto& cache = core::ProgramArtifactCache::instance();
  cache.clear();

  const auto a1 = cache.acquire(desc, grid.images[0], grid.extra_leaders);
  EXPECT_EQ(cache.stats().decodes, 1u);
  EXPECT_EQ(cache.stats().hits, 0u);

  const auto a2 = cache.acquire(desc, grid.images[0], grid.extra_leaders);
  EXPECT_EQ(a1.get(), a2.get());
  EXPECT_EQ(cache.stats().decodes, 1u);
  EXPECT_EQ(cache.stats().hits, 1u);

  // A different leader set is a different lowering — distinct artifact.
  std::vector<uint32_t> other_leaders = grid.extra_leaders;
  other_leaders.push_back(grid.images[0].entry);
  const auto a3 = cache.acquire(desc, grid.images[0], other_leaders);
  EXPECT_NE(a1.get(), a3.get());
  EXPECT_EQ(cache.stats().decodes, 2u);

  EXPECT_EQ(cache.size(), 2u);
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.stats().decodes, 0u);
}

// Fleet metrics land in the registry under the fleet.* namespace, with
// the exemplar board folded under fleet.board0.* via merge().
TEST(Fleet, PublishesMetrics) {
  const Grid grid = makeGrid(1);
  fleet::Driver driver(fleetConfig(grid, 2));
  const fleet::FleetResult result = driver.run(grid.image_ptrs);

  obs::MetricsRegistry reg;
  result.publishMetrics(reg);
  EXPECT_EQ(reg.counterOr("fleet.boards"), 2u);
  EXPECT_GT(reg.counterOr("fleet.instructions"), 0u);
  EXPECT_GT(reg.gaugeOr("fleet.boards_per_sec"), 0.0);
  EXPECT_GT(reg.gaugeOr("fleet.aggregate_mips"), 0.0);
  const obs::Histogram* h = reg.histogram("fleet.board_instructions");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, 2u);
  // The exemplar board's own counters surfaced under board0.
  EXPECT_GT(reg.counterOr("fleet.board0.core0.iss.instructions"), 0u);
}

}  // namespace
}  // namespace cabt

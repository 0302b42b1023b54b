// soc_quad: the 4-core mc_quad board (producer, consumer, two workers;
// mailbox interrupts and shared-bus traffic) at every detail level, run
// through fleet::Driver on one host thread. Per level there are two
// items: one cold boot, and one runForked call whose forks restore a
// snapshot taken at half the run. Every digest must equal its entry in
// tests/golden_digests.json.
#include <algorithm>
#include <stdexcept>
#include <thread>

#include "bench.h"
#include "fleet/fleet.h"
#include "platform/platform.h"
#include "snap/snapshot.h"
#include "workloads/workloads.h"

namespace perfbench {
namespace {

using namespace cabt;

const xlat::DetailLevel kLevels[] = {
    xlat::DetailLevel::kFunctional, xlat::DetailLevel::kStatic,
    xlat::DetailLevel::kBranchPredict, xlat::DetailLevel::kICache};

/// Boards per runForked item.
constexpr size_t kForks = 2;

struct Level {
  platform::BoardConfig cfg;
  uint64_t golden = 0;
  sim::Cycle warm_to = 0;       ///< half the cold run's bus cycles
  uint64_t warm_instrs = 0;     ///< instructions retired at warm_to
};

class SocQuad : public Workload {
 public:
  explicit SocQuad(const std::vector<uint64_t>& golden) : golden_(golden) {
    if (golden_.size() != 5) {
      throw std::runtime_error(
          "soc_quad needs --golden quantum,functional,static,branch,cache");
    }
  }

  void setup(uint32_t /*seed*/) override {
    images_.clear();
    ptrs_.clear();
    levels_.clear();
    std::vector<uint32_t> leaders;
    for (const char* name :
         {"mc_producer", "mc_consumer", "mc_worker", "mc_worker"}) {
      const workloads::Workload& w = workloads::get(name);
      const auto t0 = Clock::now();
      images_.push_back(workloads::assemble(w));
      assemble_ms_.push_back(msSince(t0));
      if (!w.irq_handler.empty()) {
        leaders.push_back(platform::symbolAddr(images_.back(), w.irq_handler));
      }
    }
    for (const elf::Object& obj : images_) {
      ptrs_.push_back(&obj);
    }
    for (size_t l = 0; l < 4; ++l) {
      Level level;
      level.cfg.iss = platform::issConfigFor(kLevels[l]);
      level.cfg.iss.extra_leaders = leaders;
      level.cfg.quantum = golden_[0];
      level.golden = golden_[l + 1];
      // The fork point: half of a cold run, and what was retired there.
      platform::ReferenceBoard cold(desc_, ptrs_, level.cfg);
      cold.run();
      level.warm_to = cold.board().bus.socCycle() / 2;
      platform::ReferenceBoard warm(desc_, ptrs_, level.cfg);
      warm.runTo(level.warm_to);
      level.warm_instrs = warm.instructionsRetired();
      levels_.push_back(std::move(level));
    }
  }

  [[nodiscard]] size_t numItems() const override { return 8; }
  [[nodiscard]] std::string itemName(size_t i) const override {
    return std::string("mc_quad/") + xlat::detailLevelName(kLevels[i / 2]) +
           (i % 2 == 0 ? "/cold" : "/forked");
  }

  Outcome run(size_t i, Tracer& tracer) override {
    const Level& level = levels_[i / 2];
    const bool forked = i % 2 == 1;
    fleet::FleetConfig cfg;
    cfg.desc = desc_;
    cfg.board = level.cfg;
    cfg.boards = forked ? kForks : 1;
    cfg.host_threads = 1;
    Outcome o;
    std::vector<std::map<std::string, double>> per_board(cfg.boards);
    cfg.inspect = [&per_board](size_t b, platform::ReferenceBoard& board) {
      per_board[b] = boardCounters(board);
    };
    fleet::Driver driver(cfg);
    fleet::FleetResult result;
    {
      const Tracer::Scope s =
          forked ? tracer.span("fleet::Driver::runForked", "fleet")
                 : tracer.span("fleet::Driver::run", "fleet");
      result = forked ? driver.runForked(ptrs_, level.warm_to, nullptr)
                      : driver.run(ptrs_);
      // Board construction, restore, kernel rounds, ISS dispatch and the
      // digest happen inside fleet::Driver; the boards' own wall time is
      // split off as sim, the rest (warm-up, fork, scheduling) is fleet.
      double board_ms = 0;
      for (const fleet::BoardResult& b : result.boards) {
        board_ms += b.host_seconds * 1e3;
      }
      tracer.split(s.id(), "sim", board_ms);
    }
    o.sim = {level.warm_to};
    for (const fleet::BoardResult& b : result.boards) {
      if (b.stop != iss::StopReason::kHalted) {
        o.fail("board did not halt");
      } else if (b.digest != level.golden) {
        o.fail("digest differs from tests/golden_digests.json");
      }
      o.sim.push_back(b.digest);
      o.sim.push_back(b.instructions);
      o.sim.push_back(b.soc_cycles);
      o.src_instrs += forked ? b.instructions - level.warm_instrs
                             : b.instructions;
    }
    if (forked) {
      o.src_instrs += level.warm_instrs;  // the prototype's warm-up
    }
    for (const auto& m : per_board) {
      for (const auto& [k, v] : m) {
        o.counters[k] += v;
      }
    }
    o.counters["core.artifact.decodes"] =
        static_cast<double>(result.artifact.decodes);
    o.counters["core.artifact.hits"] =
        static_cast<double>(result.artifact.hits);
    return o;
  }

  /// The modelled 4-core SoC: instructions over bus cycles at the
  /// architecture's clock, summed over the cold boots.
  Modeled modeled(const std::vector<Outcome>& first) const override {
    Modeled m;
    for (size_t i = 0; i < first.size(); i += 2) {
      if (first[i].ok) {
        m.instrs += static_cast<double>(first[i].sim[2]);
        m.seconds += static_cast<double>(first[i].sim[3]) /
                     static_cast<double>(desc_.clock_hz);
      }
    }
    return m;
  }

  std::map<std::string, double> layerMetrics(
      Tracer& tracer, const std::map<std::string, double>& /*c*/) override {
    std::map<std::string, double> m;
    m["trc.assemble_ms"] = median(assemble_ms_);

    // fleet.fork_ms: what a runForked call costs beyond its boards.
    double fork_ms = 0;
    double forks = 0;
    for (const Span& s : tracer.spans()) {
      if (s.name == "fleet::Driver::runForked" && s.end_ns >= 0) {
        fork_ms += static_cast<double>(s.end_ns - s.start_ns) / 1e6 -
                   s.split.at("sim");
        forks += 1;
      }
    }
    m["fleet.fork_ms"] = forks > 0 ? fork_ms / forks : 0.0;

    const Level& cache = levels_.back();
    // Snapshot costs on the cache-level board at the fork point.
    std::vector<double> save_ms, restore_ms, digest_ms;
    double bytes = 0;
    for (int rep = 0; rep < 5; ++rep) {
      platform::ReferenceBoard warm(desc_, ptrs_, cache.cfg);
      warm.runTo(cache.warm_to);
      std::vector<uint8_t> data;
      {
        const auto t0 = Clock::now();
        data = snap::save(warm);
        save_ms.push_back(msSince(t0));
      }
      platform::ReferenceBoard cold(desc_, ptrs_, cache.cfg);
      {
        const auto t0 = Clock::now();
        snap::restore(cold, data);
        restore_ms.push_back(msSince(t0));
      }
      {
        const auto t0 = Clock::now();
        (void)snap::digest(cold);
        digest_ms.push_back(msSince(t0));
      }
      bytes = static_cast<double>(data.size());
    }
    m["snap.save_ms"] = median(save_ms);
    m["snap.restore_ms"] = median(restore_ms);
    m["snap.digest_ms"] = median(digest_ms);
    m["snap.bytes"] = bytes;

    // Parallel-round kernel against the sequential one on the same board.
    std::vector<double> ratio;
    double slices = 0;
    double bails = 0;
    for (int rep = 0; rep < 3; ++rep) {
      double ms[2];
      for (const bool par : {false, true}) {
        platform::BoardConfig cfg = cache.cfg;
        cfg.parallel.enabled = par;
        cfg.parallel.workers = 3;
        platform::ReferenceBoard board(desc_, ptrs_, cfg);
        const auto t0 = Clock::now();
        board.run();
        ms[par ? 1 : 0] = msSince(t0);
        if (par && rep == 0) {
          for (size_t c = 0; c < board.numCores(); ++c) {
            slices += static_cast<double>(board.core(c).stats().private_slices);
            bails += static_cast<double>(board.core(c).stats().private_bails);
          }
        }
      }
      ratio.push_back(ms[0] / ms[1]);
    }
    m["sim.parallel.speedup"] = median(ratio);
    m["sim.parallel.bail_ratio"] = slices > 0 ? bails / slices : 0.0;

    // Fleet scaling: aggregate MIPS at min(nproc, 4) threads over 1.
    const unsigned threads =
        std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
    std::vector<double> scaling;
    for (int rep = 0; rep < 3; ++rep) {
      double mips[2];
      for (const unsigned t : {1u, threads}) {
        fleet::FleetConfig cfg;
        cfg.desc = desc_;
        cfg.board = cache.cfg;
        cfg.boards = 4;
        cfg.host_threads = t;
        mips[t == 1 ? 0 : 1] = fleet::Driver(cfg).run(ptrs_).aggregateMips();
      }
      scaling.push_back(mips[1] / mips[0]);
    }
    m["fleet.scaling"] = median(scaling);
    return m;
  }

 private:
  static std::map<std::string, double> boardCounters(
      const platform::ReferenceBoard& board) {
    std::map<std::string, double> m;
    for (size_t c = 0; c < board.numCores(); ++c) {
      const iss::IssStats& st = board.core(c).stats();
      m["iss.instructions"] += static_cast<double>(st.instructions);
      m["iss.chain_hits"] += static_cast<double>(st.chain_hits);
      m["iss.trace_dispatches"] += static_cast<double>(st.trace_dispatches);
      m["iss.guard_bails"] += static_cast<double>(st.guard_bails);
      m["iss.threaded_dispatches"] +=
          static_cast<double>(st.threaded_dispatches);
      m["iss.threaded_declined"] += static_cast<double>(st.threaded_declined);
    }
    m["sim.kernel.events"] =
        static_cast<double>(board.kernel().eventsDispatched());
    m["soc.bus.transactions"] =
        static_cast<double>(busTransactions(board.board().bus));
    return m;
  }

  const arch::ArchDescription desc_ = arch::ArchDescription::defaultTc10gp();
  const std::vector<uint64_t> golden_;
  std::vector<elf::Object> images_;
  std::vector<const elf::Object*> ptrs_;
  std::vector<Level> levels_;
  std::vector<double> assemble_ms_;
};

}  // namespace

std::unique_ptr<Workload> makeSocQuad(const std::vector<uint64_t>& golden) {
  return std::make_unique<SocQuad>(golden);
}

}  // namespace perfbench

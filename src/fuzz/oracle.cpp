#include "fuzz/oracle.h"

#include <memory>
#include <sstream>

#include "arch/arch.h"
#include "common/error.h"
#include "fi/fi.h"
#include "iss/iss.h"
#include "platform/platform.h"
#include "rtlsim/rtlsim.h"
#include "snap/snapshot.h"
#include "trc/assembler.h"
#include "xlat/translator.h"

namespace cabt::fuzz {

namespace {

const xlat::DetailLevel kLevels[] = {
    xlat::DetailLevel::kFunctional, xlat::DetailLevel::kStatic,
    xlat::DetailLevel::kBranchPredict, xlat::DetailLevel::kICache};

const iss::DispatchMode kModes[] = {
    iss::DispatchMode::kLookup, iss::DispatchMode::kChained,
    iss::DispatchMode::kChainedTraces, iss::DispatchMode::kThreaded};

const char* modeName(iss::DispatchMode m) {
  switch (m) {
    case iss::DispatchMode::kLookup:
      return "lookup";
    case iss::DispatchMode::kChained:
      return "chained";
    case iss::DispatchMode::kChainedTraces:
      return "traces";
    case iss::DispatchMode::kThreaded:
      return "threaded";
  }
  return "?";
}

/// The validity gate and in-level comparison baseline: icache detail,
/// chained+traces dispatch, sequential kernel.
constexpr xlat::DetailLevel kRefLevel = xlat::DetailLevel::kICache;
constexpr iss::DispatchMode kRefMode = iss::DispatchMode::kChainedTraces;

uint64_t fnv1a(uint64_t h, const void* data, size_t n) {
  const auto* p = static_cast<const uint8_t*>(data);
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

std::string forkKey(const SeedCase& c, xlat::DetailLevel level,
                    iss::DispatchMode mode, bool par) {
  uint64_t h = 1469598103934665603ull;
  for (const std::string& p : c.programs) {
    h = fnv1a(h, p.data(), p.size());
    h = fnv1a(h, "|", 1);
  }
  std::ostringstream key;
  key << std::hex << h << std::dec << "-q" << c.quantum << "-f"
      << c.fork_cycle << "-l" << static_cast<int>(level) << "-m"
      << static_cast<int>(mode) << "-p" << (par ? 1 : 0);
  return key.str();
}

/// One finished grid run, kept alive for comparison. The campaign is
/// declared first so it outlives the board its injectors are wired into.
struct BoardObs {
  std::unique_ptr<fi::Campaign> campaign;
  std::unique_ptr<platform::ReferenceBoard> board;
  iss::StopReason stop = iss::StopReason::kRunning;
  uint64_t digest = 0;
};

BoardObs runBoard(const arch::ArchDescription& desc,
                  const std::vector<const elf::Object*>& ptrs,
                  const SeedCase& c, const OracleOptions& opts,
                  xlat::DetailLevel level, iss::DispatchMode mode, bool par,
                  SnapshotCache* cache, core::EdgeCoverage* coverage) {
  platform::BoardConfig cfg;
  cfg.iss = platform::issConfigFor(level);
  cfg.iss.dispatch_mode = mode;
  // Aggressive formation so short fuzz programs exercise traces and
  // threaded lowering (the random_program_test idiom).
  cfg.iss.trace_threshold = 2;
  cfg.iss.threaded_threshold = 2;
  cfg.iss.max_instructions = opts.max_instructions;
  cfg.quantum = c.quantum;
  cfg.parallel.enabled = par;
  cfg.parallel.workers = 2;
  BoardObs o;
  o.board = std::make_unique<platform::ReferenceBoard>(desc, ptrs, cfg);
  platform::ReferenceBoard& board = *o.board;

  // Snapshot fork: warm to the fork cycle once per (programs, config),
  // restore everywhere else. Faults arm at the fork in both paths, so
  // warm and cold runs are bit-identical (snap:: contract; pinned by
  // tests/fuzz_test.cpp SnapshotForkMatchesColdRun).
  if (c.fork_cycle > 0) {
    const std::string key = forkKey(c, level, mode, par);
    const std::vector<uint8_t>* snap_data =
        cache != nullptr ? cache->find(key) : nullptr;
    if (snap_data != nullptr) {
      snap::restore(board, *snap_data);
      cache->countHit();
    } else {
      board.runTo(c.fork_cycle);
      if (cache != nullptr) {
        cache->put(key, snap::save(board));
        cache->countMiss();
      }
    }
  }

  o.campaign = std::make_unique<fi::Campaign>();
  for (const std::string& f : c.faults) {
    o.campaign->add(fi::parseFaultSpec(f));
  }
  if (!c.faults.empty()) {
    o.campaign->arm(board);
  }
  if (coverage != nullptr) {
    for (size_t i = 0; i < board.numCores(); ++i) {
      board.attachEdgeCoverage(i, coverage);
    }
  }

  o.stop = board.run();
  o.digest = snap::digest(board);
  return o;
}

/// Functional (timing-independent) comparison across detail levels.
std::string diffFunctional(const platform::ReferenceBoard& want,
                           const platform::ReferenceBoard& got) {
  std::ostringstream out;
  for (size_t i = 0; i < want.numCores(); ++i) {
    const iss::Iss& w = want.core(i);
    const iss::Iss& g = got.core(i);
    if (g.stats().instructions != w.stats().instructions) {
      out << "core " << i << " instructions " << g.stats().instructions
          << " != " << w.stats().instructions;
      return out.str();
    }
    if (g.stats().io_reads != w.stats().io_reads ||
        g.stats().io_writes != w.stats().io_writes) {
      out << "core " << i << " io counts differ";
      return out.str();
    }
    for (int r = 0; r < 16; ++r) {
      if (g.d(r) != w.d(r) || g.a(r) != w.a(r)) {
        out << "core " << i << " registers differ";
        return out.str();
      }
    }
    if (g.pc() != w.pc()) {
      out << "core " << i << " pc differs";
      return out.str();
    }
  }
  return "";
}

}  // namespace

const std::vector<uint8_t>* SnapshotCache::find(
    const std::string& key) const {
  const auto it = map_.find(key);
  return it == map_.end() ? nullptr : &it->second;
}

void SnapshotCache::put(const std::string& key, std::vector<uint8_t> data) {
  if (map_.count(key) != 0) {
    return;
  }
  while (map_.size() >= capacity_ && !order_.empty()) {
    map_.erase(order_.front());
    order_.pop_front();
  }
  order_.push_back(key);
  map_.emplace(key, std::move(data));
}

OracleResult runOracle(const SeedCase& c, const OracleOptions& opts,
                       SnapshotCache* cache, core::EdgeCoverage* coverage) {
  OracleResult result;
  const arch::ArchDescription desc = arch::ArchDescription::defaultTc10gp();

  std::vector<elf::Object> images;
  std::vector<const elf::Object*> ptrs;
  try {
    for (const std::string& p : c.programs) {
      images.push_back(trc::assemble(p));
    }
  } catch (const Error& e) {
    result.mismatch = std::string("assembly failed: ") + e.what();
    return result;  // invalid, not a finding
  }
  for (const elf::Object& obj : images) {
    ptrs.push_back(&obj);
  }

  // ---- reference configuration: validity gate + coverage feedback ----
  BoardObs ref;
  try {
    ref = runBoard(desc, ptrs, c, opts, kRefLevel, kRefMode,
                   /*par=*/false, cache, coverage);
    ++result.executions;
  } catch (const Error& e) {
    result.mismatch = std::string("reference run failed: ") + e.what();
    return result;  // invalid
  }
  if (ref.stop != iss::StopReason::kHalted) {
    result.mismatch = "reference run did not halt (instruction budget)";
    return result;  // invalid: mutant spins, discard
  }
  result.valid = true;
  result.ref_cycles = ref.board->board().bus.socCycle();

  // Cycle-keyed faults land at level-dependent program points, and
  // multi-core shared-bus interleavings legitimately shift with the
  // timing model — in both shapes only in-level comparison is sound.
  const bool cross_level_ok =
      c.faults.empty() && (c.programs.size() == 1 || !c.hasSharedTraffic());

  try {
    // ---- the board grid: detail x dispatch x seq/par -----------------
    for (const xlat::DetailLevel level : kLevels) {
      BoardObs leader;
      const BoardObs* lead = level == kRefLevel ? &ref : nullptr;
      for (const iss::DispatchMode mode : kModes) {
        for (const bool par : {false, true}) {
          if (level == kRefLevel && mode == kRefMode && !par) {
            continue;  // already ran as the reference
          }
          BoardObs got = runBoard(desc, ptrs, c, opts, level, mode, par,
                                  cache, nullptr);
          ++result.executions;
          if (lead == nullptr) {
            leader = std::move(got);
            lead = &leader;
            continue;
          }
          if (got.digest != lead->digest) {
            std::ostringstream out;
            out << "level=" << xlat::detailLevelName(level)
                << " dispatch=" << modeName(mode) << " par=" << par << ": "
                << snap::firstDifference(*lead->board, *got.board);
            result.mismatch = out.str();
            return result;
          }
        }
      }
      if (cross_level_ok && level != kRefLevel) {
        const std::string diff = diffFunctional(*ref.board, *lead->board);
        if (!diff.empty()) {
          result.mismatch = std::string("cross-level level=") +
                            xlat::detailLevelName(level) + ": " + diff;
          return result;
        }
      }
    }

    // ---- three-way extras: rtlsim + translated platform --------------
    // Only single-program cases without shared traffic or faults: the
    // RT model has no bus, the translated platform replays no fi::
    // campaigns, and both replay from reset.
    if (opts.three_way && c.programs.size() == 1 && c.faults.empty() &&
        !c.hasSharedTraffic()) {
      const elf::Object& obj = images.front();
      iss::IssConfig ref_cfg;
      ref_cfg.max_instructions = opts.max_instructions;
      iss::Iss iss_ref(desc, obj, nullptr, ref_cfg);
      ++result.executions;
      if (iss_ref.run() != iss::StopReason::kHalted) {
        result.mismatch = "standalone ISS did not halt";
        return result;
      }

      rtlsim::RtlCore rtl(desc, obj);
      ++result.executions;
      rtl.run(opts.max_instructions * 8);
      if (!rtl.halted()) {
        result.mismatch = "rtlsim did not halt";
        return result;
      }
      if (rtl.stats().cycles != iss_ref.stats().cycles) {
        std::ostringstream out;
        out << "rtlsim cycles " << rtl.stats().cycles << " != ISS "
            << iss_ref.stats().cycles;
        result.mismatch = out.str();
        return result;
      }
      for (int i = 0; i < 16; ++i) {
        if (rtl.d(i) != iss_ref.d(i)) {
          result.mismatch = "rtlsim d" + std::to_string(i) + " differs";
          return result;
        }
      }

      for (const xlat::DetailLevel level : kLevels) {
        xlat::TranslateOptions xopts;
        xopts.level = level;
        xopts.debug_skew_static_cycles = opts.xlat_skew;
        const xlat::TranslationResult t = xlat::translate(desc, obj, xopts);
        platform::PlatformConfig pcfg;
        pcfg.max_cycles = opts.max_vliw_cycles;
        platform::EmulationPlatform plat(desc, t.image, pcfg);
        ++result.executions;
        const platform::RunResult run = plat.run();
        if (run.state != vliw::RunState::kHalted) {
          result.mismatch = std::string("translated platform (") +
                            xlat::detailLevelName(level) +
                            ") did not halt";
          return result;
        }
        const std::string diff =
            platform::compareFinalState(desc, iss_ref, plat, obj);
        if (!diff.empty()) {
          result.mismatch = std::string("translated platform (") +
                            xlat::detailLevelName(level) + "): " + diff;
          return result;
        }
        if (level == xlat::DetailLevel::kICache &&
            run.generated_cycles != iss_ref.stats().cycles) {
          std::ostringstream out;
          out << "translated platform (icache): generated cycles "
              << run.generated_cycles << " != ISS " << iss_ref.stats().cycles;
          result.mismatch = out.str();
          return result;
        }
        if (level == xlat::DetailLevel::kBranchPredict &&
            run.generated_cycles + iss_ref.stats().cache_penalty !=
                iss_ref.stats().cycles) {
          std::ostringstream out;
          out << "translated platform (branch-predict): generated cycles "
              << run.generated_cycles << " + cache penalty "
              << iss_ref.stats().cache_penalty << " != ISS "
              << iss_ref.stats().cycles;
          result.mismatch = out.str();
          return result;
        }
      }
    }
  } catch (const Error& e) {
    // An engine exception on a candidate whose reference run was clean
    // is itself a divergence worth reporting.
    result.mismatch = std::string("engine exception: ") + e.what();
    return result;
  }

  result.ok = true;
  return result;
}

}  // namespace cabt::fuzz

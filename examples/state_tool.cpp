// Checkpoint/replay driver for the stock scenario boards: computes the
// rolling state digests scripts/golden_state.py pins in-repo, saves and
// resumes full platform snapshots, and self-checks the save→restore→run
// round trip. On a MISMATCH, selfcheck and recover also print the first
// differing field (snap::firstDifference), e.g. "core1.iss.d[4]: 0x7 vs
// 0x9".
//
// Usage:
//   state_tool digest <scenario> [--level=...] [--quantum=N]
//                     [--interval=N] [--parallel] [--dispatch=...]
//   state_tool selfcheck <scenario> [--level=...] [--quantum=N] [--at=N]
//                        [--dispatch=...]
//   state_tool save <scenario> --out=FILE [--at=N] [--level=...]
//   state_tool resume <scenario> --in=FILE [--to=N] [--level=...]
//   state_tool profile <scenario> [--period=N] [--top=N]
//                      [--fold-out=FILE] [...common flags]
//   state_tool inject <scenario> --fault=SPEC [--fault=SPEC ...]
//                     [--interval=N] [--to=N] [...common flags]
//   state_tool recover <scenario> --interval=N --fault=SPEC [...]
//                      [--to=N] [...common flags]
//
// `--dispatch=lookup|chained|traces|threaded` selects the ISS dispatch
// engine (default: IssConfig's, threaded). With selfcheck it
// exercises the cold-restore path of that engine from the CLI — e.g.
// `--dispatch=threaded` restores into a board whose block cache (and
// with it every lowered threaded-code program) starts empty.
//
// Observability (src/obs, DESIGN.md section 11) — every board-running
// command additionally accepts:
//   --trace-out=FILE    write a Chrome trace-event / Perfetto JSON
//                       timeline (open in ui.perfetto.dev)
//   --metrics           print the metrics registry as text on stdout
//   --metrics-out=FILE  write the metrics registry as JSON
//   --cores=N           replicate a single-program scenario onto N cores
// `profile` runs the guest sampling profiler: samples the PC every
// --period guest cycles at block boundaries, attributes samples through
// the image's symbol table, prints a per-core top-N table and writes
// flamegraph-foldable lines ("coreN;func count") to --fold-out.
// Observers never perturb architectural state: digests with and without
// any of these flags are identical (tests/obs_test.cpp).
//
// Fault injection & recovery (src/fi, DESIGN.md section 12):
// `inject` arms a fi::Campaign built from repeatable --fault=SPEC
// strings ("kind@cycle:key=value,..."), runs the scenario, and reports
// every fired fault plus the final digest. `recover` performs a clean
// reference run first, then replays with the faults, divergence
// detection against the reference digest trail, and auto-recovery
// through the snapshot ring — exiting 0 only when the recovered run
// converges on the clean digest. `--fi-armed` (any board-running
// command) arms a campaign of never-due faults, the non-perturbation
// probe scripts/golden_state.py --check uses: output must be identical
// to an FI-off run.
//
// Scenarios: irq_ticks (1 core), mc_pair (producer + consumer),
// mc_worker (solo), mc_quad (pair + two workers). `digest` prints one
// `trail <cycle> <digest>` line per checkpoint interval (when
// --interval is given) and a final machine-parsable summary line.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "fi/fi.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/trace.h"
#include "platform/platform.h"
#include "snap/snapshot.h"
#include "workloads/workloads.h"

namespace {

using namespace cabt;

xlat::DetailLevel parseLevel(const std::string& name) {
  using xlat::DetailLevel;
  if (name == "functional") {
    return DetailLevel::kFunctional;
  }
  if (name == "static") {
    return DetailLevel::kStatic;
  }
  if (name == "branch") {
    return DetailLevel::kBranchPredict;
  }
  if (name == "cache") {
    return DetailLevel::kICache;
  }
  throw Error("unknown detail level '" + name +
              "' (functional|static|branch|cache)");
}

iss::DispatchMode parseDispatch(const std::string& name) {
  using iss::DispatchMode;
  if (name == "lookup") {
    return DispatchMode::kLookup;
  }
  if (name == "chained") {
    return DispatchMode::kChained;
  }
  if (name == "traces") {
    return DispatchMode::kChainedTraces;
  }
  if (name == "threaded") {
    return DispatchMode::kThreaded;
  }
  throw Error("unknown dispatch mode '" + name +
              "' (lookup|chained|traces|threaded)");
}

/// A stock scenario board: the images plus everything needed to build
/// identically configured boards repeatedly (cold restore targets).
struct Scenario {
  std::vector<elf::Object> images;
  std::vector<const elf::Object*> image_ptrs;
  platform::BoardConfig cfg;
  arch::ArchDescription desc = arch::ArchDescription::defaultTc10gp();

  std::unique_ptr<platform::ReferenceBoard> makeBoard() const {
    return std::make_unique<platform::ReferenceBoard>(desc, image_ptrs, cfg);
  }
};

Scenario makeScenario(const std::string& name, xlat::DetailLevel level,
                      sim::Cycle quantum, bool parallel,
                      const std::string& dispatch, size_t cores) {
  Scenario s;
  std::vector<const workloads::Workload*> programs;
  if (name == "irq_ticks") {
    programs = {&workloads::get("irq_ticks")};
  } else if (name == "mc_pair") {
    programs = {&workloads::get("mc_producer"),
                &workloads::get("mc_consumer")};
  } else if (name == "mc_worker") {
    programs = {&workloads::get("mc_worker")};
  } else if (name == "mc_quad") {
    programs = {&workloads::get("mc_producer"),
                &workloads::get("mc_consumer"),
                &workloads::get("mc_worker"), &workloads::get("mc_worker")};
  } else {
    throw Error("unknown scenario '" + name +
                "' (irq_ticks|mc_pair|mc_worker|mc_quad)");
  }
  if (cores != 0 && cores != programs.size()) {
    CABT_CHECK(programs.size() == 1,
               "--cores only replicates single-program scenarios; '"
                   << name << "' already has " << programs.size());
    programs.resize(cores, programs.front());
  }
  s.cfg.iss = platform::issConfigFor(level);
  if (!dispatch.empty()) {
    s.cfg.iss.dispatch_mode = parseDispatch(dispatch);
  }
  s.cfg.quantum = quantum;
  s.cfg.parallel.enabled = parallel;
  for (const workloads::Workload* w : programs) {
    s.images.push_back(workloads::assemble(*w));
    if (!w->irq_handler.empty()) {
      s.cfg.iss.extra_leaders.push_back(
          platform::symbolAddr(s.images.back(), w->irq_handler));
    }
  }
  for (const elf::Object& obj : s.images) {
    s.image_ptrs.push_back(&obj);
  }
  return s;
}

/// Common observability plumbing for the board-running commands.
struct ObsOptions {
  std::string trace_out;
  std::string metrics_out;
  bool metrics_text = false;

  [[nodiscard]] bool traceWanted() const { return !trace_out.empty(); }

  /// After the run: export the timeline and/or the metrics registry
  /// (plus the campaign's fi.* counters when one is armed).
  void finish(const platform::ReferenceBoard& board,
              const obs::TraceSink& sink,
              const fi::Campaign* camp = nullptr) const {
    if (traceWanted()) {
      std::ofstream out(trace_out);
      CABT_CHECK(out.good(), "cannot open '" << trace_out << "'");
      sink.writeJson(out);
      std::printf("trace %s events=%zu dropped=%llu\n", trace_out.c_str(),
                  sink.numEvents(),
                  static_cast<unsigned long long>(sink.droppedEvents()));
    }
    if (metrics_text || !metrics_out.empty()) {
      obs::MetricsRegistry reg;
      board.publishMetrics(reg);
      if (camp != nullptr) {
        camp->publishMetrics(reg);
      }
      if (metrics_text) {
        std::fputs(reg.toText().c_str(), stdout);
      }
      if (!metrics_out.empty()) {
        std::ofstream out(metrics_out);
        CABT_CHECK(out.good(), "cannot open '" << metrics_out << "'");
        out << reg.toJson();
        std::printf("metrics %s entries=%zu\n", metrics_out.c_str(),
                    reg.size());
      }
    }
  }
};

/// Builds the campaign for this invocation: every --fault=SPEC plus,
/// with --fi-armed, one never-due fault per category (the armed-idle
/// overhead/non-perturbation probe — nothing ever fires).
fi::Campaign buildCampaign(const std::vector<std::string>& fault_specs,
                           bool fi_armed, size_t num_cores) {
  fi::Campaign camp;
  for (const std::string& s : fault_specs) {
    camp.add(fi::parseFaultSpec(s));
  }
  if (fi_armed) {
    for (size_t c = 0; c < num_cores; ++c) {
      fi::FaultSpec reg;
      reg.kind = fi::FaultKind::kDataRegFlip;
      reg.cycle = fi::CoreInjector::kNever;
      reg.core = c;
      reg.index = 15;
      reg.mask = 1;
      camp.add(reg);
    }
    fi::FaultSpec bus;  // window armed from cycle kNever: never active
    bus.kind = fi::FaultKind::kBusError;
    bus.cycle = fi::CoreInjector::kNever;
    bus.addr = 0xf0000300u;
    camp.add(bus);
  }
  return camp;
}

const char* coreFaultKindName(fi::CoreFaultKind kind) {
  switch (kind) {
    case fi::CoreFaultKind::kDataReg:
      return "dreg";
    case fi::CoreFaultKind::kAddrReg:
      return "areg";
    case fi::CoreFaultKind::kPc:
      return "pc";
    default:
      return "mem";
  }
}

void printFired(const fi::Campaign& camp, size_t num_cores) {
  for (size_t core = 0; core < num_cores; ++core) {
    for (const fi::FiredFault& f : camp.fired(core)) {
      std::printf(
          "fired core=%zu kind=%s at=%llu pc=0x%08x before=0x%08x "
          "after=0x%08x\n",
          core, coreFaultKindName(f.fault.kind),
          static_cast<unsigned long long>(f.at), f.pc, f.before, f.after);
    }
  }
}

void printSummary(const platform::ReferenceBoard& board) {
  uint64_t instructions = 0;
  for (size_t i = 0; i < board.numCores(); ++i) {
    instructions += board.core(i).stats().instructions;
  }
  std::printf("final bus_cycle=%llu instructions=%llu digest=0x%016llx\n",
              static_cast<unsigned long long>(board.board().bus.socCycle()),
              static_cast<unsigned long long>(instructions),
              static_cast<unsigned long long>(snap::digest(board)));
}

}  // namespace

int main(int argc, char** argv) {
  try {
    std::string command;
    std::string scenario_name;
    xlat::DetailLevel level = xlat::DetailLevel::kICache;
    sim::Cycle quantum = 1024;
    sim::Cycle interval = 0;
    sim::Cycle at = 2000;
    sim::Cycle to = sim::kForever;
    bool parallel = false;
    std::string dispatch;
    std::string in_path;
    std::string out_path;
    size_t cores = 0;
    uint64_t period = 64;
    size_t top_n = 10;
    std::string fold_out;
    std::vector<std::string> fault_specs;
    bool fi_armed = false;
    ObsOptions obs_opts;

    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg.rfind("--level=", 0) == 0) {
        level = parseLevel(arg.substr(8));
      } else if (arg.rfind("--quantum=", 0) == 0) {
        quantum = std::strtoull(arg.c_str() + 10, nullptr, 0);
      } else if (arg.rfind("--interval=", 0) == 0) {
        interval = std::strtoull(arg.c_str() + 11, nullptr, 0);
      } else if (arg.rfind("--at=", 0) == 0) {
        at = std::strtoull(arg.c_str() + 5, nullptr, 0);
      } else if (arg.rfind("--to=", 0) == 0) {
        to = std::strtoull(arg.c_str() + 5, nullptr, 0);
      } else if (arg.rfind("--dispatch=", 0) == 0) {
        dispatch = arg.substr(11);
      } else if (arg.rfind("--in=", 0) == 0) {
        in_path = arg.substr(5);
      } else if (arg.rfind("--out=", 0) == 0) {
        out_path = arg.substr(6);
      } else if (arg.rfind("--cores=", 0) == 0) {
        cores = std::strtoull(arg.c_str() + 8, nullptr, 0);
      } else if (arg.rfind("--period=", 0) == 0) {
        period = std::strtoull(arg.c_str() + 9, nullptr, 0);
      } else if (arg.rfind("--top=", 0) == 0) {
        top_n = std::strtoull(arg.c_str() + 6, nullptr, 0);
      } else if (arg.rfind("--fold-out=", 0) == 0) {
        fold_out = arg.substr(11);
      } else if (arg.rfind("--trace-out=", 0) == 0) {
        obs_opts.trace_out = arg.substr(12);
      } else if (arg.rfind("--metrics-out=", 0) == 0) {
        obs_opts.metrics_out = arg.substr(14);
      } else if (arg.rfind("--fault=", 0) == 0) {
        fault_specs.push_back(arg.substr(8));
      } else if (arg == "--fi-armed") {
        fi_armed = true;
      } else if (arg == "--metrics") {
        obs_opts.metrics_text = true;
      } else if (arg == "--parallel") {
        parallel = true;
      } else if (!arg.empty() && arg[0] != '-') {
        if (command.empty()) {
          command = arg;
        } else if (scenario_name.empty()) {
          scenario_name = arg;
        } else {
          throw Error("unexpected argument '" + arg + "'");
        }
      } else {
        throw Error("unknown option '" + arg + "'");
      }
    }
    if (command.empty() || scenario_name.empty()) {
      std::fprintf(stderr,
                   "usage: %s digest|selfcheck|save|resume|profile|"
                   "inject|recover <scenario> "
                   "[--level=functional|static|branch|cache] [--quantum=N] "
                   "[--interval=N] [--at=N] [--to=N] [--in=F] [--out=F] "
                   "[--parallel] [--cores=N] "
                   "[--dispatch=lookup|chained|traces|threaded] "
                   "[--fault=SPEC]... [--fi-armed] "
                   "[--trace-out=F] [--metrics] [--metrics-out=F] "
                   "[--period=N] [--top=N] [--fold-out=F]\n",
                   argv[0]);
      return 2;
    }

    const Scenario scenario =
        makeScenario(scenario_name, level, quantum, parallel, dispatch,
                     cores);

    if (command == "digest") {
      std::unique_ptr<platform::ReferenceBoard> board = scenario.makeBoard();
      obs::TraceSink sink;
      if (obs_opts.traceWanted()) {
        board->setTraceSink(&sink);
      }
      fi::Campaign camp =
          buildCampaign(fault_specs, fi_armed, board->numCores());
      if (camp.scheduled() != 0) {
        camp.arm(*board);
      }
      if (interval != 0) {
        board->setCheckpointing({interval, 1, ""});
      }
      board->run();
      for (const auto& [cycle, digest] : board->digestTrail()) {
        std::printf("trail %llu 0x%016llx\n",
                    static_cast<unsigned long long>(cycle),
                    static_cast<unsigned long long>(digest));
      }
      printSummary(*board);
      obs_opts.finish(*board, sink,
                      camp.scheduled() != 0 ? &camp : nullptr);
      return 0;
    }

    if (command == "inject") {
      CABT_CHECK(!fault_specs.empty() || fi_armed,
                 "inject needs at least one --fault=SPEC (or --fi-armed)");
      std::unique_ptr<platform::ReferenceBoard> board = scenario.makeBoard();
      obs::TraceSink sink;
      if (obs_opts.traceWanted()) {
        board->setTraceSink(&sink);
      }
      fi::Campaign camp =
          buildCampaign(fault_specs, fi_armed, board->numCores());
      camp.arm(*board);
      if (interval != 0) {
        board->setCheckpointing({interval, 4, ""});
      }
      board->runTo(to);
      printFired(camp, board->numCores());
      std::printf("fi scheduled=%zu fired=%llu ring_corruptions=%llu\n",
                  camp.scheduled(),
                  static_cast<unsigned long long>(camp.firedCount()),
                  static_cast<unsigned long long>(camp.ringCorruptions()));
      if (obs_opts.traceWanted()) {
        camp.emitTrace(sink);
      }
      printSummary(*board);
      obs_opts.finish(*board, sink, &camp);
      return 0;
    }

    if (command == "recover") {
      CABT_CHECK(interval != 0,
                 "recover needs --interval=N (a snapshot ring to fall "
                 "back into)");
      CABT_CHECK(!fault_specs.empty(),
                 "recover needs at least one --fault=SPEC to recover from");
      // Clean reference run: the convergence target and the expected
      // digest trail for divergence detection.
      std::unique_ptr<platform::ReferenceBoard> ref = scenario.makeBoard();
      ref->setCheckpointing({interval, 4, ""});
      ref->run();
      const uint64_t want = snap::digest(*ref);
      // Faulted run: same ring, trail-certified divergence detection,
      // auto-recovery bounded by RecoveryConfig defaults.
      std::unique_ptr<platform::ReferenceBoard> board = scenario.makeBoard();
      obs::TraceSink sink;
      if (obs_opts.traceWanted()) {
        board->setTraceSink(&sink);
      }
      fi::Campaign camp =
          buildCampaign(fault_specs, fi_armed, board->numCores());
      camp.arm(*board);
      board->setCheckpointing({interval, 4, ""});
      board->setExpectedTrail(ref->digestTrail());
      platform::RecoveryConfig rec;
      rec.auto_recover = true;
      board->setRecovery(rec);
      board->runTo(to);
      printFired(camp, board->numCores());
      const uint64_t got = snap::digest(*board);
      std::printf("recover %s: fired=%llu recoveries=%zu divergences=%zu "
                  "clean=0x%016llx recovered=0x%016llx %s\n",
                  scenario_name.c_str(),
                  static_cast<unsigned long long>(camp.firedCount()),
                  board->recoveries(), board->divergences(),
                  static_cast<unsigned long long>(want),
                  static_cast<unsigned long long>(got),
                  want == got ? "OK" : "MISMATCH");
      if (want != got) {
        std::printf("first difference: %s\n",
                    snap::firstDifference(*ref, *board).c_str());
      }
      obs_opts.finish(*board, sink, &camp);
      return want == got ? 0 : 1;
    }

    if (command == "profile") {
      std::unique_ptr<platform::ReferenceBoard> board = scenario.makeBoard();
      obs::TraceSink sink;
      if (obs_opts.traceWanted()) {
        board->setTraceSink(&sink);
      }
      std::vector<std::unique_ptr<obs::PcSampler>> samplers;
      for (size_t i = 0; i < board->numCores(); ++i) {
        samplers.push_back(std::make_unique<obs::PcSampler>(period));
        board->attachSampler(i, samplers.back().get());
      }
      board->run();
      std::string folded;
      for (size_t i = 0; i < board->numCores(); ++i) {
        const std::vector<obs::ProfileEntry> entries =
            obs::attributeSamples(*samplers[i], board->core(i).symbols());
        std::printf("core%zu: %llu samples, period %llu cycles\n", i,
                    static_cast<unsigned long long>(
                        samplers[i]->totalSamples()),
                    static_cast<unsigned long long>(samplers[i]->period()));
        std::fputs(obs::topTable(entries, top_n).c_str(), stdout);
        folded += obs::foldedLines("core" + std::to_string(i), entries);
      }
      if (!fold_out.empty()) {
        std::ofstream out(fold_out);
        CABT_CHECK(out.good(), "cannot open '" << fold_out << "'");
        out << folded;
        std::printf("folded %s\n", fold_out.c_str());
      }
      printSummary(*board);
      obs_opts.finish(*board, sink);
      return 0;
    }

    if (command == "save") {
      CABT_CHECK(!out_path.empty(), "save needs --out=FILE");
      std::unique_ptr<platform::ReferenceBoard> board = scenario.makeBoard();
      board->runTo(at);
      snap::saveFile(*board, out_path);
      std::printf("saved %s at cycle %llu digest=0x%016llx\n",
                  out_path.c_str(),
                  static_cast<unsigned long long>(board->kernel().now()),
                  static_cast<unsigned long long>(snap::digest(*board)));
      return 0;
    }

    if (command == "resume") {
      CABT_CHECK(!in_path.empty(), "resume needs --in=FILE");
      std::unique_ptr<platform::ReferenceBoard> board = scenario.makeBoard();
      snap::restoreFile(*board, in_path);
      board->runTo(to);
      printSummary(*board);
      return 0;
    }

    if (command == "selfcheck") {
      // Uninterrupted reference run.
      std::unique_ptr<platform::ReferenceBoard> ref = scenario.makeBoard();
      ref->run();
      const uint64_t want = snap::digest(*ref);
      // Save mid-run, restore into a cold board, run to completion.
      std::unique_ptr<platform::ReferenceBoard> warm = scenario.makeBoard();
      warm->runTo(at);
      const std::vector<uint8_t> snapshot = snap::save(*warm);
      std::unique_ptr<platform::ReferenceBoard> cold = scenario.makeBoard();
      snap::restore(*cold, snapshot);
      cold->run();
      const uint64_t got = snap::digest(*cold);
      std::printf("selfcheck %s at=%llu: uninterrupted=0x%016llx "
                  "restored=0x%016llx %s\n",
                  scenario_name.c_str(), static_cast<unsigned long long>(at),
                  static_cast<unsigned long long>(want),
                  static_cast<unsigned long long>(got),
                  want == got ? "OK" : "MISMATCH");
      if (want != got) {
        std::printf("first difference: %s\n",
                    snap::firstDifference(*ref, *cold).c_str());
      }
      return want == got ? 0 : 1;
    }

    throw Error("unknown command '" + command + "'");
  } catch (const cabt::Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  } catch (const std::exception& e) {
    // Anything the simulator did not classify (bad_alloc, filesystem
    // errors, ...) still exits with a one-line diagnosis, never a core.
    std::fprintf(stderr, "error: unhandled exception: %s\n", e.what());
    return 2;
  } catch (...) {
    std::fprintf(stderr, "error: unhandled non-standard exception\n");
    return 2;
  }
}

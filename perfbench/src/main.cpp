// perfbench: runs one workload of the repository benchmark for a fixed
// wall-clock time and writes the raw record (per-item fastest latency
// and execution count, set-up times, simulated numbers, per-layer counts
// and spans) as JSON.
// perfbench/run.py builds this binary, turns the record into the
// benchmark's metrics and prints them; see perfbench/README.md.
//
//   perfbench --workload <xlat_fig5|ref_fig5|soc_quad|fuzz_farm>
//             --seed <n> --seconds <s> --trace <0|1> --out <file>
//             --work-dir <dir> [--golden <quantum,d_functional,...,d_cache>]
//             [--corpus <dir>]
#include <algorithm>
#include <cstdio>
#include <exception>
#include <fstream>
#include <numeric>
#include <optional>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"

namespace perfbench {

Tracer::Scope Tracer::span(const char* name, const char* layer) {
  if (!enabled()) {
    return Scope(this, -1);
  }
  Span s;
  s.parent = open_.empty() ? -1 : open_.back();
  s.item = item_;
  s.name = name;
  s.layer = layer;
  s.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                   Clock::now() - epoch_)
                   .count();
  const auto id = static_cast<int64_t>(spans_.size());
  spans_.push_back(std::move(s));
  open_.push_back(id);
  return Scope(this, id);
}

void Tracer::end(int64_t id) {
  spans_[static_cast<size_t>(id)].end_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           epoch_)
          .count();
  // Scopes close in reverse order of opening.
  open_.pop_back();
}

void Tracer::split(int64_t id, const std::string& layer, double ms) {
  if (id >= 0) {
    spans_[static_cast<size_t>(id)].split[layer] += ms;
  }
}

double meanSpanMs(const Tracer& tracer, const std::string& name) {
  double ms = 0;
  double calls = 0;
  for (const Span& s : tracer.spans()) {
    if (s.name == name && s.end_ns >= 0) {
      ms += static_cast<double>(s.end_ns - s.start_ns) / 1e6;
      calls += 1;
    }
  }
  return calls > 0 ? ms / calls : 0.0;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v.empty() ? 0.0 : v[v.size() / 2];
}

namespace {

/// Number of set-up repetitions per run; the median is reported.
constexpr int kSetupReps = 7;

std::string jsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += ' ';
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string jsonNumber(double v) {
  std::ostringstream out;
  out.precision(17);
  out << v;
  return out.str();
}

std::string jsonObject(const std::map<std::string, double>& m) {
  std::string out = "{";
  for (const auto& [k, v] : m) {
    out += (out.size() > 1 ? "," : "") + jsonString(k) + ":" + jsonNumber(v);
  }
  return out + "}";
}

struct Args {
  std::string workload;
  uint32_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out;
  std::string work_dir;
  std::string corpus;
  std::vector<uint64_t> golden;
};

Args parseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") {
      a.workload = val;
    } else if (key == "--seed") {
      a.seed = static_cast<uint32_t>(std::stoul(val));
    } else if (key == "--seconds") {
      a.seconds = std::stod(val);
    } else if (key == "--trace") {
      a.trace = val == "1";
    } else if (key == "--out") {
      a.out = val;
    } else if (key == "--work-dir") {
      a.work_dir = val;
    } else if (key == "--corpus") {
      a.corpus = val;
    } else if (key == "--golden") {
      std::stringstream in(val);
      std::string part;
      while (std::getline(in, part, ',')) {
        a.golden.push_back(std::stoull(part, nullptr, 0));
      }
    } else {
      throw std::runtime_error("unknown argument " + key);
    }
  }
  if (a.out.empty() || a.work_dir.empty() || a.seconds <= 0) {
    throw std::runtime_error("--out, --work-dir and --seconds > 0 required");
  }
  return a;
}

/// Peak resident set of this process image in MB (VmHWM). getrusage's
/// ru_maxrss would also count the launching process's footprint, which
/// survives exec.
double peakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

std::unique_ptr<Workload> makeWorkload(const Args& a) {
  if (a.workload == "xlat_fig5") {
    return makeXlatFig5();
  }
  if (a.workload == "ref_fig5") {
    return makeRefFig5();
  }
  if (a.workload == "soc_quad") {
    return makeSocQuad(a.golden);
  }
  if (a.workload == "fuzz_farm") {
    return makeFuzzFarm(a.work_dir, a.corpus);
  }
  throw std::runtime_error("unknown workload '" + a.workload + "'");
}

int run(const Args& args) {
  std::unique_ptr<Workload> wl = makeWorkload(args);
  std::vector<double> setup_s;
  for (int r = 0; r < kSetupReps; ++r) {
    const auto t0 = Clock::now();
    wl->setup(args.seed);
    setup_s.push_back(msSince(t0) / 1e3);
  }

  const size_t n = wl->numItems();
  std::vector<std::optional<Outcome>> first(n);
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::mt19937 rng(args.seed);
  Tracer tracer(args.trace);

  // Per item and tracing state ([0] untraced, [1] traced): the fastest
  // execution and the number of executions; that is all the metrics
  // need, and it keeps the benchmark's own memory independent of how
  // many items ran. An untraced run only fills [0]; a traced run
  // alternates whole passes so both states see the same items under the
  // same conditions.
  struct Timing {
    double min_ms = 0;
    uint64_t runs = 0;
  };
  std::vector<Timing> timing[2] = {std::vector<Timing>(n),
                                   std::vector<Timing>(n)};
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t sim_mismatches = 0;
  std::vector<std::string> errors;
  const auto loop_t0 = Clock::now();
  const double budget_ms = args.seconds * 1e3;
  for (size_t pass = 0;; ++pass) {
    const bool traced = args.trace && pass % 2 == 0;
    tracer.setActive(traced);
    std::shuffle(order.begin(), order.end(), rng);
    // Every item runs at least once, so the simulated totals and the
    // accuracy check always cover the whole item set.
    const bool complete =
        std::all_of(first.begin(), first.end(),
                    [](const auto& o) { return o.has_value(); });
    if (complete && msSince(loop_t0) >= budget_ms) {
      break;
    }
    for (const size_t i : order) {
      if (complete && msSince(loop_t0) >= budget_ms) {
        break;
      }
      tracer.setItem(attempted);
      const auto t0 = Clock::now();
      Outcome o;
      try {
        const Tracer::Scope root = tracer.span("item", "bench");
        o = wl->run(i, tracer);
      } catch (const std::exception& e) {
        o.fail(std::string("exception: ") + e.what());
      }
      const double ms = msSince(t0);
      if (first[i].has_value()) {
        if (o.ok && first[i]->ok && o.sim != first[i]->sim) {
          ++sim_mismatches;
          o.fail("simulated numbers differ between executions");
        }
      } else {
        first[i] = o;
      }
      Timing& t = timing[traced ? 1 : 0][i];
      t.min_ms = t.runs == 0 ? ms : std::min(t.min_ms, ms);
      ++t.runs;
      ++attempted;
      if (!o.ok) {
        ++failed;
        if (errors.size() < 8) {
          errors.push_back(wl->itemName(i) + ": " + o.error);
        }
      }
    }
  }
  const double wall_ms = msSince(loop_t0);
  tracer.setActive(true);

  std::vector<Outcome> firsts;
  for (const auto& o : first) {
    firsts.push_back(*o);
  }
  std::map<std::string, double> counters;
  for (const Outcome& o : firsts) {
    for (const auto& [k, v] : o.counters) {
      counters[k] += v;
    }
  }
  std::map<std::string, double> probes;
  if (args.trace) {
    tracer.setItem(attempted);
    probes = wl->layerMetrics(tracer, counters);
  }
  const Modeled modeled = wl->modeled(firsts);

  std::ofstream out(args.out);
  out << "{\"workload\":" << jsonString(args.workload)
      << ",\"seed\":" << args.seed << ",\"traced\":" << (args.trace ? 1 : 0)
      << ",\"nproc\":" << std::thread::hardware_concurrency()
      << ",\"compiler\":" << jsonString(std::string("g++ ") + __VERSION__)
      << ",\"build_type\":" << jsonString(PERFBENCH_BUILD_TYPE)
      << ",\"setup_s\":[";
  for (size_t i = 0; i < setup_s.size(); ++i) {
    out << (i ? "," : "") << jsonNumber(setup_s[i]);
  }
  for (int t = 0; t < 2; ++t) {
    const char* state = t ? "traced" : "untraced";
    out << "],\"item_ms_" << state << "\":[";
    for (size_t i = 0; i < n; ++i) {
      out << (i ? "," : "") << jsonNumber(timing[t][i].min_ms);
    }
    out << "],\"item_runs_" << state << "\":[";
    for (size_t i = 0; i < n; ++i) {
      out << (i ? "," : "") << timing[t][i].runs;
    }
  }
  out << "],\"wall_ms\":" << jsonNumber(wall_ms)
      << ",\"attempted\":" << attempted << ",\"failed\":" << failed
      << ",\"sim_mismatches\":" << sim_mismatches
      << ",\"modeled\":[" << jsonNumber(modeled.instrs) << ","
      << jsonNumber(modeled.seconds) << "]"
      << ",\"deviation_icache_pct\":" << jsonNumber(wl->deviationPct(firsts))
      << ",\"peak_rss_mb\":" << jsonNumber(peakRssMb())
      << ",\"errors\":[";
  for (size_t i = 0; i < errors.size(); ++i) {
    out << (i ? "," : "") << jsonString(errors[i]);
  }
  out << "],\"item_instrs\":[";
  for (size_t i = 0; i < n; ++i) {
    out << (i ? "," : "") << firsts[i].src_instrs;
  }
  out << "],\"sim\":{";
  for (size_t i = 0; i < n; ++i) {
    out << (i ? "," : "") << jsonString(wl->itemName(i)) << ":[";
    for (size_t k = 0; k < firsts[i].sim.size(); ++k) {
      out << (k ? "," : "") << firsts[i].sim[k];
    }
    out << "]";
  }
  out << "},\"counters\":" << jsonObject(counters)
      << ",\"probes\":" << jsonObject(probes) << ",\"spans\":[";
  const std::vector<Span>& spans = tracer.spans();
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out << (i ? "," : "") << "[" << s.parent << "," << s.item << ","
        << jsonString(s.name) << "," << jsonString(s.layer) << ","
        << s.start_ns << "," << s.end_ns << "," << jsonObject(s.split)
        << "]";
  }
  out << "]}\n";
  out.close();
  if (!out) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", args.out.c_str());
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(perfbench::parseArgs(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}

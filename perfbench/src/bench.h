// Shared types of the repository benchmark (perfbench/README.md).
//
// The benchmark treats the simulator as a black box: every workload
// drives only public entry points of src/ and reads only their public
// counters. Each workload is a list of items; one item is one closed-
// loop request (translate-and-run one program at one detail level, run
// one reference board, run one fleet call, run one fuzzing campaign).
// The loop in main.cpp runs items back to back on one host thread.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "soc/bus.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double msSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0)
      .count();
}

/// One recorded span: a public call made by the benchmark, attributed
/// to the src/ module (layer) that implements it. `split` moves an
/// estimated share of the span's self time to other layers, in ms, for
/// calls the benchmark cannot cut open (see README "Traced run").
struct Span {
  int64_t parent = -1;
  uint64_t item = 0;
  std::string name;
  std::string layer;
  int64_t start_ns = 0;
  int64_t end_ns = -1;
  std::map<std::string, double> split;
};

/// In-memory span recorder. Disabled, every call is one branch; spans
/// are written out once, after the run.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  class Scope {
   public:
    Scope(Tracer* tracer, int64_t id) : tracer_(tracer), id_(id) {}
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope() {
      if (id_ >= 0) {
        tracer_->end(id_);
      }
    }
    [[nodiscard]] int64_t id() const { return id_; }

   private:
    Tracer* tracer_;
    int64_t id_;
  };

  [[nodiscard]] bool enabled() const { return enabled_ && active_; }
  /// Tracing can be paused so traced and untraced items interleave in
  /// one run (the tracing-overhead measurement).
  void setActive(bool active) { active_ = active; }
  void setItem(uint64_t item) { item_ = item; }

  /// Opens a span nested in the innermost open one.
  [[nodiscard]] Scope span(const char* name, const char* layer);
  /// Adds an estimated split of span `id` to `layer`.
  void split(int64_t id, const std::string& layer, double ms);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  void end(int64_t id);

  bool enabled_;
  bool active_ = true;
  uint64_t item_ = 0;
  std::vector<Span> spans_;
  std::vector<int64_t> open_;
  Clock::time_point epoch_ = Clock::now();
};

/// What one item came to. `sim` holds every simulated number the item
/// produced (cycles, instructions, digests, campaign counts); a second
/// execution of the same item must reproduce it exactly.
struct Outcome {
  bool ok = true;
  std::string error;
  /// TRC32 source instructions the item retired (host_mips numerator;
  /// 0 for items whose instructions the benchmark cannot count).
  uint64_t src_instrs = 0;
  std::vector<uint64_t> sim;
  /// Per-layer counts of this item (vliw.cycles, iss.chain_hits, ...).
  std::map<std::string, double> counters;

  void fail(const std::string& why) {
    if (ok) {
      ok = false;
      error = why;
    }
  }
};

/// Simulated speed of one item: instructions over modelled seconds.
struct Modeled {
  double instrs = 0;
  double seconds = 0;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds the items and their reference results from `seed`. Called
  /// several times per run (set-up time is reported as a median); each
  /// call replaces the previous state.
  virtual void setup(uint32_t seed) = 0;
  [[nodiscard]] virtual size_t numItems() const = 0;
  [[nodiscard]] virtual std::string itemName(size_t i) const = 0;
  /// Runs item `i` and checks its result. May throw; the loop counts a
  /// throw as a failed item.
  virtual Outcome run(size_t i, Tracer& tracer) = 0;
  /// The simulated speed the workload reports as modeled_mips, from the
  /// first execution of each item (`first[i]`).
  virtual Modeled modeled(const std::vector<Outcome>& first) const = 0;
  /// Largest cycle deviation in percent over the cache-level items
  /// (0 where the workload has none).
  virtual double deviationPct(const std::vector<Outcome>& /*first*/) const {
    return 0.0;
  }
  /// Traced run only, after the item loop: the per-layer metrics that
  /// need the recorded spans, the per-pass counters (`counters`, summed
  /// over the first execution of every item) or extra layer probes the
  /// items cannot show (README "Per-layer metrics").
  virtual std::map<std::string, double> layerMetrics(
      Tracer& tracer, const std::map<std::string, double>& counters) = 0;
};

/// Mean duration in ms of the finished spans named `name` (0 if none).
double meanSpanMs(const Tracer& tracer, const std::string& name);

double median(std::vector<double> v);

/// Bus reads plus writes, through the bus's public metrics adapter.
inline uint64_t busTransactions(const cabt::soc::SocBus& bus) {
  cabt::obs::MetricsRegistry reg;
  bus.publishMetrics(reg, "");
  return reg.counterOr("reads") + reg.counterOr("writes");
}

std::unique_ptr<Workload> makeXlatFig5();
std::unique_ptr<Workload> makeRefFig5();
/// `golden` is {quantum, digest at functional, static, branch, cache}
/// from tests/golden_digests.json.
std::unique_ptr<Workload> makeSocQuad(const std::vector<uint64_t>& golden);
/// Campaign corpora go under `work_dir`; `corpus_dir` is the
/// checked-in corpus behind fuzz_farm's host_mips.
std::unique_ptr<Workload> makeFuzzFarm(const std::string& work_dir,
                                       const std::string& corpus_dir);

}  // namespace perfbench

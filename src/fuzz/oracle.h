// The three-way differential oracle of the fuzzing farm (DESIGN.md
// section 13).
//
// One candidate SeedCase is executed across the full reference-board
// grid — detail level {functional, static, branch-predict, icache} ×
// dispatch {lookup, chained, chained+traces, threaded} × {sequential,
// parallel-round} — and, for single-program cases without shared
// traffic or faults, additionally against the RT-level model and the
// translated platform at every detail level. Compared observables:
//
//   * within one detail level: the rolling state digest (snap::digest:
//     registers, pc, stop reason, architectural stats, memory, the bus
//     clock and transaction log, every device including the interrupt
//     delivery timestamps) must be bit-identical across dispatch modes
//     and seq/par; the level's first board stays alive, and a mismatch
//     names the first differing field (snap::firstDifference);
//   * across detail levels (skipped when faults are armed or when
//     multiple cores share traffic — cycle-keyed faults and shared-bus
//     interleavings legitimately depend on the timing model): the
//     functional observables (instructions, registers, pc, io counts);
//   * ISS vs rtlsim: exact cycle count and data registers;
//   * ISS vs translated platform: final architectural state at every
//     level, exact generated-cycle agreement at icache, exact-minus-
//     cache-penalty at branch-predict.
//
// Snapshot forking: cases with fork_cycle > 0 warm each grid board to
// the fork once per (programs, config) and every later run restores
// that snapshot instead of replaying from reset; fault campaigns arm at
// the fork in both the warm and the cold path, so fork and cold runs
// are bit-identical by the snap:: contract. The candidate's mutated
// state (fi:: specs) applies on top of the restored board.
//
// The reference configuration (icache level, chained+traces, seq) runs
// first and gates validity: a candidate that does not halt there within
// the instruction budget is discarded as invalid, never reported.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/coverage.h"
#include "fuzz/corpus.h"

namespace cabt::fuzz {

struct OracleOptions {
  /// Plants the deliberate translator timing bug
  /// (xlat::TranslateOptions::debug_skew_static_cycles) — the farm's
  /// acceptance drill: the oracle must catch it at the cycle-exact
  /// detail levels.
  bool xlat_skew = false;
  /// Per-core reference instruction budget; exceeding it in the
  /// reference configuration marks the candidate invalid (mutants that
  /// spin are discarded, not reported).
  uint64_t max_instructions = 2'000'000;
  /// VLIW-cycle budget for translated-platform runs.
  uint64_t max_vliw_cycles = 80'000'000;
  /// Skip the rtlsim/translator legs entirely (used by grid-only unit
  /// tests; the farm keeps them on).
  bool three_way = true;
};

struct OracleResult {
  /// Reference configuration halted within budget. Invalid candidates
  /// (assembly errors, non-halting references) are not findings.
  bool valid = false;
  /// Every comparison agreed. Meaningful only when valid.
  bool ok = false;
  /// First mismatch, human-readable ("level=icache dispatch=threaded
  /// par=1: digest 0x... != 0x..."); empty when ok.
  std::string mismatch;
  /// Engine executions this candidate cost (board grid + extras).
  uint64_t executions = 0;
  /// Clean-run length (SoC bus cycle at reference halt); the farm
  /// stamps this into corpus entries as the mutation horizon.
  uint64_t ref_cycles = 0;
};

/// Bounded warm-snapshot store keyed by (programs, board config, fork
/// cycle). Shared across candidates so state-only mutants of one corpus
/// entry restore instead of re-warming.
class SnapshotCache {
 public:
  explicit SnapshotCache(size_t capacity = 128) : capacity_(capacity) {}

  [[nodiscard]] const std::vector<uint8_t>* find(const std::string& key) const;
  void put(const std::string& key, std::vector<uint8_t> data);

  [[nodiscard]] uint64_t hits() const { return hits_; }
  [[nodiscard]] uint64_t misses() const { return misses_; }
  void countHit() { ++hits_; }
  void countMiss() { ++misses_; }

 private:
  size_t capacity_;
  std::unordered_map<std::string, std::vector<uint8_t>> map_;
  std::deque<std::string> order_;  // FIFO eviction
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
};

/// Runs the full oracle. `cache` may be null (every fork warms cold);
/// `coverage` may be null (no feedback collected) — when set, the
/// reference configuration's runs record edges into it.
OracleResult runOracle(const SeedCase& c, const OracleOptions& opts,
                       SnapshotCache* cache, core::EdgeCoverage* coverage);

}  // namespace cabt::fuzz

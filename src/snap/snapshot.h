// Versioned binary checkpoint/restore of the whole reference platform,
// plus the rolling state digest behind deterministic replay (DESIGN.md
// section 9).
//
// A snapshot captures everything the next simulated cycle can observe:
// every core's architectural and micro-architectural ISS state (register
// files, pc, lazy-commit cycle accounting, pipeline scoreboard, icache
// tags/LRU, IssStats, breakpoints), every SparseMemory image, the SoC
// bus clock with its transaction-log tail and all device state
// (interrupt controllers, timers, mailbox, scratch, chardev), and the
// event kernel's queue with each process's pending activation — so
//
//     save(); restore(); run(N)   ==   run(N)
//
// bit-identically, at every detail level, under every dispatch mode and
// under the sequential and parallel-round kernels alike
// (tests/snap_test.cpp). What a snapshot deliberately does NOT contain
// is host-side derived state: block graphs, predecoded block caches and
// superblock traces are pure functions of the immutable program image —
// a restore revalidates what exists and rebuilds the rest lazily, which
// is what makes a snapshot restorable into a cold process.
//
// Snapshots are taken between kernel runs only (the platform's
// checkpointing loop guarantees that); the format is little-endian,
// carries a magic/version header and an FNV-1a integrity footer, and
// every layer frames its own section (common/serial.h).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "platform/platform.h"

namespace cabt::snap {

/// Bumped whenever any layer's section layout changes. Old snapshots
/// refuse to load — fast-forward state is cheap to regenerate, silent
/// misinterpretation is not.
inline constexpr uint32_t kFormatVersion = 2;  // v2: IssStats threaded counters

/// Serializes the full platform state.
std::vector<uint8_t> save(const platform::ReferenceBoard& board);

/// Restores a snapshot into `board`, which must be configured
/// identically to the board that produced it (same images, core count,
/// detail level, quantum, device set) — construction-time wiring is
/// verified, not serialized. The board may be warm (mid-run, halted) or
/// cold (freshly constructed); either way the next run() continues
/// bit-identically to the saved platform. Transactional: when any field
/// is rejected the board gets its own pre-restore state back before the
/// cabt::Error propagates (the pre-image costs one save per restore).
void restore(platform::ReferenceBoard& board,
             const std::vector<uint8_t>& data);

/// 64-bit rolling digest of the platform's architectural state: the
/// FNV-1a of the layers' io() walk in digest mode — each core (registers,
/// pc, timing residue, architectural counters, canonical memory), then
/// the bus clock, the transaction-log tail and all device state. The
/// host-only parts (Iss compatibility record, open-block residue,
/// dispatch-path counters, debug state) and the kernel queue are left
/// out, so the digest is identical across dispatch modes,
/// sequential/parallel kernels, and warm/cold restores of the same run —
/// it is the value scripts/golden_state.py pins per workload.
uint64_t digest(const platform::ReferenceBoard& board);

/// Where the digests of `a` and `b` first differ: "" when they are
/// equal, else the first differing field's path and both values
/// ("core1.iss.d[4]: 0x7 vs 0x9"; a memory byte reads
/// "core0.iss.mem[0x80001010]: ...", a string "bus.chardev.output at
/// byte 7: ..."). It walks both boards in Writer::Mode::kRecord and only
/// reads them.
std::string firstDifference(const platform::ReferenceBoard& a,
                            const platform::ReferenceBoard& b);

/// File convenience wrappers (the CLI and scripts use these).
void saveFile(const platform::ReferenceBoard& board,
              const std::string& path);
void restoreFile(platform::ReferenceBoard& board, const std::string& path);

/// Snapshot-fork primitive: serialize a warmed-up board once, then stamp
/// the bytes into any number of identically configured cold boards.
/// This is the fleet driver's fan-out path (src/fleet): warm one
/// prototype past reset/init, fork it into K boards, diverge each
/// (inject faults, poke inputs, raise IRQs) and run the K scenarios —
/// paying the warm-up once instead of K times. `into` is const and the
/// serialized bytes are immutable, so forking from many host threads
/// concurrently is safe.
class Fork {
 public:
  explicit Fork(const platform::ReferenceBoard& warm) : bytes_(save(warm)) {}

  /// Cold-restores the warm state into `board` (same construction-time
  /// wiring required, as with restore()).
  void into(platform::ReferenceBoard& board) const { restore(board, bytes_); }

  [[nodiscard]] const std::vector<uint8_t>& bytes() const { return bytes_; }

 private:
  std::vector<uint8_t> bytes_;
};

}  // namespace cabt::snap

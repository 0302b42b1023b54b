#include "snap/snapshot.h"

#include <algorithm>
#include <fstream>
#include <iterator>
#include <unordered_map>

#include "common/serial.h"

namespace cabt::snap {

namespace {

constexpr char kMagic[] = "CABTSNAP";
constexpr size_t kMagicSize = 8;

/// The stream between the magic and the footer, shared by save and
/// restore: version and board shape, the kernel (through `kernel_io`,
/// since the process mapping runs in opposite directions), the bus with
/// every device, then each core (architectural + micro-architectural
/// state + memory).
template <class Board, class Ar, class KernelIo>
void io(Board& board, Ar& ar, KernelIo&& kernel_io) {
  ar.expect(kFormatVersion, "format version");
  ar.expect(static_cast<uint32_t>(board.numCores()), "core count");
  kernel_io();
  ar.state(board.board().bus);
  for (size_t i = 0; i < board.numCores(); ++i) {
    ar.state(board.core(i));
  }
}

}  // namespace

std::vector<uint8_t> save(const platform::ReferenceBoard& board) {
  serial::Writer w;
  w.bytes(kMagic, kMagicSize);
  // Kernel processes are identified by core index (the board's
  // construction order).
  std::unordered_map<sim::Process*, uint32_t> index;
  for (size_t i = 0; i < board.numCores(); ++i) {
    index.emplace(board.process(i), static_cast<uint32_t>(i));
  }
  io(board, w, [&] {
    board.kernel().saveState(w, [&index](sim::Process* p) {
      const auto it = index.find(p);
      CABT_CHECK(it != index.end(),
                 "kernel queue holds a process the board does not own");
      return it->second;
    });
  });
  // Integrity footer over everything above.
  const uint64_t sum = serial::fnv1a(w.data());
  w.u64(sum);
  return w.take();
}

void restore(platform::ReferenceBoard& board,
             const std::vector<uint8_t>& data) {
  CABT_CHECK(data.size() > kMagicSize + 4 + 8, "snapshot too short");
  const uint64_t sum = serial::fnv1a(data.data(), data.size() - 8);
  serial::Reader footer(data.data() + data.size() - 8, 8);
  CABT_CHECK(footer.get<uint64_t>() == sum,
             "snapshot integrity check failed (truncated or corrupted)");

  serial::Reader r(data.data(), data.size() - 8);
  char magic[kMagicSize];
  r.bytes(magic, kMagicSize);
  CABT_CHECK(std::equal(magic, magic + kMagicSize, kMagic),
             "not a cabt snapshot (bad magic)");
  io(board, r, [&] {
    board.kernel().restoreState(r, [&board](uint32_t i) {
      CABT_CHECK(i < board.numCores(), "process index out of range");
      return board.process(i);
    });
  });
  CABT_CHECK(r.remaining() == 0,
             "snapshot has " << r.remaining() << " unread trailing bytes");
}

uint64_t digest(const platform::ReferenceBoard& board) {
  serial::Writer w;
  for (size_t i = 0; i < board.numCores(); ++i) {
    board.core(i).digestState(w);
  }
  // Bus section: the clock, the log tail and every device's serialized
  // state are all deterministic observables (the same bytes save()
  // writes), so reusing saveState keeps the two definitions aligned.
  board.board().bus.saveState(w);
  return serial::fnv1a(w.data());
}

void saveFile(const platform::ReferenceBoard& board,
              const std::string& path) {
  const std::vector<uint8_t> data = save(board);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  CABT_CHECK(out.good(), "cannot open '" << path << "' for writing");
  out.write(reinterpret_cast<const char*>(data.data()),
            static_cast<std::streamsize>(data.size()));
  CABT_CHECK(out.good(), "short write to '" << path << "'");
}

void restoreFile(platform::ReferenceBoard& board, const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  CABT_CHECK(in.good(), "cannot open '" << path << "'");
  std::vector<uint8_t> data((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
  restore(board, data);
}

}  // namespace cabt::snap

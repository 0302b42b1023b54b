#include "snap/snapshot.h"

#include <algorithm>
#include <fstream>
#include <iterator>
#include <span>
#include <sstream>
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

/// The digest walk: each core's io() body without its host-only parts,
/// then the bus section (clock, log tail, every device).
serial::Writer digestWalk(const platform::ReferenceBoard& board,
                          serial::Writer::Mode mode) {
  serial::Writer w(mode);
  for (size_t i = 0; i < board.numCores(); ++i) {
    const size_t len = w.push("core", i, /*bare=*/true);
    w.state(board.core(i));
    w.pop(len);
  }
  w.state(board.board().bus);
  return w;
}

/// The bytes of mark `k`.
std::span<const uint8_t> fieldOf(const serial::Writer& w, size_t k) {
  const auto& m = w.marks();
  const size_t end = k + 1 < m.size() ? m[k + 1].at : w.size();
  return std::span(w.data()).subspan(m[k].at, end - m[k].at);
}

/// A little-endian field of up to 8 bytes.
uint64_t value(std::span<const uint8_t> f) {
  uint64_t v = 0;
  for (size_t i = f.size(); i-- > 0;) {
    v = v << 8 | f[i];
  }
  return v;
}

/// save()'s stream without the magic and footer (restore's pre-image).
void write(const platform::ReferenceBoard& board, serial::Writer& w) {
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
}

void read(platform::ReferenceBoard& board, serial::Reader r) {
  io(board, r, [&] {
    board.kernel().restoreState(r, [&board](uint32_t i) {
      CABT_CHECK(i < board.numCores(), "process index out of range");
      return board.process(i);
    });
  });
  CABT_CHECK(r.remaining() == 0,
             "snapshot has " << r.remaining() << " unread trailing bytes");
}

}  // namespace

std::vector<uint8_t> save(const platform::ReferenceBoard& board) {
  serial::Writer w;
  w.bytes(kMagic, kMagicSize);
  write(board, w);
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
  CABT_CHECK(std::equal(kMagic, kMagic + kMagicSize, data.begin()),
             "not a cabt snapshot (bad magic)");
  // Transactional: a layer that rejects its field leaves the layers
  // before it overwritten, so the board's own pre-image goes back first.
  serial::Writer before;
  write(board, before);
  try {
    read(board, serial::Reader(data.data() + kMagicSize,
                               data.size() - kMagicSize - 8));
  } catch (...) {
    read(board, serial::Reader(before.data()));
    throw;
  }
}

uint64_t digest(const platform::ReferenceBoard& board) {
  return serial::fnv1a(digestWalk(board, serial::Writer::Mode::kDigest).data());
}

std::string firstDifference(const platform::ReferenceBoard& a,
                            const platform::ReferenceBoard& b) {
  const serial::Writer wa = digestWalk(a, serial::Writer::Mode::kRecord);
  const serial::Writer wb = digestWalk(b, serial::Writer::Mode::kRecord);
  const auto& ma = wa.marks();
  const auto& mb = wb.marks();
  // The walks agree mark by mark up to the first field that differs; one
  // ends early only where the other has a further memory page.
  for (size_t k = 0; k < std::max(ma.size(), mb.size()); ++k) {
    if (k == ma.size() || k == mb.size()) {
      return k < ma.size() ? ma[k].path + ": present vs absent"
                           : mb[k].path + ": absent vs present";
    }
    std::span<const uint8_t> fa = fieldOf(wa, k);
    std::span<const uint8_t> fb = fieldOf(wb, k);
    if (std::ranges::equal(fa, fb)) {
      continue;
    }
    std::ostringstream out;
    out << ma[k].path << std::hex;
    if (std::max(fa.size(), fb.size()) > 8) {
      // A memory page (after its base, "mem.page") names the address of
      // its first differing byte; a string, that byte's offset from the
      // start of its length prefix.
      const auto off = static_cast<size_t>(
          std::ranges::mismatch(fa, fb).in1 - fa.begin());
      if (k > 0 && ma[k - 1].path == ma[k].path + ".page") {
        out << "[0x" << value(fieldOf(wa, k - 1)) + off << "]";
      } else {
        out << " at byte " << std::dec << off << std::hex;
      }
      fa = fa.subspan(off, 1);
      fb = fb.subspan(off, 1);
    }
    out << ": 0x" << value(fa) << " vs 0x" << value(fb);
    return out.str();
  }
  return "";
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

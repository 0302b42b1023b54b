// Sparse little-endian byte-addressable memory for the simulators.
// Backed by 4 KiB pages allocated on first touch; untouched memory reads
// as zero. Used for the 32-bit address spaces of both processors.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <vector>

#include "common/error.h"
#include "common/serial.h"

namespace cabt {

class SparseMemory {
 public:
  static constexpr uint32_t kPageBits = 12;
  static constexpr uint32_t kPageSize = 1u << kPageBits;

  [[nodiscard]] uint8_t read8(uint32_t addr) const {
    const Page* p = findPage(addr);
    return p == nullptr ? 0 : (*p)[addr & (kPageSize - 1)];
  }
  void write8(uint32_t addr, uint8_t v) {
    page(addr)[addr & (kPageSize - 1)] = v;
  }

  /// Little-endian access of 1..4 bytes. One page lookup when the access
  /// stays in one page; a straddling one goes byte by byte (and wraps at
  /// the top of the address space).
  [[nodiscard]] uint32_t read(uint32_t addr, unsigned size) const {
    uint32_t v = 0;
    const uint32_t off = addr & (kPageSize - 1);
    if (off + size <= kPageSize) {
      const Page* p = findPage(addr);
      for (unsigned i = 0; p != nullptr && i < size; ++i) {
        v |= static_cast<uint32_t>((*p)[off + i]) << (8 * i);
      }
      return v;
    }
    for (unsigned i = 0; i < size; ++i) {
      v |= static_cast<uint32_t>(read8(addr + i)) << (8 * i);
    }
    return v;
  }
  void write(uint32_t addr, uint32_t v, unsigned size) {
    const uint32_t off = addr & (kPageSize - 1);
    if (off + size <= kPageSize) {
      Page& p = page(addr);
      for (unsigned i = 0; i < size; ++i) {
        p[off + i] = static_cast<uint8_t>(v >> (8 * i));
      }
      return;
    }
    for (unsigned i = 0; i < size; ++i) {
      write8(addr + i, static_cast<uint8_t>(v >> (8 * i)));
    }
  }

  [[nodiscard]] uint16_t read16(uint32_t addr) const {
    return static_cast<uint16_t>(read(addr, 2));
  }
  [[nodiscard]] uint32_t read32(uint32_t addr) const { return read(addr, 4); }
  void write16(uint32_t addr, uint16_t v) { write(addr, v, 2); }
  void write32(uint32_t addr, uint32_t v) { write(addr, v, 4); }

  void writeBlock(uint32_t addr, const uint8_t* data, size_t size) {
    for (size_t i = 0; i < size; ++i) {
      write8(addr + static_cast<uint32_t>(i), data[i]);
    }
  }

  /// Addresses of all touched pages (for state-comparison in tests).
  [[nodiscard]] std::vector<uint32_t> touchedPages() const {
    std::vector<uint32_t> out;
    out.reserve(pages_.size());
    for (const auto& [base, page] : pages_) {
      out.push_back(base);
    }
    return out;
  }

  /// Compares the full contents of two memories (zero-extended, so a page
  /// touched with only zeros equals an untouched page).
  [[nodiscard]] bool contentEquals(const SparseMemory& other) const {
    return this->coveredBy(other) && other.coveredBy(*this);
  }

  /// Drops every page (all addresses read as zero again).
  void clear() { pages_.clear(); }

  // -- snapshot support (src/snap, DESIGN.md section 9) -----------------

  /// Serializes every touched page. Pages iterate in address order
  /// (std::map), so the byte stream is canonical for a given page set.
  /// The digest walk writes the canonical contents instead.
  void saveState(serial::Writer& w) const {
    w.digesting() ? writeCanonical(w) : io(*this, w);
  }

  /// Replaces the full contents with a saved image.
  void restoreState(serial::Reader& r) {
    io(*this, r);
    for (const auto& [base, page] : pages_) {
      CABT_CHECK(base % kPageSize == 0,
                 "snapshot page base 0x" << std::hex << base
                                         << " is not page-aligned");
    }
  }

  /// Canonical *content* serialization for the rolling state digest:
  /// all-zero pages are skipped, so a page touched with only zeros
  /// digests identically to an untouched page (the same equivalence
  /// contentEquals uses). Two memories with equal contents always
  /// produce identical bytes here, whatever their allocation history.
  void writeCanonical(serial::Writer& w) const {
    for (const auto& [base, page] : pages_) {
      const bool all_zero =
          std::all_of(page.begin(), page.end(),
                      [](uint8_t v) { return v == 0; });
      if (all_zero) {
        continue;
      }
      w.field("mem.page", base);
      w.bytes("mem", page, kPageSize);
    }
  }

 private:
  using Page = std::vector<uint8_t>;

  template <class Self, class Ar>
  static void io(Self& self, Ar& ar) {
    ar.tag("mem");
    ar.seq("pages", self.pages_, [&ar](auto& entry) {
      ar.field("base", entry.first);
      ar.bytes("bytes", entry.second, kPageSize);
    });
  }

  [[nodiscard]] bool coveredBy(const SparseMemory& other) const {
    for (const auto& [base, page] : pages_) {
      for (uint32_t i = 0; i < kPageSize; ++i) {
        if (page[i] != other.read8(base + i)) {
          return false;
        }
      }
    }
    return true;
  }

  [[nodiscard]] const Page* findPage(uint32_t addr) const {
    const auto it = pages_.find(addr >> kPageBits << kPageBits);
    return it == pages_.end() ? nullptr : &it->second;
  }

  Page& page(uint32_t addr) {
    const uint32_t base = addr >> kPageBits << kPageBits;
    return pages_.try_emplace(base, kPageSize, uint8_t{0}).first->second;
  }

  std::map<uint32_t, Page> pages_;
};

}  // namespace cabt

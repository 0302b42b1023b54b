// Behavioural instruction-cache model.
//
// Used as ground truth by the reference ISS and the RT-level model, and by
// tests to check that the translator's software-simulated cache (the
// tags/valid/LRU array appended to the translated image, paper Fig. 4)
// tracks it exactly. The state layout mirrors the paper: one combined
// tag+valid word per way per set, plus per-set LRU replacement state.
#pragma once

#include <cstdint>
#include <vector>

#include "arch/arch.h"
#include "common/error.h"
#include "common/serial.h"

namespace cabt::arch {

class ICacheState {
 public:
  explicit ICacheState(const ICacheModel& model) : model_(model) {
    model_.validate();
    tags_.assign(static_cast<size_t>(model_.sets) * model_.ways, 0);
    // LRU state: per set, age order as packed way indices (lowest byte =
    // least recently used way).
    lru_.assign(model_.sets, initialLruWord(model_.ways));
  }

  [[nodiscard]] const ICacheModel& model() const { return model_; }

  /// Performs one line access for the line containing `addr`. Returns true
  /// on a hit; updates tags, valid bits and LRU state.
  bool access(uint32_t addr) {
    return accessTagged(model_.setOf(addr), tagWord(model_.tagOf(addr)));
  }

  /// access() with the set index and combined tag+valid word already
  /// computed. The ISS block cache precomputes both per static line
  /// group, so the dispatch hot path skips the address arithmetic.
  bool accessTagged(uint32_t set, uint32_t want) {
    uint32_t* ways = &tags_[static_cast<size_t>(set) * model_.ways];
    if (model_.ways == 2) {
      // Two-way fast path (the default geometry, and the ISS dispatch
      // hot path): the packed age list degenerates to "LRU way, MRU way",
      // so the touch is a single store instead of a rebuild loop.
      if (ways[0] == want) {
        lru_[set] = 1u;  // way 1 LRU, way 0 MRU
        ++hits_;
        return true;
      }
      if (ways[1] == want) {
        lru_[set] = 1u << 8;  // way 0 LRU, way 1 MRU
        ++hits_;
        return true;
      }
      const uint32_t victim = lru_[set] & 0xffu;
      ways[victim] = want;
      lru_[set] = (victim ^ 1u) | (victim << 8);
      ++misses_;
      return false;
    }
    for (uint32_t w = 0; w < model_.ways; ++w) {
      if (ways[w] == want) {
        touch(set, w);
        ++hits_;
        return true;
      }
    }
    const uint32_t victim = lruWay(set);
    ways[victim] = want;
    touch(set, victim);
    ++misses_;
    return false;
  }

  /// Combined tag+valid word, exactly as the translated image stores it.
  [[nodiscard]] static uint32_t tagWord(uint32_t tag) {
    return (tag << 1) | 1u;
  }

  [[nodiscard]] uint32_t tagEntry(uint32_t set, uint32_t way) const {
    return tags_[static_cast<size_t>(set) * model_.ways + way];
  }
  /// Way that would be evicted next in `set`.
  [[nodiscard]] uint32_t lruWay(uint32_t set) const {
    return lru_[set] & 0xffu;
  }
  [[nodiscard]] uint64_t hits() const { return hits_; }
  [[nodiscard]] uint64_t misses() const { return misses_; }

  void reset() {
    std::fill(tags_.begin(), tags_.end(), 0);
    std::fill(lru_.begin(), lru_.end(), initialLruWord(model_.ways));
    hits_ = misses_ = 0;
  }

  // -- snapshot support (src/snap): tags, valid bits and LRU ages decide
  //    every future hit/miss, so they are architectural state for the
  //    cycle counts. Geometry is construction-time and only verified.
  void saveState(serial::Writer& w) const { io(*this, w); }

  /// A restored LRU word must be a permutation of the way indices: the
  /// replacement victim it names indexes the tag array.
  void restoreState(serial::Reader& r) {
    io(*this, r);
    for (const uint32_t word : lru_) {
      CABT_CHECK(isLruWord(word), "snapshot icache LRU word 0x"
                                      << std::hex << word
                                      << " is not a permutation of the ways");
    }
  }

 private:
  template <class Self, class Ar>
  static void io(Self& self, Ar& ar) {
    ar.tag("icache");
    ar.expect(self.model_.sets, "icache sets");
    ar.expect(self.model_.ways, "icache ways");
    ar.fixed("tags", self.tags_);
    ar.fixed("lru", self.lru_);
    ar.fields("hits misses", self.hits_, self.misses_);
  }

  [[nodiscard]] bool isLruWord(uint32_t word) const {
    uint32_t seen = 0;
    for (uint32_t i = 0; i < model_.ways; ++i) {
      const uint32_t way = (word >> (8 * i)) & 0xffu;
      if (way >= model_.ways || (seen >> way & 1u) != 0) {
        return false;
      }
      seen |= 1u << way;
    }
    return model_.ways == 4 || word >> (8 * model_.ways) == 0;
  }

  static uint32_t initialLruWord(uint32_t ways) {
    uint32_t w = 0;
    for (uint32_t i = 0; i < ways; ++i) {
      w |= i << (8 * i);
    }
    return w;
  }

  /// Moves `way` to most-recently-used position in the packed age list.
  void touch(uint32_t set, uint32_t way) {
    uint32_t word = lru_[set];
    uint32_t out = 0;
    unsigned out_pos = 0;
    for (uint32_t i = 0; i < model_.ways; ++i) {
      const uint32_t w = (word >> (8 * i)) & 0xffu;
      if (w != way) {
        out |= w << (8 * out_pos);
        ++out_pos;
      }
    }
    out |= way << (8 * out_pos);
    lru_[set] = out;
  }

  ICacheModel model_;
  std::vector<uint32_t> tags_;
  std::vector<uint32_t> lru_;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
};

}  // namespace cabt::arch

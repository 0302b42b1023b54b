// Byte-stream serialization for the snapshot subsystem (src/snap):
// little-endian integers, length-prefixed strings and sequences and raw
// byte runs. Writer and Reader share one vocabulary — field(s), fixed,
// bytes, seq, enumeration, expect, state, framed — so each state-bearing
// layer (SparseMemory, PipelineTimer, ICacheState, the SoC devices,
// SocBus, sim::Kernel, iss::Iss) writes its section format once, as one
//
//   template <class Self, class Ar> static void io(Self& self, Ar& ar);
//
// that its const save (Self = const T, Ar = Writer) and its restore
// (Self = T, Ar = Reader) both call; restore-only validation and
// derived-state rebuilds follow the shared body. The snapshot format
// (DESIGN.md section 9) is the concatenation of those sections. Readers
// throw cabt::Error on underrun, a tag or compatibility mismatch, a flag
// byte other than 0/1, an out-of-range enum, a repeated set or map key
// and a sequence count larger than the bytes left, so a truncated,
// corrupted or mismatched snapshot never restores silently.
#pragma once

#include <concepts>
#include <cstdint>
#include <cstring>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/error.h"

namespace cabt::serial {

class Writer {
 public:
  template <std::integral T>
  void field(T v) {
    if constexpr (std::is_same_v<T, bool>) {
      out_.push_back(v ? 1 : 0);
    } else {
      const auto u = static_cast<std::make_unsigned_t<T>>(v);
      for (size_t i = 0; i < sizeof(T); ++i) {
        out_.push_back(static_cast<uint8_t>(u >> (8 * i)));
      }
    }
  }
  /// Length-prefixed string.
  void field(std::string_view s) {
    field(static_cast<uint32_t>(s.size()));
    bytes(s.data(), s.size());
  }
  template <class T>
  void field(const std::optional<T>& v) {
    field(v.has_value());
    field(v.value_or(T{}));
  }
  template <class... T>
  void fields(const T&... v) {
    (field(v), ...);
  }

  template <class R>
  void fixed(const R& range) {
    for (const auto& v : range) {
      field(v);
    }
  }

  void bytes(const void* p, size_t n) {
    if (n == 0) {
      return;
    }
    const size_t old = out_.size();
    out_.resize(old + n);
    std::memcpy(out_.data() + old, p, n);
  }
  /// A byte vector of exactly `n` bytes (the Reader sizes it).
  void bytes(const std::vector<uint8_t>& v, size_t /*n*/) {
    bytes(v.data(), v.size());
  }

  template <class C, class F>
  void seq(const C& c, F&& each) {
    field(static_cast<uint32_t>(c.size()));
    for (const auto& e : c) {
      each(e);
    }
  }

  template <class E>
  void enumeration(E e, E /*last*/) {
    field(static_cast<uint8_t>(e));
  }

  template <class T>
  void expect(const T& v, std::string_view /*what*/) {
    field(v);
  }

  template <class L>
  void state(const L& layer) {
    layer.saveState(*this);
  }

  /// The name, a u32 byte length, then the layer's own section.
  template <class L>
  void framed(std::string_view name, const L& layer) {
    Writer section;
    layer.saveState(section);
    field(name);
    field(static_cast<uint32_t>(section.size()));
    bytes(section.out_.data(), section.size());
  }

  // Named shorthands for hand-built streams (fingerprints, the header).
  void u8(uint8_t v) { field(v); }
  void b(bool v) { field(v); }
  void u32(uint32_t v) { field(v); }
  void i32(int32_t v) { field(v); }
  void u64(uint64_t v) { field(v); }
  void str(std::string_view s) { field(s); }
  /// Section tag, verified by Reader::tag, so a layer that drifts out of
  /// sync fails at the boundary, not 200 bytes later with garbage values.
  void tag(std::string_view t) { field(t); }

  [[nodiscard]] const std::vector<uint8_t>& data() const { return out_; }
  [[nodiscard]] size_t size() const { return out_.size(); }
  std::vector<uint8_t> take() { return std::move(out_); }

 private:
  std::vector<uint8_t> out_;
};

class Reader {
 public:
  Reader(const uint8_t* data, size_t size) : data_(data), size_(size) {}
  explicit Reader(const std::vector<uint8_t>& data)
      : Reader(data.data(), data.size()) {}

  template <std::integral T>
  void field(T& v) {
    need(sizeof(T));
    if constexpr (std::is_same_v<T, bool>) {
      CABT_CHECK(data_[pos_] <= 1,
                 "snapshot flag byte " << +data_[pos_] << " at " << pos_);
      v = data_[pos_] != 0;
    } else {
      std::make_unsigned_t<T> u = 0;
      for (size_t i = sizeof(T); i-- > 0;) {
        u = static_cast<decltype(u)>(u << 8 | data_[pos_ + i]);
      }
      v = static_cast<T>(u);
    }
    pos_ += sizeof(T);
  }
  void field(std::string& s) {
    const uint32_t n = get<uint32_t>();
    need(n);
    s.assign(reinterpret_cast<const char*>(data_ + pos_), n);
    pos_ += n;
  }
  template <class T>
  void field(std::optional<T>& v) {
    const bool has = get<bool>();
    const T value = get<T>();
    v = has ? std::optional<T>(value) : std::nullopt;
  }
  template <class... T>
  void fields(T&... v) {
    (field(v), ...);
  }

  template <class R>
  void fixed(R& range) {
    for (auto& v : range) {
      field(v);
    }
  }

  void bytes(void* p, size_t n) {
    need(n);
    std::memcpy(p, data_ + pos_, n);
    pos_ += n;
  }
  void bytes(std::vector<uint8_t>& v, size_t n) {
    need(n);
    v.assign(data_ + pos_, data_ + pos_ + n);
    pos_ += n;
  }

  /// Every element takes at least one byte, so a count beyond remaining()
  /// is rejected before anything is allocated. Vectors fill in place;
  /// sets and maps insert, and a repeated key throws.
  template <class C, class F>
  void seq(C& c, F&& each) {
    const uint32_t n = get<uint32_t>();
    CABT_CHECK(n <= remaining(), "snapshot sequence of "
                                     << n << " elements at offset " << pos_
                                     << " overruns the " << remaining()
                                     << " bytes left");
    c.clear();
    if constexpr (requires { c.resize(n); }) {
      c.resize(n);
      for (auto& e : c) {
        each(e);
      }
    } else {
      for (uint32_t i = 0; i < n; ++i) {
        typename Element<C>::type e{};
        each(e);
        CABT_CHECK(c.insert(std::move(e)).second,
                   "snapshot repeats a key at offset " << pos_);
      }
    }
  }

  template <class E>
  void enumeration(E& e, E last) {
    const uint8_t v = get<uint8_t>();
    CABT_CHECK(v <= static_cast<uint8_t>(last),
               "snapshot enum value " << +v << " out of range at offset "
                                      << pos_ - 1);
    e = static_cast<E>(v);
  }

  template <std::integral T>
  void expect(T want, std::string_view what) {
    const T got = get<T>();
    CABT_CHECK(got == want, "snapshot " << what << " does not match ("
                                        << +got << " saved, " << +want
                                        << " here)");
  }
  void expect(std::string_view want, std::string_view what) {
    const std::string got = get<std::string>();
    CABT_CHECK(got == want, "snapshot " << what << " does not match ('"
                                        << got << "' saved, '"
                                        << std::string(want) << "' here)");
  }

  template <class L>
  void state(L& layer) {
    layer.restoreState(*this);
  }

  /// Restores `layer` from a sub-reader over exactly its framed bytes,
  /// so a layer cannot read past its own section and must consume all
  /// of it.
  template <class L>
  void framed(std::string_view name, L& layer) {
    expect(name, "device");
    const uint32_t len = get<uint32_t>();
    need(len);
    Reader section(data_ + pos_, len);
    layer.restoreState(section);
    CABT_CHECK(section.remaining() == 0,
               "device '" << std::string(name) << "' left "
                          << section.remaining() << " bytes of its " << len
                          << "-byte section unread");
    pos_ += len;
  }

  template <class T>
  T get() {
    T v{};
    field(v);
    return v;
  }
  /// Verifies the next section tag; throws on mismatch.
  void tag(std::string_view want) { expect(want, "section tag"); }

  [[nodiscard]] size_t remaining() const { return size_ - pos_; }

 private:
  /// What a set or map sequence reads before inserting it.
  template <class C>
  struct Element {
    using type = typename C::value_type;
  };
  template <class C>
    requires requires { typename C::mapped_type; }
  struct Element<C> {
    using type = std::pair<typename C::key_type, typename C::mapped_type>;
  };

  void need(size_t n) const {
    CABT_CHECK(size_ - pos_ >= n,
               "snapshot truncated: need " << n << " bytes at offset "
                                           << pos_ << " of " << size_);
  }

  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
};

inline constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ull;
inline constexpr uint64_t kFnvPrime = 0x00000100000001b3ull;

/// 64-bit FNV-1a over a byte run; the snapshot integrity footer and the
/// rolling state digest (snap::digest) both use it. Chainable via `seed`.
inline uint64_t fnv1a(const uint8_t* data, size_t size,
                      uint64_t seed = kFnvOffset) {
  uint64_t h = seed;
  for (size_t i = 0; i < size; ++i) {
    h ^= data[i];
    h *= kFnvPrime;
  }
  return h;
}

inline uint64_t fnv1a(const std::vector<uint8_t>& data,
                      uint64_t seed = kFnvOffset) {
  return fnv1a(data.data(), data.size(), seed);
}

}  // namespace cabt::serial

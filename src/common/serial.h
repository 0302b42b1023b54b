// Byte-stream serialization for the snapshot subsystem (src/snap):
// little-endian integers, length-prefixed strings and sequences and raw
// byte runs. Writer and Reader share one vocabulary — named field(s),
// fixed, bytes, seq, enumeration, expect, state, framed, hostOnly — so
// each state-bearing layer (SparseMemory, PipelineTimer, ICacheState, the
// SoC devices, SocBus, sim::Kernel, iss::Iss) lists its state once, as one
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
//
// A Writer in Mode::kDigest walks the same bodies for the rolling digest
// (snap::digest): hostOnly parts are dropped. Mode::kRecord also keeps a
// Mark per field for snap::firstDifference, whose path ("core1.iss.d[4]")
// the names, tags, framed names and sequence indices build through push.
#pragma once

#include <algorithm>
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
  /// kDigest drops the hostOnly parts (snap::digest); kRecord walks as
  /// kDigest and also keeps a Mark per field (snap::firstDifference).
  enum class Mode : uint8_t { kSnapshot, kDigest, kRecord };

  /// A recorded field: the offset of its first byte and its path.
  struct Mark {
    size_t at;
    std::string path;
  };

  explicit Writer(Mode mode = Mode::kSnapshot) : mode_(mode) {}

  [[nodiscard]] bool digesting() const { return mode_ != Mode::kSnapshot; }

  // Unnamed values: sequence elements and hand-built streams.
  template <std::integral T>
  void field(T v) {
    uint8_t le[sizeof(T)];
    put(le, v);
    bytes(le, sizeof(T));
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
  template <class T>
  void field(std::string_view name, const T& v) {
    mark(name);
    field(v);
  }
  /// `names` lists the integers, space-separated. Unless recording,
  /// they are appended as one run (a bus-log entry is one append).
  template <std::integral... T>
  void fields(std::string_view names, const T&... v) {
    if (mode_ == Mode::kRecord) {
      (field(nextName(names), v), ...);
      return;
    }
    uint8_t le[(sizeof(T) + ...)];
    size_t at = 0;
    ((put(le + at, v), at += sizeof(T)), ...);
    bytes(le, sizeof(le));
  }

  template <class R>
  void fixed(std::string_view name, const R& range) {
    size_t i = 0;
    for (const auto& v : range) {
      mark(name, i++);
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
  void bytes(std::string_view name, const std::vector<uint8_t>& v,
             size_t /*n*/) {
    mark(name);
    bytes(v.data(), v.size());
  }

  /// The count under `name`, then each element under "name[i]".
  template <class C, class F>
  void seq(std::string_view name, const C& c, F&& each) {
    field(name, static_cast<uint32_t>(c.size()));
    if (mode_ != Mode::kRecord) {
      for (const auto& e : c) {
        each(e);
      }
      return;
    }
    size_t i = 0;
    for (const auto& e : c) {
      const size_t len = push(name, i++);
      mark({});
      each(e);
      pop(len);
    }
  }

  template <class E>
  void enumeration(std::string_view name, E e, E /*last*/) {
    field(name, static_cast<uint8_t>(e));
  }

  template <class T>
  void expect(const T& v, std::string_view what) {
    field(what, v);
  }

  /// The layer's section; the path its tag names ends with it.
  template <class L>
  void state(const L& layer) {
    const size_t len = path_.size();
    layer.saveState(*this);
    pop(len);
  }

  /// The name, a u32 byte length, then the layer's own section. The
  /// recording walk leaves the length out: the contents decide it.
  template <class L>
  void framed(std::string_view name, const L& layer) {
    const size_t len = push(name);
    field({}, name);
    if (mode_ == Mode::kRecord) {
      layer.saveState(*this);
    } else {
      const size_t at = out_.size();
      field(uint32_t{0});
      layer.saveState(*this);
      put(out_.data() + at, static_cast<uint32_t>(out_.size() - at - 4));
    }
    pop(len);
  }

  /// Snapshot-only state; the digest drops its bytes (a recording walk
  /// still runs it for the path a tag inside names).
  template <class F>
  void hostOnly(F&& body) {
    if (mode_ == Mode::kDigest) {
      return;
    }
    const size_t at = out_.size();
    const size_t marks = marks_.size();
    body();
    if (mode_ == Mode::kRecord) {
      out_.resize(at);
      marks_.resize(marks);
    }
  }
  /// A field that means something only while `live`; the digest writes
  /// T{} otherwise.
  template <class T>
  void liveField(std::string_view name, const T& v, bool live) {
    field(name, digesting() && !live ? T{} : v);
  }

  /// Appends ".name" and "[index]" to a recording walk's path (or just
  /// the index digits, `bare`: "core1"); returns the length to cut the
  /// path back to.
  size_t push(std::string_view name, size_t index = kNoIndex,
              bool bare = false) {
    const size_t len = path_.size();
    if (mode_ == Mode::kRecord) {
      path_ += len == 0 || name.empty() ? "" : ".";
      path_ += name;
      if (index != kNoIndex) {
        path_ += bare ? std::to_string(index)
                      : "[" + std::to_string(index) + "]";
      }
    }
    return len;
  }
  void pop(size_t len) { path_.resize(len); }

  // Named shorthands for hand-built streams (fingerprints, the header).
  void u8(uint8_t v) { field(v); }
  void b(bool v) { field(v); }
  void u32(uint32_t v) { field(v); }
  void i32(int32_t v) { field(v); }
  void u64(uint64_t v) { field(v); }
  void str(std::string_view s) { field(s); }
  /// Section tag, verified by Reader::tag, so a layer that drifts out of
  /// sync fails at the boundary, not 200 bytes later with garbage values.
  /// It names the rest of the layer's path.
  void tag(std::string_view t) {
    push(t);
    field({}, t);
  }

  [[nodiscard]] const std::vector<uint8_t>& data() const { return out_; }
  [[nodiscard]] size_t size() const { return out_.size(); }
  [[nodiscard]] const std::vector<Mark>& marks() const { return marks_; }
  std::vector<uint8_t> take() { return std::move(out_); }

 private:
  static constexpr size_t kNoIndex = ~size_t{0};

  void mark(std::string_view name, size_t index = kNoIndex) {
    if (mode_ == Mode::kRecord) {
      record(name, index);
    }
  }
  // Out of line, so the other walks inline only the test above.
  [[gnu::noinline]] void record(std::string_view name, size_t index) {
    const size_t len = push(name, index);
    marks_.push_back({out_.size(), path_});
    pop(len);
  }
  /// Little-endian; a bool is one byte, 0 or 1.
  template <std::integral T>
  static void put(uint8_t* p, T v) {
    const auto u = static_cast<uint64_t>(v);
    for (size_t i = 0; i < sizeof(T); ++i) {
      p[i] = static_cast<uint8_t>(u >> (8 * i));
    }
  }
  static std::string_view nextName(std::string_view& names) {
    const std::string_view name = names.substr(0, names.find(' '));
    names.remove_prefix(std::min(name.size() + 1, names.size()));
    return name;
  }

  std::vector<uint8_t> out_;
  Mode mode_;
  std::string path_;
  std::vector<Mark> marks_;
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
  template <class T>
  void field(std::string_view /*name*/, T& v) {
    field(v);
  }
  template <class... T>
  void fields(std::string_view /*names*/, T&... v) {
    (field(v), ...);
  }

  template <class R>
  void fixed(std::string_view /*name*/, R& range) {
    for (auto& v : range) {
      field(v);
    }
  }

  void bytes(void* p, size_t n) {
    need(n);
    std::memcpy(p, data_ + pos_, n);
    pos_ += n;
  }
  void bytes(std::string_view /*name*/, std::vector<uint8_t>& v, size_t n) {
    need(n);
    v.assign(data_ + pos_, data_ + pos_ + n);
    pos_ += n;
  }

  /// Every element takes at least one byte, so a count beyond remaining()
  /// is rejected before anything is allocated. Vectors fill in place;
  /// sets and maps insert, and a repeated key throws.
  template <class C, class F>
  void seq(std::string_view /*name*/, C& c, F&& each) {
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
  void enumeration(std::string_view /*name*/, E& e, E last) {
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

  template <class F>
  void hostOnly(F&& body) {
    body();
  }
  template <class T>
  void liveField(std::string_view /*name*/, T& v, bool /*live*/) {
    field(v);
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

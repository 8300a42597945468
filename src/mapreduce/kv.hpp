// Record and key/value types flowing through the MapReduce engine.
//
// The intermediate KV path is zero-copy: mappers and combiners emit
// string_views that are appended to a task-local KVArena
// (mapreduce/arena.hpp), and everything downstream — sort, spill,
// merge, shuffle, reduce grouping — manipulates compact KVRef index
// entries instead of owning strings, exactly as Hadoop's
// MapOutputBuffer sorts a metadata index over one contiguous
// io.sort.mb buffer. The owning KV struct survives only at the edges:
// final job output streamed to an output_sink, and tests.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

namespace bvl::mr {

/// An input record as produced by a record reader: key is the
/// position-like key (e.g. line offset), value is the payload
/// line/row. Views point into buffers owned by the SplitSource and
/// stay valid until the next `next()` call — mappers must emit (the
/// arena copies the bytes) rather than retain them.
struct Record {
  std::string_view key;
  std::string_view value;

  std::size_t bytes() const { return key.size() + value.size(); }
};

/// Owning key/value pair: job output records as delivered to an
/// output_sink. Not used on the intermediate path.
struct KV {
  std::string key;
  std::string value;

  /// Serialized footprint: payload plus the framing Hadoop's
  /// IFile-style containers add per pair.
  std::size_t bytes() const { return key.size() + value.size() + kFramingBytes; }

  static constexpr std::size_t kFramingBytes = 8;
};

/// Compact index entry for one record inside a KVArena. The payload
/// is stored contiguously as key bytes then value bytes at `key_off`,
/// so the value offset is implied (key_off + key_len). This is what
/// the sort and merge actually move, and its size is what the sort's
/// memory traffic scales with — 16 bytes, the same METASIZE Hadoop's
/// MapOutputBuffer spends per record in its kvmeta index. The packing
/// caps one arena at 4 GiB of payload and one record at 64 KiB of key
/// and 64 KiB of value; KVArena::append enforces both loudly.
///
/// `prefix` caches the key's first eight bytes big-endian, zero-padded
/// (Hadoop's MapOutputBuffer keeps the same kind of prefix in its sort
/// metadata): differing prefixes decide an order comparison without
/// touching arena memory, zero-padding is safe because a padding byte
/// is the minimum value — it can only tie against a real NUL — and a
/// key of at most eight bytes is decided entirely by (prefix, len), so
/// short-key workloads sort without dereferencing payloads at all.
struct KVRef {
  std::uint64_t prefix = 0;
  std::uint32_t key_off = 0;
  std::uint16_t key_len = 0;
  std::uint16_t val_len = 0;

  std::uint32_t val_off() const { return key_off + key_len; }

  /// Serialized footprint, matching KV::bytes().
  std::size_t bytes() const {
    return static_cast<std::size_t>(key_len) + val_len + KV::kFramingBytes;
  }

  static std::uint64_t prefix_of(std::string_view key) {
    if (key.size() >= 8) {
      // Fixed-size memcpy compiles to a single unaligned load.
      std::uint64_t p;
      std::memcpy(&p, key.data(), 8);
      if constexpr (std::endian::native == std::endian::little) {
#if defined(__GNUC__) || defined(__clang__)
        p = __builtin_bswap64(p);
#else
        std::uint64_t r = 0;
        for (int i = 0; i < 8; ++i) r = (r << 8) | ((p >> (8 * i)) & 0xff);
        p = r;
#endif
      }
      return p;
    }
    // Short key: assemble big-endian directly, high byte first.
    std::uint64_t p = 0;
    for (std::size_t i = 0; i < key.size(); ++i) {
      p |= static_cast<std::uint64_t>(static_cast<unsigned char>(key[i])) << (56 - 8 * i);
    }
    return p;
  }
};

static_assert(sizeof(KVRef) == 16, "KVRef must stay at Hadoop's METASIZE");

}  // namespace bvl::mr

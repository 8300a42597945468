// Persistent on-disk characterizer cache: serialized JobTraces that
// survive the process, so repeated `bvl_repro --all` runs and
// multi-process sweeps amortize characterization instead of re-running
// the engine.
//
// The cache stores *traces*, not priced results, because a JobTrace is
// machine-independent (trace.hpp): one entry serves every server /
// frequency / slot-count / pricer combination, which is exactly the
// in-memory cache's contract. The entry key is the in-memory key: the
// workload plus mr::trace_key of the JobConfig the engine runs, i.e.
// every input that can change trace contents (exec_threads excluded,
// inactive fault plans keyed as one). It deliberately excludes the
// operating point (server, frequency, mappers) and the pricer: including
// those would only duplicate bit-identical payloads.
//
// File format (versioned, endian-stable: every integer is fixed-width
// little-endian, doubles are their IEEE-754 bit patterns, so a cache
// written on any host reads back bit-identically on any other):
//
//   magic   8 bytes  "BVLTRACE"
//   version u32      kFormatVersion; any mismatch rejects the file
//   key     u32 len + bytes — the full key string, compared verbatim
//                    on load so a filename-hash collision can never
//                    serve the wrong trace
//   size    u64      payload byte count
//   check   u64      FNV-1a 64 of the payload
//   payload          the serialized JobTrace
//
// Robustness contract: load() returns nullopt on ANY irregularity —
// missing file, short read, bad magic/version/key/checksum, truncated
// or over-long payload — and never throws; a corrupt cache silently
// degrades to re-characterization. store() writes to a temp file and
// publishes it with rename(), which is atomic on POSIX: concurrent
// writers race benignly (last rename wins, both wrote identical bytes)
// and a reader never observes a torn file.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "mapreduce/trace.hpp"

namespace bvl::core {

class CharCache {
 public:
  /// Current payload layout version. Bump whenever JobTrace /
  /// JobConfig / WorkCounters gain, lose or reorder serialized fields
  /// — or the key schema changes (v2: the governor/cap plan joined
  /// the disk key; v3: the NIC preset and placement policy joined it;
  /// v4: all three left again, the key is the engine inputs only;
  /// v5: the key is mr::trace_key of the engine's JobConfig);
  /// old files are then rejected and transparently regenerated.
  static constexpr std::uint32_t kFormatVersion = 5;

  /// `dir` must already exist (Characterizer::set_cache_dir creates
  /// it); a non-directory or unwritable path degrades to a cache that
  /// never hits and never stores, it does not fail.
  explicit CharCache(std::string dir);

  /// Loads the trace stored under `key`, or nullopt if absent or
  /// invalid in any way. Never throws.
  std::optional<mr::JobTrace> load(const std::string& key) const;

  /// Serializes `trace` under `key` (temp file + atomic rename).
  /// Returns false on I/O failure; never throws.
  bool store(const std::string& key, const mr::JobTrace& trace) const;

  /// Full path of the file `key` maps to (the key string is hashed to
  /// a filename; the embedded key guards against collisions). Exposed
  /// for the robustness tests, which corrupt files in place.
  std::string path_for(const std::string& key) const;

  const std::string& dir() const { return dir_; }

 private:
  std::string dir_;
};

}  // namespace bvl::core

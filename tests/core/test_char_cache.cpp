// Robustness and bit-identity suite for the persistent characterizer
// cache (core/char_cache.hpp). The contract under test: a cache hit is
// indistinguishable from a fresh characterization, and NOTHING that
// can happen to the files on disk — corruption, truncation, version
// skew, hash collisions, concurrent writers, unwritable paths — may
// crash or change results; the worst case is always a silent
// re-characterization.
#include "core/char_cache.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "core/characterizer.hpp"
#include "mapreduce/trace_io.hpp"

namespace bvl::core {
namespace {

namespace fs = std::filesystem;

// Fresh per-test directory under the test tmpdir, removed on teardown.
class CharCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::path(::testing::TempDir()) /
           ("char_cache_" + std::string(::testing::UnitTest::GetInstance()
                                            ->current_test_info()
                                            ->name()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string dir() const { return dir_.string(); }

  fs::path dir_;
};

// Small spec so each engine run stays cheap; the suite characterizes
// every workload once.
RunSpec small_spec(wl::WorkloadId id) {
  RunSpec spec;
  spec.workload = id;
  spec.input_size = 64 * MB;
  spec.block_size = 16 * MB;
  return spec;
}

// Full-trace equality: the canonical text serialization with the
// diagnostic footprint counters included, plus the two fields to_text
// deliberately excludes.
void expect_trace_identical(const mr::JobTrace& got, const mr::JobTrace& want) {
  EXPECT_EQ(mr::first_divergence(mr::to_text(want, true), mr::to_text(got, true)), "");
  EXPECT_EQ(got.config.exec_threads, want.config.exec_threads);
  EXPECT_EQ(got.exec_threads_used, want.exec_threads_used);
}

std::string read_file(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

void write_file(const fs::path& p, const std::string& bytes) {
  std::ofstream out(p, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST_F(CharCacheTest, RoundTripIsBitIdenticalForEveryWorkload) {
  Characterizer ch;
  CharCache cache(dir());
  for (auto id : wl::all_workloads()) {
    SCOPED_TRACE(wl::long_name(id));
    const mr::JobTrace& t = ch.trace(small_spec(id));
    std::string key = "round-trip " + t.workload;
    ASSERT_TRUE(cache.store(key, t));
    auto loaded = cache.load(key);
    ASSERT_TRUE(loaded.has_value());
    expect_trace_identical(*loaded, t);
  }
}

TEST_F(CharCacheTest, SecondCharacterizerHitsTheDiskAndMatchesBitForBit) {
  RunSpec spec = small_spec(wl::WorkloadId::kWordCount);

  Characterizer cold;
  cold.set_cache_dir(dir());
  const mr::JobTrace& fresh = cold.trace(spec);
  // The characterization was published: exactly one cache entry.
  std::size_t files = 0;
  for (const auto& e : fs::directory_iterator(dir_)) {
    EXPECT_EQ(e.path().extension(), ".bvlt") << e.path();
    ++files;
  }
  ASSERT_EQ(files, 1u);

  Characterizer warm;
  warm.set_cache_dir(dir());
  expect_trace_identical(warm.trace(spec), fresh);

  // Same instance, same spec at a different operating point: still the
  // single in-memory node (the disk layer sits below, not instead).
  RunSpec other_point = spec;
  other_point.freq = 1.2 * GHz;
  EXPECT_EQ(&warm.trace(spec), &warm.trace(other_point));
}

TEST_F(CharCacheTest, CacheKeySeparatesSpecsAndEngineSalt) {
  // Different engine-level fields must land in different files; a
  // characterizer with a different seed must not consume them.
  Characterizer a;
  a.set_cache_dir(dir());
  RunSpec spec = small_spec(wl::WorkloadId::kGrep);
  a.trace(spec);
  RunSpec bigger_blocks = spec;
  bigger_blocks.block_size = 32 * MB;
  a.trace(bigger_blocks);
  std::size_t files = 0;
  for ([[maybe_unused]] const auto& e : fs::directory_iterator(dir_)) ++files;
  EXPECT_EQ(files, 2u);

  Characterizer reseeded({}, {}, 16 * MB, /*seed=*/7);
  reseeded.set_cache_dir(dir());
  reseeded.trace(spec);  // distinct salt -> miss -> third file
  files = 0;
  for ([[maybe_unused]] const auto& e : fs::directory_iterator(dir_)) ++files;
  EXPECT_EQ(files, 3u);
}

TEST_F(CharCacheTest, CorruptBytesFallBackToSilentRecharacterization) {
  RunSpec spec = small_spec(wl::WorkloadId::kSort);
  Characterizer cold;
  cold.set_cache_dir(dir());
  const mr::JobTrace fresh = cold.trace(spec);  // copy: cold dies below

  // Flip one byte in the middle of every cache file (payload bytes:
  // past the header) — the checksum must reject them all.
  for (const auto& e : fs::directory_iterator(dir_)) {
    std::string bytes = read_file(e.path());
    ASSERT_GT(bytes.size(), 64u);
    bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x5a);
    write_file(e.path(), bytes);
  }

  Characterizer warm;
  warm.set_cache_dir(dir());
  expect_trace_identical(warm.trace(spec), fresh);  // re-characterized

  // The miss path re-published a valid entry over the corrupt one.
  Characterizer third;
  third.set_cache_dir(dir());
  expect_trace_identical(third.trace(spec), fresh);
}

TEST_F(CharCacheTest, TruncatedEmptyAndGarbageFilesAreRejected) {
  CharCache cache(dir());
  Characterizer ch;
  const mr::JobTrace& t = ch.trace(small_spec(wl::WorkloadId::kTeraSort));
  const std::string key = "truncation victim";
  ASSERT_TRUE(cache.store(key, t));
  const std::string full = read_file(cache.path_for(key));
  ASSERT_TRUE(cache.load(key).has_value());

  // Every proper prefix must be rejected: probe a spread of cut
  // points including 0 (empty), mid-header, and one-byte-short.
  for (std::size_t cut : {std::size_t{0}, std::size_t{5}, std::size_t{17}, full.size() / 2,
                          full.size() - 1}) {
    write_file(cache.path_for(key), full.substr(0, cut));
    EXPECT_FALSE(cache.load(key).has_value()) << "cut at " << cut;
  }

  // Trailing garbage after a full file is corruption too.
  write_file(cache.path_for(key), full + "x");
  EXPECT_FALSE(cache.load(key).has_value());

  // Arbitrary garbage of plausible size.
  write_file(cache.path_for(key), std::string(full.size(), '\x42'));
  EXPECT_FALSE(cache.load(key).has_value());

  // Restoring the original bytes restores the hit.
  write_file(cache.path_for(key), full);
  EXPECT_TRUE(cache.load(key).has_value());
}

TEST_F(CharCacheTest, FormatVersionMismatchIsRejected) {
  CharCache cache(dir());
  Characterizer ch;
  const mr::JobTrace& t = ch.trace(small_spec(wl::WorkloadId::kNaiveBayes));
  const std::string key = "versioned";
  ASSERT_TRUE(cache.store(key, t));
  std::string bytes = read_file(cache.path_for(key));
  // The u32 version sits right after the 8-byte magic (little-endian).
  bytes[8] = static_cast<char>(CharCache::kFormatVersion + 1);
  write_file(cache.path_for(key), bytes);
  EXPECT_FALSE(cache.load(key).has_value());
}

TEST_F(CharCacheTest, FilenameHashCollisionIsGuardedByTheEmbeddedKey) {
  CharCache cache(dir());
  Characterizer ch;
  const mr::JobTrace& t = ch.trace(small_spec(wl::WorkloadId::kFpGrowth));
  ASSERT_TRUE(cache.store("key A", t));
  // Simulate fnv1a("key B") == fnv1a("key A") by placing A's file
  // where B's would be looked up.
  fs::copy_file(cache.path_for("key A"), cache.path_for("key B"));
  EXPECT_FALSE(cache.load("key B").has_value());
  EXPECT_TRUE(cache.load("key A").has_value());
}

TEST_F(CharCacheTest, ConcurrentWritersNeverYieldATornRead) {
  CharCache cache(dir());
  Characterizer ch;
  const mr::JobTrace& t = ch.trace(small_spec(wl::WorkloadId::kWordCount));
  const std::string want = mr::to_text(t, true);
  const std::string key = "contended";

  std::atomic<int> writers_done{0};
  std::atomic<int> store_failures{0};
  std::vector<std::thread> writers;
  for (int w = 0; w < 2; ++w) {
    writers.emplace_back([&] {
      for (int i = 0; i < 40; ++i) {
        if (!cache.store(key, t)) store_failures.fetch_add(1);
      }
      writers_done.fetch_add(1);
    });
  }
  // Reader races the writers: thanks to rename() atomicity every
  // observation is either "no file yet" or a complete, valid entry.
  while (writers_done.load() < static_cast<int>(writers.size())) {
    auto loaded = cache.load(key);
    if (loaded.has_value()) {
      ASSERT_EQ(mr::first_divergence(want, mr::to_text(*loaded, true)), "");
    }
    std::this_thread::yield();
  }
  for (auto& th : writers) th.join();
  EXPECT_EQ(store_failures.load(), 0);
  auto final_read = cache.load(key);
  ASSERT_TRUE(final_read.has_value());
  EXPECT_EQ(mr::first_divergence(want, mr::to_text(*final_read, true)), "");
  // No temp-file litter once every writer finished.
  for (const auto& e : fs::directory_iterator(dir_)) {
    EXPECT_EQ(e.path().extension(), ".bvlt") << "leftover temp file " << e.path();
  }
}

TEST_F(CharCacheTest, UnusableCacheDirectoryDegradesToAMissOnlyCache) {
  // A path that cannot be a directory (parent is a regular file):
  // store fails soft, load misses, the characterizer still answers.
  fs::path blocker = dir_ / "not_a_dir";
  write_file(blocker, "plain file");
  std::string bad = (blocker / "sub").string();

  CharCache cache(bad);
  Characterizer ch;
  const mr::JobTrace& t = ch.trace(small_spec(wl::WorkloadId::kGrep));
  EXPECT_FALSE(cache.store("k", t));
  EXPECT_FALSE(cache.load("k").has_value());

  Characterizer degraded;
  degraded.set_cache_dir(bad);
  expect_trace_identical(degraded.trace(small_spec(wl::WorkloadId::kGrep)), t);
}

}  // namespace
}  // namespace bvl::core

// Unit helpers and aliases used throughout the library.
//
// All simulated quantities are carried in SI base units as doubles
// (seconds, joules, watts, hertz) or as byte counts (std::uint64_t).
// The helpers below make call sites read like the paper's parameter
// tables ("512 MB HDFS block", "1.8 GHz").
#pragma once

#include <cstdint>

namespace bvl {

using Seconds = double;
using Joules = double;
using Watts = double;
using Hertz = double;
using Volts = double;
using Bytes = std::uint64_t;

/// Binary kilobyte (Hadoop block sizes are power-of-two MB).
constexpr Bytes KB = 1024ULL;
constexpr Bytes MB = 1024ULL * KB;
constexpr Bytes GB = 1024ULL * MB;

constexpr Hertz kHz = 1e3;
constexpr Hertz MHz = 1e6;
constexpr Hertz GHz = 1e9;

/// Bytes -> floating megabytes/gigabytes (for reporting).
constexpr double to_mb(Bytes b) { return static_cast<double>(b) / static_cast<double>(MB); }
constexpr double to_gb(Bytes b) { return static_cast<double>(b) / static_cast<double>(GB); }

}  // namespace bvl

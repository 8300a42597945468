// bvl_bench: the repository's end-to-end benchmark. One process runs
// one named workload, prints every metric by name with its unit, and
// checks every output it produces. The last line of stdout is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
// usage: bvl_bench --workload NAME [--seed S] [--seconds N] [--trace 0|1]
//                  [--trace-out PATH] [--text-out PATH]
//
// Workloads (benchmark/README.md says why each one exists):
//   repro_warm    every figure group on a fresh Characterizer over a
//                 trace cache the set-up filled; the set-up is a
//                 researcher's first `--all`, on an empty cache
//   service_rack  three simulated hours (one whole diurnal cycle) of
//                 the open job stream on a 141-node iso-power rack:
//                 modeled fabric, rack-local placement, ondemand DVFS
//                 under a binding rack cap
//   batch_rack    64 ten-GB jobs replayed on the same rack
//
// --trace 0 times the set-up several times, then timed passes until
// --seconds of pass time have elapsed, and prints the end-to-end
// metrics. --trace 1 runs the layer profile (the same for every
// workload) with spans recorded around each call into a layer, then one
// untraced pass of the workload to price the tracing; it prints the
// per-layer metrics and each span's self time, and writes the spans as
// Chrome Trace Event JSON.
//
// The program receives only generated inputs: --seed becomes the
// Characterizer's data seed and the service stream's arrival seed.
// The figure goldens and benchmark/expected/ are pinned at seed 42;
// other seeds print a digest of the pinned outputs instead.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "arch/cache_sim.hpp"
#include "arch/server_config.hpp"
#include "core/char_cache.hpp"
#include "core/classifier.hpp"
#include "core/cluster_sim.hpp"
#include "figures/figures.hpp"
#include "mapreduce/engine.hpp"
#include "mapreduce/trace_io.hpp"
#include "perf/calibration.hpp"
#include "perf/pricer.hpp"
#include "power/governor.hpp"
#include "power/power_model.hpp"
#include "report/emitters.hpp"
#include "report/registry.hpp"
#include "sim/event_queue.hpp"
#include "sim/network/fabric.hpp"
#include "sim/workload/arrival.hpp"
#include "sim/workload/fair_share.hpp"
#include "util/rng.hpp"
#include "util/string_util.hpp"
#include "util/thread_pool.hpp"

namespace fs = std::filesystem;
using namespace bvl;

namespace {

using Clock = std::chrono::steady_clock;

/// The goldens under tests/golden/figures and benchmark/expected are
/// pinned at this seed (the library default).
constexpr std::uint64_t kPinnedSeed = 42;
/// The Characterizer's default execution target; passed explicitly only
/// because the seed argument comes after it.
constexpr Bytes kTargetExecBytes = 16 * MB;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// User + system CPU time of the whole process, every thread included.
double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto sec = [](const timeval& t) { return static_cast<double>(t.tv_sec) + t.tv_usec * 1e-6; };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux reports KiB
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 1469598103934665603ULL;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

std::string read_file(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

bool write_file(const fs::path& p, const std::string& s) {
  std::ofstream out(p, std::ios::binary | std::ios::trunc);
  out << s;
  return out.good();
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out;
}

std::string strfmt(const char* fmt, ...) __attribute__((format(printf, 1, 2)));
std::string strfmt(const char* fmt, ...) {
  va_list ap;
  va_start(ap, fmt);
  va_list again;
  va_copy(again, ap);
  int n = std::vsnprintf(nullptr, 0, fmt, ap);
  va_end(ap);
  std::string out(static_cast<std::size_t>(std::max(n, 0)) + 1, '\0');
  std::vsnprintf(out.data(), out.size(), fmt, again);
  va_end(again);
  out.pop_back();
  return out;
}

// ---------------------------------------------------------------------------
// Tracing: spans recorded by the harness around its calls into a layer
// ---------------------------------------------------------------------------

/// In-memory span recorder. Disabled (the default for --trace 0) it
/// records nothing. Spans nest strictly: the harness is single-threaded
/// and every span is a ScopedSpan.
class Tracer {
 public:
  /// Span times count from the first enable.
  void set_enabled(bool on) {
    if (on && spans_.empty()) t0_ = Clock::now();
    enabled_ = on;
  }

  int open(const std::string& layer, const std::string& name) {
    if (!enabled_) return -1;
    int parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back({name, layer, seconds_since(t0_), 0, parent});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }

  void close(int id) {
    if (id < 0) return;
    spans_[static_cast<std::size_t>(id)].end = seconds_since(t0_);
    stack_.pop_back();
  }

  /// Per span name: calls, total seconds and self seconds (duration
  /// minus the part its child spans cover), largest self time first.
  void print_self_times() const {
    std::vector<double> child(spans_.size(), 0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) child[static_cast<std::size_t>(s.parent)] += s.end - s.start;
    }
    struct Agg {
      int calls = 0;
      double total = 0, self = 0;
    };
    std::map<std::string, Agg> by_name;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      Agg& a = by_name[spans_[i].name];
      ++a.calls;
      a.total += spans_[i].end - spans_[i].start;
      a.self += spans_[i].end - spans_[i].start - child[i];
    }
    std::vector<std::pair<std::string, Agg>> rows(by_name.begin(), by_name.end());
    std::sort(rows.begin(), rows.end(),
              [](const auto& a, const auto& b) { return a.second.self > b.second.self; });
    std::printf("\n  %-52s %5s %10s %10s\n", "span", "calls", "total[s]", "self[s]");
    for (const auto& [name, a] : rows) {
      std::printf("  %-52s %5d %10.4f %10.4f\n", name.c_str(), a.calls, a.total, a.self);
    }
  }

  /// Chrome Trace Event JSON (complete "X" events), loadable in Perfetto.
  bool write_chrome_json(const fs::path& path, const std::string& workload) const {
    std::string out = "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out += strfmt("{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", \"ts\": %.3f, "
                    "\"dur\": %.3f, \"pid\": 1, \"tid\": 1, \"args\": {\"id\": %zu, "
                    "\"parent\": %d, \"workload\": \"%s\"}}%s\n",
                    json_escape(s.name).c_str(), json_escape(s.layer).c_str(), s.start * 1e6,
                    (s.end - s.start) * 1e6, i, s.parent, json_escape(workload).c_str(),
                    i + 1 < spans_.size() ? "," : "");
    }
    out += "]}\n";
    return write_file(path, out);
  }

 private:
  struct Span {
    std::string name;
    std::string layer;
    double start = 0;  ///< seconds since the tracer was first enabled
    double end = 0;
    int parent = -1;
  };
  bool enabled_ = false;
  Clock::time_point t0_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer& t, const std::string& layer, const std::string& name)
      : tracer_(t), id_(t.open(layer, name)) {}
  ~ScopedSpan() { tracer_.close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  int id_;
};

// ---------------------------------------------------------------------------
// Checks, metrics and the per-run state
// ---------------------------------------------------------------------------

/// Every check on an output is one operation; so is every call into
/// the program, which fails when it throws. A failure never aborts.
class Checks {
 public:
  bool expect(bool ok, const std::string& what) {
    ++attempted_;
    if (!ok) {
      ++failed_;
      std::fprintf(stderr, "check failed: %s\n", what.c_str());
    }
    return ok;
  }

  template <class Fn>
  bool guard(const std::string& what, Fn&& fn) {
    try {
      fn();
    } catch (const std::exception& e) {
      return expect(false, what + " threw: " + e.what());
    } catch (...) {
      return expect(false, what + " threw");
    }
    return expect(true, what);
  }

  long attempted() const { return attempted_; }
  long failed() const { return failed_; }

 private:
  long attempted_ = 0;
  long failed_ = 0;
};

struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
};

struct Options {
  std::string workload;
  std::uint64_t seed = kPinnedSeed;
  int seconds = 15;
  bool trace = false;
  std::string trace_out;
  std::string text_out;
};

/// Removes the per-process scratch directory on every exit path.
class ScratchDir {
 public:
  explicit ScratchDir(fs::path p) : path_(std::move(p)) {
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~ScratchDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;
  const fs::path& path() const { return path_; }

 private:
  fs::path path_;
};

struct Bench {
  Options opt;
  int width = 1;     ///< engine and pre-characterization pool width
  fs::path out_dir;  ///< the build directory holding this binary
  std::unique_ptr<ScratchDir> scratch;
  Tracer tracer;
  Checks checks;
  std::vector<Metric> metrics;

  bool pinned() const { return opt.seed == kPinnedSeed; }
  void metric(const std::string& name, const std::string& unit, double value) {
    metrics.push_back({name, unit, value});
  }
  /// A fresh directory under the scratch root.
  fs::path fresh_dir(const std::string& name) const {
    fs::path p = scratch->path() / name;
    fs::remove_all(p);
    fs::create_directories(p);
    return p;
  }
};

std::unique_ptr<core::Characterizer> make_characterizer(const Bench& b) {
  auto ch = std::make_unique<core::Characterizer>(hdfs::DfsConfig{}, perf::ClusterConfig{},
                                                  kTargetExecBytes, b.opt.seed);
  ch->set_exec_threads(b.width);
  return ch;
}

/// Characterizes every distinct job spec in memory, and each workload's
/// classifier reference spec (the replays classify every job), so a
/// timed replay only prices cached traces.
void precharacterize(Bench& b, core::Characterizer& ch, const std::vector<core::JobRequest>& jobs) {
  std::set<std::pair<int, Bytes>> seen;
  std::set<wl::WorkloadId> classified;
  for (const auto& job : jobs) {
    const std::string name = wl::short_name(job.workload);
    if (classified.insert(job.workload).second) {
      ScopedSpan s(b.tracer, "core.classifier", "core.classifier.classify_workload");
      b.checks.guard("classify " + name, [&] { core::classify_workload(ch, job.workload); });
    }
    if (!seen.insert({static_cast<int>(job.workload), job.input_size}).second) continue;
    core::RunSpec spec;
    spec.workload = job.workload;
    spec.input_size = job.input_size;
    ScopedSpan s(b.tracer, "core.characterizer", "core.characterizer.trace");
    b.checks.guard("characterize " + name, [&] { ch.trace(spec); });
  }
}

/// What a timed pass hands back: its cost and the outputs it pins.
struct PassResult {
  double wall = 0;
  double cpu = 0;
  std::string pinned;
};

template <class Fn>
PassResult timed(Fn&& fn) {
  PassResult r;
  double c0 = process_cpu_s();
  auto t0 = Clock::now();
  fn();
  r.wall = seconds_since(t0);
  r.cpu = process_cpu_s() - c0;
  return r;
}

/// Compares pinned outputs with benchmark/expected/<name>.txt at the
/// pinned seed; BVL_UPDATE_GOLDEN=1 rewrites the file instead.
void check_expected(Bench& b, const std::string& name, const std::string& pinned) {
  if (!b.pinned()) return;
  fs::path path = fs::path(BVL_BENCH_EXPECTED_DIR) / (name + ".txt");
  if (std::getenv("BVL_UPDATE_GOLDEN") != nullptr) {
    fs::create_directories(path.parent_path());
    if (write_file(path, pinned)) std::printf("regenerated %s\n", path.c_str());
    else b.checks.expect(false, "cannot write " + path.string());
    return;
  }
  b.checks.expect(read_file(path) == pinned, "pinned outputs match " + path.string());
}

class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds the state a pass needs; timed as set-up.
  virtual void setup(Bench& b) = 0;
  /// One timed pass; its outputs are checked after the clock stops.
  virtual PassResult pass(Bench& b) = 0;
};

// ---------------------------------------------------------------------------
// repro_warm: the figure registry end to end
// ---------------------------------------------------------------------------

struct FigurePass {
  std::vector<std::string> groups;
  std::vector<std::string> texts;
  std::vector<report::Report> reports;
  std::vector<double> build_s;  ///< registry build per group
  int traces_stored = 0;        ///< cache files the pass wrote
  PassResult cost;

  /// What `bvl_repro --all` prints: every group's text, blank-line separated.
  std::string joined() const {
    std::string out;
    for (std::size_t i = 0; i < texts.size(); ++i) {
      if (i > 0) out += "\n";
      out += texts[i];
    }
    return out;
  }
};

int count_files(const fs::path& dir) {
  int n = 0;
  std::error_code ec;
  for (const auto& e : fs::directory_iterator(dir, ec)) n += e.is_regular_file() ? 1 : 0;
  return n;
}

/// The set-up is a researcher's first `--all`: a cold pass that
/// characterizes every trace into an empty cache directory. Each timed
/// pass is every later `--all`: a fresh Characterizer on that directory.
class ReproWarm final : public Workload {
 public:
  void setup(Bench& b) override {
    reg_ = std::make_unique<report::FigureRegistry>();
    figs::register_all_figures(*reg_);
    cache_dir_ = b.fresh_dir("repro-cache");
    cold_ = run(b, cache_dir_, "pass.cold");
    check(b, cold_, nullptr);
  }

  PassResult pass(Bench& b) override {
    last_ = run(b, cache_dir_, "pass.warm");
    check(b, last_, &cold_);
    return last_.cost;
  }

  const FigurePass& cold() const { return cold_; }
  const FigurePass& last() const { return last_; }

 private:
  /// One pass over every group on a fresh Characterizer attached to
  /// `cache_dir`: empty for a cold pass, filled for a warm one.
  FigurePass run(Bench& b, const fs::path& cache_dir, const char* label) {
    FigurePass fp;
    fp.groups = reg_->groups();
    int files_before = count_files(cache_dir);
    ScopedSpan pass_span(b.tracer, "bench", label);
    fp.cost = timed([&] {
      auto ch = make_characterizer(b);
      ch->set_cache_dir(cache_dir.string());
      report::Context ctx{*ch, std::nullopt};
      for (const auto& g : fp.groups) {
        report::Report rep;
        std::string text;
        auto t0 = Clock::now();
        {
          ScopedSpan s(b.tracer, "figures", "figures." + g);
          b.checks.guard("build " + g, [&] { rep = reg_->build(g, ctx); });
        }
        fp.build_s.push_back(seconds_since(t0));
        {
          ScopedSpan s(b.tracer, "report", "report.render_text");
          text = report::render_text(rep);
        }
        fp.texts.push_back(std::move(text));
        fp.reports.push_back(std::move(rep));
      }
    });
    fp.traces_stored = count_files(cache_dir) - files_before;
    fp.cost.pinned = fp.joined();
    return fp;
  }

  /// Shape assertions and goldens are pinned at one seed: at others
  /// the paper-shape claims legitimately move, so they are reported,
  /// not counted. A warm pass must reproduce its cold pass exactly at
  /// any seed.
  void check(Bench& b, const FigurePass& fp, const FigurePass* cold) {
    int claims = 0, held = 0;
    for (std::size_t i = 0; i < fp.groups.size(); ++i) {
      const std::string& g = fp.groups[i];
      for (const auto& c : fp.reports[i].checks) {
        ++claims;
        held += c.passed ? 1 : 0;
        if (b.pinned()) b.checks.expect(c.passed, g + "/" + c.name + ": " + c.detail);
      }
      if (b.pinned()) b.checks.expect(fp.texts[i] == golden(g), "golden text " + g);
      if (cold != nullptr) {
        b.checks.expect(fp.texts[i] == cold->texts[i], "warm text equals cold text " + g);
      }
    }
    if (!b.pinned()) {
      std::printf("shape claims held: %d of %d (counted only at seed %llu)\n", held, claims,
                  static_cast<unsigned long long>(kPinnedSeed));
    }
  }

  /// The committed figure text, read once on first use.
  const std::string& golden(const std::string& group) {
    auto it = goldens_.find(group);
    if (it == goldens_.end()) {
      it = goldens_.emplace(group, read_file(fs::path(BVL_FIGURE_GOLDEN_DIR) / (group + ".txt")))
               .first;
    }
    return it->second;
  }

  std::unique_ptr<report::FigureRegistry> reg_;
  std::map<std::string, std::string> goldens_;
  fs::path cache_dir_;
  FigurePass cold_;
  FigurePass last_;
};

// ---------------------------------------------------------------------------
// service_rack / batch_rack: rack-scale replays
// ---------------------------------------------------------------------------

/// comparison_racks(64)[2]: 32 Xeon + 109 Atom, iso-power with 64 Xeon.
std::vector<core::NodeSpec> rack141() { return core::comparison_racks(64)[2]; }

int node_count(const std::vector<core::NodeSpec>& rack) {
  int n = 0;
  for (const auto& spec : rack) n += spec.count;
  return n;
}

/// Four racks striped over the flat node order, 4:1 spine, 4-link ECMP.
sim::Topology striped_topology(int nodes) {
  sim::Topology topo;
  for (int i = 0; i < nodes; ++i) topo.rack_of.push_back(i % 4);
  topo.spine_oversub = 4;
  topo.spine_multipath = 4;
  return topo;
}

/// The `service` figure's two tenants, 1 GB jobs.
std::vector<core::TenantWorkload> service_tenants() {
  core::TenantWorkload cpu;
  cpu.tenant = {"cpu-batch", 1.0, 0, 1.0};
  cpu.mix = {{wl::WorkloadId::kWordCount, 1 * GB}, {wl::WorkloadId::kGrep, 1 * GB}};
  core::TenantWorkload io;
  io.tenant = {"io-batch", 1.0, 0, 1.0};
  io.mix = {{wl::WorkloadId::kSort, 1 * GB}, {wl::WorkloadId::kTeraSort, 1 * GB}};
  return {cpu, io};
}

/// Power configurations the service attribution toggles between.
enum class PowerMode { kOff, kMetered, kCapped };

constexpr Watts kRackCapW = 8000;  ///< ~91% of the uncapped 8.8 kW peak: the cap binds

core::ServiceOptions service_options(std::uint64_t seed, int nodes, bool fabric, PowerMode power) {
  core::ServiceOptions o;
  o.arrival_rate = 0.7;
  // Three simulated hours compressed into one whole diurnal cycle, so
  // a pass is short enough to repeat many times in a run.
  o.horizon = 3 * 3600;
  o.diurnal.amplitude = 0.3;
  o.diurnal.period = o.horizon;
  o.diurnal.peak_at = o.horizon * 14.0 / 24.0;
  o.warmup = 600;
  o.seed = seed;
  o.policy = core::MixPolicy::kRackLocal;
  o.mix.slots_per_node = 4;
  o.mix.fabric.nic_preset = sim::NicPresetId::k1GbE;
  if (fabric) {
    o.mix.fabric.modeled = true;
    o.mix.fabric.topology = striped_topology(nodes);
  }
  if (power != PowerMode::kOff) {
    o.mix.power.governor = power::GovernorKind::kOndemand;
    o.mix.power.rack_cap_w = power == PowerMode::kCapped ? kRackCapW : 0;
  }
  return o;
}

std::string service_pinned(const core::ServiceResult& r) {
  std::string out;
  out += strfmt("arrivals %d\nmeasured_jobs %d\n", r.arrivals, r.measured_jobs);
  out += strfmt("sojourn_p50_s %.17g\nsojourn_p99_s %.17g\n", r.sojourn.p50, r.sojourn.p99);
  out += strfmt("energy_per_job_j %.17g\nservice_edp %.17g\n", r.energy_per_job,
                r.service_edxp(1));
  out += strfmt("events_run %llu\n", static_cast<unsigned long long>(r.events_run));
  for (const auto& c : r.classes) {
    out += strfmt("utilization %s %.17g\n", c.node_type.c_str(), c.slot_utilization);
  }
  out += strfmt("level_changes %d\npeak_draw_w %.17g\n", r.power.level_changes,
                r.power.peak_draw);
  out += strfmt("fabric_flows %llu\ncross_rack_bytes %.17g\n",
                static_cast<unsigned long long>(r.fabric.flows), r.fabric.cross_rack_bytes);
  return out;
}

void check_fabric(Bench& b, const sim::FabricStats& f, const std::string& what) {
  double tol = 1e-9 * std::max(f.bytes_injected, 1.0);
  double spine = 0;
  for (double x : f.spine_link_bytes) spine += x;
  b.checks.expect(f.modeled && f.flows > 0, what + ": fabric modeled and carried flows");
  b.checks.expect(std::abs(f.bytes_injected - f.bytes_delivered) <= tol,
                  what + ": fabric delivered every injected byte");
  b.checks.expect(std::abs(f.local_bytes + f.intra_rack_bytes + f.cross_rack_bytes -
                           f.bytes_injected) <= tol,
                  what + ": fabric traffic split sums to the injected bytes");
  b.checks.expect(std::abs(spine - f.cross_rack_bytes) <= tol,
                  what + ": ECMP spine links carried exactly the cross-rack bytes");
}

void check_service(Bench& b, const core::ServiceResult& r, bool fabric, PowerMode power,
                   const std::string& what) {
  double scale = std::max(1.0, r.little_l);
  b.checks.expect(std::abs(r.little_l - r.little_lambda_w) <= 1e-6 * scale,
                  what + strfmt(": Little's law (L %.9g vs lambda*W %.9g)", r.little_l,
                                r.little_lambda_w));
  int tenant_jobs = 0;
  for (const auto& t : r.tenants) tenant_jobs += t.jobs;
  b.checks.expect(r.measured_jobs > 0 && tenant_jobs == r.measured_jobs &&
                      r.measured_jobs <= r.arrivals,
                  what + ": every measured job completed and is attributed to a tenant");
  if (fabric) check_fabric(b, r.fabric, what);
  if (power == PowerMode::kCapped) {
    b.checks.expect(r.power.active && !r.power.cap_exceeded &&
                        r.power.peak_draw <= kRackCapW + 1e-9,
                    what + strfmt(": rack draw stayed under the cap (peak %.3f W)",
                                  r.power.peak_draw));
  }
}

class ServiceRack final : public Workload {
 public:
  void setup(Bench& b) override {
    rack_ = rack141();
    tenants_ = service_tenants();
    ch_ = make_characterizer(b);
    std::vector<core::JobRequest> jobs;
    for (const auto& t : tenants_) jobs.insert(jobs.end(), t.mix.begin(), t.mix.end());
    precharacterize(b, *ch_, jobs);
  }

  PassResult pass(Bench& b) override {
    PassResult p = run(b, true, PowerMode::kCapped);
    check_expected(b, "service_rack", p.pinned);
    return p;
  }

  /// One replay of the stream; `fabric` and `power` select the
  /// attribution variant (the timed pass is fabric + capped).
  PassResult run(Bench& b, bool fabric, PowerMode power) {
    static const char* const kNames[] = {"plain", "metered", "capped"};
    std::string variant = std::string(fabric ? "fabric+" : "") + kNames[static_cast<int>(power)];
    auto opts = service_options(b.opt.seed, node_count(rack_), fabric, power);
    core::ServiceResult r;
    bool ok = false;
    PassResult p = timed([&] {
      ScopedSpan s(b.tracer, "core.cluster_sim",
                   "core.cluster_sim.simulate_service[" + variant + "]");
      ok = b.checks.guard("simulate_service " + variant, [&] {
        r = core::simulate_service(*ch_, tenants_, rack_, opts, b.width);
      });
    });
    if (ok) {
      check_service(b, r, fabric, power, "service " + variant);
      p.pinned = service_pinned(r);
    }
    last_ = std::move(r);
    return p;
  }

  /// The result of the most recent replay.
  const core::ServiceResult& last() const { return last_; }

 private:
  std::vector<core::NodeSpec> rack_;
  std::vector<core::TenantWorkload> tenants_;
  std::unique_ptr<core::Characterizer> ch_;
  core::ServiceResult last_;
};

/// The fabric figures' 8-job mix-on-rack queue, `copies` times over.
std::vector<core::JobRequest> batch_jobs(int copies) {
  const std::vector<core::JobRequest> mix = {
      {wl::WorkloadId::kWordCount, 10 * GB}, {wl::WorkloadId::kSort, 10 * GB},
      {wl::WorkloadId::kGrep, 10 * GB},      {wl::WorkloadId::kTeraSort, 10 * GB},
      {wl::WorkloadId::kNaiveBayes, 10 * GB}, {wl::WorkloadId::kWordCount, 10 * GB},
      {wl::WorkloadId::kSort, 10 * GB},      {wl::WorkloadId::kGrep, 10 * GB}};
  std::vector<core::JobRequest> jobs;
  for (int c = 0; c < copies; ++c) jobs.insert(jobs.end(), mix.begin(), mix.end());
  return jobs;
}

/// batch_rack's queue: 64 jobs on 141 nodes. The profile's small rack
/// (35 nodes) gets a quarter of them, so jobs per node stay fixed.
constexpr int kBatchCopies = 8;

int tasks_run(const core::MixResult& r) {
  int n = 0;
  for (const auto& node : r.nodes) n += node.tasks_run;
  return n;
}

std::string batch_pinned(const core::MixResult& r) {
  std::string out;
  out += strfmt("jobs %zu\ntasks %d\n", r.schedule.size(), tasks_run(r));
  out += strfmt("makespan_s %.17g\nenergy_j %.17g\nedp %.17g\n", r.makespan, r.total_energy,
                r.edxp(1));
  // Per-class utilization: the mean over the class's nodes, in rack order.
  std::vector<std::string> types;
  std::map<std::string, std::pair<double, int>> util;
  for (const auto& n : r.nodes) {
    if (util.find(n.node_type) == util.end()) types.push_back(n.node_type);
    util[n.node_type].first += n.slot_utilization;
    util[n.node_type].second += 1;
  }
  for (const auto& t : types) {
    out += strfmt("utilization %s %.17g\n", t.c_str(), util[t].first / util[t].second);
  }
  int split = 0;
  for (const auto& s : r.schedule) split += s.split_across_types() ? 1 : 0;
  out += strfmt("split_jobs %d\n", split);
  return out;
}

class BatchRack final : public Workload {
 public:
  void setup(Bench& b) override {
    ch_ = make_characterizer(b);
    precharacterize(b, *ch_, batch_jobs(1));
  }

  PassResult pass(Bench& b) override {
    PassResult p = run(b, batch_jobs(kBatchCopies), rack141(), "n141");
    check_expected(b, "batch_rack", p.pinned);
    return p;
  }

  PassResult run(Bench& b, const std::vector<core::JobRequest>& jobs,
                 const std::vector<core::NodeSpec>& rack, const std::string& label) {
    core::MixResult r;
    bool ok = false;
    PassResult p = timed([&] {
      ScopedSpan s(b.tracer, "core.cluster_sim", "core.cluster_sim.simulate_mix[" + label + "]");
      ok = b.checks.guard("simulate_mix " + label, [&] {
        r = core::simulate_mix(*ch_, jobs, rack, core::MixPolicy::kEarliestFinish, b.width);
      });
    });
    if (!ok) return p;
    check(b, r, jobs, label);
    p.pinned = batch_pinned(r);
    tasks_ = tasks_run(r);
    return p;
  }

  int tasks() const { return tasks_; }

 private:
  void check(Bench& b, const core::MixResult& r, const std::vector<core::JobRequest>& jobs,
             const std::string& label) {
    int want_tasks = 0;
    for (const auto& j : jobs) {
      core::RunSpec spec;
      spec.workload = j.workload;
      spec.input_size = j.input_size;
      const mr::JobTrace& t = ch_->trace(spec);
      want_tasks += static_cast<int>(t.num_map_tasks() + t.num_reduce_tasks());
    }
    bool finished = r.schedule.size() == jobs.size();
    for (const auto& s : r.schedule) {
      finished = finished && s.start >= 0 && s.finish >= s.start && s.finish <= r.makespan + 1e-9;
    }
    b.checks.expect(finished, "batch " + label + ": every job ran and finished by the makespan");
    b.checks.expect(tasks_run(r) == want_tasks,
                    "batch " + label + strfmt(": every task ran (%d of %d)", tasks_run(r),
                                              want_tasks));
    b.checks.expect(std::isfinite(r.total_energy) && r.total_energy > 0 && r.makespan > 0,
                    "batch " + label + ": positive finite makespan and energy");
  }

  std::unique_ptr<core::Characterizer> ch_;
  int tasks_ = 0;
};

// ---------------------------------------------------------------------------
// Layer probes: each layer's public entry points on fixed inputs
// ---------------------------------------------------------------------------

/// Seconds per call of `fn`, over enough calls to fill `min_s`.
template <class Fn>
double per_call_s(Fn&& fn, double min_s = 0.02) {
  fn();
  for (std::size_t n = 1;; n *= 2) {
    auto t0 = Clock::now();
    for (std::size_t i = 0; i < n; ++i) fn();
    double s = seconds_since(t0);
    if (s >= min_s) return s / static_cast<double>(n);
  }
}

/// The Characterizer's reference engine config for one workload: the
/// paper's per-node input (1 GB micro, 10 GB real apps), 512 MB blocks.
mr::JobConfig reference_config(wl::WorkloadId id, const Bench& b) {
  bool real = id == wl::WorkloadId::kNaiveBayes || id == wl::WorkloadId::kFpGrowth;
  mr::JobConfig cfg;
  cfg.input_size = real ? 10 * GB : 1 * GB;
  cfg.block_size = 512 * MB;
  cfg.sim_scale = std::max(1.0, static_cast<double>(cfg.input_size) /
                                    static_cast<double>(kTargetExecBytes));
  cfg.seed = b.opt.seed;
  cfg.exec_threads = b.width;
  return cfg;
}

std::vector<mr::JobTrace> probe_engine(Bench& b) {
  std::vector<mr::JobTrace> traces;
  mr::Engine engine;
  for (auto id : wl::all_workloads()) {
    const std::string name = wl::short_name(id);
    mr::JobTrace t;
    auto t0 = Clock::now();
    {
      ScopedSpan s(b.tracer, "mapreduce", "mapreduce.engine.run." + name);
      b.checks.guard("engine run " + name, [&] {
        auto def = wl::make_workload(id);
        t = engine.run(*def, reference_config(id, b));
      });
    }
    b.metric("mapreduce.engine_run_s." + name, "s", seconds_since(t0));
    b.checks.expect(t.num_map_tasks() > 0, "engine run " + name + " produced map tasks");
    traces.push_back(std::move(t));
  }
  return traces;
}

void probe_char_cache(Bench& b, const std::vector<mr::JobTrace>& traces) {
  ScopedSpan s(b.tracer, "core.char_cache", "core.char_cache.probe");
  core::CharCache cache(b.fresh_dir("char-cache-probe").string());
  std::vector<double> store_ms, load_ms;
  double bytes = 0;
  for (int rep = 0; rep < 5; ++rep) {
    double st = 0, ld = 0;
    for (std::size_t i = 0; i < traces.size(); ++i) {
      std::string key = "bvl_bench probe " + traces[i].workload;
      auto t0 = Clock::now();
      bool stored = cache.store(key, traces[i]);
      st += seconds_since(t0);
      t0 = Clock::now();
      auto loaded = cache.load(key);
      ld += seconds_since(t0);
      if (rep == 0) {
        b.checks.expect(stored && loaded && mr::to_text(*loaded) == mr::to_text(traces[i]),
                        "char cache round-trips " + traces[i].workload);
        std::error_code ec;
        bytes += static_cast<double>(fs::file_size(cache.path_for(key), ec));
      }
    }
    store_ms.push_back(st / traces.size() * 1e3);
    load_ms.push_back(ld / traces.size() * 1e3);
  }
  b.metric("core.char_cache.store_ms", "ms", median(store_ms));
  b.metric("core.char_cache.load_ms", "ms", median(load_ms));
  b.metric("core.char_cache.bytes_per_trace", "bytes", bytes / traces.size());
}

void probe_perf(Bench& b, const std::vector<mr::JobTrace>& traces) {
  ScopedSpan s(b.tracer, "perf", "perf.probe");
  std::vector<double> analytic, event, job_sim;
  double sink = 0;
  for (const auto& server : arch::paper_servers()) {
    perf::AnalyticPricer ap(server);
    perf::EventPricer ep(server);
    for (const auto& t : traces) {
      analytic.push_back(
          per_call_s([&] { sink += ap.price(t, 1.8 * GHz, 4).total_time(); }) * 1e6);
      event.push_back(per_call_s([&] { sink += ep.price(t, 1.8 * GHz, 4).total_time(); }) * 1e6);
      job_sim.push_back(per_call_s([&] { sink += ep.job_sim(t, 1.8 * GHz, 4).other_s; }) * 1e6);
    }
  }
  b.checks.expect(std::isfinite(sink) && sink > 0, "pricers return finite positive times");
  b.metric("perf.analytic_price_us", "us", median(analytic));
  b.metric("perf.event_price_us", "us", median(event));
  b.metric("perf.job_sim_us", "us", median(job_sim));
}

void probe_arch(Bench& b) {
  ScopedSpan s(b.tracer, "arch", "arch.probe");
  const arch::ServerConfig xeon = arch::xeon_e5_2420();
  // Half a streaming sweep over 64 MiB, half random reuse within 4 MiB:
  // hits and misses at every level of the hierarchy.
  std::vector<std::uint64_t> addrs(1u << 20);
  Pcg32 rng(b.opt.seed, 0xa11ce);
  for (std::size_t i = 0; i < addrs.size(); ++i) {
    addrs[i] = i % 2 == 0 ? (i / 2 * 64) % (64 * MB) : rng.uniform(0, 4 * MB - 1) & ~63ULL;
  }
  arch::HierarchySim sim(xeon.cache_levels);
  std::vector<double> ns;
  for (int rep = 0; rep < 3; ++rep) {
    auto t0 = Clock::now();
    sim.access_batch(addrs.data(), addrs.size());
    ns.push_back(seconds_since(t0) * 1e9 / static_cast<double>(addrs.size()));
  }
  b.checks.expect(sim.global_miss_ratio(0) > 0 && sim.global_miss_ratio(0) < 1,
                  "cache sim misses some but not all accesses");
  b.metric("arch.cache_sim_ns_per_access", "ns", median(ns));

  arch::CoreModel core = xeon.make_core_model();
  std::vector<arch::CoreModel::CpiPoint> pts;
  for (auto id : wl::all_workloads()) {
    const auto& cal = perf::calibration_for(wl::long_name(id));
    for (const arch::Signature* sig : {&cal.map_sig, &cal.reduce_sig}) {
      for (double ws = 64 * KB; ws <= 1.0 * GB; ws *= 2) {
        for (Hertz f : arch::paper_frequency_sweep()) {
          for (int cores : {1, 2, 4, 8}) pts.push_back({sig, ws, f, cores});
        }
      }
    }
  }
  std::vector<arch::CpiBreakdown> out(pts.size());
  double sink = 0;
  double s_call = per_call_s([&] {
    core.cpi_batch(pts.data(), pts.size(), out.data());
    sink += out.back().total();
  });
  b.checks.expect(std::isfinite(sink) && sink > 0, "cpi_batch returns finite positive CPI");
  b.metric("arch.cpi_batch_ns_per_point", "ns", s_call * 1e9 / static_cast<double>(pts.size()));
}

void probe_event_queue(Bench& b) {
  ScopedSpan s(b.tracer, "sim", "sim.event_queue.probe");
  constexpr std::size_t kPending = 64 * 1024;
  std::vector<double> push, cancel, pop;
  for (std::uint64_t rep = 0; rep < 5; ++rep) {
    Pcg32 rng(b.opt.seed, rep);
    std::vector<Seconds> times(kPending);
    for (auto& t : times) t = rng.next_double() * 1e6;
    sim::EventQueue q;
    std::vector<sim::EventId> ids(kPending);
    auto t0 = Clock::now();
    for (std::size_t i = 0; i < kPending; ++i) ids[i] = q.push(times[i], [] {});
    push.push_back(seconds_since(t0) * 1e9 / kPending);
    for (std::size_t i = kPending; i > 1; --i) std::swap(ids[i - 1], ids[rng.uniform(0, i - 1)]);
    t0 = Clock::now();
    for (std::size_t i = 0; i < kPending / 2; ++i) q.cancel(ids[i]);
    cancel.push_back(seconds_since(t0) * 1e9 / (kPending / 2));
    std::size_t left = q.size();
    sim::SimClock clock;
    t0 = Clock::now();
    while (!q.empty()) q.run_next(clock);
    pop.push_back(seconds_since(t0) * 1e9 / static_cast<double>(left));
    if (rep == 0) b.checks.expect(left == kPending / 2, "event queue cancels exactly half");
  }
  b.metric("sim.event_queue.push_ns", "ns", median(push));
  b.metric("sim.event_queue.pop_ns", "ns", median(pop));
  b.metric("sim.event_queue.cancel_ns", "ns", median(cancel));
}

void probe_stream(Bench& b) {
  ScopedSpan s(b.tracer, "sim", "sim.workload.probe");
  constexpr std::size_t kOps = 1u << 18;
  std::vector<sim::TenantSpec> specs;
  for (const auto& t : service_tenants()) specs.push_back(t.tenant);
  sim::FairShareQueue q(specs);
  for (std::uint64_t i = 0; i < 1024; ++i) q.enqueue(static_cast<int>(i % 2), i);
  auto t0 = Clock::now();
  for (std::size_t i = 0; i < kOps; ++i) {
    int t = q.next_tenant();
    std::uint64_t item = q.pop(t);
    q.charge(t, 1.0 + static_cast<double>(item % 7));
    q.enqueue(static_cast<int>(item % 2), item + 1024);
  }
  b.metric("sim.fair_share.push_pop_ns", "ns", seconds_since(t0) * 1e9 / kOps);
  b.checks.expect(q.size() == 1024, "fair-share queue keeps its backlog");

  sim::DiurnalCurve curve;
  curve.amplitude = 0.3;
  sim::ArrivalProcess arrivals(0.7, curve, b.opt.seed);
  Seconds t = 0;
  t0 = Clock::now();
  for (std::size_t i = 0; i < kOps; ++i) t = arrivals.next_after(t);
  b.metric("sim.arrival.next_ns", "ns", seconds_since(t0) * 1e9 / kOps);
  b.checks.expect(std::isfinite(t) && t > 0, "arrival process advances");
}

/// Candidate view owned by the harness: 141 nodes, the workload rack's
/// class split and striping, seeded occupancy and finish estimates.
class ProbeCandidates final : public core::placement::CandidateSource {
 public:
  explicit ProbeCandidates(std::vector<core::placement::Candidate> c) : c_(std::move(c)) {}
  const std::vector<core::placement::Candidate>& all() override { return c_; }
  core::placement::Candidate at(std::size_t flat) override { return c_.at(flat); }

 private:
  std::vector<core::placement::Candidate> c_;
};

void probe_fabric_and_placement(Bench& b) {
  const auto rack = rack141();
  const int nodes = node_count(rack);
  std::vector<double> rates;
  const sim::NicPreset& nic = sim::nic_preset(sim::NicPresetId::k1GbE);
  int big_nodes = 0;
  for (const auto& spec : rack) {
    bool big = spec.server.name == arch::xeon_e5_2420().name;
    for (int i = 0; i < spec.count; ++i) {
      rates.push_back(
          nic.endpoint_bytes_per_s(perf::ClusterConfig{}.net_mbps, spec.server.network_efficiency));
      big_nodes += big ? 1 : 0;
    }
  }
  sim::Simulation simulation;
  sim::Fabric fabric(simulation, striped_topology(nodes), rates);
  {
    ScopedSpan s(b.tracer, "sim", "sim.fabric.probe");
    constexpr std::size_t kFlows = 1u << 16;
    Pcg32 rng(b.opt.seed, 0xfab);
    std::size_t delivered = 0;
    auto t0 = Clock::now();
    for (std::size_t i = 0; i < kFlows; ++i) {
      int src = static_cast<int>(rng.uniform(0, nodes - 1));
      int dst = static_cast<int>(rng.uniform(0, nodes - 1));
      fabric.send(src, dst, static_cast<double>(MB * rng.uniform(1, 64)), [&] { ++delivered; });
    }
    b.metric("sim.fabric.send_ns", "ns", seconds_since(t0) * 1e9 / kFlows);
    simulation.run();
    b.checks.expect(delivered == kFlows, "fabric probe delivered every flow");
    check_fabric(b, fabric.stats(), "fabric probe");
  }

  ScopedSpan s(b.tracer, "core.placement", "core.placement.probe");
  Pcg32 rng(b.opt.seed, 0x91ace);
  std::vector<core::placement::Candidate> cands;
  for (int i = 0; i < nodes; ++i) {
    cands.push_back({static_cast<std::size_t>(i), i < big_nodes, rng.chance(0.7), i % 4,
                     rng.uniform_real(1.0, 100.0)});
  }
  ProbeCandidates source(std::move(cands));
  std::map<std::size_t, int> maps_by_node{{3, 2}, {17, 1}, {64, 3}, {130, 1}};
  std::vector<core::placement::TaskContext> tasks(64);
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    tasks[i].phase = static_cast<int>(i % 2);
    tasks[i].prefers_big = i % 3 == 0;
    tasks[i].rr_node = (i * 37) % static_cast<std::size_t>(nodes);
    tasks[i].net_bytes = static_cast<double>(MB * (1 + i % 16));
    tasks[i].job_shuffle_bytes = static_cast<double>(GB);
    tasks[i].job_maps = 7;
    tasks[i].maps_by_node = &maps_by_node;
  }
  for (auto policy : {core::MixPolicy::kClassAware, core::MixPolicy::kEarliestFinish,
                      core::MixPolicy::kRoundRobin, core::MixPolicy::kRackLocal}) {
    auto pol = core::placement::make_placement_policy(policy, &fabric);
    std::size_t i = 0, bad = 0;
    double s_call = per_call_s([&] {
      std::size_t pick = pol->pick(tasks[i++ % tasks.size()], source);
      bad += pick != core::placement::kNoNode && pick >= source.all().size() ? 1 : 0;
    });
    b.checks.expect(bad == 0, "placement " + core::to_string(policy) + " picks a real node");
    b.metric("core.placement.pick_ns." + core::to_string(policy), "ns", s_call * 1e9);
  }
}

void probe_power(Bench& b) {
  ScopedSpan s(b.tracer, "power", "power.probe");
  const arch::ServerConfig xeon = arch::xeon_e5_2420();
  power::PowerModel model(xeon);
  const int levels = xeon.dvfs.levels();
  double sink = 0;
  int i = 0;
  double node_s = per_call_s([&] {
    sink += model.node_draw(i % (xeon.cores + 1), xeon.dvfs.level_freq(i % levels));
    ++i;
  });
  power::PowerPlanSpec spec;
  spec.governor = power::GovernorKind::kOndemand;
  double gov_s = per_call_s([&] {
    sink += power::govern_level(spec, i % levels, levels, (i % 101) / 100.0);
    ++i;
  });
  b.checks.expect(std::isfinite(sink) && sink > 0, "power model returns finite draws");
  b.metric("power.node_draw_ns", "ns", node_s * 1e9);
  b.metric("power.govern_level_ns", "ns", gov_s * 1e9);
}

// ---------------------------------------------------------------------------
// The layer profile (--trace 1)
// ---------------------------------------------------------------------------

/// A profile step's workload, set up, and the traced pass it ran: the
/// workload's own timed pass, with spans on.
struct Profiled {
  std::unique_ptr<Workload> w;
  PassResult traced;
};

Profiled figures_profile(Bench& b) {
  ScopedSpan s(b.tracer, "bench", "profile.figures");
  auto w = std::make_unique<ReproWarm>();
  w->setup(b);                     // the cold pass
  PassResult traced = w->pass(b);  // one warm pass over the cache it filled
  const FigurePass& cold = w->cold();
  const FigurePass& hot = w->last();
  for (std::size_t i = 0; i < cold.groups.size(); ++i) {
    b.metric("figures." + cold.groups[i] + ".cold_s", "s", cold.build_s[i]);
    b.metric("figures." + cold.groups[i] + ".warm_s", "s", hot.build_s[i]);
  }
  b.metric("core.characterizer.traces_stored", "count", cold.traces_stored);
  std::vector<double> render;
  for (int i = 0; i < 3; ++i) {
    ScopedSpan r(b.tracer, "report", "report.render_all");
    std::size_t bytes = 0;
    auto t0 = Clock::now();
    for (const auto& rep : cold.reports) {
      bytes += report::render_text(rep).size();
      bytes += report::metrics_rows(rep).size();
    }
    render.push_back(seconds_since(t0) * 1e3);
    b.checks.expect(bytes > 0, "reports render");
  }
  b.metric("report.render_ms", "ms", median(render));
  return {std::move(w), traced};
}

Profiled service_profile(Bench& b) {
  ScopedSpan s(b.tracer, "bench", "profile.service");
  auto w = std::make_unique<ServiceRack>();
  w->setup(b);
  double plain_s = w->run(b, false, PowerMode::kOff).wall;
  double fabric_s = w->run(b, true, PowerMode::kOff).wall;
  double metered_s = w->run(b, true, PowerMode::kMetered).wall;
  PassResult full = w->pass(b);
  const core::ServiceResult& r = w->last();
  std::uint64_t tasks = 0;
  for (const auto& c : r.classes) tasks += static_cast<std::uint64_t>(c.tasks_run);
  b.metric("core.cluster_sim.events", "count", static_cast<double>(r.events_run));
  b.metric("core.cluster_sim.tasks", "count", static_cast<double>(tasks));
  b.metric("core.cluster_sim.ns_per_event", "ns",
           full.wall * 1e9 / std::max<double>(1, static_cast<double>(r.events_run)));
  b.metric("core.cluster_sim.service_plain_s", "s", plain_s);
  b.metric("core.cluster_sim.service_fabric_s", "s", fabric_s);
  b.metric("core.cluster_sim.service_metered_s", "s", metered_s);
  b.metric("power.meter_overhead_s", "s", metered_s - fabric_s);
  b.metric("power.cap_overhead_s", "s", full.wall - metered_s);
  b.metric("power.level_changes", "count", r.power.level_changes);
  b.metric("power.peak_draw_w", "W", r.power.peak_draw);
  b.metric("sim.fabric.flows", "count", static_cast<double>(r.fabric.flows));
  b.metric("sim.fabric.xrack_frac", "ratio",
           r.fabric.bytes_injected > 0 ? r.fabric.cross_rack_bytes / r.fabric.bytes_injected : 0);
  b.metric("sim.fabric.spine_util", "ratio", r.fabric.spine_utilization);
  b.metric("sim.fabric.overhead_s", "s", fabric_s - plain_s);
  b.metric("service.arrivals", "count", r.arrivals);
  b.metric("service.measured_jobs", "count", r.measured_jobs);
  return {std::move(w), full};
}

Profiled batch_profile(Bench& b) {
  ScopedSpan s(b.tracer, "bench", "profile.batch");
  auto w = std::make_unique<BatchRack>();
  w->setup(b);
  const auto rack35 = core::comparison_racks(16)[2];
  std::vector<double> small;
  for (int rep = 0; rep < 3; ++rep) {
    small.push_back(w->run(b, batch_jobs(kBatchCopies / 4), rack35, "n35").wall);
  }
  PassResult big = w->pass(b);
  double t35 = median(small);
  b.metric("core.cluster_sim.batch_s.n35", "s", t35);
  b.metric("core.cluster_sim.batch_s.n141", "s", big.wall);
  b.metric("core.cluster_sim.batch_scaling_exp", "ratio",
           std::log(big.wall / t35) /
               std::log(static_cast<double>(node_count(rack141())) / node_count(rack35)));
  b.metric("core.cluster_sim.us_per_task", "us", big.wall * 1e6 / std::max(1, w->tasks()));
  return {std::move(w), big};
}

void probes_profile(Bench& b) {
  ScopedSpan s(b.tracer, "bench", "profile.probes");
  std::vector<mr::JobTrace> traces = probe_engine(b);
  probe_char_cache(b, traces);
  probe_perf(b, traces);
  probe_arch(b);
  probe_event_queue(b);
  probe_stream(b);
  probe_fabric_and_placement(b);
  probe_power(b);
}

/// Runs every profile step and returns the one holding the workload's
/// own pass. That step goes last, right before the untraced pass it is
/// compared with, so both run on an equally grown heap.
Profiled run_profile(Bench& b) {
  using Step = Profiled (*)(Bench&);
  const std::map<std::string, Step> steps = {{"repro_warm", figures_profile},
                                             {"service_rack", service_profile},
                                             {"batch_rack", batch_profile}};
  probes_profile(b);
  for (const auto& [name, step] : steps) {
    if (name != b.opt.workload) step(b);
  }
  return steps.at(b.opt.workload)(b);
}

// ---------------------------------------------------------------------------
// Running one workload
// ---------------------------------------------------------------------------

struct WorkloadDef {
  const char* name;
  int setups;  ///< set-ups timed per run; setup_s is their median
  std::unique_ptr<Workload> (*make)();
};

const WorkloadDef kWorkloads[] = {
    // Its set-up is a whole cold pass (~15 s): a second one would double
    // the time a run spends exposed to the host's slow phases.
    {"repro_warm", 1,
     []() -> std::unique_ptr<Workload> { return std::make_unique<ReproWarm>(); }},
    {"service_rack", 3,
     []() -> std::unique_ptr<Workload> { return std::make_unique<ServiceRack>(); }},
    {"batch_rack", 3,
     []() -> std::unique_ptr<Workload> { return std::make_unique<BatchRack>(); }},
};

void print_digest(const std::string& pinned) {
  std::printf("pinned-output digest: %016llx (%zu bytes)\n",
              static_cast<unsigned long long>(fnv1a(pinned)), pinned.size());
}

void write_text_out(Bench& b, const std::string& pinned) {
  if (b.opt.text_out.empty()) return;
  b.checks.expect(write_file(b.opt.text_out, pinned), "write " + b.opt.text_out);
}

void run_e2e(Bench& b, const WorkloadDef& def, Workload& w) {
  std::vector<double> setup_s;
  for (int i = 0; i < def.setups; ++i) {
    auto t0 = Clock::now();
    w.setup(b);
    setup_s.push_back(seconds_since(t0));
  }
  std::vector<double> wall, cpu;
  double measured = 0;
  PassResult last;
  while (wall.empty() || measured < b.opt.seconds) {
    last = w.pass(b);
    wall.push_back(last.wall);
    cpu.push_back(last.cpu);
    measured += last.wall;
  }
  print_digest(last.pinned);
  write_text_out(b, last.pinned);
  std::printf("set-ups: %zu, timed passes: %zu\n", setup_s.size(), wall.size());
  b.metric("setup_s", "s", median(setup_s));
  b.metric("wall_s", "s", median(wall));
  b.metric("cpu_s", "s", median(cpu));
  b.metric("peak_rss_mb", "MiB", peak_rss_mib());
}

void run_traced(Bench& b) {
  b.tracer.set_enabled(true);
  Profiled own = run_profile(b);
  b.tracer.set_enabled(false);
  PassResult untraced = own.w->pass(b);
  print_digest(untraced.pinned);
  write_text_out(b, untraced.pinned);
  const PassResult& traced = own.traced;
  b.checks.expect(traced.pinned == untraced.pinned, "traced pass outputs equal untraced outputs");
  b.metric("trace.overhead_frac", "ratio", traced.wall / untraced.wall - 1.0);
  b.tracer.print_self_times();
  fs::path out = b.opt.trace_out.empty()
                     ? b.out_dir / ("bvl_bench." + b.opt.workload + ".trace.json")
                     : fs::path(b.opt.trace_out);
  if (b.checks.expect(b.tracer.write_chrome_json(out, b.opt.workload), "write " + out.string())) {
    std::printf("trace: %s\n", out.c_str());
  }
}

void print_help(const char* prog) {
  std::printf(
      "usage: %s --workload NAME [--seed S] [--seconds N] [--trace 0|1]\n"
      "          [--trace-out PATH] [--text-out PATH]\n"
      "workloads: repro_warm service_rack batch_rack\n"
      "  --seed S         data and arrival seed (default 42; goldens are pinned at 42)\n"
      "  --seconds N      timed pass time to accumulate per run (default 15)\n"
      "  --trace 0|1      1: untraced pass + traced layer profile, per-layer metrics\n"
      "  --trace-out PATH Chrome Trace Event JSON (default: next to this binary)\n"
      "  --text-out PATH  write the pinned outputs of the last pass\n",
      prog);
}

/// Parses argv; returns false (after printing why) on any bad argument.
bool parse_args(int argc, char** argv, Options* opt) {
  for (int i = 1; i < argc; ++i) {
    std::string_view a = argv[i];
    if (a == "--help" || a == "-h") {
      print_help(argv[0]);
      std::exit(0);
    }
    std::string_view value;
    const char* flag = nullptr;
    for (const char* f : {"--workload", "--seed", "--seconds", "--trace", "--trace-out",
                          "--text-out"}) {
      FlagMatch m = match_flag(a, f, &value);
      if (m == FlagMatch::kNoMatch) continue;
      if (m == FlagMatch::kNeedsValue) {
        if (i + 1 >= argc) {
          std::fprintf(stderr, "%s: %s requires a value\n", argv[0], f);
          return false;
        }
        value = argv[++i];
      }
      flag = f;
      break;
    }
    if (flag == nullptr) {
      std::fprintf(stderr, "%s: unknown option '%s' (try --help)\n", argv[0], argv[i]);
      return false;
    }
    std::string_view f = flag;
    if (f == "--workload") {
      opt->workload = value;
    } else if (f == "--trace-out") {
      opt->trace_out = value;
    } else if (f == "--text-out") {
      opt->text_out = value;
    } else {
      auto n = parse_non_negative_int(value);
      bool ok = n.has_value() && (f != "--seconds" || *n >= 1) && (f != "--trace" || *n <= 1);
      if (!ok) {
        std::fprintf(stderr, "%s: invalid %s value '%.*s'\n", argv[0], flag,
                     static_cast<int>(value.size()), value.data());
        return false;
      }
      if (f == "--seed") opt->seed = static_cast<std::uint64_t>(*n);
      if (f == "--seconds") opt->seconds = *n;
      if (f == "--trace") opt->trace = *n == 1;
    }
  }
  return true;
}

void print_result(const Bench& b) {
  std::printf("\n%s metrics (%s):\n", b.opt.workload.c_str(),
              b.opt.trace ? "per layer, traced" : "end to end, untraced");
  for (const auto& m : b.metrics) {
    std::printf("  %-44s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("checks: %ld attempted, %ld failed\n", b.checks.attempted(), b.checks.failed());
  std::string json = strfmt("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, \"metrics\": {",
                            b.checks.failed() == 0 ? "true" : "false", b.checks.attempted(),
                            b.checks.failed());
  for (std::size_t i = 0; i < b.metrics.size(); ++i) {
    const Metric& m = b.metrics[i];
    // A non-finite value already failed its check; keep the line valid JSON.
    double v = std::isfinite(m.value) ? m.value : 0.0;
    json += strfmt("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i > 0 ? ", " : "",
                   m.name.c_str(), v, m.unit.c_str());
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  Bench b;
  if (!parse_args(argc, argv, &b.opt)) return 2;
  const WorkloadDef* def = nullptr;
  for (const auto& d : kWorkloads) def = b.opt.workload == d.name ? &d : def;
  if (def == nullptr) {
    std::fprintf(stderr, "%s: unknown or missing --workload '%s' (try --help)\n", argv[0],
                 b.opt.workload.c_str());
    return 2;
  }
  b.width = std::min(4, ThreadPool::hardware_threads());
  b.out_dir = fs::read_symlink("/proc/self/exe").parent_path();
  b.scratch = std::make_unique<ScratchDir>(b.out_dir / ("bvl_bench.scratch." +
                                                        std::to_string(::getpid())));
  std::printf("bvl_bench workload=%s seed=%llu seconds=%d trace=%d width=%d\n",
              b.opt.workload.c_str(), static_cast<unsigned long long>(b.opt.seed),
              b.opt.seconds, b.opt.trace ? 1 : 0, b.width);
  if (b.opt.trace) {
    run_traced(b);
  } else {
    run_e2e(b, *def, *def->make());
  }
  for (const auto& m : b.metrics) {
    b.checks.expect(std::isfinite(m.value), "metric " + m.name + " is finite");
  }
  print_result(b);
  return b.checks.failed() == 0 ? 0 : 1;
}

// perfbench: the repository benchmark. One command runs one workload
// and prints every metric by name with its unit; the last stdout line is
// a JSON object {"correct", "attempted", "failed", "metrics"}.
//
//   perfbench --workload place_cold|serve_repeat|flows_eval
//             --seed N --seconds S --trace 0|1
//
// --trace 0 runs a closed loop for S seconds and reports the end-to-end
// metrics. --trace 1 runs the same jobs twice, first through the
// library's entry points and then through the public pieces with
// benchmark-side spans (pipeline.hpp), checks that both produce the same
// DEF bytes / metrics, and reports the per-layer table. Any failed check
// makes the exit code non-zero. See perfbench/README.md for the
// workloads, their sizes and what each layer metric should move.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <sys/resource.h>

#include "core/hidap.hpp"
#include "eval/flows.hpp"
#include "eval/metrics.hpp"
#include "gen/circuit_gen.hpp"
#include "gen/suite.hpp"
#include "layer_trace.hpp"
#include "netlist/def_io.hpp"
#include "netlist/verilog_parser.hpp"
#include "netlist/verilog_writer.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "pipeline.hpp"
#include "runtime/thread_pool.hpp"
#include "service/placement_session.hpp"
#include "util/log.hpp"

namespace {

using namespace hidap;
using namespace perfbench;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

std::uint64_t mix_seed(std::uint64_t a, std::uint64_t b) {
  std::uint64_t z = a * 0x9e3779b97f4a7c15ULL + b + 0x632be59bd9b4e019ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Nearest-rank percentile; at least 100 - pct percent of the samples lie
// strictly beyond the returned rank.
double percentile(std::vector<double> v, double pct) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(pct / 100.0 * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank > 0 ? rank - 1 : 0)];
}

double peak_rss_mb() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

// ---------------------------------------------------------------------------
// Configuration

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

Args parse_args(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
      if (!(args.seconds > 0.0 && args.seconds <= 600.0)) {
        throw std::invalid_argument("--seconds must be in (0, 600]");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") throw std::invalid_argument("--trace takes 0 or 1");
      args.trace = value == "1";
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (!have_workload) throw std::invalid_argument("--workload is required");
  return args;
}

// The benches' calibrated effort (bench/bench_common.hpp, full effort),
// copied so later edits to the paper benches cannot move this benchmark.
FlowOptions flow_options() {
  FlowOptions o;
  o.seed = 1;
  o.hidap.layout_anneal.moves_per_temperature = 160;
  o.hidap.layout_anneal.cooling = 0.85;
  o.hidap.layout_anneal.max_stagnant_temperatures = 5;
  o.hidap.shape_fp.anneal.moves_per_temperature = 80;
  o.hidap.shape_fp.anneal.cooling = 0.85;
  o.hidap.shape_fp.anneal.max_stagnant_temperatures = 4;
  o.indeda_effort = 0.3;
  o.handfp_effort = 2.0;
  o.handfp_seeds = 2;
  o.eval.place.target_clusters = 0;
  o.eval.place.solver_iterations = 50;
  return o;
}

// Suite generation lands at the generator's structural floor for any
// scale below ~0.01 (c1 ~8.8k cells, c4 ~39k), so sizes are set by the
// circuit topologies chosen, not by the scale.
constexpr double kCellScale = 0.002;
const std::vector<std::string> kAllCircuits = {"c1", "c2", "c3", "c4", "c5", "c6", "c7", "c8"};

/// `count` distinct suite-style designs as Verilog text: the named
/// Table III topologies in turn, each with its own generator seed drawn
/// from the workload seed.
std::vector<std::string> suite_verilog(const std::vector<std::string>& circuits, int count,
                                       std::uint64_t seed) {
  std::vector<std::string> texts;
  for (int k = 0; k < count; ++k) {
    CircuitSpec spec =
        suite_circuit(circuits[static_cast<std::size_t>(k) % circuits.size()], kCellScale).spec;
    spec.seed = mix_seed(seed, static_cast<std::uint64_t>(k));
    spec.name += "_" + std::to_string(k);
    const Design design = generate_circuit(spec);
    std::ostringstream out;
    write_verilog(design, out);
    texts.push_back(out.str());
  }
  return texts;
}

std::atomic<std::size_t> g_illegal_placements{0};

// The hard check: the job completed and placed every macro. Legality --
// every macro inside the die, no overlap -- is counted instead of failing
// the job: about 1 in 6000 placements leaves a macro outside the die or
// overlapping (README, "Known defect"), so a hard gate would fail runs
// on arbitrary seeds.
bool placement_ok(const Design& design, const PlacementResult& placement) {
  if (placement.status != JobStatus::Completed) return false;
  const PlacementCheck check =
      check_placement(design, placement, Rect{0, 0, design.die().w, design.die().h});
  if (!check.all_inside_die || check.overlap_area > 1e-6) {
    g_illegal_placements.fetch_add(1, std::memory_order_relaxed);
  }
  return check.all_macros_placed;
}

/// First-seen output per key; every later output under the key must be
/// byte-identical (determinism, cache transparency, traced == untraced).
template <typename Key, typename Value>
class ReferenceMap {
 public:
  bool check(const Key& key, const Value& value) {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto [it, inserted] = map_.try_emplace(key, value);
    return inserted || it->second == value;
  }
  std::optional<Value> find(const Key& key) const {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = map_.find(key);
    if (it == map_.end()) return std::nullopt;
    return it->second;
  }
  void clear() {
    const std::lock_guard<std::mutex> lock(mutex_);
    map_.clear();
  }

 private:
  mutable std::mutex mutex_;
  std::map<Key, Value> map_;
};

struct JobResult {
  double ms = 0.0;
  bool ok = false;
  bool cold = false;  ///< serve_repeat: the design was parsed by this job
  bool warm = false;  ///< serve_repeat: all four artifacts came from the cache
};

// ---------------------------------------------------------------------------
// Workloads

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

class Workload {
 public:
  virtual ~Workload() = default;

  virtual const char* description() const = 0;
  virtual int clients() const = 0;
  virtual int pool_lanes() const = 0;
  /// Fixed per workload so it never flips between runs; min_jobs() keeps
  /// at least ten samples beyond it.
  virtual double tail_pct() const = 0;
  std::size_t min_jobs() const {
    return static_cast<std::size_t>(std::ceil(10.0 / (1.0 - tail_pct() / 100.0) - 1e-9));
  }

  /// Generates inputs and builds the serving state, then runs one
  /// untimed warm-up job. Called several times; setup_s is the median.
  virtual void setup(std::uint64_t seed) = 0;
  virtual JobResult job(std::size_t index) = 0;
  /// Called before the traced pass of --trace 1 (fresh caches).
  virtual void begin_traced_pass() {}
  virtual JobResult traced_job(std::size_t index) = 0;
  /// Untimed checks after the measured loop; fills quality metrics.
  virtual bool finish(std::vector<Metric>& quality) = 0;
};

// Cold `hidap_cli place`: Verilog bytes -> parse -> context -> place_macros
// -> DEF bytes, one client, over distinct designs with no caching.
class PlaceCold : public Workload {
 public:
  static constexpr int kDesigns = 16;

  const char* description() const override {
    return "1 client, cold parse+context+place_macros+write_def over 16 suite designs";
  }
  int clients() const override { return 1; }
  int pool_lanes() const override { return 2; }
  double tail_pct() const override { return 90.0; }

  void setup(std::uint64_t seed) override {
    texts_ = suite_verilog(kAllCircuits, kDesigns, seed);
    options_ = flow_options().hidap;
    defs_.clear();
    first_placement_.assign(kDesigns, std::nullopt);
    job(0);
  }

  JobResult job(std::size_t index) override {
    const std::size_t d = index % texts_.size();
    const auto start = Clock::now();
    const Design design = parse_verilog_string(texts_[d]);
    const PlacementContext context(design, options_.seq);
    const PlacementResult placement = place_macros(design, context, options_);
    std::ostringstream def;
    write_def(design, placement, def);
    JobResult r;
    r.ms = seconds_since(start) * 1e3;
    r.ok = placement_ok(design, placement) && defs_.check(d, def.str());
    keep_first(d, placement);
    return r;
  }

  JobResult traced_job(std::size_t index) override {
    const std::size_t d = index % texts_.size();
    const auto start = Clock::now();
    const Design design = parse(texts_[d]);
    const Context context(design, options_.seq);
    const PlacementResult placement =
        place(design, context.adjacency, context.ht, context.seq, options_);
    const std::string def = def_bytes(design, placement);
    JobResult r;
    r.ms = seconds_since(start) * 1e3;
    r.ok = placement_ok(design, placement) && defs_.check(d, def);
    return r;
  }

  bool finish(std::vector<Metric>& quality) override {
    // One sampled job at pool width 1 against the pinned width.
    HiDaPOptions narrow = options_;
    narrow.num_threads = 1;
    const Design design = parse_verilog_string(texts_[0]);
    const PlacementContext context(design, narrow.seq);
    std::ostringstream def;
    write_def(design, place_macros(design, context, narrow), def);
    bool ok = defs_.check(0, def.str());
    if (!ok) std::printf("check failed: width-1 DEF differs from width-%d DEF\n", pool_lanes());

    double gseq = 0.0;
    for (std::size_t d = 0; d < texts_.size(); ++d) {
      if (!first_placement_[d]) {
        std::printf("check failed: design %zu never placed\n", d);
        ok = false;
        continue;
      }
      const Design dd = parse_verilog_string(texts_[d]);
      const PlacementContext cc(dd, options_.seq);
      gseq += quick_wirelength(dd, cc.ht, cc.seq, *first_placement_[d]);
    }
    quality.push_back({"gseq_wl", gseq, "bit-um"});
    return ok;
  }

 private:
  void keep_first(std::size_t d, const PlacementResult& placement) {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (!first_placement_[d]) first_placement_[d] = placement;
  }

  std::vector<std::string> texts_;
  HiDaPOptions options_;
  ReferenceMap<std::size_t, std::string> defs_;
  std::mutex mutex_;
  std::vector<std::optional<PlacementResult>> first_placement_;
};

// Repeat-request serving: two clients on one PlacementSession. The
// seeded request stream mixes first sightings of a design (cold), new
// seeds for a seen design (curves miss and are donated) and repeats of a
// seen (design, seed) (all four artifacts hit).
class ServeRepeat : public Workload {
 public:
  static constexpr int kDesigns = 16;  ///< plus one warm-up design
  static constexpr std::size_t kStream = 8192;
  /// Seeds per design: bounds the distinct (design, seed) requests, so
  /// after the first few seconds the stream is mostly cache repeats.
  static constexpr std::uint64_t kSeedsPerDesign = 2;
  static constexpr std::size_t kQualityRequests = 8;

  const char* description() const override {
    return "2 clients on one PlacementSession, stream of cold/new-seed/repeat requests";
  }
  int clients() const override { return 2; }
  int pool_lanes() const override { return 2; }
  double tail_pct() const override { return 90.0; }

  void setup(std::uint64_t seed) override {
    texts_ = suite_verilog(kAllCircuits, kDesigns + 1, seed);
    options_ = flow_options().hidap;
    make_stream(seed);
    defs_.clear();
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      quality_placements_.clear();
    }
    session_ = std::make_unique<PlacementSession>(options_);
    PlacementJobSpec warm;
    warm.verilog_text = texts_[kDesigns];
    session_->run(warm);
  }

  JobResult job(std::size_t index) override {
    const Request& req = stream_[index % stream_.size()];
    PlacementJobSpec spec;
    spec.verilog_text = texts_[static_cast<std::size_t>(req.design)];
    spec.seed = req.seed;
    const auto start = Clock::now();
    const JobOutcome outcome = session_->run(spec);
    JobResult r;
    if (outcome.status != JobStatus::Completed || !outcome.design) {
      r.ms = seconds_since(start) * 1e3;
      std::printf("job %zu: %s %s\n", index, to_string(outcome.status), outcome.error.c_str());
      return r;
    }
    std::ostringstream def;
    write_def(*outcome.design, outcome.placement, def);
    r.ms = seconds_since(start) * 1e3;
    r.cold = !outcome.design_cached;
    r.warm = outcome.design_cached && outcome.context_cached && outcome.curves_cached &&
             outcome.plan_cached;
    const bool placed = placement_ok(*outcome.design, outcome.placement);
    const bool same = defs_.check({req.design, req.seed}, def.str());
    r.ok = placed && same;
    if (!r.ok) {
      std::printf("job %zu (design %d seed %llu, hits %d%d%d%d): %s\n", index, req.design,
                  static_cast<unsigned long long>(req.seed), outcome.design_cached,
                  outcome.context_cached, outcome.curves_cached, outcome.plan_cached,
                  placed ? "DEF differs from the first run of this request" : "macros missing");
    }
    if (index < kQualityRequests) {
      const std::lock_guard<std::mutex> lock(mutex_);
      quality_placements_.emplace(std::make_pair(req.design, req.seed), outcome.placement);
    }
    return r;
  }

  void begin_traced_pass() override {
    traced_ = std::make_unique<TracedSession>(options_);
    traced_->run(texts_[kDesigns], 1);  // the warm-up, before tracing starts
  }

  JobResult traced_job(std::size_t index) override {
    const Request& req = stream_[index % stream_.size()];
    const auto start = Clock::now();
    const TracedSession::Outcome outcome =
        traced_->run(texts_[static_cast<std::size_t>(req.design)], req.seed);
    const std::string def = def_bytes(*outcome.design, outcome.placement);
    JobResult r;
    r.ms = seconds_since(start) * 1e3;
    r.cold = !outcome.design_cached;
    r.warm = outcome.design_cached && outcome.context_cached && outcome.curves_cached &&
             outcome.plan_cached;
    r.ok = placement_ok(*outcome.design, outcome.placement) &&
           defs_.check({req.design, req.seed}, def);
    return r;
  }

  const TracedSession* traced_session() const { return traced_.get(); }

  bool finish(std::vector<Metric>& quality) override {
    // One sampled request at pool width 1 against the pinned width.
    HiDaPOptions narrow = options_;
    narrow.num_threads = 1;
    PlacementSession narrow_session(narrow);
    const Request& req = stream_[0];
    PlacementJobSpec spec;
    spec.verilog_text = texts_[static_cast<std::size_t>(req.design)];
    spec.seed = req.seed;
    const JobOutcome outcome = narrow_session.run(spec);
    bool ok = outcome.status == JobStatus::Completed;
    if (ok) {
      std::ostringstream def;
      write_def(*outcome.design, outcome.placement, def);
      ok = defs_.check({req.design, req.seed}, def.str());
    }
    if (!ok) std::printf("check failed: width-1 DEF differs from width-%d DEF\n", pool_lanes());

    const std::lock_guard<std::mutex> lock(mutex_);
    double gseq = 0.0;
    for (const auto& [key, placement] : quality_placements_) {
      const Design design = parse_verilog_string(texts_[static_cast<std::size_t>(key.first)]);
      const PlacementContext context(design, options_.seq);
      gseq += quick_wirelength(design, context.ht, context.seq, placement);
    }
    quality.push_back({"gseq_wl", gseq, "bit-um"});
    return ok;
  }

 private:
  struct Request {
    int design = 0;
    std::uint64_t seed = 1;
  };

  void make_stream(std::uint64_t seed) {
    std::mt19937_64 rng(mix_seed(seed, 0x5e77e));
    std::uniform_real_distribution<double> u(0.0, 1.0);
    std::vector<std::uint64_t> max_seed;  // per seen design
    std::vector<Request> seen;            // seen (design, seed) pairs
    stream_.clear();
    for (std::size_t i = 0; i < kStream; ++i) {
      const double x = u(rng);
      Request req;
      if (max_seed.empty() || (x < 0.10 && max_seed.size() < kDesigns)) {
        req.design = static_cast<int>(max_seed.size());
        max_seed.push_back(1);
        seen.push_back(req);
      } else if (x < 0.30 && std::any_of(max_seed.begin(), max_seed.end(), [](std::uint64_t m) {
                   return m < kSeedsPerDesign;
                 })) {
        // A new seed for a seen design that has seeds left.
        std::size_t d = rng() % max_seed.size();
        while (max_seed[d] >= kSeedsPerDesign) d = (d + 1) % max_seed.size();
        req.design = static_cast<int>(d);
        req.seed = ++max_seed[d];
        seen.push_back(req);
      } else {
        req = seen[rng() % seen.size()];
      }
      stream_.push_back(req);
    }
  }

  std::vector<std::string> texts_;
  HiDaPOptions options_;
  std::vector<Request> stream_;
  std::unique_ptr<PlacementSession> session_;
  std::unique_ptr<TracedSession> traced_;
  ReferenceMap<std::pair<int, std::uint64_t>, std::string> defs_;
  std::mutex mutex_;
  std::map<std::pair<int, std::uint64_t>, PlacementResult> quality_placements_;
};

// Table II path: parse + compare_flows on suite circuits, one client,
// the flows and their sweeps nested on a 2-lane pool. Four lanes made
// the run-to-run spread of the job latency 15-28% on a 4-vCPU host.
class FlowsEval : public Workload {
 public:
  /// One circuit per job for the first cycle: the cost of one variant
  /// depends on its generator seed, and a median over 40 variants keeps
  /// the run-to-run spread near 5-10%.
  static constexpr int kCircuits = 40;
  static constexpr std::size_t kQualityCircuits = 8;

  const char* description() const override {
    return "1 client, parse+compare_flows over 40 seeded c1 circuits, flows nested on the pool";
  }
  int clients() const override { return 1; }
  int pool_lanes() const override { return 2; }
  double tail_pct() const override { return 75.0; }

  void setup(std::uint64_t seed) override {
    // One topology keeps the per-job cost unimodal, so the median does
    // not jump between circuit classes from seed to seed. c1 is the
    // suite's smallest circuit (32 macros); the 90-130 macro circuits
    // cost 1-3 s per comparison, too few jobs per run.
    texts_ = suite_verilog({"c1"}, kCircuits, seed);
    options_ = flow_options();
    // One handFP seed (3 sweep slots at 2x effort, not 6): 9 placements
    // and 9 evaluations per circuit, so a run holds 60+ jobs.
    options_.handfp_seeds = 1;
    metrics_.clear();
    job(0);
  }

  JobResult job(std::size_t index) override {
    const std::size_t c = index % texts_.size();
    const auto start = Clock::now();
    const Design design = parse_verilog_string(texts_[c]);
    const FlowComparison cmp = compare_flows(design, options_);
    JobResult r;
    r.ms = seconds_since(start) * 1e3;
    r.ok = sane(cmp) && metrics_.check(c, key_of(cmp));
    return r;
  }

  JobResult traced_job(std::size_t index) override {
    const std::size_t c = index % texts_.size();
    const auto start = Clock::now();
    const Design design = parse(texts_[c]);
    const FlowsOutput out = run_flows(design, options_);
    JobResult r;
    r.ms = seconds_since(start) * 1e3;
    r.ok = sane(out.metrics) && metrics_.check(c, key_of(out.metrics)) &&
           placement_ok(design, out.indeda) && placement_ok(design, out.hidap) &&
           placement_ok(design, out.handfp);
    return r;
  }

  bool finish(std::vector<Metric>& quality) override {
    // The three winning placements behind circuit 0's numbers, rebuilt
    // from the public pieces: their evaluation must reproduce
    // compare_flows exactly, and each must be a legal placement.
    const Design design = parse_verilog_string(texts_[0]);
    const FlowsOutput out = run_flows(design, options_);
    bool ok = metrics_.check(0, key_of(out.metrics)) && placement_ok(design, out.indeda) &&
              placement_ok(design, out.hidap) && placement_ok(design, out.handfp);
    if (!ok) std::printf("check failed: rebuilt flows differ from compare_flows\n");

    // One sampled placement at pool width 1 against the pinned width.
    HiDaPOptions narrow = options_.hidap;
    narrow.num_threads = 1;
    const PlacementContext context(design, narrow.seq);
    std::ostringstream wide_def;
    std::ostringstream narrow_def;
    write_def(design, place_macros(design, context, options_.hidap), wide_def);
    write_def(design, place_macros(design, context, narrow), narrow_def);
    if (wide_def.str() != narrow_def.str()) {
      std::printf("check failed: width-1 DEF differs from width-%d DEF\n", pool_lanes());
      ok = false;
    }

    const double gseq = quick_wirelength(design, context.ht, context.seq, out.indeda) +
                        quick_wirelength(design, context.ht, context.seq, out.hidap) +
                        quick_wirelength(design, context.ht, context.seq, out.handfp);
    quality.push_back({"gseq_wl", gseq, "bit-um"});

    // The paper's Table II columns for HiDaP over the first circuits,
    // which every run evaluates.
    double wl = 0.0, norm = 0.0, wns = 0.0, grc = 0.0;
    int n = 0;
    for (std::size_t c = 0; c < kQualityCircuits; ++c) {
      const std::optional<std::vector<double>> k = metrics_.find(c);
      if (!k) continue;
      wl += (*k)[kHidapWl];
      norm += (*k)[kHidapNorm];
      wns += (*k)[kHidapWns];
      grc += (*k)[kHidapGrc];
      ++n;
    }
    if (n != static_cast<int>(kQualityCircuits)) {
      std::printf("check failed: only %d of %zu circuits evaluated\n", n, kQualityCircuits);
      ok = false;
    }
    n = std::max(n, 1);
    quality.push_back({"hidap_wl_m", wl, "m"});
    quality.push_back({"hidap_wl_norm", norm / n, "ratio"});
    quality.push_back({"hidap_wns_pct", wns / n, "%"});
    quality.push_back({"hidap_grc_pct", grc / n, "%"});
    return ok;
  }

 private:
  // Metric vector layout: indeda, hidap, handfp, six values each.
  static constexpr std::size_t kHidapWl = 6, kHidapNorm = 7, kHidapGrc = 8, kHidapWns = 9;

  static std::vector<double> key_of(const FlowComparison& c) {
    std::vector<double> k;
    for (const Metrics* m : {&c.indeda, &c.hidap, &c.handfp}) {
      k.insert(k.end(), {m->wl_m, m->wl_norm, m->grc_percent, m->wns_percent, m->tns_ns,
                         m->peak_density_near_macros});
    }
    return k;
  }

  static bool sane(const FlowComparison& c) {
    for (const Metrics* m : {&c.indeda, &c.hidap, &c.handfp}) {
      if (!(m->wl_m > 0.0) || !std::isfinite(m->wl_m) || !std::isfinite(m->wns_percent) ||
          !std::isfinite(m->grc_percent)) {
        return false;
      }
    }
    return c.handfp.wl_norm == 1.0;
  }

  std::vector<std::string> texts_;
  FlowOptions options_;
  ReferenceMap<std::size_t, std::vector<double>> metrics_;
};

std::unique_ptr<Workload> make_workload(const std::string& name) {
  if (name == "place_cold") return std::make_unique<PlaceCold>();
  if (name == "serve_repeat") return std::make_unique<ServeRepeat>();
  if (name == "flows_eval") return std::make_unique<FlowsEval>();
  throw std::invalid_argument("unknown workload " + name);
}

// ---------------------------------------------------------------------------
// Closed loop

struct LoopResult {
  std::vector<std::pair<std::size_t, JobResult>> jobs;  ///< completion order
  double wall_s = 0.0;
  std::size_t failed = 0;
};

/// `clients` threads each issue their next job only after the previous
/// one returns, until `seconds` have passed and at least `min_jobs` were
/// issued; with `exact_jobs` set, exactly that many instead.
LoopResult closed_loop(int clients, double seconds, std::size_t min_jobs,
                       std::optional<std::size_t> exact_jobs,
                       const std::function<JobResult(std::size_t)>& job) {
  LoopResult loop;
  std::mutex mutex;
  std::atomic<std::size_t> next{0};
  const auto start = Clock::now();
  const auto deadline = start + std::chrono::duration_cast<Clock::duration>(
                                    std::chrono::duration<double>(seconds));
  const auto client = [&] {
    mark_client_thread();
    for (;;) {
      if (exact_jobs) {
        if (next.load() >= *exact_jobs) break;
      } else if (Clock::now() >= deadline && next.load() >= min_jobs) {
        break;
      }
      const std::size_t index = next.fetch_add(1);
      if (exact_jobs && index >= *exact_jobs) break;
      JobResult r;
      try {
        r = job(index);
      } catch (const std::exception& e) {
        std::printf("job %zu failed: %s\n", index, e.what());
        r.ok = false;
      } catch (...) {
        r.ok = false;
      }
      const std::lock_guard<std::mutex> lock(mutex);
      if (!r.ok) ++loop.failed;
      loop.jobs.emplace_back(index, r);
    }
  };
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) threads.emplace_back(client);
  for (std::thread& t : threads) t.join();
  loop.wall_s = seconds_since(start);
  return loop;
}

/// Latencies with failed jobs as +inf: a failure misses every limit.
std::vector<double> latencies(const LoopResult& loop) {
  std::vector<double> v;
  for (const auto& [index, r] : loop.jobs) {
    v.push_back(r.ok ? r.ms : std::numeric_limits<double>::infinity());
  }
  return v;
}

// ---------------------------------------------------------------------------
// Reporting

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& metrics) {
  std::printf("\n%-32s %20s  %s\n", "metric", "value", "unit");
  for (const Metric& m : metrics) {
    std::printf("%-32s %20.6f  %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", std::isfinite(metrics[i].value) ? metrics[i].value : 0.0);
    json += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " + value +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

double find_quality(const std::vector<Metric>& quality, const std::string& name) {
  for (const Metric& m : quality) {
    if (m.name == name) return m.value;
  }
  return 0.0;
}

struct RegistrySample {
  double moves = 0, accepted = 0, queue_wait_us = 0;
};

RegistrySample sample_registry() {
  obs::MetricsRegistry& registry = obs::default_registry();
  RegistrySample s;
  s.moves = static_cast<double>(registry.counter("sa.moves_proposed").value());
  s.accepted = static_cast<double>(registry.counter("sa.moves_accepted").value());
  s.queue_wait_us = registry
                        .histogram("pool.queue_wait_us",
                                   {10, 100, 1000, 10000, 100000, 1000000})
                        .read()
                        .sum;
  return s;
}

std::vector<Metric> layer_metrics(const Workload& workload, const LoopResult& untraced,
                                  const LoopResult& traced, const RegistrySample& before,
                                  const RegistrySample& after,
                                  const std::vector<Metric>& quality) {
  const std::map<std::string, LayerTotals> layers = LayerTrace::instance().layers();
  const std::map<std::string, double> counts = LayerTrace::instance().counts();
  const double jobs = std::max<double>(1.0, static_cast<double>(traced.jobs.size()));
  const auto self = [&](const char* name) {
    const auto it = layers.find(name);
    return it == layers.end() ? 0.0 : it->second.self_s;
  };
  const auto inclusive = [&](const char* name) {
    const auto it = layers.find(name);
    return it == layers.end() ? 0.0 : it->second.inclusive_s;
  };
  const auto calls = [&](const char* name) {
    const auto it = layers.find(name);
    return it == layers.end() ? 0.0 : static_cast<double>(it->second.calls);
  };
  const auto count = [&](const char* name) {
    const auto it = counts.find(name);
    return it == counts.end() ? 0.0 : it->second;
  };
  const auto ratio = [](double num, double den) { return den > 0.0 ? num / den : 0.0; };

  double busy = 0.0;  // every span's self time except the join wait
  for (const auto& [name, totals] : layers) {
    if (name != "runtime.fork_join") busy += totals.self_s;
  }
  const double context_s = self("context.adjacency") + self("hier.tree") +
                           self("dataflow.seq_extract") + self("context.build");
  const double core_s =
      self("core.curves") + self("core.recursion") + self("core.flip") + self("floorplan.legalize");
  const double eval_s = self("place.place_cells") + self("place.hpwl") + self("place.density") +
                        self("route.congestion") + self("timing.analyze");
  const double sa_s = self("core.curves") + self("core.recursion") + self("baseline.wall_pack");
  const double moves = after.moves - before.moves;

  double cold_ms = 0, warm_ms = 0, cold_n = 0, warm_n = 0, traced_ms = 0, untraced_ms = 0;
  for (const auto& [index, r] : traced.jobs) {
    traced_ms += r.ms;
    if (r.cold) cold_ms += r.ms, ++cold_n;
    if (r.warm) warm_ms += r.ms, ++warm_n;
  }
  for (const auto& [index, r] : untraced.jobs) untraced_ms += r.ms;

  ArtifactCache::Stats cache;
  if (const auto* serve = dynamic_cast<const ServeRepeat*>(&workload)) {
    if (serve->traced_session() != nullptr) cache = serve->traced_session()->cache_stats();
  }
  const auto hit_ratio = [&](std::uint64_t hits, std::uint64_t misses) {
    return ratio(static_cast<double>(hits), static_cast<double>(hits + misses));
  };

  return {
      {"netlist.parse_s", inclusive("netlist.parse") / jobs, "s"},
      {"netlist.parse_mb_per_s", ratio(count("netlist.bytes") / 1e6, self("netlist.parse")), "MB/s"},
      {"netlist.write_def_s", self("netlist.write_def") / jobs, "s"},
      {"netlist.cells", ratio(count("netlist.cells"), calls("netlist.parse")), "count"},
      {"netlist.nets", ratio(count("netlist.nets"), calls("netlist.parse")), "count"},
      {"netlist.macros", ratio(count("netlist.macros"), calls("netlist.parse")), "count"},
      {"netlist.share", ratio(self("netlist.parse") + self("netlist.write_def"), busy), "ratio"},
      {"context.adjacency_s", self("context.adjacency") / jobs, "s"},
      {"hier.tree_s", self("hier.tree") / jobs, "s"},
      {"dataflow.seq_extract_s", self("dataflow.seq_extract") / jobs, "s"},
      {"context.build_s", context_s / jobs, "s"},
      {"dataflow.seq_nodes", ratio(count("dataflow.seq_nodes"), count("context.builds")), "count"},
      {"dataflow.seq_edges", ratio(count("dataflow.seq_edges"), count("context.builds")), "count"},
      {"hier.ht_nodes", ratio(count("hier.ht_nodes"), count("context.builds")), "count"},
      {"context.share", ratio(context_s, busy), "ratio"},
      {"dataflow.gseq_wl", find_quality(quality, "gseq_wl"), "bit-um"},
      {"core.curves_s", self("core.curves") / jobs, "s"},
      {"core.recursion_s", self("core.recursion") / jobs, "s"},
      {"core.levels", ratio(count("core.levels"), calls("core.recursion")), "count"},
      {"core.flip_s", self("core.flip") / jobs, "s"},
      {"floorplan.legalize_s", self("floorplan.legalize") / jobs, "s"},
      {"core.share", ratio(core_s, busy), "ratio"},
      {"floorplan.sa_moves", moves / jobs, "count"},
      {"floorplan.sa_accept_ratio", ratio(after.accepted - before.accepted, moves), "ratio"},
      {"floorplan.sa_ns_per_move", ratio(sa_s * 1e9, moves), "ns"},
      {"place.place_cells_s", self("place.place_cells") / jobs, "s"},
      {"place.clusters", ratio(count("place.clusters"), count("eval.evaluations")), "count"},
      {"place.hpwl_s", self("place.hpwl") / jobs, "s"},
      {"place.density_s", self("place.density") / jobs, "s"},
      {"route.congestion_s", self("route.congestion") / jobs, "s"},
      {"timing.analyze_s", self("timing.analyze") / jobs, "s"},
      {"eval.evaluations", count("eval.evaluations") / jobs, "count"},
      {"eval.share", ratio(eval_s, busy), "ratio"},
      {"baseline.indeda_flow_s", inclusive("baseline.indeda_flow") / jobs, "s"},
      {"baseline.wall_pack_s", self("baseline.wall_pack") / jobs, "s"},
      {"baseline.share", ratio(self("baseline.wall_pack"), busy), "ratio"},
      {"eval.hidap_flow_s", inclusive("eval.hidap_flow") / jobs, "s"},
      {"eval.handfp_flow_s", inclusive("eval.handfp_flow") / jobs, "s"},
      {"eval.hidap_wl_m", find_quality(quality, "hidap_wl_m"), "m"},
      {"eval.hidap_wl_norm", find_quality(quality, "hidap_wl_norm"), "ratio"},
      {"eval.hidap_wns_pct", find_quality(quality, "hidap_wns_pct"), "%"},
      {"eval.hidap_grc_pct", find_quality(quality, "hidap_grc_pct"), "%"},
      {"service.design_hit_ratio", hit_ratio(cache.design_hits, cache.design_misses), "ratio"},
      {"service.context_hit_ratio", hit_ratio(cache.context_hits, cache.context_misses), "ratio"},
      {"service.curves_hit_ratio", hit_ratio(cache.curve_hits, cache.curve_misses), "ratio"},
      {"service.plan_hit_ratio", hit_ratio(cache.plan_hits, cache.plan_misses), "ratio"},
      {"service.cold_job_ms", ratio(cold_ms, cold_n), "ms"},
      {"service.warm_job_ms", ratio(warm_ms, warm_n), "ms"},
      {"service.single_flight_waits",
       static_cast<double>(cache.design_waits + cache.context_waits), "count"},
      {"service.lookup_s", self("service.lookup") / jobs, "s"},
      {"service.share", ratio(self("service.lookup"), busy), "ratio"},
      {"floorplan.illegal_placements", static_cast<double>(g_illegal_placements.load()),
       "count"},
      {"runtime.pool_lanes", static_cast<double>(workload.pool_lanes()), "count"},
      {"runtime.queue_wait_s", (after.queue_wait_us - before.queue_wait_us) / 1e6 / jobs, "s"},
      {"runtime.fork_join_s", inclusive("runtime.fork_join") / jobs, "s"},
      {"trace.coverage", ratio(LayerTrace::instance().client_covered_s(), traced_ms / 1e3), "ratio"},
      {"trace.overhead_frac", ratio(traced_ms, untraced_ms) - 1.0, "ratio"},
      {"trace.jobs", static_cast<double>(traced.jobs.size()), "count"},
  };
}

int run(const Args& args) {
  std::unique_ptr<Workload> workload = make_workload(args.workload);
  ThreadPool::set_default_thread_count(workload->pool_lanes());
  ThreadPool::global();

  std::printf("perfbench %s seed=%llu seconds=%g trace=%d\n", args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds, args.trace ? 1 : 0);
  std::printf("  %s\n  clients=%d pool_lanes=%d tail=p%g min_jobs=%zu\n",
              workload->description(), workload->clients(), workload->pool_lanes(),
              workload->tail_pct(), workload->min_jobs());

  constexpr int kSetupRepeats = 5;
  std::vector<double> setup_times;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    const auto start = Clock::now();
    workload->setup(args.seed);
    setup_times.push_back(seconds_since(start));
  }
  const double setup_s = median(setup_times);
  std::printf("  setup: %.3f s median of %d\n", setup_s, kSetupRepeats);

  const auto job = [&](std::size_t i) { return workload->job(i); };
  if (!args.trace) {
    const LoopResult loop =
        closed_loop(workload->clients(), args.seconds, workload->min_jobs(), std::nullopt, job);
    const double rss = peak_rss_mb();
    std::vector<Metric> quality;
    const bool finished = workload->finish(quality);
    const std::vector<double> lat = latencies(loop);
    const double completed = static_cast<double>(loop.jobs.size() - loop.failed);
    std::printf("  %zu jobs in %.3f s\n", loop.jobs.size(), loop.wall_s);
    std::printf("  illegal placements (known defect, not failed): %zu\n",
                g_illegal_placements.load());
    for (const Metric& m : quality) {
      std::printf("  quality %s = %.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
    std::vector<Metric> metrics = {
        {"setup_s", setup_s, "s"},
        {"jobs_per_s", completed / loop.wall_s, "1/s"},
        {"job_p50_ms", percentile(lat, 50.0), "ms"},
        {"job_tail_ms", percentile(lat, workload->tail_pct()), "ms"},
        {"peak_rss_mb", rss, "MB"},
        {"ok_frac", completed / static_cast<double>(std::max<std::size_t>(1, loop.jobs.size())),
         "ratio"},
    };
    const bool correct = finished && loop.failed == 0;
    print_result(correct, loop.jobs.size(), loop.failed, metrics);
    return correct ? 0 : 1;
  }

  // Traced: the same job indices through the library entry points, then
  // through the spanned rebuild, each output checked against the first.
  // Each pass gets half the time; no tail is reported, so a quarter of
  // the minimum job count is enough for a layer table.
  const LoopResult untraced = closed_loop(workload->clients(), args.seconds / 2,
                                          workload->min_jobs() / 4, std::nullopt, job);
  workload->begin_traced_pass();
  LayerTrace::instance().reset();
  const RegistrySample before = sample_registry();
  LayerTrace::instance().set_enabled(true);
  obs::set_tracing_enabled(true);
  const LoopResult traced =
      closed_loop(workload->clients(), 0.0, 0, untraced.jobs.size(),
                  [&](std::size_t i) { return workload->traced_job(i); });
  obs::set_tracing_enabled(false);
  LayerTrace::instance().set_enabled(false);
  const RegistrySample after = sample_registry();
  std::vector<Metric> quality;
  const bool finished = workload->finish(quality);
  const std::vector<Metric> metrics =
      layer_metrics(*workload, untraced, traced, before, after, quality);
  const bool correct = finished && untraced.failed == 0 && traced.failed == 0;
  if (traced.failed > 0) std::printf("check failed: traced outputs differ from untraced\n");
  print_result(correct, untraced.jobs.size() + traced.jobs.size(),
               untraced.failed + traced.failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  set_log_level(LogLevel::Warn);
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}

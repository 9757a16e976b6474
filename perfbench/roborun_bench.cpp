// roborun_bench — the repository benchmark.
//
//   roborun_bench --workload NAME --seed N --seconds S --trace 0|1
//                 [--report FILE] [--missions N]
//
// Runs one named workload, built from --seed, as a closed loop of
// kWorkers workers (each takes the next mission when its previous one
// finishes), repeating the workload's whole mission set while another pass
// still fits in --seconds. It prints a table of every metric with its
// unit and whether it is host time (what the simulator costs) or sim (what
// the modelled drone does, deterministic per seed), then, as the last
// line, one JSON object: {"correct", "attempted", "failed", "metrics"}.
// With --trace 0 the metrics are the end-to-end set, with --trace 1 the
// per-layer set from a span-traced run. --report also writes every metric,
// the result digest and the input fingerprint as one JSON document;
// --missions keeps only the first N missions of the set (the self-test's
// tiny instances).
//
// The library is driven only through public calls; see NOTES.md for why
// each workload exists and which layer metric should move which
// end-to-end metric.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/decision_engine.h"
#include "env/env_gen.h"
#include "env/suite.h"
#include "obs/span_recorder.h"
#include "runtime/designs.h"
#include "runtime/mission.h"
#include "scenario/catalog.h"
#include "scenario/fleet_scheduler.h"
#include "sim/latency_model.h"

namespace {

using namespace roborun;
using Clock = std::chrono::steady_clock;

// Two workers: at four, the fleet's wall and the oblivious grid's epoch tail
// swing by tens of percent run to run on a 4-core host.
constexpr unsigned kWorkers = 2;
// Set-up takes ~12 ms, mostly world generation, which runs at one of two
// speeds ~40% apart that the host switches between every few hundred ms; the
// median of a few repeats flips between the two. Set-up is therefore
// reported as the fastest of this many repeats (~1 s in all) before
// measuring and a few more after each pass.
constexpr int kSetupRepeats = 64;
constexpr int kSetupsPerPass = 8;

double msSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

double quantile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double pos = q * static_cast<double>(xs.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  return xs[lo] + (pos - static_cast<double>(lo)) * (xs[hi] - xs[lo]);
}

double median(std::vector<double> xs) { return quantile(std::move(xs), 0.5); }

double safeDiv(double a, double b) { return b == 0.0 ? 0.0 : a / b; }

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

enum class Kind { FleetCatalog, GridOblivious, GridRoborun };

struct WorkloadInfo {
  const char* name;
  Kind kind;
};

constexpr WorkloadInfo kWorkloads[] = {
    {"fleet_catalog", Kind::FleetCatalog},
    {"grid_oblivious", Kind::GridOblivious},
    {"grid_roborun", Kind::GridRoborun},
};

// builtinCatalog dials: one instance of each of the six families.
constexpr double kFleetScale = 1.0;
constexpr std::size_t kFleetMissionsPerFamily = 6;
// Sim-time cap of a fleet mission. Missions that progress finish within
// ~250 s; a replan storm runs to the cap at ~10 ms of host time per failed
// plan, so the smoke config's 2000 s cap makes one storm cost 15-35 s and
// one pass up to 90 s.
constexpr double kFleetMaxMissionTime = 400.0;

// Sim-time cap of a grid mission, the same for both designs so the pair
// stays a like-for-like comparison. The slowest oblivious mission takes
// ~1200 s and the slowest RoboRun one that arrives ~430 s; a RoboRun mission
// that gets stuck costs 10-30 s of host time at the default 9000 s cap.
constexpr double kGridMaxMissionTime = 3000.0;

// The small suite grid: Fig. 8a's density x spread x goal structure with
// short missions (the densities keep the paper's values).
env::SuiteKnobs smallGridKnobs() {
  env::SuiteKnobs knobs;
  knobs.spreads = {25.0, 40.0, 55.0};
  knobs.goal_distances = {250.0, 375.0, 500.0};
  return knobs;
}

runtime::MissionConfig baseConfig(Kind kind) {
  runtime::MissionConfig config = kind == Kind::FleetCatalog
                                      ? runtime::smokeMissionConfig()
                                      : runtime::defaultMissionConfig();
  config.pipeline.execution = runtime::ExecutionMode::Sync;
  config.max_mission_time =
      kind == Kind::FleetCatalog ? kFleetMaxMissionTime : kGridMaxMissionTime;
  if (kind == Kind::GridRoborun)
    config.pipeline.planner_mode = runtime::PlannerMode::AStarIncremental;
  return config;
}

core::DecisionEngine::Config engineConfig(const runtime::MissionConfig& config,
                                          obs::SpanRecorder* spans) {
  // The fields runMission sets when it builds its private engine.
  core::DecisionEngine::Config engine_config;
  engine_config.knobs = config.knobs;
  engine_config.budgeter = config.budgeter;
  engine_config.profiler = config.profiler;
  engine_config.spans = spans;
  return engine_config;
}

// ---------------------------------------------------------------------------
// Epoch wall: the interval between consecutive decision_observer calls of
// one mission (sweep in to command out, flight substeps included), kept per
// mission. Epoch 0 opens a mission's series on the calling thread.
// ---------------------------------------------------------------------------

struct EpochSink {
  std::mutex mu;
  std::vector<std::unique_ptr<std::vector<double>>> missions;  // guarded by mu
};

EpochSink g_epochs;
thread_local std::vector<double>* t_mission_epochs = nullptr;
thread_local Clock::time_point t_last_epoch;

void observeEpoch(std::size_t epoch, std::size_t /*staleness*/) {
  const Clock::time_point now = Clock::now();
  if (epoch == 0) {
    std::lock_guard<std::mutex> lock(g_epochs.mu);
    g_epochs.missions.push_back(std::make_unique<std::vector<double>>());
    t_mission_epochs = g_epochs.missions.back().get();
  } else {
    t_mission_epochs->push_back(
        std::chrono::duration<double, std::micro>(now - t_last_epoch).count());
  }
  t_last_epoch = now;
}

/// Every mission's epoch series recorded since the last call.
std::vector<std::unique_ptr<std::vector<double>>> takeEpochs() {
  std::lock_guard<std::mutex> lock(g_epochs.mu);
  return std::exchange(g_epochs.missions, {});
}

// ---------------------------------------------------------------------------
// Set-up: inputs from the seed, worlds, catalog expansion, calibration.
// ---------------------------------------------------------------------------

struct Inputs {
  Kind kind = Kind::GridOblivious;
  runtime::DesignType design = runtime::DesignType::RoboRun;
  runtime::MissionConfig base;
  std::vector<std::string> labels;              // one per mission
  std::vector<runtime::MissionConfig> configs;  // grids: one per mission
  std::vector<env::Environment> worlds;         // grids: one per mission
  std::unique_ptr<scenario::FleetScheduler> fleet;         // untraced
  std::unique_ptr<scenario::FleetScheduler> fleet_traced;  // --trace 1
  std::string fingerprint;  // exact description of every input
};

struct SetupTiming {
  double total_ms = 0.0;
  double expand_ms = 0.0;
  double generate_ms = 0.0;
  double calibrate_ms = 0.0;
};

std::string describeSpec(const env::EnvSpec& spec) {
  std::ostringstream os;
  os.precision(17);
  os << spec.label() << ' ' << spec.obstacle_density << ' ' << spec.obstacle_spread << ' '
     << spec.goal_distance << ' ' << spec.seed << '\n';
  return os.str();
}

Inputs setUp(Kind kind, std::uint64_t seed, std::size_t max_missions,
             obs::SpanRecorder* trace_spans, SetupTiming& timing) {
  const Clock::time_point t0 = Clock::now();
  Inputs in;
  in.kind = kind;
  in.base = baseConfig(kind);
  in.base.decision_observer = observeEpoch;
  in.design = kind == Kind::GridOblivious ? runtime::DesignType::SpatialOblivious
                                          : runtime::DesignType::RoboRun;

  std::vector<env::EnvSpec> specs;
  Clock::time_point t = Clock::now();
  if (kind == Kind::FleetCatalog) {
    std::vector<scenario::ScenarioSpec> catalog =
        scenario::builtinCatalog(seed, kFleetScale, kFleetMissionsPerFamily);
    if (max_missions > 0)
      catalog.resize(std::min(catalog.size(),
                              (max_missions + kFleetMissionsPerFamily - 1) /
                                  kFleetMissionsPerFamily));
    scenario::FleetConfig fleet_config;
    fleet_config.threads = kWorkers;
    fleet_config.mode = scenario::DispatchMode::Async;
    in.fleet = std::make_unique<scenario::FleetScheduler>(in.base, fleet_config);
    in.fleet->admitAll(catalog);
    if (trace_spans) {
      fleet_config.spans = trace_spans;
      in.fleet_traced = std::make_unique<scenario::FleetScheduler>(in.base, fleet_config);
      in.fleet_traced->admitAll(catalog);
    }
    in.fingerprint = scenario::describeCases(in.fleet->cases());
    for (const scenario::MissionCase& c : in.fleet->cases()) {
      specs.push_back(c.env);
      in.labels.push_back(c.scenario + "/" + c.label);
    }
  } else {
    specs = env::evaluationSuite(seed, smallGridKnobs());
    if (max_missions > 0 && specs.size() > max_missions) specs.resize(max_missions);
    for (const env::EnvSpec& spec : specs) {
      runtime::MissionConfig config = in.base;
      config.seed = spec.seed;
      in.configs.push_back(config);
      in.labels.push_back(spec.label());
      in.fingerprint += describeSpec(spec);
    }
  }
  timing.expand_ms = msSince(t);

  // Fleet worlds are generated again inside FleetScheduler::run; generating
  // them here as well keeps env.generate_ms comparable across workloads.
  t = Clock::now();
  for (const env::EnvSpec& spec : specs) {
    env::Environment world = env::generateEnvironment(spec);
    if (kind != Kind::FleetCatalog) in.worlds.push_back(std::move(world));
  }
  timing.generate_ms = msSince(t);

  t = Clock::now();
  const auto engine = core::DecisionEngine::calibrated(
      sim::LatencyModel(in.base.pipeline.latency), engineConfig(in.base, nullptr));
  timing.calibrate_ms = msSince(t);
  (void)engine;

  timing.total_ms = msSince(t0);
  return in;
}

// ---------------------------------------------------------------------------
// One pass over the workload's mission set.
// ---------------------------------------------------------------------------

struct Pass {
  std::vector<runtime::MissionResult> results;  // by mission index; dropped once checked
  std::vector<double> wall_ms;                  // by mission index
  double wall_s = 0.0;
  core::EngineStats engine;  // summed over the pass's engines
  // Each mission's epoch-wall p50 / p90, in the order the missions started.
  std::vector<double> epoch_p50, epoch_p90;
  std::size_t epochs = 0;
};

void addStats(core::EngineStats& sum, const core::EngineStats& s) {
  sum.decisions += s.decisions;
  sum.solver_memo_hits += s.solver_memo_hits;
  sum.solver_memo_misses += s.solver_memo_misses;
  sum.profile_builds += s.profile_builds;
  sum.profile_reuses += s.profile_reuses;
}

Pass runPass(const Inputs& in, obs::SpanRecorder* spans) {
  Pass pass;
  const Clock::time_point t0 = Clock::now();
  if (in.kind == Kind::FleetCatalog) {
    scenario::FleetResult fleet = (spans ? in.fleet_traced : in.fleet)->run();
    for (scenario::FleetRow& row : fleet.rows) {
      pass.results.push_back(std::move(row.result));
      pass.wall_ms.push_back(row.wall_ms);
    }
    pass.engine = fleet.engine;
  } else {
    const std::size_t n = in.worlds.size();
    pass.results.resize(n);
    pass.wall_ms.resize(n);
    std::vector<core::EngineStats> stats(n);
    std::atomic<std::size_t> next{0};
    auto worker = [&]() {
      for (;;) {
        const std::size_t i = next.fetch_add(1);
        if (i >= n) return;
        const Clock::time_point started = Clock::now();
        runtime::MissionConfig config = in.configs[i];
        config.pipeline.spans = spans;
        // A private, cold engine per mission — built exactly as runMission
        // builds its own, but owned here so its counters can be read.
        auto engine = core::DecisionEngine::calibrated(
            sim::LatencyModel(config.pipeline.latency), engineConfig(config, spans));
        config.shared_engine = engine;
        try {
          pass.results[i] = runtime::runMission(in.worlds[i], in.design, config);
        } catch (const std::exception&) {
          // Counted as a failed operation by the output check, as the fleet
          // does with a mission that throws.
          pass.results[i] = runtime::MissionResult{};
          pass.results[i].status = runtime::MissionStatus::Crashed;
        }
        pass.wall_ms[i] = msSince(started);
        stats[i] = engine->stats();
      }
    };
    std::vector<std::thread> pool;
    for (unsigned w = 1; w < kWorkers; ++w) pool.emplace_back(worker);
    worker();
    for (std::thread& th : pool) th.join();
    for (const core::EngineStats& s : stats) addStats(pass.engine, s);
  }
  pass.wall_s = msSince(t0) / 1000.0;
  for (const auto& series : takeEpochs()) {
    pass.epochs += series->size();
    pass.epoch_p50.push_back(quantile(*series, 0.5));
    pass.epoch_p90.push_back(quantile(*series, 0.9));
  }
  return pass;
}

// ---------------------------------------------------------------------------
// Output check: digest + per-mission invariants.
// ---------------------------------------------------------------------------

struct Digest {
  std::uint64_t h = 1469598103934665603ULL;  // FNV-1a 64
  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 1099511628211ULL;
    }
  }
  void f64(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    bytes(&bits, sizeof(bits));
  }
  void u64(std::uint64_t v) { bytes(&v, sizeof(v)); }
};

// Every field runtime::missionResultsIdentical compares, in its order; the
// wall-clock fields are excluded.
void digestResult(Digest& d, const runtime::MissionResult& r) {
  d.u64(static_cast<std::uint64_t>(r.status));
  d.u64(r.fault_blackouts);
  d.u64(r.fault_spikes);
  for (const double v : {r.mission_time, r.flight_energy, r.compute_energy, r.battery_soc,
                         r.distance_traveled})
    d.f64(v);
  d.u64(r.records.size());
  for (const runtime::DecisionRecord& rec : r.records) {
    for (const double v : {rec.t, rec.position.x, rec.position.y, rec.position.z})
      d.f64(v);
    d.u64(static_cast<std::uint64_t>(rec.zone));
    for (const double v : {rec.velocity, rec.commanded_velocity, rec.visibility,
                           rec.known_free_horizon, rec.deadline})
      d.f64(v);
    const runtime::StageLatencies& l = rec.latencies;
    for (const double v : {l.runtime, l.point_cloud, l.octomap, l.bridge, l.planning,
                           l.smoothing, l.comm_point_cloud, l.comm_map, l.comm_trajectory})
      d.f64(v);
    for (const core::StagePolicy& s : rec.policy.stages) {
      d.f64(s.precision);
      d.f64(s.volume);
    }
    d.f64(rec.policy.deadline);
    d.f64(rec.policy.predicted_latency);
    d.u64((rec.replanned ? 1u : 0u) | (rec.plan_failed ? 2u : 0u) |
          (rec.budget_met ? 4u : 0u));
    d.f64(rec.cpu_utilization);
  }
}

/// Empty when the mission holds every invariant, else what it broke.
std::string checkInvariants(const runtime::MissionResult& r) {
  const int code = static_cast<int>(r.status);
  if (code < static_cast<int>(runtime::MissionStatus::ReachedGoal) ||
      code > static_cast<int>(runtime::MissionStatus::Crashed))
    return "undefined terminal status";
  if (runtime::missionStatusIsInfrastructureFailure(r.status))
    return std::string("mission ended ") + runtime::missionStatusName(r.status);
  for (const double v : {r.mission_time, r.flight_energy, r.compute_energy,
                         r.distance_traveled, r.battery_soc})
    if (!std::isfinite(v) || v < 0.0) return "non-finite or negative time/energy";
  double prev = 0.0;
  for (const runtime::DecisionRecord& rec : r.records) {
    if (!std::isfinite(rec.t) || rec.t < prev) return "record clock goes backwards";
    if (!std::isfinite(rec.latencies.total())) return "non-finite modelled latency";
    prev = rec.t;
  }
  return {};
}

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  const char* kind = "host";  // "host" or "sim"
};

bool stalled(const runtime::MissionResult& r) {
  if (r.status != runtime::MissionStatus::TimedOut) return false;
  std::size_t replans = 0, failed = 0;
  for (const runtime::DecisionRecord& rec : r.records) {
    replans += rec.replanned ? 1 : 0;
    failed += rec.plan_failed ? 1 : 0;
  }
  return 2 * failed > replans;
}

/// The deterministic (sim) end-to-end metrics of one pass. The gated ones
/// are medians over missions: a mission that stalls until the sim-time cap
/// would otherwise decide a mean. The means are printed for the paper
/// comparison, which reports means.
std::vector<Metric> simMetrics(const std::vector<runtime::MissionResult>& results) {
  double reached = 0, collided = 0;
  std::vector<double> time, energy, cpu, latency;
  for (const runtime::MissionResult& r : results) {
    reached += r.reached_goal() ? 1 : 0;
    collided += r.collided() ? 1 : 0;
    time.push_back(r.mission_time);
    energy.push_back((r.flight_energy + r.compute_energy) / 1000.0);
    cpu.push_back(r.averageCpuUtilization());
    latency.push_back(r.medianLatency() * 1000.0);
  }
  auto mean = [](const std::vector<double>& xs) {
    double sum = 0.0;
    for (const double x : xs) sum += x;
    return sum / static_cast<double>(xs.size());
  };
  const double n = static_cast<double>(results.size());
  return {
      {"goal_rate", reached / n, "ratio", "sim"},
      {"collision_rate", collided / n, "ratio", "sim"},
      {"mission_time_s", median(time), "s", "sim"},
      {"energy_kj", median(energy), "kJ", "sim"},
      {"cpu_util", median(cpu), "ratio", "sim"},
      {"decision_latency_ms", median(latency), "ms", "sim"},
      {"mission_time_mean_s", mean(time), "s", "sim"},
      {"energy_mean_kj", mean(energy), "kJ", "sim"},
      {"cpu_util_mean", mean(cpu), "ratio", "sim"},
  };
}

struct SpanTotals {
  std::map<std::string, double> ms;               // stage (or stage.detail) -> sum
  std::map<std::string, std::vector<double>> us;  // per-span durations
};

SpanTotals sumSpans(const std::vector<obs::SpanRecord>& spans) {
  SpanTotals t;
  for (const obs::SpanRecord& s : spans) {
    std::string key = obs::stageName(s.stage);
    if (s.stage == obs::Stage::Govern && !s.detail.empty()) key += "." + s.detail;
    const double dur_ns = static_cast<double>(s.end_ns - s.start_ns);
    t.ms[key] += dur_ns / 1e6;
    t.us[key].push_back(dur_ns / 1e3);
  }
  return t;
}

double peakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

std::string hex(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::string metricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + fmt(metrics[i].value) +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  return out + "}";
}

// The gated end-to-end metrics (BENCHMARK.json's "end_to_end"); the others
// are printed in the table only, because they vary too much from seed to
// seed for a relative bound: missions_per_s several-fold with the number of
// stalled missions; mission_wall_p50_ms with the lengths of the seed's
// worlds; goal_rate, a share of 36 fleet missions whose outcomes are
// correlated within a family; collision_rate is often exactly 0.
const char* const kGatedEndToEnd[] = {
    "epoch_wall_p50_us", "epoch_wall_p90_us", "setup_s",  "peak_rss_mb",
    "mission_time_s",    "energy_kj",         "cpu_util", "decision_latency_ms",
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string report_path;
  std::size_t max_missions = 0;  // 0 = the whole set
};

bool parseArgs(int argc, char** argv, Options& o) {
  bool have_workload = false, have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return false;
    const std::string v = argv[++i];
    try {
      std::size_t used = 0;
      if (arg == "--workload") {
        o.workload = v;
        have_workload = true;
      } else if (arg == "--seed") {
        o.seed = std::stoull(v, &used);
        have_seed = used == v.size();
      } else if (arg == "--seconds") {
        o.seconds = std::stod(v, &used);
        have_seconds = used == v.size() && o.seconds >= 0.0 && o.seconds <= 3600.0;
      } else if (arg == "--trace") {
        if (v != "0" && v != "1") return false;
        o.trace = v == "1";
        have_trace = true;
      } else if (arg == "--report") {
        o.report_path = v;
      } else if (arg == "--missions") {
        o.max_missions = std::stoull(v, &used);
        if (used != v.size() || o.max_missions == 0) return false;
      } else {
        return false;
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  return have_workload && have_seed && have_seconds && have_trace;
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  if (!parseArgs(argc, argv, opts)) {
    std::cerr << "usage: roborun_bench --workload fleet_catalog|grid_oblivious|grid_roborun"
                 " --seed N --seconds S --trace 0|1 [--report FILE] [--missions N]\n";
    return 2;
  }
  const WorkloadInfo* info = nullptr;
  for (const WorkloadInfo& w : kWorkloads)
    if (opts.workload == w.name) info = &w;
  if (!info) {
    std::cerr << "roborun_bench: unknown workload '" << opts.workload << "'\n";
    return 2;
  }

  // --- set-up, several times; the last one's inputs are run ---
  obs::SpanRecorder recorder;
  obs::SpanRecorder* const trace_spans = opts.trace ? &recorder : nullptr;
  std::vector<SetupTiming> setups(kSetupRepeats);
  Inputs in;
  for (SetupTiming& s : setups) {
    in = Inputs{};  // free the previous inputs before building the next
    in = setUp(info->kind, opts.seed, opts.max_missions, trace_spans, s);
  }
  // More set-ups after each pass, whose inputs are dropped: the host can stay
  // slow for seconds, so the fastest is taken over the whole run.
  auto setUpAgain = [&] {
    for (int i = 0; i < kSetupsPerPass; ++i) {
      setups.emplace_back();
      setUp(info->kind, opts.seed, opts.max_missions, trace_spans, setups.back());
    }
  };
  auto setupBest = [&](double SetupTiming::*field) {
    double best = setups.front().*field;
    for (const SetupTiming& s : setups) best = std::min(best, s.*field);
    return best;
  };

  // --- measure: whole passes while the next one, as long as the longest so
  // far, still ends inside the window (always at least one), so a run never
  // overshoots its window by most of a pass. A traced run spends the first
  // half untraced, to measure the overhead.
  //
  // Output check: each pass is checked as soon as it ends, against the first
  // pass, and then keeps only its host measurements, so that peak RSS does not
  // grow with the number of passes the host was fast enough to run.
  std::vector<runtime::MissionResult> reference;
  std::size_t attempted = 0, failed = 0;
  std::vector<std::string> problems;
  auto check = [&](Pass& pass) {
    const bool first = reference.empty();
    for (std::size_t i = 0; i < pass.results.size(); ++i) {
      ++attempted;
      std::string why = checkInvariants(pass.results[i]);
      if (why.empty() && !first && !runtime::missionResultsIdentical(pass.results[i], reference[i]))
        why = "result differs from the first pass";
      if (!why.empty()) {
        ++failed;
        if (problems.size() < 10) problems.push_back(in.labels[i] + ": " + why);
      }
    }
    if (first) reference = std::move(pass.results);
    pass.results = {};
  };
  std::vector<Pass> passes;
  std::vector<Pass> traced;
  const Clock::time_point start = Clock::now();
  const double untraced_s = opts.trace ? opts.seconds / 2.0 : opts.seconds;
  double longest_s = 0.0;
  auto measure = [&](std::vector<Pass>& into, obs::SpanRecorder* spans, double until_s) {
    do {
      const Clock::time_point t = Clock::now();
      into.push_back(runPass(in, spans));
      longest_s = std::max(longest_s, msSince(t) / 1000.0);
      check(into.back());
      setUpAgain();
    } while (msSince(start) / 1000.0 + longest_s <= until_s);
  };
  measure(passes, nullptr, untraced_s);
  if (opts.trace) measure(traced, trace_spans, opts.seconds);

  Digest digest;
  for (const runtime::MissionResult& r : reference) digestResult(digest, r);
  Digest inputs;
  inputs.bytes(in.fingerprint.data(), in.fingerprint.size());

  // --- end-to-end metrics: each host metric per untraced pass, then the
  // median over passes. The epoch walls instead take the median over every
  // mission of every pass: with only a few passes in a run, a median of
  // per-pass medians follows whichever pass the host slowed most. ---
  std::vector<double> mps, wall_p50, epoch_p50, epoch_p90, idle, stalled_wall_share;
  std::vector<double> all_epoch_p50, all_epoch_p90;
  std::size_t epoch_count = 0;
  for (const Pass& p : passes) {
    mps.push_back(static_cast<double>(p.wall_ms.size()) / p.wall_s);
    wall_p50.push_back(median(p.wall_ms));
    epoch_p50.push_back(median(p.epoch_p50));
    epoch_p90.push_back(median(p.epoch_p90));
    all_epoch_p50.insert(all_epoch_p50.end(), p.epoch_p50.begin(), p.epoch_p50.end());
    all_epoch_p90.insert(all_epoch_p90.end(), p.epoch_p90.begin(), p.epoch_p90.end());
    epoch_count += p.epochs;
    double busy = 0.0, stalled_ms = 0.0;
    for (std::size_t i = 0; i < p.wall_ms.size(); ++i) {
      busy += p.wall_ms[i];
      if (stalled(reference[i])) stalled_ms += p.wall_ms[i];
    }
    idle.push_back(1.0 - busy / (kWorkers * p.wall_s * 1000.0));
    stalled_wall_share.push_back(safeDiv(stalled_ms, busy));
  }
  std::vector<Metric> end_to_end = {
      {"missions_per_s", median(mps), "1/s"},
      {"mission_wall_p50_ms", median(wall_p50), "ms"},
      {"epoch_wall_p50_us", median(all_epoch_p50), "us"},
      {"epoch_wall_p90_us", median(all_epoch_p90), "us"},
      {"setup_s", setupBest(&SetupTiming::total_ms) / 1000.0, "s"},
      {"peak_rss_mb", peakRssMb(), "MB"},
  };
  for (Metric& m : simMetrics(reference)) end_to_end.push_back(m);
  std::size_t stalled_missions = 0;
  for (const runtime::MissionResult& r : reference) stalled_missions += stalled(r) ? 1 : 0;

  // --- per-layer metrics (traced passes) ---
  std::vector<Metric> per_layer;
  if (opts.trace) {
    const SpanTotals spans = sumSpans(recorder.spans());
    const double n = static_cast<double>(traced.size());
    auto ms = [&](const std::string& key) {
      const auto it = spans.ms.find(key);
      return it == spans.ms.end() ? 0.0 : it->second / n;
    };
    auto us = [&](const std::string& key, double q) {
      const auto it = spans.us.find(key);
      return it == spans.us.end() ? 0.0 : quantile(it->second, q);
    };
    double traced_wall = 0.0, traced_mps = 0.0;
    std::vector<double> traced_rates;
    for (const Pass& p : traced) {
      for (const double w : p.wall_ms) traced_wall += w;
      traced_rates.push_back(static_cast<double>(p.wall_ms.size()) / p.wall_s);
    }
    traced_mps = median(traced_rates);
    traced_wall /= n;
    // Self time: a span minus the child spans nested in it. The engine's
    // profile/budget/solve spans nest in the mission loop's govern span,
    // smooth in plan, and every stage in the bench-timed mission.
    const double govern_total = ms("govern");
    const double govern_children = ms("govern.profile") + ms("govern.budget") +
                                   ms("govern.solve");
    const double stage_total = ms("capture") + ms("integrate") + ms("publish") +
                               govern_total + ms("plan") + ms("fly");
    std::size_t replans = 0, failed_plans = 0, decisions = 0, budget_met = 0;
    double m_perc = 0, m_bridge = 0, m_plan = 0, m_runtime = 0, m_comm = 0;
    for (const runtime::MissionResult& r : reference) {
      for (const runtime::DecisionRecord& rec : r.records) {
        ++decisions;
        replans += rec.replanned ? 1 : 0;
        failed_plans += rec.plan_failed ? 1 : 0;
        budget_met += rec.budget_met ? 1 : 0;
        const runtime::StageLatencies& l = rec.latencies;
        m_perc += l.point_cloud + l.octomap;
        m_bridge += l.bridge;
        m_plan += l.planning + l.smoothing;
        m_runtime += l.runtime;
        m_comm += l.comm();
      }
    }
    core::EngineStats engine;
    for (const Pass& p : traced) addStats(engine, p.engine);
    per_layer = {
        {"planning.plan_ms", ms("plan") - ms("smooth"), "ms"},
        {"planning.plan_p99_us", us("plan", 0.99), "us"},
        {"planning.smooth_ms", ms("smooth"), "ms"},
        {"planning.replans", static_cast<double>(replans), "count", "sim"},
        {"planning.failed_plan_share", safeDiv(failed_plans, replans), "ratio", "sim"},
        {"perception.integrate_ms", ms("integrate"), "ms"},
        {"perception.integrate_p50_us", us("integrate", 0.5), "us"},
        {"perception.integrate_p99_us", us("integrate", 0.99), "us"},
        {"sim.capture_ms", ms("capture"), "ms"},
        {"sim.fly_ms", ms("fly"), "ms"},
        {"miniros.publish_ms", ms("publish"), "ms"},
        // The engine's sub-stages as shares of the govern span: the
        // oblivious design runs no budget or solve, and its profiling takes
        // a path without a span, so their times would read exactly 0 there.
        {"core.govern_ms", govern_total, "ms"},
        {"core.govern_self_ms", govern_total - govern_children, "ms"},
        {"core.profile_share", safeDiv(ms("govern.profile"), govern_total), "ratio"},
        {"core.budget_share", safeDiv(ms("govern.budget"), govern_total), "ratio"},
        {"core.solve_share", safeDiv(ms("govern.solve"), govern_total), "ratio"},
        {"core.calibrate_ms", setupBest(&SetupTiming::calibrate_ms), "ms"},
        {"core.memo_hit_rate", engine.solverMemoHitRate(), "ratio"},
        {"core.profile_builds", static_cast<double>(engine.profile_builds) / n, "count"},
        {"core.budget_met_share", safeDiv(budget_met, decisions), "ratio", "sim"},
        {"runtime.mission_self_ms", traced_wall - stage_total, "ms"},
        {"runtime.decisions", static_cast<double>(decisions), "count", "sim"},
        {"runtime.stalled_share",
         safeDiv(stalled_missions, reference.size()), "ratio", "sim"},
        {"runtime.stalled_wall_share", median(stalled_wall_share), "ratio"},
        {"scenario.expand_ms", setupBest(&SetupTiming::expand_ms), "ms"},
        {"scenario.lane_idle_share", median(idle), "ratio"},
        {"env.generate_ms", setupBest(&SetupTiming::generate_ms), "ms"},
        {"model.perception_s", m_perc, "s", "sim"},
        {"model.bridge_s", m_bridge, "s", "sim"},
        {"model.planning_s", m_plan, "s", "sim"},
        {"model.runtime_s", m_runtime, "s", "sim"},
        {"model.comm_s", m_comm, "s", "sim"},
        {"trace.overhead", safeDiv(median(mps), traced_mps), "ratio"},
    };
  }

  // --- report ---
  std::cout << "workload " << info->name << "  seed " << opts.seed << "  workers " << kWorkers
            << "  missions/pass " << reference.size() << "  passes " << passes.size()
            << (opts.trace ? "+" + std::to_string(traced.size()) + " traced" : std::string())
            << "  epochs " << epoch_count << "\n";
  std::cout << "inputs " << hex(inputs.h) << "  digest " << hex(digest.h) << "  failed "
            << failed << "/" << attempted << "\n";
  for (const std::string& p : problems) std::cout << "  FAILED " << p << "\n";
  std::cout << "stalled (timed out after mostly failed plans) " << stalled_missions << "/"
            << reference.size() << " missions, " << fmt(median(stalled_wall_share))
            << " of mission wall\n";
  auto table = [](const char* title, const std::vector<Metric>& ms) {
    std::cout << title << "\n";
    for (const Metric& m : ms) {
      char line[160];
      std::snprintf(line, sizeof(line), "  %-30s %16.6g %-6s %s\n", m.name.c_str(), m.value,
                    m.unit.c_str(), m.kind);
      std::cout << line;
    }
  };
  table("end-to-end", end_to_end);
  if (opts.trace) table("per-layer (traced passes, per pass)", per_layer);

  if (!opts.report_path.empty()) {
    std::ofstream report(opts.report_path);
    report << "{\"workload\": \"" << info->name << "\", \"seed\": " << opts.seed
           << ", \"inputs\": \"" << hex(inputs.h) << "\", \"digest\": \"" << hex(digest.h)
           << "\", \"attempted\": " << attempted << ", \"failed\": " << failed
           << ", \"end_to_end\": " << metricsJson(end_to_end)
           << ", \"per_layer\": " << metricsJson(per_layer) << ", \"missions\": [";
    const Pass& first = passes.front();
    for (std::size_t i = 0; i < reference.size(); ++i) {
      const runtime::MissionResult& r = reference[i];
      std::size_t failed_plans = 0;
      for (const runtime::DecisionRecord& rec : r.records) failed_plans += rec.plan_failed;
      report << (i ? ", " : "") << "{\"label\": \"" << in.labels[i] << "\", \"status\": \""
             << runtime::missionStatusName(r.status) << "\", \"mission_time_s\": "
             << fmt(r.mission_time) << ", \"decisions\": " << r.decisions()
             << ", \"replans\": " << r.replans() << ", \"failed_plans\": " << failed_plans
             << ", \"wall_ms\": " << fmt(first.wall_ms[i]) << "}";
    }
    report << "], \"passes\": [";
    for (std::size_t i = 0; i < passes.size(); ++i)
      report << (i ? ", " : "") << "[" << fmt(mps[i]) << ", " << fmt(wall_p50[i]) << ", "
             << fmt(epoch_p50[i]) << ", " << fmt(epoch_p90[i]) << "]";
    report << "]}\n";
    if (!report) {
      std::cerr << "roborun_bench: cannot write " << opts.report_path << "\n";
      return 1;
    }
  }

  std::vector<Metric> result;
  if (opts.trace) {
    result = per_layer;
  } else {
    for (const char* name : kGatedEndToEnd)
      for (const Metric& m : end_to_end)
        if (m.name == name) result.push_back(m);
  }
  std::cout << "{\"correct\": " << (failed == 0 ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": " << metricsJson(result) << "}" << std::endl;
  return failed == 0 ? 0 : 3;
}

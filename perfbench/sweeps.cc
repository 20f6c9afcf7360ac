// sweep-cold and sweep-tier1: attacker/victim sweeps over the 100k-AS
// internet2026 topology, evaluated the way the figure benches do it — one
// AttackSimulator over a shared BaselineCache, pairs fanned out over a
// util::ThreadPool.
//
// A run is a sequence of whole rounds. Round r's instances are a pure
// function of (--seed, r), so every run with one seed attempts the same
// operations in the same order, only as many rounds as fit in --seconds.
//  * sweep-cold: 24 random pairs per round (attack::SampleRandomPairs, the
//    Fig. 8 sampler), each run for the Fig. 8 impact row and the Fig. 13
//    detection verdict at 70 top-degree monitors. Victims are almost never
//    repeated, so baseline convergence and the TraversalIndex build dominate.
//    The round's BaselineCache is dropped at the end of the round: an
//    unbounded cache would hold ~44 MB per distinct victim and make peak RSS
//    a function of run length.
//  * sweep-tier1: every round is all 210 ordered tier-1 pairs, in a
//    seed-shuffled order (attack::SampleTier1Pairs), each under the
//    aggressive and the strict export model (Fig. 7). Per-pair cost varies
//    many-fold with the attack's wavefront, so a round covers the whole
//    population rather than a sample of it. One cache serves the whole run
//    (at most 15 victims), so the delta engine does almost all the work.
//    A pair's two models run back to back on one worker and are timed as
//    one operation: timed alone, the instances split into a fast and a
//    slow half, and a median at that split is no figure of either.
#include <algorithm>
#include <cstdint>
#include <memory>

#include "attack/baseline_cache.h"
#include "attack/impact.h"
#include "attack/scenarios.h"
#include "checks.h"
#include "detect/evaluation.h"
#include "detect/monitors.h"
#include "layers.h"
#include "topology/generator.h"
#include "trace.h"
#include "util/metrics.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr int kLambda = 3;             // the paper's sweeps (Figs. 7, 8, 13)
constexpr std::size_t kMonitors = 70;  // Fig. 13's 92%-detection anchor
constexpr std::size_t kColdPairsPerRound = 24;
// Instances timed as one operation: a tier-1 pair is both export models.
std::size_t Group(bool cold) { return cold ? 1 : 2; }
// Instances re-run on one thread to prove thread-count independence.
constexpr std::size_t kIdentityInstances = 4;
// Instances broken down layer by layer in a traced run.
constexpr std::size_t kLayerInstances = 12;

struct Instance {
  Asn attacker = 0;
  Asn victim = 0;
  bool strict = false;  // export model: strict valley-free vs aggressive
};

// What one instance reports: the impact row (Figs. 7/8) and, on sweep-cold,
// the detection verdict (Fig. 13). Compared bit for bit across thread counts.
struct Row {
  Asn attacker = 0;
  Asn victim = 0;
  bool strict = false;
  double before = 0;
  double after = 0;
  std::size_t polluted = 0;
  std::uint64_t polluted_hash = 0;
  bool converged = true;
  bool detected = false;
  bool detected_high = false;
  int detection_round = -1;

  bool operator==(const Row&) const = default;
};

std::uint64_t HashAsns(const std::vector<Asn>& asns) {
  std::uint64_t h = 1469598103934665603ULL;
  for (Asn a : asns) h = (h ^ a) * 1099511628211ULL;
  return h;
}

std::vector<Instance> RoundInstances(const topo::GeneratedTopology& topology,
                                     bool cold, std::uint64_t seed,
                                     std::uint64_t round) {
  std::vector<Instance> out;
  if (cold) {
    for (const auto& [attacker, victim] : attack::SampleRandomPairs(
             topology, kColdPairsPerRound, util::DeriveSeed(seed, round))) {
      out.push_back({attacker, victim, false});
    }
    return out;
  }
  for (const auto& [attacker, victim] : attack::SampleTier1Pairs(
           topology, SIZE_MAX, util::DeriveSeed(seed, round))) {
    out.push_back({attacker, victim, false});
    out.push_back({attacker, victim, true});
  }
  return out;
}

struct RoundOutput {
  std::vector<Row> rows;
  std::vector<attack::AttackOutcome> outcomes;
  std::vector<detect::DetectionResult> detections;
  std::vector<double> latency_ms;
  double wall_ms = 0;
};

// Evaluates `instances` in parallel, the timed operation of both sweeps, in
// groups of `group` consecutive instances (one group per task, one latency
// sample per group). Outcomes past the first `keep` are released inside the
// timed work, as a sweep that only reports rows would release them.
RoundOutput RunRound(const topo::AsGraph& graph,
                     const std::vector<Instance>& instances, bool detect,
                     const std::vector<Asn>& monitors,
                     attack::BaselineCache& cache, util::ThreadPool& pool,
                     Tracer& tracer, std::uint64_t first_request,
                     std::size_t keep, std::size_t group) {
  const attack::AttackSimulator simulator(graph, &cache);
  detect::DetectionConfig config;
  config.lambda = kLambda;
  RoundOutput out;
  out.rows.resize(instances.size());
  out.outcomes.resize(instances.size());
  out.detections.resize(instances.size());
  const auto evaluate = [&](std::size_t i) {
    const Instance& inst = instances[i];
    Tracer::Span root(tracer, "sweep.instance", first_request + i);
    attack::AttackOutcome outcome;
    {
      Tracer::Span span(tracer, "attack.outcome");
      outcome = simulator.RunAsppInterception(
          inst.victim, inst.attacker, kLambda,
          /*violate_valley_free=*/false,
          /*export_stripped_to_peers=*/!inst.strict);
    }
    detect::DetectionResult detection;
    if (detect) {
      Tracer::Span span(tracer, "detect.evaluate");
      detection = detect::EvaluateDetectionOnOutcome(graph, outcome, monitors,
                                                     config);
    }
    Row& row = out.rows[i];
    row.attacker = inst.attacker;
    row.victim = inst.victim;
    row.strict = inst.strict;
    row.before = outcome.fraction_before;
    row.after = outcome.fraction_after;
    row.polluted = outcome.newly_polluted.size();
    row.polluted_hash = HashAsns(outcome.newly_polluted);
    row.converged = outcome.converged;
    row.detected = detection.detected;
    row.detected_high = detection.detected_high;
    row.detection_round = detection.detection_round;
    out.detections[i] = detection;
    if (i < keep) {
      out.outcomes[i] = std::move(outcome);
    } else {
      outcome = attack::AttackOutcome();  // released inside the latency
    }
  };
  const std::size_t groups = (instances.size() + group - 1) / group;
  out.latency_ms.resize(groups);
  const Clock::time_point start = Clock::now();
  pool.ParallelFor(
      groups,
      [&](std::size_t g) {
        const Clock::time_point t0 = Clock::now();
        const std::size_t end = std::min(instances.size(), (g + 1) * group);
        for (std::size_t i = g * group; i < end; ++i) evaluate(i);
        out.latency_ms[g] = MsBetween(t0, Clock::now());
      },
      /*chunk=*/1);
  out.wall_ms = MsBetween(start, Clock::now());
  return out;
}

struct PassStats {
  std::uint64_t instances = 0;
  std::uint64_t failed = 0;
  double wall_ms = 0;
  std::vector<double> latency_ms;
  // Round 0, kept for the output checks.
  std::vector<Instance> first_instances;
  std::vector<Row> first_rows;
  std::vector<attack::AttackOutcome> sampled;
};

}  // namespace

Result RunSweep(const Options& options, bool cold) {
  Result result;
  Tracer tracer(false);
  const std::uint64_t generate_start = Tracer::NowNs();
  const topo::GeneratedTopology topology =
      topo::GenerateInternetTopology(topo::Internet2026Params());
  const double setup_s = SecondsSince(ProcessStart());
  const double generate_ms =
      static_cast<double>(Tracer::NowNs() - generate_start) / 1e6;
  const topo::AsGraph& graph = topology.graph;
  const std::vector<Asn> monitors = detect::TopDegreeMonitors(graph, kMonitors);
  util::ThreadPool pool(options.threads);

  // An untraced run times whole rounds until --seconds have elapsed. A
  // traced run times every round twice, untraced and traced, alternating
  // which goes first; the wall-time ratio of the two is the tracing
  // overhead. Each mode keeps its own caches.
  const int modes = options.trace ? 2 : 1;
  PassStats pass[2];
  std::unique_ptr<attack::BaselineCache> run_cache[2];
  for (int m = 0; !cold && m < modes; ++m) {
    run_cache[m] = std::make_unique<attack::BaselineCache>(graph);
  }
  const auto metrics_before = util::Metrics::Global().TakeSnapshot();
  const Clock::time_point start = Clock::now();
  for (std::uint64_t round = 0;
       round == 0 || SecondsSince(start) < options.seconds; ++round) {
    const std::vector<Instance> instances =
        RoundInstances(topology, cold, options.seed, round);
    for (int k = 0; k < modes; ++k) {
      const int mode = modes == 1 ? 0 : static_cast<int>((k + round) % 2);
      tracer.SetEnabled(mode == 1);
      PassStats& stats = pass[mode];
      std::unique_ptr<attack::BaselineCache> round_cache;
      if (cold) round_cache = std::make_unique<attack::BaselineCache>(graph);
      attack::BaselineCache& cache = cold ? *round_cache : *run_cache[mode];
      // Cold outcomes are kept for the detection checks (their overlays are
      // near empty); tier-1 keeps only the round-0 samples.
      const std::size_t keep =
          cold ? instances.size() : (round == 0 && mode == 0 ? 2 : 0);
      RoundOutput out = RunRound(graph, instances, cold, monitors, cache, pool,
                                 tracer, stats.instances + 1, keep, Group(cold));
      stats.instances += instances.size();
      stats.wall_ms += out.wall_ms;
      stats.latency_ms.insert(stats.latency_ms.end(), out.latency_ms.begin(),
                              out.latency_ms.end());
      for (const Row& row : out.rows) stats.failed += row.converged ? 0 : 1;
      if (cold) {
        // Every alarm raised on the way to each verdict must be justified.
        Violations violations;
        for (std::size_t i = 0; i < instances.size(); ++i) {
          CheckDetection(graph, out.outcomes[i], monitors,
                         detect::DetectionConfig{}, out.detections[i],
                         violations);
        }
        result.Check("detection", violations);
      }
      if (round == 0 && mode == 0) {
        stats.first_instances = instances;
        stats.first_rows = out.rows;
        // Full-scale samples: the first instance of each export model.
        stats.sampled.push_back(std::move(out.outcomes[0]));
        if (!cold) stats.sampled.push_back(std::move(out.outcomes[1]));
      }
    }
  }
  const auto metrics_after = util::Metrics::Global().TakeSnapshot();
  const PassStats& main_pass = pass[0];
  result.attempted = pass[0].instances + pass[1].instances;
  result.failed = pass[0].failed + pass[1].failed;
  if (!options.trace) {
    result.Add("setup_s", setup_s, "s");
    result.Add("ops_per_s",
               static_cast<double>(main_pass.instances) /
                   (main_pass.wall_ms / 1e3),
               "1/s");
    result.Add("latency_p50_ms", Quantile(main_pass.latency_ms, 0.5), "ms");
    result.Add("latency_p90_ms", Quantile(main_pass.latency_ms, 0.9), "ms");
    result.Add("peak_rss_mb", PeakRssMb(), "MB");
  } else {
    tracer.SetEnabled(true);
    tracer.Record("topology.generate", 0, generate_start,
                  generate_start + static_cast<std::uint64_t>(generate_ms * 1e6));
    std::vector<LayerInstance> sample;
    for (const Instance& inst : main_pass.first_instances) {
      if (sample.size() == kLayerInstances) break;
      sample.push_back({inst.attacker, inst.victim, inst.strict});
    }
    LayerReport layers;
    layers.tracing_overhead_pct =
        (pass[1].wall_ms / pass[0].wall_ms - 1.0) * 100.0;
    layers.topology_generate_ms = generate_ms;
    CounterRatios(metrics_before, metrics_after, layers);
    MeasureLayers(graph, sample, kLambda, cold ? &monitors : nullptr, tracer,
                  layers);
    layers.Emit(result);
    tracer.Write(options.work_dir + "/trace-" + options.workload + "-seed" +
                 std::to_string(options.seed) + ".jsonl");
  }

  // --- output checks (untimed) -------------------------------------------
  Violations full_scale;
  for (std::size_t i = 0; i < main_pass.sampled.size(); ++i) {
    // Sample 0 is an aggressive-model instance, sample 1 a strict one.
    CheckFullScale(graph, main_pass.sampled[i],
                   /*export_stripped_to_peers=*/i == 0, full_scale);
  }
  result.Check("full-scale", full_scale);

  {
    // Bit-identical rows on one thread.
    std::vector<Instance> prefix = main_pass.first_instances;
    prefix.resize(std::min(prefix.size(), kIdentityInstances));
    util::ThreadPool serial(1);
    attack::BaselineCache cache(graph);
    Tracer off(false);
    const RoundOutput again =
        RunRound(graph, prefix, cold, monitors, cache, serial, off, 1, 0,
                 Group(cold));
    Violations identity;
    for (std::size_t i = 0; i < prefix.size(); ++i) {
      if (!(again.rows[i] == main_pass.first_rows[i])) {
        identity.push_back("instance " + std::to_string(i) +
                           " differs between 1 and " +
                           std::to_string(options.threads) + " threads");
      }
    }
    result.Check("thread-identity", identity);
  }

  {
    // The same samplers and round code on a reduced-scale topology, against
    // the ReferenceEngine oracle.
    topo::GeneratorParams small;
    small.num_tier2 = 40;
    small.num_tier3 = 100;
    small.num_stubs = 400;
    const topo::GeneratedTopology reduced = topo::GenerateInternetTopology(small);
    const std::vector<Asn> small_monitors =
        detect::TopDegreeMonitors(reduced.graph, kMonitors);
    const std::vector<Instance> instances =
        RoundInstances(reduced, cold, options.seed, 0);
    attack::BaselineCache cache(reduced.graph);
    Tracer off(false);
    const RoundOutput out =
        RunRound(reduced.graph, instances, cold, small_monitors, cache, pool,
                 off, 1, instances.size(), Group(cold));
    Violations reference;
    for (std::size_t i = 0; i < instances.size(); ++i) {
      CheckAgainstReference(reduced.graph, out.outcomes[i],
                            !instances[i].strict, reference);
      CheckFullScale(reduced.graph, out.outcomes[i], !instances[i].strict,
                     reference);
      if (cold) {
        CheckDetection(reduced.graph, out.outcomes[i], small_monitors,
                       detect::DetectionConfig{}, out.detections[i], reference);
      }
    }
    result.Check("reduced-scale", reference);
  }
  return result;
}

}  // namespace perfbench

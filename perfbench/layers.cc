#include "layers.h"

#include <map>
#include <memory>
#include <set>

#include "attack/baseline_cache.h"
#include "attack/impact.h"
#include "attack/interceptor.h"
#include "bgp/delta.h"
#include "checks.h"
#include "detect/evaluation.h"

namespace perfbench {

namespace {

std::uint64_t CounterDelta(const util::Metrics::Snapshot& before,
                           const util::Metrics::Snapshot& after,
                           const std::string& name) {
  const auto b = before.counters.find(name);
  const auto a = after.counters.find(name);
  const std::uint64_t from = b == before.counters.end() ? 0 : b->second;
  const std::uint64_t to = a == after.counters.end() ? 0 : a->second;
  return to - from;
}

double Ratio(std::uint64_t num, std::uint64_t den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

std::size_t RouteBytes(const std::optional<bgp::Route>& route) {
  std::size_t bytes = sizeof(route);
  if (route.has_value()) bytes += route->path.Hops().capacity() * sizeof(topo::Asn);
  return bytes;
}

}  // namespace

double BaselineBytes(const bgp::PropagationResult& state) {
  std::size_t bytes = sizeof(state);
  bytes += (state.BestRoutes().capacity() - state.BestRoutes().size()) *
           sizeof(std::optional<bgp::Route>);
  for (const auto& route : state.BestRoutes()) bytes += RouteBytes(route);
  bytes += state.FirstChangeRounds().capacity() * sizeof(int);
  bytes += state.RibIn().capacity() * sizeof(state.RibIn().front());
  for (const auto& rib : state.RibIn()) {
    bytes += (rib.capacity() - rib.size()) * sizeof(std::optional<bgp::Route>);
    for (const auto& route : rib) bytes += RouteBytes(route);
  }
  bytes += state.Sent().capacity() * sizeof(state.Sent().front());
  for (const auto& sent : state.Sent()) bytes += sent.capacity();
  return static_cast<double>(bytes);
}

void MeasureLayers(const topo::AsGraph& graph,
                   const std::vector<LayerInstance>& instances, int lambda,
                   const std::vector<topo::Asn>* monitors, Tracer& tracer,
                   LayerReport& report) {
  attack::BaselineCache cache(graph);
  const attack::AttackSimulator simulator(graph, &cache);
  const bgp::PropagationSimulator engine(graph);
  const bgp::DeltaPropagator delta(graph);
  detect::DetectionConfig config;
  config.lambda = lambda;

  std::set<topo::Asn> converged;
  std::vector<double> baseline_bytes;
  std::map<std::uint64_t, double> delta_ms;
  std::map<std::uint64_t, double> outcome_ms;
  std::vector<double> detect_ms;
  const auto before = util::Metrics::Global().TakeSnapshot();
  // Request ids of this phase sit above any sweep or load request id.
  constexpr std::uint64_t kFirstRequest = 1ULL << 40;
  for (std::size_t i = 0; i < instances.size(); ++i) {
    const LayerInstance& inst = instances[i];
    const std::uint64_t request = kFirstRequest + i;
    Tracer::Span root(tracer, "layers.instance", request);
    const bgp::Announcement announcement =
        VictimAnnouncement(inst.victim, lambda);
    if (converged.insert(inst.victim).second) {
      std::shared_ptr<const bgp::PropagationResult> state;
      {
        Tracer::Span span(tracer, "bgp.converge");
        state = std::make_shared<const bgp::PropagationResult>(
            engine.Run(announcement));
      }
      baseline_bytes.push_back(BaselineBytes(*state));
      Tracer::Span span(tracer, "attack.traversal_index");
      cache.Put(std::move(state));
    }
    const attack::BaselineEntry entry = cache.GetEntry(announcement);
    attack::AsppInterceptor::Config attack_config;
    attack_config.attacker = inst.attacker;
    attack_config.victim = inst.victim;
    attack_config.export_stripped_to_peers = !inst.strict;
    // Each of the two runs twice; only the second, warm run is timed, so
    // neither pays for warming the caches the other then reuses.
    const auto run_delta = [&] {
      attack::AsppInterceptor interceptor(attack_config);
      delta.Propagate(entry.state, &interceptor, {inst.attacker});
    };
    const auto run_outcome = [&] {
      return simulator.RunAsppInterception(
          inst.victim, inst.attacker, lambda, /*violate_valley_free=*/false,
          /*export_stripped_to_peers=*/!inst.strict);
    };
    run_delta();
    attack::AttackOutcome outcome = run_outcome();
    std::uint64_t t0 = Tracer::NowNs();
    {
      Tracer::Span span(tracer, "bgp.delta");
      run_delta();
    }
    delta_ms[request] = static_cast<double>(Tracer::NowNs() - t0) / 1e6;
    t0 = Tracer::NowNs();
    {
      Tracer::Span span(tracer, "attack.outcome");
      outcome = run_outcome();
    }
    outcome_ms[request] = static_cast<double>(Tracer::NowNs() - t0) / 1e6;
    if (monitors != nullptr) {
      t0 = Tracer::NowNs();
      Tracer::Span span(tracer, "detect.evaluate");
      detect::EvaluateDetectionOnOutcome(graph, outcome, *monitors, config);
      detect_ms.push_back(static_cast<double>(Tracer::NowNs() - t0) / 1e6);
    }
  }
  const auto after = util::Metrics::Global().TakeSnapshot();

  const std::vector<double> converge = tracer.DurationsMs("bgp.converge");
  report.bgp_converge_ms = Quantile(converge, 0.5);
  report.bgp_converge_p90_ms = Quantile(converge, 0.9);
  report.attack_traversal_index_ms =
      Quantile(tracer.DurationsMs("attack.traversal_index"), 0.5);
  std::vector<double> deltas;
  std::vector<double> self;
  for (const auto& [request, ms] : delta_ms) {
    deltas.push_back(ms);
    self.push_back(outcome_ms[request] - ms);
  }
  report.bgp_delta_ms = Quantile(deltas, 0.5);
  report.attack_outcome_self_ms = Quantile(self, 0.5);
  report.bgp_baseline_bytes = Quantile(baseline_bytes, 0.5);
  if (monitors != nullptr) report.detect_evaluate_ms = Quantile(detect_ms, 0.5);

  const std::uint64_t runs = CounterDelta(before, after, "bgp.propagation.runs");
  report.bgp_decisions =
      Ratio(CounterDelta(before, after, "bgp.propagation.decisions"), runs);
  report.bgp_routes_announced = Ratio(
      CounterDelta(before, after, "bgp.propagation.routes_announced"), runs);
  report.bgp_delta_wavefront =
      Ratio(CounterDelta(before, after, "engine.delta.wavefront_total"),
            CounterDelta(before, after, "engine.delta.propagations"));
  report.detect_observations_scanned =
      Ratio(CounterDelta(before, after, "detect.observations_scanned"),
            CounterDelta(before, after, "detect.evaluations"));
}

void CounterRatios(const util::Metrics::Snapshot& before,
                   const util::Metrics::Snapshot& after, LayerReport& report) {
  const std::uint64_t hits =
      CounterDelta(before, after, "attack.baseline_cache.hits");
  const std::uint64_t misses =
      CounterDelta(before, after, "attack.baseline_cache.misses");
  report.attack_baseline_cache_hit_ratio = Ratio(hits, hits + misses);
  const auto b = before.timers.find("util.thread_pool.queue_wait");
  const auto a = after.timers.find("util.thread_pool.queue_wait");
  if (a != after.timers.end()) {
    const util::Metrics::TimerStat from =
        b == before.timers.end() ? util::Metrics::TimerStat{} : b->second;
    report.util_pool_queue_wait_ms =
        Ratio(a->second.total_ns - from.total_ns, a->second.count - from.count) /
        1e6;
  }
}

void LayerReport::Emit(Result& result) const {
  result.Add("topology.generate_ms", topology_generate_ms, "ms");
  result.Add("bgp.converge_ms", bgp_converge_ms, "ms");
  result.Add("bgp.converge_p90_ms", bgp_converge_p90_ms, "ms");
  result.Add("bgp.decisions", bgp_decisions, "count");
  result.Add("bgp.routes_announced", bgp_routes_announced, "count");
  result.Add("bgp.baseline_bytes", bgp_baseline_bytes, "bytes");
  result.Add("bgp.delta_ms", bgp_delta_ms, "ms");
  result.Add("bgp.delta_wavefront", bgp_delta_wavefront, "count");
  result.Add("attack.traversal_index_ms", attack_traversal_index_ms, "ms");
  result.Add("attack.outcome_self_ms", attack_outcome_self_ms, "ms");
  result.Add("attack.baseline_cache.hit_ratio", attack_baseline_cache_hit_ratio,
             "ratio");
  result.Add("detect.evaluate_ms", detect_evaluate_ms, "ms");
  result.Add("detect.observations_scanned", detect_observations_scanned,
             "count");
  result.Add("data.snapshot_load_ms", data_snapshot_load_ms, "ms");
  result.Add("data.baseline_restore_ms", data_baseline_restore_ms, "ms");
  result.Add("serve.handle_us.impact", serve_handle_us_impact, "us");
  result.Add("serve.handle_us.route", serve_handle_us_route, "us");
  result.Add("serve.handle_us.detect", serve_handle_us_detect, "us");
  result.Add("serve.result_cache.hit_ratio", serve_result_cache_hit_ratio,
             "ratio");
  result.Add("net.transport_us", net_transport_us, "us");
  result.Add("net.batch_size", net_batch_size, "count");
  result.Add("util.pool_queue_wait_ms", util_pool_queue_wait_ms, "ms");
  result.Add("load.send_lag_ms", load_send_lag_ms, "ms");
  result.Add("load.send_lag_max_ms", load_send_lag_max_ms, "ms");
  result.Add("load.open_loop_p50_ms", load_open_loop_p50_ms, "ms");
  result.Add("load.open_loop_p90_ms", load_open_loop_p90_ms, "ms");
  result.Add("load.open_loop_p99_ms", load_open_loop_p99_ms, "ms");
  result.Add("trace.overhead_pct", tracing_overhead_pct, "%");
}

}  // namespace perfbench

// Per-layer metrics of a traced run: every metric BENCHMARK.json lists under
// per_layer, in one record, so every workload prints the same keys. A layer
// a workload does not exercise reads 0.
#pragma once

#include <vector>

#include "common.h"
#include "bgp/propagation.h"
#include "topology/as_graph.h"
#include "trace.h"
#include "util/metrics.h"

namespace perfbench {

struct LayerInstance {
  topo::Asn attacker = 0;
  topo::Asn victim = 0;
  bool strict = false;
};

struct LayerReport {
  double topology_generate_ms = 0;
  double bgp_converge_ms = 0;
  double bgp_converge_p90_ms = 0;
  double bgp_decisions = 0;
  double bgp_routes_announced = 0;
  double bgp_baseline_bytes = 0;
  double bgp_delta_ms = 0;
  double bgp_delta_wavefront = 0;
  double attack_traversal_index_ms = 0;
  double attack_outcome_self_ms = 0;
  double attack_baseline_cache_hit_ratio = 0;
  double detect_evaluate_ms = 0;
  double detect_observations_scanned = 0;
  double data_snapshot_load_ms = 0;
  double data_baseline_restore_ms = 0;
  double serve_handle_us_impact = 0;
  double serve_handle_us_route = 0;
  double serve_handle_us_detect = 0;
  double serve_result_cache_hit_ratio = 0;
  double net_transport_us = 0;
  double net_batch_size = 0;
  double util_pool_queue_wait_ms = 0;
  double load_send_lag_ms = 0;
  double load_send_lag_max_ms = 0;
  double load_open_loop_p50_ms = 0;
  double load_open_loop_p90_ms = 0;
  double load_open_loop_p99_ms = 0;
  double tracing_overhead_pct = 0;

  void Emit(Result& result) const;
};

// Breaks `instances` down layer by layer, serially, each layer timed by a
// span around the public entry point that implements it:
//   bgp.converge            PropagationSimulator::Run (first use of a victim)
//   attack.traversal_index  BaselineCache::Put, whose work is building the
//                           baseline's TraversalIndex
//   bgp.delta               DeltaPropagator::Propagate of the attack on the
//                           cached baseline
//   attack.outcome          AttackSimulator::RunAsppInterception of the same
//                           attack on the now warm cache; its self time is
//                           its duration minus that instance's bgp.delta
//                           (the delta run inside it cannot be spanned from
//                           outside the program, so its standalone twin,
//                           same inputs, stands in)
//   detect.evaluate         EvaluateDetectionOnOutcome (when `monitors`)
// and reads the bgp/engine/detect counters around the phase (per call
// means, exactly repeatable for one seed). Fills the matching fields.
void MeasureLayers(const topo::AsGraph& graph,
                   const std::vector<LayerInstance>& instances, int lambda,
                   const std::vector<topo::Asn>* monitors, Tracer& tracer,
                   LayerReport& report);

// Baseline-cache hit ratio and mean thread-pool queue wait between two
// registry snapshots.
void CounterRatios(const util::Metrics::Snapshot& before,
                   const util::Metrics::Snapshot& after, LayerReport& report);

// Bytes held by one converged state, read through its public accessors:
// best routes, first-change rounds, Adj-RIB-In and sent flags, heap path
// storage included.
double BaselineBytes(const bgp::PropagationResult& state);

}  // namespace perfbench

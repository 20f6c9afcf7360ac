// Output checks of the benchmark. Each one re-derives what the program must
// have produced from a separate computation (the ReferenceEngine oracle, a
// fresh full-engine re-convergence, the check:: invariants) or from a
// property the method must have; none compares against stored output.
// Every check appends one line per violation; an empty vector means pass.
#pragma once

#include <string>
#include <vector>

#include "attack/impact.h"
#include "common.h"
#include "bgp/as_path.h"
#include "detect/detector.h"
#include "detect/evaluation.h"
#include "topology/as_graph.h"
#include "util/json.h"

namespace perfbench {

using Violations = std::vector<std::string>;
using topo::Asn;
using MonitorPaths = std::vector<std::pair<Asn, bgp::AsPath>>;

// The announcement every workload attacks: the victim pads λ copies toward
// all neighbors, nobody else prepends (the shape of the paper's sweeps and
// of the server's default what-if).
bgp::Announcement VictimAnnouncement(Asn victim, int lambda);

// An interception outcome against check::ReferenceEngine::RunInterception
// (naive fixpoint oracle): both fractions and the newly polluted list must
// be identical. Meant for reduced-scale topologies.
void CheckAgainstReference(const topo::AsGraph& graph,
                           const attack::AttackOutcome& outcome,
                           bool export_stripped_to_peers, Violations& out);

// Full-scale checks on one outcome: CheckConvergedState on the baseline,
// CheckInterception on the outcome (re-derives the polluted set and the
// fractions from the two states), and equality of the fractions and the
// polluted list with a fresh full-engine re-convergence
// (PropagationSimulator::Run + Resume, no cache, no delta engine).
void CheckFullScale(const topo::AsGraph& graph,
                    const attack::AttackOutcome& outcome,
                    bool export_stripped_to_peers, Violations& out);

// Re-runs the detection rounds of EvaluateDetectionOnOutcome for `outcome`
// (the same detector options and first-alarm rule) and checks every alarm
// raised on the way with Invariants::CheckAlarmsJustified, the independent
// part of this check. The re-run's verdict must equal `result`, which
// catches nondeterminism only, not a wrong verdict.
void CheckDetection(const topo::AsGraph& graph,
                    const attack::AttackOutcome& outcome,
                    const std::vector<Asn>& monitors,
                    const detect::DetectionConfig& config,
                    const detect::DetectionResult& result, Violations& out);

// A served {"op":"route"} answer: ok, found, a path that passes
// Invariants::CheckPath from the observer (real links, no loop, ends at the
// origin, valley-free) and carries exactly λ origin copies and no other
// padding, with a matching hop count.
void CheckServedRoute(const topo::AsGraph& graph, Asn origin, Asn observer,
                      int lambda, const util::Json& response, Violations& out);

// A served {"op":"impact"} answer against an in-process full-engine
// recomputation of the same what-if.
void CheckServedImpact(const topo::AsGraph& graph, Asn victim, Asn attacker,
                       int lambda, const util::Json& response,
                       Violations& out);

// A served {"op":"detect"} answer: the alarm list equals the detector's
// scan of states recomputed by the full engine (top-degree monitors,
// victim-aware policy) and every high-confidence alarm is justified.
void CheckServedDetect(const topo::AsGraph& graph, Asn victim, Asn attacker,
                       int lambda, std::size_t monitor_count,
                       const util::Json& response, Violations& out);

}  // namespace perfbench

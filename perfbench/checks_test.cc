// Each output check of the benchmark must reject a deliberately corrupted
// result: a perturbed pollution fraction, a served path over a link that
// does not exist, and a high-confidence alarm without justification. The
// uncorrupted results pass, so a failure is the corruption's doing.
#include <gtest/gtest.h>

#include "attack/impact.h"
#include "attack/scenarios.h"
#include "check/invariants.h"
#include "checks.h"
#include "topology/generator.h"
#include "util/json.h"

namespace perfbench {
namespace {

topo::GeneratedTopology SmallTopology() {
  topo::GeneratorParams params;
  params.num_tier2 = 20;
  params.num_tier3 = 60;
  params.num_stubs = 200;
  return topo::GenerateInternetTopology(params);
}

// An attack that pollutes someone, so fractions and alarms are non-trivial.
attack::AttackOutcome EffectiveOutcome(const topo::GeneratedTopology& t) {
  const attack::AttackSimulator simulator(t.graph);
  for (const auto& [attacker, victim] : attack::SampleTier1Pairs(t, 90, 1)) {
    attack::AttackOutcome outcome =
        simulator.RunAsppInterception(victim, attacker, 3);
    if (!outcome.newly_polluted.empty()) return outcome;
  }
  ADD_FAILURE() << "no effective tier-1 attack on the test topology";
  return {};
}

TEST(PerfbenchChecks, PerturbedPollutionFractionFails) {
  const topo::GeneratedTopology t = SmallTopology();
  attack::AttackOutcome outcome = EffectiveOutcome(t);
  Violations clean;
  CheckAgainstReference(t.graph, outcome, true, clean);
  CheckFullScale(t.graph, outcome, true, clean);
  EXPECT_TRUE(clean.empty()) << clean.front();

  outcome.fraction_after += 1.0 / static_cast<double>(t.graph.NumAses());
  Violations reference;
  CheckAgainstReference(t.graph, outcome, true, reference);
  EXPECT_FALSE(reference.empty());
  Violations full;
  CheckFullScale(t.graph, outcome, true, full);
  EXPECT_FALSE(full.empty());
}

TEST(PerfbenchChecks, ServedImpactWithPerturbedFractionFails) {
  const topo::GeneratedTopology t = SmallTopology();
  const attack::AttackOutcome outcome = EffectiveOutcome(t);
  util::Json response = util::Json::Object();
  response["ok"] = util::Json(true);
  response["lambda"] = util::Json(3);
  response["fraction_before"] = util::Json(outcome.fraction_before);
  response["fraction_after"] = util::Json(outcome.fraction_after);
  response["newly_polluted"] =
      util::Json(static_cast<std::uint64_t>(outcome.newly_polluted.size()));
  response["reachable_before"] =
      util::Json(static_cast<std::uint64_t>(outcome.before->ReachableCount()));
  response["reachable_after"] =
      util::Json(static_cast<std::uint64_t>(outcome.after.ReachableCount()));
  Violations clean;
  CheckServedImpact(t.graph, outcome.victim, outcome.attacker, 3, response,
                    clean);
  EXPECT_TRUE(clean.empty()) << clean.front();

  response["fraction_after"] = util::Json(outcome.fraction_after * 1.01);
  Violations corrupted;
  CheckServedImpact(t.graph, outcome.victim, outcome.attacker, 3, response,
                    corrupted);
  EXPECT_FALSE(corrupted.empty());
}

TEST(PerfbenchChecks, RouteOverMissingLinkFails) {
  const topo::GeneratedTopology t = SmallTopology();
  const topo::AsGraph& g = t.graph;
  const Asn origin = t.stubs.front();
  const attack::AttackSimulator simulator(g);
  const attack::AttackOutcome outcome =
      simulator.RunAsppInterception(origin, t.tier1.front(), 4);
  // An observer at least two hops away, so its path has an inner link.
  Asn observer = 0;
  bgp::AsPath path;
  for (Asn asn : g.Ases()) {
    const auto& best = outcome.before->BestAt(asn);
    if (best.has_value() && best->path.DistinctSequence().size() >= 3) {
      observer = asn;
      path = best->path;
      break;
    }
  }
  ASSERT_NE(observer, 0u);
  const auto respond = [](const bgp::AsPath& p) {
    util::Json response = util::Json::Object();
    response["ok"] = util::Json(true);
    response["found"] = util::Json(true);
    response["path"] = util::Json(p.ToString());
    response["hops"] = util::Json(static_cast<std::uint64_t>(p.Length()));
    return response;
  };
  Violations clean;
  CheckServedRoute(g, origin, observer, 4, respond(path), clean);
  EXPECT_TRUE(clean.empty()) << clean.front();

  // Replace the first hop by an AS that is not adjacent to the observer.
  std::vector<Asn> hops = path.Hops();
  for (Asn asn : g.Ases()) {
    if (asn != observer && asn != origin && !g.HasLink(observer, asn) &&
        !path.Contains(asn)) {
      hops.front() = asn;
      break;
    }
  }
  Violations corrupted;
  CheckServedRoute(g, origin, observer, 4, respond(bgp::AsPath(hops)),
                   corrupted);
  EXPECT_FALSE(corrupted.empty());
}

TEST(PerfbenchChecks, UnjustifiedHighConfidenceAlarmFails) {
  const topo::GeneratedTopology t = SmallTopology();
  const attack::AttackOutcome outcome = EffectiveOutcome(t);
  // Identical observations: nothing lost padding, so no alarm is justified.
  MonitorPaths paths;
  for (Asn asn : t.tier1) {
    const auto& best = outcome.before->BestAt(asn);
    if (best.has_value()) paths.emplace_back(asn, best->path);
  }
  ASSERT_FALSE(paths.empty());
  Violations clean;
  check::Invariants::CheckAlarmsJustified(outcome.victim, paths, paths, {},
                                          nullptr, clean);
  EXPECT_TRUE(clean.empty()) << clean.front();

  detect::Alarm alarm;
  alarm.confidence = detect::Alarm::Confidence::kHigh;
  alarm.suspect = outcome.attacker;
  alarm.observer = paths.front().first;
  alarm.pads_removed = 2;
  Violations corrupted;
  check::Invariants::CheckAlarmsJustified(outcome.victim, paths, paths,
                                          {alarm}, nullptr, corrupted);
  EXPECT_FALSE(corrupted.empty());
}

TEST(PerfbenchChecks, WrongDetectionVerdictFails) {
  const topo::GeneratedTopology t = SmallTopology();
  const attack::AttackOutcome outcome = EffectiveOutcome(t);
  const std::vector<Asn> monitors(t.graph.Ases().begin(), t.graph.Ases().end());
  detect::DetectionConfig config;
  const detect::DetectionResult right =
      detect::EvaluateDetectionOnOutcome(t.graph, outcome, monitors, config);
  Violations clean;
  CheckDetection(t.graph, outcome, monitors, config, right, clean);
  EXPECT_TRUE(clean.empty()) << clean.front();

  detect::DetectionResult wrong = right;
  wrong.detected_high = !wrong.detected_high;
  Violations corrupted;
  CheckDetection(t.graph, outcome, monitors, config, wrong, corrupted);
  EXPECT_FALSE(corrupted.empty());
}

}  // namespace
}  // namespace perfbench

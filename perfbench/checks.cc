#include "checks.h"

#include <algorithm>
#include <set>
#include <unordered_set>

#include "attack/interceptor.h"
#include "bgp/propagation.h"
#include "check/invariants.h"
#include "check/reference_engine.h"
#include "detect/monitors.h"
#include "util/strings.h"

namespace perfbench {

namespace {

using util::Format;

std::string Pair(Asn victim, Asn attacker) {
  return Format("victim AS%u attacker AS%u", static_cast<unsigned>(victim),
                static_cast<unsigned>(attacker));
}

// Best paths at `monitors` (the attacker excluded, routeless monitors
// skipped) — the observation sets the detector is fed.
template <typename State>
MonitorPaths PathsAt(const State& state, const std::vector<Asn>& monitors,
                     Asn attacker) {
  MonitorPaths out;
  for (Asn m : monitors) {
    if (m == attacker) continue;
    const auto& best = state.BestAt(m);
    if (best.has_value()) out.emplace_back(m, best->path);
  }
  return out;
}

// Attack-free and attacked states recomputed from scratch by the full
// engine, with the pollution accounting of the paper (n-2 denominator).
struct FullRecompute {
  bgp::PropagationResult before;
  bgp::PropagationResult after;
  double fraction_before = 0;
  double fraction_after = 0;
  std::vector<Asn> newly_polluted;
};

FullRecompute Recompute(const topo::AsGraph& graph, Asn victim, Asn attacker,
                        int lambda, bool export_stripped_to_peers) {
  const bgp::PropagationSimulator engine(graph);
  attack::AsppInterceptor::Config config;
  config.attacker = attacker;
  config.victim = victim;
  config.export_stripped_to_peers = export_stripped_to_peers;
  attack::AsppInterceptor interceptor(config);
  FullRecompute r{engine.Run(VictimAnnouncement(victim, lambda)), {}, 0, 0, {}};
  r.after = engine.Resume(r.before, &interceptor, {attacker});
  const std::vector<Asn> before_set = r.before.AsesTraversing(attacker);
  const std::vector<Asn> after_set = r.after.AsesTraversing(attacker);
  const double denom = static_cast<double>(graph.NumAses() - 2);
  r.fraction_before = static_cast<double>(before_set.size()) / denom;
  r.fraction_after = static_cast<double>(after_set.size()) / denom;
  const std::unordered_set<Asn> was(before_set.begin(), before_set.end());
  for (Asn asn : after_set) {
    if (!was.contains(asn)) r.newly_polluted.push_back(asn);
  }
  return r;
}

const util::Json* Field(const util::Json& response, const char* key,
                        const std::string& context, Violations& out) {
  const util::Json* field = response.Find(key);
  if (field == nullptr) {
    out.push_back(context + ": response lacks \"" + key + "\"");
  }
  return field;
}

bool ResponseOk(const util::Json& response, const std::string& context,
                Violations& out) {
  const util::Json* ok = response.IsObject() ? response.Find("ok") : nullptr;
  if (ok == nullptr || !ok->AsBool()) {
    out.push_back(context + ": response is not ok: " + response.ToString(-1));
    return false;
  }
  return true;
}

void ExpectNumber(const util::Json& response, const char* key, double want,
                  const std::string& context, Violations& out) {
  const util::Json* field = Field(response, key, context, out);
  if (field != nullptr && field->AsDouble() != want) {
    out.push_back(Format("%s: served %s = %.17g, recomputed %.17g",
                         context.c_str(), key, field->AsDouble(), want));
  }
}

}  // namespace

bgp::Announcement VictimAnnouncement(Asn victim, int lambda) {
  bgp::Announcement announcement;
  announcement.origin = victim;
  announcement.prepends.SetDefault(victim, lambda);
  return announcement;
}

void CheckAgainstReference(const topo::AsGraph& graph,
                           const attack::AttackOutcome& outcome,
                           bool export_stripped_to_peers, Violations& out) {
  const check::ReferenceEngine reference(graph);
  const check::ReferenceEngine::Outcome want = reference.RunInterception(
      VictimAnnouncement(outcome.victim, outcome.lambda), outcome.attacker,
      /*violate_valley_free=*/false, export_stripped_to_peers);
  const std::string context = Pair(outcome.victim, outcome.attacker);
  if (want.fraction_before != outcome.fraction_before ||
      want.fraction_after != outcome.fraction_after) {
    out.push_back(Format("%s: fractions %.17g/%.17g, reference %.17g/%.17g",
                         context.c_str(), outcome.fraction_before,
                         outcome.fraction_after, want.fraction_before,
                         want.fraction_after));
  }
  if (want.newly_polluted != outcome.newly_polluted) {
    out.push_back(Format("%s: %zu newly polluted ASes, reference %zu (or a "
                         "different set)",
                         context.c_str(), outcome.newly_polluted.size(),
                         want.newly_polluted.size()));
  }
}

void CheckFullScale(const topo::AsGraph& graph,
                    const attack::AttackOutcome& outcome,
                    bool export_stripped_to_peers, Violations& out) {
  check::Invariants::CheckConvergedState(graph, *outcome.before, out);
  check::Invariants::CheckInterception(graph, outcome, out);
  const FullRecompute want =
      Recompute(graph, outcome.victim, outcome.attacker, outcome.lambda,
                export_stripped_to_peers);
  const std::string context = Pair(outcome.victim, outcome.attacker);
  if (want.before.BestRoutes() != outcome.before->BestRoutes()) {
    out.push_back(context + ": baseline differs from a fresh full-engine run");
  }
  if (want.fraction_before != outcome.fraction_before ||
      want.fraction_after != outcome.fraction_after) {
    out.push_back(Format("%s: fractions %.17g/%.17g, full engine %.17g/%.17g",
                         context.c_str(), outcome.fraction_before,
                         outcome.fraction_after, want.fraction_before,
                         want.fraction_after));
  }
  if (want.newly_polluted != outcome.newly_polluted) {
    out.push_back(Format("%s: %zu newly polluted ASes, full engine %zu (or a "
                         "different set)",
                         context.c_str(), outcome.newly_polluted.size(),
                         want.newly_polluted.size()));
  }
}

void CheckDetection(const topo::AsGraph& graph,
                    const attack::AttackOutcome& outcome,
                    const std::vector<Asn>& monitors,
                    const detect::DetectionConfig& config,
                    const detect::DetectionResult& result, Violations& out) {
  const std::string context = Pair(outcome.victim, outcome.attacker);
  const bool effective = !outcome.newly_polluted.empty();
  if (result.effective != effective) {
    out.push_back(context + ": detection 'effective' disagrees with the "
                            "outcome's polluted set");
  }
  detect::DetectionResult replay;
  if (effective) {
    detect::AsppDetector::Options options;
    options.enable_hints = config.hints;
    options.enable_victim_policy = config.victim_aware;
    const detect::AsppDetector detector(&graph, options);
    bgp::PrependPolicy victim_policy;
    victim_policy.SetDefault(outcome.victim, outcome.lambda);
    const bgp::PrependPolicy* policy =
        config.victim_aware ? &victim_policy : nullptr;
    const MonitorPaths before =
        PathsAt(*outcome.before, monitors, outcome.attacker);
    std::set<int> rounds;
    for (Asn m : monitors) {
      if (m == outcome.attacker) continue;
      const int r = outcome.after.FirstChangeRound(m);
      if (r >= 0) rounds.insert(r);
    }
    for (int round : rounds) {
      MonitorPaths current;
      for (Asn m : monitors) {
        if (m == outcome.attacker) continue;
        const int changed = outcome.after.FirstChangeRound(m);
        const auto& best = (changed >= 0 && changed <= round)
                               ? outcome.after.BestAt(m)
                               : outcome.before->BestAt(m);
        if (best.has_value()) current.emplace_back(m, best->path);
      }
      const std::vector<detect::Alarm> alarms =
          detector.Scan(outcome.victim, before, current, policy);
      check::Invariants::CheckAlarmsJustified(outcome.victim, before, current,
                                              alarms, policy, out);
      if (alarms.empty()) continue;
      replay.detected = true;
      replay.detected_high = detect::HasHighConfidence(alarms);
      replay.detection_round = round;
      break;
    }
  }
  if (replay.detected != result.detected ||
      replay.detected_high != result.detected_high ||
      replay.detection_round != result.detection_round) {
    out.push_back(Format("%s: detection verdict (%d,%d,round %d) differs "
                         "from a re-run of the same replay (%d,%d,round %d)",
                         context.c_str(), result.detected, result.detected_high,
                         result.detection_round, replay.detected,
                         replay.detected_high, replay.detection_round));
  }
}

void CheckServedRoute(const topo::AsGraph& graph, Asn origin, Asn observer,
                      int lambda, const util::Json& response,
                      Violations& out) {
  const std::string context = Format("route origin AS%u observer AS%u",
                                     static_cast<unsigned>(origin),
                                     static_cast<unsigned>(observer));
  if (!ResponseOk(response, context, out)) return;
  const util::Json* found = Field(response, "found", context, out);
  if (found == nullptr) return;
  if (!found->AsBool()) {
    out.push_back(context + ": no route on a connected graph");
    return;
  }
  const util::Json* text = Field(response, "path", context, out);
  if (text == nullptr) return;
  const std::optional<bgp::AsPath> path =
      bgp::AsPath::FromString(text->AsString());
  if (!path.has_value()) {
    out.push_back(context + ": unparsable path '" + text->AsString() + "'");
    return;
  }
  check::PathChecks checks;
  checks.origin = origin;
  checks.max_origin_padding = lambda;
  checks.require_valley_free = true;
  check::Invariants::CheckPath(graph, observer, *path, checks, out);
  if (path->OriginPadding() != lambda ||
      path->TotalPadding() != static_cast<std::size_t>(lambda - 1)) {
    out.push_back(Format("%s: path %s should carry exactly %d origin copies "
                         "and no other padding",
                         context.c_str(), path->ToString().c_str(), lambda));
  }
  ExpectNumber(response, "hops", static_cast<double>(path->Length()), context,
               out);
}

void CheckServedImpact(const topo::AsGraph& graph, Asn victim, Asn attacker,
                       int lambda, const util::Json& response,
                       Violations& out) {
  const std::string context = "impact " + Pair(victim, attacker);
  if (!ResponseOk(response, context, out)) return;
  const FullRecompute want =
      Recompute(graph, victim, attacker, lambda, /*export_stripped_to_peers=*/true);
  ExpectNumber(response, "lambda", lambda, context, out);
  ExpectNumber(response, "fraction_before", want.fraction_before, context, out);
  ExpectNumber(response, "fraction_after", want.fraction_after, context, out);
  ExpectNumber(response, "newly_polluted",
               static_cast<double>(want.newly_polluted.size()), context, out);
  ExpectNumber(response, "reachable_before",
               static_cast<double>(want.before.ReachableCount()), context, out);
  ExpectNumber(response, "reachable_after",
               static_cast<double>(want.after.ReachableCount()), context, out);
}

void CheckServedDetect(const topo::AsGraph& graph, Asn victim, Asn attacker,
                       int lambda, std::size_t monitor_count,
                       const util::Json& response, Violations& out) {
  const std::string context = "detect " + Pair(victim, attacker);
  if (!ResponseOk(response, context, out)) return;
  const FullRecompute state =
      Recompute(graph, victim, attacker, lambda, /*export_stripped_to_peers=*/true);
  const std::vector<Asn> monitors =
      detect::TopDegreeMonitors(graph, monitor_count);
  const MonitorPaths previous = PathsAt(state.before, monitors, attacker);
  const MonitorPaths current = PathsAt(state.after, monitors, attacker);
  const bgp::Announcement announcement = VictimAnnouncement(victim, lambda);
  const detect::AsppDetector detector(&graph);
  std::vector<detect::Alarm> alarms =
      detector.Scan(victim, previous, current, &announcement.prepends);
  std::sort(alarms.begin(), alarms.end(), detect::AlarmLess);
  check::Invariants::CheckAlarmsJustified(victim, previous, current, alarms,
                                          &announcement.prepends, out);

  const util::Json* served = Field(response, "alarms", context, out);
  if (served == nullptr) return;
  bool same = served->IsArray() && served->Items().size() == alarms.size();
  for (std::size_t i = 0; same && i < alarms.size(); ++i) {
    const util::Json& entry = served->Items()[i];
    const util::Json* confidence = entry.Find("confidence");
    const util::Json* suspect = entry.Find("suspect");
    const util::Json* observer = entry.Find("observer");
    const util::Json* pads = entry.Find("pads_removed");
    const bool high = alarms[i].confidence == detect::Alarm::Confidence::kHigh;
    same = confidence != nullptr && suspect != nullptr &&
           observer != nullptr && pads != nullptr &&
           confidence->AsString() == (high ? "high" : "possible") &&
           suspect->AsDouble() == alarms[i].suspect &&
           observer->AsDouble() == alarms[i].observer &&
           pads->AsDouble() == alarms[i].pads_removed;
  }
  if (!same) {
    out.push_back(Format("%s: served alarms differ from a full-engine "
                         "recomputation (%zu alarm(s))",
                         context.c_str(), alarms.size()));
  }
  const util::Json* high = Field(response, "high_confidence", context, out);
  if (high != nullptr && high->AsBool() != detect::HasHighConfidence(alarms)) {
    out.push_back(context + ": high_confidence flag disagrees with the alarms");
  }
}

}  // namespace perfbench

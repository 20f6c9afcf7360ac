// serve-skewed: the default serving stack (snapshot epoch + QueryService +
// ReactorServer with default options, pool sized to the machine) on
// loopback, driven by the benchmark's own client.
//
// Inputs: the default 3,850-AS topology and a snapshot carrying baselines
// converged in advance for a fixed pool of 64 victims (written by
// PrepareServe, the checkout's own data::WriteSnapshotFile). Request i is
// a pure function of (--seed, i): op impact:route:detect = 60:25:10, the
// what-if weights of load::WorkloadOptions' default mix; the victim
// Zipf(s = 1.1)-distributed over the pool, attacker and observer uniform
// over all ASes. A bounded, skewed victim pool keeps memory and latency
// steady; repeated (victim, attacker) pairs hit the result cache. The pool
// size, the exponent and the open-loop rate are chosen, not measured; see
// README.md.
//
// Phases (each request timed on the client):
//  * open loop, the first third of --seconds: 2000 requests/s over 4
//    connections from one busy-polling thread; latency runs from each
//    request's scheduled send instant (raw samples, reported per layer as
//    load.open_loop_*), and the sender's own lateness as load.send_lag_ms;
//  * closed loop, the last two thirds: nproc clients, one connection and one
//    outstanding request each. Throughput counts ok answers only; the gated
//    latencies are these round trips, because open-loop latencies of tens
//    of microseconds move with the host from one process to the next.
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <deque>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <thread>

#include "attack/baseline_cache.h"
#include "checks.h"
#include "data/snapshot.h"
#include "detect/monitors.h"
#include "layers.h"
#include "serve/epoch.h"
#include "serve/reactor.h"
#include "topology/generator.h"
#include "util/json.h"
#include "util/metrics.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "workloads.h"

namespace perfbench {

namespace {

// impact, route and detect weights of load::WorkloadOptions().mix; its
// stats and health entries are left out, as they are no what-if queries.
constexpr std::uint64_t kImpactWeight = 60;
constexpr std::uint64_t kRouteWeight = 25;
constexpr std::uint64_t kDetectWeight = 10;
constexpr std::size_t kVictimPool = 64;
constexpr double kZipfExponent = 1.1;
constexpr double kOpenLoopRate = 2000;  // requests/s, well below saturation
constexpr unsigned kOpenLoopConnections = 4;  // fewer if nproc is smaller
constexpr int kServedLambda = 4;       // serve::ServiceOptions default
constexpr std::size_t kServedMonitors = 30;  // serve::ServiceOptions default
constexpr std::size_t kLayerInstances = 12;
constexpr std::size_t kImpactSamples = 16;
constexpr std::size_t kDetectSamples = 8;
// Closed-loop answers kept whole per pass for the checks and the replay.
constexpr std::size_t kKeptAnswers = 40000;

std::string SnapshotPath(const Options& options) {
  return options.work_dir + "/serve.snap";
}

enum class Kind { kImpact, kRoute, kDetect };

struct Request {
  Kind kind = Kind::kImpact;
  Asn victim = 0;  // the origin of a route request
  Asn other = 0;   // attacker, or the route's observer
  std::string line;
};

// Request i of the stream, a pure function of (seed, i).
class RequestStream {
 public:
  RequestStream(std::uint64_t seed, std::vector<Asn> pool,
                std::span<const Asn> ases)
      : seed_(seed), pool_(std::move(pool)), ases_(ases.begin(), ases.end()) {
    double total = 0;
    for (std::size_t r = 0; r < pool_.size(); ++r) {
      total += 1.0 / std::pow(static_cast<double>(r + 1), kZipfExponent);
      cdf_.push_back(total);
    }
    for (double& c : cdf_) c /= total;
  }

  Request At(std::uint64_t i) const {
    util::Rng rng(util::DeriveSeed(seed_ ^ 0x5e7e5e7eULL, i));
    Request r;
    const std::uint64_t op =
        rng.Below(kImpactWeight + kRouteWeight + kDetectWeight);
    r.kind = op < kImpactWeight                  ? Kind::kImpact
             : op < kImpactWeight + kRouteWeight ? Kind::kRoute
                                                 : Kind::kDetect;
    const double u = static_cast<double>(rng.Below(1ULL << 53)) /
                     static_cast<double>(1ULL << 53);
    const std::size_t rank = static_cast<std::size_t>(
        std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
    r.victim = pool_[std::min(rank, pool_.size() - 1)];
    do {
      r.other = ases_[rng.Below(ases_.size())];
    } while (r.other == r.victim);
    const std::string v = std::to_string(r.victim);
    const std::string o = std::to_string(r.other);
    switch (r.kind) {
      case Kind::kImpact:
        r.line = "{\"op\":\"impact\",\"victim\":" + v + ",\"attacker\":" + o + "}";
        break;
      case Kind::kRoute:
        r.line = "{\"op\":\"route\",\"origin\":" + v + ",\"observer\":" + o + "}";
        break;
      case Kind::kDetect:
        r.line = "{\"op\":\"detect\",\"victim\":" + v + ",\"attacker\":" + o + "}";
        break;
    }
    return r;
  }

 private:
  std::uint64_t seed_;
  std::vector<Asn> pool_;
  std::vector<Asn> ases_;
  std::vector<double> cdf_;
};

// One answered (or unanswered) request.
struct Sample {
  std::uint64_t index = 0;
  double latency_us = -1;  // < 0: no answer
  bool ok = false;         // answered with "ok":true
  std::string response;    // may be dropped once `ok` is known
};

bool AnsweredOk(const std::string& response) {
  return response.starts_with("{\"ok\":true");
}

int Connect(int port) {
  const int fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    close(fd);
    return -1;
  }
  const int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  // A server that stops answering fails the request instead of hanging
  // the run.
  timeval timeout{};
  timeout.tv_sec = 10;
  setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  return fd;
}

bool WriteAll(int fd, const std::string& data) {
  std::size_t done = 0;
  while (done < data.size()) {
    const ssize_t n = write(fd, data.data() + done, data.size() - done);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    done += static_cast<std::size_t>(n);
  }
  return true;
}

// Blocking read of one '\n'-terminated line (buffer carries leftovers).
bool ReadLine(int fd, std::string& buffer, std::string* line) {
  while (true) {
    const std::size_t nl = buffer.find('\n');
    if (nl != std::string::npos) {
      line->assign(buffer, 0, nl);
      buffer.erase(0, nl + 1);
      return true;
    }
    char chunk[16384];
    const ssize_t n = read(fd, chunk, sizeof(chunk));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    buffer.append(chunk, static_cast<std::size_t>(n));
  }
}

struct OpenLoopStats {
  std::vector<Sample> samples;
  std::vector<double> send_lag_ms;
};

// Open loop: request i is due at start + i/rate, whatever the server does.
OpenLoopStats RunOpenLoop(int port, const RequestStream& stream,
                          unsigned connections, double seconds,
                          Tracer& tracer) {
  OpenLoopStats stats;
  const std::uint64_t planned =
      static_cast<std::uint64_t>(std::floor(seconds * kOpenLoopRate));
  stats.samples.resize(planned);
  std::vector<std::uint64_t> due(planned);
  struct Conn {
    int fd = -1;
    std::string out;
    std::string in;
    std::deque<std::uint64_t> waiting;
  };
  std::vector<Conn> conns(connections);
  const int ep = epoll_create1(EPOLL_CLOEXEC);
  bool ok = ep >= 0;
  for (unsigned c = 0; ok && c < connections; ++c) {
    conns[c].fd = Connect(port);
    ok = conns[c].fd >= 0;
    if (!ok) break;
    fcntl(conns[c].fd, F_SETFL, fcntl(conns[c].fd, F_GETFL) | O_NONBLOCK);
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u32 = static_cast<std::uint32_t>(c);
    epoll_ctl(ep, EPOLL_CTL_ADD, conns[c].fd, &ev);
  }
  const auto flush = [&](Conn& conn, int c) {
    while (!conn.out.empty()) {
      const ssize_t n = write(conn.fd, conn.out.data(), conn.out.size());
      if (n > 0) {
        conn.out.erase(0, static_cast<std::size_t>(n));
      } else if (n < 0 && errno == EINTR) {
        continue;
      } else {
        break;
      }
    }
    epoll_event ev{};
    ev.events = EPOLLIN | (conn.out.empty() ? 0u : EPOLLOUT);
    ev.data.u32 = static_cast<std::uint32_t>(c);
    epoll_ctl(ep, EPOLL_CTL_MOD, conn.fd, &ev);
  };

  const std::uint64_t start = Tracer::NowNs() + 5'000'000;  // 5 ms to settle
  const double interval_ns = 1e9 / kOpenLoopRate;
  for (std::uint64_t i = 0; i < planned; ++i) {
    due[i] = start + static_cast<std::uint64_t>(static_cast<double>(i) * interval_ns);
    stats.samples[i].index = i;
  }
  std::uint64_t next = 0;
  std::uint64_t answered = 0;
  std::uint64_t deadline = 0;  // set once everything is sent
  while (ok && answered < planned) {
    const std::uint64_t now = Tracer::NowNs();
    while (next < planned && due[next] <= now) {
      const int c = static_cast<int>(next % connections);
      conns[c].out += stream.At(next).line;
      conns[c].out += '\n';
      conns[c].waiting.push_back(next);
      stats.send_lag_ms.push_back(static_cast<double>(Tracer::NowNs() - due[next]) / 1e6);
      flush(conns[c], c);
      ++next;
    }
    if (next == planned && deadline == 0) deadline = Tracer::NowNs() + 15'000'000'000ULL;
    if (deadline != 0 && Tracer::NowNs() > deadline) break;
    // Busy-poll: the sender keeps its core, so neither its send instants
    // nor its receive timestamps wait for a wakeup of its own.
    epoll_event events[16];
    const int n = epoll_wait(ep, events, 16, 0);
    for (int e = 0; e < n; ++e) {
      const std::uint32_t c = events[e].data.u32;
      Conn& conn = conns[c];
      if (events[e].events & EPOLLOUT) flush(conn, static_cast<int>(c));
      if (!(events[e].events & (EPOLLIN | EPOLLHUP | EPOLLERR))) continue;
      char chunk[65536];
      while (true) {
        const ssize_t got = read(conn.fd, chunk, sizeof(chunk));
        if (got > 0) {
          conn.in.append(chunk, static_cast<std::size_t>(got));
          continue;
        }
        if (got < 0 && errno == EINTR) continue;
        if (got == 0) ok = false;  // server closed the connection
        break;
      }
      const std::uint64_t recv_ns = Tracer::NowNs();
      std::size_t nl;
      while ((nl = conn.in.find('\n')) != std::string::npos &&
             !conn.waiting.empty()) {
        const std::uint64_t idx = conn.waiting.front();
        conn.waiting.pop_front();
        Sample& s = stats.samples[idx];
        s.response.assign(conn.in, 0, nl);
        conn.in.erase(0, nl + 1);
        s.latency_us = static_cast<double>(recv_ns - due[idx]) / 1e3;
        s.ok = AnsweredOk(s.response);
        tracer.Record("load.request", idx + 1, due[idx], recv_ns);
        ++answered;
      }
    }
  }
  for (Conn& conn : conns) {
    if (conn.fd >= 0) close(conn.fd);
  }
  if (ep >= 0) close(ep);
  return stats;
}

struct ClosedLoopStats {
  // The first answers of each client, kept whole for the checks.
  std::vector<Sample> samples;
  // Round-trip time (ms) of every ok answer.
  std::vector<float> ok_latency_ms;
  // Every request sent, and every one answered ok, kept or not.
  std::uint64_t sent = 0;
  std::uint64_t ok = 0;
  double seconds = 0;
};

// Closed loop: `clients` connections, each waiting for its answer before
// sending the next request; request indices are handed out from `first` on.
// Only the first answers are stored, so client memory (part of peak_rss_mb)
// does not grow with the server's throughput.
ClosedLoopStats RunClosedLoop(int port, const RequestStream& stream,
                              unsigned clients, double seconds,
                              std::uint64_t first, Tracer& tracer) {
  std::atomic<std::uint64_t> next{first};
  std::atomic<std::uint64_t> sent{0};
  std::atomic<std::uint64_t> ok{0};
  std::vector<std::vector<Sample>> per_client(clients);
  std::vector<std::vector<float>> per_client_ms(clients);
  const Clock::time_point start = Clock::now();
  const Clock::time_point stop =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  std::vector<std::thread> threads;
  const std::size_t keep = kKeptAnswers / clients;
  for (unsigned c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      const int fd = Connect(port);
      std::string buffer;
      std::uint64_t my_sent = 0;
      std::uint64_t my_ok = 0;
      while (Clock::now() < stop) {
        Sample s;
        s.index = next.fetch_add(1);
        ++my_sent;
        const std::uint64_t t0 = Tracer::NowNs();
        if (fd >= 0 && WriteAll(fd, stream.At(s.index).line + "\n") &&
            ReadLine(fd, buffer, &s.response)) {
          const std::uint64_t t1 = Tracer::NowNs();
          s.latency_us = static_cast<double>(t1 - t0) / 1e3;
          s.ok = AnsweredOk(s.response);
          tracer.Record("load.request", s.index + 1, t0, t1);
        }
        my_ok += s.ok ? 1 : 0;
        if (s.ok) {
          per_client_ms[c].push_back(static_cast<float>(s.latency_us / 1e3));
        }
        const bool answered = s.latency_us >= 0;
        if (per_client[c].size() < keep) per_client[c].push_back(std::move(s));
        if (!answered) break;
      }
      sent += my_sent;
      ok += my_ok;
      if (fd >= 0) close(fd);
    });
  }
  for (std::thread& t : threads) t.join();
  ClosedLoopStats stats;
  stats.seconds = SecondsSince(start);
  stats.sent = sent.load();
  stats.ok = ok.load();
  for (auto& samples : per_client) {
    for (Sample& s : samples) stats.samples.push_back(std::move(s));
  }
  for (const auto& ms : per_client_ms) {
    stats.ok_latency_ms.insert(stats.ok_latency_ms.end(), ms.begin(), ms.end());
  }
  std::sort(stats.samples.begin(), stats.samples.end(),
            [](const Sample& a, const Sample& b) { return a.index < b.index; });
  return stats;
}

std::shared_ptr<serve::Epoch> LoadEpoch(const std::string& path,
                                        std::uint64_t id, Result& result) {
  std::shared_ptr<serve::Epoch> epoch;
  const std::string err =
      serve::MakeSnapshotEpoch(path, id, serve::ServiceOptions(), &epoch);
  if (!err.empty()) {
    result.Check("snapshot", {err});
    return nullptr;
  }
  return epoch;
}

}  // namespace

int PrepareServe(const Options& options) {
  const std::uint64_t t0 = Tracer::NowNs();
  const topo::GeneratedTopology topology =
      topo::GenerateInternetTopology(topo::GeneratorParams());
  const double generate_ms = static_cast<double>(Tracer::NowNs() - t0) / 1e6;
  const topo::AsGraph& graph = topology.graph;

  // The pool is the same for every seed: which victims sit at the head of
  // the Zipf ranking sets much of the per-request cost, and that should not
  // swing with the seed. The seed varies the request stream.
  util::Rng rng(0x9001);
  std::vector<Asn> ases(graph.Ases().begin(), graph.Ases().end());
  std::vector<Asn> victims;
  std::set<Asn> chosen;
  while (victims.size() < kVictimPool) {
    const Asn v = ases[rng.Below(ases.size())];
    if (chosen.insert(v).second) victims.push_back(v);
  }
  attack::BaselineCache cache(graph);
  std::vector<std::shared_ptr<const bgp::PropagationResult>> baselines(
      victims.size());
  util::ThreadPool pool(options.threads);
  pool.ParallelFor(victims.size(), [&](std::size_t i) {
    baselines[i] = cache.Get(VictimAnnouncement(victims[i], kServedLambda));
  });
  const std::string path = SnapshotPath(options);
  const std::string err = data::WriteSnapshotFile(
      path, graph, bgp::PrependPolicy(), baselines, "perfbench");
  if (!err.empty()) {
    std::fprintf(stderr, "error writing %s: %s\n", path.c_str(), err.c_str());
    return 1;
  }
  std::ofstream meta(path + ".meta");
  meta.precision(17);
  meta << generate_ms << "\n";
  return meta.good() ? 0 : 1;
}

Result RunServe(const Options& options) {
  Result result;
  const std::string path = SnapshotPath(options);
  Tracer tracer(options.trace);

  // --- cold set-up: snapshot load + baseline warm-up + listening server ---
  const auto metrics_before_setup = util::Metrics::Global().TakeSnapshot();
  std::uint64_t t0 = Tracer::NowNs();
  std::shared_ptr<serve::Epoch> first;
  {
    Tracer::Span span(tracer, "serve.make_epoch");
    first = LoadEpoch(path, 1, result);
  }
  const double epoch_ms = static_cast<double>(Tracer::NowNs() - t0) / 1e6;
  if (first == nullptr) return result;
  serve::EpochManager epochs;
  epochs.Install(first);
  util::ThreadPool pool(options.threads);  // asppi_serve's --threads default
  serve::ReactorServer server(&epochs, &pool, serve::ReactorOptions());
  const std::string start_err = server.Start();
  const double setup_s = SecondsSince(ProcessStart());
  if (!start_err.empty()) {
    result.Check("server", {start_err});
    return result;
  }
  const auto metrics_after_setup = util::Metrics::Global().TakeSnapshot();
  const int port = server.Port();
  const topo::AsGraph& graph = first->service->Graph();
  std::vector<Asn> victims;
  for (const auto& baseline : first->snapshot->Baselines()) {
    victims.push_back(baseline->GetAnnouncement().origin);
  }
  const RequestStream stream(options.seed, victims, graph.Ases());
  const unsigned clients = options.threads;

  // --- measured phases ------------------------------------------------------
  LayerReport layers;
  const OpenLoopStats open =
      RunOpenLoop(port, stream, std::min(kOpenLoopConnections, clients),
                  options.seconds / 3, tracer);
  const std::uint64_t closed_first = open.samples.size();
  ClosedLoopStats closed;
  ClosedLoopStats traced_closed;
  std::shared_ptr<serve::Epoch> traced_epoch;
  if (!options.trace) {
    closed = RunClosedLoop(port, stream, clients, options.seconds * 2 / 3,
                           closed_first, tracer);
  } else {
    // The same closed-loop request sequence twice, each on a fresh epoch
    // (fresh caches): untraced, then traced. The throughput ratio is the
    // tracing overhead.
    tracer.SetEnabled(false);
    const std::shared_ptr<serve::Epoch> untraced_epoch =
        LoadEpoch(path, 2, result);
    if (untraced_epoch == nullptr) return result;
    epochs.Install(untraced_epoch);
    closed = RunClosedLoop(port, stream, clients, options.seconds / 3,
                           closed_first, tracer);
    traced_epoch = LoadEpoch(path, 3, result);
    if (traced_epoch == nullptr) return result;
    epochs.Install(traced_epoch);
    tracer.SetEnabled(true);
    const auto before = util::Metrics::Global().TakeSnapshot();
    traced_closed = RunClosedLoop(port, stream, clients, options.seconds / 3,
                                  closed_first, tracer);
    const auto after = util::Metrics::Global().TakeSnapshot();
    CounterRatios(before, after, layers);
    layers.tracing_overhead_pct =
        (static_cast<double>(closed.ok) / closed.seconds) /
            (static_cast<double>(traced_closed.ok) / traced_closed.seconds) *
            100.0 -
        100.0;
  }
  std::string stats_line;
  {
    const int fd = Connect(port);
    std::string buffer;
    if (fd < 0 || !WriteAll(fd, "{\"op\":\"stats\"}\n") ||
        !ReadLine(fd, buffer, &stats_line)) {
      result.Check("stats", {"stats op unanswered"});
    }
    if (fd >= 0) close(fd);
  }
  const double peak_rss_mb = PeakRssMb();
  server.Stop();

  // --- verdict: every answer ok, route paths valid, sampled what-ifs
  //     equal to an in-process full-engine recomputation -----------------
  std::vector<const Sample*> all;
  for (const Sample& s : open.samples) all.push_back(&s);
  for (const Sample& s : closed.samples) all.push_back(&s);
  for (const Sample& s : traced_closed.samples) all.push_back(&s);
  // Closed-loop requests past the kept ones count by their verdict alone.
  result.attempted = open.samples.size() + closed.sent + traced_closed.sent;
  result.failed = (closed.sent - closed.ok) + (traced_closed.sent - traced_closed.ok);
  for (const Sample& s : open.samples) result.failed += s.ok ? 0 : 1;
  Violations route_violations;
  Violations whatif_violations;
  std::vector<std::pair<const Sample*, Request>> impacts;
  std::vector<std::pair<const Sample*, Request>> detects;
  std::set<std::pair<Asn, Asn>> seen;
  for (const Sample* s : all) {
    if (!s->ok) continue;  // counted as failed above
    const std::optional<util::Json> response = util::Json::Parse(s->response);
    const util::Json* ok = response ? response->Find("ok") : nullptr;
    if (ok == nullptr || !ok->AsBool()) {
      whatif_violations.push_back("answer does not parse as ok: " + s->response);
      continue;
    }
    Request r = stream.At(s->index);
    if (r.kind == Kind::kRoute) {
      CheckServedRoute(graph, r.victim, r.other, kServedLambda, *response,
                       route_violations);
    } else if (seen.insert({r.victim, r.other}).second) {
      (r.kind == Kind::kImpact ? impacts : detects).emplace_back(s, std::move(r));
    }
  }
  const auto sample_evenly = [](std::size_t total, std::size_t want,
                                std::size_t k) {
    return want >= total ? k : k * total / want;
  };
  for (std::size_t k = 0; k < std::min(impacts.size(), kImpactSamples); ++k) {
    const auto& [s, r] = impacts[sample_evenly(impacts.size(), kImpactSamples, k)];
    CheckServedImpact(graph, r.victim, r.other, kServedLambda,
                      *util::Json::Parse(s->response), whatif_violations);
  }
  for (std::size_t k = 0; k < std::min(detects.size(), kDetectSamples); ++k) {
    const auto& [s, r] = detects[sample_evenly(detects.size(), kDetectSamples, k)];
    CheckServedDetect(graph, r.victim, r.other, kServedLambda, kServedMonitors,
                      *util::Json::Parse(s->response), whatif_violations);
  }
  result.Check("served-route", route_violations);
  result.Check("served-whatif", whatif_violations);

  if (!options.trace) {
    result.Add("setup_s", setup_s, "s");
    result.Add("ops_per_s", static_cast<double>(closed.ok) / closed.seconds,
               "1/s");
    const std::vector<double> closed_ms(closed.ok_latency_ms.begin(),
                                        closed.ok_latency_ms.end());
    result.Add("latency_p50_ms", Quantile(closed_ms, 0.5), "ms");
    result.Add("latency_p90_ms", Quantile(closed_ms, 0.9), "ms");
    result.Add("peak_rss_mb", peak_rss_mb, "MB");
    return result;
  }

  // --- traced run: per-layer breakdown --------------------------------------
  {
    std::ifstream meta(path + ".meta");
    meta >> layers.topology_generate_ms;
  }
  const auto load_timer = [](const util::Metrics::Snapshot& snapshot) {
    const auto it = snapshot.timers.find("data.snapshot.load");
    return it == snapshot.timers.end() ? 0.0
                                       : static_cast<double>(it->second.total_ns);
  };
  layers.data_snapshot_load_ms =
      (load_timer(metrics_after_setup) - load_timer(metrics_before_setup)) / 1e6;
  layers.data_baseline_restore_ms = epoch_ms - layers.data_snapshot_load_ms;
  const util::ShardedLruCache::Stats cache = traced_epoch->service->Cache().GetStats();
  layers.serve_result_cache_hit_ratio =
      cache.hits + cache.misses == 0
          ? 0.0
          : static_cast<double>(cache.hits) /
                static_cast<double>(cache.hits + cache.misses);
  if (const auto stats = util::Json::Parse(stats_line)) {
    const util::Json* srv = stats->Find("server");
    const util::Json* batches = srv ? srv->Find("batches") : nullptr;
    const util::Json* lines = srv ? srv->Find("batched_requests") : nullptr;
    if (batches != nullptr && lines != nullptr && batches->AsDouble() > 0) {
      layers.net_batch_size = lines->AsDouble() / batches->AsDouble();
    }
  }
  std::vector<double> open_ms;
  for (const Sample& s : open.samples) {
    if (s.latency_us >= 0) open_ms.push_back(s.latency_us / 1e3);
  }
  layers.load_send_lag_ms = Quantile(open.send_lag_ms, 0.5);
  layers.load_send_lag_max_ms = Quantile(open.send_lag_ms, 1.0);
  layers.load_open_loop_p50_ms = Quantile(open_ms, 0.5);
  layers.load_open_loop_p90_ms = Quantile(open_ms, 0.9);
  layers.load_open_loop_p99_ms = Quantile(open_ms, 0.99);

  // Replay the traced closed-loop sequence in-process, in index order, on
  // a fresh epoch: per-op Handle time, and TCP time minus Handle time.
  const std::shared_ptr<serve::Epoch> replay = LoadEpoch(path, 4, result);
  if (replay == nullptr) return result;
  std::map<Kind, std::vector<double>> handle_us;
  std::vector<double> transport_us;
  for (const Sample& s : traced_closed.samples) {
    if (s.latency_us < 0) continue;
    const Request r = stream.At(s.index);
    const std::uint64_t h0 = Tracer::NowNs();
    {
      Tracer::Span span(tracer, "serve.handle", s.index + 1);
      replay->service->Handle(r.line);
    }
    const double us = static_cast<double>(Tracer::NowNs() - h0) / 1e3;
    handle_us[r.kind].push_back(us);
    transport_us.push_back(s.latency_us - us);
  }
  layers.serve_handle_us_impact = Quantile(handle_us[Kind::kImpact], 0.5);
  layers.serve_handle_us_route = Quantile(handle_us[Kind::kRoute], 0.5);
  layers.serve_handle_us_detect = Quantile(handle_us[Kind::kDetect], 0.5);
  layers.net_transport_us = Quantile(transport_us, 0.5);

  std::vector<LayerInstance> sample;
  for (const auto& [s, r] : impacts) {
    if (sample.size() == kLayerInstances) break;
    sample.push_back({r.other, r.victim, false});
  }
  const std::vector<Asn> monitors =
      detect::TopDegreeMonitors(graph, kServedMonitors);
  MeasureLayers(graph, sample, kServedLambda, &monitors, tracer, layers);
  layers.Emit(result);
  tracer.Write(options.work_dir + "/trace-" + options.workload + "-seed" +
               std::to_string(options.seed) + ".jsonl");
  return result;
}

}  // namespace perfbench

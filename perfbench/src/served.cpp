// The served workload: a spawned nubb_serve daemon driven by a closed loop
// of two client connections, each sending its own seeded request log.

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <fstream>
#include <memory>
#include <optional>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "bench_stats.hpp"
#include "net/socket.hpp"
#include "request_log.hpp"

extern char** environ;

namespace perfbench {
namespace {

constexpr int kConnections = 2;

/// "5000x1,5000x10": the daemon's --caps spelling of `caps`, one class per
/// run of equal capacities.
std::string caps_spec(const std::vector<std::uint64_t>& caps) {
  std::string spec;
  for (std::size_t i = 0; i < caps.size();) {
    std::size_t j = i;
    while (j < caps.size() && caps[j] == caps[i]) ++j;
    if (!spec.empty()) spec += ",";
    spec += std::to_string(j - i) + "x" + std::to_string(caps[i]);
    i = j;
  }
  return spec;
}

/// One spawned nubb_serve process. The destructor kills and reaps it if
/// shutdown() did not already.
class Daemon {
 public:
  Daemon(const Args& args, const ServedGame& game) {
    static std::atomic<int> counter{0};
    port_file_ = args.work_dir + "/daemon-" + std::to_string(getpid()) + "-" +
                 std::to_string(counter++) + ".port";
    ::unlink(port_file_.c_str());
    std::vector<std::string> argv = {args.serve_exe,
                                     "--caps", caps_spec(game.capacities),
                                     "--d", std::to_string(game.choices),
                                     "--stream", "v2",
                                     "--seed", std::to_string(game.seed),
                                     "--service-shards", std::to_string(kServiceShards),
                                     "--threads", std::to_string(kConnections),
                                     "--max-balls", std::to_string(kHorizon),
                                     "--host", "127.0.0.1",
                                     "--port", "0",
                                     "--port-file", port_file_};
    std::vector<char*> cargv;
    for (std::string& a : argv) cargv.push_back(a.data());
    cargv.push_back(nullptr);
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO, "/dev/null", O_WRONLY, 0);
    const int rc = posix_spawn(&pid_, args.serve_exe.c_str(), &actions, nullptr, cargv.data(),
                               environ);
    posix_spawn_file_actions_destroy(&actions);
    if (rc != 0) throw std::runtime_error("cannot spawn " + args.serve_exe);
    wait_for_port();
  }

  ~Daemon() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      int status = 0;
      ::waitpid(pid_, &status, 0);
    }
    ::unlink(port_file_.c_str());
  }

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  int pid() const noexcept { return pid_; }

  nubb::SocketChannel connect() const { return nubb::SocketChannel::connect("127.0.0.1", port_); }

  /// Sends Shutdown on a fresh connection (close every other connection
  /// first: the daemon drains sessions before exiting) and reaps the
  /// process. Returns false when it had to be killed.
  bool shutdown() {
    bool clean = true;
    try {
      nubb::SocketChannel ch = connect();
      nubb::round_trip<nubb::ShutdownResponse>(ch, nubb::ShutdownRequest{});
    } catch (const std::exception&) {
      clean = false;
    }
    const std::int64_t deadline = now_ns() + 10'000'000'000LL;
    int status = 0;
    while (::waitpid(pid_, &status, WNOHANG) == 0) {
      if (now_ns() > deadline) {
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, &status, 0);
        clean = false;
        break;
      }
      ::usleep(1000);
    }
    pid_ = -1;
    return clean && WIFEXITED(status) && WEXITSTATUS(status) == 0;
  }

 private:
  void wait_for_port() {
    const std::int64_t deadline = now_ns() + 120'000'000'000LL;
    for (;;) {
      std::ifstream in(port_file_);
      unsigned port = 0;
      if (in >> port && port != 0) {
        port_ = static_cast<std::uint16_t>(port);
        return;
      }
      int status = 0;
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        throw std::runtime_error("nubb_serve exited before listening");
      }
      if (now_ns() > deadline) throw std::runtime_error("nubb_serve did not start listening");
      ::usleep(200);
    }
  }

  pid_t pid_ = -1;
  std::uint16_t port_ = 0;
  std::string port_file_;
};

/// What one connection saw during one phase.
struct ClientResult {
  std::array<std::vector<double>, kOpCount> latency_us;
  std::uint64_t requests = 0;
  std::uint64_t balls = 0;  ///< acknowledged
  std::vector<std::uint64_t> window_requests;  ///< completed per one-second window
  std::vector<std::uint64_t> window_balls;     ///< acknowledged per window
  std::uint64_t failed = 0;
  std::vector<std::string> failures;

  void fail(const std::string& what) {
    ++failed;
    if (failures.size() < 5) failures.push_back(what);
  }
};

/// Names of the client-side codec spans, indexed by Op.
struct CodecSpanNames {
  const char* encode;
  const char* decode;
};
constexpr std::array<CodecSpanNames, kOpCount> kCodecSpans = {{
    {"protocol.encode.place", "protocol.decode.place"},
    {"protocol.encode.batch_place", "protocol.decode.batch_place"},
    {"protocol.encode.lookup", "protocol.decode.lookup"},
    {"protocol.encode.snapshot", "protocol.decode.snapshot"},
}};

/// One request over the socket with the client-side layer spans: encoding
/// the request, the round trip, decoding the response. Returns nullopt,
/// with the server's reason in `error`, when the server answered an error.
template <typename Resp, typename Req>
std::optional<Resp> traced_round_trip(nubb::Channel& ch, const Req& req, Op op,
                                      std::string& error) {
  const CodecSpanNames& names = kCodecSpans[static_cast<std::size_t>(op)];
  nubb::WireWriter w;
  {
    ScopedSpan span(names.encode);
    req.encode(w);
  }
  nubb::Frame frame;
  {
    ScopedSpan span("socket.round_trip");
    ch.send_frame(Req::kType, w.bytes());
    if (!ch.receive_frame(frame)) throw nubb::WireError("daemon closed the connection");
  }
  ScopedSpan span(names.decode);
  if (frame.type == nubb::MessageType::kErrorResponse) {
    error = nubb::decode_message<nubb::ErrorResponse>(frame).message;
    return std::nullopt;
  }
  return nubb::decode_message<Resp>(frame);
}

void client_loop(nubb::Channel& ch, RequestLog& log, const std::vector<std::uint64_t>& caps,
                 std::int64_t start, std::int64_t deadline, ClientResult& r) {
  const std::size_t windows = r.window_requests.size();
  const std::int64_t window_ns = (deadline - start) / static_cast<std::int64_t>(windows);
  try {
    while (now_ns() < deadline) {
      const LoggedRequest req = log.next();
      const std::uint64_t balls_before = r.balls;
      const std::int64_t t0 = now_ns();
      bool ok = true;
      std::string error;
      {
        ScopedSpan span("request");
        switch (req.op) {
          case Op::kPlace: {
            const auto resp =
                traced_round_trip<nubb::PlaceResponse>(ch, nubb::PlaceRequest{}, req.op, error);
            ok = resp && place_ok(*resp, caps);
            if (ok) r.balls += 1;
            break;
          }
          case Op::kBatchPlace: {
            const auto resp = traced_round_trip<nubb::BatchPlaceResponse>(
                ch, nubb::BatchPlaceRequest{nubb::kNoTicket, req.arg, 1}, req.op, error);
            ok = resp && resp->placed == req.arg;
            if (resp) r.balls += resp->placed;
            break;
          }
          case Op::kLookup: {
            const auto resp =
                traced_round_trip<nubb::LookupResponse>(ch, nubb::LookupRequest{req.arg}, req.op,
                                                    error);
            ok = resp && lookup_ok(*resp, req.arg, caps);
            break;
          }
          case Op::kSnapshot: {
            const auto resp =
                traced_round_trip<nubb::SnapshotResponse>(ch, nubb::SnapshotRequest{}, req.op, error);
            ok = resp && snapshot_ok(*resp, caps);
            break;
          }
        }
      }
      const std::int64_t t1 = now_ns();
      const double us = static_cast<double>(t1 - t0) * 1e-3;
      ++r.requests;
      const auto window = static_cast<std::size_t>((t1 - start) / window_ns);
      if (window < windows) {
        ++r.window_requests[window];
        r.window_balls[window] += r.balls - balls_before;
      }
      if (ok) {
        r.latency_us[static_cast<std::size_t>(req.op)].push_back(us);
      } else {
        r.fail(std::string("bad ") + op_name(req.op) + " response " + error);
      }
    }
  } catch (const std::exception& e) {
    r.fail(std::string("connection failed: ") + e.what());
  }
}

struct Phase {
  double wall_s = 0.0;
  double window_s = 1.0;
  double client_cpu_s = 0.0;
  double daemon_cpu_s = 0.0;
  ClientResult total;
};

/// Both connections in a closed loop for `seconds`.
Phase run_phase(const Daemon& daemon, std::vector<nubb::SocketChannel>& channels,
                std::vector<RequestLog>& logs, const std::vector<std::uint64_t>& caps,
                double seconds) {
  // One-second windows (at least one) give per-window rates whose median
  // a short stall cannot move.
  const std::size_t windows = std::max<std::size_t>(1, static_cast<std::size_t>(seconds));
  std::vector<ClientResult> results(channels.size());
  for (ClientResult& r : results) {
    r.window_requests.assign(windows, 0);
    r.window_balls.assign(windows, 0);
  }
  Phase p;
  p.window_s = seconds / static_cast<double>(windows);
  p.total.window_requests.assign(windows, 0);
  p.total.window_balls.assign(windows, 0);
  const double c0 = self_cpu_seconds();
  const double d0 = pid_cpu_seconds(daemon.pid());
  const std::int64_t t0 = now_ns();
  const std::int64_t deadline = t0 + static_cast<std::int64_t>(seconds * 1e9);
  {
    std::vector<std::jthread> threads;
    for (std::size_t i = 0; i < channels.size(); ++i) {
      threads.emplace_back(
          [&, i] { client_loop(channels[i], logs[i], caps, t0, deadline, results[i]); });
    }
  }
  p.wall_s = static_cast<double>(now_ns() - t0) * 1e-9;
  p.client_cpu_s = self_cpu_seconds() - c0;
  p.daemon_cpu_s = pid_cpu_seconds(daemon.pid()) - d0;
  for (ClientResult& r : results) {
    for (int op = 0; op < kOpCount; ++op) {
      auto& dst = p.total.latency_us[op];
      dst.insert(dst.end(), r.latency_us[op].begin(), r.latency_us[op].end());
    }
    p.total.requests += r.requests;
    p.total.balls += r.balls;
    for (std::size_t w = 0; w < windows; ++w) {
      p.total.window_requests[w] += r.window_requests[w];
      p.total.window_balls[w] += r.window_balls[w];
    }
    p.total.failed += r.failed;
    p.total.failures.insert(p.total.failures.end(), r.failures.begin(), r.failures.end());
  }
  return p;
}

void absorb(const Phase& p, Outcome& out) {
  out.attempted += p.total.requests;
  out.failed += p.total.failed;
  for (const std::string& f : p.total.failures) {
    if (out.failures.size() < 20) out.failures.push_back(f);
  }
}

/// Median over the phase's windows of count / window length.
double window_rate(const Phase& p, const std::vector<std::uint64_t>& per_window) {
  std::vector<double> rates;
  for (const std::uint64_t c : per_window) rates.push_back(static_cast<double>(c) / p.window_s);
  return median(rates);
}

std::vector<double> all_latencies(const Phase& p) {
  std::vector<double> all;
  for (const auto& v : p.total.latency_us) all.insert(all.end(), v.begin(), v.end());
  return all;
}

/// p50 and the highest supported tail of one op's latencies, report-only.
void latency_report(const Phase& p, Op op, const std::string& prefix, bool tail,
                    std::map<std::string, Metric>& dst) {
  const auto& v = p.total.latency_us[static_cast<std::size_t>(op)];
  if (v.empty()) return;
  dst[prefix + "_p50_us"] = {median(v), "us"};
  dst[prefix + "_samples"] = {static_cast<double>(v.size()), "count"};
  if (!tail) return;
  if (const auto p99 = supported_percentile(v, 99.0)) dst[prefix + "_p99_us"] = {*p99, "us"};
  // Too few samples for any supported percentile: the maximum stands in.
  const auto t = highest_supported_percentile(v).value_or(
      TailPercentile{100.0, *std::max_element(v.begin(), v.end())});
  dst[prefix + "_tail_us"] = {t.value, "us"};
  dst[prefix + "_tail_percentile"] = {t.p, "%"};
}

/// Final state checks: one more Snapshot and Stats after both loops ended;
/// both must account for exactly the acknowledged balls.
nubb::StatsResponse final_checks(nubb::Channel& ch, std::uint64_t acked, Outcome& out) {
  out.attempted += 2;
  const auto snap = nubb::round_trip<nubb::SnapshotResponse>(ch, nubb::SnapshotRequest{});
  out.check(snap.total_balls == acked,
            "final Snapshot holds " + std::to_string(snap.total_balls) + " balls, " +
                std::to_string(acked) + " acknowledged");
  auto stats = nubb::round_trip<nubb::StatsResponse>(ch, nubb::StatsRequest{});
  out.check(stats.balls_placed == acked, "Stats.balls_placed differs from acknowledged balls");
  return stats;
}

/// Quantile of the daemon's latency histogram, interpolated linearly inside
/// the cell that holds it (the cells are 1 us wide, so the cell edge alone
/// would hide any change below a microsecond).
double histogram_quantile(const nubb::WireHistogram& h, double q) {
  const double target = q * static_cast<double>(h.total());
  double seen = static_cast<double>(h.underflow);
  if (h.total() == 0 || seen >= target) return h.lo;
  const double width = (h.hi - h.lo) / static_cast<double>(h.counts.size());
  for (std::size_t i = 0; i < h.counts.size(); ++i) {
    const double c = static_cast<double>(h.counts[i]);
    if (c > 0 && seen + c >= target) {
      return h.lo + (static_cast<double>(i) + (target - seen) / c) * width;
    }
    seen += c;
  }
  return h.hi;
}

/// socket.* and service.stats.* from a phase and the daemon's Stats.
void socket_layer_metrics(const Phase& p, const nubb::StatsResponse& stats, Outcome& out) {
  auto& pl = out.per_layer;
  std::map<std::string, Metric> lat;
  latency_report(p, Op::kPlace, "place", true, lat);
  latency_report(p, Op::kBatchPlace, "batch", true, lat);
  latency_report(p, Op::kLookup, "read", false, lat);
  for (const auto& [name, m] : lat) pl["socket." + name] = m;
  std::array<double, kOpCount> mean_ns{};
  for (const nubb::OpStat& s : stats.ops) {
    const auto type = static_cast<nubb::MessageType>(s.op);
    const double mean = s.count ? static_cast<double>(s.total_ns) / s.count : 0.0;
    if (type == nubb::MessageType::kPlaceRequest) mean_ns[0] = mean;
    if (type == nubb::MessageType::kBatchPlaceRequest) mean_ns[1] = mean;
    if (type == nubb::MessageType::kLookupRequest) mean_ns[2] = mean;
    if (type == nubb::MessageType::kSnapshotRequest) mean_ns[3] = mean;
  }
  for (int i = 0; i < kOpCount; ++i) {
    pl[std::string("service.stats.op_mean_ns.") + op_name(static_cast<Op>(i))] = {mean_ns[i],
                                                                                 "ns"};
  }
  // The daemon's histogram holds Place and BatchPlace service times; Place
  // is 90% of them, so its median is the daemon-side Place median.
  const double daemon_p50 = histogram_quantile(stats.place_latency_us, 0.50);
  pl["service.stats.place_p50_us"] = {daemon_p50, "us"};
  pl["service.stats.place_p99_us"] = {histogram_quantile(stats.place_latency_us, 0.99), "us"};
  // Round trip minus service time. The daemon's median, not its mean: a
  // Place queued behind a Snapshot's shard locks inflates the mean without
  // being transport time.
  const auto& place = p.total.latency_us[0];
  pl["socket.transport_us"] = {place.empty() ? 0.0 : median(place) - daemon_p50, "us"};
}

/// protocol.encode_ns.<op> and protocol.decode_ns.<op>: the mean of the
/// client-side codec spans of the traced requests.
void protocol_layer_metrics(const std::map<std::string, SpanTotals>& totals, Outcome& out) {
  for (int i = 0; i < kOpCount; ++i) {
    const std::string op = op_name(static_cast<Op>(i));
    for (const auto& [span, metric] :
         {std::pair{kCodecSpans[i].encode, "protocol.encode_ns." + op},
          std::pair{kCodecSpans[i].decode, "protocol.decode_ns." + op}}) {
      const auto it = totals.find(span);
      if (!out.check(it != totals.end() && it->second.count > 0,
                     std::string("no traced ") + span + " span")) {
        continue;
      }
      out.per_layer[metric] = {it->second.total_ns / static_cast<double>(it->second.count),
                               "ns"};
    }
  }
}

/// A daemon with both client connections open.
struct Session {
  std::unique_ptr<Daemon> daemon;
  std::vector<nubb::SocketChannel> channels;
};

Session open_session(const Args& args, const ServedGame& game) {
  Session s;
  s.daemon = std::make_unique<Daemon>(args, game);
  for (int i = 0; i < kConnections; ++i) s.channels.push_back(s.daemon->connect());
  return s;
}

void close_session(Session& s, Outcome& out) {
  s.channels.clear();
  out.check(s.daemon->shutdown(), "daemon did not shut down cleanly");
}

std::vector<RequestLog> client_logs(const ServedGame& game) {
  std::vector<RequestLog> logs;
  for (int i = 0; i < kConnections; ++i) {
    logs.emplace_back(nubb::mix_seed(game.seed, 0xC11E47 + i), game.capacities.size());
  }
  return logs;
}

}  // namespace

ServedGame make_serve_mixed(std::uint64_t seed) {
  ServedGame game;
  game.capacities = nubb::two_class_capacities(5000, 1, 5000, 10);
  game.choices = 2;
  game.seed = seed;
  return game;
}

void served_layer_probe(const Args& args, const ServedGame& game, double seconds,
                        Outcome& out) {
  Session s = open_session(args, game);
  std::vector<RequestLog> logs = client_logs(game);
  set_tracing(true);
  const Phase p = run_phase(*s.daemon, s.channels, logs, game.capacities, seconds);
  set_tracing(false);
  protocol_layer_metrics(summarize_spans(drain_spans()), out);
  absorb(p, out);
  const nubb::StatsResponse stats = final_checks(s.channels[0], p.total.balls, out);
  socket_layer_metrics(p, stats, out);
  close_session(s, out);
}

Outcome run_served(const Args& args) {
  Outcome out;
  const ServedGame game = make_serve_mixed(args.seed);

  // Set-up: daemon spawn -> listening -> both clients connected, repeated;
  // the last session is kept for the run.
  std::vector<double> setups;
  Session s;
  for (int i = 0; i < 15; ++i) {
    if (s.daemon) close_session(s, out);
    const std::int64_t t0 = now_ns();
    s = open_session(args, game);
    setups.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
  }
  std::vector<RequestLog> logs = client_logs(game);
  const auto& caps = game.capacities;
  std::uint64_t acked = 0;

  const Phase warm = run_phase(*s.daemon, s.channels, logs, caps, 0.3);
  absorb(warm, out);
  acked += warm.total.balls;

  if (args.trace) {
    // One-second slices alternating untraced and traced, so drift in the
    // host hits both sides of the overhead ratio alike.
    std::vector<double> plain_rates;
    std::vector<double> traced_rates;
    Phase traced;
    const int slices = std::max(2, static_cast<int>(args.seconds));
    for (int i = 0; i < slices; ++i) {
      set_tracing(i % 2 == 1);
      const Phase p = run_phase(*s.daemon, s.channels, logs, caps, args.seconds / slices);
      set_tracing(false);
      absorb(p, out);
      acked += p.total.balls;
      (i % 2 == 1 ? traced_rates : plain_rates)
          .push_back(static_cast<double>(p.total.requests) / p.wall_s);
      if (i % 2 == 1) {
        for (int op = 0; op < kOpCount; ++op) {
          auto& dst = traced.total.latency_us[op];
          dst.insert(dst.end(), p.total.latency_us[op].begin(), p.total.latency_us[op].end());
        }
      }
    }
    const nubb::StatsResponse stats = final_checks(s.channels[0], acked, out);
    close_session(s, out);
    socket_layer_metrics(traced, stats, out);
    const auto totals = summarize_spans(drain_spans());
    protocol_layer_metrics(totals, out);
    const auto& req = totals.count("request") ? totals.at("request") : SpanTotals{};
    out.per_layer["trace.unattributed_frac"] = {req.total_ns > 0 ? req.self_ns / req.total_ns : 0.0,
                                                "frac"};
    out.per_layer["trace.overhead_frac"] = {median(plain_rates) / median(traced_rates) - 1.0,
                                            "frac"};

    // The offline layers on the served bins: one traced round of the
    // max-load scenario over them, plus the in-process ladder.
    OfflineWorkload wl;
    wl.capacities = caps;
    wl.game.choices = game.choices;
    wl.game.stream = nubb::RngStream::kV2;
    wl.reps_per_round = 256;
    wl.shards = 1;
    nubb::ThreadPool pool(pool_workers());
    nubb::ScenarioSpec spec = make_spec(wl, pool);
    spec.exp.base_seed = nubb::mix_seed(args.seed, 1);
    std::vector<TracedRound> rounds{traced_round(wl, spec, out)};
    offline_layer_metrics(wl, drain_spans(), rounds, pool_workers(), out);
    sampler_layer_probes(caps, wl.game, out);
    service_layer_probes(game, out);
    return out;
  }

  const Phase p = run_phase(*s.daemon, s.channels, logs, caps, args.seconds);
  absorb(p, out);
  acked += p.total.balls;
  const double daemon_rss = pid_peak_rss_mb(s.daemon->pid());
  const nubb::StatsResponse stats = final_checks(s.channels[0], acked, out);
  close_session(s, out);

  auto& e = out.end_to_end;
  e["balls_per_s"] = {window_rate(p, p.total.window_balls), "1/s"};
  e["cpu_ns_per_ball"] = {(p.client_cpu_s + p.daemon_cpu_s) * 1e9 /
                              static_cast<double>(p.total.balls),
                          "ns"};
  e["setup_s"] = {median(setups), "s"};
  e["peak_rss_mb"] = {daemon_rss, "MB"};
  e["req_per_s"] = {window_rate(p, p.total.window_requests), "1/s"};
  e["req_p50_us"] = {median(all_latencies(p)), "us"};
  auto& r = out.report_only;
  latency_report(p, Op::kPlace, "place", true, r);
  latency_report(p, Op::kBatchPlace, "batch", true, r);
  latency_report(p, Op::kLookup, "read", false, r);
  r["daemon_place_mean_ns"] = {0.0, "ns"};
  for (const nubb::OpStat& st : stats.ops) {
    if (static_cast<nubb::MessageType>(st.op) == nubb::MessageType::kPlaceRequest && st.count) {
      r["daemon_place_mean_ns"].value = static_cast<double>(st.total_ns) / st.count;
    }
  }
  return out;
}

}  // namespace perfbench

// In-process layer probes of the traced run: sampler build and batch draw,
// scratch allocation, and the service replay ladder (typed calls, then
// StreamChannel) over one seeded log.

#include <algorithm>
#include <array>
#include <numeric>
#include <sstream>

#include "bench.hpp"
#include "bench_stats.hpp"
#include "request_log.hpp"

namespace perfbench {
namespace {

// Results of timed calls land here so the optimizer cannot drop the calls.
volatile std::uint64_t g_sink = 0;

/// Runs `fn` repeatedly until at least `min_ns` elapsed (and at least
/// once); returns nanoseconds per call.
template <typename Fn>
double time_per_call(Fn&& fn, double min_ns = 20e6) {
  std::uint64_t calls = 0;
  const std::int64_t start = now_ns();
  std::int64_t elapsed = 0;
  do {
    fn();
    ++calls;
    elapsed = now_ns() - start;
  } while (static_cast<double>(elapsed) < min_ns);
  return static_cast<double>(elapsed) / static_cast<double>(calls);
}

/// Checks one response against the request that caused it and the bins.
struct ResponseChecker {
  const std::vector<std::uint64_t>& caps;
  std::uint64_t placed = 0;  ///< balls acknowledged so far

  void place(const nubb::PlaceResponse& r, Outcome& out) {
    ++placed;
    out.check(place_ok(r, caps), "Place response out of range");
  }
  void batch(const nubb::BatchPlaceResponse& r, std::uint64_t count, Outcome& out) {
    placed += r.placed;
    out.check(r.placed == count, "BatchPlace placed != count");
  }
  void lookup(const nubb::LookupResponse& r, std::uint64_t bin, Outcome& out) {
    out.check(lookup_ok(r, bin, caps), "Lookup response out of range");
  }
  void snapshot(const nubb::SnapshotResponse& r, Outcome& out) {
    out.check(snapshot_ok(r, caps) && r.total_balls == placed,
              "Snapshot total differs from the acknowledged balls");
  }
};

}  // namespace

bool place_ok(const nubb::PlaceResponse& r, const std::vector<std::uint64_t>& caps) {
  return r.bin < caps.size() && r.capacity == caps[r.bin] && r.balls >= 1;
}

bool lookup_ok(const nubb::LookupResponse& r, std::uint64_t bin,
               const std::vector<std::uint64_t>& caps) {
  return r.bin == bin && bin < caps.size() && r.capacity == caps[bin];
}

bool snapshot_ok(const nubb::SnapshotResponse& r, const std::vector<std::uint64_t>& caps) {
  const std::uint64_t sum = std::accumulate(r.counts.begin(), r.counts.end(), std::uint64_t{0});
  return r.counts.size() == caps.size() && sum == r.total_balls;
}

nubb::ServiceConfig service_config(const ServedGame& game) {
  nubb::ServiceConfig cfg;
  cfg.capacities = game.capacities;
  cfg.game.choices = game.choices;
  cfg.game.stream = nubb::RngStream::kV2;
  cfg.seed = game.seed;
  cfg.max_balls = kHorizon;
  cfg.service_shards = kServiceShards;
  return cfg;
}

void sampler_layer_probes(const std::vector<std::uint64_t>& capacities,
                          const nubb::GameConfig& game, Outcome& out) {
  const nubb::SelectionPolicy policy = nubb::SelectionPolicy::proportional_to_capacity();
  std::vector<double> builds;
  std::vector<double> allocs;
  for (int i = 0; i < 3; ++i) {
    std::int64_t t0 = now_ns();
    const nubb::BinSampler sampler = nubb::BinSampler::from_policy(policy, capacities);
    builds.push_back(static_cast<double>(now_ns() - t0) * 1e-6);
    t0 = now_ns();
    const nubb::ReplicationScratch scratch(capacities, game.memory);
    allocs.push_back(static_cast<double>(now_ns() - t0) * 1e-6);
    g_sink = g_sink + sampler.size() + scratch.bins.size();
  }
  out.per_layer["sampler.build_ms"] = {median(builds), "ms"};
  out.per_layer["experiment.scratch_alloc_ms"] = {median(allocs), "ms"};

  // The batch draw alone over one game's d * m candidate draws.
  const nubb::BinSampler sampler = nubb::BinSampler::from_policy(policy, capacities);
  const nubb::AliasTable* table = sampler.alias_table();
  if (!out.check(table != nullptr, "proportional sampler has no alias table")) return;
  const std::uint64_t draws =
      game.choices * std::accumulate(capacities.begin(), capacities.end(), std::uint64_t{0});
  std::vector<std::uint32_t> buffer(std::min<std::uint64_t>(draws, 1u << 20));
  nubb::Xoshiro256StarStar rng(draws);
  const double ns_per_game = time_per_call(
      [&] {
        for (std::uint64_t done = 0; done < draws; done += buffer.size()) {
          const std::size_t n = std::min<std::uint64_t>(buffer.size(), draws - done);
          table->sample_fill(buffer.data(), n, rng);
        }
        g_sink = g_sink + buffer[0];
      },
      50e6);
  out.per_layer["sampler.fill_ns_per_draw"] = {ns_per_game / static_cast<double>(draws), "ns"};
}

void service_layer_probes(const ServedGame& game, Outcome& out) {
  constexpr std::size_t kRequests = 4000;  // ends on a Snapshot (kSnapshotEvery divides it)
  const std::vector<LoggedRequest> log =
      RequestLog::take(nubb::mix_seed(game.seed, 0x10C), game.capacities.size(), kRequests);
  const nubb::ServiceConfig cfg = service_config(game);

  // Rung 1: typed PlacementService calls, no wire.
  std::array<double, kOpCount> op_ns{};
  std::array<double, kOpCount> op_count{};
  double batch_balls = 0.0;
  std::uint64_t direct_fingerprint = 0;
  nubb::PlaceResponse place_resp;
  nubb::BatchPlaceResponse batch_resp;
  nubb::LookupResponse lookup_resp;
  nubb::SnapshotResponse snapshot_resp;
  {
    nubb::PlacementService service(cfg);
    ResponseChecker checker{game.capacities};
    std::uint64_t ticket = 0;
    for (const LoggedRequest& req : log) {
      const std::int64_t t0 = now_ns();
      switch (req.op) {
        case Op::kPlace: place_resp = service.place({ticket++, 1}); break;
        case Op::kBatchPlace: batch_resp = service.batch_place({ticket++, req.arg, 1}); break;
        case Op::kLookup: lookup_resp = service.lookup({req.arg}); break;
        case Op::kSnapshot: snapshot_resp = service.snapshot(); break;
      }
      const auto i = static_cast<std::size_t>(req.op);
      op_ns[i] += static_cast<double>(now_ns() - t0);
      op_count[i] += 1.0;
      switch (req.op) {
        case Op::kPlace: checker.place(place_resp, out); break;
        case Op::kBatchPlace:
          checker.batch(batch_resp, req.arg, out);
          batch_balls += static_cast<double>(req.arg);
          break;
        case Op::kLookup: checker.lookup(lookup_resp, req.arg, out); break;
        case Op::kSnapshot:
          checker.snapshot(snapshot_resp, out);
          direct_fingerprint = snapshot_resp.fingerprint;
          break;
      }
    }
    out.attempted += log.size();
  }
  for (int i = 0; i < kOpCount; ++i) {
    out.per_layer[std::string("service.direct_ns.") + op_name(static_cast<Op>(i))] = {
        op_count[i] > 0 ? op_ns[i] / op_count[i] : 0.0, "ns"};
  }
  out.per_layer["service.batch_ns_per_ball"] = {
      op_ns[static_cast<std::size_t>(Op::kBatchPlace)] / batch_balls, "ns"};

  // Rung 2: the same ticketed log through PlacementService::serve over
  // StreamChannel: codec and framing added, no syscalls.
  {
    nubb::PlacementService service(cfg);
    ResponseChecker checker{game.capacities};
    std::stringstream requests;
    std::stringstream responses;
    std::stringstream unused;
    std::uint64_t bytes = 0;
    std::uint64_t fingerprint = 0;
    const std::int64_t t0 = now_ns();
    {
      nubb::StreamChannel client(unused, requests);
      std::uint64_t ticket = 0;
      for (const LoggedRequest& req : log) {
        switch (req.op) {
          case Op::kPlace: nubb::send_message(client, nubb::PlaceRequest{ticket++, 1}); break;
          case Op::kBatchPlace:
            nubb::send_message(client, nubb::BatchPlaceRequest{ticket++, req.arg, 1});
            break;
          case Op::kLookup: nubb::send_message(client, nubb::LookupRequest{req.arg}); break;
          case Op::kSnapshot: nubb::send_message(client, nubb::SnapshotRequest{}); break;
        }
      }
      bytes += client.bytes_sent();
    }
    {
      nubb::StreamChannel server(requests, responses);
      service.serve(server);
    }
    try {
      nubb::StreamChannel reader(responses, unused);
      nubb::Frame frame;
      for (const LoggedRequest& req : log) {
        if (!out.check(reader.receive_frame(frame), "StreamChannel replay ended early")) break;
        switch (req.op) {
          case Op::kPlace:
            checker.place(nubb::decode_message<nubb::PlaceResponse>(frame), out);
            break;
          case Op::kBatchPlace:
            checker.batch(nubb::decode_message<nubb::BatchPlaceResponse>(frame), req.arg, out);
            break;
          case Op::kLookup:
            checker.lookup(nubb::decode_message<nubb::LookupResponse>(frame), req.arg, out);
            break;
          case Op::kSnapshot: {
            const auto snap = nubb::decode_message<nubb::SnapshotResponse>(frame);
            checker.snapshot(snap, out);
            fingerprint = snap.fingerprint;
            break;
          }
        }
      }
      bytes += reader.bytes_received();
    } catch (const std::exception& e) {
      out.fail(std::string("StreamChannel replay: ") + e.what());
    }
    const double elapsed = static_cast<double>(now_ns() - t0);
    out.attempted += log.size();
    out.check(fingerprint == direct_fingerprint && fingerprint != 0,
              "direct and StreamChannel replays end in different Snapshot fingerprints");
    out.per_layer["channel.replay_ns_per_req"] = {elapsed / static_cast<double>(log.size()),
                                                  "ns"};
    out.per_layer["channel.bytes_per_req"] = {
        static_cast<double>(bytes) / static_cast<double>(log.size()), "B"};
  }
}

}  // namespace perfbench

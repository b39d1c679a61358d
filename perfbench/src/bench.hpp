#pragma once
/// \file bench.hpp
/// Shared pieces of the benchmark driver: command-line arguments, the
/// outcome every workload fills (metrics, attempted and failed operations),
/// the workload definitions, and the layer probes of the traced run.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/nubb.hpp"
#include "spans.hpp"

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 0.0;             ///< required: run.py passes run_seconds
  bool trace = false;
  std::string commit = "unknown";  ///< source digest supplied by run.py
  std::string serve_exe;           ///< path of the nubb_serve binary
  std::string work_dir = ".";      ///< scratch directory inside the checkout
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What one run measured and checked. `attempted` counts the operations
/// the workload issued (replications or requests); `failed` counts failed
/// operations plus failed output checks.
struct Outcome {
  std::map<std::string, Metric> end_to_end;
  std::map<std::string, Metric> per_layer;
  std::map<std::string, Metric> report_only;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  ///< the first few failure messages

  void fail(const std::string& what);
  /// Records a failure when `ok` is false; returns `ok`.
  bool check(bool ok, const std::string& what) {
    if (!ok) fail(what);
    return ok;
  }
};

// --- host and process probes (host.cpp) ------------------------------------

/// Process CPU seconds (all threads) of this process.
double self_cpu_seconds();
/// Peak resident set (VmHWM) of this process, MB.
double self_peak_rss_mb();
/// CPU seconds and peak resident set of another process, read from /proc.
double pid_cpu_seconds(int pid);
double pid_peak_rss_mb(int pid);
/// Writes the host and provenance block as one JSON object.
void write_host_block(nubb::JsonWriter& w, const Args& args);
/// Workers of every offline workload's pool: min(hardware threads, 4).
std::size_t pool_workers();

// --- offline workload (offline.cpp) ------------------------------------------

/// A Monte-Carlo workload run through the scenario registry's max-load
/// scenario. One "round" is one complete experiment of `reps_per_round`
/// replications, `shards`-way sharded through run_shard -> parse ->
/// merge_and_report (the scripts/shard_run.sh path).
struct OfflineWorkload {
  std::vector<std::uint64_t> capacities;
  nubb::GameConfig game;
  bool profile = false;
  bool classes = false;
  std::uint64_t reps_per_round = 1;
  std::uint64_t shards = 1;
};

/// The mc_fig6 workload. Its capacities are fixed; the workload seed
/// drives the replication seeds of its rounds.
OfflineWorkload make_mc_fig6();

Outcome run_offline(const Args& args);

/// The registry's max-load scenario input for `wl`, sharing `pool`.
nubb::ScenarioSpec make_spec(const OfflineWorkload& wl, nubb::ThreadPool& pool);

/// Result of replaying one round both through the registry and through the
/// benchmark's own traced replication body with the same seed.
struct TracedRound {
  double registry_s = 0.0;
  double traced_s = 0.0;
  std::uint64_t state_bytes = 0;  ///< shard-state JSON written by the traced round
  std::uint64_t balls = 0;        ///< balls the traced round placed
};

/// Runs one registry round and one traced round with `spec.exp.base_seed`
/// and checks that the traced round's merged collectors and report equal
/// the registry's byte for byte. Spans of the traced round stay in the span
/// buffers.
TracedRound traced_round(const OfflineWorkload& wl, nubb::ScenarioSpec& spec, Outcome& out);

/// Per-layer metrics derived from the spans of traced rounds; returns the
/// per-name span totals.
std::map<std::string, SpanTotals> offline_layer_metrics(const OfflineWorkload& wl,
                                                       const std::vector<Span>& spans,
                                                       const std::vector<TracedRound>& rounds,
                                                       std::size_t workers, Outcome& out);

// --- served workload (served.cpp) --------------------------------------------

/// Bins, choices and seed of a daemon the benchmark spawns.
struct ServedGame {
  std::vector<std::uint64_t> capacities;  ///< in served bin order
  std::uint32_t choices = 2;
  std::uint64_t seed = 1;
};

/// The serve_mixed workload's bins: 5000 of capacity 1, 5000 of 10.
ServedGame make_serve_mixed(std::uint64_t seed);

Outcome run_served(const Args& args);

/// A traced closed-loop phase of two connections against a fresh daemon
/// for `seconds`; fills the protocol.*, socket.* and service.stats.* layer
/// metrics. Used by the traced run of mc_fig6.
void served_layer_probe(const Args& args, const ServedGame& game, double seconds,
                        Outcome& out);

// --- in-process layer probes (layers.cpp) --------------------------------------

/// sampler.*, experiment.scratch_alloc_ms for the given bins.
void sampler_layer_probes(const std::vector<std::uint64_t>& capacities,
                          const nubb::GameConfig& game, Outcome& out);

/// service.direct_ns.*, service.batch_ns_per_ball, channel.* :
/// replays a seeded ticketed log without a socket, directly and through
/// StreamChannel, and checks that both end in the same Snapshot
/// fingerprint.
void service_layer_probes(const ServedGame& game, Outcome& out);

/// Response checks shared by the socket loop and the in-process replays:
/// the bin exists and carries its capacity; a Snapshot covers every bin and
/// its counts add up to its total.
bool place_ok(const nubb::PlaceResponse& r, const std::vector<std::uint64_t>& caps);
bool lookup_ok(const nubb::LookupResponse& r, std::uint64_t bin,
               const std::vector<std::uint64_t>& caps);
bool snapshot_ok(const nubb::SnapshotResponse& r, const std::vector<std::uint64_t>& caps);

/// Service configuration shared by the daemon flags and the in-process
/// replays: proportional sampling, stream v2, 2 placement shards and a
/// horizon far above any run.
nubb::ServiceConfig service_config(const ServedGame& game);
inline constexpr std::size_t kServiceShards = 2;
inline constexpr std::uint64_t kHorizon = 1'000'000'000'000ULL;

}  // namespace perfbench

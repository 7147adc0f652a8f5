// Fleet-scale sweep on the region-sharded simulator (ISSUE 6): SP-P vs BP
// from 16 to 1000 replicas across four regions, a probe-staleness sweep at
// 256 replicas, and a sharded-vs-single-shard determinism pair at 1000
// replicas.
//
// Every cell runs on the ShardedSimulator (one shard per region, 4 worker
// threads) via the fleet harness, whose results are bit-identical across
// shard and thread counts — so this golden doubles as a cross-host
// determinism check for the parallel engine. The `spp_r1000_shards1` cell
// re-runs the headline cell on a single shard; its metric row must match
// `spp_r1000` exactly (finalize asserts it into `shard_determinism_ok`).
//
// Wall-clock (speedup, per-shard busy vs barrier-wait) is nondeterministic
// and deliberately absent from the rows: cells publish it through
// ShardTimingRegistry into the `skybench --timing` sidecar, where
// bench_check --timing-floors enforces the parallel speedup floor on hosts
// with enough cores.

#include <algorithm>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "bench/scenarios/scenarios.h"
#include "src/harness/fleet.h"
#include "src/harness/runner.h"

namespace skywalker {

namespace {

constexpr int kRegions = 4;
constexpr int kFleetSizes[] = {16, 64, 256, 1000};
constexpr int kStaleReplicas = 256;
constexpr int kStaleProbesMs[] = {50, 100, 400, 1600};

struct FleetCase {
  std::string label;
  int total_replicas = 0;
  PushMode push_mode = PushMode::kSelectivePending;
  SimDuration probe_interval = Milliseconds(100);
  int num_shards = kRegions;
  int num_threads = kRegions;
};

MetricRow RunFleetCase(const FleetCase& c, const ScenarioOptions& options) {
  FleetSpec spec;
  spec.topology = Topology::FourRegions();
  const int per_region = c.total_replicas / kRegions;
  spec.replicas_per_region.assign(kRegions, per_region);
  // Closed-loop load proportional to fleet size: two clients per replica
  // (one in smoke) with sub-second think times holds every scale at the
  // same busy-but-not-collapsed operating point, where push-mode gating and
  // probe staleness actually change placements.
  spec.clients_per_region = options.smoke ? per_region : per_region * 2;
  spec.client.think_time_mean = Milliseconds(500);
  spec.client.program_gap_mean = Seconds(1);
  // Small-batch replicas (paper §3.3 low band) so the operating point sits
  // near the admission cap without needing 10k+ client actors.
  spec.replica_config.max_running_requests = 8;
  spec.replica_config.kv_capacity_tokens = 24576;
  spec.lb.engine.push_mode = c.push_mode;
  spec.lb.engine.probe_interval = c.probe_interval;
  spec.warmup = options.smoke ? Seconds(2) : Seconds(10);
  spec.measure = options.smoke ? Seconds(8) : Seconds(60);
  spec.seed = MixSeed(6001, options.seed_stream);
  spec.num_shards = c.num_shards;
  spec.num_threads = c.num_threads;

  FleetResult result = RunFleetExperiment(spec);

  CellShardTiming timing;
  timing.scenario = "fig_fleet_scale";
  timing.cell = c.label;
  timing.shards = result.num_shards;
  timing.threads = result.num_threads;
  timing.wall_seconds = result.run_wall_seconds;
  timing.windows = result.windows;
  timing.per_shard = std::move(result.shard_timing);
  ShardTimingRegistry::Instance().Record(std::move(timing));

  MetricRow row = ExperimentMetricRow(c.label, result.metrics,
                                      c.total_replicas);
  row.Dim("push", c.push_mode == PushMode::kBlind ? "BP" : "SP-P");
  row.Dim("replicas", std::to_string(c.total_replicas));
  row.Dim("probe_ms",
          std::to_string(static_cast<long long>(c.probe_interval / 1000)));
  row.Dim("shards", std::to_string(c.num_shards));
  return row;
}

std::vector<FleetCase> PlanCases() {
  std::vector<FleetCase> cases;
  for (int total : kFleetSizes) {
    for (PushMode mode :
         {PushMode::kSelectivePending, PushMode::kBlind}) {
      FleetCase c;
      c.label = std::string(mode == PushMode::kBlind ? "bp" : "spp") + "_r" +
                std::to_string(total);
      c.total_replicas = total;
      c.push_mode = mode;
      cases.push_back(std::move(c));
    }
  }
  // Determinism pair: the headline 1000-replica SP-P cell re-run on a single
  // shard (single-threaded). Must reproduce spp_r1000 bit for bit.
  {
    FleetCase c;
    c.label = "spp_r1000_shards1";
    c.total_replicas = 1000;
    c.num_shards = 1;
    c.num_threads = 1;
    cases.push_back(std::move(c));
  }
  // Probe staleness at 256 replicas, SP-P: how stale probe views degrade
  // tail TTFT as optimistic pushes land on replicas that filled since the
  // last heartbeat.
  for (int probe_ms : kStaleProbesMs) {
    FleetCase c;
    c.label = "spp_r" + std::to_string(kStaleReplicas) + "_probe" +
              std::to_string(probe_ms) + "ms";
    c.total_replicas = kStaleReplicas;
    c.probe_interval = Milliseconds(probe_ms);
    cases.push_back(std::move(c));
  }
  return cases;
}

const MetricRow* FindRow(const std::vector<MetricRow>& rows,
                         const std::string& label) {
  for (const MetricRow& row : rows) {
    if (row.label == label) {
      return &row;
    }
  }
  return nullptr;
}

}  // namespace

Scenario MakeFleetScaleScenario() {
  Scenario scenario;
  scenario.name = "fig_fleet_scale";
  scenario.title = "Fleet scale: 16-1000 replicas on the sharded simulator";
  scenario.description =
      "SP-P vs BP from 16 to 1000 replicas across four regions on the "
      "region-sharded parallel simulator, plus a probe-staleness sweep at "
      "256 replicas and a sharded-vs-single-shard determinism pair at 1000 "
      "replicas. One cell per configuration.";
  scenario.metric_keys = StandardExperimentMetricKeys();
  scenario.plan = [](const ScenarioOptions& options) {
    ScenarioPlan plan;
    for (const FleetCase& c : PlanCases()) {
      plan.cells.push_back(ScenarioCell{c.label, [c, options] {
        return std::vector<MetricRow>{RunFleetCase(c, options)};
      }});
    }
    plan.finalize = [](const std::vector<std::vector<MetricRow>>& cell_rows) {
      ScenarioReport report;
      for (const auto& rows : cell_rows) {
        report.rows.insert(report.rows.end(), rows.begin(), rows.end());
      }
      auto safe_div = [](double a, double b) { return b <= 0 ? 0.0 : a / b; };
      // SP-P's edge over BP at each scale.
      for (int total : kFleetSizes) {
        const MetricRow* spp =
            FindRow(report.rows, "spp_r" + std::to_string(total));
        const MetricRow* bp =
            FindRow(report.rows, "bp_r" + std::to_string(total));
        if (spp != nullptr && bp != nullptr) {
          report.derived.emplace_back(
              "spp_vs_bp_throughput_x_r" + std::to_string(total),
              safe_div(*spp->Find(metric_keys::kThroughputTokS),
                       *bp->Find(metric_keys::kThroughputTokS)));
        }
      }
      // The determinism pair: every metric of the 4-shard and 1-shard runs
      // must agree exactly (the fleet harness contract).
      const MetricRow* sharded = FindRow(report.rows, "spp_r1000");
      const MetricRow* single = FindRow(report.rows, "spp_r1000_shards1");
      double determinism_ok = 0.0;
      if (sharded != nullptr && single != nullptr) {
        determinism_ok = 1.0;
        for (const auto& [key, value] : sharded->metrics) {
          const double* other = single->Find(key);
          if (other == nullptr || *other != value) {
            determinism_ok = 0.0;
          }
        }
      }
      report.derived.emplace_back("shard_determinism_ok", determinism_ok);
      // Staleness cost: tail TTFT at the slowest vs fastest probe cadence.
      const MetricRow* stale_fast = FindRow(
          report.rows, "spp_r256_probe" +
                           std::to_string(kStaleProbesMs[0]) + "ms");
      const MetricRow* stale_slow = FindRow(
          report.rows,
          "spp_r256_probe" +
              std::to_string(kStaleProbesMs[std::size(kStaleProbesMs) - 1]) +
              "ms");
      if (stale_fast != nullptr && stale_slow != nullptr) {
        report.derived.emplace_back(
            "probe_1600ms_vs_50ms_ttft_p90_x",
            safe_div(*stale_slow->Find(metric_keys::kTtftP90),
                     *stale_fast->Find(metric_keys::kTtftP90)));
      }
      report.notes.push_back(
          "shard_determinism_ok = 1 certifies the 4-shard parallel run "
          "reproduced the single-shard run bit for bit. Wall-clock speedup "
          "is enforced separately: skybench --timing emits per-shard busy "
          "vs barrier-wait to BENCH_TIMING.json and bench_check "
          "--timing-floors gates the 4-shard speedup on hosts with >= 4 "
          "cores.");
      return report;
    };
    return plan;
  };
  return scenario;
}

}  // namespace skywalker

// Resilience pack (ISSUE 7): hostile scenarios for the health state machine
// and passive outlier ejection, all on the fleet harness.
//
// Cells:
//  * blackout_resil / blackout_noresil — region 1 loses its LB and all of
//    its replicas mid-run, then recovers. With resilience on (request
//    timeouts + outlier ejection) every swallowed request times out at the
//    LB, errors back to its client, and is retried until it completes:
//    lost_forever must be exactly 0 after the drain. With resilience off,
//    requests in flight on the dead replicas hang forever. Plain-mode
//    cells: controller failover moves replicas across regions.
//  * gray_ej_on / gray_ej_off — two replicas in region 0 decode 8x slower
//    (gray failure: they answer probes, accept work, and crawl). Latency
//    ejection routes around them; the off cell keeps feeding them. The
//    derived `gray_goodput_gain_x` is the on/off goodput ratio.
//  * flash_crowd — a second client cohort lands on region 0 mid-window
//    (diurnal shift); reports how goodput and forwarding absorb it.

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench/scenarios/scenarios.h"
#include "src/harness/fleet.h"
#include "src/obs/trace.h"

namespace skywalker {

namespace {

constexpr int kRegions = 4;

struct ResilienceDurations {
  SimDuration warmup;
  SimDuration measure;
  SimDuration drain;
};

ResilienceDurations Durations(const ScenarioOptions& options) {
  // Drain sizing: a request swallowed by the blackout times out at most
  // `request_timeout` after recovery, and its retry needs one more e2e
  // (p99 ~ 8 s at this operating point) to complete. The gray cells are the
  // long pole — requests held by an 8x straggler take up to ~8x the e2e tail
  // to finish — so the smoke drain is generous enough that every cell except
  // blackout-without-resilience converges to lost_forever == 0.
  if (options.smoke) {
    return {Seconds(2), Seconds(8), Seconds(60)};
  }
  return {Seconds(10), Seconds(60), Seconds(40)};
}

// Client-visible completion timeout: must clear the healthy e2e tail
// (p99 ~ 8 s) with margin, or healthy-but-slow requests get error-retried
// and their replicas ejected for nothing.
SimDuration RequestTimeout(const ScenarioOptions& options) {
  return options.smoke ? Seconds(10) : Seconds(20);
}

// The common fleet: 4 replicas per region, SP-P, closed-loop clients pinned
// to the busy-but-stable operating point of fig_fleet_scale.
FleetSpec BaseSpec(const ScenarioOptions& options) {
  const ResilienceDurations d = Durations(options);
  FleetSpec spec;
  spec.topology = Topology::FourRegions();
  spec.replicas_per_region.assign(kRegions, 4);
  spec.clients_per_region = options.smoke ? 4 : 8;
  spec.client.think_time_mean = Milliseconds(500);
  spec.client.program_gap_mean = Seconds(1);
  spec.replica_config.max_running_requests = 8;
  spec.replica_config.kv_capacity_tokens = 24576;
  spec.warmup = d.warmup;
  spec.measure = d.measure;
  spec.drain = d.drain;
  // Quiesce before the drain so lost_forever accounting converges.
  spec.client.stop_issuing_after = d.warmup + d.measure;
  spec.seed = MixSeed(7001, options.seed_stream);
  return spec;
}

OutlierConfig ResilienceOn(const ScenarioOptions& options) {
  OutlierConfig outlier;
  outlier.enabled = true;
  outlier.request_timeout = RequestTimeout(options);
  // Long enough that a latency-ejected straggler doesn't cycle through
  // half-open recovery (capturing one slow victim per cycle) many times
  // within the measure window.
  outlier.base_ejection_time = options.smoke ? Seconds(5) : Seconds(20);
  return outlier;
}

// Lifecycle tracing for one cell (--trace): installs a caller-owned Tracer
// on the fleet spec and writes the TRACE_* artifacts after the run. Tracing
// never perturbs the simulation, so traced cells report the same metrics.
struct CellTrace {
  std::unique_ptr<Tracer> tracer;

  void Arm(FleetSpec* spec, const ScenarioOptions& options) {
    if (!options.trace) {
      return;
    }
    tracer = std::make_unique<Tracer>(kRegions);
    spec->tracer = tracer.get();
  }

  void Write(const std::string& label, const ScenarioOptions& options,
             std::vector<std::pair<std::string, std::string>> meta = {}) {
    if (tracer != nullptr) {
      WriteTraceArtifacts(*tracer, options.trace_dir, "fig_resilience", label,
                          std::move(meta));
    }
  }
};

MetricRow ResilienceRow(const std::string& label, const FleetSpec& spec,
                        const FleetResult& result) {
  const double measure_sec = ToSeconds(spec.measure);
  MetricRow row = ExperimentMetricRow(
      label, result.metrics,
      kRegions * spec.replicas_per_region[0]);
  row.Set(metric_keys::kGoodputReqS,
          measure_sec <= 0
              ? 0.0
              : static_cast<double>(result.metrics.completed) / measure_sec);
  row.Set(metric_keys::kLostForever,
          static_cast<double>(result.lost_forever));
  row.Set(metric_keys::kMisrouted,
          static_cast<double>(result.request_timeouts +
                              result.late_completions));
  row.Set(metric_keys::kEjections, static_cast<double>(result.ejections));
  row.Set(metric_keys::kRecoveries, static_cast<double>(result.recoveries));
  row.Set(metric_keys::kClientErrors,
          static_cast<double>(result.client_errors));
  return row;
}

// --- blackout: LB + every replica of region 1 die, then recover ---

MetricRow RunBlackout(const std::string& label, bool resilience,
                      const ScenarioOptions& options) {
  const ResilienceDurations d = Durations(options);
  FleetSpec spec = BaseSpec(options);
  // One shard: controller failover reassigns replicas across regions,
  // which is inherently cross-shard.
  spec.num_shards = 1;
  spec.num_threads = 1;
  // Recovery is driven by the scripted kLbRecover fault below.
  spec.controller.auto_recovery_delay = 0;
  if (resilience) {
    spec.lb.engine.outlier = ResilienceOn(options);
  }

  const SimTime fail_at = d.warmup + d.measure / 4;
  const SimTime recover_at = d.warmup + (d.measure * 3) / 5;
  FleetFault lb_fail;
  lb_fail.kind = FleetFault::kLbFail;
  lb_fail.at = fail_at;
  lb_fail.region = 1;
  FleetFault replicas_fail;
  replicas_fail.kind = FleetFault::kReplicaFail;
  replicas_fail.at = fail_at;
  replicas_fail.region = 1;
  FleetFault replicas_recover;
  replicas_recover.kind = FleetFault::kReplicaRecover;
  replicas_recover.at = recover_at;
  replicas_recover.region = 1;
  FleetFault lb_recover;
  lb_recover.kind = FleetFault::kLbRecover;
  lb_recover.at = recover_at + Milliseconds(100);
  lb_recover.region = 1;
  spec.faults = {lb_fail, replicas_fail, replicas_recover, lb_recover};

  CellTrace trace;
  trace.Arm(&spec, options);
  FleetResult result = RunFleetExperiment(spec);
  trace.Write(label, options,
              {{"resilience", resilience ? "on" : "off"}});
  return ResilienceRow(label, spec, result)
      .Dim("cell", "blackout")
      .Dim("resilience", resilience ? "on" : "off");
}

// --- gray failure: one straggler per region, 8x slower decode ---

MetricRow RunGray(const std::string& label, bool ejection,
                  const ScenarioOptions& options) {
  FleetSpec spec = BaseSpec(options);
  spec.num_shards = kRegions;
  spec.num_threads = kRegions;
  if (ejection) {
    OutlierConfig outlier = ResilienceOn(options);
    // Latency-only detection: stragglers answer probes and never "fail",
    // so keep the guarded timeout path out of the comparison.
    outlier.request_timeout = 0;
    spec.lb.engine.outlier = outlier;
  }
  // One straggler per region, 8x decode. Milder than a hard hang on
  // purpose: at 8x the straggler still completes sequences, so it keeps
  // looking periodically attractive to load-aware routing (capturing fresh
  // victims all window) and its decode-latency EWMA accrues the samples the
  // detector needs within the first ~15 s. The per-region median stays
  // healthy (1 straggler out of 4), so 8x trips the 3x latency factor.
  for (RegionId region = 0; region < kRegions; ++region) {
    FleetFault slow;
    slow.kind = FleetFault::kReplicaSlowdown;
    slow.at = Seconds(1);
    slow.region = region;
    slow.replica_index = 0;
    slow.factor = 8.0;
    spec.faults.push_back(slow);
  }

  CellTrace trace;
  trace.Arm(&spec, options);
  FleetResult result = RunFleetExperiment(spec);
  trace.Write(label, options, {{"ejection", ejection ? "on" : "off"}});
  return ResilienceRow(label, spec, result)
      .Dim("cell", "gray")
      .Dim("ejection", ejection ? "on" : "off");
}

// --- flash crowd: region 0's population doubles mid-window ---

MetricRow RunFlashCrowd(const std::string& label,
                        const ScenarioOptions& options) {
  const ResilienceDurations d = Durations(options);
  FleetSpec spec = BaseSpec(options);
  spec.num_shards = kRegions;
  spec.num_threads = kRegions;
  spec.lb.engine.outlier = ResilienceOn(options);
  FleetClientWave wave;
  wave.region = 0;
  wave.count = spec.clients_per_region;
  wave.start = d.warmup + (d.measure * 3) / 10;
  wave.stop_issuing_after = d.warmup + d.measure;
  spec.client_waves.push_back(wave);

  CellTrace trace;
  trace.Arm(&spec, options);
  FleetResult result = RunFleetExperiment(spec);
  trace.Write(label, options);
  return ResilienceRow(label, spec, result).Dim("cell", "flash_crowd");
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

Scenario MakeResilienceScenario() {
  Scenario scenario;
  scenario.name = "fig_resilience";
  scenario.title = "Resilience: blackout, gray failure, flash crowd";
  scenario.description =
      "Hostile-scenario pack for the resilience control plane: a region "
      "blackout with recovery (lost-forever accounting), gray-failure "
      "stragglers with latency ejection on vs off, and a flash-crowd client "
      "wave.";
  scenario.metric_keys = StandardExperimentMetricKeys();
  for (const std::string& key : ResilienceMetricKeys()) {
    scenario.metric_keys.push_back(key);
  }
  scenario.traceable = true;
  scenario.plan = [](const ScenarioOptions& options) {
    ScenarioPlan plan;
    plan.cells.push_back(ScenarioCell{"blackout_resil", [options] {
      return std::vector<MetricRow>{
          RunBlackout("blackout_resil", /*resilience=*/true, options)};
    }});
    plan.cells.push_back(ScenarioCell{"blackout_noresil", [options] {
      return std::vector<MetricRow>{
          RunBlackout("blackout_noresil", /*resilience=*/false, options)};
    }});
    plan.cells.push_back(ScenarioCell{"gray_ej_on", [options] {
      return std::vector<MetricRow>{
          RunGray("gray_ej_on", /*ejection=*/true, options)};
    }});
    plan.cells.push_back(ScenarioCell{"gray_ej_off", [options] {
      return std::vector<MetricRow>{
          RunGray("gray_ej_off", /*ejection=*/false, options)};
    }});
    plan.cells.push_back(ScenarioCell{"flash_crowd", [options] {
      return std::vector<MetricRow>{RunFlashCrowd("flash_crowd", options)};
    }});
    plan.finalize = [](const std::vector<std::vector<MetricRow>>& cell_rows) {
      ScenarioReport report;
      for (const auto& rows : cell_rows) {
        report.rows.insert(report.rows.end(), rows.begin(), rows.end());
      }
      auto safe_div = [](double a, double b) { return b <= 0 ? 0.0 : a / b; };
      const MetricRow* resil = FindRow(report.rows, "blackout_resil");
      if (resil != nullptr) {
        const double* lost = resil->Find(metric_keys::kLostForever);
        report.derived.emplace_back(
            "blackout_zero_lost_ok",
            (lost != nullptr && *lost == 0.0) ? 1.0 : 0.0);
      }
      const MetricRow* on = FindRow(report.rows, "gray_ej_on");
      const MetricRow* off = FindRow(report.rows, "gray_ej_off");
      if (on != nullptr && off != nullptr) {
        report.derived.emplace_back(
            "gray_goodput_gain_x",
            safe_div(*on->Find(metric_keys::kGoodputReqS),
                     *off->Find(metric_keys::kGoodputReqS)));
        report.derived.emplace_back(
            "gray_ttft_p99_cut_x",
            safe_div(*off->Find(metric_keys::kTtftP99),
                     *on->Find(metric_keys::kTtftP99)));
      }
      report.notes.push_back(
          "blackout_zero_lost_ok = 1: with request timeouts + ejection on, "
          "no request is swallowed forever by the region blackout. "
          "gray_goodput_gain_x: goodput recovered by ejecting the 8x "
          "stragglers.");
      return report;
    };
    return plan;
  };
  return scenario;
}

}  // namespace skywalker

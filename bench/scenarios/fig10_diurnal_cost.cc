// Scenario port of bench/fig10_diurnal_cost.cc — SkyWalker vs Region-Local
// deployment under a regionally skewed workload (US working hours: 120 US
// clients vs 40 each in Asia and Europe), sweeping the total replica count.
//
// Expected shape (paper): with equal replicas SkyWalker outperforms
// region-local by 1.07-1.18x; SkyWalker at 9 replicas matches region-local
// at 12 — a 25% provisioning (cost) reduction at equal throughput.

#include <string>
#include <vector>

#include "bench/scenarios/scenarios.h"
#include "src/analysis/cost_model.h"

namespace skywalker {

namespace {

constexpr int kReplicaSweep[] = {3, 6, 9, 12, 15, 18};

std::vector<int> EvenSplit(int total) {
  std::vector<int> split(3, total / 3);
  for (int i = 0; i < total % 3; ++i) {
    ++split[static_cast<size_t>(i)];
  }
  return split;
}

// Region-Local is SkyWalker with cross-region forwarding disabled.
constexpr const char* kSystemNames[] = {"Region-Local", "SkyWalker"};

MetricRow RunOne(bool forwarding, int total_replicas,
                 const ScenarioOptions& options) {
  WorkloadSpec workload =
      SkewedChatWorkload({120, 40, 40}, MixSeed(101, options.seed_stream));
  if (options.smoke) {
    workload.ScaleClients(0.25);
  }
  // The L4 batch must actually fill under regional overload for offloading
  // to engage.
  FleetSpec spec = PaperFleet(workload, EvenSplit(total_replicas),
                              options.smoke ? Seconds(5) : Seconds(60),
                              options.smoke ? Seconds(15) : Seconds(300));
  spec.lb.routing.enable_forwarding = forwarding;
  const std::string system = kSystemNames[forwarding ? 1 : 0];
  const std::string label = std::to_string(total_replicas) + "/" + system;
  MetricRow row = ExperimentMetricRow(label, RunFleetExperiment(spec).metrics,
                                      total_replicas);
  row.Dim("replicas", std::to_string(total_replicas));
  row.Dim("system", system);
  return row;
}

}  // namespace

Scenario MakeFig10DiurnalCostScenario() {
  Scenario scenario;
  scenario.name = "fig10";
  scenario.title = "SkyWalker vs Region-Local, skewed load (120/40/40)";
  scenario.description =
      "Replica-count sweep of SkyWalker vs forwarding-disabled Region-Local "
      "under US-working-hours skew; cost headline compares SkyWalker@9 with "
      "Region-Local@12. One cell per (replica count, system).";
  scenario.metric_keys = StandardExperimentMetricKeys();
  scenario.plan = [](const ScenarioOptions& options) {
    ScenarioPlan plan;
    for (int replicas : kReplicaSweep) {
      for (bool forwarding : {false, true}) {
        const std::string label = std::to_string(replicas) + "/" +
                                  kSystemNames[forwarding ? 1 : 0];
        plan.cells.push_back(
            ScenarioCell{label, [forwarding, replicas, options] {
              return std::vector<MetricRow>{
                  RunOne(forwarding, replicas, options)};
            }});
      }
    }
    plan.finalize = [](const std::vector<std::vector<MetricRow>>& cell_rows) {
      ScenarioReport report;
      for (const auto& rows : cell_rows) {
        report.rows.insert(report.rows.end(), rows.begin(), rows.end());
      }
      double sky9 = 0;
      double local12 = 0;
      for (size_t i = 0; i < report.rows.size(); i += 2) {
        const MetricRow& local = report.rows[i];
        const MetricRow& sky = report.rows[i + 1];
        const int replicas = kReplicaSweep[i / 2];
        const double local_tput = *local.Find(metric_keys::kThroughputTokS);
        const double sky_tput = *sky.Find(metric_keys::kThroughputTokS);
        report.derived.emplace_back(
            "gain_x_" + std::to_string(replicas),
            local_tput <= 0 ? 0.0 : sky_tput / local_tput);
        if (replicas == 9) {
          sky9 = sky_tput;
        }
        if (replicas == 12) {
          local12 = local_tput;
        }
      }
      Pricing pricing;
      const double cost9 = 9 * pricing.reserved_hourly;
      const double cost12 = 12 * pricing.reserved_hourly;
      report.derived.emplace_back("sky9_over_local12_throughput",
                                  local12 <= 0 ? 0.0 : sky9 / local12);
      report.derived.emplace_back("cost_reduction_pct",
                                  100.0 * (1.0 - cost9 / cost12));
      report.notes.push_back(
          "Check vs paper (Fig. 10): equal-replica gain 1.07-1.18x; "
          "SkyWalker@9 ~matches Region-Local@12 throughput at 25% lower "
          "cost.");
      return report;
    };
    return plan;
  };
  return scenario;
}

}  // namespace skywalker

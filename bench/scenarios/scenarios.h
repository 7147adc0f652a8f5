// The paper-reproduction scenario set served by the skybench CLI.
//
// Each Make*Scenario() ports one historical bench/fig*.cc executable onto
// the scenario registry (src/harness/scenario.h); trial 0 reproduces that
// executable's numbers bit for bit — except fig09, whose constants were
// deliberately recalibrated in PR 2 so the paper's ordering holds (see
// ROADMAP). RegisterAllScenarios() installs the full
// set — registration is explicit (not static initializers) so linking the
// scenario library never silently drops a figure.

#ifndef SKYWALKER_BENCH_SCENARIOS_SCENARIOS_H_
#define SKYWALKER_BENCH_SCENARIOS_SCENARIOS_H_

#include <vector>

#include "src/harness/fleet.h"
#include "src/harness/scenario.h"
#include "src/workload/spec.h"

namespace skywalker {

// The three-continent fleet fig08, fig10 and the ablations share: L4-band
// replicas (paper: 20-50 concurrent requests each, so 32 running and a
// 40960-token KV) serving `workload`'s client groups and conversation mix,
// seeded by workload.seed. Callers pick the system and LB knobs.
FleetSpec PaperFleet(const WorkloadSpec& workload,
                     std::vector<int> replicas_per_region, SimDuration warmup,
                     SimDuration measure);

Scenario MakeFig02DiurnalTrafficScenario();
Scenario MakeFig03aLoadAggregationScenario();
Scenario MakeFig03bProvisioningCostScenario();
Scenario MakeFig04aLengthCdfScenario();
Scenario MakeFig04bRrImbalanceScenario();
Scenario MakeFig05aPrefixSimilarityScenario();
Scenario MakeFig05bSimilarityHeatmapScenario();
Scenario MakeFig06ChVsOptimalScenario();
Scenario MakeFig07MemoryPressureScenario();
Scenario MakeFig08MacroScenario();
Scenario MakeFig09SelectivePushingScenario();
Scenario MakeFig10DiurnalCostScenario();
Scenario MakeAblationProbeIntervalScenario();
Scenario MakeAblationPushSlackScenario();
Scenario MakeAblationExploreThresholdScenario();
Scenario MakeAblationMigrationControlScenario();
Scenario MakeAblationHeterogeneousScenario();
Scenario MakeAblationShortPromptScenario();
Scenario MakeFleetScaleScenario();
Scenario MakeResilienceScenario();
Scenario MakeMicroDatastructuresScenario();
Scenario MakeMicroMemoryScenario();
Scenario MakeMicroReplicaScenario();
Scenario MakeMicroSelectionScenario();

// Registers every scenario above into ScenarioRegistry::Get(). Idempotent.
void RegisterAllScenarios();

}  // namespace skywalker

#endif  // SKYWALKER_BENCH_SCENARIOS_SCENARIOS_H_

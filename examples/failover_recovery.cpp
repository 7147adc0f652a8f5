// Load-balancer failure and recovery walkthrough (§4.2): a regional LB
// fails mid-traffic; the controller detects it via health probes, reassigns
// its replicas to the geographically nearest healthy LB, DNS steers clients
// to the next-closest region, and service continues. When the LB recovers,
// its replicas transfer back.
//
//   $ ./build/examples/failover_recovery

#include <cstdio>

#include "src/analysis/metrics.h"
#include "src/core/deployment.h"
#include "src/workload/client.h"

using namespace skywalker;  // Example code; the library never does this.

int main() {
  Simulator sim;
  Network net(&sim, Topology::ThreeContinents());

  DeploymentSpec spec;
  spec.replicas_per_region = {2, 2, 2};
  spec.controller_config.auto_recovery_delay = 0;  // Manual recovery below.
  auto deployment = Deployment::Build(&sim, &net, spec);
  deployment->Start();

  MetricsCollector metrics;
  ConversationGenerator generator(ConversationWorkloadConfig::Arena(), 3, 11);
  ClientConfig client_config;
  client_config.think_time_mean = Seconds(1);
  std::vector<std::unique_ptr<ConversationClient>> clients;
  for (RegionId region = 0; region < 3; ++region) {
    for (int i = 0; i < 8; ++i) {
      client_config.request_id_base =
          static_cast<RequestId>(clients.size() + 1) << 32;
      clients.push_back(std::make_unique<ConversationClient>(
          &sim, &net, deployment->resolver(), &generator, &metrics, region,
          client_config, 900 + clients.size()));
      clients.back()->Start(Milliseconds(100 * static_cast<int>(i)));
    }
  }

  auto snapshot = [&](const char* phase) {
    SkyWalkerLb* us = deployment->LbInRegion(0);
    SkyWalkerLb* eu = deployment->LbInRegion(1);
    SkyWalkerLb* ap = deployment->LbInRegion(2);
    std::printf("%-22s t=%5.0fs  replicas us/eu/ap = %zu/%zu/%zu  "
                "completed=%zu  errors=%ld\n",
                phase, ToSeconds(sim.now()), us->num_replicas(),
                eu->num_replicas(), ap->num_replicas(),
                metrics.total_recorded(),
                static_cast<long>(eu->stats().errors_reported));
  };

  sim.RunFor(Seconds(30));
  snapshot("steady state");

  // Fail the EU load balancer.
  SkyWalkerLb* eu = deployment->LbInRegion(1);
  eu->Fail();
  std::printf("\n>>> EU load balancer fails\n");
  sim.RunFor(Seconds(2));
  snapshot("after detection");

  // Traffic continues: EU clients re-resolve DNS to the nearest healthy LB,
  // and the controller has moved EU's replicas under it.
  size_t before = metrics.total_recorded();
  sim.RunFor(Seconds(30));
  snapshot("serving through fail");
  std::printf("    requests completed during failure: %zu\n",
              metrics.total_recorded() - before);

  // Recover.
  std::printf("\n>>> controller recovers the EU load balancer\n");
  deployment->controller()->RecoverLb(eu->id());
  sim.RunFor(Seconds(30));
  snapshot("after recovery");

  const Controller::Stats& cstats = deployment->controller()->stats();
  std::printf(
      "\ncontroller: %ld failovers handled, %ld replicas reassigned, %ld "
      "recoveries\n",
      static_cast<long>(cstats.failovers_handled),
      static_cast<long>(cstats.replicas_reassigned),
      static_cast<long>(cstats.recoveries_completed));
  return 0;
}

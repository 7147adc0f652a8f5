// DNS layer (paper §4.1): all regional load balancers share one domain name;
// resolution maps a client to the nearest *healthy* frontend by topology
// latency. Failed LBs disappear from resolution, so clients transparently
// fail over to the next nearest region.

#ifndef SKYWALKER_CORE_DNS_H_
#define SKYWALKER_CORE_DNS_H_

#include <vector>

#include "src/net/topology.h"
#include "src/workload/request.h"

namespace skywalker {

class NearestFrontendResolver : public FrontendResolver {
 public:
  explicit NearestFrontendResolver(const Topology* topology)
      : topology_(topology) {}

  void AddFrontend(Frontend* frontend) { frontends_.push_back(frontend); }

  // Nearest healthy frontend; nullptr when none is healthy.
  Frontend* Resolve(RegionId client_region) override;

 private:
  const Topology* topology_;
  std::vector<Frontend*> frontends_;
};

}  // namespace skywalker

#endif  // SKYWALKER_CORE_DNS_H_

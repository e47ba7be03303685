#include "smr/cluster/node.hpp"

namespace smr::cluster {

ClusterSpec ClusterSpec::paper_testbed(int worker_nodes) {
  SMR_CHECK_MSG(worker_nodes >= 1,
                "a cluster needs at least one worker node, got " << worker_nodes);
  ClusterSpec spec;
  spec.workers.assign(static_cast<std::size_t>(worker_nodes), NodeSpec{});
  spec.network.fabric_bandwidth =
      static_cast<double>(worker_nodes) * spec.workers.front().nic_bandwidth;
  spec.validate();
  return spec;
}

ClusterSpec ClusterSpec::heterogeneous(int fast, int slow, double slow_factor) {
  SMR_CHECK(fast >= 0 && slow >= 0 && fast + slow >= 1);
  SMR_CHECK(slow_factor > 0.0 && slow_factor <= 1.0);
  ClusterSpec spec = paper_testbed(fast + slow);
  for (int i = fast; i < fast + slow; ++i) {
    auto& node = spec.workers[static_cast<std::size_t>(i)];
    node.cpu_speed = slow_factor;
    node.memory /= 2;
    node.os_reserved /= 2;
  }
  spec.validate();
  return spec;
}

}  // namespace smr::cluster

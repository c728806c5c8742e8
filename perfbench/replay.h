// One-thread replay of a workload's own input stream through the ir layer,
// for the traced run: the whole-chain executor scalar vs burst, and each
// element's stage timed on its own. No ring, no workers, no producer.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "harness.h"

namespace perfbench {

struct ReplayResult {
  // Every figure is nanoseconds per message entering the chain (requests
  // plus cache responses).
  double burst_ns_per_msg = 0;
  double scalar_ns_per_msg = 0;
  std::vector<std::pair<std::string, double>> stage_ns;  // chain order
  double stage_sum_ns = 0;
  // RespCache time per hit, and per miss (lookup plus its response's fill).
  double cache_hit_ns = 0;
  double cache_miss_ns = 0;
};

ReplayResult Replay(const Harness& harness, size_t messages);

}  // namespace perfbench

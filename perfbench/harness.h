// The benchmark harness: one EnginePool driven the way a deployment drives
// it. A single producer thread builds arena-backed requests and calls
// Submit (route, then SPSC ring); worker threads run the chain and report
// each message through Config::on_done into a preallocated per-RPC slot.
//
// A run is a sequence of reps. A rep issues a fixed number of RPCs, waits
// until every one has completed, drains the pool, checks every outcome and
// clears the Logging table, so state stays bounded however long the run is.
// Metrics are medians over reps.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/arena.h"
#include "common/rng.h"
#include "compiler/lower.h"
#include "ir/element_ir.h"
#include "ir/exec.h"
#include "mrpc/engine_pool.h"
#include "mrpc/ring.h"
#include "rpc/intern.h"
#include "rpc/message.h"

namespace perfbench {

namespace common = adn::common;
namespace compiler = adn::compiler;
namespace ir = adn::ir;
namespace mrpc = adn::mrpc;
namespace rpc = adn::rpc;
using adn::Rng;

enum class Chain { kFig5, kCached, kQuota };

struct WorkloadSpec {
  std::string_view name;
  Chain chain;
  int workers;
  bool open_loop;
  size_t window;    // closed loop: RPCs in flight
  double rate_rps;  // open loop: Poisson arrival rate
  size_t keys;      // users (fig5, quota) or objects (cached)
  size_t rep_rpcs;  // RPCs per rep
};

const std::vector<WorkloadSpec>& Workloads();
const WorkloadSpec* FindWorkload(std::string_view name);

// Faults the self-tests inject to show that each output check fires.
enum class Mutation {
  kNone,
  kGrantAbsentUsers,   // users meant to be denied are seeded into ac_tab
  kFaultHalf,          // Fault aborts half the requests instead of 5%
  kLoseCompletion,     // some completions are never recorded
  kDoubleCompletion,   // some completions are recorded twice
  kExtraLogRow,        // a log_tab row appears that no RPC wrote
  kWrongReply,         // cache replies are checked against another object
  kQuotaLeak,          // a quota row is decremented out of band
};

struct Options {
  uint64_t seed = 1;
  double seconds = 10;
  bool traced = false;
  int workers_override = 0;  // > 0 replaces the workload's worker count
  Mutation mutation = Mutation::kNone;
};

// Milliseconds spent in each set-up call.
struct SetupTimes {
  double parse_ms = 0;
  double lower_ms = 0;
  double chain_compile_ms = 0;  // EnginePool construction compiles the chain
  double seed_ms = 0;
  double start_ms = 0;
  double total_s() const {
    return (parse_ms + lower_ms + chain_compile_ms + seed_ms + start_ms) / 1e3;
  }
};

enum class RepMode : uint8_t { kPlain, kTraced, kObs };

struct RepResult {
  RepMode mode = RepMode::kPlain;
  uint64_t rpcs = 0;       // RPCs issued (all completed when the rep ends)
  uint64_t messages = 0;   // messages submitted: requests + cache responses
  double wall_s = 0;
  double cpu_s = 0;        // process CPU minus the producer's idle waiting
  double p50_us = 0;
  double p99_us = 0;
  double gen_lag_p99_us = 0;  // open loop: how late the generator ran
  int64_t ctx_switches = 0;
  uint64_t allocs = 0;        // operator-new calls (traced binary only)
  // Traced reps: producer-side spans.
  double build_ns = 0;           // summed over requests
  double response_build_ns = 0;  // summed over cache responses
  double submit_ns = 0;          // summed over all submits
  double submit_p99_ns = 0;
  uint64_t responses = 0;
  double producer_busy_s = 0;    // build + submit wall time
};

// Outcome tally over every rep of a run.
struct CheckTally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t drops = 0;          // policy drops (denials, faults)
  uint64_t fault_trials = 0;   // allowed requests that reached Fault
  uint64_t faults = 0;
  std::vector<std::string> notes;  // first failure of each kind
  bool BinomialOk() const;
  void Note(const std::string& what);
};

struct MigrationSample {
  double blackout_us = 0;
  double held_msgs = 0;
  double delta_rows = 0;
  double bulk_kb = 0;
  double cycle_ms = 0;
};

// Slot outcome codes.
enum Outcome : uint8_t {
  kNoOutcome,
  kPass,
  kReply,
  kDenied,
  kFault,
  kFilled,     // cache miss answered by its server response
  kBadReply,   // cache reply that failed the payload check
  kOther,
};

class Harness {
 public:
  Harness(const WorkloadSpec& spec, const Options& options);
  ~Harness();

  Harness(const Harness&) = delete;
  Harness& operator=(const Harness&) = delete;

  // Parse, lower, construct (compile), seed and start. False on failure.
  bool Setup(SetupTimes* times);

  // One rep of rep_rpcs RPCs in the given mode, then drain and check.
  RepResult RunRep(RepMode mode);

  // Joins the workers; pool counters are final afterwards.
  void Stop();

  const WorkloadSpec& spec() const { return spec_; }
  const Options& options() const { return options_; }
  int workers() const { return workers_; }
  mrpc::EnginePool& pool() { return *pool_; }
  const CheckTally& tally() const { return tally_; }
  const std::vector<MigrationSample>& migrations() const { return migrations_; }
  const std::vector<double>& swap_us() const { return swap_us_; }
  const std::vector<std::shared_ptr<const ir::ElementIr>>& elements() const {
    return elements_;
  }

  // --- The workload's own input stream, for the one-thread replay --------
  // Seeds the state tables of a fresh instance of `element` exactly as the
  // pool's templates were seeded.
  void SeedInstance(ir::ElementInstance& instance) const;
  // Key stream of the run: same seed, same keys.
  struct KeyStream {
    explicit KeyStream(const Harness& h);
    uint32_t Next();
    const Harness& harness;
    Rng rng;
  };
  rpc::Message BuildRequest(common::ArenaPool& arena, uint64_t id,
                            uint32_t key) const;
  rpc::Message BuildResponse(common::ArenaPool& arena, uint64_t id,
                             uint32_t key) const;

 private:
  struct alignas(64) WorkerSide {
    std::atomic<uint64_t> finished{0};  // RPCs finished by this worker
    // Cache misses whose request completed: the producer answers them.
    std::unique_ptr<mrpc::SpscRing<uint64_t>> misses;
  };
  struct Slot {
    int64_t start_ns = 0;   // due time (open loop) or submit time
    int64_t done_ns = 0;    // on_done of the message that finished the RPC
    int32_t lag_ns = 0;     // open loop: generator lateness
    uint32_t submit_ns = 0; // traced: time inside Submit
    uint32_t key = 0;
    uint8_t outcome = kNoOutcome;
    std::atomic<uint8_t> finishes{0};
  };

  std::string ProgramSource() const;
  void OnDone(int worker, const rpc::Message& m, const ir::ProcessResult& r);
  bool ReplyMatches(const rpc::Message& m, uint32_t key) const;
  uint64_t Finished() const;
  // Producer: answer completed cache misses; returns responses submitted.
  uint64_t ServeMisses(RepMode mode, RepResult* rep);
  // Producer: pump the live migration and start the next one on schedule,
  // with a program swap every few migrations.
  void DriveReconfig(bool start_new);
  void CheckRep(size_t n, uint64_t responses);
  void FillPayload(uint32_t key, uint8_t* out) const;

  WorkloadSpec spec_;
  Options options_;
  int workers_;

  std::vector<std::string> names_;        // username per key
  std::vector<std::string> results_;      // cache: result text per object
  std::vector<uint8_t> absent_;           // 1 = key missing from ac_tab
  std::vector<double> zipf_cdf_;          // cache: object popularity
  std::vector<uint8_t> request_payload_;  // 64 B
  std::vector<uint8_t> response_body_;    // 1 KiB template
  std::vector<uint8_t> response_scratch_;
  rpc::FieldId f_username_, f_object_id_, f_payload_, f_result_;
  std::string method_;

  std::unique_ptr<compiler::ProgramIr> lowered_;
  std::unique_ptr<compiler::ProgramIr> lowered_swap_;
  std::vector<std::shared_ptr<const ir::ElementIr>> elements_;
  size_t logging_index_ = 0;
  size_t quota_index_ = 0;
  std::unique_ptr<common::ArenaPool> arena_;
  std::unique_ptr<mrpc::EnginePool> pool_;
  std::vector<WorkerSide> sides_;
  std::vector<Slot> slots_;
  std::vector<int64_t> scratch_;
  // Written by the producer before a rep's first Submit, read by workers.
  uint64_t rep_base_ = 1;
  uint64_t next_id_ = 1;
  std::atomic<uint64_t> stray_{0};  // completions of ids outside the rep
  KeyStream keys_;
  Rng arrivals_;  // open loop: Poisson inter-arrival gaps

  CheckTally tally_;
  int64_t quota_seeded_ = 0;   // sum of remaining at seeding
  size_t quota_rows_ = 0;      // rows seeded
  uint64_t quota_passes_ = 0;  // requests that passed Quota, cumulative

  // Reconfiguration state (quota workload).
  uint64_t issued_ = 0;             // requests issued since set-up
  uint64_t last_begin_issued_ = 0;  // issued_ when the last migration began
  int next_slot_ = 0;
  int migrations_started_ = 0;
  int64_t migration_begin_ns_ = 0;
  int64_t swap_begin_ns_ = 0;
  bool swap_active_ = false;
  bool use_swap_variant_ = false;
  std::vector<MigrationSample> migrations_;
  std::vector<double> swap_us_;
};

int64_t NowNs();
double Median(std::vector<double> v);

}  // namespace perfbench

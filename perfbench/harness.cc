#include "harness.h"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <thread>

#include "common/alloc_stats.h"
#include "dsl/parser.h"
#include "elements/library.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "rpc/table.h"

namespace perfbench {

namespace {

constexpr size_t kRequestPayloadBytes = 64;
constexpr size_t kResponsePayloadBytes = 1024;
constexpr size_t kCacheUsers = 256;
constexpr double kZipfSkew = 1.1;
constexpr int64_t kQuotaPerUser = 1'000'000'000;
constexpr int kSwapEveryMigrations = 8;
constexpr uint64_t kRpcsPerMigration = 5'000;
constexpr int kWaitPauses = 16;  // pause instructions between polls
constexpr uint64_t kObsSampleEvery = 100;
constexpr double kFaultRate = 0.05;

constexpr std::string_view kDeniedMessage = "permission denied";
constexpr std::string_view kFaultMessage = "fault injected";

const std::vector<WorkloadSpec> kWorkloads = {
    // name, chain, workers, open loop, window, rate, keys, rep RPCs
    {"fig5_closed", Chain::kFig5, 2, false, 64, 0, 1024, 100'000},
    {"fig5_open", Chain::kFig5, 2, true, 0, 300'000, 1024, 100'000},
    {"cache_zipf", Chain::kCached, 1, false, 256, 0, 10'000, 100'000},
    {"quota_migrate", Chain::kQuota, 2, false, 64, 0, 40'000, 50'000},
};

int64_t ProcessCpuNs() {
  timespec ts;
  if (clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts) != 0) return 0;
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

int64_t ContextSwitches() {
  rusage ru;
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0;
  return ru.ru_nvcsw + ru.ru_nivcsw;
}

inline void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#else
  std::this_thread::yield();
#endif
}

void SetObs(bool on) {
  adn::obs::SetEnabled(on);
  adn::obs::Tracer::Default().SetTracingEnabled(on);
  if (on) adn::obs::Tracer::Default().SetSampleEvery(kObsSampleEvery);
}

std::vector<std::string_view> ElementNames(Chain chain) {
  switch (chain) {
    case Chain::kFig5:
      return {"Logging", "Acl", "Fault"};
    case Chain::kCached:
      return {"RespCache", "Logging", "Acl", "HashLb", "Compress"};
    case Chain::kQuota:
      return {"Logging", "Acl", "Quota"};
  }
  return {};
}

double PercentileOf(std::vector<int64_t>& v, size_t n, double q) {
  if (n == 0) return 0;
  const size_t k = std::min(n - 1, static_cast<size_t>(q * static_cast<double>(n)));
  std::nth_element(v.begin(), v.begin() + static_cast<ptrdiff_t>(k),
                   v.begin() + static_cast<ptrdiff_t>(n));
  return static_cast<double>(v[k]);
}

}  // namespace

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : (v[mid - 1] + v[mid]) / 2;
}

const std::vector<WorkloadSpec>& Workloads() { return kWorkloads; }

const WorkloadSpec* FindWorkload(std::string_view name) {
  for (const WorkloadSpec& w : kWorkloads) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

bool CheckTally::BinomialOk() const {
  if (fault_trials == 0) return true;
  const double n = static_cast<double>(fault_trials);
  const double sigma = std::sqrt(n * kFaultRate * (1 - kFaultRate));
  return std::fabs(static_cast<double>(faults) - n * kFaultRate) <=
         6 * sigma + 3;
}

void CheckTally::Note(const std::string& what) {
  for (const std::string& n : notes) {
    if (n == what) return;
  }
  notes.push_back(what);
}

// --- Inputs ---------------------------------------------------------------

Harness::KeyStream::KeyStream(const Harness& h)
    : harness(h), rng(h.options_.seed * 0x9E3779B97F4A7C15ULL + 11) {}

uint32_t Harness::KeyStream::Next() {
  if (harness.zipf_cdf_.empty()) {
    return static_cast<uint32_t>(rng.NextBelow(harness.spec_.keys));
  }
  const double u = rng.NextDouble();
  const auto it = std::upper_bound(harness.zipf_cdf_.begin(),
                                   harness.zipf_cdf_.end(), u);
  return static_cast<uint32_t>(
      std::min<size_t>(static_cast<size_t>(it - harness.zipf_cdf_.begin()),
                       harness.spec_.keys - 1));
}

Harness::Harness(const WorkloadSpec& spec, const Options& options)
    : spec_(spec),
      options_(options),
      workers_(options.workers_override > 0 ? options.workers_override
                                            : spec.workers),
      f_username_(rpc::InternFieldName("username")),
      f_object_id_(rpc::InternFieldName("object_id")),
      f_payload_(rpc::InternFieldName("payload")),
      f_result_(rpc::InternFieldName("result")),
      method_(spec.chain == Chain::kCached ? "Obj.Get" : "Obj.Put"),
      sides_(static_cast<size_t>(workers_)),
      slots_(spec.rep_rpcs),
      scratch_(spec.rep_rpcs),
      keys_(*this),
      arrivals_(options.seed * 0xD1B54A32D192ED03ULL + 5) {
  char buf[32];
  names_.reserve(spec_.keys);
  for (size_t k = 0; k < spec_.keys; ++k) {
    if (spec_.chain == Chain::kQuota) {
      std::snprintf(buf, sizeof buf, "user%zu", k);
    } else {
      std::snprintf(buf, sizeof buf, "u%04zu",
                    spec_.chain == Chain::kCached ? k % kCacheUsers : k);
    }
    names_.emplace_back(buf);
  }
  // 1/16 of the users are missing from ac_tab, chosen by the seed.
  absent_.assign(spec_.keys, 0);
  if (spec_.chain != Chain::kCached) {
    std::vector<uint32_t> order(spec_.keys);
    for (size_t k = 0; k < order.size(); ++k) order[k] = static_cast<uint32_t>(k);
    Rng rng(options_.seed ^ 0xA5A5A5A5ULL);
    for (size_t k = order.size() - 1; k > 0; --k) {
      std::swap(order[k], order[rng.NextBelow(k + 1)]);
    }
    for (size_t k = 0; k < spec_.keys / 16; ++k) absent_[order[k]] = 1;
  } else {
    results_.reserve(spec_.keys);
    for (size_t k = 0; k < spec_.keys; ++k) {
      results_.push_back("v" + std::to_string(k));
    }
    double total = 0;
    zipf_cdf_.resize(spec_.keys);
    for (size_t k = 0; k < spec_.keys; ++k) {
      total += 1.0 / std::pow(static_cast<double>(k + 1), kZipfSkew);
      zipf_cdf_[k] = total;
    }
    for (double& c : zipf_cdf_) c /= total;
  }
  request_payload_.resize(kRequestPayloadBytes);
  response_body_.resize(kResponsePayloadBytes);
  response_scratch_.resize(kResponsePayloadBytes);
  Rng fill(options_.seed + 3);
  for (uint8_t& b : request_payload_) b = static_cast<uint8_t>(fill.NextU64());
  for (uint8_t& b : response_body_) b = static_cast<uint8_t>(fill.NextU64());
  for (WorkerSide& side : sides_) {
    side.misses = std::make_unique<mrpc::SpscRing<uint64_t>>(spec_.rep_rpcs);
  }
}

Harness::~Harness() { Stop(); }

std::string Harness::ProgramSource() const {
  namespace el = adn::elements;
  switch (spec_.chain) {
    case Chain::kFig5: {
      std::string src = el::Fig5ProgramSource();
      if (options_.mutation == Mutation::kFaultHalf) {
        const std::string from = "random() >= 0.05";
        const size_t at = src.find(from);
        if (at != std::string::npos) src.replace(at, from.size(), "random() >= 0.5");
      }
      return src;
    }
    case Chain::kCached:
      return el::CacheChainSource();
    case Chain::kQuota:
      return std::string(el::AclTableSql()) + std::string(el::LogTableSql()) +
             std::string(el::QuotaTableSql()) + std::string(el::LoggingSql()) +
             std::string(el::AclSql()) + std::string(el::QuotaSql());
  }
  return {};
}

void Harness::SeedInstance(ir::ElementInstance& instance) const {
  if (rpc::Table* acl = instance.FindTable("ac_tab")) {
    if (spec_.chain == Chain::kCached) {
      for (size_t u = 0; u < kCacheUsers; ++u) {
        (void)acl->Insert({rpc::Value(names_[u]), rpc::Value("W")});
      }
    } else {
      const bool grant_all = options_.mutation == Mutation::kGrantAbsentUsers;
      for (size_t k = 0; k < spec_.keys; ++k) {
        if (absent_[k] == 0 || grant_all) {
          (void)acl->Insert({rpc::Value(names_[k]), rpc::Value("W")});
        }
      }
    }
  }
  if (rpc::Table* endpoints = instance.FindTable("endpoints")) {
    for (int64_t shard = 0; shard < adn::elements::kLbShards; ++shard) {
      (void)endpoints->Insert({rpc::Value(shard), rpc::Value(100 + shard)});
    }
  }
  if (rpc::Table* quota = instance.FindTable("quota")) {
    for (size_t k = 0; k < spec_.keys; ++k) {
      if (absent_[k] == 0) {
        (void)quota->Insert({rpc::Value(names_[k]), rpc::Value(kQuotaPerUser)});
      }
    }
  }
}

void Harness::FillPayload(uint32_t key, uint8_t* out) const {
  const uint64_t tag = key;
  std::memcpy(out, response_body_.data(), kResponsePayloadBytes);
  std::memcpy(out, &tag, sizeof tag);
  std::memcpy(out + kResponsePayloadBytes - sizeof tag, &tag, sizeof tag);
}

rpc::Message Harness::BuildRequest(common::ArenaPool& arena, uint64_t id,
                                   uint32_t key) const {
  rpc::Message m = rpc::Message::WithArena(arena);
  m.set_id(id);
  m.set_method(method_);
  m.SetText(f_username_, names_[key]);
  if (spec_.chain == Chain::kCached) {
    m.SetField(f_object_id_, rpc::Value(static_cast<int64_t>(key)));
  }
  m.SetBytes(f_payload_, request_payload_);
  return m;
}

// The server's answer to a cache miss: the object's result text and its
// 1 KiB payload. It carries object_id so it routes to the request's worker,
// and username so Logging's response-path INSERT logs a real row.
rpc::Message Harness::BuildResponse(common::ArenaPool& arena, uint64_t id,
                                    uint32_t key) const {
  uint8_t payload[kResponsePayloadBytes];
  FillPayload(key, payload);
  rpc::Message m = rpc::Message::WithArena(arena);
  m.set_id(id);
  m.set_kind(rpc::MessageKind::kResponse);
  m.set_method(method_);
  m.SetText(f_username_, names_[key]);
  m.SetField(f_object_id_, rpc::Value(static_cast<int64_t>(key)));
  m.SetText(f_result_, results_[key]);
  m.SetBytes(f_payload_, std::span<const uint8_t>(payload, sizeof payload));
  return m;
}

// --- Set-up ---------------------------------------------------------------

bool Harness::Setup(SetupTimes* times) {
  const std::string source = ProgramSource();
  int64_t t = NowNs();
  auto lap_ms = [&t] {
    const int64_t now = NowNs();
    const double ms = static_cast<double>(now - t) / 1e6;
    t = now;
    return ms;
  };
  auto parsed = adn::dsl::ParseProgram(source);
  times->parse_ms = lap_ms();
  if (!parsed.ok()) {
    std::fprintf(stderr, "parse failed: %s\n", parsed.status().ToString().c_str());
    return false;
  }
  auto lowered = compiler::LowerProgram(*parsed);
  times->lower_ms = lap_ms();
  if (!lowered.ok()) {
    std::fprintf(stderr, "lowering failed: %s\n",
                 lowered.status().ToString().c_str());
    return false;
  }
  lowered_ = std::make_unique<compiler::ProgramIr>(std::move(lowered).value());
  elements_.clear();
  for (std::string_view name : ElementNames(spec_.chain)) {
    auto element = lowered_->FindElement(name);
    if (element == nullptr) {
      std::fprintf(stderr, "element %.*s missing\n",
                   static_cast<int>(name.size()), name.data());
      return false;
    }
    if (name == "Logging") logging_index_ = elements_.size();
    if (name == "Quota") quota_index_ = elements_.size();
    elements_.push_back(std::move(element));
  }
  t = NowNs();

  mrpc::EnginePool::Config config;
  config.workers = workers_;
  config.shard_key_field =
      spec_.chain == Chain::kCached ? "object_id" : "username";
  config.processor = "perfbench";
  config.seed = options_.seed;
  config.measure_exec = options_.traced;
  config.on_done = [this](int worker, const rpc::Message& m,
                          const ir::ProcessResult& r) { OnDone(worker, m, r); };
  pool_ = std::make_unique<mrpc::EnginePool>(elements_, std::vector<int>{},
                                             std::move(config));
  times->chain_compile_ms = lap_ms();

  for (size_t e = 0; e < elements_.size(); ++e) {
    SeedInstance(*pool_->TemplateInstance(e));
  }
  times->seed_ms = lap_ms();

  const adn::Status started = pool_->Start();
  times->start_ms = lap_ms();
  if (!started.ok()) {
    std::fprintf(stderr, "Start failed: %s\n", started.ToString().c_str());
    return false;
  }
  if (spec_.chain != Chain::kCached && !pool_->whole_chain_compiled()) {
    std::fprintf(stderr, "chain did not compile to the whole-chain tier\n");
    return false;
  }

  // Reconfiguration inputs, outside the timed set-up: a second lowering of
  // the same source is a new program for SwapProgram with identical
  // behaviour.
  if (spec_.chain == Chain::kQuota) {
    auto again = adn::dsl::ParseProgram(source);
    auto relowered = compiler::LowerProgram(*again);
    if (!relowered.ok()) return false;
    lowered_swap_ =
        std::make_unique<compiler::ProgramIr>(std::move(relowered).value());
    for (size_t k = 0; k < spec_.keys; ++k) {
      if (absent_[k] == 0) {
        quota_seeded_ += kQuotaPerUser;
        ++quota_rows_;
      }
    }
  }
  arena_ = std::make_unique<common::ArenaPool>(4096);
  return true;
}

void Harness::Stop() {
  if (pool_ != nullptr) pool_->Stop();
}

// --- Worker side ------------------------------------------------------------

bool Harness::ReplyMatches(const rpc::Message& m, uint32_t key) const {
  const uint32_t want =
      options_.mutation == Mutation::kWrongReply ? key + 1 : key;
  if (want >= results_.size()) return false;
  const rpc::Value* result = m.FindField(f_result_);
  const rpc::Value* payload = m.FindField(f_payload_);
  if (result == nullptr || payload == nullptr ||
      result->type() != rpc::ValueType::kText ||
      payload->type() != rpc::ValueType::kBytes) {
    return false;
  }
  if (result->AsText() != results_[want]) return false;
  const adn::BytesView bytes = payload->AsBytes();
  if (bytes.size() != kResponsePayloadBytes) return false;
  const uint64_t tag = want;
  constexpr size_t kTag = sizeof tag;
  return std::memcmp(bytes.data(), &tag, kTag) == 0 &&
         std::memcmp(bytes.data() + kResponsePayloadBytes - kTag, &tag, kTag) ==
             0 &&
         std::memcmp(bytes.data() + kTag, response_body_.data() + kTag,
                     kResponsePayloadBytes - 2 * kTag) == 0;
}

void Harness::OnDone(int worker, const rpc::Message& m,
                     const ir::ProcessResult& r) {
  WorkerSide& side = sides_[static_cast<size_t>(worker)];
  const uint64_t index = m.id() - rep_base_;
  if (index >= slots_.size()) {
    // Not an id of this rep: count it so the check fails.
    stray_.fetch_add(1, std::memory_order_relaxed);
    side.finished.store(side.finished.load(std::memory_order_relaxed) + 1,
                        std::memory_order_release);
    return;
  }
  Slot& slot = slots_[index];
  uint8_t outcome = kOther;
  switch (r.outcome) {
    case ir::ProcessOutcome::kPass:
      outcome = kPass;
      break;
    case ir::ProcessOutcome::kReply:
      outcome = ReplyMatches(m, slot.key) ? kReply : kBadReply;
      break;
    case ir::ProcessOutcome::kDropAbort:
      if (r.abort_message == kDeniedMessage) {
        outcome = kDenied;
      } else if (r.abort_message == kFaultMessage) {
        outcome = kFault;
      }
      break;
    case ir::ProcessOutcome::kDropSilent:
      break;
  }
  if (spec_.chain == Chain::kCached && outcome == kPass) {
    if (m.kind() == rpc::MessageKind::kRequest) {
      // A miss: the RPC finishes when its server response completes.
      while (!side.misses->TryPush(m.id())) std::this_thread::yield();
      return;
    }
    outcome = kFilled;
  }
  slot.outcome = outcome;
  slot.done_ns = NowNs();
  uint8_t count = 1;
  if (options_.mutation == Mutation::kLoseCompletion && index % 997 == 5) {
    count = 0;
  } else if (options_.mutation == Mutation::kDoubleCompletion &&
             index % 997 == 5) {
    count = 2;
  }
  slot.finishes.fetch_add(count, std::memory_order_relaxed);
  side.finished.store(side.finished.load(std::memory_order_relaxed) + 1,
                      std::memory_order_release);
}

// --- Producer side ----------------------------------------------------------

uint64_t Harness::Finished() const {
  uint64_t total = 0;
  for (const WorkerSide& side : sides_) {
    total += side.finished.load(std::memory_order_acquire);
  }
  return total;
}

uint64_t Harness::ServeMisses(RepMode mode, RepResult* rep) {
  uint64_t served = 0;
  for (WorkerSide& side : sides_) {
    uint64_t id = 0;
    while (side.misses->TryPop(id)) {
      const uint32_t key = slots_[id - rep_base_].key;
      if (mode == RepMode::kTraced) {
        const int64_t t0 = NowNs();
        rpc::Message response = BuildResponse(*arena_, id, key);
        const int64_t t1 = NowNs();
        pool_->Submit(std::move(response));
        const int64_t t2 = NowNs();
        rep->response_build_ns += static_cast<double>(t1 - t0);
        rep->submit_ns += static_cast<double>(t2 - t1);
        rep->producer_busy_s += static_cast<double>(t2 - t0) / 1e9;
      } else {
        pool_->Submit(BuildResponse(*arena_, id, key));
      }
      ++served;
    }
  }
  return served;
}

void Harness::DriveReconfig(bool start_new) {
  if (spec_.chain != Chain::kQuota) return;
  pool_->PumpMigration();
  if (migration_begin_ns_ != 0 && !pool_->MigrationActive()) {
    const mrpc::EnginePool::LiveMigrationStats& st = pool_->migration_stats();
    MigrationSample sample;
    sample.blackout_us = static_cast<double>(st.blackout_ns) / 1e3;
    sample.held_msgs = static_cast<double>(st.held_messages);
    sample.delta_rows = static_cast<double>(st.delta_upserts + st.delta_deletes);
    sample.bulk_kb = static_cast<double>(st.bulk_bytes) / 1024.0;
    sample.cycle_ms = static_cast<double>(NowNs() - migration_begin_ns_) / 1e6;
    migrations_.push_back(sample);
    migration_begin_ns_ = 0;
  }
  if (swap_active_ && pool_->SwapComplete()) {
    swap_us_.push_back(static_cast<double>(NowNs() - swap_begin_ns_) / 1e3);
    swap_active_ = false;
  }
  // A fixed reconfiguration rate per RPC keeps the work mix the same on
  // every run; letting migrations race the data path would make the mix,
  // and so the throughput, depend on which side the host favours.
  if (!start_new || migration_begin_ns_ != 0 ||
      issued_ < last_begin_issued_ + kRpcsPerMigration) {
    return;
  }
  last_begin_issued_ = issued_;
  if (migrations_started_ % kSwapEveryMigrations == kSwapEveryMigrations - 1 &&
      !swap_active_) {
    use_swap_variant_ = !use_swap_variant_;
    const compiler::ProgramIr& next =
        use_swap_variant_ ? *lowered_swap_ : *lowered_;
    std::vector<std::shared_ptr<const ir::ElementIr>> elements;
    for (std::string_view name : ElementNames(spec_.chain)) {
      elements.push_back(next.FindElement(name));
    }
    swap_begin_ns_ = NowNs();
    if (pool_->SwapProgram(std::move(elements)).ok()) {
      swap_active_ = true;
    } else {
      tally_.Note("SwapProgram rejected");
      ++tally_.failed;
    }
  }
  const int slot = next_slot_;
  next_slot_ = (next_slot_ + 1) % static_cast<int>(mrpc::EnginePool::kRouteSlots);
  const int to = (pool_->WorkerOfSlot(slot) + 1) % workers_;
  migration_begin_ns_ = NowNs();
  if (pool_->BeginSlotMigration(slot, to).ok()) {
    ++migrations_started_;
  } else {
    migration_begin_ns_ = 0;
    tally_.Note("BeginSlotMigration rejected");
    ++tally_.failed;
  }
}

RepResult Harness::RunRep(RepMode mode) {
  const size_t n = spec_.rep_rpcs;
  rep_base_ = next_id_;
  next_id_ += n;
  for (Slot& slot : slots_) {
    slot.finishes.store(0, std::memory_order_relaxed);
    slot.outcome = kNoOutcome;
  }
  const bool traced = mode == RepMode::kTraced;
  if (mode == RepMode::kObs) SetObs(true);
  const bool reconfig = spec_.chain == Chain::kQuota && workers_ > 1;
  const bool cached = spec_.chain == Chain::kCached;

  RepResult rep;
  rep.mode = mode;
  uint64_t responses = 0;
  int64_t idle_ns = 0;
  const uint64_t finished_base = Finished();
  const int64_t ctx0 = ContextSwitches();
  const uint64_t allocs0 = common::alloc_stats::TotalAllocs();
  const int64_t cpu0 = ProcessCpuNs();
  const int64_t t0 = NowNs();

  // Build and submit request i; its latency clock starts at `start_ns`, or
  // at the moment of Submit when `start_ns` is 0.
  auto issue = [&](size_t i, int64_t start_ns) {
    Slot& slot = slots_[i];
    slot.key = keys_.Next();
    ++issued_;
    if (traced) {
      const int64_t b0 = NowNs();
      rpc::Message m = BuildRequest(*arena_, rep_base_ + i, slot.key);
      const int64_t b1 = NowNs();
      slot.start_ns = start_ns != 0 ? start_ns : b1;
      pool_->Submit(std::move(m));
      const int64_t b2 = NowNs();
      rep.build_ns += static_cast<double>(b1 - b0);
      rep.submit_ns += static_cast<double>(b2 - b1);
      rep.producer_busy_s += static_cast<double>(b2 - b0) / 1e9;
      slot.submit_ns = static_cast<uint32_t>(std::min<int64_t>(b2 - b1, UINT32_MAX));
      return;
    }
    rpc::Message m = BuildRequest(*arena_, rep_base_ + i, slot.key);
    slot.start_ns = start_ns != 0 ? start_ns : NowNs();
    pool_->Submit(std::move(m));
  };

  if (spec_.open_loop) {
    // Poisson arrivals; latency runs from each RPC's due time, so a stalled
    // Submit delays every later RPC's clock too.
    const double mean_gap_ns = 1e9 / spec_.rate_rps;
    double due = static_cast<double>(t0);
    for (size_t i = 0; i < n; ++i) {
      due += -std::log(1.0 - arrivals_.NextDouble()) * mean_gap_ns;
      const int64_t due_ns = static_cast<int64_t>(due);
      int64_t now = NowNs();
      if (now < due_ns) {
        const int64_t wait_from = now;
        while ((now = NowNs()) < due_ns) CpuRelax();
        idle_ns += now - wait_from;
      }
      slots_[i].lag_ns =
          static_cast<int32_t>(std::min<int64_t>(now - due_ns, INT32_MAX));
      issue(i, due_ns);
    }
  } else {
    // Callers with a free slot in the window send at once. The free count
    // is re-read only when it runs out, so polling the workers' completion
    // counters costs the producer once per batch, not once per RPC.
    const size_t window = spec_.window;
    size_t credit = 0;
    size_t i = 0;
    while (i < n) {
      if (cached && (credit == 0 || i % 8 == 0)) {
        responses += ServeMisses(mode, &rep);
      }
      if (reconfig) DriveReconfig(true);
      if (credit == 0) {
        const size_t in_flight = i - (Finished() - finished_base);
        credit = in_flight < window ? window - in_flight : 0;
      }
      if (credit > 0) {
        issue(i, 0);
        ++i;
        --credit;
        continue;
      }
      // Poll gently: each poll pulls the workers' completion lines away from
      // them, so a tight poll would slow the very workers it waits for.
      const int64_t wait_from = NowNs();
      for (;;) {
        for (int k = 0; k < kWaitPauses; ++k) CpuRelax();
        if (reconfig) DriveReconfig(true);
        if (i - (Finished() - finished_base) < window) break;
        if (cached) {
          bool pending = false;
          for (const WorkerSide& side : sides_) pending |= !side.misses->empty();
          if (pending) break;
        }
      }
      idle_ns += NowNs() - wait_from;
    }
  }
  // Every RPC of the rep completes before the clock stops.
  const int64_t tail_from = NowNs();
  while (Finished() - finished_base < n) {
    if (cached) responses += ServeMisses(mode, &rep);
    if (reconfig) DriveReconfig(false);
    for (int k = 0; k < kWaitPauses; ++k) CpuRelax();
  }
  const int64_t t1 = NowNs();
  idle_ns += t1 - tail_from;
  const int64_t cpu1 = ProcessCpuNs();
  const uint64_t allocs1 = common::alloc_stats::TotalAllocs();
  const int64_t ctx1 = ContextSwitches();
  // Quiesce: finish the in-flight migration and swap, then drain, so the
  // checks and the log clear below run on parked workers.
  while (reconfig && (pool_->MigrationActive() || swap_active_)) {
    DriveReconfig(false);
    CpuRelax();
  }
  pool_->Drain();
  if (mode == RepMode::kObs) {
    SetObs(false);
    adn::obs::Tracer::Default().Clear();
  }

  rep.rpcs = n;
  rep.responses = responses;
  rep.messages = n + responses;
  rep.wall_s = static_cast<double>(t1 - t0) / 1e9;
  rep.cpu_s = static_cast<double>(cpu1 - cpu0 - idle_ns) / 1e9;
  rep.ctx_switches = ctx1 - ctx0;
  rep.allocs = allocs1 - allocs0;
  size_t samples = 0;
  for (size_t i = 0; i < n; ++i) {
    if (slots_[i].finishes.load(std::memory_order_relaxed) == 0) continue;
    scratch_[samples++] = slots_[i].done_ns - slots_[i].start_ns;
  }
  rep.p50_us = PercentileOf(scratch_, samples, 0.50) / 1e3;
  rep.p99_us = PercentileOf(scratch_, samples, 0.99) / 1e3;
  if (spec_.open_loop) {
    for (size_t i = 0; i < n; ++i) scratch_[i] = slots_[i].lag_ns;
    rep.gen_lag_p99_us = PercentileOf(scratch_, n, 0.99) / 1e3;
  }
  if (traced) {
    for (size_t i = 0; i < n; ++i) scratch_[i] = slots_[i].submit_ns;
    rep.submit_p99_ns = PercentileOf(scratch_, n, 0.99);
  }
  CheckRep(n, responses);
  return rep;
}

// --- Output checks ----------------------------------------------------------

void Harness::CheckRep(size_t n, uint64_t responses) {
  uint64_t failed = stray_.exchange(0, std::memory_order_relaxed);
  if (failed != 0) tally_.Note("completion for an id that was never issued");
  uint64_t replies = 0;
  for (size_t i = 0; i < n; ++i) {
    const Slot& slot = slots_[i];
    const uint8_t finishes = slot.finishes.load(std::memory_order_relaxed);
    if (finishes != 1) {
      ++failed;
      tally_.Note(finishes == 0 ? "an RPC never completed"
                                : "an RPC completed more than once");
      continue;
    }
    const bool absent = absent_[slot.key] != 0;
    bool ok = false;
    switch (slot.outcome) {
      case kDenied:
        ok = absent;
        ++tally_.drops;
        break;
      case kPass:
      case kFault:
        ok = !absent && spec_.chain != Chain::kCached;
        if (spec_.chain == Chain::kFig5) {
          ++tally_.fault_trials;
          if (slot.outcome == kFault) {
            ++tally_.faults;
            ++tally_.drops;
          }
        } else if (slot.outcome == kFault) {
          ok = false;
        }
        if (ok && spec_.chain == Chain::kQuota) ++quota_passes_;
        break;
      case kReply:
        ok = !absent;
        ++replies;
        break;
      case kFilled:
        ok = !absent;
        break;
      case kBadReply:
        ++replies;
        tally_.Note("a cache reply carried another object's result");
        break;
      default:
        break;
    }
    if (!ok) {
      ++failed;
      if (slot.outcome != kBadReply) {
        tally_.Note(absent ? "a user missing from ac_tab was not denied"
                           : "an allowed RPC ended with a wrong outcome");
      }
    }
  }

  // Logging runs once per pass: first in fig5 and quota, so every request;
  // behind RespCache in the cached chain, so every miss and its response.
  if (options_.mutation == Mutation::kExtraLogRow) {
    (void)pool_->WorkerInstance(0, logging_index_)
        .FindTable("log_tab")
        ->Insert({rpc::Value(int64_t{0}), rpc::Value("nobody"),
                  rpc::Value(int64_t{0})});
  }
  const uint64_t expected_rows =
      spec_.chain == Chain::kCached ? (n - replies) + responses : n;
  uint64_t rows = 0;
  for (int w = 0; w < workers_; ++w) {
    rpc::Table* log = pool_->WorkerInstance(w, logging_index_).FindTable("log_tab");
    rows += log->RowCount();
    log->Clear();  // bounded state: the pool is drained and parked
  }
  if (rows != expected_rows) {
    failed += rows > expected_rows ? rows - expected_rows : expected_rows - rows;
    tally_.Note("log_tab rows differ from Logging passes");
  }

  // Quota: the total decrement equals the requests Quota admitted, across
  // every migration, so none was lost or applied twice.
  if (spec_.chain == Chain::kQuota) {
    if (options_.mutation == Mutation::kQuotaLeak) {
      rpc::Table* quota = pool_->WorkerInstance(0, quota_index_).FindTable("quota");
      if (!quota->rows().empty()) {
        rpc::Row row = quota->rows().front();
        row[1] = rpc::Value(row[1].AsInt() - 1);
        (void)quota->Insert(std::move(row));
      }
    }
    int64_t remaining = 0;
    size_t quota_rows = 0;
    for (int w = 0; w < workers_; ++w) {
      const rpc::Table* quota =
          pool_->WorkerInstance(w, quota_index_).FindTable("quota");
      quota_rows += quota->RowCount();
      for (const rpc::Row& row : quota->rows()) remaining += row[1].AsInt();
    }
    const int64_t decrement = quota_seeded_ - remaining;
    const int64_t admitted = static_cast<int64_t>(quota_passes_);
    if (quota_rows != quota_rows_ || decrement != admitted) {
      failed += static_cast<uint64_t>(std::llabs(decrement - admitted)) +
                (quota_rows != quota_rows_ ? 1 : 0);
      tally_.Note("quota decrement differs from admitted requests");
    }
  }
  tally_.attempted += n;
  tally_.failed += failed;
}

}  // namespace perfbench

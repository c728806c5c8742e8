// Concurrency tests: the SPSC ring under a real producer/consumer pair, the
// obs metrics registry under concurrent writers + snapshot readers + Reset,
// and the multi-worker EnginePool (shard routing, merge-on-read state
// invariants, live reconfiguration, the cached chain on the one compiled
// tier).
//
// This whole file is the ThreadSanitizer CI target (ci.yml `tsan` job):
// every test here must stay TSan-clean.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/arena.h"
#include "common/codec.h"
#include "common/rng.h"
#include "compiler/chain_compile.h"
#include "compiler/lower.h"
#include "dsl/parser.h"
#include "elements/library.h"
#include "mrpc/engine_pool.h"
#include "mrpc/ring.h"
#include "obs/event_ring.h"
#include "obs/metrics.h"
#include "rpc/intern.h"

namespace adn {
namespace {

using mrpc::EnginePool;
using mrpc::SpscRing;
using rpc::Value;

// --- SpscRing under two real threads -----------------------------------------

TEST(SpscRingStress, TwoThreadCountAndChecksum) {
  constexpr uint64_t kItems = 200'000;
  SpscRing<uint64_t> ring(64);

  uint64_t expected_sum = 0;
  uint64_t x = 0x9E3779B97F4A7C15ULL;
  for (uint64_t i = 0; i < kItems; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    expected_sum += x;
  }

  std::atomic<uint64_t> popped{0};
  std::atomic<uint64_t> sum{0};
  std::thread consumer([&] {
    uint64_t count = 0;
    uint64_t local_sum = 0;
    while (count < kItems) {
      if (std::optional<uint64_t> v = ring.TryPop()) {
        local_sum += *v;
        ++count;
      } else {
        std::this_thread::yield();
      }
    }
    popped.store(count, std::memory_order_release);
    sum.store(local_sum, std::memory_order_release);
  });

  uint64_t y = 0x9E3779B97F4A7C15ULL;
  for (uint64_t i = 0; i < kItems; ++i) {
    y ^= y << 13;
    y ^= y >> 7;
    y ^= y << 17;
    while (!ring.TryPush(y)) std::this_thread::yield();
  }
  consumer.join();

  EXPECT_EQ(popped.load(), kItems);
  EXPECT_EQ(sum.load(), expected_sum);
  EXPECT_EQ(ring.enqueued(), kItems);
  EXPECT_TRUE(ring.empty());
}

TEST(SpscRingStress, TwoThreadMoveOnlyOrdered) {
  constexpr int kItems = 50'000;
  SpscRing<std::unique_ptr<int>> ring(16);

  std::atomic<bool> ok{true};
  std::thread consumer([&] {
    for (int i = 0; i < kItems; ++i) {
      std::optional<std::unique_ptr<int>> v;
      while (!(v = ring.TryPop()).has_value()) std::this_thread::yield();
      if (*v == nullptr || **v != i) {
        ok.store(false, std::memory_order_release);
        return;
      }
    }
  });
  for (int i = 0; i < kItems; ++i) {
    auto p = std::make_unique<int>(i);
    while (!ring.TryPush(std::move(p))) {
      std::this_thread::yield();
      // TryPush only consumes the value on success.
    }
  }
  consumer.join();
  EXPECT_TRUE(ok.load());
}

TEST(SpscRingStress, TwoThreadBurstPopAgainstScalarProducer) {
  // Consumer drains with TryPopBurst while the producer pushes one at a
  // time: the burst drain's single acquire must still see fully published
  // slot contents (this is the exact shape the EnginePool worker loop runs).
  constexpr uint64_t kItems = 200'000;
  SpscRing<uint64_t> ring(64);

  std::atomic<bool> ok{true};
  std::thread consumer([&] {
    uint64_t out[48];
    uint64_t expect = 0;
    while (expect < kItems) {
      const size_t got = ring.TryPopBurst(out, 48);
      if (got == 0) {
        std::this_thread::yield();
        continue;
      }
      for (size_t i = 0; i < got; ++i) {
        if (out[i] != expect++) {
          ok.store(false, std::memory_order_release);
          return;
        }
      }
    }
  });
  for (uint64_t i = 0; i < kItems; ++i) {
    while (!ring.TryPush(i)) std::this_thread::yield();
  }
  consumer.join();
  EXPECT_TRUE(ok.load());
}

TEST(SpscRingStress, TwoThreadBurstPushBurstPopMoveOnly) {
  // Both ends bursty, move-only payloads: TryPushBurst's single release
  // must publish every slot it filled, and partially accepted bursts must
  // leave the rejected tail intact for retry.
  constexpr int kItems = 50'000;
  SpscRing<std::unique_ptr<int>> ring(16);

  std::atomic<bool> ok{true};
  std::thread consumer([&] {
    std::unique_ptr<int> out[8];
    int expect = 0;
    while (expect < kItems) {
      const size_t got = ring.TryPopBurst(out, 8);
      if (got == 0) {
        std::this_thread::yield();
        continue;
      }
      for (size_t i = 0; i < got; ++i) {
        if (out[i] == nullptr || *out[i] != expect++) {
          ok.store(false, std::memory_order_release);
          return;
        }
      }
    }
  });
  std::unique_ptr<int> in[8];
  int next = 0;
  while (next < kItems) {
    size_t n = 0;
    while (n < 8 && next + static_cast<int>(n) < kItems) {
      in[n] = std::make_unique<int>(next + static_cast<int>(n));
      ++n;
    }
    size_t sent = 0;
    while (sent < n) {
      const size_t accepted = ring.TryPushBurst(in + sent, n - sent);
      sent += accepted;
      if (accepted == 0) std::this_thread::yield();
    }
    next += static_cast<int>(n);
  }
  consumer.join();
  EXPECT_TRUE(ok.load());
}

TEST(SpscRingStress, ArenaMessagesHandOffAndRecycleAcrossThreads) {
  // The zero-allocation data plane's lifecycle under real threads: a single
  // producer leases an arena per message (ArenaPool::Acquire is single-
  // consumer), the lease rides the ring inside the moved Message, and the
  // CONSUMER thread's destruction releases the arena back to the pool
  // (Release is multi-producer). Two rings/consumers make the release side
  // genuinely concurrent — TSan runs this file in CI.
  constexpr int kItems = 20'000;
  constexpr int kConsumers = 2;
  common::ArenaPool pool(1024);
  const rpc::FieldId seq_fid = rpc::InternFieldName("seq_text");
  std::vector<std::unique_ptr<SpscRing<rpc::Message>>> rings;
  for (int c = 0; c < kConsumers; ++c) {
    rings.push_back(std::make_unique<SpscRing<rpc::Message>>(64));
  }

  std::atomic<bool> ok{true};
  std::vector<std::thread> consumers;
  for (int c = 0; c < kConsumers; ++c) {
    consumers.emplace_back([&, c] {
      for (int i = c; i < kItems; i += kConsumers) {
        std::optional<rpc::Message> m;
        while (!(m = rings[static_cast<size_t>(c)]->TryPop()).has_value()) {
          std::this_thread::yield();
        }
        const rpc::Value* v = m->FindField(seq_fid);
        if (v == nullptr || !m->arena_backed() ||
            v->AsText() != "m" + std::to_string(i)) {
          ok.store(false, std::memory_order_release);
          return;
        }
        // `m` destroyed here: the arena lease is released on THIS thread.
      }
    });
  }
  for (int i = 0; i < kItems; ++i) {
    rpc::Message m = rpc::Message::WithArena(pool);
    m.set_id(static_cast<uint64_t>(i));
    m.SetText(seq_fid, "m" + std::to_string(i));
    auto& ring = *rings[static_cast<size_t>(i % kConsumers)];
    while (!ring.TryPush(std::move(m))) std::this_thread::yield();
  }
  for (auto& t : consumers) t.join();
  EXPECT_TRUE(ok.load());
  // Steady state must run on recycled arenas, not fresh heap: the pool can
  // only ever create as many arenas as are simultaneously in flight, and
  // everything else is reuse. In flight at once: a full 64-slot ring per
  // consumer, plus the message each consumer holds after popping it (its
  // ring refills meanwhile), plus the one the producer is pushing.
  EXPECT_GT(pool.reused(), 0u);
  EXPECT_LE(pool.created(), static_cast<uint64_t>(kConsumers * (64 + 1) + 1));
  EXPECT_EQ(pool.created() + pool.reused(), static_cast<uint64_t>(kItems));
}

// --- obs::EventRing under real producer/consumer threads ---------------------

TEST(EventRingStress, TwoThreadEmitDrainLosslessWithRetry) {
  // Trace-record transport analogue of TwoThreadCountAndChecksum: a real
  // producer emitting 64-byte TraceEvents against a real consumer draining
  // in bursts. With the producer retrying on full, every event must arrive
  // exactly once with its payload intact.
  constexpr uint64_t kItems = 200'000;
  obs::EventRing ring(256);

  std::atomic<uint64_t> drained{0};
  std::atomic<uint64_t> sum{0};
  std::thread consumer([&] {
    obs::TraceEvent buf[64];
    uint64_t count = 0;
    uint64_t local_sum = 0;
    while (count < kItems) {
      const size_t n = ring.Drain(buf, 64);
      if (n == 0) {
        std::this_thread::yield();
        continue;
      }
      for (size_t i = 0; i < n; ++i) local_sum += buf[i].arg;
      count += n;
    }
    drained.store(count, std::memory_order_release);
    sum.store(local_sum, std::memory_order_release);
  });

  uint64_t expected_sum = 0;
  for (uint64_t i = 0; i < kItems; ++i) {
    obs::TraceEvent e;
    e.kind = obs::EventKind::kBurst;
    e.span_id = i + 1;
    e.arg = i * 2654435761ULL;
    expected_sum += e.arg;
    while (!ring.TryEmit(e)) std::this_thread::yield();
  }
  consumer.join();

  EXPECT_EQ(drained.load(), kItems);
  EXPECT_EQ(sum.load(), expected_sum);
  EXPECT_EQ(ring.emitted(), kItems);  // accepted events, not attempts
  EXPECT_EQ(ring.size(), 0u);
}

TEST(EventRingStress, EvictionIsDropCountedNeverBlocking) {
  // The telemetry-loss contract: a producer that never retries must never
  // block or lose events silently — what the consumer sees plus dropped()
  // accounts for every attempt, and the survivors keep FIFO order.
  constexpr uint64_t kAttempts = 100'000;
  obs::EventRing ring(64);

  std::atomic<bool> done{false};
  std::atomic<uint64_t> drained{0};
  std::atomic<bool> ordered{true};
  std::thread consumer([&] {
    obs::TraceEvent buf[32];
    uint64_t count = 0;
    uint64_t last_seen = 0;
    for (;;) {
      const size_t n = ring.Drain(buf, 32);
      for (size_t i = 0; i < n; ++i) {
        if (buf[i].arg <= last_seen && count + i > 0) {
          ordered.store(false, std::memory_order_release);
        }
        last_seen = buf[i].arg;
      }
      count += n;
      if (n == 0) {
        if (done.load(std::memory_order_acquire)) break;
        std::this_thread::yield();
      }
    }
    drained.store(count, std::memory_order_release);
  });

  for (uint64_t i = 0; i < kAttempts; ++i) {
    obs::TraceEvent e;
    e.kind = obs::EventKind::kBurst;
    e.arg = i + 1;  // strictly increasing payload: FIFO check is a < chain
    (void)ring.TryEmit(e);  // full ring drops — by design, never waits
  }
  done.store(true, std::memory_order_release);
  consumer.join();

  EXPECT_TRUE(ordered.load());
  EXPECT_EQ(drained.load() + ring.dropped(), kAttempts);
  EXPECT_EQ(ring.emitted(), drained.load());
  EXPECT_GT(ring.dropped(), 0u);  // capacity 64 vs 100k attempts must evict
}

TEST(EventRingStress, RegistryDrainAllAccountsEveryEmitAcrossThreads) {
  // Multi-producer shape of the real system: several worker threads each
  // emitting into their own registry-owned ring while one collector thread
  // drains concurrently. Every attempt ends up drained or drop-counted.
  auto& registry = obs::EventRingRegistry::Default();
  registry.Reset();

  constexpr int kThreads = 3;
  constexpr uint64_t kPerThread = 20'000;
  std::atomic<bool> start{false};
  std::vector<std::thread> producers;
  producers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    producers.emplace_back([&, t] {
      registry.SetThisThreadLabel("stress-" + std::to_string(t));
      while (!start.load(std::memory_order_acquire)) std::this_thread::yield();
      for (uint64_t i = 0; i < kPerThread; ++i) {
        obs::TraceEvent e;
        e.kind = obs::EventKind::kBurst;
        e.span_id = obs::NextSpanId();
        e.arg = i;
        obs::EmitEvent(e);
      }
    });
  }
  start.store(true, std::memory_order_release);

  uint64_t drained = 0;
  std::vector<obs::TraceEvent> out;
  for (int i = 0; i < 50; ++i) {  // drain concurrently with the producers
    out.clear();
    drained += registry.DrainAll(out);
    std::this_thread::yield();
  }
  for (std::thread& th : producers) th.join();
  for (;;) {  // final sweep after the producers stop
    out.clear();
    const size_t n = registry.DrainAll(out);
    if (n == 0) break;
    drained += n;
  }

  EXPECT_EQ(drained + registry.TotalDropped(),
            static_cast<uint64_t>(kThreads) * kPerThread);
  registry.Reset();
}

// --- Metrics registry under writers + snapshots + Reset ----------------------

TEST(RegistryStress, ConcurrentWritersSnapshotsAndReset) {
  obs::MetricsRegistry registry;  // private instance: no cross-test bleed

  constexpr int kWriters = 4;
  constexpr int kIterations = 20'000;
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (int t = 0; t < kWriters; ++t) {
    writers.emplace_back([&registry, t] {
      const std::string label = "writer=\"" + std::to_string(t) + "\"";
      for (int i = 0; i < kIterations; ++i) {
        // Re-resolve every iteration: races Get* against Reset's retirement.
        registry.GetCounter("stress_ops_total", label).Inc();
        registry.GetGauge("stress_depth", label).Set(i);
        registry.GetHistogram("stress_latency_ns", label)
            .Observe(100.0 + i % 1000);
      }
    });
  }
  std::thread reader([&registry, &stop] {
    int resets = 0;
    while (!stop.load(std::memory_order_acquire)) {
      obs::MetricsSnapshot snap = registry.Snapshot();
      // Every sample present in a snapshot must be internally consistent.
      for (const obs::MetricSample& s : snap.samples) {
        if (s.kind == obs::MetricKind::kHistogram) {
          uint64_t total = 0;
          for (uint64_t b : s.bucket_counts) total += b;
          ASSERT_LE(s.count, total + 0u);  // counts published before buckets?
        }
      }
      if (++resets % 16 == 0) registry.Reset();
      std::this_thread::yield();
    }
  });
  for (std::thread& t : writers) t.join();
  stop.store(true, std::memory_order_release);
  reader.join();

  // Post-reset registrations start fresh and export normally.
  registry.Reset();
  registry.GetCounter("stress_ops_total", "writer=\"0\"").Inc(7);
  const obs::MetricsSnapshot snap = registry.Snapshot();
  const obs::MetricSample* s =
      snap.Find("stress_ops_total", "writer=\"0\"");
  ASSERT_NE(s, nullptr);
  EXPECT_DOUBLE_EQ(s->value, 7.0);
}

TEST(RegistryStress, ResetKeepsOutstandingReferencesWritable) {
  obs::MetricsRegistry registry;
  obs::Counter& stale = registry.GetCounter("gen0_total");
  stale.Inc(3);
  registry.Reset();
  // The retired instrument stays valid writable memory; it is simply no
  // longer exported.
  stale.Inc(2);
  EXPECT_EQ(stale.Value(), 5u);
  EXPECT_EQ(registry.Snapshot().Find("gen0_total"), nullptr);
  // A fresh registration under the same name starts from zero.
  obs::Counter& fresh = registry.GetCounter("gen0_total");
  EXPECT_NE(&fresh, &stale);
  EXPECT_EQ(fresh.Value(), 0u);
}

// --- EnginePool ---------------------------------------------------------------

constexpr size_t kLoggingIdx = 0;
constexpr size_t kAclIdx = 1;

std::vector<std::shared_ptr<const ir::ElementIr>> LogAclElements() {
  auto parsed =
      dsl::ParseProgram(std::string(elements::AclTableSql()) +
                        std::string(elements::LogTableSql()) +
                        std::string(elements::LoggingSql()) +
                        std::string(elements::AclSql()));
  auto lowered = compiler::LowerProgram(*parsed);
  EXPECT_TRUE(lowered.ok());
  return {lowered->FindElement("Logging"), lowered->FindElement("Acl")};
}

std::string UserName(int i) { return "user" + std::to_string(i); }

rpc::Message MakeReq(uint64_t id, const std::string& user) {
  Bytes payload(64, 0xAB);
  return rpc::Message::MakeRequest(
      id, "Obj.Put",
      {{"username", Value(user)}, {"payload", Value(std::move(payload))}});
}

void SeedUsers(EnginePool& pool, int users) {
  rpc::Table* acl =
      pool.FindTemplateInstance("Acl")->FindTable("ac_tab");
  for (int i = 0; i < users; ++i) {
    ASSERT_TRUE(acl->Insert({Value(UserName(i)), Value("W")}).ok());
  }
}

TEST(EnginePool, SameKeyAlwaysLandsOnTheSameWorker) {
  EnginePool::Config config;
  config.workers = 4;
  config.shard_key_field = "username";
  EnginePool pool(LogAclElements(), {}, config);
  SeedUsers(pool, 32);
  ASSERT_TRUE(pool.Start().ok());

  // Routing is a pure function of the key.
  std::map<std::string, int> routed;
  for (int i = 0; i < 32; ++i) {
    const std::string user = UserName(i);
    const int w = pool.WorkerOfKey(Value(user));
    EXPECT_EQ(w, pool.WorkerOfKey(Value(user)));
    routed[user] = w;
  }
  uint64_t id = 0;
  for (int round = 0; round < 50; ++round) {
    for (int i = 0; i < 32; ++i) {
      EXPECT_EQ(pool.Submit(MakeReq(++id, UserName(i))), routed[UserName(i)]);
    }
  }
  pool.Stop();

  // Every log row landed on the worker its username routes to, and each
  // worker's ACL shard held exactly the rows its routed users needed (no
  // message was denied).
  EXPECT_EQ(pool.processed(), 50u * 32u);
  EXPECT_EQ(pool.dropped(), 0u);
  for (int w = 0; w < pool.workers(); ++w) {
    const rpc::Table* log =
        pool.WorkerInstance(w, kLoggingIdx).FindTable("log_tab");
    ASSERT_NE(log, nullptr);
    for (const rpc::Row& row : log->rows()) {
      EXPECT_EQ(routed[std::string(row[1].AsText())], w)
          << "log row for " << row[1].AsText() << " on wrong worker";
    }
  }
}

TEST(EnginePool, ShardTotalsMergeToTheUnshardedResult) {
  constexpr int kUsers = 48;     // seeded with W permission
  constexpr int kStrangers = 8;  // not in ac_tab -> denied
  constexpr uint64_t kMessages = 4'000;

  auto run = [&](int workers) {
    EnginePool::Config config;
    config.workers = workers;
    config.shard_key_field = "username";
    auto pool = std::make_unique<EnginePool>(LogAclElements(),
                                             std::vector<int>{}, config);
    SeedUsers(*pool, kUsers);
    EXPECT_TRUE(pool->Start().ok());
    for (uint64_t id = 1; id <= kMessages; ++id) {
      pool->Submit(MakeReq(
          id, UserName(static_cast<int>(id % (kUsers + kStrangers)))));
    }
    pool->Stop();
    return pool;
  };

  auto one = run(1);
  auto four = run(4);

  EXPECT_EQ(one->processed(), kMessages);
  EXPECT_EQ(four->processed(), kMessages);
  EXPECT_EQ(one->dropped(), four->dropped());
  EXPECT_GT(four->dropped(), 0u);

  // Merge-on-read: the union of the 4 workers' shards is byte-for-byte the
  // single-worker state (log rows are keyed by message id + user, so the
  // content hash is order-insensitive and partition-invariant).
  for (size_t e : {kLoggingIdx, kAclIdx}) {
    EXPECT_EQ(four->MergedStateHash(e), one->MergedStateHash(e));
  }
  // The ACL table is read-only traffic: sharding round-trips it exactly
  // (the PR 4 migration invariant, live).
  size_t acl_rows = 0;
  size_t log_rows = 0;
  for (int w = 0; w < four->workers(); ++w) {
    acl_rows += four->WorkerInstance(w, kAclIdx).FindTable("ac_tab")->RowCount();
    log_rows +=
        four->WorkerInstance(w, kLoggingIdx).FindTable("log_tab")->RowCount();
  }
  EXPECT_EQ(acl_rows, static_cast<size_t>(kUsers));
  // Log rows partition exactly: per-worker row counts sum to the total.
  EXPECT_EQ(log_rows, kMessages);
  // Scale-in of the stopped pool: moving every worker's state into one
  // instance reproduces the single-worker state.
  const auto elements = LogAclElements();
  for (size_t e : {kLoggingIdx, kAclIdx}) {
    ir::ElementInstance merged(elements[e], 7);
    ir::ElementInstance* const into[] = {&merged};
    for (int w = 0; w < four->workers(); ++w) {
      ASSERT_TRUE(four->WorkerInstance(w, e).MoveStateTo(into).ok());
    }
    EXPECT_EQ(merged.StateContentHash(), one->MergedStateHash(e));
  }
}

TEST(EnginePool, StateHashInvariantAfterStart) {
  EnginePool::Config config;
  config.workers = 3;
  config.shard_key_field = "username";
  EnginePool pool(LogAclElements(), {}, config);
  SeedUsers(pool, 100);
  const uint64_t seeded_hash =
      pool.FindTemplateInstance("Acl")->StateContentHash();
  ASSERT_TRUE(pool.Start().ok());
  // Sharding the seed state across workers loses nothing.
  EXPECT_EQ(pool.MergedStateHash(kAclIdx), seeded_hash);
  pool.Stop();
}

// One partition: Start() shards the template state with the router's own
// function, so at any worker count every seeded key's row sits on the
// worker its messages route to, and nowhere else.
TEST(EnginePool, StartPlacesEverySeededKeyOnItsRoutedWorker) {
  constexpr int kUsers = 200;
  for (int workers : {1, 2, 3}) {
    EnginePool::Config config;
    config.workers = workers;
    config.shard_key_field = "username";
    EnginePool pool(LogAclElements(), {}, config);
    SeedUsers(pool, kUsers);
    const uint64_t seeded_hash =
        pool.FindTemplateInstance("Acl")->StateContentHash();
    ASSERT_TRUE(pool.Start().ok());
    pool.Stop();
    size_t rows = 0;
    for (int w = 0; w < workers; ++w) {
      rows += pool.WorkerInstance(w, kAclIdx).FindTable("ac_tab")->RowCount();
    }
    EXPECT_EQ(rows, static_cast<size_t>(kUsers)) << workers << " workers";
    for (int i = 0; i < kUsers; ++i) {
      const Value key(UserName(i));
      const int owner = pool.WorkerOfKey(key);
      for (int w = 0; w < workers; ++w) {
        const rpc::Table* acl =
            pool.WorkerInstance(w, kAclIdx).FindTable("ac_tab");
        EXPECT_EQ(acl->LookupSingleKey(key) != nullptr, w == owner)
            << UserName(i) << " on worker " << w << " of " << workers;
      }
    }
    EXPECT_EQ(pool.MergedStateHash(kAclIdx), seeded_hash)
        << workers << " workers";
  }
}

// Start's placement, pinned: each worker's per-element state hash and
// per-table row counts after Start, recorded from the byte split/restore
// that Start used before it handed the template's key-slot shards over.
// The chain holds a route-keyed table (Acl's ac_tab), a table keyed by
// another field (HashLb's endpoints) and a keyless log seeded before Start.
struct StartGolden {
  uint64_t hash[3];  // Logging, Acl, HashLb
  size_t rows[3];    // log_tab, ac_tab, endpoints
};

TEST(EnginePool, StartPlacementMatchesRecordedGolden) {
  auto parsed = dsl::ParseProgram(
      std::string(elements::AclTableSql()) +
      std::string(elements::LogTableSql()) +
      std::string(elements::EndpointsTableSql()) +
      std::string(elements::LoggingSql()) + std::string(elements::AclSql()) +
      std::string(elements::HashLbSql()));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  auto lowered = compiler::LowerProgram(*parsed);
  ASSERT_TRUE(lowered.ok()) << lowered.status().ToString();
  const std::vector<std::shared_ptr<const ir::ElementIr>> elements = {
      lowered->FindElement("Logging"), lowered->FindElement("Acl"),
      lowered->FindElement("HashLb")};
  const char* const tables[3] = {"log_tab", "ac_tab", "endpoints"};

  // Indexed by worker count - 1, then worker.
  const std::vector<std::vector<StartGolden>> golden = {
      {{{0x041d66096a4e8405ULL, 0xbdf7301b83497dd0ULL, 0x1733e1c758b04dd2ULL},
        {50, 200, 16}}},
      {{{0x4e5237099a47103eULL, 0x544ed646965b74f8ULL, 0x271ac0d3d43dddc9ULL},
        {25, 100, 7}},
       {{0x4a4f5100f009943bULL, 0xe9b9e65d15120928ULL, 0x302921148c8d901bULL},
        {25, 100, 9}}},
      {{{0x2cef1f1e49025ad1ULL, 0x7e4494c3e4814462ULL, 0x1357a67a50971e2dULL},
        {20, 70, 6}},
       {{0xce19c29fd5737063ULL, 0xa5b8b07a217d25bfULL, 0x0d8daa60dcd4aa74ULL},
        {15, 62, 7}},
       {{0xe6ebbb88f63faeb7ULL, 0x660b14a246b51c0dULL, 0x09e9edddd4f3f98bULL},
        {15, 68, 3}}},
      {{{0x31e8bc3550f0c608ULL, 0x13fd940d766568f0ULL, 0xb673c9e28f0a4e4aULL},
        {12, 50, 1}},
       {{0x98d15f42be5c59ecULL, 0xfd44e016990be280ULL, 0xf027370de26b67c3ULL},
        {12, 50, 8}},
       {{0x7fba8b3ccab7d636ULL, 0x47b3424be03e1c08ULL, 0x916909315b379383ULL},
        {13, 50, 6}},
       {{0xd29e0e424e55cdd7ULL, 0x14fd064b8c19eba8ULL, 0xc00e16196ee6f7d8ULL},
        {13, 50, 1}}},
  };

  for (int workers = 1; workers <= 4; ++workers) {
    EnginePool::Config config;
    config.workers = workers;
    config.shard_key_field = "username";
    EnginePool pool(elements, {}, config);
    ir::ElementInstance* log = pool.FindTemplateInstance("Logging");
    for (int i = 0; i < 50; ++i) {
      ASSERT_TRUE(log->FindTable("log_tab")
                      ->Insert({Value(static_cast<int64_t>(i)),
                                Value(UserName(i % 7)),
                                Value(static_cast<int64_t>(i * 3))})
                      .ok());
    }
    SeedUsers(pool, 200);
    rpc::Table* endpoints =
        pool.FindTemplateInstance("HashLb")->FindTable("endpoints");
    for (int64_t s = 0; s < 16; ++s) {
      ASSERT_TRUE(endpoints->Insert({Value(s), Value(100 + s)}).ok());
    }
    ASSERT_TRUE(pool.Start().ok());
    pool.Stop();
    // Start takes the template's rows: none stay behind.
    for (size_t e = 0; e < 3; ++e) {
      EXPECT_TRUE(pool.TemplateInstance(e)->FindTable(tables[e])->empty())
          << tables[e] << ", " << workers << " workers";
    }
    for (int w = 0; w < workers; ++w) {
      const StartGolden& want =
          golden[static_cast<size_t>(workers - 1)][static_cast<size_t>(w)];
      for (size_t e = 0; e < 3; ++e) {
        const ir::ElementInstance& inst = pool.WorkerInstance(w, e);
        EXPECT_EQ(inst.StateContentHash(), want.hash[e])
            << tables[e] << " on worker " << w << " of " << workers;
        EXPECT_EQ(inst.FindTable(tables[e])->RowCount(), want.rows[e])
            << tables[e] << " on worker " << w << " of " << workers;
      }
    }
  }
}

TEST(EnginePool, MissingShardKeyFallsBackToIdRouting) {
  EnginePool::Config config;
  config.workers = 4;
  config.shard_key_field = "no_such_field";
  EnginePool pool(LogAclElements(), {}, config);
  SeedUsers(pool, 4);
  ASSERT_TRUE(pool.Start().ok());
  std::vector<int> seen(4, 0);
  for (uint64_t id = 1; id <= 256; ++id) {
    const int w = pool.Submit(MakeReq(id, UserName(static_cast<int>(id % 4))));
    EXPECT_EQ(w, pool.WorkerOfKey(Value(static_cast<int64_t>(id))));
    ++seen[static_cast<size_t>(w)];
  }
  pool.Stop();
  // Id hashing spreads load across every worker.
  for (int count : seen) EXPECT_GT(count, 0);
}

// Single-message ping-pong: the producer submits one RPC and waits for it
// before the next, so the worker parks between nearly every pair. Submit's
// fence between its ring push and its load of the worker's `sleeping` flag
// is what keeps a parked worker from missing the push; a miss shows up as a
// round trip stuck in the worker's 1 ms timed wait.
TEST(EnginePool, PingPongWakesAParkedWorkerEveryTime) {
  constexpr int kRoundTrips = 400;
  std::atomic<uint64_t> done{0};
  EnginePool::Config config;
  config.workers = 1;
  config.on_done = [&](int, const rpc::Message&, const ir::ProcessResult&) {
    done.fetch_add(1, std::memory_order_release);
  };
  EnginePool pool(LogAclElements(), {}, config);
  SeedUsers(pool, 1);
  ASSERT_TRUE(pool.Start().ok());
  std::vector<int64_t> round_trip_ns;
  round_trip_ns.reserve(kRoundTrips);
  for (uint64_t id = 1; id <= kRoundTrips; ++id) {
    const auto start = std::chrono::steady_clock::now();
    pool.Submit(MakeReq(id, UserName(0)));
    while (done.load(std::memory_order_acquire) < id) {
      std::this_thread::yield();
    }
    round_trip_ns.push_back(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                std::chrono::steady_clock::now() - start)
                                .count());
  }
  pool.Stop();
  EXPECT_EQ(pool.processed(), static_cast<uint64_t>(kRoundTrips));
  EXPECT_EQ(pool.dropped(), 0u);
  std::sort(round_trip_ns.begin(), round_trip_ns.end());
  EXPECT_LT(round_trip_ns[kRoundTrips / 2], 500'000)
      << "the median round trip waited out the worker's timed park";
}

// Payload UDFs read their argument unchecked. A field of the wrong type
// must abort that RPC with a reason, an absent one must pass as NULL, and
// the worker must live on to serve the next, well-typed RPC.
TEST(EnginePool, IllTypedPayloadAbortsWithoutKillingTheWorker) {
  auto parsed = dsl::ParseProgram(std::string(elements::CompressSql()));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  auto lowered = compiler::LowerProgram(*parsed);
  ASSERT_TRUE(lowered.ok()) << lowered.status().ToString();

  struct Seen {
    ir::ProcessOutcome outcome;
    std::string reason;
    rpc::ValueType payload_type;
    Bytes payload;
  };
  std::vector<Seen> seen;  // written by the one worker, read after Stop()
  EnginePool::Config config;
  config.workers = 1;
  config.on_done = [&](int, const rpc::Message& m,
                       const ir::ProcessResult& r) {
    const Value payload = m.GetFieldOrNull("payload");
    Seen s{r.outcome, r.abort_message, payload.type(), {}};
    if (payload.type() == rpc::ValueType::kBytes) {
      BytesView b = payload.AsBytes();
      s.payload.assign(b.begin(), b.end());
    }
    seen.push_back(std::move(s));
  };
  EnginePool pool({lowered->FindElement("Compress")}, {}, config);
  ASSERT_TRUE(pool.Start().ok());
  const Bytes body(256, 0x5A);
  pool.Submit(rpc::Message::MakeRequest(1, "Obj.Put",
                                        {{"payload", Value(int64_t{7})}}));
  pool.Submit(rpc::Message::MakeRequest(2, "Obj.Put", {}));
  pool.Submit(
      rpc::Message::MakeRequest(3, "Obj.Put", {{"payload", Value(body)}}));
  pool.Stop();

  ASSERT_EQ(seen.size(), 3u);
  EXPECT_EQ(seen[0].outcome, ir::ProcessOutcome::kDropAbort);
  EXPECT_NE(seen[0].reason.find("compress"), std::string::npos)
      << seen[0].reason;
  EXPECT_EQ(seen[1].outcome, ir::ProcessOutcome::kPass);
  EXPECT_EQ(seen[1].payload_type, rpc::ValueType::kNull);
  EXPECT_EQ(seen[2].outcome, ir::ProcessOutcome::kPass);
  auto plain = DecompressBytes(seen[2].payload);
  ASSERT_TRUE(plain.ok()) << plain.error().ToString();
  EXPECT_EQ(plain.value(), body);
  EXPECT_EQ(pool.processed(), 3u);
  EXPECT_EQ(pool.dropped(), 1u);
}

// CompressBytes keeps its hash-chain heads in a per-thread table; threads
// compressing at once must neither share it nor see each other's slots.
TEST(CompressStress, ConcurrentCallersGetDeterministicOutput) {
  std::vector<Bytes> inputs;
  for (size_t n : {16384u, 64u, 1024u, 70u * 1024u, 5u}) {
    Bytes data(n);
    for (size_t i = 0; i < n; ++i) {
      data[i] = static_cast<uint8_t>((i * 31 + n) % 11 + (i % 97 == 0 ? i : 0));
    }
    inputs.push_back(std::move(data));
  }
  std::vector<Bytes> expected;
  for (const Bytes& in : inputs) expected.push_back(CompressBytes(in));

  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < 20; ++round) {
        for (size_t k = 0; k < inputs.size(); ++k) {
          const size_t i = (k + static_cast<size_t>(t)) % inputs.size();
          if (CompressBytes(inputs[i]) != expected[i]) ++mismatches;
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
}

// --- Live reconfiguration (docs/RECONFIG.md) ----------------------------------

constexpr size_t kQuotaIdx = 2;

// Logging + Acl + Quota: an append-only log, a read-only keyed table, and a
// keyed table mutated on every message — the three state shapes the live
// migration protocol must carry (log rows stay put, ACL and quota shards
// change hands while quota rows are being updated).
std::vector<std::shared_ptr<const ir::ElementIr>> LogAclQuotaElements() {
  auto parsed =
      dsl::ParseProgram(std::string(elements::AclTableSql()) +
                        std::string(elements::LogTableSql()) +
                        std::string(elements::QuotaTableSql()) +
                        std::string(elements::LoggingSql()) +
                        std::string(elements::AclSql()) +
                        std::string(elements::QuotaSql()));
  auto lowered = compiler::LowerProgram(*parsed);
  EXPECT_TRUE(lowered.ok());
  return {lowered->FindElement("Logging"), lowered->FindElement("Acl"),
          lowered->FindElement("Quota")};
}

void SeedQuota(EnginePool& pool, int users, int64_t remaining) {
  rpc::Table* quota =
      pool.FindTemplateInstance("Quota")->FindTable("quota");
  for (int i = 0; i < users; ++i) {
    ASSERT_TRUE(quota->Insert({Value(UserName(i)), Value(remaining)}).ok());
  }
}

TEST(EnginePoolReconfig, LiveSlotMigrationUnderTrafficIsLossless) {
  constexpr int kUsers = 32;
  constexpr uint64_t kMessages = 12'000;

  // Reference: the same traffic through one worker, no migrations.
  uint64_t ref_hash[3];
  {
    EnginePool::Config config;
    config.workers = 1;
    config.shard_key_field = "username";
    EnginePool ref(LogAclQuotaElements(), {}, config);
    SeedUsers(ref, kUsers);
    SeedQuota(ref, kUsers, 1'000);
    ASSERT_TRUE(ref.Start().ok());
    for (uint64_t id = 1; id <= kMessages; ++id) {
      ref.Submit(MakeReq(id, UserName(static_cast<int>(id % kUsers))));
    }
    ref.Stop();
    ASSERT_EQ(ref.processed(), kMessages);
    ASSERT_EQ(ref.dropped(), 0u);
    for (size_t e = 0; e < 3; ++e) ref_hash[e] = ref.MergedStateHash(e);
  }

  EnginePool::Config config;
  config.workers = 4;
  config.shard_key_field = "username";
  // Small rings keep the control-op barriers short: a ctrl op waits for the
  // ring backlog submitted before it, so backlog depth bounds each phase.
  config.ring_capacity = 256;
  EnginePool pool(LogAclQuotaElements(), {}, config);
  SeedUsers(pool, kUsers);
  SeedQuota(pool, kUsers, 1'000);
  ASSERT_TRUE(pool.Start().ok());

  // Migrate the slots of a handful of live users while their traffic (and
  // everyone else's) keeps flowing; each Begin fires mid-stream, as soon as
  // its window opens and the previous migration finished.
  const std::vector<uint64_t> start_at = {1'000, 4'000, 7'000, 10'000};
  std::vector<int> moved_slot;
  std::vector<int> moved_to;
  size_t next_mig = 0;
  for (uint64_t id = 1; id <= kMessages; ++id) {
    pool.Submit(MakeReq(id, UserName(static_cast<int>(id % kUsers))));
    if (next_mig < start_at.size() && id >= start_at[next_mig] &&
        !pool.MigrationActive()) {
      const int slot = EnginePool::SlotOfKey(
          Value(UserName(static_cast<int>(next_mig))));
      const int to = (pool.WorkerOfSlot(slot) + 1) % pool.workers();
      ASSERT_TRUE(pool.BeginSlotMigration(slot, to).ok());
      moved_slot.push_back(slot);
      moved_to.push_back(to);
      ++next_mig;
    }
    pool.PumpMigration();
  }
  while (pool.MigrationActive()) {
    pool.PumpMigration();
    std::this_thread::yield();
  }
  pool.Stop();
  ASSERT_EQ(next_mig, start_at.size()) << "every migration should have begun";

  // Zero drops, every message processed exactly once, and the merged state
  // is byte-for-byte the no-migration run — rows moved, none lost or
  // double-applied.
  EXPECT_EQ(pool.processed(), kMessages);
  EXPECT_EQ(pool.dropped(), 0u);
  for (size_t e = 0; e < 3; ++e) {
    EXPECT_EQ(pool.MergedStateHash(e), ref_hash[e]) << "element " << e;
  }
  // The flips stuck: each moved slot routes to its destination.
  for (size_t i = 0; i < moved_slot.size(); ++i) {
    EXPECT_EQ(pool.WorkerOfSlot(moved_slot[i]), moved_to[i]);
  }
  // The last migration's stats describe a real hand-off: the slot's rows
  // changed worker with no byte copied or delta replayed, and the blackout
  // window stayed finite.
  const EnginePool::LiveMigrationStats& stats = pool.migration_stats();
  EXPECT_EQ(stats.slot, moved_slot.back());
  EXPECT_EQ(stats.to, moved_to.back());
  EXPECT_GT(stats.moved_rows, 0u);
  EXPECT_EQ(stats.bulk_bytes, 0u);
  EXPECT_EQ(stats.delta_upserts + stats.delta_deletes, 0u);
  EXPECT_GE(stats.blackout_ns, 0);
}

// LogAclQuotaElements with a different Acl code object (its ON DROP text
// differs): state-compatible and, for users holding 'W', behaviourally
// identical, so a swap to it must leave every outcome and state unchanged.
std::vector<std::shared_ptr<const ir::ElementIr>> LogAclQuotaElementsV2() {
  auto parsed =
      dsl::ParseProgram(std::string(elements::AclTableSql()) +
                        std::string(elements::LogTableSql()) +
                        std::string(elements::QuotaTableSql()) +
                        std::string(elements::LoggingSql()) + R"(
ELEMENT Acl ON REQUEST {
  INPUT (username TEXT, payload BYTES);
  ON DROP ABORT 'permission denied (v2)';
  SELECT * FROM input JOIN ac_tab ON input.username = ac_tab.username
    WHERE ac_tab.permission = 'W';
}
)" + std::string(elements::QuotaSql()));
  auto lowered = compiler::LowerProgram(*parsed);
  EXPECT_TRUE(lowered.ok());
  return {lowered->FindElement("Logging"), lowered->FindElement("Acl"),
          lowered->FindElement("Quota")};
}

TEST(EnginePoolReconfig, EverySlotMigratesAndReturnsLosslessly) {
  constexpr int kUsers = 1024;  // rows in every one of the 64 slots
  constexpr uint64_t kMinMessages = 20'000;
  constexpr size_t kSlots = EnginePool::kRouteSlots;

  obs::MetricsRegistry::Default().Reset();
  obs::SetEnabled(true);
  EnginePool::Config config;
  config.workers = 2;
  config.shard_key_field = "username";
  config.processor = "every-slot";
  config.ring_capacity = 256;
  EnginePool pool(LogAclQuotaElements(), {}, config);
  SeedUsers(pool, kUsers);
  SeedQuota(pool, kUsers, 1'000'000);
  ASSERT_TRUE(pool.Start().ok());
  std::vector<int> home(kSlots);
  for (size_t s = 0; s < kSlots; ++s) {
    home[s] = pool.WorkerOfSlot(static_cast<int>(s));
  }

  // All 64 slots move to the other worker, one at a time, then all 64 move
  // back; traffic to every user flows throughout, and one program swap
  // lands between the two sweeps.
  size_t migrations = 0;
  bool swapped = false;
  uint64_t id = 0;
  uint64_t moved_rows = 0;
  while (migrations < 2 * kSlots || pool.MigrationActive() ||
         id < kMinMessages) {
    ++id;
    pool.Submit(MakeReq(id, UserName(static_cast<int>(id % kUsers))));
    pool.PumpMigration();
    if (pool.MigrationActive() || migrations == 2 * kSlots) continue;
    if (migrations > 0) {
      const EnginePool::LiveMigrationStats& st = pool.migration_stats();
      moved_rows += st.moved_rows;
      EXPECT_EQ(st.bulk_bytes, 0u);
      for (size_t op = 0; op < EnginePool::kReconfigOps; ++op) {
        if (op == static_cast<size_t>(EnginePool::ReconfigOp::kSwap)) {
          EXPECT_EQ(st.op_ns[op], 0);
        } else {
          EXPECT_GT(st.op_ns[op], 0) << EnginePool::ReconfigOpName(
              static_cast<EnginePool::ReconfigOp>(op));
        }
      }
    }
    if (migrations == kSlots && !swapped) {
      ASSERT_TRUE(pool.SwapProgram(LogAclQuotaElementsV2()).ok());
      swapped = true;
    }
    const int slot = static_cast<int>(migrations % kSlots);
    const int to = migrations < kSlots ? 1 - home[static_cast<size_t>(slot)]
                                       : home[static_cast<size_t>(slot)];
    ASSERT_TRUE(pool.BeginSlotMigration(slot, to).ok());
    ++migrations;
  }
  moved_rows += pool.migration_stats().moved_rows;
  pool.Drain();
  EXPECT_TRUE(pool.SwapComplete());
  pool.Stop();
  const uint64_t total = id;

  // Exactly once: every RPC completed, none dropped, one log row each.
  EXPECT_EQ(pool.processed(), total);
  EXPECT_EQ(pool.dropped(), 0u);
  size_t log_rows = 0;
  for (int w = 0; w < pool.workers(); ++w) {
    log_rows +=
        pool.WorkerInstance(w, kLoggingIdx).FindTable("log_tab")->RowCount();
  }
  EXPECT_EQ(log_rows, total);
  for (size_t s = 0; s < kSlots; ++s) {
    EXPECT_EQ(pool.WorkerOfSlot(static_cast<int>(s)), home[s]);
  }
  // Every slot held rows and moved twice: each keyed row (ACL and quota,
  // kUsers each) changed worker exactly twice.
  EXPECT_EQ(moved_rows, 2u * 2u * kUsers);
  // Every control op was timed into the contract histogram.
  const std::string label = "processor=\"every-slot\",op=\"";
  for (const char* op : {"detach", "adopt"}) {
    EXPECT_EQ(obs::MetricsRegistry::Default()
                  .GetHistogram("adn_reconfig_op_ns", label + op + "\"")
                  .Count(),
              2 * kSlots)
        << op;
  }
  EXPECT_EQ(obs::MetricsRegistry::Default()
                .GetHistogram("adn_reconfig_op_ns", label + "swap\"")
                .Count(),
            2u);
  obs::SetEnabled(false);
  obs::MetricsRegistry::Default().Reset();

  // The one-instance oracle: the same RPCs through one worker, no moves.
  EnginePool::Config one;
  one.workers = 1;
  one.shard_key_field = "username";
  EnginePool ref(LogAclQuotaElements(), {}, one);
  SeedUsers(ref, kUsers);
  SeedQuota(ref, kUsers, 1'000'000);
  ASSERT_TRUE(ref.Start().ok());
  for (uint64_t i = 1; i <= total; ++i) {
    ref.Submit(MakeReq(i, UserName(static_cast<int>(i % kUsers))));
  }
  ref.Stop();
  ASSERT_EQ(ref.processed(), total);
  for (size_t e = 0; e < 3; ++e) {
    EXPECT_EQ(pool.MergedStateHash(e), ref.MergedStateHash(e))
        << "element " << e;
  }
}

TEST(EnginePoolReconfig, HandOffMovesTheSlotsStorageUncopied) {
  constexpr int kUsers = 64;
  EnginePool::Config config;
  config.workers = 2;
  config.shard_key_field = "username";
  EnginePool pool(LogAclQuotaElements(), {}, config);
  SeedUsers(pool, kUsers);
  SeedQuota(pool, kUsers, 1'000);
  ASSERT_TRUE(pool.Start().ok());
  const std::string user = UserName(3);
  const int slot = EnginePool::SlotOfKey(Value(user));
  const int from = pool.WorkerOfSlot(slot);
  const int to = 1 - from;
  const Value* quota_row = pool.WorkerInstance(from, kQuotaIdx)
                               .FindTable("quota")
                               ->LookupSingleKey(Value(user));
  const Value* acl_row = pool.WorkerInstance(from, kAclIdx)
                             .FindTable("ac_tab")
                             ->LookupSingleKey(Value(user));
  ASSERT_NE(quota_row, nullptr);
  ASSERT_NE(acl_row, nullptr);

  // The user's traffic keeps arriving while its slot moves: it is held,
  // then runs at the destination after the adopt.
  ASSERT_TRUE(pool.BeginSlotMigration(slot, to).ok());
  uint64_t id = 0;
  for (int i = 0; i < 100; ++i) {
    pool.Submit(MakeReq(++id, user));
    pool.Submit(MakeReq(++id, UserName(i % kUsers == 3 ? 4 : i % kUsers)));
    pool.PumpMigration();
  }
  while (pool.MigrationActive()) {
    pool.PumpMigration();
    std::this_thread::yield();
  }
  pool.Drain();
  EXPECT_EQ(pool.dropped(), 0u);
  EXPECT_EQ(pool.WorkerOfSlot(slot), to);
  // The destination serves the very cells the source gave up.
  const rpc::Table* quota = pool.WorkerInstance(to, kQuotaIdx).FindTable("quota");
  EXPECT_EQ(quota->LookupSingleKey(Value(user)), quota_row);
  EXPECT_EQ(pool.WorkerInstance(to, kAclIdx)
                .FindTable("ac_tab")
                ->LookupSingleKey(Value(user)),
            acl_row);
  EXPECT_EQ(quota_row[1].AsInt(), 1'000 - 100);
  EXPECT_EQ(pool.WorkerInstance(from, kQuotaIdx)
                .FindTable("quota")
                ->LookupSingleKey(Value(user)),
            nullptr);
  const EnginePool::LiveMigrationStats& st = pool.migration_stats();
  EXPECT_GT(st.held_messages, 0u);
  EXPECT_GT(st.moved_rows, 0u);
  pool.Stop();
}

TEST(EnginePoolReconfig, ProgramHotSwapUnderTrafficKeepsState) {
  constexpr int kUsers = 16;
  constexpr uint64_t kBefore = 2'000;
  constexpr uint64_t kAfter = 2'000;

  EnginePool::Config config;
  config.workers = 2;
  config.shard_key_field = "username";
  EnginePool pool(LogAclElements(), {}, config);
  SeedUsers(pool, kUsers);
  ASSERT_TRUE(pool.Start().ok());
  ASSERT_TRUE(pool.whole_chain_compiled());
  const uint64_t v0 = pool.program_version();
  EXPECT_GT(v0, 0u);

  for (uint64_t id = 1; id <= kBefore; ++id) {
    pool.Submit(MakeReq(id, UserName(static_cast<int>(id % kUsers))));
  }

  // Same state tables, new logic: the swapped Acl only admits permission
  // 'X', which nobody holds — a behavioral flip that proves which program
  // each message ran under.
  auto parsed = dsl::ParseProgram(
      std::string(elements::AclTableSql()) +
      std::string(elements::LogTableSql()) +
      std::string(elements::LoggingSql()) + R"(
ELEMENT Acl ON REQUEST {
  INPUT (username TEXT, payload BYTES);
  ON DROP ABORT 'lockdown';
  SELECT * FROM input JOIN ac_tab ON input.username = ac_tab.username
    WHERE ac_tab.permission = 'X';
}
)");
  auto lowered = compiler::LowerProgram(*parsed);
  ASSERT_TRUE(lowered.ok());
  ASSERT_TRUE(pool.SwapProgram({lowered->FindElement("Logging"),
                                lowered->FindElement("Acl")})
                  .ok());
  EXPECT_GT(pool.program_version(), v0);

  // Messages submitted after SwapProgram returns are behind each worker's
  // swap barrier, so every one runs the new program: all denied.
  for (uint64_t id = kBefore + 1; id <= kBefore + kAfter; ++id) {
    pool.Submit(MakeReq(id, UserName(static_cast<int>(id % kUsers))));
  }
  pool.Drain();
  EXPECT_TRUE(pool.SwapComplete());
  pool.Stop();

  EXPECT_EQ(pool.processed(), kBefore + kAfter);
  EXPECT_EQ(pool.dropped(), kAfter);
  // State carried over the swap: the ACL rows survived, and Logging (which
  // runs before the drop) kept appending across the boundary.
  size_t acl_rows = 0;
  size_t log_rows = 0;
  for (int w = 0; w < pool.workers(); ++w) {
    acl_rows += pool.WorkerInstance(w, kAclIdx).FindTable("ac_tab")->RowCount();
    log_rows +=
        pool.WorkerInstance(w, kLoggingIdx).FindTable("log_tab")->RowCount();
  }
  EXPECT_EQ(acl_rows, static_cast<size_t>(kUsers));
  EXPECT_EQ(log_rows, kBefore + kAfter);
}

TEST(EnginePoolReconfig, IncompatibleSwapIsRejectedAndHarmless) {
  constexpr int kUsers = 8;
  EnginePool::Config config;
  config.workers = 2;
  config.shard_key_field = "username";
  EnginePool pool(LogAclElements(), {}, config);
  SeedUsers(pool, kUsers);
  ASSERT_TRUE(pool.Start().ok());
  const uint64_t v0 = pool.program_version();

  // The new chain renames/reshapes ac_tab: state cannot carry over, so the
  // swap must be rejected with the running program untouched.
  auto parsed = dsl::ParseProgram(
      "STATE TABLE ac_tab (username TEXT PRIMARY KEY, permission TEXT, "
      "level INT);\n" +
      std::string(elements::LogTableSql()) +
      std::string(elements::LoggingSql()) + R"(
ELEMENT Acl ON REQUEST {
  INPUT (username TEXT, payload BYTES);
  ON DROP ABORT 'permission denied';
  SELECT * FROM input JOIN ac_tab ON input.username = ac_tab.username
    WHERE ac_tab.permission = 'W';
}
)");
  auto lowered = compiler::LowerProgram(*parsed);
  ASSERT_TRUE(lowered.ok());
  const Status swap = pool.SwapProgram({lowered->FindElement("Logging"),
                                        lowered->FindElement("Acl")});
  ASSERT_FALSE(swap.ok());
  EXPECT_EQ(swap.error().code(), ErrorCode::kFailedPrecondition);
  EXPECT_EQ(pool.program_version(), v0);

  // The pool keeps serving under the old program.
  for (uint64_t id = 1; id <= 512; ++id) {
    pool.Submit(MakeReq(id, UserName(static_cast<int>(id % kUsers))));
  }
  pool.Stop();
  EXPECT_EQ(pool.processed(), 512u);
  EXPECT_EQ(pool.dropped(), 0u);
}

// --- One execution tier: caches compile, filters are refused ----------------

// A filter element has no compiled form. The pool used to run it as an
// interpreter no-op that passed every message; now Start() refuses the
// chain and names the element.
// A control op posted before a message is pushed runs before that message,
// even when the worker is busy running another op at the moment of the
// post. Each round begins a slot migration and a program swap together, so
// the destination is often still swapping when the producer posts the
// adopt and flushes the held messages behind it. A message run ahead of
// its adopt finds no ACL row for its user and is denied.
TEST(EnginePool, ControlOpRunsBeforeMessagesPushedAfterIt) {
  constexpr int kUsers = 256;
  constexpr int kRounds = 300;
  std::atomic<uint64_t> denied{0};
  EnginePool::Config config;
  config.workers = 2;
  config.shard_key_field = "username";
  config.ring_capacity = 256;
  config.on_done = [&](int, const rpc::Message&, const ir::ProcessResult& r) {
    if (r.outcome != ir::ProcessOutcome::kPass) {
      denied.fetch_add(1, std::memory_order_relaxed);
    }
  };
  EnginePool pool(LogAclQuotaElements(), {}, config);
  SeedUsers(pool, kUsers);
  SeedQuota(pool, kUsers, 1'000'000);
  ASSERT_TRUE(pool.Start().ok());
  const int slot = EnginePool::SlotOfKey(Value(UserName(0)));
  std::vector<std::string> hot;
  for (int i = 0; i < kUsers; ++i) {
    if (EnginePool::SlotOfKey(Value(UserName(i))) == slot) {
      hot.push_back(UserName(i));
    }
  }
  uint64_t id = 0;
  for (int round = 0; round < kRounds; ++round) {
    ASSERT_TRUE(
        pool.BeginSlotMigration(slot, 1 - pool.WorkerOfSlot(slot)).ok());
    ASSERT_TRUE(pool.SwapProgram(round % 2 == 0 ? LogAclQuotaElementsV2()
                                                : LogAclQuotaElements())
                    .ok());
    while (pool.MigrationActive() || !pool.SwapComplete()) {
      ++id;
      pool.Submit(MakeReq(id, id % 4 == 0
                                  ? UserName(static_cast<int>(id % kUsers))
                                  : hot[id % hot.size()]));
      pool.PumpMigration();
    }
  }
  pool.Stop();
  EXPECT_EQ(pool.processed(), id);
  EXPECT_EQ(denied.load(), 0u);
  EXPECT_EQ(pool.dropped(), 0u);
}

// Count -> Logging -> Acl -> Limiter -> Dedup over the given limiter rate:
// agg_count first, so its totals see every message. Filters are ordinary
// elements over __filter_<Name> tables, so the pool runs the chain whole.
std::vector<std::shared_ptr<const ir::ElementIr>> FilterChainElements(
    int64_t rps) {
  auto parsed = dsl::ParseProgram(
      std::string(elements::AclTableSql()) +
      std::string(elements::LogTableSql()) +
      std::string(elements::LoggingSql()) + std::string(elements::AclSql()) +
      "FILTER Count ON REQUEST USING agg_count(key => username);\n"
      "FILTER Limiter ON REQUEST USING rate_limit(rps => " +
      std::to_string(rps) +
      ", burst => 300);\n"
      "FILTER Dedup ON REQUEST USING dedup(window => 64);\n");
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  auto lowered = compiler::LowerProgram(*parsed);
  EXPECT_TRUE(lowered.ok()) << lowered.status().ToString();
  return {lowered->FindElement("Count"), lowered->FindElement("Logging"),
          lowered->FindElement("Acl"), lowered->FindElement("Limiter"),
          lowered->FindElement("Dedup")};
}

TEST(EnginePool, FilterChainStartsAndMatchesOneThreadExecutor) {
  // A client-library filter still has no place in a pool.
  auto retry = dsl::ParseProgram(
      "FILTER Retry ON REQUEST USING retry(max_attempts => 3);");
  ASSERT_TRUE(retry.ok());
  auto retry_ir = compiler::LowerProgram(*retry);
  ASSERT_TRUE(retry_ir.ok());
  EnginePool rejected({retry_ir->FindElement("Retry")}, {},
                      EnginePool::Config{});
  const Status refused = rejected.Start();
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.error().code(), ErrorCode::kUnsupported);
  EXPECT_NE(refused.error().message().find("Retry"), std::string::npos);

  constexpr int kUsers = 8;
  const auto elements = FilterChainElements(1000);
  std::vector<std::pair<uint64_t, ir::ProcessOutcome>> done;
  EnginePool::Config config;
  config.workers = 1;
  config.shard_key_field = "username";
  config.on_done = [&done](int, const rpc::Message& m,
                           const ir::ProcessResult& r) {
    done.emplace_back(m.id(), r.outcome);
  };
  EnginePool pool(elements, {}, config);
  SeedUsers(pool, kUsers - 1);  // the last user is denied
  ASSERT_TRUE(pool.whole_chain_compiled());
  ASSERT_TRUE(pool.Start().ok());

  // The oracle: fresh instances under a one-thread ChainExecutor.
  std::vector<std::unique_ptr<ir::ElementInstance>> oracle;
  std::vector<ir::ElementInstance*> ptrs;
  for (size_t e = 0; e < elements.size(); ++e) {
    oracle.push_back(std::make_unique<ir::ElementInstance>(elements[e], 1));
    ptrs.push_back(oracle.back().get());
  }
  rpc::Table* acl = oracle[2]->FindTable("ac_tab");
  ASSERT_NE(acl, nullptr);
  for (int i = 0; i < kUsers - 1; ++i) {
    ASSERT_TRUE(acl->Insert({Value(UserName(i)), Value("W")}).ok());
  }
  auto program = compiler::CompileChainProgram(elements);
  ASSERT_TRUE(program.ok());
  ir::ChainExecutor exec(program.value(), ptrs);

  // 600 requests, one in eight a retransmitted id: the limiter's 300-token
  // bucket empties (the pool clock is constant), dedup drops repeats, the
  // ACL denies one user.
  Rng rng(4242);
  std::vector<rpc::Message> sent;
  for (uint64_t i = 1; i <= 600; ++i) {
    const uint64_t id = i > 8 && rng.NextBelow(8) == 0 ? i - rng.NextBelow(8) : i;
    sent.push_back(MakeReq(id, UserName(static_cast<int>(rng.NextBelow(kUsers)))));
    pool.Submit(sent.back());
  }
  pool.Drain();
  pool.Stop();
  ASSERT_EQ(done.size(), sent.size());
  size_t by_kind[4] = {0, 0, 0, 0};
  for (size_t i = 0; i < sent.size(); ++i) {
    rpc::Message m = sent[i];
    const ir::ProcessOutcome want = exec.Process(m, 0).outcome;
    EXPECT_EQ(done[i].first, sent[i].id());
    EXPECT_EQ(done[i].second, want) << "message " << i;
    ++by_kind[static_cast<size_t>(want)];
  }
  EXPECT_GT(by_kind[static_cast<size_t>(ir::ProcessOutcome::kPass)], 0u);
  EXPECT_GT(by_kind[static_cast<size_t>(ir::ProcessOutcome::kDropAbort)], 0u);
  EXPECT_GT(by_kind[static_cast<size_t>(ir::ProcessOutcome::kDropSilent)], 0u);
  for (size_t e = 0; e < elements.size(); ++e) {
    EXPECT_EQ(pool.WorkerInstance(0, e).StateContentHash(),
              oracle[e]->StateContentHash())
        << elements[e]->name;
  }
}

TEST(EnginePoolReconfig, FilterChainSurvivesMigrationAndSwap) {
  constexpr int kUsers = 32;
  constexpr uint64_t kMessages = 8'000;
  std::vector<std::atomic<uint32_t>> completions(kMessages + 1);
  EnginePool::Config config;
  config.workers = 2;
  config.shard_key_field = "username";
  config.ring_capacity = 256;
  config.on_done = [&completions](int, const rpc::Message& m,
                                  const ir::ProcessResult&) {
    completions[m.id()].fetch_add(1, std::memory_order_relaxed);
  };
  EnginePool pool(FilterChainElements(1000), {}, config);
  SeedUsers(pool, kUsers);
  ASSERT_TRUE(pool.Start().ok());
  const uint64_t v0 = pool.program_version();

  const int slot = EnginePool::SlotOfKey(Value(UserName(0)));
  const int to = 1 - pool.WorkerOfSlot(slot);
  for (uint64_t id = 1; id <= kMessages; ++id) {
    pool.Submit(MakeReq(id, UserName(static_cast<int>(id % kUsers))));
    if (id == 2'000) ASSERT_TRUE(pool.BeginSlotMigration(slot, to).ok());
    if (id == 4'000) {
      // Same tables, a new rate: the buckets carry over the swap.
      ASSERT_TRUE(pool.SwapProgram(FilterChainElements(5000)).ok());
    }
    pool.PumpMigration();
  }
  while (pool.MigrationActive()) {
    pool.PumpMigration();
    std::this_thread::yield();
  }
  pool.Drain();
  EXPECT_TRUE(pool.SwapComplete());
  pool.Stop();

  EXPECT_EQ(pool.WorkerOfSlot(slot), to);
  EXPECT_GT(pool.program_version(), v0);
  EXPECT_EQ(pool.processed(), kMessages);
  for (uint64_t id = 1; id <= kMessages; ++id) {
    ASSERT_EQ(completions[id].load(), 1u) << "rpc " << id;
  }
  // Each worker's agg_count total is its own keyless row, which no slot
  // migration moves: summed over the workers they count every message.
  int64_t counted = 0;
  for (int w = 0; w < pool.workers(); ++w) {
    const ir::ElementInstance& count = pool.WorkerInstance(w, 0);
    if (const Value* totals = count.tables()[0].RowAt(0)) {
      counted += totals[0].AsInt();
    }
    EXPECT_EQ(pool.WorkerInstance(w, 3).code().filter_op->rps, 5000.0);
  }
  EXPECT_EQ(counted, static_cast<int64_t>(kMessages));
}

// RespCache -> Logging -> Acl -> HashLb -> Compress
// (elements::CacheChainSource), seeded so every request is admitted. The
// RespCache is shrunk to 8 rows with no TTL, so the 40-object stream below
// evicts and refills on the worker as well as hitting.
constexpr int kCacheUsers = 16;
constexpr size_t kCacheCapacity = 8;

std::vector<std::shared_ptr<const ir::ElementIr>> CachedElements() {
  std::string source = elements::CacheChainSource();
  const std::string_view cache = elements::ResponseCacheSql();
  source.replace(source.find(cache), cache.size(),
                 "CACHE RespCache (capacity => " +
                     std::to_string(kCacheCapacity) +
                     ", ttl_ms => 0) KEY (object_id);\n");
  auto parsed = dsl::ParseProgram(source);
  auto lowered = compiler::LowerProgram(*parsed);
  EXPECT_TRUE(lowered.ok());
  std::vector<std::shared_ptr<const ir::ElementIr>> out;
  for (const char* name : {"RespCache", "Logging", "Acl", "HashLb",
                           "Compress"}) {
    out.push_back(lowered->FindElement(name));
  }
  return out;
}

void SeedCached(ir::ElementInstance& inst) {
  if (rpc::Table* acl = inst.FindTable("ac_tab")) {
    for (int i = 0; i < kCacheUsers; ++i) {
      ASSERT_TRUE(acl->Insert({Value(UserName(i)), Value("W")}).ok());
    }
  }
  if (rpc::Table* endpoints = inst.FindTable("endpoints")) {
    for (int64_t shard = 0; shard < elements::kLbShards; ++shard) {
      ASSERT_TRUE(endpoints->Insert({Value(shard), Value(100 + shard)}).ok());
    }
  }
}

rpc::Message MakeObjReq(uint64_t id, int64_t object) {
  return rpc::Message::MakeRequest(
      id, "Obj.Get",
      {{"username", Value(UserName(static_cast<int>(object % kCacheUsers)))},
       {"object_id", Value(object)},
       {"payload", Value(Bytes(32, static_cast<uint8_t>(object)))}});
}

// The server's reply to a request that missed the cache.
rpc::Message MakeObjResp(const rpc::Message& request) {
  const int64_t object = request.GetFieldOrNull("object_id").AsInt();
  return rpc::Message::MakeResponse(
      request,
      {{"username", Value(UserName(static_cast<int>(object % kCacheUsers)))},
       {"result", Value("v" + std::to_string(object))},
       {"payload", Value(Bytes(16, static_cast<uint8_t>(object)))}});
}

// Skewed object draw: the min of two uniform draws favours small ids, so
// the stream mixes repeat hits with cold misses.
int64_t SkewedObject(Rng& rng) {
  return static_cast<int64_t>(std::min(rng.NextBelow(40), rng.NextBelow(40)));
}

struct Completion {
  uint64_t id = 0;
  ir::ProcessOutcome outcome = ir::ProcessOutcome::kPass;
  rpc::Message message;
};

TEST(EnginePool, CachedChainMatchesInterpreterOracle) {
  const auto elements = CachedElements();
  std::vector<Completion> done;  // written by the one worker, read after Drain
  EnginePool::Config config;
  config.workers = 1;
  config.shard_key_field = "object_id";
  config.on_done = [&done](int, const rpc::Message& m,
                           const ir::ProcessResult& r) {
    done.push_back({m.id(), r.outcome, m});
  };
  EnginePool pool(elements, {}, config);
  for (size_t e = 0; e < pool.element_count(); ++e) {
    SeedCached(*pool.TemplateInstance(e));
  }
  ASSERT_TRUE(pool.Start().ok());
  ASSERT_TRUE(pool.whole_chain_compiled());

  // The oracle: the same chain on interpreter instances, element by element.
  std::vector<std::unique_ptr<ir::ElementInstance>> oracle;
  for (size_t e = 0; e < elements.size(); ++e) {
    oracle.push_back(std::make_unique<ir::ElementInstance>(elements[e], 1));
    SeedCached(*oracle.back());
  }
  auto run_oracle = [&oracle](rpc::Message& m) {
    for (auto& inst : oracle) {
      if (!inst->AppliesTo(m.kind())) continue;
      ir::ProcessResult r = inst->Process(m, 0);
      if (r.outcome != ir::ProcessOutcome::kPass) return r.outcome;
    }
    return ir::ProcessOutcome::kPass;
  };
  // Submit `batch` to the pool and the oracle; every completion must match.
  auto run_both = [&](std::vector<rpc::Message> batch) {
    const size_t first = done.size();
    for (const rpc::Message& m : batch) pool.Submit(m);
    pool.Drain();
    EXPECT_EQ(done.size() - first, batch.size());
    for (size_t i = 0; i < batch.size() && first + i < done.size(); ++i) {
      const Completion& c = done[first + i];
      const ir::ProcessOutcome expect = run_oracle(batch[i]);
      EXPECT_EQ(c.id, batch[i].id());
      EXPECT_EQ(c.outcome, expect) << "rpc " << c.id;
      EXPECT_EQ(c.message.DebugString(), batch[i].DebugString());
      EXPECT_EQ(c.message.destination(), batch[i].destination());
    }
    return first;
  };

  Rng rng(2026);
  uint64_t next_id = 1;
  for (int round = 0; round < 30; ++round) {
    std::vector<rpc::Message> requests;
    for (int i = 0; i < 32; ++i) {
      requests.push_back(MakeObjReq(next_id++, SkewedObject(rng)));
    }
    const std::vector<rpc::Message> sent = requests;
    const size_t first = run_both(std::move(requests));
    std::vector<rpc::Message> responses;
    for (size_t i = 0; i < sent.size(); ++i) {
      if (done[first + i].outcome == ir::ProcessOutcome::kPass) {
        responses.push_back(MakeObjResp(sent[i]));
      }
    }
    run_both(std::move(responses));
  }
  pool.Stop();

  const ir::ElementInstance& cache = pool.WorkerInstance(0, 0);
  EXPECT_GT(cache.cache_hits(), 0u);
  EXPECT_GT(cache.cache_misses(), 0u);
  EXPECT_EQ(cache.cache_hits(), oracle[0]->cache_hits());
  EXPECT_EQ(cache.cache_misses(), oracle[0]->cache_misses());
  EXPECT_EQ(cache.cache_fills(), oracle[0]->cache_fills());
  EXPECT_EQ(cache.cache_evicted(), oracle[0]->cache_evicted());
  EXPECT_GT(cache.cache_evicted(), 0u) << "the stream must overflow";
  EXPECT_GT(cache.cache_fills(),
            cache.FindTable("__cache_RespCache")->RowCount());
  EXPECT_EQ(pool.processed(), done.size());
  EXPECT_EQ(pool.dropped(), 0u);
  for (size_t e = 0; e < elements.size(); ++e) {
    EXPECT_EQ(pool.MergedStateHash(e), oracle[e]->StateContentHash())
        << "element " << elements[e]->name;
    EXPECT_EQ(pool.WorkerInstance(0, e).processed(), oracle[e]->processed());
  }
}

// Hot reload of a cached chain: RPCs in flight across the swap, and the
// responses filling their misses, all complete with the right output.
TEST(EnginePoolReconfig, CachedChainHotSwapCompletesEveryRpc) {
  // One worker: HashLb's endpoints table is keyed by shard, so a sharded
  // pool would split it away from the objects that route to it.
  std::vector<Completion> done;  // written by the worker, read after Drain
  EnginePool::Config config;
  config.workers = 1;
  config.shard_key_field = "object_id";
  config.on_done = [&done](int, const rpc::Message& m,
                           const ir::ProcessResult& r) {
    done.push_back({m.id(), r.outcome, m});
  };
  EnginePool pool(CachedElements(), {}, config);
  for (size_t e = 0; e < pool.element_count(); ++e) {
    SeedCached(*pool.TemplateInstance(e));
  }
  ASSERT_TRUE(pool.Start().ok());
  ASSERT_TRUE(pool.whole_chain_compiled());
  const uint64_t v0 = pool.program_version();

  constexpr int kRounds = 10;
  constexpr int kPerRound = 64;
  Rng rng(7);
  uint64_t next_id = 1;
  std::map<uint64_t, int64_t> object_of;  // request id -> object id
  size_t seen = 0;
  size_t replies_after_swap = 0;
  for (int round = 0; round < kRounds; ++round) {
    for (int i = 0; i < kPerRound; ++i) {
      if (round == kRounds / 2 && i == kPerRound / 2) {
        // Mid-stream, with requests still queued on the worker.
        ASSERT_TRUE(pool.SwapProgram(CachedElements()).ok());
      }
      const int64_t object = SkewedObject(rng);
      object_of[next_id] = object;
      pool.Submit(MakeObjReq(next_id++, object));
    }
    pool.Drain();
    std::vector<rpc::Message> responses;
    for (; seen < done.size(); ++seen) {
      const Completion& c = done[seen];
      ASSERT_EQ(c.message.kind(), c.outcome == ir::ProcessOutcome::kReply
                                      ? rpc::MessageKind::kResponse
                                      : rpc::MessageKind::kRequest)
          << "rpc " << c.id << ": " << c.message.DebugString();
      if (c.outcome == ir::ProcessOutcome::kReply) {
        EXPECT_EQ(c.message.GetFieldOrNull("result").AsText(),
                  "v" + std::to_string(object_of[c.id]));
        if (round >= kRounds / 2) ++replies_after_swap;
      } else {
        ASSERT_EQ(c.outcome, ir::ProcessOutcome::kPass) << "rpc " << c.id;
        EXPECT_GE(c.message.destination(), 100u) << "HashLb routed it";
        responses.push_back(MakeObjResp(MakeObjReq(c.id, object_of[c.id])));
      }
    }
    for (rpc::Message& r : responses) pool.Submit(std::move(r));
    pool.Drain();
    for (; seen < done.size(); ++seen) {
      const Completion& c = done[seen];
      EXPECT_EQ(c.outcome, ir::ProcessOutcome::kPass) << "response " << c.id;
      EXPECT_EQ(c.message.GetFieldOrNull("result").AsText(),
                "v" + std::to_string(object_of[c.id]));
    }
  }
  EXPECT_TRUE(pool.SwapComplete());
  EXPECT_GT(pool.program_version(), v0);
  pool.Stop();
  EXPECT_EQ(pool.dropped(), 0u);
  EXPECT_EQ(pool.processed(), done.size());
  EXPECT_GT(replies_after_swap, 0u) << "the swapped cache kept serving hits";
}

TEST(EnginePoolStress, ManyWorkersManyMessages) {
  constexpr uint64_t kMessages = 20'000;
  EnginePool::Config config;
  config.workers = 4;
  config.shard_key_field = "username";
  config.ring_capacity = 128;
  EnginePool pool(LogAclElements(), {}, config);
  SeedUsers(pool, 64);
  ASSERT_TRUE(pool.Start().ok());
  for (uint64_t id = 1; id <= kMessages; ++id) {
    pool.Submit(MakeReq(id, UserName(static_cast<int>(id % 64))));
  }
  pool.Drain();
  EXPECT_EQ(pool.processed(), kMessages);
  pool.Stop();
  EXPECT_EQ(pool.dropped(), 0u);
  size_t log_rows = 0;
  for (int w = 0; w < pool.workers(); ++w) {
    log_rows +=
        pool.WorkerInstance(w, kLoggingIdx).FindTable("log_tab")->RowCount();
  }
  EXPECT_EQ(log_rows, kMessages);
}

TEST(EnginePoolStress, BurstDrainUnderConcurrentProducer) {
  // The burst drain (TryPopBurst + ChainExecutor::ProcessBurst) racing a
  // live producer, across burst sizes including the kMaxBurstLanes maximum
  // and a deliberately tiny ring that forces constant partial bursts and
  // producer backpressure. Totals and per-worker log shards must come out
  // exact; the TSan job proves the drain publishes done/dropped/exec_ns
  // without races.
  for (const size_t burst_size : {4u, 32u, 64u}) {
    SCOPED_TRACE("burst_size=" + std::to_string(burst_size));
    constexpr uint64_t kMessages = 20'000;
    EnginePool::Config config;
    config.workers = 4;
    config.shard_key_field = "username";
    config.ring_capacity = 64;  // smaller than 2 full bursts: partial drains
    config.burst_size = burst_size;
    config.measure_exec = true;  // timed window around the burst path
    EnginePool pool(LogAclElements(), {}, config);
    SeedUsers(pool, 64);
    ASSERT_TRUE(pool.Start().ok());
    ASSERT_TRUE(pool.whole_chain_compiled());
    for (uint64_t id = 1; id <= kMessages; ++id) {
      pool.Submit(MakeReq(id, UserName(static_cast<int>(id % 64))));
    }
    pool.Drain();
    EXPECT_EQ(pool.processed(), kMessages);
    pool.Stop();
    EXPECT_EQ(pool.dropped(), 0u);
    size_t log_rows = 0;
    int64_t exec_ns = 0;
    for (int w = 0; w < pool.workers(); ++w) {
      log_rows +=
          pool.WorkerInstance(w, kLoggingIdx).FindTable("log_tab")->RowCount();
      exec_ns += pool.worker_exec_ns(w);
    }
    EXPECT_EQ(log_rows, kMessages);
    EXPECT_GT(exec_ns, 0);
  }
}

}  // namespace
}  // namespace adn

// FILTER elements on the one execution path: each operator lowers to a
// single kBuiltin over its __filter_<Name> tables, and the interpreter's
// Process and the compiled executor (scalar and burst) call the same
// ElementInstance::RunBuiltin. The differential test below runs every
// operator, alone and behind Logging + Acl, through all three tiers under an
// advancing clock, and compares the outcomes with a golden recorded from the
// stage classes that implemented the operators before they were lowered.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "compiler/chain_compile.h"
#include "compiler/lower.h"
#include "dsl/parser.h"
#include "elements/library.h"
#include "ir/exec.h"
#include "ir/program.h"

namespace adn {
namespace {

using ir::ProcessOutcome;
using ir::ProcessResult;
using rpc::Message;
using rpc::Value;

constexpr size_t kParityMessages = 240;
constexpr int64_t kParityStepNs = 400'000;  // 2500 messages/s offered

// The seeded stream: five users (eve is denied by the ACL, bob holds only
// 'R'), a numeric, missing or text `amount`, one message in four a response
// to a recent request, and one request in five a retransmitted recent id.
std::vector<Message> ParityStream(uint64_t seed) {
  static const char* kUsers[] = {"alice", "bob", "carol", "dave", "eve"};
  Rng rng(seed);
  std::vector<Message> out;
  std::vector<uint64_t> recent;  // last request ids, newest last
  uint64_t next_id = 1;
  for (size_t i = 0; i < kParityMessages; ++i) {
    const std::string user = kUsers[rng.NextBelow(5)];
    std::vector<rpc::Field> fields = {
        {"username", Value(user)},
        {"payload", Value(Bytes(rng.NextBelow(48), 0x5A))}};
    const uint64_t shape = rng.NextBelow(10);
    if (shape < 7) {
      fields.push_back(
          {"amount", Value(static_cast<int64_t>(rng.NextBelow(100)))});
    }
    if (shape == 7) fields.push_back({"amount", Value("n/a")});
    if (!recent.empty() && rng.NextBelow(4) == 0) {
      const uint64_t rid = recent[rng.NextBelow(recent.size())];
      out.push_back(Message::MakeResponse(
          Message::MakeRequest(rid, "Obj.Put", {}), std::move(fields)));
      continue;
    }
    uint64_t id = next_id++;
    if (recent.size() >= 4 && rng.NextBelow(5) == 0) {
      id = recent[recent.size() - 1 - rng.NextBelow(recent.size())];
    }
    recent.push_back(id);
    if (recent.size() > 16) recent.erase(recent.begin());
    out.push_back(Message::MakeRequest(id, "Obj.Put", std::move(fields)));
  }
  return out;
}

// Message i runs at the clock of the first message of its burst, so every
// tier sees the same time for it whatever the burst size.
int64_t ClockOf(size_t i, size_t burst) {
  return static_cast<int64_t>(i - i % burst) * kParityStepNs;
}

struct FilterCase {
  const char* op;
  const char* decl;
};

const FilterCase kCases[] = {
    {"rate_limit",
     "FILTER F ON REQUEST USING rate_limit(rps => 1200, burst => 4);\n"},
    {"dedup", "FILTER F ON REQUEST USING dedup(window => 8);\n"},
    {"circuit_breaker",
     "FILTER F ON BOTH USING circuit_breaker(error_threshold => 0.5, "
     "window => 4, cooldown_ms => 2);\n"},
    {"agg_count",
     "FILTER F ON REQUEST USING agg_count(key => username, groups => 3);\n"},
    {"agg_sum",
     "FILTER F ON REQUEST USING agg_sum(field => amount, key => username, "
     "groups => 3);\n"},
    {"agg_topk", "FILTER F ON REQUEST USING agg_topk(key => username, k => 3);\n"},
};

// Recorded from the hand-written stage classes that implemented the six
// operators before they were lowered (run one message at a time through an
// EngineChain of GeneratedStage(Logging), GeneratedStage(Acl) and the
// filter's stage): the FNV-1a hash of the outcome string ('P'ass, 'A'bort,
// 'S'ilent, 'R'eply per message) and the counts.
struct Golden {
  const char* op;
  bool chained;
  size_t burst;
  uint64_t outcome_hash;
  size_t pass, abort, silent;
};

const Golden kGolden[] = {
    {"rate_limit", 0, 1, 0xf2cd54d9ed16d4fbULL, 174, 66, 0},
    {"rate_limit", 0, 7, 0x5511d395df23bbecULL, 171, 69, 0},
    {"rate_limit", 0, 32, 0x3373b7cd028e2502ULL, 89, 151, 0},
    {"rate_limit", 1, 1, 0xc0481c6ad05db9d9ULL, 156, 84, 0},
    {"rate_limit", 1, 7, 0xc79fa9a9e0f9bee5ULL, 152, 88, 0},
    {"rate_limit", 1, 32, 0x0a0283424ffbceaeULL, 89, 151, 0},
    {"dedup", 0, 1, 0x6a579dd333f1ce67ULL, 216, 0, 24},
    {"dedup", 0, 7, 0x6a579dd333f1ce67ULL, 216, 0, 24},
    {"dedup", 0, 32, 0x6a579dd333f1ce67ULL, 216, 0, 24},
    {"dedup", 1, 1, 0x5ebbcaa9307f0d9dULL, 154, 73, 13},
    {"dedup", 1, 7, 0x5ebbcaa9307f0d9dULL, 154, 73, 13},
    {"dedup", 1, 32, 0x5ebbcaa9307f0d9dULL, 154, 73, 13},
    {"circuit_breaker", 0, 1, 0x4806b27aaff762a8ULL, 237, 3, 0},
    {"circuit_breaker", 0, 7, 0x5a278ac0b9bc742eULL, 235, 5, 0},
    {"circuit_breaker", 0, 32, 0x4dd7d303274bf6d4ULL, 221, 19, 0},
    {"circuit_breaker", 1, 1, 0x69d569b9982e0c3cULL, 165, 75, 0},
    {"circuit_breaker", 1, 7, 0x4be6028084bda162ULL, 163, 77, 0},
    {"circuit_breaker", 1, 32, 0x4b6c657548f4980fULL, 158, 82, 0},
    {"agg_count", 0, 1, 0xcac60171379359c3ULL, 240, 0, 0},
    {"agg_count", 0, 7, 0xcac60171379359c3ULL, 240, 0, 0},
    {"agg_count", 0, 32, 0xcac60171379359c3ULL, 240, 0, 0},
    {"agg_count", 1, 1, 0x6df0b112833f7dc4ULL, 167, 73, 0},
    {"agg_count", 1, 7, 0x6df0b112833f7dc4ULL, 167, 73, 0},
    {"agg_count", 1, 32, 0x6df0b112833f7dc4ULL, 167, 73, 0},
    {"agg_sum", 0, 1, 0xcac60171379359c3ULL, 240, 0, 0},
    {"agg_sum", 0, 7, 0xcac60171379359c3ULL, 240, 0, 0},
    {"agg_sum", 0, 32, 0xcac60171379359c3ULL, 240, 0, 0},
    {"agg_sum", 1, 1, 0x6df0b112833f7dc4ULL, 167, 73, 0},
    {"agg_sum", 1, 7, 0x6df0b112833f7dc4ULL, 167, 73, 0},
    {"agg_sum", 1, 32, 0x6df0b112833f7dc4ULL, 167, 73, 0},
    {"agg_topk", 0, 1, 0xcac60171379359c3ULL, 240, 0, 0},
    {"agg_topk", 0, 7, 0xcac60171379359c3ULL, 240, 0, 0},
    {"agg_topk", 0, 32, 0xcac60171379359c3ULL, 240, 0, 0},
    {"agg_topk", 1, 1, 0x6df0b112833f7dc4ULL, 167, 73, 0},
    {"agg_topk", 1, 7, 0x6df0b112833f7dc4ULL, 167, 73, 0},
    {"agg_topk", 1, 32, 0x6df0b112833f7dc4ULL, 167, 73, 0},
};

uint64_t Fnv1a(const std::string& s) {
  uint64_t h = 1469598103934665603ULL;
  for (char c : s) {
    h ^= static_cast<uint8_t>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

char Code(ProcessOutcome o) {
  switch (o) {
    case ProcessOutcome::kPass: return 'P';
    case ProcessOutcome::kDropAbort: return 'A';
    case ProcessOutcome::kDropSilent: return 'S';
    case ProcessOutcome::kReply: return 'R';
  }
  return '?';
}

compiler::ProgramIr LowerCase(const FilterCase& c) {
  auto parsed = dsl::ParseProgram(std::string(elements::LogTableSql()) +
                                  std::string(elements::LoggingSql()) +
                                  std::string(elements::AclTableSql()) +
                                  std::string(elements::AclSql()) + c.decl);
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  auto lowered = compiler::LowerProgram(*parsed);
  EXPECT_TRUE(lowered.ok()) << lowered.status().ToString();
  return std::move(lowered).value();
}

// One tier's instances of the chain, seeded the way the golden run was:
// the ACL grants alice, carol and dave 'W' and bob 'R'; a circuit breaker
// starts with three errors in its outcome log.
struct Tier {
  std::vector<std::unique_ptr<ir::ElementInstance>> owned;
  std::vector<ir::ElementInstance*> ptrs;

  explicit Tier(const std::vector<std::shared_ptr<const ir::ElementIr>>& chain) {
    for (size_t e = 0; e < chain.size(); ++e) {
      owned.push_back(std::make_unique<ir::ElementInstance>(chain[e], 11 + e));
      ptrs.push_back(owned.back().get());
      if (rpc::Table* acl = owned.back()->FindTable("ac_tab")) {
        for (const char* u : {"alice", "bob", "carol", "dave"}) {
          EXPECT_TRUE(
              acl->Insert({Value(u), Value(std::string(u) == "bob" ? "R" : "W")})
                  .ok());
        }
      }
      if (rpc::Table* log = owned.back()->FindTable("__filter_F_outcomes")) {
        for (int64_t seq = 0; seq < 3; ++seq) {
          EXPECT_TRUE(log->Insert({Value(seq), Value(true)}).ok());
        }
      }
    }
  }

  std::vector<uint64_t> Hashes() const {
    std::vector<uint64_t> out;
    for (const auto& inst : owned) out.push_back(inst->StateContentHash());
    return out;
  }
};

TEST(FilterParity, EveryOperatorMatchesAcrossTiersAndTheRecordedGolden) {
  const std::vector<Message> stream = ParityStream(2028);
  size_t checked = 0;
  for (const FilterCase& c : kCases) {
    const compiler::ProgramIr program = LowerCase(c);
    for (bool chained : {false, true}) {
      std::vector<std::shared_ptr<const ir::ElementIr>> chain;
      if (chained) {
        chain = {program.FindElement("Logging"), program.FindElement("Acl")};
      }
      chain.push_back(program.FindElement("F"));
      auto compiled = compiler::CompileChainProgram(chain);
      ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
      for (size_t burst : {size_t{1}, size_t{7}, size_t{32}}) {
        SCOPED_TRACE(std::string(c.op) + (chained ? " chained" : " alone") +
                     " burst=" + std::to_string(burst));
        // Interpreter: each instance's Process, in chain order.
        Tier interp(chain);
        std::string interp_out;
        for (size_t i = 0; i < stream.size(); ++i) {
          Message m = stream[i];
          ProcessOutcome o = ProcessOutcome::kPass;
          for (ir::ElementInstance* inst : interp.ptrs) {
            if (!inst->AppliesTo(m.kind())) continue;
            o = inst->Process(m, ClockOf(i, burst)).outcome;
            if (o != ProcessOutcome::kPass) break;
          }
          interp_out += Code(o);
        }
        // Scalar executor.
        Tier scalar(chain);
        ir::ChainExecutor scalar_exec(compiled.value(), scalar.ptrs);
        std::string scalar_out;
        for (size_t i = 0; i < stream.size(); ++i) {
          Message m = stream[i];
          scalar_out += Code(scalar_exec.Process(m, ClockOf(i, burst)).outcome);
        }
        // Burst executor.
        Tier bursty(chain);
        ir::ChainExecutor burst_exec(compiled.value(), bursty.ptrs);
        std::vector<Message> msgs = stream;
        std::vector<ProcessResult> results(msgs.size());
        for (size_t off = 0; off < msgs.size(); off += burst) {
          const size_t n = std::min(burst, msgs.size() - off);
          burst_exec.ProcessBurst(msgs.data() + off, n, ClockOf(off, burst),
                                  results.data() + off);
        }
        std::string burst_out;
        for (const ProcessResult& r : results) burst_out += Code(r.outcome);

        EXPECT_EQ(scalar_out, interp_out);
        EXPECT_EQ(burst_out, interp_out);
        EXPECT_EQ(scalar.Hashes(), interp.Hashes());
        EXPECT_EQ(bursty.Hashes(), interp.Hashes());
        for (const Golden& g : kGolden) {
          if (std::string(g.op) != c.op || g.chained != chained ||
              g.burst != burst) {
            continue;
          }
          ++checked;
          EXPECT_EQ(Fnv1a(interp_out), g.outcome_hash) << interp_out;
          EXPECT_EQ(std::count(interp_out.begin(), interp_out.end(), 'P'),
                    static_cast<std::ptrdiff_t>(g.pass));
          EXPECT_EQ(std::count(interp_out.begin(), interp_out.end(), 'A'),
                    static_cast<std::ptrdiff_t>(g.abort));
          EXPECT_EQ(std::count(interp_out.begin(), interp_out.end(), 'S'),
                    static_cast<std::ptrdiff_t>(g.silent));
        }
      }
    }
  }
  EXPECT_EQ(checked, std::size(kGolden));
}

// The aggregations' tables hold what the stage classes' members held at the
// end of the same stream (recorded alongside the outcome golden).
TEST(FilterParity, AggregationTablesMatchTheRecordedTotals) {
  const std::vector<Message> stream = ParityStream(2028);
  struct Expect {
    const char* op;
    bool chained;
    int64_t total;  // agg_count total / agg_sum samples
    int64_t overflow;
    double sum;       // agg_sum total
    double alice;     // alice's group: count or sum
  };
  const Expect kExpect[] = {
      {"agg_count", false, 183, 74, 0, 0},
      {"agg_count", true, 110, 0, 0, 33},
      {"agg_sum", false, 135, -1, 7158, 0},
      {"agg_sum", true, 80, -1, 4346, 1549},
  };
  for (const Expect& x : kExpect) {
    SCOPED_TRACE(std::string(x.op) + (x.chained ? " chained" : " alone"));
    const FilterCase* c = nullptr;
    for (const FilterCase& fc : kCases) {
      if (std::string(fc.op) == x.op) c = &fc;
    }
    ASSERT_NE(c, nullptr);
    const compiler::ProgramIr program = LowerCase(*c);
    std::vector<std::shared_ptr<const ir::ElementIr>> chain;
    if (x.chained) {
      chain = {program.FindElement("Logging"), program.FindElement("Acl")};
    }
    chain.push_back(program.FindElement("F"));
    auto compiled = compiler::CompileChainProgram(chain);
    ASSERT_TRUE(compiled.ok());
    Tier tier(chain);
    ir::ChainExecutor exec(compiled.value(), tier.ptrs);
    for (size_t i = 0; i < stream.size(); ++i) {
      Message m = stream[i];
      (void)exec.Process(m, ClockOf(i, 1));
    }
    const ir::ElementInstance& f = *tier.owned.back();
    const Value* totals = f.tables()[0].RowAt(0);
    ASSERT_NE(totals, nullptr);
    EXPECT_EQ(totals[0].AsInt(), x.total);
    const bool sum = std::string(x.op) == "agg_sum";
    if (sum) EXPECT_DOUBLE_EQ(totals[2].AsFloat(), x.sum);
    if (!sum) EXPECT_EQ(totals[1].is_null() ? 0 : totals[1].AsInt(), x.overflow);
    const Value* alice = f.tables()[1].LookupSingleKey(
        Value(static_cast<int64_t>(rpc::HashValue(Value("alice")))));
    const double got =
        alice == nullptr ? 0 : (sum ? alice[1].AsFloat()
                                    : static_cast<double>(alice[1].AsInt()));
    EXPECT_DOUBLE_EQ(got, x.alice);
  }
}

// agg_topk evicts the lowest count, and among equal counts the smallest key,
// so the tracked set does not depend on the table's storage order.
TEST(FilterParity, TopkEvictionTieBreakIsTheSmallestKey) {
  auto parsed = dsl::ParseProgram(
      "FILTER Hot ON REQUEST USING agg_topk(key => username, k => 2);");
  ASSERT_TRUE(parsed.ok());
  auto lowered = compiler::LowerProgram(*parsed);
  ASSERT_TRUE(lowered.ok());
  ir::ElementInstance hot(lowered->FindElement("Hot"), 1);
  uint64_t id = 1;
  for (const char* user : {"b", "a", "c"}) {
    Message m = Message::MakeRequest(id++, "M", {{"username", Value(user)}});
    EXPECT_EQ(hot.Process(m, 0).outcome, ProcessOutcome::kPass);
  }
  // a and b tie at 1: a yields; c inherits 1 as base and error.
  const rpc::Table& tracked = hot.tables()[0];
  EXPECT_EQ(tracked.RowCount(), 2u);
  EXPECT_EQ(tracked.LookupSingleKey(Value("a")), nullptr);
  ASSERT_NE(tracked.LookupSingleKey(Value("b")), nullptr);
  const Value* c = tracked.LookupSingleKey(Value("c"));
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c[1].AsInt(), 2);
  EXPECT_EQ(c[2].AsInt(), 1);
}

// A dedup restored from a snapshot of another drops exactly the duplicates
// the original drops: its window and eviction order are all in its table.
TEST(FilterParity, DedupRestoredFromSnapshotDropsTheSameDuplicates) {
  const compiler::ProgramIr program = LowerCase(kCases[1]);
  const auto dedup = program.FindElement("F");
  ASSERT_EQ(dedup->filter_op->kind, ir::FilterKind::kDedup);
  const std::vector<Message> stream = ParityStream(77);
  ir::ElementInstance original(dedup, 1);
  const size_t half = stream.size() / 2;
  for (size_t i = 0; i < half; ++i) {
    Message m = stream[i];
    if (original.AppliesTo(m.kind())) (void)original.Process(m, 0);
  }
  ir::ElementInstance restored(dedup, 2);
  ASSERT_TRUE(restored.RestoreState(original.SnapshotState()).ok());
  EXPECT_EQ(restored.StateContentHash(), original.StateContentHash());
  size_t drops = 0;
  for (size_t i = half; i < stream.size(); ++i) {
    if (!original.AppliesTo(stream[i].kind())) continue;
    Message a = stream[i];
    Message b = stream[i];
    const ProcessOutcome want = original.Process(a, 0).outcome;
    EXPECT_EQ(restored.Process(b, 0).outcome, want) << "message " << i;
    drops += want == ProcessOutcome::kDropSilent;
  }
  EXPECT_GT(drops, 0u) << "the second half must retransmit within the window";
  EXPECT_EQ(restored.StateContentHash(), original.StateContentHash());
}

// A filter's state is ordinary tabular state: a hot swap that changes an
// argument keeps it (and changing the operator's layout is refused).
TEST(FilterParity, SwapKeepsTheBucketAndTakesTheNewRate) {
  auto lower = [](const char* decl) {
    auto parsed = dsl::ParseProgram(decl);
    EXPECT_TRUE(parsed.ok());
    auto lowered = compiler::LowerProgram(*parsed);
    EXPECT_TRUE(lowered.ok());
    return lowered->FindElement("L");
  };
  ir::ElementInstance limiter(
      lower("FILTER L USING rate_limit(rps => 1000, burst => 2);"), 1);
  Message m = Message::MakeRequest(1, "M", {});
  EXPECT_EQ(limiter.Process(m, 0).outcome, ProcessOutcome::kPass);
  EXPECT_EQ(limiter.Process(m, 0).outcome, ProcessOutcome::kPass);
  EXPECT_EQ(limiter.Process(m, 0).outcome, ProcessOutcome::kDropAbort);
  const uint64_t before = limiter.StateContentHash();
  ASSERT_TRUE(
      limiter
          .ReplaceCode(lower("FILTER L USING rate_limit(rps => 4000, burst => 2);"))
          .ok());
  EXPECT_EQ(limiter.StateContentHash(), before);  // the empty bucket stayed
  // 0.25 ms refills one token at 4000 rps (it would take 1 ms at 1000).
  EXPECT_EQ(limiter.Process(m, 250'000).outcome, ProcessOutcome::kPass);
  EXPECT_EQ(limiter.Process(m, 250'000).outcome, ProcessOutcome::kDropAbort);
  EXPECT_FALSE(
      limiter.ReplaceCode(lower("FILTER L USING dedup(window => 2);")).ok());
}

}  // namespace
}  // namespace adn

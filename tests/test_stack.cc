// Baseline-stack tests: protobuf-style codec, HTTP/2 framing + HPACK,
// Envoy-like filters and sidecar processing.
#include <gtest/gtest.h>

#include "core/network.h"
#include "stack/envoy.h"
#include "stack/http2.h"
#include "stack/mesh_path.h"
#include "stack/proto_codec.h"

namespace adn::stack {
namespace {

using rpc::Message;
using rpc::Value;
using rpc::ValueType;

rpc::Schema TestSchema() {
  rpc::Schema s;
  (void)s.AddColumn({"username", ValueType::kText, false});
  (void)s.AddColumn({"object_id", ValueType::kInt, false});
  (void)s.AddColumn({"ratio", ValueType::kFloat, false});
  (void)s.AddColumn({"flag", ValueType::kBool, false});
  (void)s.AddColumn({"payload", ValueType::kBytes, false});
  return s;
}

// --- Proto codec ------------------------------------------------------------

TEST(ProtoCodec, RoundTripAllTypes) {
  ProtoSchema schema(TestSchema());
  Message m = Message::MakeRequest(1, "M",
                                   {{"username", Value("alice")},
                                    {"object_id", Value(987654321)},
                                    {"ratio", Value(0.5)},
                                    {"flag", Value(true)},
                                    {"payload", Value(Bytes{1, 2, 3})}});
  auto wire = ProtoEncode(m, schema);
  ASSERT_TRUE(wire.ok());
  auto decoded = ProtoDecode(wire.value(), schema);
  ASSERT_TRUE(decoded.ok()) << decoded.error().ToString();
  EXPECT_EQ(decoded->GetFieldOrNull("username").AsText(), "alice");
  EXPECT_EQ(decoded->GetFieldOrNull("object_id").AsInt(), 987654321);
  EXPECT_DOUBLE_EQ(decoded->GetFieldOrNull("ratio").AsFloat(), 0.5);
  EXPECT_TRUE(decoded->GetFieldOrNull("flag").AsBool());
  EXPECT_EQ(decoded->GetFieldOrNull("payload").AsBytes(), (Bytes{1, 2, 3}));
}

TEST(ProtoCodec, AbsentFieldsSkipped) {
  ProtoSchema schema(TestSchema());
  Message m = Message::MakeRequest(1, "M", {{"object_id", Value(1)}});
  auto wire = ProtoEncode(m, schema);
  ASSERT_TRUE(wire.ok());
  auto decoded = ProtoDecode(wire.value(), schema);
  ASSERT_TRUE(decoded.ok());
  EXPECT_FALSE(decoded->HasField("username"));
}

TEST(ProtoCodec, UnknownFieldsSkippedOnDecode) {
  // Encode with a larger schema, decode with a smaller one: unknown field
  // numbers must be skipped, not rejected (protobuf compatibility rule).
  ProtoSchema big(TestSchema());
  rpc::Schema small_s;
  (void)small_s.AddColumn({"username", ValueType::kText, false});
  ProtoSchema small(small_s);
  Message m = Message::MakeRequest(1, "M",
                                   {{"username", Value("bob")},
                                    {"object_id", Value(5)},
                                    {"ratio", Value(1.5)},
                                    {"payload", Value(Bytes{1})}});
  auto wire = ProtoEncode(m, big);
  ASSERT_TRUE(wire.ok());
  auto decoded = ProtoDecode(wire.value(), small);
  ASSERT_TRUE(decoded.ok()) << decoded.error().ToString();
  EXPECT_EQ(decoded->GetFieldOrNull("username").AsText(), "bob");
  EXPECT_EQ(decoded->FieldCount(), 1u);
}

TEST(ProtoCodec, NegativeIntsRoundTrip) {
  rpc::Schema s;
  (void)s.AddColumn({"x", ValueType::kInt, false});
  ProtoSchema schema(s);
  Message m = Message::MakeRequest(1, "M", {{"x", Value(int64_t{-42})}});
  auto wire = ProtoEncode(m, schema);
  ASSERT_TRUE(wire.ok());
  EXPECT_EQ(wire->size(), 11u);  // proto int64: negative = 10-byte varint
  auto decoded = ProtoDecode(wire.value(), schema);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->GetFieldOrNull("x").AsInt(), -42);
}

TEST(ProtoCodec, TruncatedRejected) {
  ProtoSchema schema(TestSchema());
  Message m = Message::MakeRequest(1, "M", {{"username", Value("carol")}});
  auto wire = ProtoEncode(m, schema);
  ASSERT_TRUE(wire.ok());
  Bytes cut(wire->begin(), wire->end() - 2);
  EXPECT_FALSE(ProtoDecode(cut, schema).ok());
}

// --- HTTP/2 framing ------------------------------------------------------------

TEST(Http2, FrameRoundTrip) {
  Frame f;
  f.type = FrameType::kHeaders;
  f.flags = kFlagEndHeaders;
  f.stream_id = 77;
  f.payload = {1, 2, 3};
  Bytes wire;
  EncodeFrame(f, wire);
  EXPECT_EQ(wire.size(), 9u + 3u);
  auto frames = ParseFrames(wire);
  ASSERT_TRUE(frames.ok());
  ASSERT_EQ(frames->size(), 1u);
  EXPECT_EQ((*frames)[0].stream_id, 77u);
  EXPECT_EQ((*frames)[0].payload, (Bytes{1, 2, 3}));
}

TEST(Http2, TruncatedFrameRejected) {
  Bytes wire = {0, 0, 10, 0, 0, 0, 0, 0, 1, 0xAA};  // claims 10, has 1
  EXPECT_FALSE(ParseFrames(wire).ok());
}

TEST(Hpack, StaticTableIndexing) {
  HpackCodec enc, dec;
  HeaderList headers = {{":method", "POST"}, {":scheme", "http"}};
  Bytes block;
  enc.EncodeHeaderBlock(headers, block);
  EXPECT_LE(block.size(), 2u);  // both fully indexed, 1 byte each
  auto out = dec.DecodeHeaderBlock(block);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out.value(), headers);
}

TEST(Hpack, DynamicTableShrinksRepeats) {
  HpackCodec enc, dec;
  HeaderList headers = {{"x-user", "alice"}, {"x-object-id", "12345"}};
  Bytes first;
  enc.EncodeHeaderBlock(headers, first);
  auto out1 = dec.DecodeHeaderBlock(first);
  ASSERT_TRUE(out1.ok());
  EXPECT_EQ(out1.value(), headers);

  Bytes second;
  enc.EncodeHeaderBlock(headers, second);
  EXPECT_LT(second.size(), first.size());  // now indexed
  auto out2 = dec.DecodeHeaderBlock(second);
  ASSERT_TRUE(out2.ok());
  EXPECT_EQ(out2.value(), headers);
}

TEST(Hpack, DesyncedDecoderFails) {
  HpackCodec enc, dec_fresh;
  HeaderList headers = {{"x-user", "alice"}};
  Bytes first;
  enc.EncodeHeaderBlock(headers, first);
  Bytes second;
  enc.EncodeHeaderBlock(headers, second);  // indexed against dynamic table
  // A decoder that missed the first block can't resolve the index.
  auto out = dec_fresh.DecodeHeaderBlock(second);
  EXPECT_FALSE(out.ok());
}

TEST(GrpcMessage, RoundTripThroughFrames) {
  HpackCodec enc, dec;
  GrpcHttp2Message msg;
  msg.headers = MakeGrpcRequestHeaders("svc-b", "/Echo.Call",
                                       {{"x-user", "dave"}});
  msg.grpc_payload = {9, 9, 9};
  msg.stream_id = 5;
  msg.end_stream = true;
  Bytes wire = EncodeGrpcMessage(msg, enc);
  auto out = ParseGrpcMessage(wire, dec);
  ASSERT_TRUE(out.ok()) << out.error().ToString();
  EXPECT_EQ(out->grpc_payload, (Bytes{9, 9, 9}));
  EXPECT_EQ(out->stream_id, 5u);
  EXPECT_TRUE(out->end_stream);
  bool found_user = false;
  for (const auto& [k, v] : out->headers) {
    if (k == "x-user") {
      EXPECT_EQ(v, "dave");
      found_user = true;
    }
  }
  EXPECT_TRUE(found_user);
}

TEST(GrpcMessage, LengthPrefixMismatchRejected) {
  HpackCodec enc, dec;
  GrpcHttp2Message msg;
  msg.headers = MakeGrpcResponseHeaders(0, {});
  msg.grpc_payload = {1, 2, 3, 4};
  Bytes wire = EncodeGrpcMessage(msg, enc);
  wire[wire.size() - 5] ^= 0xFF;  // corrupt the DATA length prefix region
  EXPECT_FALSE(ParseGrpcMessage(wire, dec).ok());
}

// --- Envoy filters ---------------------------------------------------------------

FilterContext MakeContext(HeaderList& headers, Bytes& body, Rng& rng,
                          std::vector<std::string>& log) {
  FilterContext ctx;
  ctx.headers = &headers;
  ctx.body = &body;
  ctx.is_request = true;
  ctx.rng = &rng;
  ctx.access_log = &log;
  return ctx;
}

TEST(AccessLog, FormatsOperators) {
  AccessLogFilter filter("user=%REQ(x-user)% bytes=%BYTES% d=%DIRECTION%");
  HeaderList headers = {{"x-user", "alice"}};
  Bytes body = {1, 2, 3};
  Rng rng(1);
  std::vector<std::string> log;
  auto ctx = MakeContext(headers, body, rng, log);
  EXPECT_EQ(filter.OnMessage(ctx).action, FilterAction::kContinue);
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0], "user=alice bytes=3 d=request");
}

TEST(AccessLog, MissingHeaderDash) {
  AccessLogFilter filter("%REQ(x-missing)%");
  HeaderList headers;
  Bytes body;
  Rng rng(1);
  std::vector<std::string> log;
  auto ctx = MakeContext(headers, body, rng, log);
  (void)filter.OnMessage(ctx);
  EXPECT_EQ(log[0], "-");
}

TEST(Rbac, AllowsMatchingPrincipal) {
  RbacPolicy policy;
  policy.principals.push_back(
      {"x-user", HeaderMatcher::Kind::kExact, "alice"});
  RbacFilter filter({policy}, RbacFilter::DefaultAction::kDeny);
  HeaderList headers = {{"x-user", "alice"}};
  Bytes body;
  Rng rng(1);
  std::vector<std::string> log;
  auto ctx = MakeContext(headers, body, rng, log);
  EXPECT_EQ(filter.OnMessage(ctx).action, FilterAction::kContinue);
}

TEST(Rbac, DeniesNonMatching) {
  RbacPolicy policy;
  policy.principals.push_back(
      {"x-user", HeaderMatcher::Kind::kExact, "alice"});
  RbacFilter filter({policy}, RbacFilter::DefaultAction::kDeny);
  HeaderList headers = {{"x-user", "mallory"}};
  Bytes body;
  Rng rng(1);
  std::vector<std::string> log;
  auto ctx = MakeContext(headers, body, rng, log);
  auto r = filter.OnMessage(ctx);
  EXPECT_EQ(r.action, FilterAction::kAbort);
  EXPECT_EQ(r.http_status, 403);
}

TEST(Rbac, PrefixAndPresentMatchers) {
  HeaderList headers = {{"x-user", "svc-frontend"}, {"x-token", "t"}};
  HeaderMatcher prefix{"x-user", HeaderMatcher::Kind::kPrefix, "svc-"};
  HeaderMatcher present{"x-token", HeaderMatcher::Kind::kPresent, ""};
  HeaderMatcher absent{"x-nope", HeaderMatcher::Kind::kPresent, ""};
  EXPECT_TRUE(prefix.Matches(headers));
  EXPECT_TRUE(present.Matches(headers));
  EXPECT_FALSE(absent.Matches(headers));
}

TEST(Rbac, ResponsesPassThrough) {
  RbacFilter filter({}, RbacFilter::DefaultAction::kDeny);
  HeaderList headers;
  Bytes body;
  Rng rng(1);
  std::vector<std::string> log;
  auto ctx = MakeContext(headers, body, rng, log);
  ctx.is_request = false;
  EXPECT_EQ(filter.OnMessage(ctx).action, FilterAction::kContinue);
}

TEST(Fault, AbortsAtConfiguredRate) {
  FaultFilter filter(0.25, 503);
  HeaderList headers;
  Bytes body;
  Rng rng(77);
  std::vector<std::string> log;
  int aborts = 0;
  for (int i = 0; i < 10000; ++i) {
    auto ctx = MakeContext(headers, body, rng, log);
    if (filter.OnMessage(ctx).action == FilterAction::kAbort) ++aborts;
  }
  EXPECT_NEAR(aborts / 10000.0, 0.25, 0.03);
}

TEST(HashRouter, DeterministicPick) {
  HashRouterFilter filter("x-object-id", 4);
  HeaderList headers = {{"x-object-id", "777"}};
  Bytes body;
  Rng rng(1);
  std::vector<std::string> log;
  auto ctx = MakeContext(headers, body, rng, log);
  (void)filter.OnMessage(ctx);
  size_t first = filter.last_pick();
  (void)filter.OnMessage(ctx);
  EXPECT_EQ(filter.last_pick(), first);
  // Pick recorded as a header for the router.
  bool found = false;
  for (const auto& [k, v] : headers) {
    if (k == "x-adn-upstream") found = true;
  }
  EXPECT_TRUE(found);
}

TEST(Compressor, RoundTripThroughBothFilters) {
  CompressorFilter compress(true);
  CompressorFilter decompress(false);
  HeaderList headers;
  Bytes body(5000, 'q');
  Bytes original = body;
  Rng rng(1);
  std::vector<std::string> log;
  auto ctx = MakeContext(headers, body, rng, log);
  EXPECT_EQ(compress.OnMessage(ctx).action, FilterAction::kContinue);
  EXPECT_LT(body.size(), original.size());
  EXPECT_EQ(decompress.OnMessage(ctx).action, FilterAction::kContinue);
  EXPECT_EQ(body, original);
}

// --- Sidecar ---------------------------------------------------------------------

TEST(Sidecar, ParsesFiltersAndReencodes) {
  EnvoySidecar sidecar("sc", 1);
  sidecar.AddFilter(std::make_unique<AccessLogFilter>("%REQ(:path)%"));

  HpackCodec app_enc, upstream_dec;
  HpackCodec in_dec, out_enc;
  GrpcHttp2Message msg;
  msg.headers = MakeGrpcRequestHeaders("b", "/Echo.Call", {});
  msg.grpc_payload = {5, 5};
  msg.stream_id = 3;
  Bytes wire = EncodeGrpcMessage(msg, app_enc);

  auto out = sidecar.ProcessWire(wire, true, in_dec, out_enc);
  // in_dec must mirror app_enc's stream; re-sync by decoding what app sent.
  // (ProcessWire already consumed it through in_dec.)
  ASSERT_TRUE(out.ok()) << out.error().ToString();
  EXPECT_FALSE(out->aborted);
  auto reparsed = ParseGrpcMessage(out->wire, upstream_dec);
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ(reparsed->grpc_payload, (Bytes{5, 5}));
  EXPECT_EQ(sidecar.access_log().size(), 1u);
  EXPECT_EQ(sidecar.access_log()[0], "/Echo.Call");
  EXPECT_EQ(sidecar.messages_processed(), 1u);
}

TEST(Sidecar, AbortShortCircuits) {
  EnvoySidecar sidecar("sc", 1);
  RbacPolicy nobody;
  nobody.principals.push_back(
      {"x-user", HeaderMatcher::Kind::kExact, "nobody"});
  sidecar.AddFilter(std::make_unique<RbacFilter>(
      std::vector<RbacPolicy>{nobody}, RbacFilter::DefaultAction::kDeny));

  HpackCodec app_enc, in_dec, out_enc;
  GrpcHttp2Message msg;
  msg.headers = MakeGrpcRequestHeaders("b", "/Echo.Call",
                                       {{"x-user", "alice"}});
  msg.grpc_payload = {};
  Bytes wire = EncodeGrpcMessage(msg, app_enc);
  auto out = sidecar.ProcessWire(wire, true, in_dec, out_enc);
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(out->aborted);
  EXPECT_EQ(out->http_status, 403);
  EXPECT_EQ(sidecar.messages_aborted(), 1u);
}

TEST(Sidecar, CostGrowsWithFilters) {
  const auto& model = sim::CostModel::Default();
  EnvoySidecar bare("a", 1);
  EnvoySidecar loaded("b", 1);
  loaded.AddFilter(std::make_unique<AccessLogFilter>("x"));
  loaded.AddFilter(std::make_unique<FaultFilter>(0.0, 503));
  EXPECT_GT(loaded.MessageCostNs(model, 500, true),
            bare.MessageCostNs(model, 500, true));
  // Responses pay less than requests for request-only filters.
  EXPECT_GT(loaded.MessageCostNs(model, 500, true),
            loaded.MessageCostNs(model, 500, false));
}

// --- Mesh experiment end to end ------------------------------------------------

TEST(MeshExperiment, CompletesAndObeysWindow) {
  MeshConfig config;
  config.concurrency = 64;
  config.measured_requests = 2'000;
  config.warmup_requests = 200;
  config.request_schema = TestSchema();
  config.make_request = core::MakeDefaultRequestFactory();
  config.filters.push_back(
      [] { return std::make_unique<AccessLogFilter>("%BYTES%"); });
  MeshResult result = RunMeshExperiment(config);
  EXPECT_EQ(result.stats.completed + result.stats.dropped, 2'200u);
  EXPECT_GT(result.stats.throughput_krps, 1.0);
  // With two proxies + full stack the RTT must exceed several hundred us.
  EXPECT_GT(result.stats.mean_latency_us, 300.0);
  EXPECT_FALSE(result.stage_cpu_ns.empty());
  EXPECT_GT(result.wire_bytes_per_request, 100.0);
}

TEST(MeshExperiment, FaultAbortsAreCounted) {
  MeshConfig config;
  config.concurrency = 16;
  config.measured_requests = 4'000;
  config.warmup_requests = 200;
  config.request_schema = TestSchema();
  config.make_request = core::MakeDefaultRequestFactory();
  config.filters.push_back(
      [] { return std::make_unique<FaultFilter>(0.10, 503); });
  MeshResult result = RunMeshExperiment(config);
  double drop_rate =
      static_cast<double>(result.stats.dropped) /
      static_cast<double>(result.stats.completed + result.stats.dropped);
  EXPECT_NEAR(drop_rate, 0.10, 0.03);
}

}  // namespace
}  // namespace adn::stack

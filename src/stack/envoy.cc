#include "stack/envoy.h"

#include "common/codec.h"
#include "common/strings.h"
#include "obs/metrics.h"

namespace adn::stack {

namespace {

const std::string* FindHeader(const HeaderList& headers,
                              std::string_view name) {
  for (const auto& [k, v] : headers) {
    if (k == name) return &v;
  }
  return nullptr;
}

void SetHeader(HeaderList& headers, std::string_view name,
               std::string value) {
  for (auto& [k, v] : headers) {
    if (k == name) {
      v = std::move(value);
      return;
    }
  }
  headers.emplace_back(std::string(name), std::move(value));
}

}  // namespace

// --- AccessLogFilter ----------------------------------------------------------

AccessLogFilter::AccessLogFilter(std::string format)
    : format_(std::move(format)) {}

FilterResult AccessLogFilter::OnMessage(FilterContext& ctx) {
  // Interpret the format string per message — the "generic with more knobs
  // than our application needs" work a reusable proxy does.
  std::string line;
  line.reserve(format_.size() + 64);
  size_t i = 0;
  while (i < format_.size()) {
    if (format_[i] != '%') {
      line.push_back(format_[i++]);
      continue;
    }
    size_t end = format_.find('%', i + 1);
    if (end == std::string::npos) {
      line.push_back(format_[i++]);
      continue;
    }
    std::string_view op(format_.data() + i + 1, end - i - 1);
    if (StartsWith(op, "REQ(") && EndsWith(op, ")")) {
      std::string_view header = op.substr(4, op.size() - 5);
      const std::string* v = FindHeader(*ctx.headers, header);
      line += v != nullptr ? *v : "-";
    } else if (op == "BYTES") {
      line += std::to_string(ctx.body->size());
    } else if (op == "DIRECTION") {
      line += ctx.is_request ? "request" : "response";
    } else {
      line += "-";
    }
    i = end + 1;
  }
  if (ctx.access_log != nullptr) ctx.access_log->push_back(std::move(line));
  return {};
}

// --- RbacFilter -----------------------------------------------------------------

bool HeaderMatcher::Matches(const HeaderList& headers) const {
  const std::string* v = FindHeader(headers, header);
  if (v == nullptr) return false;
  switch (kind) {
    case Kind::kExact: return *v == value;
    case Kind::kPrefix: return StartsWith(*v, value);
    case Kind::kPresent: return true;
  }
  return false;
}

RbacFilter::RbacFilter(std::vector<RbacPolicy> allow_policies,
                       DefaultAction fallback)
    : policies_(std::move(allow_policies)), fallback_(fallback) {}

FilterResult RbacFilter::OnMessage(FilterContext& ctx) {
  if (!ctx.is_request) return {};  // RBAC applies to requests
  for (const RbacPolicy& policy : policies_) {
    bool all = true;
    for (const HeaderMatcher& m : policy.principals) {
      if (!m.Matches(*ctx.headers)) {
        all = false;
        break;
      }
    }
    if (all) {
      for (const HeaderMatcher& m : policy.permissions) {
        if (!m.Matches(*ctx.headers)) {
          all = false;
          break;
        }
      }
    }
    if (all) return {};  // allowed
  }
  if (fallback_ == DefaultAction::kAllow) return {};
  return {FilterAction::kAbort, 403, "RBAC: access denied"};
}

// --- FaultFilter ----------------------------------------------------------------

FaultFilter::FaultFilter(double abort_fraction, int abort_http_status)
    : abort_fraction_(abort_fraction), abort_status_(abort_http_status) {}

FilterResult FaultFilter::OnMessage(FilterContext& ctx) {
  if (!ctx.is_request) return {};
  if (ctx.rng != nullptr && ctx.rng->NextBool(abort_fraction_)) {
    return {FilterAction::kAbort, abort_status_, "fault filter abort"};
  }
  return {};
}

// --- HashRouterFilter -----------------------------------------------------------

HashRouterFilter::HashRouterFilter(std::string hash_header,
                                   size_t upstream_count)
    : hash_header_(std::move(hash_header)), upstream_count_(upstream_count) {}

FilterResult HashRouterFilter::OnMessage(FilterContext& ctx) {
  if (!ctx.is_request || upstream_count_ == 0) return {};
  const std::string* v = FindHeader(*ctx.headers, hash_header_);
  uint64_t h = v != nullptr ? Fnv1a64(*v) : 0;
  last_pick_ = h % upstream_count_;
  SetHeader(*ctx.headers, "x-adn-upstream", std::to_string(last_pick_));
  return {};
}

// --- CompressorFilter -----------------------------------------------------------

CompressorFilter::CompressorFilter(bool compress) : compress_(compress) {}

FilterResult CompressorFilter::OnMessage(FilterContext& ctx) {
  if (compress_) {
    Bytes out = CompressBytes(*ctx.body);
    *ctx.body = std::move(out);
    SetHeader(*ctx.headers, "content-encoding", "adn-lz");
    return {};
  }
  const std::string* enc = FindHeader(*ctx.headers, "content-encoding");
  if (enc == nullptr || *enc != "adn-lz") return {};
  auto out = DecompressBytes(*ctx.body);
  if (!out.ok()) {
    return {FilterAction::kAbort, 400, "decompression failed"};
  }
  *ctx.body = std::move(out).value();
  SetHeader(*ctx.headers, "content-encoding", "identity");
  return {};
}

sim::SimTime CompressorFilter::CostNs(const sim::CostModel& m) const {
  // Charged per byte at the call site; fixed setup here.
  (void)m;
  return 8'000;
}

// --- EnvoySidecar ---------------------------------------------------------------

EnvoySidecar::EnvoySidecar(std::string name, uint64_t seed)
    : name_(std::move(name)), rng_(seed) {}

void EnvoySidecar::AddFilter(std::unique_ptr<EnvoyFilter> filter) {
  filters_.push_back(std::move(filter));
}

Result<EnvoySidecar::Output> EnvoySidecar::ProcessWire(
    std::span<const uint8_t> wire, bool is_request, HpackCodec& inbound_hpack,
    HpackCodec& outbound_hpack) {
  ++processed_;
  const bool timing = obs::Enabled();
  if (timing) {
    obs::MetricsRegistry::Default()
        .GetCounter("adn_envoy_messages_total", "sidecar=\"" + name_ + "\"")
        .Inc();
  }
  // 1. Real parse of the inbound bytes.
  ADN_ASSIGN_OR_RETURN(GrpcHttp2Message msg,
                       ParseGrpcMessage(wire, inbound_hpack));
  // 2. Filter chain over the decoded header map + body.
  FilterContext ctx;
  ctx.headers = &msg.headers;
  ctx.body = &msg.grpc_payload;
  ctx.is_request = is_request;
  ctx.stream_id = msg.stream_id;
  ctx.rng = &rng_;
  ctx.access_log = &access_log_;
  for (const auto& filter : filters_) {
    FilterResult r = filter->OnMessage(ctx);
    if (r.action == FilterAction::kAbort) {
      ++aborted_;
      if (timing) {
        obs::MetricsRegistry::Default()
            .GetCounter("adn_envoy_aborts_total", "sidecar=\"" + name_ + "\"")
            .Inc();
      }
      Output out;
      out.aborted = true;
      out.http_status = r.http_status;
      out.detail = std::move(r.detail);
      return out;
    }
  }
  // 3. Real re-encode toward the upstream connection.
  Output out;
  out.wire = EncodeGrpcMessage(msg, outbound_hpack);
  return out;
}

sim::SimTime EnvoySidecar::MessageCostNs(const sim::CostModel& model,
                                         size_t wire_bytes,
                                         bool is_request) const {
  double total = static_cast<double>(model.envoy_base_ns) +
                 model.envoy_per_byte_ns * static_cast<double>(wire_bytes);
  for (const auto& filter : filters_) {
    // Response passes skip request-only filters' heavy path but still pay
    // the dispatch + config check (~1/4 of the request cost).
    sim::SimTime c = filter->CostNs(model);
    total += is_request ? static_cast<double>(c)
                        : static_cast<double>(c) / 4.0;
  }
  return static_cast<sim::SimTime>(total);
}

}  // namespace adn::stack

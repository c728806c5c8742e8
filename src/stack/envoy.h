// Envoy-like L7 sidecar proxy — the baseline the paper compares against.
//
// Faithful to the architecture §2 criticizes: the proxy intercepts the
// byte stream, parses HTTP/2 frames, HPACK-decodes the header map, runs a
// chain of *generic* filters (each consulting its own configuration with
// many knobs — matchers, format strings, runtime fractions), then re-encodes
// everything and forwards. Application data the filters need (user, object
// id) must have been copied into HTTP headers by the application, because
// the proxy cannot see RPC-level fields — exactly the "layering hides
// information" problem.
//
// Filters implemented (modeled on envoy.filters.http.*):
//   AccessLogFilter  — access_log with a format string (logging)
//   RbacFilter       — role-based access control over header matchers (ACL)
//   FaultFilter      — fault injection with runtime fraction (fault)
//   HashRouterFilter — route + hash-policy load balancing (LB)
//   CompressorFilter — gzip-style body (de)compression
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "sim/cost_model.h"
#include "stack/http2.h"

namespace adn::stack {

enum class FilterAction : uint8_t {
  kContinue,
  kAbort,  // respond to caller with an error (e.g. 403 / fault 503)
};

struct FilterResult {
  FilterAction action = FilterAction::kContinue;
  int http_status = 200;
  std::string detail;
};

struct FilterContext {
  HeaderList* headers = nullptr;
  Bytes* body = nullptr;  // gRPC payload (proto bytes)
  bool is_request = true;
  uint32_t stream_id = 0;  // HTTP/2 stream carrying this message
  Rng* rng = nullptr;
  std::vector<std::string>* access_log = nullptr;
};

class EnvoyFilter {
 public:
  virtual ~EnvoyFilter() = default;
  virtual std::string_view name() const = 0;
  virtual FilterResult OnMessage(FilterContext& ctx) = 0;
  // Simulated CPU charged per message on top of the real work done here.
  virtual sim::SimTime CostNs(const sim::CostModel& model) const = 0;
};

// --- Access log ---------------------------------------------------------------
// Format operators: %REQ(name)% (header value), %STREAM_ID%, %BYTES%.
class AccessLogFilter : public EnvoyFilter {
 public:
  explicit AccessLogFilter(std::string format);
  std::string_view name() const override { return "envoy.access_log"; }
  FilterResult OnMessage(FilterContext& ctx) override;
  sim::SimTime CostNs(const sim::CostModel& m) const override {
    return m.envoy_filter_logging_ns;
  }

 private:
  std::string format_;
};

// --- RBAC ---------------------------------------------------------------------
struct HeaderMatcher {
  std::string header;
  enum class Kind { kExact, kPrefix, kPresent } kind = Kind::kExact;
  std::string value;

  bool Matches(const HeaderList& headers) const;
};

struct RbacPolicy {
  std::string name;
  std::vector<HeaderMatcher> principals;   // all must match
  std::vector<HeaderMatcher> permissions;  // all must match
};

class RbacFilter : public EnvoyFilter {
 public:
  enum class DefaultAction { kAllow, kDeny };
  RbacFilter(std::vector<RbacPolicy> allow_policies, DefaultAction fallback);
  std::string_view name() const override { return "envoy.rbac"; }
  FilterResult OnMessage(FilterContext& ctx) override;
  sim::SimTime CostNs(const sim::CostModel& m) const override {
    return m.envoy_filter_acl_ns;
  }

 private:
  std::vector<RbacPolicy> policies_;
  DefaultAction fallback_;
};

// --- Fault injection ------------------------------------------------------------
class FaultFilter : public EnvoyFilter {
 public:
  FaultFilter(double abort_fraction, int abort_http_status);
  std::string_view name() const override { return "envoy.fault"; }
  FilterResult OnMessage(FilterContext& ctx) override;
  sim::SimTime CostNs(const sim::CostModel& m) const override {
    return m.envoy_filter_fault_ns;
  }

 private:
  double abort_fraction_;
  int abort_status_;
};

// --- Router with hash-policy LB -------------------------------------------------
class HashRouterFilter : public EnvoyFilter {
 public:
  // Routes on the named header's hash across `upstream_count` endpoints;
  // records the pick in the "x-adn-upstream" header.
  HashRouterFilter(std::string hash_header, size_t upstream_count);
  std::string_view name() const override { return "envoy.router"; }
  FilterResult OnMessage(FilterContext& ctx) override;
  sim::SimTime CostNs(const sim::CostModel& m) const override {
    return m.envoy_filter_lb_ns;
  }
  size_t last_pick() const { return last_pick_; }

 private:
  std::string hash_header_;
  size_t upstream_count_;
  size_t last_pick_ = 0;
};

// --- Compressor -------------------------------------------------------------------
class CompressorFilter : public EnvoyFilter {
 public:
  explicit CompressorFilter(bool compress);  // false = decompressor
  std::string_view name() const override {
    return compress_ ? "envoy.compressor" : "envoy.decompressor";
  }
  FilterResult OnMessage(FilterContext& ctx) override;
  sim::SimTime CostNs(const sim::CostModel& m) const override;

 private:
  bool compress_;
};

// --- The sidecar ---------------------------------------------------------------
// One proxy instance with separate HPACK state per direction, a filter
// chain, and an access log. ProcessWire does the real byte work:
// parse -> decode -> filters -> re-encode.
class EnvoySidecar {
 public:
  EnvoySidecar(std::string name, uint64_t seed);

  void AddFilter(std::unique_ptr<EnvoyFilter> filter);

  struct Output {
    bool aborted = false;
    int http_status = 200;
    std::string detail;
    Bytes wire;  // re-encoded frames when not aborted
  };

  // `inbound_hpack`/`outbound_hpack`: connection codec states for the two
  // hops this proxy bridges (real Envoy keeps per-connection HPACK too).
  Result<Output> ProcessWire(std::span<const uint8_t> wire, bool is_request,
                             HpackCodec& inbound_hpack,
                             HpackCodec& outbound_hpack);

  // Simulated CPU for one message of `wire_bytes` length.
  sim::SimTime MessageCostNs(const sim::CostModel& model, size_t wire_bytes,
                             bool is_request) const;

  const std::vector<std::string>& access_log() const { return access_log_; }
  const std::string& name() const { return name_; }
  uint64_t messages_processed() const { return processed_; }
  uint64_t messages_aborted() const { return aborted_; }

 private:
  std::string name_;
  std::vector<std::unique_ptr<EnvoyFilter>> filters_;
  std::vector<std::string> access_log_;
  Rng rng_;
  uint64_t processed_ = 0;
  uint64_t aborted_ = 0;
};

}  // namespace adn::stack

#ifndef CQP_SERVER_PROTOCOL_H_
#define CQP_SERVER_PROTOCOL_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "cqp/problem.h"
#include "server/json.h"

namespace cqp::server {

/// Wire protocol, version 1: one JSON object per line ('\n'-delimited,
/// no raw newlines inside a frame — the JSON escaper guarantees that), one
/// response line per request line. Responses carry the request's `id`
/// verbatim, so a pipelining client can match out-of-order completions.
/// See docs/server.md for the full specification.
inline constexpr int kProtocolVersion = 1;

/// Hard cap on one frame; longer lines are a protocol error and close the
/// connection (an unbounded line would otherwise buffer unboundedly).
inline constexpr size_t kMaxFrameBytes = 1u << 20;  // 1 MiB

/// Request operations.
enum class RequestOp {
  kPersonalize = 0,  ///< personalize one SQL query under a stored profile
  kPing,             ///< liveness probe
  kStats,            ///< dump the server's ServerStats snapshot
  kProfiles,         ///< list stored profile ids
  kReload,           ///< hot-reload the profile store from its directory
};

/// Stable wire name, e.g. "personalize".
const char* RequestOpName(RequestOp op);

/// Body of a personalize request. Unset fields (empty / zero) fall back to
/// the server's configured defaults.
struct PersonalizePayload {
  std::string sql;                 ///< required: the original query text
  std::string profile_id = "default";
  std::string algorithm;           ///< empty = server default
  double deadline_ms = 0.0;        ///< 0 = no deadline
  uint64_t max_expansions = 0;     ///< 0 = server default / unlimited
  double max_memory_mb = 0.0;      ///< 0 = unlimited
  size_t max_k = 0;                ///< preference-space cap; 0 = default
  /// Constraint bounds; nullopt = the server's default problem.
  std::optional<cqp::ProblemSpec> problem;
};

/// One parsed request frame.
struct WireRequest {
  int version = kProtocolVersion;
  RequestOp op = RequestOp::kPing;
  std::string id;  ///< client-chosen correlation id, echoed in the response
  PersonalizePayload personalize;  ///< meaningful iff op == kPersonalize
};

/// Body of a personalize response (present iff the request succeeded).
struct PersonalizeResultPayload {
  std::string final_sql;
  std::string rung;  ///< FallbackRungName of the answering ladder rung
  bool degraded = false;
  bool feasible = false;
  std::vector<int32_t> chosen;  ///< indices into the preference space
  double doi = 0.0;
  double cost_ms = 0.0;
  double size = 0.0;
  uint64_t states_examined = 0;
  double search_wall_ms = 0.0;
  bool plan_cache_hit = false;  ///< Prepare() was served from the plan cache
  double server_ms = 0.0;  ///< admission-to-response latency on the server
  std::vector<std::string> attempts;  ///< degradation-ladder trail
};

/// One response frame: either an error (typed status) or an op-specific
/// result — `personalize` for kPersonalize, `extra` (a JSON object) for the
/// administrative ops (stats snapshot, profile list, pong).
struct WireResponse {
  int version = kProtocolVersion;
  std::string id;
  Status status;  ///< OK, or the typed error (code + message) on the wire
  std::optional<PersonalizeResultPayload> personalize;
  JsonValue extra;  ///< kNull when unused

  bool ok() const { return status.ok(); }
};

/// Serialization. The emitted string is a single line WITHOUT the trailing
/// '\n' (the framing layer appends it).
std::string SerializeRequest(const WireRequest& request);
std::string SerializeResponse(const WireResponse& response);

/// Strict parses; any malformed frame (bad JSON, missing/mistyped required
/// field, unsupported version or op) is an InvalidArgument.
StatusOr<WireRequest> ParseRequest(std::string_view line);
StatusOr<WireResponse> ParseResponse(std::string_view line);

/// Status <-> wire error payload. Every StatusCode has a stable wire name
/// (StatusCodeName); unknown names parse to kInternal rather than failing,
/// so a newer server's codes degrade gracefully on an older client.
JsonValue StatusToJson(const Status& status);
Status StatusFromJson(const JsonValue& error);

/// ProblemSpec <-> wire object ({"objective": "max_doi"|"min_cost",
/// "cmax_ms"/"dmin"/"smin"/"smax": number, each optional}).
JsonValue ProblemToJson(const cqp::ProblemSpec& spec);
StatusOr<cqp::ProblemSpec> ProblemFromJson(const JsonValue& value);

}  // namespace cqp::server

#endif  // CQP_SERVER_PROTOCOL_H_

#include "server/protocol.h"

#include <cmath>
#include <utility>

#include "common/str_util.h"

namespace cqp::server {

namespace {

struct OpNameEntry {
  RequestOp op;
  const char* name;
};

constexpr OpNameEntry kOpNames[] = {
    {RequestOp::kPersonalize, "personalize"}, {RequestOp::kPing, "ping"},
    {RequestOp::kStats, "stats"},             {RequestOp::kProfiles, "profiles"},
    {RequestOp::kReload, "reload"},
};

StatusOr<RequestOp> OpFromName(const std::string& name) {
  for (const OpNameEntry& e : kOpNames) {
    if (name == e.name) return e.op;
  }
  return InvalidArgument("unknown op '" + name + "'");
}

constexpr StatusCode kAllCodes[] = {
    StatusCode::kOk,           StatusCode::kInvalidArgument,
    StatusCode::kNotFound,     StatusCode::kAlreadyExists,
    StatusCode::kOutOfRange,   StatusCode::kFailedPrecondition,
    StatusCode::kUnimplemented, StatusCode::kInternal,
    StatusCode::kInfeasible,   StatusCode::kDeadlineExceeded,
    StatusCode::kResourceExhausted,
};

StatusCode CodeFromName(const std::string& name) {
  for (StatusCode code : kAllCodes) {
    if (name == StatusCodeName(code)) return code;
  }
  return StatusCode::kInternal;
}

/// Field extraction helpers: absent fields return the fallback; present
/// fields of the wrong type are an error (strictness keeps client bugs
/// loud).
StatusOr<std::string> GetString(const JsonValue& obj, const std::string& key,
                                const std::string& fallback) {
  const JsonValue* v = obj.Find(key);
  if (v == nullptr) return fallback;
  if (!v->is_string()) return InvalidArgument("field '" + key + "' must be a string");
  return v->string_value();
}

StatusOr<double> GetNumber(const JsonValue& obj, const std::string& key,
                           double fallback) {
  const JsonValue* v = obj.Find(key);
  if (v == nullptr) return fallback;
  if (!v->is_number()) return InvalidArgument("field '" + key + "' must be a number");
  return v->number_value();
}

StatusOr<bool> GetBool(const JsonValue& obj, const std::string& key,
                       bool fallback) {
  const JsonValue* v = obj.Find(key);
  if (v == nullptr) return fallback;
  if (!v->is_bool()) return InvalidArgument("field '" + key + "' must be a bool");
  return v->bool_value();
}

JsonValue StringsToJson(const std::vector<std::string>& items) {
  JsonValue arr = JsonValue::Array();
  for (const std::string& s : items) arr.Append(JsonValue::Str(s));
  return arr;
}

}  // namespace

const char* RequestOpName(RequestOp op) {
  for (const OpNameEntry& e : kOpNames) {
    if (e.op == op) return e.name;
  }
  return "unknown";
}

JsonValue StatusToJson(const Status& status) {
  JsonValue error = JsonValue::Object();
  error.Set("code", JsonValue::Str(StatusCodeName(status.code())));
  error.Set("message", JsonValue::Str(status.message()));
  return error;
}

Status StatusFromJson(const JsonValue& error) {
  if (!error.is_object()) return Internal("malformed error payload");
  const JsonValue* code = error.Find("code");
  const JsonValue* message = error.Find("message");
  std::string code_name = code != nullptr && code->is_string()
                              ? code->string_value()
                              : "Internal";
  std::string text = message != nullptr && message->is_string()
                         ? message->string_value()
                         : "";
  return Status(CodeFromName(code_name), std::move(text));
}

JsonValue ProblemToJson(const cqp::ProblemSpec& spec) {
  JsonValue obj = JsonValue::Object();
  obj.Set("objective",
          JsonValue::Str(spec.objective == cqp::Objective::kMaximizeDoi
                             ? "max_doi"
                             : "min_cost"));
  if (spec.cmax_ms.has_value()) obj.Set("cmax_ms", JsonValue::Number(*spec.cmax_ms));
  if (spec.dmin.has_value()) obj.Set("dmin", JsonValue::Number(*spec.dmin));
  if (spec.smin.has_value()) obj.Set("smin", JsonValue::Number(*spec.smin));
  if (spec.smax.has_value()) obj.Set("smax", JsonValue::Number(*spec.smax));
  return obj;
}

StatusOr<cqp::ProblemSpec> ProblemFromJson(const JsonValue& value) {
  if (!value.is_object()) return InvalidArgument("'problem' must be an object");
  cqp::ProblemSpec spec;
  CQP_ASSIGN_OR_RETURN(std::string objective,
                       GetString(value, "objective", "max_doi"));
  if (objective == "max_doi") {
    spec.objective = cqp::Objective::kMaximizeDoi;
  } else if (objective == "min_cost") {
    spec.objective = cqp::Objective::kMinimizeCost;
  } else {
    return InvalidArgument("objective must be 'max_doi' or 'min_cost', got '" +
                           objective + "'");
  }
  for (const char* key : {"cmax_ms", "dmin", "smin", "smax"}) {
    const JsonValue* v = value.Find(key);
    if (v == nullptr) continue;
    if (!v->is_number()) {
      return InvalidArgument(std::string("field '") + key +
                             "' must be a number");
    }
    double d = v->number_value();
    if (std::string(key) == "cmax_ms") spec.cmax_ms = d;
    if (std::string(key) == "dmin") spec.dmin = d;
    if (std::string(key) == "smin") spec.smin = d;
    if (std::string(key) == "smax") spec.smax = d;
  }
  CQP_RETURN_IF_ERROR(spec.Validate());
  return spec;
}

std::string SerializeRequest(const WireRequest& request) {
  JsonValue obj = JsonValue::Object();
  obj.Set("v", JsonValue::Number(request.version));
  obj.Set("op", JsonValue::Str(RequestOpName(request.op)));
  if (!request.id.empty()) obj.Set("id", JsonValue::Str(request.id));
  if (request.op == RequestOp::kPersonalize) {
    const PersonalizePayload& p = request.personalize;
    obj.Set("sql", JsonValue::Str(p.sql));
    obj.Set("profile", JsonValue::Str(p.profile_id));
    if (!p.algorithm.empty()) obj.Set("algorithm", JsonValue::Str(p.algorithm));
    if (p.deadline_ms > 0) obj.Set("deadline_ms", JsonValue::Number(p.deadline_ms));
    if (p.max_expansions > 0) {
      obj.Set("max_expansions",
              JsonValue::Number(static_cast<double>(p.max_expansions)));
    }
    if (p.max_memory_mb > 0) {
      obj.Set("max_memory_mb", JsonValue::Number(p.max_memory_mb));
    }
    if (p.max_k > 0) {
      obj.Set("max_k", JsonValue::Number(static_cast<double>(p.max_k)));
    }
    if (p.problem.has_value()) obj.Set("problem", ProblemToJson(*p.problem));
  }
  return obj.Dump();
}

StatusOr<WireRequest> ParseRequest(std::string_view line) {
  if (line.size() > kMaxFrameBytes) {
    return InvalidArgument("frame exceeds " + std::to_string(kMaxFrameBytes) +
                           " bytes");
  }
  CQP_ASSIGN_OR_RETURN(JsonValue doc, JsonValue::Parse(line));
  if (!doc.is_object()) return InvalidArgument("request must be a JSON object");

  WireRequest request;
  CQP_ASSIGN_OR_RETURN(double version,
                       GetNumber(doc, "v", kProtocolVersion));
  request.version = static_cast<int>(version);
  if (request.version != kProtocolVersion) {
    return InvalidArgument("unsupported protocol version " +
                           std::to_string(request.version));
  }
  const JsonValue* op = doc.Find("op");
  if (op == nullptr || !op->is_string()) {
    return InvalidArgument("request needs a string 'op'");
  }
  CQP_ASSIGN_OR_RETURN(request.op, OpFromName(op->string_value()));
  CQP_ASSIGN_OR_RETURN(request.id, GetString(doc, "id", ""));

  if (request.op == RequestOp::kPersonalize) {
    PersonalizePayload& p = request.personalize;
    const JsonValue* sql = doc.Find("sql");
    if (sql == nullptr || !sql->is_string() || sql->string_value().empty()) {
      return InvalidArgument("personalize needs a non-empty string 'sql'");
    }
    p.sql = sql->string_value();
    CQP_ASSIGN_OR_RETURN(p.profile_id, GetString(doc, "profile", "default"));
    if (p.profile_id.empty()) {
      return InvalidArgument("'profile' must be non-empty");
    }
    CQP_ASSIGN_OR_RETURN(p.algorithm, GetString(doc, "algorithm", ""));
    CQP_ASSIGN_OR_RETURN(p.deadline_ms, GetNumber(doc, "deadline_ms", 0.0));
    if (p.deadline_ms < 0) {
      return InvalidArgument("'deadline_ms' must be >= 0");
    }
    CQP_ASSIGN_OR_RETURN(double expansions,
                         GetNumber(doc, "max_expansions", 0.0));
    if (expansions < 0) return InvalidArgument("'max_expansions' must be >= 0");
    p.max_expansions = static_cast<uint64_t>(expansions);
    CQP_ASSIGN_OR_RETURN(p.max_memory_mb, GetNumber(doc, "max_memory_mb", 0.0));
    if (p.max_memory_mb < 0) {
      return InvalidArgument("'max_memory_mb' must be >= 0");
    }
    CQP_ASSIGN_OR_RETURN(double max_k, GetNumber(doc, "max_k", 0.0));
    if (max_k < 0 || max_k >= 64) {
      return InvalidArgument("'max_k' must be in [0, 63]");
    }
    p.max_k = static_cast<size_t>(max_k);
    const JsonValue* problem = doc.Find("problem");
    if (problem != nullptr) {
      CQP_ASSIGN_OR_RETURN(cqp::ProblemSpec spec, ProblemFromJson(*problem));
      p.problem = spec;
    }
  }
  return request;
}

std::string SerializeResponse(const WireResponse& response) {
  JsonValue obj = JsonValue::Object();
  obj.Set("v", JsonValue::Number(response.version));
  if (!response.id.empty()) obj.Set("id", JsonValue::Str(response.id));
  obj.Set("ok", JsonValue::Bool(response.status.ok()));
  if (!response.status.ok()) {
    obj.Set("error", StatusToJson(response.status));
  }
  if (response.personalize.has_value()) {
    const PersonalizeResultPayload& r = *response.personalize;
    JsonValue result = JsonValue::Object();
    result.Set("final_sql", JsonValue::Str(r.final_sql));
    result.Set("rung", JsonValue::Str(r.rung));
    result.Set("degraded", JsonValue::Bool(r.degraded));
    result.Set("feasible", JsonValue::Bool(r.feasible));
    JsonValue chosen = JsonValue::Array();
    for (int32_t i : r.chosen) chosen.Append(JsonValue::Number(i));
    result.Set("chosen", std::move(chosen));
    result.Set("doi", JsonValue::Number(r.doi));
    result.Set("cost_ms", JsonValue::Number(r.cost_ms));
    result.Set("size", JsonValue::Number(r.size));
    result.Set("states",
               JsonValue::Number(static_cast<double>(r.states_examined)));
    result.Set("search_wall_ms", JsonValue::Number(r.search_wall_ms));
    result.Set("plan_cache_hit", JsonValue::Bool(r.plan_cache_hit));
    result.Set("server_ms", JsonValue::Number(r.server_ms));
    result.Set("attempts", StringsToJson(r.attempts));
    obj.Set("result", std::move(result));
  } else if (!response.extra.is_null()) {
    obj.Set("result", response.extra);
  }
  return obj.Dump();
}

StatusOr<WireResponse> ParseResponse(std::string_view line) {
  if (line.size() > kMaxFrameBytes) {
    return InvalidArgument("frame exceeds " + std::to_string(kMaxFrameBytes) +
                           " bytes");
  }
  CQP_ASSIGN_OR_RETURN(JsonValue doc, JsonValue::Parse(line));
  if (!doc.is_object()) {
    return InvalidArgument("response must be a JSON object");
  }
  WireResponse response;
  CQP_ASSIGN_OR_RETURN(double version, GetNumber(doc, "v", kProtocolVersion));
  response.version = static_cast<int>(version);
  if (response.version != kProtocolVersion) {
    return InvalidArgument("unsupported protocol version " +
                           std::to_string(response.version));
  }
  CQP_ASSIGN_OR_RETURN(response.id, GetString(doc, "id", ""));
  CQP_ASSIGN_OR_RETURN(bool ok, GetBool(doc, "ok", false));
  if (!ok) {
    const JsonValue* error = doc.Find("error");
    if (error == nullptr) {
      return InvalidArgument("error response needs an 'error' payload");
    }
    response.status = StatusFromJson(*error);
    if (response.status.ok()) {
      return InvalidArgument("error payload decoded to OK");
    }
    return response;
  }
  const JsonValue* result = doc.Find("result");
  if (result == nullptr) return response;  // bare OK (e.g. future ops)
  if (!result->is_object()) {
    return InvalidArgument("'result' must be an object");
  }
  // A personalize result is recognized by its mandatory fields; anything
  // else is an administrative payload surfaced verbatim through `extra`.
  if (result->Find("final_sql") != nullptr && result->Find("rung") != nullptr) {
    PersonalizeResultPayload r;
    CQP_ASSIGN_OR_RETURN(r.final_sql, GetString(*result, "final_sql", ""));
    CQP_ASSIGN_OR_RETURN(r.rung, GetString(*result, "rung", ""));
    CQP_ASSIGN_OR_RETURN(r.degraded, GetBool(*result, "degraded", false));
    CQP_ASSIGN_OR_RETURN(r.feasible, GetBool(*result, "feasible", false));
    const JsonValue* chosen = result->Find("chosen");
    if (chosen != nullptr) {
      if (!chosen->is_array()) {
        return InvalidArgument("'chosen' must be an array");
      }
      for (const JsonValue& item : chosen->array_items()) {
        if (!item.is_number()) {
          return InvalidArgument("'chosen' must hold numbers");
        }
        r.chosen.push_back(static_cast<int32_t>(item.number_value()));
      }
    }
    CQP_ASSIGN_OR_RETURN(r.doi, GetNumber(*result, "doi", 0.0));
    CQP_ASSIGN_OR_RETURN(r.cost_ms, GetNumber(*result, "cost_ms", 0.0));
    CQP_ASSIGN_OR_RETURN(r.size, GetNumber(*result, "size", 0.0));
    CQP_ASSIGN_OR_RETURN(double states, GetNumber(*result, "states", 0.0));
    r.states_examined = static_cast<uint64_t>(states);
    CQP_ASSIGN_OR_RETURN(r.search_wall_ms,
                         GetNumber(*result, "search_wall_ms", 0.0));
    CQP_ASSIGN_OR_RETURN(r.plan_cache_hit,
                         GetBool(*result, "plan_cache_hit", false));
    CQP_ASSIGN_OR_RETURN(r.server_ms, GetNumber(*result, "server_ms", 0.0));
    const JsonValue* attempts = result->Find("attempts");
    if (attempts != nullptr) {
      if (!attempts->is_array()) {
        return InvalidArgument("'attempts' must be an array");
      }
      for (const JsonValue& item : attempts->array_items()) {
        if (!item.is_string()) {
          return InvalidArgument("'attempts' must hold strings");
        }
        r.attempts.push_back(item.string_value());
      }
    }
    response.personalize = std::move(r);
  } else {
    response.extra = *result;
  }
  return response;
}

}  // namespace cqp::server

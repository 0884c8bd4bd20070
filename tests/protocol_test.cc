// Tests for the server's JSON library and the v1 wire protocol: round
// trips of every request/response variant, strict malformed-frame
// rejection, and the status-code mapping.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.h"
#include "server/json.h"
#include "server/protocol.h"
#include "testing/generator.h"

namespace cqp::server {
namespace {

// ---------------------------------------------------------------- JSON

TEST(Json, ParsesScalars) {
  EXPECT_TRUE((*JsonValue::Parse("null")).is_null());
  EXPECT_TRUE((*JsonValue::Parse("true")).bool_value());
  EXPECT_FALSE((*JsonValue::Parse("false")).bool_value());
  EXPECT_DOUBLE_EQ((*JsonValue::Parse("-12.5e2")).number_value(), -1250.0);
  EXPECT_EQ((*JsonValue::Parse("\"hi\\n\\\"there\\\"\"")).string_value(),
            "hi\n\"there\"");
}

TEST(Json, ParsesUnicodeEscapes) {
  // é is é (U+00E9, two UTF-8 bytes).
  auto v = JsonValue::Parse("\"caf\\u00e9\"");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->string_value(), "caf\xc3\xa9");
}

TEST(Json, ParsesNestedStructures) {
  auto v = JsonValue::Parse(R"({"a": [1, 2, {"b": null}], "c": {"d": true}})");
  ASSERT_TRUE(v.ok());
  ASSERT_TRUE(v->is_object());
  const JsonValue* a = v->Find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_TRUE(a->is_array());
  ASSERT_EQ(a->array_items().size(), 3u);
  EXPECT_TRUE(a->array_items()[2].Find("b")->is_null());
  EXPECT_TRUE(v->Find("c")->Find("d")->bool_value());
}

TEST(Json, DumpParseRoundTripIsIdentity) {
  JsonValue obj = JsonValue::Object();
  obj.Set("text", JsonValue::Str("line1\nline2\t\"quoted\" \\ slash"));
  obj.Set("n", JsonValue::Number(3.25));
  obj.Set("i", JsonValue::Number(1234567890.0));
  obj.Set("flag", JsonValue::Bool(true));
  obj.Set("nothing", JsonValue::Null());
  JsonValue arr = JsonValue::Array();
  arr.Append(JsonValue::Number(-1));
  arr.Append(JsonValue::Str(""));
  obj.Set("arr", std::move(arr));

  std::string dumped = obj.Dump();
  // '\n' must be escaped: the wire framing depends on one-line frames.
  EXPECT_EQ(dumped.find('\n'), std::string::npos);
  auto parsed = JsonValue::Parse(dumped);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(*parsed, obj);
  // Sorted keys make Dump deterministic.
  EXPECT_EQ(parsed->Dump(), dumped);
}

TEST(Json, IntegersPrintWithoutExponent) {
  EXPECT_EQ(JsonValue::Number(42).Dump(), "42");
  EXPECT_EQ(JsonValue::Number(-7).Dump(), "-7");
  EXPECT_EQ(JsonValue::Number(2000000).Dump(), "2000000");
}

TEST(Json, RejectsMalformedDocuments) {
  const char* bad[] = {
      "",            "{",       "[1, 2",     "{\"a\": }", "tru",
      "\"unterminated", "{\"a\" 1}", "[1,]",  "{,}",       "nan",
      "1 2",         "{\"a\":1} garbage", "\"bad\\escape\"",
  };
  for (const char* text : bad) {
    EXPECT_FALSE(JsonValue::Parse(text).ok()) << "accepted: " << text;
  }
}

TEST(Json, RejectsExcessiveNesting) {
  std::string deep(100, '[');
  deep += std::string(100, ']');
  EXPECT_FALSE(JsonValue::Parse(deep).ok());
}

// ------------------------------------------------------------ requests

TEST(Protocol, PersonalizeRequestRoundTripAllFields) {
  WireRequest request;
  request.op = RequestOp::kPersonalize;
  request.id = "req-42";
  request.personalize.sql = "SELECT title FROM MOVIE";
  request.personalize.profile_id = "alice";
  request.personalize.algorithm = "C-Boundaries";
  request.personalize.deadline_ms = 12.5;
  request.personalize.max_expansions = 100000;
  request.personalize.max_memory_mb = 64.0;
  request.personalize.max_k = 12;
  request.personalize.problem = cqp::ProblemSpec::Problem3(400.0, 1.0, 50.0);

  auto parsed = ParseRequest(SerializeRequest(request));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->version, kProtocolVersion);
  EXPECT_EQ(parsed->op, RequestOp::kPersonalize);
  EXPECT_EQ(parsed->id, "req-42");
  const PersonalizePayload& p = parsed->personalize;
  EXPECT_EQ(p.sql, request.personalize.sql);
  EXPECT_EQ(p.profile_id, "alice");
  EXPECT_EQ(p.algorithm, "C-Boundaries");
  EXPECT_DOUBLE_EQ(p.deadline_ms, 12.5);
  EXPECT_EQ(p.max_expansions, 100000u);
  EXPECT_DOUBLE_EQ(p.max_memory_mb, 64.0);
  EXPECT_EQ(p.max_k, 12u);
  ASSERT_TRUE(p.problem.has_value());
  EXPECT_EQ(p.problem->ProblemNumber(), 3);
  EXPECT_DOUBLE_EQ(*p.problem->cmax_ms, 400.0);
  EXPECT_DOUBLE_EQ(*p.problem->smin, 1.0);
  EXPECT_DOUBLE_EQ(*p.problem->smax, 50.0);
}

TEST(Protocol, PersonalizeRequestDefaultsApply) {
  auto parsed = ParseRequest(R"({"v":1,"op":"personalize","sql":"SELECT 1"})");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->personalize.profile_id, "default");
  EXPECT_TRUE(parsed->personalize.algorithm.empty());
  EXPECT_DOUBLE_EQ(parsed->personalize.deadline_ms, 0.0);
  EXPECT_FALSE(parsed->personalize.problem.has_value());
}

TEST(Protocol, AdministrativeRequestsRoundTrip) {
  for (RequestOp op : {RequestOp::kPing, RequestOp::kStats,
                       RequestOp::kProfiles, RequestOp::kReload}) {
    WireRequest request;
    request.op = op;
    request.id = "x";
    auto parsed = ParseRequest(SerializeRequest(request));
    ASSERT_TRUE(parsed.ok()) << RequestOpName(op);
    EXPECT_EQ(parsed->op, op);
    EXPECT_EQ(parsed->id, "x");
  }
}

TEST(Protocol, MinCostProblemRoundTrips) {
  WireRequest request;
  request.op = RequestOp::kPersonalize;
  request.personalize.sql = "SELECT 1";
  request.personalize.problem = cqp::ProblemSpec::Problem6(1.0, 100.0);
  auto parsed = ParseRequest(SerializeRequest(request));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->personalize.problem->objective,
            cqp::Objective::kMinimizeCost);
}

TEST(Protocol, RejectsMalformedRequests) {
  const char* bad[] = {
      // not JSON at all
      "hello",
      // not an object
      "[1,2,3]",
      // missing op
      R"({"v":1})",
      // unknown op
      R"({"v":1,"op":"frobnicate"})",
      // unsupported version
      R"({"v":2,"op":"ping"})",
      // wrong version type
      R"({"v":"one","op":"ping"})",
      // personalize without sql
      R"({"v":1,"op":"personalize"})",
      // empty sql
      R"({"v":1,"op":"personalize","sql":""})",
      // sql of the wrong type
      R"({"v":1,"op":"personalize","sql":17})",
      // empty profile id
      R"({"v":1,"op":"personalize","sql":"SELECT 1","profile":""})",
      // negative deadline
      R"({"v":1,"op":"personalize","sql":"SELECT 1","deadline_ms":-5})",
      // max_k beyond the IndexSet bitmask range
      R"({"v":1,"op":"personalize","sql":"SELECT 1","max_k":64})",
      // mistyped budget field
      R"({"v":1,"op":"personalize","sql":"SELECT 1","max_expansions":"lots"})",
      // bad problem objective
      R"({"v":1,"op":"personalize","sql":"SELECT 1","problem":{"objective":"max_fun"}})",
      // problem of the wrong type
      R"({"v":1,"op":"personalize","sql":"SELECT 1","problem":[1]})",
  };
  for (const char* frame : bad) {
    EXPECT_FALSE(ParseRequest(frame).ok()) << "accepted: " << frame;
  }
}

// ----------------------------------------------------------- responses

TEST(Protocol, PersonalizeResponseRoundTripAllFields) {
  WireResponse response;
  response.id = "req-42";
  PersonalizeResultPayload r;
  r.final_sql = "SELECT title FROM MOVIE WHERE year > 1990";
  r.rung = "Primary";
  r.degraded = false;
  r.feasible = true;
  r.chosen = {0, 3, 7};
  r.doi = 0.875;
  r.cost_ms = 123.5;
  r.size = 42.0;
  r.states_examined = 991;
  r.search_wall_ms = 1.75;
  r.server_ms = 2.5;
  r.attempts = {"C-MaxBounds: ok"};
  response.personalize = r;

  auto parsed = ParseResponse(SerializeResponse(response));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_TRUE(parsed->ok());
  EXPECT_EQ(parsed->id, "req-42");
  ASSERT_TRUE(parsed->personalize.has_value());
  const PersonalizeResultPayload& q = *parsed->personalize;
  EXPECT_EQ(q.final_sql, r.final_sql);
  EXPECT_EQ(q.rung, "Primary");
  EXPECT_EQ(q.degraded, false);
  EXPECT_EQ(q.feasible, true);
  EXPECT_EQ(q.chosen, (std::vector<int32_t>{0, 3, 7}));
  EXPECT_DOUBLE_EQ(q.doi, 0.875);
  EXPECT_DOUBLE_EQ(q.cost_ms, 123.5);
  EXPECT_DOUBLE_EQ(q.size, 42.0);
  EXPECT_EQ(q.states_examined, 991u);
  EXPECT_DOUBLE_EQ(q.search_wall_ms, 1.75);
  EXPECT_DOUBLE_EQ(q.server_ms, 2.5);
  EXPECT_EQ(q.attempts, r.attempts);
}

TEST(Protocol, ErrorResponseRoundTripsEveryStatusCode) {
  const Status statuses[] = {
      InvalidArgument("bad frame"),   NotFound("no profile"),
      AlreadyExists("dup"),           OutOfRange("k"),
      FailedPrecondition("no dir"),   Unimplemented("nope"),
      Internal("bug"),                Infeasible("no solution"),
      DeadlineExceeded("too slow"),   ResourceExhausted("overloaded"),
  };
  for (const Status& status : statuses) {
    WireResponse response;
    response.id = "e";
    response.status = status;
    auto parsed = ParseResponse(SerializeResponse(response));
    ASSERT_TRUE(parsed.ok()) << status.ToString();
    EXPECT_FALSE(parsed->ok());
    EXPECT_EQ(parsed->status.code(), status.code()) << status.ToString();
    EXPECT_EQ(parsed->status.message(), status.message());
  }
}

TEST(Protocol, UnknownErrorCodeDegradesToInternal) {
  auto parsed = ParseResponse(
      R"({"v":1,"ok":false,"error":{"code":"FancyNewCode","message":"hi"}})");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->status.code(), StatusCode::kInternal);
  EXPECT_EQ(parsed->status.message(), "hi");
}

TEST(Protocol, PersonalizeResponseIgnoresRetiredCacheCounters) {
  // Older servers sent per-request evaluation-cache counters; a current
  // client must still decode their frames.
  auto parsed = ParseResponse(
      R"({"v":1,"id":"old","ok":true,"result":{"final_sql":"SELECT 1",)"
      R"("rung":"Primary","states":7,"cache_hits":3,"cache_misses":4,)"
      R"("server_ms":1.5}})");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_TRUE(parsed->personalize.has_value());
  EXPECT_EQ(parsed->personalize->final_sql, "SELECT 1");
  EXPECT_EQ(parsed->personalize->rung, "Primary");
  EXPECT_EQ(parsed->personalize->states_examined, 7u);
  EXPECT_DOUBLE_EQ(parsed->personalize->server_ms, 1.5);
}

TEST(Protocol, ExtraPayloadResponseRoundTrips) {
  WireResponse response;
  response.id = "s";
  response.extra = JsonValue::Object();
  response.extra.Set("pong", JsonValue::Bool(true));
  auto parsed = ParseResponse(SerializeResponse(response));
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed->ok());
  EXPECT_FALSE(parsed->personalize.has_value());
  ASSERT_TRUE(parsed->extra.is_object());
  EXPECT_TRUE(parsed->extra.Find("pong")->bool_value());
}

TEST(Protocol, RejectsMalformedResponses) {
  const char* bad[] = {
      "junk",
      "[1]",
      // error response without an error payload
      R"({"v":1,"ok":false})",
      // error payload decoding to OK ("OK" is the kOk wire name; unknown
      // names like "Ok" degrade to kInternal instead — see StatusFromJson)
      R"({"v":1,"ok":false,"error":{"code":"OK","message":""}})",
      // wrong version
      R"({"v":9,"ok":true})",
      // result of the wrong type
      R"({"v":1,"ok":true,"result":[1,2]})",
      // personalize result with mistyped chosen
      R"({"v":1,"ok":true,"result":{"final_sql":"x","rung":"Primary","chosen":"nope"}})",
  };
  for (const char* frame : bad) {
    EXPECT_FALSE(ParseResponse(frame).ok()) << "accepted: " << frame;
  }
}

TEST(Protocol, OversizedFrameIsRejected) {
  std::string big = R"({"v":1,"op":"personalize","sql":")";
  big += std::string(kMaxFrameBytes, 'x');
  big += "\"}";
  EXPECT_FALSE(ParseRequest(big).ok());
  EXPECT_FALSE(ParseResponse(big).ok());
}

// ------------------------------------- generated malformed-frame corpus
//
// The seeded corruption helpers live in src/testing/generator.h and are
// shared with tools/cqp_fuzz. A corrupted frame is not guaranteed to be
// invalid (a byte flip inside a string literal can keep it well-formed),
// so the contract here is: the parsers always return a verdict — never
// crash — and anything they accept must survive a serialize/parse round
// trip.

/// Representative valid frames to corrupt: one of each direction.
std::vector<std::string> BaseFrames() {
  WireRequest request;
  request.op = RequestOp::kPersonalize;
  request.id = "corpus";
  request.personalize.sql = "SELECT title FROM MOVIE";
  request.personalize.problem = cqp::ProblemSpec::Problem3(400.0, 1.0, 50.0);

  WireResponse response;
  response.id = "corpus";
  PersonalizeResultPayload r;
  r.final_sql = "SELECT title FROM MOVIE WHERE year > 1990";
  r.rung = "Primary";
  r.feasible = true;
  r.chosen = {0, 2};
  r.doi = 0.5;
  response.personalize = r;

  WireResponse error;
  error.id = "corpus";
  error.status = Infeasible("no solution");

  return {SerializeRequest(request), SerializeResponse(response),
          SerializeResponse(error)};
}

TEST(ProtocolFuzz, CorruptedFramesNeverCrashAndAcceptedOnesRoundTrip) {
  for (uint64_t seed = 1; seed <= 50; ++seed) {
    Rng rng(seed);
    for (const std::string& base : BaseFrames()) {
      std::string frame = ::cqp::testing::CorruptFrame(rng, base);
      auto request = ParseRequest(frame);
      if (request.ok()) {
        EXPECT_TRUE(ParseRequest(SerializeRequest(*request)).ok())
            << "accepted but not round-trippable: " << frame;
      }
      auto response = ParseResponse(frame);
      if (response.ok()) {
        EXPECT_TRUE(ParseResponse(SerializeResponse(*response)).ok())
            << "accepted but not round-trippable: " << frame;
      }
    }
  }
}

TEST(ProtocolFuzz, RandomJunkFramesAreRejected) {
  for (uint64_t seed = 1; seed <= 50; ++seed) {
    Rng rng(seed * 31);
    std::string junk =
        ::cqp::testing::RandomJunk(rng, rng.Uniform(1, 2048));
    EXPECT_FALSE(ParseRequest(junk).ok()) << "accepted: " << junk;
    EXPECT_FALSE(ParseResponse(junk).ok()) << "accepted: " << junk;
  }
}

TEST(ProtocolFuzz, EveryTruncatedPrefixIsRejected) {
  for (const std::string& base : BaseFrames()) {
    for (size_t len = 0; len < base.size(); ++len) {
      std::string prefix = base.substr(0, len);
      EXPECT_FALSE(ParseRequest(prefix).ok()) << "accepted: " << prefix;
      EXPECT_FALSE(ParseResponse(prefix).ok()) << "accepted: " << prefix;
    }
  }
}

TEST(ProtocolFuzz, FrameAtExactlyTheCapParsesAndOneByteOverIsRejected) {
  // Pad the sql payload until the serialized frame is exactly
  // kMaxFrameBytes: that must still parse (the cap is inclusive), and one
  // more byte must be rejected by the size check, not the JSON parser.
  WireRequest request;
  request.op = RequestOp::kPersonalize;
  request.personalize.sql = "S";
  std::string frame = SerializeRequest(request);
  ASSERT_LT(frame.size(), kMaxFrameBytes);
  request.personalize.sql += std::string(kMaxFrameBytes - frame.size(), 'x');
  frame = SerializeRequest(request);
  ASSERT_EQ(frame.size(), kMaxFrameBytes);
  EXPECT_TRUE(ParseRequest(frame).ok());

  request.personalize.sql += 'x';
  frame = SerializeRequest(request);
  ASSERT_EQ(frame.size(), kMaxFrameBytes + 1);
  EXPECT_FALSE(ParseRequest(frame).ok());
}

TEST(ProtocolFuzz, RawNulBytesInsideStringsAreRejected) {
  // A raw NUL is a control character; the JSON grammar requires \u0000 escaping.
  std::string frame = R"({"v":1,"op":"personalize","sql":"SEL)";
  frame += '\0';
  frame += R"(ECT 1"})";
  EXPECT_FALSE(ParseRequest(frame).ok());
  // The escaped form is legal and round-trips through the dumper.
  auto parsed =
      ParseRequest(R"({"v":1,"op":"personalize","sql":"a\u0000b"})");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->personalize.sql, std::string("a\0b", 3));
  EXPECT_TRUE(ParseRequest(SerializeRequest(*parsed)).ok());
}

TEST(ProtocolFuzz, InvalidUtf8PassesThroughByteTransparently) {
  // The frame layer is deliberately byte-transparent above 0x7f: lone
  // continuation bytes, overlong encodings, and unpaired surrogates are
  // carried verbatim rather than rejected, so corrupting a profile string
  // can never wedge the connection. What matters is the round trip.
  const char* payloads[] = {"\x80", "\xc0\xaf", "\xed\xa0\x80", "\xff\xfe"};
  for (const char* bytes : payloads) {
    WireRequest request;
    request.op = RequestOp::kPersonalize;
    request.personalize.sql = std::string("SELECT ") + bytes;
    auto parsed = ParseRequest(SerializeRequest(request));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed->personalize.sql, request.personalize.sql);
  }
}

TEST(Protocol, SerializedFramesAreSingleLines) {
  WireRequest request;
  request.op = RequestOp::kPersonalize;
  request.personalize.sql = "SELECT title\nFROM MOVIE";  // embedded newline
  std::string frame = SerializeRequest(request);
  EXPECT_EQ(frame.find('\n'), std::string::npos);
  auto parsed = ParseRequest(frame);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->personalize.sql, "SELECT title\nFROM MOVIE");
}

}  // namespace
}  // namespace cqp::server

// Network front end: the incremental RequestParser (split feeds, pipelining,
// the 400/413/431/501/505 error taxonomy), token-bucket quotas and the key
// registry, the REST API's validation/error bodies/pagination, and the full
// socket path — an HttpEndpoint on an ephemeral loopback port driven by
// HttpClient/ApiClient, including the headline contract: rows reassembled
// from paginated pages over the wire hash identically to a local
// sample_into() of the same (model, rows, seed, chunk_rows) identity —
// and the socket soak, whose RemoteShard clients must land on the same
// expected_hash as the in-process sweep with no failed job.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <limits>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "models/generator.hpp"
#include "net/auth.hpp"
#include "net/client.hpp"
#include "net/http.hpp"
#include "net/page_codec.hpp"
#include "net/rest.hpp"
#include "net/server.hpp"
#include "serve/model_host.hpp"
#include "serve/replay.hpp"
#include "serve/sample_service.hpp"
#include "serve/soak.hpp"
#include "util/json_parse.hpp"
#include "util/rng.hpp"

namespace surro::net {
namespace {

// ------------------------------------------------------------- fixtures --

// Tiny mixed table with clear structure (mirrors test_serve.cpp).
tabular::Table cluster_table(std::size_t n, std::uint64_t seed) {
  tabular::Schema schema({{"x", tabular::ColumnKind::kNumerical},
                          {"site", tabular::ColumnKind::kCategorical},
                          {"y", tabular::ColumnKind::kNumerical},
                          {"status", tabular::ColumnKind::kCategorical}});
  tabular::Table t(schema);
  util::Rng rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    const bool cluster_a = rng.bernoulli(0.65);
    auto row = t.make_row();
    if (cluster_a) {
      row.set(0, rng.normal(0.0, 0.4));
      row.set(1, std::string(rng.bernoulli(0.9) ? "BNL" : "CERN"));
      row.set(2, rng.normal(-2.0, 0.3));
      row.set(3, std::string(rng.bernoulli(0.85) ? "finished" : "failed"));
    } else {
      row.set(0, rng.normal(5.0, 0.4));
      row.set(1, std::string(rng.bernoulli(0.8) ? "RAL" : "CERN"));
      row.set(2, rng.normal(3.0, 0.3));
      row.set(3, std::string(rng.bernoulli(0.6) ? "finished" : "failed"));
    }
    t.append_row(row);
  }
  return t;
}

models::TrainBudget tiny_budget() {
  models::TrainBudget b;
  b.epochs = 4;
  b.batch_size = 64;
  b.learning_rate = 1e-3f;
  return b;
}

/// Per-test scratch directory for model archives, removed on destruction.
struct TempDir {
  TempDir() {
    static std::atomic<std::uint64_t> counter{0};
    path = std::filesystem::temp_directory_path() /
           ("surro_net_test_" + std::to_string(++counter) + "_" +
            std::to_string(::getpid()));
    std::filesystem::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  [[nodiscard]] std::string file(const std::string& name) const {
    return (path / name).string();
  }
  std::filesystem::path path;
};

/// One fitted smote archive + host + service + RestApi, ready to route.
struct RestFixture {
  explicit RestFixture(RestConfig cfg = {}) {
    auto model = models::make_generator("smote", tiny_budget(), 7);
    model->fit(cluster_table(300, 21));
    models::save_model_file(*model, dir.file("smote.bin"));
    host.register_archive("smote", dir.file("smote.bin"));
    service.emplace(host);
    api.emplace(*service, cfg);
  }

  TempDir dir;
  serve::ModelHost host{serve::HostConfig{}};
  std::optional<serve::SampleService> service;
  std::optional<RestApi> api;
};

/// Run a raw wire request through the real parser so RestApi tests exercise
/// the same HttpRequest shape the server produces.
HttpRequest parse_request(const std::string& wire) {
  RequestParser parser;
  const auto state = parser.feed(wire);
  EXPECT_EQ(state, RequestParser::State::kComplete)
      << "fixture request failed to parse: " << wire;
  return parser.request();
}

HttpRequest simple_get(const std::string& target,
                       const std::string& api_key = "") {
  std::string wire = "GET " + target + " HTTP/1.1\r\nhost: t\r\n";
  if (!api_key.empty()) wire += "x-api-key: " + api_key + "\r\n";
  wire += "\r\n";
  return parse_request(wire);
}

HttpRequest json_post(const std::string& target, const std::string& body,
                      const std::string& api_key = "") {
  std::string wire = "POST " + target + " HTTP/1.1\r\nhost: t\r\n";
  if (!api_key.empty()) wire += "x-api-key: " + api_key + "\r\n";
  wire += "content-type: application/json\r\ncontent-length: " +
          std::to_string(body.size()) + "\r\n\r\n" + body;
  return parse_request(wire);
}

/// The structured {"error":{"code",...}} code of an error response.
std::string error_code_of(const HttpResponse& response) {
  const auto doc = util::parse_json(response.body);
  return doc.at("error").at("code").as_string();
}

// ------------------------------------------------------- request parser --

TEST(RequestParser, ParsesCompleteRequestWithBodyAndQuery) {
  RequestParser parser;
  const std::string wire =
      "POST /v1/sample?debug=1&name=a%20b+c HTTP/1.1\r\n"
      "Host: example\r\n"
      "X-API-Key: k1\r\n"
      "Content-Length: 4\r\n"
      "\r\n"
      "abcd";
  ASSERT_EQ(parser.feed(wire), RequestParser::State::kComplete);
  const auto& req = parser.request();
  EXPECT_EQ(req.method, "POST");
  EXPECT_EQ(req.path, "/v1/sample");
  EXPECT_EQ(req.target, "/v1/sample?debug=1&name=a%20b+c");
  EXPECT_EQ(req.query_or("debug"), "1");
  EXPECT_EQ(req.query_or("name"), "a b c");  // %20 and '+' both decode
  EXPECT_EQ(req.header("x-api-key"), "k1");  // names lowercased
  EXPECT_EQ(req.body, "abcd");
  EXPECT_TRUE(req.keep_alive);  // HTTP/1.1 default
}

TEST(RequestParser, ByteAtATimeFeedAcrossEveryBoundary) {
  const std::string wire =
      "POST /x HTTP/1.1\r\ncontent-length: 3\r\n\r\nxyz";
  RequestParser parser;
  for (std::size_t i = 0; i < wire.size(); ++i) {
    const auto state = parser.feed(wire.substr(i, 1));
    if (i + 1 < wire.size()) {
      ASSERT_EQ(state, RequestParser::State::kNeedMore) << "at byte " << i;
    } else {
      ASSERT_EQ(state, RequestParser::State::kComplete);
    }
  }
  EXPECT_EQ(parser.request().body, "xyz");
}

TEST(RequestParser, SplitExactlyAtHeaderBoundary) {
  // The blank line arrives in a separate feed from the header block.
  RequestParser parser;
  ASSERT_EQ(parser.feed("GET /healthz HTTP/1.1\r\nhost: a\r\n\r"),
            RequestParser::State::kNeedMore);
  ASSERT_EQ(parser.feed("\n"), RequestParser::State::kComplete);
  EXPECT_EQ(parser.request().path, "/healthz");
  EXPECT_TRUE(parser.request().body.empty());
}

TEST(RequestParser, PipelinedRequestsSurviveReset) {
  RequestParser parser;
  // Two full requests in one TCP segment: the second must be retained
  // through reset() and complete without further feeds.
  const std::string two =
      "GET /a HTTP/1.1\r\n\r\n"
      "POST /b HTTP/1.1\r\ncontent-length: 2\r\n\r\nhi";
  ASSERT_EQ(parser.feed(two), RequestParser::State::kComplete);
  EXPECT_EQ(parser.request().path, "/a");
  parser.reset();
  ASSERT_EQ(parser.state(), RequestParser::State::kComplete);
  EXPECT_EQ(parser.request().path, "/b");
  EXPECT_EQ(parser.request().body, "hi");
  parser.reset();
  EXPECT_EQ(parser.state(), RequestParser::State::kNeedMore);
}

TEST(RequestParser, KeepAliveResolution) {
  EXPECT_TRUE(parse_request("GET / HTTP/1.1\r\n\r\n").keep_alive);
  EXPECT_FALSE(
      parse_request("GET / HTTP/1.1\r\nconnection: close\r\n\r\n")
          .keep_alive);
  EXPECT_FALSE(parse_request("GET / HTTP/1.0\r\n\r\n").keep_alive);
  EXPECT_TRUE(
      parse_request("GET / HTTP/1.0\r\nconnection: keep-alive\r\n\r\n")
          .keep_alive);
}

TEST(RequestParser, ErrorTaxonomy) {
  {  // malformed request line -> 400
    RequestParser p;
    EXPECT_EQ(p.feed("NONSENSE\r\n\r\n"), RequestParser::State::kError);
    EXPECT_EQ(p.error_status(), 400);
  }
  {  // non-origin-form target -> 400
    RequestParser p;
    EXPECT_EQ(p.feed("GET example.com HTTP/1.1\r\n\r\n"),
              RequestParser::State::kError);
    EXPECT_EQ(p.error_status(), 400);
  }
  {  // unsupported version -> 505
    RequestParser p;
    EXPECT_EQ(p.feed("GET / HTTP/2.0\r\n\r\n"),
              RequestParser::State::kError);
    EXPECT_EQ(p.error_status(), 505);
  }
  {  // transfer-encoding framing -> 501
    RequestParser p;
    EXPECT_EQ(
        p.feed("POST / HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n"),
        RequestParser::State::kError);
    EXPECT_EQ(p.error_status(), 501);
  }
  {  // declared body past the cap -> 413, judged before any body arrives
    HttpLimits limits;
    limits.max_body_bytes = 16;
    RequestParser p(limits);
    EXPECT_EQ(p.feed("POST / HTTP/1.1\r\ncontent-length: 17\r\n\r\n"),
              RequestParser::State::kError);
    EXPECT_EQ(p.error_status(), 413);
  }
  {  // header block past the cap -> 431, failed mid-stream
    HttpLimits limits;
    limits.max_header_bytes = 64;
    RequestParser p(limits);
    std::string wire = "GET / HTTP/1.1\r\nx-padding: ";
    wire += std::string(128, 'a');
    EXPECT_EQ(p.feed(wire), RequestParser::State::kError);
    EXPECT_EQ(p.error_status(), 431);
  }
  {  // a terminal error is sticky: further feeds do not resurrect it
    RequestParser p;
    ASSERT_EQ(p.feed("BAD\r\n\r\n"), RequestParser::State::kError);
    EXPECT_EQ(p.feed("GET / HTTP/1.1\r\n\r\n"),
              RequestParser::State::kError);
  }
}

TEST(RequestParser, MalformedContentLengthIs400) {
  RequestParser p;
  EXPECT_EQ(p.feed("POST / HTTP/1.1\r\ncontent-length: ten\r\n\r\n"),
            RequestParser::State::kError);
  EXPECT_EQ(p.error_status(), 400);
}

TEST(RequestParser, RandomizedSplitReadFuzz) {
  // The parser contract: the final parse of a byte stream depends only on
  // the BYTES, never on how the transport chunked them. For every corpus
  // request — valid, error-terminal, and edge-shaped — the whole-feed
  // outcome is the reference, and then (a) every two-part split at all
  // 1..len-1 boundaries and (b) a seeded storm of random multi-chunk
  // splits must land on the identical terminal state, request fields, and
  // error status.
  const std::vector<std::string> corpus = {
      // Plain GET, query decoding, keep-alive default.
      "GET /v1/models?cursor=3&k=a%20b HTTP/1.1\r\nhost: t\r\n\r\n",
      // POST with a body (the body-phase boundary is the classic bug site).
      "POST /v1/sample HTTP/1.1\r\nhost: t\r\ncontent-type: application/"
      "json\r\ncontent-length: 26\r\n\r\n{\"model\":\"smote\","
      "\"rows\":9}",
      // Zero-length body, explicit close.
      "POST /v1/sample HTTP/1.1\r\nhost: t\r\nconnection: close\r\n"
      "content-length: 0\r\n\r\n",
      // Header folding hazards: padded values, mixed case names.
      "GET / HTTP/1.1\r\nHost: t\r\nX-API-Key:   spaced-key  \r\n"
      "Accept: */*\r\n\r\n",
      // HTTP/1.0 (keep_alive resolves false).
      "GET /healthz HTTP/1.0\r\nhost: t\r\n\r\n",
      // Error-terminal shapes: bad request line, bad version, framing.
      "NONSENSE\r\n\r\n",
      "GET / HTTP/2.0\r\n\r\n",
      "POST / HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n",
      "POST / HTTP/1.1\r\ncontent-length: ten\r\n\r\n",
  };

  struct Outcome {
    RequestParser::State state = RequestParser::State::kNeedMore;
    int error_status = 0;
    HttpRequest request;
  };
  const auto run = [](const std::string& wire,
                      const std::vector<std::size_t>& cuts) {
    RequestParser parser;
    std::size_t begin = 0;
    for (const std::size_t cut : cuts) {
      (void)parser.feed(std::string_view(wire).substr(begin, cut - begin));
      begin = cut;
    }
    (void)parser.feed(std::string_view(wire).substr(begin));
    Outcome out;
    out.state = parser.state();
    if (out.state == RequestParser::State::kError) {
      out.error_status = parser.error_status();
    } else if (out.state == RequestParser::State::kComplete) {
      out.request = parser.request();
    }
    return out;
  };
  const auto expect_same = [](const Outcome& got, const Outcome& want) {
    ASSERT_EQ(got.state, want.state);
    ASSERT_EQ(got.error_status, want.error_status);
    ASSERT_EQ(got.request.method, want.request.method);
    ASSERT_EQ(got.request.target, want.request.target);
    ASSERT_EQ(got.request.path, want.request.path);
    ASSERT_EQ(got.request.body, want.request.body);
    ASSERT_TRUE(got.request.headers == want.request.headers);
    ASSERT_TRUE(got.request.query == want.request.query);
    ASSERT_EQ(got.request.keep_alive, want.request.keep_alive);
  };

  util::Rng rng(0xF5A5u);  // seeded: failures reproduce exactly
  for (const auto& wire : corpus) {
    const Outcome want = run(wire, {});
    // Exhaustive two-part splits: every boundary, including mid-CRLF and
    // mid-body.
    for (std::size_t cut = 1; cut < wire.size(); ++cut) {
      SCOPED_TRACE("two-part cut at " + std::to_string(cut) + " of " +
                   wire.substr(0, 24));
      expect_same(run(wire, {cut}), want);
    }
    // Random multi-chunk splits (1-6 cuts, anywhere).
    for (int trial = 0; trial < 200; ++trial) {
      std::vector<std::size_t> cuts;
      const auto n = static_cast<std::size_t>(rng.uniform_int(1, 6));
      for (std::size_t i = 0; i < n; ++i) {
        cuts.push_back(static_cast<std::size_t>(rng.uniform_int(
            1, static_cast<std::int64_t>(wire.size()) - 1)));
      }
      std::sort(cuts.begin(), cuts.end());
      cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());
      SCOPED_TRACE("trial " + std::to_string(trial) + " of " +
                   wire.substr(0, 24));
      expect_same(run(wire, cuts), want);
    }
  }
}

// ---------------------------------------------------------------- quotas --

TEST(TokenBucket, BurstThenRefill) {
  TokenBucket bucket(/*rps=*/2.0, /*burst=*/0.0);  // burst defaults to 2
  double retry = 0.0;
  EXPECT_TRUE(bucket.try_take(0.0, &retry));
  EXPECT_TRUE(bucket.try_take(0.0, &retry));
  EXPECT_FALSE(bucket.try_take(0.0, &retry));
  EXPECT_GT(retry, 0.0);
  EXPECT_LE(retry, 0.5 + 1e-9);  // one token accrues in 1/rps seconds
  // Replay time forward past the refusal's own advice: a token is back.
  EXPECT_TRUE(bucket.try_take(0.6, &retry));
  EXPECT_FALSE(bucket.try_take(0.6, &retry));
}

TEST(TokenBucket, NonPositiveRateIsUnlimited) {
  TokenBucket bucket(0.0, 0.0);
  double retry = 0.0;
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(bucket.try_take(0.0, &retry));
  }
}

TEST(QuotaLedger, OpenAccessVersusKeyedAccess) {
  QuotaLedger open_ledger(/*default_rps=*/0.0);
  EXPECT_TRUE(open_ledger.open_access());
  EXPECT_TRUE(open_ledger.authorized(""));
  EXPECT_TRUE(open_ledger.authorized("anything"));

  QuotaLedger keyed(/*default_rps=*/0.0);
  keyed.add_key("k1");
  EXPECT_FALSE(keyed.open_access());
  EXPECT_TRUE(keyed.authorized("k1"));
  EXPECT_FALSE(keyed.authorized(""));
  EXPECT_FALSE(keyed.authorized("k2"));
}

TEST(QuotaLedger, PerKeyRateOverridesDefault) {
  QuotaLedger ledger(/*default_rps=*/100.0);
  ledger.add_key("fast");
  ledger.add_key("slow", 1.0);
  double retry = 0.0;
  // "slow" drains after its burst of one...
  EXPECT_TRUE(ledger.charge("slow", 0.0, &retry));
  EXPECT_FALSE(ledger.charge("slow", 0.0, &retry));
  EXPECT_GT(retry, 0.0);
  // ...while "fast" still has default-rate headroom at the same instant.
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(ledger.charge("fast", 0.0, &retry));
  }
}

TEST(QuotaLedger, LoadFileParsesKeysRatesAndComments) {
  TempDir dir;
  const std::string path = dir.file("keys.txt");
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("# comment line\n\nprod-key-1 200\n  ci-key\t\n", f);
    std::fclose(f);
  }
  QuotaLedger ledger(0.0);
  ledger.load_file(path);
  EXPECT_EQ(ledger.num_keys(), 2u);
  EXPECT_TRUE(ledger.authorized("prod-key-1"));
  EXPECT_TRUE(ledger.authorized("ci-key"));
  EXPECT_FALSE(ledger.authorized("# comment line"));

  EXPECT_THROW(ledger.load_file(dir.file("missing.txt")),
               std::runtime_error);
  {
    std::FILE* f = std::fopen(dir.file("bad.txt").c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("key twohundred\n", f);
    std::fclose(f);
  }
  EXPECT_THROW(ledger.load_file(dir.file("bad.txt")), std::runtime_error);
}

// ---------------------------------------------------------- REST routing --

TEST(RestApi, HealthzAndModels) {
  RestFixture fx;
  const auto health = fx.api->handle(simple_get("/healthz"));
  EXPECT_EQ(health.status, 200);

  const auto models = fx.api->handle(simple_get("/v1/models"));
  ASSERT_EQ(models.status, 200);
  const auto doc = util::parse_json(models.body);
  ASSERT_EQ(doc.at("models").array.size(), 1u);
  EXPECT_EQ(doc.at("models").array[0].at("key").as_string(), "smote");
}

TEST(RestApi, RoutingErrors) {
  RestFixture fx;
  const auto missing = fx.api->handle(simple_get("/v1/nope"));
  EXPECT_EQ(missing.status, 404);
  EXPECT_EQ(error_code_of(missing), "unknown_route");

  const auto wrong_method =
      fx.api->handle(parse_request("DELETE /v1/models HTTP/1.1\r\n\r\n"));
  EXPECT_EQ(wrong_method.status, 405);
  EXPECT_EQ(error_code_of(wrong_method), "method_not_allowed");
  EXPECT_FALSE(wrong_method.headers.at("allow").empty());
}

TEST(RestApi, SubmitValidation) {
  RestFixture fx;
  const auto bad_json =
      fx.api->handle(json_post("/v1/sample", "{not json"));
  EXPECT_EQ(bad_json.status, 400);
  EXPECT_EQ(error_code_of(bad_json), "bad_json");

  const auto typo = fx.api->handle(json_post(
      "/v1/sample", R"({"model":"smote","rows":10,"chnk_rows":64})"));
  EXPECT_EQ(typo.status, 400);
  EXPECT_EQ(error_code_of(typo), "unknown_field");

  const auto no_model =
      fx.api->handle(json_post("/v1/sample", R"({"rows":10})"));
  EXPECT_EQ(no_model.status, 400);

  const auto unknown_model = fx.api->handle(
      json_post("/v1/sample", R"({"model":"tabddpm","rows":10})"));
  EXPECT_EQ(unknown_model.status, 404);
  EXPECT_EQ(error_code_of(unknown_model), "unknown_model");

  const auto no_rows =
      fx.api->handle(json_post("/v1/sample", R"({"model":"smote"})"));
  EXPECT_EQ(no_rows.status, 400);
}

TEST(RestApi, SubmitPaginateReassembleMatchesLocalDigest) {
  RestFixture fx;
  const std::size_t rows = 257;  // deliberately not a page multiple
  const auto submit = fx.api->handle(json_post(
      "/v1/sample",
      R"({"model":"smote","rows":257,"seed":"987654321098765432",)"
      R"("chunk_rows":64})"));
  ASSERT_EQ(submit.status, 202) << submit.body;
  const auto handle_doc = util::parse_json(submit.body);
  const std::string job_id = handle_doc.at("job_id").as_string();
  EXPECT_EQ(handle_doc.at("seed").as_string(), "987654321098765432");

  // Page the rows back 100 at a time and rebuild the table.
  std::optional<tabular::Table> out;
  std::size_t cursor = 0;
  std::size_t pages = 0;
  for (;;) {
    const auto page = fx.api->handle(
        simple_get("/v1/jobs/" + job_id + "?cursor=" +
                   std::to_string(cursor) + "&limit=100&wait_ms=10000"));
    ASSERT_EQ(page.status, 200) << page.body;
    const auto doc = util::parse_json(page.body);
    ASSERT_EQ(doc.at("status").as_string(), "done");
    if (!out) {
      std::vector<tabular::ColumnSpec> specs;
      for (const auto& col : doc.at("schema").array) {
        specs.push_back({col.at("name").as_string(),
                         col.at("kind").as_string() == "numerical"
                             ? tabular::ColumnKind::kNumerical
                             : tabular::ColumnKind::kCategorical});
      }
      out.emplace(tabular::Schema(specs));
    }
    for (const auto& row : doc.at("data").array) {
      auto builder = out->make_row();
      for (std::size_t c = 0; c < row.array.size(); ++c) {
        const auto& cell = row.array[c];
        if (out->schema().columns()[c].kind ==
            tabular::ColumnKind::kNumerical) {
          builder.set(c, cell.is_null()
                             ? std::numeric_limits<double>::quiet_NaN()
                             : cell.as_number());
        } else {
          builder.set(c, cell.as_string());
        }
      }
      out->append_row(builder);
    }
    ++pages;
    if (doc.at("next_cursor").is_null()) break;
    cursor = static_cast<std::size_t>(doc.at("next_cursor").as_number());
  }
  EXPECT_EQ(pages, 3u);  // 100 + 100 + 57
  ASSERT_EQ(out->num_rows(), rows);

  // The wire bytes must hash identically to a direct local sample.
  tabular::Table local(out->schema());
  models::SampleRequest request;
  request.rows = rows;
  request.seed = 987654321098765432ull;
  request.chunk_rows = 64;
  fx.host.acquire("smote")->sample_into(local, request);
  EXPECT_EQ(serve::hash_table(*out), serve::hash_table(local));

  // Cursor past the end is a typed 400.
  const auto bad = fx.api->handle(
      simple_get("/v1/jobs/" + job_id + "?cursor=9999"));
  EXPECT_EQ(bad.status, 400);
  EXPECT_EQ(error_code_of(bad), "bad_cursor");
}

TEST(RestApi, JobLifecycleUnknownDeleteAndPurge) {
  RestFixture fx;
  const auto missing = fx.api->handle(simple_get("/v1/jobs/424242"));
  EXPECT_EQ(missing.status, 404);
  EXPECT_EQ(error_code_of(missing), "unknown_job");

  const auto submit = fx.api->handle(
      json_post("/v1/sample", R"({"model":"smote","rows":50})"));
  ASSERT_EQ(submit.status, 202);
  const std::string job_id =
      util::parse_json(submit.body).at("job_id").as_string();
  EXPECT_EQ(fx.api->tracked_jobs(), 1u);

  const auto deleted =
      fx.api->handle(parse_request("DELETE /v1/jobs/" + job_id +
                                   " HTTP/1.1\r\n\r\n"));
  EXPECT_EQ(deleted.status, 200);
  EXPECT_EQ(util::parse_json(deleted.body).at("status").as_string(),
            "deleted");
  EXPECT_EQ(fx.api->tracked_jobs(), 0u);

  const auto gone = fx.api->handle(simple_get("/v1/jobs/" + job_id));
  EXPECT_EQ(gone.status, 404);
}

TEST(RestApi, AuthRequiredWhenKeysRegistered) {
  RestFixture fx;
  fx.api->quotas().add_key("secret");

  const auto anonymous = fx.api->handle(simple_get("/v1/models"));
  EXPECT_EQ(anonymous.status, 401);
  EXPECT_EQ(error_code_of(anonymous), "unauthorized");

  const auto wrong = fx.api->handle(simple_get("/v1/models", "guess"));
  EXPECT_EQ(wrong.status, 401);

  const auto keyed = fx.api->handle(simple_get("/v1/models", "secret"));
  EXPECT_EQ(keyed.status, 200);

  // Bearer tokens are an equivalent spelling of the same key.
  const auto bearer = fx.api->handle(parse_request(
      "GET /v1/models HTTP/1.1\r\nauthorization: Bearer secret\r\n\r\n"));
  EXPECT_EQ(bearer.status, 200);

  // /healthz stays key-free for load balancers.
  EXPECT_EQ(fx.api->handle(simple_get("/healthz")).status, 200);
}

TEST(RestApi, QuotaExhaustionAnswers429WithRetryAfter) {
  RestConfig cfg;
  cfg.quota_rps = 1.0;  // burst defaults to 1
  RestFixture fx(cfg);
  EXPECT_EQ(fx.api->handle(simple_get("/v1/models")).status, 200);
  const auto limited = fx.api->handle(simple_get("/v1/models"));
  EXPECT_EQ(limited.status, 429);
  EXPECT_EQ(error_code_of(limited), "quota_exhausted");
  ASSERT_TRUE(limited.headers.contains("retry-after"));
  EXPECT_GE(std::stod(limited.headers.at("retry-after")), 1.0);
  // /healthz is never metered.
  EXPECT_EQ(fx.api->handle(simple_get("/healthz")).status, 200);
}

TEST(RestApi, StatsDocumentShape) {
  RestFixture fx;
  (void)fx.api->handle(simple_get("/v1/models"));
  const auto response = fx.api->handle(simple_get("/v1/stats"));
  ASSERT_EQ(response.status, 200);
  const auto doc = util::parse_json(response.body);
  EXPECT_EQ(doc.at("kind").as_string(), "serve_http_stats");
  EXPECT_EQ(doc.at("schema_version").as_number(), 1.0);
  EXPECT_TRUE(doc.has("service"));
  EXPECT_TRUE(doc.has("admission"));
  EXPECT_TRUE(doc.has("cache"));
  EXPECT_TRUE(doc.has("quota"));
  ASSERT_TRUE(doc.has("http"));
  const auto& routes = doc.at("http").at("routes").array;
  bool saw_models = false;
  for (const auto& route : routes) {
    if (route.at("route").as_string() == "GET /v1/models") {
      saw_models = true;
      EXPECT_GE(route.at("requests").as_number(), 1.0);
    }
  }
  EXPECT_TRUE(saw_models);
}

// ------------------------------------------------------------ socket e2e --

TEST(HttpEndpointSocket, FullProtocolOverLoopback) {
  RestFixture fx;
  RestConfig rest_cfg;
  ServerConfig server_cfg;
  server_cfg.worker_threads = 4;
  HttpEndpoint endpoint(*fx.service, rest_cfg, server_cfg);
  endpoint.server.start();
  ASSERT_NE(endpoint.server.port(), 0);

  ApiClient client("127.0.0.1", endpoint.server.port());
  EXPECT_TRUE(client.healthy());
  EXPECT_EQ(client.models(), std::vector<std::string>{"smote"});

  // Submit, paginate back, digest: the socket path must land on the same
  // bytes as a local sample of the same identity.
  const std::uint64_t seed = 0xDEADBEEFCAFEF00Dull;
  const std::uint64_t job = client.submit("smote", 120, seed, 32);
  const auto remote = client.wait_result(job, /*page_rows=*/50);
  EXPECT_EQ(remote.pages, 3u);
  ASSERT_EQ(remote.table.num_rows(), 120u);

  tabular::Table local(remote.table.schema());
  models::SampleRequest request;
  request.rows = 120;
  request.seed = seed;
  request.chunk_rows = 32;
  fx.host.acquire("smote")->sample_into(local, request);
  EXPECT_EQ(serve::hash_table(remote.table), serve::hash_table(local));

  // Unknown model is refused before submit, as a typed ApiError.
  try {
    (void)client.submit("tabddpm", 10, 1);
    FAIL() << "expected ApiError";
  } catch (const ApiError& e) {
    EXPECT_EQ(e.status(), 404);
    EXPECT_EQ(e.code(), "unknown_model");
  }

  // cancel() on an already-resolved job reports nothing live to cancel.
  const std::uint64_t done_job = client.submit("smote", 10, 1);
  (void)client.wait_result(done_job);
  EXPECT_FALSE(client.cancel(done_job));

  const auto stats = util::parse_json(client.stats_json());
  EXPECT_EQ(stats.at("kind").as_string(), "serve_http_stats");
  ASSERT_TRUE(stats.has("server"));
  EXPECT_GE(stats.at("server").at("requests").as_number(), 1.0);

  endpoint.server.stop();
  EXPECT_FALSE(endpoint.server.running());
}

TEST(HttpEndpointSocket, AuthAndQuotaOverTheWire) {
  RestConfig rest_cfg;
  rest_cfg.quota_rps = 2.0;
  RestFixture fx(rest_cfg);
  // RestFixture built its own api; the endpoint wraps the same service
  // with the quota config and its own key registry.
  HttpEndpoint endpoint(*fx.service, rest_cfg);
  endpoint.api.quotas().add_key("good-key");
  endpoint.server.start();

  ApiClient anonymous("127.0.0.1", endpoint.server.port());
  try {
    (void)anonymous.models();
    FAIL() << "expected 401";
  } catch (const ApiError& e) {
    EXPECT_EQ(e.status(), 401);
    EXPECT_EQ(e.code(), "unauthorized");
  }
  EXPECT_TRUE(anonymous.healthy());  // liveness needs no key

  ApiClient keyed("127.0.0.1", endpoint.server.port(), "good-key");
  EXPECT_EQ(keyed.models(), std::vector<std::string>{"smote"});
  // Drain the bucket (burst = max(1, rps) = 2; one token already spent).
  bool saw_quota_error = false;
  for (int i = 0; i < 4 && !saw_quota_error; ++i) {
    try {
      (void)keyed.models();
    } catch (const ApiError& e) {
      EXPECT_EQ(e.status(), 429);
      EXPECT_EQ(e.code(), "quota_exhausted");
      EXPECT_GE(e.retry_after(), 1.0);
      saw_quota_error = true;
    }
  }
  EXPECT_TRUE(saw_quota_error);
  endpoint.server.stop();
}

TEST(HttpEndpointSocket, KeepAliveServesManyRequestsOnOneConnection) {
  RestFixture fx;
  HttpEndpoint endpoint(*fx.service);
  endpoint.server.start();

  HttpClient client("127.0.0.1", endpoint.server.port());
  for (int i = 0; i < 16; ++i) {
    const auto response = client.request("GET", "/healthz");
    ASSERT_EQ(response.status, 200);
  }
  const auto stats = endpoint.server.stats();
  EXPECT_EQ(stats.connections, 1u);
  EXPECT_EQ(stats.requests, 16u);

  // A parse-error response closes the connection and is tallied.
  const auto bad = client.request("BAD METHOD", "/healthz");
  EXPECT_EQ(bad.status, 400);
  EXPECT_GE(endpoint.server.stats().parse_errors, 1u);
  endpoint.server.stop();
}

// Start, connect from several threads, and stop while they are still
// connecting: stop() must neither race the accept loop nor hang, whatever
// state each connection is in. Run under TSan this is the listener-fd race
// check; everywhere it checks that stop() is prompt and leaves no server.
TEST(HttpServerLifecycle, StopWhileClientsConnectInALoop) {
  for (int round = 0; round < 20; ++round) {
    ServerConfig cfg;
    cfg.worker_threads = 2;
    HttpServer server(cfg, [](const HttpRequest&) {
      return HttpResponse::text(200, "ok");
    });
    server.start();
    const std::uint16_t port = server.port();
    std::atomic<int> answered{0};
    std::vector<std::thread> clients;
    for (int c = 0; c < 4; ++c) {
      clients.emplace_back([port, &answered] {
        for (int i = 0; i < 5; ++i) {
          try {
            HttpClient client("127.0.0.1", port, /*timeout_seconds=*/5.0);
            if (client.request("GET", "/healthz").status == 200) ++answered;
          } catch (const TransportError&) {
            // Refused or reset by the stopping server: expected.
          }
        }
      });
    }
    if (round % 2 == 0) {
      // Half the rounds let some requests through before stopping.
      const auto give_up =
          std::chrono::steady_clock::now() + std::chrono::seconds(5);
      while (answered.load() == 0 &&
             std::chrono::steady_clock::now() < give_up) {
        std::this_thread::yield();
      }
    }
    server.stop();
    EXPECT_FALSE(server.running());
    for (auto& t : clients) t.join();
    server.stop();  // idempotent
    EXPECT_EQ(server.stats().open_connections, 0u);
  }
}

// ------------------------------------------------------------ page codec --

/// Mixed table whose cells stress the frame: NaN with a payload, ±inf,
/// −0.0, subnormals, and labels that are empty or hold quotes, newlines
/// and (unless `utf8_only`) 0xFF bytes. 23 rows.
tabular::Table hostile_table(bool utf8_only = false) {
  tabular::Schema schema({{"x", tabular::ColumnKind::kNumerical},
                          {"label", tabular::ColumnKind::kCategorical},
                          {"y", tabular::ColumnKind::kNumerical},
                          {"status", tabular::ColumnKind::kCategorical}});
  tabular::Table t(schema);
  const double specials[] = {
      std::bit_cast<double>(0x7FF8'0000'DEAD'BEEFull),  // quiet NaN, payload
      std::bit_cast<double>(0xFFF0'0000'0000'0001ull),  // signalling -NaN
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      -0.0,
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min() * 7.0,
      0.1,
      -1e308};
  const std::string labels[] = {"", "say \"hi\"", "two\nlines",
                                utf8_only ? std::string("caf\xC3\xA9")
                                          : std::string("\xFF\xFE\x00z", 4),
                                "plain"};
  util::Rng rng(99);
  for (std::size_t r = 0; r < 23; ++r) {
    auto row = t.make_row();
    row.set(0, specials[r % std::size(specials)]);
    row.set(1, labels[(r * 3) % std::size(labels)]);
    row.set(2, rng.normal());
    row.set(3, std::string(r % 4 == 0 ? "failed" : "finished"));
    t.append_row(row);
  }
  return t;
}

PageHeader page_header(std::uint64_t cursor, std::uint64_t end) {
  PageHeader h;
  h.job_id = 42;
  h.model = "smote";
  h.seed = 0xFFFF'FFFF'FFFF'FFFFull;
  h.chunk_rows = 64;
  h.batch_jobs = 1;
  h.total_seconds = 0.25;
  h.cursor = cursor;
  h.end = end;
  return h;
}

/// Rows [lo, hi) of `t`, vocabularies kept.
tabular::Table slice(const tabular::Table& t, std::size_t lo, std::size_t hi) {
  std::vector<std::size_t> idx;
  for (std::size_t r = lo; r < hi; ++r) idx.push_back(r);
  return t.select_rows(idx);
}

void expect_same_bits(const tabular::Table& got, const tabular::Table& want) {
  ASSERT_EQ(got.schema(), want.schema());
  ASSERT_EQ(got.num_rows(), want.num_rows());
  for (const std::size_t c : want.schema().numerical_indices()) {
    for (std::size_t r = 0; r < want.num_rows(); ++r) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got.numerical(c)[r]),
                std::bit_cast<std::uint64_t>(want.numerical(c)[r]))
          << "column " << c << " row " << r;
    }
  }
  for (const std::size_t c : want.schema().categorical_indices()) {
    EXPECT_EQ(got.vocabulary(c), want.vocabulary(c)) << "column " << c;
    for (std::size_t r = 0; r < want.num_rows(); ++r) {
      EXPECT_EQ(got.categorical(c)[r], want.categorical(c)[r])
          << "column " << c << " row " << r;
    }
  }
  EXPECT_EQ(serve::hash_table(got), serve::hash_table(want));
}

TEST(PageCodec, ColblockRoundTripsEveryBitOfEverySlice) {
  const auto table = hostile_table();
  struct Range {
    std::size_t lo, hi;
  };
  // First page, middle page, last short page, a 1-row page, the 1-row
  // last page, and an empty page at the end of the result.
  for (const Range range : {Range{0, 7}, Range{7, 14}, Range{21, 23},
                            Range{5, 6}, Range{22, 23}, Range{23, 23}}) {
    SCOPED_TRACE("rows [" + std::to_string(range.lo) + ", " +
                 std::to_string(range.hi) + ")");
    const std::string frame =
        encode_colblock_page(page_header(range.lo, range.hi), table);
    const DecodedPage page = decode_colblock_page(frame);
    expect_same_bits(page.rows, slice(table, range.lo, range.hi));
    EXPECT_EQ(page.cursor, range.lo);
    EXPECT_EQ(page.next_cursor.has_value(), range.hi < table.num_rows());
    EXPECT_EQ(page.envelope.at("seed").as_string(), "18446744073709551615");
    EXPECT_FALSE(page.envelope.has("data"));
  }

  // Pages reassembled through Table::append_table give the whole table.
  tabular::Table whole(table.schema());
  for (std::size_t lo = 0; lo < table.num_rows(); lo += 7) {
    const std::size_t hi = std::min<std::size_t>(lo + 7, table.num_rows());
    whole.append_table(
        decode_colblock_page(encode_colblock_page(page_header(lo, hi), table))
            .rows);
  }
  expect_same_bits(whole, table);
}

TEST(PageCodec, JsonPageCarriesTheSameEnvelopeAndDegradesNonFinite) {
  // JSON strings carry raw label bytes, and the strict parser refuses
  // invalid UTF-8, so this page keeps to UTF-8 labels.
  const auto table = hostile_table(/*utf8_only=*/true);
  const auto header = page_header(7, 14);
  const auto json = util::parse_json(encode_json_page(header, table));
  const auto frame = decode_colblock_page(encode_colblock_page(header, table));
  for (const auto& [field, value] : frame.envelope.object) {
    ASSERT_TRUE(json.has(field)) << field;
  }
  EXPECT_EQ(json.object.size(), frame.envelope.object.size() + 1);  // data
  const DecodedPage page = decode_json_page(json);
  ASSERT_EQ(page.rows.num_rows(), 7u);
  // Labels and finite numbers survive JSON; NaN and ±inf arrive as NaN.
  for (std::size_t r = 0; r < 7; ++r) {
    const double want = table.numerical(0)[7 + r];
    const double got = page.rows.numerical(0)[r];
    if (std::isfinite(want)) {
      EXPECT_EQ(got, want) << r;
    } else {
      EXPECT_TRUE(std::isnan(got)) << r;
    }
    EXPECT_EQ(page.rows.label_at(1, r), table.label_at(1, 7 + r)) << r;
  }
}

/// Decode `bytes`: success, or exactly TransportError{kMalformed}.
/// Returns true on success.
bool decodes_or_malformed(const std::string& bytes) {
  try {
    (void)decode_colblock_page(bytes);
    return true;
  } catch (const TransportError& e) {
    EXPECT_EQ(e.kind(), TransportError::Kind::kMalformed) << e.what();
  } catch (const std::exception& e) {
    ADD_FAILURE() << "untyped decode failure: " << e.what();
  }
  return false;
}

TEST(PageCodec, TruncationAndBitFlipsAreTypedMalformedNeverACrash) {
  const auto table = hostile_table();
  const std::string frame =
      encode_colblock_page(page_header(7, 14), table);

  // Every strict prefix is missing bytes some length promised.
  for (std::size_t len = 0; len < frame.size(); ++len) {
    EXPECT_FALSE(decodes_or_malformed(frame.substr(0, len))) << len;
  }
  EXPECT_TRUE(decodes_or_malformed(frame));
  EXPECT_FALSE(decodes_or_malformed(frame + '\0'));  // trailing byte

  // Seeded bit flips anywhere in the frame: 1–3 bits per case.
  util::Rng rng(2024);
  std::size_t decoded = 0;
  for (int trial = 0; trial < 2000; ++trial) {
    std::string bytes = frame;
    const std::size_t flips = 1 + rng.uniform_index(3);
    for (std::size_t f = 0; f < flips; ++f) {
      const std::size_t bit = rng.uniform_index(bytes.size() * 8);
      bytes[bit / 8] = static_cast<char>(bytes[bit / 8] ^ (1 << (bit % 8)));
    }
    decoded += decodes_or_malformed(bytes) ? 1 : 0;
  }
  // Flips inside the numerical blocks still decode; the rest mostly fail.
  EXPECT_GT(decoded, 0u);
  EXPECT_LT(decoded, 2000u);
}

TEST(PageCodec, ValidationRejectsInconsistentFrames) {
  const auto table = hostile_table();
  const std::string good = encode_colblock_page(page_header(0, 7), table);
  // Envelope length is the u32 after "SCOL" + version; rows and columns
  // follow the envelope.
  std::uint32_t env_len = 0;
  std::memcpy(&env_len, good.data() + 5, 4);
  const std::size_t rows_at = 9 + env_len;

  auto patched = [&](std::size_t at, std::uint32_t value) {
    std::string bytes = good;
    for (int b = 0; b < 4; ++b) {
      bytes[at + b] = static_cast<char>(value >> (8 * b));
    }
    return bytes;
  };
  EXPECT_FALSE(decodes_or_malformed(patched(rows_at, 6)));      // row count
  {
    // A self-consistent 6-row frame whose envelope claims 7 rows.
    std::string bytes = encode_colblock_page(page_header(0, 6), table);
    const auto at = bytes.find("\"next_cursor\":6");
    ASSERT_NE(at, std::string::npos);
    bytes[at + std::string("\"next_cursor\":").size()] = '7';
    EXPECT_FALSE(decodes_or_malformed(bytes));
  }
  EXPECT_FALSE(decodes_or_malformed(patched(rows_at, 1u << 30)));
  EXPECT_FALSE(decodes_or_malformed(patched(rows_at + 4, 3)));  // columns
  {
    std::string bytes = good;
    bytes[rows_at + 8] = 1;  // first block claims categorical
    EXPECT_FALSE(decodes_or_malformed(bytes));
  }
  {
    std::string bytes = good;
    bytes[4] = 2;  // unknown version
    EXPECT_FALSE(decodes_or_malformed(bytes));
  }
  {
    // A code at its dictionary size: the last code of the last block.
    std::string bytes = good;
    const std::uint32_t dict = 2;  // "failed", "finished"
    for (int b = 0; b < 4; ++b) {
      bytes[bytes.size() - 4 + b] = static_cast<char>(dict >> (8 * b));
    }
    EXPECT_FALSE(decodes_or_malformed(bytes));
  }
}

// ----------------------------------------------------- page negotiation --

HttpRequest page_get(const std::string& target, bool colblock) {
  std::string wire = "GET " + target + " HTTP/1.1\r\nhost: t\r\n";
  if (colblock) {
    wire += "accept: " + std::string(kColblockContentType) + "\r\n";
  }
  wire += "\r\n";
  return parse_request(wire);
}

/// Page job `job_id` through `api` at `limit` (0 = the server default),
/// decoding whichever form each page arrives in.
tabular::Table page_through(RestApi& api, const std::string& job_id,
                            std::size_t limit, bool colblock) {
  std::optional<tabular::Table> out;
  std::uint64_t cursor = 0;
  for (;;) {
    std::string target = "/v1/jobs/" + job_id + "?wait_ms=30000&cursor=" +
                         std::to_string(cursor);
    if (limit != 0) target += "&limit=" + std::to_string(limit);
    const auto response = api.handle(page_get(target, colblock));
    EXPECT_EQ(response.status, 200) << response.body;
    const std::string type = response.headers.at("content-type");
    DecodedPage page;
    if (colblock) {
      EXPECT_EQ(type, kColblockContentType);
      page = decode_colblock_page(response.body);
    } else {
      EXPECT_EQ(type, "application/json");
      page = decode_json_page(util::parse_json(response.body));
    }
    if (!out) out.emplace(page.rows.schema());
    out->append_table(page.rows);
    if (!page.next_cursor) break;
    cursor = *page.next_cursor;
  }
  return std::move(*out);
}

TEST(PageNegotiation, BinaryAndJsonPagesHashAlikeForEveryModel) {
  TempDir dir;
  serve::ModelHost host{serve::HostConfig{}};
  const auto train = cluster_table(300, 21);
  const std::vector<std::string> keys{"smote", "tvae", "ctabgan", "tabddpm"};
  for (const auto& key : keys) {
    auto model = models::make_generator(key, tiny_budget(), 7);
    model->fit(train);
    models::save_model_file(*model, dir.file(key + ".bin"));
    host.register_archive(key, dir.file(key + ".bin"));
  }
  serve::SampleService service(host);
  RestApi api(service);

  for (const auto& key : keys) {
    SCOPED_TRACE(key);
    const auto submit = api.handle(json_post(
        "/v1/sample",
        R"({"model":")" + key + R"(","rows":23,"seed":"77","chunk_rows":8})"));
    ASSERT_EQ(submit.status, 202) << submit.body;
    const std::string job_id =
        util::parse_json(submit.body).at("job_id").as_string();

    tabular::Table local(train.schema());
    models::SampleRequest request;
    request.rows = 23;
    request.seed = 77;
    request.chunk_rows = 8;
    host.acquire(key)->sample_into(local, request);
    const std::uint64_t want = serve::hash_table(local);

    for (const std::size_t limit : {1u, 7u, 0u}) {
      for (const bool colblock : {false, true}) {
        SCOPED_TRACE("limit " + std::to_string(limit) +
                     (colblock ? " colblock" : " json"));
        const auto got = page_through(api, job_id, limit, colblock);
        EXPECT_EQ(got.num_rows(), 23u);
        EXPECT_EQ(serve::hash_table(got), want);
      }
    }
  }
}

TEST(PageNegotiation, PendingAndFailedAnswersStayJson) {
  RestFixture fx;
  // Pending: a 2M-row job answered at once, before it can finish.
  const auto slow = fx.api->handle(json_post(
      "/v1/sample", R"({"model":"smote","rows":2000000,"chunk_rows":64})"));
  ASSERT_EQ(slow.status, 202) << slow.body;
  const std::string slow_id =
      util::parse_json(slow.body).at("job_id").as_string();
  const auto pending =
      fx.api->handle(page_get("/v1/jobs/" + slow_id, /*colblock=*/true));
  EXPECT_EQ(pending.headers.at("content-type"), "application/json");
  EXPECT_EQ(util::parse_json(pending.body).at("status").as_string(),
            "pending");
  (void)fx.api->handle(parse_request("DELETE /v1/jobs/" + slow_id +
                                     " HTTP/1.1\r\n\r\n"));

  // Failed: a deadline that passes before the first chunk boundary.
  const auto doomed = fx.api->handle(json_post(
      "/v1/sample",
      R"({"model":"smote","rows":2000000,"chunk_rows":64,"deadline_ms":0.001})"));
  ASSERT_EQ(doomed.status, 202) << doomed.body;
  const std::string doomed_id =
      util::parse_json(doomed.body).at("job_id").as_string();
  const auto failed = fx.api->handle(
      page_get("/v1/jobs/" + doomed_id + "?wait_ms=30000", true));
  EXPECT_EQ(failed.headers.at("content-type"), "application/json");
  const auto doc = util::parse_json(failed.body);
  EXPECT_EQ(doc.at("status").as_string(), "failed");
  EXPECT_EQ(doc.at("error").at("code").as_string(), "deadline");

  // Errors stay JSON too.
  const auto missing = fx.api->handle(page_get("/v1/jobs/999", true));
  EXPECT_EQ(missing.status, 404);
  EXPECT_EQ(missing.headers.at("content-type"), "application/json");
}

// ------------------------------------------------------------ socket soak --

TEST(Soak, SocketRunLandsOnInProcessExpectedHash) {
  serve::ModelHost host{serve::HostConfig{}};
  auto model = models::make_generator("smote", tiny_budget(), 7);
  model->fit(cluster_table(300, 21));
  host.register_fitted("smote", std::move(model));

  serve::SoakConfig cfg;
  cfg.models = {"smote"};
  cfg.load_multipliers = {0.5, 2.0};
  cfg.clients = 2;
  cfg.rows_per_job = 300;
  cfg.chunk_rows = 128;
  cfg.seed_streams = 4;
  cfg.duration_seconds = 0.3;
  cfg.page_rows = 128;  // several pages per job over the wire
  const serve::SoakResult in_process = serve::run_soak(host, cfg);
  cfg.over_socket = true;
  const serve::SoakResult socket = serve::run_soak(host, cfg);

  EXPECT_TRUE(in_process.deterministic);
  EXPECT_TRUE(socket.deterministic);
  EXPECT_EQ(in_process.expected_hash, socket.expected_hash);
  ASSERT_EQ(socket.points.size(), cfg.load_multipliers.size());
  for (const serve::SoakPoint& point : socket.points) {
    SCOPED_TRACE("load " + std::to_string(point.multiplier));
    EXPECT_GT(point.accepted, 0u);
    EXPECT_EQ(point.failed, 0u);
  }
  EXPECT_GT(socket.http_requests, 0u);
  EXPECT_EQ(in_process.http_requests, 0u);
}

}  // namespace
}  // namespace surro::net

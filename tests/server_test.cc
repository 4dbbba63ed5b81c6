// Tests for the standing-query serving layer: the length-framed wire
// codec (split/merged/truncated/oversized streams, fuzz round-trips of
// payloads full of protocol-delimiter bytes), the request protocol,
// multi-tenant admission (quota ERR vs capacity SHED, withdraw returning
// quota, isolation under concurrent registers), the dispatcher's result
// fan-out and overload shedding, and full client sessions end to end.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "engine/sql_parser.h"
#include "finance/bond_model.h"
#include "obs/execution_report.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "server/admission.h"
#include "server/dispatcher.h"
#include "server/frame.h"
#include "server/protocol.h"
#include "server/scenario.h"
#include "server/server.h"
#include "vao/answer.h"
#include "vao/pde_result_object.h"
#include "workload/portfolio_gen.h"

namespace vaolib::server {
namespace {

// ---------------------------------------------------------------------------
// Frame codec

TEST(FrameTest, EncodesLengthThenPayload) {
  EXPECT_EQ(EncodeFrame("HELLO t1"), "8\nHELLO t1");
  EXPECT_EQ(EncodeFrame(""), "0\n");
}

TEST(FrameTest, DecodesMergedFrames) {
  FrameDecoder decoder;
  ASSERT_TRUE(
      decoder.Feed(EncodeFrame("one") + EncodeFrame("") + EncodeFrame("two"))
          .ok());
  EXPECT_EQ(decoder.Next(), "one");
  EXPECT_EQ(decoder.Next(), "");
  EXPECT_EQ(decoder.Next(), "two");
  EXPECT_FALSE(decoder.Next().has_value());
}

TEST(FrameTest, DecodesByteSplitFrames) {
  // A TCP read can split a frame anywhere, including inside the header.
  const std::string wire = EncodeFrame("first payload") + EncodeFrame("2nd");
  FrameDecoder decoder;
  for (const char byte : wire) {
    ASSERT_TRUE(decoder.Feed(std::string_view(&byte, 1)).ok());
  }
  EXPECT_EQ(decoder.Next(), "first payload");
  EXPECT_EQ(decoder.Next(), "2nd");
  EXPECT_FALSE(decoder.Next().has_value());
}

TEST(FrameTest, TruncatedFrameStaysPendingWithoutError) {
  FrameDecoder decoder;
  ASSERT_TRUE(decoder.Feed("10\nhalf").ok());
  EXPECT_FALSE(decoder.Next().has_value());
  EXPECT_FALSE(decoder.broken());
  EXPECT_GT(decoder.buffered_bytes(), 0u);
  ASSERT_TRUE(decoder.Feed("-done").ok());  // 4 + 5 = 9... still short
  EXPECT_FALSE(decoder.Next().has_value());
  ASSERT_TRUE(decoder.Feed("!").ok());
  EXPECT_EQ(decoder.Next(), "half-done!");
}

TEST(FrameTest, PayloadMayContainDelimiterBytes) {
  // '\n' and digits are payload like any other byte: length-framing keeps
  // them opaque. "7\n3\nTICK" must decode as the 7-byte payload "3\nTICK".
  const std::string payload = "3\nTICK";
  FrameDecoder decoder;
  ASSERT_TRUE(decoder.Feed(EncodeFrame(payload)).ok());
  EXPECT_EQ(decoder.Next(), payload);
}

TEST(FrameTest, OversizedFrameIsRejectedAndSticky) {
  FrameDecoder decoder(/*max_frame_bytes=*/16);
  const Status fed = decoder.Feed("1000000\n");
  EXPECT_EQ(fed.code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(decoder.broken());
  EXPECT_EQ(decoder.Feed("5\nhello").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_FALSE(decoder.Next().has_value());
}

TEST(FrameTest, MalformedHeaderIsRejected) {
  FrameDecoder decoder;
  const Status fed = decoder.Feed("nope\n");
  EXPECT_EQ(fed.code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(decoder.broken());
}

TEST(FrameTest, FramesDecodedBeforeCorruptionAreStillDelivered) {
  FrameDecoder decoder;
  const Status fed = decoder.Feed(EncodeFrame("good") + "x\n");
  EXPECT_FALSE(fed.ok());
  EXPECT_EQ(decoder.Next(), "good");
}

TEST(FrameTest, FuzzRoundTripArbitraryPayloadsAndSplits) {
  Rng rng(20260808);
  for (int round = 0; round < 200; ++round) {
    // Payloads biased toward the dangerous alphabet: digits and newlines.
    std::vector<std::string> payloads(
        static_cast<std::size_t>(rng.UniformInt(1, 5)));
    std::string wire;
    for (std::string& payload : payloads) {
      const std::size_t len = static_cast<std::size_t>(
          rng.UniformInt(0, 64));
      for (std::size_t i = 0; i < len; ++i) {
        const char alphabet[] = "0123456789\n\n \tABCxyz";
        payload += alphabet[rng.UniformInt(0, sizeof(alphabet) - 2)];
      }
      wire += EncodeFrame(payload);
    }
    FrameDecoder decoder;
    std::size_t offset = 0;
    while (offset < wire.size()) {
      const std::size_t chunk = static_cast<std::size_t>(
          rng.UniformInt(1, 7));
      const std::string_view slice =
          std::string_view(wire).substr(offset, chunk);
      ASSERT_TRUE(decoder.Feed(slice).ok());
      offset += slice.size();
    }
    for (const std::string& payload : payloads) {
      const auto decoded = decoder.Next();
      ASSERT_TRUE(decoded.has_value());
      EXPECT_EQ(*decoded, payload);
    }
    EXPECT_FALSE(decoder.Next().has_value());
    EXPECT_EQ(decoder.buffered_bytes(), 0u);
  }
}

// ---------------------------------------------------------------------------
// Protocol

TEST(ProtocolTest, ParsesEveryVerb) {
  auto hello = ParseRequest("HELLO desk1 reports");
  ASSERT_TRUE(hello.ok());
  EXPECT_EQ(hello->verb, Verb::kHello);
  EXPECT_EQ(hello->tenant, "desk1");
  EXPECT_TRUE(hello->want_reports);

  auto reg = ParseRequest("REGISTER q1 SELECT * FROM bd WHERE f(x) > 1");
  ASSERT_TRUE(reg.ok());
  EXPECT_EQ(reg->verb, Verb::kRegister);
  EXPECT_EQ(reg->query_id, "q1");
  EXPECT_EQ(reg->sql, "SELECT * FROM bd WHERE f(x) > 1");

  auto withdraw = ParseRequest("WITHDRAW q1");
  ASSERT_TRUE(withdraw.ok());
  EXPECT_EQ(withdraw->verb, Verb::kWithdraw);
  EXPECT_EQ(withdraw->query_id, "q1");

  auto tick = ParseRequest("TICK 0.045 -1.5");
  ASSERT_TRUE(tick.ok());
  EXPECT_EQ(tick->verb, Verb::kTick);
  EXPECT_EQ(tick->tick_values, (std::vector<double>{0.045, -1.5}));

  EXPECT_EQ(ParseRequest("STATS")->verb, Verb::kStats);
  EXPECT_EQ(ParseRequest("BYE")->verb, Verb::kBye);
}

TEST(ProtocolTest, ErrorsNameTheOffendingToken) {
  const auto unknown = ParseRequest("PING");
  ASSERT_FALSE(unknown.ok());
  EXPECT_NE(unknown.status().message().find("'PING'"), std::string::npos);

  const auto bad_id = ParseRequest("REGISTER bad!id SELECT * FROM bd");
  ASSERT_FALSE(bad_id.ok());
  EXPECT_NE(bad_id.status().message().find("'bad!id'"), std::string::npos);

  const auto bad_value = ParseRequest("TICK 0.045 banana");
  ASSERT_FALSE(bad_value.ok());
  EXPECT_NE(bad_value.status().message().find("'banana'"),
            std::string::npos);

  EXPECT_FALSE(ParseRequest("").ok());
  EXPECT_FALSE(ParseRequest("TICK").ok());
  EXPECT_FALSE(ParseRequest("HELLO bad tenant extra").ok());
}

TEST(ProtocolTest, QueryTextWithNewlinesSurvivesTheWire) {
  // Fuzz-style round trip: SQL containing the protocol's own delimiter
  // bytes ('\n' headers, digits) framed, decoded, parsed, and re-parsed
  // into the same query. The SQL grammar treats '\n' as whitespace, so
  // newline-formatted registrations are legal and must not desync framing.
  workload::PortfolioSpec spec;
  spec.count = 4;
  const auto bonds = workload::GeneratePortfolio(7, spec);
  const finance::BondPricingFunction model(bonds,
                                           finance::BondModelConfig{});
  engine::FunctionRegistry registry;
  ASSERT_TRUE(registry.Register(&model).ok());
  const engine::Schema stream({{"rate", engine::ColumnType::kDouble}});
  const engine::Schema relation(
      {{"bond_index", engine::ColumnType::kDouble}});

  const std::string sql =
      "SELECT\nMAX(bond_model(rate,\n bond_index))\nFROM bd\nPRECISION "
      "0.25";
  const std::string payload = "REGISTER q9\n7 " + sql;

  FrameDecoder decoder;
  ASSERT_TRUE(decoder.Feed(EncodeFrame(payload)).ok());
  const auto decoded = decoder.Next();
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, payload);

  // ParseRequest tokenizes on spaces only, so the '\n' smuggled into the
  // id position makes "q9\n7" one (invalid) token -- a clean ERR, never a
  // silently resynchronized stream.
  EXPECT_FALSE(ParseRequest(*decoded).ok());

  // A clean registration with the newline-formatted SQL round-trips.
  const auto request = ParseRequest("REGISTER q9 " + sql);
  ASSERT_TRUE(request.ok());
  const auto parsed =
      engine::ParseQuery(request->sql, registry, stream, relation);
  ASSERT_TRUE(parsed.ok());
  const auto reparsed = engine::ParseQuery(
      engine::FormatQuery(*parsed, "bd"), registry, stream, relation);
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ(reparsed->kind, engine::QueryKind::kMax);
  EXPECT_EQ(reparsed->epsilon, 0.25);
}

TEST(ProtocolTest, FormatResultRendersBoundsAndRows) {
  engine::TickResult result;
  result.kind = engine::QueryKind::kSelect;
  result.passing_rows = {1, 4, 7};
  result.converged = false;
  result.work_units = 42;
  const std::string line = FormatResult("q3", 9, result);
  EXPECT_NE(line.find("RESULT q3 seq=9 kind=select converged=0"),
            std::string::npos);
  EXPECT_NE(line.find("rows=1,4,7"), std::string::npos);
  EXPECT_NE(line.find("work=42"), std::string::npos);
}

TEST(ProtocolTest, ExactResultFramesAreByteIdenticalToLegacyLayout) {
  // Pre-approx clients parse RESULT frames positionally; an exact answer
  // must render the exact same bytes as before the Answer API landed.
  engine::TickResult result;
  result.kind = engine::QueryKind::kSum;
  result.aggregate_bounds = vao::Answer(Bounds(12.5, 13.5));
  result.converged = true;
  result.work_units = 17;
  const std::string line = FormatResult("agg", 3, result);
  EXPECT_EQ(line,
            "RESULT agg seq=3 kind=sum converged=1 lo=12.5 hi=13.5 work=17");
  EXPECT_EQ(line.find("mode="), std::string::npos);
}

TEST(ProtocolTest, ApproxResultCarriesModeTokensBeforeWork) {
  engine::TickResult result;
  result.kind = engine::QueryKind::kSum;
  result.aggregate_bounds = vao::Answer::Approximate(
      Bounds(90.0, 110.0), 0.95, 40, 400, 4.0, 16.0);
  result.converged = true;
  result.work_units = 99;
  const std::string line = FormatResult("agg", 5, result);
  EXPECT_NE(line.find("mode=approx conf=0.95 samples=40/400 dwidth=4 "
                      "swidth=16"),
            std::string::npos)
      << line;
  // Appended tokens stay strictly before work= so clients that split on
  // " work=" keep working.
  EXPECT_LT(line.find("mode=approx"), line.find(" work=")) << line;
}

// ---------------------------------------------------------------------------
// Admission

TEST(AdmissionTest, QueryQuotaRejectsCleanly) {
  AdmissionConfig config;
  config.default_quota.max_queries = 2;
  AdmissionController admission(config);

  EXPECT_EQ(admission.AdmitQuery("t1", 10).outcome,
            AdmissionDecision::Outcome::kAdmitted);
  EXPECT_EQ(admission.AdmitQuery("t1", 10).outcome,
            AdmissionDecision::Outcome::kAdmitted);
  const AdmissionDecision third = admission.AdmitQuery("t1", 10);
  EXPECT_EQ(third.outcome, AdmissionDecision::Outcome::kRejected);
  EXPECT_EQ(third.reason.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(third.reason.message().find("t1"), std::string::npos);
  EXPECT_EQ(admission.UsageFor("t1").rejected_registrations, 1u);

  // Another tenant is unaffected (isolation).
  EXPECT_EQ(admission.AdmitQuery("t2", 10).outcome,
            AdmissionDecision::Outcome::kAdmitted);
}

TEST(AdmissionTest, WithdrawReturnsQuota) {
  AdmissionConfig config;
  config.default_quota.max_queries = 1;
  AdmissionController admission(config);
  ASSERT_EQ(admission.AdmitQuery("t1", 8).outcome,
            AdmissionDecision::Outcome::kAdmitted);
  ASSERT_EQ(admission.AdmitQuery("t1", 8).outcome,
            AdmissionDecision::Outcome::kRejected);
  admission.ReleaseQuery("t1", 8, /*shed=*/false);
  EXPECT_EQ(admission.UsageFor("t1").queries, 0u);
  EXPECT_EQ(admission.UsageFor("t1").objects, 0u);
  EXPECT_EQ(admission.AdmitQuery("t1", 8).outcome,
            AdmissionDecision::Outcome::kAdmitted);
}

TEST(AdmissionTest, ObjectQuotaCountsRelationRows) {
  AdmissionConfig config;
  config.default_quota.max_queries = 100;
  config.default_quota.max_objects = 100;
  AdmissionController admission(config);
  EXPECT_EQ(admission.AdmitQuery("t1", 60).outcome,
            AdmissionDecision::Outcome::kAdmitted);
  const AdmissionDecision over = admission.AdmitQuery("t1", 60);
  EXPECT_EQ(over.outcome, AdmissionDecision::Outcome::kRejected);
  EXPECT_NE(over.reason.message().find("object"), std::string::npos);
}

TEST(AdmissionTest, ServerCapacityShedsWithRetryAfter) {
  AdmissionConfig config;
  config.default_quota.max_queries = 100;
  config.max_total_queries = 2;
  config.retry_after_ticks = 5;
  AdmissionController admission(config);
  ASSERT_EQ(admission.AdmitQuery("t1", 1).outcome,
            AdmissionDecision::Outcome::kAdmitted);
  ASSERT_EQ(admission.AdmitQuery("t2", 1).outcome,
            AdmissionDecision::Outcome::kAdmitted);
  const AdmissionDecision shed = admission.AdmitQuery("t3", 1);
  EXPECT_EQ(shed.outcome, AdmissionDecision::Outcome::kShed);
  EXPECT_EQ(shed.retry_after_ticks, 5u);
}

TEST(AdmissionTest, TenantIsolationUnderConcurrentRegisters) {
  AdmissionConfig config;
  config.default_quota.max_queries = 8;
  config.max_total_queries = 1u << 20;
  AdmissionController admission(config);

  constexpr int kTenants = 8;
  constexpr int kAttempts = 32;
  std::vector<std::thread> threads;
  threads.reserve(kTenants);
  for (int t = 0; t < kTenants; ++t) {
    threads.emplace_back([&admission, t] {
      const std::string tenant = "tenant" + std::to_string(t);
      for (int i = 0; i < kAttempts; ++i) {
        admission.AdmitQuery(tenant, 4);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  // Every tenant lands exactly at its own quota -- 8 admitted, 24
  // rejected -- no matter how the registers interleaved.
  for (int t = 0; t < kTenants; ++t) {
    const TenantUsage usage =
        admission.UsageFor("tenant" + std::to_string(t));
    EXPECT_EQ(usage.queries, 8u);
    EXPECT_EQ(usage.objects, 32u);
    EXPECT_EQ(usage.rejected_registrations,
              static_cast<std::uint64_t>(kAttempts - 8));
  }
  EXPECT_EQ(admission.total_queries(),
            static_cast<std::size_t>(kTenants * 8));
}

TEST(AdmissionTest, SchedulesMapQuotasOntoSchedulerParameters) {
  AdmissionConfig config;
  AdmissionController admission(config);
  TenantQuota reserved;
  reserved.reserve_units = 1000;
  admission.SetQuota("vip", reserved);

  ASSERT_EQ(admission.AdmitQuery("vip", 1).outcome,
            AdmissionDecision::Outcome::kAdmitted);
  ASSERT_EQ(admission.AdmitQuery("vip", 1).outcome,
            AdmissionDecision::Outcome::kAdmitted);

  const engine::QuerySchedule schedule =
      admission.ScheduleFor("vip", /*tick_budget=*/50000);
  EXPECT_EQ(schedule.reserve, 500u);     // reserve split per query
  EXPECT_EQ(schedule.deadline, 50000u);  // EDF: run before best-effort

  const engine::QuerySchedule best_effort =
      admission.ScheduleFor("other", /*tick_budget=*/50000);
  EXPECT_EQ(best_effort.reserve, 0u);
  EXPECT_EQ(best_effort.deadline, 0u);
}

// ---------------------------------------------------------------------------
// End-to-end sessions (in-process transport)

class ServerTest : public ::testing::Test {
 protected:
  void SetUp() override { BuildWorkload(); }

  void BuildWorkload() {
    workload::PortfolioSpec spec;
    spec.count = 6;
    bonds_ = workload::GeneratePortfolio(4242, spec);
    function_ = std::make_unique<finance::BondPricingFunction>(
        bonds_, finance::BondModelConfig{});
    relation_ = std::make_unique<engine::Relation>(engine::Schema(
        {{"bond_index", engine::ColumnType::kDouble},
         {"position", engine::ColumnType::kDouble}}));
    for (std::size_t i = 0; i < bonds_.size(); ++i) {
      ASSERT_TRUE(
          relation_->Append({static_cast<double>(i), 1.0}).ok());
    }
    registry_ = std::make_unique<engine::FunctionRegistry>();
    ASSERT_TRUE(registry_->Register(function_.get()).ok());
  }

  std::unique_ptr<StandingQueryServer> MakeServer(ServerConfig config) {
    return std::make_unique<StandingQueryServer>(
        relation_.get(),
        engine::Schema({{"rate", engine::ColumnType::kDouble}}),
        registry_.get(), config);
  }

  // Sends one request payload and returns the session's decoded replies.
  static std::vector<std::string> Send(StandingQueryServer& server,
                                       std::uint64_t session,
                                       const std::string& payload) {
    server.HandleBytes(session, EncodeFrame(payload));
    return Drain(server, session);
  }

  static std::vector<std::string> Drain(StandingQueryServer& server,
                                        std::uint64_t session) {
    FrameDecoder decoder;
    EXPECT_TRUE(decoder.Feed(server.DrainOutput(session)).ok());
    std::vector<std::string> replies;
    while (const auto reply = decoder.Next()) replies.push_back(*reply);
    return replies;
  }

  std::vector<finance::Bond> bonds_;
  std::unique_ptr<finance::BondPricingFunction> function_;
  std::unique_ptr<engine::Relation> relation_;
  std::unique_ptr<engine::FunctionRegistry> registry_;
};

TEST_F(ServerTest, HelloIsRequiredFirst) {
  auto server = MakeServer(ServerConfig{});
  const std::uint64_t session = server->OpenSession();
  const auto replies = Send(*server, session, "STATS");
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_EQ(replies[0].rfind("ERR failed-precondition", 0), 0u)
      << replies[0];
  EXPECT_FALSE(server->ShouldClose(session));

  const auto hello = Send(*server, session, "HELLO desk1");
  ASSERT_EQ(hello.size(), 1u);
  EXPECT_EQ(hello[0], "OK HELLO desk1");

  const auto again = Send(*server, session, "HELLO desk2");
  ASSERT_EQ(again.size(), 1u);
  EXPECT_EQ(again[0].rfind("ERR failed-precondition", 0), 0u);
}

TEST_F(ServerTest, ResultsFanOutToEveryOwningSession) {
  auto server = MakeServer(ServerConfig{});
  const std::uint64_t alice = server->OpenSession();
  const std::uint64_t bob = server->OpenSession();
  ASSERT_EQ(Send(*server, alice, "HELLO alice")[0], "OK HELLO alice");
  ASSERT_EQ(Send(*server, bob, "HELLO bob")[0], "OK HELLO bob");

  ASSERT_EQ(Send(*server, alice,
                 "REGISTER best SELECT MAX(bond_model(rate, bond_index)) "
                 "FROM bd PRECISION 0.5")[0],
            "OK REGISTER best");
  ASSERT_EQ(Send(*server, bob,
                 "REGISTER alert SELECT * FROM bd WHERE "
                 "bond_model(rate, bond_index) > 100")[0],
            "OK REGISTER alert");

  // Bob injects the tick; both sessions get THEIR OWN query's result.
  const auto bob_replies = Send(*server, bob, "TICK 0.045");
  ASSERT_EQ(bob_replies.size(), 2u);
  EXPECT_EQ(bob_replies[0].rfind("RESULT alert seq=1 kind=select", 0), 0u)
      << bob_replies[0];
  EXPECT_EQ(bob_replies[1].rfind("OK TICK seq=1 queries=2", 0), 0u)
      << bob_replies[1];

  const auto alice_replies = Drain(*server, alice);
  ASSERT_EQ(alice_replies.size(), 1u);
  EXPECT_EQ(alice_replies[0].rfind("RESULT best seq=1 kind=max", 0), 0u)
      << alice_replies[0];
  EXPECT_NE(alice_replies[0].find("converged=1"), std::string::npos);
}

TEST_F(ServerTest, ReportSubscriptionDeliversParseableReports) {
  auto server = MakeServer(ServerConfig{});
  const std::uint64_t session = server->OpenSession();
  ASSERT_EQ(Send(*server, session, "HELLO desk1 reports")[0],
            "OK HELLO desk1 reports");
  ASSERT_EQ(Send(*server, session,
                 "REGISTER q1 SELECT MIN(bond_model(rate, bond_index)) "
                 "FROM bd PRECISION 0.5")[0],
            "OK REGISTER q1");

  const auto replies = Send(*server, session, "TICK 0.05");
  ASSERT_EQ(replies.size(), 3u);  // RESULT, REPORT, OK TICK
  EXPECT_EQ(replies[0].rfind("RESULT q1", 0), 0u);
  ASSERT_EQ(replies[1].rfind("REPORT q1 seq=1 ", 0), 0u) << replies[1];

  const std::string json = replies[1].substr(replies[1].find('{'));
  const auto report = obs::ExecutionReport::FromJson(json);
  ASSERT_TRUE(report.ok()) << report.status().message();
  EXPECT_EQ(report->query_kind, "min");
  EXPECT_TRUE(report->scheduled);
  EXPECT_EQ(report->tenant, "desk1");
  EXPECT_TRUE(report->converged);
}

#ifndef VAOLIB_OBS_DISABLED
TEST_F(ServerTest, ReportFramesCarryEachQuerysCalibrationSamples) {
  // A MAX and an AVE over the same bonds share one group. Each REPORT
  // frame carries the PDE calibration samples of its own query's iterates.
  obs::SetEnabled(true);
  auto server = MakeServer(ServerConfig{});
  const std::uint64_t session = server->OpenSession();
  ASSERT_EQ(Send(*server, session, "HELLO desk1 reports")[0],
            "OK HELLO desk1 reports");
  ASSERT_EQ(Send(*server, session,
                 "REGISTER best SELECT MAX(bond_model(rate, bond_index)) "
                 "FROM bd PRECISION 0.01")[0],
            "OK REGISTER best");
  ASSERT_EQ(Send(*server, session,
                 "REGISTER mean SELECT AVE(bond_model(rate, bond_index)) "
                 "FROM bd PRECISION 0.01")[0],
            "OK REGISTER mean");

  constexpr int kPde = static_cast<int>(obs::SolverKind::kPde);
  std::size_t reports = 0;
  for (const std::string& reply : Send(*server, session, "TICK 0.0575")) {
    if (reply.rfind("REPORT ", 0) != 0) continue;
    ++reports;
    const auto report =
        obs::ExecutionReport::FromJson(reply.substr(reply.find('{')));
    ASSERT_TRUE(report.ok()) << report.status();
    SCOPED_TRACE(report->query_kind);
    EXPECT_GT(report->calibration[kPde].samples, 0u);
    EXPECT_EQ(report->calibration[kPde].samples,
              report->greedy_iterations + report->finalize_iterations);
  }
  EXPECT_EQ(reports, 2u);
}
#endif  // VAOLIB_OBS_DISABLED

TEST_F(ServerTest, ApproxQueryRoundTripsOverTheWire) {
  auto server = MakeServer(ServerConfig{});
  const std::uint64_t session = server->OpenSession();
  ASSERT_EQ(Send(*server, session, "HELLO desk1 reports")[0],
            "OK HELLO desk1 reports");
  ASSERT_EQ(Send(*server, session,
                 "REGISTER aq SELECT SUM(bond_model(rate, bond_index)) "
                 "FROM bd PRECISION 5 "
                 "APPROX WITH CONFIDENCE 0.95 ERROR 0.05 SEED 3")[0],
            "OK REGISTER aq");

  const auto replies = Send(*server, session, "TICK 0.05");
  ASSERT_EQ(replies.size(), 3u);  // RESULT, REPORT, OK TICK
  EXPECT_EQ(replies[0].rfind("RESULT aq seq=1 kind=sum", 0), 0u)
      << replies[0];
  EXPECT_NE(replies[0].find(" mode=approx conf=0.95 samples="),
            std::string::npos)
      << replies[0];
  EXPECT_LT(replies[0].find("mode=approx"), replies[0].find(" work="))
      << replies[0];

  // The execution report carries the same provenance, machine-readably.
  ASSERT_EQ(replies[1].rfind("REPORT aq seq=1 ", 0), 0u) << replies[1];
  const std::string json = replies[1].substr(replies[1].find('{'));
  const auto report = obs::ExecutionReport::FromJson(json);
  ASSERT_TRUE(report.ok()) << report.status().message();
  EXPECT_EQ(report->answer_mode, "approximate");
  EXPECT_DOUBLE_EQ(report->answer_confidence, 0.95);
  EXPECT_GT(report->sample_size, 0u);
  EXPECT_EQ(report->sample_population, 6u);

  // A plain exact aggregate registered beside it must keep the legacy
  // frame shape (no mode= token at all).
  ASSERT_EQ(Send(*server, session,
                 "REGISTER xq SELECT SUM(bond_model(rate, bond_index)) "
                 "FROM bd PRECISION 5")[0],
            "OK REGISTER xq");
  const auto mixed = Send(*server, session, "TICK 0.05");
  bool saw_exact = false;
  for (const std::string& reply : mixed) {
    if (reply.rfind("RESULT xq ", 0) == 0u) {
      saw_exact = true;
      EXPECT_EQ(reply.find("mode="), std::string::npos) << reply;
    }
  }
  EXPECT_TRUE(saw_exact);
}

TEST_F(ServerTest, WithdrawStopsDeliveriesAndFreesQuota) {
  ServerConfig config;
  config.dispatcher.admission.default_quota.max_queries = 1;
  auto server = MakeServer(config);
  const std::uint64_t session = server->OpenSession();
  ASSERT_EQ(Send(*server, session, "HELLO desk1")[0], "OK HELLO desk1");
  ASSERT_EQ(Send(*server, session,
                 "REGISTER q1 SELECT MAX(bond_model(rate, bond_index)) "
                 "FROM bd PRECISION 0.5")[0],
            "OK REGISTER q1");

  // Quota (1) is full: the second register is a clean ERR...
  const auto full = Send(*server, session,
                         "REGISTER q2 SELECT MIN(bond_model(rate, "
                         "bond_index)) FROM bd PRECISION 0.5");
  ASSERT_EQ(full.size(), 1u);
  EXPECT_EQ(full[0].rfind("ERR resource-exhausted", 0), 0u) << full[0];

  // ...withdraw frees it...
  ASSERT_EQ(Send(*server, session, "WITHDRAW q1")[0], "OK WITHDRAW q1");
  ASSERT_EQ(Send(*server, session,
                 "REGISTER q2 SELECT MIN(bond_model(rate, bond_index)) "
                 "FROM bd PRECISION 0.5")[0],
            "OK REGISTER q2");

  // ...and only q2 answers the tick.
  const auto replies = Send(*server, session, "TICK 0.05");
  ASSERT_EQ(replies.size(), 2u);
  EXPECT_EQ(replies[0].rfind("RESULT q2", 0), 0u);
  EXPECT_EQ(Send(*server, session, "WITHDRAW q1")[0].rfind("ERR not-found",
                                                           0),
            0u);
}

TEST_F(ServerTest, RegisterErrorsAreActionable) {
  auto server = MakeServer(ServerConfig{});
  const std::uint64_t session = server->OpenSession();
  ASSERT_EQ(Send(*server, session, "HELLO desk1")[0], "OK HELLO desk1");

  const auto bad_sql = Send(
      *server, session, "REGISTER q1 SELECT NONSENSE(rate) FROM bd");
  ASSERT_EQ(bad_sql.size(), 1u);
  EXPECT_EQ(bad_sql[0].rfind("ERR invalid-argument", 0), 0u) << bad_sql[0];
  EXPECT_NE(bad_sql[0].find("NONSENSE"), std::string::npos) << bad_sql[0];
  EXPECT_NE(bad_sql[0].find("offset"), std::string::npos) << bad_sql[0];

  ASSERT_EQ(Send(*server, session,
                 "REGISTER q1 SELECT MAX(bond_model(rate, bond_index)) "
                 "FROM bd PRECISION 0.5")[0],
            "OK REGISTER q1");
  const auto duplicate = Send(
      *server, session,
      "REGISTER q1 SELECT MIN(bond_model(rate, bond_index)) FROM bd");
  EXPECT_EQ(duplicate[0].rfind("ERR already-exists", 0), 0u)
      << duplicate[0];
}

TEST_F(ServerTest, DispatcherRegisterValidatesQueriesTheParserCannotSee) {
  // Queries built in code skip the SQL parser's checks, so REGISTER must
  // validate against the dispatcher's own schemas before admitting.
  Dispatcher dispatcher(relation_.get(),
                        engine::Schema({{"rate", engine::ColumnType::kDouble}}),
                        registry_.get(), DispatcherConfig{});
  engine::Query max;
  max.kind = engine::QueryKind::kMax;
  max.function = function_.get();
  max.args = {engine::ArgRef::StreamField("rate"),
              engine::ArgRef::RelationField("bond_index")};
  max.epsilon = 0.5;

  engine::Query approx_max = max;
  approx_max.approx = engine::ApproxSpec{};  // APPROX is SUM/AVE/TOP-K only
  const AdmissionDecision approx =
      dispatcher.Register(1, "desk1", "q1", approx_max, false);
  EXPECT_EQ(approx.outcome, AdmissionDecision::Outcome::kRejected);
  EXPECT_EQ(approx.reason.code(), StatusCode::kInvalidArgument)
      << approx.reason;

  engine::Query weighted = max;
  weighted.kind = engine::QueryKind::kSum;
  weighted.weight_column = "notional";  // not a column of bd
  const AdmissionDecision missing =
      dispatcher.Register(1, "desk1", "q2", weighted, false);
  EXPECT_EQ(missing.outcome, AdmissionDecision::Outcome::kRejected);
  EXPECT_EQ(missing.reason.code(), StatusCode::kNotFound) << missing.reason;

  // Rejections leave no trace; the valid query is admitted and answers.
  EXPECT_EQ(dispatcher.Register(1, "desk1", "q1", max, false).outcome,
            AdmissionDecision::Outcome::kAdmitted);
  std::vector<Delivery> deliveries;
  const auto summary = dispatcher.Tick({0.05}, &deliveries);
  ASSERT_TRUE(summary.ok()) << summary.status();
  EXPECT_EQ(summary->queries, 1u);
}

#ifndef VAOLIB_OBS_DISABLED
TEST_F(ServerTest, TracedTickRecordsOneEncodeSpanPerGroup) {
  Dispatcher dispatcher(relation_.get(),
                        engine::Schema({{"rate", engine::ColumnType::kDouble}}),
                        registry_.get(), DispatcherConfig{});
  for (const char* id : {"a", "b"}) {
    const auto query = dispatcher.ParseSql(
        "SELECT MAX(bond_model(rate, bond_index)) FROM bd PRECISION 0.5");
    ASSERT_TRUE(query.ok()) << query.status();
    ASSERT_EQ(dispatcher.Register(1, "desk", id, *query, /*want_reports=*/true)
                  .outcome,
              AdmissionDecision::Outcome::kAdmitted);
  }
  const obs::TraceMode previous = obs::CurrentTraceMode();
  obs::SetTraceMode(obs::TraceMode::kFlight);
  obs::ClearTrace();
  std::vector<Delivery> deliveries;
  const auto summary = dispatcher.Tick({0.05}, &deliveries);
  const obs::TraceSnapshot snapshot = obs::SnapshotTrace();
  obs::SetTraceMode(previous);
  ASSERT_TRUE(summary.ok()) << summary.status();

  // Both queries share one group: one span covers their four frames.
  EXPECT_EQ(deliveries.size(), 4u);
  std::size_t encode_spans = 0;
  for (const obs::TraceEvent& event : snapshot.events) {
    if (event.kind == obs::TraceEvent::Kind::kSpan &&
        std::string_view(event.cat) == "encode") {
      ++encode_spans;
    }
  }
  EXPECT_EQ(encode_spans, 1u);
}
#endif  // VAOLIB_OBS_DISABLED

TEST_F(ServerTest, SecondTickSolvesOnlyGridsTheFirstDidNot) {
  // A selection refines every undecided row one grid per step, so each
  // row walks the same ladder with or without reuse; the ladders come
  // from objects driven directly.
  constexpr double kThreshold = 90.0;
  const double rates[] = {0.05, 0.06};
  auto ladder = [&](double rate, std::size_t bond) {
    WorkMeter meter;
    auto made = function_->Invoke(function_->ArgsFor(rate, bond), &meter);
    EXPECT_TRUE(made.ok()) << made.status();
    std::set<std::pair<int, int>> grids;
    const auto& object = dynamic_cast<vao::PdeResultObject&>(**made);
    const numeric::PdeGrid first = object.current_grid();
    grids.insert({first.x_intervals, first.t_steps});
    grids.insert({first.x_intervals, first.t_steps * 2});
    grids.insert({first.x_intervals * 2, first.t_steps});
    while (object.bounds().Contains(kThreshold) &&
           !object.AtStoppingCondition()) {
      EXPECT_TRUE((*made)->Iterate().ok());
      grids.insert({object.current_grid().x_intervals,
                    object.current_grid().t_steps});
    }
    return grids;
  };
  std::uint64_t expected_exec = 0;
  for (std::size_t bond = 0; bond < bonds_.size(); ++bond) {
    const auto solved = ladder(rates[0], bond);
    for (const auto& [nx, nt] : ladder(rates[1], bond)) {
      if (solved.contains({nx, nt})) continue;
      expected_exec += static_cast<std::uint64_t>(nx + 1) * nt;
    }
  }

  Dispatcher dispatcher(relation_.get(),
                        engine::Schema({{"rate", engine::ColumnType::kDouble}}),
                        registry_.get(), DispatcherConfig{});
  const auto query = dispatcher.ParseSql(
      "SELECT * FROM bd WHERE bond_model(rate, bond_index) > 90");
  ASSERT_TRUE(query.ok()) << query.status();
  ASSERT_EQ(dispatcher.Register(1, "desk", "q", *query, /*want_reports=*/true)
                .outcome,
            AdmissionDecision::Outcome::kAdmitted);
  std::uint64_t exec[2] = {0, 0};
  for (int t = 0; t < 2; ++t) {
    std::vector<Delivery> deliveries;
    ASSERT_TRUE(dispatcher.Tick({rates[t]}, &deliveries).ok());
    for (const Delivery& delivery : deliveries) {
      if (delivery.payload.rfind("REPORT ", 0) != 0) continue;
      const auto report = obs::ExecutionReport::FromJson(
          delivery.payload.substr(delivery.payload.find('{')));
      ASSERT_TRUE(report.ok()) << report.status();
      exec[t] = report->work.exec;
    }
  }
  EXPECT_GT(exec[0], 0u);
  EXPECT_GT(expected_exec, 0u);  // the 0.06 ladders reach new grids too
  // Creation reads the first tick's coarse grids; refinement marches only
  // the grids the 0.05 ladders never reached.
  EXPECT_EQ(exec[1], expected_exec);
  EXPECT_LT(exec[1], exec[0]);
  EXPECT_GT(dispatcher.profile_cache().hits(), 0u);
}

TEST_F(ServerTest, SolveDearerThanTheTickBudgetIsPaidOverTicks) {
  // One bond, refined to PRECISION 0.01 at one rate: the ladder's last
  // solve alone costs more than the tick budget, so no tick can start it.
  // Each tick's leftover prepays it, and a later tick finishes it.
  engine::Relation one_row(engine::Schema(
      {{"bond_index", engine::ColumnType::kDouble},
       {"position", engine::ColumnType::kDouble}}));
  ASSERT_TRUE(one_row.Append({0.0, 1.0}).ok());
  constexpr double kRate = 0.05;
  WorkMeter meter;
  auto made = function_->Invoke(function_->ArgsFor(kRate, 0), &meter);
  ASSERT_TRUE(made.ok()) << made.status();
  std::uint64_t dearest = 0;
  while ((*made)->bounds().Width() > 0.01 &&
         !(*made)->AtStoppingCondition()) {
    dearest = std::max(dearest, (*made)->est_cost());
    ASSERT_TRUE((*made)->Iterate().ok());
  }
  DispatcherConfig config;
  config.tick_budget = dearest * 3 / 4;

  Dispatcher dispatcher(&one_row,
                        engine::Schema({{"rate", engine::ColumnType::kDouble}}),
                        registry_.get(), config);
  const auto query = dispatcher.ParseSql(
      "SELECT MAX(bond_model(rate, bond_index)) FROM bd PRECISION 0.01");
  ASSERT_TRUE(query.ok()) << query.status();
  ASSERT_EQ(dispatcher.Register(1, "desk", "q", *query, false).outcome,
            AdmissionDecision::Outcome::kAdmitted);
  int ticks = 0;
  bool converged = false;
  while (!converged && ticks < 8) {
    std::vector<Delivery> deliveries;
    const auto summary = dispatcher.Tick({kRate}, &deliveries);
    ASSERT_TRUE(summary.ok()) << summary.status();
    converged = summary->converged == 1;
    ++ticks;
  }
  EXPECT_TRUE(converged) << "after " << ticks << " ticks";
  EXPECT_GT(ticks, 1);
}

// RESULT frames in delivery order, each prefixed with its session and with
// its seq= token cut out.
std::vector<std::string> ResultFramesWithoutSeq(
    const std::vector<Delivery>& deliveries) {
  std::vector<std::string> frames;
  for (const Delivery& delivery : deliveries) {
    if (delivery.payload.rfind("RESULT ", 0) != 0) continue;
    std::string frame = delivery.payload;
    const std::size_t seq = frame.find(" seq=");
    frame.erase(seq, frame.find(' ', seq + 1) - seq);
    frames.push_back(std::to_string(delivery.session) + " " + frame);
  }
  return frames;
}

TEST_F(ServerTest, ChurnedDispatcherTicksLikeOneBuiltFromItsSurvivors) {
  // Two groups, one per argument binding, under a tick budget. Queries
  // come and go between ticks by every path: REGISTER, WITHDRAW, session
  // close and SHED. After each tick, every RESULT frame (seq= aside)
  // equals the one a dispatcher built fresh from the queries standing at
  // that tick delivers. Profile reuse is off on both, so no tick reads
  // grids an earlier tick solved.
  struct Spec {
    std::uint64_t session;
    std::string tenant;
    std::string id;
    std::string sql;
  };
  const auto sql = [](const std::string& head, const std::string& rate,
                      const std::string& tail) {
    return "SELECT " + head + "bond_model(" + rate + ", bond_index)" + tail;
  };
  const engine::Schema stream({{"rate", engine::ColumnType::kDouble}});
  TenantQuota vip;
  vip.reserve_units = 40000;
  DispatcherConfig config;
  config.tick_budget = 120000;
  config.shed_after_misses = 2;
  config.reuse_pde_profiles = false;
  const auto register_on = [&](Dispatcher& dispatcher, const Spec& spec) {
    const auto query = dispatcher.ParseSql(spec.sql);
    ASSERT_TRUE(query.ok()) << spec.sql << ": " << query.status();
    ASSERT_EQ(dispatcher
                  .Register(spec.session, spec.tenant, spec.id, *query, false)
                  .outcome,
              AdmissionDecision::Outcome::kAdmitted)
        << spec.id;
  };

  Dispatcher churned(relation_.get(), stream, registry_.get(), config);
  churned.admission().SetQuota("vip", vip);
  std::map<std::pair<std::uint64_t, std::string>, Spec> standing;
  const auto add = [&](const Spec& spec) {
    register_on(churned, spec);
    standing[{spec.session, spec.id}] = spec;
  };
  const auto withdraw = [&](std::uint64_t session, const std::string& id) {
    ASSERT_TRUE(churned.Withdraw(session, id).ok()) << id;
    standing.erase({session, id});
  };
  const auto close = [&](std::uint64_t session) {
    churned.WithdrawSession(session);
    std::erase_if(standing, [&](const auto& entry) {
      return entry.first.first == session;
    });
  };
  std::size_t ticks = 0;
  std::size_t sheds = 0;
  std::size_t unconverged = 0;
  const auto tick = [&](double rate) {
    DispatcherConfig fresh_config = config;
    fresh_config.shed_after_misses = 0;
    Dispatcher fresh(relation_.get(), stream, registry_.get(), fresh_config);
    fresh.admission().SetQuota("vip", vip);
    for (const auto& [key, spec] : standing) register_on(fresh, spec);
    std::vector<Delivery> ours;
    std::vector<Delivery> theirs;
    ASSERT_TRUE(churned.Tick({rate}, &ours).ok());
    ASSERT_TRUE(fresh.Tick({rate}, &theirs).ok());
    ++ticks;
    SCOPED_TRACE(::testing::Message() << "tick " << ticks);
    const auto frames = ResultFramesWithoutSeq(ours);
    EXPECT_EQ(frames, ResultFramesWithoutSeq(theirs));
    EXPECT_EQ(frames.size(), standing.size());
    for (const std::string& frame : frames) {
      if (frame.find("converged=0") != std::string::npos) ++unconverged;
    }
    for (const Delivery& delivery : ours) {
      if (delivery.payload.rfind("SHED ", 0) != 0) continue;
      const std::string id =
          delivery.payload.substr(5, delivery.payload.find(' ', 5) - 5);
      EXPECT_EQ(standing.erase({delivery.session, id}), 1u) << id;
      ++sheds;
    }
    EXPECT_EQ(churned.query_count(), standing.size());
  };

  add({1, "vip", "v0", sql("MAX(", "rate", ") FROM bd PRECISION 0.05")});
  add({1, "vip", "v1", sql("AVE(", "0.06", ") FROM bd PRECISION 0.05")});
  add({2, "desk", "a", sql("MIN(", "rate", ") FROM bd PRECISION 0.01")});
  add({2, "desk", "b", sql("TOP 2 ", "0.06", " FROM bd PRECISION 0.01")});
  add({3, "desk", "c", sql("* FROM bd WHERE ", "rate", " > 100")});
  add({3, "desk", "d", sql("AVE(", "rate", ") FROM bd PRECISION 0.01")});
  tick(0.05);
  withdraw(2, "a");
  add({3, "desk", "e", sql("MIN(", "0.06", ") FROM bd PRECISION 0.01")});
  tick(0.055);
  close(3);
  add({4, "desk", "a", sql("SUM(", "rate", ") FROM bd PRECISION 0.01")});
  add({2, "desk", "f", sql("MAX(", "0.06", ") FROM bd PRECISION 0.01")});
  tick(0.06);
  add({1, "vip", "v2", sql("MIN(", "rate", ") FROM bd PRECISION 0.05")});
  withdraw(1, "v1");
  tick(0.065);
  close(2);
  tick(0.0575);
  add({5, "desk", "g", sql("* FROM bd WHERE ", "0.06", " < 95")});
  tick(0.05);
  EXPECT_GT(sheds, 0u);
  EXPECT_GT(unconverged, 0u);
  EXPECT_FALSE(standing.empty());
}

TEST_F(ServerTest, QuotaChangeTakesEffectAtTheNextTick) {
  // A MAX (best effort, first in member order) and a MIN (tenant vip)
  // share one group under a budget that converges either query alone but
  // not both. Making vip reserved between two ticks -- with no REGISTER or
  // WITHDRAW in between -- hands the budget to its MIN at the very next
  // tick: schedules are recomputed every tick.
  const engine::Schema stream({{"rate", engine::ColumnType::kDouble}});
  const std::string max_sql =
      "SELECT MAX(bond_model(rate, bond_index)) FROM bd PRECISION 0.01";
  const std::string min_sql =
      "SELECT MIN(bond_model(rate, bond_index)) FROM bd PRECISION 0.01";
  constexpr double kRate = 0.0575;
  // Scheduler spend of each query of \p sqls, run to convergence in order.
  const auto spends = [&](const std::vector<std::string>& sqls) {
    DispatcherConfig config;
    config.reuse_pde_profiles = false;
    Dispatcher probe(relation_.get(), stream, registry_.get(), config);
    for (std::size_t i = 0; i < sqls.size(); ++i) {
      const auto query = probe.ParseSql(sqls[i]);
      EXPECT_TRUE(query.ok()) << query.status();
      EXPECT_EQ(
          probe.Register(1, "probe", std::to_string(i), *query, true).outcome,
          AdmissionDecision::Outcome::kAdmitted);
    }
    std::vector<Delivery> deliveries;
    EXPECT_TRUE(probe.Tick({kRate}, &deliveries).ok());
    std::vector<std::uint64_t> spent;
    for (const Delivery& delivery : deliveries) {
      if (delivery.payload.rfind("REPORT ", 0) != 0) continue;
      const auto report = obs::ExecutionReport::FromJson(
          delivery.payload.substr(delivery.payload.find('{')));
      EXPECT_TRUE(report.ok()) << report.status();
      spent.push_back(report->scheduler_spent);
    }
    return spent;
  };
  // Half again what the dearer query needs alone: a task whose next step
  // does not fit the allowance left does not start it.
  const std::uint64_t budget =
      std::max(spends({max_sql})[0], spends({min_sql})[0]) * 3 / 2;
  const auto max_first = spends({max_sql, min_sql});
  const auto min_first = spends({min_sql, max_sql});
  ASSERT_GT(max_first[0] + max_first[1], budget);
  ASSERT_GT(min_first[0] + min_first[1], budget);

  DispatcherConfig config;
  config.tick_budget = budget;  // one group: its share is the whole budget
  config.shed_after_misses = 0;
  config.reuse_pde_profiles = false;
  Dispatcher dispatcher(relation_.get(), stream, registry_.get(), config);
  const auto best = dispatcher.ParseSql(max_sql);
  const auto vip = dispatcher.ParseSql(min_sql);
  ASSERT_TRUE(best.ok() && vip.ok());
  ASSERT_EQ(dispatcher.Register(1, "desk", "max", *best, false).outcome,
            AdmissionDecision::Outcome::kAdmitted);
  ASSERT_EQ(dispatcher.Register(2, "vip", "min", *vip, false).outcome,
            AdmissionDecision::Outcome::kAdmitted);
  const auto converged = [&] {
    std::vector<Delivery> deliveries;
    EXPECT_TRUE(dispatcher.Tick({kRate}, &deliveries).ok());
    std::string flags;
    for (const std::string& frame : ResultFramesWithoutSeq(deliveries)) {
      flags += frame.find("converged=1") != std::string::npos ? '1' : '0';
    }
    return flags;
  };
  EXPECT_EQ(converged(), "10");  // max, then min, in member order
  TenantQuota reserved;
  reserved.reserve_units = budget;
  dispatcher.admission().SetQuota("vip", reserved);
  EXPECT_EQ(converged(), "01");
}

TEST_F(ServerTest, OverloadShedsBestEffortButNeverReservedTenants) {
  ServerConfig config;
  // A budget far too small for anything to converge, and instant (1-miss)
  // eviction, so a single tick sheds every best-effort query.
  config.dispatcher.tick_budget = 1;
  config.dispatcher.shed_after_misses = 1;
  auto server = MakeServer(config);

  TenantQuota vip;
  vip.reserve_units = 1u << 30;  // effectively unlimited headroom
  server->dispatcher().admission().SetQuota("vip", vip);

  const std::uint64_t vip_session = server->OpenSession();
  const std::uint64_t housemoney = server->OpenSession();
  ASSERT_EQ(Send(*server, vip_session, "HELLO vip")[0], "OK HELLO vip");
  ASSERT_EQ(Send(*server, housemoney, "HELLO besteffort")[0],
            "OK HELLO besteffort");
  ASSERT_EQ(Send(*server, vip_session,
                 "REGISTER v SELECT MAX(bond_model(rate, bond_index)) "
                 "FROM bd PRECISION 0.5")[0],
            "OK REGISTER v");
  ASSERT_EQ(Send(*server, housemoney,
                 "REGISTER b SELECT MIN(bond_model(rate, bond_index)) "
                 "FROM bd PRECISION 0.5")[0],
            "OK REGISTER b");

  const auto tick = Send(*server, vip_session, "TICK 0.05");
  // The vip session sent the tick: RESULT v + OK TICK.
  ASSERT_GE(tick.size(), 2u);
  EXPECT_EQ(tick[0].rfind("RESULT v", 0), 0u) << tick[0];

  const auto best_effort_replies = Drain(*server, housemoney);
  ASSERT_EQ(best_effort_replies.size(), 2u);
  EXPECT_EQ(best_effort_replies[0].rfind("RESULT b", 0), 0u);
  EXPECT_NE(best_effort_replies[0].find("converged=0"), std::string::npos)
      << best_effort_replies[0];
  EXPECT_EQ(best_effort_replies[1].rfind("SHED b RETRY-AFTER", 0), 0u)
      << best_effort_replies[1];

  // The shed query is gone; the reserved tenant's stands.
  EXPECT_EQ(server->dispatcher().query_count(), 1u);
  EXPECT_EQ(
      server->dispatcher().admission().UsageFor("besteffort").shed_queries,
      1u);
  EXPECT_EQ(server->dispatcher().admission().UsageFor("vip").shed_queries,
            0u);
}

TEST_F(ServerTest, ByeWithdrawsEverythingAndCloses) {
  ServerConfig config;
  config.dispatcher.admission.default_quota.max_queries = 1;
  auto server = MakeServer(config);
  const std::uint64_t session = server->OpenSession();
  ASSERT_EQ(Send(*server, session, "HELLO desk1")[0], "OK HELLO desk1");
  ASSERT_EQ(Send(*server, session,
                 "REGISTER q1 SELECT MAX(bond_model(rate, bond_index)) "
                 "FROM bd PRECISION 0.5")[0],
            "OK REGISTER q1");
  const auto bye = Send(*server, session, "BYE");
  ASSERT_EQ(bye.size(), 1u);
  EXPECT_EQ(bye[0], "OK BYE");
  EXPECT_TRUE(server->ShouldClose(session));
  server->CloseSession(session);
  EXPECT_EQ(server->dispatcher().query_count(), 0u);
  EXPECT_EQ(server->dispatcher().admission().UsageFor("desk1").queries, 0u);
  EXPECT_EQ(server->session_count(), 0u);
}

TEST_F(ServerTest, BrokenFramingGetsOneErrThenCloses) {
  auto server = MakeServer(ServerConfig{});
  const std::uint64_t session = server->OpenSession();
  server->HandleBytes(session, "this is not a frame");
  const auto replies = Drain(*server, session);
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_EQ(replies[0].rfind("ERR invalid-argument", 0), 0u) << replies[0];
  EXPECT_TRUE(server->ShouldClose(session));
}

TEST_F(ServerTest, TickArityIsValidated) {
  auto server = MakeServer(ServerConfig{});
  const std::uint64_t session = server->OpenSession();
  ASSERT_EQ(Send(*server, session, "HELLO desk1")[0], "OK HELLO desk1");
  const auto replies = Send(*server, session, "TICK 0.05 0.06");
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_EQ(replies[0].rfind("ERR invalid-argument", 0), 0u);
  EXPECT_NE(replies[0].find("stream schema"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Scenario files

TEST(ScenarioTest, ParsesAndFormatsRoundTrip) {
  const std::string text =
      "# tick storm\n"
      "SESSION vip tenant-vip reports\n"
      "SESSION noisy tenant-noisy\n"
      "SEND vip REGISTER q1 SELECT MAX(bond_model(rate, bond_index)) FROM "
      "bd\n"
      "TICKS vip 100 0.03 0.0001\n"
      "CLOSE noisy\n";
  const auto steps = ParseScenario(text);
  ASSERT_TRUE(steps.ok()) << steps.status().message();
  ASSERT_EQ(steps->size(), 5u);
  EXPECT_EQ((*steps)[0].kind, ScenarioStep::Kind::kSession);
  EXPECT_EQ((*steps)[0].tenant, "tenant-vip");
  EXPECT_TRUE((*steps)[0].reports);
  EXPECT_EQ((*steps)[2].kind, ScenarioStep::Kind::kSend);
  EXPECT_EQ((*steps)[2].payload.rfind("REGISTER q1 ", 0), 0u);
  EXPECT_EQ((*steps)[3].kind, ScenarioStep::Kind::kTicks);
  EXPECT_EQ((*steps)[3].count, 100u);
  EXPECT_DOUBLE_EQ((*steps)[3].base, 0.03);
  EXPECT_EQ((*steps)[4].kind, ScenarioStep::Kind::kClose);

  const auto reparsed = ParseScenario(FormatScenario(*steps));
  ASSERT_TRUE(reparsed.ok());
  ASSERT_EQ(reparsed->size(), steps->size());
  for (std::size_t i = 0; i < steps->size(); ++i) {
    EXPECT_EQ((*reparsed)[i].kind, (*steps)[i].kind);
    EXPECT_EQ((*reparsed)[i].session, (*steps)[i].session);
    EXPECT_EQ((*reparsed)[i].payload, (*steps)[i].payload);
    EXPECT_EQ((*reparsed)[i].count, (*steps)[i].count);
  }
}

TEST(ProtocolTest, ParsesMetricsAndInspectVerbs) {
  const auto metrics = ParseRequest("METRICS");
  ASSERT_TRUE(metrics.ok());
  EXPECT_EQ(metrics->verb, Verb::kMetrics);
  // METRICS takes no arguments.
  EXPECT_FALSE(ParseRequest("METRICS now").ok());

  const auto whole = ParseRequest("INSPECT");
  ASSERT_TRUE(whole.ok());
  EXPECT_EQ(whole->verb, Verb::kInspect);
  EXPECT_TRUE(whole->inspect_target.empty());

  const auto scoped = ParseRequest("INSPECT q1");
  ASSERT_TRUE(scoped.ok());
  EXPECT_EQ(scoped->verb, Verb::kInspect);
  EXPECT_EQ(scoped->inspect_target, "q1");

  const auto bad_id = ParseRequest("INSPECT bad!id");
  ASSERT_FALSE(bad_id.ok());
  EXPECT_NE(bad_id.status().message().find("'bad!id'"), std::string::npos);
  EXPECT_FALSE(ParseRequest("INSPECT q1 extra").ok());
}

TEST(FrameTest, NearCapPayloadsRoundTripAndOverCapIsRejected) {
  constexpr std::size_t kCap = 4096;
  // One byte under and exactly at the cap both round-trip, including when
  // the bytes arrive split mid-header and mid-payload.
  for (const std::size_t size : {kCap - 1, kCap}) {
    const std::string payload(size, 'x');
    const std::string wire = EncodeFrame(payload);
    FrameDecoder decoder(kCap);
    ASSERT_TRUE(decoder.Feed(wire.substr(0, 3)).ok());
    ASSERT_TRUE(decoder.Feed(wire.substr(3, size / 2)).ok());
    ASSERT_TRUE(decoder.Feed(wire.substr(3 + size / 2)).ok());
    const auto decoded = decoder.Next();
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(decoded->size(), size);
    EXPECT_EQ(*decoded, payload);
    EXPECT_FALSE(decoder.Next().has_value());
  }
  // One byte over: rejected from the length header alone, before any
  // payload bytes arrive.
  FrameDecoder decoder(kCap);
  const std::string oversized = EncodeFrame(std::string(kCap + 1, 'x'));
  const auto status =
      decoder.Feed(oversized.substr(0, oversized.find('\n') + 1));
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("frame"), std::string::npos);
}

TEST_F(ServerTest, StatsTenantSectionsAreSortedByTenantName) {
  auto server = MakeServer(ServerConfig{});
  const std::uint64_t zeta = server->OpenSession();
  const std::uint64_t alpha = server->OpenSession();
  const std::uint64_t mid = server->OpenSession();
  // Deliberately greet in anti-alphabetical order: the STATS grammar
  // promises tenant sections sorted by name regardless of arrival.
  Send(*server, zeta, "HELLO zeta");
  Send(*server, mid, "HELLO mm");
  Send(*server, alpha, "HELLO alpha");
  Send(*server, zeta,
       "REGISTER qz SELECT MAX(bond_model(rate, bond_index)) FROM bd "
       "PRECISION 0.1");
  Send(*server, alpha,
       "REGISTER qa SELECT MIN(bond_model(rate, bond_index)) FROM bd "
       "PRECISION 0.1");
  Send(*server, mid,
       "REGISTER qm SELECT AVE(bond_model(rate, bond_index)) FROM bd "
       "PRECISION 0.1");

  const auto replies = Send(*server, zeta, "STATS");
  ASSERT_EQ(replies.size(), 1u);
  const std::string& stats = replies[0];
  ASSERT_EQ(stats.rfind("OK STATS ", 0), 0u) << stats;
  const std::size_t at_alpha = stats.find(" tenant.alpha=q:1,");
  const std::size_t at_mm = stats.find(" tenant.mm=q:1,");
  const std::size_t at_zeta = stats.find(" tenant.zeta=q:1,");
  ASSERT_NE(at_alpha, std::string::npos) << stats;
  ASSERT_NE(at_mm, std::string::npos) << stats;
  ASSERT_NE(at_zeta, std::string::npos) << stats;
  EXPECT_LT(at_alpha, at_mm);
  EXPECT_LT(at_mm, at_zeta);
}

TEST_F(ServerTest, MetricsReplyIsOneRawPrometheusFrame) {
  auto server = MakeServer(ServerConfig{});
  const std::uint64_t session = server->OpenSession();
  Send(*server, session, "HELLO mon");
  // Server metric families register lazily on first dispatcher activity,
  // so put one query and one tick through before scraping.
  Send(*server, session,
       "REGISTER q1 SELECT MAX(bond_model(rate, bond_index)) FROM bd "
       "PRECISION 0.1");
  Send(*server, session, "TICK 0.0575");
  const auto replies = Send(*server, session, "METRICS");
  ASSERT_EQ(replies.size(), 1u);
  // Raw exposition, no "OK" wrapper: scrapers splice the frame payload
  // straight into their ingest path.
  EXPECT_EQ(replies[0].rfind("# ", 0), 0u) << replies[0].substr(0, 120);
  EXPECT_NE(replies[0].find("# TYPE vaolib_server_ticks_total counter"),
            std::string::npos);
  EXPECT_NE(replies[0].find("# HELP vaolib_server_ticks_total"),
            std::string::npos);
}

TEST_F(ServerTest, InspectCoversServerQueryAndTenantScopes) {
  ServerConfig config;
  config.dispatcher.health.enabled = true;
  config.dispatcher.health.ticks_per_epoch = 1;
  auto server = MakeServer(config);
  const std::uint64_t session = server->OpenSession();
  Send(*server, session, "HELLO desk");
  Send(*server, session,
       "REGISTER q1 SELECT MAX(bond_model(rate, bond_index)) FROM bd "
       "PRECISION 0.05");
  for (int t = 0; t < 3; ++t) {
    Send(*server, session, "TICK 0.0575");
  }

  const auto whole = Send(*server, session, "INSPECT");
  ASSERT_EQ(whole.size(), 1u);
  ASSERT_EQ(whole[0].rfind("INSPECT {", 0), 0u) << whole[0];
  EXPECT_NE(whole[0].find("\"scope\": \"server\""), std::string::npos);
  EXPECT_NE(whole[0].find("\"health\": \"healthy\""), std::string::npos);
  EXPECT_NE(whole[0].find("\"slos\": ["), std::string::npos);

  const auto query = Send(*server, session, "INSPECT q1");
  ASSERT_EQ(query.size(), 1u);
  EXPECT_NE(query[0].find("\"scope\": \"query\""), std::string::npos);
  EXPECT_NE(query[0].find("\"id\": \"q1\""), std::string::npos);
  EXPECT_NE(query[0].find("\"ticks_observed\": 3"), std::string::npos);

  // No query named "desk" on this session, so resolution falls through to
  // the tenant scope.
  const auto tenant = Send(*server, session, "INSPECT desk");
  ASSERT_EQ(tenant.size(), 1u);
  EXPECT_NE(tenant[0].find("\"scope\": \"tenant\""), std::string::npos);
  EXPECT_NE(tenant[0].find("\"tenant\": \"desk\""), std::string::npos);

  const auto missing = Send(*server, session, "INSPECT nothere");
  ASSERT_EQ(missing.size(), 1u);
  EXPECT_EQ(missing[0].rfind("ERR not-found ", 0), 0u) << missing[0];
  EXPECT_NE(missing[0].find("neither a query on this session nor a tenant"),
            std::string::npos);
}

TEST_F(ServerTest, InspectEtaExtrapolatesTheQuerysOwnTrajectory) {
  // A budget too small to converge the SUM in one tick: its width shrinks
  // tick by tick as reused PDE profiles make later ticks cheaper.
  constexpr int kEtaTicks = 6;
  ServerConfig config;
  config.dispatcher.health.enabled = true;
  config.dispatcher.tick_budget = 100000;
  config.dispatcher.shed_after_misses = 0;
  auto server = MakeServer(config);
  const std::uint64_t session = server->OpenSession();
  Send(*server, session, "HELLO desk");
  constexpr double kEpsilon = 0.01;
  ASSERT_EQ(Send(*server, session,
                 "REGISTER q1 SELECT SUM(bond_model(rate, bond_index)) FROM "
                 "bd PRECISION 0.01")[0],
            "OK REGISTER q1");
  for (int t = 0; t < kEtaTicks; ++t) Send(*server, session, "TICK 0.0575");

  const auto replies = Send(*server, session, "INSPECT q1");
  ASSERT_EQ(replies.size(), 1u);
  const std::string& reply = replies[0];
  const std::string eta_key = "\"eta\": {\"known\": true, \"ticks\": ";
  const std::size_t eta_at = reply.find(eta_key);
  ASSERT_NE(eta_at, std::string::npos) << reply;
  const double eta_ticks = std::stod(reply.substr(eta_at + eta_key.size()));
  ASSERT_GT(eta_ticks, 0.0) << reply;

  // The ETA is the reply's own trajectory extrapolated, and nothing else.
  obs::ProgressRing ring(kEtaTicks);
  const std::string width_key = "\"width\": ";
  for (std::size_t at = reply.find("\"trajectory\": [");
       (at = reply.find(width_key, at)) != std::string::npos;) {
    at += width_key.size();
    obs::ProgressSample sample;
    sample.width = std::stod(reply.substr(at));
    ring.Record(sample);
  }
  ASSERT_EQ(ring.size(), static_cast<std::size_t>(kEtaTicks)) << reply;
  const obs::EtaEstimate recomputed = ring.EstimateEta(kEpsilon);
  ASSERT_TRUE(recomputed.known);
  EXPECT_NEAR(recomputed.ticks, eta_ticks, 1e-6 * eta_ticks) << reply;
}

TEST_F(ServerTest, InspectAndMetricsReportTheProfileCache) {
  ServerConfig config;
  config.dispatcher.health.enabled = true;
  auto server = MakeServer(config);
  const std::uint64_t session = server->OpenSession();
  Send(*server, session, "HELLO desk");
  Send(*server, session,
       "REGISTER q1 SELECT MAX(bond_model(rate, bond_index)) FROM bd "
       "PRECISION 0.05");
  obs::Counter* hits = obs::MetricsRegistry::Global().GetCounter(
      "vaolib_pde_profile_cache_events_total", {{"event", "hit"}});
  const std::uint64_t hits_before = hits->Value();
  Send(*server, session, "TICK 0.0575");
  Send(*server, session, "TICK 0.0576");

  const vao::PdeProfileCache& cache = server->dispatcher().profile_cache();
  EXPECT_GT(cache.hits(), 0u);
  EXPECT_GT(cache.entries(), 0u);
  EXPECT_EQ(cache.bytes() % sizeof(double), 0u);
  if (obs::Enabled()) {
    EXPECT_EQ(hits->Value() - hits_before, cache.hits());
  }

  const auto whole = Send(*server, session, "INSPECT");
  ASSERT_EQ(whole.size(), 1u);
  const std::string block =
      "\"pde_profile_cache\": {\"enabled\": true, \"entries\": " +
      std::to_string(cache.entries()) +
      ", \"bytes\": " + std::to_string(cache.bytes()) +
      ", \"hits\": " + std::to_string(cache.hits()) +
      ", \"misses\": " + std::to_string(cache.misses()) + "}";
  EXPECT_NE(whole[0].find(block), std::string::npos) << whole[0];
}

TEST_F(ServerTest, InspectWithHealthPlaneDisabledIsFailedPrecondition) {
  // HealthConfig::enabled defaults to false: the library stays
  // pay-for-what-you-use and INSPECT says exactly which knob to flip.
  auto server = MakeServer(ServerConfig{});
  const std::uint64_t session = server->OpenSession();
  Send(*server, session, "HELLO desk");
  const auto replies = Send(*server, session, "INSPECT");
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_EQ(replies[0].rfind("ERR failed-precondition ", 0), 0u)
      << replies[0];
  EXPECT_NE(replies[0].find("DispatcherConfig::health"), std::string::npos);
}

TEST(ScenarioTest, ExpectStepRoundTripsAndValidates) {
  const std::string text =
      "SESSION mon tenant-mon\n"
      "SEND mon INSPECT\n"
      "EXPECT mon \"health\": \"healthy\"\n";
  const auto steps = ParseScenario(text);
  ASSERT_TRUE(steps.ok()) << steps.status().message();
  ASSERT_EQ(steps->size(), 3u);
  EXPECT_EQ((*steps)[2].kind, ScenarioStep::Kind::kExpect);
  EXPECT_EQ((*steps)[2].session, "mon");
  // The substring is the rest of the line verbatim, embedded quotes and
  // colons included.
  EXPECT_EQ((*steps)[2].payload, "\"health\": \"healthy\"");

  const auto reparsed = ParseScenario(FormatScenario(*steps));
  ASSERT_TRUE(reparsed.ok());
  ASSERT_EQ(reparsed->size(), 3u);
  EXPECT_EQ((*reparsed)[2].kind, ScenarioStep::Kind::kExpect);
  EXPECT_EQ((*reparsed)[2].payload, (*steps)[2].payload);

  // EXPECT without a substring is a scenario bug, not an empty match.
  EXPECT_FALSE(ParseScenario("EXPECT mon\n").ok());
}

TEST(ScenarioTest, ErrorsNameTheLine) {
  const auto bad = ParseScenario("SESSION a t1\nWHAT now\n");
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().message().find("line 2"), std::string::npos);
  EXPECT_NE(bad.status().message().find("'WHAT'"), std::string::npos);

  const auto bad_count = ParseScenario("TICKS s -3 0.1 0.2\n");
  ASSERT_FALSE(bad_count.ok());
  EXPECT_NE(bad_count.status().message().find("positive integer"),
            std::string::npos);
}

}  // namespace
}  // namespace vaolib::server

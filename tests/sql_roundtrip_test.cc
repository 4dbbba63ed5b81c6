// Round-trip fuzz for the SQL surface syntax: randomly generated Query
// structs must survive FormatQuery -> ParseQuery unchanged (field for
// field, numbers bit-exact), and an edge-case text corpus (negative
// literals, scientific notation, adversarial whitespace, mixed-case
// keywords) must reach a fixed point after one print/parse cycle.

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "common/rng.h"
#include "engine/sql_parser.h"
#include "testing/workload_gen.h"
#include "vao/synthetic_result_object.h"

namespace vaolib::engine {
namespace {

class SqlRoundTripTest : public ::testing::Test {
 protected:
  void SetUp() override {
    std::vector<vao::SyntheticResultObject::Config> configs(4);
    function_ = std::make_unique<testing::SyntheticTableFunction>(configs);
    ASSERT_TRUE(registry_.Register(function_.get()).ok());
    stream_schema_ = Schema({{"rate", ColumnType::kDouble}});
    relation_schema_ = Schema(
        {{"id", ColumnType::kDouble}, {"weight", ColumnType::kDouble}});
  }

  Result<Query> Parse(const std::string& sql) const {
    return ParseQuery(sql, registry_, stream_schema_, relation_schema_);
  }

  /// Field-for-field equality on everything the query's kind makes
  /// meaningful (unused fields keep defaults on the parse side).
  static void ExpectQueriesEqual(const Query& a, const Query& b) {
    ASSERT_EQ(a.kind, b.kind);
    EXPECT_EQ(a.function, b.function);
    ASSERT_EQ(a.args.size(), b.args.size());
    for (std::size_t i = 0; i < a.args.size(); ++i) {
      EXPECT_EQ(a.args[i].source, b.args[i].source) << "arg " << i;
      EXPECT_EQ(a.args[i].field, b.args[i].field) << "arg " << i;
      if (a.args[i].source == ArgRef::Source::kConstant) {
        // Bit-exact: FormatQuery prints enough digits to round-trip.
        EXPECT_EQ(a.args[i].constant, b.args[i].constant) << "arg " << i;
      }
    }
    EXPECT_EQ(a.epsilon, b.epsilon);
    // The APPROX clause (aggregates only): FormatQuery surfaces
    // confidence/error/seed, and DrawQuery keeps the unsurfaced knobs
    // (initial_samples, max_samples) at their defaults, so the whole spec
    // must survive.
    ASSERT_EQ(a.approx.has_value(), b.approx.has_value());
    if (a.approx.has_value()) {
      EXPECT_EQ(a.approx->confidence, b.approx->confidence);
      EXPECT_EQ(a.approx->target_rel_error, b.approx->target_rel_error);
      EXPECT_EQ(a.approx->seed, b.approx->seed);
      EXPECT_EQ(a.approx->initial_samples, b.approx->initial_samples);
      EXPECT_EQ(a.approx->max_samples, b.approx->max_samples);
    }
    switch (a.kind) {
      case QueryKind::kSelect:
        EXPECT_EQ(a.cmp, b.cmp);
        EXPECT_EQ(a.constant, b.constant);
        break;
      case QueryKind::kSelectRange:
        EXPECT_EQ(a.range_lo, b.range_lo);
        EXPECT_EQ(a.range_hi, b.range_hi);
        EXPECT_EQ(a.range_inclusive, b.range_inclusive);
        break;
      case QueryKind::kSum:
      case QueryKind::kAve:
        EXPECT_EQ(a.weight_column, b.weight_column);
        break;
      case QueryKind::kTopK:
        EXPECT_EQ(a.k, b.k);
        break;
      case QueryKind::kMax:
      case QueryKind::kMin:
        break;
    }
  }

  /// Draws a number from a distribution heavy on printing hazards:
  /// negatives, tiny/huge magnitudes, integers, and dyadic-unfriendly
  /// decimals.
  static double DrawNumber(Rng* rng) {
    switch (rng->UniformInt(0, 4)) {
      case 0:
        return static_cast<double>(rng->UniformInt(-1000, 1000));
      case 1:
        return rng->Uniform(-1.0, 1.0) *
               std::pow(10.0, rng->UniformInt(-12, 12));
      case 2:
        return -0.1 * static_cast<double>(rng->UniformInt(1, 99));
      case 3:
        return rng->Gaussian(0.0, 100.0);
      default:
        return rng->Uniform(-100.0, 100.0);
    }
  }

  Query DrawQuery(Rng* rng) const {
    Query query;
    const QueryKind kinds[] = {QueryKind::kSelect, QueryKind::kSelectRange,
                               QueryKind::kMax,    QueryKind::kMin,
                               QueryKind::kSum,    QueryKind::kAve,
                               QueryKind::kTopK};
    query.kind = kinds[rng->UniformInt(0, 6)];
    query.function = function_.get();
    switch (rng->UniformInt(0, 2)) {
      case 0:
        query.args = {ArgRef::RelationField("id")};
        break;
      case 1:
        query.args = {ArgRef::StreamField("rate")};
        break;
      default:
        query.args = {ArgRef::Constant(DrawNumber(rng))};
        break;
    }
    query.epsilon = std::abs(DrawNumber(rng)) + 1e-6;
    switch (query.kind) {
      case QueryKind::kSelect: {
        const operators::Comparator comparators[] = {
            operators::Comparator::kGreaterThan,
            operators::Comparator::kGreaterEqual,
            operators::Comparator::kLessThan,
            operators::Comparator::kLessEqual};
        query.cmp = comparators[rng->UniformInt(0, 3)];
        query.constant = DrawNumber(rng);
        break;
      }
      case QueryKind::kSelectRange: {
        const double a = DrawNumber(rng);
        const double b = DrawNumber(rng);
        query.range_lo = std::min(a, b);
        query.range_hi = std::max(a, b);
        query.range_inclusive = true;  // the grammar's only BETWEEN
        break;
      }
      case QueryKind::kSum:
        if (rng->Bernoulli(0.5)) query.weight_column = "weight";
        break;
      case QueryKind::kTopK:
        query.k = static_cast<std::size_t>(rng->UniformInt(1, 9));
        break;
      default:
        break;
    }
    // Half of the sampled-tier-capable kinds also draw an APPROX clause.
    // Only the grammar-surfaced fields vary: confidence, target error, and
    // seed (zero seed is the unprinted default, so include it).
    if ((query.kind == QueryKind::kSum || query.kind == QueryKind::kAve ||
         query.kind == QueryKind::kTopK) &&
        rng->Bernoulli(0.5)) {
      ApproxSpec spec;
      spec.confidence = rng->Uniform(0.5, 0.999);
      spec.target_rel_error = std::abs(DrawNumber(rng)) + 1e-6;
      spec.seed = rng->Bernoulli(0.5)
                      ? 0
                      : static_cast<std::uint64_t>(rng->UniformInt(1, 1'000'000));
      query.approx = spec;
    }
    return query;
  }

  std::unique_ptr<testing::SyntheticTableFunction> function_;
  FunctionRegistry registry_;
  Schema stream_schema_;
  Schema relation_schema_;
};

TEST_F(SqlRoundTripTest, RandomQueriesSurvivePrintParse) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    for (int round = 0; round < 25; ++round) {
      const Query original = DrawQuery(&rng);
      const std::string text = FormatQuery(original, "bd");
      const auto reparsed = Parse(text);
      ASSERT_TRUE(reparsed.ok())
          << "seed=" << seed << " round=" << round << "\n  " << text << "\n  "
          << reparsed.status();
      ExpectQueriesEqual(original, *reparsed);
      // And the printer is a fixed point: format(parse(format(q))) ==
      // format(q).
      EXPECT_EQ(FormatQuery(*reparsed, "bd"), text) << text;
    }
  }
}

TEST_F(SqlRoundTripTest, EdgeCaseCorpusReachesFixedPoint) {
  const char* corpus[] = {
      // Negative and scientific literals.
      "SELECT * FROM bd WHERE synth(-5.25) > -1e-3",
      "SELECT * FROM bd WHERE synth(id) <= 2.5e17",
      "SELECT MAX(synth(-0.125)) FROM bd PRECISION 1e-6",
      // Nested range predicates with negative endpoints.
      "SELECT * FROM bd WHERE synth(id) BETWEEN -2 AND 7.5",
      "SELECT * FROM bd WHERE synth(rate) BETWEEN -1e2 AND -10",
      // Adversarial whitespace: tabs, newlines, run-on spaces.
      "SELECT\t*\nFROM  bd\n WHERE   synth( id )  >=\t0.5",
      "  SELECT SUM( synth(id) , weight ) FROM bd PRECISION 5  ",
      // Mixed-case keywords (identifiers stay case-sensitive).
      "select * from bd where synth(id) < 99",
      "Select Ave(synth(rate)) From bd Precision 0.25",
      "SELECT TOP 3 synth(id) FROM bd PRECISION 0.5",
      "select min(synth(0)) from bd precision 0.01",
      // The APPROX clause: bare, partial, and fully specified (scientific
      // notation in the error target, mixed case).
      "SELECT SUM(synth(id)) FROM bd APPROX",
      "select ave(synth(rate)) from bd approx with confidence 0.9",
      "SELECT SUM( synth(id) , weight ) FROM bd PRECISION 2 "
      "APPROX WITH CONFIDENCE 0.975 ERROR 2.5e-2 SEED 31337",
      "Select Top 4 synth(id) From bd Approx Error 0.125",
  };
  for (const char* sql : corpus) {
    const auto first = Parse(sql);
    ASSERT_TRUE(first.ok()) << sql << "\n  " << first.status();
    const std::string printed = FormatQuery(*first, "bd");
    const auto second = Parse(printed);
    ASSERT_TRUE(second.ok()) << sql << "\n  printed: " << printed << "\n  "
                             << second.status();
    ExpectQueriesEqual(*first, *second);
    EXPECT_EQ(FormatQuery(*second, "bd"), printed) << sql;
  }
}

TEST_F(SqlRoundTripTest, MalformedQueriesStillRejected) {
  const char* bad[] = {
      "SELECT * FROM bd WHERE synth(id) >",
      "SELECT * FROM bd WHERE synth(id) BETWEEN 5 AND",
      "SELECT TOP -1 synth(id) FROM bd PRECISION 0.5",
      "SELECT TOP 2.5 synth(id) FROM bd PRECISION 0.5",
      "SELECT MAX(nope(id)) FROM bd PRECISION 0.01",
      "SELECT * FROM bd WHERE synth(missing_column) > 1",
      "SELECT MIN(synth(id)) FROM bd APPROX",
      "SELECT SUM(synth(id)) FROM bd APPROX WITH CONFIDENCE 2",
      "SELECT SUM(synth(id)) FROM bd APPROX ERROR",
      "SELECT SUM(synth(id)) FROM bd APPROX SEED 0.5",
  };
  for (const char* sql : bad) {
    EXPECT_FALSE(Parse(sql).ok()) << sql;
  }
}

}  // namespace
}  // namespace vaolib::engine

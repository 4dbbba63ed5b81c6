// standing_queries: many concurrent standing queries over the same bond
// models, executed with shared result objects (engine::MultiQueryExecutor).
// The workload is the paper's motivating trading desk: several price
// alerts, the best bond, a top-3 leaderboard, and the portfolio value, all
// re-evaluated on every interest-rate tick -- but each bond's model runs at
// most once per tick, iterated only as far as the HARDEST query needs.
//
// Build & run:  ./build/examples/standing_queries

#include <cstdio>

#include "engine/executor.h"
#include "engine/multi_query.h"
#include "finance/bond_model.h"
#include "workload/portfolio_gen.h"

using namespace vaolib;

int main() {
  workload::PortfolioSpec spec;
  spec.count = 80;
  const auto bonds = workload::GeneratePortfolio(/*seed=*/55, spec);
  const finance::BondPricingFunction model(bonds, finance::BondModelConfig{});

  engine::Relation bd(engine::Schema(
      {{"bond_index", engine::ColumnType::kDouble},
       {"position", engine::ColumnType::kDouble}}));
  for (std::size_t i = 0; i < bonds.size(); ++i) {
    if (!bd.Append({static_cast<double>(i), i % 9 == 0 ? 8.0 : 1.0}).ok()) {
      return 1;
    }
  }
  const engine::Schema stream_schema(
      {{"rate", engine::ColumnType::kDouble}});

  const std::vector<engine::ArgRef> args = {
      engine::ArgRef::StreamField("rate"),
      engine::ArgRef::RelationField("bond_index")};
  auto base = [&] { return engine::Query::Builder(&model).Args(args); };

  using operators::Comparator;
  const engine::Query above_100 =
      base().Select(Comparator::kGreaterThan, 100.0).Build();
  const engine::Query above_110 =
      base().Select(Comparator::kGreaterThan, 110.0).Build();
  const engine::Query below_90 =
      base().Select(Comparator::kLessThan, 90.0).Build();
  const engine::Query best = base().Max().Epsilon(0.01).Build();
  const engine::Query top3 = base().TopK(3).Epsilon(0.01).Build();
  const engine::Query value =
      base()
          .Sum()
          .WeightColumn("position")
          .Epsilon(0.25 * static_cast<double>(bonds.size()))  // $0.25/bond
          .Build();

  const std::vector<engine::Query> queries{above_100, above_110, below_90,
                                           best, top3, value};
  auto shared = engine::MultiQueryExecutor::Create(&bd, stream_schema,
                                                   queries);
  if (!shared.ok()) {
    std::fprintf(stderr, "%s\n", shared.status().ToString().c_str());
    return 1;
  }

  // Reference cost: the same six queries through separate executors.
  std::vector<std::unique_ptr<engine::CqExecutor>> separate;
  for (const auto& query : queries) {
    auto solo = engine::CqExecutor::Create(&bd, stream_schema, query,
                                           engine::ExecutionMode::kVao);
    if (!solo.ok()) return 1;
    separate.push_back(std::move(solo).value());
  }

  const auto ticks = finance::SynthesizeRateSeries(/*seed=*/21,
                                                   /*num_ticks=*/6);
  std::printf("== standing queries: 6 queries, %zu bonds, shared "
              "execution ==\n\n", bonds.size());
  for (const auto& tick : ticks) {
    // The executor's meter covers the whole tick, shared object creation
    // included; per-query work_units would count shared work once per
    // query that reads it.
    const std::uint64_t shared_before = (*shared)->meter().Total();
    const auto results = (*shared)->ProcessTick({tick.rate});
    if (!results.ok()) {
      std::fprintf(stderr, "%s\n", results.status().ToString().c_str());
      return 1;
    }
    std::uint64_t separate_work = 0;
    for (auto& solo : separate) {
      const auto r = solo->ProcessTick({tick.rate});
      if (!r.ok()) return 1;
      separate_work += r->work_units;
    }
    const std::uint64_t shared_work =
        (*shared)->meter().Total() - shared_before;

    const auto& best_result = (*results)[3];
    std::printf(
        "t=%5.1fmin rate=%.4f | >100: %2zu  >110: %2zu  <90: %2zu | best %s "
        "[$%.2f] | value [$%.0f, $%.0f]\n",
        tick.time_seconds / 60.0, tick.rate,
        (*results)[0].passing_rows.size(),
        (*results)[1].passing_rows.size(),
        (*results)[2].passing_rows.size(),
        bonds[best_result.winner_row.value_or(0)].name.c_str(),
        best_result.aggregate_bounds.Mid(),
        (*results)[5].aggregate_bounds.lo,
        (*results)[5].aggregate_bounds.hi);
    std::printf("           shared work %llu units vs separate %llu units "
                "(%.1fx saved)\n",
                static_cast<unsigned long long>(shared_work),
                static_cast<unsigned long long>(separate_work),
                static_cast<double>(separate_work) /
                    static_cast<double>(shared_work));
  }
  std::printf("\neach bond's model is invoked once per tick and iterated "
              "only as far as the\nhardest standing query requires.\n");
  return 0;
}

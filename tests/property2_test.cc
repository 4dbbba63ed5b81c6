// Second property suite: invariants of the extension modules, swept with
// parameterized gtest -- two-factor PDE soundness, IVP soundness across an
// ODE family, range/multi-selection equivalence on real bond functions,
// cache-soundness under random partial-iteration patterns, and TOP-K
// equivalence against sorted calibrated values.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <ostream>

#include "common/rng.h"
#include "finance/bond_model.h"
#include "finance/two_factor_model.h"
#include "operators/selection.h"
#include "operators/top_k.h"
#include "vao/black_box.h"
#include "vao/function_cache.h"
#include "vao/ivp_result_object.h"
#include "workload/portfolio_gen.h"

namespace vaolib {
namespace {

// ---------------------------------------------------------------------------
// Two-factor PDE soundness (coarse minWidth keeps the sweep fast).

class TwoFactorSoundnessProperty
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TwoFactorSoundnessProperty, BoundsContainConvergedValueThroughout) {
  workload::PortfolioSpec spec;
  spec.count = 2;
  const auto bonds = workload::GeneratePortfolio(GetParam(), spec);
  finance::TwoFactorModelConfig config;
  config.pde.min_width = 0.25;
  const finance::TwoFactorBondPricingFunction function(bonds, config);

  for (std::size_t bond = 0; bond < bonds.size(); ++bond) {
    const auto args = function.ArgsFor(0.0575, 0.1, bond);
    WorkMeter scratch;
    auto oracle = function.Invoke(args, &scratch);
    ASSERT_TRUE(oracle.ok()) << oracle.status();
    ASSERT_TRUE(vao::ConvergeToMinWidth(oracle->get()).ok());
    const double truth = (*oracle)->bounds().Mid();

    WorkMeter meter;
    auto object = function.Invoke(args, &meter);
    ASSERT_TRUE(object.ok());
    int iteration = 0;
    while (!(*object)->AtStoppingCondition()) {
      EXPECT_TRUE((*object)->bounds().Contains(truth))
          << "seed " << GetParam() << " bond " << bond << " iter "
          << iteration << " bounds " << (*object)->bounds() << " truth "
          << truth;
      ASSERT_TRUE((*object)->Iterate().ok());
      ++iteration;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TwoFactorSoundnessProperty,
                         ::testing::Values(101, 102, 103, 104));

// ---------------------------------------------------------------------------
// IVP soundness across an ODE family.

struct IvpCase {
  const char* name;
  double (*f)(double, double);
  double t1;
  double exact;  // y(t1) with y(0) = 1
};

// Print a case by name. gtest's default byte dump would include the
// addresses held in `name` and `f`, which move with every build, and ctest
// would then discover a differently named test after each rebuild.
void PrintTo(const IvpCase& c, std::ostream* os) { *os << c.name; }

class IvpSoundnessProperty : public ::testing::TestWithParam<IvpCase> {};

TEST_P(IvpSoundnessProperty, BoundsContainExactThroughout) {
  const IvpCase param = GetParam();
  numeric::OdeIvpProblem problem;
  problem.f = param.f;
  problem.t0 = 0.0;
  problem.y0 = 1.0;
  problem.t1 = param.t1;

  WorkMeter meter;
  auto object = vao::IvpResultObject::Create(problem, {}, &meter);
  ASSERT_TRUE(object.ok());
  while (!(*object)->AtStoppingCondition()) {
    EXPECT_TRUE((*object)->bounds().Contains(param.exact))
        << param.name << " " << (*object)->bounds();
    ASSERT_TRUE((*object)->Iterate().ok());
  }
  EXPECT_NEAR((*object)->bounds().Mid(), param.exact, 1e-7);
}

INSTANTIATE_TEST_SUITE_P(
    Odes, IvpSoundnessProperty,
    ::testing::Values(
        IvpCase{"growth", [](double, double y) { return y; }, 1.0,
                2.718281828459045},
        IvpCase{"decay", [](double, double y) { return -2.0 * y; }, 1.0,
                0.1353352832366127},
        IvpCase{"gauss", [](double t, double y) { return -2.0 * t * y; },
                1.0, 0.36787944117144233},
        IvpCase{"forced", [](double t, double y) { return std::cos(t) * y; },
                2.0, 2.4825777280150003}),
    [](const ::testing::TestParamInfo<IvpCase>& info) {
      return info.param.name;
    });

// ---------------------------------------------------------------------------
// Range and multi-predicate selection on real bond functions.

class SelectionFamilyProperty
    : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  void SetUp() override {
    workload::PortfolioSpec spec;
    spec.count = 4;
    function_ = std::make_unique<finance::BondPricingFunction>(
        workload::GeneratePortfolio(GetParam(), spec),
        finance::BondModelConfig{});
    black_box_ = std::make_unique<vao::CalibratedBlackBox>(function_.get());
  }
  std::unique_ptr<finance::BondPricingFunction> function_;
  std::unique_ptr<vao::CalibratedBlackBox> black_box_;
};

TEST_P(SelectionFamilyProperty, RangeSelectionMatchesExactMembership) {
  const operators::RangeSelectionVao vao(95.0, 108.0);
  for (std::size_t bond = 0; bond < 4; ++bond) {
    const auto args = function_->ArgsFor(0.0575, bond);
    WorkMeter meter;
    const auto outcome = vao.Evaluate(*function_, args, &meter);
    ASSERT_TRUE(outcome.ok());
    const double value = black_box_->Call(args, nullptr).ValueOrDie();
    if (!outcome->resolved_as_equal) {
      EXPECT_EQ(outcome->passes, value >= 95.0 && value <= 108.0)
          << "value " << value;
    }
  }
}

TEST_P(SelectionFamilyProperty, MultiSelectionMatchesBlackBox) {
  const std::vector<operators::MultiSelectionVao::Predicate> predicates{
      {operators::Comparator::kGreaterThan, 90.0},
      {operators::Comparator::kGreaterThan, 100.0},
      {operators::Comparator::kLessThan, 110.0}};
  const operators::MultiSelectionVao vao(predicates);
  for (std::size_t bond = 0; bond < 4; ++bond) {
    const auto args = function_->ArgsFor(0.0575, bond);
    WorkMeter meter;
    const auto outcome = vao.Evaluate(*function_, args, &meter);
    ASSERT_TRUE(outcome.ok());
    const double value = black_box_->Call(args, nullptr).ValueOrDie();
    for (std::size_t i = 0; i < predicates.size(); ++i) {
      if (!outcome->resolved_as_equal[i]) {
        EXPECT_EQ(outcome->passes[i],
                  operators::CompareExact(value, predicates[i].cmp,
                                          predicates[i].constant));
      }
    }
  }
}

TEST_P(SelectionFamilyProperty, TopKMatchesSortedCalibratedValues) {
  WorkMeter meter;
  std::vector<vao::ResultObjectPtr> owned;
  std::vector<vao::ResultObject*> objects;
  std::vector<double> values;
  for (std::size_t bond = 0; bond < 4; ++bond) {
    const auto args = function_->ArgsFor(0.0575, bond);
    auto object = function_->Invoke(args, &meter);
    ASSERT_TRUE(object.ok());
    objects.push_back(object->get());
    owned.push_back(std::move(object).value());
    values.push_back(black_box_->Call(args, nullptr).ValueOrDie());
  }
  operators::TopKOptions options;
  options.k = 2;
  options.epsilon = 0.01;
  const operators::TopKVao vao(options);
  const auto outcome = vao.Evaluate(objects);
  ASSERT_TRUE(outcome.ok());
  if (!outcome->tie) {
    std::vector<std::size_t> expected{0, 1, 2, 3};
    std::sort(expected.begin(), expected.end(),
              [&](std::size_t a, std::size_t b) {
                return values[a] > values[b];
              });
    expected.resize(2);
    EXPECT_EQ(outcome->winners, expected);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SelectionFamilyProperty,
                         ::testing::Values(201, 202, 203, 204, 205));

// ---------------------------------------------------------------------------
// Cache soundness under random partial-iteration patterns.

class CacheSoundnessProperty
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CacheSoundnessProperty, CachedBoundsAlwaysContainConvergedValue) {
  workload::PortfolioSpec spec;
  spec.count = 2;
  const finance::BondPricingFunction inner(
      workload::GeneratePortfolio(GetParam() + 5000, spec),
      finance::BondModelConfig{});
  const vao::CachingFunction cached(&inner);
  Rng rng(GetParam());

  // Ground truth per bond.
  std::vector<double> truths;
  for (std::size_t bond = 0; bond < 2; ++bond) {
    WorkMeter scratch;
    auto object = inner.Invoke(inner.ArgsFor(0.0575, bond), &scratch);
    ASSERT_TRUE(object.ok());
    ASSERT_TRUE(vao::ConvergeToMinWidth(object->get()).ok());
    truths.push_back((*object)->bounds().Mid());
  }

  // Random pattern of partial evaluations against the cache; every bound
  // ever visible -- including ones assembled from cached intersections --
  // must contain the truth.
  for (int round = 0; round < 8; ++round) {
    const auto bond = static_cast<std::size_t>(rng.UniformInt(0, 1));
    WorkMeter meter;
    auto object = cached.Invoke(inner.ArgsFor(0.0575, bond), &meter);
    ASSERT_TRUE(object.ok());
    EXPECT_TRUE((*object)->bounds().Contains(truths[bond]))
        << "round " << round << " bond " << bond;
    const auto steps = rng.UniformInt(0, 3);
    for (int i = 0; i < steps && !(*object)->AtStoppingCondition(); ++i) {
      ASSERT_TRUE((*object)->Iterate().ok());
      EXPECT_TRUE((*object)->bounds().Contains(truths[bond]))
          << "round " << round << " bond " << bond << " step " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CacheSoundnessProperty,
                         ::testing::Values(11, 12, 13, 14, 15, 16));

}  // namespace
}  // namespace vaolib

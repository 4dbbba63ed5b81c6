#include "reference.h"

#include <algorithm>
#include <cstddef>
#include <string>

#include "trace.h"

namespace perfbench {
namespace {

constexpr std::size_t kObjects = 1000;
constexpr std::size_t kScanSteps = 100;
constexpr std::size_t kPoints = 1000;
constexpr std::size_t kTimeSteps = 200;
// Crank-Nicolson coefficients of u_t = u_xx at r = dt / dx^2 = 1.
constexpr double kOffDiagonal = -0.5;
constexpr double kDiagonal = 2.0;

struct Range {
  double lo;
  double hi;
  double Width() const { return hi - lo; }
};

struct Candidate {
  std::size_t index;
  double benefit;
  double cost;
  double width;
};

}  // namespace

// A shrinking interval around a value, like a synthetic result object.
class ReferenceBlock::Object {
 public:
  Object(double value, double half_width, double shrink, std::uint64_t cost)
      : value_(value), initial_half_(half_width), half_(half_width),
        shrink_(shrink), initial_cost_(cost), cost_(cost) {}
  virtual ~Object() = default;
  virtual Range bounds() const { return {value_ - half_, value_ + half_}; }
  virtual Range est_bounds() const {
    return {value_ - half_ * shrink_, value_ + half_ * shrink_};
  }
  virtual double min_width() const { return 0.01; }
  virtual std::uint64_t est_cost() const { return cost_; }
  virtual void Iterate() {
    half_ *= shrink_;
    cost_ = cost_ * 3 / 2 + 1;
  }
  bool Done() const { return bounds().Width() <= min_width(); }
  void Reset() {
    half_ = initial_half_;
    cost_ = initial_cost_;
  }

 private:
  double value_;
  double initial_half_;
  double half_;
  double shrink_;
  std::uint64_t initial_cost_;
  std::uint64_t cost_;
  std::string key_ = "group";  // a result object's correlation key
};

// Greedy pick: the best benefit per cost, ties to the widest.
class ReferenceBlock::Strategy {
 public:
  virtual ~Strategy() = default;
  virtual std::size_t Choose(const std::vector<Candidate>& candidates) const {
    std::size_t best = 0;
    double best_score = -1.0;
    for (std::size_t k = 0; k < candidates.size(); ++k) {
      const Candidate& c = candidates[k];
      const double score = c.benefit > 0.0 ? c.benefit / c.cost : 0.0;
      if (score > best_score ||
          (score == best_score && c.width > candidates[best].width)) {
        best = k;
        best_score = score;
      }
    }
    return candidates[best].index;
  }
};

ReferenceBlock::ReferenceBlock(ReferenceShape shape)
    : shape_(shape), strategy_(std::make_unique<Strategy>()) {
  std::uint64_t state = 0x9e3779b97f4a7c15ULL;
  const auto next = [&state] {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<double>(state >> 11) * 0x1.0p-53;
  };
  for (std::size_t i = 0; i < kObjects; ++i) {
    const double value = 50.0 + 1000.0 * next();
    const double half_width = 2.0 + 48.0 * next();
    const double shrink = 0.3 + 0.4 * next();
    const auto cost = static_cast<std::uint64_t>(1.0 + 10.0 * next());
    objects_.push_back(
        std::make_unique<Object>(value, half_width, shrink, cost));
    weights_.push_back(next() < 0.2 ? 5.0 : 1.0);
  }
  grid_.assign(kPoints, 0.0);
  rhs_.assign(kPoints, 0.0);
  scratch_.assign(kPoints, 0.0);
}

ReferenceBlock::~ReferenceBlock() = default;

// About each shape's mean time at the fast level of the 4-vCPU Xeon
// (2.0 GHz) this was written on.
double ReferenceBlock::nominal_ms() const {
  return shape_ == ReferenceShape::kScan ? 2.0 : 3.5;
}

std::int64_t ReferenceBlock::RunNs() {
  return shape_ == ReferenceShape::kScan ? Scan() : Solve();
}

// kScanSteps greedy steps over kObjects objects from the same start state.
std::int64_t ReferenceBlock::Scan() {
  const std::int64_t start = NowNs();
  for (const auto& object : objects_) object->Reset();
  for (std::size_t step = 0; step < kScanSteps; ++step) {
    std::vector<std::size_t> live;
    for (std::size_t i = 0; i < objects_.size(); ++i) {
      if (!objects_[i]->Done() && weights_[i] > 0.0) live.push_back(i);
    }
    std::vector<Candidate> candidates;
    candidates.reserve(live.size());
    for (const std::size_t i : live) {
      const Range now = objects_[i]->bounds();
      const Range est = objects_[i]->est_bounds();
      const double benefit =
          weights_[i] * ((est.lo - now.lo) + (now.hi - est.hi));
      const double cost = static_cast<double>(
          std::max<std::uint64_t>(objects_[i]->est_cost(), 1));
      candidates.push_back({i, benefit, cost, weights_[i] * now.Width()});
    }
    Object& chosen = *objects_[strategy_->Choose(candidates)];
    chosen.Iterate();
    checksum_ += chosen.bounds().Width();
  }
  return NowNs() - start;
}

// kTimeSteps Crank-Nicolson steps from the same initial hat profile, with
// zero boundaries and a floor, as in an American-style pricing grid.
std::int64_t ReferenceBlock::Solve() {
  const std::int64_t start = NowNs();
  const std::size_t n = kPoints;
  for (std::size_t i = 0; i < n; ++i) {
    const double x = static_cast<double>(i) / static_cast<double>(n - 1);
    grid_[i] = x < 0.5 ? x : 1.0 - x;
  }
  for (std::size_t step = 0; step < kTimeSteps; ++step) {
    // Explicit half; its (1 - r) u_i term vanishes at r = 1.
    for (std::size_t i = 1; i + 1 < n; ++i) {
      rhs_[i] = 0.5 * (grid_[i - 1] + grid_[i + 1]);
    }
    rhs_[0] = rhs_[n - 1] = 0.0;
    // Forward sweep, then back substitution.
    scratch_[0] = kOffDiagonal / kDiagonal;
    grid_[0] = rhs_[0] / kDiagonal;
    for (std::size_t i = 1; i < n; ++i) {
      const double m = 1.0 / (kDiagonal - kOffDiagonal * scratch_[i - 1]);
      scratch_[i] = kOffDiagonal * m;
      grid_[i] = (rhs_[i] - kOffDiagonal * grid_[i - 1]) * m;
    }
    for (std::size_t i = n - 1; i-- > 0;) {
      grid_[i] -= scratch_[i] * grid_[i + 1];
    }
    for (std::size_t i = 0; i < n; ++i) grid_[i] = std::max(grid_[i], 1e-6);
  }
  checksum_ += grid_[n / 2];
  return NowNs() - start;
}

}  // namespace perfbench

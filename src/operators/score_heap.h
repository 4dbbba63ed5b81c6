// Copyright 2026 The vaolib Authors.
// ScoreHeap: a lazy max-heap over (index, score) pairs for sublinear greedy
// iteration choice. Section 5.2 of the paper notes that heap queues could
// replace the O(N) per-choice scan; this is that index. It applies when an
// object's score depends only on its own state (true for SUM/AVE, where the
// score is w_i * predicted-error-reduction / estCPU): after iterating
// object i only i's score changes, so the heap is updated lazily with
// versioned entries and stale entries are discarded on pop. Equal scores pop
// lowest index first, the tie-break of the greedy scans it replaces. An
// entry's score is the one it was pushed with: a caller whose scores can
// also move between its own updates (objects another task refines)
// re-validates each pop.

#ifndef VAOLIB_OPERATORS_SCORE_HEAP_H_
#define VAOLIB_OPERATORS_SCORE_HEAP_H_

#include <cstdint>
#include <queue>
#include <vector>

namespace vaolib::operators {

/// \brief Versioned lazy max-heap keyed by double scores.
class ScoreHeap {
 public:
  /// Prepares the heap for indices [0, n); all versions reset.
  void Reset(std::size_t n) {
    versions_.assign(n, 0);
    heap_ = {};
  }

  /// Inserts or updates the score for \p index. Older entries for the same
  /// index become stale and are skipped on pop.
  void Update(std::size_t index, double score) {
    ++versions_[index];
    heap_.push(Entry{score, index, versions_[index]});
  }

  /// Marks \p index as permanently removed (converged / zero weight).
  void Remove(std::size_t index) { ++versions_[index]; }

  /// Pops the highest-scored live entry into *index/*score. Returns false
  /// when no live entries remain.
  bool PopBest(std::size_t* index, double* score) {
    while (!heap_.empty()) {
      const Entry top = heap_.top();
      heap_.pop();
      if (top.version == versions_[top.index]) {
        // The popped entry is consumed; a fresh Update() is required to
        // re-enter the heap (versions stay unchanged so duplicates of this
        // entry are dropped).
        ++versions_[top.index];
        *index = top.index;
        *score = top.score;
        return true;
      }
    }
    return false;
  }

  /// Live entry count upper bound (includes stale entries).
  std::size_t SizeBound() const { return heap_.size(); }

 private:
  struct Entry {
    double score;
    std::size_t index;
    std::uint64_t version;
    // Max-heap order: higher score first, then the lower index.
    bool operator<(const Entry& other) const {
      if (score != other.score) return score < other.score;
      return index > other.index;
    }
  };
  std::priority_queue<Entry> heap_;
  std::vector<std::uint64_t> versions_;
};

}  // namespace vaolib::operators

#endif  // VAOLIB_OPERATORS_SCORE_HEAP_H_

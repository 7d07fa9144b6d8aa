// The naive per-epoch oracle every differential suite checks production
// against: the paper's §3.1 lattice and §3.2 phase-transition rule written
// the obvious way (docs/METHOD.md §2–3).  It always builds the full
// lattice; production's iceberg is compared with Lattice::iceberg.  Cells live in ordered maps and
// are built by one bump per (session or leaf, mask); the candidate rule is
// checked condition by condition with plain loops over a leaf's 128-mask
// cone.  Nothing here is shared with src/ beyond the data types and the
// §3.1 predicates (is_significant, is_problem_cluster).

#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <map>
#include <span>
#include <vector>

#include "src/core/cluster_engine.h"
#include "src/core/critical_cluster.h"
#include "src/core/problem_cluster.h"
#include "src/core/session.h"

namespace vq::oracle {

/// One epoch's lattice: the root, the full-arity leaves, and every
/// materialised cell (non-empty masks of arity <= max_arity).
struct Lattice {
  std::uint32_t epoch = 0;
  int max_arity = kNumDims;
  ClusterStats root;
  std::map<std::uint64_t, ClusterStats> leaves;
  std::map<std::uint64_t, ClusterStats> cells;

  [[nodiscard]] bool materialised(unsigned mask) const {
    return mask != 0 && std::popcount(mask) <= max_arity;
  }

  /// Adds `s` to the leaf and to each of its materialised projections.
  void add_leaf(std::uint64_t leaf, const ClusterStats& s) {
    leaves[leaf] += s;
    for (unsigned mask = 1; mask <= kFullMask; ++mask) {
      if (!materialised(mask)) continue;
      const auto m = static_cast<std::uint8_t>(mask);
      cells[ClusterKey::from_raw(leaf).project(m).raw()] += s;
    }
  }

  /// The iceberg at `floor`: this lattice without the cells whose session
  /// count is below it (the root and leaves are kept).
  [[nodiscard]] Lattice iceberg(std::uint32_t floor) const {
    Lattice out = *this;
    std::erase_if(out.cells,
                  [&](const auto& cell) { return cell.second.sessions < floor; });
    return out;
  }

  /// Counters of every mask's projection of `leaf` (index = mask; zeros
  /// where the cell is absent or not materialised; [0] is the root).
  [[nodiscard]] std::array<ClusterStats, kFullMask + 1> cone(
      std::uint64_t leaf) const {
    std::array<ClusterStats, kFullMask + 1> out{};
    out[0] = root;
    for (unsigned mask = 1; mask <= kFullMask; ++mask) {
      if (!materialised(mask)) continue;
      const auto m = static_cast<std::uint8_t>(mask);
      const auto it = cells.find(ClusterKey::from_raw(leaf).project(m).raw());
      if (it != cells.end()) out[mask] = it->second;
    }
    return out;
  }
};

/// Session by session: 127 bumps each (fewer under an arity cap).
inline Lattice lattice(std::span<const Session> sessions,
                       const ProblemThresholds& thresholds,
                       std::uint32_t epoch, int max_arity = kNumDims) {
  Lattice out;
  out.epoch = epoch;
  out.max_arity = max_arity;
  for (const Session& s : sessions) {
    ClusterStats one;
    one.sessions = 1;
    for (const Metric m : kAllMetrics) {
      one.problems[static_cast<std::uint8_t>(m)] =
          thresholds.is_problem(m, s.quality) ? 1 : 0;
    }
    out.root += one;
    out.add_leaf(ClusterKey::pack(kFullMask, s.attrs).raw(), one);
  }
  return out;
}

/// From a leaf fold; the root is the fold's own (a sketch-admitted fold
/// keeps the exact root over every session, admitted or not).
inline Lattice lattice(const LeafFold& fold, int max_arity = kNumDims) {
  Lattice out;
  out.epoch = fold.epoch;
  out.max_arity = max_arity;
  out.root = fold.root;
  // Counter sums are order-independent, so hash order cannot leak.
  // vq-lint: allow(unordered-iter)
  fold.leaves.for_each([&](std::uint64_t raw, const ClusterStats& s) {
    out.add_leaf(raw, s);
  });
  return out;
}

/// §3.2 conditions (a)–(c) for mask m of a leaf with the given cone.
inline bool meets_conditions(const Lattice& l,
                             const std::array<ClusterStats, kFullMask + 1>& c,
                             unsigned m, const ProblemClusterParams& params,
                             Metric metric) {
  const double global = l.root.problem_ratio(metric);
  const auto problem = [&](const ClusterStats& s) {
    return is_problem_cluster(s, global, params, metric);
  };
  // (a) the cluster itself is a problem cluster.
  if (!problem(c[m])) return false;
  // (b) every significant materialised descendant is a problem cluster.
  for (unsigned s = 1; s <= kFullMask; ++s) {
    if (s == m || (s & m) != m || !l.materialised(s)) continue;
    if (is_significant(c[s], params) && !problem(c[s])) return false;
  }
  // (c) without m's sessions, no proper non-empty ancestor is a problem.
  for (unsigned a = 1; a < m; ++a) {
    if ((a & m) == a && problem(c[a].minus(c[m]))) return false;
  }
  return true;
}

/// The leaf's critical masks: those meeting (a)–(c) with no proper subset
/// that also does (closest to the root), ascending.
inline std::vector<std::uint8_t> candidate_masks(
    const Lattice& l, std::uint64_t leaf, const ProblemClusterParams& params,
    Metric metric) {
  const std::array<ClusterStats, kFullMask + 1> c = l.cone(leaf);
  std::vector<unsigned> meets;
  for (unsigned m = 1; m <= kFullMask; ++m) {
    if (l.materialised(m) && meets_conditions(l, c, m, params, metric)) {
      meets.push_back(m);
    }
  }
  std::vector<std::uint8_t> out;
  for (const unsigned m : meets) {
    const bool minimal = std::none_of(meets.begin(), meets.end(),
                                      [&](unsigned a) {
                                        return a != m && (a & m) == a;
                                      });
    if (minimal) out.push_back(static_cast<std::uint8_t>(m));
  }
  return out;
}

/// The full analysis.  Leaves are walked in ascending key order and each
/// problem session's unit mass is split equally over its critical masks.
inline CriticalAnalysis critical(const Lattice& l,
                                 const ProblemClusterParams& params,
                                 Metric metric) {
  const auto mi = static_cast<std::uint8_t>(metric);
  CriticalAnalysis out;
  out.epoch = l.epoch;
  out.metric = metric;
  out.sessions = l.root.sessions;
  out.problem_sessions = l.root.problems[mi];
  out.global_ratio = l.root.problem_ratio(metric);
  for (const auto& [raw, s] : l.cells) {
    if (is_problem_cluster(s, out.global_ratio, params, metric)) {
      out.problem_cluster_keys.push_back(raw);
    }
  }
  out.num_problem_clusters =
      static_cast<std::uint32_t>(out.problem_cluster_keys.size());

  std::map<std::uint64_t, double> mass;
  for (const auto& [leaf, s] : l.leaves) {
    const std::uint32_t problems = s.problems[mi];
    if (problems == 0) continue;
    const std::array<ClusterStats, kFullMask + 1> c = l.cone(leaf);
    for (unsigned m = 1; m <= kFullMask; ++m) {
      if (l.materialised(m) &&
          is_problem_cluster(c[m], out.global_ratio, params, metric)) {
        out.problem_sessions_in_pc += problems;
        break;
      }
    }
    const std::vector<std::uint8_t> masks =
        candidate_masks(l, leaf, params, metric);
    for (const std::uint8_t m : masks) {
      mass[ClusterKey::from_raw(leaf).project(m).raw()] +=
          static_cast<double>(problems) / static_cast<double>(masks.size());
    }
  }
  for (const auto& [raw, attributed] : mass) {
    out.criticals.push_back(
        {ClusterKey::from_raw(raw), attributed, l.cells.at(raw)});
  }
  std::sort(out.criticals.begin(), out.criticals.end(),
            [](const CriticalRecord& a, const CriticalRecord& b) {
              return a.attributed != b.attributed ? a.attributed > b.attributed
                                                  : a.key.raw() < b.key.raw();
            });
  for (const CriticalRecord& r : out.criticals) {
    out.attributed_mass += r.attributed;
  }
  return out;
}

}  // namespace vq::oracle

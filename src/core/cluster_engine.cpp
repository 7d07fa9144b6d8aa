#include "src/core/cluster_engine.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cassert>
#include <stdexcept>
#include <string>
#include <utility>

#include "src/core/columns.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/util/thread_pool.h"

namespace vq {

std::uint32_t CellStore::id_of(std::uint64_t raw) const noexcept {
  const std::size_t mask = raw & kFullMask;
  const auto begin = keys_.begin() + mask_offsets_[mask];
  const auto end = keys_.begin() + mask_offsets_[mask + 1];
  const auto it = std::lower_bound(begin, end, raw);
  if (it == end || *it != raw) return kNoCell;
  return static_cast<std::uint32_t>(it - keys_.begin());
}

CellStore CellStore::from_mask_major(
    std::vector<std::uint64_t> keys, std::vector<ClusterStats> stats,
    const std::array<std::uint32_t, kFullMask + 2>& mask_offsets) {
  if (keys.size() != stats.size()) {
    throw std::invalid_argument{
        "CellStore::from_mask_major: keys/stats size mismatch"};
  }
  if (mask_offsets.front() != 0 || mask_offsets.back() != keys.size()) {
    throw std::invalid_argument{
        "CellStore::from_mask_major: offsets do not span the key array"};
  }
  for (std::size_t m = 0; m + 1 < mask_offsets.size(); ++m) {
    if (mask_offsets[m] > mask_offsets[m + 1]) {
      throw std::invalid_argument{
          "CellStore::from_mask_major: offsets not monotone"};
    }
  }
  CellStore out;
  out.keys_ = std::move(keys);
  out.stats_ = std::move(stats);
  out.mask_offsets_ = mask_offsets;
  return out;
}

ClusterStats ClusterStats::minus(const ClusterStats& o) const noexcept {
  ClusterStats out;
  out.sessions = sessions >= o.sessions ? sessions - o.sessions : 0;
  for (int m = 0; m < kNumMetrics; ++m) {
    out.problems[m] =
        problems[m] >= o.problems[m] ? problems[m] - o.problems[m] : 0;
  }
  return out;
}

ClusterStats EpochClusterTable::stats(const ClusterKey& key) const noexcept {
  if (key.mask() == 0) return root;
  if (const ClusterStats* found = clusters.find(key.raw())) return *found;
  return ClusterStats{};
}

std::vector<std::uint8_t> lattice_masks(int max_arity) {
  if (max_arity < 1 || max_arity > kNumDims) {
    throw std::invalid_argument{"lattice_masks: max_arity out of range"};
  }
  std::vector<std::uint8_t> masks;
  for (unsigned mask = 1; mask <= kFullMask; ++mask) {
    if (std::popcount(mask) <= max_arity) {
      masks.push_back(static_cast<std::uint8_t>(mask));
    }
  }
  return masks;
}

LeafFold fold_sessions(std::span<const Session> sessions,
                       const ProblemThresholds& thresholds,
                       std::uint32_t epoch) {
  for (const Session& s : sessions) {
    if (s.epoch != epoch) {
      throw std::invalid_argument{
          "fold_sessions: session epoch " + std::to_string(s.epoch) +
          " does not match the folded epoch " + std::to_string(epoch)};
    }
  }
  return fold_sessions_columns(SessionColumns::from_sessions(sessions, epoch),
                               thresholds, epoch);
}

namespace {

/// Per-dimension value-field bit ranges, derived from the same kDimBits
/// layout ClusterKey packs with (fields start right above the 7 mask bits).
/// lattice_field_mask is tested against dim_field, which pins this table to
/// the authoritative layout in attributes.cpp.
constexpr std::array<std::uint64_t, kNumDims> kDimFieldBits = [] {
  std::array<std::uint64_t, kNumDims> out{};
  int offset = kNumDims;
  for (int d = 0; d < kNumDims; ++d) {
    out[static_cast<std::size_t>(d)] =
        ((std::uint64_t{1} << kDimBits[static_cast<std::size_t>(d)]) - 1)
        << offset;
    offset += kDimBits[static_cast<std::size_t>(d)];
  }
  return out;
}();

constexpr std::array<std::uint64_t, kFullMask + 1> kFieldMaskTable = [] {
  std::array<std::uint64_t, kFullMask + 1> out{};
  for (unsigned mask = 0; mask <= kFullMask; ++mask) {
    for (int d = 0; d < kNumDims; ++d) {
      if ((mask >> d) & 1u) {
        out[mask] |= kDimFieldBits[static_cast<std::size_t>(d)];
      }
    }
  }
  return out;
}();

/// Shift of each dimension's value field within a packed key.
constexpr std::array<unsigned, kNumDims> kDimShift = [] {
  std::array<unsigned, kNumDims> out{};
  for (std::size_t d = 0; d < out.size(); ++d) {
    out[d] = static_cast<unsigned>(std::countr_zero(kDimFieldBits[d]));
  }
  return out;
}();

// Sharding only pays off when each shard gets a meaningful slice.
constexpr std::size_t kMinLeavesPerShard = 256;

// Partitions below this many leaves, or whose dimension has more than
// kCountingSpan values per leaf, are grouped by std::sort: a counting sort
// costs a pass over every possible value, which does not pay on them.
constexpr std::uint32_t kSortBelow = 48;
constexpr std::uint32_t kCountingSpan = 8;

// Leaves per block of the index build: a block's share of the CSR arrays
// (tens of ids per leaf) stays within a core's cache.
constexpr std::uint32_t kIndexBlock = 2048;

struct ExpandMetrics {
  obs::Counter& leaves;
  obs::Counter& cells;
};

ExpandMetrics& expand_metrics() {
  static ExpandMetrics metrics{
      obs::Registry::global().counter("expand.leaves"),
      obs::Registry::global().counter("expand.cells"),
  };
  return metrics;
}

/// The sorted leaves and the iceberg's parameters, shared read-only by
/// every shard.
struct IcebergInput {
  std::span<const std::uint64_t> keys;
  std::span<const ClusterStats> stats;
  std::vector<std::uint32_t> sessions;  // stats[i].sessions, packed
  std::array<std::uint32_t, kNumDims> span{};  // largest value + 1 per dim
  std::uint32_t floor = 1;
  int max_arity = kNumDims;

  [[nodiscard]] std::uint32_t value(std::uint32_t leaf, int d) const noexcept {
    const auto dim = static_cast<std::size_t>(d);
    return static_cast<std::uint32_t>((keys[leaf] & kDimFieldBits[dim]) >>
                                      kDimShift[dim]);
  }
};

/// A partition's run of leaves sharing one value of the partitioned
/// dimension: positions [lo, hi) of the partition's output.
struct Run {
  std::uint32_t lo;
  std::uint32_t hi;
  std::uint32_t value;
};

/// Cells of one mask in emission (key-ascending) order, with each cell's
/// leaves: cell c's leaves are members[member_end[c - 1] .. member_end[c]).
struct MaskCells {
  std::vector<std::uint64_t> keys;
  std::vector<ClusterStats> stats;
  std::vector<std::uint32_t> member_end;
  std::vector<std::uint32_t> members;
};

/// One first-dimension subtree: every cell whose highest dimension is
/// `dim` with that dimension's value fixed to run.value.  Its cells have
/// masks in [2^dim, 2^(dim+1)), stored at cells[mask - 2^dim].
struct Subtree {
  int dim = 0;
  Run run{};
  std::vector<MaskCells> cells;
};

/// One shard's reusable buffers.
struct IcebergScratch {
  std::vector<std::uint32_t> count;   // leaves per value, then run starts
  std::vector<std::uint32_t> sum;     // sessions per value
  std::vector<std::uint64_t> sorted;  // (value << 32 | leaf), small parts
  /// Per recursion depth: the partition output and its passing runs.
  std::array<std::vector<std::uint32_t>, kNumDims> level;
  std::array<std::vector<Run>, kNumDims> runs;
};

/// Groups the leaves src[0, n) by dimension d's value into `dst` and lists
/// in `out`, value ascending, the runs whose sessions reach the floor.
/// Grouping is stable, so a run of leaves that were ascending in `src`
/// stays ascending.  `dst` is left unwritten when no run passes.
// vq:hot
void partition(const IcebergInput& in, IcebergScratch& s,
               const std::uint32_t* src, std::uint32_t n, int d,
               std::vector<std::uint32_t>& dst, std::vector<Run>& out) {
  out.clear();
  dst.resize(n);
  const std::uint32_t span = in.span[static_cast<std::size_t>(d)];
  if (n < kSortBelow || span / kCountingSpan > n) {
    s.sorted.resize(n);
    for (std::uint32_t i = 0; i < n; ++i) {
      s.sorted[i] = std::uint64_t{in.value(src[i], d)} << 32 | src[i];
    }
    std::sort(s.sorted.begin(), s.sorted.end());
    for (std::uint32_t i = 0; i < n;) {
      const auto v = static_cast<std::uint32_t>(s.sorted[i] >> 32);
      std::uint32_t sessions = 0;
      std::uint32_t j = i;
      for (; j < n && (s.sorted[j] >> 32) == v; ++j) {
        sessions += in.sessions[static_cast<std::uint32_t>(s.sorted[j])];
      }
      if (sessions >= in.floor) out.push_back({i, j, v});
      i = j;
    }
    if (!out.empty()) {
      for (std::uint32_t i = 0; i < n; ++i) {
        dst[i] = static_cast<std::uint32_t>(s.sorted[i]);
      }
    }
    return;
  }

  s.count.assign(span, 0);
  s.sum.assign(span, 0);
  for (std::uint32_t i = 0; i < n; ++i) {
    const std::uint32_t v = in.value(src[i], d);
    ++s.count[v];
    s.sum[v] += in.sessions[src[i]];
  }
  std::uint32_t pos = 0;
  for (std::uint32_t v = 0; v < span; ++v) {
    const std::uint32_t c = s.count[v];
    if (c == 0) continue;
    if (s.sum[v] >= in.floor) out.push_back({pos, pos + c, v});
    s.count[v] = pos;
    pos += c;
  }
  if (out.empty()) return;
  for (std::uint32_t i = 0; i < n; ++i) {
    dst[s.count[in.value(src[i], d)]++] = src[i];
  }
}

/// Appends the cell (`mask`, `key`) over the leaves leaves[0, n).
void emit(const IcebergInput& in, Subtree& t, std::uint8_t mask,
          std::uint64_t key, const std::uint32_t* leaves, std::uint32_t n) {
  MaskCells& out = t.cells[mask - (1u << t.dim)];
  ClusterStats sum;
  for (std::uint32_t i = 0; i < n; ++i) sum += in.stats[leaves[i]];
  out.members.insert(out.members.end(), leaves, leaves + n);
  out.keys.push_back(key);
  out.stats.push_back(sum);
  out.member_end.push_back(static_cast<std::uint32_t>(out.members.size()));
}

/// The BUC recursion.  leaves[0, n) are the leaves of the cell (`mask`,
/// `key`), ascending, and reach the floor; emits every cell that refines
/// it by dimensions below `below` and reaches the floor, within the arity
/// cap.  Dimensions are taken highest first and runs value-ascending, so
/// each mask's cells are emitted in ascending key order, each with its
/// leaves ascending.
// vq:hot
void descend(const IcebergInput& in, IcebergScratch& s, Subtree& t,
             const std::uint32_t* leaves, std::uint32_t n, std::uint8_t mask,
             std::uint64_t key, int below, int arity) {
  if (arity >= in.max_arity || below == 0) return;
  if (n == 1) {
    // One leaf: every remaining projection is a cell with its counters.
    const std::uint64_t leaf_key = in.keys[leaves[0]];
    const unsigned free_dims = (1u << below) - 1;
    for (unsigned sub = free_dims; sub != 0; sub = (sub - 1) & free_dims) {
      if (arity + std::popcount(sub) > in.max_arity) continue;
      const auto m = static_cast<std::uint8_t>(mask | sub);
      emit(in, t, m, m | (leaf_key & kFieldMaskTable[m]), leaves, 1);
    }
    return;
  }
  const auto depth = static_cast<std::size_t>(arity);
  std::vector<std::uint32_t>& grouped = s.level[depth];
  std::vector<Run>& runs = s.runs[depth];
  for (int d = below - 1; d >= 0; --d) {
    partition(in, s, leaves, n, d, grouped, runs);
    for (const Run& r : runs) {
      const auto child = static_cast<std::uint8_t>(mask | (1u << d));
      const std::uint64_t child_key =
          key | child |
          std::uint64_t{r.value} << kDimShift[static_cast<std::size_t>(d)];
      emit(in, t, child, child_key, grouped.data() + r.lo, r.hi - r.lo);
      descend(in, s, t, grouped.data() + r.lo, r.hi - r.lo, child, child_key,
              d, arity + 1);
    }
  }
}

/// Builds the iceberg of the sorted leaves into `table`: the first-dimension
/// subtrees (run in parallel when sharded), then their concatenation in
/// canonical order and the CSR leaf index.
void build_iceberg(const IcebergInput& in, EpochClusterTable& table,
                   ThreadPool* pool, std::size_t shards) {
  const auto n = static_cast<std::uint32_t>(in.keys.size());
  std::vector<Subtree> subtrees;
  // Dimension d's top-level partition of the leaves; its subtrees read
  // their runs from it and never write it.
  std::array<std::vector<std::uint32_t>, kNumDims> top;
  {
    VQ_SPAN("expand.partition");
    IcebergScratch s;
    std::vector<std::uint32_t> all(n);
    for (std::uint32_t i = 0; i < n; ++i) all[i] = i;
    for (int d = kNumDims - 1; d >= 0; --d) {
      partition(in, s, all.data(), n, d, top[static_cast<std::size_t>(d)],
                s.runs[0]);
      for (const Run& r : s.runs[0]) subtrees.push_back({d, r, {}});
    }
  }
  const auto run_subtree = [&](Subtree& t, IcebergScratch& s) {
    t.cells.resize(std::size_t{1} << t.dim);
    const std::uint32_t* leaves =
        top[static_cast<std::size_t>(t.dim)].data() + t.run.lo;
    const std::uint32_t count = t.run.hi - t.run.lo;
    const auto mask = static_cast<std::uint8_t>(1u << t.dim);
    const std::uint64_t key =
        mask | std::uint64_t{t.run.value}
                   << kDimShift[static_cast<std::size_t>(t.dim)];
    emit(in, t, mask, key, leaves, count);
    descend(in, s, t, leaves, count, mask, key, t.dim, 1);
  };
  {
    VQ_SPAN("expand.iceberg");
    if (pool == nullptr || shards <= 1 || n < 2 * kMinLeavesPerShard ||
        subtrees.size() <= 1) {
      IcebergScratch s;
      for (Subtree& t : subtrees) run_subtree(t, s);
    } else {
      // Subtrees only read the shared input and write their own cells, so
      // shards pulling them in any order produce the same subtrees.
      std::atomic<std::size_t> next{0};
      pool->parallel_for(0, std::min(shards, subtrees.size()),
                         [&](std::size_t) {
                           IcebergScratch s;
                           for (std::size_t i = next++; i < subtrees.size();
                                i = next++) {
                             run_subtree(subtrees[i], s);
                           }
                         });
    }
  }

  VQ_SPAN("expand.index");
  // Subtrees are ordered by dimension descending, then value ascending, so
  // the subtrees holding mask m (highest dimension hb) are dimension hb's,
  // [dim_end[hb + 1], dim_end[hb]), already in key order.
  std::array<std::size_t, kNumDims + 1> dim_end{};
  for (int d = kNumDims - 1; d >= 0; --d) {
    std::size_t end = dim_end[static_cast<std::size_t>(d) + 1];
    while (end < subtrees.size() && subtrees[end].dim == d) ++end;
    dim_end[static_cast<std::size_t>(d)] = end;
  }
  const auto for_mask = [&](unsigned mask, auto&& fn) {
    const int hb = std::bit_width(mask) - 1;
    for (std::size_t i = dim_end[static_cast<std::size_t>(hb) + 1];
         i < dim_end[static_cast<std::size_t>(hb)]; ++i) {
      fn(subtrees[i].cells[mask - (1u << hb)]);
    }
  };

  // Concatenate the cells in canonical order, cutting each cell's
  // (ascending) leaves at leaf-block boundaries: block b's pieces, in id
  // order, are what the index build below needs for leaves of block b.
  struct Piece {
    const std::uint32_t* begin;
    const std::uint32_t* end;
    std::uint32_t id;
    std::uint32_t mask;
  };
  std::size_t total = 0;
  std::size_t entries = 0;
  for (unsigned mask = 1; mask <= kFullMask; ++mask) {
    for_mask(mask, [&](const MaskCells& c) {
      total += c.keys.size();
      entries += c.members.size();
    });
  }
  std::vector<std::vector<Piece>> pieces((n + kIndexBlock - 1) / kIndexBlock);
  std::array<std::uint32_t, kFullMask + 2> mask_offsets{};
  std::vector<std::uint64_t> keys;
  std::vector<ClusterStats> stats;
  keys.reserve(total);
  stats.reserve(total);
  for (unsigned mask = 1; mask <= kFullMask; ++mask) {
    mask_offsets[mask] = static_cast<std::uint32_t>(keys.size());
    for_mask(mask, [&](const MaskCells& c) {
      auto id = static_cast<std::uint32_t>(keys.size());
      std::uint32_t begin = 0;
      for (const std::uint32_t end : c.member_end) {
        const std::uint32_t* p = c.members.data() + begin;
        const std::uint32_t* const last = c.members.data() + end;
        while (p != last) {
          const std::uint32_t b = *p / kIndexBlock;
          const std::uint32_t* q =
              last[-1] / kIndexBlock == b
                  ? last
                  : std::lower_bound(p, last, (b + 1) * kIndexBlock);
          pieces[b].push_back({p, q, id, mask});
          p = q;
        }
        begin = end;
        ++id;
      }
      keys.insert(keys.end(), c.keys.begin(), c.keys.end());
      stats.insert(stats.end(), c.stats.begin(), c.stats.end());
    });
  }
  assert(keys.size() < CellStore::kNoCell);
  mask_offsets[kFullMask + 1] = static_cast<std::uint32_t>(keys.size());

  // The CSR index, one leaf block at a time so the block's slice of it
  // stays in cache.  Pieces come in id order, so each leaf's ids land in
  // ascending mask order.
  LeafCellIndex& index = table.leaf_index;
  index.projections.assign(n, MaskBits{});
  index.offsets.assign(std::size_t{n} + 1, 0);
  index.cell_ids.resize(entries);
  std::vector<std::uint32_t> cursor(kIndexBlock);
  for (std::uint32_t b = 0; b < pieces.size(); ++b) {
    const std::uint32_t lo = b * kIndexBlock;
    const std::uint32_t hi = std::min(n, lo + kIndexBlock);
    for (const Piece& piece : pieces[b]) {
      for (const std::uint32_t* p = piece.begin; p != piece.end; ++p) {
        index.projections[*p].set(piece.mask);
      }
    }
    for (std::uint32_t i = lo; i < hi; ++i) {
      cursor[i - lo] = index.offsets[i];
      index.offsets[i + 1] = index.offsets[i] +
                             static_cast<std::uint32_t>(
                                 index.projections[i].count());
    }
    for (const Piece& piece : pieces[b]) {
      for (const std::uint32_t* p = piece.begin; p != piece.end; ++p) {
        index.cell_ids[cursor[*p - lo]++] = piece.id;
      }
    }
  }
  table.clusters = CellStore::from_mask_major(std::move(keys),
                                              std::move(stats), mask_offsets);
}

/// Copies the fold's leaves into `index` in canonical order — ascending raw
/// key, which fixes the iteration order of every downstream per-leaf sweep
/// independent of hash-table layout and shard count — and fills the
/// iceberg input's per-leaf sessions and value spans.
void sort_leaves(const LeafFold& fold, LeafCellIndex& index,
                 IcebergInput& in) {
  VQ_SPAN("expand.sort_leaves");
  std::vector<std::pair<std::uint64_t, const ClusterStats*>> sorted;
  sorted.reserve(fold.leaves.size());
  fold.leaves.for_each([&](std::uint64_t raw, const ClusterStats& s) {
    sorted.emplace_back(raw, &s);
  });
  std::sort(sorted.begin(), sorted.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  index.leaf_keys.reserve(sorted.size());
  index.leaf_stats.reserve(sorted.size());
  in.sessions.reserve(sorted.size());
  for (const auto& [raw, stats] : sorted) {
    index.leaf_keys.push_back(raw);
    index.leaf_stats.push_back(*stats);
    in.sessions.push_back(stats->sessions);
    for (std::size_t d = 0; d < in.span.size(); ++d) {
      const auto v =
          static_cast<std::uint32_t>((raw & kDimFieldBits[d]) >> kDimShift[d]);
      in.span[d] = std::max(in.span[d], v + 1);
    }
  }
}

}  // namespace

std::uint64_t lattice_field_mask(std::uint8_t mask) noexcept {
  return kFieldMaskTable[mask & kFullMask];
}

EpochClusterTable expand_fold(const LeafFold& fold,
                              const ClusterEngineConfig& config,
                              ThreadPool* pool, std::size_t shards,
                              std::uint32_t floor) {
  if (config.max_arity < 1 || config.max_arity > kNumDims) {
    throw std::invalid_argument{"expand_fold: max_arity out of range"};
  }
  EpochClusterTable table;
  table.epoch = fold.epoch;
  table.root = fold.root;
  table.floor = floor;

  LeafCellIndex& index = table.leaf_index;
  IcebergInput in;
  sort_leaves(fold, index, in);
  in.keys = index.leaf_keys;
  in.stats = index.leaf_stats;
  in.floor = floor;
  in.max_arity = config.max_arity;
  build_iceberg(in, table, pool, shards);

  ExpandMetrics& metrics = expand_metrics();
  metrics.leaves.add(static_cast<std::uint64_t>(index.leaf_keys.size()));
  metrics.cells.add(static_cast<std::uint64_t>(table.clusters.size()));
  return table;
}

EpochClusterTable aggregate_epoch(std::span<const Session> sessions,
                                  const ProblemThresholds& thresholds,
                                  const ClusterEngineConfig& config,
                                  std::uint32_t epoch) {
  return expand_fold(fold_sessions(sessions, thresholds, epoch), config);
}

}  // namespace vq

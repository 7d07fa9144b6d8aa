#include "src/core/cluster_engine.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>

#include "src/core/columns.h"
#include "src/core/expand_kernels.h"
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

// Sharding only pays off when each shard gets a meaningful slice.
constexpr std::size_t kMinLeavesPerShard = 256;

// Inputs below this use a comparison sort instead of the LSD radix: the
// radix's per-pass fixed costs only amortize past ~1k keys.
constexpr std::size_t kRadixMinKeys = 1024;

struct ExpandMetrics {
  obs::Counter& leaves;
  obs::Counter& cells;
  obs::Counter& radix_bytes;
};

/// expand.radix_bytes is kStable: radix traffic is a pure function of the
/// per-mask source sizes (cell counts) and radix plans, and the source
/// choice is itself a deterministic function of those counts — independent
/// of shard count and SIMD kernel.
ExpandMetrics& expand_metrics() {
  static ExpandMetrics metrics{
      obs::Registry::global().counter("expand.leaves"),
      obs::Registry::global().counter("expand.cells"),
      obs::Registry::global().counter("expand.radix_bytes"),
  };
  return metrics;
}

/// Marker for "this mask folds straight from the leaf arrays" (either the
/// full mask itself or a mask whose cheapest source is the leaves).
constexpr std::uint32_t kLeafSource = 0xFFFFFFFFu;

/// One mask's aggregation output: distinct projected keys (ascending),
/// folded stats, and the rank map from the source's cell index to this
/// mask's local rank (for the LeafCellIndex).  `source` is the
/// index (into `masks`) of the already-aggregated parent this mask folded
/// from, or kLeafSource.
struct MaskCells {
  std::vector<std::uint64_t> keys;
  std::vector<ClusterStats> stats;
  std::vector<std::uint32_t> src_map;
  std::uint32_t source = kLeafSource;
};

/// True when projecting `source_mask`-sorted keys by `mask` yields a
/// non-decreasing sequence: every dim the source keeps beyond `mask` sits
/// strictly below mask's lowest dim, so dropping those fields (which occupy
/// the least-significant attribute bits) preserves the sort order and equal
/// projections form contiguous runs.  `mask` is never 0 (lattice_masks).
[[nodiscard]] bool prefix_aligned(std::uint8_t mask,
                                  std::uint8_t source_mask) noexcept {
  const unsigned extra = source_mask & ~static_cast<unsigned>(mask);
  return (extra >> std::countr_zero(static_cast<unsigned>(mask))) == 0;
}

/// Deterministic cost estimate for folding `mask` from a source of
/// `source_cells` cells: one scan when prefix-aligned, scan + radix passes
/// otherwise.  Pure function of cell counts, so the source choice — and
/// with it expand.radix_bytes — is shard- and kernel-invariant.
[[nodiscard]] std::uint64_t fold_cost(std::uint8_t mask,
                                      std::uint8_t source_mask,
                                      std::size_t source_cells) noexcept {
  const std::uint64_t passes =
      prefix_aligned(mask, source_mask)
          ? 0
          : static_cast<std::uint64_t>(radix_plan(mask).passes);
  return static_cast<std::uint64_t>(source_cells) * (1 + passes);
}

/// Unit of work: folds one mask's cells from its chosen
/// source (smallest already-aggregated strict superset, or the leaves).
/// Prefix-aligned sources fold in one linear run scan; otherwise the
/// (projected key, source row) pairs are radix-sorted first.  Because
/// ClusterStats addition is associative and commutative, folding source
/// cells gives bit-identical sums to folding the underlying leaves.
/// Returns the radix scatter traffic in bytes.
std::uint64_t expand_mask(std::size_t j,
                          const std::vector<std::uint8_t>& masks,
                          std::span<const std::uint64_t> leaf_keys,
                          std::span<const ClusterStats> leaf_stats,
                          BatchKernel kernel,
                          std::vector<MaskCells>& cells,
                          ExpandScratch& scratch) {
  const std::uint8_t mask = masks[j];
  MaskCells& out = cells[j];
  if (mask == kFullMask) {
    // Identity: the full-mask cells are the leaves themselves, already in
    // canonical ascending order; leaf i's local rank is i (no map needed).
    out.keys.assign(leaf_keys.begin(), leaf_keys.end());
    out.stats.assign(leaf_stats.begin(), leaf_stats.end());
    return 0;
  }
  const bool leaf_src = out.source == kLeafSource;
  const std::uint64_t* src_keys =
      leaf_src ? leaf_keys.data() : cells[out.source].keys.data();
  const ClusterStats* src_stats =
      leaf_src ? leaf_stats.data() : cells[out.source].stats.data();
  const std::size_t sn =
      leaf_src ? leaf_keys.size() : cells[out.source].keys.size();
  const std::uint8_t src_mask = leaf_src ? kFullMask : masks[out.source];

  {
    VQ_SPAN("expand.project");
    scratch.proj.resize(sn);
    project_keys(src_keys, sn, mask, scratch.proj.data(), kernel);
  }
  std::uint64_t radix_bytes = 0;
  const std::uint32_t* order = nullptr;  // identity permutation
  if (!prefix_aligned(mask, src_mask)) {
    VQ_SPAN("expand.sort");
    scratch.rows.resize(sn);
    for (std::size_t i = 0; i < sn; ++i) {
      scratch.rows[i] = static_cast<std::uint32_t>(i);
    }
    if (sn < kRadixMinKeys) {
      // Below the radix break-even the per-pass fixed costs (histogram
      // clears + 256-bucket prefix sums) dominate; an introsort on
      // (projected key, source row) produces the same stable order — row
      // ties broken ascending — at O(n log n) on a tiny n.  The threshold
      // depends only on the source's cell count, so the engine's
      // expand.radix_bytes stays shard- and kernel-invariant.
      std::sort(scratch.rows.begin(), scratch.rows.end(),
                [&](std::uint32_t a, std::uint32_t b) {
                  return scratch.proj[a] != scratch.proj[b]
                             ? scratch.proj[a] < scratch.proj[b]
                             : a < b;
                });
      scratch.key_scratch.resize(sn);
      for (std::size_t i = 0; i < sn; ++i) {
        scratch.key_scratch[i] = scratch.proj[scratch.rows[i]];
      }
      scratch.proj.swap(scratch.key_scratch);
    } else {
      radix_bytes =
          radix_sort_pairs(scratch.proj, scratch.rows, radix_plan(mask),
                           scratch.key_scratch, scratch.row_scratch);
    }
    order = scratch.rows.data();
  }

  VQ_SPAN("expand.accumulate");
  out.keys.reserve(sn);
  out.stats.reserve(sn);
  out.src_map.resize(sn);
  // Run-local accumulator: stats fold in registers and flush once per run,
  // instead of a read-modify-write into the stats vector per source cell.
  std::uint64_t prev = ~std::uint64_t{0};  // bit 63 of a packed key is 0
  ClusterStats run;
  for (std::size_t i = 0; i < sn; ++i) {
    const std::uint64_t v = scratch.proj[i];
    const std::uint32_t si =
        order == nullptr ? static_cast<std::uint32_t>(i) : order[i];
    if (v != prev) {
      if (prev != ~std::uint64_t{0}) {
        out.keys.push_back(prev);
        out.stats.push_back(run);
      }
      prev = v;
      run = src_stats[si];
    } else {
      run += src_stats[si];
    }
    // The open run's rank is the number of already-flushed runs.
    out.src_map[si] = static_cast<std::uint32_t>(out.keys.size());
  }
  if (prev != ~std::uint64_t{0}) {
    out.keys.push_back(prev);
    out.stats.push_back(run);
  }
  return radix_bytes;
}

/// Concatenates the per-mask cell arrays into the canonical sorted-mode
/// CellStore (mask-major, key-ascending) and returns each mask's dense-id
/// base for the LeafCellIndex rank-composition pass.
std::vector<std::uint32_t> assemble_mask_major(
    const std::vector<std::uint8_t>& masks, std::vector<MaskCells>& cells,
    EpochClusterTable& table) {
  VQ_SPAN("expand.merge");
  const std::size_t nm = masks.size();
  std::size_t total = 0;
  for (const MaskCells& c : cells) total += c.keys.size();
  assert(total < CellStore::kNoCell);

  std::vector<std::uint64_t> keys;
  std::vector<ClusterStats> stats;
  keys.reserve(total);
  stats.reserve(total);
  std::array<std::uint32_t, kFullMask + 2> offsets{};
  std::vector<std::uint32_t> base(nm, 0);
  std::size_t j = 0;
  std::uint32_t running = 0;
  for (unsigned mask = 0; mask <= kFullMask; ++mask) {
    offsets[mask] = running;
    if (j < nm && masks[j] == mask) {
      base[j] = running;
      keys.insert(keys.end(), cells[j].keys.begin(), cells[j].keys.end());
      stats.insert(stats.end(), cells[j].stats.begin(), cells[j].stats.end());
      running += static_cast<std::uint32_t>(cells[j].keys.size());
      ++j;
    }
  }
  offsets[kFullMask + 1] = running;
  table.clusters =
      CellStore::from_mask_major(std::move(keys), std::move(stats), offsets);
  return base;
}

/// The expansion, organised as a smallest-parent aggregation DAG: masks are
/// processed tier by tier in decreasing arity, and each mask folds from the cheapest already-computed
/// strict superset (one extra dim) instead of rescanning all leaves — the
/// data-cube trick.  Top-tier masks (and masks whose supersets are all
/// larger than the leaf array) fold straight from the leaves.  Sharding is
/// within a tier: every mask is folded whole by exactly one shard, so there
/// is no cross-shard merge or id remap and the output is independent of the
/// deterministic greedy LPT assignment.  LeafCellIndex rows come out of a
/// final rank-composition sweep: leaf -> full-mask rank is the leaf's own
/// index, and each mask's rank is a single src_map gather from its source's
/// rank, walked in topological (decreasing-arity) order per leaf.
void expand_lattice(std::span<const std::uint64_t> leaf_keys,
                    std::span<const ClusterStats> leaf_stats,
                    const std::vector<std::uint8_t>& masks, BatchKernel kernel,
                    EpochClusterTable& table, std::uint32_t* rows,
                    ThreadPool* pool, std::size_t shards) {
  const std::size_t num_leaves = leaf_keys.size();
  const std::size_t nm = masks.size();

  std::array<std::uint32_t, kFullMask + 1> index_of{};
  index_of.fill(kLeafSource);
  int max_arity = 0;
  for (std::uint32_t j = 0; j < nm; ++j) {
    index_of[masks[j]] = j;
    max_arity = std::max(max_arity, std::popcount(unsigned{masks[j]}));
  }

  std::vector<MaskCells> cells(nm);
  std::vector<std::uint64_t> cost(nm, 0);
  std::vector<std::uint32_t> topo;  // decreasing arity, ascending mask
  topo.reserve(nm);
  std::uint64_t radix_bytes = 0;
  const bool serial = pool == nullptr || shards <= 1 ||
                      num_leaves < 2 * kMinLeavesPerShard;
  ExpandScratch serial_scratch;

  for (int arity = max_arity; arity >= 1; --arity) {
    std::vector<std::uint32_t> tier;
    for (std::uint32_t j = 0; j < nm; ++j) {
      if (std::popcount(unsigned{masks[j]}) == arity) tier.push_back(j);
    }
    topo.insert(topo.end(), tier.begin(), tier.end());

    // Source selection: cheapest of the leaves and every one-dim-larger
    // superset aggregated in the previous tier.  Cell counts are data, not
    // schedule, so the choice is deterministic at any shard/kernel count.
    for (const std::uint32_t j : tier) {
      const std::uint8_t mask = masks[j];
      if (mask == kFullMask) continue;
      cells[j].source = kLeafSource;
      cost[j] = fold_cost(mask, kFullMask, num_leaves);
      for (int d = 0; d < kNumDims; ++d) {
        if ((mask >> d) & 1) continue;
        const std::uint32_t js =
            index_of[mask | static_cast<std::uint8_t>(1u << d)];
        if (js == kLeafSource) continue;
        const std::uint64_t c =
            fold_cost(mask, masks[js], cells[js].keys.size());
        if (c < cost[j]) {
          cost[j] = c;
          cells[j].source = js;
        }
      }
    }

    if (serial || tier.size() <= 1) {
      for (const std::uint32_t j : tier) {
        radix_bytes += expand_mask(j, masks, leaf_keys, leaf_stats, kernel,
                                   cells, serial_scratch);
      }
      continue;
    }
    // Greedy LPT over the fold-cost estimates (sort descending cost,
    // ascending index; assign to the least-loaded shard).
    const std::size_t num_shards = std::min(shards, tier.size());
    std::vector<std::uint32_t> order = tier;
    std::sort(order.begin(), order.end(),
              [&](std::uint32_t a, std::uint32_t b) {
                return cost[a] != cost[b] ? cost[a] > cost[b] : a < b;
              });
    std::vector<std::vector<std::uint32_t>> bucket(num_shards);
    std::vector<std::uint64_t> load(num_shards, 0);
    for (const std::uint32_t j : order) {
      std::size_t best = 0;
      for (std::size_t s = 1; s < num_shards; ++s) {
        if (load[s] < load[best]) best = s;
      }
      bucket[best].push_back(j);
      load[best] += cost[j];
    }
    // Tier masks only read cells[] written by earlier tiers and write
    // disjoint cells[j] slots, so the parallel_for join is the only
    // synchronisation needed.
    std::vector<std::uint64_t> shard_bytes(num_shards, 0);
    pool->parallel_for(0, num_shards, [&](std::size_t shard) {
      ExpandScratch scratch;
      for (const std::uint32_t j : bucket[shard]) {
        shard_bytes[shard] += expand_mask(j, masks, leaf_keys, leaf_stats,
                                          kernel, cells, scratch);
      }
    });
    for (const std::uint64_t b : shard_bytes) radix_bytes += b;
  }

  const std::vector<std::uint32_t> base =
      assemble_mask_major(masks, cells, table);

  // Rank composition: one pass over the leaves, each mask's id gathered
  // from its source's local rank through src_map, then the whole segment
  // shifted to global dense ids.  The topo walk is split into three
  // branch-free lists (full-mask / leaf-sourced / cell-sourced); list
  // order preserves the topo guarantee that a source's slot is written
  // before any mask that folds from it, because the full mask and every
  // leaf-sourced mask depend only on `i`, and `children` keeps topo
  // (decreasing-arity) order.
  VQ_SPAN("expand.merge");
  std::uint32_t full_j = kLeafSource;
  std::vector<std::pair<std::uint32_t, const std::uint32_t*>> leaf_fed;
  std::vector<std::tuple<std::uint32_t, std::uint32_t, const std::uint32_t*>>
      children;
  for (const std::uint32_t jj : topo) {
    const MaskCells& c = cells[jj];
    if (masks[jj] == kFullMask) {
      full_j = jj;
    } else if (c.source == kLeafSource) {
      leaf_fed.emplace_back(jj, c.src_map.data());
    } else {
      children.emplace_back(jj, c.source, c.src_map.data());
    }
  }
  const auto fill = [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      std::uint32_t* seg = rows + i * nm;
      if (full_j != kLeafSource) {
        seg[full_j] = static_cast<std::uint32_t>(i);
      }
      for (const auto& [jj, map] : leaf_fed) seg[jj] = map[i];
      for (const auto& [jj, src, map] : children) seg[jj] = map[seg[src]];
      for (std::size_t t = 0; t < nm; ++t) seg[t] += base[t];
    }
  };
  if (serial) {
    fill(0, num_leaves);
  } else {
    pool->parallel_for(0, shards, [&](std::size_t shard) {
      fill(num_leaves * shard / shards,
           num_leaves * (shard + 1) / shards);
    });
  }
  expand_metrics().radix_bytes.add(radix_bytes);
}

}  // namespace

EpochClusterTable expand_fold(const LeafFold& fold,
                              const ClusterEngineConfig& config,
                              ThreadPool* pool, std::size_t shards) {
  const std::vector<std::uint8_t> masks = lattice_masks(config.max_arity);

  EpochClusterTable table;
  table.epoch = fold.epoch;
  table.root = fold.root;

  // Canonical leaf order: ascending raw key.  This fixes the dense-id
  // assignment and the iteration order of every downstream per-leaf sweep,
  // independent of hash-table layout and shard count.
  std::vector<std::pair<std::uint64_t, const ClusterStats*>> sorted_leaves;
  sorted_leaves.reserve(fold.leaves.size());
  fold.leaves.for_each([&](std::uint64_t raw, const ClusterStats& s) {
    sorted_leaves.emplace_back(raw, &s);
  });
  std::sort(sorted_leaves.begin(), sorted_leaves.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });

  // SoA copies: the kernels batch over contiguous key/stat arrays, which
  // are stored on the table as the LeafCellIndex anyway.
  LeafCellIndex& index = table.leaf_index;
  index.leaf_keys.reserve(sorted_leaves.size());
  index.leaf_stats.reserve(sorted_leaves.size());
  for (const auto& [raw, stats] : sorted_leaves) {
    index.leaf_keys.push_back(raw);
    index.leaf_stats.push_back(*stats);
  }
  index.masks = masks;
  index.cell_rows.resize(index.leaf_keys.size() * masks.size());
  expand_lattice(index.leaf_keys, index.leaf_stats, masks,
                 config.expand_kernel, table, index.cell_rows.data(), pool,
                 shards);

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

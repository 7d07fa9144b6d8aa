// Structure-of-arrays session batches and the vectorized fold kernels.
//
// SessionColumns is the per-epoch engine's only session input.  The
// columnar trace format (gen/columnar.h) stores each epoch as seven u16
// attribute columns plus four metric columns, which the fold consumes
// directly; row inputs (a loaded SessionTable, rows off the serve queue)
// are converted first.
//
//   * problem_bits_columns — the per-metric threshold compares run over the
//     metric columns in SIMD batches (SSE2/AVX2 float compares; the scalar
//     fallback calls ProblemThresholds::problem_bits per element).  Both
//     paths are bit-identical: the scalar thresholds already compare in
//     float (session.cpp), which is exactly what the vector compares do.
//   * pack_leaf_keys_columns — full-arity ClusterKey packing as a
//     branch-free shift/OR sweep over the attribute columns, with the
//     per-dimension range check hoisted out of the inner loop (one column
//     max-scan per dimension instead of one branch per session per
//     dimension).
//   * fold_sessions_columns — pass 1 of the leaf-folded aggregation over a
//     SessionColumns batch, and the only per-session fold loop: the row
//     form fold_sessions (cluster_engine.h) converts and calls it.
//     tests/test_columns_fold.cpp checks it against the naive oracle
//     (tests/oracle.h) with both kernels across block boundaries.
//
// SessionColumns is also the unit of streaming: EpochColumnsSource is the
// abstract one-epoch-at-a-time feed run_pipeline_streaming (pipeline.h)
// consumes, letting `analyze` run at O(one epoch) memory over traces that
// never fit in RAM.  gen/columnar.h implements it over the on-disk format;
// TableColumnsSource below implements it over an in-memory SessionTable.

#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string_view>
#include <utility>
#include <vector>

#include "src/core/attributes.h"
#include "src/core/batch_kernel.h"
#include "src/core/session.h"

namespace vq {

struct LeafFold;

/// One batch of sessions in structure-of-arrays layout: column i of attrs
/// holds dimension i's value ids, metric columns are parallel to it.  All
/// columns always have equal length.  A batch carries no per-row epoch —
/// batches are built per epoch (the columnar format stores one epoch per
/// chunk), and the epoch id travels alongside.
struct SessionColumns {
  std::array<std::vector<std::uint16_t>, kNumDims> attrs;
  std::vector<float> buffering_ratio;
  std::vector<float> bitrate_kbps;
  std::vector<float> join_time_ms;
  std::vector<std::uint8_t> join_failed;  // 0 or 1

  [[nodiscard]] std::size_t size() const noexcept {
    return join_failed.size();
  }
  [[nodiscard]] bool empty() const noexcept { return join_failed.empty(); }

  /// Empties every column; capacity is retained so a streaming reader can
  /// reuse one batch across epochs without reallocating.
  void clear() noexcept;

  void reserve(std::size_t n);

  void push_back(const Session& s);

  /// Row view of element i (materialising a columnar trace into rows).
  [[nodiscard]] Session row(std::size_t i, std::uint32_t epoch) const;

  /// Builds the batch from row-wise sessions. Every session must carry
  /// `epoch`; throws std::invalid_argument otherwise.
  static SessionColumns from_sessions(std::span<const Session> sessions,
                                      std::uint32_t epoch);
};

/// Problem bitmask per element: out[i] has bit m set iff element i is a
/// problem session for metric m, exactly as ProblemThresholds::problem_bits
/// computes it.  `out.size()` must equal `columns.size()`.
void problem_bits_columns(const SessionColumns& columns,
                          const ProblemThresholds& thresholds,
                          std::span<std::uint8_t> out,
                          BatchKernel kernel = BatchKernel::kAuto);

/// Full-arity leaf key per element: out[i] ==
/// ClusterKey::pack(kFullMask, row i attrs).raw().  Value ids must fit
/// their field widths; throws std::out_of_range naming the offending
/// dimension otherwise (checked column by column, so a batch with several
/// bad values reports the lowest offending dimension, not the first bad
/// row's).  `out.size()` must equal `columns.size()`.
void pack_leaf_keys_columns(const SessionColumns& columns,
                            std::span<std::uint64_t> out,
                            BatchKernel kernel = BatchKernel::kAuto);

/// Pass-1 leaf fold over a column batch, identical for both kernels.  The
/// two hot kernels above run over fixed-size blocks so scratch stays
/// cache-resident regardless of epoch size.
[[nodiscard]] LeafFold fold_sessions_columns(
    const SessionColumns& columns, const ProblemThresholds& thresholds,
    std::uint32_t epoch, BatchKernel kernel = BatchKernel::kAuto);

/// Name of the widest kernel kAuto resolves to in this build ("avx2",
/// "sse2", or "scalar") — benchmark/report labelling only.
[[nodiscard]] std::string_view batch_kernel_name() noexcept;

/// Abstract one-epoch-at-a-time session feed, the streaming counterpart of
/// SessionTable.  Implementations: gen/columnar.h's ColumnarReader (reads
/// one column chunk per call at O(one epoch) memory) and TableColumnsSource
/// below.  Epochs with no sessions yield an empty batch.
class EpochColumnsSource {
 public:
  virtual ~EpochColumnsSource() = default;

  /// Epochs spanned (max epoch + 1), known up front (e.g. from the footer
  /// index) so per-epoch result vectors can be sized before streaming.
  [[nodiscard]] virtual std::uint32_t num_epochs() const = 0;

  /// Replaces `out`'s contents with epoch e's sessions, in trace order.
  /// Returns true when the epoch is degraded — rows were lost to
  /// quarantine, checksum failure, or truncation — mirroring the
  /// IngestReport::degraded_epochs annotation of the in-RAM readers.
  /// Throws on unrecoverable input errors (strict-policy readers).
  virtual bool read_epoch(std::uint32_t e, SessionColumns& out) = 0;
};

/// EpochColumnsSource over an in-memory SessionTable: read_epoch converts
/// one epoch's rows to columns in place (reusing `out`'s capacity) and
/// reports the epochs listed in `degraded` (sorted ascending, e.g.
/// IngestReport::degraded_epochs) as degraded.
class TableColumnsSource final : public EpochColumnsSource {
 public:
  explicit TableColumnsSource(const SessionTable& table,
                              std::vector<std::uint32_t> degraded = {})
      : table_{table}, degraded_{std::move(degraded)} {}

  [[nodiscard]] std::uint32_t num_epochs() const override {
    return table_.num_epochs();
  }
  bool read_epoch(std::uint32_t e, SessionColumns& out) override;

 private:
  const SessionTable& table_;
  std::vector<std::uint32_t> degraded_;
};

}  // namespace vq

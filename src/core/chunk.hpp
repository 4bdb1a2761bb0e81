// Self-describing result chunks for the sharded sweep fabric.
//
// `pimsim sweep ... shard=i/N out=DIR` runs one deterministic shard of a
// declarative grid and writes a chunk — the shard's rendered per-point
// blocks (CSV/text/JSON, byte-identical to the unsharded output) plus a
// JSON sidecar (schema "pimsim-chunk-v1": grid fingerprint, per-point
// FNV-1a fingerprints, the shard's per-simulation obs::MetricsHub
// snapshots, wall time) and an idempotent `manifest.json` describing the
// whole grid ("pimsim-manifest-v1").  `pimsim merge DIR` validates every
// chunk against the manifest — missing, duplicate, corrupted, and
// divergent-fingerprint chunks are detected, not merged — and emits the
// merged table byte-identical to an unsharded run.  Because every point
// is bitwise deterministic (PRs 1/6), a complete, fingerprint-valid
// chunk is a cache: rerunning its shard is a no-op skip, so a killed
// multi-hour sweep restarts in seconds.  See docs/SWEEPS.md.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace pimsim::core {

/// One sweep unit's output inside a chunk.  In a plain grid a unit is a
/// point and `block` holds its rendered bytes; in a replicated grid
/// (docs/REPLICATION.md) a unit is one (point, rep) replication and
/// `block` holds the exact "pimsim-rep-v1" serialization of its table,
/// which `pimsim merge` refolds bit-for-bit.
struct ChunkPoint {
  std::size_t point = 0;          ///< global grid index
  std::size_t rep = 0;            ///< replication index (replicated grids)
  std::string assignment;         ///< swept-axis "k=v ..." summary (may be empty)
  std::string block;              ///< rendered block, or serialized rep table
  std::uint64_t fingerprint = 0;  ///< FNV-1a 64 of `block`
};

/// Grid identity shared by the manifest and every chunk of one sweep.
/// When any point requests reps > 1 the grid is *replicated*: the shard
/// plan assigns (point, rep) units instead of points, so the replication
/// axis shards like any other.  Non-replicated grids leave the unit
/// vectors empty and their manifest/chunk bytes are unchanged from
/// pimsim-manifest-v1 as written before the replication engine existed.
struct GridSpec {
  std::string scenario;
  std::string format;                    ///< "text" | "csv" | "json"
  std::size_t shards = 1;
  std::uint64_t grid_fingerprint = 0;    ///< FNV-1a of the canonical grid text
  std::vector<std::string> assignments;  ///< per point, in grid order
  std::vector<std::size_t> shard_of;     ///< planned shard per point (or of
                                         ///< the point's rep-0 unit)
  bool replicated = false;               ///< any point's reps > 1
  std::vector<std::size_t> point_reps;   ///< per point; empty when !replicated
  std::vector<std::size_t> unit_point;   ///< per unit, in grid order
  std::vector<std::size_t> unit_rep;     ///< per unit, in grid order
  std::vector<std::size_t> unit_shard;   ///< planned shard per unit
};

/// A chunk read back from disk (sidecar + rendered blocks, validated).
struct ChunkData {
  std::size_t shard = 0;
  double wall_seconds = 0.0;
  std::vector<ChunkPoint> points;        ///< in grid order
  std::vector<std::string> metrics;      ///< per-simulation snapshot bytes
};

/// "chunk-<i>-of-<N>" — basename of a chunk's .csv/.json pair.
[[nodiscard]] std::string chunk_basename(std::size_t shard, std::size_t shards);

/// Creates `dir` if needed and writes (or re-validates) `manifest.json`.
/// The manifest bytes are a pure function of the grid, so concurrent
/// shard processes write identical files; a directory already holding a
/// *different* sweep's manifest throws InvalidArgument instead of mixing
/// two grids' chunks.
void write_or_check_manifest(const std::string& dir, const GridSpec& grid);

/// Writes `chunk_basename(shard).{csv,json}` atomically (tmp + rename).
/// `points` must be this shard's points in grid order with blocks and
/// fingerprints filled in; `metrics` is the shard's snapshot_bytes().
void write_chunk(const std::string& dir, const GridSpec& grid,
                 std::size_t shard, const std::vector<ChunkPoint>& points,
                 const std::vector<std::string>& metrics, double wall_seconds);

/// True when the shard's chunk exists and validates against `grid`
/// (sidecar parses, grid fingerprint and planned point set match, every
/// block's bytes match its recorded fingerprint) — the resume check.  It
/// runs read_chunk's checks on one read of each file and copies no block;
/// a chunk that fails any of them is reported incomplete, so it is
/// recomputed.
[[nodiscard]] bool chunk_complete(const std::string& dir, const GridSpec& grid,
                                  std::size_t shard);

/// Reads manifest.json back into a GridSpec (shard_of per point, no
/// weights needed).  Throws InvalidArgument when missing or malformed.
[[nodiscard]] GridSpec read_manifest(const std::string& dir);

/// Reads and fully validates one chunk against `grid`.  Each file is read
/// once and parsed in place; every block is hashed once, in that buffer,
/// and copied once, into its ChunkPoint.  Throws InvalidArgument naming
/// the file and the defect (missing, truncated, trailing bytes, grid
/// mismatch, wrong point set, assignment or fingerprint divergence,
/// malformed metrics hex).
[[nodiscard]] ChunkData read_chunk(const std::string& dir,
                                   const GridSpec& grid, std::size_t shard);

/// Shard ids of the well-formed chunk sidecars present in `dir`.  A file
/// named chunk-* that does not parse as chunk-<i>-of-<N>.{csv,json} with
/// N == grid.shards and i < N throws InvalidArgument (unknown chunk-dir
/// contents are rejected, not skipped); other filenames are ignored.
[[nodiscard]] std::vector<std::size_t> chunks_present(const std::string& dir,
                                                      const GridSpec& grid);

}  // namespace pimsim::core

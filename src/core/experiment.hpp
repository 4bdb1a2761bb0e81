// Parameter sweeps and replicated measurements.
//
// The paper's methodology is "statistical steady-state parametric models
// ... varied across suitable ranges"; these helpers generate the ranges
// and run each point over several seeds to attach confidence intervals.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/table.hpp"

namespace pimsim::core {

/// {1, 2, 4, ..., <= max} — the node-count axes of Figures 5, 6 and 12.
[[nodiscard]] std::vector<std::size_t> pow2_range(std::size_t max);

/// `count` evenly spaced values over [lo, hi] inclusive.
[[nodiscard]] std::vector<double> linspace(double lo, double hi,
                                           std::size_t count);

/// {0.0, 0.1, ..., 1.0} — the %WL axis of Figures 5-7.
[[nodiscard]] std::vector<double> fraction_range(std::size_t steps = 10);

// --- table-level replication engine (docs/REPLICATION.md) -----------------
//
// `run_scenario` drives any scenario declaring a `reps` knob through R
// seed-streamed replications of its generator and folds the R tables into
// one with a `<col> ±` half-width companion per column.  The helpers are
// public because the sharded sweep fabric computes single replications in
// separate OS processes and refolds them at merge time, byte-identical to
// the unsharded fold.

/// The per-replication seeds for `reps` replications of `base_seed`: the
/// first `reps` outputs of SplitMix64(base_seed).  Replication r is
/// reproducible from
/// (base_seed, r) alone — independent of event interleaving, thread
/// count, and which process computes it.
[[nodiscard]] std::vector<std::uint64_t> replication_seeds(
    std::size_t reps, std::uint64_t base_seed);

/// Folds the per-replication tables of one run into the rendered result:
/// every column `C` gains a companion `C ±` holding the Student-t
/// half-width at `level`.  String cells (and int cells identical across
/// replications) must agree and keep their type with an empty / zero
/// companion; numeric cells fold through a RunningStats in replication
/// order, so refolding deserialized tables reproduces the fold bitwise.
/// A single table is returned unchanged (reps=1 adds no columns).
[[nodiscard]] Table fold_replications(const std::vector<Table>& tables,
                                      double level = 0.95);

/// Exact, self-describing serialization of one replication's table
/// ("pimsim-rep-v1"): doubles are stored as hex bit patterns, so
/// deserialize_table(serialize_table(t)) reproduces every cell bit for
/// bit — the property that makes sharded replication merges byte-
/// identical to unsharded runs.
[[nodiscard]] std::string serialize_table(const Table& table);
/// Inverse of serialize_table; throws InvalidArgument on malformed bytes
/// (a corrupted chunk must be detected, not merged).
[[nodiscard]] Table deserialize_table(const std::string& bytes);

}  // namespace pimsim::core

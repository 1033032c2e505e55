#pragma once
// alps::obs flight recorder — "leave a usable corpse" (DESIGN.md §8).
//
// panic_dump(reason) writes a diagnostics bundle into ALPS_DUMP_DIR
// (default "alps_dump"):
//
//   reason.txt           what tripped, free text
//   trace.json           Chrome trace of the spans recorded so far
//                        (last-N per rank — the ring keeps the newest)
//   counters.json        merged counter registry (all ranks summed)
//   phases.json          cross-rank phase breakdown table
//   residuals.json       recent solver residual histories / AMG factors
//   telemetry_tail.jsonl the last telemetry records (even when the
//                        telemetry file sink was off)
//
// Callers add collective artifacts (e.g. a VTK field snapshot) into the
// same directory themselves — panic_dump only writes obs-owned state and
// must therefore be called from ONE thread while the other rank threads
// are quiescent (parked at a barrier, or joined). rhea::Simulation trips
// it on NaN/Inf sentinels and solver breakdown; anything can call it
// explicitly.

#include <string>
#include <vector>

#include "obs/obs.hpp"

namespace alps::obs {

/// A phase breakdown table as a JSON array of {name, min_s, median_s,
/// max_s, mean_s, total_s, imbalance, ranks} objects, non-finite values
/// as null: the bundle's phases.json and every BENCH_*.json's "phases".
std::string phases_json(const std::vector<PhaseBreakdown>& phases);

/// Directory the next dump will be written to: ALPS_DUMP_DIR or
/// "alps_dump". Created on demand by panic_dump.
std::string dump_dir();

/// Write the diagnostics bundle; returns the directory written to.
/// Never throws — a flight recorder that crashes the crash handler is
/// worse than useless; file errors are reported on stderr and skipped.
std::string panic_dump(const std::string& reason) noexcept;

}  // namespace alps::obs

// Shared pieces of the benchmark: clocks, engine mixes, seeded cohorts
// and the serial reference every window is checked against.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "qpsa/core/quality_controller.hpp"
#include "qpsa/core/streaming_monitor.hpp"
#include "qpsa/physio/ipfm.hpp"
#include "qpsa/service/session.hpp"

namespace perfbench {

namespace qc = qpsa::core;
namespace qs = qpsa::service;

double wall_s();
/// Process CPU time, all threads (CLOCK_PROCESS_CPUTIME_ID).
double cpu_s();
/// Peak resident set size of the process so far.
double rss_peak_mb();

/// Run fn(i) for i in [0, n) on `threads` threads (untimed helper work:
/// input generation and the serial reference).
void parallel_for(std::size_t n, std::size_t threads,
                  const std::function<void(std::size_t)>& fn);

/// One row of an engine mix: a label for per-engine metrics and the
/// analysis configuration sessions on that row run.
struct mix_row {
    std::string label;
    qc::psa_config cfg;
};

/// The eight standard engine kinds of the service mix.
std::vector<mix_row> standard_mix();
/// The standard mix plus the two recursive wavelet-packet trees.
std::vector<mix_row> scheduler_mix();
/// The standard kinds hop-aligned (Welch doubled).
std::vector<mix_row> aligned_mix();

/// Conventional -> Q15 -> pruned ladder of the governed ward_replay sessions.
std::shared_ptr<const qc::quality_controller> degradation_ladder();

qc::monitor_options paper_monitor();

/// Seeded patient records: IPFM parameters drawn from (seed, index).
struct cohort {
    std::vector<qpsa::physio::rr_record> records;
    std::vector<std::string> patient_ids;
};
cohort make_cohort(std::uint64_t seed, std::size_t sessions, double record_s,
                   std::size_t threads);

/// Serial reference of one session: a lone streaming_monitor over beats
/// [0, beats) of the record, replaying a governed session's mode
/// schedule (`ladder` non-null) exactly as the session applied it.
std::vector<qc::window_report> serial_reference(
    const qpsa::physio::rr_record& rec, std::size_t beats,
    const qc::psa_config& cfg, const qc::system_factory& factory,
    const qc::quality_controller* ladder,
    std::span<const qs::mode_switch_event> schedule);

/// Expected windows missing from, or differing in `got` (extra windows
/// count as failures too).
std::uint64_t count_failed(std::span<const qc::window_report> got,
                           std::span<const qc::window_report> want);

}  // namespace perfbench

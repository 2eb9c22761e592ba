// The qpsa fleet benchmark: three seeded closed-loop workloads driven
// through the public API of qpsa::service, qpsa::journal and qpsa::net,
// each output checked against a serial streaming_monitor reference.
//
// run_workload() is the whole benchmark for one workload; main.cpp only
// parses arguments and prints the report.  It lives in a library so the
// benchmark's own tests can run it twice on one seed.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

struct options {
    std::string workload;
    std::uint64_t seed = 1;
    /// Length of the measured phase (wall seconds).
    double seconds = 10.0;
    /// Traced run: per-layer metrics instead of end-to-end ones.
    bool trace = false;
    /// Directory for the journals of a run (created if missing).
    std::string scratch_dir = ".";
    /// Where a traced run writes its spans as CSV (empty: not written).
    std::string spans_path;
    /// Test seam, not on the command line: worker threads (0 = every
    /// hardware thread) and cohort overrides for small runs (0 = the
    /// workload's default).
    std::size_t threads = 0;
    std::size_t sessions = 0;
    double record_s = 0.0;
};

struct metric {
    std::string name;
    double value = 0.0;
    std::string unit;
    /// Shown on the human-readable report line only (sample counts, the
    /// percentile a tail metric actually used).
    std::string note;
};

struct report {
    bool correct = true;
    /// Windows expected from the serial reference, summed over the run.
    std::uint64_t attempted = 0;
    /// Expected windows that were missing or not bit-identical.
    std::uint64_t failed = 0;
    std::vector<metric> end_to_end;
    std::vector<metric> per_layer;
    /// Context lines (hardware, build, workload shape, check failures).
    std::vector<std::string> notes;

    void e2e(std::string name, double value, std::string unit,
             std::string note = {}) {
        end_to_end.push_back({std::move(name), value, std::move(unit),
                              std::move(note)});
    }
    void layer(std::string name, double value, std::string unit,
               std::string note = {}) {
        per_layer.push_back({std::move(name), value, std::move(unit),
                             std::move(note)});
    }
    const metric* find(std::string_view name) const {
        for (const auto* list : {&end_to_end, &per_layer})
            for (const metric& m : *list)
                if (m.name == name) return &m;
        return nullptr;
    }
};

/// Run one workload; throws std::invalid_argument on an unknown name.
report run_workload(const options& opt);

/// Heap allocations made by this process so far (every thread): the
/// benchmark replaces the global operator new to count them.
std::uint64_t heap_allocs() noexcept;

}  // namespace perfbench

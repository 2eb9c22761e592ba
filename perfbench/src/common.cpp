#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <atomic>
#include <cstdio>
#include <ctime>
#include <thread>

#include "qpsa/util/random.hpp"

namespace perfbench {

double wall_s() {
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double cpu_s() {
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double rss_peak_mb() {
    rusage u{};
    getrusage(RUSAGE_SELF, &u);
    return static_cast<double>(u.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

void parallel_for(std::size_t n, std::size_t threads,
                  const std::function<void(std::size_t)>& fn) {
    threads = std::max<std::size_t>(1, std::min(threads, n));
    std::atomic<std::size_t> next{0};
    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (std::size_t t = 0; t < threads; ++t)
        pool.emplace_back([&] {
            for (std::size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1))
                fn(i);
        });
    for (auto& th : pool) th.join();
}

std::vector<mix_row> standard_mix() {
    using qpsa::wfft::plan;
    using qpsa::wavelet::basis;
    return {
        {"conventional", qc::psa_config::conventional()},
        {"wavelet_exact", qc::psa_config::proposed(plan::exact(512, basis::haar))},
        {"wavelet_pruned",
         qc::psa_config::proposed(plan::static_pruned(
             512, basis::haar, qpsa::wfft::twiddle_set::set2))},
        {"fixed_q15", qc::psa_config::fixed_wavelet(qc::fixed_format::q15)},
        {"fixed_q31", qc::psa_config::fixed_wavelet(qc::fixed_format::q31)},
        {"burg", qc::psa_config::burg_ar()},
        {"resampled", qc::psa_config::resampled()},
        {"welch", qc::psa_config::welch()},
    };
}

std::vector<mix_row> scheduler_mix() {
    using qpsa::wfft::plan;
    using qpsa::wavelet::basis;
    auto mix = standard_mix();
    mix.push_back({"wavelet_rec_exact",
                   qc::psa_config::proposed(plan::exact(
                       512, basis::haar, qpsa::wfft::tree_mode::recursive))});
    mix.push_back({"wavelet_rec_pruned",
                   qc::psa_config::proposed(plan::static_pruned(
                       512, basis::haar, qpsa::wfft::twiddle_set::set2,
                       qpsa::wfft::tree_mode::recursive))});
    return mix;
}

std::vector<mix_row> aligned_mix() {
    // Mesh engines move to Lagrange extirpolation on the fixed 120 s span
    // (one hop = 256 mesh cells, the aligned-mesh condition); the
    // whole-window estimators align for series / segment reuse.
    const auto aligned = [](mix_row row, bool mesh) {
        if (mesh) row.cfg.lomb.mesh = qpsa::lomb::mesh_mode::lagrange_extirpolation;
        row.cfg.lomb.ofac = 1.0;
        row.cfg.lomb.span_override = 120.0;
        row.cfg.lomb.hop_aligned = true;
        return row;
    };
    const auto std_rows = standard_mix();
    std::vector<mix_row> mix;
    for (const auto& row : std_rows) {
        if (row.label == "burg") continue;  // no hop-aware path
        const bool whole = row.label == "resampled" || row.label == "welch";
        mix_row r = row;
        if (row.label == "welch") r.cfg = qc::psa_config::welch(4.0, 30.0);
        mix.push_back(aligned(r, !whole));
    }
    mix.push_back(mix.back());  // Welch doubled: the deepest reuse site
    mix.back().label = "welch_b";
    return mix;
}

std::shared_ptr<const qc::quality_controller> degradation_ladder() {
    std::vector<qc::mode_profile> table(3);
    table[0].name = "conventional";
    table[0].spec = qc::conventional_spec{};
    table[1].name = "fixed-q15";
    table[1].spec = qc::fixed_wavelet_spec{qc::fixed_format::q15};
    table[1].expected_error_pct = 2.0;
    table[1].expected_savings_vfs = 0.35;
    table[2].name = "pruned";
    table[2].spec = qc::wavelet_spec{qpsa::wfft::plan::static_pruned(
        512, qpsa::wavelet::basis::haar, qpsa::wfft::twiddle_set::set2)};
    table[2].expected_error_pct = 7.0;
    table[2].expected_savings_vfs = 0.6;
    return std::make_shared<const qc::quality_controller>(std::move(table));
}

qc::monitor_options paper_monitor() {
    qc::monitor_options opt;
    opt.window_seconds = 120.0;
    opt.hop_seconds = 60.0;
    return opt;
}

cohort make_cohort(std::uint64_t seed, std::size_t sessions, double record_s,
                   std::size_t threads) {
    cohort c;
    c.records.resize(sessions);
    c.patient_ids.resize(sessions);
    parallel_for(sessions, threads, [&](std::size_t i) {
        // Parameter ranges of the physio patient bank; the draw comes from
        // the benchmark seed, so each seed is a different cohort.
        qpsa::util::rng prng(qpsa::util::derive_stream_seed(seed, 2 * i));
        qpsa::physio::ipfm_params p;
        p.mean_rr_s = prng.uniform(0.70, 1.00);
        p.f_lf_hz = prng.uniform(0.085, 0.110);
        p.f_hf_hz = prng.uniform(0.21, 0.31);
        p.phase_lf = prng.uniform(0.0, qpsa::two_pi);
        p.phase_hf = prng.uniform(0.0, qpsa::two_pi);
        p.vlf_sigma = prng.uniform(0.004, 0.008);
        p.jitter_sigma = prng.uniform(0.002, 0.004);
        p.hf_drift_fraction = prng.uniform(0.03, 0.10);
        p.hf_drift_period_s = prng.uniform(400.0, 900.0);
        if (i % 2 == 0) {  // sinus arrhythmia: HF dominant
            p.a_hf = prng.uniform(0.070, 0.090);
            p.a_lf = p.a_hf * prng.uniform(0.52, 0.60);
        } else {  // healthy: LF dominant
            p.a_lf = prng.uniform(0.055, 0.075);
            p.a_hf = p.a_lf * prng.uniform(0.35, 0.55);
        }
        qpsa::util::rng gen(qpsa::util::derive_stream_seed(seed, 2 * i + 1));
        c.records[i] = qpsa::physio::generate_ipfm(p, record_s, gen);
        char id[48];
        std::snprintf(id, sizeof id, "p%llu-%zu",
                      static_cast<unsigned long long>(seed), i);
        c.patient_ids[i] = id;
    });
    return c;
}

std::vector<qc::window_report> serial_reference(
    const qpsa::physio::rr_record& rec, std::size_t beats,
    const qc::psa_config& cfg, const qc::system_factory& factory,
    const qc::quality_controller* ladder,
    std::span<const qs::mode_switch_event> schedule) {
    // A governed session starts in the full-charge mode.
    qc::streaming_monitor mon(
        ladder != nullptr ? ladder->select(0.0).apply_to(cfg) : cfg,
        paper_monitor(), factory);
    std::vector<qc::window_report> out;
    std::size_t next = 0;
    for (std::size_t b = 0; b < beats; ++b) {
        mon.push_beat(rec.beat_time_s[b], rec.rr_s[b]);
        while (auto rep = mon.poll()) {
            out.push_back(*rep);
            if (ladder != nullptr && next < schedule.size() &&
                out.size() == schedule[next].window_index) {
                mon.set_config(
                    ladder->profiles()[schedule[next].mode_index].apply_to(cfg));
                ++next;
            }
        }
    }
    return out;
}

std::uint64_t count_failed(std::span<const qc::window_report> got,
                           std::span<const qc::window_report> want) {
    const std::size_t common = std::min(got.size(), want.size());
    std::uint64_t failed = std::max(got.size(), want.size()) - common;
    for (std::size_t w = 0; w < common; ++w)
        if (!(got[w] == want[w])) ++failed;
    return failed;
}

}  // namespace perfbench

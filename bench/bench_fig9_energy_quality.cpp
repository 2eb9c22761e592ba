// Fig. 9: energy-quality trade-offs of the proposed PSA system.
//
// Paper: static pruning (band drop combined with 20/40/60 % twiddle
// drops) saves up to 51 % energy at up to 9.2 % LFP/HFP distortion; with
// VFS the savings reach 82 %; dynamic pruning limits the distortion at
// ~10 % energy overhead versus static.
#include <iostream>

#include "common.hpp"
#include "qpsa/energy/node_model.hpp"
#include "qpsa/util/stats.hpp"
#include "qpsa/wfft/calibration.hpp"

using namespace qpsa;

int main() {
    const std::size_t n = 512;
    const unsigned patients = 8;
    const real seconds = 1200.0;
    util::print_section(std::cout,
                        "Fig. 9 -- energy savings vs LFP/HFP distortion "
                        "(static & dynamic pruning, with and without VFS)");

    const auto train_inputs = bench::harvest_fft_inputs(4, 900.0, n);
    const auto cal =
        wfft::calibrate(wfft::plan::exact(n, wavelet::basis::haar), train_inputs);
    const energy::node_model node;

    struct mode_def {
        std::string label;
        bool dynamic;
        wfft::twiddle_set set;
        bool band_only;
    };
    const std::vector<mode_def> defs = {
        {"band drop", false, wfft::twiddle_set::none, true},
        {"band+set1 (20%)", false, wfft::twiddle_set::set1, false},
        {"band+set2 (40%)", false, wfft::twiddle_set::set2, false},
        {"band+set3 (60%)", false, wfft::twiddle_set::set3, false},
        {"band drop", true, wfft::twiddle_set::none, true},
        {"band+set1 (20%)", true, wfft::twiddle_set::set1, false},
        {"band+set2 (40%)", true, wfft::twiddle_set::set2, false},
        {"band+set3 (60%)", true, wfft::twiddle_set::set3, false},
    };

    auto make_plan = [&](const mode_def& d) {
        if (!d.dynamic)
            return d.band_only
                       ? wfft::plan::band_dropped(n, wavelet::basis::haar)
                       : wfft::plan::static_pruned(n, wavelet::basis::haar, d.set);
        wfft::plan p = wfft::plan::dynamic_pruned(n, wavelet::basis::haar, d.set,
                                                  0.0, cal.band_threshold);
        if (!d.band_only)
            p.prune.data_threshold = wfft::tune_data_threshold(
                p, wfft::set_fraction(d.set), train_inputs, cal);
        return p;
    };

    const core::psa_system conventional(core::psa_config::conventional(n));

    util::table t({"mode", "pruning", "err%", "perf gain (FFT)",
                   "savings", "savings+VFS", "savings+VFS (FFT block)"});

    for (const auto& d : defs) {
        const core::psa_system sys(core::psa_config::proposed(make_plan(d)));
        util::running_stats err;
        util::running_stats sav;
        util::running_stats sav_vfs;
        util::running_stats sav_vfs_fft;
        util::running_stats perf_fft;
        for (unsigned i = 0; i < patients; ++i) {
            const auto rec = physio::record_for(
                physio::make_patient(physio::cohort::sinus_arrhythmia, i),
                seconds);
            const auto rc =
                conventional.analyze_record(rec.beat_time_s, rec.rr_s);
            const auto rp = sys.analyze_record(rec.beat_time_s, rec.rr_s);
            err.add(100.0 * std::abs(rp.lf_hf_ratio() - rc.lf_hf_ratio()) /
                    rc.lf_hf_ratio());
            sav.add(node.savings_nominal(rp.ops.total(), rc.ops.total()));
            sav_vfs.add(node.savings_with_vfs(rp.ops.total(), rc.ops.total()));
            // FFT-block-only view (the subsystem the paper's approximations
            // target): cycles saved inside the transform alone.
            sav_vfs_fft.add(node.savings_with_vfs(rp.ops.fft, rc.ops.fft));
            perf_fft.add(1.0 - node.cycles(rp.ops.fft) / node.cycles(rc.ops.fft));
        }
        t.add_row({d.label, d.dynamic ? "dynamic" : "static",
                   util::table::fmt(err.mean(), 2),
                   util::table::fmt_pct(perf_fft.mean()),
                   util::table::fmt_pct(sav.mean()),
                   util::table::fmt_pct(sav_vfs.mean()),
                   util::table::fmt_pct(sav_vfs_fft.mean())});
    }
    t.print(std::cout);

    std::cout
        << "\npaper: static band+set3 -> 51% savings at 9.2% error; with VFS "
           "up to 82%; dynamic limits distortion at ~10% energy overhead\n"
        << "measured columns: whole-pipeline savings and the FFT-block view "
           "(the paper's approximations target the FFT subsystem)\n";
    return 0;
}

#include "probe.hpp"

#include <algorithm>
#include <map>

#include "qpsa/hrv/bands.hpp"
#include "qpsa/lomb/extirpolate.hpp"
#include "qpsa/lomb/workspace.hpp"
#include "qpsa/service/plan_cache.hpp"
#include "qpsa/util/arena.hpp"
#include "stats.hpp"

namespace perfbench {
namespace {

constexpr std::size_t probe_records = 8;
constexpr std::size_t probe_max_windows = 64;
constexpr std::size_t probe_reps = 5;  ///< timed passes over every window
constexpr int lagrange_order = 4;

struct cut_window {
    std::vector<double> t;
    std::vector<double> x;
};

/// Windows of the paper monitor (120 s, 60 s hop) cut from the records.
std::vector<cut_window> cut_windows(const cohort& co) {
    const auto mon = paper_monitor();
    std::vector<cut_window> out;
    for (std::size_t r = 0; r < std::min(probe_records, co.records.size()); ++r) {
        const auto& rec = co.records[r];
        for (double w0 = rec.beat_time_s.front();
             w0 + mon.window_seconds <= rec.beat_time_s.back();
             w0 += mon.hop_seconds) {
            cut_window w;
            for (std::size_t b = 0; b < rec.beats(); ++b)
                if (rec.beat_time_s[b] >= w0 &&
                    rec.beat_time_s[b] < w0 + mon.window_seconds) {
                    w.t.push_back(rec.beat_time_s[b]);
                    w.x.push_back(rec.rr_s[b]);
                }
            if (w.t.size() >= mon.min_beats) out.push_back(std::move(w));
            if (out.size() == probe_max_windows) return out;
        }
    }
    return out;
}

std::uint64_t total_ops(const qpsa::lomb::lomb_breakdown& bd) {
    return bd.moments.total() + bd.extirpolation.total() + bd.fft.total() +
           bd.combine.total();
}

}  // namespace

probe_result run_probe(const cohort& co, tracer& tr) {
    const auto mix = scheduler_mix();
    const auto windows = cut_windows(co);
    const std::uint32_t n_window = tr.intern("probe.window");
    const std::uint32_t n_analyze = tr.intern("core.analyze");
    const std::uint32_t n_extirp = tr.intern("lomb.extirpolate");
    const std::uint32_t n_fft = tr.intern("lomb.fft");
    const std::uint32_t n_bands = tr.intern("hrv.bands");

    qpsa::service::plan_cache cache;
    std::vector<std::shared_ptr<const qc::psa_system>> systems;
    for (const auto& row : mix) systems.push_back(cache.system_for(row.cfg));

    probe_result res;
    res.rows.resize(mix.size());
    qpsa::lomb::workspace ws;
    qpsa::lomb::lomb_result out;
    qpsa::util::arena fft_arena;
    std::vector<double> wk1, wk2, centered, t2, ones;
    std::vector<qpsa::cplx> z1, z2, f1, f2;

    // Pass 0 warms workspaces and counts ops; tracing covers the rest.
    const bool was_enabled = tr.enabled();
    for (std::size_t rep = 0; rep <= probe_reps; ++rep) {
        tr.set_enabled(was_enabled && rep > 0);
        for (std::size_t r = 0; r < mix.size(); ++r) {
            const auto& sys = *systems[r];
            const auto& engine = sys.engine();
            auto& row = res.rows[r];
            row.label = mix[r].label;
            row.mesh = !engine.whole_window();
            for (std::size_t j = 0; j < windows.size(); ++j) {
                const auto& w = windows[j];
                const std::uint64_t id = (std::uint64_t{r} << 32) | j;
                tracer::scope win(tr, n_window, id);
                qpsa::lomb::lomb_breakdown bd;
                {
                    tracer::scope s(tr, n_analyze, id);
                    sys.analyze_window(w.t, w.x, ws, out, &bd);
                }
                {
                    tracer::scope s(tr, n_bands, id);
                    (void)qpsa::hrv::compute_band_powers(out.spectrum,
                                                         sys.config().bands);
                }
                if (rep == 0) row.ops_per_window += static_cast<double>(total_ops(bd));
                if (!row.mesh) continue;

                // The scratch Lagrange fill of the two Fast-Lomb meshes (the
                // fill ward_replay's mesh engines use).
                const std::size_t mesh = engine.size();
                const double t0 = w.t.front();
                const double span = w.t.back() - t0;
                double avg = 0.0;
                for (const double v : w.x) avg += v;
                avg /= static_cast<double>(w.x.size());
                wk1.assign(mesh, 0.0);
                wk2.assign(mesh, 0.0);
                centered.resize(w.x.size());
                t2.resize(w.t.size());
                ones.assign(w.t.size(), 1.0);
                // Engine-independent: timed on the first row only.
                const std::uint32_t ex = r == 0 ? tr.begin(n_extirp, id) : no_parent;
                for (std::size_t b = 0; b < w.x.size(); ++b) {
                    centered[b] = w.x[b] - avg;
                    t2[b] = 2.0 * (w.t[b] - t0);
                }
                qpsa::lomb::extirpolate(w.t, centered, wk1, lagrange_order, t0, span);
                qpsa::lomb::extirpolate(t2, ones, wk2, lagrange_order, 0.0, span);
                tr.end(ex);
                z1.resize(mesh);
                z2.resize(mesh);
                f1.resize(mesh);
                f2.resize(mesh);
                for (std::size_t c = 0; c < mesh; ++c) {
                    z1[c] = {wk1[c], 0.0};
                    z2[c] = {wk2[c], 0.0};
                }
                // The two mesh transforms as fast_lomb issues them: one
                // lane-batched walk when the engine batches, else in turn.
                qpsa::wfft::exec_stats stats;
                tracer::scope s(tr, n_fft, id);
                qpsa::util::arena::frame frame(fft_arena);
                if (engine.batch_width() >= 2) {
                    const qpsa::lomb::fft_engine::batch_item items[2] = {
                        {z1, f1, &stats}, {z2, f2, &stats}};
                    engine.forward_batched(items, fft_arena);
                } else {
                    engine.forward(z1, f1, &stats, fft_arena);
                    engine.forward(z2, f2, &stats, fft_arena);
                }
            }
            if (rep == 0 && !windows.empty())
                row.ops_per_window /= static_cast<double>(windows.size());
        }
    }
    tr.set_enabled(was_enabled);

    // Medians per engine row from the recorded spans.
    std::map<std::pair<std::uint32_t, std::uint64_t>, std::vector<double>> us;
    std::vector<double> extirp, bands;
    for (const span& s : tr.spans()) {
        const double d = static_cast<double>(s.end_ns - s.start_ns) / 1e3;
        if (s.name == n_extirp)
            extirp.push_back(d);
        else if (s.name == n_bands)
            bands.push_back(d);
        else if (s.name == n_analyze || s.name == n_fft)
            us[{s.name, s.id >> 32}].push_back(d);
    }
    res.extirpolate_us = median_of(extirp);
    res.bands_us = median_of(bands);
    for (std::size_t r = 0; r < res.rows.size(); ++r) {
        auto& row = res.rows[r];
        row.analyze_us = median_of(us[{n_analyze, r}]);
        if (row.mesh) {
            row.fft_us = median_of(us[{n_fft, r}]);
            // The mix fills its meshes by staircase hold, which has no
            // public entry point: the residual (moments, fill, combine) is
            // analyze minus the transforms.
            row.residual_us = row.analyze_us - row.fft_us;
        }
    }
    return res;
}

void probe_result::emit(report& rep) const {
    for (const auto& row : rows)
        rep.layer("core.analyze_us." + row.label, row.analyze_us, "us");
    rep.layer("lomb.extirpolate_us", extirpolate_us, "us");
    for (const auto& row : rows)
        if (row.mesh) rep.layer("lomb.fft_us." + row.label, row.fft_us, "us");
    for (const auto& row : rows)
        if (row.mesh)
            rep.layer("lomb.residual_us." + row.label, row.residual_us, "us");
    rep.layer("hrv.bands_us", bands_us, "us");
    for (const auto& row : rows)
        rep.layer("counting.ops_per_window." + row.label, row.ops_per_window, "count");
    for (const auto& row : rows)
        rep.layer("energy.ns_per_op." + row.label,
                  row.ops_per_window > 0.0 ? row.analyze_us * 1e3 / row.ops_per_window
                                           : 0.0,
                  "ns");
}

}  // namespace perfbench

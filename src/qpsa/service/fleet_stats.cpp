#include "qpsa/service/fleet_stats.hpp"

#include "qpsa/journal/report_writer.hpp"

namespace qpsa::service {

real fleet_partial::add_report(const core::window_report& rep) {
    const energy::fleet_energy_totals priced = pricer_->price_window(rep.ops);

    ++snap_.windows;
    snap_.beats += rep.beats;
    if (rep.diagnosis == hrv::diagnosis::sinus_arrhythmia)
        ++snap_.arrhythmia_windows;
    snap_.lf_sum += rep.bands.lf;
    snap_.hf_sum += rep.bands.hf;
    snap_.ratio_sum += rep.ratio();
    snap_.energy += priced;

    engine_tally& slot = snap_.by_engine[static_cast<std::size_t>(rep.engine)];
    ++slot.windows;
    slot.beats += rep.beats;
    slot.energy_nominal_j += priced.energy_nominal_j;
    return priced.energy_nominal_j;
}

fleet_stats::fleet_stats(energy::node_model node, real vfs_deadline_s)
    : pricer_(node, vfs_deadline_s) {}

void fleet_stats::merge(const fleet_partial& partial) {
    if (partial.empty()) return;
    std::lock_guard<std::mutex> lock(mu_);
    agg_ += partial.snap_;
    // Journal the delta inside the same critical section: the log then
    // holds the exact operator+= sequence the live aggregate performed,
    // which is what makes a recovery rebuild bit-identical (floating-
    // point sums re-associate the same way).
    if (journal_ != nullptr) journal_->append_stats_delta(partial.snap_);
}

void fleet_stats::add_report(const core::window_report& rep) {
    fleet_partial partial = make_partial();
    partial.add_report(rep);
    merge(partial);
}

fleet_snapshot fleet_stats::snapshot() const {
    std::lock_guard<std::mutex> lock(mu_);
    return agg_;
}

}  // namespace qpsa::service

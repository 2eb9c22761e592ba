// Fig. 5: operation-count comparison of the wavelet-based FFT against the
// split-radix baseline at N = 512.
//
// Paper numbers: (a) without pruning the wavelet FFT costs +36/+49/+76 %
// (Haar/Db2/Db4); with the 1st-stage band drop it reaches -28/-21/-8 %.
// (b) adds the 2nd-stage twiddle pruning modes (20/40/60 %).  The paper's
// overall claim: 52 % fewer additions and 17 % fewer multiplications for
// the selected Haar configuration.
//
// We report measured counts of the executed kernels for the single-level
// structure the paper analyzes (eq. (6)/(7)) and, as an appendix, the
// fully recursive wavelet-packet variant (Fig. 4).
#include <iostream>

#include "common.hpp"
#include "qpsa/counting/op_counter.hpp"
#include "qpsa/dsp/fft_split_radix.hpp"
#include "qpsa/util/random.hpp"
#include "qpsa/wfft/wavelet_fft.hpp"

using namespace qpsa;

namespace {

counting::op_counts measure_split_radix(std::size_t n) {
    util::rng r(1);
    std::vector<cplx> x(n);
    for (auto& v : x) v = cplx{r.uniform(-1, 1), r.uniform(-1, 1)};
    dsp::fft_split_radix fft(n);
    counting::op_counts ops;
    {
        counting::count_scope s(ops);
        (void)fft.forward_copy(x);
    }
    return ops;
}

counting::op_counts measure_wavelet(wfft::plan p) {
    // The PSA pipeline feeds real extirpolated meshes (paper Fig. 1(a)),
    // so the DWT stage runs real arithmetic -- the configuration the
    // paper's complexity figures describe.
    p.assume_real_input = true;
    util::rng r(2);
    std::vector<cplx> x(p.n);
    for (auto& v : x) v = cplx{r.uniform(-1, 1), 0.0};
    const wfft::wavelet_fft fft(p);
    counting::op_counts ops;
    {
        counting::count_scope s(ops);
        (void)fft.forward_copy(x);
    }
    return ops;
}

}  // namespace

int main() {
    const std::size_t n = 512;
    const auto sr = measure_split_radix(n);

    util::print_section(std::cout,
                        "Fig. 5(a) -- ops at N=512, no approximation vs "
                        "1st-stage band drop (baseline: split-radix)");
    std::cout << "split-radix baseline: " << sr.muls << " muls, " << sr.adds
              << " adds, total " << sr.arithmetic() << "\n\n";

    util::table a({"basis", "config", "muls", "adds", "total", "vs split-radix",
                   "paper"});
    struct row_def {
        wavelet::basis basis;
        const char* paper_full;
        const char* paper_drop;
    };
    const row_def defs[] = {
        {wavelet::basis::haar, "+36%", "-28%"},
        {wavelet::basis::db2, "+49%", "-21%"},
        {wavelet::basis::db4, "+76%", "-8%"},
    };
    for (const auto& def : defs) {
        const auto full = measure_wavelet(wfft::plan::exact(n, def.basis));
        const auto drop = measure_wavelet(wfft::plan::band_dropped(n, def.basis));
        a.add_row({std::string(wavelet::basis_name(def.basis)), "no approx",
                   util::table::fmt_int(static_cast<long long>(full.muls)),
                   util::table::fmt_int(static_cast<long long>(full.adds)),
                   util::table::fmt_int(static_cast<long long>(full.arithmetic())),
                   bench::vs_baseline(full.arithmetic(), sr.arithmetic()),
                   def.paper_full});
        a.add_row({std::string(wavelet::basis_name(def.basis)), "band drop",
                   util::table::fmt_int(static_cast<long long>(drop.muls)),
                   util::table::fmt_int(static_cast<long long>(drop.adds)),
                   util::table::fmt_int(static_cast<long long>(drop.arithmetic())),
                   bench::vs_baseline(drop.arithmetic(), sr.arithmetic()),
                   def.paper_drop});
    }
    a.print(std::cout);

    util::print_section(std::cout,
                        "Fig. 5(b) -- band drop + 2nd-stage twiddle pruning "
                        "(Mode1=20%, Mode2=40%, Mode3=60%)");
    util::table b({"basis", "mode", "muls", "adds", "total", "vs split-radix"});
    for (const auto basis :
         {wavelet::basis::haar, wavelet::basis::db2, wavelet::basis::db4}) {
        for (const auto set : {wfft::twiddle_set::set1, wfft::twiddle_set::set2,
                               wfft::twiddle_set::set3}) {
            const auto ops =
                measure_wavelet(wfft::plan::static_pruned(n, basis, set));
            b.add_row({std::string(wavelet::basis_name(basis)),
                       wfft::set_name(set),
                       util::table::fmt_int(static_cast<long long>(ops.muls)),
                       util::table::fmt_int(static_cast<long long>(ops.adds)),
                       util::table::fmt_int(
                           static_cast<long long>(ops.arithmetic())),
                       bench::vs_baseline(ops.arithmetic(), sr.arithmetic())});
        }
    }
    b.print(std::cout);

    // Headline reductions for the selected configuration.
    const auto haar3 = measure_wavelet(
        wfft::plan::static_pruned(n, wavelet::basis::haar, wfft::twiddle_set::set3));
    std::cout << "\nselected configuration (Haar, band drop + Set3):\n"
              << "  adds: " << haar3.adds << " vs " << sr.adds << " ("
              << bench::vs_baseline(haar3.adds, sr.adds)
              << "; paper -52%)\n"
              << "  muls: " << haar3.muls << " vs " << sr.muls << " ("
              << bench::vs_baseline(haar3.muls, sr.muls)
              << "; paper -17%)\n";

    util::print_section(std::cout,
                        "appendix -- fully recursive wavelet-packet tree "
                        "(Fig. 4 structure)");
    util::table c({"basis", "config", "total ops", "vs split-radix"});
    for (const auto basis : {wavelet::basis::haar, wavelet::basis::db2}) {
        const auto full =
            measure_wavelet(wfft::plan::exact(n, basis, wfft::tree_mode::recursive));
        const auto drop = measure_wavelet(
            wfft::plan::band_dropped(n, basis, wfft::tree_mode::recursive));
        c.add_row({std::string(wavelet::basis_name(basis)), "recursive, exact",
                   util::table::fmt_int(static_cast<long long>(full.arithmetic())),
                   bench::vs_baseline(full.arithmetic(), sr.arithmetic())});
        c.add_row({std::string(wavelet::basis_name(basis)), "recursive, band drop",
                   util::table::fmt_int(static_cast<long long>(drop.arithmetic())),
                   bench::vs_baseline(drop.arithmetic(), sr.arithmetic())});
    }
    c.print(std::cout);
    std::cout << "\nnote: the single-level structure (eq. (6)) is the one the "
                 "paper prices and prunes; the recursive packet tree is "
                 "costlier in a generic implementation and is included for "
                 "the structural comparison only.\n";
    return 0;
}

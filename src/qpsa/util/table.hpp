// Minimal fixed-width table printer for the experiment harness.  Every
// bench binary reproduces a paper table/figure by printing rows through
// this formatter, so outputs are uniform and diffable.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace qpsa::util {

class table {
public:
    /// Construct with column headers.
    explicit table(std::vector<std::string> headers);

    /// Append a row; must match the header count.
    void add_row(std::vector<std::string> row);

    /// Render with aligned columns.
    void print(std::ostream& os) const;

    std::size_t rows() const noexcept { return rows_.size(); }

    /// Format helpers used by the benches.
    static std::string fmt(double v, int precision = 3);
    static std::string fmt_int(long long v);
    static std::string fmt_pct(double fraction, int precision = 1);

private:
    std::vector<std::string> headers_;
    std::vector<std::vector<std::string>> rows_;
};

/// Print a "### <title>" section banner (markdown-ish, so bench output can
/// be pasted into markdown notes).
void print_section(std::ostream& os, const std::string& title);

/// Print an ASCII sparkline-style bar of `value` relative to `max`.
std::string ascii_bar(double value, double max, std::size_t width = 40);

}  // namespace qpsa::util

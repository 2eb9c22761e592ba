// In-memory span recorder of the traced benchmark run.
//
// The benchmark records a span around each call it makes into a layer's
// public function (the program itself is not instrumented).  A span holds
// its name, start, end, the span that caused it (the innermost span open
// when it began) and an id shared by the calls of one session or window.
// Spans are kept in a preallocated vector and written out after the run;
// recording stops, and is counted as dropped, once the vector is full.
//
// Self time is a span's duration minus the part of its interval that its
// children cover (the union of the child intervals, clipped to the
// parent), so overlapping or out-of-bounds children are not counted twice.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

inline constexpr std::uint32_t no_parent = ~std::uint32_t{0};

struct span {
    std::uint32_t name = 0;
    std::uint32_t parent = no_parent;
    std::uint64_t id = 0;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
};

/// Self time of every span (same order as `spans`).  Children must appear
/// after their parent, which recording in begin order guarantees.
inline std::vector<std::int64_t> self_times(const std::vector<span>& spans) {
    std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(
        spans.size());
    for (const span& s : spans)
        if (s.parent != no_parent && s.parent < spans.size())
            kids[s.parent].emplace_back(s.start_ns, s.end_ns);
    std::vector<std::int64_t> self(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const std::int64_t lo = spans[i].start_ns;
        const std::int64_t hi = spans[i].end_ns;
        auto& iv = kids[i];
        std::sort(iv.begin(), iv.end());
        std::int64_t covered = 0;
        std::int64_t cur_lo = 0;
        std::int64_t cur_hi = 0;
        bool open = false;
        for (auto [a, b] : iv) {
            a = std::max(a, lo);
            b = std::min(b, hi);
            if (b <= a) continue;
            if (open && a <= cur_hi) {
                cur_hi = std::max(cur_hi, b);
                continue;
            }
            if (open) covered += cur_hi - cur_lo;
            cur_lo = a;
            cur_hi = b;
            open = true;
        }
        if (open) covered += cur_hi - cur_lo;
        self[i] = (hi - lo) - covered;
    }
    return self;
}

/// The layer a span name belongs to: the part before the first '.'.
inline std::string_view layer_of(std::string_view name) {
    const auto dot = name.find('.');
    return dot == std::string_view::npos ? name : name.substr(0, dot);
}

class tracer {
public:
    using clock = std::chrono::steady_clock;

    explicit tracer(std::size_t capacity) {
        spans_.reserve(capacity);
        open_.reserve(64);
    }

    /// Recording is off until enabled; begin() then returns no_parent and
    /// end() ignores it, so call sites need no branches.
    void set_enabled(bool on) noexcept { enabled_ = on; }
    bool enabled() const noexcept { return enabled_; }

    std::uint32_t intern(std::string_view name) {
        for (std::size_t i = 0; i < names_.size(); ++i)
            if (names_[i] == name) return static_cast<std::uint32_t>(i);
        names_.emplace_back(name);
        return static_cast<std::uint32_t>(names_.size() - 1);
    }

    std::uint32_t begin(std::uint32_t name, std::uint64_t id = 0) {
        if (!enabled_) return no_parent;
        if (spans_.size() == spans_.capacity()) {
            ++dropped_;
            return no_parent;
        }
        span s;
        s.name = name;
        s.parent = open_.empty() ? no_parent : open_.back();
        s.id = id;
        s.start_ns = now_ns();
        spans_.push_back(s);
        const auto idx = static_cast<std::uint32_t>(spans_.size() - 1);
        open_.push_back(idx);
        return idx;
    }

    void end(std::uint32_t idx) {
        if (idx == no_parent) return;
        spans_[idx].end_ns = now_ns();
        if (!open_.empty() && open_.back() == idx) open_.pop_back();
    }

    /// RAII span.
    class scope {
    public:
        scope(tracer& t, std::uint32_t name, std::uint64_t id = 0)
            : t_(t), idx_(t.begin(name, id)) {}
        ~scope() { t_.end(idx_); }
        scope(const scope&) = delete;
        scope& operator=(const scope&) = delete;

    private:
        tracer& t_;
        std::uint32_t idx_;
    };

    const std::vector<span>& spans() const noexcept { return spans_; }
    std::uint64_t dropped() const noexcept { return dropped_; }

    /// Summed duration / self time / count per span name.
    struct totals {
        std::int64_t total_ns = 0;
        std::int64_t self_ns = 0;
        std::uint64_t count = 0;
    };
    std::map<std::string, totals> by_name() const {
        const auto self = self_times(spans_);
        std::map<std::string, totals> out;
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            totals& t = out[names_[spans_[i].name]];
            t.total_ns += spans_[i].end_ns - spans_[i].start_ns;
            t.self_ns += self[i];
            ++t.count;
        }
        return out;
    }

    /// One CSV row per span: index, name, parent, id, start, end (ns from
    /// the first span), self.
    bool write_csv(const std::string& path) const {
        std::ofstream f(path);
        if (!f) return false;
        const auto self = self_times(spans_);
        const std::int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
        f << "index,name,parent,id,start_ns,end_ns,self_ns\n";
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const span& s = spans_[i];
            f << i << ',' << names_[s.name] << ','
              << (s.parent == no_parent ? -1 : static_cast<long long>(s.parent))
              << ',' << s.id << ',' << s.start_ns - t0 << ','
              << s.end_ns - t0 << ',' << self[i] << '\n';
        }
        return static_cast<bool>(f);
    }

private:
    static std::int64_t now_ns() {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   clock::now().time_since_epoch())
            .count();
    }

    bool enabled_ = false;
    std::vector<span> spans_;
    std::vector<std::uint32_t> open_;
    std::vector<std::string> names_;
    std::uint64_t dropped_ = 0;
};

}  // namespace perfbench

#include "qpsa/lomb/hop_cache.hpp"

namespace qpsa::lomb {
namespace {

std::atomic<bool>& runtime_flag() {
    static std::atomic<bool> on{true};
    return on;
}

}  // namespace

std::uint64_t hop_cache::bytes() const noexcept {
    std::uint64_t b = (mesh_.mesh_x.capacity() + mesh_.mesh_1.capacity() +
                       mesh_.mesh_2.capacity() + series_.values.capacity()) *
                      sizeof(real);
    for (const hop_segment_entry& e : segments_)
        b += e.power.capacity() * sizeof(real) + sizeof(hop_segment_entry);
    return b;
}

bool hop_cache_enabled() noexcept {
    return runtime_flag().load(std::memory_order_relaxed);
}

void set_hop_cache_enabled(bool on) noexcept {
    runtime_flag().store(on, std::memory_order_relaxed);
}

}  // namespace qpsa::lomb

// qpsa_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                [--scratch <dir>] [--spans <csv>]
//
// Prints a human-readable report, then as its last line one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}
// with the end-to-end metrics (--trace 0) or the per-layer ones (--trace 1).
// Exit status 0 whenever a result was printed -- the correctness verdict is
// the JSON's "correct" -- and non-zero when no result could be produced.
#include <cmath>
#include <cstdio>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "bench.hpp"

namespace {

std::string json_number(double v) {
    if (!std::isfinite(v)) return "null";
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string json_string(const std::string& s) {
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\') out += '\\';
        out += c;
    }
    return out + "\"";
}

int usage(const char* why) {
    std::cerr << "qpsa_perfbench: " << why
              << "\nusage: qpsa_perfbench --workload replay_mixed|ward_replay|"
                 "durable_sharded --seed N --seconds S --trace 0|1 "
                 "[--scratch DIR] [--spans CSV]\n";
    return 2;
}

}  // namespace

int main(int argc, char** argv) {
    perfbench::options opt;
    bool have_workload = false;
    try {
        for (int i = 1; i < argc; ++i) {
            const std::string a = argv[i];
            if (i + 1 >= argc) return usage(("missing value for " + a).c_str());
            const std::string v = argv[++i];
            if (a == "--workload") {
                opt.workload = v;
                have_workload = true;
            } else if (a == "--seed") {
                opt.seed = std::stoull(v);
            } else if (a == "--seconds") {
                opt.seconds = std::stod(v);
            } else if (a == "--trace") {
                opt.trace = v == "1";
            } else if (a == "--scratch") {
                opt.scratch_dir = v;
            } else if (a == "--spans") {
                opt.spans_path = v;
            } else {
                return usage(("unknown argument " + a).c_str());
            }
        }
    } catch (const std::exception&) {
        return usage("malformed number");
    }
    if (!have_workload) return usage("--workload is required");
    if (!(opt.seconds > 0.0)) return usage("--seconds must be positive");

    perfbench::report rep;
    try {
        rep = perfbench::run_workload(opt);
    } catch (const std::invalid_argument& e) {
        return usage(e.what());
    } catch (const std::exception& e) {
        std::cerr << "qpsa_perfbench: run failed: " << e.what() << "\n";
        return 1;
    }

    for (const auto& line : rep.notes) std::cout << line << "\n";
    const auto& metrics = opt.trace ? rep.per_layer : rep.end_to_end;
    for (const auto& m : metrics) {
        std::cout << "  " << m.name << " = " << json_number(m.value) << " "
                  << m.unit;
        if (!m.note.empty()) std::cout << "  (" << m.note << ")";
        std::cout << "\n";
    }
    std::cout << "  failed_frac = "
              << json_number(rep.attempted ? static_cast<double>(rep.failed) /
                                                 static_cast<double>(rep.attempted)
                                           : 0.0)
              << "  (" << rep.failed << " of " << rep.attempted
              << " expected windows missing or not bit-identical)\n";

    std::ostringstream js;
    js << "{\"correct\": " << (rep.correct ? "true" : "false")
       << ", \"attempted\": " << rep.attempted << ", \"failed\": " << rep.failed
       << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        if (i) js << ", ";
        js << json_string(metrics[i].name) << ": {\"value\": "
           << json_number(metrics[i].value)
           << ", \"unit\": " << json_string(metrics[i].unit) << "}";
    }
    js << "}}";
    std::cout << js.str() << std::endl;
    return 0;
}

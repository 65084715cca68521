// snabench: one workload of the repository benchmark per process.
//
//   snabench --workload NAME --seed N --seconds S --trace 0|1
//            --scratch DIR [--trace-out FILE]
//   snabench --catalogue
//
// Prints notes, then as its last line one JSON object with `correct`,
// `attempted`, `failed` and `metrics`: the end-to-end metrics untraced, the
// per-layer metrics with --trace 1. A traced run first repeats the untraced
// pass, so the tracing overhead is the ratio of the two mean operation
// times. Exits 1 when an output check fails, 2 on bad arguments.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "workloads.hpp"

using namespace snabench;

namespace {

std::string jsonString(const std::string& s) {
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\') out += '\\';
        out += c;
    }
    return out + "\"";
}

void printCatalogue() {
    std::printf("{\"workloads\": [");
    bool first = true;
    for (const auto& w : workloads()) {
        std::printf("%s{\"name\": %s, \"why\": %s}", first ? "" : ", ",
                    jsonString(w.name).c_str(), jsonString(w.why).c_str());
        first = false;
    }
    for (const auto* group : {"end_to_end", "per_layer"}) {
        const auto& list = std::strcmp(group, "end_to_end") == 0
                               ? endToEndMetrics()
                               : perLayerMetrics();
        std::printf("], \"%s\": [", group);
        first = true;
        for (const auto& m : list) {
            std::printf("%s{\"name\": %s, \"unit\": %s, \"better\": %s}",
                        first ? "" : ", ", jsonString(m.name).c_str(),
                        jsonString(m.unit).c_str(), jsonString(m.better).c_str());
            first = false;
        }
    }
    std::printf("]}\n");
}

}  // namespace

int main(int argc, char** argv) {
    Config cfg;
    bool trace = false;
    std::string traceOut;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const bool hasValue = i + 1 < argc;
        if (a == "--catalogue") {
            printCatalogue();
            return 0;
        } else if (a == "--workload" && hasValue) {
            cfg.workload = argv[++i];
        } else if (a == "--seed" && hasValue) {
            cfg.seed = std::strtoull(argv[++i], nullptr, 10);
        } else if (a == "--seconds" && hasValue) {
            cfg.seconds = std::atof(argv[++i]);
        } else if (a == "--trace" && hasValue) {
            trace = std::atoi(argv[++i]) != 0;
        } else if (a == "--scratch" && hasValue) {
            cfg.scratch = argv[++i];
        } else if (a == "--trace-out" && hasValue) {
            traceOut = argv[++i];
        } else {
            std::fprintf(stderr, "snabench: unknown argument '%s'\n", a.c_str());
            return 2;
        }
    }
    const WorkloadInfo* info = nullptr;
    for (const auto& w : workloads()) {
        if (cfg.workload == w.name) info = &w;
    }
    if (info == nullptr || cfg.scratch.empty() || !(cfg.seconds > 0)) {
        std::fprintf(stderr, "snabench: need --workload NAME --scratch DIR "
                             "and --seconds > 0\n");
        return 2;
    }

    Outcome result;
    try {
        Tracer off(false);
        result = info->run(cfg, off);
        if (trace) {
            Tracer on(true);
            Outcome traced = info->run(cfg, on);
            traced.perLayer["trace.overhead_pct"] =
                100.0 * (traced.opMeanSeconds / result.opMeanSeconds - 1.0);
            traced.correct = traced.correct && result.correct;
            traced.notes.insert(traced.notes.begin(), result.notes.begin(),
                                result.notes.end());
            if (!traceOut.empty() && !on.writeChrome(traceOut)) {
                traced.fail("cannot write the trace to " + traceOut);
            }
            result = std::move(traced);
        }
    } catch (const std::exception& e) {
        std::fprintf(stderr, "snabench: %s: %s\n", cfg.workload.c_str(), e.what());
        return 1;
    }

    for (const auto& n : result.notes) std::printf("# %s\n", n.c_str());
    std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, "
                "\"metrics\": {",
                result.correct ? "true" : "false", result.attempted,
                result.failed);
    const auto& list = trace ? perLayerMetrics() : endToEndMetrics();
    const auto& values = trace ? result.perLayer : result.endToEnd;
    bool first = true;
    for (const auto& m : list) {
        const auto it = values.find(m.name);
        // A layer the workload bypasses did no work: it reads 0.
        const double v = it == values.end() ? 0.0 : it->second;
        std::printf("%s%s: {\"value\": %.17g, \"unit\": %s}", first ? "" : ", ",
                    jsonString(m.name).c_str(), std::isfinite(v) ? v : 0.0,
                    jsonString(m.unit).c_str());
        first = false;
    }
    std::printf("}}\n");
    return result.correct ? 0 : 1;
}

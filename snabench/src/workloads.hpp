// The four benchmark workloads and the metric catalogue they report.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "trace.hpp"

namespace snabench {

struct Config {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 15.0;  ///< length of the timed loop
    std::string scratch;    ///< private directory for cache files
};

struct MetricInfo {
    const char* name;
    const char* unit;
    const char* better;  ///< "lower" or "higher"
};

/// What one pass of a workload measured and checked.
struct Outcome {
    bool correct = true;
    long attempted = 0;
    long failed = 0;
    std::map<std::string, double> endToEnd;
    std::map<std::string, double> perLayer;
    double opMeanSeconds = 0.0;  ///< mean timed operation, for trace overhead
    std::vector<std::string> notes;

    /// Record a failed output check (outside every timed region).
    void fail(const std::string& what);
};

struct WorkloadInfo {
    const char* name;
    const char* why;
    Outcome (*run)(const Config&, Tracer&);
};

const std::vector<WorkloadInfo>& workloads();
const std::vector<MetricInfo>& endToEndMetrics();
const std::vector<MetricInfo>& perLayerMetrics();

}  // namespace snabench

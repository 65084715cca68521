// Benchmark-side spans around each call into a library layer.
//
// Spans are recorded by the benchmark's own thread (the library's worker
// threads run inside one opaque call), kept in memory and written out as
// Chrome trace-event JSON at the end of a traced run. A disabled tracer
// records nothing, so untraced runs time the same code without it.
#pragma once

#include <chrono>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace snabench {

inline double nowSeconds() {
    using clock = std::chrono::steady_clock;
    static const clock::time_point origin = clock::now();
    return std::chrono::duration<double>(clock::now() - origin).count();
}

class Tracer {
public:
    struct Span {
        std::string name;
        double start = 0.0;
        double end = 0.0;
        int parent = -1;  ///< index of the enclosing span, -1 at top level
        int run = 0;      ///< operation the span belongs to
        bool group = false;  ///< grouping span (set-up, op), not a layer
    };

    explicit Tracer(bool enabled) : enabled_(enabled) {}
    bool enabled() const { return enabled_; }

    /// Spans begun from here on belong to a new operation id.
    void nextRun() { ++run_; }

    int begin(const std::string& name, bool group) {
        if (!enabled_) return -1;
        const int parent = open_.empty() ? -1 : open_.back();
        spans_.push_back({name, nowSeconds(), 0.0, parent, run_, group});
        open_.push_back(static_cast<int>(spans_.size()) - 1);
        return open_.back();
    }
    void end(int id) {
        if (id < 0) return;
        spans_[id].end = nowSeconds();
        open_.pop_back();
    }

    /// Per span name: total self time (duration minus the part covered by
    /// child spans) and call count.
    struct Totals {
        double self = 0.0;
        int calls = 0;
    };
    std::map<std::string, Totals> totals() const {
        const auto child = childTimes();
        std::map<std::string, Totals> out;
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            auto& t = out[spans_[i].name];
            t.self += spans_[i].end - spans_[i].start - child[i];
            ++t.calls;
        }
        return out;
    }

    /// Wall time of the grouping spans not covered by any layer span.
    double uncovered() const {
        const auto child = childTimes();
        double out = 0.0;
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            if (spans_[i].group) {
                out += spans_[i].end - spans_[i].start - child[i];
            }
        }
        return out;
    }

    bool writeChrome(const std::string& path) const {
        std::FILE* f = std::fopen(path.c_str(), "w");
        if (f == nullptr) return false;
        std::fprintf(f, "{\"traceEvents\":[");
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const auto& s = spans_[i];
            std::fprintf(f,
                         "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                         "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":1,"
                         "\"args\":{\"run\":%d,\"parent\":%d}}",
                         i == 0 ? "" : ",", s.name.c_str(),
                         s.group ? "group" : "layer", s.start * 1e6,
                         (s.end - s.start) * 1e6, s.run, s.parent);
        }
        std::fprintf(f, "\n]}\n");
        return std::fclose(f) == 0;
    }

private:
    /// Per span, the time its direct children cover.
    std::vector<double> childTimes() const {
        std::vector<double> out(spans_.size(), 0.0);
        for (const auto& s : spans_) {
            if (s.parent >= 0) out[s.parent] += s.end - s.start;
        }
        return out;
    }

    bool enabled_;
    int run_ = 0;
    std::vector<Span> spans_;
    std::vector<int> open_;
};

/// RAII span; `group` marks set-up / operation spans that only hold layers.
class Span {
public:
    Span(Tracer& t, const std::string& name, bool group = false)
        : tracer_(t), id_(t.begin(name, group)) {}
    ~Span() { tracer_.end(id_); }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

private:
    Tracer& tracer_;
    int id_;
};

}  // namespace snabench

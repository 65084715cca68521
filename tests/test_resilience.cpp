// Tests for the signoff-server resilience layer: cooperative cancellation
// and deadlines (token unit tests, scheduler-level skip accounting, partial
// AnalysisOutcome with bitwise-identical completed reports), per-net
// failure quarantine (fail-fast / quarantine-cone / degrade-to-passthrough
// at several thread counts, untouched cones bit-identical), the
// self-healing snacache v2 (CRC-rejected records, torn writes, randomized
// truncation, v1 read compatibility, two-process save contention over the
// advisory lock), and the fault-injection harness that drives all of it.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "charlib/char_cache.hpp"
#include "core/incremental.hpp"
#include "core/sna.hpp"
#include "lint/lint.hpp"
#include "util/cancel.hpp"
#include "util/crc32.hpp"
#include "util/fault_injection.hpp"
#include "util/rng.hpp"
#include "util/task_scheduler.hpp"
#include "util/thread_pool.hpp"

// Sanitized builds run every body slower; shrink the long-chain fixtures
// so the suite stays inside CI budgets (the logic under test is identical).
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
#define SNA_SANITIZED 1
#endif
#if defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
#ifndef SNA_SANITIZED
#define SNA_SANITIZED 1
#endif
#endif
#endif

namespace {

using namespace sna;

void addInst(core::Design& d, const std::string& name,
             const std::string& cell,
             std::map<std::string, std::string> pins) {
    core::Instance i;
    i.name = name;
    i.cellName = cell;
    i.pinToNet = std::move(pins);
    d.addInstance(std::move(i));
}

// Chain of stage nets s0..s{n-1} through INV_X1 drivers, each stage coupled
// to one dedicated aggressor net — the propagated-wavefront fixture shared
// with test_propagate/test_incremental. Every stage net and every aggressor
// net is a victim cluster.
std::string chainSpef(int stages, double cc) {
    std::ostringstream os;
    os << "*SPEF \"IEEE 1481-1998\"\n*DESIGN \"chain\"\n";
    os << "*T_UNIT 1 PS\n*C_UNIT 1 FF\n*R_UNIT 1 OHM\n\n";
    for (int i = 0; i < stages; ++i) {
        os << "*D_NET s" << i << " " << (6.5 + cc) << "\n";
        os << "*CONN\n*I c" << i << ":y O\n*I c" << (i + 1) << ":a I\n";
        os << "*CAP\n1 c" << i << ":y 2.0\n2 s" << i << ":1 3.0\n";
        os << "3 c" << (i + 1) << ":a 1.5\n";
        os << "4 s" << i << ":1 g" << i << ":1 " << cc << "\n";
        os << "*RES\n1 c" << i << ":y s" << i << ":1 60\n";
        os << "2 s" << i << ":1 c" << (i + 1) << ":a 60\n*END\n\n";
        os << "*D_NET g" << i << " 6.0\n";
        os << "*CONN\n*I a" << i << ":y O\n*I r" << i << ":a I\n";
        os << "*CAP\n1 a" << i << ":y 2.0\n2 g" << i << ":1 2.0\n";
        os << "*RES\n1 a" << i << ":y g" << i << ":1 40\n";
        os << "2 g" << i << ":1 r" << i << ":a 40\n*END\n\n";
    }
    return os.str();
}

void buildChain(core::Design& d, int stages) {
    for (int i = 0; i < stages; ++i) {
        const std::string si = "s" + std::to_string(i);
        const std::string prev = i == 0 ? "pin" : "s" + std::to_string(i - 1);
        addInst(d, "c" + std::to_string(i), "INV_X1",
                {{"a", prev}, {"y", si}});
        const std::string g = "g" + std::to_string(i);
        addInst(d, "a" + std::to_string(i), "INV_X4",
                {{"a", g + "_in"}, {"y", g}});
        addInst(d, "r" + std::to_string(i), "INV_X1",
                {{"a", g}, {"y", g + "_o"}});
    }
    addInst(d, "c" + std::to_string(stages), "INV_X2",
            {{"a", "s" + std::to_string(stages - 1)}, {"y", "chain_out"}});
}

// Small coupled ring, the cheap fixture for the cache tests.
std::string ringSpef(int nets) {
    std::ostringstream os;
    os << "*SPEF \"IEEE 1481-1998\"\n*DESIGN \"ring\"\n";
    os << "*T_UNIT 1 PS\n*C_UNIT 1 FF\n*R_UNIT 1 OHM\n\n";
    for (int i = 0; i < nets; ++i) {
        const int j = (i + 1) % nets;
        const double cc = 6.0 + 2.0 * i;
        os << "*D_NET n" << i << " " << (6.5 + cc) << "\n";
        os << "*CONN\n*I d" << i << ":y O\n*I r" << i << ":a I\n";
        os << "*CAP\n1 d" << i << ":y 2.0\n2 n" << i << ":1 3.0\n";
        os << "3 r" << i << ":a 1.5\n4 n" << i << ":1 n" << j << ":1 " << cc
           << "\n";
        os << "*RES\n1 d" << i << ":y n" << i << ":1 40\n";
        os << "2 n" << i << ":1 r" << i << ":a 40\n*END\n\n";
    }
    return os.str();
}

void buildRingDesign(core::Design& design, int nets) {
    for (int i = 0; i < nets; ++i) {
        const std::string n = std::to_string(i);
        addInst(design, "d" + n, (i % 2 == 0) ? "INV_X1" : "INV_X2",
                {{"a", "pi" + n}, {"y", "n" + n}});
        addInst(design, "r" + n, (i % 2 == 0) ? "INV_X2" : "INV_X1",
                {{"a", "n" + n}, {"y", "po" + n}});
    }
}

core::DesignNoiseOptions cheapOptions() {
    core::DesignNoiseOptions opt;
    opt.maxAggressors = 2;
    opt.report.searchAlignment = false;
    opt.report.macromodel.loadCurveGrid = 9;
    return opt;
}

void expectBitwiseEqual(const core::NetNoiseReport& a,
                        const core::NetNoiseReport& b,
                        const std::string& label) {
    EXPECT_EQ(a.net, b.net) << label;
    EXPECT_EQ(a.aggressorNets, b.aggressorNets) << label << " " << a.net;
    EXPECT_EQ(a.cluster.margin, b.cluster.margin) << label << " " << a.net;
    EXPECT_EQ(a.cluster.nrcLimit, b.cluster.nrcLimit)
        << label << " " << a.net;
    EXPECT_EQ(a.cluster.worst.metrics.peak, b.cluster.worst.metrics.peak)
        << label << " " << a.net;
    EXPECT_EQ(a.cluster.worst.metrics.width, b.cluster.worst.metrics.width)
        << label << " " << a.net;
    EXPECT_EQ(a.cluster.fails, b.cluster.fails) << label << " " << a.net;
    EXPECT_EQ(a.propagated.present, b.propagated.present)
        << label << " " << a.net;
    EXPECT_EQ(a.propagated.fromNet, b.propagated.fromNet)
        << label << " " << a.net;
    EXPECT_EQ(a.propagated.height, b.propagated.height)
        << label << " " << a.net;
    EXPECT_EQ(a.propagated.localMargin, b.propagated.localMargin)
        << label << " " << a.net;
}

std::map<std::string, const core::NetNoiseReport*> byNet(
    const std::vector<core::NetNoiseReport>& reports) {
    std::map<std::string, const core::NetNoiseReport*> m;
    for (const auto& r : reports) m.emplace(r.net, &r);
    return m;
}

std::string tmpPath(const std::string& name) {
    return testing::TempDir() + name;
}

std::string slurp(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(static_cast<bool>(in)) << path;
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

void spit(const std::string& path, const std::string& text) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(text.data(), static_cast<std::streamsize>(text.size()));
    ASSERT_TRUE(static_cast<bool>(out)) << path;
}

/// RAII disarm so one test's rules never leak into the next.
struct InjectorGuard {
    ~InjectorGuard() { util::FaultInjector::instance().disarm(); }
};

// -------------------------------------------------------- CancelToken unit

TEST(CancelToken, ExplicitCancelLatchesFlagAndReason) {
    util::CancelToken token;
    EXPECT_FALSE(token.stopRequested());
    EXPECT_EQ(token.reason(), util::CancelToken::Reason::none);
    token.cancel();
    EXPECT_TRUE(token.stopRequested());
    EXPECT_EQ(token.reason(), util::CancelToken::Reason::cancelled);
    token.cancel();  // idempotent
    EXPECT_EQ(token.reason(), util::CancelToken::Reason::cancelled);
    EXPECT_THROW(token.throwIfStopped(), util::CancelledError);
}

TEST(CancelToken, DeadlineLatchesWithDeadlineReason) {
    util::CancelToken token;
    token.setDeadlineAfter(1e-9);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    EXPECT_TRUE(token.stopRequested());
    EXPECT_EQ(token.reason(), util::CancelToken::Reason::deadline);
}

TEST(CancelToken, FarDeadlineDoesNotTripAndZeroDisarms) {
    util::CancelToken token;
    token.setDeadlineAfter(3600.0);
    EXPECT_FALSE(token.stopRequested());
    token.setDeadlineAfter(0.0);
    EXPECT_FALSE(token.stopRequested());
}

TEST(CancelToken, ChildObservesParentCancellation) {
    util::CancelToken parent;
    util::CancelToken child(&parent);
    EXPECT_FALSE(child.stopRequested());
    parent.cancel();
    EXPECT_TRUE(child.stopRequested());
    EXPECT_EQ(child.reason(), util::CancelToken::Reason::cancelled);
}

TEST(CancelToken, AmbientScopePollThrowsOnlyInsideScope) {
    util::CancelToken token;
    token.cancel();
    EXPECT_NO_THROW(util::pollCancellation());  // no scope installed
    {
        const util::CancelScope scope(&token);
        EXPECT_EQ(util::currentCancelToken(), &token);
        EXPECT_THROW(util::pollCancellation(), util::CancelledError);
    }
    EXPECT_EQ(util::currentCancelToken(), nullptr);
    EXPECT_NO_THROW(util::pollCancellation());
}

// ------------------------------------------------------ scheduler + cancel

util::TaskGraph chainGraph(int n) {
    util::TaskGraph g;
    g.fanout.resize(static_cast<std::size_t>(n));
    g.faninCount.assign(static_cast<std::size_t>(n), 0);
    for (int i = 0; i + 1 < n; ++i) {
        g.fanout[static_cast<std::size_t>(i)].push_back(i + 1);
        g.faninCount[static_cast<std::size_t>(i + 1)] = 1;
    }
    return g;
}

TEST(SchedulerCancel, SerialChainStopsAfterCancellingTask) {
    const int n = 200;
    const util::TaskGraph graph = chainGraph(n);
    util::CancelToken token;
    std::vector<int> executed;
    const auto stats = util::runTaskGraph(
        graph,
        [&](int i) {
            executed.push_back(i);
            if (i == 50) token.cancel();
        },
        nullptr, &token);
    EXPECT_TRUE(stats.cancelled);
    EXPECT_EQ(stats.tasksExecuted, 51u);
    EXPECT_EQ(stats.skippedTasks, 149u);
    ASSERT_EQ(executed.size(), 51u);
    for (int i = 0; i <= 50; ++i) EXPECT_EQ(executed[i], i);
}

TEST(SchedulerCancel, ParallelChainNeverExecutesPastTheCancel) {
    // On a pure chain, execution order equals index order even with many
    // workers, so the cancellation cut must be exact: the cancelling task
    // completes, nothing after it runs.
    const int n = 200;
    const util::TaskGraph graph = chainGraph(n);
    util::ThreadPool pool(4);
    util::CancelToken token;
    std::atomic<int> highest{-1};
    const auto stats = util::runTaskGraph(
        graph,
        [&](int i) {
            highest.store(i);
            if (i == 50) token.cancel();
        },
        &pool, &token);
    EXPECT_TRUE(stats.cancelled);
    EXPECT_EQ(stats.tasksExecuted + stats.skippedTasks,
              static_cast<std::size_t>(n));
    EXPECT_EQ(highest.load(), 50);
    EXPECT_EQ(stats.tasksExecuted, 51u);
}

TEST(SchedulerCancel, UncancelledRunKeepsHistoricalCounters) {
    const util::TaskGraph graph = chainGraph(32);
    util::CancelToken token;  // never tripped
    const auto stats =
        util::runTaskGraph(graph, [](int) {}, nullptr, &token);
    EXPECT_FALSE(stats.cancelled);
    EXPECT_EQ(stats.tasksExecuted, 32u);
    EXPECT_EQ(stats.skippedTasks, 0u);
}

TEST(SchedulerCancel, BodyThrownCancelledErrorCountsAsSkipped) {
    const util::TaskGraph graph = chainGraph(10);
    util::CancelToken token;
    const auto stats = util::runTaskGraph(
        graph,
        [&](int i) {
            if (i == 3) {
                token.cancel();
                util::pollCancellation();  // unwinds mid-body
            }
        },
        nullptr, &token);
    EXPECT_TRUE(stats.cancelled);
    EXPECT_EQ(stats.tasksExecuted, 3u);  // 0,1,2 completed
    EXPECT_EQ(stats.skippedTasks, 7u);   // 3 unwound + 4..9 skipped
}

// -------------------------------------------------------- fault injection

TEST(FaultInjector, SkipFirstAndLimitAccounting) {
    const InjectorGuard guard;
    auto& inj = util::FaultInjector::instance();
    inj.arm("x.site:1.0:2:1");  // skip 1, then fire at most 2
    EXPECT_TRUE(inj.armed());
    EXPECT_FALSE(inj.shouldFail("x.site"));  // skipped
    EXPECT_TRUE(inj.shouldFail("x.site"));
    EXPECT_TRUE(inj.shouldFail("x.site"));
    EXPECT_FALSE(inj.shouldFail("x.site"));  // limit reached
    EXPECT_EQ(inj.fireCount(), 2u);
    inj.disarm();
    EXPECT_FALSE(inj.armed());
    EXPECT_FALSE(inj.shouldFail("x.site"));
}

TEST(FaultInjector, DetailMatchingIsExact) {
    const InjectorGuard guard;
    auto& inj = util::FaultInjector::instance();
    inj.arm("core.solve_net@s2");
    EXPECT_FALSE(inj.shouldFail("core.solve_net", "s1"));
    EXPECT_FALSE(inj.shouldFail("other.site", "s2"));
    EXPECT_TRUE(inj.shouldFail("core.solve_net", "s2"));
}

TEST(FaultInjector, MalformedSpecThrowsParseError) {
    const InjectorGuard guard;
    auto& inj = util::FaultInjector::instance();
    EXPECT_THROW(inj.arm("site:notanumber"), sna::ParseError);
    EXPECT_THROW(inj.arm("@detailonly"), sna::ParseError);
    EXPECT_THROW(inj.arm("site:2.0"), sna::ParseError);  // p out of [0,1]
    EXPECT_FALSE(inj.armed());
}

TEST(FaultInjector, ArmFromEnvironment) {
    const InjectorGuard guard;
    ::setenv("SNA_FAULT_INJECT", "env.site:1.0:1", 1);
    ::setenv("SNA_FAULT_SEED", "42", 1);
    auto& inj = util::FaultInjector::instance();
    EXPECT_TRUE(inj.armFromEnv());
    EXPECT_TRUE(inj.armed());
    EXPECT_TRUE(inj.shouldFail("env.site"));
    EXPECT_FALSE(inj.shouldFail("env.site"));  // limit 1
    ::unsetenv("SNA_FAULT_INJECT");
    ::unsetenv("SNA_FAULT_SEED");
    EXPECT_FALSE(inj.armFromEnv());
}

TEST(FaultInjector, FaultPointMacroThrowsTypedError) {
    const InjectorGuard guard;
    util::FaultInjector::instance().arm("macro.site");
    EXPECT_THROW(SNA_FAULT_POINT("macro.site", "d"),
                 util::FaultInjectedError);
    EXPECT_NO_THROW(SNA_FAULT_POINT("other.site", "d"));
}

// --------------------------------------- partial results under cancellation

#ifdef SNA_SANITIZED
constexpr int kChainStages = 10;
#else
constexpr int kChainStages = 28;
#endif

struct ChainFixture {
    cell::CellLibrary lib{tech::tech130()};
    parser::SpefFile spef;
    core::Design design;
    charlib::CharCache cache;

    ChainFixture() : design(lib) {
        spef = parser::parseSpef(chainSpef(kChainStages, 12.0));
        buildChain(design, kChainStages);
    }

    core::DesignNoiseOptions options(int threads, bool propagate = true) {
        auto opt = cheapOptions();
        opt.propagate = propagate;
        opt.threads = threads;
        opt.cache = &cache;
        return opt;
    }
};

TEST(PartialResults, PreCancelledTokenSolvesNothingButReturnsStructure) {
    ChainFixture fx;
    auto opt = fx.options(2);
    util::CancelToken token;
    token.cancel();
    opt.cancel = &token;
    const auto outcome = core::analyzeDesignOutcome(fx.design, fx.spef, opt);
    EXPECT_EQ(outcome.reason, core::TerminationReason::cancelled);
    EXPECT_FALSE(outcome.complete());
    EXPECT_TRUE(outcome.reports.empty());
    EXPECT_EQ(outcome.unsolvedNets.size(),
              static_cast<std::size_t>(2 * kChainStages));
    // analyzeDesign (the throwing wrapper) surfaces the same condition.
    EXPECT_THROW(core::analyzeDesign(fx.design, fx.spef, opt),
                 util::CancelledError);
}

TEST(PartialResults, MidRunCancelReturnsBitwiseIdenticalCompletedReports) {
    // Both the propagated wavefront and the flat sweep (an edgeless task
    // graph) keep the partial-result contract.
    for (const bool propagate : {true, false}) {
        const std::string label =
            propagate ? "mid-run cancel, propagated" : "mid-run cancel, flat";
        ChainFixture fx;
        // Warm the cache first, so the timed baseline run costs what the
        // cancelled run will.
        (void)core::analyzeDesign(fx.design, fx.spef, fx.options(4, propagate));
        const auto start = std::chrono::steady_clock::now();
        const auto baseline =
            core::analyzeDesign(fx.design, fx.spef, fx.options(4, propagate));
        const auto runTime = std::chrono::steady_clock::now() - start;
        ASSERT_EQ(baseline.size(), static_cast<std::size_t>(2 * kChainStages))
            << label;
        const auto base = byNet(baseline);

        // Cancel from a watcher thread a third into the run (the flat sweep
        // is several times shorter than the wavefront): the outcome must
        // carry every completed report, each bitwise-equal to the full
        // run's, and account for every other net as unsolved.
        util::CancelToken token;
        auto opt = fx.options(4, propagate);
        opt.cancel = &token;
        std::thread watcher([&token, runTime] {
            std::this_thread::sleep_for(runTime / 3);
            token.cancel();
        });
        const auto outcome =
            core::analyzeDesignOutcome(fx.design, fx.spef, opt);
        watcher.join();

        // Reports and unsolved nets tile the victim set.
        std::vector<std::string> tiled = outcome.unsolvedNets;
        for (const auto& r : outcome.reports) {
            ASSERT_EQ(r.status, core::NetNoiseReport::Status::ok)
                << label << " " << r.net;
            const auto it = base.find(r.net);
            ASSERT_NE(it, base.end()) << label << " " << r.net;
            expectBitwiseEqual(r, *it->second, label);
            tiled.push_back(r.net);
        }
        std::sort(tiled.begin(), tiled.end());
        std::vector<std::string> victims;
        for (const auto& r : baseline) victims.push_back(r.net);
        std::sort(victims.begin(), victims.end());
        EXPECT_EQ(tiled, victims) << label;
        if (!outcome.complete()) {
            EXPECT_EQ(outcome.reason, core::TerminationReason::cancelled)
                << label;
            EXPECT_FALSE(outcome.unsolvedNets.empty()) << label;
        }
    }
}

TEST(PartialResults, TinyDeadlineExpiresWithDeadlineReason) {
    ChainFixture fx;
    auto opt = fx.options(2);
    opt.deadline = 1e-4;  // far below one net's solve time
    const auto outcome = core::analyzeDesignOutcome(fx.design, fx.spef, opt);
    EXPECT_EQ(outcome.reason, core::TerminationReason::deadlineExpired);
    EXPECT_FALSE(outcome.complete());
    EXPECT_FALSE(outcome.unsolvedNets.empty());
    EXPECT_EQ(outcome.reports.size() + outcome.unsolvedNets.size(),
              static_cast<std::size_t>(2 * kChainStages));
}

TEST(PartialResults, FlatPathHonorsCancellationToo) {
    const cell::CellLibrary lib(tech::tech130());
    const auto spef = parser::parseSpef(ringSpef(6));
    core::Design design(lib);
    buildRingDesign(design, 6);
    auto opt = cheapOptions();
    opt.threads = 2;
    util::CancelToken token;
    token.cancel();
    opt.cancel = &token;
    const auto outcome = core::analyzeDesignOutcome(design, spef, opt);
    EXPECT_EQ(outcome.reason, core::TerminationReason::cancelled);
    EXPECT_TRUE(outcome.reports.empty());
    EXPECT_EQ(outcome.unsolvedNets.size(), 6u);
}

TEST(PartialResults, SnapshotNotCapturedOnCancelledRun) {
    ChainFixture fx;
    core::AnalysisSnapshot snapshot;
    auto opt = fx.options(1);
    opt.snapshot = &snapshot;
    util::CancelToken token;
    token.cancel();
    opt.cancel = &token;
    (void)core::analyzeDesignOutcome(fx.design, fx.spef, opt);
    EXPECT_FALSE(snapshot.valid);
}

// ------------------------------------------------- per-net fault quarantine

TEST(Quarantine, FailFastRethrowsTheInjectedFault) {
    const InjectorGuard guard;
    ChainFixture fx;
    util::FaultInjector::instance().arm("core.solve_net@s2");
    auto opt = fx.options(2);  // onNetFailure defaults to failFast
    EXPECT_THROW(core::analyzeDesign(fx.design, fx.spef, opt),
                 util::FaultInjectedError);
}

TEST(Quarantine, CleanRunUnderNonFailFastPolicyIsBitIdentical) {
    ChainFixture fx;
    const auto baseline =
        core::analyzeDesign(fx.design, fx.spef, fx.options(2));
    for (const auto policy : {core::NetFailurePolicy::quarantineCone,
                              core::NetFailurePolicy::degradeToPassthrough}) {
        auto opt = fx.options(2);
        opt.onNetFailure = policy;
        const auto outcome =
            core::analyzeDesignOutcome(fx.design, fx.spef, opt);
        ASSERT_TRUE(outcome.complete());
        ASSERT_TRUE(outcome.failedNets.empty());
        ASSERT_EQ(outcome.reports.size(), baseline.size());
        const auto base = byNet(baseline);
        for (const auto& r : outcome.reports) {
            expectBitwiseEqual(r, *base.at(r.net), "clean non-failFast");
        }
    }
}

TEST(Quarantine, ConeSuppressedAndUntouchedNetsBitIdenticalAcrossThreads) {
    const InjectorGuard guard;
    ChainFixture fx;
    const auto baseline =
        core::analyzeDesign(fx.design, fx.spef, fx.options(4));
    const auto base = byNet(baseline);

    for (const int threads : {1, 4, 8}) {
        util::FaultInjector::instance().arm("core.solve_net@s2");
        auto opt = fx.options(threads);
        opt.onNetFailure = core::NetFailurePolicy::quarantineCone;
        util::SchedulerStats sched;
        opt.schedulerStats = &sched;
        const auto outcome =
            core::analyzeDesignOutcome(fx.design, fx.spef, opt);
        util::FaultInjector::instance().disarm();

        ASSERT_TRUE(outcome.complete());
        ASSERT_EQ(outcome.failedNets, std::vector<std::string>{"s2"});
        // The scheduled cone of s2 is the rest of the stage chain plus the
        // pass-through output net; the aggressor nets are graph roots and
        // stay untouched. Only the victim members get stub reports.
        std::vector<std::string> coneVictims;
        for (int i = 3; i < kChainStages; ++i) {
            coneVictims.push_back("s" + std::to_string(i));
        }
        std::sort(coneVictims.begin(), coneVictims.end());
        std::vector<std::string> coneAll = coneVictims;
        coneAll.push_back("chain_out");
        std::sort(coneAll.begin(), coneAll.end());
        EXPECT_EQ(outcome.quarantinedNets, coneAll) << "threads=" << threads;
        EXPECT_TRUE(outcome.degradedNets.empty());
        EXPECT_EQ(sched.failedTasks, 1u);
        EXPECT_EQ(sched.quarantinedTasks, coneAll.size());

        std::size_t okCount = 0;
        for (const auto& r : outcome.reports) {
            if (r.status == core::NetNoiseReport::Status::failed) {
                EXPECT_EQ(r.net, "s2");
                EXPECT_NE(r.error.find("injected fault"), std::string::npos);
                continue;
            }
            if (r.status == core::NetNoiseReport::Status::quarantined) {
                EXPECT_NE(std::find(coneVictims.begin(), coneVictims.end(),
                                    r.net),
                          coneVictims.end())
                    << r.net;
                continue;
            }
            ASSERT_EQ(r.status, core::NetNoiseReport::Status::ok) << r.net;
            ++okCount;
            expectBitwiseEqual(r, *base.at(r.net),
                               "quarantine untouched, threads=" +
                                   std::to_string(threads));
        }
        EXPECT_EQ(okCount,
                  baseline.size() - 1 /*failed*/ - coneVictims.size());
    }

    // The flat sweep runs the same engine over an edgeless graph: there is
    // no cone, so under either non-failFast policy only the faulted net is
    // stubbed, every other report is untouched, and the faulted run is
    // never captured as splice input.
    const auto flatBaseline =
        core::analyzeDesign(fx.design, fx.spef, fx.options(4, false));
    const auto flatBase = byNet(flatBaseline);
    for (const auto policy : {core::NetFailurePolicy::quarantineCone,
                              core::NetFailurePolicy::degradeToPassthrough}) {
        for (const int threads : {1, 4, 8}) {
            const std::string label =
                std::string("flat ") +
                (policy == core::NetFailurePolicy::quarantineCone
                     ? "quarantine"
                     : "passthrough") +
                ", threads=" + std::to_string(threads);
            util::FaultInjector::instance().arm("core.solve_net@s2");
            auto opt = fx.options(threads, false);
            opt.onNetFailure = policy;
            util::SchedulerStats sched;
            opt.schedulerStats = &sched;
            core::AnalysisSnapshot snapshot;
            opt.snapshot = &snapshot;
            const auto outcome =
                core::analyzeDesignOutcome(fx.design, fx.spef, opt);
            util::FaultInjector::instance().disarm();

            ASSERT_TRUE(outcome.complete()) << label;
            EXPECT_EQ(outcome.failedNets, std::vector<std::string>{"s2"})
                << label;
            EXPECT_TRUE(outcome.quarantinedNets.empty()) << label;
            EXPECT_TRUE(outcome.degradedNets.empty()) << label;
            EXPECT_EQ(sched.failedTasks, 1u) << label;
            EXPECT_EQ(sched.quarantinedTasks + sched.degradedTasks, 0u)
                << label;
            EXPECT_FALSE(snapshot.valid) << label;
            EXPECT_TRUE(snapshot.victimReports.empty()) << label;

            ASSERT_EQ(outcome.reports.size(), flatBaseline.size()) << label;
            for (std::size_t i = 0; i < outcome.reports.size(); ++i) {
                const auto& r = outcome.reports[i];
                EXPECT_EQ(r.net, flatBaseline[i].net) << label;  // SPEF order
                if (r.net == "s2") {
                    EXPECT_EQ(r.status, core::NetNoiseReport::Status::failed)
                        << label;
                    EXPECT_NE(r.error.find("injected fault"),
                              std::string::npos)
                        << label;
                    continue;
                }
                ASSERT_EQ(r.status, core::NetNoiseReport::Status::ok)
                    << label << " " << r.net;
                expectBitwiseEqual(r, *flatBase.at(r.net), label);
            }
        }
    }
}

TEST(Quarantine, PassthroughDegradesDownstreamInsteadOfSuppressing) {
    const InjectorGuard guard;
    ChainFixture fx;
    const auto baseline =
        core::analyzeDesign(fx.design, fx.spef, fx.options(2));
    const auto base = byNet(baseline);

    util::FaultInjector::instance().arm("core.solve_net@s2");
    auto opt = fx.options(2);
    opt.onNetFailure = core::NetFailurePolicy::degradeToPassthrough;
    const auto outcome = core::analyzeDesignOutcome(fx.design, fx.spef, opt);
    util::FaultInjector::instance().disarm();

    ASSERT_TRUE(outcome.complete());
    ASSERT_EQ(outcome.failedNets, std::vector<std::string>{"s2"});
    EXPECT_TRUE(outcome.quarantinedNets.empty());
    // Downstream stages (and the pass-through output net) solved across
    // the bridge.
    std::vector<std::string> expectDegraded = {"chain_out"};
    for (int i = 3; i < kChainStages; ++i) {
        expectDegraded.push_back("s" + std::to_string(i));
    }
    std::sort(expectDegraded.begin(), expectDegraded.end());
    EXPECT_EQ(outcome.degradedNets, expectDegraded);
    for (const auto& r : outcome.reports) {
        if (r.status != core::NetNoiseReport::Status::ok) continue;
        expectBitwiseEqual(r, *base.at(r.net), "passthrough untouched");
    }
    // A degraded report still carries real numbers (it solved).
    const auto degraded = byNet(outcome.reports);
    ASSERT_NE(degraded.find("s3"), degraded.end());
    EXPECT_EQ(degraded.at("s3")->status,
              core::NetNoiseReport::Status::degraded);
    EXPECT_GT(degraded.at("s3")->cluster.nrcLimit, 0.0);
}

TEST(Quarantine, ResilienceLintRulesReportFailures) {
    const InjectorGuard guard;
    ChainFixture fx;
    util::FaultInjector::instance().arm("core.solve_net@s2");
    auto opt = fx.options(1);
    opt.onNetFailure = core::NetFailurePolicy::quarantineCone;
    opt.lint = lint::Mode::warn;
    lint::LintReport report;
    opt.lintOut = &report;
    (void)core::analyzeDesignOutcome(fx.design, fx.spef, opt);
    util::FaultInjector::instance().disarm();

    std::size_t l701 = 0, l702 = 0;
    for (const auto& d : report.diagnostics) {
        if (d.rule == "SNA-L701") {
            ++l701;
            EXPECT_EQ(d.object, "s2");
            EXPECT_EQ(d.severity, lint::Severity::warning);
        }
        if (d.rule == "SNA-L702") ++l702;
    }
    EXPECT_EQ(l701, 1u);
    // The whole scheduled cone is flagged: downstream stages + chain_out.
    EXPECT_EQ(l702, static_cast<std::size_t>(kChainStages - 3 + 1));
}

TEST(Quarantine, IncrementalFaultPoisonsTheSnapshot) {
    const InjectorGuard guard;
    ChainFixture fx;
    core::AnalysisSnapshot snapshot;
    auto opt = fx.options(2);
    opt.snapshot = &snapshot;
    (void)core::analyzeDesign(fx.design, fx.spef, opt);
    ASSERT_TRUE(snapshot.valid);

    // Dirty-cone re-run hits an injected solver fault: the outcome carries
    // it, and the snapshot must be invalidated (the index was patched in
    // place), so the NEXT iteration rebuilds instead of splicing.
    util::FaultInjector::instance().arm("core.solve_net@s2");
    core::DesignDelta delta;
    delta.nets = {"s2"};
    auto iopt = fx.options(2);
    iopt.onNetFailure = core::NetFailurePolicy::quarantineCone;
    core::IncrementalStats stats;
    const auto outcome = core::analyzeDesignIncrementalOutcome(
        fx.design, fx.spef, delta, snapshot, iopt, &stats);
    util::FaultInjector::instance().disarm();
    EXPECT_FALSE(stats.indexRebuilt);
    EXPECT_EQ(outcome.failedNets, std::vector<std::string>{"s2"});
    EXPECT_FALSE(snapshot.valid);

    core::IncrementalStats stats2;
    const auto recovered = core::analyzeDesignIncrementalOutcome(
        fx.design, fx.spef, delta, snapshot, fx.options(2), &stats2);
    EXPECT_TRUE(stats2.indexRebuilt);
    EXPECT_TRUE(recovered.complete());
    EXPECT_TRUE(recovered.failedNets.empty());
    EXPECT_TRUE(snapshot.valid);
}

// ----------------------------------------------------- snacache v2 healing

TEST(Crc32, MatchesTheStandardCheckValue) {
    EXPECT_EQ(util::crc32("123456789"), 0xCBF43926u);
    EXPECT_EQ(util::crc32(""), 0x00000000u);
}

/// Populates a cache with real characterizations (threads 1 so the fixture
/// is fork-safe) and saves it; returns the save path.
class CacheFileTest : public ::testing::Test {
protected:
    void SetUp() override {
        const cell::CellLibrary lib(tech::tech130());
        spef_ = parser::parseSpef(ringSpef(4));
        design_ = std::make_unique<core::Design>(lib);
        buildRingDesign(*design_, 4);
        auto opt = cheapOptions();
        opt.cache = &cache_;
        (void)core::analyzeDesign(*design_, spef_, opt);
        path_ = tmpPath("sna_resilience.snacache");
        const auto saved = cache_.save(path_);
        ASSERT_TRUE(saved.ok) << saved.error;
        total_ = saved.entries;
        ASSERT_GT(total_, 0u);
    }

    parser::SpefFile spef_;
    std::unique_ptr<core::Design> design_;
    charlib::CharCache cache_;
    std::string path_;
    std::size_t total_ = 0;
};

TEST_F(CacheFileTest, RoundTripIsCleanV2) {
    EXPECT_EQ(slurp(path_).rfind("snacache v2", 0), 0u);
    charlib::CharCache warm;
    const auto loaded = warm.load(path_);
    EXPECT_TRUE(loaded.ok) << loaded.error;
    EXPECT_EQ(loaded.entries, total_);
    EXPECT_EQ(loaded.corrupt, 0u);
    EXPECT_EQ(warm.stats().corruptRecords, 0u);
}

TEST_F(CacheFileTest, FlippedPayloadByteIsRejectedRestStillLoads) {
    std::string text = slurp(path_);
    // Flip a byte squarely inside the first record's payload: one past the
    // first entry line's newline.
    const std::size_t entryLine = text.find("entry ");
    ASSERT_NE(entryLine, std::string::npos);
    const std::size_t payloadStart = text.find('\n', entryLine) + 1;
    ASSERT_LT(payloadStart + 8, text.size());
    text[payloadStart + 4] ^= 0x5a;
    spit(path_, text);

    charlib::CharCache warm;
    const auto loaded = warm.load(path_);
    EXPECT_TRUE(loaded.ok) << loaded.error;  // framing intact, file complete
    EXPECT_EQ(loaded.corrupt, 1u);
    EXPECT_EQ(loaded.entries, total_ - 1);
    EXPECT_EQ(warm.stats().corruptRecords, 1u);
}

TEST_F(CacheFileTest, TornWriteFaultLeavesRecoverablePrefix) {
    const InjectorGuard guard;
    util::FaultInjector::instance().arm("charcache.save.torn");
    const auto torn = cache_.save(path_);
    EXPECT_FALSE(torn.ok);
    EXPECT_NE(torn.error.find("torn"), std::string::npos);
    util::FaultInjector::instance().disarm();

    // The torn file loads without crashing: a valid prefix (or nothing),
    // never a half-parsed record.
    charlib::CharCache warm;
    const auto loaded = warm.load(path_);
    EXPECT_FALSE(loaded.ok);
    EXPECT_LT(loaded.entries, total_);

    // A clean re-save heals the file completely.
    const auto healed = cache_.save(path_);
    ASSERT_TRUE(healed.ok) << healed.error;
    charlib::CharCache warm2;
    const auto reloaded = warm2.load(path_);
    EXPECT_TRUE(reloaded.ok) << reloaded.error;
    EXPECT_EQ(reloaded.entries, total_);
}

TEST_F(CacheFileTest, OpenFaultsSurfaceAsErrorsNotCrashes) {
    const InjectorGuard guard;
    util::FaultInjector::instance().arm("charcache.save.open");
    const auto saved = cache_.save(path_);
    EXPECT_FALSE(saved.ok);
    EXPECT_NE(saved.error.find("injected"), std::string::npos);

    util::FaultInjector::instance().arm("charcache.load.open");
    charlib::CharCache warm;
    const auto loaded = warm.load(path_);
    EXPECT_FALSE(loaded.ok);
    EXPECT_NE(loaded.error.find("injected"), std::string::npos);
    EXPECT_EQ(loaded.entries, 0u);
}

TEST_F(CacheFileTest, RandomTruncationNeverCrashesOrTearsARecord) {
    const std::string full = slurp(path_);
    ASSERT_GT(full.size(), 100u);
    util::Rng rng(0xdecafbadULL);
    // Not "sna_truncated.snacache": test_incremental writes that file, and
    // ctest runs the two suites concurrently in one temp directory.
    const std::string cut = tmpPath("sna_resilience_truncated.snacache");
    for (int trial = 0; trial < 50; ++trial) {
        const auto offset = static_cast<std::size_t>(
            rng.uniformInt(0, static_cast<int>(full.size()) - 1));
        spit(cut, full.substr(0, offset));
        charlib::CharCache warm;
        const auto loaded = warm.load(cut);
        // Some prefix of the records (possibly none) loads; the file is
        // reported incomplete; nothing throws and nothing is half-read.
        EXPECT_FALSE(loaded.ok) << "offset " << offset;
        EXPECT_LE(loaded.entries + loaded.skipped + loaded.corrupt, total_)
            << "offset " << offset;
    }
    std::remove(cut.c_str());
}

TEST_F(CacheFileTest, LegacyV1FilesStillLoad) {
    // Down-convert the v2 file to v1 by walking the real framing: rewrite
    // the header, drop each record's CRC field, and copy payloads by their
    // declared byte counts.
    const std::string v2 = slurp(path_);
    std::ostringstream v1;
    v1 << "snacache v1\n";
    std::size_t pos = v2.find('\n') + 1;
    while (pos < v2.size()) {
        const std::size_t nl = v2.find('\n', pos);
        ASSERT_NE(nl, std::string::npos);
        const std::string line = v2.substr(pos, nl - pos);
        pos = nl + 1;
        if (line.rfind("end ", 0) == 0) {
            v1 << line << '\n';
            break;
        }
        char kind[32] = {0};
        unsigned long long payloadBytes = 0;
        unsigned crc = 0;
        int keyStart = -1;
        ASSERT_EQ(std::sscanf(line.c_str(), "entry %31s %llu %8x %n", kind,
                              &payloadBytes, &crc, &keyStart),
                  3);
        v1 << "entry " << kind << ' ' << payloadBytes << ' '
           << line.substr(static_cast<std::size_t>(keyStart)) << '\n';
        v1 << v2.substr(pos, payloadBytes) << '\n';
        pos += payloadBytes + 1;
    }
    const std::string v1Path = tmpPath("sna_legacy.snacache");
    spit(v1Path, v1.str());

    charlib::CharCache warm;
    const auto loaded = warm.load(v1Path);
    EXPECT_TRUE(loaded.ok) << loaded.error;
    EXPECT_EQ(loaded.entries, total_);
    std::remove(v1Path.c_str());
}

TEST_F(CacheFileTest, TwoProcessesSavingTheSamePathBothLeaveValidFiles) {
    // Each child warm-starts from the fixture file into its own cache and
    // then hammers save() on a shared contended path. The advisory flock
    // serializes the writers; whatever the interleaving, the surviving
    // file must always be a complete, CRC-valid snapshot.
    const std::string contended = tmpPath("sna_contended.snacache");
    std::remove(contended.c_str());
    const auto child = [&]() -> pid_t {
        const pid_t pid = ::fork();
        if (pid != 0) return pid;
        charlib::CharCache mine;
        const auto warm = mine.load(path_);
        if (!warm.ok || warm.entries == 0) ::_exit(2);
        for (int i = 0; i < 8; ++i) {
            if (!mine.save(contended).ok) ::_exit(3);
        }
        ::_exit(0);
    };
    const pid_t a = child();
    ASSERT_GE(a, 0);
    const pid_t b = child();
    ASSERT_GE(b, 0);
    int statusA = 0, statusB = 0;
    ASSERT_EQ(::waitpid(a, &statusA, 0), a);
    ASSERT_EQ(::waitpid(b, &statusB, 0), b);
    EXPECT_TRUE(WIFEXITED(statusA) && WEXITSTATUS(statusA) == 0)
        << WEXITSTATUS(statusA);
    EXPECT_TRUE(WIFEXITED(statusB) && WEXITSTATUS(statusB) == 0)
        << WEXITSTATUS(statusB);

    charlib::CharCache survivor;
    const auto loaded = survivor.load(contended);
    EXPECT_TRUE(loaded.ok) << loaded.error;
    EXPECT_EQ(loaded.entries, total_);
    EXPECT_EQ(loaded.corrupt, 0u);
    std::remove(contended.c_str());
    std::remove((contended + ".lock").c_str());
}

}  // namespace

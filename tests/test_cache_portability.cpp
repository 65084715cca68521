// Tests for locale-independent model/cache serialization and concurrent
// cache persistence: formatDoubleHex / parseDoubleToken round-trips
// (including the legacy printf-%a spellings older cache files carry),
// model_io and snacache round-trips under a forced comma-decimal locale
// (skipped when the container ships no such locale), a comma-decimal C++
// stream locale (always runs — built from a custom numpunct facet), and a
// two-writer save() stress on one path.
#include <gtest/gtest.h>

#include <clocale>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <locale>
#include <string>
#include <thread>
#include <vector>

#include "celllib/library.hpp"
#include "charlib/char_cache.hpp"
#include "charlib/model_io.hpp"
#include "tech/tech.hpp"
#include "waveform/waveform.hpp"
#include "util/strings.hpp"

namespace {

using namespace sna;

std::string tmpPath(const std::string& name) {
    return testing::TempDir() + name;
}

// --------------------------------------------------- hex-float round trip

TEST(HexDouble, RoundTripsBitExactly) {
    const double cases[] = {0.0,
                            1.0,
                            -1.0,
                            1.5,
                            3.141592653589793,
                            1e300,
                            -1e-300,
                            std::numeric_limits<double>::max(),
                            std::numeric_limits<double>::min(),
                            std::numeric_limits<double>::denorm_min(),
                            std::numeric_limits<double>::infinity(),
                            -std::numeric_limits<double>::infinity()};
    for (const double v : cases) {
        const auto back = str::parseDoubleToken(str::formatDoubleHex(v));
        ASSERT_TRUE(back.has_value()) << str::formatDoubleHex(v);
        EXPECT_EQ(*back, v) << str::formatDoubleHex(v);
    }
    // -0.0 keeps its sign bit.
    const auto negZero = str::parseDoubleToken(str::formatDoubleHex(-0.0));
    ASSERT_TRUE(negZero.has_value());
    EXPECT_TRUE(std::signbit(*negZero));
    // NaN round-trips as NaN.
    const auto nan = str::parseDoubleToken(
        str::formatDoubleHex(std::numeric_limits<double>::quiet_NaN()));
    ASSERT_TRUE(nan.has_value());
    EXPECT_TRUE(std::isnan(*nan));
}

TEST(HexDouble, AcceptsLegacyPrintfSpellings) {
    // Older cache files were written with printf("%a"): "0x1.8p+1"-style,
    // with an explicit 0x prefix and sign. from_chars-based parsing must
    // keep reading them.
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%a", 0.1);
    EXPECT_EQ(str::parseDoubleToken(buf).value_or(-1.0), 0.1);
    EXPECT_EQ(str::parseDoubleToken("0x1.8p+1").value_or(0.0), 3.0);
    EXPECT_EQ(str::parseDoubleToken("-0x1.0p-3").value_or(0.0), -0.125);
    EXPECT_EQ(str::parseDoubleToken("0X1P+4").value_or(0.0), 16.0);
    // Plain decimal and scientific notation still parse.
    EXPECT_EQ(str::parseDoubleToken("1.25e-3").value_or(0.0), 1.25e-3);
    EXPECT_EQ(str::parseDoubleToken("-42").value_or(0.0), -42.0);
}

TEST(HexDouble, RejectsMalformedTokens) {
    EXPECT_FALSE(str::parseDoubleToken(""));
    EXPECT_FALSE(str::parseDoubleToken("abc"));
    EXPECT_FALSE(str::parseDoubleToken("1.5junk"));
    EXPECT_FALSE(str::parseDoubleToken("0x"));
    EXPECT_FALSE(str::parseDoubleToken("-"));
    // A comma is never a decimal separator, whatever the locale.
    EXPECT_FALSE(str::parseDoubleToken("1,5"));
}

// ------------------------------------------------------------ locale forcing

/// Switches LC_NUMERIC to a comma-decimal locale for the test's scope.
/// available() is false when the container ships none of the candidates.
class CommaLocale {
public:
    CommaLocale() {
        saved_ = std::setlocale(LC_NUMERIC, nullptr);
        for (const char* name :
             {"de_DE.UTF-8", "de_DE.utf8", "de_DE", "fr_FR.UTF-8",
              "fr_FR.utf8", "fr_FR", "it_IT.UTF-8", "es_ES.UTF-8"}) {
            if (std::setlocale(LC_NUMERIC, name) != nullptr) {
                // Trust but verify: the locale must actually print commas.
                char buf[32];
                std::snprintf(buf, sizeof(buf), "%.1f", 1.5);
                if (std::string(buf) == "1,5") {
                    available_ = true;
                    return;
                }
            }
        }
        std::setlocale(LC_NUMERIC, saved_.c_str());
    }
    ~CommaLocale() { std::setlocale(LC_NUMERIC, saved_.c_str()); }
    bool available() const { return available_; }

private:
    std::string saved_;
    bool available_ = false;
};

using charlib::TheveninModel;

TheveninModel referenceModel() {
    TheveninModel m;
    m.vStart = 0.0;
    m.vEnd = 1.2;
    m.slew = 6.5e-11;
    m.rth = 1563.4210526315789;
    m.delay = 4.35e-11;
    return m;
}

void expectModelRoundTrip() {
    const TheveninModel m = referenceModel();
    const TheveninModel back = charlib::loadThevenin(charlib::saveThevenin(m));
    EXPECT_EQ(back.vStart, m.vStart);
    EXPECT_EQ(back.vEnd, m.vEnd);
    EXPECT_EQ(back.slew, m.slew);
    EXPECT_EQ(back.rth, m.rth);
    EXPECT_EQ(back.delay, m.delay);
}

charlib::CharCache& seededCache(charlib::CharCache& cache,
                                const cell::CellLibrary& lib,
                                std::size_t entries) {
    for (std::size_t i = 0; i < entries; ++i) {
        charlib::TheveninSpec spec;
        spec.cell = &lib.cell("INV_X1");
        spec.input = "a";
        spec.outputRising = (i % 2) == 0;
        spec.loadCap = 10e-15 + 1e-15 * static_cast<double>(i);
        TheveninModel m = referenceModel();
        m.rth += static_cast<double>(i);
        EXPECT_TRUE(cache.seedThevenin(spec, m));
    }
    return cache;
}

TEST(LocalePortability, ModelAndCacheRoundTripUnderCommaDecimalCLocale) {
    CommaLocale locale;
    if (!locale.available()) {
        GTEST_SKIP() << "no comma-decimal locale installed in this image";
    }
    expectModelRoundTrip();

    const cell::CellLibrary lib(tech::tech130());
    const std::string path = tmpPath("sna_locale.snacache");
    charlib::CharCache cache;
    seededCache(cache, lib, 4);
    const auto saved = cache.save(path);
    EXPECT_TRUE(saved.ok) << saved.error;
    EXPECT_EQ(saved.entries, 4u);
    charlib::CharCache fresh;
    const auto loaded = fresh.load(path);
    EXPECT_TRUE(loaded.ok) << loaded.error;
    EXPECT_EQ(loaded.entries, 4u);
    std::remove(path.c_str());
}

TEST(LocalePortability, StreamsUnderCommaDecimalGlobalCppLocale) {
    // A comma-decimal numpunct needs no OS locale pack, so this test always
    // runs: it catches any serialization path formatting through an
    // un-imbued iostream.
    struct CommaPunct : std::numpunct<char> {
        char do_decimal_point() const override { return ','; }
    };
    const std::locale saved = std::locale::global(
        std::locale(std::locale::classic(), new CommaPunct));
    struct Restore {
        const std::locale& loc;
        ~Restore() { std::locale::global(loc); }
    } restore{saved};

    expectModelRoundTrip();

    // The CSV exchange format stays dot-decimal too: a comma-decimal
    // writer would produce a third column and break the round trip.
    wave::Waveform w;
    w.append(0.0, 0.0);
    w.append(1.5e-12, 0.75);
    const std::string csv = charlib::toCsv(w);
    const wave::Waveform back = charlib::fromCsv(csv);
    ASSERT_EQ(back.size(), 2u);
    EXPECT_DOUBLE_EQ(back.samples()[1].t, 1.5e-12);
    EXPECT_DOUBLE_EQ(back.samples()[1].v, 0.75);
}

// ----------------------------------------------------- concurrent persistence

TEST(ConcurrentSave, TwoWritersOnePathNeverCorrupt) {
    const cell::CellLibrary lib(tech::tech130());
    // Not "sna_concurrent.snacache": test_incremental writes that file, and
    // ctest runs the two suites concurrently in one temp directory.
    const std::string name = "sna_portability_concurrent.snacache";
    const std::string path = tmpPath(name);
    charlib::CharCache cache;
    seededCache(cache, lib, 8);

    constexpr int kIters = 25;
    std::vector<std::thread> writers;
    std::vector<int> failures(2, 0);
    for (int t = 0; t < 2; ++t) {
        writers.emplace_back([&, t] {
            for (int i = 0; i < kIters; ++i) {
                const auto r = cache.save(path);
                if (!r.ok || r.entries != 8u) ++failures[t];
            }
        });
    }
    for (auto& th : writers) th.join();
    EXPECT_EQ(failures[0], 0);
    EXPECT_EQ(failures[1], 0);

    // Whoever won, the published file is one complete snapshot.
    charlib::CharCache fresh;
    const auto loaded = fresh.load(path);
    EXPECT_TRUE(loaded.ok) << loaded.error;
    EXPECT_EQ(loaded.entries, 8u);

    // No temporary sibling survives: every writer's tmp was renamed away.
    std::size_t leftover = 0;
    for (const auto& entry :
         std::filesystem::directory_iterator(testing::TempDir())) {
        const std::string base = entry.path().filename().string();
        if (base.rfind(name + ".tmp.", 0) == 0) ++leftover;
    }
    EXPECT_EQ(leftover, 0u);
    std::remove(path.c_str());
}

}  // namespace

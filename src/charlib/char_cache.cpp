#include "charlib/char_cache.hpp"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>
#include <utility>
#include <vector>

#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>

#include "charlib/model_io.hpp"
#include "util/crc32.hpp"
#include "util/error.hpp"
#include "util/fault_injection.hpp"
#include "util/log.hpp"
#include "util/strings.hpp"

namespace sna::charlib {

namespace {

// Bitwise double encoding: cache keys must distinguish every numerically
// distinct spec (a hit must reproduce the direct call exactly), so no
// rounding or formatting is involved.
void putDouble(std::ostringstream& os, double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    os << '/' << std::hex << bits << std::dec;
}

// Cells from different technologies share names (every library has an
// INV_X1), so keys lead with the technology's full electrical identity —
// name alone is not enough (corner sweeps perturb transistor models while
// keeping the name): a shared cache must not hand tech-A models to a
// tech-B run.
void putMosModel(std::ostringstream& os, const spice::MosModel& m) {
    putDouble(os, m.vt0);
    putDouble(os, m.kp);
    putDouble(os, m.lambda);
    putDouble(os, m.gamma);
    putDouble(os, m.phi);
    putDouble(os, m.cox);
    putDouble(os, m.cgso);
    putDouble(os, m.cgdo);
    putDouble(os, m.cj);
    putDouble(os, m.cjsw);
    putDouble(os, m.ldiff);
}

void putTech(std::ostringstream& os, const cell::Cell& c) {
    const tech::Technology& t = c.technology();
    os << t.name;
    putDouble(os, t.vdd);
    putDouble(os, t.lmin);
    putDouble(os, t.wnUnit);
    putDouble(os, t.wpUnit);
    putMosModel(os, t.nmos);
    putMosModel(os, t.pmos);
    os << '/';
}

std::string keyOf(const LoadCurveSpec& s) {
    SNA_REQUIRE(s.cell != nullptr, "load-curve spec needs a cell");
    std::ostringstream os;
    putTech(os, *s.cell);
    os << s.cell->name() << '/' << s.input << '/' << s.outputLevel << '/'
       << s.nVin << '/' << s.nVout;
    putDouble(os, s.vMin);
    putDouble(os, s.vMax);
    return os.str();
}

std::string keyOf(const TheveninSpec& s) {
    SNA_REQUIRE(s.cell != nullptr, "thevenin spec needs a cell");
    std::ostringstream os;
    putTech(os, *s.cell);
    os << s.cell->name() << '/' << s.input << '/' << s.outputRising;
    putDouble(os, s.loadCap);
    putDouble(os, s.inputSlew);
    return os.str();
}

std::string keyOf(const PropagationSpec& s) {
    SNA_REQUIRE(s.cell != nullptr, "propagation spec needs a cell");
    std::ostringstream os;
    putTech(os, *s.cell);
    os << s.cell->name() << '/' << s.input << '/' << s.outputLevel;
    putDouble(os, s.loadCap);
    for (const double h : s.heights) putDouble(os, h);
    os << '/';
    for (const double w : s.widths) putDouble(os, w);
    return os.str();
}

// The per-width NRC key: every NrcSpec field but the width list, then the
// one width. A legacy full-curve key is the same prefix followed by every
// width of the curve, which is what load() splits on.
std::string nrcKeyPrefix(const NrcSpec& s) {
    SNA_REQUIRE(s.cell != nullptr, "NRC spec needs a cell");
    std::ostringstream os;
    putTech(os, *s.cell);
    os << s.cell->name() << '/' << s.input << '/' << s.quietLevel;
    putDouble(os, s.loadCap);
    putDouble(os, s.failFraction);
    return os.str();
}

std::string widthField(double w) {
    std::ostringstream os;
    putDouble(os, w);
    return os.str();
}

// ---- "snacache v2" file format -------------------------------------------
//
//   snacache v2
//   entry <kind> <payload-bytes> <crc32-hex8> <escaped-key>
//   <payload-bytes of snamodel text>
//   entry ...
//   end <record-count>
//
// Kinds: loadcurve, thevenin and propagation payloads are exactly the
// charlib/model_io serialization of the value (hex-float, exact
// round-trip), so the on-disk models inherit model_io's versioning and
// tests. An nrcwidth payload is the one failing height as a hex float; its
// key is the NRC spec without its width list plus the single width. The
// legacy nrc kind (a model_io NRC curve keyed by the spec plus every
// width) is only read: load() strips the curve's widths from the key and
// inserts one nrcwidth entry per node. Readers skip kinds they do not know
// (counted as skipped), so adding a kind needs no version bump.
//
// Keys are percent-escaped (they are slash-separated hex fields plus
// free-form technology/cell names); payloads are carried by byte count, so
// the loader never has to parse them to skip them. The CRC32 (reflected
// 0xEDB88320, same as zip/zlib) covers the unescaped key followed by the
// raw payload bytes — both lengths are pinned by the record line, so the
// digest is unambiguous. A record whose stored CRC disagrees with the bytes
// read is individually rejected; everything after it (whose framing is
// intact) still loads. Legacy "snacache v1" records are the same minus the
// CRC field and load without per-record verification.

constexpr const char* kCacheHeaderV2 = "snacache v2";
constexpr const char* kCacheHeaderV1 = "snacache v1";

constexpr const char* kKindLoadCurve = "loadcurve";
constexpr const char* kKindThevenin = "thevenin";
constexpr const char* kKindNrcWidth = "nrcwidth";
constexpr const char* kKindLegacyNrc = "nrc";  // full curve; read only
constexpr const char* kKindPropagation = "propagation";

std::string escapeKey(const std::string& key) {
    std::string out;
    out.reserve(key.size());
    for (const unsigned char c : key) {
        if (c <= ' ' || c == '%' || c == 0x7f) {
            char buf[4];
            std::snprintf(buf, sizeof(buf), "%%%02x", c);
            out += buf;
        } else {
            out += static_cast<char>(c);
        }
    }
    return out;
}

bool unescapeKey(const std::string& escaped, std::string& out) {
    out.clear();
    out.reserve(escaped.size());
    for (std::size_t i = 0; i < escaped.size(); ++i) {
        if (escaped[i] != '%') {
            out += escaped[i];
            continue;
        }
        if (i + 2 >= escaped.size()) return false;
        unsigned value = 0;
        if (std::sscanf(escaped.c_str() + i + 1, "%2x", &value) != 1)
            return false;
        out += static_cast<char>(value);
        i += 2;
    }
    return true;
}

std::uint32_t recordCrc(const std::string& key, const std::string& payload) {
    std::uint32_t crc = util::crc32Init();
    crc = util::crc32Update(crc, key.data(), key.size());
    crc = util::crc32Update(crc, payload.data(), payload.size());
    return util::crc32Final(crc);
}

// Advisory cross-process lock on `path + ".lock"`, acquired non-blocking
// with bounded retry + exponential backoff (~1 s worst case). Purely
// cooperative: it serializes well-behaved writers (and keeps a reader from
// racing a writer's rename on filesystems without atomic rename semantics),
// but holding it is never required for safety — the tmp + rename protocol
// already guarantees readers only ever see complete snapshots. So failure
// to acquire (lock held by a wedged process, or a filesystem without flock)
// degrades to proceeding unlocked, with one warning.
class CacheFileLock {
public:
    explicit CacheFileLock(const std::string& cachePath) {
        const std::string lockPath = cachePath + ".lock";
        fd_ = ::open(lockPath.c_str(), O_CREAT | O_RDWR | O_CLOEXEC, 0644);
        if (fd_ < 0) return;  // unwritable directory: proceed unlocked
        int backoffMs = 1;
        for (int attempt = 0; attempt < 24; ++attempt) {
            if (::flock(fd_, LOCK_EX | LOCK_NB) == 0) {
                held_ = true;
                return;
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(backoffMs));
            backoffMs = std::min(backoffMs * 2, 128);
        }
        log::warn() << "cache lock " << lockPath
                    << " busy past the retry budget; proceeding unlocked "
                       "(atomic rename still protects readers)";
        ::close(fd_);
        fd_ = -1;
    }
    ~CacheFileLock() {
        if (fd_ >= 0) {
            ::flock(fd_, LOCK_UN);
            ::close(fd_);
        }
    }
    CacheFileLock(const CacheFileLock&) = delete;
    CacheFileLock& operator=(const CacheFileLock&) = delete;
    bool held() const { return held_; }

private:
    int fd_ = -1;
    bool held_ = false;
};

}  // namespace

template <typename T, typename Fn>
std::shared_ptr<const T> CharCache::getOrCompute(Table<T>& table,
                                                 const std::string& key,
                                                 Fn compute) {
    std::shared_future<std::shared_ptr<const T>> fut;
    {
        std::unique_lock<std::mutex> lock(mu_);
        const auto it = table.entries.find(key);
        if (it != table.entries.end()) {
            // A disk-loaded entry's first-and-every hit is characterization
            // the warm start replaced; count it apart from in-memory hits.
            if (it->second.fromDisk)
                ++table.diskHits;
            else
                ++table.hits;
            fut = it->second.fut;
        } else if (table.entries.size() >= table.maxEntries) {
            // Table full: characterize without storing, so a shared cache
            // stays bounded under never-repeating keys.
            ++table.runs;
            ++table.overflow;
            lock.unlock();
            return std::make_shared<const T>(compute());
        } else {
            ++table.runs;
            std::promise<std::shared_ptr<const T>> prom;
            fut = prom.get_future().share();
            table.entries.emplace(key, Entry<T>{fut, false});
            lock.unlock();
            // Characterize outside the lock: other keys proceed in parallel,
            // same-key callers block on the future (single-flight).
            try {
                prom.set_value(std::make_shared<const T>(compute()));
            } catch (...) {
                prom.set_exception(std::current_exception());
                std::lock_guard<std::mutex> relock(mu_);
                table.entries.erase(key);  // allow a later retry
            }
        }
    }
    return fut.get();
}

template <typename T>
bool CharCache::insertFromDisk(Table<T>& table, const std::string& key,
                               std::shared_ptr<const T> value) {
    const std::lock_guard<std::mutex> lock(mu_);
    // A present key wins — ready entries are identical by key construction,
    // and an in-flight future must keep its single-flight waiters.
    if (table.entries.count(key) != 0) return false;
    if (table.entries.size() >= table.maxEntries) return false;
    std::promise<std::shared_ptr<const T>> prom;
    prom.set_value(std::move(value));
    table.entries.emplace(key, Entry<T>{prom.get_future().share(), true});
    return true;
}

bool CharCache::insertLegacyNrc(const std::string& curveKey,
                                const la::Grid1d& curve) {
    std::string widths;
    for (const double w : curve.xs()) widths += widthField(w);
    if (curveKey.size() < widths.size() ||
        curveKey.compare(curveKey.size() - widths.size(), widths.size(),
                         widths) != 0) {
        return false;
    }
    const std::string prefix =
        curveKey.substr(0, curveKey.size() - widths.size());
    bool inserted = false;
    for (std::size_t i = 0; i < curve.size(); ++i) {
        inserted |= insertFromDisk(
            nrcHeights_, prefix + widthField(curve.xs()[i]),
            std::make_shared<const double>(curve.ys()[i]));
    }
    return inserted;
}

std::shared_ptr<const la::Grid2d> CharCache::loadCurve(
    const LoadCurveSpec& spec) {
    return getOrCompute(loadCurves_, keyOf(spec),
                        [&] { return characterizeLoadCurve(spec); });
}

std::shared_ptr<const TheveninModel> CharCache::thevenin(
    const TheveninSpec& spec) {
    return getOrCompute(thevenins_, keyOf(spec),
                        [&] { return characterizeThevenin(spec); });
}

double CharCache::nrcHeight(const NrcSpec& spec, double width) {
    return *getOrCompute(nrcHeights_, nrcKeyPrefix(spec) + widthField(width),
                         [&] { return nrcFailingHeight(spec, width); });
}

la::Grid1d CharCache::nrc(const NrcSpec& spec) {
    SNA_REQUIRE(spec.widths.size() >= 2, "NRC needs at least two widths");
    std::vector<double> heights;
    heights.reserve(spec.widths.size());
    for (const double w : spec.widths) heights.push_back(nrcHeight(spec, w));
    return la::Grid1d(spec.widths, std::move(heights));
}

std::shared_ptr<const PropagationTable> CharCache::propagation(
    const PropagationSpec& spec) {
    return getOrCompute(propagations_, keyOf(spec),
                        [&] { return characterizePropagation(spec); });
}

bool CharCache::seedThevenin(const TheveninSpec& spec,
                             const TheveninModel& model) {
    // Seeded entries are marked fromDisk: like a warm start, their hits are
    // characterization work an external source (NLDM tables) replaced.
    return insertFromDisk(thevenins_, keyOf(spec),
                          std::make_shared<const TheveninModel>(model));
}

CharCache::Stats CharCache::stats() const {
    const std::lock_guard<std::mutex> lock(mu_);
    Stats s;
    s.loadCurveRuns = loadCurves_.runs;
    s.loadCurveHits = loadCurves_.hits;
    s.theveninRuns = thevenins_.runs;
    s.theveninHits = thevenins_.hits;
    s.nrcRuns = nrcHeights_.runs;
    s.nrcHits = nrcHeights_.hits;
    s.propagationRuns = propagations_.runs;
    s.propagationHits = propagations_.hits;
    s.loadCurveDiskHits = loadCurves_.diskHits;
    s.theveninDiskHits = thevenins_.diskHits;
    s.nrcDiskHits = nrcHeights_.diskHits;
    s.propagationDiskHits = propagations_.diskHits;
    s.loadCurveOverflow = loadCurves_.overflow;
    s.theveninOverflow = thevenins_.overflow;
    s.nrcOverflow = nrcHeights_.overflow;
    s.propagationOverflow = propagations_.overflow;
    s.corruptRecords = corruptRecords_;
    return s;
}

CharCache::Limits CharCache::limits() const {
    const std::lock_guard<std::mutex> lock(mu_);
    Limits l;
    l.loadCurves = loadCurves_.maxEntries;
    l.thevenins = thevenins_.maxEntries;
    l.nrcs = nrcHeights_.maxEntries;
    l.propagations = propagations_.maxEntries;
    return l;
}

void CharCache::setLimits(const Limits& limits) {
    const std::lock_guard<std::mutex> lock(mu_);
    loadCurves_.maxEntries = limits.loadCurves;
    thevenins_.maxEntries = limits.thevenins;
    nrcHeights_.maxEntries = limits.nrcs;
    propagations_.maxEntries = limits.propagations;
}

CharCache::PersistResult CharCache::save(const std::string& path) const {
    PersistResult result;
    // Snapshot ready entries under the lock (futures are cheap to copy),
    // serialize outside it so in-flight characterizations are not stalled.
    struct Record {
        const char* kind;
        std::string key;
        std::string payload;
    };
    std::vector<Record> records;
    {
        const std::lock_guard<std::mutex> lock(mu_);
        const auto snapshot = [&](const auto& table, const char* kind,
                                  auto serialize) {
            for (const auto& [key, entry] : table.entries) {
                if (entry.fut.wait_for(std::chrono::seconds(0)) !=
                    std::future_status::ready) {
                    ++result.skipped;  // in-flight: the value isn't born yet
                    continue;
                }
                records.push_back({kind, key, serialize(*entry.fut.get())});
            }
        };
        snapshot(loadCurves_, kKindLoadCurve,
                 [](const la::Grid2d& v) { return saveLoadCurve(v); });
        snapshot(thevenins_, kKindThevenin,
                 [](const TheveninModel& v) { return saveThevenin(v); });
        snapshot(nrcHeights_, kKindNrcWidth,
                 [](double v) { return str::formatDoubleHex(v); });
        snapshot(propagations_, kKindPropagation,
                 [](const PropagationTable& v) { return savePropagation(v); });
    }

    // Render the whole snapshot up front: the torn-write fault below and
    // the single write() call both want the final byte stream in hand.
    std::string text;
    {
        std::ostringstream os;
        os << kCacheHeaderV2 << '\n';
        char crcHex[9];
        for (const Record& r : records) {
            std::snprintf(crcHex, sizeof(crcHex), "%08x",
                          recordCrc(r.key, r.payload));
            os << "entry " << r.kind << ' ' << r.payload.size() << ' '
               << crcHex << ' ' << escapeKey(r.key) << '\n'
               << r.payload << '\n';
        }
        os << "end " << records.size() << '\n';
        text = os.str();
    }

    // Fault sites (no-ops unless the injector is armed): an unopenable
    // target, and a writer that died mid-write leaving a torn file AT the
    // final path — the crash mode the per-record CRCs exist to absorb,
    // unreachable through the tmp + rename path below.
    if (util::FaultInjector::instance().shouldFail("charcache.save.open",
                                                   path)) {
        result.error = "injected fault: cannot open " + path + " for writing";
        return result;
    }
    if (util::FaultInjector::instance().shouldFail("charcache.save.torn",
                                                   path)) {
        std::ofstream torn(path, std::ios::binary | std::ios::trunc);
        torn.write(text.data(),
                   static_cast<std::streamsize>(text.size() / 2));
        result.error = "injected fault: torn write to " + path;
        return result;
    }

    // Serialize cooperating writers; safe to proceed unlocked on timeout.
    const CacheFileLock lock(path);

    // Write a temporary sibling and rename: a concurrent load() from
    // another process sees either the old complete file or the new one.
    // The tmp name is unique per writer (pid + process-wide counter): two
    // processes (or threads) saving to the same path each build their own
    // complete snapshot and the renames serialize, so last-writer-wins is
    // the only race — a fixed ".tmp" sibling would let one writer rename
    // another's half-written file into place.
    static std::atomic<unsigned long long> saveCounter{0};
    const std::string tmp = path + ".tmp." + std::to_string(::getpid()) +
                            "." + std::to_string(++saveCounter);
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        if (!out) {
            result.error = "cannot open " + tmp + " for writing";
            return result;
        }
        out.write(text.data(), static_cast<std::streamsize>(text.size()));
        out.flush();
        if (!out) {
            result.error = "write failed for " + tmp;
            std::remove(tmp.c_str());
            return result;
        }
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        result.error = "rename to " + path + " failed";
        std::remove(tmp.c_str());
        return result;
    }
    result.entries = records.size();
    result.ok = true;
    return result;
}

CharCache::PersistResult CharCache::load(const std::string& path) {
    PersistResult result;
    std::string text;
    {
        // Hold the writers' lock while snapshotting the bytes so a reader
        // on a filesystem without atomic rename never sees a mid-publish
        // state; on timeout fall through (rename is atomic everywhere we
        // actually run).
        const CacheFileLock lock(path);
        if (util::FaultInjector::instance().shouldFail("charcache.load.open",
                                                       path)) {
            result.error = "injected fault: cannot open " + path;
            return result;
        }
        std::ifstream in(path, std::ios::binary);
        if (!in) {
            result.error = "cannot open " + path;
            return result;
        }
        std::ostringstream buf;
        buf << in.rdbuf();
        text = buf.str();
    }

    std::size_t pos = 0;
    const auto nextLine = [&](std::string& line) {
        if (pos >= text.size()) return false;
        const std::size_t nl = text.find('\n', pos);
        if (nl == std::string::npos) return false;  // unterminated: truncated
        line.assign(text, pos, nl - pos);
        pos = nl + 1;
        return true;
    };

    std::string line;
    bool hasCrc = true;
    if (!nextLine(line)) {
        result.error = "empty cache file";
        return result;
    }
    if (line == kCacheHeaderV2) {
        hasCrc = true;
    } else if (line == kCacheHeaderV1) {
        hasCrc = false;  // legacy read-only compat: no per-record CRCs
    } else {
        // Wrong or future version: load nothing — the format may have
        // changed incompatibly, and a silent partial read could alias keys.
        result.error = "bad cache header (want \"" +
                       std::string(kCacheHeaderV2) + "\")";
        return result;
    }

    std::size_t declared = 0;
    bool sawEnd = false;
    while (nextLine(line)) {
        if (line.rfind("end ", 0) == 0) {
            declared = std::strtoull(line.c_str() + 4, nullptr, 10);
            sawEnd = true;
            break;
        }
        char kind[32] = {0};
        unsigned long long payloadBytes = 0;
        unsigned crcStored = 0;
        int keyStart = -1;
        if (hasCrc) {
            if (std::sscanf(line.c_str(), "entry %31s %llu %8x %n", kind,
                            &payloadBytes, &crcStored, &keyStart) != 3 ||
                keyStart < 0) {
                result.error = "malformed record line";
                break;  // framing lost: keep the valid prefix
            }
        } else if (std::sscanf(line.c_str(), "entry %31s %llu %n", kind,
                               &payloadBytes, &keyStart) != 2 ||
                   keyStart < 0) {
            result.error = "malformed record line";
            break;
        }
        std::string key;
        if (!unescapeKey(line.substr(static_cast<std::size_t>(keyStart)),
                         key)) {
            result.error = "malformed key escape";
            break;
        }
        if (pos + payloadBytes + 1 > text.size()) {
            result.error = "truncated payload";  // keep the valid prefix
            break;
        }
        const std::string payload = text.substr(pos, payloadBytes);
        pos += payloadBytes;
        if (text[pos] != '\n') {
            result.error = "missing payload terminator";
            break;
        }
        ++pos;

        // Self-healing: a record whose digest disagrees with the bytes read
        // is individually rejected; its framing was intact, so every record
        // after it still loads.
        if (hasCrc && recordCrc(key, payload) != crcStored) {
            ++result.corrupt;
            continue;
        }

        // A payload model_io rejects (corrupt hex, bad snamodel header) is
        // skipped, not fatal: the rest of the file is still good.
        bool inserted = false;
        try {
            const std::string k(kind);
            if (k == kKindLoadCurve) {
                inserted = insertFromDisk(
                    loadCurves_, key,
                    std::make_shared<const la::Grid2d>(loadLoadCurve(payload)));
            } else if (k == kKindThevenin) {
                inserted = insertFromDisk(
                    thevenins_, key,
                    std::make_shared<const TheveninModel>(
                        loadThevenin(payload)));
            } else if (k == kKindNrcWidth) {
                const auto h = str::parseDoubleToken(payload);
                inserted = h && insertFromDisk(nrcHeights_, key,
                                               std::make_shared<const double>(*h));
            } else if (k == kKindLegacyNrc) {
                inserted = insertLegacyNrc(key, loadNrc(payload));
            } else if (k == kKindPropagation) {
                inserted = insertFromDisk(
                    propagations_, key,
                    std::make_shared<const PropagationTable>(
                        loadPropagation(payload)));
            }
        } catch (const std::exception&) {
            inserted = false;
        }
        if (inserted)
            ++result.entries;
        else
            ++result.skipped;
    }

    if (result.error.empty()) {
        if (!sawEnd) {
            result.error = "truncated file (no end record)";
        } else if (declared !=
                   result.entries + result.skipped + result.corrupt) {
            result.error = "record count mismatch";
        } else {
            result.ok = true;
        }
    }

    if (result.corrupt != 0) {
        const std::lock_guard<std::mutex> lock(mu_);
        corruptRecords_ += result.corrupt;
    }
    // One warning per file summarizing what the self-healing path dropped;
    // per-record chatter would drown real diagnostics on a large cache.
    if (result.corrupt != 0 || !result.ok) {
        auto warn = log::warn();
        warn << "cache " << path << ": ";
        if (!result.ok) warn << result.error << "; ";
        warn << "kept " << result.entries << " records";
        if (result.corrupt != 0)
            warn << ", dropped " << result.corrupt << " CRC-mismatched";
        if (result.skipped != 0)
            warn << ", skipped " << result.skipped
                 << " (unreadable or already present)";
    }
    return result;
}

void CharCache::clear() {
    const std::lock_guard<std::mutex> lock(mu_);
    const auto reset = [](auto& table) {
        table.entries.clear();
        table.runs = 0;
        table.hits = 0;
        table.diskHits = 0;
        table.overflow = 0;
    };
    reset(loadCurves_);
    reset(thevenins_);
    reset(nrcHeights_);
    reset(propagations_);
    corruptRecords_ = 0;
}

}  // namespace sna::charlib

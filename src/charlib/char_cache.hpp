// Shared characterization cache: run each pre-characterization once per run
// — and, with the on-disk persistence below, once per technology ever.
//
// The paper's speed-up comes from amortizing cell characterization across
// clusters; a design-level sweep re-deriving the same NAND2 load curve for
// every victim net throws that away. CharCache memoizes the four
// characterizations the cluster flow consumes — load-curve tables (DC
// sweeps), aggressor Thevenin equivalents, receiver NRCs, and propagation
// tables — keyed on the exact spec (technology's full electrical identity,
// cell name, pin, level, grid, bitwise numeric parameters), so a hit
// returns the identical model the direct call would have produced.
//
// Thread-safe with single-flight semantics: when two workers request the
// same uncharacterized key, one runs the sweep and the other blocks on the
// shared future, so each (cell, level, grid) is characterized exactly once
// per run no matter how many clusters need it.
//
// Persistence ("snacache v2"): save() serializes every ready entry through
// the charlib/model_io round-trip formats, each record carrying its payload
// length and a CRC32 over key + payload; load() warm-starts a cache from
// disk, inserting only keys not already present (single-flight-safe even
// while workers are characterizing). Keys embed the technology identity and
// every grid parameter, so a stale or foreign file degrades to plain cache
// misses — never to wrong models. The cache is self-healing: a record whose
// CRC does not match (bit rot, torn write) is skipped and counted, a
// truncated file keeps its CRC-valid prefix, and legacy v1 files (no CRCs)
// still load. Cross-process coordination is an advisory flock on a ".lock"
// sibling (non-blocking, bounded retry with backoff); writers that cannot
// get it still publish safely via the atomic tmp + rename protocol.
#pragma once

#include <cstddef>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "charlib/characterize.hpp"

namespace sna::charlib {

class CharCache {
public:
    CharCache() = default;
    CharCache(const CharCache&) = delete;
    CharCache& operator=(const CharCache&) = delete;

    /// Load-curve table for the spec; characterizes on first use.
    std::shared_ptr<const la::Grid2d> loadCurve(const LoadCurveSpec& spec);

    /// Thevenin equivalent for the spec; characterizes on first use.
    std::shared_ptr<const TheveninModel> thevenin(const TheveninSpec& spec);

    /// Noise rejection curve for the spec; characterizes on first use.
    std::shared_ptr<const la::Grid1d> nrc(const NrcSpec& spec);

    /// Noise-propagation table for the spec; characterizes on first use.
    /// The wavefront pipeline keys these on a canonical load per cell, so
    /// each (cell, input, level) is characterized exactly once per run.
    std::shared_ptr<const PropagationTable> propagation(
        const PropagationSpec& spec);

    /// Pre-populate the Thevenin table with an externally derived model
    /// (e.g. NLDM .lib delay/slew tables) under the exact key thevenin()
    /// would use for `spec`, so later queries hit instead of running a
    /// SPICE sweep. Returns false — and leaves the cache untouched — when
    /// the key is already present or the table is full. Seeded hits are
    /// counted as disk hits in stats().
    bool seedThevenin(const TheveninSpec& spec, const TheveninModel& model);

    struct Stats {
        std::size_t loadCurveRuns = 0;  ///< actual DC-sweep characterizations
        std::size_t loadCurveHits = 0;  ///< hits on entries computed this run
        std::size_t theveninRuns = 0;
        std::size_t theveninHits = 0;
        std::size_t nrcRuns = 0;
        std::size_t nrcHits = 0;
        std::size_t propagationRuns = 0;
        std::size_t propagationHits = 0;
        /// Hits served by entries that came from a load()ed cache file —
        /// characterization work the warm start replaced, counted apart from
        /// the in-memory hits above.
        std::size_t loadCurveDiskHits = 0;
        std::size_t theveninDiskHits = 0;
        std::size_t nrcDiskHits = 0;
        std::size_t propagationDiskHits = 0;
        /// Misses that hit a full table and characterized without storing
        /// (the bounded compute-without-store path): what a persistent cache
        /// sized at the current limits could not retain.
        std::size_t loadCurveOverflow = 0;
        std::size_t theveninOverflow = 0;
        std::size_t nrcOverflow = 0;
        std::size_t propagationOverflow = 0;
        /// Records load() rejected because their stored CRC32 did not match
        /// the bytes read (bit rot, torn write). Cumulative across load()
        /// calls; each load also reports its own count in PersistResult.
        std::size_t corruptRecords = 0;

        std::size_t totalRuns() const {
            return loadCurveRuns + theveninRuns + nrcRuns + propagationRuns;
        }
        std::size_t totalDiskHits() const {
            return loadCurveDiskHits + theveninDiskHits + nrcDiskHits +
                   propagationDiskHits;
        }
        std::size_t totalOverflow() const {
            return loadCurveOverflow + theveninOverflow + nrcOverflow +
                   propagationOverflow;
        }
    };
    Stats stats() const;

    /// Per-table insertion bounds. Insertion stops at the bound; further
    /// misses characterize without storing (counted in the overflow stats),
    /// so a long-lived shared cache stays bounded on workloads whose keys
    /// never repeat. Thevenin and propagation keys embed the bitwise
    /// cluster load cap — unique per cluster on real extracted parasitics —
    /// hence their tighter defaults.
    struct Limits {
        std::size_t loadCurves = 65536;
        std::size_t thevenins = 4096;
        std::size_t nrcs = 65536;
        std::size_t propagations = 4096;
    };
    Limits limits() const;
    void setLimits(const Limits& limits);

    /// Outcome of one save() or load() call. Neither throws on I/O or
    /// format problems: a broken cache file must degrade to recomputation,
    /// not kill a signoff run.
    struct PersistResult {
        std::size_t entries = 0;  ///< entries written / newly inserted
        std::size_t skipped = 0;  ///< unreadable, unknown, or already-present
        std::size_t corrupt = 0;  ///< CRC-mismatched records (load only)
        bool ok = false;          ///< header valid and file complete
        std::string error;        ///< first problem hit ("" when ok)
    };

    /// Serialize every ready entry (all four tables) to `path` in the
    /// versioned "snacache v2" text format (per-record CRC32 over key +
    /// payload). In-flight entries are skipped. Writes to a uniquely named
    /// temporary sibling (pid + counter) and renames, so a concurrent
    /// load() from another process never observes a half-written file and
    /// concurrent save()s to the same path never share a tmp file: each
    /// rename publishes one complete snapshot, and last-writer-wins is the
    /// only race. An advisory flock on `path + ".lock"` additionally
    /// serializes cooperating writers; failing to get it within the bounded
    /// retry budget degrades to the (still safe) unlocked protocol. The
    /// format itself is locale-independent (hex floats via std::to_chars),
    /// so a cache written under any LC_NUMERIC loads anywhere.
    ///
    /// Lock sidecar lifetime (save and load alike): `path + ".lock"` is
    /// created on first use and never deleted by the cache. It holds no
    /// data, but unlinking it while another process holds or waits on the
    /// lock would let the next writer lock a fresh inode and race the
    /// holder. Whoever owns the cache file's lifetime removes the sidecar
    /// along with it, once no other process can still be using the file.
    PersistResult save(const std::string& path) const;

    /// Warm-start from a file written by save(): inserts every readable
    /// entry whose key is not already present (present keys — ready or
    /// in-flight — are skipped, preserving single-flight semantics under
    /// concurrent characterization). A version-string mismatch loads
    /// nothing; a truncated file keeps its valid prefix; an entry whose
    /// CRC32 does not match the bytes read, or whose payload model_io
    /// rejects, is skipped and loading continues (self-healing — counted in
    /// PersistResult::corrupt / Stats::corruptRecords and summarized in one
    /// util/log warning per file). Legacy "snacache v1" files (no CRCs)
    /// still load read-only. Keys from another technology or grid simply
    /// never hit. Takes the same `path + ".lock"` sidecar as save(), with
    /// the same lifetime.
    PersistResult load(const std::string& path);

    void clear();

private:
    template <typename T>
    struct Entry {
        std::shared_future<std::shared_ptr<const T>> fut;
        bool fromDisk = false;
    };

    template <typename T>
    struct Table {
        std::map<std::string, Entry<T>> entries;
        std::size_t runs = 0;
        std::size_t hits = 0;
        std::size_t diskHits = 0;
        std::size_t overflow = 0;
        std::size_t maxEntries = 65536;
    };

    template <typename T, typename Fn>
    std::shared_ptr<const T> getOrCompute(Table<T>& table,
                                          const std::string& key, Fn compute);

    /// Inserts a disk-loaded value if the key is absent; returns false
    /// (skip) when present or the table is full.
    template <typename T>
    bool insertFromDisk(Table<T>& table, const std::string& key,
                        std::shared_ptr<const T> value);

    mutable std::mutex mu_;
    std::size_t corruptRecords_ = 0;  ///< cumulative CRC rejects (see Stats)
    Table<la::Grid2d> loadCurves_;
    Table<TheveninModel> thevenins_{{}, 0, 0, 0, 0, 4096};
    Table<la::Grid1d> nrcs_;
    /// Bounded like thevenins_: ClusterMacromodel keys embed the bitwise
    /// cluster load cap, which never repeats on real extracted parasitics.
    Table<PropagationTable> propagations_{{}, 0, 0, 0, 0, 4096};
};

}  // namespace sna::charlib

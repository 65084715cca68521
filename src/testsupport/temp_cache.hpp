// Scoped snacache path for tests.
//
// CharCache::save() leaves a ".lock" sidecar next to the file (the advisory
// flock target) and, when a save fails mid-way, a ".tmp.<pid>.<n>" sibling.
// A test that names its cache file through TempCacheFile gets all three
// removed when the guard goes out of scope — also when an ASSERT_* returns
// early — so repeated suite runs leave nothing behind in the temp dir.
#pragma once

#include <string>

namespace sna::testsupport {

class TempCacheFile {
public:
    /// Takes the full path; clears any leftovers of an earlier run first.
    explicit TempCacheFile(std::string path);
    ~TempCacheFile();
    TempCacheFile(const TempCacheFile&) = delete;
    TempCacheFile& operator=(const TempCacheFile&) = delete;

    const std::string& path() const { return path_; }

private:
    void removeAll() const;
    std::string path_;
};

}  // namespace sna::testsupport

#include "testsupport/temp_cache.hpp"

#include <filesystem>
#include <system_error>

namespace sna::testsupport {

TempCacheFile::TempCacheFile(std::string path) : path_(std::move(path)) {
    removeAll();
}

TempCacheFile::~TempCacheFile() { removeAll(); }

void TempCacheFile::removeAll() const {
    namespace fs = std::filesystem;
    std::error_code ec;
    fs::remove(path_, ec);
    fs::remove(path_ + ".lock", ec);
    const fs::path file(path_);
    const std::string tmpPrefix = file.filename().string() + ".tmp";
    const fs::path dir =
        file.has_parent_path() ? file.parent_path() : fs::path(".");
    for (fs::directory_iterator it(dir, ec), end; !ec && it != end;
         it.increment(ec)) {
        if (it->path().filename().string().rfind(tmpPrefix, 0) == 0) {
            fs::remove(it->path(), ec);
        }
    }
}

}  // namespace sna::testsupport

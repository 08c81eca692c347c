/**
 * @file
 * Binary serialization, FNV-1a hashing, and atomic file publication.
 */

#include "common/serialize.hh"

#include <bit>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include <fcntl.h>
#include <unistd.h>

namespace mcpat {
namespace common {

void
ByteWriter::putU32(std::uint32_t v)
{
    for (int shift = 0; shift < 32; shift += 8)
        _bytes.push_back(static_cast<std::uint8_t>(v >> shift));
}

void
ByteWriter::putU64(std::uint64_t v)
{
    for (int shift = 0; shift < 64; shift += 8)
        _bytes.push_back(static_cast<std::uint8_t>(v >> shift));
}

void
ByteWriter::putF64(double v)
{
    if (v == 0.0)
        v = 0.0;  // -0.0 compares equal to 0.0; encode them identically
    putU64(std::bit_cast<std::uint64_t>(v));
}

std::uint8_t
ByteReader::getU8()
{
    if (_pos + 1 > _size) {
        _ok = false;
        return 0;
    }
    return _data[_pos++];
}

std::uint32_t
ByteReader::getU32()
{
    if (_pos + 4 > _size) {
        _ok = false;
        _pos = _size;
        return 0;
    }
    std::uint32_t v = 0;
    for (int shift = 0; shift < 32; shift += 8)
        v |= static_cast<std::uint32_t>(_data[_pos++]) << shift;
    return v;
}

std::uint64_t
ByteReader::getU64()
{
    if (_pos + 8 > _size) {
        _ok = false;
        _pos = _size;
        return 0;
    }
    std::uint64_t v = 0;
    for (int shift = 0; shift < 64; shift += 8)
        v |= static_cast<std::uint64_t>(_data[_pos++]) << shift;
    return v;
}

double
ByteReader::getF64()
{
    return std::bit_cast<double>(getU64());
}

std::uint64_t
fnv1a64(const std::uint8_t *data, std::size_t size)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (std::size_t i = 0; i < size; ++i) {
        h ^= data[i];
        h *= 0x100000001b3ULL;
    }
    return h;
}

std::string
toHex64(std::uint64_t v)
{
    static const char digits[] = "0123456789abcdef";
    std::string s(16, '0');
    for (int i = 15; i >= 0; --i) {
        s[i] = digits[v & 0xf];
        v >>= 4;
    }
    return s;
}

bool
writeFileAtomic(const std::string &path,
                const std::vector<std::uint8_t> &bytes)
{
    namespace fs = std::filesystem;
    std::error_code ec;
    const fs::path target(path);

    // Unique temp name in the target directory so rename() stays on one
    // filesystem (and therefore atomic).  PID + address disambiguate
    // concurrent writers of the same record.
    const fs::path tmp =
        target.parent_path() /
        (".tmp." + target.filename().string() + "." +
         toHex64((static_cast<std::uint64_t>(::getpid()) << 32) ^
                 static_cast<std::uint64_t>(
                     reinterpret_cast<std::uintptr_t>(&bytes))));

    // POSIX I/O instead of ofstream: the write, the short-write check,
    // and close() must all be verified *before* the rename publishes
    // the record, so an ENOSPC surfacing at close() never lets a
    // truncated record become visible under the final name.  There is
    // no fsync: records are a cache, and a record torn by a crash
    // (a rename that reached the disk before the data) fails its
    // checksum on load and is re-solved as a corrupt miss.
    const int fd = ::open(tmp.c_str(),
                          O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                          0644);
    if (fd < 0)
        return false;
    bool ok = true;
    std::size_t off = 0;
    while (ok && off < bytes.size()) {
        const ssize_t n =
            ::write(fd, bytes.data() + off, bytes.size() - off);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            ok = false;
        } else {
            off += static_cast<std::size_t>(n);
        }
    }
    ok = ::close(fd) == 0 && ok;
    if (!ok) {
        fs::remove(tmp, ec);
        return false;
    }

    fs::rename(tmp, target, ec);
    if (ec) {
        fs::remove(tmp, ec);
        return false;
    }
    return true;
}

bool
readFileBytes(const std::string &path, std::vector<std::uint8_t> &out)
{
    out.clear();
    std::ifstream f(path, std::ios::binary);
    if (!f)
        return false;
    f.seekg(0, std::ios::end);
    const std::streamoff size = f.tellg();
    if (size < 0)
        return false;
    f.seekg(0, std::ios::beg);
    out.resize(static_cast<std::size_t>(size));
    f.read(reinterpret_cast<char *>(out.data()), size);
    return static_cast<bool>(f);
}

} // namespace common
} // namespace mcpat

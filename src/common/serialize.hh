/**
 * @file
 * Binary serialization and stable hashing for persistent caches.
 *
 * The persistent model cache (array/disk_cache.hh) stores solved
 * results across process lifetimes, so its byte layout must be stable
 * in ways std::hash and in-memory structs are not:
 *
 *  - ByteWriter/ByteReader encode fixed-width little-endian integers
 *    and IEEE-754 doubles (as their bit patterns), independent of host
 *    struct padding or endianness;
 *  - fnv1a64 is a fixed, documented 64-bit hash (FNV-1a) used both to
 *    name cache records on disk and to checksum their contents — the
 *    same bytes hash to the same value in every process and build;
 *  - writeFileAtomic publishes a record with the classic temp-file +
 *    rename dance, so concurrent writers race benignly (last complete
 *    record wins) and readers never observe a half-written file.  It
 *    does not fsync: the records are a cache, and one torn by a crash
 *    fails its checksum and reads as a corrupt miss.
 */

#ifndef MCPAT_COMMON_SERIALIZE_HH
#define MCPAT_COMMON_SERIALIZE_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace mcpat {
namespace common {

/** Append-only little-endian byte encoder. */
class ByteWriter
{
  public:
    void putU8(std::uint8_t v) { _bytes.push_back(v); }
    void putU32(std::uint32_t v);
    void putU64(std::uint64_t v);
    void putI32(std::int32_t v) { putU32(static_cast<std::uint32_t>(v)); }
    /** IEEE-754 bit pattern; -0.0 is canonicalized to +0.0. */
    void putF64(double v);

    const std::vector<std::uint8_t> &bytes() const { return _bytes; }

  private:
    std::vector<std::uint8_t> _bytes;
};

/**
 * Sequential little-endian decoder over a byte buffer.
 *
 * Reads past the end never touch out-of-range memory: they return 0 and
 * latch a failure flag the caller checks once at the end (truncated
 * records are expected input for a disk cache, not programming errors).
 */
class ByteReader
{
  public:
    ByteReader(const std::uint8_t *data, std::size_t size)
        : _data(data), _size(size)
    {}
    explicit ByteReader(const std::vector<std::uint8_t> &bytes)
        : ByteReader(bytes.data(), bytes.size())
    {}

    std::uint8_t getU8();
    std::uint32_t getU32();
    std::uint64_t getU64();
    std::int32_t getI32() { return static_cast<std::int32_t>(getU32()); }
    double getF64();

    std::size_t position() const { return _pos; }
    std::size_t remaining() const { return _size - _pos; }
    /** True when every read so far was in bounds. */
    bool ok() const { return _ok; }

  private:
    const std::uint8_t *_data;
    std::size_t _size;
    std::size_t _pos = 0;
    bool _ok = true;
};

/** FNV-1a 64-bit hash over a byte range (stable across processes). */
std::uint64_t fnv1a64(const std::uint8_t *data, std::size_t size);

inline std::uint64_t
fnv1a64(const std::vector<std::uint8_t> &bytes)
{
    return fnv1a64(bytes.data(), bytes.size());
}

/** Fixed-width lowercase-hex rendering of a 64-bit value (16 chars). */
std::string toHex64(std::uint64_t v);

/**
 * Atomically create/replace @p path with @p bytes: write a uniquely
 * named temp file in the same directory, then rename() it into place.
 * Atomic against concurrent readers and writers, not durable across a
 * crash (no fsync of the file or its directory); callers must detect a
 * torn file themselves, as checksummed cache records do.  Returns false
 * (without throwing) on any I/O failure — callers treat an unwritable
 * cache as a slow day, not an error.
 */
bool writeFileAtomic(const std::string &path,
                     const std::vector<std::uint8_t> &bytes);

/**
 * Read a whole file into @p out.  Returns false when the file does not
 * exist or cannot be read; @p out is left empty in that case.
 */
bool readFileBytes(const std::string &path,
                   std::vector<std::uint8_t> &out);

} // namespace common
} // namespace mcpat

#endif // MCPAT_COMMON_SERIALIZE_HH

/**
 * @file
 * Append-only checksummed journal implementation: each commit frames
 * its records into one buffer, writes it with one write(2) and
 * fsyncs once.
 */

#include "common/journal.hh"

#include <cerrno>
#include <cstring>
#include <fstream>

#include <fcntl.h>
#include <unistd.h>

#include "common/serialize.hh"

namespace mcpat {
namespace common {

namespace {

constexpr char kRecordPrefix[] = "MCPATJ1 ";
constexpr std::size_t kPrefixLen = sizeof(kRecordPrefix) - 1;
constexpr std::size_t kChecksumLen = 16;  // toHex64 output

/** write(2) the whole buffer, retrying on EINTR / partial writes. */
bool
writeFully(int fd, const char *data, std::size_t size)
{
    std::size_t off = 0;
    while (off < size) {
        const ssize_t n = ::write(fd, data + off, size - off);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        off += static_cast<std::size_t>(n);
    }
    return true;
}

} // namespace

JournalWriter::~JournalWriter()
{
    close();
}

bool
JournalWriter::open(const std::string &path, bool truncate,
                    std::string *error)
{
    close();
    int flags = O_WRONLY | O_CREAT | O_APPEND;
    if (truncate)
        flags |= O_TRUNC;
    const int fd = ::open(path.c_str(), flags, 0644);
    if (fd < 0) {
        if (error)
            *error = "cannot open journal '" + path +
                     "': " + std::strerror(errno);
        return false;
    }
    _fd = fd;
    _path = path;
    return true;
}

bool
JournalWriter::openAfter(const std::string &path,
                         const JournalContents &read, std::string *error)
{
    if (!open(path, /*truncate=*/false, error))
        return false;
    if (!read.tailCorrupt && !read.lastRecordUnterminated)
        return true;
    // Records appended after a torn line would be unreadable: cut the
    // tail and end the last intact line before anything is appended.
    const bool repaired =
        ::ftruncate(_fd, static_cast<off_t>(read.intactBytes)) == 0 &&
        (!read.lastRecordUnterminated || writeFully(_fd, "\n", 1)) &&
        ::fsync(_fd) == 0;
    if (!repaired) {
        if (error)
            *error = "cannot repair journal '" + path +
                     "': " + std::strerror(errno);
        close();
        return false;
    }
    return true;
}

bool
JournalWriter::append(std::span<const std::string> payloads)
{
    if (_fd < 0)
        return false;
    if (payloads.empty())
        return true;
    // Records are line-framed: refuse the whole batch before writing
    // any of it, so a bad payload never leaves a partial commit.
    std::size_t size = 0;
    for (const std::string &p : payloads) {
        if (p.find_first_of("\n\r") != std::string::npos)
            return false;
        size += kPrefixLen + kChecksumLen + 2 + p.size();
    }

    std::string buf;
    buf.reserve(size);
    for (const std::string &p : payloads) {
        buf += kRecordPrefix;
        buf += toHex64(fnv1a64(
            reinterpret_cast<const std::uint8_t *>(p.data()), p.size()));
        buf += ' ';
        buf += p;
        buf += '\n';
    }

    if (!writeFully(_fd, buf.data(), buf.size()))
        return false;
    // One fsync per commit: a commit is a whole round of work items
    // (sweep) or one item (batch), each worth far more evaluation
    // time than the sync costs.
    return ::fsync(_fd) == 0;
}

void
JournalWriter::close()
{
    // Every acknowledged append was already fsync'd.
    if (_fd >= 0) {
        ::close(_fd);
        _fd = -1;
    }
}

JournalContents
readJournal(const std::string &path)
{
    JournalContents out;
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return out;

    std::string line;
    bool corrupt = false;
    std::size_t offset = 0;  // bytes consumed, through this line
    while (std::getline(in, line)) {
        // getline sets eof only when no '\n' ended the line.
        const bool terminated = !in.eof();
        offset += line.size() + (terminated ? 1 : 0);
        if (corrupt) {
            ++out.droppedLines;
            continue;
        }
        // Tolerate a \r\n journal copied through a CRLF filesystem.
        if (!line.empty() && line.back() == '\r')
            line.pop_back();
        bool valid = line.size() >= kPrefixLen + kChecksumLen + 1 &&
                     line.compare(0, kPrefixLen, kRecordPrefix) == 0 &&
                     line[kPrefixLen + kChecksumLen] == ' ';
        if (valid) {
            const std::string stored =
                line.substr(kPrefixLen, kChecksumLen);
            const std::string payload =
                line.substr(kPrefixLen + kChecksumLen + 1);
            valid = stored ==
                toHex64(fnv1a64(reinterpret_cast<const std::uint8_t *>(
                                    payload.data()),
                                payload.size()));
            if (valid) {
                out.records.push_back(payload);
                out.intactBytes = offset;
                out.lastRecordUnterminated = !terminated;
            }
        }
        if (!valid) {
            // Appends are ordered and fsync'd, so an invalid line
            // means the crash point (or foreign damage): nothing after
            // it can be trusted to be complete either.
            corrupt = true;
            out.tailCorrupt = true;
            ++out.droppedLines;
        }
    }
    // A file ending without a final newline ends in a fragment (caught
    // by the checks above) or in a whole record that lost only its
    // newline, which stays valid and is flagged for openAfter().
    return out;
}

} // namespace common
} // namespace mcpat

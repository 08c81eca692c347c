/**
 * @file
 * Append-only, checksummed progress journal.
 *
 * Long-running drivers record completed work in commits: the batch
 * runner commits one record per item, the case-study sweep one record
 * per design point, a round's points (64 at most) in one commit.
 * Each commit is one write(2) and one fsync, so a crash, OOM-kill, or
 * SIGKILL loses at most the item (batch) or the round (sweep) that was
 * in flight.  A later run with `-resume` replays the journal, skips
 * completed items, and re-emits their recorded results — producing
 * the same outputs as an uninterrupted run without re-evaluating
 * anything already done.
 *
 * ## Format
 *
 * A text file of independent single-line records:
 *
 *     MCPATJ1 <fnv1a64-hex16-of-payload> <payload>\n
 *
 * The payload is a single-line JSON object (the writer rejects
 * embedded newlines).  Each record is self-checking: the reader
 * verifies the prefix and the checksum before trusting the payload.
 * Commits are appended in order and fsync'd, so a crash can only ever
 * truncate the *tail* of the file, possibly inside a multi-record
 * commit.  The reader therefore stops at the first invalid line
 * (truncated tail, bad checksum, garbage) and returns everything
 * before it — corruption degrades to re-evaluating the affected
 * items, never to using a half-written record.  Within a commit,
 * records keep the order the caller gave them (the sweep's is design
 * point index order), so the file's line order is deterministic.
 *
 * The first record is by convention a header describing what produced
 * the journal (schema, inputs, options); readers validate it before
 * honoring any item records, so a journal from a different input list
 * or option set is ignored rather than misapplied.
 */

#ifndef MCPAT_COMMON_JOURNAL_HH
#define MCPAT_COMMON_JOURNAL_HH

#include <cstddef>
#include <span>
#include <string>
#include <vector>

namespace mcpat {
namespace common {

struct JournalContents;

/**
 * Append-only journal writer over a POSIX fd (O_APPEND), one write(2)
 * and one fsync per append.  All methods are noexcept-by-contract:
 * failures return false, and the caller warns once and decides
 * whether to keep journaling, so a full disk degrades the run to
 * journal-less instead of aborting it.
 *
 * Not internally synchronized: callers appending from multiple
 * threads serialize externally.
 */
class JournalWriter
{
  public:
    JournalWriter() = default;
    ~JournalWriter();
    JournalWriter(const JournalWriter &) = delete;
    JournalWriter &operator=(const JournalWriter &) = delete;

    /**
     * Open @p path for appending, creating it if needed; @p truncate
     * discards any existing contents (a fresh, non-resumed run).
     * Returns false with a description in @p error on failure.
     */
    bool open(const std::string &path, bool truncate,
              std::string *error = nullptr);

    /**
     * Open @p path, which readJournal() returned @p read for, to append
     * after its intact records.  A torn tail is cut off in place
     * (ftruncate to read.intactBytes), and a last record that lost its
     * newline gets one, then the repair is fsync'd; the intact records
     * are never rewritten, so a failed repair cannot lose them.
     * Returns false with a description in @p error on failure.
     */
    bool openAfter(const std::string &path, const JournalContents &read,
                   std::string *error = nullptr);

    /**
     * Commit one record per payload, in order.  Each payload is a
     * single-line string; if any holds '\n' or '\r' the whole commit
     * is refused and nothing is written.  The records — prefix,
     * checksum, payload, trailing newline each — are framed into one
     * buffer, written with one write(2) and fsync'd once before
     * returning, so a commit that this method acknowledged survives
     * any subsequent crash.  An empty commit writes nothing.
     */
    bool append(std::span<const std::string> payloads);

    /** Commit a single record: the one-payload case of the above. */
    bool append(const std::string &payload)
    {
        return append(std::span<const std::string>(&payload, 1));
    }

    /** Close the fd; no sync needed, since every append synced. */
    void close();

    bool isOpen() const { return _fd >= 0; }

    /** Journal path as opened; empty before open(). */
    const std::string &path() const { return _path; }

  private:
    int _fd = -1;
    std::string _path;
};

/** Everything readJournal() recovered from a journal file. */
struct JournalContents
{
    /** Validated record payloads, in append order. */
    std::vector<std::string> records;

    /**
     * True when the file ended with an invalid line (truncated tail,
     * checksum mismatch, foreign garbage).  Everything in records is
     * still trustworthy; the caller simply re-evaluates whatever the
     * dropped tail covered.
     */
    bool tailCorrupt = false;

    /** Lines discarded at and after the first invalid one. */
    std::size_t droppedLines = 0;

    /**
     * Byte length of the intact prefix: it ends after the last valid
     * record's line terminator, or after its last byte when the file
     * ends without one.
     */
    std::size_t intactBytes = 0;

    /**
     * True when the last valid record has no '\n' (a crash cut the
     * file just before it); anything appended must start a new line.
     */
    bool lastRecordUnterminated = false;
};

/**
 * Read and validate a journal.  A missing or unreadable file returns
 * empty contents (resume from nothing); a corrupt tail returns every
 * record before the corruption.  Never throws.
 */
JournalContents readJournal(const std::string &path);

} // namespace common
} // namespace mcpat

#endif // MCPAT_COMMON_JOURNAL_HH

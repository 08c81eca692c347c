/**
 * @file
 * Progress-journal tests: record framing round-trips, multi-record
 * commits are all-or-nothing on bad input, and every corruption mode —
 * truncated tail (also inside a multi-record commit), flipped bytes,
 * foreign garbage — degrades to "re-evaluate the affected items",
 * never to trusting a damaged record.  Reopening after a read cuts a
 * torn tail in place and ends a record that lost its newline, so later
 * appends stay readable.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>
#include <unistd.h>

#include "common/journal.hh"

using namespace mcpat;
namespace fs = std::filesystem;

namespace {

std::string
scratchFile(const std::string &tag)
{
    static int counter = 0;
    return (fs::temp_directory_path() /
            ("mcpat_journal_" + tag + "_" + std::to_string(::getpid()) +
             "_" + std::to_string(counter++) + ".jsonl"))
        .string();
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

} // namespace

TEST(Journal, RoundTripsRecordsInOrder)
{
    const std::string path = scratchFile("roundtrip");
    {
        common::JournalWriter w;
        ASSERT_TRUE(w.open(path, /*truncate=*/true));
        EXPECT_TRUE(w.append("{\"a\": 1}"));
        EXPECT_TRUE(w.append("{\"b\": 2}"));
        EXPECT_TRUE(w.append("plain text payloads work too"));
    }
    const common::JournalContents j = common::readJournal(path);
    EXPECT_FALSE(j.tailCorrupt);
    EXPECT_EQ(j.droppedLines, 0u);
    ASSERT_EQ(j.records.size(), 3u);
    EXPECT_EQ(j.records[0], "{\"a\": 1}");
    EXPECT_EQ(j.records[1], "{\"b\": 2}");
    EXPECT_EQ(j.records[2], "plain text payloads work too");
    fs::remove(path);
}

TEST(Journal, AppendSurvivesReopen)
{
    const std::string path = scratchFile("reopen");
    {
        common::JournalWriter w;
        ASSERT_TRUE(w.open(path, /*truncate=*/true));
        EXPECT_TRUE(w.append("first"));
    }
    {
        common::JournalWriter w;
        ASSERT_TRUE(w.open(path, /*truncate=*/false));
        EXPECT_TRUE(w.append("second"));
    }
    const common::JournalContents j = common::readJournal(path);
    ASSERT_EQ(j.records.size(), 2u);
    EXPECT_EQ(j.records[0], "first");
    EXPECT_EQ(j.records[1], "second");

    // truncate=true discards history (a fresh, non-resumed run).
    {
        common::JournalWriter w;
        ASSERT_TRUE(w.open(path, /*truncate=*/true));
        EXPECT_TRUE(w.append("fresh"));
    }
    const common::JournalContents j2 = common::readJournal(path);
    ASSERT_EQ(j2.records.size(), 1u);
    EXPECT_EQ(j2.records[0], "fresh");
    fs::remove(path);
}

TEST(Journal, RejectsPayloadsWithEmbeddedNewlines)
{
    const std::string path = scratchFile("newline");
    common::JournalWriter w;
    ASSERT_TRUE(w.open(path, /*truncate=*/true));
    EXPECT_FALSE(w.append("line one\nline two"));
    EXPECT_FALSE(w.append("carriage\rreturn"));
    EXPECT_TRUE(w.append("intact"));
    w.close();
    const common::JournalContents j = common::readJournal(path);
    ASSERT_EQ(j.records.size(), 1u);
    EXPECT_EQ(j.records[0], "intact");
    fs::remove(path);
}

TEST(Journal, MissingFileReadsAsEmpty)
{
    const common::JournalContents j =
        common::readJournal(scratchFile("missing"));
    EXPECT_TRUE(j.records.empty());
    EXPECT_FALSE(j.tailCorrupt);
}

TEST(Journal, TruncatedTailDropsOnlyTheLastRecord)
{
    const std::string path = scratchFile("truncated");
    {
        common::JournalWriter w;
        ASSERT_TRUE(w.open(path, /*truncate=*/true));
        EXPECT_TRUE(w.append("{\"n\": 1}"));
        EXPECT_TRUE(w.append("{\"n\": 2}"));
        EXPECT_TRUE(w.append("{\"n\": 3}"));
    }
    // Chop the file mid-way through the last record, the way a crash
    // between write(2) and completion would.
    std::string bytes = slurp(path);
    fs::resize_file(path, bytes.size() - 5);

    const common::JournalContents j = common::readJournal(path);
    EXPECT_TRUE(j.tailCorrupt);
    EXPECT_EQ(j.droppedLines, 1u);
    ASSERT_EQ(j.records.size(), 2u);
    EXPECT_EQ(j.records[0], "{\"n\": 1}");
    EXPECT_EQ(j.records[1], "{\"n\": 2}");
    fs::remove(path);
}

TEST(Journal, ChecksumMismatchStopsReplayAtTheDamage)
{
    const std::string path = scratchFile("flipped");
    {
        common::JournalWriter w;
        ASSERT_TRUE(w.open(path, /*truncate=*/true));
        EXPECT_TRUE(w.append("{\"n\": 1}"));
        EXPECT_TRUE(w.append("{\"n\": 2}"));
        EXPECT_TRUE(w.append("{\"n\": 3}"));
    }
    // Flip one payload byte in the middle record: its checksum no
    // longer matches, and nothing after it can be trusted either.
    std::string bytes = slurp(path);
    const std::size_t pos = bytes.find("\"n\": 2");
    ASSERT_NE(pos, std::string::npos);
    bytes[pos + 5] = '9';
    {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out << bytes;
    }
    const common::JournalContents j = common::readJournal(path);
    EXPECT_TRUE(j.tailCorrupt);
    EXPECT_EQ(j.droppedLines, 2u);
    ASSERT_EQ(j.records.size(), 1u);
    EXPECT_EQ(j.records[0], "{\"n\": 1}");
    fs::remove(path);
}

TEST(Journal, ForeignGarbageLineIsNotARecord)
{
    const std::string path = scratchFile("garbage");
    {
        common::JournalWriter w;
        ASSERT_TRUE(w.open(path, /*truncate=*/true));
        EXPECT_TRUE(w.append("real record"));
    }
    {
        std::ofstream out(path, std::ios::binary | std::ios::app);
        out << "this is not a journal line\n";
    }
    const common::JournalContents j = common::readJournal(path);
    EXPECT_TRUE(j.tailCorrupt);
    ASSERT_EQ(j.records.size(), 1u);
    EXPECT_EQ(j.records[0], "real record");
    fs::remove(path);
}

TEST(Journal, BatchWithOneBadPayloadWritesNothing)
{
    const std::string path = scratchFile("badbatch");
    common::JournalWriter w;
    ASSERT_TRUE(w.open(path, /*truncate=*/true));
    EXPECT_TRUE(w.append("first"));
    const std::string before = slurp(path);

    // The bad payload is last: the check must run over the whole
    // batch before anything is written.
    const std::vector<std::string> batch = {"{\"n\": 1}", "{\"n\": 2}",
                                            "torn\nrecord"};
    EXPECT_FALSE(w.append(batch));
    EXPECT_EQ(slurp(path), before);

    // An empty commit is a no-op that succeeds.
    EXPECT_TRUE(w.append(std::vector<std::string>{}));
    EXPECT_EQ(slurp(path), before);
    w.close();

    const common::JournalContents j = common::readJournal(path);
    EXPECT_FALSE(j.tailCorrupt);
    ASSERT_EQ(j.records.size(), 1u);
    EXPECT_EQ(j.records[0], "first");
    fs::remove(path);
}

TEST(Journal, TornMultiRecordCommitDropsOnlyTheTornRecord)
{
    const std::string path = scratchFile("tornbatch");
    {
        common::JournalWriter w;
        ASSERT_TRUE(w.open(path, /*truncate=*/true));
        EXPECT_TRUE(w.append("header"));
        const std::vector<std::string> round = {"{\"n\": 1}", "{\"n\": 2}",
                                                "{\"n\": 3}"};
        EXPECT_TRUE(w.append(round));
    }
    // One commit writes its records in order: a crash inside it leaves
    // the records before the tear whole and nothing after it.
    const std::string bytes = slurp(path);
    const std::size_t pos = bytes.find("{\"n\": 2}");
    ASSERT_NE(pos, std::string::npos);
    fs::resize_file(path, pos + 3);

    const common::JournalContents j = common::readJournal(path);
    EXPECT_TRUE(j.tailCorrupt);
    EXPECT_EQ(j.droppedLines, 1u);
    ASSERT_EQ(j.records.size(), 2u);
    EXPECT_EQ(j.records[0], "header");
    EXPECT_EQ(j.records[1], "{\"n\": 1}");
    fs::remove(path);
}

TEST(Journal, ValidLastRecordWithoutNewlineIsKeptAndTerminated)
{
    const std::string path = scratchFile("nonewline");
    {
        common::JournalWriter w;
        ASSERT_TRUE(w.open(path, /*truncate=*/true));
        EXPECT_TRUE(w.append("header"));
        EXPECT_TRUE(w.append("{\"n\": 1}"));
    }
    // A crash cut the file just before the last record's newline.
    const std::string whole = slurp(path);
    fs::resize_file(path, whole.size() - 1);

    const common::JournalContents j = common::readJournal(path);
    EXPECT_FALSE(j.tailCorrupt);
    EXPECT_TRUE(j.lastRecordUnterminated);
    EXPECT_EQ(j.intactBytes, whole.size() - 1);
    ASSERT_EQ(j.records.size(), 2u);
    EXPECT_EQ(j.records[1], "{\"n\": 1}");

    // Resuming ends the record's line before the next commit.
    {
        common::JournalWriter w;
        ASSERT_TRUE(w.openAfter(path, j));
        EXPECT_TRUE(w.append("{\"n\": 2}"));
    }
    const std::string resumed = slurp(path);
    EXPECT_EQ(resumed.substr(0, whole.size()), whole);
    const common::JournalContents again = common::readJournal(path);
    EXPECT_FALSE(again.tailCorrupt);
    EXPECT_FALSE(again.lastRecordUnterminated);
    EXPECT_EQ(again.intactBytes, resumed.size());
    ASSERT_EQ(again.records.size(), 3u);
    EXPECT_EQ(again.records[2], "{\"n\": 2}");
    fs::remove(path);
}

TEST(Journal, OpenAfterCutsATornTailInPlace)
{
    const std::string path = scratchFile("cut");
    {
        common::JournalWriter w;
        ASSERT_TRUE(w.open(path, /*truncate=*/true));
        EXPECT_TRUE(w.append("header"));
        EXPECT_TRUE(w.append("{\"n\": 1}"));
        EXPECT_TRUE(w.append("{\"n\": 2}"));
    }
    const std::string whole = slurp(path);
    const std::size_t torn_line =
        whole.find("MCPATJ1", whole.find("{\"n\": 1}"));
    ASSERT_NE(torn_line, std::string::npos);
    fs::resize_file(path, torn_line + 12);

    const common::JournalContents j = common::readJournal(path);
    EXPECT_TRUE(j.tailCorrupt);
    EXPECT_EQ(j.intactBytes, torn_line);
    ASSERT_EQ(j.records.size(), 2u);

    // The intact records stay byte for byte where they were; only the
    // torn line goes, so the next commit is readable.
    {
        common::JournalWriter w;
        ASSERT_TRUE(w.openAfter(path, j));
        EXPECT_TRUE(w.append("{\"n\": 3}"));
    }
    EXPECT_EQ(slurp(path).substr(0, torn_line),
              whole.substr(0, torn_line));
    const common::JournalContents again = common::readJournal(path);
    EXPECT_FALSE(again.tailCorrupt);
    ASSERT_EQ(again.records.size(), 3u);
    EXPECT_EQ(again.records[1], "{\"n\": 1}");
    EXPECT_EQ(again.records[2], "{\"n\": 3}");
    fs::remove(path);
}

/**
 * @file
 * The four benchmark workloads and the vacuity guards their ops apply.
 *
 * Each workload pins its own program state (model threads, memo and
 * array tiers, pruning, disk tier) in code, builds its inputs from the
 * seed, times a closed loop, and checks every output.  A guard returns
 * an empty string when the op's state is what the workload claims to
 * measure, and the reason otherwise; the op then counts as failed.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <string>
#include <vector>

#include "common/json_value.hh"
#include "measure.hh"

namespace perfbench {

/** Chips per shipped config in the cold_chip / disk_warm input set. */
constexpr int kChipsPerBase = 4;

/**
 * Set-up rounds per run (setup_s is the median round; see
 * medianSetupSeconds): more where one set-up is short, so the median
 * rests on enough real work.  A cold_chip round sets up once on every
 * CPU.
 */
constexpr int kColdSetupRounds = 8;
constexpr int kSweepSetupRounds = 7;
constexpr int kServeSetupRounds = 9;
constexpr int kDiskSetupRounds = 7;

RunResult runColdChip(const RunOptions &o);
RunResult runSweepSearch(const RunOptions &o);
RunResult runRuntimeServe(const RunOptions &o);
RunResult runDiskWarm(const RunOptions &o);

/** cold_chip: the op really solved arrays (the memo was cleared). */
std::string guardColdOp(const Counters &op);

/** disk_warm: every array came from disk records, none was solved. */
std::string guardDiskOp(const Counters &op);

/**
 * runtime_serve: the reply is a fresh 200 evaluation (not served from
 * the result cache) with finite, positive area and power.  Takes the
 * whole reply or its head (parseReplyHead).
 */
std::string guardServeReply(const mcpat::common::JsonValue &reply);

/**
 * Parse the fields of a server reply that precede its report into
 * @p head; empty on success, else the reason (also when the reply
 * carries no report).
 */
std::string parseReplyHead(const std::string &reply,
                           mcpat::common::JsonValue &head);

/** The {"config_xml": ...} request line for one chip. */
std::string serveRequest(const std::string &xml);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH

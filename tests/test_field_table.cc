/**
 * @file
 * The field tables (common/field_table.hh) against the structs they
 * describe.
 *
 * - Completeness: every member of every XML-loaded params struct,
 *   bound with a structured binding, either has a row or is on that
 *   struct's not-from-XML list.  A new member breaks the binding, so
 *   it cannot land without a decision about its row.
 * - Perturbation: each row, set to another in-range value, changes the
 *   struct (and so its component-memo key), and the struct written
 *   back to XML through the tables loads as an equal struct.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "chip/system_params.hh"
#include "common/strict_parse.hh"
#include "config/xml_loader.hh"

using namespace mcpat;
using namespace mcpat::fields;

namespace {

/** A config with every component present and named. */
chip::SystemParams
fullSystem()
{
    chip::SystemParams s;
    s.name = "sys";
    s.numL2 = 2;
    s.l2.name = "sys.l2";
    s.numL3 = 1;
    s.l3.name = "sys.l3";
    s.hasDirectory = s.hasNoc = s.hasMemCtrl = s.hasIo = true;
    return s;
}

/**
 * Writes a component's rows as <param> entries: required rows always,
 * the others only away from the struct default (an absent key keeps
 * the default, as in the loader).
 */
struct ParamWriter
{
    std::string &out;

    void
    param(const char *key, const std::string &value)
    {
        out += "    <param name=\"" + std::string(key) + "\" value=\"" +
               value + "\"/>\n";
    }

    void
    operator()(const Field<Int> &f, int v, int d)
    {
        if (f.required || v != d)
            param(f.key, std::to_string(v));
    }

    /** The shortest text the loader turns back into @p v exactly. */
    void
    operator()(const Field<Real> &f, double v, double d)
    {
        if (!f.required && v == d)
            return;
        for (int precision = 1; precision <= 17; ++precision) {
            char buf[40];
            std::snprintf(buf, sizeof buf, "%.*g", precision,
                          v / f.rule.scale);
            double parsed = 0.0;
            if (common::parseDoubleStrict(buf, parsed) &&
                parsed * f.rule.scale == v) {
                param(f.key, buf);
                return;
            }
        }
        ADD_FAILURE() << f.key << ": no XML text loads as " << v;
    }

    void
    operator()(const Field<Flag> &f, bool v, bool d)
    {
        if (f.required || v != d)
            param(f.key, v ? "true" : "false");
    }

    template <class E>
    void
    operator()(const Field<OneOf<E>> &f, E v, E d)
    {
        if (!f.required && v == d)
            return;
        for (const Spelling<E> &s : f.rule.spellings) {
            if (s.value == v) {
                param(f.key, s.name);
                return;
            }
        }
        ADD_FAILURE() << f.key << ": no spelling for the value";
    }
};

template <class Table, class P>
void
writeComponent(std::string &out, const char *type, const std::string &id,
               const Table &table, const P &p, const P &defaults,
               int count = 0)
{
    out += "  <component id=\"" + id + "\" type=\"" + type + "\">\n";
    ParamWriter w{out};
    if (count > 0)
        w.param("count", std::to_string(count));
    table(w, p, defaults);
    out += "  </component>\n";
}

/** @p s as an XML config, through the field tables. */
std::string
toXml(const chip::SystemParams &s)
{
    const chip::SystemParams d;
    std::string out =
        "<component id=\"" + s.name + "\" type=\"System\">\n";
    ParamWriter w{out};
    chip::kSystemFields(w, s, d);
    writeComponent(out, "Core", "sys.core", core::kCoreFields, s.core,
                   d.core);
    if (s.numL2 > 0) {
        writeComponent(out, "L2", s.l2.name, uncore::kSharedCacheFields,
                       s.l2, d.l2, s.numL2);
    }
    if (s.numL3 > 0) {
        writeComponent(out, "L3", s.l3.name, uncore::kSharedCacheFields,
                       s.l3, d.l3, s.numL3);
    }
    if (s.hasDirectory) {
        writeComponent(out, "Directory", "sys.dir",
                       uncore::kDirectoryFields, s.directory, d.directory);
    }
    if (s.hasNoc) {
        writeComponent(out, "Noc", "sys.noc", uncore::kNocFields, s.noc,
                       d.noc);
    }
    if (s.hasMemCtrl) {
        writeComponent(out, "MemoryController", "sys.mc",
                       uncore::kMemCtrlFields, s.memCtrl, d.memCtrl);
    }
    if (s.hasIo) {
        writeComponent(out, "ChipIo", "sys.io", uncore::kChipIoFields,
                       s.io, d.io);
    }
    return out + "</component>\n";
}

/**
 * Sets row @p target of a table (in visit order) to an in-range value
 * other than its current one; counts the rows it passes.
 */
struct Perturb
{
    int target;
    int row = 0;
    const char *key = nullptr;

    template <class Rule, class T>
    void
    operator()(const Field<Rule> &f, T &v)
    {
        if (row++ != target)
            return;
        key = f.key;
        change(f.rule, v);
    }

    static void
    change(const Int &r, int &v)
    {
        v = v == r.lo ? static_cast<int>(r.lo) + 1
                      : static_cast<int>(r.lo);
    }

    static void
    change(const Real &r, double &v)
    {
        v = v == r.lo * r.scale ? r.hi * r.scale : r.lo * r.scale;
    }

    static void change(const Flag &, bool &v) { v = !v; }

    template <class E>
    static void
    change(const OneOf<E> &r, E &v)
    {
        for (const Spelling<E> &s : r.spellings) {
            if (s.value != v) {
                v = s.value;
                return;
            }
        }
    }
};

/**
 * Perturb each row of @p table on the part of a full system that
 * @p part selects, and round-trip the result through XML.
 */
template <class Table, class Part>
void
perturbEveryRow(const char *what, const Table &table, Part part)
{
    chip::SystemParams base = fullSystem();
    int rows = 1;
    for (int target = 0; target < rows; ++target) {
        chip::SystemParams s = base;
        Perturb perturb{target};
        table(perturb, part(s));
        rows = perturb.row;
        if (!perturb.key)
            break;
        SCOPED_TRACE(std::string(what) + " row '" + perturb.key + "'");
        EXPECT_FALSE(part(s) == part(base))
            << "the row does not change its struct";
        const std::string xml = toXml(s);
        try {
            const config::LoadResult loaded =
                config::loadSystemParams(config::parseXmlString(xml));
            EXPECT_TRUE(loaded.system == s) << xml;
            EXPECT_TRUE(loaded.warnings.empty()) << xml;
        } catch (const std::exception &e) {
            ADD_FAILURE() << e.what() << "\n" << xml;
        }
    }
    EXPECT_GT(rows, 1) << what;
}

/**
 * Every name in @p names (a structured binding's, comma-separated)
 * has a row in @p rows or is on @p notFromXml, never both; members in
 * @p nested are structs with their own coverage check.
 */
template <class... M>
void
expectCovered(const char *what, const std::string &names,
              const std::set<const void *> &rows,
              const std::set<std::string> &notFromXml,
              const std::set<std::string> &nested, const M &...members)
{
    std::vector<std::string> list;
    std::stringstream ss(names);
    for (std::string n; std::getline(ss, n, ',');)
        list.push_back(n.substr(n.find_first_not_of(' ')));
    const std::vector<const void *> addrs = {&members...};
    ASSERT_EQ(list.size(), addrs.size());
    std::size_t with_rows = 0;
    std::set<std::string> listed;
    for (std::size_t i = 0; i < list.size(); ++i) {
        const std::string &n = list[i];
        if (nested.count(n)) {
            listed.insert(n);
            continue;
        }
        const bool has_row = rows.count(addrs[i]) > 0;
        const bool off_xml = notFromXml.count(n) > 0;
        with_rows += has_row;
        listed.insert(n);
        EXPECT_NE(has_row, off_xml)
            << what << "::" << n
            << (has_row ? " has a row but is listed as not from XML"
                        : " has no row and is not listed as not from XML");
    }
    EXPECT_EQ(with_rows, rows.size())
        << what << ": a row visits something that is not a member";
    for (const std::string &n : notFromXml)
        EXPECT_TRUE(listed.count(n)) << what << ": no member " << n;
}

/** Whether @p a lies in the @p size bytes at @p base. */
bool
within(const void *a, const void *base, std::size_t size)
{
    const auto p = reinterpret_cast<std::uintptr_t>(a);
    const auto b = reinterpret_cast<std::uintptr_t>(base);
    return p >= b && p - b < size;
}

/** Addresses a table's rows visit on @p p. */
template <class Table, class P>
std::set<const void *>
rowAddresses(const Table &table, const P &p)
{
    std::set<const void *> out;
    table([&](const auto &, const auto &m) { out.insert(&m); }, p);
    return out;
}

} // namespace

// Binds every member of OBJ, in declaration order, and checks them.
#define EXPECT_MEMBERS_COVERED(OBJ, ROWS, NOT_FROM_XML, NESTED, ...)      \
    do {                                                                  \
        const auto &[__VA_ARGS__] = OBJ;                                  \
        expectCovered(#OBJ, #__VA_ARGS__, ROWS, NOT_FROM_XML, NESTED,     \
                      __VA_ARGS__);                                       \
    } while (0)

TEST(FieldTable, EveryMemberHasRowOrIsListed)
{
    const chip::SystemParams s = fullSystem();
    EXPECT_MEMBERS_COVERED(
        s, rowAddresses(chip::kSystemFields, s),
        (std::set<std::string>{"name", "coreGroups", "numL2", "numL3",
                               "hasDirectory", "hasNoc", "hasMemCtrl",
                               "hasIo"}),
        (std::set<std::string>{"core", "l2", "l3", "directory", "noc",
                               "memCtrl", "io"}),
        name, nodeNm, coreFlavor, projection, temperature, vdd, numCores,
        core, coreGroups, numL2, l2, numL3, l3, hasDirectory, directory,
        hasNoc, noc, hasMemCtrl, memCtrl, hasIo, io, whiteSpaceFraction);

    const core::CoreParams &c = s.core;
    const auto core_rows = rowAddresses(core::kCoreFields, c);
    std::set<const void *> core_own, icache_rows, dcache_rows,
        predictor_rows;
    for (const void *a : core_rows) {
        const auto in = [a](const auto &m) {
            return within(a, &m, sizeof m);
        };
        if (in(c.icache))
            icache_rows.insert(a);
        else if (in(c.dcache))
            dcache_rows.insert(a);
        else if (in(c.predictor))
            predictor_rows.insert(a);
        else
            core_own.insert(a);
    }
    EXPECT_MEMBERS_COVERED(
        c, core_own,
        (std::set<std::string>{"name", "datapathWidth",
                               "virtualAddressBits", "physicalAddressBits",
                               "areaOverhead"}),
        (std::set<std::string>{"icache", "dcache", "predictor"}), name,
        outOfOrder, x86, threads, clockRate, pipelineStages, datapathWidth,
        virtualAddressBits, physicalAddressBits, fetchWidth, decodeWidth,
        issueWidth, commitWidth, robEntries, intWindowEntries,
        fpWindowEntries, physIntRegs, physFpRegs, ratStyle, archIntRegs,
        archFpRegs, intAlus, fpus, muls, loadQueueEntries,
        storeQueueEntries, itlbEntries, dtlbEntries, icache, dcache,
        predictor, hasBranchPredictor, hasFpu, areaOverhead,
        dynamicMargin, powerGating);
    EXPECT_MEMBERS_COVERED(
        c.predictor, predictor_rows,
        (std::set<std::string>{"btbTargetBits", "localBits"}),
        std::set<std::string>{}, btbEntries, btbTargetBits, localEntries,
        localBits, globalEntries, chooserEntries, rasEntries);
    const std::set<std::string> l1_off_xml = {
        "name", "readWritePorts", "readPorts", "writePorts",
        "sequentialAccess", "mshrs", "writeBackEntries",
        "fillBufferEntries", "physicalAddressBits", "extraTagBits", "ecc",
        "targetCycleTime", "flavor", "dataCell"};
    for (const auto &[l1, l1_rows] :
         {std::pair{&c.icache, icache_rows},
          std::pair{&c.dcache, dcache_rows}}) {
        EXPECT_MEMBERS_COVERED(
            *l1, l1_rows, l1_off_xml, std::set<std::string>{}, name,
            capacityBytes, blockBytes, assoc, banks, readWritePorts,
            readPorts, writePorts, sequentialAccess, mshrs,
            writeBackEntries, fillBufferEntries, physicalAddressBits,
            extraTagBits, ecc, targetCycleTime, flavor, dataCell);
    }

    EXPECT_MEMBERS_COVERED(
        s.l2, rowAddresses(uncore::kSharedCacheFields, s.l2),
        (std::set<std::string>{"name", "ecc", "mshrs", "writeBackEntries",
                               "physicalAddressBits"}),
        std::set<std::string>{}, name, capacityBytes, blockBytes, assoc,
        banks, ports, directorySharers, ecc, dataCell, clockRate, flavor,
        mshrs, writeBackEntries, physicalAddressBits);

    const auto noc_rows = rowAddresses(uncore::kNocFields, s.noc);
    std::set<const void *> noc_own, router_rows;
    for (const void *a : noc_rows) {
        (within(a, &s.noc.router, sizeof s.noc.router) ? router_rows
                                                        : noc_own)
            .insert(a);
    }
    EXPECT_MEMBERS_COVERED(
        s.noc, noc_own, std::set<std::string>{"name"},
        std::set<std::string>{"router"}, name, topology, nodesX, nodesY,
        flitBits, linkLength, clockRate, lowSwingLinks, router);
    EXPECT_MEMBERS_COVERED(
        s.noc.router, router_rows,
        (std::set<std::string>{"ports", "flitBits", "clockRate"}),
        std::set<std::string>{}, ports, virtualChannels, bufferDepth,
        flitBits, clockRate);

    EXPECT_MEMBERS_COVERED(
        s.memCtrl, rowAddresses(uncore::kMemCtrlFields, s.memCtrl),
        (std::set<std::string>{"name", "physicalAddressBits",
                               "peakBandwidth"}),
        std::set<std::string>{}, name, channels, dataBusBits, busClock,
        dramType, requestQueueEntries, physicalAddressBits,
        peakBandwidth);
    EXPECT_MEMBERS_COVERED(
        s.io, rowAddresses(uncore::kChipIoFields, s.io),
        std::set<std::string>{"name"}, std::set<std::string>{}, name,
        signalPins, ioVoltage, pinCap, toggleRate, busClock, staticPower);
    EXPECT_MEMBERS_COVERED(
        s.directory, rowAddresses(uncore::kDirectoryFields, s.directory),
        (std::set<std::string>{"name", "physicalAddressBits", "blockBytes",
                               "flavor"}),
        std::set<std::string>{}, name, style, trackedLines, sharers,
        physicalAddressBits, blockBytes, banks, clockRate, flavor);
}

TEST(FieldTable, UnperturbedSystemRoundTripsThroughXml)
{
    const chip::SystemParams s = fullSystem();
    const std::string xml = toXml(s);
    const config::LoadResult loaded =
        config::loadSystemParams(config::parseXmlString(xml));
    EXPECT_TRUE(loaded.system == s) << xml;
    EXPECT_TRUE(loaded.diagnostics.empty()) << xml;
}

TEST(FieldTable, PerturbEveryField)
{
    using chip::SystemParams;
    perturbEveryRow("system", chip::kSystemFields,
                    [](SystemParams &s) -> SystemParams & { return s; });
    perturbEveryRow("core", core::kCoreFields,
                    [](SystemParams &s) -> auto & { return s.core; });
    perturbEveryRow("l2", uncore::kSharedCacheFields,
                    [](SystemParams &s) -> auto & { return s.l2; });
    perturbEveryRow("l3", uncore::kSharedCacheFields,
                    [](SystemParams &s) -> auto & { return s.l3; });
    perturbEveryRow("directory", uncore::kDirectoryFields,
                    [](SystemParams &s) -> auto & { return s.directory; });
    perturbEveryRow("noc", uncore::kNocFields,
                    [](SystemParams &s) -> auto & { return s.noc; });
    perturbEveryRow("memctrl", uncore::kMemCtrlFields,
                    [](SystemParams &s) -> auto & { return s.memCtrl; });
    perturbEveryRow("io", uncore::kChipIoFields,
                    [](SystemParams &s) -> auto & { return s.io; });
}

TEST(FieldTable, CheckFlagsProgrammaticValuesOutsideTheirRows)
{
    // A field at its struct default is never flagged (vdd 0 keeps the
    // flavor's nominal supply); off the default it meets its row.
    chip::SystemParams s = fullSystem();
    EXPECT_FALSE(s.check().hasErrors());
    s.vdd = 3.0;
    s.noc.router.bufferDepth = 0;
    s.io.signalPins = 0;
    const DiagnosticList diags = s.check();
    std::map<std::string, int> keys;
    for (const Diagnostic &d : diags)
        ++keys[d.component + "/" + d.key];
    EXPECT_EQ(keys["sys/vdd"], 1);
    EXPECT_EQ(keys["NoC/buffer_depth"], 1);
    EXPECT_EQ(keys["Chip I/O/pins"], 1);
    EXPECT_EQ(diags.errorCount(), 3u);
}

TEST(FieldTable, CoreFieldBreakingRowAndValidateReportedOnce)
{
    // threads 0 breaks its row [1, 128] and CoreParams::validate().
    chip::SystemParams s = fullSystem();
    s.core.threads = 0;
    const DiagnosticList diags = s.check();
    EXPECT_EQ(diags.errorCount(), 1u);
    ASSERT_FALSE(diags.empty());
    EXPECT_EQ(diags.items()[0].key, "threads");
    EXPECT_THROW(s.validate(), ValidationError);
}

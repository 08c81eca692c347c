/**
 * @file
 * Seeded input generator.
 */

#include "gen.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>

#include "common/diagnostics.hh"
#include "config/xml_loader.hh"

namespace perfbench {

using mcpat::config::XmlNode;

std::uint64_t
Rng::next()
{
    std::uint64_t z = (_state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

double
Rng::uniform(double lo, double hi)
{
    // 53 random bits -> [0, 1).
    const double u = static_cast<double>(next() >> 11) * 0x1.0p-53;
    return lo + (hi - lo) * u;
}

std::uint64_t
subSeed(std::uint64_t seed, std::uint64_t stream)
{
    Rng r(seed ^ (0xd1b54a32d192ed03ULL * (stream + 1)));
    return r.next();
}

namespace {

std::string
fmt(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.15g", v);
    return buf;
}

/** The <param name=...> child of @p comp, or nullptr. */
XmlNode *
param(XmlNode &comp, const std::string &name)
{
    for (XmlNode &c : comp.children)
        if (c.tag == "param" && c.attr("name") == name)
            return &c;
    return nullptr;
}

/**
 * Multiply a numeric param in place.  Left alone when absent, not a
 * number, or (for @p integral params) when the product is not a
 * positive integer.
 */
void
scaleParam(XmlNode &comp, const std::string &name, double factor,
           bool integral)
{
    XmlNode *p = param(comp, name);
    if (!p)
        return;
    double v = 0.0;
    try {
        v = std::stod(p->attr("value"));
    } catch (const std::exception &) {
        return;
    }
    const double scaled = v * factor;
    if (integral && (scaled < 1.0 || std::floor(scaled) != scaled))
        return;
    p->attrs["value"] = fmt(scaled);
}

/** One seeded perturbation of a shipped chip. */
void
perturb(XmlNode &root, Rng &rng)
{
    // Technology node: stay on the table grid, at most one step away.
    static const int kNodes[] = {22, 32, 45, 65, 90, 130, 180};
    constexpr int kNodeCount = sizeof kNodes / sizeof kNodes[0];
    if (XmlNode *p = param(root, "technology_node")) {
        const int node = std::atoi(p->attr("value").c_str());
        const int *it = std::find(kNodes, kNodes + kNodeCount, node);
        if (it != kNodes + kNodeCount) {
            const int step = static_cast<int>(rng.below(3)) - 1;
            const int idx = std::clamp(
                static_cast<int>(it - kNodes) + step, 0, kNodeCount - 1);
            p->attrs["value"] = std::to_string(kNodes[idx]);
        }
    }
    if (rng.below(2))
        scaleParam(root, "core_count", 2.0, true);

    static const double kFactors[] = {0.5, 1.0, 2.0};
    for (XmlNode &comp : root.children) {
        if (comp.tag != "component")
            continue;
        const std::string &type = comp.attr("type");
        if (type == "L2" || type == "L3") {
            scaleParam(comp, "size_kb", kFactors[rng.below(3)], false);
            scaleParam(comp, "assoc", kFactors[rng.below(3)], true);
        } else if (type == "Core") {
            if (XmlNode *p = param(comp, "clock_rate_mhz")) {
                const double mhz = std::stod(p->attr("value"));
                const double f = rng.uniform(0.85, 1.15);
                p->attrs["value"] = fmt(std::round(mhz * f / 10.0) * 10.0);
            }
        }
    }
}

std::string
xmlEscape(const std::string &s)
{
    std::string out;
    for (char c : s) {
        switch (c) {
        case '&': out += "&amp;"; break;
        case '<': out += "&lt;"; break;
        case '>': out += "&gt;"; break;
        case '"': out += "&quot;"; break;
        default: out += c;
        }
    }
    return out;
}

void
writeNode(std::string &out, const XmlNode &n, int depth)
{
    out.append(2 * depth, ' ');
    out += '<';
    out += n.tag;
    for (const auto &[k, v] : n.attrs) {
        out += ' ';
        out += k;
        out += "=\"";
        out += xmlEscape(v);
        out += '"';
    }
    if (n.children.empty()) {
        out += "/>\n";
        return;
    }
    out += ">\n";
    for (const XmlNode &c : n.children)
        writeNode(out, c, depth + 1);
    out.append(2 * depth, ' ');
    out += "</";
    out += n.tag;
    out += ">\n";
}

XmlNode
stat(const std::string &name, double value)
{
    XmlNode s;
    s.tag = "stat";
    s.attrs["name"] = name;
    s.attrs["value"] = fmt(std::round(value));
    return s;
}

} // namespace

const std::vector<std::string> &
baseConfigNames()
{
    static const std::vector<std::string> names = {
        "niagara.xml",        "niagara2.xml",   "alpha21364.xml",
        "xeon_tulsa.xml",     "manycore_22nm.xml",
        "niagara_runtime.xml",
    };
    return names;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw std::runtime_error("cannot read " + path);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

std::string
writeXml(const XmlNode &root)
{
    std::string out = "<?xml version=\"1.0\" ?>\n";
    writeNode(out, root, 0);
    return out;
}

std::string
validationError(const std::string &xml)
{
    try {
        const XmlNode root = mcpat::config::parseXmlString(xml);
        mcpat::config::LoadResult loaded =
            mcpat::config::loadSystemParams(root);
        mcpat::DiagnosticList diags = loaded.diagnostics;
        diags.merge(loaded.system.check());
        for (const mcpat::Diagnostic &d : diags)
            if (d.severity == mcpat::Severity::Error)
                return d.component + "/" + d.key + ": " + d.message;
        return "";
    } catch (const std::exception &e) {
        return e.what();
    }
}

mcpat::chip::SystemParams
systemOf(const std::string &xml)
{
    return mcpat::config::loadSystemParams(
               mcpat::config::parseXmlString(xml))
        .system;
}

std::vector<ChipInput>
chipSet(std::uint64_t seed, int perBase)
{
    std::vector<ChipInput> out;
    std::set<std::string> seen;
    const auto &bases = baseConfigNames();
    for (std::size_t b = 0; b < bases.size(); ++b) {
        const XmlNode base = mcpat::config::parseXmlString(
            readFile(std::string(kConfigDir) + "/" + bases[b]));
        Rng rng(subSeed(seed, b));
        int made = 0;
        for (int attempt = 0; made < perBase && attempt < 64 * perBase;
             ++attempt) {
            XmlNode chip = base;
            perturb(chip, rng);
            std::string xml = writeXml(chip);
            if (seen.count(xml) || !validationError(xml).empty())
                continue;
            seen.insert(xml);
            out.push_back({bases[b] + "#" + std::to_string(made),
                           std::move(xml)});
            ++made;
        }
        if (made < perBase)
            throw std::runtime_error("no valid perturbations of " +
                                     bases[b]);
    }
    return out;
}

XmlNode
withStatInterval(const XmlNode &chip, Rng &rng)
{
    XmlNode out = chip;
    const double cycles = std::round(rng.uniform(2e6, 2e7));
    const double committed = cycles * rng.uniform(0.2, 1.2);
    for (XmlNode &comp : out.children) {
        if (comp.tag != "component")
            continue;
        const std::string &type = comp.attr("type");
        std::vector<XmlNode> stats;
        if (type == "Core") {
            const double loads = committed * rng.uniform(0.2, 0.3);
            const double stores = committed * rng.uniform(0.08, 0.15);
            const double icache = committed * rng.uniform(0.3, 0.5);
            const double dcache = loads + stores;
            stats = {
                stat("total_cycles", cycles),
                stat("committed_instructions", committed),
                stat("int_instructions", committed * rng.uniform(0.35, 0.55)),
                stat("fp_instructions", committed * rng.uniform(0.0, 0.15)),
                stat("branch_instructions",
                     committed * rng.uniform(0.1, 0.2)),
                stat("loads", loads),
                stat("stores", stores),
                stat("icache_accesses", icache),
                stat("icache_misses", icache * rng.uniform(0.005, 0.03)),
                stat("dcache_accesses", dcache),
                stat("dcache_misses", dcache * rng.uniform(0.02, 0.1)),
            };
        } else if (type == "L2" || type == "L3") {
            const double reads = cycles * rng.uniform(0.01, 0.1);
            const double writes = cycles * rng.uniform(0.005, 0.05);
            stats = {
                stat("read_accesses", reads),
                stat("read_misses", reads * rng.uniform(0.05, 0.3)),
                stat("write_accesses", writes),
                stat("write_misses", writes * rng.uniform(0.02, 0.2)),
            };
        } else if (type == "Noc") {
            stats = {stat("total_flits", cycles * rng.uniform(0.05, 1.0))};
        } else if (type == "MemoryController") {
            stats = {stat("bytes_transferred",
                          cycles * rng.uniform(0.5, 8.0))};
        } else {
            continue;
        }
        std::erase_if(comp.children,
                      [](const XmlNode &c) { return c.tag == "stat"; });
        for (XmlNode &s : stats)
            comp.children.push_back(std::move(s));
    }
    return out;
}

mcpat::study::SweepSpace
sweepSpace(std::uint64_t seed)
{
    mcpat::study::SweepSpace s = mcpat::study::SweepSpace::reference();
    Rng rng(subSeed(seed, 1000));
    // The reference clock axis steps by 0.25 GHz.  +-10 MHz of jitter
    // keeps it strictly increasing and keeps the search's path (85
    // full evaluations in 7 rounds), so every seed does the same work.
    for (double &hz : s.clockRates)
        hz = std::round((hz + rng.uniform(-0.01e9, 0.01e9)) / 1e6) * 1e6;
    return s;
}

} // namespace perfbench

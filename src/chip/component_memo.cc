/**
 * @file
 * Component memo: environment switch, registry collector, and the
 * counters summed over the per-kind tables.
 */

#include "chip/component_memo.hh"

#include <cstdlib>
#include <string>

#include "common/instrument.hh"

namespace mcpat {
namespace chip {

namespace {

[[maybe_unused]] const bool g_memo_collector_registered =
    instr::Registry::instance().addCollector([](instr::Registry &reg) {
        const ComponentMemoStats s = ComponentMemo::instance().stats();
        reg.gauge("component_memo.hits")
            .set(static_cast<double>(s.hits));
        reg.gauge("component_memo.misses")
            .set(static_cast<double>(s.misses));
        reg.gauge("component_memo.entries")
            .set(static_cast<double>(s.entries));
        reg.gauge("component_memo.evictions")
            .set(static_cast<double>(s.evictions));
        const std::uint64_t total = s.hits + s.misses;
        reg.gauge("component_memo.hit_rate")
            .set(total ? static_cast<double>(s.hits) / total : 0.0);
    });

} // namespace

ComponentMemo::ComponentMemo()
{
    const char *env = std::getenv("MCPAT_COMPONENT_MEMO");
    if (env && std::string(env) == "0")
        _enabled = false;
}

ComponentMemo &
ComponentMemo::instance()
{
    static ComponentMemo memo;
    return memo;
}

ComponentMemoStats
ComponentMemo::stats() const
{
    ComponentMemoStats s;
    std::apply(
        [&s](const auto &...table) {
            for (const common::KeyedMemoStats t : {table.stats()...}) {
                s.hits += t.hits;
                s.misses += t.misses;
                s.entries += t.entries;
                s.evictions += t.evictions;
            }
        },
        _tables);
    return s;
}

void
ComponentMemo::clear()
{
    std::apply([](auto &...table) { (table.clear(), ...); }, _tables);
}

} // namespace chip
} // namespace mcpat

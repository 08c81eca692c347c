/**
 * @file
 * One bounded, thread-safe memo table for every cache in the model.
 *
 * The component memo (chip/component_memo.hh), the array memory tier
 * (array/array_cache.hh) and the evaluation server's result cache all
 * keep "key -> value" entries that are expensive to rebuild and cheap
 * to copy out.  They share this table: a mutex-guarded ordered map
 * that evicts in insertion (FIFO) order at a fixed capacity.
 *
 * Keys are compared with their own operator<=> and operator==, which
 * the params structs default, so a key is derived from its struct and
 * a field added to the struct joins the key automatically.  A key that
 * is not equal to itself (a NaN in any field) has no place in an
 * ordered map: find() counts it as a miss without consulting the map
 * and insert() hands the value back without storing it.
 */

#ifndef MCPAT_COMMON_KEYED_MEMO_HH
#define MCPAT_COMMON_KEYED_MEMO_HH

#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <optional>

namespace mcpat {
namespace common {

/** Table observability counters. */
struct KeyedMemoStats
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::size_t entries = 0;
    /** Entries dropped to stay within the capacity. */
    std::uint64_t evictions = 0;
};

template <typename K, typename V>
class KeyedMemo
{
  public:
    /** A capacity of 0 stores nothing. */
    explicit KeyedMemo(std::size_t capacity) : _capacity(capacity) {}

    /** The stored value for @p key, counting a hit or a miss. */
    std::optional<V>
    find(const K &key)
    {
        const bool storable = key == key;
        std::lock_guard<std::mutex> lock(_mutex);
        if (storable) {
            const auto it = _entries.find(key);
            if (it != _entries.end()) {
                ++_hits;
                return it->second;
            }
        }
        ++_misses;
        return std::nullopt;
    }

    /**
     * Store @p value under @p key and return what the table now holds
     * for it: the first insert of a key wins, so a racing second
     * insert gets the first one's value back.  When the table is full
     * the oldest entry is dropped.
     */
    V
    insert(const K &key, V value)
    {
        if (_capacity == 0 || !(key == key))
            return value;
        std::lock_guard<std::mutex> lock(_mutex);
        const auto [it, inserted] =
            _entries.try_emplace(key, std::move(value));
        if (inserted) {
            _order.push_back(it);
            if (_entries.size() > _capacity) {
                _entries.erase(_order.front());
                _order.pop_front();
                ++_evictions;
            }
        }
        return it->second;
    }

    /** Drop every entry and zero the counters. */
    void
    clear()
    {
        std::lock_guard<std::mutex> lock(_mutex);
        _entries.clear();
        _order.clear();
        _hits = _misses = _evictions = 0;
    }

    KeyedMemoStats
    stats() const
    {
        std::lock_guard<std::mutex> lock(_mutex);
        return {_hits, _misses, _entries.size(), _evictions};
    }

  private:
    using Map = std::map<K, V>;

    const std::size_t _capacity;
    mutable std::mutex _mutex;
    Map _entries;
    std::deque<typename Map::iterator> _order;  ///< oldest first
    std::uint64_t _hits = 0;
    std::uint64_t _misses = 0;
    std::uint64_t _evictions = 0;
};

} // namespace common
} // namespace mcpat

#endif // MCPAT_COMMON_KEYED_MEMO_HH

/**
 * @file
 * Set-associative / fully-associative cache model: tag + data arrays,
 * way comparators, and the miss-handling machinery (MSHRs, write-back
 * and fill buffers).
 */

#ifndef MCPAT_ARRAY_CACHE_MODEL_HH
#define MCPAT_ARRAY_CACHE_MODEL_HH

#include <memory>
#include <optional>
#include <string>

#include "array/array_model.hh"

namespace mcpat {
namespace array {

/** Architectural description of one cache. */
struct CacheParams
{
    std::string name = "cache";

    double capacityBytes = 32 * 1024;
    int blockBytes = 64;
    /** Associativity; 0 selects a fully-associative (CAM-tag) cache. */
    int assoc = 4;
    int banks = 1;

    int readWritePorts = 1;
    int readPorts = 0;
    int writePorts = 0;

    /** Tag/data accessed in parallel (L1) or sequentially (L2/L3). */
    bool sequentialAccess = false;

    int mshrs = 8;               ///< miss-status holding registers
    int writeBackEntries = 8;    ///< write-back buffer entries
    int fillBufferEntries = 4;   ///< incoming line buffers

    int physicalAddressBits = 42;
    int extraTagBits = 6;        ///< coherence state, valid, etc.
    bool ecc = false;            ///< SECDED code bits with the data

    double targetCycleTime = 0.0;
    /** Cell flavor; unset inherits the surrounding logic's flavor. */
    std::optional<tech::DeviceFlavor> flavor;

    /** Data-array cell type (SRAM or EDRAM; tags stay SRAM/CAM). */
    CellType dataCell = CellType::SRAM;

    int sets() const;
    int tagBits() const;
    void validate() const;

    auto operator<=>(const CacheParams &) const = default;
};

/** Per-cycle cache traffic for power computation. */
struct CacheRates
{
    double readHits = 0.0;
    double readMisses = 0.0;
    double writeHits = 0.0;
    double writeMisses = 0.0;

    double accesses() const
    {
        return readHits + readMisses + writeHits + writeMisses;
    }
    double misses() const { return readMisses + writeMisses; }
};

/**
 * A solved cache: owns the tag/data/MSHR/buffer arrays.
 */
class CacheModel
{
  public:
    CacheModel(CacheParams params, const Technology &t);

    const CacheParams &params() const { return _params; }

    /** Address-to-data hit latency, s. */
    double hitDelay() const { return _hitDelay; }

    /** Minimum cycle time of the cache pipeline, s. */
    double cycleTime() const { return _cycleTime; }

    double area() const { return _area; }

    /** Energy of a read hit / write hit / miss handling event, J. */
    double readEnergy() const { return _readEnergy; }
    double writeEnergy() const { return _writeEnergy; }
    double missEnergy() const { return _missEnergy; }

    double subthresholdLeakage() const { return _subLeak; }
    double gateLeakage() const { return _gateLeak; }

    const ArrayModel &dataArray() const { return *_data; }
    const ArrayModel &tagArray() const { return *_tag; }

    /** Report with Data/Tag/MSHR/buffer children. */
    Report makeReport(double frequency, const CacheRates &tdp,
                      const CacheRates &runtime) const;

  private:
    CacheParams _params;
    std::unique_ptr<ArrayModel> _data;
    std::unique_ptr<ArrayModel> _tag;
    std::unique_ptr<ArrayModel> _mshr;
    std::unique_ptr<ArrayModel> _wbb;
    std::unique_ptr<ArrayModel> _fill;

    double _hitDelay = 0.0;
    double _cycleTime = 0.0;
    double _area = 0.0;
    double _readEnergy = 0.0;
    double _writeEnergy = 0.0;
    double _missEnergy = 0.0;
    double _subLeak = 0.0;
    double _gateLeak = 0.0;
    double _comparatorEnergy = 0.0;
};

} // namespace array
} // namespace mcpat

#endif // MCPAT_ARRAY_CACHE_MODEL_HH

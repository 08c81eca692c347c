/**
 * @file
 * Cache-model tests: tag arithmetic, organization choices (parallel vs
 * sequential, set- vs fully-associative), ECC, miss machinery, and the
 * shared-cache wrapper.
 */

#include <gtest/gtest.h>

#include "array/cache_model.hh"
#include "uncore/shared_cache.hh"

using namespace mcpat;
using namespace mcpat::array;
using tech::Technology;

namespace {

const Technology &
tech65()
{
    static const Technology t(65);
    return t;
}

CacheParams
l1d()
{
    CacheParams p;
    p.name = "L1D";
    p.capacityBytes = 32 * 1024;
    p.blockBytes = 64;
    p.assoc = 4;
    return p;
}

} // namespace

TEST(CacheParams, SetArithmetic)
{
    const CacheParams p = l1d();
    EXPECT_EQ(p.sets(), 128);
}

TEST(CacheParams, TagBitsArithmetic)
{
    CacheParams p = l1d();
    p.physicalAddressBits = 42;
    p.extraTagBits = 6;
    // 42 - log2(128 sets) - log2(64B) + 6 = 42 - 7 - 6 + 6 = 35.
    EXPECT_EQ(p.tagBits(), 35);
}

TEST(CacheParams, FullyAssociativeHasNoIndexBits)
{
    CacheParams p = l1d();
    p.assoc = 0;
    EXPECT_EQ(p.tagBits(), 42 - 6 + 6);
}

TEST(CacheParams, Validation)
{
    CacheParams p = l1d();
    p.blockBytes = 48;  // not a power of two
    EXPECT_THROW(p.validate(), ConfigError);
    p = l1d();
    p.capacityBytes = 0;
    EXPECT_THROW(p.validate(), ConfigError);
    p = l1d();
    p.capacityBytes = 64;  // below one set of 4 ways x 64 B
    EXPECT_THROW(p.validate(), ConfigError);
}

TEST(CacheParams, DiagnosticNamesTheCache)
{
    CacheParams p = l1d();
    p.blockBytes = 48;
    try {
        p.validate();
        ADD_FAILURE() << "a 48-byte block validated";
    } catch (const ConfigError &e) {
        EXPECT_STREQ(e.what(), "mcpat: configuration error: cache 'L1D': "
                               "block size must be a power of two");
    }
}

TEST(CacheModel, BasicPhysical)
{
    const CacheModel c(l1d(), tech65());
    EXPECT_GT(c.area(), 0.0);
    EXPECT_GT(c.hitDelay(), 0.0);
    EXPECT_GT(c.readEnergy(), 0.0);
    EXPECT_GT(c.writeEnergy(), 0.0);
    EXPECT_GT(c.missEnergy(), c.readEnergy() * 0.5);
    EXPECT_GT(c.subthresholdLeakage(), 0.0);
}

TEST(CacheModel, SequentialAccessSavesEnergyCostsLatency)
{
    CacheParams par = l1d();
    CacheParams seq = l1d();
    seq.sequentialAccess = true;
    const CacheModel mp(par, tech65());
    const CacheModel ms(seq, tech65());
    EXPECT_LT(ms.readEnergy(), mp.readEnergy());
    EXPECT_GT(ms.hitDelay(), mp.hitDelay());
}

TEST(CacheModel, HigherAssociativityCostsParallelEnergy)
{
    CacheParams a2 = l1d();
    a2.assoc = 2;
    CacheParams a8 = l1d();
    a8.assoc = 8;
    const CacheModel m2(a2, tech65());
    const CacheModel m8(a8, tech65());
    EXPECT_GT(m8.readEnergy(), m2.readEnergy());
}

TEST(CacheModel, FullyAssociativeUsesCamTags)
{
    CacheParams p;
    p.name = "victim";
    p.capacityBytes = 4 * 1024;
    p.blockBytes = 64;
    p.assoc = 0;
    p.mshrs = 0;
    p.writeBackEntries = 0;
    p.fillBufferEntries = 0;
    const CacheModel c(p, tech65());
    // CAM-tag read path reports search energy through readEnergy.
    EXPECT_GT(c.readEnergy(), 0.0);
    EXPECT_GT(c.tagArray().searchEnergy(), 0.0);
}

TEST(CacheModel, EccCostsAreaAndEnergy)
{
    CacheParams plain = l1d();
    CacheParams ecc = l1d();
    ecc.ecc = true;
    const CacheModel mp(plain, tech65());
    const CacheModel me(ecc, tech65());
    EXPECT_GT(me.area(), mp.area());
    EXPECT_GT(me.readEnergy(), mp.readEnergy());
}

TEST(CacheModel, MissMachineryOptional)
{
    CacheParams with = l1d();
    CacheParams without = l1d();
    without.mshrs = 0;
    without.writeBackEntries = 0;
    without.fillBufferEntries = 0;
    const CacheModel mw(with, tech65());
    const CacheModel mo(without, tech65());
    EXPECT_GT(mw.area(), mo.area());
    EXPECT_GT(mw.missEnergy(), mo.missEnergy());
}

TEST(CacheModel, ReportChildrenPresent)
{
    const CacheModel c(l1d(), tech65());
    const Report r = c.makeReport(2.0 * GHz, {}, {});
    EXPECT_NE(r.child("Data Array"), nullptr);
    EXPECT_NE(r.child("Tag Array"), nullptr);
    EXPECT_NE(r.child("MSHR"), nullptr);
    EXPECT_NE(r.child("Write-Back Buffer"), nullptr);
}

TEST(CacheModel, ReportRatesArithmetic)
{
    const CacheModel c(l1d(), tech65());
    CacheRates rates;
    rates.readHits = 0.5;
    rates.writeHits = 0.2;
    rates.readMisses = 0.05;
    const double f = 1.0 * GHz;
    const Report r = c.makeReport(f, rates, rates);
    const double expected = f * (0.5 * c.readEnergy() +
                                 0.2 * c.writeEnergy() +
                                 0.05 * c.missEnergy());
    EXPECT_NEAR(r.peakDynamic, expected, expected * 1e-12);
    EXPECT_DOUBLE_EQ(r.peakDynamic, r.runtimeDynamic);
}

TEST(CacheModel, CapacityScaling)
{
    CacheParams small = l1d();
    CacheParams big = l1d();
    big.capacityBytes = 256 * 1024;
    big.assoc = 8;
    const CacheModel ms(small, tech65());
    const CacheModel mb(big, tech65());
    EXPECT_GT(mb.area(), 4.0 * ms.area());
    EXPECT_GT(mb.hitDelay(), ms.hitDelay());
}

TEST(SharedCache, DirectoryBitsCostArea)
{
    uncore::SharedCacheParams base;
    base.capacityBytes = 1024.0 * 1024;
    uncore::SharedCacheParams dir = base;
    dir.directorySharers = 64;
    const uncore::SharedCache cb(base, tech65());
    const uncore::SharedCache cd(dir, tech65());
    EXPECT_GT(cd.area(), cb.area());
}

TEST(SharedCache, ReportHasControllerAndClock)
{
    uncore::SharedCacheParams p;
    p.capacityBytes = 2.0 * 1024 * 1024;
    p.banks = 4;
    const uncore::SharedCache c(p, tech65());
    CacheRates rates;
    rates.readHits = 0.5;
    const Report r = c.makeReport(rates, rates);
    EXPECT_NE(r.child("Cache Controller"), nullptr);
    EXPECT_NE(r.child("Clock Network"), nullptr);
    EXPECT_GT(r.peakDynamic, 0.0);
}

TEST(SharedCache, LstpDefaultKeepsLeakageSane)
{
    uncore::SharedCacheParams p;
    p.capacityBytes = 8.0 * 1024 * 1024;
    const uncore::SharedCache c(p, tech65());
    CacheRates idle;
    const Report r = c.makeReport(idle, idle);
    // 8 MB of LSTP cells at 65 nm should leak single-digit watts.
    EXPECT_LT(r.subthresholdLeakage, 5.0);
    EXPECT_GT(r.subthresholdLeakage, 0.0);
}

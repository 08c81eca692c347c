/**
 * @file
 * Technology-layer tests: table sanity, scaling monotonicity across
 * nodes, flavor ordering, temperature/DVFS behavior, and error
 * handling.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "tech/technology.hh"

using namespace mcpat;
using namespace mcpat::tech;

TEST(TechTable, SixNodesAvailable)
{
    const auto &nodes = Technology::availableNodes();
    ASSERT_EQ(nodes.size(), 6u);
    EXPECT_EQ(nodes.front(), 180);
    EXPECT_EQ(nodes.back(), 22);
}

TEST(TechTable, NodesOutsideRangeThrow)
{
    // Nodes inside [22, 180] interpolate; outside they are rejected.
    EXPECT_NO_THROW(Technology t(130));
    EXPECT_THROW(Technology t(7), ConfigError);
    EXPECT_THROW(Technology t(200), ConfigError);
    EXPECT_THROW(lookupTechNode(0), ConfigError);
}

TEST(TechTable, FeatureSizeMatchesNode)
{
    for (int node : Technology::availableNodes()) {
        Technology t(node);
        EXPECT_DOUBLE_EQ(t.feature(), node * nm);
        EXPECT_EQ(t.nodeNm(), node);
    }
}

TEST(TechTable, VddScalesDownAcrossNodes)
{
    double prev = 1e9;
    for (int node : Technology::availableNodes()) {
        const Technology t(node, DeviceFlavor::HP);
        EXPECT_LE(t.device().vdd, prev) << "node " << node;
        prev = t.device().vdd;
    }
}

TEST(TechTable, Fo4ShrinksAcrossNodes)
{
    double prev = 1e9;
    for (int node : Technology::availableNodes()) {
        const Technology t(node, DeviceFlavor::HP);
        EXPECT_LT(t.device().fo4, prev) << "node " << node;
        prev = t.device().fo4;
    }
}

TEST(TechTable, DriveCurrentGrowsAcrossNodes)
{
    double prev = 0.0;
    for (int node : Technology::availableNodes()) {
        const Technology t(node, DeviceFlavor::HP);
        EXPECT_GT(t.device().ionN, prev) << "node " << node;
        prev = t.device().ionN;
    }
}

TEST(TechFlavors, LeakageOrderingHpLopLstp)
{
    for (int node : Technology::availableNodes()) {
        const Technology t(node);
        const auto &hp = t.device(DeviceFlavor::HP);
        const auto &lop = t.device(DeviceFlavor::LOP);
        const auto &lstp = t.device(DeviceFlavor::LSTP);
        EXPECT_GT(hp.ioffN, lop.ioffN) << "node " << node;
        EXPECT_GT(lop.ioffN, lstp.ioffN) << "node " << node;
        // LSTP leaks orders of magnitude less than HP once leakage
        // becomes a problem (90 nm and below).
        if (node <= 90) {
            EXPECT_GT(hp.ioffN / lstp.ioffN, 100.0) << "node " << node;
        }
    }
}

TEST(TechFlavors, SpeedOrderingHpLopLstp)
{
    for (int node : Technology::availableNodes()) {
        const Technology t(node);
        EXPECT_LT(t.device(DeviceFlavor::HP).fo4,
                  t.device(DeviceFlavor::LOP).fo4);
        EXPECT_LT(t.device(DeviceFlavor::LOP).fo4,
                  t.device(DeviceFlavor::LSTP).fo4);
    }
}

TEST(TechFlavors, PmosWeakerThanNmos)
{
    for (int node : Technology::availableNodes()) {
        const Technology t(node);
        for (auto f : {DeviceFlavor::HP, DeviceFlavor::LSTP,
                       DeviceFlavor::LOP})
            EXPECT_LT(t.device(f).ionP, t.device(f).ionN);
    }
}

TEST(TechTemperature, LeakageGrowsWithTemperature)
{
    const Technology cold(65, DeviceFlavor::HP, 300.0);
    const Technology warm(65, DeviceFlavor::HP, 340.0);
    const Technology hot(65, DeviceFlavor::HP, 380.0);
    EXPECT_LT(cold.leakageScale(), warm.leakageScale());
    EXPECT_LT(warm.leakageScale(), hot.leakageScale());
}

TEST(TechTemperature, DoublesEveryTwentyKelvin)
{
    const Technology a(65, DeviceFlavor::HP, 320.0);
    const Technology b(65, DeviceFlavor::HP, 340.0);
    EXPECT_NEAR(b.leakageScale() / a.leakageScale(), 2.0, 1e-9);
}

TEST(TechTemperature, ReferenceIsUnity)
{
    const Technology t(65, DeviceFlavor::HP, 300.0);
    EXPECT_NEAR(t.leakageScale(), 1.0, 1e-9);
}

TEST(TechTemperature, OutOfRangeRejected)
{
    EXPECT_THROW(Technology(65, DeviceFlavor::HP, 100.0), ConfigError);
    EXPECT_THROW(Technology(65, DeviceFlavor::HP, 500.0), ConfigError);
}

TEST(TechDvfs, NominalScalesAreUnity)
{
    const Technology t(45);
    EXPECT_NEAR(t.delayScale(), 1.0, 1e-12);
    EXPECT_NEAR(t.energyScale(), 1.0, 1e-12);
    EXPECT_NEAR(t.gateLeakageScale(), 1.0, 1e-12);
}

TEST(TechDvfs, LowerVoltageSlowerAndCheaper)
{
    Technology t(45);
    const double nominal = t.device().vdd;
    t.setVdd(0.8 * nominal);
    EXPECT_GT(t.delayScale(), 1.0);
    EXPECT_NEAR(t.energyScale(), 0.64, 1e-9);
    EXPECT_LT(t.leakageScale(), Technology(45).leakageScale());
}

TEST(TechDvfs, HigherVoltageFasterAndHotter)
{
    Technology t(45);
    t.setVdd(1.1 * t.device().vdd);
    EXPECT_LT(t.delayScale(), 1.0);
    EXPECT_GT(t.energyScale(), 1.0);
}

TEST(TechDvfs, BoundsEnforced)
{
    Technology t(45);
    EXPECT_THROW(t.setVdd(t.device().vth), ConfigError);
    EXPECT_THROW(t.setVdd(2.0 * t.device().vdd), ConfigError);
}

namespace {

/**
 * The operating-point scales are stored, not recomputed per call, so
 * every path that changes Vdd or temperature must refresh them.  Hold
 * the stored values bit-equal to the closed-form expressions.
 */
void
expectScalesMatchClosedForm(const Technology &t, const char *when)
{
    const double vnom = t.device().vdd;
    const double vth = t.device().vth;
    const double v = t.vdd() / vnom;
    const double leak =
        std::pow(2.0, (t.temperature() - 300.0) / 20.0) * v;
    const double delay = (t.vdd() / std::pow(t.vdd() - vth, 1.3)) /
                         (vnom / std::pow(vnom - vth, 1.3));
    EXPECT_EQ(t.leakageScale(), leak) << when;
    EXPECT_EQ(t.gateLeakageScale(), v * v) << when;
    EXPECT_EQ(t.delayScale(), delay) << when;
    EXPECT_EQ(t.fo4(), t.device().fo4 * delay) << when;
}

} // namespace

TEST(TechScales, CachedScalesTrackEverySetter)
{
    for (const DeviceFlavor f :
         {DeviceFlavor::HP, DeviceFlavor::LSTP, DeviceFlavor::LOP}) {
        Technology t(45, f, 330.0);
        expectScalesMatchClosedForm(t, "constructed");
        t.setVdd(0.85 * t.device().vdd);
        expectScalesMatchClosedForm(t, "after setVdd");
        t.setTemperature(385.0);
        expectScalesMatchClosedForm(t, "after setTemperature");

        Technology copy = t;
        expectScalesMatchClosedForm(copy, "copied");
        copy.setVdd(1.1 * copy.device().vdd);
        copy.setTemperature(300.0);
        expectScalesMatchClosedForm(copy, "copy after setters");
        // The original keeps its own operating point.
        EXPECT_NE(copy.leakageScale(), t.leakageScale());
        expectScalesMatchClosedForm(t, "original after copy changed");
    }
}

TEST(TechWires, PitchOrderingAcrossLayers)
{
    const Technology t(65);
    EXPECT_LT(t.wire(WireLayer::Local).pitch,
              t.wire(WireLayer::Intermediate).pitch);
    EXPECT_LT(t.wire(WireLayer::Intermediate).pitch,
              t.wire(WireLayer::Global).pitch);
}

TEST(TechWires, ResistanceOrderingAcrossLayers)
{
    const Technology t(65);
    // Narrower wires resist more per length.
    EXPECT_GT(t.wire(WireLayer::Local).resPerM,
              t.wire(WireLayer::Intermediate).resPerM);
    EXPECT_GT(t.wire(WireLayer::Intermediate).resPerM,
              t.wire(WireLayer::Global).resPerM);
}

TEST(TechWires, ConservativeWorseThanAggressive)
{
    const Technology t(45);
    for (auto layer : {WireLayer::Local, WireLayer::Intermediate,
                       WireLayer::Global}) {
        const auto &agg = t.wire(layer, WireProjection::Aggressive);
        const auto &con = t.wire(layer, WireProjection::Conservative);
        EXPECT_GT(con.resPerM, agg.resPerM);
        EXPECT_GT(con.capPerM, agg.capPerM);
    }
}

TEST(TechWires, ResistancePerLengthGrowsAsNodesShrink)
{
    double prev = 0.0;
    for (int node : Technology::availableNodes()) {
        const Technology t(node);
        const double r = t.wire(WireLayer::Global).resPerM;
        EXPECT_GT(r, prev) << "node " << node;
        prev = r;
    }
}

TEST(TechWires, ProjectionSelectable)
{
    Technology t(45);
    EXPECT_EQ(t.projection(), WireProjection::Aggressive);
    t.setProjection(WireProjection::Conservative);
    EXPECT_EQ(t.projection(), WireProjection::Conservative);
    EXPECT_GT(t.wire(WireLayer::Global).resPerM,
              t.wire(WireLayer::Global,
                     WireProjection::Aggressive).resPerM);
}

TEST(TechDensity, CellAreasScaleWithFeatureSquared)
{
    const Technology t90(90);
    const Technology t45(45);
    const double ratio = (90.0 * 90.0) / (45.0 * 45.0);
    EXPECT_NEAR(t90.sramCellArea() / t45.sramCellArea(), ratio, 1e-9);
    EXPECT_NEAR(t90.logicGateArea() / t45.logicGateArea(), ratio, 1e-9);
}

TEST(TechDensity, CellAreaOrdering)
{
    const Technology t(65);
    EXPECT_LT(t.sramCellArea(), t.camCellArea());
    EXPECT_LT(t.camCellArea(), t.dffArea());
}

/** Property sweep: every node/flavor pair produces physical values. */
class TechNodeFlavorTest
    : public ::testing::TestWithParam<std::tuple<int, DeviceFlavor>>
{};

TEST_P(TechNodeFlavorTest, AllParametersPhysical)
{
    const auto [node, flavor] = GetParam();
    const Technology t(node, flavor);
    const auto &d = t.device();
    EXPECT_GT(d.vdd, 0.3);
    EXPECT_LT(d.vdd, 2.5);
    EXPECT_GT(d.vth, 0.0);
    EXPECT_LT(d.vth, d.vdd);
    EXPECT_GT(d.ionN, 0.0);
    EXPECT_GE(d.ioffN, 0.0);
    EXPECT_GT(d.cGate, 0.0);
    EXPECT_GT(d.cJunction, 0.0);
    EXPECT_GT(d.fo4, 1.0 * ps);
    EXPECT_LT(d.fo4, 500.0 * ps);
}

TEST_P(TechNodeFlavorTest, WireParametersPhysical)
{
    const auto [node, flavor] = GetParam();
    const Technology t(node, flavor);
    for (auto layer : {WireLayer::Local, WireLayer::Intermediate,
                       WireLayer::Global}) {
        for (auto proj : {WireProjection::Aggressive,
                          WireProjection::Conservative}) {
            const auto &w = t.wire(layer, proj);
            EXPECT_GT(w.pitch, 0.0);
            EXPECT_GT(w.width, 0.0);
            EXPECT_GT(w.thickness, w.width);  // AR > 1
            EXPECT_GT(w.resPerM, 0.0);
            EXPECT_GT(w.capPerM, 0.05 * fF / um);
            EXPECT_LT(w.capPerM, 1.0 * fF / um);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllNodes, TechNodeFlavorTest,
    ::testing::Combine(::testing::Values(180, 90, 65, 45, 32, 22),
                       ::testing::Values(DeviceFlavor::HP,
                                         DeviceFlavor::LSTP,
                                         DeviceFlavor::LOP)));

TEST(TechInterpolation, BracketedNodesInterpolate)
{
    const Technology t40(40);
    const Technology t45(45);
    const Technology t32(32);
    EXPECT_EQ(t40.nodeNm(), 40);
    EXPECT_DOUBLE_EQ(t40.feature(), 40.0 * nm);
    // Monotone between the brackets on every key parameter.
    EXPECT_LT(t40.device().fo4, t45.device().fo4);
    EXPECT_GT(t40.device().fo4, t32.device().fo4);
    EXPECT_GT(t40.device().ionN, t45.device().ionN);
    EXPECT_LT(t40.device().ionN, t32.device().ionN);
    EXPECT_LE(t40.device().vdd, t45.device().vdd);
    EXPECT_GE(t40.device().vdd, t32.device().vdd);
}

TEST(TechInterpolation, WiresFollowActualGeometry)
{
    const Technology t40(40);
    // Global pitch is 8 F of the actual node.
    EXPECT_NEAR(t40.wire(WireLayer::Global).pitch, 8.0 * 40.0 * nm,
                1e-12);
    EXPECT_GT(t40.wire(WireLayer::Global).resPerM,
              Technology(45).wire(WireLayer::Global).resPerM);
}

TEST(TechInterpolation, OutOfRangeRejected)
{
    EXPECT_THROW(Technology t(14), ConfigError);
    EXPECT_THROW(Technology t(250), ConfigError);
}

TEST(TechInterpolation, UsableByHigherLayers)
{
    // A core builds cleanly at an interpolated 28 nm node.
    const Technology t(28);
    EXPECT_GT(t.sramCellArea(), 0.0);
    EXPECT_LT(t.device().fo4, Technology(32).device().fo4);
}

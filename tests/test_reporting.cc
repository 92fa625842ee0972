/**
 * @file
 * Coverage for the human-facing reporting surfaces: toString
 * renderings across modules (computations, hardware, profiles,
 * simulation results, schedules) and their content guarantees.
 * These strings are how users debug mappings, so their shape is
 * part of the public contract.
 */

#include <gtest/gtest.h>

#include "hw/hardware.hh"
#include "isa/intrinsics.hh"
#include "mapping/generate.hh"
#include "ops/operators.hh"
#include "schedule/profile.hh"
#include "sim/simulator.hh"

namespace amos {
namespace {

TEST(Reporting, ComputationShowsLoopsAndStatement)
{
    auto conv = ops::buildRepresentative(ops::OpKind::C2D, 2);
    auto s = conv.toString();
    EXPECT_NE(s.find("for n in [0, 2)"), std::string::npos);
    EXPECT_NE(s.find("(reduce)"), std::string::npos);
    EXPECT_NE(s.find("out[n, k, p, q] += "), std::string::npos);
    EXPECT_NE(s.find("w[k, c, r, s]"), std::string::npos);
}

TEST(Reporting, HardwareSummaryListsIntrinsics)
{
    auto s = hw::v100().toString();
    EXPECT_NE(s.find("V100: 80 cores x 4 sub-cores"),
              std::string::npos);
    EXPECT_NE(s.find("96 KiB/core"), std::string::npos);
    // All three WMMA shapes listed.
    EXPECT_NE(s.find("i1 < 16"), std::string::npos);
    EXPECT_NE(s.find("i1 < 32"), std::string::npos);
    EXPECT_NE(s.find("i2 < 32"), std::string::npos);
}

TEST(Reporting, ProfileStringCarriesGridAndValidity)
{
    auto gemm = ops::makeGemm(64, 64, 64);
    ComputeMapping m;
    m.groups = {{0}, {1}, {2}};
    MappingPlan plan(gemm, isa::wmma(16, 16, 16), m);
    auto hw = hw::v100();
    auto prof = lowerKernel(plan, defaultSchedule(plan), hw);
    auto s = prof.toString();
    EXPECT_NE(s.find("blocks=1"), std::string::npos);
    EXPECT_NE(s.find("serial=64"), std::string::npos);
    EXPECT_EQ(s.find("INVALID"), std::string::npos);
}

TEST(Reporting, SimResultStringCarriesWavesAndPeak)
{
    auto gemm = ops::makeGemm(256, 256, 256);
    ComputeMapping m;
    m.groups = {{0}, {1}, {2}};
    MappingPlan plan(gemm, isa::wmma(16, 16, 16), m);
    auto hw = hw::v100();
    auto sched = defaultSchedule(plan);
    sched.axes[0].blockFactor = 16;
    auto sim = simulateKernel(lowerKernel(plan, sched, hw), hw);
    auto s = sim.toString();
    EXPECT_NE(s.find("cycles="), std::string::npos);
    EXPECT_NE(s.find("waves="), std::string::npos);
    EXPECT_NE(s.find("peak="), std::string::npos);
    EXPECT_NE(s.find("%"), std::string::npos);
}

TEST(Reporting, MemoryAbstractionRendersAllScopes)
{
    auto s = isa::wmma(16, 16, 16).memory.toString();
    EXPECT_NE(s.find("reg.Src1 = shared.Src1"), std::string::npos);
    EXPECT_NE(s.find("reg.Src2 = shared.Src2"), std::string::npos);
    EXPECT_NE(s.find("global.Dst = reg.Dst"), std::string::npos);
}

TEST(Reporting, MappingStringsForDegenerateGroups)
{
    // GEMV on wmma: i2 is uncovered, its physical expression is the
    // constant 0 and its memory contribution vanishes.
    auto gemv = ops::makeGemv(32, 32);
    ComputeMapping m;
    m.groups = {{0}, {}, {1}};
    MappingPlan plan(gemv, isa::wmma(16, 16, 16), m);
    ASSERT_TRUE(plan.valid());
    auto cm = plan.computeMappingString();
    EXPECT_NE(cm.find("[i1, i2, r1] <- [(i % 16), 0, (k % 16)]"),
              std::string::npos);
    auto mm = plan.memoryMappingString();
    EXPECT_NE(mm.find("addr_Dst"), std::string::npos);
}

TEST(Reporting, PseudoCodeMarksSerialBudget)
{
    auto conv = ops::buildRepresentative(ops::OpKind::C2D, 1);
    auto hw = hw::v100();
    auto plans =
        enumeratePlans(conv, hw.primaryIntrinsic(),
                       {LegalityPolicy::Addressable, 1});
    ASSERT_EQ(plans.size(), 1u);
    auto sched = expertSchedule(plans[0], hw);
    auto code = renderPseudoCode(plans[0], sched, hw);
    EXPECT_NE(code.find("// grid:"), std::string::npos);
    EXPECT_NE(code.find("serial calls/warp"), std::string::npos);
}

} // namespace
} // namespace amos

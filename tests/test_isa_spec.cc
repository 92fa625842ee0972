/**
 * @file
 * The declarative-ISA-spec proof suite (isa/spec.hh).
 *
 * Three pillars:
 *
 *  - Equivalence: every hand-registered intrinsic now derives from a
 *    JSON spec; this suite proves each spec-derived twin bit-identical
 *    to the frozen hand-written construction
 *    (tests/hand_built_intrinsics.hh) — structurally, through
 *    byte-identical matching matrices on every enumerated plan,
 *    through the shared golden mapping-count matrix, and through
 *    exact (maxAbsDiff == 0) differential execution across the
 *    interpreter, stride-walk, and JIT engines.
 *
 *  - Round-trip: serializing any registered intrinsic to spec JSON
 *    and re-deriving reproduces an equivalent intrinsic.
 *
 *  - Fuzz: systematic and pseudo-random mutations of the embedded
 *    specs (dropped fields, wrong kinds, out-of-range extents,
 *    dangling names, illegal dtype pairs, corrupted text) always
 *    produce structured diagnostics and never crash.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "golden_counts.hh"
#include "hand_built_intrinsics.hh"
#include "hw/hardware.hh"
#include "hw/spec_target.hh"
#include "isa/intrinsics.hh"
#include "isa/spec.hh"
#include "mapping/execute.hh"
#include "mapping/generate.hh"
#include "ops/operators.hh"
#include "quant/compare.hh"
#include "support/json.hh"
#include "support/logging.hh"

namespace amos {
namespace {

using isa::SpecDiag;

/** A spec-derived intrinsic next to its frozen hand-written twin. */
struct Twin
{
    std::string label;
    Intrinsic spec;
    Intrinsic hand;
};

std::vector<Twin>
registeredTwins()
{
    std::vector<Twin> out;
    out.push_back({"wmmaTiny", isa::wmmaTiny(), handbuilt::wmmaTiny()});
    out.push_back({"wmma16x16x16", isa::wmma(16, 16, 16),
                   handbuilt::wmma(16, 16, 16)});
    out.push_back({"wmma32x8x16", isa::wmma(32, 8, 16),
                   handbuilt::wmma(32, 8, 16)});
    out.push_back({"wmma8x32x16", isa::wmma(8, 32, 16),
                   handbuilt::wmma(8, 32, 16)});
    out.push_back(
        {"avx512Vnni", isa::avx512Vnni(), handbuilt::avx512Vnni()});
    out.push_back({"maliDot", isa::maliDot(), handbuilt::maliDot()});
    out.push_back({"virtualAxpy", isa::virtualAxpy(),
                   handbuilt::virtualAxpy()});
    out.push_back({"virtualGemv", isa::virtualGemv(),
                   handbuilt::virtualGemv()});
    out.push_back({"virtualConv", isa::virtualConv(),
                   handbuilt::virtualConv()});
    return out;
}

/** The dtype-legal conv2d workload for an intrinsic. */
TensorComputation
legalConv(const Intrinsic &intr)
{
    auto conv = ops::makeConv2d(golden::smallConvParams());
    if (intr.compute.dst().dtype == DataType::I32)
        return ops::quantizedVariant(conv);
    return conv;
}

bool
hasCode(const std::vector<SpecDiag> &diags, const std::string &code)
{
    for (const auto &d : diags)
        if (d.code == code)
            return true;
    return false;
}

// --------------------------------------------------------------------
// Equivalence: spec-derived registry == frozen hand constructions.
// --------------------------------------------------------------------

TEST(IsaSpecEquivalence, EveryTwinBitIdentical)
{
    for (const auto &twin : registeredTwins()) {
        SCOPED_TRACE(twin.label);
        std::string why;
        EXPECT_TRUE(isa::intrinsicEquivalent(twin.spec, twin.hand,
                                             &why))
            << why;
    }
}

TEST(IsaSpecEquivalence, WmmaVariantListMatches)
{
    auto spec = isa::wmmaVariants();
    auto hand = handbuilt::wmmaVariants();
    ASSERT_EQ(spec.size(), hand.size());
    for (std::size_t i = 0; i < spec.size(); ++i) {
        std::string why;
        EXPECT_TRUE(isa::intrinsicEquivalent(spec[i], hand[i], &why))
            << spec[i].name() << ": " << why;
    }
}

TEST(IsaSpecEquivalence, MatchingMatricesByteIdentical)
{
    // Plan-for-plan, the matching matrix Y the validator computes
    // must be the same bit pattern for the spec twin and the hand
    // twin — the strongest structural guarantee the mapping layer
    // can ask of the derivation.
    for (const auto &twin : registeredTwins()) {
        SCOPED_TRACE(twin.label);
        auto comp = legalConv(twin.spec);
        auto specPlans = enumeratePlans(comp, twin.spec, {});
        auto handPlans = enumeratePlans(comp, twin.hand, {});
        ASSERT_EQ(specPlans.size(), handPlans.size());
        ASSERT_GT(specPlans.size(), 0u);
        for (std::size_t p = 0; p < specPlans.size(); ++p) {
            EXPECT_TRUE(specPlans[p].matchingMatrix() ==
                        handPlans[p].matchingMatrix())
                << "plan #" << p << ":\n"
                << specPlans[p].matchingMatrix().toString() << "vs\n"
                << handPlans[p].matchingMatrix().toString();
            EXPECT_EQ(specPlans[p].valid(), handPlans[p].valid());
        }
    }
}

TEST(IsaSpecEquivalence, GoldenMappingCountsMatchFixture)
{
    // The shared golden fixture (golden_counts.hh) runs on the
    // spec-derived registry; recompute every row that has a hand
    // twin with the frozen construction and require the identical
    // counts. The amx row has no hand twin by design (spec-only).
    std::map<std::string, Intrinsic> hand;
    hand.emplace("wmmaTiny", handbuilt::wmmaTiny());
    hand.emplace("wmma16", handbuilt::wmma(16, 16, 16));
    hand.emplace("avx512Vnni", handbuilt::avx512Vnni());
    hand.emplace("maliDot", handbuilt::maliDot());
    hand.emplace("virtualGemv", handbuilt::virtualGemv());
    hand.emplace("virtualAxpy", handbuilt::virtualAxpy());
    hand.emplace("virtualConv", handbuilt::virtualConv());

    auto comps = golden::operatorColumns();
    bool sawSpecOnly = false;
    for (const auto &row : golden::intrinsicRows()) {
        auto it = hand.find(row.name);
        if (it == hand.end()) {
            EXPECT_STREQ(row.name, "amx");
            sawSpecOnly = true;
        }
        for (std::size_t c = 0; c < comps.size(); ++c) {
            SCOPED_TRACE(std::string(row.name) + " x " +
                         comps[c].name);
            const auto comp =
                row.int8 ? ops::quantizedVariant(comps[c].comp)
                         : comps[c].comp;
            EXPECT_EQ(golden::countAddressable(comp, row.intr),
                      row.counts[c]);
            if (it != hand.end()) {
                EXPECT_EQ(
                    golden::countAddressable(comp, it->second),
                    row.counts[c]);
            }
        }
    }
    EXPECT_TRUE(sawSpecOnly);
}

TEST(IsaSpecEquivalence, DifferentialExecutionExactAcrossEngines)
{
    // Execute a plan of every spec-derived intrinsic (including the
    // spec-only amx target) through the stride-walk and JIT engines
    // against the interpreter: the deviation must be exactly zero.
    std::vector<std::pair<std::string, Intrinsic>> intrs;
    for (auto &twin : registeredTwins())
        intrs.emplace_back(twin.label, std::move(twin.spec));
    intrs.emplace_back("amx", hw::byName("amx").primaryIntrinsic());

    for (const auto &[label, intr] : intrs) {
        SCOPED_TRACE(label);
        auto comp = legalConv(intr);
        auto plans = enumeratePlans(comp, intr, {});
        ASSERT_GT(plans.size(), 0u);
        const auto &plan = plans[0];
        ASSERT_TRUE(plan.valid()) << plan.validation().failure;
        for (auto engine : {ExecEngine::Walk, ExecEngine::Jit}) {
            auto res = engineVsInterpreterCompare(
                plan, engine, quant::ToleranceSpec::exactly());
            EXPECT_TRUE(res.pass) << res.summary();
            EXPECT_EQ(res.maxAbsErr, 0.0) << res.summary();
        }
    }
}

// --------------------------------------------------------------------
// Round-trip: serialize -> parse -> derive is the identity.
// --------------------------------------------------------------------

TEST(IsaSpecRoundTrip, SerializeParseDeriveIsIdentity)
{
    std::vector<std::pair<std::string, Intrinsic>> intrs;
    for (auto &twin : registeredTwins())
        intrs.emplace_back(twin.label, std::move(twin.spec));
    intrs.emplace_back("amx", hw::byName("amx").primaryIntrinsic());

    for (const auto &[label, intr] : intrs) {
        SCOPED_TRACE(label);
        Json doc = isa::intrinsicToSpecJson(intr);
        auto parsed = isa::parseIntrinsicSpec(doc);
        ASSERT_TRUE(parsed.ok()) << isa::diagsToString(parsed.diags);
        auto derived = isa::deriveIntrinsic(*parsed.spec);
        ASSERT_TRUE(derived.ok())
            << isa::diagsToString(derived.diags);
        std::string why;
        EXPECT_TRUE(isa::intrinsicEquivalent(*derived.intrinsic,
                                             intr, &why))
            << why;
    }
}

TEST(IsaSpecRoundTrip, SurvivesTextSerialization)
{
    // dump() -> parse text path (what a user-written file goes
    // through) must round-trip as well.
    Json doc = isa::intrinsicToSpecJson(isa::wmmaTiny());
    auto parsed = isa::parseIntrinsicSpecText(doc.dump());
    ASSERT_TRUE(parsed.ok()) << isa::diagsToString(parsed.diags);
    auto derived = isa::deriveIntrinsic(*parsed.spec);
    ASSERT_TRUE(derived.ok());
    std::string why;
    EXPECT_TRUE(isa::intrinsicEquivalent(*derived.intrinsic,
                                         isa::wmmaTiny(), &why))
        << why;
}

// --------------------------------------------------------------------
// Embedded registry and spec-only targets.
// --------------------------------------------------------------------

TEST(IsaSpecEmbedded, AllEmbeddedSpecsParseAndDerive)
{
    const auto &names = isa::embeddedSpecNames();
    ASSERT_GE(names.size(), 7u);
    for (const auto &name : names) {
        SCOPED_TRACE(name);
        const char *text = isa::embeddedSpecText(name);
        ASSERT_NE(text, nullptr);
        auto parsed = isa::parseIntrinsicSpecText(text);
        ASSERT_TRUE(parsed.ok()) << isa::diagsToString(parsed.diags);
        EXPECT_EQ(parsed.spec->specName, name);
        auto variants = isa::deriveVariants(*parsed.spec);
        ASSERT_TRUE(variants.ok())
            << isa::diagsToString(variants.diags);
        EXPECT_GT(variants.intrinsics.size(), 0u);
    }
    EXPECT_EQ(isa::embeddedSpecText("no-such-spec"), nullptr);
}

TEST(IsaSpecEmbedded, DeriveRejectsBadBindings)
{
    const auto &spec = isa::embeddedSpec("wmma");
    auto unknown = isa::deriveIntrinsic(spec, {{"zz", 4}});
    EXPECT_FALSE(unknown.ok());
    EXPECT_TRUE(hasCode(unknown.diags, "dangling-param"))
        << isa::diagsToString(unknown.diags);
    auto range = isa::deriveIntrinsic(spec, {{"m", 100000}});
    EXPECT_FALSE(range.ok());
    EXPECT_TRUE(hasCode(range.diags, "param-out-of-range"))
        << isa::diagsToString(range.diags);
}

TEST(IsaSpecEmbedded, AmxTargetLoadsThroughByName)
{
    // The spec-only target: no C++ registration anywhere, named
    // purely through the embedded JSON spec.
    const auto &names = hw::knownNames();
    EXPECT_NE(std::find(names.begin(), names.end(), "amx"),
              names.end());

    HardwareSpec amx = hw::byName("amx");
    EXPECT_EQ(amx.name, "AMX");
    EXPECT_EQ(amx.numCores, 32);
    const auto &intr = amx.primaryIntrinsic();
    EXPECT_EQ(intr.name(), "amx_tile_16x16x64");
    ASSERT_EQ(intr.compute.numIters(), 3u);
    EXPECT_EQ(intr.compute.iters()[2].extent, 64);
    EXPECT_TRUE(intr.compute.iters()[2].reduction);
    EXPECT_EQ(intr.compute.srcs()[0].dtype, DataType::U8);
    EXPECT_EQ(intr.compute.srcs()[1].dtype, DataType::I8);
    EXPECT_EQ(intr.compute.dst().dtype, DataType::I32);
    EXPECT_GT(amx.peakOpsPerCycle(), 0.0);
}

TEST(IsaSpecEmbedded, SpecFileTargetLoads)
{
    // "spec:<path>" — onboarding a target from a user file.
    std::string path =
        testing::TempDir() + "/amos_isa_spec_amx.json";
    {
        std::ofstream out(path);
        out << isa::embeddedSpecText("amx");
    }
    HardwareSpec viaFile = hw::byName("spec:" + path);
    EXPECT_EQ(viaFile.name, "AMX");
    std::string why;
    EXPECT_TRUE(isa::intrinsicEquivalent(
        viaFile.primaryIntrinsic(),
        hw::byName("amx").primaryIntrinsic(), &why))
        << why;

    auto missing = hw::targetFromSpecFile("/no/such/file.json");
    EXPECT_FALSE(missing.ok());
    EXPECT_TRUE(hasCode(missing.diags, "unreadable-file"));

    // Intrinsic-only specs (no "hardware" section) are not targets.
    auto intrOnly =
        hw::targetFromSpecText(isa::embeddedSpecText("wmma"));
    EXPECT_FALSE(intrOnly.ok());
    EXPECT_TRUE(hasCode(intrOnly.diags, "missing-field"));

    EXPECT_THROW(hw::byName("spec:/no/such/file.json"), FatalError);
    EXPECT_THROW(hw::byName("no-such-target"), FatalError);
}

// --------------------------------------------------------------------
// Fuzz: every malformed-spec failure mode is a structured
// diagnostic, never a crash.
// --------------------------------------------------------------------

/** Copy of `obj` without `key`. */
Json
withoutKey(const Json &obj, const std::string &key)
{
    Json out = Json::object();
    for (const auto &[k, v] : obj.entries())
        if (k != key)
            out.set(k, v);
    return out;
}

/** Copy of `obj` with `key` set to `v`. */
Json
withKey(Json obj, const std::string &key, Json v)
{
    obj.set(key, std::move(v));
    return obj;
}

/** Copy of array `arr` with element `idx` replaced by `v`. */
Json
withElem(const Json &arr, std::size_t idx, Json v)
{
    Json out = Json::array();
    for (std::size_t i = 0; i < arr.size(); ++i)
        out.push(i == idx ? v : arr.at(i));
    return out;
}

/** Copy of array `arr` without element `idx`. */
Json
withoutElem(const Json &arr, std::size_t idx)
{
    Json out = Json::array();
    for (std::size_t i = 0; i < arr.size(); ++i)
        if (i != idx)
            out.push(arr.at(i));
    return out;
}

Json
embeddedDoc(const std::string &name)
{
    return Json::parse(isa::embeddedSpecText(name));
}

/** Every key path in the document (array indices as decimals). */
void
collectPaths(const Json &node, std::vector<std::string> &cur,
             std::vector<std::vector<std::string>> &out)
{
    if (node.kind() == Json::Kind::Object) {
        for (const auto &[key, value] : node.entries()) {
            cur.push_back(key);
            out.push_back(cur);
            collectPaths(value, cur, out);
            cur.pop_back();
        }
    } else if (node.kind() == Json::Kind::Array) {
        for (std::size_t i = 0; i < node.size(); ++i) {
            cur.push_back(std::to_string(i));
            out.push_back(cur);
            collectPaths(node.at(i), cur, out);
            cur.pop_back();
        }
    }
}

/** Rebuild `node` with the subtree at `path` dropped (or replaced). */
Json
rebuild(const Json &node, const std::vector<std::string> &path,
        std::size_t depth, const Json *replacement)
{
    const std::string &step = path[depth];
    bool last = depth + 1 == path.size();
    if (node.kind() == Json::Kind::Array) {
        auto idx = static_cast<std::size_t>(std::stoul(step));
        if (last)
            return replacement != nullptr
                       ? withElem(node, idx, *replacement)
                       : withoutElem(node, idx);
        return withElem(node, idx,
                        rebuild(node.at(idx), path, depth + 1,
                                replacement));
    }
    if (last)
        return replacement != nullptr
                   ? withKey(node, step, *replacement)
                   : withoutKey(node, step);
    return withKey(node, step,
                   rebuild(node.get(step), path, depth + 1,
                           replacement));
}

/**
 * The fuzz invariant: parsing (and, when parsing succeeds, deriving)
 * must never throw, and failure is always a structured diagnostic
 * with a non-empty code and message.
 */
void
expectStructuredOutcome(const Json &doc, const std::string &trace)
{
    SCOPED_TRACE(trace);
    isa::SpecParseResult parsed;
    ASSERT_NO_THROW(parsed = isa::parseIntrinsicSpec(doc));
    if (parsed.ok()) {
        isa::SpecVariantsResult variants;
        ASSERT_NO_THROW(variants =
                            isa::deriveVariants(*parsed.spec));
        if (!variants.ok()) {
            EXPECT_FALSE(variants.diags.empty());
        }
    } else {
        EXPECT_FALSE(parsed.diags.empty());
        for (const auto &d : parsed.diags) {
            EXPECT_FALSE(d.code.empty());
            EXPECT_FALSE(d.message.empty());
            EXPECT_NE(d.toString().find(d.code), std::string::npos);
        }
    }
    // The hardware-target loader shares the contract.
    hw::TargetLoadResult target;
    ASSERT_NO_THROW(target = hw::targetFromSpecJson(doc));
    if (!target.ok()) {
        EXPECT_FALSE(target.diags.empty());
    }
}

TEST(IsaSpecFuzz, TargetedMutationsProduceStableCodes)
{
    struct Case
    {
        const char *label;
        const char *base;          ///< embedded spec to mutate
        std::function<Json(const Json &)> mutate;
        const char *expectCode;
    };
    auto intr = [](const Json &doc, const std::string &key,
                   Json v) {
        return withKey(doc, "intrinsic",
                       withKey(doc.get("intrinsic"), key,
                               std::move(v)));
    };
    std::vector<Case> cases = {
        {"drop spec name", "wmma",
         [](const Json &d) { return withoutKey(d, "name"); },
         "missing-field"},
        {"drop intrinsic", "wmma",
         [](const Json &d) { return withoutKey(d, "intrinsic"); },
         "missing-field"},
        {"drop iters", "wmma",
         [&](const Json &d) {
             return withKey(d, "intrinsic",
                            withoutKey(d.get("intrinsic"), "iters"));
         },
         "missing-field"},
        {"unsupported schema", "wmma",
         [](const Json &d) {
             return withKey(d, "schema", Json("amos-isa-spec-v9"));
         },
         "bad-schema"},
        {"intrinsic name wrong kind", "wmma",
         [&](const Json &d) { return intr(d, "name", Json(3)); },
         "bad-type"},
        {"empty iteration list", "wmma",
         [&](const Json &d) {
             return intr(d, "iters", Json::array());
         },
         "no-iters"},
        {"zero extent", "mali_dot",
         [&](const Json &d) {
             const Json &iters = d.get("intrinsic").get("iters");
             return intr(d, "iters",
                         withElem(iters, 0,
                                  withKey(iters.at(0), "extent",
                                          Json(0))));
         },
         "bad-extent"},
        {"extent names unknown parameter", "wmma",
         [&](const Json &d) {
             const Json &iters = d.get("intrinsic").get("iters");
             return intr(d, "iters",
                         withElem(iters, 0,
                                  withKey(iters.at(0), "extent",
                                          Json("zz"))));
         },
         "dangling-param"},
        {"bad iteration kind", "wmma",
         [&](const Json &d) {
             const Json &iters = d.get("intrinsic").get("iters");
             return intr(d, "iters",
                         withElem(iters, 0,
                                  withKey(iters.at(0), "kind",
                                          Json("diagonal"))));
         },
         "bad-kind"},
        {"dangling operand index", "wmma",
         [&](const Json &d) {
             const Json &srcs = d.get("intrinsic").get("srcs");
             Json indices = Json::array();
             indices.push(Json("qq"));
             return intr(d, "srcs",
                         withElem(srcs, 0,
                                  withKey(srcs.at(0), "indices",
                                          std::move(indices))));
         },
         "dangling-index"},
        {"unknown dtype", "wmma",
         [&](const Json &d) {
             const Json &srcs = d.get("intrinsic").get("srcs");
             return intr(d, "srcs",
                         withElem(srcs, 0,
                                  withKey(srcs.at(0), "dtype",
                                          Json("f64"))));
         },
         "bad-dtype"},
        {"unknown combine", "wmma",
         [&](const Json &d) {
             return intr(d, "combine", Json("divide"));
         },
         "bad-combine"},
        {"unknown memory scope", "wmma",
         [&](const Json &d) {
             const Json &mem = d.get("intrinsic").get("memory");
             return intr(d, "memory",
                         withElem(mem, 0,
                                  withKey(mem.at(0), "from",
                                          Json("l3"))));
         },
         "bad-scope"},
        {"mixed source width classes", "vnni",
         [&](const Json &d) {
             const Json &srcs = d.get("intrinsic").get("srcs");
             return intr(d, "srcs",
                         withElem(srcs, 0,
                                  withKey(srcs.at(0), "dtype",
                                          Json("f16"))));
         },
         "illegal-dtype-pair"},
        {"int8 sources into f16 accumulator", "vnni",
         [&](const Json &d) {
             return intr(d, "dst",
                         withKey(d.get("intrinsic").get("dst"),
                                 "dtype", Json("f16")));
         },
         "illegal-dtype-pair"},
        {"float sources into i32 accumulator", "wmma",
         [&](const Json &d) {
             return intr(d, "dst",
                         withKey(d.get("intrinsic").get("dst"),
                                 "dtype", Json("i32")));
         },
         "illegal-dtype-pair"},
        {"staging names unknown operand", "wmma",
         [&](const Json &d) {
             const Json &mem = d.get("intrinsic").get("memory");
             return intr(d, "memory",
                         withElem(mem, 0,
                                  withKey(mem.at(0), "operand",
                                          Json("Nope"))));
         },
         "unknown-operand"},
        {"operand staged twice", "wmma",
         [&](const Json &d) {
             Json mem = d.get("intrinsic").get("memory");
             mem.push(mem.at(0));
             return intr(d, "memory", std::move(mem));
         },
         "duplicate-staging"},
        {"operand never staged", "wmma",
         [&](const Json &d) {
             const Json &mem = d.get("intrinsic").get("memory");
             return intr(d, "memory", withoutElem(mem, 0));
         },
         "missing-staging"},
        {"negative latency", "wmma",
         [&](const Json &d) {
             return intr(d, "timing",
                         withKey(d.get("intrinsic").get("timing"),
                                 "latency_cycles", Json(-1.0)));
         },
         "bad-timing"},
        {"default outside range", "wmma",
         [&](const Json &d) {
             const Json &params = d.get("intrinsic").get("params");
             return intr(d, "params",
                         withElem(params, 0,
                                  withKey(params.at(0), "default",
                                          Json(0))));
         },
         "param-out-of-range"},
        {"inverted range", "wmma",
         [&](const Json &d) {
             const Json &params = d.get("intrinsic").get("params");
             Json range = Json::array();
             range.push(Json(5));
             range.push(Json(2));
             return intr(d, "params",
                         withElem(params, 0,
                                  withKey(params.at(0), "range",
                                          std::move(range))));
         },
         "bad-range"},
        {"variant binds unknown parameter", "wmma",
         [](const Json &d) {
             Json variants = d.get("variants");
             Json binding = Json::object();
             binding.set("zz", Json(3));
             variants.push(std::move(binding));
             return withKey(d, "variants", std::move(variants));
         },
         "dangling-param"},
        {"variant out of range", "wmma",
         [](const Json &d) {
             Json binding = Json::object();
             binding.set("m", Json(512));
             Json variants = d.get("variants");
             variants.push(std::move(binding));
             return withKey(d, "variants", std::move(variants));
         },
         "param-out-of-range"},
        {"duplicate iteration name", "wmma",
         [&](const Json &d) {
             const Json &iters = d.get("intrinsic").get("iters");
             return intr(d, "iters",
                         withElem(iters, 1,
                                  withKey(iters.at(1), "name",
                                          Json("i1"))));
         },
         "duplicate-name"},
        {"spatial iteration missing from dst", "wmma",
         [&](const Json &d) {
             const Json &iters = d.get("intrinsic").get("iters");
             return intr(d, "iters",
                         withElem(iters, 2,
                                  withKey(iters.at(2), "kind",
                                          Json("spatial"))));
         },
         "reduction-mismatch"},
        {"multiply-add with one source", "wmma",
         [&](const Json &d) {
             const Json &srcs = d.get("intrinsic").get("srcs");
             return intr(d, "srcs", withoutElem(srcs, 1));
         },
         "operand-count"},
    };

    for (const auto &c : cases) {
        SCOPED_TRACE(c.label);
        Json mutated = c.mutate(embeddedDoc(c.base));
        auto parsed = isa::parseIntrinsicSpec(mutated);
        EXPECT_FALSE(parsed.ok());
        EXPECT_TRUE(hasCode(parsed.diags, c.expectCode))
            << "expected code '" << c.expectCode << "', got:\n"
            << isa::diagsToString(parsed.diags);
        expectStructuredOutcome(mutated, c.label);
    }
}

TEST(IsaSpecFuzz, NonObjectDocumentsAreDiagnosed)
{
    auto arr = isa::parseIntrinsicSpec(Json::array());
    EXPECT_FALSE(arr.ok());
    EXPECT_TRUE(hasCode(arr.diags, "bad-type"));

    auto text = isa::parseIntrinsicSpecText("{ not json");
    EXPECT_FALSE(text.ok());
    EXPECT_TRUE(hasCode(text.diags, "bad-json"));
}

TEST(IsaSpecFuzz, DropEveryKeyNeverCrashes)
{
    for (const auto &name : isa::embeddedSpecNames()) {
        Json doc = embeddedDoc(name);
        std::vector<std::vector<std::string>> paths;
        std::vector<std::string> cur;
        collectPaths(doc, cur, paths);
        for (const auto &path : paths) {
            Json mutated = rebuild(doc, path, 0, nullptr);
            std::string trace = name + ": drop";
            for (const auto &step : path)
                trace += "/" + step;
            expectStructuredOutcome(mutated, trace);
        }
    }
}

TEST(IsaSpecFuzz, WrongKindEveryNodeNeverCrashes)
{
    const Json replacements[] = {Json(true), Json(-7),
                                 Json("surprise"), Json::array(),
                                 Json::object(), Json()};
    for (const auto &name : isa::embeddedSpecNames()) {
        Json doc = embeddedDoc(name);
        std::vector<std::vector<std::string>> paths;
        std::vector<std::string> cur;
        collectPaths(doc, cur, paths);
        std::size_t n = 0;
        for (const auto &path : paths) {
            // Cycle through the replacement kinds; combined with the
            // full path sweep this covers every field x a wrong kind.
            const Json &r =
                replacements[n++ % std::size(replacements)];
            Json mutated = rebuild(doc, path, 0, &r);
            std::string trace = name + ": replace";
            for (const auto &step : path)
                trace += "/" + step;
            expectStructuredOutcome(mutated, trace);
        }
    }
}

TEST(IsaSpecFuzz, CorruptedTextNeverCrashes)
{
    // Deterministic text-level corruption: truncations at every
    // stride-16 offset plus LCG-driven single-character flips.
    std::uint64_t state = 0x9E3779B97F4A7C15ull;
    auto next = [&state] {
        state = state * 6364136223846793005ull +
                1442695040888963407ull;
        return state >> 33;
    };
    for (const auto &name : isa::embeddedSpecNames()) {
        std::string text = isa::embeddedSpecText(name);
        for (std::size_t cut = 0; cut < text.size(); cut += 16) {
            auto res = isa::parseIntrinsicSpecText(
                text.substr(0, cut));
            if (!res.ok()) {
                EXPECT_FALSE(res.diags.empty());
            }
        }
        for (int i = 0; i < 256; ++i) {
            std::string mutated = text;
            std::size_t pos = next() % mutated.size();
            mutated[pos] = static_cast<char>(next() % 128);
            auto res = isa::parseIntrinsicSpecText(mutated);
            if (!res.ok()) {
                EXPECT_FALSE(res.diags.empty());
            }
            auto target = hw::targetFromSpecText(mutated);
            if (!target.ok()) {
                EXPECT_FALSE(target.diags.empty());
            }
        }
    }
}

TEST(IsaSpecFuzz, RandomStructuralMutationsNeverCrash)
{
    std::uint64_t state = 0xD1B54A32D192ED03ull;
    auto next = [&state] {
        state = state * 6364136223846793005ull +
                1442695040888963407ull;
        return state >> 33;
    };
    const Json replacements[] = {Json(true), Json(-1), Json(0),
                                 Json(""), Json::array(), Json()};
    for (const auto &name : isa::embeddedSpecNames()) {
        Json doc = embeddedDoc(name);
        std::vector<std::vector<std::string>> paths;
        std::vector<std::string> cur;
        collectPaths(doc, cur, paths);
        for (int round = 0; round < 64; ++round) {
            // Stack two random mutations to reach states a single
            // edit cannot produce. Paths are re-collected after each
            // edit: a replaced or dropped subtree invalidates every
            // path that descended through it.
            Json mutated = doc;
            for (int edit = 0; edit < 2; ++edit) {
                if (paths.empty())
                    break;
                const auto path = paths[next() % paths.size()];
                if (next() % 3 == 0) {
                    mutated = rebuild(mutated, path, 0, nullptr);
                } else {
                    const Json &r =
                        replacements[next() %
                                     std::size(replacements)];
                    mutated = rebuild(mutated, path, 0, &r);
                }
                paths.clear();
                cur.clear();
                collectPaths(mutated, cur, paths);
            }
            expectStructuredOutcome(
                mutated, name + ": round " + std::to_string(round));
            paths.clear();
            cur.clear();
            collectPaths(doc, cur, paths);
        }
    }
}

TEST(IsaSpecDiag, DiagnosticsCarryCodePathMessage)
{
    // The structured triple is the API: stable code, JSON-pointer
    // path to the offending node, human message.
    Json doc = embeddedDoc("wmma");
    const Json &srcs = doc.get("intrinsic").get("srcs");
    Json indices = Json::array();
    indices.push(Json("qq"));
    Json mutated = withKey(
        doc, "intrinsic",
        withKey(doc.get("intrinsic"), "srcs",
                withElem(srcs, 0,
                         withKey(srcs.at(0), "indices",
                                 std::move(indices)))));
    auto parsed = isa::parseIntrinsicSpec(mutated);
    ASSERT_FALSE(parsed.ok());
    bool found = false;
    for (const auto &d : parsed.diags) {
        if (d.code != "dangling-index")
            continue;
        found = true;
        EXPECT_EQ(d.path, "/intrinsic/srcs/0/indices/0");
        EXPECT_NE(d.message.find("qq"), std::string::npos);
        EXPECT_NE(d.toString().find("dangling-index"),
                  std::string::npos);
    }
    EXPECT_TRUE(found) << isa::diagsToString(parsed.diags);
}

} // namespace
} // namespace amos

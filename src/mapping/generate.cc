#include "generate.hh"

#include <algorithm>

#include "quant/legality.hh"
#include "support/logging.hh"
#include "support/trace.hh"

namespace amos {

namespace {

/**
 * Output-tensor dimension position of a spatial software iteration
 * (-1 if it does not appear in the output index list).
 */
int
outputDimOf(const TensorComputation &comp, std::size_t s)
{
    const VarNode *var = comp.iters()[s].var.node();
    const auto &indices = comp.outputIndices();
    for (std::size_t d = 0; d < indices.size(); ++d)
        if (usesVar(indices[d], var))
            return static_cast<int>(d);
    return -1;
}

/**
 * Check the addressability (run-suffix) rule for one spatial group:
 * within each maximal run of adjacent output dimensions among the
 * candidates, selected iterations must form a suffix of the run.
 */
bool
groupIsAddressable(const TensorComputation &comp,
                   const std::vector<std::size_t> &candidates,
                   const std::vector<std::size_t> &selected)
{
    if (candidates.empty())
        return true;

    // Order candidates by their output dimension.
    std::vector<std::pair<int, std::size_t>> by_dim;
    for (auto s : candidates) {
        int dim = outputDimOf(comp, s);
        if (dim < 0)
            return true; // not output-addressing: no constraint
        by_dim.push_back({dim, s});
    }
    std::sort(by_dim.begin(), by_dim.end());

    auto is_selected = [&selected](std::size_t s) {
        return std::find(selected.begin(), selected.end(), s) !=
               selected.end();
    };

    // Walk maximal runs of adjacent dimensions; inside a run a
    // selected iteration may not be followed (inward) by an
    // unselected one.
    std::size_t i = 0;
    while (i < by_dim.size()) {
        std::size_t j = i;
        while (j + 1 < by_dim.size() &&
               by_dim[j + 1].first == by_dim[j].first + 1)
            ++j;
        // Run spans [i, j]; require selected entries to be a suffix.
        bool seen_selected = false;
        for (std::size_t p = i; p <= j; ++p) {
            bool sel = is_selected(by_dim[p].second);
            if (seen_selected && !sel)
                return false;
            seen_selected |= sel;
        }
        i = j + 1;
    }
    return true;
}

} // namespace

std::vector<ComputeMapping>
enumerateMappings(const TensorComputation &comp, const Intrinsic &intr,
                  const GeneratorOptions &options)
{
    TraceSpan span("mapping.enumerate", "mapping");
    span.arg("computation", comp.name());
    span.arg("intrinsic", intr.name());

    const auto &compute = intr.compute;

    // Dtype legality is part of mapping validity: when the operand
    // shapes line up (same arity and combine kind), every candidate
    // would bind software operands to intrinsic lanes, so incompatible
    // dtype classes kill the whole enumeration up front. Arity or
    // combine mismatches keep their historical behaviour (the
    // structural machinery below rejects or scores them on its own).
    if (comp.inputs().size() == compute.numSrcs() &&
        comp.combine() == compute.combine()) {
        const auto legal = quant::checkDtypeLegality(comp, compute);
        if (!legal.legal) {
            // The count first: a long reason may not fit the span's
            // inline args budget whole.
            span.arg("candidates", static_cast<std::int64_t>(0));
            span.arg("dtype_illegal", legal.reason);
            return {};
        }
    }

    BitMatrix compat = compatibilityMatrix(comp, compute);
    std::size_t num_sw = comp.numIters();
    std::size_t num_hw = compute.numIters();

    // Candidate intrinsic iterations per software iteration.
    std::vector<std::vector<std::size_t>> choices(num_sw);
    for (std::size_t s = 0; s < num_sw; ++s)
        for (std::size_t k = 0; k < num_hw; ++k)
            if (compat.at(k, s))
                choices[s].push_back(k);

    // Compatible software iterations per intrinsic iteration (the
    // candidate pool used by the addressability rule and the
    // nonempty-group requirement).
    std::vector<std::vector<std::size_t>> pool(num_hw);
    for (std::size_t k = 0; k < num_hw; ++k)
        for (std::size_t s = 0; s < num_sw; ++s)
            if (compat.at(k, s))
                pool[k].push_back(s);

    BitMatrix x = softwareAccessMatrix(comp);
    BitMatrix z = compute.accessMatrix();

    std::vector<ComputeMapping> out;
    ComputeMapping current;
    current.groups.assign(num_hw, {});

    // Depth-first assignment: software iteration s goes to one of its
    // compatible intrinsic iterations, or stays outer.
    auto emit = [&]() {
        // A group must be nonempty whenever some software iteration
        // is compatible with it: an intrinsic dimension that could be
        // covered but is not would silently waste the whole dimension.
        for (std::size_t k = 0; k < num_hw; ++k)
            if (current.groups[k].empty() && !pool[k].empty())
                return;

        if (options.policy == LegalityPolicy::Addressable) {
            for (std::size_t k = 0; k < num_hw; ++k) {
                if (compute.iters()[k].reduction)
                    continue;
                if (!groupIsAddressable(comp, pool[k],
                                        current.groups[k]))
                    return;
            }
        }

        // The paper's Algorithm-1 check (guaranteed by construction
        // from the compatibility matrix, but run regardless: this is
        // the framework's ground truth for semantic preservation).
        BitMatrix y(num_hw, num_sw);
        for (std::size_t k = 0; k < num_hw; ++k)
            for (auto s : current.groups[k])
                y.set(k, s, true);
        if (!validateMatching(x, y, z, true).valid)
            return;

        out.push_back(current);
    };

    // Recursive DFS over software iterations: each is assigned to one
    // compatible intrinsic iteration or (first branch) stays outer.
    auto capped = [&]() {
        return options.maxCandidates &&
               out.size() >= options.maxCandidates;
    };
    auto dfs = [&](auto &&self, std::size_t depth) -> void {
        if (capped())
            return;
        if (depth == num_sw) {
            emit();
            return;
        }
        self(self, depth + 1); // leave outer
        for (auto k : choices[depth]) {
            if (capped())
                return;
            current.groups[k].push_back(depth);
            self(self, depth + 1);
            current.groups[k].pop_back();
        }
    };
    dfs(dfs, 0);
    span.arg("candidates",
             static_cast<std::int64_t>(out.size()));
    return out;
}

std::vector<MappingPlan>
enumeratePlans(const TensorComputation &comp, const Intrinsic &intr,
               const GeneratorOptions &options)
{
    std::vector<MappingPlan> plans;
    for (auto &mapping : enumerateMappings(comp, intr, options)) {
        MappingPlan plan(comp, intr, std::move(mapping));
        require(plan.valid(),
                "enumerateMappings produced an invalid mapping for ",
                comp.name(), " on ", intr.name());
        plans.push_back(std::move(plan));
    }
    return plans;
}

bool
isTensorizable(const TensorComputation &comp, const Intrinsic &intr)
{
    if (comp.inputs().size() != intr.compute.numSrcs() ||
        comp.combine() != intr.compute.combine())
        return false;
    if (!quant::checkDtypeLegality(comp, intr.compute).legal)
        return false;
    GeneratorOptions options;
    options.maxCandidates = 1;
    return !enumerateMappings(comp, intr, options).empty();
}

} // namespace amos

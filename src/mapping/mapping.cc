#include "mapping.hh"

#include <algorithm>

#include "quant/legality.hh"
#include "support/logging.hh"
#include "support/math_utils.hh"
#include "support/str_utils.hh"

namespace amos {

bool
ComputeMapping::isMapped(std::size_t s) const
{
    for (const auto &group : groups)
        for (auto member : group)
            if (member == s)
                return true;
    return false;
}

std::string
ComputeMapping::signature(const TensorComputation &comp) const
{
    std::vector<std::string> parts;
    for (const auto &group : groups) {
        parts.push_back(joinMapped(group, ",",
            [&comp](std::size_t s) {
                return comp.iters()[s].name();
            }));
    }
    return "[" + join(parts, " | ") + "]";
}

BitMatrix
softwareAccessMatrix(const TensorComputation &comp)
{
    const auto &iters = comp.iters();
    BitMatrix x(comp.inputs().size() + 1, iters.size());
    for (std::size_t m = 0; m < comp.inputs().size(); ++m) {
        for (const auto &idx : comp.inputs()[m].indices)
            for (std::size_t s = 0; s < iters.size(); ++s)
                if (usesVar(idx, iters[s].var.node()))
                    x.set(m, s, true);
    }
    std::size_t out_row = comp.inputs().size();
    for (const auto &idx : comp.outputIndices())
        for (std::size_t s = 0; s < iters.size(); ++s)
            if (usesVar(idx, iters[s].var.node()))
                x.set(out_row, s, true);
    return x;
}

BitMatrix
compatibilityMatrix(const TensorComputation &comp,
                    const ComputeAbstraction &intr)
{
    expect(comp.inputs().size() == intr.numSrcs(),
           "compatibilityMatrix: computation has ",
           comp.inputs().size(), " inputs but intrinsic ",
           intr.name(), " has ", intr.numSrcs(), " sources");
    expect(comp.combine() == intr.combine(),
           "compatibilityMatrix: combine kind mismatch between ",
           comp.name(), " and ", intr.name());

    BitMatrix x = softwareAccessMatrix(comp);
    BitMatrix z = intr.accessMatrix();
    BitMatrix compat(z.cols(), x.cols());
    for (std::size_t k = 0; k < z.cols(); ++k) {
        for (std::size_t s = 0; s < x.cols(); ++s) {
            if (comp.isTensorizeBarrier(
                    comp.iters()[s].var.node()))
                continue;
            if (x.column(s) == z.column(k))
                compat.set(k, s, true);
        }
    }
    return compat;
}

MappingPlan::MappingPlan(TensorComputation comp, Intrinsic intr,
                         ComputeMapping mapping)
    : _comp(std::move(comp)), _intr(std::move(intr)),
      _mapping(std::move(mapping))
{
    std::size_t num_intrinsic = _intr.compute.numIters();
    expect(_mapping.groups.size() == num_intrinsic,
           "MappingPlan: mapping has ", _mapping.groups.size(),
           " groups but intrinsic ", _intr.name(), " has ",
           num_intrinsic, " iterations");

    // Matching matrix Y and the Algorithm-1 validation.
    _y = BitMatrix(num_intrinsic, _comp.numIters());
    std::vector<int> owner(_comp.numIters(), -1);
    for (std::size_t k = 0; k < num_intrinsic; ++k) {
        for (auto s : _mapping.groups[k]) {
            expect(s < _comp.numIters(),
                   "MappingPlan: group member out of range");
            expect(owner[s] < 0, "MappingPlan: software iteration ",
                   _comp.iters()[s].name(),
                   " mapped to two intrinsic iterations");
            owner[s] = static_cast<int>(k);
            _y.set(k, s, true);
        }
    }
    _validation = validateMatching(softwareAccessMatrix(_comp), _y,
                                   _intr.compute.accessMatrix());

    // Dtype legality is part of validity: a structurally sound
    // matching that binds, say, float software operands to int8
    // intrinsic lanes is still not executable on the hardware.
    if (_validation.valid) {
        const auto legal =
            quant::checkDtypeLegality(_comp, _intr.compute);
        if (!legal.legal) {
            _validation.valid = false;
            _validation.failure = "dtype: " + legal.reason;
        }
    }

    buildGroups();
    buildOuterAxes();
    buildOperands();
}

void
MappingPlan::buildGroups()
{
    const auto &iters = _comp.iters();
    const auto &intr_iters = _intr.compute.iters();
    for (std::size_t k = 0; k < intr_iters.size(); ++k) {
        GroupInfo info;
        info.members = _mapping.groups[k];
        // Keep members in loop order: the fused flat index follows
        // the original nesting.
        std::sort(info.members.begin(), info.members.end());
        for (auto s : info.members)
            info.fusedExtent *= iters[s].extent;
        info.intrinsicExtent = intr_iters[k].extent;
        info.quotient = ceilDiv(info.fusedExtent, info.intrinsicExtent);
        info.padded =
            info.fusedExtent % info.intrinsicExtent != 0 ||
            info.fusedExtent < info.intrinsicExtent;
        _groups.push_back(std::move(info));
    }
    for (std::size_t s = 0; s < iters.size(); ++s)
        if (!_mapping.isMapped(s))
            _unmapped.push_back(s);
}

void
MappingPlan::buildOuterAxes()
{
    const auto &iters = _comp.iters();
    for (auto s : _unmapped) {
        OuterAxis axis;
        axis.kind = OuterAxis::Kind::Unmapped;
        axis.ref = s;
        axis.extent = iters[s].extent;
        axis.name = iters[s].name();
        _outerAxes.push_back(std::move(axis));
    }
    const auto &intr_iters = _intr.compute.iters();
    for (std::size_t k = 0; k < _groups.size(); ++k) {
        if (_groups[k].quotient == 1)
            continue; // degenerate axis: nothing to iterate
        OuterAxis axis;
        axis.kind = OuterAxis::Kind::GroupQuotient;
        axis.ref = k;
        axis.extent = _groups[k].quotient;
        axis.name = intr_iters[k].name + ".q";
        _outerAxes.push_back(std::move(axis));
    }
}

void
MappingPlan::buildOperands()
{
    const auto &compute = _intr.compute;
    auto build = [this, &compute](const IntrinsicOperand &intr_op,
                                  const std::vector<Expr> &sw_indices,
                                  bool is_output, int input_index) {
        OperandInfo info;
        info.name = intr_op.name;
        info.isOutput = is_output;
        info.inputIndex = input_index;
        info.dtype = intr_op.dtype;
        info.intrinsicIters = intr_op.iterIndices;
        info.tileElems = compute.operandTileElems(intr_op);
        info.tileBytes = compute.operandTileBytes(intr_op);
        if (intr_op.iterIndices.empty()) {
            info.tileStride = 1;
        } else {
            info.tileStride =
                info.tileElems /
                compute.iters()[intr_op.iterIndices.front()].extent;
        }

        // Which outer axes does the tile address depend on?
        for (std::size_t a = 0; a < _outerAxes.size(); ++a) {
            const auto &axis = _outerAxes[a];
            bool depends = false;
            if (axis.kind == OuterAxis::Kind::Unmapped) {
                const VarNode *var =
                    _comp.iters()[axis.ref].var.node();
                for (const auto &idx : sw_indices)
                    depends |= usesVar(idx, var);
            } else {
                for (auto k : intr_op.iterIndices)
                    depends |= k == axis.ref;
            }
            if (depends)
                info.dependentAxes.push_back(a);
        }
        for (auto a : info.dependentAxes)
            info.numTiles *= _outerAxes[a].extent;

        // Base address: flatten the dependent outer coordinates and
        // scale by the tile size (Fig. 3 part h).
        Expr base(std::int64_t{0});
        std::int64_t scale = info.tileElems;
        for (std::size_t pos = info.dependentAxes.size(); pos-- > 0;) {
            std::size_t a = info.dependentAxes[pos];
            const auto &axis = _outerAxes[a];
            Expr coord;
            if (axis.kind == OuterAxis::Kind::Unmapped) {
                coord = _comp.iters()[axis.ref].var;
            } else {
                coord = floorDiv(fusedFlatExpr(_groups[axis.ref]),
                                 Expr(_groups[axis.ref]
                                          .intrinsicExtent));
            }
            base = base + coord * Expr(scale);
            scale *= axis.extent;
        }
        info.baseAddress = base;
        _operands.push_back(std::move(info));
    };

    for (std::size_t m = 0; m < compute.numSrcs(); ++m)
        build(compute.srcs()[m], _comp.inputs()[m].indices, false,
              static_cast<int>(m));
    build(compute.dst(), _comp.outputIndices(), true, -1);
}

Expr
MappingPlan::fusedFlatExpr(const GroupInfo &group) const
{
    const auto &iters = _comp.iters();
    // Strides of the fused (row-major) flattening.
    std::vector<std::int64_t> strides(group.members.size(), 1);
    for (std::size_t pos = group.members.size(); pos-- > 1;)
        strides[pos - 1] = strides[pos] *
                           iters[group.members[pos]].extent;
    // Build left to right so renderings read like the paper's
    // (n * 4 + p * 2 + q) examples.
    Expr flat(std::int64_t{0});
    for (std::size_t pos = 0; pos < group.members.size(); ++pos)
        flat = flat + iters[group.members[pos]].var *
                      Expr(strides[pos]);
    return flat;
}

std::int64_t
MappingPlan::intrinsicCallCount() const
{
    std::int64_t calls = 1;
    for (const auto &axis : _outerAxes)
        calls *= axis.extent;
    return calls;
}

double
MappingPlan::paddingWasteFactor() const
{
    double executed = 1.0;
    double useful = 1.0;
    for (const auto &group : _groups) {
        executed *= static_cast<double>(group.quotient *
                                        group.intrinsicExtent);
        useful *= static_cast<double>(group.fusedExtent);
    }
    return executed / useful;
}

std::vector<Expr>
MappingPlan::virtualComputeExprs() const
{
    std::vector<Expr> out;
    for (const auto &group : _groups)
        out.push_back(fusedFlatExpr(group));
    return out;
}

std::vector<Expr>
MappingPlan::physicalComputeExprs() const
{
    std::vector<Expr> out;
    for (const auto &group : _groups)
        out.push_back(floorMod(fusedFlatExpr(group),
                               Expr(group.intrinsicExtent)));
    return out;
}

std::string
MappingPlan::computeMappingString() const
{
    const auto &intr_iters = _intr.compute.iters();
    std::vector<std::string> lhs, rhs;
    auto exprs = physicalComputeExprs();
    for (std::size_t k = 0; k < intr_iters.size(); ++k) {
        lhs.push_back(intr_iters[k].name);
        rhs.push_back(exprToString(exprs[k]));
    }
    return "[" + join(lhs, ", ") + "] <- [" + join(rhs, ", ") + "]";
}

std::string
MappingPlan::memoryMappingString() const
{
    std::string out;
    for (const auto &op : _operands) {
        out += "addr_" + op.name + " <- " +
               exprToString(op.baseAddress) + "\n";
        out += "stride_" + op.name + " <- " +
               std::to_string(op.tileStride) + "\n";
    }
    return out;
}

} // namespace amos

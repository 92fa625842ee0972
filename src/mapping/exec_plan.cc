#include "exec_plan.hh"

#include <algorithm>
#include <cmath>

#include "ir/affine.hh"
#include "quant/typed_exec.hh"
#include "support/logging.hh"
#include "support/thread_pool.hh"

namespace amos {

namespace {

/**
 * Stride walk over the mapped loop nest: outer axes around per-group
 * intrinsic counters whose software coordinates are mixed-radix
 * digits of the fused flat value.
 *
 * Per tile the walker decodes each group's start digits once, clamps
 * the counter to the valid (non-padding) limit, and then advances
 * every operand address incrementally: a counter increment moves one
 * group's digit odometer (one coefficient add, rollbacks on digit
 * carries) plus that counter's packed-tile stride; a counter carry
 * restores the address snapshot taken when the counter last left
 * zero. The executed tuples — and hence accumulation order — are
 * exactly the interpreter's non-padding subsequence.
 *
 * `restrictAxis`, when >= 0, confines that outer axis to [lo, hi);
 * used by the parallel sweep.
 */
template <typename Body>
void
runMappedWalkRange(const std::vector<std::int64_t> &iterExt,
                   const std::vector<ExecPlan::Axis> &axes,
                   const std::vector<ExecPlan::Group> &groups,
                   const ExecPlan::Operand *const *ops,
                   std::size_t nops, int restrictAxis, std::int64_t lo,
                   std::int64_t hi, Body &&body)
{
    const std::size_t A = axes.size();
    const std::size_t K = groups.size();
    const std::size_t S = iterExt.size();
    require(nops <= kMaxWalkOperands && S <= kMaxWalkLevels,
            "runMappedWalkRange: nest too large (", nops,
            " operands, ", S, " iterators)");

    // Flattened coefficient tables: absent components read as zero.
    std::vector<std::int64_t> swc(nops * S, 0), swr(nops * S, 0);
    std::vector<std::int64_t> tst(nops * std::max<std::size_t>(K, 1),
                                  0);
    std::vector<std::int64_t> ost(nops * std::max<std::size_t>(A, 1),
                                  0);
    for (std::size_t m = 0; m < nops; ++m) {
        const ExecPlan::Operand &op = *ops[m];
        for (std::size_t s = 0; s < op.swCoeff.size(); ++s) {
            swc[m * S + s] = op.swCoeff[s];
            swr[m * S + s] = op.swRollback[s];
        }
        for (std::size_t k = 0; k < op.tStride.size(); ++k)
            tst[m * K + k] = op.tStride[k];
        for (std::size_t a = 0; a < op.outerStride.size(); ++a)
            ost[m * A + a] = op.outerStride[a];
    }

    std::vector<std::int64_t> aext(A, 1), oidx(A, 0), oval(A, 0);
    for (std::size_t a = 0; a < A; ++a) {
        aext[a] = static_cast<int>(a) == restrictAxis
                      ? hi - lo
                      : axes[a].extent;
        if (aext[a] <= 0)
            return;
        oval[a] = static_cast<int>(a) == restrictAxis ? lo : 0;
    }

    std::vector<std::int64_t> sw(S, 0), startSw(S, 0);
    std::vector<std::int64_t> t(K, 0), startFlat(K, 0), lim(K, 0);
    std::vector<std::int64_t> qv(K, 0);
    std::vector<std::int64_t> saved(std::max<std::size_t>(K, 1) *
                                    nops);
    std::int64_t addr[kMaxWalkOperands];

    auto runTile = [&]() {
        // Decode each group's tile-start digits; clamp the counter to
        // the valid limit (the interpreter skips the padding tail).
        for (std::size_t k = 0; k < K; ++k) {
            const ExecPlan::Group &g = groups[k];
            startFlat[k] = qv[k] * g.intrinsicExtent;
            lim[k] = std::min(g.intrinsicExtent,
                              g.fusedExtent - startFlat[k]);
            if (lim[k] <= 0)
                return; // tile is pure padding
            std::int64_t f = startFlat[k];
            for (std::size_t pos = g.members.size(); pos-- > 0;) {
                startSw[g.members[pos]] = f % g.extents[pos];
                f /= g.extents[pos];
            }
            t[k] = 0;
        }
        sw = startSw;
        for (std::size_t m = 0; m < nops; ++m) {
            std::int64_t a0 = ops[m]->base;
            for (std::size_t s = 0; s < S; ++s)
                a0 += swc[m * S + s] * sw[s];
            for (std::size_t a = 0; a < A; ++a)
                a0 += ost[m * A + a] * oval[a];
            addr[m] = a0;
        }
        for (std::size_t k = 0; k < K; ++k)
            for (std::size_t m = 0; m < nops; ++m)
                saved[k * nops + m] = addr[m];

        while (true) {
            body(addr);
            if (K == 0)
                return;
            std::size_t d = K;
            while (true) {
                --d;
                if (t[d] + 1 < lim[d]) {
                    ++t[d];
                    const ExecPlan::Group &g = groups[d];
                    for (std::size_t pos = g.members.size();
                         pos-- > 0;) {
                        std::size_t s = g.members[pos];
                        if (++sw[s] < g.extents[pos]) {
                            for (std::size_t m = 0; m < nops; ++m)
                                addr[m] += swc[m * S + s];
                            break;
                        }
                        sw[s] = 0;
                        for (std::size_t m = 0; m < nops; ++m)
                            addr[m] -= swr[m * S + s];
                    }
                    for (std::size_t m = 0; m < nops; ++m)
                        addr[m] += tst[m * K + d];
                    for (std::size_t j = d + 1; j < K; ++j)
                        for (std::size_t m = 0; m < nops; ++m)
                            saved[j * nops + m] = addr[m];
                    break;
                }
                // Carry: group d back to its tile-start digits.
                t[d] = 0;
                const ExecPlan::Group &g = groups[d];
                std::int64_t f = startFlat[d];
                for (std::size_t pos = g.members.size(); pos-- > 0;) {
                    sw[g.members[pos]] = f % g.extents[pos];
                    f /= g.extents[pos];
                }
                for (std::size_t m = 0; m < nops; ++m)
                    addr[m] = saved[d * nops + m];
                if (d == 0)
                    return;
            }
        }
    };

    auto applyAxes = [&]() {
        for (std::size_t a = 0; a < A; ++a) {
            if (axes[a].isQuotient)
                qv[axes[a].ref] = oval[a];
            else
                startSw[axes[a].ref] = oval[a];
        }
    };

    if (A == 0) {
        runTile();
        return;
    }
    while (true) {
        applyAxes();
        runTile();
        std::size_t d = A;
        while (true) {
            --d;
            if (++oidx[d] < aext[d]) {
                ++oval[d];
                break;
            }
            oidx[d] = 0;
            oval[d] = static_cast<int>(d) == restrictAxis ? lo : 0;
            if (d == 0)
                return;
        }
    }
}

/**
 * Parallel mapped sweep over `splitAxis` (already proven to touch
 * disjoint output elements per axis value): contiguous chunks, one
 * serial range walk per chunk. Bit-identical for any thread count.
 */
template <typename Body>
WalkRunStats
runMappedWalkParallel(const std::vector<std::int64_t> &iterExt,
                      const std::vector<ExecPlan::Axis> &axes,
                      const std::vector<ExecPlan::Group> &groups,
                      const ExecPlan::Operand *const *ops,
                      std::size_t nops, int splitAxis, int numThreads,
                      Body &&body)
{
    WalkRunStats stats;
    std::size_t threads = ThreadPool::resolveThreads(numThreads);
    if (threads <= 1 || splitAxis < 0) {
        runMappedWalkRange(iterExt, axes, groups, ops, nops, -1, 0, 0,
                           body);
        return stats;
    }
    std::int64_t extent =
        axes[static_cast<std::size_t>(splitAxis)].extent;
    std::size_t chunks = std::min<std::size_t>(
        threads, static_cast<std::size_t>(extent));
    stats.threadsUsed = static_cast<int>(chunks);
    stats.splitLevel = splitAxis;
    parallelFor(
        chunks,
        [&](std::size_t c) {
            std::int64_t lo = extent * static_cast<std::int64_t>(c) /
                              static_cast<std::int64_t>(chunks);
            std::int64_t hi =
                extent * static_cast<std::int64_t>(c + 1) /
                static_cast<std::int64_t>(chunks);
            runMappedWalkRange(iterExt, axes, groups, ops, nops,
                               splitAxis, lo, hi, body);
        },
        static_cast<int>(chunks));
    return stats;
}

/** Stage-B arithmetic on float staging streams. */
struct FloatStreamOps
{
    using Stream = float;
    static void
    mulAdd(Stream *d, std::int64_t di, const Stream *x,
           std::int64_t xi, const Stream *y, std::int64_t yi)
    {
        d[di] += x[xi] * y[yi];
    }
    static void
    add(Stream *d, std::int64_t di, const Stream *x, std::int64_t xi)
    {
        d[di] += x[xi];
    }
};

/**
 * Stage-B arithmetic on int32 staging streams: the IntDot discipline
 * (int64 intermediates, wrapping int32 accumulate — identical to
 * quant::intDotStep, so packed results match the direct path bit for
 * bit).
 */
struct IntStreamOps
{
    using Stream = std::int32_t;
    static void
    mulAdd(Stream *d, std::int64_t di, const Stream *x,
           std::int64_t xi, const Stream *y, std::int64_t yi)
    {
        d[di] = static_cast<Stream>(
            static_cast<std::int64_t>(d[di]) +
            static_cast<std::int64_t>(x[xi]) * y[yi]);
    }
    static void
    add(Stream *d, std::int64_t di, const Stream *x, std::int64_t xi)
    {
        d[di] = static_cast<Stream>(
            static_cast<std::int64_t>(d[di]) + x[xi]);
    }
};

/**
 * Typed packed pipeline: pack (typed, possibly widening, loads) into
 * StreamT staging buffers, affine compute on the streams, unpack
 * through the output accessor. StreamT is float for the float
 * disciplines (bf16 decodes on pack, exactly) and int32 for IntDot
 * (8-bit values widen on pack, so stage B is the exact dot).
 *
 * For SumReduce `l1` is unused; callers pass `l0` twice.
 */
template <typename Ops, typename L0, typename L1, typename OutAcc>
WalkRunStats
runPackedTyped(const ExecPlan &plan, const ExecOptions &opts, L0 l0,
               L1 l1, OutAcc outAcc)
{
    using StreamT = typename Ops::Stream;
    const std::size_t nin = plan.numInputs();
    std::vector<std::vector<StreamT>> packed;
    for (auto sz : plan.packedSizes())
        packed.emplace_back(static_cast<std::size_t>(sz), StreamT{});

    const auto &direct = plan.directOperands();
    const auto &pops = plan.packedOperands();

    // Stage A (serial): pack each input's valid software points into
    // its tile stream. Operand pairs: [source, packed destination].
    {
        const ExecPlan::Operand *ops[kMaxWalkOperands];
        StreamT *dst[kMaxWalkOperands / 2];
        for (std::size_t m = 0; m < nin; ++m) {
            ops[2 * m] = &direct[m];
            ops[2 * m + 1] = &pops[m];
            dst[m] = packed[m].data();
        }
        runMappedWalkRange(
            plan.iterExtents(), plan.axes(), plan.groups(), ops,
            2 * nin, -1, 0, 0, [&](const std::int64_t *a) {
                dst[0][a[1]] = static_cast<StreamT>(l0.load(a[0]));
                if (nin > 1)
                    dst[1][a[3]] =
                        static_cast<StreamT>(l1.load(a[2]));
            });
    }

    // Stage B (parallel): intrinsic calls purely on packed streams —
    // a plain affine walk over [outer axes][intrinsic counters].
    // Padding slots hold zeros, exactly like the interpreter's sweep.
    WalkRunStats stats;
    {
        const AccessWalkPlan &stageB = plan.stageB();
        const std::size_t splitLevels = static_cast<std::size_t>(
            plan.packedSplitLevel() < 0 ? 0
                                        : plan.packedSplitLevel() + 1);
        StreamT *pdst = packed.back().data();
        const StreamT *p0 = packed[0].data();
        switch (plan.combine()) {
          case CombineKind::MultiplyAdd: {
            const StreamT *p1 = packed[1].data();
            stats = runAccessWalkParallel(
                stageB, stageB.operands.size() - 1, splitLevels,
                opts.numThreads, [&](const std::int64_t *a) {
                    Ops::mulAdd(pdst, a[2], p0, a[0], p1, a[1]);
                });
            break;
          }
          case CombineKind::SumReduce:
            stats = runAccessWalkParallel(
                stageB, stageB.operands.size() - 1, splitLevels,
                opts.numThreads, [&](const std::int64_t *a) {
                    Ops::add(pdst, a[1], p0, a[0]);
                });
            break;
        }
    }

    // Stage C (serial): unpack the output stream back to the
    // software layout. Operands: [packed source, software output].
    {
        const ExecPlan::Operand *ops[2] = {&pops.back(),
                                           &direct.back()};
        const StreamT *psrc = packed.back().data();
        runMappedWalkRange(plan.iterExtents(), plan.axes(),
                           plan.groups(), ops, 2, -1, 0, 0,
                           [&](const std::int64_t *a) {
                               outAcc.store(a[1], psrc[a[0]]);
                           });
    }
    return stats;
}

} // namespace

ExecPlan::ExecPlan(const MappingPlan &plan)
{
    compile(plan);
}

void
ExecPlan::compile(const MappingPlan &plan)
{
    if (!plan.valid()) {
        _reason = "mapping plan failed validation";
        return;
    }
    const auto &comp = plan.computation();
    _semantics = quant::classifyComputation(comp);
    if (!_semantics.supported) {
        _reason = "unsupported dtype semantics: " + _semantics.reason;
        return;
    }
    _combine = comp.combine();
    _numInputs = comp.inputs().size();
    for (const auto &in : comp.inputs())
        _decls.push_back(in.decl);
    _decls.push_back(comp.output());
    for (const auto &decl : _decls)
        _operandDtypes.push_back(decl.dtype());
    for (const auto &iv : comp.iters())
        _iterExtents.push_back(iv.extent);
    if (_iterExtents.size() > kMaxWalkLevels ||
        _numInputs + 1 > kMaxWalkOperands ||
        2 * _numInputs > kMaxWalkOperands) {
        _reason = "loop nest exceeds the walk engine's limits";
        return;
    }

    for (const auto &axis : plan.outerAxes()) {
        Axis a;
        a.isQuotient =
            axis.kind == MappingPlan::OuterAxis::Kind::GroupQuotient;
        a.ref = axis.ref;
        a.extent = axis.extent;
        _axes.push_back(a);
    }
    for (const auto &g : plan.groups()) {
        Group group;
        group.members = g.members;
        for (auto s : g.members)
            group.extents.push_back(comp.iters()[s].extent);
        group.intrinsicExtent = g.intrinsicExtent;
        group.fusedExtent = g.fusedExtent;
        _groups.push_back(std::move(group));
    }

    if (!compileDirectOperands(plan))
        return;
    if (!compilePackedOperands(plan))
        return;
    _directSplit = computeDirectSplit();
    _packedSplit = pickSplitLevel(_stageB, _stageB.operands.size() - 1,
                                  _axes.size());
}

bool
ExecPlan::compileDirectOperands(const MappingPlan &plan)
{
    const auto &comp = plan.computation();
    const std::size_t S = _iterExtents.size();
    const std::size_t K = _groups.size();
    const std::size_t A = _axes.size();

    auto compileOne = [&](const TensorDecl &decl,
                          const std::vector<Expr> &indices,
                          std::int64_t bufSize) {
        auto analysis = analyzeFlatAccess(indices, decl.strides());
        if (!analysis.ok()) {
            _reason = decl.name() + ": " + analysis.reason;
            return false;
        }
        Operand op;
        op.base = analysis.form->constant();
        op.swCoeff.resize(S);
        op.swRollback.resize(S);
        op.minAddr = op.base;
        op.maxAddr = op.base;
        for (std::size_t s = 0; s < S; ++s) {
            std::int64_t c =
                analysis.form->coeffOf(comp.iters()[s].var.node());
            op.swCoeff[s] = c;
            op.swRollback[s] = c * (_iterExtents[s] - 1);
            if (op.swRollback[s] < 0)
                op.minAddr += op.swRollback[s];
            else
                op.maxAddr += op.swRollback[s];
        }
        op.tStride.assign(K, 0);
        op.outerStride.assign(A, 0);
        if (!addressBoxFits(op.minAddr, op.maxAddr, bufSize,
                            decl.name(), "declared size", &_reason))
            return false;
        _direct.push_back(std::move(op));
        return true;
    };

    for (const auto &in : comp.inputs())
        if (!compileOne(in.decl, in.indices, in.decl.numElements()))
            return false;
    return compileOne(comp.output(), comp.outputIndices(),
                      comp.output().numElements());
}

bool
ExecPlan::compilePackedOperands(const MappingPlan &plan)
{
    const auto &comp = plan.computation();
    const auto &intr = plan.intrinsic().compute;
    const std::size_t S = _iterExtents.size();
    const std::size_t K = _groups.size();
    const std::size_t A = _axes.size();

    // Software coordinates representing one outer-axis value, all
    // other axes at zero; quotient axes decode q * I into the group's
    // member digits.
    auto applyAxisValue = [&](std::vector<std::int64_t> &sw,
                              std::size_t a, std::int64_t v) {
        const Axis &ax = _axes[a];
        if (!ax.isQuotient) {
            sw[ax.ref] = v;
            return;
        }
        const Group &g = _groups[ax.ref];
        std::int64_t f = v * g.intrinsicExtent;
        for (std::size_t pos = g.members.size(); pos-- > 0;) {
            sw[g.members[pos]] = f % g.extents[pos];
            f /= g.extents[pos];
        }
    };
    VarBinding binding;
    auto evalAt = [&](const Expr &e,
                      const std::vector<std::int64_t> &sw) {
        for (std::size_t s = 0; s < S; ++s)
            binding[comp.iters()[s].var.node()] = sw[s];
        return evalExpr(e, binding);
    };

    for (const auto &op : plan.operands()) {
        Operand p;
        p.tStride.assign(K, 0);
        std::int64_t w = 1;
        for (auto it = op.intrinsicIters.rbegin();
             it != op.intrinsicIters.rend(); ++it) {
            p.tStride[*it] = w;
            w *= intr.iters()[*it].extent;
        }

        // Tile base addresses are linear over the outer axes by
        // construction; recover the per-axis strides by probing and
        // cross-check linearity at the all-max corner.
        std::vector<std::int64_t> sw0(S, 0);
        p.base = evalAt(op.baseAddress, sw0);
        p.outerStride.assign(A, 0);
        for (std::size_t a = 0; a < A; ++a) {
            if (_axes[a].extent < 2)
                continue;
            auto sw = sw0;
            applyAxisValue(sw, a, 1);
            p.outerStride[a] = evalAt(op.baseAddress, sw) - p.base;
        }
        auto corner = sw0;
        std::int64_t predicted = p.base;
        for (std::size_t a = 0; a < A; ++a) {
            if (_axes[a].extent < 2)
                continue;
            applyAxisValue(corner, a, _axes[a].extent - 1);
            predicted += p.outerStride[a] * (_axes[a].extent - 1);
        }
        if (evalAt(op.baseAddress, corner) != predicted) {
            _reason = "tile base address of " + op.name +
                      " is not linear over the outer axes";
            return false;
        }
        _packed.push_back(std::move(p));
        _packedSizes.push_back(op.numTiles * op.tileElems);
    }

    // Stage-B (compute) nest: outer axes then intrinsic counters,
    // purely affine over the packed streams.
    for (std::size_t a = 0; a < A; ++a)
        _stageB.extents.push_back(_axes[a].extent);
    for (std::size_t k = 0; k < K; ++k)
        _stageB.extents.push_back(_groups[k].intrinsicExtent);
    for (const auto &p : _packed) {
        WalkOperand wop;
        wop.base = p.base;
        wop.stride = p.outerStride;
        wop.stride.insert(wop.stride.end(), p.tStride.begin(),
                          p.tStride.end());
        _stageB.operands.push_back(std::move(wop));
    }
    _stageB.finalize();
    for (std::size_t m = 0; m < _packed.size(); ++m) {
        _packed[m].minAddr = _stageB.operands[m].minAddr;
        _packed[m].maxAddr = _stageB.operands[m].maxAddr;
        if (!addressBoxFits(_packed[m].minAddr, _packed[m].maxAddr,
                            _packedSizes[m],
                            "packed stream of " +
                                plan.operands()[m].name,
                            "packed size", &_reason))
            return false;
    }
    return true;
}

/**
 * Find an outer axis whose values write provably disjoint output
 * elements, so the direct sweep can split it across threads.
 *
 * For an unmapped axis the output address moves by coeff_s per step;
 * for a quotient axis it moves by alpha * I per step, provided the
 * member coefficients are proportional to the digit strides (the
 * address is then linear in the fused flat value, addr contribution
 * = alpha * flat). Either way, consecutive axis values stay disjoint
 * iff the per-unit step |alpha| exceeds the combined span of every
 * iterator outside the axis.
 */
int
ExecPlan::computeDirectSplit() const
{
    const Operand &out = _direct.back();
    std::int64_t total = 0;
    for (std::size_t s = 0; s < _iterExtents.size(); ++s)
        total += std::abs(out.swCoeff[s]) * (_iterExtents[s] - 1);

    for (std::size_t a = 0; a < _axes.size(); ++a) {
        const Axis &ax = _axes[a];
        if (ax.extent < 2)
            continue;
        std::int64_t alpha = 0;
        std::int64_t spanM = 0;
        if (!ax.isQuotient) {
            alpha = out.swCoeff[ax.ref];
            spanM = std::abs(alpha) * (_iterExtents[ax.ref] - 1);
        } else {
            const Group &g = _groups[ax.ref];
            if (g.members.empty())
                continue;
            // Digit stride of member pos in the fused flat value.
            std::vector<std::int64_t> dstr(g.members.size(), 1);
            for (std::size_t pos = g.members.size(); pos-- > 1;)
                dstr[pos - 1] = dstr[pos] * g.extents[pos];
            alpha = out.swCoeff[g.members.back()];
            bool linear = true;
            for (std::size_t pos = 0; pos < g.members.size(); ++pos) {
                if (out.swCoeff[g.members[pos]] !=
                    alpha * dstr[pos]) {
                    linear = false;
                    break;
                }
                spanM += std::abs(out.swCoeff[g.members[pos]]) *
                         (g.extents[pos] - 1);
            }
            if (!linear)
                continue;
        }
        if (alpha != 0 && std::abs(alpha) > total - spanM)
            return static_cast<int>(a);
    }
    return -1;
}

bool
ExecPlan::buffersMatch(const std::vector<const Buffer *> &inputs,
                       const Buffer &output, std::string *why) const
{
    return buffersMatchDecls(_decls, inputs, output, why);
}

WalkRunStats
ExecPlan::runDirect(const std::vector<const Buffer *> &inputs,
                    Buffer &output, const ExecOptions &opts) const
{
    require(compiled(), "ExecPlan::runDirect on an uncompiled plan: ",
            _reason);
    std::string why;
    require(buffersMatch(inputs, output, &why),
            "ExecPlan::runDirect: ", why);

    const Operand *ops[kMaxWalkOperands];
    for (std::size_t m = 0; m < _numInputs; ++m)
        ops[m] = &_direct[m];
    ops[_numInputs] = &_direct.back();

    // The walk generates addresses; loaders/accumulator carry the
    // numeric discipline (float MAC, exact int32 dot, bf16 widening).
    WalkRunStats stats;
    switch (_combine) {
      case CombineKind::MultiplyAdd:
        quant::dispatchMulAdd(
            _semantics, *inputs[0], *inputs[1], output,
            [&](auto l0, auto l1, auto acc) {
                stats = runMappedWalkParallel(
                    _iterExtents, _axes, _groups, ops, _numInputs + 1,
                    _directSplit, opts.numThreads,
                    [&](const std::int64_t *a) {
                        acc.add(a[2], l0.load(a[0]) * l1.load(a[1]));
                    });
            });
        break;
      case CombineKind::SumReduce:
        quant::dispatchSum(
            _semantics, *inputs[0], output, [&](auto l0, auto acc) {
                stats = runMappedWalkParallel(
                    _iterExtents, _axes, _groups, ops, _numInputs + 1,
                    _directSplit, opts.numThreads,
                    [&](const std::int64_t *a) {
                        acc.add(a[1], l0.load(a[0]));
                    });
            });
        break;
    }
    return stats;
}

WalkRunStats
ExecPlan::runPacked(const std::vector<const Buffer *> &inputs,
                    Buffer &output, const ExecOptions &opts) const
{
    require(compiled(), "ExecPlan::runPacked on an uncompiled plan: ",
            _reason);
    std::string why;
    require(buffersMatch(inputs, output, &why),
            "ExecPlan::runPacked: ", why);

    const bool mulAdd = _combine == CombineKind::MultiplyAdd;
    switch (_semantics.kind) {
      case quant::KernelSemantics::F32: {
        quant::FloatLoader l0{inputs[0]->data()};
        quant::FloatLoader l1{mulAdd ? inputs[1]->data()
                                     : inputs[0]->data()};
        return runPackedTyped<FloatStreamOps>(
            *this, opts, l0, l1, quant::FloatAccum{output.data()});
      }
      case quant::KernelSemantics::Bf16: {
        quant::Bf16Loader l0{inputs[0]->bf16Data()};
        quant::Bf16Loader l1{mulAdd ? inputs[1]->bf16Data()
                                    : inputs[0]->bf16Data()};
        return runPackedTyped<FloatStreamOps>(
            *this, opts, l0, l1, quant::FloatAccum{output.data()});
      }
      case quant::KernelSemantics::IntDot: {
        WalkRunStats stats;
        quant::I32Accum acc{output.i32Data()};
        quant::withInt8Loader(*inputs[0], [&](auto l0) {
            if (mulAdd)
                quant::withInt8Loader(*inputs[1], [&](auto l1) {
                    stats = runPackedTyped<IntStreamOps>(*this, opts,
                                                         l0, l1, acc);
                });
            else
                stats = runPackedTyped<IntStreamOps>(*this, opts, l0,
                                                     l0, acc);
        });
        return stats;
      }
    }
    return WalkRunStats{};
}

} // namespace amos

#include "access_walk.hh"

#include <algorithm>
#include <cmath>

#include "ir/affine.hh"
#include "support/metrics.hh"
#include "support/trace.hh"

namespace amos {

const char *
execEngineName(ExecEngine engine)
{
    switch (engine) {
      case ExecEngine::Interpreter: return "interpreter";
      case ExecEngine::Walk: return "walk";
      case ExecEngine::Jit: return "jit";
    }
    return "walk";
}

std::optional<ExecEngine>
parseExecEngine(const std::string &name)
{
    if (name == "interpreter")
        return ExecEngine::Interpreter;
    if (name == "walk")
        return ExecEngine::Walk;
    if (name == "jit")
        return ExecEngine::Jit;
    return std::nullopt;
}

void
noteWalkRun(TraceSpan &span, const WalkRunStats &stats,
            int requestedThreads)
{
    auto &metrics = MetricsRegistry::global();
    metrics.counter("exec.compiled_runs").add();
    span.arg("engine", "compiled");
    span.arg("threads", static_cast<std::int64_t>(stats.threadsUsed));
    if (stats.threadsUsed > 1)
        metrics.counter("exec.parallel_runs").add();
    else if (ThreadPool::resolveThreads(requestedThreads) > 1)
        metrics.counter("exec.parallel_unsplittable").add();
}

void
AccessWalkPlan::finalize()
{
    for (auto &op : operands) {
        require(op.stride.size() == extents.size(),
                "AccessWalkPlan: operand has ", op.stride.size(),
                " strides for ", extents.size(), " levels");
        op.rollback.resize(op.stride.size());
        op.minAddr = op.base;
        op.maxAddr = op.base;
        for (std::size_t l = 0; l < extents.size(); ++l) {
            std::int64_t span = op.stride[l] * (extents[l] - 1);
            op.rollback[l] = span;
            if (span < 0)
                op.minAddr += span;
            else
                op.maxAddr += span;
        }
    }
}

std::int64_t
AccessWalkPlan::totalSteps() const
{
    std::int64_t n = 1;
    for (auto e : extents)
        n *= e;
    return n;
}

std::optional<AccessWalkPlan>
compileReferenceWalk(const TensorComputation &comp,
                     std::string *reason)
{
    AccessWalkPlan plan;
    const auto &iters = comp.iters();
    for (const auto &iv : iters)
        plan.extents.push_back(iv.extent);

    std::vector<const TensorDecl *> decls;
    auto compileOperand = [&](const TensorDecl &decl,
                              const std::vector<Expr> &indices) {
        auto analysis = analyzeFlatAccess(indices, decl.strides());
        if (!analysis.ok()) {
            if (reason)
                *reason = decl.name() + ": " + analysis.reason;
            return false;
        }
        WalkOperand op;
        op.base = analysis.form->constant();
        for (const auto &iv : iters)
            op.stride.push_back(
                analysis.form->coeffOf(iv.var.node()));
        plan.operands.push_back(std::move(op));
        decls.push_back(&decl);
        return true;
    };

    for (const auto &in : comp.inputs())
        if (!compileOperand(in.decl, in.indices))
            return std::nullopt;
    if (!compileOperand(comp.output(), comp.outputIndices()))
        return std::nullopt;
    plan.finalize();

    std::string why;
    for (std::size_t m = 0; m < decls.size(); ++m) {
        const auto &op = plan.operands[m];
        if (!addressBoxFits(op.minAddr, op.maxAddr,
                            decls[m]->numElements(), decls[m]->name(),
                            "declared size", &why)) {
            if (reason)
                *reason = why;
            return std::nullopt;
        }
    }
    return plan;
}

bool
addressBoxFits(std::int64_t minAddr, std::int64_t maxAddr,
               std::int64_t size, const std::string &what,
               const char *sizeName, std::string *reason)
{
    if (minAddr >= 0 && maxAddr < size)
        return true;
    *reason = what + ": address box [" + std::to_string(minAddr) +
              ", " + std::to_string(maxAddr) + "] exceeds " +
              sizeName + " " + std::to_string(size);
    return false;
}

bool
buffersMatchDecls(const std::vector<TensorDecl> &decls,
                  const std::vector<const Buffer *> &inputs,
                  const Buffer &output, std::string *why)
{
    auto mismatch = [&](const std::string &msg) {
        if (why)
            *why = msg;
        return false;
    };
    if (inputs.size() + 1 != decls.size())
        return mismatch("input count mismatch");
    for (std::size_t m = 0; m < decls.size(); ++m) {
        const bool isInput = m < inputs.size();
        const Buffer &buf = isInput ? *inputs[m] : output;
        auto name = [&] {
            return isInput ? "input " + std::to_string(m)
                           : std::string("output");
        };
        if (buf.decl().shape() != decls[m].shape())
            return mismatch(name() +
                            " shape differs from the declared shape");
        if (buf.storage() != dtypeStorageLane(decls[m].dtype()))
            return mismatch(
                name() +
                " storage lane differs from the declared dtype");
    }
    return true;
}

int
pickSplitLevel(const AccessWalkPlan &plan, std::size_t operand,
               std::size_t levelLimit)
{
    require(operand < plan.operands.size(),
            "pickSplitLevel: operand out of range");
    const auto &op = plan.operands[operand];
    std::int64_t total_span = 0;
    for (std::size_t l = 0; l < plan.extents.size(); ++l)
        total_span +=
            std::abs(op.stride[l]) * (plan.extents[l] - 1);
    std::size_t limit =
        std::min(levelLimit, plan.extents.size());
    for (std::size_t l = 0; l < limit; ++l) {
        if (plan.extents[l] < 2 || op.stride[l] == 0)
            continue;
        std::int64_t step = std::abs(op.stride[l]);
        std::int64_t others =
            total_span - step * (plan.extents[l] - 1);
        if (step > others)
            return static_cast<int>(l);
    }
    return -1;
}

} // namespace amos

#include "affine.hh"

#include <algorithm>

#include "support/logging.hh"

namespace amos {

void
AffineForm::addTerm(const VarNode *var, std::int64_t coeff)
{
    if (coeff == 0)
        return;
    for (auto &term : _terms) {
        if (term.var == var) {
            term.coeff += coeff;
            if (term.coeff == 0) {
                _terms.erase(
                    std::remove_if(_terms.begin(), _terms.end(),
                                   [var](const AffineTerm &t) {
                                       return t.var == var;
                                   }),
                    _terms.end());
            }
            return;
        }
    }
    _terms.push_back({var, coeff});
}

void
AffineForm::scale(std::int64_t factor)
{
    if (factor == 0) {
        _terms.clear();
        _constant = 0;
        return;
    }
    for (auto &term : _terms)
        term.coeff *= factor;
    _constant *= factor;
}

void
AffineForm::accumulate(const AffineForm &other)
{
    for (const auto &term : other._terms)
        addTerm(term.var, term.coeff);
    _constant += other._constant;
}

std::int64_t
AffineForm::coeffOf(const VarNode *var) const
{
    for (const auto &term : _terms)
        if (term.var == var)
            return term.coeff;
    return 0;
}

std::string
AffineForm::toString() const
{
    std::string out;
    bool first = true;
    for (const auto &term : _terms) {
        if (!first)
            out += " + ";
        first = false;
        if (term.coeff == 1)
            out += term.var->name;
        else
            out += std::to_string(term.coeff) + "*" + term.var->name;
    }
    if (_constant != 0 || first) {
        if (!first)
            out += " + ";
        out += std::to_string(_constant);
    }
    return out;
}

namespace {

AffineAnalysis
affineRec(const Expr &expr)
{
    const ExprNode *node = expr.get();
    AffineAnalysis out;
    switch (node->kind()) {
      case ExprKind::IntImm:
        out.form =
            AffineForm(static_cast<const IntImmNode *>(node)->value);
        return out;
      case ExprKind::Var: {
        AffineForm form;
        form.addTerm(static_cast<const VarNode *>(node), 1);
        out.form = std::move(form);
        return out;
      }
      case ExprKind::Add:
      case ExprKind::Sub: {
        auto *bin = static_cast<const BinaryNode *>(node);
        auto a = affineRec(bin->a);
        if (!a.ok())
            return a;
        auto b = affineRec(bin->b);
        if (!b.ok())
            return b;
        if (node->kind() == ExprKind::Sub)
            b.form->scale(-1);
        a.form->accumulate(*b.form);
        return a;
      }
      case ExprKind::Mul: {
        auto *bin = static_cast<const BinaryNode *>(node);
        auto a = affineRec(bin->a);
        if (!a.ok())
            return a;
        auto b = affineRec(bin->b);
        if (!b.ok())
            return b;
        if (b.form->terms().empty()) {
            a.form->scale(b.form->constant());
            return a;
        }
        if (a.form->terms().empty()) {
            b.form->scale(a.form->constant());
            return b;
        }
        out.reason = "variable-by-variable product " +
                     exprToString(expr);
        return out;
      }
      default:
        out.reason = std::string(exprKindName(node->kind())) +
                     " node " + exprToString(expr) +
                     " is not affine";
        return out;
    }
}

} // namespace

std::optional<AffineForm>
tryToAffine(const Expr &expr)
{
    require(expr.defined(), "tryToAffine on undefined expression");
    return affineRec(expr).form;
}

AffineAnalysis
analyzeAffine(const Expr &expr)
{
    require(expr.defined(), "analyzeAffine on undefined expression");
    return affineRec(expr);
}

AffineAnalysis
analyzeFlatAccess(const std::vector<Expr> &indices,
                  const std::vector<std::int64_t> &strides)
{
    require(indices.size() == strides.size(),
            "analyzeFlatAccess: ", indices.size(), " indices vs ",
            strides.size(), " strides");
    AffineAnalysis out;
    AffineForm flat;
    for (std::size_t d = 0; d < indices.size(); ++d) {
        auto dim = analyzeAffine(indices[d]);
        if (!dim.ok()) {
            out.reason = "index dim " + std::to_string(d) + ": " +
                         dim.reason;
            return out;
        }
        dim.form->scale(strides[d]);
        flat.accumulate(*dim.form);
    }
    out.form = std::move(flat);
    return out;
}

} // namespace amos

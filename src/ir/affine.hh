/**
 * @file
 * Affine-form analysis of index expressions.
 *
 * The mapping machinery needs to know, for each tensor access index,
 * which loop iterators participate and with what coefficients. An
 * AffineForm is the canonical representation
 *     sum_i coeff_i * var_i + constant
 * and tryToAffine() attempts to put an Expr into that form. Physical
 * mapping expressions containing floordiv/floormod are intentionally
 * not affine and fail the conversion.
 */

#ifndef AMOS_IR_AFFINE_HH
#define AMOS_IR_AFFINE_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "ir/expr.hh"

namespace amos {

/** One linear term: coefficient times a variable. */
struct AffineTerm
{
    const VarNode *var = nullptr;
    std::int64_t coeff = 0;
};

/** Canonical affine form: sum of terms plus a constant. */
class AffineForm
{
  public:
    AffineForm() = default;

    /** Construct a pure constant. */
    explicit AffineForm(std::int64_t constant) : _constant(constant) {}

    /** Add coeff * var to the form, merging duplicate variables. */
    void addTerm(const VarNode *var, std::int64_t coeff);

    void addConstant(std::int64_t c) { _constant += c; }

    /** Multiply the whole form by a scalar. */
    void scale(std::int64_t factor);

    /** Add another form into this one. */
    void accumulate(const AffineForm &other);

    const std::vector<AffineTerm> &terms() const { return _terms; }
    std::int64_t constant() const { return _constant; }

    /** Coefficient of a variable (0 if absent). */
    std::int64_t coeffOf(const VarNode *var) const;

    /** True iff the variable appears with nonzero coefficient. */
    bool uses(const VarNode *var) const { return coeffOf(var) != 0; }

    std::string toString() const;

  private:
    std::vector<AffineTerm> _terms;
    std::int64_t _constant = 0;
};

/**
 * Try to express an index expression in affine form.
 *
 * Handles +, -, * (with at least one side constant-foldable), and
 * literals/variables. Returns nullopt for floordiv/floormod/min/max
 * or variable-by-variable products.
 */
std::optional<AffineForm> tryToAffine(const Expr &expr);

/**
 * Affine analysis with a diagnosis: either the form, or the reason
 * the expression is not affine (which sub-expression broke it and
 * why). The execution-plan compiler logs the reason when it falls
 * back to the interpreter.
 */
struct AffineAnalysis
{
    std::optional<AffineForm> form;
    /// Human-readable failure reason; empty iff form has a value.
    std::string reason;

    bool ok() const { return form.has_value(); }
};

/** Like tryToAffine, but reports why the conversion failed. */
AffineAnalysis analyzeAffine(const Expr &expr);

/**
 * Fold a multi-dimensional access into one affine form over the flat
 * (row-major) address: sum_d strides[d] * indices[d]. Fails — with a
 * reason naming the offending dimension — if any index expression is
 * non-affine. This is the "base + sum stride_i * iter_i" form the
 * stride-walk execution engine is compiled from.
 */
AffineAnalysis analyzeFlatAccess(const std::vector<Expr> &indices,
                                 const std::vector<std::int64_t> &strides);

} // namespace amos

#endif // AMOS_IR_AFFINE_HH

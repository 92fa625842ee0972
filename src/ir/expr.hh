/**
 * @file
 * Tensor-expression IR.
 *
 * A minimal index-expression language standing in for the TVM
 * expression IR that the original AMOS is built on. Index expressions
 * describe how loop iterators address tensors (e.g. p + r, or
 * p * stride + r * dilation) and, after physical mapping, carry the
 * floordiv/floormod arithmetic that locates intrinsic sub-tiles.
 *
 * Nodes are immutable and shared; Expr is a value-semantic handle.
 */

#ifndef AMOS_IR_EXPR_HH
#define AMOS_IR_EXPR_HH

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

namespace amos {

class ExprNode;

/** Value-semantic handle to an immutable expression node. */
class Expr
{
  public:
    Expr() = default;

    explicit Expr(std::shared_ptr<const ExprNode> node)
        : _node(std::move(node))
    {}

    /** Implicit conversion from integer literals. */
    Expr(std::int64_t value);
    Expr(int value) : Expr(static_cast<std::int64_t>(value)) {}

    bool defined() const { return _node != nullptr; }

    const ExprNode *get() const { return _node.get(); }

    const ExprNode *operator->() const { return _node.get(); }

    /** Structural identity (same node object). */
    bool sameAs(const Expr &other) const
    {
        return _node.get() == other._node.get();
    }

  private:
    std::shared_ptr<const ExprNode> _node;
};

/** Discriminator for ExprNode subclasses. */
enum class ExprKind
{
    IntImm,
    Var,
    Add,
    Sub,
    Mul,
    FloorDiv,
    FloorMod,
    Min,
    Max,
};

/** Printable name of an expression kind (for diagnostics). */
const char *exprKindName(ExprKind kind);

/** Base class of all expression nodes. */
class ExprNode
{
  public:
    explicit ExprNode(ExprKind kind) : _kind(kind) {}
    virtual ~ExprNode() = default;

    ExprKind kind() const { return _kind; }

  private:
    ExprKind _kind;
};

/** Integer literal. */
class IntImmNode : public ExprNode
{
  public:
    explicit IntImmNode(std::int64_t value)
        : ExprNode(ExprKind::IntImm), value(value)
    {}

    const std::int64_t value;
};

/**
 * Named loop iterator / free variable.
 *
 * Identity is the node object itself: two VarNodes with the same name
 * are distinct variables. Each VarNode receives a process-unique id
 * for stable printing.
 */
class VarNode : public ExprNode
{
  public:
    explicit VarNode(std::string name);

    const std::string name;
    const std::uint64_t id;
};

/** Handle to a variable; constructible by name. */
class Var : public Expr
{
  public:
    explicit Var(const std::string &name)
        : Expr(std::make_shared<VarNode>(name))
    {}

    explicit Var(std::shared_ptr<const VarNode> node)
        : Expr(std::move(node))
    {}

    const VarNode *node() const
    {
        return static_cast<const VarNode *>(get());
    }
};

/** Binary operation node; kind() selects the operator. */
class BinaryNode : public ExprNode
{
  public:
    BinaryNode(ExprKind kind, Expr a, Expr b);

    const Expr a;
    const Expr b;
};

/// @name Expression builders.
/// Builders constant-fold literal operands and apply simple algebraic
/// identities (x+0, x*1, x*0) so printed mappings stay readable.
/// @{
Expr operator+(Expr a, Expr b);
Expr operator-(Expr a, Expr b);
Expr operator*(Expr a, Expr b);
Expr floorDiv(Expr a, Expr b);
Expr floorMod(Expr a, Expr b);
Expr min(Expr a, Expr b);
Expr max(Expr a, Expr b);
/// @}

/** Variable binding environment for evaluation. */
using VarBinding = std::unordered_map<const VarNode *, std::int64_t>;

/**
 * Evaluate an expression under a binding of every referenced
 * variable. Raises panic() if a variable is unbound.
 */
std::int64_t evalExpr(const Expr &expr, const VarBinding &binding);

/** Collect the distinct variables referenced by an expression. */
std::vector<const VarNode *> collectVars(const Expr &expr);

/** True iff the expression references the given variable. */
bool usesVar(const Expr &expr, const VarNode *var);

/** Substitute variables by replacement expressions. */
Expr substitute(const Expr &expr,
                const std::unordered_map<const VarNode *, Expr> &map);

/** Render an expression as a human-readable string. */
std::string exprToString(const Expr &expr);

} // namespace amos

#endif // AMOS_IR_EXPR_HH

#include "expr.hh"

#include <atomic>
#include <functional>

#include "support/logging.hh"
#include "support/math_utils.hh"

namespace amos {

namespace {

std::atomic<std::uint64_t> next_var_id{1};

/** Floor division matching Python semantics (rounds toward -inf). */
std::int64_t
floorDivInt(std::int64_t a, std::int64_t b)
{
    require(b != 0, "floorDiv by zero");
    std::int64_t q = a / b;
    if ((a % b != 0) && ((a < 0) != (b < 0)))
        --q;
    return q;
}

std::int64_t
floorModInt(std::int64_t a, std::int64_t b)
{
    return a - floorDivInt(a, b) * b;
}

const IntImmNode *
asIntImm(const Expr &e)
{
    if (e.defined() && e->kind() == ExprKind::IntImm)
        return static_cast<const IntImmNode *>(e.get());
    return nullptr;
}

Expr
makeBinary(ExprKind kind, Expr a, Expr b)
{
    return Expr(std::make_shared<BinaryNode>(kind, std::move(a),
                                             std::move(b)));
}

} // namespace

const char *
exprKindName(ExprKind kind)
{
    switch (kind) {
      case ExprKind::IntImm: return "IntImm";
      case ExprKind::Var: return "Var";
      case ExprKind::Add: return "Add";
      case ExprKind::Sub: return "Sub";
      case ExprKind::Mul: return "Mul";
      case ExprKind::FloorDiv: return "FloorDiv";
      case ExprKind::FloorMod: return "FloorMod";
      case ExprKind::Min: return "Min";
      case ExprKind::Max: return "Max";
    }
    return "Unknown";
}

Expr::Expr(std::int64_t value)
    : _node(std::make_shared<IntImmNode>(value))
{
}

VarNode::VarNode(std::string name)
    : ExprNode(ExprKind::Var), name(std::move(name)),
      id(next_var_id.fetch_add(1))
{
}

BinaryNode::BinaryNode(ExprKind kind, Expr a, Expr b)
    : ExprNode(kind), a(std::move(a)), b(std::move(b))
{
    require(this->a.defined() && this->b.defined(),
            "BinaryNode with undefined operand");
}

Expr
operator+(Expr a, Expr b)
{
    auto *ia = asIntImm(a);
    auto *ib = asIntImm(b);
    if (ia && ib)
        return Expr(ia->value + ib->value);
    if (ia && ia->value == 0)
        return b;
    if (ib && ib->value == 0)
        return a;
    return makeBinary(ExprKind::Add, std::move(a), std::move(b));
}

Expr
operator-(Expr a, Expr b)
{
    auto *ia = asIntImm(a);
    auto *ib = asIntImm(b);
    if (ia && ib)
        return Expr(ia->value - ib->value);
    if (ib && ib->value == 0)
        return a;
    return makeBinary(ExprKind::Sub, std::move(a), std::move(b));
}

Expr
operator*(Expr a, Expr b)
{
    auto *ia = asIntImm(a);
    auto *ib = asIntImm(b);
    if (ia && ib)
        return Expr(ia->value * ib->value);
    if ((ia && ia->value == 0) || (ib && ib->value == 0))
        return Expr(std::int64_t{0});
    if (ia && ia->value == 1)
        return b;
    if (ib && ib->value == 1)
        return a;
    return makeBinary(ExprKind::Mul, std::move(a), std::move(b));
}

Expr
floorDiv(Expr a, Expr b)
{
    auto *ia = asIntImm(a);
    auto *ib = asIntImm(b);
    if (ia && ib)
        return Expr(floorDivInt(ia->value, ib->value));
    if (ib && ib->value == 1)
        return a;
    return makeBinary(ExprKind::FloorDiv, std::move(a), std::move(b));
}

Expr
floorMod(Expr a, Expr b)
{
    auto *ia = asIntImm(a);
    auto *ib = asIntImm(b);
    if (ia && ib)
        return Expr(floorModInt(ia->value, ib->value));
    if (ib && ib->value == 1)
        return Expr(std::int64_t{0});
    return makeBinary(ExprKind::FloorMod, std::move(a), std::move(b));
}

Expr
min(Expr a, Expr b)
{
    auto *ia = asIntImm(a);
    auto *ib = asIntImm(b);
    if (ia && ib)
        return Expr(std::min(ia->value, ib->value));
    return makeBinary(ExprKind::Min, std::move(a), std::move(b));
}

Expr
max(Expr a, Expr b)
{
    auto *ia = asIntImm(a);
    auto *ib = asIntImm(b);
    if (ia && ib)
        return Expr(std::max(ia->value, ib->value));
    return makeBinary(ExprKind::Max, std::move(a), std::move(b));
}

std::int64_t
evalExpr(const Expr &expr, const VarBinding &binding)
{
    require(expr.defined(), "evalExpr on undefined expression");
    const ExprNode *node = expr.get();
    switch (node->kind()) {
      case ExprKind::IntImm:
        return static_cast<const IntImmNode *>(node)->value;
      case ExprKind::Var: {
        auto *var = static_cast<const VarNode *>(node);
        auto it = binding.find(var);
        require(it != binding.end(), "evalExpr: unbound variable ",
                var->name);
        return it->second;
      }
      default: {
        auto *bin = static_cast<const BinaryNode *>(node);
        std::int64_t a = evalExpr(bin->a, binding);
        std::int64_t b = evalExpr(bin->b, binding);
        switch (node->kind()) {
          case ExprKind::Add: return a + b;
          case ExprKind::Sub: return a - b;
          case ExprKind::Mul: return a * b;
          case ExprKind::FloorDiv: return floorDivInt(a, b);
          case ExprKind::FloorMod: return floorModInt(a, b);
          case ExprKind::Min: return std::min(a, b);
          case ExprKind::Max: return std::max(a, b);
          default:
            panic("evalExpr: unhandled kind ",
                  exprKindName(node->kind()));
        }
      }
    }
}

namespace {

void
collectVarsRec(const Expr &expr, std::vector<const VarNode *> &out)
{
    const ExprNode *node = expr.get();
    switch (node->kind()) {
      case ExprKind::IntImm:
        return;
      case ExprKind::Var: {
        auto *var = static_cast<const VarNode *>(node);
        for (auto *v : out)
            if (v == var)
                return;
        out.push_back(var);
        return;
      }
      default: {
        auto *bin = static_cast<const BinaryNode *>(node);
        collectVarsRec(bin->a, out);
        collectVarsRec(bin->b, out);
      }
    }
}

} // namespace

std::vector<const VarNode *>
collectVars(const Expr &expr)
{
    std::vector<const VarNode *> out;
    if (expr.defined())
        collectVarsRec(expr, out);
    return out;
}

bool
usesVar(const Expr &expr, const VarNode *var)
{
    for (auto *v : collectVars(expr))
        if (v == var)
            return true;
    return false;
}

Expr
substitute(const Expr &expr,
           const std::unordered_map<const VarNode *, Expr> &map)
{
    require(expr.defined(), "substitute on undefined expression");
    const ExprNode *node = expr.get();
    switch (node->kind()) {
      case ExprKind::IntImm:
        return expr;
      case ExprKind::Var: {
        auto *var = static_cast<const VarNode *>(node);
        auto it = map.find(var);
        return it == map.end() ? expr : it->second;
      }
      default: {
        auto *bin = static_cast<const BinaryNode *>(node);
        Expr a = substitute(bin->a, map);
        Expr b = substitute(bin->b, map);
        if (a.sameAs(bin->a) && b.sameAs(bin->b))
            return expr;
        switch (node->kind()) {
          case ExprKind::Add: return a + b;
          case ExprKind::Sub: return a - b;
          case ExprKind::Mul: return a * b;
          case ExprKind::FloorDiv: return floorDiv(a, b);
          case ExprKind::FloorMod: return floorMod(a, b);
          case ExprKind::Min: return min(a, b);
          case ExprKind::Max: return max(a, b);
          default:
            panic("substitute: unhandled kind ",
                  exprKindName(node->kind()));
        }
      }
    }
}

std::string
exprToString(const Expr &expr)
{
    if (!expr.defined())
        return "<undef>";
    const ExprNode *node = expr.get();
    switch (node->kind()) {
      case ExprKind::IntImm:
        return std::to_string(
            static_cast<const IntImmNode *>(node)->value);
      case ExprKind::Var:
        return static_cast<const VarNode *>(node)->name;
      default: {
        auto *bin = static_cast<const BinaryNode *>(node);
        std::string a = exprToString(bin->a);
        std::string b = exprToString(bin->b);
        switch (node->kind()) {
          case ExprKind::Add: return "(" + a + " + " + b + ")";
          case ExprKind::Sub: return "(" + a + " - " + b + ")";
          case ExprKind::Mul: return "(" + a + " * " + b + ")";
          case ExprKind::FloorDiv: return "(" + a + " / " + b + ")";
          case ExprKind::FloorMod: return "(" + a + " % " + b + ")";
          case ExprKind::Min: return "min(" + a + ", " + b + ")";
          case ExprKind::Max: return "max(" + a + ", " + b + ")";
          default:
            panic("exprToString: unhandled kind ",
                  exprKindName(node->kind()));
        }
      }
    }
}

} // namespace amos

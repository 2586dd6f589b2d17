#include "query/query_expr.hpp"

#include <cctype>

#include "common/error.hpp"

namespace cube::query {

namespace {

bool is_bareword_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
         c == '.' || c == ':' || c == '+' || c == '-';
}

bool needs_quotes(const std::string& value) {
  if (value.empty()) return true;
  for (const char c : value) {
    if (!is_bareword_char(c)) return true;
  }
  return false;
}

std::string render_value(const std::string& value) {
  return needs_quotes(value) ? '"' + value + '"' : value;
}

}  // namespace

const char* op_name(QueryExpr::Op op) noexcept {
  switch (op) {
    case QueryExpr::Op::Diff: return "diff";
    case QueryExpr::Op::Merge: return "merge";
    case QueryExpr::Op::Mean: return "mean";
    case QueryExpr::Op::Min: return "min";
    case QueryExpr::Op::Max: return "max";
  }
  return "?";
}

QueryExpr::QueryExpr(Kind kind, Op op, std::string name,
                     std::vector<std::pair<std::string, std::string>> pairs,
                     std::vector<std::unique_ptr<QueryExpr>> args)
    : kind_(kind),
      op_(op),
      name_(std::move(name)),
      pairs_(std::move(pairs)),
      args_(std::move(args)) {}

std::unique_ptr<QueryExpr> QueryExpr::ref(std::string name) {
  return std::unique_ptr<QueryExpr>(
      new QueryExpr(Kind::Ref, Op::Mean, std::move(name), {}, {}));
}

std::unique_ptr<QueryExpr> QueryExpr::id(std::string id) {
  return std::unique_ptr<QueryExpr>(
      new QueryExpr(Kind::Id, Op::Mean, std::move(id), {}, {}));
}

std::unique_ptr<QueryExpr> QueryExpr::attr(
    std::vector<std::pair<std::string, std::string>> pairs) {
  return std::unique_ptr<QueryExpr>(
      new QueryExpr(Kind::Attr, Op::Mean, {}, std::move(pairs), {}));
}

std::unique_ptr<QueryExpr> QueryExpr::series(std::string prefix) {
  return std::unique_ptr<QueryExpr>(
      new QueryExpr(Kind::Series, Op::Mean, std::move(prefix), {}, {}));
}

std::unique_ptr<QueryExpr> QueryExpr::apply(
    Op op, std::vector<std::unique_ptr<QueryExpr>> args) {
  return std::unique_ptr<QueryExpr>(
      new QueryExpr(Kind::Apply, op, {}, {}, std::move(args)));
}

std::string QueryExpr::str() const {
  switch (kind_) {
    case Kind::Ref:
      return name_;
    case Kind::Id:
      return "id(" + render_value(name_) + ")";
    case Kind::Series:
      return "series(" + render_value(name_) + ")";
    case Kind::Attr: {
      std::string out = "attr(";
      for (std::size_t i = 0; i < pairs_.size(); ++i) {
        if (i > 0) out += ", ";
        out += pairs_[i].first + "=" + render_value(pairs_[i].second);
      }
      return out + ")";
    }
    case Kind::Apply: {
      std::string out = op_name(op_);
      out += '(';
      for (std::size_t i = 0; i < args_.size(); ++i) {
        if (i > 0) out += ", ";
        out += args_[i]->str();
      }
      return out + ")";
    }
  }
  return "?";
}

void check_arity(const QueryExpr& expr, std::size_t operands) {
  const bool binary =
      expr.op() == QueryExpr::Op::Diff || expr.op() == QueryExpr::Op::Merge;
  if (binary && operands != 2) {
    throw OperationError(std::string(op_name(expr.op())) +
                         " expects 2 operands, got " +
                         std::to_string(operands) + " in " + expr.str());
  }
  if (operands == 0) {
    throw OperationError(std::string(op_name(expr.op())) +
                         " expects >= 1 operand in " + expr.str());
  }
}

Experiment apply_query_op(QueryExpr::Op op,
                          std::span<const Experiment* const> operands,
                          const OperatorOptions& options) {
  switch (op) {
    case QueryExpr::Op::Diff:
      return difference(*operands[0], *operands[1], options);
    case QueryExpr::Op::Merge:
      return merge(*operands[0], *operands[1], options);
    case QueryExpr::Op::Mean:
      return mean(operands, options);
    case QueryExpr::Op::Min:
      return minimum(operands, options);
    case QueryExpr::Op::Max:
      return maximum(operands, options);
  }
  throw OperationError("unreachable query op");
}

namespace {

/// Recursive-descent parser for the grammar in query_expr.hpp.
class QueryParser {
 public:
  explicit QueryParser(std::string_view text) : text_(text) {}

  std::unique_ptr<QueryExpr> parse() {
    auto e = parse_node();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing input after expression");
    return e;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw Error("query parse error at offset " + std::to_string(pos_) +
                ": " + what);
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool is_ident_char(char c) const {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
           c == '.' || c == '-';
  }

  std::string parse_ident() {
    skip_ws();
    const std::size_t start = pos_;
    if (pos_ >= text_.size() ||
        !(std::isalpha(static_cast<unsigned char>(text_[pos_])) ||
          text_[pos_] == '_')) {
      fail("expected identifier");
    }
    while (pos_ < text_.size() && is_ident_char(text_[pos_])) ++pos_;
    return std::string(text_.substr(start, pos_ - start));
  }

  /// A selector value: quoted string or bareword (may start with a digit,
  /// e.g. attr(nodes=16)).
  std::string parse_value() {
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == '"') {
      const std::size_t start = ++pos_;
      while (pos_ < text_.size() && text_[pos_] != '"') ++pos_;
      if (pos_ >= text_.size()) fail("unterminated string");
      return std::string(text_.substr(start, pos_++ - start));
    }
    const std::size_t start = pos_;
    while (pos_ < text_.size() && is_bareword_char(text_[pos_])) ++pos_;
    if (pos_ == start) fail("expected value");
    return std::string(text_.substr(start, pos_ - start));
  }

  void expect(char c) {
    skip_ws();
    if (pos_ >= text_.size() || text_[pos_] != c) {
      fail(std::string("expected '") + c + "'");
    }
    ++pos_;
  }

  std::unique_ptr<QueryExpr> parse_selector(const std::string& which) {
    expect('(');
    if (which == "attr") {
      std::vector<std::pair<std::string, std::string>> pairs;
      while (true) {
        std::string key = parse_ident();
        expect('=');
        pairs.emplace_back(std::move(key), parse_value());
        skip_ws();
        if (pos_ < text_.size() && text_[pos_] == ',') {
          ++pos_;
          continue;
        }
        break;
      }
      expect(')');
      return QueryExpr::attr(std::move(pairs));
    }
    std::string value = parse_value();
    expect(')');
    return which == "id" ? QueryExpr::id(std::move(value))
                         : QueryExpr::series(std::move(value));
  }

  std::unique_ptr<QueryExpr> parse_node() {
    const std::string ident = parse_ident();
    skip_ws();
    if (pos_ >= text_.size() || text_[pos_] != '(') {
      return QueryExpr::ref(ident);
    }
    if (ident == "id" || ident == "attr" || ident == "series") {
      return parse_selector(ident);
    }
    QueryExpr::Op op;
    if (ident == "diff" || ident == "difference") {
      op = QueryExpr::Op::Diff;
    } else if (ident == "merge") {
      op = QueryExpr::Op::Merge;
    } else if (ident == "mean" || ident == "avg") {
      op = QueryExpr::Op::Mean;
    } else if (ident == "min") {
      op = QueryExpr::Op::Min;
    } else if (ident == "max") {
      op = QueryExpr::Op::Max;
    } else {
      fail("unknown operator '" + ident + "'");
    }
    ++pos_;  // consume '('
    std::vector<std::unique_ptr<QueryExpr>> args;
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == ')') {
      fail("operator '" + ident + "' requires arguments");
    }
    while (true) {
      args.push_back(parse_node());
      skip_ws();
      if (pos_ >= text_.size()) fail("unterminated argument list");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == ')') {
        ++pos_;
        break;
      }
      fail("expected ',' or ')'");
    }
    return QueryExpr::apply(op, std::move(args));
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

std::unique_ptr<QueryExpr> parse_query(std::string_view text) {
  return QueryParser(text).parse();
}

namespace {

[[noreturn]] void reject_selector(const QueryExpr& expr) {
  throw OperationError("selector " + expr.str() +
                       " requires a repository to resolve; evaluate it "
                       "with the query engine (cube_query --repo)");
}

const Experiment& lookup(const QueryExpr& ref, const ExperimentEnv& env) {
  const auto it = env.find(ref.name());
  if (it == env.end() || it->second == nullptr) {
    throw OperationError("unbound experiment name '" + ref.name() + "'");
  }
  return *it->second;
}

/// Evaluates an Apply node bottom-up; leaves are borrowed from `env`.
Experiment eval_apply(const QueryExpr& expr, const ExperimentEnv& env,
                      const OperatorOptions& options) {
  check_arity(expr, expr.args().size());
  std::vector<Experiment> computed;
  computed.reserve(expr.args().size());  // keeps operand pointers stable
  std::vector<const Experiment*> operands;
  for (const auto& arg : expr.args()) {
    if (arg->kind() == QueryExpr::Kind::Ref) {
      operands.push_back(&lookup(*arg, env));
    } else if (arg->kind() == QueryExpr::Kind::Apply) {
      computed.push_back(eval_apply(*arg, env, options));
      operands.push_back(&computed.back());
    } else {
      reject_selector(*arg);
    }
  }
  return apply_query_op(expr.op(), operands, options);
}

}  // namespace

Experiment eval_query_with_env(std::string_view text,
                               const ExperimentEnv& env,
                               const OperatorOptions& options) {
  const std::unique_ptr<QueryExpr> expr = parse_query(text);
  switch (expr->kind()) {
    case QueryExpr::Kind::Ref:
      return lookup(*expr, env).clone();
    case QueryExpr::Kind::Apply:
      return eval_apply(*expr, env, options);
    default:
      reject_selector(*expr);
  }
}

}  // namespace cube::query

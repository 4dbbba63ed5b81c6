#include "engine/sql_parser.h"

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <sstream>
#include <utility>
#include <vector>

#include "common/macros.h"
#include "common/number_text.h"

namespace vaolib::engine {

Status FunctionRegistry::Register(
    const vao::VariableAccuracyFunction* function) {
  if (function == nullptr) {
    return Status::InvalidArgument("cannot register a null function");
  }
  const auto [it, inserted] = functions_.emplace(function->name(), function);
  (void)it;
  if (!inserted) {
    return Status::AlreadyExists("function '" + function->name() +
                                 "' already registered");
  }
  return Status::OK();
}

Result<const vao::VariableAccuracyFunction*> FunctionRegistry::Lookup(
    const std::string& name) const {
  const auto it = functions_.find(name);
  if (it == functions_.end()) {
    return Status::NotFound("no function named '" + name + "'");
  }
  return it->second;
}

namespace {

// ---------------------------------------------------------------------------
// Tokenizer

enum class TokenKind {
  kIdent,    // model, bd, rate (also keywords; classified by spelling)
  kNumber,   // 100, 0.01, -3.5
  kStar,     // *
  kLParen,   // (
  kRParen,   // )
  kComma,    // ,
  kCompare,  // > >= < <=
  kEnd,
};

struct Token {
  TokenKind kind = TokenKind::kEnd;
  std::string text;
  double number = 0.0;
  std::size_t position = 0;  // byte offset, for error messages
};

Status SyntaxError(const std::string& message, std::size_t position) {
  return Status::InvalidArgument(message + " (at offset " +
                                 std::to_string(position) + ")");
}

// Renders the offending token for "expected X, got Y" messages.
std::string TokenDesc(const Token& token) {
  switch (token.kind) {
    case TokenKind::kEnd:
      return "end of input";
    case TokenKind::kLParen:
      return "'('";
    case TokenKind::kRParen:
      return "')'";
    case TokenKind::kComma:
      return "','";
    default:
      return "'" + token.text + "'";
  }
}

Result<std::vector<Token>> Tokenize(std::string_view sql) {
  std::vector<Token> tokens;
  std::size_t i = 0;
  const std::size_t n = sql.size();
  while (i < n) {
    const char c = sql[i];
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    Token token;
    token.position = i;
    if (c == '*') {
      token.kind = TokenKind::kStar;
      token.text = "*";
      ++i;
    } else if (c == '(') {
      token.kind = TokenKind::kLParen;
      ++i;
    } else if (c == ')') {
      token.kind = TokenKind::kRParen;
      ++i;
    } else if (c == ',') {
      token.kind = TokenKind::kComma;
      ++i;
    } else if (c == '>' || c == '<') {
      token.kind = TokenKind::kCompare;
      token.text = c;
      ++i;
      if (i < n && sql[i] == '=') {
        token.text += '=';
        ++i;
      }
    } else if (std::isdigit(static_cast<unsigned char>(c)) || c == '.' ||
               (c == '-' && i + 1 < n &&
                (std::isdigit(static_cast<unsigned char>(sql[i + 1])) ||
                 sql[i + 1] == '.'))) {
      std::size_t j = i + 1;
      while (j < n && (std::isdigit(static_cast<unsigned char>(sql[j])) ||
                       sql[j] == '.' || sql[j] == 'e' || sql[j] == 'E' ||
                       ((sql[j] == '+' || sql[j] == '-') &&
                        (sql[j - 1] == 'e' || sql[j - 1] == 'E')))) {
        ++j;
      }
      token.kind = TokenKind::kNumber;
      token.text = std::string(sql.substr(i, j - i));
      char* end = nullptr;
      token.number = std::strtod(token.text.c_str(), &end);
      if (end == nullptr || *end != '\0') {
        return SyntaxError("malformed number '" + token.text + "'", i);
      }
      i = j;
    } else if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      std::size_t j = i + 1;
      while (j < n && (std::isalnum(static_cast<unsigned char>(sql[j])) ||
                       sql[j] == '_')) {
        ++j;
      }
      token.kind = TokenKind::kIdent;
      token.text = std::string(sql.substr(i, j - i));
      i = j;
    } else {
      return SyntaxError(std::string("unexpected character '") + c + "'", i);
    }
    tokens.push_back(std::move(token));
  }
  Token end_token;
  end_token.kind = TokenKind::kEnd;
  end_token.position = n;
  tokens.push_back(end_token);
  return tokens;
}

std::string ToUpper(std::string s) {
  for (char& c : s) c = static_cast<char>(std::toupper(c));
  return s;
}

// ---------------------------------------------------------------------------
// Parser

class Parser {
 public:
  Parser(std::vector<Token> tokens, const FunctionRegistry& registry,
         const Schema& stream_schema, const Schema& relation_schema)
      : tokens_(std::move(tokens)),
        registry_(registry),
        stream_schema_(stream_schema),
        relation_schema_(relation_schema) {}

  Result<Query> Parse();

 private:
  const Token& Peek() const { return tokens_[cursor_]; }
  Token Take() { return tokens_[cursor_++]; }

  bool PeekKeyword(const char* keyword) const {
    return Peek().kind == TokenKind::kIdent &&
           ToUpper(Peek().text) == keyword;
  }
  Status ExpectKeyword(const char* keyword) {
    if (!PeekKeyword(keyword)) {
      return SyntaxError(std::string("expected ") + keyword + ", got " +
                             TokenDesc(Peek()),
                         Peek().position);
    }
    Take();
    return Status::OK();
  }
  Status Expect(TokenKind kind, const char* what) {
    if (Peek().kind != kind) {
      return SyntaxError(std::string("expected ") + what + ", got " +
                             TokenDesc(Peek()),
                         Peek().position);
    }
    Take();
    return Status::OK();
  }

  Result<double> TakeNumber(const char* what) {
    if (Peek().kind != TokenKind::kNumber) {
      return SyntaxError(std::string("expected ") + what + ", got " +
                             TokenDesc(Peek()),
                         Peek().position);
    }
    return Take().number;
  }

  /// Parses `ident '(' arg {',' arg} ')'`, resolving the function name and
  /// each argument, writing into the query.
  Status ParseCall(Query* query);

  /// Resolves a bare identifier as a stream field first, then a relation
  /// field.
  Result<ArgRef> ResolveIdent(const Token& token) const;

  /// Parses trailing `PRECISION <number>` if present.
  Status MaybeParsePrecision(Query* query);

  /// Parses trailing `APPROX [WITH CONFIDENCE <c>] [ERROR <r>] [SEED <n>]`
  /// if present (SUM/AVE/TOP-K only).
  Status MaybeParseApprox(Query* query);

  std::vector<Token> tokens_;
  std::size_t cursor_ = 0;
  const FunctionRegistry& registry_;
  const Schema& stream_schema_;
  const Schema& relation_schema_;
};

Result<ArgRef> Parser::ResolveIdent(const Token& token) const {
  if (stream_schema_.IndexOf(token.text).ok()) {
    return ArgRef::StreamField(token.text);
  }
  if (relation_schema_.IndexOf(token.text).ok()) {
    return ArgRef::RelationField(token.text);
  }
  return SyntaxError("unknown column '" + token.text + "'", token.position);
}

Status Parser::ParseCall(Query* query) {
  if (Peek().kind != TokenKind::kIdent) {
    return SyntaxError("expected function name", Peek().position);
  }
  const Token name = Take();
  // Resolve by hand instead of bubbling the registry's bare NotFound: the
  // wire error must point at the token inside the query text.
  const auto function = registry_.Lookup(name.text);
  if (!function.ok()) {
    return SyntaxError("unknown function '" + name.text + "'",
                       name.position);
  }
  query->function = *function;
  VAOLIB_RETURN_IF_ERROR(Expect(TokenKind::kLParen, "'('"));
  if (Peek().kind != TokenKind::kRParen) {
    while (true) {
      if (Peek().kind == TokenKind::kIdent) {
        VAOLIB_ASSIGN_OR_RETURN(const ArgRef ref, ResolveIdent(Take()));
        query->args.push_back(ref);
      } else if (Peek().kind == TokenKind::kNumber) {
        query->args.push_back(ArgRef::Constant(Take().number));
      } else {
        return SyntaxError("expected argument, got " + TokenDesc(Peek()),
                           Peek().position);
      }
      if (Peek().kind == TokenKind::kComma) {
        Take();
        continue;
      }
      break;
    }
  }
  VAOLIB_RETURN_IF_ERROR(Expect(TokenKind::kRParen, "')'"));
  if (static_cast<int>(query->args.size()) != query->function->arity()) {
    return SyntaxError("function '" + name.text + "' expects " +
                           std::to_string(query->function->arity()) +
                           " arguments, got " +
                           std::to_string(query->args.size()),
                       name.position);
  }
  return Status::OK();
}

Status Parser::MaybeParsePrecision(Query* query) {
  if (PeekKeyword("PRECISION")) {
    Take();
    const Token value = Peek();  // the number itself, not what follows it
    VAOLIB_ASSIGN_OR_RETURN(query->epsilon, TakeNumber("precision value"));
    if (!(query->epsilon > 0.0)) {
      return SyntaxError("precision must be > 0, got '" + value.text + "'",
                         value.position);
    }
  }
  return Status::OK();
}

Status Parser::MaybeParseApprox(Query* query) {
  if (!PeekKeyword("APPROX")) return Status::OK();
  const Token approx = Take();
  if (query->kind != QueryKind::kSum && query->kind != QueryKind::kAve &&
      query->kind != QueryKind::kTopK) {
    return SyntaxError("APPROX applies to SUM/AVE/TOP-K queries only",
                       approx.position);
  }
  ApproxSpec spec;
  if (PeekKeyword("WITH")) {
    Take();
    VAOLIB_RETURN_IF_ERROR(ExpectKeyword("CONFIDENCE"));
    const Token value = Peek();  // the number itself, not what follows it
    VAOLIB_ASSIGN_OR_RETURN(spec.confidence, TakeNumber("confidence value"));
    if (!(spec.confidence > 0.0) || !(spec.confidence < 1.0)) {
      return SyntaxError("confidence must be in (0, 1), got '" + value.text +
                             "'",
                         value.position);
    }
  }
  if (PeekKeyword("ERROR")) {
    Take();
    const Token value = Peek();
    VAOLIB_ASSIGN_OR_RETURN(spec.target_rel_error,
                            TakeNumber("relative error target"));
    if (!(spec.target_rel_error > 0.0)) {
      return SyntaxError("relative error target must be > 0, got '" +
                             value.text + "'",
                         value.position);
    }
  }
  if (PeekKeyword("SEED")) {
    Take();
    const Token value = Peek();
    if (value.kind != TokenKind::kNumber) {
      return SyntaxError("expected seed value, got " + TokenDesc(value),
                         value.position);
    }
    Take();
    // Parse the literal's own text as an integer: going through the token's
    // double would be undefined behaviour to cast for values >= 2^64 and
    // silently lossy above 2^53. Digit-only spelling also rejects signs,
    // fractions, and exponent forms in one check.
    if (value.text.find_first_not_of("0123456789") != std::string::npos) {
      return SyntaxError("seed must be a non-negative integer, got '" +
                             value.text + "'",
                         value.position);
    }
    errno = 0;
    const unsigned long long seed =
        std::strtoull(value.text.c_str(), nullptr, 10);
    if (errno == ERANGE) {
      return SyntaxError("seed must fit in an unsigned 64-bit integer, got '" +
                             value.text + "'",
                         value.position);
    }
    spec.seed = static_cast<std::uint64_t>(seed);
  }
  query->approx = spec;
  return Status::OK();
}

Result<Query> Parser::Parse() {
  Query query;
  VAOLIB_RETURN_IF_ERROR(ExpectKeyword("SELECT"));

  if (Peek().kind == TokenKind::kStar) {
    // SELECT * FROM <rel> WHERE call cmp c | call BETWEEN a AND b
    Take();
    VAOLIB_RETURN_IF_ERROR(ExpectKeyword("FROM"));
    VAOLIB_RETURN_IF_ERROR(Expect(TokenKind::kIdent, "relation name"));
    VAOLIB_RETURN_IF_ERROR(ExpectKeyword("WHERE"));
    VAOLIB_RETURN_IF_ERROR(ParseCall(&query));
    if (PeekKeyword("BETWEEN")) {
      Take();
      query.kind = QueryKind::kSelectRange;
      const Token lo = Peek();
      VAOLIB_ASSIGN_OR_RETURN(query.range_lo, TakeNumber("range low"));
      VAOLIB_RETURN_IF_ERROR(ExpectKeyword("AND"));
      const Token hi = Peek();
      VAOLIB_ASSIGN_OR_RETURN(query.range_hi, TakeNumber("range high"));
      if (query.range_hi < query.range_lo) {
        return SyntaxError("BETWEEN bounds out of order ('" + lo.text +
                               "' > '" + hi.text + "')",
                           hi.position);
      }
    } else if (Peek().kind == TokenKind::kCompare) {
      query.kind = QueryKind::kSelect;
      const Token cmp = Take();
      if (cmp.text == ">") {
        query.cmp = operators::Comparator::kGreaterThan;
      } else if (cmp.text == ">=") {
        query.cmp = operators::Comparator::kGreaterEqual;
      } else if (cmp.text == "<") {
        query.cmp = operators::Comparator::kLessThan;
      } else {
        query.cmp = operators::Comparator::kLessEqual;
      }
      VAOLIB_ASSIGN_OR_RETURN(query.constant,
                              TakeNumber("comparison constant"));
    } else {
      return SyntaxError(
          "expected comparison or BETWEEN, got " + TokenDesc(Peek()),
          Peek().position);
    }
  } else if (PeekKeyword("TOP")) {
    // SELECT TOP k call FROM <rel> [PRECISION e]
    Take();
    const Token count = Peek();  // the number itself, not what follows it
    VAOLIB_ASSIGN_OR_RETURN(const double k, TakeNumber("TOP count"));
    if (k < 1.0 || k != static_cast<double>(static_cast<std::size_t>(k))) {
      return SyntaxError("TOP count must be a positive integer, got '" +
                             count.text + "'",
                         count.position);
    }
    query.kind = QueryKind::kTopK;
    query.k = static_cast<std::size_t>(k);
    VAOLIB_RETURN_IF_ERROR(ParseCall(&query));
    VAOLIB_RETURN_IF_ERROR(ExpectKeyword("FROM"));
    VAOLIB_RETURN_IF_ERROR(Expect(TokenKind::kIdent, "relation name"));
  } else if (Peek().kind == TokenKind::kIdent) {
    // SELECT MAX|MIN|SUM|AVE '(' call [',' weight_col] ')' FROM <rel> ...
    const std::string aggregate = ToUpper(Peek().text);
    if (aggregate == "MAX") {
      query.kind = QueryKind::kMax;
    } else if (aggregate == "MIN") {
      query.kind = QueryKind::kMin;
    } else if (aggregate == "SUM") {
      query.kind = QueryKind::kSum;
    } else if (aggregate == "AVE" || aggregate == "AVG") {
      query.kind = QueryKind::kAve;
    } else {
      return SyntaxError("expected *, TOP, MAX, MIN, SUM, or AVE, got '" +
                             Peek().text + "'",
                         Peek().position);
    }
    Take();
    VAOLIB_RETURN_IF_ERROR(Expect(TokenKind::kLParen, "'('"));
    VAOLIB_RETURN_IF_ERROR(ParseCall(&query));
    if (Peek().kind == TokenKind::kComma) {
      if (query.kind != QueryKind::kSum) {
        return SyntaxError("only SUM takes a weight column",
                           Peek().position);
      }
      Take();
      if (Peek().kind != TokenKind::kIdent) {
        return SyntaxError(
            "expected weight column name, got " + TokenDesc(Peek()),
            Peek().position);
      }
      const Token weight = Take();
      if (!relation_schema_.IndexOf(weight.text).ok()) {
        return SyntaxError("unknown weight column '" + weight.text + "'",
                           weight.position);
      }
      query.weight_column = weight.text;
    }
    VAOLIB_RETURN_IF_ERROR(Expect(TokenKind::kRParen, "')'"));
    VAOLIB_RETURN_IF_ERROR(ExpectKeyword("FROM"));
    VAOLIB_RETURN_IF_ERROR(Expect(TokenKind::kIdent, "relation name"));
  } else {
    return SyntaxError(
        "expected *, TOP, or an aggregate, got " + TokenDesc(Peek()),
        Peek().position);
  }

  VAOLIB_RETURN_IF_ERROR(MaybeParsePrecision(&query));
  VAOLIB_RETURN_IF_ERROR(MaybeParseApprox(&query));
  if (Peek().kind != TokenKind::kEnd) {
    return SyntaxError("unexpected trailing input: '" + Peek().text + "'",
                       Peek().position);
  }
  return query;
}

}  // namespace

Result<Query> ParseQuery(std::string_view sql,
                         const FunctionRegistry& registry,
                         const Schema& stream_schema,
                         const Schema& relation_schema) {
  VAOLIB_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(sql));
  Parser parser(std::move(tokens), registry, stream_schema, relation_schema);
  return parser.Parse();
}

namespace {

void FormatCall(const Query& query, std::ostream& os) {
  os << (query.function != nullptr ? query.function->name() : "null") << "(";
  for (std::size_t i = 0; i < query.args.size(); ++i) {
    if (i > 0) os << ", ";
    const ArgRef& arg = query.args[i];
    if (arg.source == ArgRef::Source::kConstant) {
      os << RoundTripNumber(arg.constant);
    } else {
      os << arg.field;
    }
  }
  os << ")";
}

}  // namespace

std::string FormatQuery(const Query& query, std::string_view relation) {
  std::ostringstream os;
  os << "SELECT ";
  switch (query.kind) {
    case QueryKind::kSelect:
      os << "* FROM " << relation << " WHERE ";
      FormatCall(query, os);
      os << " " << operators::ComparatorToString(query.cmp) << " "
         << RoundTripNumber(query.constant) << " PRECISION "
         << RoundTripNumber(query.epsilon);
      return os.str();
    case QueryKind::kSelectRange:
      os << "* FROM " << relation << " WHERE ";
      FormatCall(query, os);
      os << " BETWEEN " << RoundTripNumber(query.range_lo) << " AND "
         << RoundTripNumber(query.range_hi) << " PRECISION "
         << RoundTripNumber(query.epsilon);
      return os.str();
    case QueryKind::kTopK:
      os << "TOP " << query.k << " ";
      FormatCall(query, os);
      break;
    case QueryKind::kMax:
    case QueryKind::kMin:
    case QueryKind::kSum:
    case QueryKind::kAve: {
      const char* name = query.kind == QueryKind::kMax   ? "MAX"
                         : query.kind == QueryKind::kMin ? "MIN"
                         : query.kind == QueryKind::kSum ? "SUM"
                                                         : "AVE";
      os << name << "(";
      FormatCall(query, os);
      if (query.weight_column.has_value()) os << ", " << *query.weight_column;
      os << ")";
      break;
    }
  }
  os << " FROM " << relation << " PRECISION " << RoundTripNumber(query.epsilon);
  if (query.approx.has_value()) {
    os << " APPROX WITH CONFIDENCE "
       << RoundTripNumber(query.approx->confidence) << " ERROR "
       << RoundTripNumber(query.approx->target_rel_error);
    if (query.approx->seed != 0) os << " SEED " << query.approx->seed;
  }
  return os.str();
}

}  // namespace vaolib::engine

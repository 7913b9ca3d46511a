#include "core/parser.h"

#include <cctype>
#include <cstdint>
#include <vector>

#include "common/string_util.h"

namespace gdms::core {

namespace {

// ---------------------------------------------------------------- lexer ----

enum class TokKind {
  kIdent,
  kNumber,
  kString,   // quoted
  kSymbol,   // one of ( ) ; , = == != <= >= < > + - * / : .
  kEnd,
};

struct Token {
  TokKind kind = TokKind::kEnd;
  std::string text;
  size_t line = 0;
};

class Lexer {
 public:
  explicit Lexer(const std::string& text) : text_(text) {}

  Result<std::vector<Token>> Run() {
    std::vector<Token> out;
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (c == '\n') {
        ++line_;
        ++pos_;
        continue;
      }
      if (std::isspace(static_cast<unsigned char>(c))) {
        ++pos_;
        continue;
      }
      if (c == '#') {  // comment to end of line
        while (pos_ < text_.size() && text_[pos_] != '\n') ++pos_;
        continue;
      }
      if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
        size_t start = pos_;
        while (pos_ < text_.size() &&
               (std::isalnum(static_cast<unsigned char>(text_[pos_])) ||
                text_[pos_] == '_' || text_[pos_] == '.')) {
          ++pos_;
        }
        out.push_back(
            {TokKind::kIdent, text_.substr(start, pos_ - start), line_});
        continue;
      }
      if (std::isdigit(static_cast<unsigned char>(c)) ||
          (c == '-' && pos_ + 1 < text_.size() &&
           std::isdigit(static_cast<unsigned char>(text_[pos_ + 1])) &&
           NumberContext(out))) {
        size_t start = pos_;
        if (c == '-') ++pos_;
        bool saw_dot = false;
        while (pos_ < text_.size() &&
               (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
                (!saw_dot && text_[pos_] == '.' && pos_ + 1 < text_.size() &&
                 std::isdigit(static_cast<unsigned char>(text_[pos_ + 1]))))) {
          if (text_[pos_] == '.') saw_dot = true;
          ++pos_;
        }
        out.push_back(
            {TokKind::kNumber, text_.substr(start, pos_ - start), line_});
        continue;
      }
      if (c == '\'' || c == '"') {
        char quote = c;
        ++pos_;
        size_t start = pos_;
        while (pos_ < text_.size() && text_[pos_] != quote) ++pos_;
        if (pos_ >= text_.size()) {
          return Status::ParseError("unterminated string at line " +
                                    std::to_string(line_));
        }
        out.push_back(
            {TokKind::kString, text_.substr(start, pos_ - start), line_});
        ++pos_;
        continue;
      }
      // Multi-char symbols first.
      static const char* kTwo[] = {"==", "!=", "<=", ">="};
      bool matched = false;
      for (const char* sym : kTwo) {
        if (text_.compare(pos_, 2, sym) == 0) {
          out.push_back({TokKind::kSymbol, sym, line_});
          pos_ += 2;
          matched = true;
          break;
        }
      }
      if (matched) continue;
      static const std::string kOne = "();,=<>+-*/:.";
      if (kOne.find(c) != std::string::npos) {
        out.push_back({TokKind::kSymbol, std::string(1, c), line_});
        ++pos_;
        continue;
      }
      return Status::ParseError("unexpected character '" + std::string(1, c) +
                                "' at line " + std::to_string(line_));
    }
    out.push_back({TokKind::kEnd, "", line_});
    return out;
  }

 private:
  /// A '-' starts a negative number only after a symbol that cannot end an
  /// expression (so "a - 5" lexes as binary minus but "DGE(-1)" as -1).
  static bool NumberContext(const std::vector<Token>& out) {
    if (out.empty()) return true;
    const Token& prev = out.back();
    if (prev.kind == TokKind::kSymbol &&
        (prev.text == "(" || prev.text == "," || prev.text == "==" ||
         prev.text == "!=" || prev.text == "<" || prev.text == "<=" ||
         prev.text == ">" || prev.text == ">=" || prev.text == ";" ||
         prev.text == ":")) {
      return true;
    }
    return false;
  }

  const std::string& text_;
  size_t pos_ = 0;
  size_t line_ = 1;
};

// --------------------------------------------------------------- parser ----

bool EqualsIgnoreCase(const std::string& a, const char* b) {
  return ToLower(a) == ToLower(b);
}

class ParserImpl {
 public:
  explicit ParserImpl(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Result<Program> Run() {
    Program program;
    std::string last_var;
    while (!AtEnd()) {
      const Token& t = Peek();
      if (t.kind == TokKind::kIdent &&
          EqualsIgnoreCase(t.text, "MATERIALIZE")) {
        Advance();
        GDMS_ASSIGN_OR_RETURN(std::string var, ExpectIdent("variable name"));
        std::string out_name = var;
        if (PeekIdent("INTO")) {
          Advance();
          GDMS_ASSIGN_OR_RETURN(out_name, ExpectIdent("output name"));
        }
        GDMS_RETURN_NOT_OK(ExpectSymbol(";"));
        auto it = vars_.find(var);
        if (it == vars_.end()) {
          return ErrorHere("MATERIALIZE of unknown variable " + var);
        }
        program.sinks.push_back(PlanNode::Materialize(it->second, out_name));
        continue;
      }
      // VAR = OP(...) operands ;
      GDMS_ASSIGN_OR_RETURN(std::string var, ExpectIdent("variable name"));
      GDMS_RETURN_NOT_OK(ExpectSymbol("="));
      GDMS_ASSIGN_OR_RETURN(PlanNode::Ptr node, ParseOperator());
      GDMS_RETURN_NOT_OK(ExpectSymbol(";"));
      vars_[var] = node;
      last_var = var;
    }
    if (program.sinks.empty() && !last_var.empty()) {
      program.sinks.push_back(PlanNode::Materialize(vars_[last_var], last_var));
    }
    return program;
  }

 private:
  // -- token helpers --

  bool AtEnd() const { return tokens_[index_].kind == TokKind::kEnd; }
  const Token& Peek(size_t ahead = 0) const {
    size_t i = index_ + ahead;
    if (i >= tokens_.size()) i = tokens_.size() - 1;
    return tokens_[i];
  }
  const Token& Advance() { return tokens_[index_++]; }

  bool PeekSymbol(const char* sym, size_t ahead = 0) const {
    const Token& t = Peek(ahead);
    return t.kind == TokKind::kSymbol && t.text == sym;
  }
  bool PeekIdent(const char* word, size_t ahead = 0) const {
    const Token& t = Peek(ahead);
    return t.kind == TokKind::kIdent && EqualsIgnoreCase(t.text, word);
  }
  bool ConsumeSymbol(const char* sym) {
    if (PeekSymbol(sym)) {
      Advance();
      return true;
    }
    return false;
  }
  bool ConsumeIdent(const char* word) {
    if (PeekIdent(word)) {
      Advance();
      return true;
    }
    return false;
  }

  Status ErrorHere(const std::string& msg) const {
    return Status::ParseError(msg + " (line " + std::to_string(Peek().line) +
                              ", near '" + Peek().text + "')");
  }

  Result<std::string> ExpectIdent(const char* what) {
    if (Peek().kind != TokKind::kIdent) {
      return ErrorHere(std::string("expected ") + what);
    }
    return Advance().text;
  }

  Status ExpectSymbol(const char* sym) {
    if (!PeekSymbol(sym)) {
      return ErrorHere(std::string("expected '") + sym + "'");
    }
    Advance();
    return Status::OK();
  }

  Result<int64_t> ExpectInteger(const char* what) {
    if (Peek().kind != TokKind::kNumber) {
      return ErrorHere(std::string("expected ") + what);
    }
    return ParseInt64(Advance().text);
  }

  // -- operand resolution --

  Result<PlanNode::Ptr> ResolveOperand() {
    GDMS_ASSIGN_OR_RETURN(std::string name, ExpectIdent("operand"));
    auto it = vars_.find(name);
    if (it != vars_.end()) return it->second;
    return PlanNode::Source(name);
  }

  // -- operator dispatch --

  Result<PlanNode::Ptr> ParseOperator() {
    GDMS_ASSIGN_OR_RETURN(std::string op, ExpectIdent("operator name"));
    std::string up = ToLower(op);
    GDMS_RETURN_NOT_OK(ExpectSymbol("("));
    if (up == "select") return ParseSelect();
    if (up == "project") return ParseProject();
    if (up == "extend") return ParseExtend();
    if (up == "merge") return ParseMerge();
    if (up == "group") return ParseGroup();
    if (up == "order") return ParseOrder();
    if (up == "union") return ParseUnion();
    if (up == "difference") return ParseDifference();
    if (up == "semijoin") return ParseSemijoin();
    if (up == "join") return ParseJoin();
    if (up == "map") return ParseMap();
    if (up == "cover") return ParseCover(CoverVariant::kCover);
    if (up == "flat") return ParseCover(CoverVariant::kFlat);
    if (up == "summit") return ParseCover(CoverVariant::kSummit);
    if (up == "histogram") return ParseCover(CoverVariant::kHistogram);
    return ErrorHere("unknown operator " + op);
  }

  // -- predicates --

  Result<CmpOp> ParseCmpOp() {
    const Token& t = Peek();
    if (t.kind != TokKind::kSymbol) return ErrorHere("expected comparison");
    CmpOp op;
    if (t.text == "==" || t.text == "=") {
      op = CmpOp::kEq;
    } else if (t.text == "!=") {
      op = CmpOp::kNe;
    } else if (t.text == "<") {
      op = CmpOp::kLt;
    } else if (t.text == "<=") {
      op = CmpOp::kLe;
    } else if (t.text == ">") {
      op = CmpOp::kGt;
    } else if (t.text == ">=") {
      op = CmpOp::kGe;
    } else {
      return ErrorHere("expected comparison operator");
    }
    Advance();
    return op;
  }

  Result<MetaPredicate::Ptr> ParseMetaOr() {
    GDMS_ASSIGN_OR_RETURN(MetaPredicate::Ptr lhs, ParseMetaAnd());
    while (ConsumeIdent("OR")) {
      GDMS_ASSIGN_OR_RETURN(MetaPredicate::Ptr rhs, ParseMetaAnd());
      lhs = MetaPredicate::Or(lhs, rhs);
    }
    return lhs;
  }

  Result<MetaPredicate::Ptr> ParseMetaAnd() {
    GDMS_ASSIGN_OR_RETURN(MetaPredicate::Ptr lhs, ParseMetaUnary());
    while (ConsumeIdent("AND")) {
      GDMS_ASSIGN_OR_RETURN(MetaPredicate::Ptr rhs, ParseMetaUnary());
      lhs = MetaPredicate::And(lhs, rhs);
    }
    return lhs;
  }

  Result<MetaPredicate::Ptr> ParseMetaUnary() {
    if (ConsumeIdent("NOT")) {
      GDMS_ASSIGN_OR_RETURN(MetaPredicate::Ptr inner, ParseMetaUnary());
      return MetaPredicate::Not(inner);
    }
    if (ConsumeSymbol("(")) {
      GDMS_ASSIGN_OR_RETURN(MetaPredicate::Ptr inner, ParseMetaOr());
      GDMS_RETURN_NOT_OK(ExpectSymbol(")"));
      return inner;
    }
    if (PeekIdent("exists") && PeekSymbol("(", 1)) {
      Advance();
      Advance();
      GDMS_ASSIGN_OR_RETURN(std::string attr, ExpectIdent("attribute"));
      GDMS_RETURN_NOT_OK(ExpectSymbol(")"));
      return MetaPredicate::Exists(attr);
    }
    GDMS_ASSIGN_OR_RETURN(std::string attr, ExpectIdent("metadata attribute"));
    GDMS_ASSIGN_OR_RETURN(CmpOp op, ParseCmpOp());
    const Token& v = Peek();
    if (v.kind != TokKind::kString && v.kind != TokKind::kNumber &&
        v.kind != TokKind::kIdent) {
      return ErrorHere("expected comparison value");
    }
    Advance();
    return MetaPredicate::Compare(attr, op, v.text);
  }

  Result<RegionPredicate::Ptr> ParseRegionOr() {
    GDMS_ASSIGN_OR_RETURN(RegionPredicate::Ptr lhs, ParseRegionAnd());
    while (ConsumeIdent("OR")) {
      GDMS_ASSIGN_OR_RETURN(RegionPredicate::Ptr rhs, ParseRegionAnd());
      lhs = RegionPredicate::Or(lhs, rhs);
    }
    return lhs;
  }

  Result<RegionPredicate::Ptr> ParseRegionAnd() {
    GDMS_ASSIGN_OR_RETURN(RegionPredicate::Ptr lhs, ParseRegionUnary());
    while (ConsumeIdent("AND")) {
      GDMS_ASSIGN_OR_RETURN(RegionPredicate::Ptr rhs, ParseRegionUnary());
      lhs = RegionPredicate::And(lhs, rhs);
    }
    return lhs;
  }

  Result<RegionPredicate::Ptr> ParseRegionUnary() {
    if (ConsumeIdent("NOT")) {
      GDMS_ASSIGN_OR_RETURN(RegionPredicate::Ptr inner, ParseRegionUnary());
      return RegionPredicate::Not(inner);
    }
    if (ConsumeSymbol("(")) {
      GDMS_ASSIGN_OR_RETURN(RegionPredicate::Ptr inner, ParseRegionOr());
      GDMS_RETURN_NOT_OK(ExpectSymbol(")"));
      return inner;
    }
    GDMS_ASSIGN_OR_RETURN(std::string attr, ExpectIdent("region attribute"));
    GDMS_ASSIGN_OR_RETURN(CmpOp op, ParseCmpOp());
    const Token& v = Peek();
    gdm::Value value;
    if (v.kind == TokKind::kString || v.kind == TokKind::kIdent) {
      value = gdm::Value(v.text);
    } else if (v.kind == TokKind::kNumber) {
      if (v.text.find('.') != std::string::npos) {
        GDMS_ASSIGN_OR_RETURN(double d, ParseDouble(v.text));
        value = gdm::Value(d);
      } else {
        GDMS_ASSIGN_OR_RETURN(int64_t i, ParseInt64(v.text));
        value = gdm::Value(i);
      }
    } else {
      return ErrorHere("expected comparison value");
    }
    Advance();
    return RegionPredicate::Compare(attr, op, value);
  }

  // -- aggregate lists: name AS FUNC[(attr)] --

  Result<std::vector<AggregateSpec>> ParseAggList() {
    std::vector<AggregateSpec> out;
    while (true) {
      GDMS_ASSIGN_OR_RETURN(std::string name, ExpectIdent("aggregate name"));
      if (!ConsumeIdent("AS")) return ErrorHere("expected AS");
      GDMS_ASSIGN_OR_RETURN(std::string func_name,
                            ExpectIdent("aggregate function"));
      GDMS_ASSIGN_OR_RETURN(AggFunc func, ParseAggFunc(func_name));
      AggregateSpec spec;
      spec.output_name = name;
      spec.func = func;
      if (ConsumeSymbol("(")) {
        if (!PeekSymbol(")")) {
          GDMS_ASSIGN_OR_RETURN(spec.input_attr, ExpectIdent("attribute"));
        }
        GDMS_RETURN_NOT_OK(ExpectSymbol(")"));
      }
      if (spec.func != AggFunc::kCount && spec.input_attr.empty()) {
        return ErrorHere(func_name + " requires an input attribute");
      }
      out.push_back(std::move(spec));
      if (!ConsumeSymbol(",")) break;
    }
    return out;
  }

  /// Parses "joinby: a, b" after its keyword was consumed.
  Result<std::vector<std::string>> ParseAttrList() {
    std::vector<std::string> out;
    while (true) {
      GDMS_ASSIGN_OR_RETURN(std::string attr, ExpectIdent("attribute"));
      out.push_back(std::move(attr));
      if (!ConsumeSymbol(",")) break;
    }
    return out;
  }

  // -- projection expressions --

  Result<RegionExpr::Ptr> ParseExpr() { return ParseExprAdd(); }

  Result<RegionExpr::Ptr> ParseExprAdd() {
    GDMS_ASSIGN_OR_RETURN(RegionExpr::Ptr lhs, ParseExprMul());
    while (PeekSymbol("+") || PeekSymbol("-")) {
      char op = Advance().text[0];
      GDMS_ASSIGN_OR_RETURN(RegionExpr::Ptr rhs, ParseExprMul());
      lhs = RegionExpr::Binary(op, lhs, rhs);
    }
    return lhs;
  }

  Result<RegionExpr::Ptr> ParseExprMul() {
    GDMS_ASSIGN_OR_RETURN(RegionExpr::Ptr lhs, ParseExprAtom());
    while (PeekSymbol("*") || PeekSymbol("/")) {
      char op = Advance().text[0];
      GDMS_ASSIGN_OR_RETURN(RegionExpr::Ptr rhs, ParseExprAtom());
      lhs = RegionExpr::Binary(op, lhs, rhs);
    }
    return lhs;
  }

  Result<RegionExpr::Ptr> ParseExprAtom() {
    if (ConsumeSymbol("(")) {
      GDMS_ASSIGN_OR_RETURN(RegionExpr::Ptr inner, ParseExpr());
      GDMS_RETURN_NOT_OK(ExpectSymbol(")"));
      return inner;
    }
    const Token& t = Peek();
    if (t.kind == TokKind::kNumber) {
      Advance();
      if (t.text.find('.') != std::string::npos) {
        GDMS_ASSIGN_OR_RETURN(double d, ParseDouble(t.text));
        return RegionExpr::Constant(gdm::Value(d));
      }
      GDMS_ASSIGN_OR_RETURN(int64_t i, ParseInt64(t.text));
      return RegionExpr::Constant(gdm::Value(i));
    }
    if (t.kind == TokKind::kString) {
      Advance();
      return RegionExpr::Constant(gdm::Value(t.text));
    }
    GDMS_ASSIGN_OR_RETURN(std::string name, ExpectIdent("attribute"));
    return RegionExpr::Attr(name);
  }

  // -- per-operator parsers (opening '(' already consumed) --

  Result<PlanNode::Ptr> ParseSelect() {
    SelectParams params;
    if (!PeekSymbol(")")) {
      if (PeekIdent("region") && PeekSymbol(":", 1)) {
        Advance();
        Advance();
        GDMS_ASSIGN_OR_RETURN(params.region, ParseRegionOr());
      } else {
        GDMS_ASSIGN_OR_RETURN(params.meta, ParseMetaOr());
        if (ConsumeSymbol(";")) {
          if (!ConsumeIdent("region")) return ErrorHere("expected 'region:'");
          GDMS_RETURN_NOT_OK(ExpectSymbol(":"));
          GDMS_ASSIGN_OR_RETURN(params.region, ParseRegionOr());
        }
      }
    }
    GDMS_RETURN_NOT_OK(ExpectSymbol(")"));
    GDMS_ASSIGN_OR_RETURN(PlanNode::Ptr child, ResolveOperand());
    return PlanNode::Select(child, std::move(params));
  }

  Result<PlanNode::Ptr> ParseProject() {
    ProjectParams params;
    if (ConsumeSymbol("*")) {
      params.keep_all = true;
    } else if (!PeekSymbol(";") && !PeekSymbol(")")) {
      GDMS_ASSIGN_OR_RETURN(params.keep_attrs, ParseAttrList());
    }
    while (ConsumeSymbol(";")) {
      if (ConsumeIdent("meta")) {
        GDMS_RETURN_NOT_OK(ExpectSymbol(":"));
        params.meta_all = false;
        if (!PeekSymbol(")")) {
          GDMS_ASSIGN_OR_RETURN(params.keep_meta, ParseAttrList());
        }
        continue;
      }
      while (true) {
        GDMS_ASSIGN_OR_RETURN(std::string name, ExpectIdent("new attribute"));
        if (!ConsumeIdent("AS")) return ErrorHere("expected AS");
        ProjectParams::NewAttr na;
        na.name = std::move(name);
        GDMS_ASSIGN_OR_RETURN(na.expr, ParseExpr());
        params.new_attrs.push_back(std::move(na));
        if (!ConsumeSymbol(",")) break;
      }
    }
    GDMS_RETURN_NOT_OK(ExpectSymbol(")"));
    GDMS_ASSIGN_OR_RETURN(PlanNode::Ptr child, ResolveOperand());
    return PlanNode::Project(child, std::move(params));
  }

  Result<PlanNode::Ptr> ParseExtend() {
    ExtendParams params;
    GDMS_ASSIGN_OR_RETURN(params.aggregates, ParseAggList());
    GDMS_RETURN_NOT_OK(ExpectSymbol(")"));
    GDMS_ASSIGN_OR_RETURN(PlanNode::Ptr child, ResolveOperand());
    return PlanNode::Extend(child, std::move(params));
  }

  Result<PlanNode::Ptr> ParseMerge() {
    MergeParams params;
    if (ConsumeIdent("groupby")) {
      GDMS_RETURN_NOT_OK(ExpectSymbol(":"));
      GDMS_ASSIGN_OR_RETURN(params.groupby, ExpectIdent("attribute"));
    }
    GDMS_RETURN_NOT_OK(ExpectSymbol(")"));
    GDMS_ASSIGN_OR_RETURN(PlanNode::Ptr child, ResolveOperand());
    return PlanNode::Merge(child, std::move(params));
  }

  Result<PlanNode::Ptr> ParseGroup() {
    GroupParams params;
    GDMS_ASSIGN_OR_RETURN(params.meta_attr, ExpectIdent("grouping attribute"));
    if (ConsumeSymbol(";")) {
      GDMS_ASSIGN_OR_RETURN(params.aggregates, ParseAggList());
    }
    GDMS_RETURN_NOT_OK(ExpectSymbol(")"));
    GDMS_ASSIGN_OR_RETURN(PlanNode::Ptr child, ResolveOperand());
    return PlanNode::Group(child, std::move(params));
  }

  Result<PlanNode::Ptr> ParseOrder() {
    OrderParams params;
    GDMS_ASSIGN_OR_RETURN(params.meta_attr, ExpectIdent("ordering attribute"));
    if (ConsumeIdent("DESC")) params.descending = true;
    while (ConsumeSymbol(";")) {
      if (ConsumeIdent("TOP")) {
        GDMS_ASSIGN_OR_RETURN(int64_t n, ExpectInteger("TOP count"));
        if (n < 0) return ErrorHere("TOP count must be >= 0");
        params.top = static_cast<size_t>(n);
      } else if (ConsumeIdent("region")) {
        GDMS_RETURN_NOT_OK(ExpectSymbol(":"));
        GDMS_ASSIGN_OR_RETURN(params.region_attr,
                              ExpectIdent("region ordering attribute"));
        if (ConsumeIdent("DESC")) params.region_descending = true;
        if (!ConsumeIdent("TOP")) return ErrorHere("expected TOP");
        GDMS_ASSIGN_OR_RETURN(int64_t m, ExpectInteger("region TOP count"));
        if (m <= 0) return ErrorHere("region TOP count must be > 0");
        params.region_top = static_cast<size_t>(m);
      } else {
        return ErrorHere("expected TOP or region:");
      }
    }
    GDMS_RETURN_NOT_OK(ExpectSymbol(")"));
    GDMS_ASSIGN_OR_RETURN(PlanNode::Ptr child, ResolveOperand());
    return PlanNode::Order(child, std::move(params));
  }

  Result<PlanNode::Ptr> ParseUnion() {
    GDMS_RETURN_NOT_OK(ExpectSymbol(")"));
    GDMS_ASSIGN_OR_RETURN(PlanNode::Ptr left, ResolveOperand());
    GDMS_ASSIGN_OR_RETURN(PlanNode::Ptr right, ResolveOperand());
    return PlanNode::Union(left, right);
  }

  Result<PlanNode::Ptr> ParseDifference() {
    DifferenceParams params;
    if (ConsumeIdent("joinby")) {
      GDMS_RETURN_NOT_OK(ExpectSymbol(":"));
      GDMS_ASSIGN_OR_RETURN(params.joinby, ParseAttrList());
    }
    GDMS_RETURN_NOT_OK(ExpectSymbol(")"));
    GDMS_ASSIGN_OR_RETURN(PlanNode::Ptr left, ResolveOperand());
    GDMS_ASSIGN_OR_RETURN(PlanNode::Ptr right, ResolveOperand());
    return PlanNode::Difference(left, right, std::move(params));
  }

  Result<PlanNode::Ptr> ParseSemijoin() {
    SemijoinParams params;
    GDMS_ASSIGN_OR_RETURN(params.attrs, ParseAttrList());
    if (ConsumeSymbol(";")) {
      if (!ConsumeIdent("NOT")) return ErrorHere("expected NOT");
      params.negated = true;
    }
    GDMS_RETURN_NOT_OK(ExpectSymbol(")"));
    GDMS_ASSIGN_OR_RETURN(PlanNode::Ptr left, ResolveOperand());
    GDMS_ASSIGN_OR_RETURN(PlanNode::Ptr right, ResolveOperand());
    return PlanNode::Semijoin(left, right, std::move(params));
  }

  Result<PlanNode::Ptr> ParseJoin() {
    JoinParams params;
    // Distance atoms.
    while (true) {
      if (ConsumeIdent("UP")) {
        params.predicate.upstream = true;
      } else if (ConsumeIdent("DOWN")) {
        params.predicate.downstream = true;
      } else if (PeekIdent("DLE") || PeekIdent("DLT") || PeekIdent("DGE") ||
                 PeekIdent("DGT") || PeekIdent("MD")) {
        std::string atom = ToLower(Advance().text);
        GDMS_RETURN_NOT_OK(ExpectSymbol("("));
        GDMS_ASSIGN_OR_RETURN(int64_t n, ExpectInteger("distance"));
        // Distances stay within the magnitude of INT64_MIN / 4, the
        // reference's stand-in for an absent DGE; a larger one would
        // overflow the DLT/DGT adjustment below or the JOIN sweep window.
        if (atom != "md" && (n > INT64_MAX / 4 || n < -(INT64_MAX / 4))) {
          return ErrorHere("distance out of range");
        }
        GDMS_RETURN_NOT_OK(ExpectSymbol(")"));
        if (atom == "dle") {
          params.predicate.max_dist = n;
          params.predicate.has_upper = true;
        } else if (atom == "dlt") {
          params.predicate.max_dist = n - 1;
          params.predicate.has_upper = true;
        } else if (atom == "dge") {
          params.predicate.min_dist = n;
        } else if (atom == "dgt") {
          params.predicate.min_dist = n + 1;
        } else {  // md
          if (n <= 0) return ErrorHere("MD(k) requires k > 0");
          params.predicate.md_k = n;
        }
      } else {
        return ErrorHere(
            "expected genometric atom (DLE/DLT/DGE/DGT/MD/UP/DOWN)");
      }
      if (!ConsumeIdent("AND")) break;
    }
    GDMS_RETURN_NOT_OK(ExpectSymbol(";"));
    GDMS_ASSIGN_OR_RETURN(std::string output, ExpectIdent("output option"));
    std::string low = ToLower(output);
    if (low == "left") {
      params.output = JoinOutput::kLeft;
    } else if (low == "right") {
      params.output = JoinOutput::kRight;
    } else if (low == "int") {
      params.output = JoinOutput::kIntersection;
    } else if (low == "cat" || low == "contig") {
      params.output = JoinOutput::kContig;
    } else {
      return ErrorHere("unknown join output option " + output);
    }
    if (ConsumeSymbol(";")) {
      if (!ConsumeIdent("joinby")) return ErrorHere("expected joinby");
      GDMS_RETURN_NOT_OK(ExpectSymbol(":"));
      GDMS_ASSIGN_OR_RETURN(params.joinby, ParseAttrList());
    }
    GDMS_RETURN_NOT_OK(ExpectSymbol(")"));
    GDMS_ASSIGN_OR_RETURN(PlanNode::Ptr left, ResolveOperand());
    GDMS_ASSIGN_OR_RETURN(PlanNode::Ptr right, ResolveOperand());
    return PlanNode::Join(left, right, std::move(params));
  }

  Result<PlanNode::Ptr> ParseMap() {
    MapParams params;
    if (!PeekSymbol(")") && !PeekIdent("joinby")) {
      GDMS_ASSIGN_OR_RETURN(params.aggregates, ParseAggList());
    }
    if (ConsumeSymbol(";") || PeekIdent("joinby")) {
      if (!ConsumeIdent("joinby")) return ErrorHere("expected joinby");
      GDMS_RETURN_NOT_OK(ExpectSymbol(":"));
      GDMS_ASSIGN_OR_RETURN(params.joinby, ParseAttrList());
    }
    GDMS_RETURN_NOT_OK(ExpectSymbol(")"));
    GDMS_ASSIGN_OR_RETURN(PlanNode::Ptr ref, ResolveOperand());
    GDMS_ASSIGN_OR_RETURN(PlanNode::Ptr exp, ResolveOperand());
    return PlanNode::Map(ref, exp, std::move(params));
  }

  Result<PlanNode::Ptr> ParseCover(CoverVariant variant) {
    CoverParams params;
    params.variant = variant;
    GDMS_ASSIGN_OR_RETURN(params.min_acc, ParseAccBound());
    GDMS_RETURN_NOT_OK(ExpectSymbol(","));
    GDMS_ASSIGN_OR_RETURN(params.max_acc, ParseAccBound());
    if (ConsumeSymbol(";")) {
      if (ConsumeIdent("groupby")) {
        GDMS_RETURN_NOT_OK(ExpectSymbol(":"));
        GDMS_ASSIGN_OR_RETURN(params.groupby, ExpectIdent("attribute"));
      } else {
        GDMS_ASSIGN_OR_RETURN(params.aggregates, ParseAggList());
        if (ConsumeSymbol(";")) {
          if (!ConsumeIdent("groupby")) return ErrorHere("expected groupby");
          GDMS_RETURN_NOT_OK(ExpectSymbol(":"));
          GDMS_ASSIGN_OR_RETURN(params.groupby, ExpectIdent("attribute"));
        }
      }
    }
    GDMS_RETURN_NOT_OK(ExpectSymbol(")"));
    GDMS_ASSIGN_OR_RETURN(PlanNode::Ptr child, ResolveOperand());
    return PlanNode::Cover(child, std::move(params));
  }

  Result<int64_t> ParseAccBound() {
    if (ConsumeIdent("ANY")) return int64_t{-1};
    if (ConsumeIdent("ALL")) return int64_t{-2};
    return ExpectInteger("accumulation bound");
  }

  std::vector<Token> tokens_;
  size_t index_ = 0;
  std::map<std::string, PlanNode::Ptr> vars_;
};

}  // namespace

Result<Program> Parser::Parse(const std::string& text) {
  Lexer lexer(text);
  GDMS_ASSIGN_OR_RETURN(std::vector<Token> tokens, lexer.Run());
  ParserImpl impl(std::move(tokens));
  return impl.Run();
}

}  // namespace gdms::core

#include "core/predicates.h"

#include <cstdlib>

#include "common/string_util.h"

namespace gdms::core {

const char* CmpOpName(CmpOp op) {
  switch (op) {
    case CmpOp::kEq:
      return "==";
    case CmpOp::kNe:
      return "!=";
    case CmpOp::kLt:
      return "<";
    case CmpOp::kLe:
      return "<=";
    case CmpOp::kGt:
      return ">";
    case CmpOp::kGe:
      return ">=";
  }
  return "?";
}

namespace {

bool ApplyCmp(int cmp, CmpOp op) {
  switch (op) {
    case CmpOp::kEq:
      return cmp == 0;
    case CmpOp::kNe:
      return cmp != 0;
    case CmpOp::kLt:
      return cmp < 0;
    case CmpOp::kLe:
      return cmp <= 0;
    case CmpOp::kGt:
      return cmp > 0;
    case CmpOp::kGe:
      return cmp >= 0;
  }
  return false;
}

/// Numeric-if-possible string comparison used by metadata predicates.
int CompareMetaValues(const std::string& a, const std::string& b) {
  auto na = ParseDouble(a);
  auto nb = ParseDouble(b);
  if (na.ok() && nb.ok()) {
    double x = na.value();
    double y = nb.value();
    if (x < y) return -1;
    if (x > y) return 1;
    return 0;
  }
  if (a < b) return -1;
  if (a > b) return 1;
  return 0;
}

// ---- MetaPredicate implementations ----

class MetaTrue final : public MetaPredicate {
 public:
  bool Eval(const gdm::Metadata&) const override { return true; }
  std::string ToString() const override { return "true"; }
};

class MetaCompare final : public MetaPredicate {
 public:
  MetaCompare(std::string attr, CmpOp op, std::string value)
      : attr_(std::move(attr)), op_(op), value_(std::move(value)) {}

  bool Eval(const gdm::Metadata& meta) const override {
    for (const auto& v : meta.ValuesOf(attr_)) {
      if (ApplyCmp(CompareMetaValues(v, value_), op_)) return true;
    }
    return false;
  }

  std::string ToString() const override {
    return attr_ + " " + CmpOpName(op_) + " '" + value_ + "'";
  }

 private:
  std::string attr_;
  CmpOp op_;
  std::string value_;
};

class MetaExists final : public MetaPredicate {
 public:
  explicit MetaExists(std::string attr) : attr_(std::move(attr)) {}
  bool Eval(const gdm::Metadata& meta) const override {
    return meta.Has(attr_);
  }
  std::string ToString() const override { return "exists(" + attr_ + ")"; }

 private:
  std::string attr_;
};

class MetaBinary final : public MetaPredicate {
 public:
  MetaBinary(bool is_and, Ptr a, Ptr b)
      : is_and_(is_and), a_(std::move(a)), b_(std::move(b)) {}
  bool Eval(const gdm::Metadata& meta) const override {
    return is_and_ ? (a_->Eval(meta) && b_->Eval(meta))
                   : (a_->Eval(meta) || b_->Eval(meta));
  }
  std::string ToString() const override {
    return "(" + a_->ToString() + (is_and_ ? " AND " : " OR ") +
           b_->ToString() + ")";
  }

 private:
  bool is_and_;
  Ptr a_;
  Ptr b_;
};

class MetaNot final : public MetaPredicate {
 public:
  explicit MetaNot(Ptr a) : a_(std::move(a)) {}
  bool Eval(const gdm::Metadata& meta) const override {
    return !a_->Eval(meta);
  }
  std::string ToString() const override { return "NOT " + a_->ToString(); }

 private:
  Ptr a_;
};

}  // namespace

MetaPredicate::Ptr MetaPredicate::True() {
  return std::make_shared<MetaTrue>();
}
MetaPredicate::Ptr MetaPredicate::Compare(std::string attr, CmpOp op,
                                          std::string value) {
  return std::make_shared<MetaCompare>(std::move(attr), op, std::move(value));
}
MetaPredicate::Ptr MetaPredicate::Exists(std::string attr) {
  return std::make_shared<MetaExists>(std::move(attr));
}
MetaPredicate::Ptr MetaPredicate::And(Ptr a, Ptr b) {
  return std::make_shared<MetaBinary>(true, std::move(a), std::move(b));
}
MetaPredicate::Ptr MetaPredicate::Or(Ptr a, Ptr b) {
  return std::make_shared<MetaBinary>(false, std::move(a), std::move(b));
}
MetaPredicate::Ptr MetaPredicate::Not(Ptr a) {
  return std::make_shared<MetaNot>(std::move(a));
}

namespace {

// ---- RegionPredicate implementations ----

/// Which operand a comparison reads.
enum class RegionField { kChr, kLeft, kRight, kStrand, kVar };

class RegionTrue final : public RegionPredicate {
 public:
  Status Bind(const gdm::RegionSchema&) override { return Status::OK(); }
  bool Eval(const gdm::GenomicRegion&) const override { return true; }
  std::string ToString() const override { return "true"; }
  bool IsTriviallyTrue() const override { return true; }
  Ptr Clone() const override { return std::make_shared<RegionTrue>(); }
};

class RegionCompare final : public RegionPredicate {
 public:
  RegionCompare(std::string attr, CmpOp op, gdm::Value value)
      : attr_(std::move(attr)), op_(op), value_(std::move(value)) {}

  Status Bind(const gdm::RegionSchema& schema) override {
    if (attr_ == "chr" || attr_ == "chrom") {
      field_ = RegionField::kChr;
    } else if (attr_ == "left" || attr_ == "start") {
      field_ = RegionField::kLeft;
    } else if (attr_ == "right" || attr_ == "stop") {
      field_ = RegionField::kRight;
    } else if (attr_ == "strand") {
      field_ = RegionField::kStrand;
    } else {
      auto idx = schema.IndexOf(attr_);
      if (!idx.has_value()) {
        return Status::InvalidArgument(
            "region predicate references unknown attribute: " + attr_);
      }
      field_ = RegionField::kVar;
      index_ = *idx;
    }
    if (field_ == RegionField::kChr && value_.is_string()) {
      chrom_id_ = gdm::InternChrom(value_.AsString());
    }
    return Status::OK();
  }

  bool Eval(const gdm::GenomicRegion& r) const override {
    switch (field_) {
      case RegionField::kChr:
        return ApplyCmp(
            r.chrom == chrom_id_ ? 0 : (r.chrom < chrom_id_ ? -1 : 1), op_);
      case RegionField::kLeft:
        return ApplyCmp(gdm::Value(r.left).Compare(value_), op_);
      case RegionField::kRight:
        return ApplyCmp(gdm::Value(r.right).Compare(value_), op_);
      case RegionField::kStrand: {
        std::string s(1, gdm::StrandChar(r.strand));
        return ApplyCmp(gdm::Value(s).Compare(value_), op_);
      }
      case RegionField::kVar: {
        const gdm::Value& v = r.values[index_];
        if (v.is_null()) return false;  // SQL-style NULL semantics
        return ApplyCmp(v.Compare(value_), op_);
      }
    }
    return false;
  }

  std::string ToString() const override {
    return attr_ + " " + CmpOpName(op_) + " " + value_.ToString();
  }

  Ptr Clone() const override {
    return std::make_shared<RegionCompare>(attr_, op_, value_);
  }

 private:
  std::string attr_;
  CmpOp op_;
  gdm::Value value_;
  RegionField field_ = RegionField::kVar;
  size_t index_ = 0;
  int32_t chrom_id_ = -1;
};

class RegionBinary final : public RegionPredicate {
 public:
  RegionBinary(bool is_and, Ptr a, Ptr b)
      : is_and_(is_and), a_(std::move(a)), b_(std::move(b)) {}
  Status Bind(const gdm::RegionSchema& schema) override {
    GDMS_RETURN_NOT_OK(a_->Bind(schema));
    return b_->Bind(schema);
  }
  bool Eval(const gdm::GenomicRegion& r) const override {
    return is_and_ ? (a_->Eval(r) && b_->Eval(r))
                   : (a_->Eval(r) || b_->Eval(r));
  }
  std::string ToString() const override {
    return "(" + a_->ToString() + (is_and_ ? " AND " : " OR ") +
           b_->ToString() + ")";
  }
  Ptr Clone() const override {
    return std::make_shared<RegionBinary>(is_and_, a_->Clone(), b_->Clone());
  }

 private:
  bool is_and_;
  Ptr a_;
  Ptr b_;
};

class RegionNot final : public RegionPredicate {
 public:
  explicit RegionNot(Ptr a) : a_(std::move(a)) {}
  Status Bind(const gdm::RegionSchema& schema) override {
    return a_->Bind(schema);
  }
  bool Eval(const gdm::GenomicRegion& r) const override {
    return !a_->Eval(r);
  }
  std::string ToString() const override { return "NOT " + a_->ToString(); }
  Ptr Clone() const override {
    return std::make_shared<RegionNot>(a_->Clone());
  }

 private:
  Ptr a_;
};

}  // namespace

RegionPredicate::Ptr RegionPredicate::True() {
  return std::make_shared<RegionTrue>();
}
RegionPredicate::Ptr RegionPredicate::Compare(std::string attr, CmpOp op,
                                              gdm::Value value) {
  return std::make_shared<RegionCompare>(std::move(attr), op, std::move(value));
}
RegionPredicate::Ptr RegionPredicate::And(Ptr a, Ptr b) {
  return std::make_shared<RegionBinary>(true, std::move(a), std::move(b));
}
RegionPredicate::Ptr RegionPredicate::Or(Ptr a, Ptr b) {
  return std::make_shared<RegionBinary>(false, std::move(a), std::move(b));
}
RegionPredicate::Ptr RegionPredicate::Not(Ptr a) {
  return std::make_shared<RegionNot>(std::move(a));
}

namespace {

// ---- RegionExpr implementations ----

class ExprConstant final : public RegionExpr {
 public:
  explicit ExprConstant(gdm::Value v) : value_(std::move(v)) {}
  Status Bind(const gdm::RegionSchema&) override { return Status::OK(); }
  gdm::Value Eval(const gdm::GenomicRegion&) const override { return value_; }
  std::string ToString() const override { return value_.ToString(); }
  gdm::AttrType OutputType(const gdm::RegionSchema&) const override {
    return value_.type();
  }
  Ptr Clone() const override { return std::make_shared<ExprConstant>(value_); }

 private:
  gdm::Value value_;
};

class ExprAttr final : public RegionExpr {
 public:
  explicit ExprAttr(std::string name) : name_(std::move(name)) {}

  Status Bind(const gdm::RegionSchema& schema) override {
    if (name_ == "left" || name_ == "start") {
      kind_ = 1;
    } else if (name_ == "right" || name_ == "stop") {
      kind_ = 2;
    } else if (name_ == "len" || name_ == "length") {
      kind_ = 3;
    } else if (name_ == "strand") {
      kind_ = 4;
    } else if (name_ == "chr" || name_ == "chrom") {
      kind_ = 5;
    } else {
      auto idx = schema.IndexOf(name_);
      if (!idx.has_value()) {
        return Status::InvalidArgument(
            "expression references unknown attribute: " + name_);
      }
      kind_ = 0;
      index_ = *idx;
    }
    return Status::OK();
  }

  gdm::Value Eval(const gdm::GenomicRegion& r) const override {
    switch (kind_) {
      case 1:
        return gdm::Value(r.left);
      case 2:
        return gdm::Value(r.right);
      case 3:
        return gdm::Value(r.length());
      case 4:
        return gdm::Value(std::string(1, gdm::StrandChar(r.strand)));
      case 5:
        return gdm::Value(gdm::ChromName(r.chrom));
      default:
        return r.values[index_];
    }
  }

  std::string ToString() const override { return name_; }

  gdm::AttrType OutputType(const gdm::RegionSchema& schema) const override {
    if (name_ == "left" || name_ == "start" || name_ == "right" ||
        name_ == "stop" || name_ == "len" || name_ == "length") {
      return gdm::AttrType::kInt;
    }
    if (name_ == "strand" || name_ == "chr" || name_ == "chrom") {
      return gdm::AttrType::kString;
    }
    auto idx = schema.IndexOf(name_);
    return idx ? schema.attr(*idx).type : gdm::AttrType::kNull;
  }

  Ptr Clone() const override { return std::make_shared<ExprAttr>(name_); }

 private:
  std::string name_;
  int kind_ = 0;
  size_t index_ = 0;
};

class ExprBinary final : public RegionExpr {
 public:
  ExprBinary(char op, Ptr lhs, Ptr rhs)
      : op_(op), lhs_(std::move(lhs)), rhs_(std::move(rhs)) {}

  Status Bind(const gdm::RegionSchema& schema) override {
    GDMS_RETURN_NOT_OK(lhs_->Bind(schema));
    return rhs_->Bind(schema);
  }

  gdm::Value Eval(const gdm::GenomicRegion& r) const override {
    gdm::Value a = lhs_->Eval(r);
    gdm::Value b = rhs_->Eval(r);
    auto na = a.ToNumeric();
    auto nb = b.ToNumeric();
    if (!na.ok() || !nb.ok()) return gdm::Value::Null();
    double x = na.value();
    double y = nb.value();
    switch (op_) {
      case '+':
        return gdm::Value(x + y);
      case '-':
        return gdm::Value(x - y);
      case '*':
        return gdm::Value(x * y);
      case '/':
        return y == 0 ? gdm::Value::Null() : gdm::Value(x / y);
    }
    return gdm::Value::Null();
  }

  std::string ToString() const override {
    return "(" + lhs_->ToString() + " " + std::string(1, op_) + " " +
           rhs_->ToString() + ")";
  }

  gdm::AttrType OutputType(const gdm::RegionSchema&) const override {
    return gdm::AttrType::kDouble;
  }

  Ptr Clone() const override {
    return std::make_shared<ExprBinary>(op_, lhs_->Clone(), rhs_->Clone());
  }

 private:
  char op_;
  Ptr lhs_;
  Ptr rhs_;
};

}  // namespace

RegionExpr::Ptr RegionExpr::Constant(gdm::Value v) {
  return std::make_shared<ExprConstant>(std::move(v));
}
RegionExpr::Ptr RegionExpr::Attr(std::string name) {
  return std::make_shared<ExprAttr>(std::move(name));
}
RegionExpr::Ptr RegionExpr::Binary(char op, Ptr lhs, Ptr rhs) {
  return std::make_shared<ExprBinary>(op, std::move(lhs), std::move(rhs));
}

}  // namespace gdms::core

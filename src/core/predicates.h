#ifndef GDMS_CORE_PREDICATES_H_
#define GDMS_CORE_PREDICATES_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "gdm/dataset.h"
#include "gdm/metadata.h"
#include "gdm/region.h"
#include "gdm/schema.h"

namespace gdms::core {

/// Comparison operators shared by metadata and region predicates.
enum class CmpOp { kEq, kNe, kLt, kLe, kGt, kGe };

const char* CmpOpName(CmpOp op);

/// \brief Predicate over sample metadata.
///
/// GMQL SELECT's first argument. A comparison `attr op value` holds if ANY
/// value of `attr` satisfies it (metadata attributes are multi-valued);
/// values compare numerically when both sides parse as numbers, otherwise
/// as strings. Composable with AND / OR / NOT, plus an existence test.
class MetaPredicate {
 public:
  virtual ~MetaPredicate() = default;
  virtual bool Eval(const gdm::Metadata& meta) const = 0;
  /// Canonical rendering, used for plan hashing / CSE.
  virtual std::string ToString() const = 0;

  using Ptr = std::shared_ptr<const MetaPredicate>;

  static Ptr True();
  static Ptr Compare(std::string attr, CmpOp op, std::string value);
  static Ptr Exists(std::string attr);
  static Ptr And(Ptr a, Ptr b);
  static Ptr Or(Ptr a, Ptr b);
  static Ptr Not(Ptr a);
};

/// \brief Predicate over a single region.
///
/// GMQL SELECT's region argument. Operands are the fixed attributes (chr,
/// left, right, strand) or variable schema attributes; the right-hand side
/// is a constant. NULL operands make any comparison false.
class RegionPredicate {
 public:
  virtual ~RegionPredicate() = default;

  /// Binds schema attribute names to indexes; call once per dataset before
  /// Eval. Errors if a referenced attribute is absent.
  virtual Status Bind(const gdm::RegionSchema& schema) = 0;
  virtual bool Eval(const gdm::GenomicRegion& region) const = 0;
  virtual std::string ToString() const = 0;
  /// True only for the literal `true` (True()): a SELECT with it keeps
  /// every region without reading one.
  virtual bool IsTriviallyTrue() const { return false; }

  using Ptr = std::shared_ptr<RegionPredicate>;

  static Ptr True();
  /// attr is "chr", "left", "right", "strand" or a schema attribute.
  static Ptr Compare(std::string attr, CmpOp op, gdm::Value value);
  static Ptr And(Ptr a, Ptr b);
  static Ptr Or(Ptr a, Ptr b);
  static Ptr Not(Ptr a);

  /// Deep copy (predicates carry mutable binding state, so plan nodes clone
  /// before binding).
  virtual Ptr Clone() const = 0;
};

/// \brief Arithmetic expression over a region, for PROJECT's new attributes.
///
/// Grammar: constants, attribute references (fixed: left, right, plus
/// derived len = right-left; variable: any schema attr), binary + - * /.
class RegionExpr {
 public:
  virtual ~RegionExpr() = default;
  virtual Status Bind(const gdm::RegionSchema& schema) = 0;
  virtual gdm::Value Eval(const gdm::GenomicRegion& region) const = 0;
  virtual std::string ToString() const = 0;
  /// Static result type (numeric expressions yield DOUBLE, attribute
  /// references keep their schema type, len/left/right yield INT).
  virtual gdm::AttrType OutputType(const gdm::RegionSchema& schema) const = 0;

  using Ptr = std::shared_ptr<RegionExpr>;

  static Ptr Constant(gdm::Value v);
  static Ptr Attr(std::string name);
  static Ptr Binary(char op, Ptr lhs, Ptr rhs);

  virtual Ptr Clone() const = 0;
};

}  // namespace gdms::core

#endif  // GDMS_CORE_PREDICATES_H_

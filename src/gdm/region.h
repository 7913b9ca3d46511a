#ifndef GDMS_GDM_REGION_H_
#define GDMS_GDM_REGION_H_

#include <cstdint>
#include <string>
#include <vector>

#include "gdm/value.h"

namespace gdms::gdm {

/// DNA strand of a region: '+', '-', or '*' when the region is not stranded
/// (paper, Section 2).
enum class Strand : uint8_t {
  kPlus = 0,
  kMinus = 1,
  kNone = 2,
};

char StrandChar(Strand s);
Strand StrandFromChar(char c);

/// \brief Process-wide chromosome name interning.
///
/// Regions store a compact int32 chromosome id; the dictionary maps ids to
/// names ("chr1", ...). Interning keeps cross-dataset operations cheap (ids
/// compare directly) and is thread-safe.
class ChromDict {
 public:
  /// The singleton dictionary.
  static ChromDict& Global();

  /// Returns the id for `name`, interning it if new.
  int32_t Intern(const std::string& name);

  /// Returns the name for `id`; "?" for unknown ids.
  std::string Name(int32_t id) const;

  /// Number of interned names.
  size_t size() const;

 private:
  ChromDict() = default;

  mutable void* impl_ = nullptr;  // opaque, defined in region.cc

  friend struct ChromDictImplAccess;
};

/// Convenience wrappers over ChromDict::Global().
int32_t InternChrom(const std::string& name);
std::string ChromName(int32_t id);

/// \brief One genomic region: fixed coordinates plus schema-typed values.
///
/// The fixed part is (chromosome, left, right, strand); the owning sample
/// supplies the id. Coordinates are 0-based half-open [left, right), the
/// convention of the BED format the paper's examples use.
struct GenomicRegion {
  int32_t chrom = 0;
  int64_t left = 0;
  int64_t right = 0;
  Strand strand = Strand::kNone;
  /// Variable part, positionally aligned with the dataset's RegionSchema.
  std::vector<Value> values;

  GenomicRegion() = default;
  GenomicRegion(int32_t chrom_id, int64_t l, int64_t r,
                Strand s = Strand::kNone, std::vector<Value> vals = {})
      : chrom(chrom_id),
        left(l),
        right(r),
        strand(s),
        values(std::move(vals)) {}

  int64_t length() const { return right - left; }
  int64_t center() const { return (left + right) / 2; }

  /// True if this region and `other` share at least one base.
  bool Overlaps(const GenomicRegion& other) const {
    return chrom == other.chrom && left < other.right && other.left < right;
  }

  /// Genometric distance: number of bases between the two regions; 0 for
  /// adjacent regions, negative for overlapping ones (overlap size, negated),
  /// and INT64_MAX across chromosomes. This is the distance GMQL's
  /// genometric join predicates (DLE/DGE/MD) evaluate.
  int64_t DistanceTo(const GenomicRegion& other) const;

  /// Ordering by (chrom, left, right, strand); values ignored.
  bool CoordLess(const GenomicRegion& other) const {
    if (chrom != other.chrom) return chrom < other.chrom;
    if (left != other.left) return left < other.left;
    if (right != other.right) return right < other.right;
    return strand < other.strand;
  }

  /// "chr1:100-200(+)" rendering (no values).
  std::string CoordString() const;

  /// Tab-separated rendering including values.
  std::string ToString() const;
};

/// Sorts regions by coordinate (chrom, left, right, strand). The sort is
/// stable: regions tied on all four keep their input order. This is the one
/// definition of region output order; every executor and reader produces it.
void SortRegions(std::vector<GenomicRegion>* regions);

/// True if regions are coordinate-sorted.
bool RegionsSorted(const std::vector<GenomicRegion>& regions);

/// \brief A reference genome: ordered chromosomes with lengths.
///
/// Stands in for the assemblies (hg19 etc.) that anchor real datasets; the
/// synthetic workload generators draw coordinates from an assembly.
class GenomeAssembly {
 public:
  GenomeAssembly() = default;

  /// A small human-like assembly: `chroms` chromosomes whose lengths decay
  /// from `first_length` roughly like the human karyotype.
  static GenomeAssembly HumanLike(int chroms = 22,
                                  int64_t first_length = 240000000);

  void AddChromosome(const std::string& name, int64_t length);

  size_t num_chromosomes() const { return chrom_ids_.size(); }
  int32_t chrom_id(size_t i) const { return chrom_ids_[i]; }
  int64_t chrom_length(size_t i) const { return lengths_[i]; }
  int64_t LengthOf(int32_t chrom_id) const;

  /// Sum of chromosome lengths.
  int64_t TotalLength() const;

 private:
  std::vector<int32_t> chrom_ids_;
  std::vector<int64_t> lengths_;
};

}  // namespace gdms::gdm

#endif  // GDMS_GDM_REGION_H_

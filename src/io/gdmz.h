#ifndef GDMS_IO_GDMZ_H_
#define GDMS_IO_GDMZ_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "gdm/dataset.h"

namespace gdms::io {

/// \brief The compressed columnar binary dataset format (".gdmz").
///
/// Layout (all integers little-endian; "varint" is LEB128, "zigzag" maps
/// signed to unsigned before LEB128):
///
///     +------------------------------------------------------------+
///     | header (32 B): magic "GDMZ" | u32 version | u64 total_size |
///     |                u64 dir_offset | u64 dir_size               |
///     +------------------------------------------------------------+
///     | body: per-sample column blobs, 64-byte aligned             |
///     +------------------------------------------------------------+
///     | directory: dataset name, schema, chromosome name table,    |
///     |   metadata string dictionary, per sample: id, metadata     |
///     |   (attr/value dictionary indices), blob offset + size      |
///     +------------------------------------------------------------+
///
/// Each sample blob stores the region columns of gdm/region_columns.h:
/// the per-chromosome chunk directory (chrom table index, row count, max
/// region length), then delta-varint left coordinates (delta within each
/// chunk — sorted order makes them non-negative), varint region lengths,
/// a strand column (uniform byte or 2-bit packed), and one value column
/// per schema attribute. Value columns elide the validity bitmap when all
/// rows are valid; INT values are zigzag varints, BOOL values bit-packed,
/// STRING columns are dictionary- or shared-prefix(front)-coded by
/// cardinality, and DOUBLE values use a 6-significant-digit decimal
/// encoding (zigzag mantissa + run-length-encoded exponents) — exactly the
/// fidelity of the "%.6g" text format, so a .gdmz round-trip equals a .gdm
/// text round-trip bit for bit (non-finite and negative-zero doubles
/// escape to raw 8-byte form).
///
/// total_size in the header frames the document, so concatenated .gdmz
/// blobs (the federation wire format) can be split without scanning.

inline constexpr char kGdmzMagic[4] = {'G', 'D', 'M', 'Z'};
inline constexpr uint32_t kGdmzVersion = 1;
inline constexpr size_t kGdmzHeaderSize = 32;

/// True when `bytes` starts with the .gdmz magic.
bool LooksLikeGdmz(std::string_view bytes);

/// Total framed size of the .gdmz document starting at `bytes`, from the
/// header (fails on short/foreign/corrupt input).
Result<uint64_t> GdmzFramedSize(std::string_view bytes);

/// Serializes `dataset` to the binary format. A sample that still holds
/// its stored attribute bytes (a decoded .gdmz sample, see ReadGdmzBytes)
/// writes them verbatim: serializing an opened dataset decodes no
/// attribute, a file this encoder wrote comes back byte for byte, and a
/// corrupt payload stays corrupt in the copy instead of turning into NULLs.
/// The output does not depend on which attributes were decoded before.
std::string WriteGdmzString(const gdm::Dataset& dataset);

/// Writes `dataset` to `path`: to a temporary file in the same directory,
/// flushed to disk (fsync) and renamed over `path`, then the directory is
/// flushed; the temporary file is removed when a step fails. Readers that
/// have the old file mapped keep reading the old image, and a writer that
/// dies, or a machine that loses power, midway leaves the old file whole —
/// and at worst a stray `<path>.tmp.<pid>.<n>` beside it.
Status WriteGdmz(const gdm::Dataset& dataset, const std::string& path);

/// Parses a dataset from an in-memory .gdmz image into column-primary
/// samples (see OpenGdmz). Every read is bounds-checked.
///
/// What is decoded at open: the directory, and per sample its chunk
/// directory, coordinates and strands. Each attribute column is only
/// framed: its type byte is checked against the schema, its validity mode
/// and encoding bytes are checked, every length-prefixed sub-stream (and
/// every dictionary-string entry) must lie inside the blob, and the last
/// attribute must end exactly at the blob's end. Truncated or misframed
/// input yields ParseError here. Each sample keeps its own copy of its
/// encoded attribute bytes — nothing points into `bytes` afterwards — and
/// decodes a column the first time it is read (gdm::RegionColumns::attr()).
/// The copy stays with the sample's columns until a mutation drops them.
///
/// Error contract: a payload error the framing cannot see (a bad varint, a
/// dictionary code out of range, a double outside the encoder's envelope,
/// a front-coding overrun) surfaces at that first read. The column then
/// reads as all-NULL and the slot keeps the ParseError
/// (gdm::RegionColumns::attr_error()). core::QueryRunner fails exactly the
/// queries that read such a column — in an operator, or through an output
/// still sharing the stored sample — with that ParseError (see
/// gdm::AttrReadLog); a query that reads only intact columns of the same
/// dataset succeeds, before or after or concurrently.
Result<gdm::Dataset> ReadGdmzBytes(std::string_view bytes);

/// Parses from a string (convenience for the protocol layer).
Result<gdm::Dataset> ReadGdmzString(const std::string& bytes);

/// The integer streams inside column blobs, exposed for tests.
/// EncodeIntStream writes the smallest of the varint, run-length and
/// bit-packed (LSB-first, fixed width) layouts behind a mode byte;
/// DecodeIntStream reads exactly `count` values from a whole stream and
/// fails with ParseError on a malformed, short or over-long one.
std::string EncodeIntStream(const std::vector<uint64_t>& values);
Result<std::vector<uint64_t>> DecodeIntStream(std::string_view bytes,
                                              size_t count);

/// \brief An mmap'd .gdmz file image (move-only RAII).
///
/// OpenGdmz maps the file, prefetches the hot prefix (header, directory,
/// first sample blob) with madvise(MADV_WILLNEED), parses it and unmaps it
/// before returning: the parsed samples own their bytes, so no mapping
/// outlives the open. On platforms without mmap the image is buffered in
/// memory and the prefetch hint is a no-op.
class MappedGdmz {
 public:
  MappedGdmz() = default;
  ~MappedGdmz();
  MappedGdmz(const MappedGdmz&) = delete;
  MappedGdmz& operator=(const MappedGdmz&) = delete;
  MappedGdmz(MappedGdmz&& other) noexcept;
  MappedGdmz& operator=(MappedGdmz&& other) noexcept;

  /// Maps `path` read-only (buffered-read fallback). Fails with IoError
  /// when the file cannot be opened; parse errors surface from Parse().
  static Result<MappedGdmz> Open(const std::string& path);

  /// The full file image.
  std::string_view bytes() const;

  /// Mapped (or buffered) length in bytes.
  uint64_t map_length() const;

  /// Parses the dataset out of the image (ReadGdmzBytes).
  Result<gdm::Dataset> Parse() const;

  /// Prefetch hint for the hot prefix: header, directory, and the first
  /// 256 KB of the body (the first sample blobs). No-op on the fallback.
  void WillNeedPrefix() const;

 private:
  void Close();

  void* map_ = nullptr;
  size_t size_ = 0;
  std::string buffer_;  ///< fallback image when mmap is unavailable
};

/// Opens `path` via mmap (falling back to a buffered read when mapping is
/// unavailable) and parses it with ReadGdmzBytes: coordinates decode
/// straight out of the page cache into each sample's region columns, each
/// sample copies its encoded attribute bytes, and the file is unmapped
/// before returning. The samples are column-primary (see
/// gdm::RegionStore): columnar consumers such as the engine's MAP decode
/// only the attributes they read, and the rows (every attribute) are built
/// only when a row consumer asks for them. Payload errors follow
/// ReadGdmzBytes' contract. Prefetches the hot prefix (MADV_WILLNEED) and
/// reports the map length as the gdms_storage_gdmz_open_map_bytes gauge
/// before parsing.
Result<gdm::Dataset> OpenGdmz(const std::string& path);

}  // namespace gdms::io

#endif  // GDMS_IO_GDMZ_H_

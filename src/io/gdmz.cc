#include "io/gdmz.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <unordered_map>
#include <vector>

#ifdef __unix__
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

#include "gdm/region_columns.h"
#include "obs/metrics.h"

namespace gdms::io {

namespace {

using gdm::AttrType;
using gdm::Dataset;
using gdm::GenomicRegion;
using gdm::RegionColumns;
using gdm::Sample;
using gdm::Strand;

// ---------------------------------------------------------------------------
// Byte-level primitives
// ---------------------------------------------------------------------------

uint64_t ZigzagEncode(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^
         static_cast<uint64_t>(v >> 63);
}

int64_t ZigzagDecode(uint64_t u) {
  return static_cast<int64_t>((u >> 1) ^ (~(u & 1) + 1));
}

class ByteWriter {
 public:
  explicit ByteWriter(std::string* out) : out_(out) {}

  void PutByte(uint8_t b) { out_->push_back(static_cast<char>(b)); }

  void PutFixed32(uint32_t v) {
    for (int i = 0; i < 4; ++i) PutByte(static_cast<uint8_t>(v >> (8 * i)));
  }

  void PutFixed64(uint64_t v) {
    for (int i = 0; i < 8; ++i) PutByte(static_cast<uint8_t>(v >> (8 * i)));
  }

  void PutVarint(uint64_t v) {
    while (v >= 0x80) {
      PutByte(static_cast<uint8_t>(v) | 0x80);
      v >>= 7;
    }
    PutByte(static_cast<uint8_t>(v));
  }

  void PutZigzag(int64_t v) { PutVarint(ZigzagEncode(v)); }

  void PutString(std::string_view s) {
    PutVarint(s.size());
    out_->append(s.data(), s.size());
  }

  void PutRaw(const void* data, size_t n) {
    out_->append(static_cast<const char*>(data), n);
  }

  size_t size() const { return out_->size(); }

 private:
  std::string* out_;
};

/// Bounds-checked sequential reader; every accessor reports failure instead
/// of reading past the end, which is what makes corrupt-input rejection
/// sanitizer-clean.
class ByteReader {
 public:
  ByteReader(const char* data, size_t size) : data_(data), size_(size) {}

  bool ok() const { return ok_; }
  size_t pos() const { return pos_; }
  size_t remaining() const { return size_ - pos_; }

  uint8_t GetByte() {
    if (pos_ >= size_) return Fail();
    return static_cast<uint8_t>(data_[pos_++]);
  }

  uint32_t GetFixed32() {
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<uint32_t>(GetByte()) << (8 * i);
    return v;
  }

  uint64_t GetFixed64() {
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(GetByte()) << (8 * i);
    return v;
  }

  uint64_t GetVarint() {
    uint64_t v = 0;
    for (int shift = 0; shift < 64; shift += 7) {
      uint8_t b = GetByte();
      if (!ok_) return 0;
      v |= static_cast<uint64_t>(b & 0x7F) << shift;
      if ((b & 0x80) == 0) return v;
    }
    Fail();
    return 0;
  }

  int64_t GetZigzag() { return ZigzagDecode(GetVarint()); }

  /// Returns a view of the next `n` bytes (empty view + failure when short).
  std::string_view GetSpan(size_t n) {
    if (n > remaining()) {
      Fail();
      return {};
    }
    std::string_view s(data_ + pos_, n);
    pos_ += n;
    return s;
  }

  std::string GetString() {
    uint64_t n = GetVarint();
    if (!ok_ || n > remaining()) {
      Fail();
      return {};
    }
    return std::string(GetSpan(static_cast<size_t>(n)));
  }

 private:
  uint8_t Fail() {
    ok_ = false;
    return 0;
  }

  const char* data_;
  size_t size_;
  size_t pos_ = 0;
  bool ok_ = true;
};

// ---------------------------------------------------------------------------
// Decimal double encoding (6 significant digits, matching "%.6g")
// ---------------------------------------------------------------------------

/// Exponent sentinel marking an escaped raw 8-byte double.
constexpr int64_t kRawEscapeExp = 1000;

/// Splits Quantize6(v) into decimal mantissa (|m| <= 999999) and power-of-ten
/// exponent; false when the value must be stored raw (non-finite, -0.0).
bool DecimalSplit(double v, int64_t* mant, int64_t* exp) {
  if (!std::isfinite(v)) return false;
  if (v == 0.0) {
    if (std::signbit(v)) return false;  // preserve -0.0 bit-exactly via raw
    *mant = 0;
    *exp = 0;
    return true;
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  int64_t m = 0;
  int64_t frac_digits = 0;
  int64_t e10 = 0;
  bool neg = false, in_frac = false;
  const char* p = buf;
  if (*p == '-') {
    neg = true;
    ++p;
  }
  for (; *p != '\0'; ++p) {
    char c = *p;
    if (c >= '0' && c <= '9') {
      m = m * 10 + (c - '0');
      if (in_frac) ++frac_digits;
    } else if (c == '.') {
      in_frac = true;
    } else if (c == 'e' || c == 'E') {
      e10 = std::strtol(p + 1, nullptr, 10);
      break;
    } else {
      return false;  // unexpected rendering (shouldn't happen for finite v)
    }
  }
  int64_t e = e10 - frac_digits;
  while (m != 0 && m % 10 == 0) {
    m /= 10;
    ++e;
  }
  *mant = neg ? -m : m;
  *exp = (m == 0) ? 0 : e;
  return true;
}

/// Reconstructs the double a decimal (mant, exp) pair denotes — identical to
/// strtod of the "%.6g" text, i.e. the correctly rounded decimal value.
double DecimalJoin(int64_t mant, int64_t exp) {
  static const double kPow10[] = {1e0,  1e1,  1e2,  1e3,  1e4,  1e5,
                                  1e6,  1e7,  1e8,  1e9,  1e10, 1e11,
                                  1e12, 1e13, 1e14, 1e15, 1e16, 1e17,
                                  1e18, 1e19, 1e20, 1e21, 1e22};
  // Mantissa (<= 999999) and |exp| <= 22 powers are exact in binary64, so a
  // single multiply/divide performs the one correctly-rounded step.
  if (exp >= 0 && exp <= 22) return static_cast<double>(mant) * kPow10[exp];
  if (exp < 0 && exp >= -22) return static_cast<double>(mant) / kPow10[-exp];
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%llde%lld", static_cast<long long>(mant),
                static_cast<long long>(exp));
  return std::strtod(buf, nullptr);
}

// ---------------------------------------------------------------------------
// Column encoders
// ---------------------------------------------------------------------------

/// Appends a length-prefixed sub-stream built by `fill`.
template <typename Fn>
void PutStream(ByteWriter* w, const Fn& fill) {
  std::string tmp;
  ByteWriter sub(&tmp);
  fill(&sub);
  w->PutVarint(tmp.size());
  w->PutRaw(tmp.data(), tmp.size());
}

// ---------------------------------------------------------------------------
// Packed integer streams
// ---------------------------------------------------------------------------
//
// A generic container for a sequence of unsigned values (signed callers
// zigzag first). The writer computes the exact size of three layouts and
// emits the smallest, tagged with a mode byte:
//   varint  one varint per value — mixed magnitudes
//   rle     (run-length, value) varint pairs — long constant runs
//   packed  fixed bit-width, LSB-first — narrow uniform ranges (decimal
//           mantissas and exponents, dictionary codes)
// The choice is per stream, so e.g. a saturated score column picks rle
// while a noisy p-value column's exponents pick packed.

constexpr uint8_t kIntStreamVarint = 0;
constexpr uint8_t kIntStreamRle = 1;
constexpr uint8_t kIntStreamPacked = 2;

size_t VarintLen(uint64_t v) {
  size_t n = 1;
  while (v >= 0x80) {
    v >>= 7;
    ++n;
  }
  return n;
}

void PutIntStreamBody(ByteWriter* w, const std::vector<uint64_t>& vals) {
  size_t varint_sz = 0;
  uint64_t all_bits = 0;
  for (uint64_t v : vals) {
    varint_sz += VarintLen(v);
    all_bits |= v;
  }
  size_t rle_sz = 0;
  for (size_t i = 0; i < vals.size();) {
    size_t run = i + 1;
    while (run < vals.size() && vals[run] == vals[i]) ++run;
    rle_sz += VarintLen(run - i) + VarintLen(vals[i]);
    i = run;
  }
  int width = 64 - __builtin_clzll(all_bits | 1);
  size_t packed_sz = 1 + (vals.size() * static_cast<size_t>(width) + 7) / 8;

  if (rle_sz <= varint_sz && rle_sz <= packed_sz) {
    w->PutByte(kIntStreamRle);
    for (size_t i = 0; i < vals.size();) {
      size_t run = i + 1;
      while (run < vals.size() && vals[run] == vals[i]) ++run;
      w->PutVarint(run - i);
      w->PutVarint(vals[i]);
      i = run;
    }
  } else if (packed_sz < varint_sz) {
    w->PutByte(kIntStreamPacked);
    w->PutByte(static_cast<uint8_t>(width));
    // LSB-first through a 64-bit window, mirroring the reader: `filled`
    // low bits of `window` are pending, and every full window is written
    // as one little-endian word.
    uint64_t window = 0;
    int filled = 0;
    for (uint64_t v : vals) {
      window |= v << filled;
      filled += width;
      if (filled >= 64) {
        w->PutFixed64(window);
        filled -= 64;
        window = filled == 0 ? 0 : v >> (width - filled);
      }
    }
    for (; filled > 0; filled -= 8, window >>= 8) {
      w->PutByte(static_cast<uint8_t>(window));
    }
  } else {
    w->PutByte(kIntStreamVarint);
    for (uint64_t v : vals) w->PutVarint(v);
  }
}

/// Little-endian load of the `n` bytes at `p` (at most 8 are read).
uint64_t LoadLE64(const uint8_t* p, size_t n) {
  uint64_t v = 0;
  if (n >= 8) {
    std::memcpy(&v, p, 8);
    if constexpr (std::endian::native == std::endian::big) {
      v = __builtin_bswap64(v);
    }
    return v;
  }
  for (size_t b = 0; b < n; ++b) v |= static_cast<uint64_t>(p[b]) << (8 * b);
  return v;
}

/// Reads a packed integer stream of exactly `count` values; the caller
/// still owns the enclosing sub-stream and checks it was fully consumed.
bool GetIntStreamBody(ByteReader* r, size_t count,
                      std::vector<uint64_t>* out) {
  uint8_t mode = r->GetByte();
  if (!r->ok()) return false;
  out->clear();
  switch (mode) {
    case kIntStreamVarint:
      if (count > r->remaining()) return false;  // >= 1 byte per value
      out->reserve(count);
      for (size_t i = 0; i < count; ++i) {
        uint64_t v = r->GetVarint();
        if (!r->ok()) return false;
        out->push_back(v);
      }
      return true;
    case kIntStreamRle:
      while (out->size() < count) {
        uint64_t run = r->GetVarint();
        uint64_t v = r->GetVarint();
        if (!r->ok() || run == 0 || run > count - out->size()) return false;
        out->insert(out->end(), static_cast<size_t>(run), v);
      }
      return true;
    case kIntStreamPacked: {
      uint8_t width = r->GetByte();
      if (!r->ok() || width == 0 || width > 64 ||
          count > (SIZE_MAX - 7) / width) {
        return false;
      }
      const size_t need = (count * width + 7) / 8;
      std::string_view bytes = r->GetSpan(need);
      if (!r->ok()) return false;
      // Word at a time: value i starts at bit i*width; a 64-bit window
      // loaded at its first byte holds it whole unless it straddles into
      // a ninth byte (width > 57), which is then inside `need` too. The
      // window itself never reads past `need`.
      const auto* p = reinterpret_cast<const uint8_t*>(bytes.data());
      const uint64_t mask = width == 64 ? ~uint64_t{0}
                                        : (uint64_t{1} << width) - 1;
      out->resize(count);
      uint64_t* dst = out->data();
      size_t bit = 0;
      for (size_t i = 0; i < count; ++i, bit += width) {
        const size_t byte = bit >> 3;
        const unsigned shift = bit & 7;
        uint64_t v = LoadLE64(p + byte, need - byte) >> shift;
        if (shift + width > 64) {
          v |= static_cast<uint64_t>(p[byte + 8]) << (64 - shift);
        }
        dst[i] = v & mask;
      }
      return true;
    }
    default:
      return false;
  }
}

std::vector<uint64_t> ZigzagAll(const std::vector<int64_t>& vals) {
  std::vector<uint64_t> out;
  out.reserve(vals.size());
  for (int64_t v : vals) out.push_back(ZigzagEncode(v));
  return out;
}

struct MetaDict {
  std::unordered_map<std::string, uint32_t> index;
  std::vector<const std::string*> entries;

  uint32_t Intern(const std::string& s) {
    auto [it, inserted] =
        index.emplace(s, static_cast<uint32_t>(entries.size()));
    if (inserted) entries.push_back(&it->first);
    return it->second;
  }
};

constexpr uint8_t kValidityAllValid = 0;
constexpr uint8_t kValidityBitmap = 1;
constexpr uint8_t kValidityAllNull = 2;

constexpr uint8_t kStrandUniform = 0;
constexpr uint8_t kStrandPacked = 1;

constexpr uint8_t kDoubleDecimal = 0;  // only encoding emitted; raw escapes
                                       // ride in the escape stream

constexpr uint8_t kStringDict = 0;
constexpr uint8_t kStringFront = 1;

void EncodeValueColumn(ByteWriter* w, const gdm::ValueColumn& col) {
  const size_t n = col.size();
  w->PutByte(static_cast<uint8_t>(col.type()));
  size_t non_null = 0;
  for (size_t i = 0; i < n; ++i) {
    if (col.IsValid(i)) ++non_null;
  }
  if (col.type() == AttrType::kNull || non_null == 0) {
    w->PutByte(kValidityAllNull);
    return;
  }
  if (non_null == n) {
    w->PutByte(kValidityAllValid);
  } else {
    w->PutByte(kValidityBitmap);
    PutStream(w, [&](ByteWriter* s) {
      std::vector<uint8_t> bits((n + 7) / 8, 0);
      for (size_t i = 0; i < n; ++i) {
        if (col.IsValid(i)) bits[i >> 3] |= static_cast<uint8_t>(1u << (i & 7));
      }
      s->PutRaw(bits.data(), bits.size());
    });
  }
  switch (col.type()) {
    case AttrType::kInt: {
      std::vector<int64_t> vals;
      vals.reserve(non_null);
      for (size_t i = 0; i < n; ++i) {
        if (col.IsValid(i)) vals.push_back(col.ints()[i]);
      }
      PutStream(w,
                [&](ByteWriter* s) { PutIntStreamBody(s, ZigzagAll(vals)); });
      break;
    }
    case AttrType::kBool:
      PutStream(w, [&](ByteWriter* s) {
        std::vector<uint8_t> bits((non_null + 7) / 8, 0);
        size_t k = 0;
        for (size_t i = 0; i < n; ++i) {
          if (!col.IsValid(i)) continue;
          if (col.bools()[i]) bits[k >> 3] |= static_cast<uint8_t>(1u << (k & 7));
          ++k;
        }
        s->PutRaw(bits.data(), bits.size());
      });
      break;
    case AttrType::kDouble: {
      w->PutByte(kDoubleDecimal);
      // Three parallel streams over the non-null values: run-length-encoded
      // exponents, zigzag mantissas, and raw escapes for entries whose
      // exponent is the sentinel.
      std::vector<int64_t> mants, exps;
      std::vector<double> escapes;
      mants.reserve(non_null);
      exps.reserve(non_null);
      for (size_t i = 0; i < n; ++i) {
        if (!col.IsValid(i)) continue;
        int64_t m = 0, e = 0;
        if (DecimalSplit(col.doubles()[i], &m, &e)) {
          mants.push_back(m);
          exps.push_back(e);
        } else {
          mants.push_back(0);
          exps.push_back(kRawEscapeExp);
          escapes.push_back(col.doubles()[i]);
        }
      }
      PutStream(w,
                [&](ByteWriter* s) { PutIntStreamBody(s, ZigzagAll(exps)); });
      PutStream(w,
                [&](ByteWriter* s) { PutIntStreamBody(s, ZigzagAll(mants)); });
      PutStream(w, [&](ByteWriter* s) {
        for (double d : escapes) {
          uint64_t bits;
          std::memcpy(&bits, &d, sizeof(bits));
          s->PutFixed64(bits);
        }
      });
      break;
    }
    case AttrType::kString: {
      const size_t distinct = col.dict().size();
      bool use_dict = distinct <= std::max<size_t>(16, non_null / 4);
      w->PutByte(use_dict ? kStringDict : kStringFront);
      if (use_dict) {
        w->PutVarint(distinct);
        for (const auto& s : col.dict()) w->PutString(s);
        std::vector<uint64_t> codes;
        codes.reserve(non_null);
        for (size_t i = 0; i < n; ++i) {
          if (col.IsValid(i)) codes.push_back(col.codes()[i]);
        }
        PutStream(w, [&](ByteWriter* s) { PutIntStreamBody(s, codes); });
      } else {
        // Front coding: each value stores the length of the prefix it shares
        // with the previous non-null value plus its suffix. Sorted-ish
        // generated names ("peak_3_17") share long prefixes.
        PutStream(w, [&](ByteWriter* s) {
          const std::string* prev = nullptr;
          for (size_t i = 0; i < n; ++i) {
            if (!col.IsValid(i)) continue;
            const std::string& cur = col.dict()[col.codes()[i]];
            size_t shared = 0;
            if (prev != nullptr) {
              size_t lim = std::min(prev->size(), cur.size());
              while (shared < lim && (*prev)[shared] == cur[shared]) ++shared;
            }
            s->PutVarint(shared);
            s->PutString(std::string_view(cur).substr(shared));
            prev = &cur;
          }
        });
      }
      break;
    }
    case AttrType::kNull:
      break;
  }
}

void EncodeSampleBlob(ByteWriter* w, const RegionColumns& cols,
                      const std::map<int32_t, uint32_t>& chrom_table) {
  const size_t n = cols.size();
  w->PutVarint(n);
  w->PutVarint(cols.chunks().size());
  for (const auto& c : cols.chunks()) {
    w->PutVarint(chrom_table.at(c.chrom));
    w->PutVarint(c.end - c.begin);
    w->PutVarint(static_cast<uint64_t>(c.max_len));
  }
  w->PutByte(cols.narrow() ? 4 : 8);
  // Left coordinates: per chunk, zigzag first value then plain varint deltas
  // (sorted order makes in-chunk deltas non-negative).
  PutStream(w, [&](ByteWriter* s) {
    for (const auto& c : cols.chunks()) {
      int64_t prev = 0;
      for (size_t i = c.begin; i < c.end; ++i) {
        int64_t l = cols.left(i);
        if (i == c.begin) {
          s->PutZigzag(l);
        } else {
          s->PutVarint(static_cast<uint64_t>(l - prev));
        }
        prev = l;
      }
    }
  });
  // Region lengths (right - left >= 0 by the GDM validity constraint).
  PutStream(w, [&](ByteWriter* s) {
    for (size_t i = 0; i < n; ++i) {
      s->PutVarint(static_cast<uint64_t>(cols.right(i) - cols.left(i)));
    }
  });
  // Strand column.
  bool uniform = true;
  for (size_t i = 1; i < n && uniform; ++i) {
    uniform = cols.strands()[i] == cols.strands()[0];
  }
  if (uniform) {
    w->PutByte(kStrandUniform);
    w->PutByte(n == 0 ? static_cast<uint8_t>(Strand::kNone)
                      : cols.strands()[0]);
  } else {
    w->PutByte(kStrandPacked);
    PutStream(w, [&](ByteWriter* s) {
      std::vector<uint8_t> packed((n + 3) / 4, 0);
      for (size_t i = 0; i < n; ++i) {
        packed[i >> 2] |= static_cast<uint8_t>((cols.strands()[i] & 3)
                                               << ((i & 3) * 2));
      }
      s->PutRaw(packed.data(), packed.size());
    });
  }
  // Stored attribute bytes pass through verbatim: writing a decoded sample
  // decodes none of its attributes, and a corrupt payload stays corrupt.
  if (const std::string* stored = cols.encoded_attrs()) {
    w->PutRaw(stored->data(), stored->size());
    return;
  }
  for (size_t a = 0; a < cols.num_attrs(); ++a) {
    EncodeValueColumn(w, cols.attr(a));
  }
}

// ---------------------------------------------------------------------------
// Column decoders
// ---------------------------------------------------------------------------

/// Reads a length-prefixed sub-stream (the counterpart of PutStream).
bool GetStream(ByteReader* r, std::string_view* payload) {
  uint64_t len = r->GetVarint();
  if (!r->ok()) return false;
  *payload = r->GetSpan(static_cast<size_t>(len));
  return r->ok();
}

/// Reads a sub-stream holding exactly one integer stream of `count` values.
bool GetIntStream(ByteReader* r, size_t count, std::vector<uint64_t>* out) {
  std::string_view payload;
  if (!GetStream(r, &payload)) return false;
  ByteReader s(payload.data(), payload.size());
  return GetIntStreamBody(&s, count, out) && s.remaining() == 0;
}

/// Calls `fn(row, k)` for the k-th valid row of `col`, in row order, while
/// it returns true; false when a call failed.
template <typename Fn>
bool ForEachValid(const gdm::ValueColumn& col, Fn&& fn) {
  const size_t n = col.size();
  if (col.all_valid()) {
    for (size_t i = 0; i < n; ++i) {
      if (!fn(i, i)) return false;
    }
    return true;
  }
  size_t k = 0;
  for (size_t i = 0; i < n; ++i) {
    if (col.IsValid(i) && !fn(i, k++)) return false;
  }
  return true;
}

/// Decodes one attribute column of `n` rows straight into its typed form.
/// The result equals ValueColumn::Build over the rows the column denotes:
/// trailing validity bits are cleared, an all-set bitmap is elided, and a
/// STRING dictionary is renumbered into first-appearance order with
/// duplicate entries merged.
bool DecodeValueColumn(ByteReader* r, size_t n, AttrType schema_type,
                       gdm::ValueColumn* out) {
  auto file_type = static_cast<AttrType>(r->GetByte());
  if (!r->ok()) return false;
  if (file_type != AttrType::kNull && file_type != schema_type) return false;
  uint8_t validity_mode = r->GetByte();
  if (!r->ok()) return false;
  if (file_type == AttrType::kNull || validity_mode == kValidityAllNull) {
    *out = gdm::ValueColumn(schema_type, n,
                            std::vector<uint8_t>((n + 7) / 8, 0));
    return true;
  }
  std::vector<uint8_t> validity;
  size_t non_null = n;
  if (validity_mode == kValidityBitmap) {
    std::string_view bits;
    if (!GetStream(r, &bits) || bits.size() != (n + 7) / 8) return false;
    validity.assign(bits.begin(), bits.end());
    if (n % 8 != 0) validity.back() &= static_cast<uint8_t>((1u << (n % 8)) - 1);
    non_null = 0;
    for (uint8_t b : validity) non_null += static_cast<size_t>(std::popcount(b));
    if (non_null == n) validity.clear();
  } else if (validity_mode != kValidityAllValid) {
    return false;
  }
  gdm::ValueColumn col(schema_type, n, std::move(validity));
  bool ok = false;
  switch (schema_type) {
    case AttrType::kInt: {
      std::vector<uint64_t> vals;
      if (!GetIntStream(r, non_null, &vals)) return false;
      int64_t* ints = col.mutable_ints().data();
      ok = ForEachValid(col, [&](size_t i, size_t k) {
        ints[i] = ZigzagDecode(vals[k]);
        return true;
      });
      break;
    }
    case AttrType::kBool: {
      std::string_view payload;
      if (!GetStream(r, &payload) || payload.size() != (non_null + 7) / 8) {
        return false;
      }
      uint8_t* bools = col.mutable_bools().data();
      ok = ForEachValid(col, [&](size_t i, size_t k) {
        bools[i] = (static_cast<uint8_t>(payload[k >> 3]) >> (k & 7)) & 1;
        return true;
      });
      break;
    }
    case AttrType::kDouble: {
      uint8_t enc = r->GetByte();
      if (!r->ok() || enc != kDoubleDecimal) return false;
      std::vector<uint64_t> exps, mants;
      std::string_view raw;
      if (!GetIntStream(r, non_null, &exps) ||
          !GetIntStream(r, non_null, &mants) || !GetStream(r, &raw)) {
        return false;
      }
      ByteReader rs(raw.data(), raw.size());
      double* doubles = col.mutable_doubles().data();
      ok = ForEachValid(col, [&](size_t i, size_t k) {
        int64_t e = ZigzagDecode(exps[k]);
        if (e == kRawEscapeExp) {
          uint64_t bits = rs.GetFixed64();
          std::memcpy(&doubles[i], &bits, sizeof(bits));
          return rs.ok();
        }
        int64_t m = ZigzagDecode(mants[k]);
        constexpr int64_t kMaxMant = 999999999999LL;
        if (m > kMaxMant || m < -kMaxMant || e > 400 || e < -400) {
          return false;  // out of the encoder's envelope: corrupt
        }
        doubles[i] = DecimalJoin(m, e);
        return true;
      });
      ok = ok && rs.remaining() == 0;
      break;
    }
    case AttrType::kString: {
      uint8_t enc = r->GetByte();
      if (!r->ok()) return false;
      std::vector<std::string>& dict = col.mutable_dict();
      uint32_t* codes = col.mutable_codes().data();
      if (enc == kStringDict) {
        uint64_t distinct = r->GetVarint();
        if (!r->ok() || distinct > non_null) return false;
        // canon[d]: the number of the file's entry d among the distinct
        // entry strings, in file order.
        std::vector<std::string> entries;
        std::vector<uint32_t> canon;
        canon.reserve(static_cast<size_t>(distinct));
        gdm::StringNumbering numbering(static_cast<size_t>(distinct));
        for (uint64_t d = 0; d < distinct; ++d) {
          std::string entry = r->GetString();
          if (!r->ok()) return false;
          canon.push_back(numbering.Number(entry, &entries));
        }
        std::vector<uint64_t> file_codes;
        if (!GetIntStream(r, non_null, &file_codes)) return false;
        constexpr uint32_t kUnseen = ~uint32_t{0};
        std::vector<uint32_t> code_of(entries.size(), kUnseen);
        ok = ForEachValid(col, [&](size_t i, size_t k) {
          if (file_codes[k] >= canon.size()) return false;
          uint32_t c = canon[static_cast<size_t>(file_codes[k])];
          if (code_of[c] == kUnseen) {
            code_of[c] = static_cast<uint32_t>(dict.size());
            dict.push_back(std::move(entries[c]));
          }
          codes[i] = code_of[c];
          return true;
        });
        break;
      }
      if (enc != kStringFront) return false;
      std::string_view payload;
      if (!GetStream(r, &payload)) return false;
      ByteReader s(payload.data(), payload.size());
      gdm::StringNumbering numbering(non_null);
      // Front coding is chosen for high cardinality, so reserving a slot
      // per value beats growing the dictionary by doubling; the slack of a
      // repetitive column is trimmed below.
      dict.reserve(non_null);
      std::string cur;
      ok = ForEachValid(col, [&](size_t i, size_t) {
        uint64_t shared = s.GetVarint();
        if (!s.ok() || shared > cur.size()) return false;
        uint64_t len = s.GetVarint();
        std::string_view suffix = s.GetSpan(static_cast<size_t>(len));
        if (!s.ok()) return false;
        cur.resize(static_cast<size_t>(shared));
        cur.append(suffix);
        codes[i] = numbering.Number(cur, &dict);
        return true;
      });
      ok = ok && s.remaining() == 0;
      if (dict.size() < dict.capacity()) dict.shrink_to_fit();
      break;
    }
    case AttrType::kNull:
      ok = true;  // a NULL-typed attribute's column carries no payload
      break;
  }
  if (ok) *out = std::move(col);
  return ok;
}

/// Checks the framing of one stored attribute column of `n` rows of
/// `schema_type` and steps over it, decoding no payload: the type byte
/// against the schema, the validity mode (and the bitmap's length) and the
/// encoding bytes, and that every length-prefixed sub-stream — and, for a
/// dictionary string column, every dictionary entry — lies inside `r`.
/// DecodeValueColumn reads the payloads on first use.
bool SkipValueColumn(ByteReader* r, size_t n, AttrType schema_type) {
  auto file_type = static_cast<AttrType>(r->GetByte());
  uint8_t validity_mode = r->GetByte();
  if (!r->ok() || (file_type != AttrType::kNull && file_type != schema_type)) {
    return false;
  }
  if (file_type == AttrType::kNull || validity_mode == kValidityAllNull) {
    return true;
  }
  std::string_view stream;
  if (validity_mode == kValidityBitmap) {
    if (!GetStream(r, &stream) || stream.size() != (n + 7) / 8) return false;
  } else if (validity_mode != kValidityAllValid) {
    return false;
  }
  size_t streams = 1;
  switch (schema_type) {
    case AttrType::kInt:
    case AttrType::kBool:
      break;
    case AttrType::kDouble:
      if (r->GetByte() != kDoubleDecimal || !r->ok()) return false;
      streams = 3;  // exponents, mantissas, raw escapes
      break;
    case AttrType::kString: {
      uint8_t enc = r->GetByte();
      if (!r->ok()) return false;
      if (enc == kStringDict) {
        uint64_t distinct = r->GetVarint();
        // Every entry takes at least its length byte.
        if (!r->ok() || distinct > r->remaining()) return false;
        for (uint64_t d = 0; d < distinct; ++d) {
          uint64_t len = r->GetVarint();
          if (!r->ok() || len > r->remaining()) return false;
          (void)r->GetSpan(static_cast<size_t>(len));
        }
      } else if (enc != kStringFront) {
        return false;
      }
      break;
    }
    case AttrType::kNull:
      return true;
  }
  for (size_t k = 0; k < streams; ++k) {
    if (!GetStream(r, &stream)) return false;
  }
  return true;
}

/// The EncodedAttrs decoder: one framed attribute span, decoded whole.
Status DecodeStoredAttr(std::string_view span, size_t n, AttrType type,
                        gdm::ValueColumn* out) {
  ByteReader r(span.data(), span.size());
  if (DecodeValueColumn(&r, n, type, out) && r.remaining() == 0) {
    return Status::OK();
  }
  return Status::ParseError(".gdmz attribute column corrupt");
}

/// Decodes one sample blob straight into region columns: the chunk
/// directory, coordinates and strands now, and for the attributes only
/// their framing (SkipValueColumn); the sample keeps a copy of the
/// attribute bytes and decodes each column on first use. The last
/// attribute must end exactly at the blob's end. A sample whose rows come
/// out of coordinate order (e.g. its chromosomes were interned in a
/// different order in this process than in the writer's) falls back to
/// rows, stable-sorted so coordinate ties keep their stored order; that
/// decodes every attribute here, and a corrupt one fails the blob.
bool DecodeSampleBlob(std::string_view blob,
                      const std::vector<int32_t>& chrom_ids,
                      const gdm::RegionSchema& schema, Sample* sample) {
  ByteReader reader(blob.data(), blob.size());
  ByteReader* r = &reader;
  uint64_t n64 = r->GetVarint();
  // Every region takes at least one byte of the left-coordinate stream.
  if (!r->ok() || n64 > r->remaining()) return false;
  const size_t n = static_cast<size_t>(n64);
  uint64_t nchunks = r->GetVarint();
  if (!r->ok() || nchunks > n64 + 1) return false;
  std::vector<gdm::ColumnChunk> chunks;
  chunks.reserve(static_cast<size_t>(nchunks));
  size_t total = 0;
  for (uint64_t c = 0; c < nchunks; ++c) {
    uint64_t ct = r->GetVarint();
    uint64_t count = r->GetVarint();
    (void)r->GetVarint();  // max_len: recomputed from the coordinates
    if (!r->ok() || ct >= chrom_ids.size() || count == 0 ||
        count > n - total) {
      return false;
    }
    chunks.push_back({chrom_ids[static_cast<size_t>(ct)], total,
                      total + static_cast<size_t>(count), 0});
    total += static_cast<size_t>(count);
  }
  if (total != n) return false;
  uint8_t width = r->GetByte();
  if (!r->ok() || (width != 4 && width != 8)) return false;

  std::vector<int64_t> lefts(n), rights(n);
  {
    std::string_view payload;
    if (!GetStream(r, &payload)) return false;
    ByteReader s(payload.data(), payload.size());
    for (const auto& c : chunks) {
      int64_t prev = 0;
      for (size_t i = c.begin; i < c.end; ++i) {
        int64_t l;
        if (i == c.begin) {
          l = s.GetZigzag();
        } else {
          uint64_t d = s.GetVarint();
          if (d > (1ULL << 62) ||
              __builtin_add_overflow(prev, static_cast<int64_t>(d), &l)) {
            return false;
          }
        }
        if (!s.ok()) return false;
        lefts[i] = l;
        prev = l;
      }
    }
    if (s.remaining() != 0) return false;
  }
  {
    std::string_view payload;
    if (!GetStream(r, &payload)) return false;
    ByteReader s(payload.data(), payload.size());
    for (size_t i = 0; i < n; ++i) {
      uint64_t d = s.GetVarint();
      if (!s.ok() || d > (1ULL << 62) ||
          __builtin_add_overflow(lefts[i], static_cast<int64_t>(d),
                                 &rights[i])) {
        return false;
      }
    }
    if (s.remaining() != 0) return false;
  }

  std::vector<uint8_t> strands(n, static_cast<uint8_t>(Strand::kNone));
  uint8_t smode = r->GetByte();
  if (!r->ok()) return false;
  if (smode == kStrandUniform) {
    uint8_t v = r->GetByte();
    if (!r->ok() || v > 2) return false;
    std::fill(strands.begin(), strands.end(), v);
  } else if (smode == kStrandPacked) {
    std::string_view payload;
    if (!GetStream(r, &payload) || payload.size() != (n + 3) / 4) return false;
    for (size_t i = 0; i < n; ++i) {
      uint8_t v =
          (static_cast<uint8_t>(payload[i >> 2]) >> ((i & 3) * 2)) & 3;
      if (v > 2) return false;
      strands[i] = v;
    }
  } else {
    return false;
  }

  const size_t attrs_begin = r->pos();
  std::vector<AttrType> types;
  gdm::EncodedAttrs encoded;
  types.reserve(schema.size());
  encoded.ends.reserve(schema.size());
  for (size_t a = 0; a < schema.size(); ++a) {
    types.push_back(schema.attr(a).type);
    if (!SkipValueColumn(r, n, types.back())) return false;
    encoded.ends.push_back(r->pos() - attrs_begin);
  }
  if (r->remaining() != 0) return false;
  encoded.bytes = std::string(blob.substr(attrs_begin));
  encoded.decode = DecodeStoredAttr;

  RegionColumns cols = RegionColumns::FromDecoded(
      std::move(lefts), std::move(rights), std::move(strands),
      std::move(chunks), std::move(types), std::move(encoded));
  if (cols.CoordSorted()) {
    sample->regions = gdm::RegionStore(std::move(cols));
    return true;
  }
  std::vector<GenomicRegion> rows = cols.ToRegions();
  for (size_t a = 0; a < cols.num_attrs(); ++a) {
    if (!cols.attr_error(a).ok()) return false;
  }
  gdm::SortRegions(&rows);
  sample->regions = std::move(rows);
  return true;
}

}  // namespace

std::string EncodeIntStream(const std::vector<uint64_t>& values) {
  std::string out;
  ByteWriter w(&out);
  PutIntStreamBody(&w, values);
  return out;
}

Result<std::vector<uint64_t>> DecodeIntStream(std::string_view bytes,
                                              size_t count) {
  ByteReader r(bytes.data(), bytes.size());
  std::vector<uint64_t> values;
  if (!GetIntStreamBody(&r, count, &values) || r.remaining() != 0) {
    return Status::ParseError(".gdmz integer stream corrupt");
  }
  return values;
}

bool LooksLikeGdmz(std::string_view bytes) {
  return bytes.size() >= sizeof(kGdmzMagic) &&
         std::memcmp(bytes.data(), kGdmzMagic, sizeof(kGdmzMagic)) == 0;
}

Result<uint64_t> GdmzFramedSize(std::string_view bytes) {
  if (bytes.size() < kGdmzHeaderSize || !LooksLikeGdmz(bytes)) {
    return Status::ParseError("not a .gdmz document (missing GDMZ magic)");
  }
  ByteReader r(bytes.data(), bytes.size());
  (void)r.GetSpan(4);
  uint32_t version = r.GetFixed32();
  uint64_t total = r.GetFixed64();
  if (!r.ok() || version != kGdmzVersion) {
    return Status::ParseError(".gdmz version mismatch");
  }
  if (total < kGdmzHeaderSize || total > bytes.size()) {
    return Status::ParseError(".gdmz truncated: framed size " +
                              std::to_string(total) + " exceeds buffer " +
                              std::to_string(bytes.size()));
  }
  return total;
}

std::string WriteGdmzString(const gdm::Dataset& dataset) {
  // Chromosome name table over every chrom id in the dataset, in first-use
  // order; blobs reference table slots so ids stay process-local. A
  // column-primary sample is sorted, so its chunk order is its row order.
  std::map<int32_t, uint32_t> chrom_table;
  std::vector<int32_t> chrom_ids;
  auto use_chrom = [&](int32_t chrom) {
    if (chrom_table.emplace(chrom, static_cast<uint32_t>(chrom_ids.size()))
            .second) {
      chrom_ids.push_back(chrom);
    }
  };
  for (const auto& s : dataset.samples()) {
    if (const RegionColumns* cols = s.regions.stored_columns()) {
      for (const auto& c : cols->chunks()) use_chrom(c.chrom);
    } else {
      for (const auto& r : s.regions) use_chrom(r.chrom);
    }
  }

  // Body: one column blob per sample, 64-byte aligned. A column-primary
  // sample encodes its own columns (its stored attribute bytes verbatim);
  // rows get temporary columns.
  std::string body;
  ByteWriter body_writer(&body);
  std::vector<std::pair<uint64_t, uint64_t>> blob_spans;  // offset, size
  std::vector<GenomicRegion> scratch;
  for (const auto& s : dataset.samples()) {
    while ((kGdmzHeaderSize + body.size()) % 64 != 0) body_writer.PutByte(0);
    uint64_t offset = kGdmzHeaderSize + body.size();
    if (const RegionColumns* cols = s.regions.stored_columns()) {
      EncodeSampleBlob(&body_writer, *cols, chrom_table);
    } else {
      const std::vector<GenomicRegion>* regions = &s.regions.rows();
      if (!gdm::RegionsSorted(s.regions)) {
        scratch = s.regions;
        gdm::SortRegions(&scratch);
        regions = &scratch;
      }
      EncodeSampleBlob(&body_writer,
                       RegionColumns::Build(*regions, dataset.schema()),
                       chrom_table);
    }
    blob_spans.push_back({offset, kGdmzHeaderSize + body.size() - offset});
  }

  // Directory.
  std::string dir;
  ByteWriter dw(&dir);
  dw.PutString(dataset.name());
  dw.PutVarint(dataset.schema().size());
  for (const auto& a : dataset.schema().attrs()) {
    dw.PutString(a.name);
    dw.PutByte(static_cast<uint8_t>(a.type));
  }
  dw.PutVarint(chrom_ids.size());
  for (int32_t id : chrom_ids) dw.PutString(gdm::ChromName(id));
  MetaDict meta_dict;
  std::vector<std::vector<std::pair<uint32_t, uint32_t>>> sample_meta;
  sample_meta.reserve(dataset.num_samples());
  for (const auto& s : dataset.samples()) {
    auto& entries = sample_meta.emplace_back();
    for (const auto& e : s.metadata.entries()) {
      entries.push_back({meta_dict.Intern(e.attr), meta_dict.Intern(e.value)});
    }
  }
  dw.PutVarint(meta_dict.entries.size());
  for (const std::string* s : meta_dict.entries) dw.PutString(*s);
  dw.PutVarint(dataset.num_samples());
  for (size_t si = 0; si < dataset.num_samples(); ++si) {
    dw.PutFixed64(dataset.sample(si).id);
    dw.PutVarint(sample_meta[si].size());
    for (const auto& [a, v] : sample_meta[si]) {
      dw.PutVarint(a);
      dw.PutVarint(v);
    }
    dw.PutVarint(blob_spans[si].first);
    dw.PutVarint(blob_spans[si].second);
  }

  std::string out;
  out.reserve(kGdmzHeaderSize + body.size() + dir.size());
  ByteWriter hw(&out);
  hw.PutRaw(kGdmzMagic, sizeof(kGdmzMagic));
  hw.PutFixed32(kGdmzVersion);
  hw.PutFixed64(kGdmzHeaderSize + body.size() + dir.size());  // total_size
  hw.PutFixed64(kGdmzHeaderSize + body.size());               // dir_offset
  hw.PutFixed64(dir.size());                                  // dir_size
  out.append(body);
  out.append(dir);
  return out;
}

Status WriteGdmz(const gdm::Dataset& dataset, const std::string& path) {
  std::string bytes = WriteGdmzString(dataset);
  // Written beside the target, flushed to disk and renamed over it, never
  // rewritten in place: a reader that has the old file mapped keeps the
  // old image, and a writer that dies or loses power midway leaves the old
  // file whole (and at worst its temporary file beside it).
  static std::atomic<uint64_t> seq{0};
#ifdef __unix__
  const long pid = static_cast<long>(::getpid());
#else
  const long pid = 0;
#endif
  const std::string tmp = path + ".tmp." + std::to_string(pid) + "." +
                          std::to_string(seq.fetch_add(1));
#ifdef __unix__
  int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) return Status::IoError("cannot open " + tmp + " for writing");
  bool written = true;
  for (size_t off = 0; written && off < bytes.size();) {
    ssize_t n = ::write(fd, bytes.data() + off, bytes.size() - off);
    if (n < 0 && errno == EINTR) continue;
    written = n > 0;
    if (written) off += static_cast<size_t>(n);
  }
  written = written && ::fsync(fd) == 0;
  written = ::close(fd) == 0 && written;
#else
  std::ofstream f(tmp, std::ios::binary | std::ios::trunc);
  if (!f) return Status::IoError("cannot open " + tmp + " for writing");
  f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  f.close();
  const bool written = static_cast<bool>(f);
#endif
  if (!written) {
    std::remove(tmp.c_str());
    return Status::IoError("cannot write " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::IoError("cannot replace " + path);
  }
#ifdef __unix__
  // The rename is durable once the directory holding it is flushed too.
  const size_t slash = path.rfind('/');
  const std::string dir = slash == std::string::npos ? "."
                          : slash == 0               ? "/"
                                                     : path.substr(0, slash);
  int dir_fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (dir_fd >= 0) {
    (void)::fsync(dir_fd);
    ::close(dir_fd);
  }
#endif
  return Status::OK();
}

Result<gdm::Dataset> ReadGdmzBytes(std::string_view bytes) {
  GDMS_ASSIGN_OR_RETURN(uint64_t total, GdmzFramedSize(bytes));
  ByteReader hr(bytes.data(), static_cast<size_t>(total));
  (void)hr.GetSpan(4);
  (void)hr.GetFixed32();
  (void)hr.GetFixed64();
  uint64_t dir_offset = hr.GetFixed64();
  uint64_t dir_size = hr.GetFixed64();
  if (!hr.ok() || dir_offset < kGdmzHeaderSize || dir_offset > total ||
      dir_size > total - dir_offset) {
    return Status::ParseError(".gdmz directory out of bounds");
  }

  ByteReader dr(bytes.data() + dir_offset, static_cast<size_t>(dir_size));
  Dataset ds;
  ds.set_name(dr.GetString());
  uint64_t nattrs = dr.GetVarint();
  if (!dr.ok() || nattrs > 4096) {
    return Status::ParseError(".gdmz directory corrupt (schema)");
  }
  gdm::RegionSchema schema;
  for (uint64_t a = 0; a < nattrs; ++a) {
    std::string name = dr.GetString();
    uint8_t type = dr.GetByte();
    if (!dr.ok() || type > static_cast<uint8_t>(AttrType::kBool)) {
      return Status::ParseError(".gdmz directory corrupt (attr type)");
    }
    GDMS_RETURN_NOT_OK(schema.AddAttr(name, static_cast<AttrType>(type)));
  }
  *ds.mutable_schema() = std::move(schema);

  uint64_t nchroms = dr.GetVarint();
  if (!dr.ok() || nchroms > (1 << 20)) {
    return Status::ParseError(".gdmz directory corrupt (chrom table)");
  }
  std::vector<int32_t> chrom_ids;
  chrom_ids.reserve(static_cast<size_t>(nchroms));
  for (uint64_t c = 0; c < nchroms; ++c) {
    std::string name = dr.GetString();
    if (!dr.ok() || name.empty()) {
      return Status::ParseError(".gdmz directory corrupt (chrom name)");
    }
    chrom_ids.push_back(gdm::InternChrom(name));
  }

  uint64_t ndict = dr.GetVarint();
  if (!dr.ok() || ndict > (1ULL << 32)) {
    return Status::ParseError(".gdmz directory corrupt (metadata dict)");
  }
  std::vector<std::string> meta_dict;
  meta_dict.reserve(static_cast<size_t>(ndict));
  for (uint64_t d = 0; d < ndict; ++d) {
    meta_dict.push_back(dr.GetString());
    if (!dr.ok()) {
      return Status::ParseError(".gdmz directory corrupt (metadata dict)");
    }
  }

  uint64_t nsamples = dr.GetVarint();
  if (!dr.ok() || nsamples > (1ULL << 32)) {
    return Status::ParseError(".gdmz directory corrupt (sample count)");
  }
  for (uint64_t si = 0; si < nsamples; ++si) {
    Sample sample(static_cast<gdm::SampleId>(dr.GetFixed64()));
    uint64_t nmeta = dr.GetVarint();
    if (!dr.ok() || nmeta > (1ULL << 32)) {
      return Status::ParseError(".gdmz directory corrupt (metadata count)");
    }
    for (uint64_t m = 0; m < nmeta; ++m) {
      uint64_t a = dr.GetVarint();
      uint64_t v = dr.GetVarint();
      if (!dr.ok() || a >= meta_dict.size() || v >= meta_dict.size()) {
        return Status::ParseError(".gdmz directory corrupt (metadata ref)");
      }
      sample.metadata.Add(meta_dict[static_cast<size_t>(a)],
                          meta_dict[static_cast<size_t>(v)]);
    }
    uint64_t blob_offset = dr.GetVarint();
    uint64_t blob_size = dr.GetVarint();
    if (!dr.ok() || blob_offset < kGdmzHeaderSize || blob_offset > total ||
        blob_size > total - blob_offset) {
      return Status::ParseError(".gdmz sample blob out of bounds");
    }
    if (!DecodeSampleBlob(bytes.substr(static_cast<size_t>(blob_offset),
                                       static_cast<size_t>(blob_size)),
                          chrom_ids, ds.schema(), &sample)) {
      return Status::ParseError(".gdmz sample blob corrupt (sample " +
                                std::to_string(sample.id) + ")");
    }
    ds.AddSample(std::move(sample));
  }

  // Checks sample-id uniqueness; the decoded columns already hold the
  // schema's types and left <= right, so no rows are built and no
  // attribute is decoded here.
  GDMS_RETURN_NOT_OK(ds.Validate());
  return ds;
}

Result<gdm::Dataset> ReadGdmzString(const std::string& bytes) {
  return ReadGdmzBytes(std::string_view(bytes));
}

// ---------------------------------------------------------------------------
// MappedGdmz
// ---------------------------------------------------------------------------

namespace {

uint64_t PageBytes() {
#ifdef __unix__
  static const uint64_t page = [] {
    long p = ::sysconf(_SC_PAGESIZE);
    return p > 0 ? static_cast<uint64_t>(p) : 4096;
  }();
  return page;
#else
  return 4096;
#endif
}

// Little-endian u64 at `offset` of the image (0 when out of bounds); used
// to recover dir_offset/dir_size from the fixed header layout.
uint64_t HeaderU64(std::string_view bytes, size_t offset) {
  if (bytes.size() < offset + 8) return 0;
  uint64_t v = 0;
  std::memcpy(&v, bytes.data() + offset, 8);
  return v;
}

}  // namespace

MappedGdmz::~MappedGdmz() { Close(); }

void MappedGdmz::Close() {
#ifdef __unix__
  if (map_ != nullptr) ::munmap(map_, size_);
#endif
  map_ = nullptr;
  size_ = 0;
  buffer_.clear();
}

MappedGdmz::MappedGdmz(MappedGdmz&& other) noexcept {
  *this = std::move(other);
}

MappedGdmz& MappedGdmz::operator=(MappedGdmz&& other) noexcept {
  if (this != &other) {
    Close();
    map_ = other.map_;
    size_ = other.size_;
    buffer_ = std::move(other.buffer_);
    other.map_ = nullptr;
    other.size_ = 0;
  }
  return *this;
}

Result<MappedGdmz> MappedGdmz::Open(const std::string& path) {
  MappedGdmz m;
#ifdef __unix__
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd >= 0) {
    struct stat st;
    if (::fstat(fd, &st) == 0 && st.st_size > 0) {
      size_t size = static_cast<size_t>(st.st_size);
      void* map = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
      if (map != MAP_FAILED) {
        ::close(fd);
        m.map_ = map;
        m.size_ = size;
        return m;
      }
    }
    ::close(fd);
  }
#endif
  std::ifstream f(path, std::ios::binary);
  if (!f) return Status::IoError("cannot open " + path);
  m.buffer_.assign((std::istreambuf_iterator<char>(f)),
                   std::istreambuf_iterator<char>());
  return m;
}

std::string_view MappedGdmz::bytes() const {
  if (map_ != nullptr) {
    return std::string_view(static_cast<const char*>(map_), size_);
  }
  return std::string_view(buffer_);
}

uint64_t MappedGdmz::map_length() const {
  return map_ != nullptr ? size_ : buffer_.size();
}

Result<gdm::Dataset> MappedGdmz::Parse() const {
  return ReadGdmzBytes(bytes());
}

void MappedGdmz::WillNeedPrefix() const {
#ifdef __unix__
  if (map_ == nullptr) return;
  char* base = static_cast<char*>(map_);
  uint64_t page = PageBytes();
  // Header plus the first sample blobs: cheap insurance against a cold
  // first query paying one major fault per decoded chunk.
  size_t prefix = std::min<size_t>(size_, 256 * 1024);
  (void)::madvise(base, prefix, MADV_WILLNEED);
  // The directory sits at the tail; every parse walks all of it.
  uint64_t dir_offset = HeaderU64(bytes(), 16);
  uint64_t dir_size = HeaderU64(bytes(), 24);
  if (dir_offset >= kGdmzHeaderSize && dir_offset < size_ &&
      dir_size <= size_ - dir_offset) {
    uint64_t begin = dir_offset / page * page;
    (void)::madvise(base + begin, dir_offset + dir_size - begin,
                    MADV_WILLNEED);
  }
#endif
}

Result<gdm::Dataset> OpenGdmz(const std::string& path) {
  static obs::Counter* opens = obs::MetricsRegistry::Global().GetCounter(
      "gdms_storage_gdmz_opens_total");
  static obs::Gauge* open_map = obs::MetricsRegistry::Global().GetGauge(
      "gdms_storage_gdmz_open_map_bytes");
  auto opened = MappedGdmz::Open(path);
  if (!opened.ok()) return opened.status();
  MappedGdmz mapped = std::move(opened).value();
  opens->Add();
  open_map->Set(static_cast<int64_t>(mapped.map_length()));
  mapped.WillNeedPrefix();
  return mapped.Parse();
}

}  // namespace gdms::io

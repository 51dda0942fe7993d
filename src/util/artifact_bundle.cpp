#include "util/artifact_bundle.hpp"

#include <algorithm>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <istream>
#include <limits>
#include <stdexcept>
#include <streambuf>

namespace tsunami {

namespace {

constexpr std::uint64_t kBundleMagic = 0x5453'42554e444c45ULL;  // "TSBUNDLE"
constexpr std::uint64_t kMaxSectionNameBytes = 4096;
constexpr std::uint64_t kMaxSectionDims = 16;
constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;
constexpr std::size_t kWord = sizeof(std::uint64_t);

std::uint64_t checksum_step(std::uint64_t h, std::uint64_t w) {
  return (h ^ w) * kFnvPrime;
}

std::uint64_t load_word(const unsigned char* p) {
  std::uint64_t w = 0;
  std::memcpy(&w, p, kWord);
  return w;
}

void append_bytes(std::vector<char>& buf, const void* p, std::size_t n) {
  const char* c = static_cast<const char*>(p);
  buf.insert(buf.end(), c, c + n);
}

void append_u64(std::vector<char>& buf, std::uint64_t v) {
  append_bytes(buf, &v, sizeof(v));
}

/// A stream that ended before the size its reader was promised: the file
/// shrank, or the device failed. Never deferred behind the checksum, since
/// the rest of the body cannot be read.
struct ShortRead : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Reads a bundle body front to back, bounded by its stated length, and
/// checksums every byte it hands out, in the storage it hands it to. A read
/// past the body's end is refused as a truncated field before anything is
/// read, so the stream is never asked for a byte past the stated size.
class BodyReader {
 public:
  BodyReader(std::istream& in, std::uint64_t body, const std::string& source)
      : in_(in), left_(body), source_(source) {}

  std::uint64_t u64(const char* what) {
    std::uint64_t v = 0;
    take(&v, sizeof(v), what);
    return v;
  }

  void doubles(double* out, std::uint64_t count, const char* what) {
    const std::uint64_t bytes =
        checked_mul_u64(count, sizeof(double), "parse_bundle: payload");
    take(out, bytes, what);
  }

  std::string string(std::uint64_t nbytes, const char* what) {
    std::string s(static_cast<std::size_t>(nbytes), '\0');
    take(s.data(), nbytes, what);
    return s;
  }

  [[nodiscard]] std::uint64_t remaining() const { return left_; }

  /// Checksums the rest of the body, through a small buffer.
  void skip_rest() {
    char buf[4096];
    while (left_ != 0) {
      const auto n = static_cast<std::size_t>(
          std::min<std::uint64_t>(left_, sizeof(buf)));
      take(buf, n, "body");
    }
  }

  /// The body's checksum; valid once remaining() is 0.
  [[nodiscard]] std::uint64_t digest() const { return sum_.digest(); }

  /// The stored checksum word that follows the body (not itself summed).
  std::uint64_t trailer() {
    std::uint64_t v = 0;
    read(&v, sizeof(v));
    return v;
  }

 private:
  [[noreturn]] void truncated(const char* what) const {
    throw std::runtime_error("parse_bundle: truncated " + std::string(what) +
                             ": " + source_);
  }

  void take(void* out, std::uint64_t nbytes, const char* what) {
    if (left_ < nbytes) truncated(what);
    read(out, nbytes);
    sum_.update(out, static_cast<std::size_t>(nbytes));
    left_ -= nbytes;
  }

  void read(void* out, std::uint64_t nbytes) {
    in_.read(static_cast<char*>(out), static_cast<std::streamsize>(nbytes));
    if (static_cast<std::uint64_t>(in_.gcount()) != nbytes)
      throw ShortRead("read_bundle: short read: " + source_);
  }

  std::istream& in_;
  std::uint64_t left_;  ///< body bytes not yet read
  BundleChecksum sum_;
  const std::string& source_;
};

/// Read-only stream buffer over a caller's bytes: parse_bundle's way into
/// read_bundle. The get area is never written through.
class SpanBuf : public std::streambuf {
 public:
  explicit SpanBuf(std::span<const std::byte> bytes) {
    char* p = const_cast<char*>(reinterpret_cast<const char*>(bytes.data()));
    setg(p, p, p + bytes.size());
  }
};

[[noreturn]] void throw_missing(const std::string& name) {
  throw std::runtime_error("artifact_bundle: missing section '" + name + "'");
}

void expect_rank(const BundleSection& s, std::size_t rank, const char* kind) {
  if (s.dims.size() != rank)
    throw std::runtime_error("artifact_bundle: section '" + s.name +
                             "' is not a " + kind);
}

std::uint64_t dims_product(const std::vector<std::uint64_t>& dims,
                           const char* what) {
  std::uint64_t n = 1;
  for (const std::uint64_t d : dims) n = checked_mul_u64(n, d, what);
  return n;
}

}  // namespace

std::uint64_t checked_mul_u64(std::uint64_t a, std::uint64_t b,
                              const char* what) {
  if (b != 0 && a > std::numeric_limits<std::uint64_t>::max() / b)
    throw std::runtime_error(std::string(what) +
                             ": integer overflow in size computation");
  return a * b;
}

std::uint64_t fnv1a(const void* data, std::size_t nbytes, std::uint64_t h) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < nbytes; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
  return h;
}

BundleChecksum::BundleChecksum() {
  std::fill(lane_, lane_ + kLanes, kFnvBasis);
}

void BundleChecksum::update(const void* data, std::size_t nbytes) {
  if (nbytes == 0) return;
  const auto* p = static_cast<const unsigned char*>(data);
  const auto step_word = [this](const unsigned char* w) {
    std::uint64_t& h = lane_[words_++ % kLanes];
    h = checksum_step(h, load_word(w));
  };
  if (ntail_ != 0) {  // complete the word an earlier piece started
    const std::size_t k = std::min(kWord - ntail_, nbytes);
    std::memcpy(tail_ + ntail_, p, k);
    ntail_ += k;
    p += k;
    nbytes -= k;
    if (ntail_ < kWord) return;
    step_word(tail_);
    ntail_ = 0;
  }
  // Single words up to a lane-0 boundary, then whole groups of eight
  // independent chains, then the words left over.
  for (; words_ % kLanes != 0 && nbytes >= kWord; p += kWord, nbytes -= kWord)
    step_word(p);
  constexpr std::size_t kGroup = kLanes * kWord;
  std::uint64_t lane[kLanes];
  std::copy(lane_, lane_ + kLanes, lane);
  for (; nbytes >= kGroup; p += kGroup, nbytes -= kGroup, words_ += kLanes)
    for (std::size_t k = 0; k < kLanes; ++k)
      lane[k] = checksum_step(lane[k], load_word(p + k * kWord));
  std::copy(lane, lane + kLanes, lane_);
  for (; nbytes >= kWord; p += kWord, nbytes -= kWord) step_word(p);
  std::memcpy(tail_, p, nbytes);
  ntail_ = nbytes;
}

std::uint64_t BundleChecksum::digest() const {
  std::uint64_t h = kFnvBasis;
  for (const std::uint64_t l : lane_) h = checksum_step(h, l);
  return fnv1a(tail_, ntail_, h);
}

std::uint64_t bundle_checksum(const void* data, std::size_t nbytes) {
  BundleChecksum sum;
  sum.update(data, nbytes);
  return sum.digest();
}

void ArtifactBundle::set(std::string name, std::vector<std::uint64_t> dims,
                         std::vector<double> data) {
  if (dims_product(dims, "ArtifactBundle::set") != data.size())
    throw std::invalid_argument("ArtifactBundle::set: dims/data mismatch for " +
                                name);
  for (auto& s : sections_) {
    if (s.name == name) {
      s.dims = std::move(dims);
      s.data = std::move(data);
      return;
    }
  }
  sections_.push_back({std::move(name), std::move(dims), std::move(data)});
}

void ArtifactBundle::set_matrix(const std::string& name, const Matrix& m) {
  set(name, {m.rows(), m.cols()},
      std::vector<double>(m.data(), m.data() + m.size()));
}

void ArtifactBundle::set_vector(const std::string& name,
                                std::span<const double> v) {
  set(name, {v.size()}, std::vector<double>(v.begin(), v.end()));
}

bool ArtifactBundle::has(const std::string& name) const {
  return std::any_of(sections_.begin(), sections_.end(),
                     [&](const BundleSection& s) { return s.name == name; });
}

const BundleSection& ArtifactBundle::at(const std::string& name) const {
  for (const auto& s : sections_)
    if (s.name == name) return s;
  throw_missing(name);
}

Matrix ArtifactBundle::matrix(const std::string& name) const {
  const BundleSection& s = at(name);
  expect_rank(s, 2, "matrix");
  return Matrix(static_cast<std::size_t>(s.dims[0]),
                static_cast<std::size_t>(s.dims[1]),
                std::vector<double>(s.data));
}

std::vector<double> ArtifactBundle::vector(const std::string& name) const {
  const BundleSection& s = at(name);
  expect_rank(s, 1, "vector");
  return s.data;
}

BundleSection ArtifactBundle::take(const std::string& name) {
  const auto it =
      std::find_if(sections_.begin(), sections_.end(),
                   [&](const BundleSection& s) { return s.name == name; });
  if (it == sections_.end()) throw_missing(name);
  BundleSection s = std::move(*it);
  sections_.erase(it);
  return s;
}

Matrix ArtifactBundle::take_matrix(const std::string& name) {
  expect_rank(at(name), 2, "matrix");
  BundleSection s = take(name);
  return Matrix(static_cast<std::size_t>(s.dims[0]),
                static_cast<std::size_t>(s.dims[1]), std::move(s.data));
}

void save_bundle(const std::string& path, const ArtifactBundle& bundle) {
  std::vector<char> buf;
  append_u64(buf, kBundleMagic);
  append_u64(buf, kBundleFormatVersion);
  append_u64(buf, bundle.fingerprint);
  append_u64(buf, bundle.sections().size());
  for (const BundleSection& s : bundle.sections()) {
    if (s.name.size() > kMaxSectionNameBytes)
      throw std::invalid_argument("save_bundle: section name too long");
    append_u64(buf, s.name.size());
    append_bytes(buf, s.name.data(), s.name.size());
    append_u64(buf, s.dims.size());
    for (const std::uint64_t d : s.dims) append_u64(buf, d);
    append_bytes(buf, s.data.data(), s.data.size() * sizeof(double));
  }
  append_u64(buf, bundle_checksum(buf.data(), buf.size()));

  std::ofstream f(path, std::ios::binary);
  if (!f)
    throw std::runtime_error("save_bundle: cannot open for write: " + path);
  f.write(buf.data(), static_cast<std::streamsize>(buf.size()));
  f.flush();
  if (!f) throw std::runtime_error("save_bundle: write failed: " + path);
}

ArtifactBundle read_bundle(std::istream& in, std::uint64_t size,
                           const std::string& source) {
  // Header (4 u64) + trailing checksum is the smallest legal bundle.
  if (size < 5 * sizeof(std::uint64_t))
    throw std::runtime_error("parse_bundle: too small to be a bundle: " +
                             source);
  BodyReader r(in, size - sizeof(std::uint64_t), source);
  if (r.u64("magic") != kBundleMagic)
    throw std::runtime_error("parse_bundle: bad file signature: " + source);
  const std::uint64_t version = r.u64("version");
  if (version != kBundleFormatVersion)
    throw std::runtime_error("parse_bundle: unsupported format version " +
                             std::to_string(version) + ": " + source);

  // Sections are parsed as they stream past the checksum. A structural
  // error waits until the whole body is summed: a damaged file is refused
  // as a checksum mismatch, and only an intact one for its structure.
  ArtifactBundle bundle;
  std::exception_ptr malformed;
  try {
    bundle.fingerprint = r.u64("fingerprint");
    const std::uint64_t nsections = r.u64("section count");
    for (std::uint64_t i = 0; i < nsections; ++i) {
      const std::uint64_t name_len = r.u64("section name length");
      if (name_len > kMaxSectionNameBytes)
        throw std::runtime_error("parse_bundle: section name too long: " +
                                 source);
      std::string name = r.string(name_len, "section name");
      const std::uint64_t ndims = r.u64("section rank");
      if (ndims > kMaxSectionDims)
        throw std::runtime_error("parse_bundle: section rank too large: " +
                                 source);
      std::vector<std::uint64_t> dims(static_cast<std::size_t>(ndims));
      for (auto& d : dims) d = r.u64("section dims");
      const std::uint64_t count = dims_product(dims, "parse_bundle: dims");
      // The remaining-bytes check also caps the allocation: count can
      // never exceed what the body actually holds.
      if (checked_mul_u64(count, sizeof(double), "parse_bundle: payload") >
          r.remaining())
        throw std::runtime_error(
            "parse_bundle: section '" + name +
            "' dimensions exceed the file payload (corrupt header): " +
            source);
      std::vector<double> payload(static_cast<std::size_t>(count));
      r.doubles(payload.data(), count, "section payload");
      bundle.set(std::move(name), std::move(dims), std::move(payload));
    }
    if (r.remaining() != 0)
      throw std::runtime_error("parse_bundle: trailing bytes after sections: " +
                               source);
  } catch (const ShortRead&) {
    throw;
  } catch (const std::runtime_error&) {
    malformed = std::current_exception();
    r.skip_rest();
  }
  if (r.digest() != r.trailer())
    throw std::runtime_error(
        "parse_bundle: checksum mismatch (corrupt file): " + source);
  if (malformed) std::rethrow_exception(malformed);
  return bundle;
}

ArtifactBundle parse_bundle(std::span<const std::byte> bytes,
                            const std::string& source) {
  SpanBuf buf(bytes);
  std::istream in(&buf);
  return read_bundle(in, bytes.size(), source);
}

ArtifactBundle load_bundle(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f)
    throw std::runtime_error("load_bundle: cannot open for read: " + path);
  std::error_code ec;
  const auto fsize = std::filesystem::file_size(path, ec);
  if (ec) throw std::runtime_error("load_bundle: cannot stat: " + path);
  return read_bundle(f, fsize, path);
}

}  // namespace tsunami

#include "util/artifact_bundle.hpp"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <stdexcept>

namespace tsunami {

namespace {

constexpr std::uint64_t kBundleMagic = 0x5453'42554e444c45ULL;  // "TSBUNDLE"
constexpr std::uint64_t kMaxSectionNameBytes = 4096;
constexpr std::uint64_t kMaxSectionDims = 16;

void append_bytes(std::vector<char>& buf, const void* p, std::size_t n) {
  const char* c = static_cast<const char*>(p);
  buf.insert(buf.end(), c, c + n);
}

void append_u64(std::vector<char>& buf, std::uint64_t v) {
  append_bytes(buf, &v, sizeof(v));
}

/// Bounds-checked cursor over the in-memory file image. Every read is
/// validated against the buffer end, so a lying header can at worst raise a
/// clean error — never an over-read.
class Cursor {
 public:
  Cursor(const char* data, std::size_t size, const std::string& path)
      : p_(data), end_(data + size), path_(path) {}

  std::uint64_t u64(const char* what) {
    std::uint64_t v = 0;
    take(&v, sizeof(v), what);
    return v;
  }

  void doubles(double* out, std::uint64_t count, const char* what) {
    const std::uint64_t bytes =
        checked_mul_u64(count, sizeof(double), "artifact_bundle: payload");
    take(out, bytes, what);
  }

  std::string string(std::uint64_t nbytes, const char* what) {
    std::string s(static_cast<std::size_t>(nbytes), '\0');
    take(s.data(), nbytes, what);
    return s;
  }

  [[nodiscard]] std::uint64_t remaining() const {
    return static_cast<std::uint64_t>(end_ - p_);
  }

 private:
  void take(void* out, std::uint64_t nbytes, const char* what) {
    if (remaining() < nbytes)
      throw std::runtime_error("artifact_bundle: truncated " +
                               std::string(what) + ": " + path_);
    std::memcpy(out, p_, static_cast<std::size_t>(nbytes));
    p_ += nbytes;
  }

  const char* p_;
  const char* end_;
  const std::string& path_;
};

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
    h *= 0x100000001b3ULL;
  }
  return h;
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
  throw std::runtime_error("artifact_bundle: missing section '" + name + "'");
}

Matrix ArtifactBundle::matrix(const std::string& name) const {
  const BundleSection& s = at(name);
  if (s.dims.size() != 2)
    throw std::runtime_error("artifact_bundle: section '" + name +
                             "' is not a matrix");
  Matrix m(static_cast<std::size_t>(s.dims[0]),
           static_cast<std::size_t>(s.dims[1]));
  std::copy(s.data.begin(), s.data.end(), m.data());
  return m;
}

std::vector<double> ArtifactBundle::vector(const std::string& name) const {
  const BundleSection& s = at(name);
  if (s.dims.size() != 1)
    throw std::runtime_error("artifact_bundle: section '" + name +
                             "' is not a vector");
  return s.data;
}

std::uint64_t ArtifactBundle::payload_bytes() const {
  std::uint64_t n = 0;
  for (const auto& s : sections_)
    n += static_cast<std::uint64_t>(s.data.size()) * sizeof(double);
  return n;
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
  append_u64(buf, fnv1a(buf.data(), buf.size()));

  std::ofstream f(path, std::ios::binary);
  if (!f)
    throw std::runtime_error("save_bundle: cannot open for write: " + path);
  f.write(buf.data(), static_cast<std::streamsize>(buf.size()));
  f.flush();
  if (!f) throw std::runtime_error("save_bundle: write failed: " + path);
}

ArtifactBundle load_bundle(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f)
    throw std::runtime_error("load_bundle: cannot open for read: " + path);
  std::error_code ec;
  const auto fsize = std::filesystem::file_size(path, ec);
  if (ec) throw std::runtime_error("load_bundle: cannot stat: " + path);
  // Header (4 u64) + trailing checksum is the smallest legal bundle.
  if (fsize < 5 * sizeof(std::uint64_t))
    throw std::runtime_error("load_bundle: file too small to be a bundle: " +
                             path);
  if (fsize > std::numeric_limits<std::size_t>::max())
    throw std::runtime_error("load_bundle: file too large: " + path);
  std::vector<char> buf(static_cast<std::size_t>(fsize));
  f.read(buf.data(), static_cast<std::streamsize>(buf.size()));
  if (!f || static_cast<std::uint64_t>(f.gcount()) != fsize)
    throw std::runtime_error("load_bundle: short read: " + path);

  // Verify the trailing checksum before trusting any field.
  const std::size_t body = buf.size() - sizeof(std::uint64_t);
  std::uint64_t stored = 0;
  std::memcpy(&stored, buf.data() + body, sizeof(stored));
  if (fnv1a(buf.data(), body) != stored)
    throw std::runtime_error("load_bundle: checksum mismatch (corrupt file): " +
                             path);

  Cursor c(buf.data(), body, path);
  if (c.u64("magic") != kBundleMagic)
    throw std::runtime_error("load_bundle: bad file signature: " + path);
  const std::uint64_t version = c.u64("version");
  if (version != kBundleFormatVersion)
    throw std::runtime_error("load_bundle: unsupported format version " +
                             std::to_string(version) + ": " + path);
  ArtifactBundle bundle;
  bundle.fingerprint = c.u64("fingerprint");
  const std::uint64_t nsections = c.u64("section count");
  for (std::uint64_t i = 0; i < nsections; ++i) {
    const std::uint64_t name_len = c.u64("section name length");
    if (name_len > kMaxSectionNameBytes)
      throw std::runtime_error("load_bundle: section name too long: " + path);
    std::string name = c.string(name_len, "section name");
    const std::uint64_t ndims = c.u64("section rank");
    if (ndims > kMaxSectionDims)
      throw std::runtime_error("load_bundle: section rank too large: " + path);
    std::vector<std::uint64_t> dims(static_cast<std::size_t>(ndims));
    for (auto& d : dims) d = c.u64("section dims");
    const std::uint64_t count = dims_product(dims, "load_bundle: dims");
    // The remaining-bytes check below also caps the allocation: count can
    // never exceed what the file actually holds.
    if (checked_mul_u64(count, sizeof(double), "load_bundle: payload") >
        c.remaining())
      throw std::runtime_error(
          "load_bundle: section '" + name +
          "' dimensions exceed the file payload (corrupt header): " + path);
    std::vector<double> data(static_cast<std::size_t>(count));
    c.doubles(data.data(), count, "section payload");
    bundle.set(std::move(name), std::move(dims), std::move(data));
  }
  if (c.remaining() != 0)
    throw std::runtime_error("load_bundle: trailing bytes after sections: " +
                             path);
  return bundle;
}

}  // namespace tsunami

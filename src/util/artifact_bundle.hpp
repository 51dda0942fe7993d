#pragma once

// The versioned artifact bundle: ONE file carrying everything the online
// phase needs.
//
// The paper's deployment story (SecVIII) ships the Phase 1-3 products — p2o
// block columns, the Cholesky factor L of the data-space Hessian K (its
// lower triangle packed by rows, one dimension of n(n+1)/2 doubles),
// Gamma_post(q), the forecast slab R (the data-to-QoI map is R^T L^{-1}) —
// from the HPC system to a warning center that runs Phase 4 with no HPC at
// all. This module packs them into a single self-describing container, so
// the hand-off is one artifact, not a directory convention:
//
//   u64 magic "TSBUNDLE"            ─┐
//   u64 format version               │ header
//   u64 producer config fingerprint ─┘
//   u64 section count
//   per section:
//     u64 name length, name bytes
//     u64 ndims, u64 dims[ndims]
//     f64 payload[prod(dims)]
//   u64 bundle_checksum over every preceding byte (the body)
//
// The loader reads the file once, front to back, through the stream's own
// small buffer: each payload lands straight in its section's storage, and
// the checksum runs over exactly the bytes the parser keeps (the names, the
// dimensions and the payloads, where they end up). The magic and the version
// are read first. Every read is bounded by the size the caller stated, with
// checked multiplication on all dimension products, so a lying header can
// never over-allocate or over-read. A structural error (a truncated field,
// dimensions past the payload, trailing bytes) is reported only after the
// rest of the body has been checksummed: a damaged file is refused as a
// checksum mismatch, and only a file whose checksum holds is refused for its
// structure. Either way std::runtime_error names the source. A bundle of
// another format version is refused as such, before its checksum is read.
//
// The container is deliberately generic (named sections of dimensioned
// double arrays). What goes in the sections — and the TwinConfig fingerprint
// stored in the header — is the digital twin's business
// (DigitalTwin::save_offline / load_offline in core/digital_twin.hpp).

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "linalg/dense.hpp"

namespace tsunami {

/// Bump when the on-disk layout changes; loaders reject other versions.
/// 2: the body is checksummed with bundle_checksum (version 1 used fnv1a)
/// and the forecast slab R ships. 3: L packed by rows (version 2 shipped
/// it square, upper triangle zero).
inline constexpr std::uint64_t kBundleFormatVersion = 3;

/// a * b with overflow detection. Header dimensions come straight off disk,
/// so every size computation on them must refuse to wrap: a wrapped product
/// silently undersizes the destination buffer and turns a corrupt header
/// into a heap overflow. Throws std::runtime_error naming `what`.
[[nodiscard]] std::uint64_t checked_mul_u64(std::uint64_t a, std::uint64_t b,
                                            const char* what);

/// FNV-1a 64-bit hash: the TwinConfig fingerprint and the hashes the tests
/// pin. One dependent multiply per byte, so the bundle body has its own
/// checksum (bundle_checksum). `h` chains calls: fnv1a(b, nb, fnv1a(a, na)).
[[nodiscard]] std::uint64_t fnv1a(
    const void* data, std::size_t nbytes,
    std::uint64_t h = 0xcbf29ce484222325ULL);

/// The bundle body's checksum. Word i of the body's 8-byte words goes to
/// lane i mod 8; each lane starts at FNV-1a's offset basis and steps
/// h = (h ^ w) * p with FNV-1a's odd prime p; the lanes are folded one by
/// one into one hash with the same step, and the last nbytes mod 8 bytes
/// run through fnv1a. Every step is a bijection of h and of w, so changing
/// one word or one tail byte always changes the result. The eight lanes are
/// independent multiply chains, so the hash keeps up with memory where
/// fnv1a waits on one multiply per byte.
[[nodiscard]] std::uint64_t bundle_checksum(const void* data,
                                            std::size_t nbytes);

/// bundle_checksum fed in pieces: update() with consecutive slices of the
/// body, then digest(). The pieces may split words anywhere; the digest
/// equals bundle_checksum over their concatenation.
class BundleChecksum {
 public:
  BundleChecksum();
  void update(const void* data, std::size_t nbytes);
  [[nodiscard]] std::uint64_t digest() const;

 private:
  static constexpr std::size_t kLanes = 8;
  std::uint64_t lane_[kLanes];
  std::uint64_t words_ = 0;     ///< whole words stepped so far
  unsigned char tail_[8] = {};  ///< bytes of a word not yet complete
  std::size_t ntail_ = 0;
};

/// One named, dimensioned payload inside a bundle.
struct BundleSection {
  std::string name;
  std::vector<std::uint64_t> dims;
  std::vector<double> data;  ///< size == product of dims
};

/// In-memory bundle: an ordered set of named sections plus the producer's
/// config fingerprint. Value type; build with set_*, persist with
/// save_bundle, restore with load_bundle (or parse_bundle).
class ArtifactBundle {
 public:
  std::uint64_t fingerprint = 0;  ///< producer TwinConfig fingerprint

  /// Add (or replace) a section. Throws std::invalid_argument if the
  /// product of `dims` does not equal data.size().
  void set(std::string name, std::vector<std::uint64_t> dims,
           std::vector<double> data);
  void set_matrix(const std::string& name, const Matrix& m);
  void set_vector(const std::string& name, std::span<const double> v);

  [[nodiscard]] bool has(const std::string& name) const;
  /// Throws std::runtime_error naming the missing section.
  [[nodiscard]] const BundleSection& at(const std::string& name) const;
  /// Typed access with shape checks (2-D / 1-D respectively).
  [[nodiscard]] Matrix matrix(const std::string& name) const;
  [[nodiscard]] std::vector<double> vector(const std::string& name) const;

  /// Remove a section and return it, payload moved, not copied: how the
  /// owner of a loaded bundle hands each payload to its consumer. Throws
  /// like at().
  [[nodiscard]] BundleSection take(const std::string& name);
  /// take() of a 2-D section as a Matrix that adopts its payload; throws
  /// like matrix().
  [[nodiscard]] Matrix take_matrix(const std::string& name);

  [[nodiscard]] const std::vector<BundleSection>& sections() const {
    return sections_;
  }

 private:
  std::vector<BundleSection> sections_;  ///< insertion order preserved
};

/// Serialize with trailing checksum. Throws std::runtime_error on I/O
/// failure (flushes before the final check — a buffered write failure is
/// never reported as success).
void save_bundle(const std::string& path, const ArtifactBundle& bundle);

/// Parse and fully validate a bundle image of `size` bytes read from `in`:
/// magic, version, checksum, per-section bounds. Reads exactly `size`
/// bytes, so later bytes (a file that grew after its size was taken) are
/// never read; a stream that ends early (a file that shrank) is refused as
/// a short read. `source` names the bytes in error messages.
[[nodiscard]] ArtifactBundle read_bundle(std::istream& in, std::uint64_t size,
                                         const std::string& source);

/// read_bundle over an in-memory bundle image.
[[nodiscard]] ArtifactBundle parse_bundle(std::span<const std::byte> bytes,
                                          const std::string& source = "<memory>");

/// Open a bundle file, take its size, and read_bundle it.
[[nodiscard]] ArtifactBundle load_bundle(const std::string& path);

}  // namespace tsunami

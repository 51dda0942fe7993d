#pragma once

// The versioned artifact bundle: ONE file carrying everything the online
// phase needs.
//
// The paper's deployment story (SecVIII) ships the Phase 1-3 products — p2o
// block columns, the Cholesky factor of the data-space Hessian K, the
// data-to-QoI map Q, Gamma_post(q) — from the HPC system to a warning center
// that runs Phase 4 with no HPC at all. This module packs them into a single
// self-describing container, so the hand-off is one artifact, not a
// directory convention:
//
//   u64 magic "TSBUNDLE"            ─┐
//   u64 format version               │ header
//   u64 producer config fingerprint ─┘
//   u64 section count
//   per section:
//     u64 name length, name bytes
//     u64 ndims, u64 dims[ndims]
//     f64 payload[prod(dims)]
//   u64 FNV-1a checksum over every preceding byte
//
// The loader reads the whole file into memory first (bundles are small by
// design — that is the point of the offline/online split), verifies the
// trailing checksum before trusting anything, and bounds-checks every read
// against the buffer, with checked multiplication on all dimension products.
// A corrupt, truncated, or malicious bundle raises std::runtime_error with
// the path; it can never over-allocate or over-read.
//
// The container is deliberately generic (named sections of dimensioned
// double arrays). What goes in the sections — and the TwinConfig fingerprint
// stored in the header — is the digital twin's business
// (DigitalTwin::save_offline / load_offline in core/digital_twin.hpp).

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "linalg/dense.hpp"

namespace tsunami {

/// Bump when the on-disk layout changes; loaders reject other versions.
inline constexpr std::uint64_t kBundleFormatVersion = 1;

/// a * b with overflow detection. Header dimensions come straight off disk,
/// so every size computation on them must refuse to wrap: a wrapped product
/// silently undersizes the destination buffer and turns a corrupt header
/// into a heap overflow. Throws std::runtime_error naming `what`.
[[nodiscard]] std::uint64_t checked_mul_u64(std::uint64_t a, std::uint64_t b,
                                            const char* what);

/// FNV-1a 64-bit hash, used for both the whole-file checksum and the
/// TwinConfig fingerprint. `h` chains calls: fnv1a(b, nb, fnv1a(a, na)).
[[nodiscard]] std::uint64_t fnv1a(
    const void* data, std::size_t nbytes,
    std::uint64_t h = 0xcbf29ce484222325ULL);

/// One named, dimensioned payload inside a bundle.
struct BundleSection {
  std::string name;
  std::vector<std::uint64_t> dims;
  std::vector<double> data;  ///< size == product of dims
};

/// In-memory bundle: an ordered set of named sections plus the producer's
/// config fingerprint. Value type; build with set_*, persist with
/// save_bundle, restore with load_bundle.
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

  [[nodiscard]] const std::vector<BundleSection>& sections() const {
    return sections_;
  }
  /// Payload bytes across all sections (the shippable size).
  [[nodiscard]] std::uint64_t payload_bytes() const;

 private:
  std::vector<BundleSection> sections_;  ///< insertion order preserved
};

/// Serialize with trailing checksum. Throws std::runtime_error on I/O
/// failure (flushes before the final check — a buffered write failure is
/// never reported as success).
void save_bundle(const std::string& path, const ArtifactBundle& bundle);

/// Load and fully validate (magic, version, checksum, per-section bounds).
[[nodiscard]] ArtifactBundle load_bundle(const std::string& path);

}  // namespace tsunami

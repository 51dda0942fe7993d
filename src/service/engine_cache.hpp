#pragma once

// EngineCache: one immutable StreamingEngine per sensor network, shared by
// every concurrent event session.
//
// The offline products (F, L, Gamma_post(q) and the forecast slab R)
// are by far the largest allocations in the online system, and they are
// event-independent: a warning service tracking
// hundreds of simultaneous events over the same network must hold exactly
// one copy. The cache keys engines by TwinConfig::fingerprint() — the same
// FNV-1a identity the artifact bundle stores — so two bundles produced by
// identical configurations resolve to the same in-memory engine, and a
// service covering several networks (e.g. Cascadia segments with different
// sensor layouts) holds one engine per distinct fingerprint.
//
// Lifetime: a cache entry owns its twin via shared_ptr and hands out
// shared_ptr<const CachedEngine>, so sessions keep the operators alive even
// if the entry is evicted (clear()) mid-event — the twin's streaming
// lifetime token stays valid for as long as any session holds the entry.

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "core/digital_twin.hpp"

namespace tsunami {

/// One cached per-network engine: the twin that owns the offline operators
/// plus the immutable streaming precompute over them. Sessions share a
/// single CachedEngine; everything reachable from it is const.
class CachedEngine {
 public:
  CachedEngine(std::shared_ptr<const DigitalTwin> twin,
               const StreamingOptions& options);

  [[nodiscard]] const DigitalTwin& twin() const { return *twin_; }
  [[nodiscard]] const StreamingEngine& engine() const { return engine_; }
  [[nodiscard]] std::uint64_t fingerprint() const { return fingerprint_; }

 private:
  std::shared_ptr<const DigitalTwin> twin_;  ///< keeps the operators alive
  std::uint64_t fingerprint_;
  StreamingEngine engine_;  ///< reads *twin_'s R; built after twin_
};

/// Thread-safe registry of CachedEngines keyed by config fingerprint.
class EngineCache {
 public:
  /// `options` apply to every engine the cache builds. MAP tracking builds
  /// nothing extra, so one cache serves every session of a network; its
  /// track_map only decides whether map_estimate() may be called
  /// (map_snapshot() works on either).
  explicit EngineCache(const StreamingOptions& options = {});

  /// Boot-or-reuse from an artifact bundle file. A known path is a pure
  /// map lookup; a new path is read and checksummed whole (one pass) to
  /// learn its fingerprint, and a fingerprint hit skips the twin boot and
  /// engine build entirely (a known network shipped under a new file name
  /// stays cheaper). Only a genuinely new network pays the warm start — zero PDE
  /// solves — and the engine build, outside the cache lock. Two threads
  /// racing to load the same new network may both parse the bundle, but
  /// exactly one engine is kept and both get it.
  [[nodiscard]] std::shared_ptr<const CachedEngine> load(
      const std::string& bundle_path);

  /// Insert an already-built twin (e.g. the cold-path twin in tests, or one
  /// booted elsewhere). Requires completed offline phases. If an engine
  /// with the same fingerprint is already cached, that instance is returned
  /// and `twin` is dropped — the cache guarantees one engine per network.
  [[nodiscard]] std::shared_ptr<const CachedEngine> adopt(
      std::shared_ptr<const DigitalTwin> twin);

  /// The cached engine for `fingerprint`, or nullptr.
  [[nodiscard]] std::shared_ptr<const CachedEngine> find(
      std::uint64_t fingerprint) const;

  [[nodiscard]] std::size_t size() const;

  /// Drop every entry. Sessions holding shared_ptrs keep their engines
  /// alive; future load()s rebuild.
  void clear();

 private:
  [[nodiscard]] std::shared_ptr<const CachedEngine> insert_or_get(
      std::shared_ptr<const CachedEngine> candidate);

  StreamingOptions options_;
  mutable std::mutex mutex_;
  std::map<std::uint64_t, std::shared_ptr<const CachedEngine>> engines_;
  /// Memo of bundle path -> fingerprint so repeat load()s skip file I/O.
  std::map<std::string, std::uint64_t> path_fingerprints_;
};

}  // namespace tsunami

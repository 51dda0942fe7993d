#include "service/engine_cache.hpp"

#include <stdexcept>
#include <utility>

#include "util/artifact_bundle.hpp"

namespace tsunami {

namespace {

std::shared_ptr<const DigitalTwin> require_online(
    std::shared_ptr<const DigitalTwin> twin) {
  if (!twin) throw std::invalid_argument("CachedEngine: null twin");
  if (!twin->online_ready())
    throw std::logic_error(
        "CachedEngine: twin's offline phases are not complete");
  return twin;
}

}  // namespace

CachedEngine::CachedEngine(std::shared_ptr<const DigitalTwin> twin,
                           const StreamingOptions& options)
    : twin_(require_online(std::move(twin))),
      fingerprint_(twin_->config().fingerprint()),
      engine_(twin_->make_streaming(options)) {}

EngineCache::EngineCache(const StreamingOptions& options)
    : options_(options) {}

std::shared_ptr<const CachedEngine> EngineCache::load(
    const std::string& bundle_path) {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    auto memo = path_fingerprints_.find(bundle_path);
    if (memo != path_fingerprints_.end()) {
      auto it = engines_.find(memo->second);
      if (it != engines_.end()) return it->second;
    }
  }
  // Path miss: read + checksum the bundle (file I/O only — no PDE solves,
  // no factorization, no engine build) to learn its fingerprint before
  // committing to a boot, so a known network shipped under a new file name
  // is still a cheap hit. A hit uses nothing from the bundle but its
  // identity: a header that lied about its fingerprint could at worst alias
  // to an already-validated engine, never inject state (the miss path below
  // re-verifies the fingerprint against the stored config during boot).
  ArtifactBundle bundle = load_bundle(bundle_path);
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    path_fingerprints_[bundle_path] = bundle.fingerprint;
    auto it = engines_.find(bundle.fingerprint);
    if (it != engines_.end()) return it->second;
  }
  // Fingerprint miss: warm-start the twin (its sections move in, none is
  // copied) and build the engine outside the lock, so a slow boot of one
  // network never stalls sessions on another.
  auto twin = std::make_shared<const DigitalTwin>(std::move(bundle));
  return insert_or_get(
      std::make_shared<const CachedEngine>(std::move(twin), options_));
}

std::shared_ptr<const CachedEngine> EngineCache::adopt(
    std::shared_ptr<const DigitalTwin> twin) {
  twin = require_online(std::move(twin));
  const std::uint64_t fp = twin->config().fingerprint();
  {
    // Fast path: a fingerprint hit skips the engine build entirely.
    const std::lock_guard<std::mutex> lock(mutex_);
    auto it = engines_.find(fp);
    if (it != engines_.end()) return it->second;
  }
  return insert_or_get(
      std::make_shared<const CachedEngine>(std::move(twin), options_));
}

std::shared_ptr<const CachedEngine> EngineCache::find(
    std::uint64_t fingerprint) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  auto it = engines_.find(fingerprint);
  return it == engines_.end() ? nullptr : it->second;
}

std::size_t EngineCache::size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return engines_.size();
}

void EngineCache::clear() {
  const std::lock_guard<std::mutex> lock(mutex_);
  engines_.clear();
  path_fingerprints_.clear();
}

std::shared_ptr<const CachedEngine> EngineCache::insert_or_get(
    std::shared_ptr<const CachedEngine> candidate) {
  const std::lock_guard<std::mutex> lock(mutex_);
  // If another thread won the race, its engine is the canonical one and the
  // candidate (and its twin) are freed here.
  return engines_.emplace(candidate->fingerprint(), std::move(candidate))
      .first->second;
}

}  // namespace tsunami

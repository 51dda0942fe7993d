// Tests for the offline->online split: the versioned artifact bundle, the
// warm-start twin (bit-identical to the cold path, zero PDE solves), the
// corrupt-file suite, the streaming lifetime guard, and the ScenarioBank
// warm-start path.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/digital_twin.hpp"
#include "core/scenario_bank.hpp"
#include "obs/trace.hpp"
#include "service/engine_cache.hpp"
#include "service/warning_service.hpp"
#include "util/artifact_bundle.hpp"

namespace tsunami {
namespace {

std::string temp_path(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

std::vector<char> read_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(f), std::istreambuf_iterator<char>()};
}

void write_file(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream f(path, std::ios::binary);
  f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

void append_u64(std::vector<char>& buf, std::uint64_t v) {
  const char* p = reinterpret_cast<const char*>(&v);
  buf.insert(buf.end(), p, p + sizeof(v));
}

std::span<const std::byte> bytes_of(const std::vector<char>& buf) {
  return std::as_bytes(std::span<const char>(buf));
}

/// What `f` throws (empty when it does not throw), so a corruption test can
/// assert the check that refused the input, not only that one did.
template <class F>
std::string error_of(F&& f) {
  try {
    f();
  } catch (const std::exception& e) {
    return e.what();
  }
  return {};
}

bool contains(const std::string& text, const char* part) {
  return text.find(part) != std::string::npos;
}

/// One cold twin + event + bundle on disk + warm twin, shared by the suite
/// (the cold offline build dominates test wall time).
class ArtifactBundleTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    twin_ = new DigitalTwin(TwinConfig::tiny());
    RuptureConfig rc;
    Asperity a;
    a.x0 = 0.3 * twin_->mesh().length_x();
    a.y0 = 0.5 * twin_->mesh().length_y();
    a.rx = 16e3;
    a.ry = 24e3;
    a.peak_uplift = 2.0;
    rc.asperities.push_back(a);
    rc.hypocenter_x = a.x0;
    rc.hypocenter_y = a.y0;
    Rng rng(5);
    event_ = new SyntheticEvent(twin_->synthesize(RuptureScenario(rc), rng));
    twin_->run_offline(event_->noise);
    path_ = new std::string(temp_path("tsunami_twin.bundle"));
    twin_->save_offline(*path_);
    warm_ = new DigitalTwin(DigitalTwin::load_offline(*path_));
  }
  static void TearDownTestSuite() {
    std::filesystem::remove(*path_);
    delete warm_;
    delete path_;
    delete event_;
    delete twin_;
    warm_ = nullptr;
    path_ = nullptr;
    event_ = nullptr;
    twin_ = nullptr;
  }

  static DigitalTwin* twin_;
  static SyntheticEvent* event_;
  static std::string* path_;
  static DigitalTwin* warm_;
};

DigitalTwin* ArtifactBundleTest::twin_ = nullptr;
SyntheticEvent* ArtifactBundleTest::event_ = nullptr;
std::string* ArtifactBundleTest::path_ = nullptr;
DigitalTwin* ArtifactBundleTest::warm_ = nullptr;

// ---- the acceptance criterion: warm == cold, bit for bit ------------------

TEST_F(ArtifactBundleTest, WarmInferBitIdenticalToCold) {
  ASSERT_TRUE(warm_->online_ready());
  const InversionResult cold = twin_->infer(event_->d_obs);
  const InversionResult warm = warm_->infer(event_->d_obs);
  ASSERT_EQ(warm.m_map.size(), cold.m_map.size());
  for (std::size_t i = 0; i < cold.m_map.size(); ++i)
    ASSERT_EQ(warm.m_map[i], cold.m_map[i]) << "m_map entry " << i;
  ASSERT_EQ(warm.forecast.mean.size(), cold.forecast.mean.size());
  for (std::size_t i = 0; i < cold.forecast.mean.size(); ++i) {
    ASSERT_EQ(warm.forecast.mean[i], cold.forecast.mean[i]) << "mean " << i;
    ASSERT_EQ(warm.forecast.stddev[i], cold.forecast.stddev[i]) << "std " << i;
    ASSERT_EQ(warm.forecast.lower95[i], cold.forecast.lower95[i]);
    ASSERT_EQ(warm.forecast.upper95[i], cold.forecast.upper95[i]);
  }
}

TEST_F(ArtifactBundleTest, WarmStreamingPushBitIdenticalToCold) {
  const StreamingEngine cold_eng = twin_->make_streaming({.track_map = true});
  const StreamingEngine warm_eng = warm_->make_streaming({.track_map = true});
  StreamingAssimilator cold_assim = cold_eng.start();
  StreamingAssimilator warm_assim = warm_eng.start();
  const std::size_t nd = cold_eng.block_size();
  for (std::size_t t = 0; t < cold_eng.num_ticks(); ++t) {
    const auto block = std::span<const double>(event_->d_obs).subspan(t * nd, nd);
    cold_assim.push(t, block);
    warm_assim.push(t, block);
    const auto& qc = cold_assim.qoi_mean();
    const auto& qw = warm_assim.qoi_mean();
    for (std::size_t i = 0; i < qc.size(); ++i)
      ASSERT_EQ(qw[i], qc[i]) << "tick " << t << " qoi " << i;
    const auto& mc = cold_assim.map_estimate();
    const auto& mw = warm_assim.map_estimate();
    for (std::size_t i = 0; i < mc.size(); ++i)
      ASSERT_EQ(mw[i], mc[i]) << "tick " << t << " m_map " << i;
    const auto sc = cold_eng.stddev_after(t + 1);
    const auto sw = warm_eng.stddev_after(t + 1);
    for (std::size_t i = 0; i < sc.size(); ++i) ASSERT_EQ(sw[i], sc[i]);
  }
}

TEST_F(ArtifactBundleTest, WarmReducedEngineBitIdenticalToCold) {
  // A reduced() engine re-solves its R' from the predictor's R, which the
  // warm twin reads from the bundle and the cold twin built in Phase 3.
  const StreamingEngine cold_full = twin_->make_streaming({.track_map = true});
  const StreamingEngine warm_full = warm_->make_streaming({.track_map = true});
  SensorMask mask(cold_full.block_size());
  mask.drop(1);
  const StreamingEngine cold = cold_full.reduced(mask);
  const StreamingEngine warm = warm_full.reduced(mask);
  ASSERT_TRUE(warm.is_reduced());
  for (std::size_t t = 0; t <= cold.num_ticks(); ++t) {
    const auto sc = cold.stddev_after(t);
    const auto sw = warm.stddev_after(t);
    ASSERT_TRUE(std::equal(sc.begin(), sc.end(), sw.begin(), sw.end()))
        << "schedule row " << t;
  }
  StreamingAssimilator cold_assim = cold.start();
  StreamingAssimilator warm_assim = warm.start();
  const std::size_t nd = cold.block_size();
  for (std::size_t t = 0; t < cold.num_ticks(); ++t) {
    const auto block =
        std::span<const double>(event_->d_obs).subspan(t * nd, nd);
    cold_assim.push(t, block);
    warm_assim.push(t, block);
    const Forecast fc = cold_assim.forecast();
    const Forecast fw = warm_assim.forecast();
    ASSERT_EQ(fw.mean, fc.mean) << "tick " << t;
    ASSERT_EQ(fw.stddev, fc.stddev) << "tick " << t;
    ASSERT_EQ(warm_assim.map_snapshot(), cold_assim.map_snapshot())
        << "tick " << t;
  }
}

TEST_F(ArtifactBundleTest, WarmBootRanZeroPdeSolvesOrFactorizations) {
  // The cold twin recorded offline-phase samples; the warm twin must have
  // recorded none of them (the issue's timer-registry assertion).
  EXPECT_GT(twin_->timers().count("Adjoint p2o"), 0);
  for (const char* name :
       {"Adjoint p2o", "phase1: form F", "phase1: form Fq", "form K",
        "factorize K", "phase2: form+factorize K",
        "phase3: QoI covariance + R"}) {
    EXPECT_EQ(warm_->timers().count(name), 0) << name;
  }
  EXPECT_GT(warm_->timers().count("warm start: install bundle"), 0);
}

TEST_F(ArtifactBundleTest, BundleCarriesConfigAndFingerprint) {
  const ArtifactBundle bundle = load_bundle(*path_);
  EXPECT_EQ(bundle.fingerprint, twin_->config().fingerprint());
  std::vector<std::string> names;
  for (const BundleSection& s : bundle.sections()) names.push_back(s.name);
  EXPECT_EQ(names, (std::vector<std::string>{"config", "noise/sigma", "p2o/F",
                                             "hessian/chol_L", "qoi/cov",
                                             "qoi/R"}));
  EXPECT_EQ(warm_->config().fingerprint(), twin_->config().fingerprint());
  EXPECT_EQ(warm_->config().num_sensors, twin_->config().num_sensors);
  EXPECT_EQ(warm_->data_dim(), twin_->data_dim());
  EXPECT_EQ(warm_->parameter_dim(), twin_->parameter_dim());
}

TEST_F(ArtifactBundleTest, LoadOfflineAssertsExpectedConfig) {
  // Matching config: loads.
  EXPECT_NO_THROW({
    const DigitalTwin t = DigitalTwin::load_offline(*path_, twin_->config());
    EXPECT_TRUE(t.online_ready());
  });
  // A physically different config must be rejected.
  TwinConfig other = twin_->config();
  other.num_sensors += 1;
  EXPECT_THROW((void)DigitalTwin::load_offline(*path_, other),
               std::runtime_error);
  // The ignored phase1_parallel does not change the artifacts -> not
  // fingerprinted.
  TwinConfig parallel = twin_->config();
  parallel.phase1_parallel = !parallel.phase1_parallel;
  EXPECT_EQ(parallel.fingerprint(), twin_->config().fingerprint());
}

TEST_F(ArtifactBundleTest, MatrixAccessorThrowsOnWarmHessian) {
  // Only L ships; the formed K is cold-path-only by design. So is Fq: the
  // forecast reads R and Gamma_post(q) only.
  EXPECT_NO_THROW((void)twin_->hessian().matrix());
  EXPECT_THROW((void)warm_->hessian().matrix(), std::logic_error);
  EXPECT_NO_THROW((void)twin_->p2q());
  EXPECT_THROW((void)warm_->p2q(), std::logic_error);
  EXPECT_EQ(warm_->hessian().dim(), twin_->hessian().dim());
  EXPECT_DOUBLE_EQ(warm_->hessian().noise().sigma,
                   twin_->hessian().noise().sigma);
}

// ---- corrupt-file suite ---------------------------------------------------

TEST_F(ArtifactBundleTest, RejectsBadMagic) {
  const auto bad = temp_path("tsunami_bad_magic.bundle");
  auto bytes = read_file(*path_);
  bytes[0] ^= 0x5a;  // corrupt the magic (read before the checksum)
  write_file(bad, bytes);
  const std::string what = error_of([&] { (void)load_bundle(bad); });
  EXPECT_TRUE(contains(what, "bad file signature")) << what;
  std::filesystem::remove(bad);
}

TEST_F(ArtifactBundleTest, RejectsTruncatedHeader) {
  const auto bad = temp_path("tsunami_trunc_header.bundle");
  auto bytes = read_file(*path_);
  bytes.resize(12);
  write_file(bad, bytes);
  const std::string what = error_of([&] { (void)load_bundle(bad); });
  EXPECT_TRUE(contains(what, "too small to be a bundle")) << what;
  std::filesystem::remove(bad);
}

TEST_F(ArtifactBundleTest, RejectsTruncatedPayload) {
  const auto bad = temp_path("tsunami_trunc_payload.bundle");
  auto bytes = read_file(*path_);
  bytes.resize(bytes.size() - bytes.size() / 3);
  write_file(bad, bytes);
  const std::string what = error_of([&] { (void)load_bundle(bad); });
  EXPECT_TRUE(contains(what, "checksum mismatch")) << what;
  std::filesystem::remove(bad);
}

TEST_F(ArtifactBundleTest, RejectsFlippedPayloadByte) {
  const auto bad = temp_path("tsunami_bitflip.bundle");
  auto bytes = read_file(*path_);
  bytes[bytes.size() / 2] ^= 0x01;  // checksum catches a single bit flip
  write_file(bad, bytes);
  const std::string what = error_of([&] { (void)load_bundle(bad); });
  EXPECT_TRUE(contains(what, "checksum mismatch")) << what;
  std::filesystem::remove(bad);
}

TEST(ArtifactBundleFormat, RejectsDimOverflowWithValidChecksum) {
  // Hand-craft a bundle whose section claims 2^22 x 2^22 x 2^22 doubles
  // (the product overflows 64 bits when multiplied by sizeof(double)) with
  // a VALID trailing checksum, so the dimension validation itself — not the
  // checksum — must reject it before any allocation.
  std::vector<char> buf;
  append_u64(buf, 0x5453'42554e444c45ULL);  // magic "TSBUNDLE"
  append_u64(buf, kBundleFormatVersion);
  append_u64(buf, 0);  // fingerprint
  append_u64(buf, 1);  // one section
  const char name[] = "evil";
  append_u64(buf, 4);
  buf.insert(buf.end(), name, name + 4);
  append_u64(buf, 3);  // rank 3
  for (int i = 0; i < 3; ++i) append_u64(buf, std::uint64_t{1} << 22);
  // no payload at all
  append_u64(buf, bundle_checksum(buf.data(), buf.size()));
  const std::string what = error_of([&] { (void)parse_bundle(bytes_of(buf)); });
  EXPECT_TRUE(contains(what, "dims: integer overflow")) << what;
}

TEST(ArtifactBundleFormat, RejectsUnsupportedVersion) {
  std::vector<char> buf;
  append_u64(buf, 0x5453'42554e444c45ULL);
  append_u64(buf, kBundleFormatVersion + 7);
  append_u64(buf, 0);
  append_u64(buf, 0);
  append_u64(buf, bundle_checksum(buf.data(), buf.size()));
  const std::string what = error_of([&] { (void)parse_bundle(bytes_of(buf)); });
  EXPECT_TRUE(contains(what, "unsupported format version")) << what;
}

TEST_F(ArtifactBundleTest, RejectsVersionOneBundleAsStale) {
  // A version-1 bundle ends in fnv1a of its body, not bundle_checksum. The
  // version is read before the checksum, so it is refused as stale, not as
  // corrupt.
  auto bytes = read_file(*path_);
  const std::uint64_t v1 = 1;
  std::memcpy(bytes.data() + sizeof(std::uint64_t), &v1, sizeof(v1));
  const std::size_t body = bytes.size() - sizeof(std::uint64_t);
  const std::uint64_t fnv = fnv1a(bytes.data(), body);
  std::memcpy(bytes.data() + body, &fnv, sizeof(fnv));
  const std::string what =
      error_of([&] { (void)parse_bundle(bytes_of(bytes)); });
  EXPECT_TRUE(contains(what, "unsupported format version 1")) << what;
}

TEST_F(ArtifactBundleTest, RejectsVersionTwoBundleAsStale) {
  // Version 2 shipped L square. The version is read before the checksum, so
  // a version-2 file is refused as stale even under a valid checksum.
  auto bytes = read_file(*path_);
  const std::uint64_t v2 = 2;
  std::memcpy(bytes.data() + sizeof(std::uint64_t), &v2, sizeof(v2));
  const std::size_t body = bytes.size() - sizeof(std::uint64_t);
  const std::uint64_t sum = bundle_checksum(bytes.data(), body);
  std::memcpy(bytes.data() + body, &sum, sizeof(sum));
  const std::string what =
      error_of([&] { (void)parse_bundle(bytes_of(bytes)); });
  EXPECT_TRUE(contains(what, "unsupported format version 2")) << what;
}

TEST(ArtifactBundleFormat, EveryFlippedWordOrTailByteIsRefused) {
  // Section names of 3 and 8 bytes leave the body 3 bytes past a whole
  // word, so it has words (eight lanes, a partial last group) and a tail.
  ArtifactBundle b;
  b.fingerprint = 0x1234;
  b.set("abc", {2, 5}, std::vector<double>(10, 0.5));
  b.set_vector("a/vector", std::vector<double>{1.0, -2.0, 3.0});
  const auto path = temp_path("tsunami_flip.bundle");
  save_bundle(path, b);
  const auto good = read_file(path);
  std::filesystem::remove(path);
  ASSERT_NO_THROW((void)parse_bundle(bytes_of(good)));
  const std::size_t body = good.size() - sizeof(std::uint64_t);
  const std::size_t nwords = body / sizeof(std::uint64_t);
  ASSERT_EQ(body % sizeof(std::uint64_t), 3u);
  ASSERT_GT(nwords, 16u);

  const auto refusal = [&](std::vector<char> bytes) {
    return error_of([&] { (void)parse_bundle(bytes_of(bytes)); });
  };
  // Words 0 and 1 (magic, version) are read before the checksum and
  // refused by their own checks; every later word by the checksum.
  for (std::size_t w = 0; w < nwords; ++w) {
    auto bytes = good;
    bytes[w * sizeof(std::uint64_t) + (w % 8)] ^=
        static_cast<char>(1 << (w % 7));
    const std::string what = refusal(bytes);
    const char* reason = w == 0   ? "bad file signature"
                         : w == 1 ? "unsupported format version"
                                  : "checksum mismatch";
    EXPECT_TRUE(contains(what, reason)) << "word " << w << ": " << what;
  }
  // The tail bytes, then the stored checksum itself.
  for (std::size_t i = nwords * sizeof(std::uint64_t); i < good.size(); ++i) {
    auto bytes = good;
    bytes[i] ^= 0x10;
    const std::string what = refusal(bytes);
    EXPECT_TRUE(contains(what, "checksum mismatch")) << "byte " << i << ": "
                                                     << what;
  }
}

TEST(ArtifactBundleFormat, ChecksumOfFixedPatternIsPinned) {
  // 203 bytes: three whole groups of eight words, one more word and a
  // 3-byte tail, so every path of bundle_checksum is pinned. The value may
  // change only with kBundleFormatVersion.
  std::vector<unsigned char> bytes(203);
  for (std::size_t i = 0; i < bytes.size(); ++i)
    bytes[i] = static_cast<unsigned char>(i * 37 + 11);
  EXPECT_EQ(bundle_checksum(bytes.data(), bytes.size()),
            0x81c5f944d4f48feeULL);
  EXPECT_EQ(bundle_checksum(nullptr, 0), 0x52fcc39ebac1808dULL);
}

TEST(ArtifactBundleFormat, CheckedMulDetectsOverflow) {
  EXPECT_EQ(checked_mul_u64(1u << 22, 1u << 22, "test"), 1ull << 44);
  EXPECT_THROW((void)checked_mul_u64(1ull << 33, 1ull << 33, "test"),
               std::runtime_error);
  EXPECT_EQ(checked_mul_u64(0, ~0ull, "test"), 0u);
}

TEST(ArtifactBundleFormat, WriteFailureIsReportedNotSwallowed) {
  // /dev/full accepts the open but fails the write; save_bundle must flush
  // and check rather than report success, both for a bundle that fits in
  // the stream buffer and for one that does not.
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP();
  for (const std::size_t n : {std::size_t{1}, std::size_t{100000}}) {
    ArtifactBundle b;
    b.set_vector("v", std::vector<double>(n, 1.5));
    EXPECT_THROW(save_bundle("/dev/full", b), std::runtime_error)
        << n << " elements";
  }
}

TEST_F(ArtifactBundleTest, RejectsFingerprintConfigMismatch) {
  // A bundle whose identity disagrees with its stored config must not boot
  // a twin, even though its checksum is valid (re-saved after tampering).
  ArtifactBundle tampered = load_bundle(*path_);
  tampered.fingerprint ^= 1;
  const auto path = temp_path("tsunami_fingerprint.bundle");
  save_bundle(path, tampered);
  EXPECT_NO_THROW((void)load_bundle(path));  // container itself is intact
  EXPECT_THROW((void)DigitalTwin(tampered), std::runtime_error);
  EXPECT_THROW((void)DigitalTwin::load_offline(path), std::runtime_error);
  std::filesystem::remove(path);
}

TEST_F(ArtifactBundleTest, RejectsHostileConfigBeforeConstruction) {
  // A crafted bundle can carry any config it likes with a self-consistent
  // fingerprint (FNV is not a MAC). The unpacker must range-check every
  // size field BEFORE the constructor sizes mesh/model allocations from
  // them — a 2^22-cubed mesh claim is a clean throw, not an exabyte
  // allocation or a wrapped product.
  ArtifactBundle evil_bundle = twin_->make_bundle();
  std::vector<double> cfg = evil_bundle.vector("config");
  cfg[9] = cfg[10] = cfg[11] = static_cast<double>(1u << 22);  // mesh dims
  evil_bundle.set("config", {cfg.size()}, cfg);
  TwinConfig evil_cfg = twin_->config();
  evil_cfg.mesh_nx = evil_cfg.mesh_ny = evil_cfg.mesh_nz = 1u << 22;
  evil_bundle.fingerprint = evil_cfg.fingerprint();  // self-consistent
  EXPECT_THROW((void)DigitalTwin(evil_bundle), std::runtime_error);

  ArtifactBundle zero_sensors = twin_->make_bundle();
  cfg = zero_sensors.vector("config");
  cfg[18] = 0.0;  // num_sensors
  zero_sensors.set("config", {cfg.size()}, cfg);
  EXPECT_THROW((void)DigitalTwin(zero_sensors), std::runtime_error);

  // Time-step fields, each with a self-consistent fingerprint (FNV-1a of
  // the packed fields): cfl = 0 makes the CFL substep count infinite and
  // cfl = 1e-300 one no size_t holds, and observation_dt = NaN would give
  // a NaN time step.
  const auto crafted = [&](std::size_t field, double value) {
    ArtifactBundle b = twin_->make_bundle();
    std::vector<double> fields = b.vector("config");
    fields[field] = value;
    b.set("config", {fields.size()}, fields);
    b.fingerprint = fnv1a(fields.data(), fields.size() * sizeof(double));
    return b;
  };
  constexpr std::size_t kCfl = 17, kObservationDt = 21;
  EXPECT_THROW((void)DigitalTwin(crafted(kCfl, 0.0)), std::invalid_argument);
  EXPECT_THROW((void)DigitalTwin(crafted(kCfl, 1e-300)),
               std::invalid_argument);
  EXPECT_THROW(
      (void)DigitalTwin(crafted(kObservationDt,
                                std::numeric_limits<double>::quiet_NaN())),
      std::runtime_error);

  // A mesh bigger than the sections, each field in range and the
  // fingerprint self-consistent: refused by F's dimension check, before the
  // prior, the CFL walk or a wave model is sized by it. The last one's
  // parameter grid alone would be 524,289^2 nodes.
  constexpr std::size_t kMeshNx = 9, kOrder = 12;
  for (const auto& [nx, ny, nz, order] :
       std::vector<std::array<double, 4>>{{60, 80, 2, 2},
                                          {200, 200, 2, 4},
                                          {16384, 16384, 1, 32}}) {
    ArtifactBundle b = twin_->make_bundle();
    std::vector<double> fields = b.vector("config");
    fields[kMeshNx] = nx;
    fields[kMeshNx + 1] = ny;
    fields[kMeshNx + 2] = nz;
    fields[kOrder] = order;
    b.set("config", {fields.size()}, fields);
    b.fingerprint = fnv1a(fields.data(), fields.size() * sizeof(double));
    try {
      (void)DigitalTwin(std::move(b));
      ADD_FAILURE() << nx << "x" << ny << "x" << nz << " booted";
    } catch (const std::runtime_error& e) {
      EXPECT_TRUE(contains(e.what(), "p2o/F")) << e.what();
    }
  }
}

TEST_F(ArtifactBundleTest, RejectsSectionDimensionMismatch) {
  // Consistent fingerprint/config but a Cholesky factor or an R of the
  // wrong shape: the per-section dimension checks must refuse it.
  ArtifactBundle tampered = twin_->make_bundle();
  tampered.set_matrix("hessian/chol_L", Matrix(3, 3, 1.0));
  EXPECT_THROW((void)DigitalTwin(tampered), std::runtime_error);
  // L as version 2 shipped it (square, 2-D) and packed one entry short,
  // each saved under a valid version-3 checksum: the file loads, and the
  // factor's dimension check refuses it.
  const std::size_t n = twin_->data_dim();
  const std::span<const double> packed = twin_->hessian().cholesky().packed();
  ArtifactBundle square = twin_->make_bundle();
  Matrix l(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::span<const double> row = twin_->hessian().cholesky().row(i);
    std::copy(row.begin(), row.end(), l.row(i).begin());
  }
  square.set_matrix("hessian/chol_L", l);
  ArtifactBundle short_l = twin_->make_bundle();
  short_l.set_vector("hessian/chol_L", packed.first(packed.size() - 1));
  const auto path = temp_path("tsunami_bad_factor.bundle");
  for (const ArtifactBundle* bad : {&square, &short_l}) {
    save_bundle(path, *bad);
    ASSERT_NO_THROW((void)load_bundle(path));
    const std::string what =
        error_of([&] { (void)DigitalTwin::load_offline(path); });
    EXPECT_TRUE(contains(what, "Cholesky factor dimensions")) << what;
  }
  std::filesystem::remove(path);
  const Matrix& r = twin_->predictor().forecast_slab();
  for (const Matrix& bad : {Matrix(r.rows(), r.cols() + 1),
                            Matrix(r.rows() - 1, r.cols()),
                            Matrix(r.cols(), r.rows())}) {
    ArtifactBundle wrong_r = twin_->make_bundle();
    wrong_r.set_matrix("qoi/R", bad);
    const std::string what = error_of([&] { (void)DigitalTwin(wrong_r); });
    EXPECT_TRUE(contains(what, "R dimensions")) << what;
  }
  ArtifactBundle missing = twin_->make_bundle();
  EXPECT_THROW((void)missing.at("no/such/section"), std::runtime_error);
  (void)missing.take("qoi/R");
  const std::string what = error_of([&] { (void)DigitalTwin(missing); });
  EXPECT_TRUE(contains(what, "missing section 'qoi/R'")) << what;
}

TEST(ArtifactBundleRoundTrip, SectionsSurviveSaveLoad) {
  ArtifactBundle b;
  b.fingerprint = 0xfeedface;
  Matrix m(3, 4);
  for (std::size_t i = 0; i < m.size(); ++i)
    m.data()[i] = static_cast<double>(i) * 0.25 - 1.0;
  b.set_matrix("a/matrix", m);
  b.set_vector("a/vector", std::vector<double>{1.0, -2.5, 3.75});
  b.set("a/rank3", {2, 2, 2}, std::vector<double>(8, 0.125));
  const auto path = temp_path("tsunami_roundtrip.bundle");
  save_bundle(path, b);
  const ArtifactBundle back = load_bundle(path);
  EXPECT_EQ(back.fingerprint, 0xfeedfaceULL);
  EXPECT_EQ(back.matrix("a/matrix").max_abs_diff(m), 0.0);
  EXPECT_EQ(back.vector("a/vector"), (std::vector<double>{1.0, -2.5, 3.75}));
  EXPECT_EQ(back.at("a/rank3").dims, (std::vector<std::uint64_t>{2, 2, 2}));
  EXPECT_THROW((void)back.matrix("a/vector"), std::runtime_error);
  EXPECT_THROW((void)back.vector("a/matrix"), std::runtime_error);
  std::filesystem::remove(path);
}

TEST_F(ArtifactBundleTest, FileThatShrinksAfterItsSizeIsTakenIsRefused) {
  // The size is taken, then the file is cut before a byte is read: the
  // stream ends before the stated size.
  const auto path = temp_path("tsunami_shrinks.bundle");
  write_file(path, read_file(*path_));
  std::ifstream in(path, std::ios::binary);
  const std::uint64_t size = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, size / 2);
  const std::string what =
      error_of([&] { (void)read_bundle(in, size, path); });
  EXPECT_TRUE(contains(what, "short read")) << what;
  std::filesystem::remove(path);
}

TEST_F(ArtifactBundleTest, FileThatGrowsAfterItsSizeIsTakenIsReadToThatSize) {
  // Bytes appended after the size was taken are never read: the bundle
  // parses as the file it was, and the stream stops at the stated size.
  const auto path = temp_path("tsunami_grows.bundle");
  write_file(path, read_file(*path_));
  std::ifstream in(path, std::ios::binary);
  const std::uint64_t size = std::filesystem::file_size(path);
  {
    std::ofstream grow(path, std::ios::binary | std::ios::app);
    const std::vector<char> junk(4096, 'x');
    grow.write(junk.data(), static_cast<std::streamsize>(junk.size()));
  }
  ASSERT_GT(std::filesystem::file_size(path), size);
  const ArtifactBundle got = read_bundle(in, size, path);
  EXPECT_EQ(static_cast<std::uint64_t>(in.tellg()), size);
  const ArtifactBundle want = load_bundle(*path_);
  ASSERT_EQ(got.sections().size(), want.sections().size());
  for (std::size_t i = 0; i < want.sections().size(); ++i) {
    EXPECT_EQ(got.sections()[i].name, want.sections()[i].name);
    EXPECT_EQ(got.sections()[i].data, want.sections()[i].data);
  }
  std::filesystem::remove(path);
}

TEST_F(ArtifactBundleTest, ParsedBundleHoldsTheBytesItChecksummed) {
  // Saving what was loaded reproduces the file byte for byte, checksum word
  // included: the bytes the parser kept are the bytes it summed.
  const auto path = temp_path("tsunami_resaved.bundle");
  save_bundle(path, load_bundle(*path_));
  EXPECT_EQ(read_file(path), read_file(*path_));
  std::filesystem::remove(path);
}

TEST_F(ArtifactBundleTest, StructuralErrorIsReportedOnlyUnderAValidChecksum) {
  // Eight bytes past the last section: with the checksum recomputed the
  // file is refused for its structure, and with the stored one as corrupt.
  auto bytes = read_file(*path_);
  const std::size_t body = bytes.size() - sizeof(std::uint64_t);
  const std::uint64_t stored = [&] {
    std::uint64_t v = 0;
    std::memcpy(&v, bytes.data() + body, sizeof(v));
    return v;
  }();
  bytes.resize(body);
  append_u64(bytes, 0);  // the trailing junk word
  auto resummed = bytes;
  append_u64(resummed, bundle_checksum(resummed.data(), resummed.size()));
  append_u64(bytes, stored);
  std::string what = error_of([&] { (void)parse_bundle(bytes_of(resummed)); });
  EXPECT_TRUE(contains(what, "trailing bytes after sections")) << what;
  what = error_of([&] { (void)parse_bundle(bytes_of(bytes)); });
  EXPECT_TRUE(contains(what, "checksum mismatch")) << what;
}

TEST(ArtifactBundleFormat, ChecksumFedInPiecesEqualsOneShot) {
  // The loader feeds the checksum one field or payload at a time, so words
  // straddle pieces; any split must give the one-shot value.
  std::vector<unsigned char> bytes(1000);
  for (std::size_t i = 0; i < bytes.size(); ++i)
    bytes[i] = static_cast<unsigned char>(i * 131 + 7);
  Rng rng(3);
  for (const std::size_t n : {std::size_t{0}, std::size_t{5}, std::size_t{8},
                              std::size_t{203}, std::size_t{1000}}) {
    const std::uint64_t want = bundle_checksum(bytes.data(), n);
    for (int trial = 0; trial < 20; ++trial) {
      BundleChecksum sum;
      std::size_t at = 0;
      while (at < n) {
        const auto piece = std::min<std::size_t>(
            n - at, static_cast<std::size_t>(rng.uniform() * 80.0));
        sum.update(bytes.data() + at, piece);
        at += piece;
      }
      EXPECT_EQ(sum.digest(), want) << n << " bytes, trial " << trial;
    }
  }
}

TEST_F(ArtifactBundleTest, ServedEventOnWarmBootBuildsNoSpectraNorWaveModel) {
  // A warm boot through the cache, then one served event with forecasts, a
  // drop and a restore, plus reduced(): none of it applies F or Fq, so no
  // spectra are built. The first MAP read then builds F's, once. No tick
  // reads the wave model, so none of it builds one; the first model() or
  // sensors() call does, once, whichever thread makes it.
  const auto spans = [](const char* cat, const char* name) {
    const std::string json = obs::chrome_trace_json();
    const std::string span = std::string("\"cat\":\"") + cat +
                             "\",\"name\":\"" + name + "\"";
    std::size_t n = 0;
    for (std::size_t at = json.find(span); at != std::string::npos;
         at = json.find(span, at + 1))
      ++n;
    return n;
  };
  const auto build_spectra_spans = [&] {
    return spans("kernel", "build_spectra");
  };
  const auto build_wave_model_spans = [&] {
    return spans("offline", "build_wave_model");
  };
  obs::clear_trace();
  obs::set_trace_enabled(true);
  EngineCache cache;
  const auto cached = cache.load(*path_);
  const StreamingEngine& engine = cached->engine();
  const std::size_t nt = engine.num_ticks(), nd = engine.block_size();
  const std::span<const double> d(event_->d_obs);
  {
    WarningService service({.num_workers = 2});
    const EventId id = service.open_event(cached);
    for (std::size_t t = 0; t < nt; ++t) {
      if (t == nt / 3) service.drop_sensor(id, 1);
      if (t == 2 * nt / 3) service.restore_sensor(id, 1);
      service.submit(id, t, d.subspan(t * nd, nd));
      service.drain();
      EXPECT_EQ(service.latest_forecast(id).ticks_assimilated, t + 1);
    }
    (void)service.close_event(id);
  }
  SensorMask mask(nd);
  mask.drop(1);
  const StreamingEngine reduced = engine.reduced(mask);
  StreamingAssimilator a = reduced.start();
  a.push(0, d.first(nd));
  (void)a.forecast();
  EXPECT_EQ(obs::trace_dropped_count(), 0u);
  EXPECT_EQ(build_spectra_spans(), 0u);

  StreamingAssimilator full = engine.start();
  full.push(0, d.first(nd));
  (void)full.map_snapshot();
  (void)full.map_snapshot();
  EXPECT_EQ(build_spectra_spans(), 1u);
  EXPECT_EQ(build_wave_model_spans(), 0u);

  const DigitalTwin& twin = cached->twin();
  std::array<const AcousticGravityModel*, 4> models{};
  std::array<const ObservationOperator*, 4> sensors{};
  {
    std::vector<std::thread> threads;
    for (std::size_t k = 0; k < 4; ++k)
      threads.emplace_back([&, k] {
        models[k] = &twin.model();
        sensors[k] = &twin.sensors();
      });
    for (std::thread& t : threads) t.join();
  }
  obs::set_trace_enabled(false);
  EXPECT_EQ(build_wave_model_spans(), 1u);
  for (std::size_t k = 1; k < 4; ++k) {
    EXPECT_EQ(models[k], models[0]) << "thread " << k;
    EXPECT_EQ(sensors[k], sensors[0]) << "thread " << k;
  }
  EXPECT_EQ(twin.model().source_map().parameter_dim() *
                twin.config().num_intervals,
            twin.parameter_dim());
  EXPECT_EQ(twin.sensors().num_outputs(), twin.config().num_sensors);
  obs::clear_trace();
}

// ---- streaming lifetime guard ---------------------------------------------

TEST_F(ArtifactBundleTest, EngineOutlivingItsTwinThrowsInsteadOfDangling) {
  auto victim = std::make_unique<DigitalTwin>(DigitalTwin::load_offline(*path_));
  const StreamingEngine engine = victim->make_streaming({.track_map = false});
  // A reduced() engine inherits the twin's token, so it is guarded too.
  SensorMask mask(engine.block_size());
  mask.drop(0);
  const StreamingEngine reduced = engine.reduced(mask);
  StreamingAssimilator assim = engine.start();
  assim.push(0, std::span<const double>(event_->d_obs)
                    .first(engine.block_size()));
  EXPECT_TRUE(engine.operators_alive());
  EXPECT_TRUE(reduced.operators_alive());
  victim.reset();  // destroy the twin under the engine
  EXPECT_FALSE(engine.operators_alive());
  EXPECT_FALSE(reduced.operators_alive());
  EXPECT_THROW((void)engine.start(), std::logic_error);
  EXPECT_THROW((void)reduced.start(), std::logic_error);
  EXPECT_THROW(assim.push(1, std::span<const double>(event_->d_obs)
                                 .subspan(engine.block_size(),
                                          engine.block_size())),
               std::logic_error);
  EXPECT_THROW((void)assim.forecast(), std::logic_error);
  EXPECT_THROW((void)assim.map_snapshot(), std::logic_error);
}

TEST_F(ArtifactBundleTest, RebuildingOfflineStateInvalidatesOldEngines) {
  // A cold twin of its own, so the rebuild cannot disturb the shared ones.
  DigitalTwin twin(TwinConfig::tiny());
  twin.run_offline(event_->noise);
  const StreamingEngine engine = twin.make_streaming();
  EXPECT_TRUE(engine.operators_alive());
  const InversionResult before = twin.infer(event_->d_obs);
  // Re-running Phase 2 replaces the posterior the engine's slabs were baked
  // from; the old engine must refuse to keep slicing, and the twin serves
  // nothing until Phase 3 rebuilds R and Gamma_post(q) from the new factor.
  // A different sigma makes a stale R show in the forecast.
  twin.run_phase2(NoiseModel{2.0 * event_->noise.sigma});
  EXPECT_FALSE(engine.operators_alive());
  EXPECT_THROW((void)engine.start(), std::logic_error);
  EXPECT_FALSE(twin.online_ready());
  EXPECT_THROW((void)twin.infer(event_->d_obs), std::logic_error);
  EXPECT_THROW((void)twin.make_streaming(), std::logic_error);
  twin.run_phase3();
  const StreamingEngine fresh = twin.make_streaming();
  EXPECT_TRUE(fresh.operators_alive());
  EXPECT_NO_THROW((void)fresh.start());
  // The rebuilt forecast is the new posterior's: R^T L^{-1} d = Fq m_map.
  const InversionResult after = twin.infer(event_->d_obs);
  EXPECT_NE(after.forecast.mean, before.forecast.mean);
  std::vector<double> q_via_m(after.forecast.mean.size());
  twin.p2q().toeplitz->apply(after.m_map, std::span<double>(q_via_m));
  double scale = 1e-30;
  for (const double q : q_via_m) scale = std::max(scale, std::abs(q));
  for (std::size_t i = 0; i < q_via_m.size(); ++i)
    EXPECT_NEAR(after.forecast.mean[i], q_via_m[i], 1e-8 * scale) << i;
  // Every engine is guarded: there is no token-less construction.
  EXPECT_THROW(StreamingEngine(twin.posterior(), twin.predictor(), {}, nullptr,
                               nullptr),
               std::invalid_argument);
}

TEST_F(ArtifactBundleTest, WarmTwinRefusesToRebuildAndKeepsServing) {
  DigitalTwin twin = DigitalTwin::load_offline(*path_);
  const StreamingEngine engine = twin.make_streaming();
  const InversionResult before = twin.infer(event_->d_obs);
  // Phase 3 would need Fq, which a bundle-booted twin does not hold, so
  // Phase 2 refuses before it replaces anything: the engine stays alive and
  // infer() keeps its bits.
  EXPECT_THROW(twin.run_phase2(NoiseModel{2.0 * event_->noise.sigma}),
               std::logic_error);
  EXPECT_THROW(twin.run_phase3(), std::logic_error);
  EXPECT_TRUE(twin.online_ready());
  EXPECT_TRUE(engine.operators_alive());
  EXPECT_NO_THROW((void)engine.start());
  const InversionResult after = twin.infer(event_->d_obs);
  EXPECT_EQ(after.m_map, before.m_map);
  EXPECT_EQ(after.forecast.mean, before.forecast.mean);
  EXPECT_EQ(after.forecast.stddev, before.forecast.stddev);
  // Re-running Phase 1 brings Fq back and drops everything built from the
  // old F; the twin serves again once phases 2 and 3 have run.
  twin.run_phase1();
  EXPECT_FALSE(engine.operators_alive());
  EXPECT_FALSE(twin.online_ready());
  EXPECT_THROW((void)twin.infer(event_->d_obs), std::logic_error);
  EXPECT_THROW(twin.run_phase3(), std::logic_error);
  twin.run_phase2(event_->noise);
  EXPECT_FALSE(twin.online_ready());
  twin.run_phase3();
  const InversionResult rebuilt = twin.infer(event_->d_obs);
  EXPECT_EQ(rebuilt.m_map, before.m_map);
  EXPECT_EQ(rebuilt.forecast.mean, before.forecast.mean);
  EXPECT_EQ(rebuilt.forecast.stddev, before.forecast.stddev);
}

// ---- ScenarioBank warm-start path -----------------------------------------

TEST_F(ArtifactBundleTest, ScenarioBankBootsFromBundle) {
  ScenarioBank bank = ScenarioBank::from_bundle(*path_, 3, 11);
  EXPECT_EQ(bank.size(), 3u);
  EXPECT_TRUE(bank.twin().online_ready());
  // The warm twin builds its wave model inside synthesize's pool loop; the
  // events must be the cold twin's, bit for bit.
  bank.synthesize(7);
  ScenarioBank cold(*twin_, ScenarioBank::spread(*twin_, 3, 11));
  cold.synthesize(7);
  ASSERT_EQ(bank.events().size(), cold.events().size());
  for (std::size_t i = 0; i < cold.events().size(); ++i) {
    EXPECT_EQ(bank.events()[i].d_obs, cold.events()[i].d_obs) << i;
    EXPECT_EQ(bank.events()[i].q_true, cold.events()[i].q_true) << i;
    EXPECT_EQ(bank.events()[i].m_true, cold.events()[i].m_true) << i;
  }
  // The owning bank keeps its twin alive; the sweep streams every scenario
  // through an engine over the warm state.
  const StreamingEngine engine = bank.twin().make_streaming();
  const SweepReport report = bank.sweep(engine);
  EXPECT_EQ(report.scenarios.size(), 3u);
  for (const auto& r : report.scenarios) {
    EXPECT_TRUE(std::isfinite(r.forecast_error));
    EXPECT_GE(r.ci_coverage, 0.0);
  }
}

}  // namespace
}  // namespace tsunami

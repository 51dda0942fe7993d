// Tests for the offline->online split: the versioned artifact bundle, the
// warm-start twin (bit-identical to the cold path, zero PDE solves), the
// corrupt-file suite, the streaming lifetime guard, and the ScenarioBank
// warm-start path.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <stdexcept>
#include <vector>

#include "core/digital_twin.hpp"
#include "core/scenario_bank.hpp"
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

TEST_F(ArtifactBundleTest, WarmBootRanZeroPdeSolvesOrFactorizations) {
  // The cold twin recorded offline-phase samples; the warm twin must have
  // recorded none of them (the issue's timer-registry assertion).
  EXPECT_GT(twin_->timers().count("Adjoint p2o"), 0);
  for (const char* name :
       {"Adjoint p2o", "Adjoint p2o (parallel)", "phase1: form F",
        "phase1: form Fq", "form K", "factorize K",
        "phase2: form+factorize K", "phase3: QoI covariance + Q"}) {
    EXPECT_EQ(warm_->timers().count(name), 0) << name;
  }
  EXPECT_GT(warm_->timers().count("warm start: install bundle"), 0);
}

TEST_F(ArtifactBundleTest, BundleCarriesConfigAndFingerprint) {
  const ArtifactBundle bundle = load_bundle(*path_);
  EXPECT_EQ(bundle.fingerprint, twin_->config().fingerprint());
  for (const char* name : {"config", "noise/sigma", "p2o/F", "p2o/Fq",
                           "hessian/chol_L", "qoi/Q", "qoi/cov"})
    EXPECT_TRUE(bundle.has(name)) << name;
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
  // Build-strategy knobs do not change the artifacts -> not fingerprinted.
  TwinConfig parallel = twin_->config();
  parallel.phase1_parallel = !parallel.phase1_parallel;
  EXPECT_EQ(parallel.fingerprint(), twin_->config().fingerprint());
}

TEST_F(ArtifactBundleTest, MatrixAccessorThrowsOnWarmHessian) {
  // Only L ships; the formed K is cold-path-only by design.
  EXPECT_NO_THROW((void)twin_->hessian().matrix());
  EXPECT_THROW((void)warm_->hessian().matrix(), std::logic_error);
  EXPECT_EQ(warm_->hessian().dim(), twin_->hessian().dim());
  EXPECT_DOUBLE_EQ(warm_->hessian().noise().sigma,
                   twin_->hessian().noise().sigma);
}

// ---- corrupt-file suite ---------------------------------------------------

TEST_F(ArtifactBundleTest, RejectsBadMagic) {
  const auto bad = temp_path("tsunami_bad_magic.bundle");
  auto bytes = read_file(*path_);
  bytes[0] ^= 0x5a;  // corrupt the magic (checksum now also wrong)
  write_file(bad, bytes);
  EXPECT_THROW((void)load_bundle(bad), std::runtime_error);
  std::filesystem::remove(bad);
}

TEST_F(ArtifactBundleTest, RejectsTruncatedHeader) {
  const auto bad = temp_path("tsunami_trunc_header.bundle");
  auto bytes = read_file(*path_);
  bytes.resize(12);
  write_file(bad, bytes);
  EXPECT_THROW((void)load_bundle(bad), std::runtime_error);
  std::filesystem::remove(bad);
}

TEST_F(ArtifactBundleTest, RejectsTruncatedPayload) {
  const auto bad = temp_path("tsunami_trunc_payload.bundle");
  auto bytes = read_file(*path_);
  bytes.resize(bytes.size() - bytes.size() / 3);
  write_file(bad, bytes);
  EXPECT_THROW((void)load_bundle(bad), std::runtime_error);
  std::filesystem::remove(bad);
}

TEST_F(ArtifactBundleTest, RejectsFlippedPayloadByte) {
  const auto bad = temp_path("tsunami_bitflip.bundle");
  auto bytes = read_file(*path_);
  bytes[bytes.size() / 2] ^= 0x01;  // checksum catches a single bit flip
  write_file(bad, bytes);
  EXPECT_THROW((void)load_bundle(bad), std::runtime_error);
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
  append_u64(buf, fnv1a(buf.data(), buf.size()));
  const auto path = temp_path("tsunami_overflow.bundle");
  write_file(path, buf);
  EXPECT_THROW((void)load_bundle(path), std::runtime_error);
  std::filesystem::remove(path);
}

TEST(ArtifactBundleFormat, RejectsUnsupportedVersion) {
  std::vector<char> buf;
  append_u64(buf, 0x5453'42554e444c45ULL);
  append_u64(buf, kBundleFormatVersion + 7);
  append_u64(buf, 0);
  append_u64(buf, 0);
  append_u64(buf, fnv1a(buf.data(), buf.size()));
  const auto path = temp_path("tsunami_version.bundle");
  write_file(path, buf);
  EXPECT_THROW((void)load_bundle(path), std::runtime_error);
  std::filesystem::remove(path);
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
}

TEST_F(ArtifactBundleTest, RejectsSectionDimensionMismatch) {
  // Consistent fingerprint/config but a Cholesky factor of the wrong shape:
  // the per-section dimension checks must refuse it.
  ArtifactBundle tampered = twin_->make_bundle();
  tampered.set_matrix("hessian/chol_L", Matrix(3, 3, 1.0));
  EXPECT_THROW((void)DigitalTwin(tampered), std::runtime_error);
  ArtifactBundle missing = twin_->make_bundle();
  EXPECT_THROW((void)missing.at("no/such/section"), std::runtime_error);
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
  DigitalTwin twin = DigitalTwin::load_offline(*path_);
  const StreamingEngine engine = twin.make_streaming();
  EXPECT_TRUE(engine.operators_alive());
  // Re-running Phase 2+3 replaces the posterior/predictor the engine's
  // slabs were baked from; the old engine must refuse to keep slicing.
  twin.run_phase2(NoiseModel{event_->noise.sigma});
  EXPECT_FALSE(engine.operators_alive());
  EXPECT_THROW((void)engine.start(), std::logic_error);
  twin.run_phase3();
  const StreamingEngine fresh = twin.make_streaming();
  EXPECT_TRUE(fresh.operators_alive());
  EXPECT_NO_THROW((void)fresh.start());
  // Every engine is guarded: there is no token-less construction.
  EXPECT_THROW(StreamingEngine(twin.posterior(), twin.predictor(), {}, nullptr,
                               nullptr),
               std::invalid_argument);
}

// ---- ScenarioBank warm-start path -----------------------------------------

TEST_F(ArtifactBundleTest, ScenarioBankBootsFromBundle) {
  ScenarioBank bank = ScenarioBank::from_bundle(*path_, 3, 11);
  EXPECT_EQ(bank.size(), 3u);
  EXPECT_TRUE(bank.twin().online_ready());
  bank.synthesize(7);
  const EnsembleReport report = bank.run_online();
  EXPECT_EQ(report.scenarios.size(), 3u);
  for (const auto& r : report.scenarios) {
    EXPECT_TRUE(std::isfinite(r.forecast_error));
    EXPECT_GE(r.ci_coverage, 0.0);
  }
  // The owning bank keeps its twin alive through moves of the report path;
  // streaming sweeps work off the same warm state.
  const StreamingEngine engine = bank.twin().make_streaming();
  const StreamingSweepReport sweep = bank.run_streaming(engine);
  EXPECT_EQ(sweep.scenarios.size(), 3u);
}

}  // namespace
}  // namespace tsunami

// The HPC side of the paper's deployment split (SecVIII): run Phases 1-3
// once, then ship their products as ONE versioned artifact bundle. The
// warning center boots from that bundle alone, with zero PDE solves:
//
//   $ ./examples/offline_build [dir]     # default dir: twin_artifacts
//
// then, on the serving side, EngineCache::load("<dir>/cascadia.bundle") (as
// examples/warning_service.cpp does). In a deployment the observations come
// off the seafloor cable in real time; everything else the warning center
// needs is in the bundle.

#include <cstdio>
#include <filesystem>

#include "core/digital_twin.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

int main(int argc, char** argv) {
  using namespace tsunami;

  const std::string dir = argc > 1 ? argv[1] : "twin_artifacts";
  std::filesystem::create_directories(dir);

  TwinConfig config = TwinConfig::tiny();
  config.num_intervals = 24;
  config.observation_dt = 4.0;

  std::printf("=== Offline build (HPC side of the deployment split) ===\n");
  Stopwatch boot;
  DigitalTwin twin(config);

  RuptureConfig rupture_cfg;
  Asperity asperity;
  asperity.x0 = 0.3 * config.bathymetry.length_x;
  asperity.y0 = 0.5 * config.bathymetry.length_y;
  asperity.rx = 16e3;
  asperity.ry = 24e3;
  asperity.peak_uplift = 2.2;
  rupture_cfg.asperities.push_back(asperity);
  rupture_cfg.hypocenter_x = asperity.x0;
  rupture_cfg.hypocenter_y = asperity.y0;
  Rng rng(3);
  const SyntheticEvent event = twin.synthesize(RuptureScenario(rupture_cfg), rng);

  twin.run_offline(event.noise);
  const double offline_seconds = boot.seconds();

  // One file carries the whole online phase (bundle built once; at paper
  // scale its payload is the dominant memory object).
  const std::string bundle_path = dir + "/cascadia.bundle";
  Stopwatch save_watch;
  const ArtifactBundle bundle = twin.make_bundle();
  save_bundle(bundle_path, bundle);
  const double save_seconds = save_watch.seconds();

  TextTable table({"section", "shape", "MB"});
  for (const auto& s : bundle.sections()) {
    std::string shape;
    for (std::size_t i = 0; i < s.dims.size(); ++i) {
      // Appends (not char* + string&& operator+) dodge a GCC 12 -Wrestrict
      // false positive inlined from libstdc++.
      if (i != 0) shape += 'x';
      shape += std::to_string(s.dims[i]);
    }
    table.row().cell(s.name).cell(shape).cell(
        static_cast<double>(s.data.size() * sizeof(double)) / 1e6, 3);
  }
  std::printf("%s\n", table.str().c_str());

  std::printf(
      "offline phases (incl. %zu+%zu adjoint solves, K factorization): %s\n",
      config.num_sensors, config.num_gauges,
      format_duration(offline_seconds).c_str());
  std::printf("bundle written to %s: %.3f MB in %s (fingerprint %016llx)\n",
              bundle_path.c_str(),
              static_cast<double>(
                  std::filesystem::file_size(bundle_path)) / 1e6,
              format_duration(save_seconds).c_str(),
              static_cast<unsigned long long>(bundle.fingerprint));
  std::printf(
      "ship %s to the warning center and boot it with "
      "EngineCache::load(\"%s\"), as examples/warning_service does\n",
      bundle_path.c_str(), bundle_path.c_str());
  return 0;
}

// Telemetry switches for tests: one reset shared by the fixtures that
// restore them, and an RAII guard for a test body that needs them on.

#pragma once

#include <gtest/gtest.h>

#include <filesystem>
#include <string>

#include "obs/telemetry.hpp"

namespace alps::test {

/// Telemetry off, no file sink, tail and registries emptied.
inline void reset_telemetry() {
  obs::set_telemetry(false);
  obs::set_telemetry_path("");
  obs::telemetry_reset_for_testing();
}

/// Telemetry on, writing `file` under the test temp directory, for one
/// scope; reset again however the scope exits.
struct TelemetryOn {
  explicit TelemetryOn(const std::string& file) {
    obs::set_telemetry_path(
        (std::filesystem::path(::testing::TempDir()) / file).string());
    obs::set_telemetry(true);
  }
  ~TelemetryOn() { reset_telemetry(); }
  TelemetryOn(const TelemetryOn&) = delete;
  TelemetryOn& operator=(const TelemetryOn&) = delete;
};

}  // namespace alps::test

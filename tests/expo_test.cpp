// Prometheus exposition: name sanitization and counter/gauge/summary
// rendering.
#include <gtest/gtest.h>

#include <string>

#include "socet/obs/expo.hpp"
#include "socet/obs/metrics.hpp"

namespace socet {
namespace {

class ExpoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::Registry::instance().reset();
    obs::set_metrics_enabled(true);
  }
  void TearDown() override {
    obs::set_metrics_enabled(false);
    obs::Registry::instance().reset();
  }
};

// --------------------------------------------------------------- sanitizer

TEST_F(ExpoTest, PrometheusNameSanitizesOutsideTheAllowedSet) {
  EXPECT_EQ(obs::prometheus_name("serve/request_us"), "serve_request_us");
  EXPECT_EQ(obs::prometheus_name("ccg.relax-count"), "ccg_relax_count");
  EXPECT_EQ(obs::prometheus_name("already_fine_9"), "already_fine_9");
  // A leading digit is not a valid first character.
  EXPECT_EQ(obs::prometheus_name("9lives"), "_9lives");
  EXPECT_EQ(obs::prometheus_name(""), "");
}

// -------------------------------------------------------------- exposition

TEST_F(ExpoTest, RendersCountersGaugesAndSummaries) {
  obs::Registry::instance().counter("serve/requests").add(7);
  obs::Registry::instance().gauge("pool/size").record_max(3);
  auto& h = obs::Registry::instance().histogram("serve/request_us");
  for (std::uint64_t v = 1; v <= 100; ++v) h.record(v);

  const std::string text = obs::prometheus_text();
  EXPECT_NE(text.find("# TYPE socet_serve_requests_total counter"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("socet_serve_requests_total 7"), std::string::npos);
  EXPECT_NE(text.find("# TYPE socet_pool_size gauge"), std::string::npos);
  EXPECT_NE(text.find("socet_pool_size 3"), std::string::npos);
  EXPECT_NE(text.find("# TYPE socet_serve_request_us summary"),
            std::string::npos);
  EXPECT_NE(text.find("socet_serve_request_us{quantile=\"0.5\"}"),
            std::string::npos);
  EXPECT_NE(text.find("socet_serve_request_us_sum 5050"), std::string::npos);
  EXPECT_NE(text.find("socet_serve_request_us_count 100"), std::string::npos);
  // Cumulative families only: there are no rolling-window families.
  EXPECT_EQ(text.find("socet_window_"), std::string::npos) << text;
}

}  // namespace
}  // namespace socet

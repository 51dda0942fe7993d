// Tests for the HTTP introspection server (src/obs/http_exporter): loopback
// GETs of every route with response validation, malformed-request rejection
// (bad request line, wrong method, unknown path, oversized header), the
// host:port spec parser, and — the load-bearing one — a concurrent scrape
// loop hammering /metrics and /events THROUGHOUT a 64-event replay whose
// forecasts must remain bit-identical to serial references (the exporter
// must never perturb the service).

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "obs/bridge.hpp"
#include "obs/http_exporter.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "service/engine_cache.hpp"
#include "service/warning_service.hpp"
#include "util/rng.hpp"

namespace tsunami {
namespace {

/// Minimal blocking HTTP client: one request, read to EOF (the server is
/// HTTP/1.0 Connection: close).
struct HttpReply {
  int status = 0;
  std::string body;
  bool ok = false;
};

HttpReply http_raw(std::uint16_t port, const std::string& raw) {
  HttpReply reply;
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return reply;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(fd);
    return reply;
  }
  std::size_t sent = 0;
  while (sent < raw.size()) {
    const ssize_t n = ::send(fd, raw.data() + sent, raw.size() - sent, 0);
    if (n <= 0) break;
    sent += static_cast<std::size_t>(n);
  }
  std::string full;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    full.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  if (full.compare(0, 9, "HTTP/1.0 ") != 0) return reply;
  reply.status = std::atoi(full.c_str() + 9);
  const std::size_t split = full.find("\r\n\r\n");
  if (split != std::string::npos) reply.body = full.substr(split + 4);
  reply.ok = true;
  return reply;
}

HttpReply http_get(std::uint16_t port, const std::string& target) {
  return http_raw(port, "GET " + target + " HTTP/1.0\r\nHost: t\r\n\r\n");
}

/// Same shared tiny twin + engine cache as tests/test_service.cpp.
class HttpTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto twin = std::make_shared<DigitalTwin>(TwinConfig::tiny());
    RuptureConfig rc;
    Asperity a;
    a.x0 = 0.3 * twin->mesh().length_x();
    a.y0 = 0.5 * twin->mesh().length_y();
    a.rx = 16e3;
    a.ry = 24e3;
    a.peak_uplift = 2.0;
    rc.asperities.push_back(a);
    rc.hypocenter_x = a.x0;
    rc.hypocenter_y = a.y0;
    Rng rng(5);
    event_ = new SyntheticEvent(twin->synthesize(RuptureScenario(rc), rng));
    twin->run_offline(event_->noise);
    cache_ = new EngineCache({.track_map = false});
    cached_ = new std::shared_ptr<const CachedEngine>(cache_->adopt(twin));
  }
  static void TearDownTestSuite() {
    delete cached_;
    delete cache_;
    delete event_;
    cached_ = nullptr;
    cache_ = nullptr;
    event_ = nullptr;
  }

  static std::vector<double> make_obs(unsigned e) {
    std::vector<double> d = event_->d_true;
    Rng rng(1000 + e);
    for (auto& v : d) v += event_->noise.sigma * rng.normal();
    return d;
  }

  static std::size_t nt() { return (*cached_)->engine().num_ticks(); }
  static std::size_t nd() { return (*cached_)->engine().block_size(); }
  static std::span<const double> block(const std::vector<double>& d,
                                       std::size_t t) {
    return std::span<const double>(d).subspan(t * nd(), nd());
  }

  /// An exporter wired exactly like examples/warning_service.cpp, on an
  /// ephemeral port.
  static std::unique_ptr<obs::HttpExporter> make_exporter(
      WarningService& service) {
    auto http = std::make_unique<obs::HttpExporter>(
        obs::HttpExporter::Options{.host = "127.0.0.1", .port = 0});
    http->route("/metrics", [&service](const obs::HttpRequest&) {
      obs::MetricsSnapshot snap;
      service.collect_metrics(snap);
      obs::collect_trace(snap);
      return obs::HttpResponse{200, "text/plain; version=0.0.4; charset=utf-8",
                               obs::prometheus_text(snap)};
    });
    http->route("/healthz", [](const obs::HttpRequest&) {
      return obs::HttpResponse{200, "text/plain; charset=utf-8", "ok\n"};
    });
    http->route("/readyz", [](const obs::HttpRequest&) {
      return obs::HttpResponse{200, "text/plain; charset=utf-8", "ok\n"};
    });
    http->route("/tracez", [](const obs::HttpRequest&) {
      return obs::HttpResponse{200, "application/json",
                               obs::chrome_trace_json()};
    });
    http->route("/events", [&service](const obs::HttpRequest&) {
      return obs::HttpResponse{200, "application/json", service.events_json()};
    });
    return http;
  }

  static SyntheticEvent* event_;
  static EngineCache* cache_;
  static std::shared_ptr<const CachedEngine>* cached_;
};

SyntheticEvent* HttpTest::event_ = nullptr;
EngineCache* HttpTest::cache_ = nullptr;
std::shared_ptr<const CachedEngine>* HttpTest::cached_ = nullptr;

TEST(HttpExporterTest, ParseHostport) {
  std::string host;
  std::uint16_t port = 0;
  EXPECT_TRUE(obs::HttpExporter::parse_hostport("9109", host, port));
  EXPECT_EQ(host, "127.0.0.1");
  EXPECT_EQ(port, 9109);
  EXPECT_TRUE(obs::HttpExporter::parse_hostport(":8080", host, port));
  EXPECT_EQ(host, "127.0.0.1");
  EXPECT_EQ(port, 8080);
  EXPECT_TRUE(obs::HttpExporter::parse_hostport("0.0.0.0:80", host, port));
  EXPECT_EQ(host, "0.0.0.0");
  EXPECT_EQ(port, 80);
  EXPECT_FALSE(obs::HttpExporter::parse_hostport("", host, port));
  EXPECT_FALSE(obs::HttpExporter::parse_hostport("host:", host, port));
  EXPECT_FALSE(obs::HttpExporter::parse_hostport("host:abc", host, port));
  EXPECT_FALSE(obs::HttpExporter::parse_hostport("host:70000", host, port));
}

TEST(HttpExporterTest, EphemeralPortStartStopIdempotent) {
  obs::HttpExporter http;
  http.route("/ping", [](const obs::HttpRequest&) {
    return obs::HttpResponse{200, "text/plain", "pong"};
  });
  ASSERT_TRUE(http.start()) << http.last_error();
  EXPECT_GT(http.port(), 0);
  EXPECT_TRUE(http.running());
  EXPECT_TRUE(http.start());  // second start: no-op success

  const HttpReply r = http_get(http.port(), "/ping");
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.status, 200);
  EXPECT_EQ(r.body, "pong");
  EXPECT_GE(http.requests_served(), 1u);

  http.stop();
  EXPECT_FALSE(http.running());
  http.stop();  // idempotent
}

TEST_F(HttpTest, RoutesServeLiveServiceState) {
  WarningService service({.num_workers = 2});
  auto http = make_exporter(service);
  ASSERT_TRUE(http->start()) << http->last_error();

  const std::vector<double> d = make_obs(1);
  const EventId id = service.open_event(*cached_);
  for (std::size_t t = 0; t < nt(); ++t) service.submit(id, t, block(d, t));
  service.drain();

  const HttpReply health = http_get(http->port(), "/healthz");
  ASSERT_TRUE(health.ok);
  EXPECT_EQ(health.status, 200);
  EXPECT_EQ(health.body, "ok\n");
  EXPECT_EQ(http_get(http->port(), "/readyz").status, 200);

  const HttpReply metrics = http_get(http->port(), "/metrics");
  ASSERT_TRUE(metrics.ok);
  EXPECT_EQ(metrics.status, 200);
  EXPECT_EQ(obs::validate_prometheus(metrics.body), "");
  EXPECT_NE(metrics.body.find("tsunami_service_push_latency_seconds"),
            std::string::npos);
  EXPECT_NE(metrics.body.find("tsunami_slo_time_to_first_forecast_seconds"),
            std::string::npos);
  EXPECT_NE(metrics.body.find("tsunami_slo_alert_lead_time_seconds"),
            std::string::npos);
  EXPECT_NE(metrics.body.find("tsunami_service_forecast_staleness_seconds"),
            std::string::npos);
  EXPECT_NE(metrics.body.find("tsunami_trace_dropped_total"),
            std::string::npos);

  const HttpReply events = http_get(http->port(), "/events");
  ASSERT_TRUE(events.ok);
  EXPECT_EQ(events.status, 200);
  EXPECT_NE(events.body.find("\"events\":["), std::string::npos);
  EXPECT_NE(events.body.find("\"kind\":\"open\""), std::string::npos);
  EXPECT_NE(events.body.find("\"kind\":\"first_tick\""), std::string::npos);

  const HttpReply trace = http_get(http->port(), "/tracez");
  ASSERT_TRUE(trace.ok);
  EXPECT_EQ(trace.status, 200);
  EXPECT_NE(trace.body.find("traceEvents"), std::string::npos);

  (void)service.close_event(id);
}

TEST_F(HttpTest, MalformedRequestsAreRejectedNotCrashed) {
  WarningService service({.num_workers = 1});
  auto http = make_exporter(service);
  ASSERT_TRUE(http->start()) << http->last_error();
  const std::uint16_t port = http->port();

  EXPECT_EQ(http_raw(port, "garbage\r\n\r\n").status, 400);
  EXPECT_EQ(http_raw(port, "GET /\r\n\r\n").status, 400);  // no HTTP version
  EXPECT_EQ(http_raw(port, "POST /metrics HTTP/1.0\r\n\r\n").status, 405);
  EXPECT_EQ(http_get(port, "/no-such-route").status, 404);
  // Oversized header block: bounced with 431 before buffering unboundedly.
  std::string huge = "GET /metrics HTTP/1.0\r\nX-Pad: ";
  huge.append(16384, 'x');
  EXPECT_EQ(http_raw(port, huge).status, 431);
  // The server survives all of the above and still serves.
  EXPECT_EQ(http_get(port, "/healthz").status, 200);
}

// The acceptance criterion: scraping /metrics and /events CONCURRENTLY with
// a 64-event replay must not perturb the service — every per-event forecast
// stays bit-identical to an independent serial replay, and every scrape
// returns valid output.
TEST_F(HttpTest, ConcurrentScrapeDuringReplayIsBitIdentical) {
  constexpr unsigned kEvents = 64;
  constexpr std::size_t kProducers = 4;

  std::vector<std::vector<double>> obs;
  obs.reserve(kEvents);
  for (unsigned e = 0; e < kEvents; ++e) obs.push_back(make_obs(300 + e));

  WarningService service({.num_workers = 4});
  auto http = make_exporter(service);
  ASSERT_TRUE(http->start()) << http->last_error();
  const std::uint16_t port = http->port();

  std::vector<EventId> ids;
  ids.reserve(kEvents);
  for (unsigned e = 0; e < kEvents; ++e)
    ids.push_back(service.open_event(*cached_));

  std::atomic<bool> done{false};
  std::atomic<int> scrapes{0};
  std::atomic<int> scrape_failures{0};
  std::thread scraper([&] {
    while (!done.load(std::memory_order_acquire)) {
      const HttpReply m = http_get(port, "/metrics");
      if (!m.ok || m.status != 200 || !obs::validate_prometheus(m.body).empty())
        scrape_failures.fetch_add(1, std::memory_order_relaxed);
      const HttpReply ev = http_get(port, "/events");
      if (!ev.ok || ev.status != 200 ||
          ev.body.find("\"events\":[") == std::string::npos)
        scrape_failures.fetch_add(1, std::memory_order_relaxed);
      scrapes.fetch_add(1, std::memory_order_relaxed);
    }
  });

  // Producers submit ticks [t0, t1) of every event, in tick order.
  auto submit_ticks = [&](std::size_t t0, std::size_t t1) {
    std::vector<std::thread> producers;
    for (std::size_t p = 0; p < kProducers; ++p) {
      producers.emplace_back([&, p] {
        for (std::size_t t = t0; t < t1; ++t)
          for (unsigned e = static_cast<unsigned>(p); e < kEvents;
               e += kProducers)
            service.submit(ids[e], t, block(obs[e], t));
      });
    }
    for (auto& th : producers) th.join();
  };
  // Half of every event goes in, then the replay holds until one whole
  // /metrics + /events pair has run after that point (the pair in flight
  // may have started earlier, hence two), so some scrape overlaps the
  // replay however the host schedules the threads.
  submit_ticks(0, nt() / 2);
  const int target = scrapes.load(std::memory_order_relaxed) + 2;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (scrapes.load(std::memory_order_relaxed) < target &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  if (scrapes.load(std::memory_order_relaxed) < target)
    ADD_FAILURE() << "no scrape completed during the replay within 30 s";
  submit_ticks(nt() / 2, nt());
  service.drain();
  done.store(true, std::memory_order_release);
  scraper.join();

  EXPECT_GT(scrapes.load(std::memory_order_relaxed), 0);
  EXPECT_EQ(scrape_failures.load(std::memory_order_relaxed), 0);

  const StreamingEngine& eng = (*cached_)->engine();
  for (unsigned e = 0; e < kEvents; ++e) {
    StreamingAssimilator ref = eng.start();
    for (std::size_t t = 0; t < nt(); ++t) ref.push(t, block(obs[e], t));
    const Forecast expect = ref.forecast();
    const EventSnapshot got = service.close_event(ids[e]);
    ASSERT_TRUE(got.complete) << "event " << e;
    EXPECT_EQ(got.forecast.mean, expect.mean) << "event " << e;
    EXPECT_EQ(got.forecast.stddev, expect.stddev) << "event " << e;
    EXPECT_EQ(got.forecast.lower95, expect.lower95) << "event " << e;
    EXPECT_EQ(got.forecast.upper95, expect.upper95) << "event " << e;
  }
}

}  // namespace
}  // namespace tsunami

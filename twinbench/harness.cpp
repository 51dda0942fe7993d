#include "harness.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <pthread.h>
#include <sched.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <mutex>
#include <thread>

#include "obs/trace.hpp"

namespace twinbench {

// ---- statistics -----------------------------------------------------------

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double median(std::vector<double> v) { return percentile(std::move(v), 50.0); }

double block_rate(std::vector<std::int64_t> stamps, std::size_t n) {
  std::sort(stamps.begin(), stamps.end());
  std::vector<double> rates;
  for (std::size_t i = 0; i + n < stamps.size(); i += n)
    if (stamps[i + n] > stamps[i])
      rates.push_back(static_cast<double>(n) * 1e9 /
                      static_cast<double>(stamps[i + n] - stamps[i]));
  return median(rates);
}

// ---- span recorder ----------------------------------------------------------

struct Tracer::Buffer {
  std::vector<Span> spans;
  std::vector<int> stack;
  std::uint32_t tid = 0;
};

namespace {
std::mutex g_buffers_mutex;
std::vector<std::unique_ptr<Tracer::Buffer>>& buffers() {
  static std::vector<std::unique_ptr<Tracer::Buffer>> b;
  return b;
}
}  // namespace

Tracer& Tracer::get() {
  static Tracer t;
  return t;
}

Tracer::Buffer& Tracer::local() {
  thread_local Buffer* mine = nullptr;
  if (mine == nullptr) {
    auto b = std::make_unique<Buffer>();
    b->spans.reserve(1 << 16);
    const std::lock_guard<std::mutex> lock(g_buffers_mutex);
    b->tid = static_cast<std::uint32_t>(buffers().size() + 1);
    mine = b.get();
    buffers().push_back(std::move(b));
  }
  return *mine;
}

int Tracer::begin(const char* name, std::uint64_t event) {
  Buffer& b = local();
  Span s;
  s.name = name;
  s.start_ns = tsunami::obs::monotonic_ns();
  s.parent = b.stack.empty() ? -1 : b.stack.back();
  s.tid = b.tid;
  s.event = event;
  b.spans.push_back(s);
  const int index = static_cast<int>(b.spans.size() - 1);
  b.stack.push_back(index);
  return index;
}

void Tracer::end(int index) {
  Buffer& b = local();
  b.spans[static_cast<std::size_t>(index)].end_ns =
      tsunami::obs::monotonic_ns();
  if (!b.stack.empty()) b.stack.pop_back();
}

std::size_t Tracer::size() const {
  const std::lock_guard<std::mutex> lock(g_buffers_mutex);
  std::size_t n = 0;
  for (const auto& b : buffers()) n += b->spans.size();
  return n;
}

std::map<std::string, std::pair<double, std::size_t>> Tracer::self_times()
    const {
  const std::lock_guard<std::mutex> lock(g_buffers_mutex);
  std::map<std::string, std::pair<double, std::size_t>> out;
  for (const auto& b : buffers()) {
    std::vector<std::int64_t> child(b->spans.size(), 0);
    for (const Span& s : b->spans)
      if (s.parent >= 0)
        child[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
    for (std::size_t i = 0; i < b->spans.size(); ++i) {
      const Span& s = b->spans[i];
      auto& slot = out[s.name];
      slot.first += static_cast<double>(s.end_ns - s.start_ns - child[i]) * 1e-9;
      slot.second += 1;
    }
  }
  return out;
}

bool Tracer::write_chrome_trace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("{\"traceEvents\":[", f);
  bool first = true;
  const std::lock_guard<std::mutex> lock(g_buffers_mutex);
  for (const auto& b : buffers()) {
    for (std::size_t i = 0; i < b->spans.size(); ++i) {
      const Span& s = b->spans[i];
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"cat\":\"%.*s\",\"ph\":\"X\",\"pid\":1,"
                   "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"event\":%llu,"
                   "\"id\":%zu,\"parent\":%d}}",
                   first ? "" : ",\n", s.name,
                   static_cast<int>(std::strcspn(s.name, ".")), s.name, s.tid,
                   static_cast<double>(s.start_ns) * 1e-3,
                   static_cast<double>(s.end_ns - s.start_ns) * 1e-3,
                   static_cast<unsigned long long>(s.event), i, s.parent);
      first = false;
    }
  }
  std::fputs("]}\n", f);
  return std::fclose(f) == 0;
}

// ---- machine probes -------------------------------------------------------

CpuTimes read_cpu_times() {
  CpuTimes t;
  std::ifstream in("/proc/stat");
  std::string label;
  if (!(in >> label) || label != "cpu") return t;
  std::uint64_t v = 0;
  for (int field = 0; field < 10 && (in >> v); ++field) {
    // user nice system idle iowait irq softirq steal guest guest_nice;
    // guest time is already included in user/nice.
    if (field < 8) t.total += v;
    if (field == 7) t.steal = v;
  }
  t.ok = true;
  return t;
}

double steal_pct(const CpuTimes& a, const CpuTimes& b) {
  if (!a.ok || !b.ok || b.total <= a.total) return 0.0;
  return 100.0 * static_cast<double>(b.steal - a.steal) /
         static_cast<double>(b.total - a.total);
}

namespace {
/// A "Vm...:  N kB" line of /proc/self/status, in MB.
double status_mb(const char* key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::size_t n = std::strlen(key);
  while (std::getline(in, line))
    if (line.compare(0, n, key) == 0)
      return std::strtod(line.c_str() + n, nullptr) * 1024.0 / 1e6;
  return 0.0;
}
}  // namespace

double peak_rss_mb() { return status_mb("VmHWM:"); }

double speed_probe_ms() {
  std::vector<double> ms;
  for (int rep = 0; rep < 9; ++rep) {
    // Opaque inputs, so the chain cannot be folded at compile time.
    volatile double start = 1.0, a = 0.999999, b = 1e-6;
    const double ca = a, cb = b;
    const std::int64_t t0 = tsunami::obs::monotonic_ns();
    double x = start;
    for (int i = 0; i < 1'000'000; ++i) x = x * ca + cb;
    volatile double sink = x;
    (void)sink;
    ms.push_back(static_cast<double>(tsunami::obs::monotonic_ns() - t0) * 1e-6);
  }
  return median(ms);
}

std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> out;
  if (sched_getaffinity(0, sizeof set, &set) != 0) return out;
  for (int c = 0; c < CPU_SETSIZE; ++c)
    if (CPU_ISSET(c, &set)) out.push_back(c);
  return out;
}

bool pin_thread(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int c : cpus) CPU_SET(c, &set);
  return !cpus.empty() &&
         pthread_setaffinity_np(pthread_self(), sizeof set, &set) == 0;
}

std::size_t llc_bytes() {
  long v = sysconf(_SC_LEVEL3_CACHE_SIZE);
  if (v <= 0) v = sysconf(_SC_LEVEL2_CACHE_SIZE);
  return v > 0 ? static_cast<std::size_t>(v) : 0;
}

TriadResult stream_triad(std::size_t array_bytes, std::size_t threads,
                         int passes) {
  const std::size_t n = array_bytes / sizeof(double);
  std::unique_ptr<double[]> a(new double[n]), b(new double[n]),
      c(new double[n]);
  threads = std::max<std::size_t>(threads, 1);
  auto parallel = [&](auto&& body) {
    std::vector<std::thread> pool;
    for (std::size_t w = 0; w < threads; ++w)
      pool.emplace_back([&, w] { body(w * n / threads, (w + 1) * n / threads); });
    for (auto& th : pool) th.join();
  };
  // First touch on the threads that later stream the same ranges.
  parallel([&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      a[i] = 0.0;
      b[i] = 1.0;
      c[i] = 2.0;
    }
  });
  double best = 1e300;
  const double s = 3.0;
  for (int p = 0; p < passes; ++p) {
    const std::int64_t t0 = tsunami::obs::monotonic_ns();
    parallel([&](std::size_t lo, std::size_t hi) {
      double* __restrict ap = a.get();
      const double* __restrict bp = b.get();
      const double* __restrict cp = c.get();
      for (std::size_t i = lo; i < hi; ++i) ap[i] = bp[i] + s * cp[i];
    });
    best = std::min(best, static_cast<double>(tsunami::obs::monotonic_ns() - t0) * 1e-9);
  }
  // Keep the result observable so the passes cannot be elided.
  volatile double sink = a[n / 2];
  (void)sink;
  TriadResult r;
  r.gbs = 3.0 * static_cast<double>(n * sizeof(double)) / best / 1e9;
  r.array_mib = static_cast<double>(n * sizeof(double)) / (1024.0 * 1024.0);
  return r;
}

// ---- HTTP scrape client ---------------------------------------------------

ScrapeResult http_get(std::uint16_t port, const char* path) {
  ScrapeResult r;
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return r;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return r;
  }
  const std::string req = std::string("GET ") + path + " HTTP/1.0\r\n\r\n";
  if (::send(fd, req.data(), req.size(), MSG_NOSIGNAL) !=
      static_cast<ssize_t>(req.size())) {
    ::close(fd);
    return r;
  }
  std::string resp;
  char buf[16384];
  for (;;) {
    const ssize_t got = ::recv(fd, buf, sizeof buf, 0);
    if (got <= 0) break;
    resp.append(buf, static_cast<std::size_t>(got));
  }
  ::close(fd);
  const std::size_t head_end = resp.find("\r\n\r\n");
  if (resp.rfind("HTTP/1.", 0) != 0 || head_end == std::string::npos) return r;
  r.ok = resp.compare(9, 3, "200") == 0;
  r.body_bytes = resp.size() - head_end - 4;
  return r;
}

// ---- JSON -----------------------------------------------------------------

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string MetricList::json() const {
  std::string out = "{";
  for (std::size_t i = 0; i < names.size(); ++i) {
    const auto& [value, unit] = values.at(names[i]);
    if (i != 0) out += ",";
    out += "\"" + names[i] + "\":{\"value\":" + json_number(value) +
           ",\"unit\":\"" + unit + "\"}";
  }
  return out + "}";
}

}  // namespace twinbench

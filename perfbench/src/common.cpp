#include "common.h"

#include <algorithm>
#include <bit>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <limits>

#include "src/util/rng.h"

namespace perfbench {

double now_s() {
  return std::chrono::duration<double>(Clock::now().time_since_epoch())
      .count();
}

void Yardstick::sample(int passes) {
  for (int p = 0; p < passes; ++p) {
    const double t0 = now_s();
    double acc = 0.0;
    for (int i = 1; i <= 300'000; ++i) {
      const double x = i * 1e-6;
      acc += std::exp(-x) / std::sqrt(x + 1.0) + 1.0 / (x + 2.0);
    }
    passes_.push_back(now_s() - t0);
    // Keep the work observable so it is not optimized away.
    if (acc == -1.0) std::printf("yardstick %g\n", acc);
  }
}

double Yardstick::scale() const {
  return passes_.empty() ? 1.0 : kPassRef / minimum(passes_);
}

bool more_rounds(double start, double seconds, int rounds_done,
                 int min_rounds) {
  return rounds_done < min_rounds || now_s() - start < seconds;
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ull + salt + 0x632be59bd9b4e019ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

void Outcome::check(const std::string& name,
                    const std::function<bool()>& check,
                    const std::function<bool()>& perturbed) {
  const bool ok = check();
  const bool caught = !perturbed();
  if (!ok) {
    correct = false;
    problems.push_back("check failed: " + name);
  }
  if (!caught) {
    correct = false;
    problems.push_back("check self-test failed (accepted a perturbed value): " +
                       name);
  }
  std::printf("check %-44s %s%s\n", name.c_str(), ok ? "ok" : "FAILED",
              caught ? "" : " (self-test FAILED)");
}

double median(std::vector<double> v) {
  if (v.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double minimum(const std::vector<double>& v) {
  if (v.empty()) return std::numeric_limits<double>::quiet_NaN();
  return *std::min_element(v.begin(), v.end());
}

namespace {

std::string number(double v, bool integer) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  if (integer) {
    std::snprintf(buf, sizeof(buf), "%.0f", v);
    return buf;
  }
  // Shortest representation that round-trips: every measured digit.
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

}  // namespace

void print_result(const Outcome& out) {
  for (const auto& p : out.problems) std::printf("problem: %s\n", p.c_str());
  std::string s = "{\"correct\": ";
  s += out.correct ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(out.attempted);
  s += ", \"failed\": " + std::to_string(out.failed);
  s += ", \"metrics\": {";
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    const Metric& m = out.metrics[i];
    if (i) s += ", ";
    s += "\"" + m.name + "\": {\"value\": " + number(m.value, m.integer) +
         ", \"unit\": \"" + m.unit + "\"}";
  }
  s += "}}";
  std::printf("%s\n", s.c_str());
  std::fflush(stdout);
}

bool within_rel(double a, double b, double tol) {
  return std::isfinite(a) && std::isfinite(b) &&
         std::abs(a - b) <= tol * std::abs(b);
}

bool bit_equal(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

double next_up(double x) {
  return std::nextafter(x, std::numeric_limits<double>::infinity());
}

octgb::molecule::Molecule scale_charges(const octgb::molecule::Molecule& mol,
                                        double factor) {
  octgb::molecule::Molecule out(mol.name());
  out.reserve(mol.size());
  for (std::size_t i = 0; i < mol.size(); ++i) {
    octgb::molecule::Atom a = mol.atom(i);
    a.charge *= factor;
    out.add_atom(a);
  }
  return out;
}

std::vector<std::size_t> sample_indices(std::size_t n, std::size_t k,
                                        std::uint64_t seed) {
  std::vector<std::size_t> idx(n);
  for (std::size_t i = 0; i < n; ++i) idx[i] = i;
  octgb::util::Xoshiro256 rng(seed);
  k = std::min(k, n);
  for (std::size_t i = 0; i < k; ++i) {
    const std::size_t j = i + static_cast<std::size_t>(rng.below(n - i));
    std::swap(idx[i], idx[j]);
  }
  idx.resize(k);
  std::sort(idx.begin(), idx.end());
  return idx;
}

}  // namespace perfbench

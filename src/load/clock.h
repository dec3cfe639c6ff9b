// clock.h -- the two time bases of the load harness.
//
// The open-loop harness runs every experiment twice over in spirit:
// once in *virtual time* (the discrete-event service model in
// src/load/sim.h, where a million-request day replays in a second on
// one core, deterministically) and optionally in *real time* (the live
// driver in src/load/driver.h, injecting the same trace against a real
// PolarizationService). Both speak nanoseconds-since-epoch-zero, so a
// trace generated once (src/load/traffic.h) drives either executor.
//
// This is the only file in src/load allowed to touch a raw chrono
// clock (see the detlint rule `rawclock`): everything else in
// the subsystem is clock-agnostic by construction, which is exactly
// what makes the simulator deterministic.
#pragma once

#include <chrono>
#include <cstdint>
#include <thread>

namespace octgb::load {

/// Nanoseconds on the harness time base (virtual or scaled-real).
using Ns = std::uint64_t;

constexpr Ns kNsPerUs = 1000ull;
constexpr Ns kNsPerMs = 1000ull * 1000ull;
constexpr Ns kNsPerSec = 1000ull * 1000ull * 1000ull;

inline double to_seconds(Ns ns) { return static_cast<double>(ns) * 1e-9; }

inline Ns from_seconds(double s) {
  if (s <= 0.0) return 0;
  return static_cast<Ns>(s * 1e9 + 0.5);
}

/// Explicitly-advanced simulation clock. Monotone: advance_to() with a
/// time in the past is a no-op, so event handlers can re-anchor freely.
class VirtualClock {
 public:
  Ns now_ns() const { return now_; }
  void advance_to(Ns t) {
    if (t > now_) now_ = t;
  }

 private:
  Ns now_ = 0;
};

/// Real-time anchor for the live driver: nanoseconds since
/// construction, plus pacing and deadline arithmetic against the same
/// steady clock the service's shedding uses.
class RealTicker {
 public:
  // The sanctioned raw-clock sites of src/load: the live driver must
  // share PolarizationService's steady_clock time base for deadlines
  // to mean the same thing on both sides. lint:allow(rawclock)
  RealTicker() : start_(std::chrono::steady_clock::now()) {}

  Ns now_ns() const {
    return static_cast<Ns>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start_)  // lint:allow(rawclock)
            .count());
  }

  /// Absolute steady_clock point for `ns` on this ticker's base -- what
  /// a Request::deadline wants.
  std::chrono::steady_clock::time_point time_point_at(Ns ns) const {
    return start_ + std::chrono::nanoseconds(ns);
  }

  /// Sleeps until `ns` on this ticker's base; returns immediately when
  /// already past it (the open-loop driver then injects late rather
  /// than silently re-timing the arrival -- no coordinated omission).
  void sleep_until_ns(Ns ns) {
    std::this_thread::sleep_until(time_point_at(ns));
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

}  // namespace octgb::load

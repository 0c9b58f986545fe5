// CRC32 seals over quiescent state — the silent-data-corruption (SDC)
// detection substrate (docs/ROBUSTNESS.md).
//
// A bit flipped by bad DRAM, a cosmic ray, or a buggy out-of-bounds write
// sails straight past the NaN/Jacobian health checks: a low-mantissa flip is
// still finite and still physically plausible, yet it silently poisons every
// subsequent step of a week-long run. The defense is to *seal* data that is
// supposed to be quiescent — model state between time steps, setup-immutable
// objects such as assembled CSR matrices and Galerkin coarse operators — by
// recording a CRC32 per byte region, then verifying the bytes have not
// changed before the data is trusted again.
//
// Two tiers:
//   - `Seal`: a value-type owned by whoever also owns the mutation schedule
//     (the safeguarded stepper seals the model state at the end of each step
//     and verifies it on reentry). Arm/verify/disarm are explicit.
//   - `SealRegistry` + `ScopedSeal`: process-wide registry for long-lived
//     setup-immutable objects (GMG/AMG operator hierarchies). Objects
//     register a region provider on construction (RAII handle) and the
//     periodic scrubber (src/ptatin/scrub.hpp) sweeps every registered seal.
//
// Seals are pure readers: arming or verifying never mutates the sealed data,
// so enabling them cannot perturb a bitwise-deterministic trajectory.
// Legitimate mutations go through the owner (which re-arms) — a mismatch
// therefore *is* corruption, not a stale seal.
#pragma once

#include <cstdint>
#include <cstring>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace ptatin::sdc {

/// One contiguous byte region under a seal. `name` localizes a mismatch in
/// logs and reports ("state.velocity", "gmg.L0.values", ...).
struct Region {
  std::string name;
  const void* data = nullptr;
  std::size_t bytes = 0;
};

/// Regions re-enumerated at every arm/verify, so sealed containers may
/// reallocate between re-arms without dangling pointers.
using RegionProvider = std::function<std::vector<Region>()>;

/// Value-type seal: records (name, size, crc) per region when armed;
/// verify() re-reads the bytes and returns the names of regions whose size
/// or checksum changed. Not thread-safe — owned by a single writer.
class Seal {
public:
  /// Seal the regions as they are now. Replaces any previous arming.
  void arm(const std::vector<Region>& regions);
  void disarm() { entries_.clear(); }
  bool armed() const { return !entries_.empty(); }

  /// Names of regions that no longer match the armed checksums. A region
  /// count or size change also reports (corruption is not limited to
  /// in-place flips). Empty = intact.
  std::vector<std::string> verify(const std::vector<Region>& regions) const;

private:
  struct Entry {
    std::string name;
    std::size_t bytes = 0;
    std::uint32_t crc = 0;
  };
  std::vector<Entry> entries_;
};

/// Process-wide registry of seals over setup-immutable objects. Thread-safe;
/// entries are identified by the id returned from add() and usually managed
/// through ScopedSeal so teardown can never leave a dangling provider.
class SealRegistry {
public:
  static SealRegistry& instance();

  /// Register `provider`'s regions under `name` and arm immediately.
  /// Returns the entry id (never 0).
  std::uint64_t add(std::string name, RegionProvider provider);
  void remove(std::uint64_t id);
  /// Recompute the checksums of one entry after a sanctioned mutation.
  void rearm(std::uint64_t id);

  /// Verify every registered seal; returns "entry/region" names that
  /// mismatch. Counts sdc.seal_verifies / sdc.seal_mismatches metrics.
  std::vector<std::string> verify_all() const;

  /// Verify one entry (same naming and metrics as verify_all). Used by
  /// solve-scoped owners (GMG/AMG hierarchies) that must check their seal
  /// before destruction — the periodic scrubber would never see them.
  std::vector<std::string> verify_one(std::uint64_t id) const;

  std::size_t size() const;

private:
  struct Entry {
    std::uint64_t id = 0;
    std::string name;
    RegionProvider provider;
    Seal seal;
  };
  mutable std::mutex mu_;
  std::vector<Entry> entries_;
  std::uint64_t next_id_ = 1;
};

/// RAII registration handle: adds to the registry on construction, removes
/// on destruction. Movable, not copyable.
class ScopedSeal {
public:
  ScopedSeal() = default;
  ScopedSeal(std::string name, RegionProvider provider);
  ~ScopedSeal() { reset(); }

  ScopedSeal(const ScopedSeal&) = delete;
  ScopedSeal& operator=(const ScopedSeal&) = delete;
  ScopedSeal(ScopedSeal&& o) noexcept : id_(o.id_) { o.id_ = 0; }
  ScopedSeal& operator=(ScopedSeal&& o) noexcept {
    if (this != &o) {
      reset();
      id_ = o.id_;
      o.id_ = 0;
    }
    return *this;
  }

  /// Recompute the checksums after a sanctioned mutation of the object.
  void rearm();
  /// Verify this seal now; empty = intact (or not registered).
  std::vector<std::string> verify() const;
  void reset();
  explicit operator bool() const { return id_ != 0; }

private:
  std::uint64_t id_ = 0;
};

/// Classify a stepper failure string as silent data corruption: scrub/seal
/// failures are prefixed "sdc:", Krylov sentinel trips surface as a
/// "diverged_sdc" reason inside the nonlinear failure detail. The driver
/// maps these to exit code 6.
inline bool is_sdc_failure(const std::string& failure) {
  return failure.rfind("sdc:", 0) == 0 ||
         failure.find("diverged_sdc") != std::string::npos;
}

/// Flip the lowest mantissa bit of `v` — the canonical injected SDC: the
/// result is finite, physically plausible, and invisible to every
/// range/NaN-based health check. Used by the sdc.*_bitflip fault sites.
inline Real flip_low_mantissa_bit(Real v) {
  static_assert(sizeof(Real) == sizeof(std::uint64_t));
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof bits);
  bits ^= 1ull;
  std::memcpy(&v, &bits, sizeof v);
  return v;
}

} // namespace ptatin::sdc
